//! The manifest: the authoritative list of live segments.
//!
//! The manifest is a small JSON document (`MANIFEST.json`) naming every live
//! segment **in scan order**, the next segment id to hand out, and the total
//! number of records persisted in segments.  The store's commit protocol
//! (`commit.rs`) replaces it atomically (write `MANIFEST.tmp`, fsync,
//! rename), so a crash leaves the old or the new manifest, never a torn
//! one.  Segment files it does not name, and a leftover `MANIFEST.tmp`, are
//! orphans of a crashed spill or compaction and are deleted on open.

use crate::commit::ManifestFile;
use crate::{failpoints, Result};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// The store manifest's file names and failpoint sites.
pub(crate) const FILE: ManifestFile = ManifestFile {
    name: MANIFEST_FILE,
    tmp: "MANIFEST.tmp",
    owns: ("", ".seg"),
    write: failpoints::MANIFEST_WRITE,
    sync: failpoints::MANIFEST_SYNC,
    rename: failpoints::MANIFEST_RENAME,
    gc: failpoints::MANIFEST_GC,
};

/// One live segment, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentEntry {
    /// Unique, monotonically increasing segment id.
    pub id: u64,
    /// File name relative to the store directory.
    pub file: String,
    /// Number of records in the segment.
    pub records: u64,
    /// File size in bytes.
    pub bytes: u64,
}

/// The manifest document.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Format version (for forward compatibility).
    pub version: u32,
    /// The next segment id to allocate.
    pub next_segment_id: u64,
    /// Total records across `segments` (records durably persisted outside
    /// the WAL).  WAL replay uses this to skip already-persisted entries.
    pub records_in_segments: u64,
    /// Live segments in scan order.
    pub segments: Vec<SegmentEntry>,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest {
            version: MANIFEST_VERSION,
            next_segment_id: 0,
            records_in_segments: 0,
            segments: Vec::new(),
        }
    }
}

impl Manifest {
    /// The conventional file name of segment `id`.
    pub fn segment_file_name(id: u64) -> String {
        format!("segment-{id:06}.seg")
    }

    /// Loads the manifest from `dir`, or returns the empty default when the
    /// file does not exist (a fresh store).  A manifest of another version,
    /// or whose segment record counts do not add up, is corrupt.
    pub fn load(dir: &Path) -> Result<Manifest> {
        FILE.load_json_or_default(dir, |manifest: &Manifest| {
            let sum: u64 = manifest.segments.iter().map(|s| s.records).sum();
            if manifest.version != MANIFEST_VERSION {
                Err(format!("unsupported manifest version {}", manifest.version))
            } else if sum != manifest.records_in_segments {
                Err(format!(
                    "manifest record counts disagree ({sum} in segments vs {} recorded)",
                    manifest.records_in_segments
                ))
            } else {
                Ok(())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreError;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("disassoc_store_manifest_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Manifest {
        Manifest {
            version: MANIFEST_VERSION,
            next_segment_id: 3,
            records_in_segments: 30,
            segments: vec![
                SegmentEntry {
                    id: 0,
                    file: Manifest::segment_file_name(0),
                    records: 10,
                    bytes: 100,
                },
                SegmentEntry {
                    id: 2,
                    file: Manifest::segment_file_name(2),
                    records: 20,
                    bytes: 180,
                },
            ],
        }
    }

    #[test]
    fn missing_manifest_loads_default() {
        let dir = tmpdir("fresh");
        let m = Manifest::load(&dir).unwrap();
        assert_eq!(m, Manifest::default());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_and_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let m = sample();
        FILE.replace(&dir, &m, Vec::new()).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        assert!(!dir.join(FILE.tmp).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_rejected() {
        let dir = tmpdir("corrupt");
        std::fs::write(dir.join(MANIFEST_FILE), b"{not json").unwrap();
        assert!(matches!(
            Manifest::load(&dir).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inconsistent_record_counts_are_rejected() {
        let dir = tmpdir("counts");
        let mut m = sample();
        m.records_in_segments = 31;
        let bytes = serde_json::to_vec_pretty(&m).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), bytes).unwrap();
        assert!(Manifest::load(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphan_segments_are_removed() {
        let dir = tmpdir("orphans");
        let m = sample();
        for s in &m.segments {
            std::fs::write(dir.join(&s.file), b"live").unwrap();
        }
        std::fs::write(dir.join(Manifest::segment_file_name(1)), b"orphan").unwrap();
        std::fs::write(dir.join("unrelated.txt"), b"keep").unwrap();
        FILE.sweep(&dir, m.segments.iter().map(|s| s.file.as_str()))
            .unwrap();
        assert!(!dir.join(Manifest::segment_file_name(1)).exists());
        assert!(dir.join(Manifest::segment_file_name(0)).exists());
        assert!(dir.join(Manifest::segment_file_name(2)).exists());
        assert!(dir.join("unrelated.txt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
