//! The manifest: the authoritative list of live segments.
//!
//! The manifest is a small JSON document (`MANIFEST.json`) naming every live
//! segment **in scan order**, the next segment id to hand out, and the total
//! number of records persisted in segments.  It is replaced atomically
//! (write `MANIFEST.tmp`, fsync, rename), so a crash leaves either the old or
//! the new manifest — never a torn one.  Segment files present in the
//! directory but not named by the manifest are orphans of a crashed spill or
//! compaction and are deleted on open.

use crate::{failpoints, Result, StoreError};
use disassoc_faults as faults;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::path::{Path, PathBuf};

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST.json";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

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
    /// file does not exist (a fresh store).
    pub fn load(dir: &Path) -> Result<Manifest> {
        let path = dir.join(MANIFEST_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Manifest::default()),
            Err(e) => return Err(e.into()),
        };
        let manifest: Manifest = serde_json::from_str(&text).map_err(|e| StoreError::Corrupt {
            file: path.display().to_string(),
            message: format!("manifest is not valid JSON: {e}"),
        })?;
        if manifest.version != MANIFEST_VERSION {
            return Err(StoreError::Corrupt {
                file: path.display().to_string(),
                message: format!("unsupported manifest version {}", manifest.version),
            });
        }
        let sum: u64 = manifest.segments.iter().map(|s| s.records).sum();
        if sum != manifest.records_in_segments {
            return Err(StoreError::Corrupt {
                file: path.display().to_string(),
                message: format!(
                    "manifest record counts disagree ({sum} in segments vs {} recorded)",
                    manifest.records_in_segments
                ),
            });
        }
        Ok(manifest)
    }

    /// Atomically replaces the manifest in `dir` with `self`.
    pub fn store(&self, dir: &Path) -> Result<()> {
        let tmp = dir.join(MANIFEST_TMP);
        let final_path = dir.join(MANIFEST_FILE);
        let bytes = serde_json::to_vec_pretty(self).map_err(|e| StoreError::Corrupt {
            file: tmp.display().to_string(),
            message: format!("manifest serialization failed: {e}"),
        })?;
        let mut file = File::create(&tmp)?;
        faults::write_all_at(failpoints::MANIFEST_WRITE, &tmp, &mut file, &bytes)?;
        faults::check_at(failpoints::MANIFEST_SYNC, &tmp)?;
        file.sync_all()?;
        drop(file);
        faults::check_at(failpoints::MANIFEST_RENAME, &final_path)?;
        std::fs::rename(&tmp, &final_path)?;
        crate::sync_dir(dir)?;
        Ok(())
    }

    /// Full paths of the live segment files.
    pub fn segment_paths(&self, dir: &Path) -> Vec<PathBuf> {
        self.segments.iter().map(|s| dir.join(&s.file)).collect()
    }

    /// Deletes `.seg` files in `dir` that are not referenced by the
    /// manifest (orphans of a crashed spill/compaction). Returns how many
    /// were removed.
    pub fn remove_orphans(&self, dir: &Path) -> Result<usize> {
        faults::check_at(failpoints::MANIFEST_GC, dir)?;
        let live: std::collections::BTreeSet<&str> =
            self.segments.iter().map(|s| s.file.as_str()).collect();
        let mut removed = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".seg") && !live.contains(name) {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        m.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m);
        assert!(!dir.join(MANIFEST_TMP).exists());
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
        let removed = m.remove_orphans(&dir).unwrap();
        assert_eq!(removed, 1);
        assert!(!dir.join(Manifest::segment_file_name(1)).exists());
        assert!(dir.join(Manifest::segment_file_name(0)).exists());
        assert!(dir.join("unrelated.txt").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
