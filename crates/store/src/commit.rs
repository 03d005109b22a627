//! The one commit protocol behind every file the store publishes.
//!
//! A file is written and fsynced under a name no reader looks at yet
//! ([`write_synced`]); one `rename` onto its final name is the commit point,
//! and a directory fsync makes the rename durable ([`commit_rename`]).  A
//! crash before the rename leaves the old file, after it the new one.  A
//! [`ManifestFile`] (the store's `MANIFEST.json`, a `ChunkDir`'s
//! `CHUNKS.json`) adds the one loader, the one atomic replace, and the one
//! orphan sweep run on open.  Each step consults its failpoint site first.

use crate::{Result, StoreError};
use disassoc_faults as faults;
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::path::Path;

/// Creates `path`, writes `bytes` through the `write` site (which can tear
/// the payload), then fsyncs it once the `sync` site allows.
pub(crate) fn write_synced(path: &Path, bytes: &[u8], write: &str, sync: &str) -> Result<()> {
    let mut file = File::create(path)?;
    faults::write_all_at(write, path, &mut file, bytes)?;
    faults::check_at(sync, path)?;
    file.sync_all()?;
    Ok(())
}

/// Fsyncs a `staged` file written elsewhere (the flat publication a JSON
/// sink streamed) once the `sync` site allows, then commits it onto `to`
/// with [`commit_rename`].
pub(crate) fn sync_and_rename(staged: &Path, to: &Path, sync: &str, rename: &str) -> Result<()> {
    faults::check_at(sync, staged)?;
    File::open(staged)?.sync_all()?;
    commit_rename(staged, to, rename)
}

/// The commit point: once the `site` failpoint allows, renames the synced
/// `staged` file onto `final_path`, then fsyncs its directory (the working
/// directory for a bare file name).
pub(crate) fn commit_rename(staged: &Path, final_path: &Path, site: &str) -> Result<()> {
    faults::check_at(site, final_path)?;
    std::fs::rename(staged, final_path)?;
    let dir = final_path.parent().filter(|d| !d.as_os_str().is_empty());
    crate::sync_dir(dir.unwrap_or(Path::new(".")))?;
    Ok(())
}

/// A manifest-committed directory: the manifest's name and temp name, the
/// `(prefix, suffix)` of the file names it owns (the only ones swept), and
/// the failpoint sites of its commit and sweep.
pub(crate) struct ManifestFile {
    pub(crate) name: &'static str,
    pub(crate) tmp: &'static str,
    pub(crate) owns: (&'static str, &'static str),
    pub(crate) write: &'static str,
    pub(crate) sync: &'static str,
    pub(crate) rename: &'static str,
    pub(crate) gc: &'static str,
}

impl ManifestFile {
    /// The manifest committed in `dir` (see [`read_json`]), or the default
    /// when there is none.
    pub(crate) fn load_json_or_default<T: Deserialize + Default>(
        &self,
        dir: &Path,
        check: impl FnOnce(&T) -> std::result::Result<(), String>,
    ) -> Result<T> {
        match read_json(&dir.join(self.name), check) {
            Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(T::default()),
            loaded => loaded,
        }
    }

    /// Atomically replaces the manifest in `dir` with `doc`, then removes
    /// the `replaced` files it no longer names — best-effort, since the
    /// rename already committed and the next [`sweep`](Self::sweep)
    /// collects whatever is left.
    pub(crate) fn replace<T: Serialize>(
        &self,
        dir: &Path,
        doc: &T,
        replaced: Vec<String>,
    ) -> Result<()> {
        let tmp = dir.join(self.tmp);
        let mut bytes = Vec::new();
        doc.serialize(&mut serde_json::JsonWriter::compact(&mut bytes));
        write_synced(&tmp, &bytes, self.write, self.sync)?;
        commit_rename(&tmp, &dir.join(self.name), self.rename)?;
        for file in replaced {
            let _ = std::fs::remove_file(dir.join(file));
        }
        Ok(())
    }

    /// Deletes the files in `dir` the manifest owns but `live` does not
    /// name, and a leftover temp manifest — orphans of a crashed write or
    /// commit.
    pub(crate) fn sweep<'a>(&self, dir: &Path, live: impl Iterator<Item = &'a str>) -> Result<()> {
        faults::check_at(self.gc, dir)?;
        let live: std::collections::BTreeSet<&str> = live.collect();
        let (prefix, suffix) = self.owns;
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let owned = name.starts_with(prefix) && name.ends_with(suffix);
            if (owned && !live.contains(name)) || name == self.tmp {
                std::fs::remove_file(dir.join(name))?;
            }
        }
        Ok(())
    }
}

/// The JSON document at `path`.  Unparseable JSON (invalid UTF-8 inside a
/// string included), or a document `check` rejects, is
/// [`StoreError::Corrupt`] naming the file.
pub(crate) fn read_json<T: Deserialize>(
    path: &Path,
    check: impl FnOnce(&T) -> std::result::Result<(), String>,
) -> Result<T> {
    let bytes = std::fs::read(path)?;
    serde_json::from_slice(&bytes)
        .map_err(|e| format!("not valid JSON: {e}"))
        .and_then(|doc| check(&doc).map(|()| doc))
        .map_err(|message| StoreError::Corrupt {
            file: path.display().to_string(),
            message,
        })
}
