//! Named failpoint sites on the store's write paths.
//!
//! Every fsync, rename, create, and payload write in the store consults the
//! [`disassoc_faults`] registry through one of these sites, so tests and the
//! torture harness can fail or "crash" the store at any durability-relevant
//! point on demand.  When nothing is armed each site costs one relaxed
//! atomic load.
//! Every commit runs through the one commit module (`commit.rs`), which
//! consults its sites in order: `*.write`, `*.sync`, `*.rename` (the flat
//! file starts at `*.sync`), and a manifest's `*.gc` on open.
//!
//! The names are part of the crate's public robustness contract:
//! `disassoc-lint` rule DL001 checks that every raw I/O call on the store,
//! CLI and daemon publication paths goes through the seam, and
//! `tests/torture_store.rs` enumerates [`ALL`] crossed with fault modes.

/// WAL entry payload write (supports torn/short writes).
pub const WAL_APPEND: &str = "store.wal.append";
/// WAL fsync (`Store::flush` durability point).
pub const WAL_SYNC: &str = "store.wal.sync";
/// WAL truncation after a memtable spill (failure poisons the log).
pub const WAL_TRUNCATE: &str = "store.wal.truncate";
/// Segment file creation (spill and compaction).
pub const SEGMENT_CREATE: &str = "store.segment.create";
/// Segment record write (supports torn/short writes).
pub const SEGMENT_WRITE: &str = "store.segment.write";
/// Segment seal: index + footer write.
pub const SEGMENT_FINISH: &str = "store.segment.finish";
/// Segment fsync before the seal is acknowledged.
pub const SEGMENT_SYNC: &str = "store.segment.sync";
/// Store manifest temp-file write.
pub const MANIFEST_WRITE: &str = "store.manifest.write";
/// Store manifest temp-file fsync.
pub const MANIFEST_SYNC: &str = "store.manifest.sync";
/// Store manifest atomic rename (the commit point).
pub const MANIFEST_RENAME: &str = "store.manifest.rename";
/// Orphaned-segment garbage collection on open.
pub const MANIFEST_GC: &str = "store.manifest.gc";
/// Spill commit window: sealed segment written, manifest not yet swapped.
pub const SPILL_COMMIT: &str = "store.spill.commit";
/// Compaction commit window: merged segment written, manifest not yet
/// swapped (the crash-atomicity regression window).
pub const COMPACT_COMMIT: &str = "store.compact.commit";
/// Chunk batch-file write while staging a publication.
pub const PUBLISH_STAGE_WRITE: &str = "store.publish.stage.write";
/// Chunk batch-file fsync while staging a publication.
pub const PUBLISH_STAGE_SYNC: &str = "store.publish.stage.sync";
/// Chunk manifest temp-file write.
pub const PUBLISH_COMMIT_WRITE: &str = "store.publish.commit.write";
/// Chunk manifest temp-file fsync.
pub const PUBLISH_COMMIT_SYNC: &str = "store.publish.commit.sync";
/// Chunk manifest atomic rename (the publication commit point).
pub const PUBLISH_COMMIT_RENAME: &str = "store.publish.commit.rename";
/// Orphaned chunk-file garbage collection on open.
pub const PUBLISH_GC: &str = "store.publish.gc";
/// Flat-file publication: `.partial` fsync before the rename.  Guards the
/// daemon's `publication.chunks.json` as well as the CLI's file: both
/// commit through [`crate::publish::commit_flat_file`].
pub const CLI_PUBLISH_SYNC: &str = "cli.publish.sync";
/// Flat-file publication: atomic rename (the commit point), for the CLI and
/// the daemon alike.
pub const CLI_PUBLISH_RENAME: &str = "cli.publish.rename";

/// Sites exercised by the ingest→spill→compact store workload.
pub const STORE_SITES: &[&str] = &[
    WAL_APPEND,
    WAL_SYNC,
    WAL_TRUNCATE,
    SEGMENT_CREATE,
    SEGMENT_WRITE,
    SEGMENT_FINISH,
    SEGMENT_SYNC,
    MANIFEST_WRITE,
    MANIFEST_SYNC,
    MANIFEST_RENAME,
    MANIFEST_GC,
    SPILL_COMMIT,
    COMPACT_COMMIT,
];

/// Sites exercised by the `ChunkDir` republication workload.
pub const PUBLISH_SITES: &[&str] = &[
    PUBLISH_STAGE_WRITE,
    PUBLISH_STAGE_SYNC,
    PUBLISH_COMMIT_WRITE,
    PUBLISH_COMMIT_SYNC,
    PUBLISH_COMMIT_RENAME,
    PUBLISH_GC,
];

/// Sites exercised by the single-file (non-chunked) publication of the CLI
/// and the daemon.
pub const CLI_SITES: &[&str] = &[CLI_PUBLISH_SYNC, CLI_PUBLISH_RENAME];

/// Every failpoint site in the store, in pipeline order.
pub const ALL: &[&str] = &[
    WAL_APPEND,
    WAL_SYNC,
    WAL_TRUNCATE,
    SEGMENT_CREATE,
    SEGMENT_WRITE,
    SEGMENT_FINISH,
    SEGMENT_SYNC,
    MANIFEST_WRITE,
    MANIFEST_SYNC,
    MANIFEST_RENAME,
    MANIFEST_GC,
    SPILL_COMMIT,
    COMPACT_COMMIT,
    PUBLISH_STAGE_WRITE,
    PUBLISH_STAGE_SYNC,
    PUBLISH_COMMIT_WRITE,
    PUBLISH_COMMIT_SYNC,
    PUBLISH_COMMIT_RENAME,
    PUBLISH_GC,
    CLI_PUBLISH_SYNC,
    CLI_PUBLISH_RENAME,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_lists_are_consistent_and_unique() {
        assert_eq!(
            ALL.len(),
            STORE_SITES.len() + PUBLISH_SITES.len() + CLI_SITES.len()
        );
        let mut names: Vec<&str> = ALL.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ALL.len(), "duplicate site names");
        for site in ALL {
            assert!(
                site.starts_with("store.") || site.starts_with("cli."),
                "{site}"
            );
        }
    }
}
