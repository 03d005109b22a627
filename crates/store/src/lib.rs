//! # disassoc-store — an LSM-inspired persistent record store
//!
//! The disassociation pipeline's other crates operate on an in-memory
//! [`transact::Dataset`]; this crate gives them a persistent, write-optimized
//! record store so ingestion, scanning and cluster-at-a-time anonymization
//! all stream, keeping memory bounded by *batch size* instead of *dataset
//! size*.
//!
//! The architecture borrows the write path of an LSM tree, adapted to an
//! **ordered record log** (scan order = ingestion order; there are no keys
//! and no deletes — the anonymization pipeline consumes the dataset as an
//! append-only stream):
//!
//! * appended records land in an in-memory **memtable**, guarded by a
//!   **write-ahead log** ([`wal`]);
//! * a full memtable spills to an immutable, checksummed on-disk **segment**
//!   ([`segment`]: length-prefixed varint records, sparse offset index,
//!   footer with record count + term-universe summary + CRC-32);
//! * the **manifest** ([`manifest`]) names the live segments in scan order
//!   and is replaced atomically, so an interrupted ingest recovers to a
//!   consistent state ([`Store::open`] replays the WAL and removes orphaned
//!   segment files);
//! * **size-tiered compaction** ([`compact`]) merges runs of small adjacent
//!   segments to keep the per-scan segment count bounded;
//! * [`Store::scan`] returns a [`RecordBatchIter`] — the chunked read API
//!   the out-of-core anonymization in `disassociation::pipeline` consumes.
//!
//! ```
//! use disassoc_store::{Store, StoreConfig};
//! use transact::{Record, TermId};
//!
//! let dir = std::env::temp_dir().join("disassoc_store_doctest");
//! std::fs::remove_dir_all(&dir).ok();
//! let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
//! store.append(Record::from_ids([TermId::new(1), TermId::new(2)])).unwrap();
//! store.flush().unwrap();
//! let records: Vec<_> = store.scan(100).map(|b| b.unwrap()).flatten().collect();
//! assert_eq!(records.len(), 1);
//! std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compact;
pub mod encode;
pub mod failpoints;
pub mod manifest;
pub mod publish;
pub mod scan;
pub mod segment;
pub mod source;
pub mod wal;

pub use compact::CompactionStats;
pub use manifest::{Manifest, SegmentEntry};
pub use publish::{BatchChunks, ChunkDir, ChunkEntry, ChunkManifest};
pub use scan::RecordBatchIter;
pub use segment::{SegmentMeta, TermSummary};
pub use source::StoreSource;

use disassoc_obs::metrics::counters as obs_counters;
use manifest::MANIFEST_FILE;
use segment::{read_footer, SegmentWriter, DEFAULT_INDEX_EVERY};
use std::fs::File;
use std::path::{Path, PathBuf};
use transact::Record;

/// Errors produced by the store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A file failed validation (bad magic, checksum mismatch, torn write,
    /// malformed encoding).
    Corrupt {
        /// The offending file (may be empty for in-memory decoding errors).
        file: String,
        /// What went wrong.
        message: String,
    },
    /// The store directory is held by another live [`Store`] (possibly in
    /// another process).  Opening would run destructive recovery — orphan
    /// deletion, WAL truncation — under the holder's feet.
    Locked {
        /// The contended store directory.
        dir: String,
    },
}

impl StoreError {
    /// A corruption error not (yet) tied to a file.
    pub fn corrupt(message: impl Into<String>) -> Self {
        StoreError::Corrupt {
            file: String::new(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { file, message } if file.is_empty() => {
                write!(f, "corrupt store data: {message}")
            }
            StoreError::Corrupt { file, message } => {
                write!(f, "corrupt store file {file}: {message}")
            }
            StoreError::Locked { dir } => {
                write!(
                    f,
                    "store directory {dir} is in use by another process \
                     (close it or wait for it to finish)"
                )
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Fsyncs the directory `dir`, making the renames inside it durable.  The
/// error propagates: a commit whose rename cannot be persisted has not
/// committed.
pub(crate) fn sync_dir(dir: &Path) -> std::io::Result<()> {
    // lint:allow(seam, "directory fsync after a commit rename; every caller consults its rename failpoint before calling this")
    File::open(dir)?.sync_all()
}

/// Tuning knobs of a [`Store`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Records held in the memtable before it spills to a segment.
    pub memtable_capacity: usize,
    /// Minimum run of adjacent small segments worth merging in one
    /// compaction (values below 2 are treated as 2).
    pub compaction_min_segments: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            memtable_capacity: 8192,
            compaction_min_segments: 4,
        }
    }
}

/// Summary of a store's state (the `disassoc store-info` output).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreInfo {
    /// Total records (segments + memtable).
    pub records: u64,
    /// Records durably sealed in segments.
    pub records_in_segments: u64,
    /// Records in the memtable (WAL-backed, not yet in a segment).
    pub memtable_records: u64,
    /// Live segments in scan order, with their footer metadata.
    pub segments: Vec<(SegmentEntry, SegmentMeta)>,
    /// Current WAL size in bytes.
    pub wal_bytes: u64,
    /// Aggregate term summary over all segments (`distinct_terms` is the
    /// per-segment sum, an upper bound on the true union).
    pub terms: TermSummary,
}

impl StoreInfo {
    /// Total bytes across segment files.
    pub fn segment_bytes(&self) -> u64 {
        self.segments.iter().map(|(e, _)| e.bytes).sum()
    }
}

/// File name of the advisory lock inside a store directory.
pub const LOCK_FILE: &str = "LOCK";

/// The persistent record store.
///
/// Not internally synchronized: one `Store` value owns the directory,
/// enforced across processes by an advisory lock on `dir/LOCK` taken at
/// [`Store::open`] and released when the `Store` is dropped (or its process
/// exits, however abruptly — the OS releases advisory locks with the file
/// handle, so a crash never leaves the directory stuck).  Scans borrow the
/// store immutably; writes need `&mut self`.
pub struct Store {
    pub(crate) dir: PathBuf,
    pub(crate) config: StoreConfig,
    pub(crate) manifest: Manifest,
    wal: wal::Wal,
    pub(crate) memtable: Vec<Record>,
    recovered_records: u64,
    /// Held for the lifetime of the store; dropping releases the lock.
    _lock: File,
}

impl Store {
    /// Opens (creating if necessary) the store in `dir`, recovering any
    /// interrupted ingest: orphaned segment files are deleted and intact WAL
    /// entries not yet sealed into a segment are replayed into the memtable.
    ///
    /// Fails with [`StoreError::Locked`] if another live `Store` — in this
    /// or any other process — holds the directory: recovery is destructive
    /// (orphan deletion, WAL truncation), so even read-only consumers must
    /// wait for the holder to close.
    pub fn open<P: AsRef<Path>>(dir: P, config: StoreConfig) -> Result<Store> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let lock = std::fs::OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(false)
            .open(dir.join(LOCK_FILE))?;
        lock.try_lock().map_err(|e| match e {
            std::fs::TryLockError::WouldBlock => StoreError::Locked {
                dir: dir.display().to_string(),
            },
            std::fs::TryLockError::Error(io) => StoreError::Io(io),
        })?;
        let manifest = Manifest::load(&dir)?;
        manifest.remove_orphans(&dir)?;

        let mut memtable = Vec::new();
        let mut recovered = 0u64;
        let persisted = manifest.records_in_segments;
        let replayed = wal::replay(&dir)?;
        for entry in replayed.entries {
            let end = entry.ordinal + entry.records.len() as u64;
            if end <= persisted {
                continue; // sealed into a segment before the crash
            }
            // Partial overlap can only arise from a spill racing a crash;
            // keep the unsealed suffix.
            let skip = persisted.saturating_sub(entry.ordinal) as usize;
            recovered += (entry.records.len() - skip) as u64;
            memtable.extend(entry.records.into_iter().skip(skip));
        }
        // Drop any torn tail before reopening for append: replay stops at
        // the first invalid entry, so anything written after the garbage
        // bytes would be acknowledged yet unreachable on the next open.
        wal::truncate_to(&dir, replayed.valid_bytes)?;
        let wal = wal::Wal::open(&dir)?;
        Ok(Store {
            dir,
            config,
            manifest,
            wal,
            memtable,
            recovered_records: recovered,
            _lock: lock,
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Records recovered from the WAL by the last [`Store::open`].
    pub fn recovered_records(&self) -> u64 {
        self.recovered_records
    }

    /// Total records (sealed + memtable).
    pub fn len(&self) -> u64 {
        self.manifest.records_in_segments + self.memtable.len() as u64
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one record (WAL first, then memtable; spills when full).
    pub fn append(&mut self, record: Record) -> Result<()> {
        self.append_batch(std::slice::from_ref(&record))
    }

    /// Appends a batch of records as one WAL entry.
    ///
    /// On return the batch is in the WAL flushed to OS buffers: it survives
    /// a process crash, but not necessarily a power failure or kernel panic.
    /// Call [`Store::flush`] to establish durability against machine failure.
    pub fn append_batch(&mut self, records: &[Record]) -> Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let ordinal = self.manifest.records_in_segments + self.memtable.len() as u64;
        self.wal.append_batch(ordinal, records)?;
        self.memtable.extend_from_slice(records);
        if self.memtable.len() >= self.config.memtable_capacity.max(1) {
            self.spill()?;
        }
        Ok(())
    }

    /// Spills the memtable to a new sealed segment (no-op when empty):
    /// write + fsync the segment, commit the manifest, then truncate the WAL.
    pub fn spill(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let id = self.manifest.next_segment_id;
        let file = Manifest::segment_file_name(id);
        let path = self.dir.join(&file);
        let mut writer = SegmentWriter::create(&path, DEFAULT_INDEX_EVERY)?;
        for r in &self.memtable {
            writer.add(r)?;
        }
        let meta = writer.finish()?;
        let bytes = std::fs::metadata(&path)?.len();
        // The spill commit window: the sealed segment exists on disk but the
        // manifest does not reference it yet — a crash here must leave an
        // orphan, never a half-adopted segment.
        disassoc_faults::check_at(failpoints::SPILL_COMMIT, &self.dir)?;
        // Build and commit the successor manifest before touching any
        // in-memory state: if the commit fails, the store still agrees with
        // disk (memtable + WAL intact, the new segment file an orphan) and a
        // later scan will not see the spilled records twice.
        let mut successor = self.manifest.clone();
        successor.next_segment_id += 1;
        successor.records_in_segments += meta.record_count;
        successor.segments.push(SegmentEntry {
            id,
            file,
            records: meta.record_count,
            bytes,
        });
        successor.store(&self.dir)?;
        self.manifest = successor;
        self.memtable.clear();
        self.wal.truncate()?;
        obs_counters::STORE_MEMTABLE_SPILLS.inc();
        Ok(())
    }

    /// Seals all buffered data: spills the memtable and syncs the WAL.
    pub fn flush(&mut self) -> Result<()> {
        self.spill()?;
        self.wal.sync()
    }

    /// Runs one size-tiered compaction pass (see [`compact`]): merges runs
    /// of adjacent small segments, commits the manifest, deletes the
    /// replaced files.
    pub fn compact(&mut self) -> Result<CompactionStats> {
        let (stats, replaced, successor) = compact::compact_pass(
            &self.dir,
            &self.manifest,
            self.config.compaction_min_segments,
            compact::MAX_SEGMENT_BYTES,
        )?;
        obs_counters::STORE_COMPACTION_RUNS.inc();
        obs_counters::STORE_COMPACTION_MERGES.add(stats.merges as u64);
        obs_counters::STORE_COMPACTION_BYTES_READ.add(stats.bytes_read);
        obs_counters::STORE_COMPACTION_BYTES_WRITTEN.add(stats.bytes_written);
        if stats.merges > 0 {
            // The compaction commit window: merged segments written, the
            // manifest swap still pending — the crash-atomicity regression
            // point (neither loss nor double-counting is tolerated).
            disassoc_faults::check_at(failpoints::COMPACT_COMMIT, &self.dir)?;
            // Commit first, adopt second: an error anywhere leaves the
            // in-memory state agreeing with the on-disk state (merge outputs
            // not yet committed become orphans, removed on the next open).
            successor.store(&self.dir)?;
            self.manifest = successor;
            for file in replaced {
                std::fs::remove_file(self.dir.join(file))?;
            }
        }
        Ok(stats)
    }

    /// Scans all records in ingestion order, `batch_size` records at a time.
    pub fn scan(&self, batch_size: usize) -> RecordBatchIter<'_> {
        RecordBatchIter::new(self, batch_size)
    }

    /// Gathers the store summary (reads every segment footer; does not
    /// decode record data).
    pub fn info(&self) -> Result<StoreInfo> {
        let mut segments = Vec::with_capacity(self.manifest.segments.len());
        let mut terms = TermSummary::default();
        for entry in &self.manifest.segments {
            let path = self.dir.join(&entry.file);
            let mut file = File::open(&path)?;
            let meta = read_footer(&mut file, &path)?;
            terms.merge(&meta.terms);
            segments.push((entry.clone(), meta));
        }
        Ok(StoreInfo {
            records: self.len(),
            records_in_segments: self.manifest.records_in_segments,
            memtable_records: self.memtable.len() as u64,
            segments,
            wal_bytes: self.wal.bytes(),
            terms,
        })
    }

    /// Whether `dir` looks like an existing store (has a manifest or WAL).
    pub fn exists<P: AsRef<Path>>(dir: P) -> bool {
        let dir = dir.as_ref();
        dir.join(MANIFEST_FILE).exists() || dir.join(wal::WAL_FILE).exists()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transact::TermId;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("disassoc_store_lib_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn sync_dir_reports_a_missing_directory() {
        let dir = tmpdir("sync_dir");
        assert!(sync_dir(&dir).is_err());
        std::fs::create_dir_all(&dir).unwrap();
        sync_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    fn small_config(capacity: usize) -> StoreConfig {
        StoreConfig {
            memtable_capacity: capacity,
            ..StoreConfig::default()
        }
    }

    fn collect(store: &Store, batch: usize) -> Vec<Record> {
        store
            .scan(batch)
            .map(|b| b.unwrap())
            .flat_map(|b| b.into_iter())
            .collect()
    }

    #[test]
    fn append_scan_roundtrip_across_spills() {
        let dir = tmpdir("roundtrip");
        let mut store = Store::open(&dir, small_config(3)).unwrap();
        let records: Vec<Record> = (0..10u32).map(|i| rec(&[i, i + 100])).collect();
        for r in &records {
            store.append(r.clone()).unwrap();
        }
        // capacity 3 → three spills, one record left in the memtable.
        assert_eq!(store.manifest.segments.len(), 3);
        assert_eq!(store.memtable.len(), 1);
        assert_eq!(store.len(), 10);
        for batch_size in [1, 3, 7, 100] {
            assert_eq!(collect(&store, batch_size), records, "batch {batch_size}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_batches_respect_batch_size() {
        let dir = tmpdir("batches");
        let mut store = Store::open(&dir, small_config(4)).unwrap();
        for i in 0..10u32 {
            store.append(rec(&[i])).unwrap();
        }
        let sizes: Vec<usize> = store.scan(4).map(|b| b.unwrap().len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_after_flush_preserves_everything() {
        let dir = tmpdir("reopen");
        let records: Vec<Record> = (0..7u32).map(|i| rec(&[i, i * 2 + 1])).collect();
        {
            let mut store = Store::open(&dir, small_config(3)).unwrap();
            store.append_batch(&records).unwrap();
            store.flush().unwrap();
        }
        let store = Store::open(&dir, small_config(3)).unwrap();
        assert_eq!(store.recovered_records(), 0, "flush sealed everything");
        assert_eq!(collect(&store, 4), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsealed_tail_is_recovered_from_the_wal() {
        let dir = tmpdir("recover");
        let records: Vec<Record> = (0..5u32).map(|i| rec(&[i])).collect();
        {
            let mut store = Store::open(&dir, small_config(100)).unwrap();
            store.append_batch(&records).unwrap();
            // No flush: everything lives in WAL + memtable only.
        }
        let store = Store::open(&dir, small_config(100)).unwrap();
        assert_eq!(store.recovered_records(), 5);
        assert_eq!(collect(&store, 2), records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_torn_tail_recovery_survive_the_next_crash() {
        let dir = tmpdir("torn_tail_appends");
        std::fs::create_dir_all(&dir).unwrap();
        {
            let mut store = Store::open(&dir, small_config(100)).unwrap();
            store.append(rec(&[1])).unwrap(); // intact WAL entry
            store.append(rec(&[2])).unwrap(); // will be torn
        }
        // Simulate a partial write of the last entry.
        let wal_path = dir.join(wal::WAL_FILE);
        let bytes = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &bytes[..bytes.len() - 1]).unwrap();
        {
            let mut store = Store::open(&dir, small_config(100)).unwrap();
            assert_eq!(store.recovered_records(), 1, "the torn entry is lost");
            // These appends are acknowledged; they must survive another
            // crash (store dropped without flush) and reopen.
            store.append(rec(&[3])).unwrap();
            store.append(rec(&[4])).unwrap();
        }
        let store = Store::open(&dir, small_config(100)).unwrap();
        assert_eq!(store.recovered_records(), 3);
        assert_eq!(collect(&store, 10), vec![rec(&[1]), rec(&[3]), rec(&[4])]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_merges_small_segments_and_preserves_order() {
        let dir = tmpdir("compact");
        let mut store = Store::open(&dir, small_config(2)).unwrap();
        let records: Vec<Record> = (0..12u32).map(|i| rec(&[i, i + 50])).collect();
        for r in &records {
            store.append(r.clone()).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.manifest.segments.len(), 6);
        let stats = store.compact().unwrap();
        assert_eq!(stats.segments_before, 6);
        assert_eq!(stats.segments_after, 1);
        assert_eq!(stats.merges, 1);
        assert!(stats.amplification() > 0.0);
        assert_eq!(collect(&store, 5), records);
        // The replaced files are gone; reopen agrees.
        drop(store);
        let reopened = Store::open(&dir, small_config(2)).unwrap();
        assert_eq!(collect(&reopened, 5), records);
        assert_eq!(reopened.manifest.segments.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_leaves_large_segments_alone() {
        let dir = tmpdir("tiered");
        let mut store = Store::open(&dir, small_config(2)).unwrap();
        for i in 0..8u32 {
            store.append(rec(&[i])).unwrap();
        }
        store.flush().unwrap();
        let before = store.manifest.segments.len();
        // A 1-byte threshold makes every segment count as "large".
        let (stats, replaced, next) =
            compact::compact_pass(&store.dir, &store.manifest, 2, 1).unwrap();
        assert_eq!(stats.merges, 0);
        assert!(replaced.is_empty());
        assert_eq!(next.segments.len(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_reports_counts_and_term_summary() {
        let dir = tmpdir("info");
        let mut store = Store::open(&dir, small_config(2)).unwrap();
        store.append_batch(&[rec(&[1, 5]), rec(&[5, 9])]).unwrap();
        store.append(rec(&[2])).unwrap();
        let info = store.info().unwrap();
        assert_eq!(info.records, 3);
        assert_eq!(info.records_in_segments, 2);
        assert_eq!(info.memtable_records, 1);
        assert_eq!(info.segments.len(), 1);
        assert_eq!(info.terms.min_term, Some(1));
        assert_eq!(info.terms.max_term, Some(9));
        assert!(info.wal_bytes > 0, "memtable tail still WAL-backed");
        assert!(info.segment_bytes() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_behaves() {
        let dir = tmpdir("empty");
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.scan(10).count(), 0);
        store.flush().unwrap();
        assert_eq!(store.compact().unwrap().merges, 0);
        let info = store.info().unwrap();
        assert_eq!(info.records, 0);
        assert_eq!(info.terms.min_term, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_open_is_refused_while_the_store_is_live() {
        let dir = tmpdir("locked");
        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let err = Store::open(&dir, StoreConfig::default())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, StoreError::Locked { .. }), "{err:?}");
        drop(store);
        // Dropping the holder releases the lock.
        Store::open(&dir, StoreConfig::default()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exists_detects_initialized_stores() {
        let dir = tmpdir("exists");
        assert!(!Store::exists(&dir));
        let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
        store.append(rec(&[1])).unwrap();
        assert!(Store::exists(&dir));
        std::fs::remove_dir_all(&dir).ok();
    }
}
