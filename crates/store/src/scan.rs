//! Chunked scans: the out-of-core read path.
//!
//! [`RecordBatchIter`] yields the store's records in ingestion order as
//! batches of at most `batch_size`, holding one open segment and one batch in
//! memory at a time — the streaming anonymization pipeline draws its working
//! set from here, so peak residency is bounded by the batch size, not the
//! dataset size.
//!
//! It is both a plain [`Iterator`] ([`Store::scan`]) and the pipeline's
//! [`RecordSource`] ([`Store::source`]).  The dependency points this way
//! (store → core) on purpose: the pipeline crate defines the source/sink
//! traits, and every storage backend adapts itself to them — the core never
//! learns about segment files or WALs.

use crate::segment::{Segment, SegmentRecordIter};
use crate::{Result, Store};
use disassociation::pipeline::RecordSource;
use disassociation::SourceError;
use transact::Record;

/// Iterator over batches of records, in ingestion order: first the sealed
/// segments (manifest order), then the memtable tail.
///
/// As a [`RecordSource`], scan failures (corrupt segments, I/O errors)
/// surface as typed [`SourceError`]s carrying the [`crate::StoreError`]
/// cause, so a pipeline run aborts instead of silently publishing a prefix
/// of the store.
///
/// ```no_run
/// use disassoc_store::{Store, StoreConfig};
/// use disassociation::pipeline::{CollectSink, Pipeline};
/// use disassociation::DisassociationConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = Store::open("./store", StoreConfig::default())?;
/// let config = DisassociationConfig::default();
/// let mut source = store.source(8192);
/// let mut sink = CollectSink::for_config(&config);
/// Pipeline::new(config).source(&mut source).sink(&mut sink).threads(4).run()?;
/// # Ok(())
/// # }
/// ```
pub struct RecordBatchIter<'a> {
    store: &'a Store,
    batch_size: usize,
    next_segment: usize,
    current: Option<SegmentRecordIter>,
    memtable_pos: usize,
    batches: usize,
    failed: bool,
}

impl<'a> RecordBatchIter<'a> {
    pub(crate) fn new(store: &'a Store, batch_size: usize) -> Self {
        RecordBatchIter {
            store,
            batch_size: batch_size.max(1),
            next_segment: 0,
            current: None,
            memtable_pos: 0,
            batches: 0,
            failed: false,
        }
    }

    /// Pulls the next single record, advancing across segment boundaries.
    fn next_record(&mut self) -> Option<Result<Record>> {
        loop {
            if let Some(iter) = self.current.as_mut() {
                match iter.next() {
                    Some(item) => return Some(item),
                    None => self.current = None,
                }
            }
            match self.store.manifest.segments.get(self.next_segment) {
                Some(entry) => {
                    self.next_segment += 1;
                    let path = self.store.dir.join(&entry.file);
                    let seg = match Segment::open(&path) {
                        Ok(s) => s,
                        Err(e) => return Some(Err(e)),
                    };
                    match seg.records() {
                        Ok(iter) => self.current = Some(iter),
                        Err(e) => return Some(Err(e)),
                    }
                }
                None => {
                    // Segments exhausted: serve the memtable tail.
                    let mem = &self.store.memtable;
                    if self.memtable_pos < mem.len() {
                        let r = mem[self.memtable_pos].clone();
                        self.memtable_pos += 1;
                        return Some(Ok(r));
                    }
                    return None;
                }
            }
        }
    }
}

impl Iterator for RecordBatchIter<'_> {
    type Item = Result<Vec<Record>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        // Cap the pre-allocation: `usize::MAX` is a legal "one giant batch"
        // request and must not reserve absurd capacity up front.
        let mut batch = Vec::with_capacity(self.batch_size.min(4096));
        while batch.len() < self.batch_size {
            match self.next_record() {
                Some(Ok(r)) => batch.push(r),
                Some(Err(e)) => {
                    self.failed = true;
                    return Some(Err(e));
                }
                None => break,
            }
        }
        if batch.is_empty() {
            None
        } else {
            self.batches += 1;
            Some(Ok(batch))
        }
    }
}

impl RecordSource for RecordBatchIter<'_> {
    fn next_batch(&mut self) -> std::result::Result<Option<Vec<Record>>, SourceError> {
        let batch = self.batches;
        self.next()
            .transpose()
            .map_err(|e| SourceError::new(format!("scanning the record store (batch {batch})"), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StoreConfig;
    use transact::TermId;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    #[test]
    fn store_source_yields_ingestion_order_batches_then_none() {
        let dir = std::env::temp_dir().join(format!("store_source_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = Store::open(
            &dir,
            StoreConfig {
                memtable_capacity: 8,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let records: Vec<Record> = (0..30u32).map(|i| rec(&[i, i + 100])).collect();
        store.append_batch(&records).unwrap();
        store.flush().unwrap();

        let mut source = store.source(7);
        let mut all = Vec::new();
        while let Some(batch) = source.next_batch().unwrap() {
            assert!(batch.len() <= 7);
            all.extend(batch);
        }
        assert_eq!(all, records);
        // Fused at end of stream.
        assert!(source.next_batch().unwrap().is_none());
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_segment_surfaces_as_a_typed_source_error() {
        let dir = std::env::temp_dir().join(format!("store_source_corrupt_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut store = Store::open(
            &dir,
            StoreConfig {
                memtable_capacity: 4,
                ..StoreConfig::default()
            },
        )
        .unwrap();
        let records: Vec<Record> = (0..16u32).map(|i| rec(&[i])).collect();
        store.append_batch(&records).unwrap();
        store.flush().unwrap();
        drop(store);

        // Flip a byte in the middle of the first segment file.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .expect("a sealed segment");
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, bytes).unwrap();

        let store = Store::open(&dir, StoreConfig::default()).unwrap();
        let mut source = store.source(4);
        let mut result = Ok(Some(Vec::new()));
        while let Ok(Some(_)) = result {
            result = source.next_batch();
        }
        let err = result.expect_err("corruption must surface");
        let chain = disassociation::error::render_chain(&err);
        assert!(chain.contains("record source failed"), "{chain}");
        assert!(
            chain.contains("scanning the record store (batch "),
            "{chain}"
        );
        assert!(chain.to_lowercase().contains("corrupt"), "{chain}");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}
