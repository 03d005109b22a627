//! Chunked scans: the out-of-core read path.
//!
//! [`RecordBatchIter`] yields the store's records in ingestion order as
//! batches of at most `batch_size`, holding one open segment and one batch in
//! memory at a time — the streaming anonymization pipeline draws its working
//! set from here, so peak residency is bounded by the batch size, not the
//! dataset size.

use crate::segment::{Segment, SegmentRecordIter};
use crate::{Result, Store};
use transact::Record;

/// Iterator over batches of records, in ingestion order: first the sealed
/// segments (manifest order), then the memtable tail.
pub struct RecordBatchIter<'a> {
    store: &'a Store,
    batch_size: usize,
    next_segment: usize,
    current: Option<SegmentRecordIter>,
    memtable_pos: usize,
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
            Some(Ok(batch))
        }
    }
}
