//! Immutable on-disk segments.
//!
//! A segment is the unit the memtable spills to and compaction rewrites: a
//! run of records in ingestion order, varint-encoded (see [`crate::encode`]),
//! followed by a sparse offset index and a fixed-size footer:
//!
//! ```text
//! +-----------+-----------------------+----------------------+--------+
//! | magic (8) | data: encoded records | sparse index entries | footer |
//! +-----------+-----------------------+----------------------+--------+
//! ```
//!
//! * **data** — each record as `varint(count) varint(first) varint(deltas…)`.
//! * **sparse index** — one `(record_ordinal, byte_offset)` varint pair every
//!   `index_every` records (a [`SegmentWriter::create`] parameter);
//!   `byte_offset` is relative to the start of the data region.  It allows
//!   seeking near a record without decoding the whole segment.
//! * **footer** (fixed 60 bytes, little-endian):
//!   `data_len u64 · index_len u64 · record_count u64 · term_occurrences u64 ·
//!   min_term u32 · max_term u32 · distinct_terms u64 · crc32 u32 ·
//!   tail magic (8)`.  The CRC covers everything before it (head magic, data,
//!   index and the footer fields preceding the CRC), so a truncated or
//!   bit-flipped segment is rejected rather than mis-parsed.

use crate::encode::{read_record, read_varint, write_record, write_varint, Crc32, CrcWriter};
use crate::{failpoints, Result, StoreError};
use disassoc_faults as faults;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use transact::Record;

/// Head magic: identifies the file type and format version.
pub const SEGMENT_MAGIC: &[u8; 8] = b"DSSEG001";
/// Tail magic: a cheap completeness check before the CRC pass.
pub const SEGMENT_TAIL: &[u8; 8] = b"DSSEGEND";
/// Size of the fixed footer in bytes.
pub const FOOTER_LEN: u64 = 60;
/// Default sparse-index granularity (one entry per this many records).
pub const DEFAULT_INDEX_EVERY: usize = 1024;

/// Summary of the term universe of a segment (part of the footer): enough to
/// skip segments during term-restricted scans without opening them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TermSummary {
    /// Smallest term id present (`None` when the segment has no terms).
    pub min_term: Option<u32>,
    /// Largest term id present.
    pub max_term: Option<u32>,
    /// Exact number of distinct term ids.
    pub distinct_terms: u64,
    /// Total number of term occurrences (sum of record lengths).
    pub term_occurrences: u64,
}

impl TermSummary {
    /// Merges another summary into this one (used when aggregating over
    /// segments for store-level info).
    pub fn merge(&mut self, other: &TermSummary) {
        self.min_term = match (self.min_term, other.min_term) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max_term = match (self.max_term, other.max_term) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        // Distinct counts cannot be merged exactly without the sets; the sum
        // is an upper bound, which is what the aggregate reports.
        self.distinct_terms += other.distinct_terms;
        self.term_occurrences += other.term_occurrences;
    }
}

/// Footer metadata of a sealed segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Length of the data region in bytes.
    pub data_len: u64,
    /// Length of the sparse index region in bytes.
    pub index_len: u64,
    /// Number of records.
    pub record_count: u64,
    /// Term-universe summary.
    pub terms: TermSummary,
    /// CRC-32 over everything before the checksum field.
    pub crc: u32,
}

impl SegmentMeta {
    /// Total file size implied by the footer, or `None` when the untrusted
    /// length fields overflow — a corrupt footer must be rejected, not
    /// wrapped (release) or panicked on (debug).
    pub fn file_len(&self) -> Option<u64> {
        (SEGMENT_MAGIC.len() as u64 + FOOTER_LEN)
            .checked_add(self.data_len)?
            .checked_add(self.index_len)
    }
}

/// Writes a new segment file record by record.
pub struct SegmentWriter {
    out: CrcWriter<BufWriter<File>>,
    path: PathBuf,
    index_every: usize,
    index: Vec<(u64, u64)>,
    record_count: u64,
    data_bytes: u64,
    term_occurrences: u64,
    min_term: Option<u32>,
    max_term: Option<u32>,
    distinct: BTreeSet<u32>,
}

impl SegmentWriter {
    /// Creates `path` and writes the head magic.  `index_every` controls the
    /// sparse-index granularity (0 selects [`DEFAULT_INDEX_EVERY`]).
    pub fn create<P: AsRef<Path>>(path: P, index_every: usize) -> Result<Self> {
        faults::check_at(failpoints::SEGMENT_CREATE, path.as_ref())?;
        let file = File::create(path.as_ref())?;
        let mut out = CrcWriter::new(BufWriter::new(file));
        out.write_all(SEGMENT_MAGIC)?;
        Ok(SegmentWriter {
            out,
            path: path.as_ref().to_path_buf(),
            index_every: if index_every == 0 {
                DEFAULT_INDEX_EVERY
            } else {
                index_every
            },
            index: Vec::new(),
            record_count: 0,
            data_bytes: 0,
            term_occurrences: 0,
            min_term: None,
            max_term: None,
            distinct: BTreeSet::new(),
        })
    }

    /// Appends one record.
    pub fn add(&mut self, record: &Record) -> Result<()> {
        faults::check_at(failpoints::SEGMENT_WRITE, &self.path)?;
        if self.record_count.is_multiple_of(self.index_every as u64) {
            self.index.push((self.record_count, self.data_bytes));
        }
        let n = write_record(record, &mut self.out)?;
        self.data_bytes += n as u64;
        self.record_count += 1;
        self.term_occurrences += record.len() as u64;
        for t in record.iter() {
            let raw = t.raw();
            self.min_term = Some(self.min_term.map_or(raw, |m| m.min(raw)));
            self.max_term = Some(self.max_term.map_or(raw, |m| m.max(raw)));
            self.distinct.insert(raw);
        }
        Ok(())
    }

    /// Number of records added so far.
    pub fn record_count(&self) -> u64 {
        self.record_count
    }

    /// Bytes of encoded record data so far.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Writes the index and footer, fsyncs and returns the metadata.
    pub fn finish(mut self) -> Result<SegmentMeta> {
        faults::check_at(failpoints::SEGMENT_FINISH, &self.path)?;
        let data_len = self.data_bytes;
        let index_start = self.out.bytes;
        for &(ordinal, offset) in &self.index {
            write_varint(ordinal, &mut self.out)?;
            write_varint(offset, &mut self.out)?;
        }
        let index_len = self.out.bytes - index_start;
        let terms = TermSummary {
            min_term: self.min_term,
            max_term: self.max_term,
            distinct_terms: self.distinct.len() as u64,
            term_occurrences: self.term_occurrences,
        };
        // Footer fields before the CRC go through the checksummed writer.
        self.out.write_all(&data_len.to_le_bytes())?;
        self.out.write_all(&index_len.to_le_bytes())?;
        self.out.write_all(&self.record_count.to_le_bytes())?;
        self.out.write_all(&terms.term_occurrences.to_le_bytes())?;
        self.out
            .write_all(&terms.min_term.unwrap_or(u32::MAX).to_le_bytes())?;
        self.out
            .write_all(&terms.max_term.unwrap_or(0).to_le_bytes())?;
        self.out.write_all(&terms.distinct_terms.to_le_bytes())?;
        let crc = self.out.crc();
        let record_count = self.record_count;
        let mut inner = self.out.into_inner();
        inner.write_all(&crc.to_le_bytes())?;
        inner.write_all(SEGMENT_TAIL)?;
        inner.flush()?;
        faults::check_at(failpoints::SEGMENT_SYNC, &self.path)?;
        inner.get_ref().sync_all()?;
        disassoc_obs::metrics::counters::STORE_SEGMENT_SEALS.inc();
        Ok(SegmentMeta {
            data_len,
            index_len,
            record_count,
            terms,
            crc,
        })
    }
}

/// Reads the footer of a segment file (no checksum pass).
pub fn read_footer(file: &mut File, path: &Path) -> Result<SegmentMeta> {
    let len = file.metadata()?.len();
    let min_len = SEGMENT_MAGIC.len() as u64 + FOOTER_LEN;
    if len < min_len {
        return Err(corrupt(path, "file shorter than magic + footer"));
    }
    file.seek(SeekFrom::End(-(FOOTER_LEN as i64)))?;
    let mut footer = [0u8; FOOTER_LEN as usize];
    file.read_exact(&mut footer)?;
    // lint:allow(panic, "fixed 8-byte subslice of the footer array")
    let u64_at = |o: usize| u64::from_le_bytes(footer[o..o + 8].try_into().unwrap());
    // lint:allow(panic, "fixed 4-byte subslice of the footer array")
    let u32_at = |o: usize| u32::from_le_bytes(footer[o..o + 4].try_into().unwrap());
    if &footer[52..60] != SEGMENT_TAIL {
        return Err(corrupt(path, "bad tail magic"));
    }
    let data_len = u64_at(0);
    let index_len = u64_at(8);
    let record_count = u64_at(16);
    let term_occurrences = u64_at(24);
    let min_term = u32_at(32);
    let max_term = u32_at(36);
    let distinct_terms = u64_at(40);
    let crc = u32_at(48);
    let meta = SegmentMeta {
        data_len,
        index_len,
        record_count,
        terms: TermSummary {
            min_term: (term_occurrences > 0).then_some(min_term),
            max_term: (term_occurrences > 0).then_some(max_term),
            distinct_terms,
            term_occurrences,
        },
        crc,
    };
    match meta.file_len() {
        Some(expected) if expected == len => {}
        Some(expected) => {
            return Err(corrupt(
                path,
                format!("footer lengths disagree with file size ({expected} vs {len})"),
            ))
        }
        None => return Err(corrupt(path, "footer lengths overflow the file size")),
    }
    Ok(meta)
}

/// An open, footer-validated segment.
#[derive(Debug)]
pub struct Segment {
    path: PathBuf,
    meta: SegmentMeta,
}

impl Segment {
    /// Opens a segment, validates its footer and verifies the checksum by
    /// streaming the file once (O(1) memory).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = File::open(&path)?;
        let meta = read_footer(&mut file, &path)?;
        file.seek(SeekFrom::Start(0))?;
        let mut head = [0u8; 8];
        file.read_exact(&mut head)?;
        if &head != SEGMENT_MAGIC {
            return Err(corrupt(&path, "bad head magic"));
        }
        let mut crc = Crc32::new();
        crc.update(&head);
        let mut remaining = meta.data_len + meta.index_len + (FOOTER_LEN - 12);
        let mut reader = BufReader::new(&mut file);
        let mut buf = [0u8; 8192];
        while remaining > 0 {
            let want = remaining.min(buf.len() as u64) as usize;
            reader
                .read_exact(&mut buf[..want])
                .map_err(|_| corrupt(&path, "truncated while checksumming"))?;
            crc.update(&buf[..want]);
            remaining -= want as u64;
        }
        if crc.finish() != meta.crc {
            return Err(corrupt(&path, "checksum mismatch"));
        }
        Ok(Segment { path, meta })
    }

    /// The footer metadata.
    pub fn meta(&self) -> &SegmentMeta {
        &self.meta
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Streams all records of the segment in order.
    pub fn records(&self) -> Result<SegmentRecordIter> {
        self.records_from(0)
    }

    /// Streams records starting at ordinal `start`, using the sparse index to
    /// skip ahead without decoding the prefix record by record where
    /// possible.
    pub fn records_from(&self, start: u64) -> Result<SegmentRecordIter> {
        let mut file = File::open(&self.path)?;
        let data_start = SEGMENT_MAGIC.len() as u64;
        // Find the closest indexed record at or before `start`.
        let (mut ordinal, offset) = self.index_floor(&mut file, start)?;
        file.seek(SeekFrom::Start(data_start + offset))?;
        let mut iter = SegmentRecordIter {
            reader: BufReader::new(file),
            remaining: self.meta.record_count.saturating_sub(ordinal),
            path: self.path.clone(),
        };
        // Decode and discard up to `start`.
        while ordinal < start {
            match iter.next() {
                Some(Ok(_)) => ordinal += 1,
                Some(Err(e)) => return Err(e),
                None => break,
            }
        }
        Ok(iter)
    }

    /// Returns the `(ordinal, data_offset)` of the latest sparse-index entry
    /// not after `start`.
    fn index_floor(&self, file: &mut File, start: u64) -> Result<(u64, u64)> {
        if start == 0 || self.meta.index_len == 0 {
            return Ok((0, 0));
        }
        let index_start = SEGMENT_MAGIC.len() as u64 + self.meta.data_len;
        file.seek(SeekFrom::Start(index_start))?;
        let mut reader = BufReader::new(file).take(self.meta.index_len);
        let mut best = (0u64, 0u64);
        while reader.limit() > 0 {
            let ordinal = read_varint(&mut reader)?;
            let offset = read_varint(&mut reader)?;
            if ordinal > start {
                break;
            }
            best = (ordinal, offset);
        }
        Ok(best)
    }
}

/// Streaming record iterator over a segment's data region.
pub struct SegmentRecordIter {
    reader: BufReader<File>,
    remaining: u64,
    path: PathBuf,
}

impl Iterator for SegmentRecordIter {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(read_record(&mut self.reader).map_err(|e| match e {
            StoreError::Corrupt { message, .. } => corrupt(&self.path, message),
            other => other,
        }))
    }
}

fn corrupt(path: &Path, message: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        file: path.display().to_string(),
        message: message.into(),
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
        let dir = std::env::temp_dir().join(format!("disassoc_store_segment_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_segment(path: &Path, records: &[Record], index_every: usize) -> SegmentMeta {
        let mut w = SegmentWriter::create(path, index_every).unwrap();
        for r in records {
            w.add(r).unwrap();
        }
        w.finish().unwrap()
    }

    #[test]
    fn roundtrip_and_footer_metadata() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("s.seg");
        let records = vec![rec(&[1, 2, 3]), rec(&[2, 9]), rec(&[]), rec(&[100000])];
        let meta = write_segment(&path, &records, 2);
        assert_eq!(meta.record_count, 4);
        assert_eq!(meta.terms.term_occurrences, 6);
        assert_eq!(meta.terms.min_term, Some(1));
        assert_eq!(meta.terms.max_term, Some(100000));
        assert_eq!(meta.terms.distinct_terms, 5);

        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.meta(), &meta);
        let read: Vec<Record> = seg.records().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(read, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_segment_roundtrips() {
        let dir = tmpdir("empty");
        let path = dir.join("s.seg");
        let meta = write_segment(&path, &[], 0);
        assert_eq!(meta.record_count, 0);
        assert_eq!(meta.terms.min_term, None);
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.records().unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_from_uses_sparse_index() {
        let dir = tmpdir("seek");
        let path = dir.join("s.seg");
        let records: Vec<Record> = (0..100u32).map(|i| rec(&[i, i + 1000])).collect();
        write_segment(&path, &records, 10);
        let seg = Segment::open(&path).unwrap();
        for start in [0u64, 1, 9, 10, 11, 55, 99, 100] {
            let got: Vec<Record> = seg
                .records_from(start)
                .unwrap()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(got, records[start as usize..], "start {start}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overflowing_footer_lengths_are_rejected_not_wrapped() {
        let dir = tmpdir("overflow");
        let path = dir.join("s.seg");
        write_segment(&path, &[rec(&[1, 2, 3]), rec(&[4, 5])], 0);
        let mut bytes = std::fs::read(&path).unwrap();
        // Patch the footer's data_len (first footer field) to u64::MAX: the
        // implied file size must be rejected as corrupt, not overflow.
        let off = bytes.len() - FOOTER_LEN as usize;
        bytes[off..off + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Segment::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_is_detected() {
        let dir = tmpdir("bitflip");
        let path = dir.join("s.seg");
        write_segment(&path, &[rec(&[1, 2, 3]), rec(&[4, 5])], 0);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Segment::open(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let dir = tmpdir("trunc");
        let path = dir.join("s.seg");
        write_segment(&path, &[rec(&[1, 2, 3]), rec(&[4, 5])], 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(Segment::open(&path).is_err());
        // Truncated to less than the footer.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(Segment::open(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn term_summary_merge() {
        let mut a = TermSummary {
            min_term: Some(5),
            max_term: Some(9),
            distinct_terms: 3,
            term_occurrences: 10,
        };
        let b = TermSummary {
            min_term: Some(2),
            max_term: Some(7),
            distinct_terms: 4,
            term_occurrences: 1,
        };
        a.merge(&b);
        assert_eq!(a.min_term, Some(2));
        assert_eq!(a.max_term, Some(9));
        assert_eq!(a.distinct_terms, 7);
        assert_eq!(a.term_occurrences, 11);
        let mut none = TermSummary::default();
        none.merge(&b);
        assert_eq!(none.min_term, Some(2));
    }
}
