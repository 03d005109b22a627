//! Property-based tests of the segment format: arbitrary record batches
//! encode → decode identically, and damaged files (truncation, bit flips)
//! are rejected via the checksum/footer validation rather than mis-parsed.

use disassoc_store::segment::{Segment, SegmentWriter};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use transact::{Record, TermId};

static CASE: AtomicU64 = AtomicU64::new(0);

fn fresh_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("disassoc_store_prop_segment");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!(
        "{tag}-{}.seg",
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

fn arb_record() -> impl Strategy<Value = Record> {
    // Mix small ids (dense dictionaries) with huge ones (sparse domains) so
    // both one-byte and multi-byte varints are exercised.
    proptest::collection::vec(0u32..u32::MAX, 0..24)
        .prop_map(|v| Record::from_ids(v.into_iter().map(TermId::new)))
}

fn arb_batch() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec(arb_record(), 0..60)
}

fn write_segment(path: &PathBuf, records: &[Record]) {
    let mut w = SegmentWriter::create(path).unwrap();
    for r in records {
        w.add(r).unwrap();
    }
    w.finish().unwrap();
}

proptest! {
    #[test]
    fn encode_decode_is_identity(records in arb_batch()) {
        let path = fresh_path("roundtrip");
        write_segment(&path, &records);
        let seg = Segment::open(&path).unwrap();
        prop_assert_eq!(seg.meta().record_count, records.len() as u64);
        let decoded: Vec<Record> = seg.records().unwrap().map(|r| r.unwrap()).collect();
        prop_assert_eq!(decoded, records);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_never_misparses(records in arb_batch(), cut_frac in 0.0f64..1.0) {
        let path = fresh_path("trunc");
        write_segment(&path, &records);
        let bytes = std::fs::read(&path).unwrap();
        // Cut strictly inside the file so the result is a damaged segment,
        // not the original.
        let cut = 1 + ((bytes.len() - 2) as f64 * cut_frac) as usize;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        prop_assert!(Segment::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_never_misparses(records in arb_batch(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let path = fresh_path("flip");
        write_segment(&path, &records);
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        // Every byte is covered: head magic, data and the footer
        // prefix are checksummed; a flip in the stored CRC itself disagrees
        // with the recomputed value; the tail magic is compared byte for
        // byte.
        prop_assert!(Segment::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
