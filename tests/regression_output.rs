//! Output-bytes regression tests: the anonymity engine may change *speed*,
//! never *results*.
//!
//! The pinned fixture and hashes below were produced by the pre-dense-engine
//! (Itemset-based) implementation, which published pretty-printed JSON.
//! The publication is compact JSON now, so those pins are checked against
//! the pretty re-rendering of the decoded publication, and a second set of
//! pins covers the compact bytes themselves.  Any engine change that alters
//! a greedy accept/reject decision, a projection, a shuffle consumption
//! order, or the JSON serialization shows up here as a byte difference.

use datagen::{QuestConfig, QuestGenerator};
use disassociation::pipeline::{DatasetSource, JsonChunksSink, Pipeline};
use disassociation::{DisassociatedDataset, DisassociationConfig};
use transact::{Dataset, Record, TermId};

/// FNV-1a 64-bit over a byte slice (enough to pin a deterministic artifact;
/// the repo intentionally has no cryptographic-hash dependency).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs the same monolithic-batch pipeline the CLI uses for file input and
/// returns the `.chunks.json` bytes.
fn published_bytes(dataset: &Dataset, config: DisassociationConfig) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!(
        "disassoc_regression_{}_{}",
        std::process::id(),
        dataset.len()
    ));
    std::fs::create_dir_all(&dir).expect("creating the scratch directory");
    let path = dir.join("out.chunks.json");
    {
        let mut source = DatasetSource::new(dataset, dataset.len().max(1));
        let mut sink = JsonChunksSink::create(&path, &config).expect("creating the chunk sink");
        Pipeline::new(config)
            .source(&mut source)
            .sink(&mut sink)
            .threads(1)
            .run()
            .expect("anonymization succeeds");
    }
    let bytes = std::fs::read(&path).expect("reading the published chunks");
    std::fs::remove_dir_all(&dir).ok();
    bytes
}

/// The pretty (two-space) rendering of a decoded publication: the form the
/// engine published before the compact encoding, so the original pins hold.
fn pretty(published: &[u8]) -> Vec<u8> {
    let dataset: DisassociatedDataset =
        serde_json::from_slice(published).expect("the publication decodes");
    serde_json::to_vec_pretty(&dataset).expect("re-rendering the publication")
}

fn quest(records: usize, domain: usize, seed: u64) -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: domain,
        avg_transaction_len: 10.0,
        seed,
        ..QuestConfig::default()
    })
}

/// The Figure 2 running example, anonymized with k=3, m=2 and
/// max_cluster_size 6, must serialize to the committed fixture byte for byte.
#[test]
fn figure2_output_is_byte_identical_to_fixture() {
    let rec = |ids: &[u32]| Record::from_ids(ids.iter().map(|&i| TermId::new(i)));
    let dataset = Dataset::from_records(vec![
        rec(&[0, 1, 2, 5, 7]),
        rec(&[2, 1, 6, 7, 3, 4]),
        rec(&[0, 2, 3, 5, 4]),
        rec(&[0, 1, 6]),
        rec(&[0, 1, 2, 3, 4]),
        rec(&[2, 8, 9, 10]),
        rec(&[11, 2, 5, 7]),
        rec(&[11, 8, 2, 10]),
        rec(&[11, 8, 9]),
        rec(&[11, 8, 2, 5, 7]),
    ]);
    let bytes = published_bytes(
        &dataset,
        DisassociationConfig {
            k: 3,
            m: 2,
            max_cluster_size: 6,
            ..Default::default()
        },
    );
    let fixture = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/figure2_k3_m2.chunks.json"
    ))
    .expect("reading the committed fixture");
    assert_eq!(
        pretty(&bytes),
        fixture,
        "published figure-2 chunks changed — the engine must change speed, not results"
    );
    let fixture: DisassociatedDataset =
        serde_json::from_slice(&fixture).expect("the fixture decodes");
    assert_eq!(bytes, serde_json::to_vec(&fixture).unwrap());
    assert_eq!(
        fnv64(&bytes),
        0x69f8_6690_3040_68f4,
        "figure-2 compact publication bytes changed"
    );
}

/// A 400-record Quest workload (k=3, m=2): pinned to the legacy engine's
/// output hash.
#[test]
fn quest_400_output_hash_is_pinned() {
    let bytes = published_bytes(
        &quest(400, 120, 7),
        DisassociationConfig {
            k: 3,
            m: 2,
            ..Default::default()
        },
    );
    assert_eq!(
        fnv64(&pretty(&bytes)),
        0xbd69_c19e_6a7d_eda0,
        "quest-400 published bytes changed"
    );
    assert_eq!(
        fnv64(&bytes),
        0x5222_b28e_c27f_559a,
        "quest-400 compact publication bytes changed"
    );
}

/// A 2000-record Quest workload at the paper's default k=5, m=2: pinned to
/// the legacy engine's output hash.
#[test]
fn quest_2000_output_hash_is_pinned() {
    let bytes = published_bytes(
        &quest(2_000, 300, 42),
        DisassociationConfig {
            k: 5,
            m: 2,
            ..Default::default()
        },
    );
    assert_eq!(
        fnv64(&pretty(&bytes)),
        0x003d_39d1_7d98_2d14,
        "quest-2000 published bytes changed"
    );
    assert_eq!(
        fnv64(&bytes),
        0xe343_238f_3f2c_0d98,
        "quest-2000 compact publication bytes changed"
    );
}
