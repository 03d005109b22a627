//! The term-filtered read of a chunk directory (`ChunkDir::filtered_json`,
//! the daemon's `GET /datasets/{name}/chunks?term=`) is served from an
//! in-memory read index.  These tests pin it to its definition:
//!
//! 1. **Byte identity** — for every term of the published domain plus one
//!    absent id, the body equals the compact encoding of
//!    `combined_dataset()` with the clusters that do not `mentions_term`
//!    dropped: on a fresh `ChunkDir`, after an `AppendJob` republish on the
//!    same instance (replaced entries pruned and refilled), and after a
//!    reopen.  The publication spans several batches and holds joint
//!    clusters, so the postings walk shared chunks and joint children.
//! 2. **One decode per committed file** — `store.chunk_index_loads` counts
//!    each batch file once across any number of reads, and a read after a
//!    dirty append loads only the batch files the append republished.
//!
//! The metrics registry is process-global, so every test takes one lock.

use datagen::{QuestConfig, QuestGenerator};
use disassoc_obs::metrics::{self, counters};
use disassoc_store::publish::AppendJob;
use disassoc_store::{ChunkDir, Store, StoreConfig};
use disassociation::model::ClusterNode;
use disassociation::{AppendOptions, DisassociationConfig, Pipeline};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use transact::{Record, TermId};

const BATCH: usize = 128;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "disassoc_chunk_read_index_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn quest(records: usize, seed: u64) -> Vec<Record> {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: 120,
        avg_transaction_len: 6.0,
        seed,
        ..QuestConfig::default()
    })
    .records()
    .to_vec()
}

fn config() -> DisassociationConfig {
    DisassociationConfig {
        k: 3,
        m: 2,
        ..Default::default()
    }
}

/// A store of 700 Quest records published to `dir/chunks` in batches of
/// [`BATCH`].
fn publish(dir: &Path) -> (Store, ChunkDir) {
    let mut store = Store::open(dir.join("store"), StoreConfig::default()).unwrap();
    store.append_batch(&quest(700, 4)).unwrap();
    store.flush().unwrap();
    let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
    {
        let mut source = store.source(BATCH);
        Pipeline::new(config())
            .source(&mut source)
            .sink(&mut chunks)
            .threads(1)
            .run()
            .unwrap();
    }
    (store, chunks)
}

/// Appends 60 fresh records through the CLI's and daemon's append protocol,
/// republishing into `chunks`; returns the files the append replaced.
fn append(store: &mut Store, chunks: &mut ChunkDir) -> Vec<String> {
    let before = files(chunks);
    let config = config();
    let job = AppendJob {
        config: &config,
        options: AppendOptions::default(),
        batch_size: BATCH,
        threads: 1,
    };
    job.run::<Box<dyn std::error::Error>>(store, &quest(60, 5), Some(chunks), None)
        .unwrap();
    files(chunks).difference(&before).cloned().collect()
}

fn files(chunks: &ChunkDir) -> BTreeSet<String> {
    chunks
        .manifest()
        .batches
        .iter()
        .map(|b| b.file.clone())
        .collect()
}

/// Checks the filtered body of every published term and one absent id
/// against the filtered, re-encoded `combined_dataset()`.
fn assert_bodies_match_the_definition(chunks: &ChunkDir) -> Res<()> {
    let combined = chunks.combined_dataset()?.ok_or("nothing published")?;
    assert!(chunks.manifest().batches.len() >= 4, "several batch files");
    assert!(
        combined
            .clusters
            .iter()
            .any(|c| matches!(c, ClusterNode::Joint(_))),
        "the publication holds joint clusters"
    );
    let terms = combined.all_terms();
    let absent = TermId::new(terms.iter().map(|t| t.0).max().unwrap_or(0) + 1);
    for term in terms.iter().copied().chain([absent]) {
        let mut expected = combined.clone();
        expected.clusters.retain(|c| c.mentions_term(term));
        let body = chunks.filtered_json(term)?.ok_or("nothing published")?;
        assert_eq!(
            String::from_utf8(body)?,
            serde_json::to_string(&expected)?,
            "term {}",
            term.0
        );
        assert_eq!(chunks.combined_filtered(term)?, Some(expected));
    }
    assert_eq!(
        chunks.filtered_json(absent)?,
        Some(br#"{"k":3,"m":2,"clusters":[]}"#.to_vec())
    );
    Ok(())
}

#[test]
fn filtered_bodies_match_the_definition_fresh_republished_and_reopened() -> Res<()> {
    let _guard = lock();
    let dir = tmpdir("identity");
    let (mut store, mut chunks) = publish(&dir);
    assert_bodies_match_the_definition(&chunks)?;

    let replaced = append(&mut store, &mut chunks);
    assert!(!replaced.is_empty(), "the append republished a batch");
    assert!(
        replaced.len() < chunks.manifest().batches.len(),
        "and left a batch file in place"
    );
    assert_bodies_match_the_definition(&chunks)?;

    drop(chunks);
    assert_bodies_match_the_definition(&ChunkDir::open(dir.join("chunks"))?)?;
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

#[test]
fn each_committed_batch_file_is_decoded_into_the_index_once() -> Res<()> {
    let _guard = lock();
    metrics::enable();
    let loads = || counters::STORE_CHUNK_INDEX_LOADS.get();
    let dir = tmpdir("loads");
    let (mut store, mut chunks) = publish(&dir);
    let batches = chunks.manifest().batches.len() as u64;

    let start = loads();
    for term in 0..10 {
        chunks.filtered_json(TermId::new(term))?;
    }
    assert_eq!(loads() - start, batches, "ten reads, one load per batch");

    let replaced = append(&mut store, &mut chunks);
    let start = loads();
    chunks.filtered_json(TermId::new(1))?;
    chunks.combined_filtered(TermId::new(2))?;
    assert_eq!(
        loads() - start,
        replaced.len() as u64,
        "only the republished batch files are loaded"
    );
    assert!((replaced.len() as u64) < batches);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
