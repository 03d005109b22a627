//! Store-backed vs in-memory anonymization parity, plus the out-of-core
//! residency demonstration (acceptance criteria of the store subsystem):
//!
//! 1. `ingest` followed by store-backed streaming anonymization publishes a
//!    **byte-identical** dataset to the in-memory path on the same records
//!    and batch size — and, with a single batch, to the monolithic
//!    `Disassociator` path.  `Pipeline::build_incremental` publishes the
//!    same bytes at one and at two threads, and lands one append the same.
//! 2. During a store-backed run, batches are pulled **lazily**: at the
//!    moment batch *i* finishes anonymizing, exactly *i + 1* batches have
//!    ever been drawn from the source, so original-record residency is
//!    bounded by the batch size (one live batch) rather than the dataset
//!    size.  This is observed through an instrumented source, not asserted
//!    from documentation.
//!
//! Everything here runs through `disassociation::pipeline::Pipeline`; the
//! broader pipeline-API suite is `tests/pipeline_api.rs`.
#![deny(deprecated)]

use datagen::{QuestConfig, QuestGenerator};
use disassoc_store::{Store, StoreConfig};
use disassociation::pipeline::{
    CollectSink, DatasetSource, FnSink, IterSource, Pipeline, RecordSource,
};
use disassociation::{DisassociationConfig, Disassociator, IncrementalPipeline};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use transact::io::RecordReader;
use transact::{Dataset, Record};

const BATCH: usize = 64;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("store_pipeline_{name}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn workload() -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: 300,
        domain_size: 120,
        avg_transaction_len: 6.0,
        seed: 9,
        ..QuestConfig::default()
    })
}

fn config() -> DisassociationConfig {
    DisassociationConfig {
        k: 3,
        m: 2,
        seed: 21,
        ..Default::default()
    }
}

/// Ingests `dataset` into a fresh store under `dir` through the streaming
/// file-reader front end (the same path `disassoc ingest` uses), with a
/// small memtable so the store actually exercises spills + compaction.
fn ingest(dir: &Path, dataset: &Dataset) -> Store {
    let file = dir.join("data.dat");
    transact::io::write_numeric_transactions_path(dataset, &file).unwrap();
    let mut store = Store::open(
        dir.join("store"),
        StoreConfig {
            memtable_capacity: 48,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    let mut reader = RecordReader::open(&file).unwrap();
    loop {
        let batch = reader.next_batch(17).unwrap();
        if batch.is_empty() {
            break;
        }
        store.append_batch(&batch).unwrap();
    }
    store.flush().unwrap();
    store.compact().unwrap();
    store
}

fn scan_all(store: &Store, batch: usize) -> Vec<Vec<Record>> {
    store.scan(batch).map(|b| b.unwrap()).collect()
}

fn publish_bytes(source: &mut dyn RecordSource) -> Vec<u8> {
    let mut sink = CollectSink::for_config(&config());
    Pipeline::new(config())
        .source(source)
        .sink(&mut sink)
        .run()
        .unwrap();
    serde_json::to_vec(&sink.into_output().dataset).unwrap()
}

fn publish_all_bytes(pipeline: &mut IncrementalPipeline) -> Vec<u8> {
    let mut sink = CollectSink::for_config(&config());
    pipeline.publish_all(&mut sink).unwrap();
    serde_json::to_vec(&sink.into_output().dataset).unwrap()
}

#[test]
fn store_scan_reproduces_the_ingested_records_exactly() {
    let dir = tmpdir("roundtrip");
    let dataset = workload();
    let store = ingest(&dir, &dataset);
    let scanned: Vec<Record> = scan_all(&store, BATCH).into_iter().flatten().collect();
    assert_eq!(scanned, dataset.records());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_backed_output_is_byte_identical_to_in_memory_output() {
    let dir = tmpdir("parity");
    let dataset = workload();
    let store = ingest(&dir, &dataset);

    // Same batch size, two sources: the published JSON must match byte for
    // byte.
    let from_store = publish_bytes(&mut IterSource::new(scan_all(&store, BATCH)));
    let from_memory = publish_bytes(&mut DatasetSource::new(&dataset, BATCH));
    assert_eq!(from_store, from_memory);

    // One huge batch through the store equals the monolithic path exactly.
    let single = publish_bytes(&mut IterSource::new(scan_all(&store, usize::MAX)));
    let monolithic = Disassociator::try_new(config())
        .expect("valid disassociation configuration")
        .anonymize(&dataset);
    assert_eq!(single, serde_json::to_vec(&monolithic.dataset).unwrap());

    // The incremental build runs on the same batch driver: at any thread
    // budget it publishes the same bytes, and one append lands the same.
    let delta = &dataset.records()[..30];
    let incremental = |threads: usize| {
        let mut source = store.source(BATCH);
        let mut pipeline = Pipeline::new(config())
            .source(&mut source)
            .threads(threads)
            .build_incremental()
            .unwrap();
        let base = publish_all_bytes(&mut pipeline);
        let outcome = pipeline.append(delta);
        (base, outcome, publish_all_bytes(&mut pipeline))
    };
    let serial = incremental(1);
    assert_eq!(serial.0, from_store);
    assert_eq!(incremental(2), serial);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_backed_run_pulls_batches_lazily_bounding_residency() {
    let dir = tmpdir("residency");
    let dataset = workload();
    let store = ingest(&dir, &dataset);

    // Instrumented source: counts batches drawn from the store scan.  If the
    // streaming pipeline collected its input up front, the first finished
    // batch would observe `pulled == total`; lazy pulling shows exactly
    // i + 1 — i.e. one live batch at a time.
    let pulled = Rc::new(Cell::new(0usize));
    let counter = Rc::clone(&pulled);
    let source = store.scan(BATCH).map(move |b| {
        counter.set(counter.get() + 1);
        b.unwrap()
    });

    let observations = Rc::new(Cell::new(0usize));
    let obs = Rc::clone(&observations);
    let pulled_at_sink = Rc::clone(&pulled);
    let mut source = IterSource::new(source);
    let mut sink = FnSink::new(move |batch| {
        assert_eq!(
            pulled_at_sink.get(),
            batch.batch_index + 1,
            "batch {} finished while {} batches were materialized",
            batch.batch_index,
            pulled_at_sink.get()
        );
        obs.set(obs.get() + 1);
    });
    let summary = Pipeline::new(config())
        .source(&mut source)
        .sink(&mut sink)
        .run()
        .unwrap();

    assert_eq!(summary.records, 300);
    assert_eq!(summary.batches, observations.get());
    assert_eq!(
        summary.peak_batch_records, BATCH,
        "residency bound is the batch size"
    );
    assert!(summary.batches > 1, "the workload must actually stream");

    // And every scan batch respects the requested bound.
    assert!(scan_all(&store, BATCH).iter().all(|b| b.len() <= BATCH));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recovered_store_publishes_identically_too() {
    // Recovery composes with parity: kill the ingest before sealing, reopen,
    // and the recovered store still publishes byte-identically.
    let dir = tmpdir("crash_parity");
    let dataset = workload();
    let file = dir.join("data.dat");
    transact::io::write_numeric_transactions_path(&dataset, &file).unwrap();
    let store_dir = dir.join("store");
    {
        let mut store = Store::open(&store_dir, StoreConfig::default()).unwrap();
        let mut reader = RecordReader::open(&file).unwrap();
        loop {
            let batch = reader.next_batch(23).unwrap();
            if batch.is_empty() {
                break;
            }
            store.append_batch(&batch).unwrap();
        }
        // No flush: dropped mid-ingest, everything is WAL-only.
    }
    let store = Store::open(&store_dir, StoreConfig::default()).unwrap();
    assert_eq!(store.recovered_records(), 300);
    let from_store = publish_bytes(&mut IterSource::new(scan_all(&store, BATCH)));
    let from_memory = publish_bytes(&mut DatasetSource::new(&dataset, BATCH));
    assert_eq!(from_store, from_memory);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Incremental append fault injection (PR 6): a crash mid-republish must
// leave the chunk store recoverable with either the complete old or the
// complete new chunk set — never a mix of generations.
// ---------------------------------------------------------------------------

mod append_fault_injection {
    use super::*;
    use disassoc_store::ChunkDir;
    use disassociation::pipeline::{BatchOutput, ChunkSink, DatasetSource};
    use disassociation::{DisassociationConfig, IncrementalPipeline, SinkError};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Passes batches through to a real `ChunkDir` but panics after the
    /// first `accept` — simulating a process crash while the republish has
    /// staged some, but not all, of the dirty batches and has not yet
    /// committed the manifest.
    struct PanicAfterFirstAccept<'a> {
        inner: &'a mut ChunkDir,
        accepted: usize,
    }

    impl ChunkSink for PanicAfterFirstAccept<'_> {
        fn accept(&mut self, batch: BatchOutput) -> Result<(), SinkError> {
            if self.accepted >= 1 {
                panic!("injected crash mid-republish");
            }
            self.accepted += 1;
            self.inner.accept(batch)
        }

        fn finish(&mut self) -> Result<(), SinkError> {
            self.inner.finish()
        }
    }

    fn incremental_config() -> DisassociationConfig {
        DisassociationConfig {
            k: 3,
            m: 2,
            seed: 21,
            ..Default::default()
        }
    }

    fn manifest_snapshot(chunks: &ChunkDir) -> Vec<(usize, String, u64)> {
        chunks
            .manifest()
            .batches
            .iter()
            .map(|e| (e.batch_index, e.file.clone(), e.generation))
            .collect()
    }

    #[test]
    fn crash_mid_republish_leaves_old_or_new_chunks_never_a_mix() {
        let dir = tmpdir("append_fault");
        let records = workload().records().to_vec();
        let (base, delta) = records.split_at(240);

        // Base publication: build the pipeline in small batches and commit
        // every chunk.
        let mut pipeline = {
            let mut source = DatasetSource::from_records(base, 48);
            IncrementalPipeline::build(incremental_config(), &mut source).unwrap()
        };
        assert!(pipeline.batch_count() >= 2, "need multiple chunk files");
        let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        pipeline.publish_all(&mut chunks).unwrap();
        let committed = manifest_snapshot(&chunks);
        let committed_dataset = chunks.combined_dataset().unwrap().unwrap();

        // Append, then crash while republishing: more than one batch is
        // dirty (publish_all was never re-run after a forced re-dirty), so
        // the panic fires with a staged-but-uncommitted manifest.
        pipeline.append(delta);
        let crash = catch_unwind(AssertUnwindSafe(|| {
            let mut faulty = PanicAfterFirstAccept {
                inner: &mut chunks,
                accepted: 0,
            };
            // Republishing everything guarantees >= 2 accepts, so the
            // injected panic interrupts a genuinely partial publish.
            pipeline.publish_all(&mut faulty).unwrap();
        }));
        assert!(crash.is_err(), "the injected panic must surface");

        // Recovery: reopen the chunk dir as a fresh process would.  The
        // staged file from the interrupted publish is an uncommitted
        // orphan — the manifest still describes the complete OLD chunk
        // set, and the published dataset is exactly the pre-crash one.
        drop(chunks);
        let reopened = ChunkDir::open(dir.join("chunks")).unwrap();
        assert_eq!(manifest_snapshot(&reopened), committed);
        assert_eq!(
            reopened.combined_dataset().unwrap().unwrap(),
            committed_dataset,
            "a crashed republish must not change the visible publication"
        );
        // No stray batch files survive outside the manifest.
        let manifest_files: std::collections::BTreeSet<String> = reopened
            .manifest()
            .batches
            .iter()
            .map(|e| e.file.clone())
            .collect();
        for entry in std::fs::read_dir(reopened.dir()).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.starts_with("batch-") {
                assert!(
                    manifest_files.contains(&name),
                    "orphan chunk file {name} survived recovery"
                );
            }
        }

        // Retrying the publish against the recovered dir lands the complete
        // NEW chunk set atomically: every batch present, the appended
        // records visible.
        let mut recovered = reopened;
        pipeline.publish_all(&mut recovered).unwrap();
        assert_eq!(
            recovered.manifest().batches.len(),
            pipeline.batch_count(),
            "the retried publish must commit every batch"
        );
        let republished = recovered.combined_dataset().unwrap().unwrap();
        assert_eq!(republished.total_records(), records.len());
        assert!(disassociation::verify::verify_structure(&republished).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_accepts_of_a_dirty_only_republish_is_recoverable_too() {
        // Same property through the `publish_dirty` path the CLI uses, with
        // the crash injected on the very first accept (nothing staged at
        // all): the old set must survive untouched.
        struct PanicImmediately;
        impl ChunkSink for PanicImmediately {
            fn accept(&mut self, _batch: BatchOutput) -> Result<(), SinkError> {
                panic!("injected crash before any chunk was staged");
            }
        }

        let dir = tmpdir("append_fault_dirty");
        let records = workload().records().to_vec();
        let (base, delta) = records.split_at(240);
        let mut pipeline = {
            let mut source = DatasetSource::from_records(base, 48);
            IncrementalPipeline::build(incremental_config(), &mut source).unwrap()
        };
        let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        pipeline.publish_all(&mut chunks).unwrap();
        let committed = manifest_snapshot(&chunks);

        pipeline.append(delta);
        let dirty = pipeline.dirty_batches();
        let crash = catch_unwind(AssertUnwindSafe(|| {
            pipeline.publish_dirty(&mut PanicImmediately).unwrap();
        }));
        assert!(crash.is_err());

        // The crash must not have cleared the dirty flags: the work is
        // still owed, and a retry delivers it.
        assert_eq!(pipeline.dirty_batches(), dirty);
        drop(chunks);
        let mut reopened = ChunkDir::open(dir.join("chunks")).unwrap();
        assert_eq!(manifest_snapshot(&reopened), committed);
        let republished = pipeline.publish_dirty(&mut reopened).unwrap();
        assert_eq!(republished, dirty.len());
        assert!(pipeline.dirty_batches().is_empty());
        let dataset = reopened.combined_dataset().unwrap().unwrap();
        assert_eq!(dataset.total_records(), records.len());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// PR 9: the same crash-mid-republish property, driven through the real
/// I/O seam (`disassoc_faults` + `disassoc_store::failpoints`) instead of
/// a panicking sink wrapper — the fault now fires inside `ChunkDir`'s own
/// staging/commit code, underneath the pipeline.  Every armed policy is
/// path-scoped to this test's temp directory, so these tests are safe to
/// run in parallel with the rest of the binary.
mod republish_seam_fault_injection {
    use super::*;
    use disassoc_faults as faults;
    use disassoc_store::{failpoints, ChunkDir};
    use disassociation::pipeline::DatasetSource;
    use disassociation::{DisassociationConfig, IncrementalPipeline};

    fn incremental_config() -> DisassociationConfig {
        DisassociationConfig {
            k: 3,
            m: 2,
            seed: 21,
            ..Default::default()
        }
    }

    fn manifest_snapshot(chunks: &ChunkDir) -> Vec<(usize, String, u64)> {
        chunks
            .manifest()
            .batches
            .iter()
            .map(|e| (e.batch_index, e.file.clone(), e.generation))
            .collect()
    }

    /// Publishes a base set, appends, then fails the republish at `site`;
    /// asserts the old publication stays visible and a retry lands the new
    /// one.  Shared by the rename- and fsync-failure tests.
    fn old_publication_survives_failure_at(site: &str, tag: &str) {
        let dir = tmpdir(tag);
        let scope = dir.to_string_lossy().into_owned();
        let records = workload().records().to_vec();
        let (base, delta) = records.split_at(240);

        let mut pipeline = {
            let mut source = DatasetSource::from_records(base, 48);
            IncrementalPipeline::build(incremental_config(), &mut source).unwrap()
        };
        let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        pipeline.publish_all(&mut chunks).unwrap();
        let committed = manifest_snapshot(&chunks);
        let committed_dataset = chunks.combined_dataset().unwrap().unwrap();

        // Fail the republish inside the store layer's own write path.
        pipeline.append(delta);
        faults::arm(
            site,
            faults::Policy::error().once().when_path_contains(&scope),
        );
        let err = pipeline.publish_all(&mut chunks);
        assert!(err.is_err(), "{site}: the injected failure must surface");
        assert_eq!(faults::site_stats(site).unwrap().triggers, 1);
        faults::disarm(site);

        // A fresh open sees the complete old publication, unchanged.
        drop(chunks);
        let reopened = ChunkDir::open(dir.join("chunks")).unwrap();
        assert_eq!(manifest_snapshot(&reopened), committed);
        assert_eq!(
            reopened.combined_dataset().unwrap().unwrap(),
            committed_dataset,
            "{site}: a failed republish must not change the visible publication"
        );

        // And the retry commits the full new set.
        let mut recovered = reopened;
        pipeline.publish_all(&mut recovered).unwrap();
        assert_eq!(recovered.manifest().batches.len(), pipeline.batch_count());
        let republished = recovered.combined_dataset().unwrap().unwrap();
        assert_eq!(republished.total_records(), records.len());
        assert!(disassociation::verify::verify_structure(&republished).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_manifest_rename_failure_keeps_the_old_publication() {
        // The commit point itself: the atomic rename of the chunk manifest.
        old_publication_survives_failure_at(
            failpoints::PUBLISH_COMMIT_RENAME,
            "republish_rename_fault",
        );
    }

    #[test]
    fn injected_stage_fsync_failure_keeps_the_old_publication() {
        // Before the commit: fsync of a staged chunk file fails (EIO-style),
        // so nothing must ever reach the manifest.
        old_publication_survives_failure_at(
            failpoints::PUBLISH_STAGE_SYNC,
            "republish_fsync_fault",
        );
    }
}
