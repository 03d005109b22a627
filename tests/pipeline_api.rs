//! Acceptance suite of the unified `disassociation::pipeline` API
//! (source → pipeline → sink, typed errors end-to-end, parallel batches):
//!
//! 1. **Mid-stream source failure** — a source that errors after N batches
//!    aborts the run with a typed [`disassociation::Error`] whose cause
//!    chain reaches the original error, and leaves a file sink's partial
//!    output *clearly truncated*: the chunk file fails to parse instead of
//!    looking like a valid but silently short publication.
//! 2. **Failing sink on the store-backed path** — a sink that rejects a
//!    batch (ENOSPC-style) aborts the run with `Error::Sink`, and the store
//!    itself stays intact and scannable.
//! 3. **Determinism regression** — `threads(4)` output is byte-identical to
//!    `threads(1)` and to the in-memory `CollectSink` path for the same
//!    batch size, over both in-memory and store-backed sources.

#![deny(deprecated)]

use datagen::{QuestConfig, QuestGenerator};
use disassoc_store::{Store, StoreConfig};
use disassociation::pipeline::{
    BatchOutput, ChunkSink, CollectSink, DatasetSource, JsonChunksSink, Pipeline, ReaderSource,
    RecordSource,
};
use disassociation::{DisassociationConfig, Error, SinkError, SourceError};
use std::path::{Path, PathBuf};
use transact::{Dataset, Record};

const BATCH: usize = 64;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pipeline_api_{name}_{}", std::process::id()));
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

fn ingest(dir: &Path, dataset: &Dataset) -> Store {
    let mut store = Store::open(
        dir.join("store"),
        StoreConfig {
            memtable_capacity: 48,
            ..StoreConfig::default()
        },
    )
    .unwrap();
    store.append_batch(dataset.records()).unwrap();
    store.flush().unwrap();
    store
}

/// Runs a pipeline over `source` into a fresh chunk file, returning its
/// bytes.
fn publish_to_file(
    source: &mut dyn RecordSource,
    threads: usize,
    path: &Path,
) -> Result<Vec<u8>, Error> {
    let mut sink = JsonChunksSink::create(path, &config()).map_err(Error::Sink)?;
    Pipeline::new(config())
        .source(source)
        .sink(&mut sink)
        .threads(threads)
        .run()?;
    Ok(std::fs::read(path).unwrap())
}

// ---------------------------------------------------------------------------
// 1. Mid-stream source failure
// ---------------------------------------------------------------------------

/// Wraps a source, failing after `ok_batches` successful pulls.
struct TruncatingSource<S> {
    inner: S,
    ok_batches: usize,
    pulled: usize,
}

impl<S: RecordSource> RecordSource for TruncatingSource<S> {
    fn next_batch(&mut self) -> Result<Option<Vec<Record>>, SourceError> {
        if self.pulled >= self.ok_batches {
            return Err(SourceError::new(
                format!("record stream lost after batch {}", self.pulled),
                std::io::Error::other("simulated media failure"),
            ));
        }
        self.pulled += 1;
        self.inner.next_batch()
    }
}

#[test]
fn source_failure_aborts_with_typed_error_and_visibly_truncated_output() {
    let dir = tmpdir("source_failure");
    let dataset = workload();
    let file = dir.join("data.dat");
    transact::io::write_numeric_transactions_path(&dataset, &file).unwrap();
    let chunk_path = dir.join("partial.chunks.json");

    for threads in [1, 4] {
        let mut source = TruncatingSource {
            inner: ReaderSource::open(&file, BATCH).unwrap(),
            ok_batches: 2,
            pulled: 0,
        };
        let err = publish_to_file(&mut source, threads, &chunk_path).unwrap_err();
        assert!(matches!(err, Error::Source(_)), "{err:?}");
        let chain = disassociation::error::render_chain(&err);
        assert!(chain.contains("record stream lost"), "{chain}");
        assert!(chain.contains("simulated media failure"), "{chain}");

        // The partial chunk file must NOT parse as a valid publication: the
        // run never sealed the sink, so the JSON document is unterminated.
        let partial = std::fs::read_to_string(&chunk_path).unwrap();
        let parsed: Result<disassociation::DisassociatedDataset, _> =
            serde_json::from_str(&partial);
        assert!(
            parsed.is_err(),
            "threads {threads}: partial output parsed as a valid dataset — silent truncation"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_parse_failure_mid_stream_surfaces_line_numbers() {
    let dir = tmpdir("parse_failure");
    let dataset = workload();
    let file = dir.join("data.dat");
    transact::io::write_numeric_transactions_path(&dataset, &file).unwrap();
    // Corrupt a line in the middle of the file.
    let mut text = std::fs::read_to_string(&file).unwrap();
    let mid = text.len() / 2;
    let line_start = text[..mid].rfind('\n').unwrap() + 1;
    text.insert_str(line_start, "not a number ");
    std::fs::write(&file, text).unwrap();

    let mut source = ReaderSource::open(&file, 32).unwrap();
    let mut sink = CollectSink::for_config(&config());
    let err = Pipeline::new(config())
        .source(&mut source)
        .sink(&mut sink)
        .run()
        .unwrap_err();
    let chain = disassociation::error::render_chain(&err);
    assert!(chain.contains("caused by:"), "{chain}");
    assert!(chain.contains("line"), "{chain}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 2. Failing sink on the store-backed path
// ---------------------------------------------------------------------------

/// An ENOSPC-style sink: accepts `capacity` batches, then fails.
struct FullDeviceSink {
    capacity: usize,
    accepted: usize,
    finished: bool,
}

impl ChunkSink for FullDeviceSink {
    fn accept(&mut self, _batch: BatchOutput) -> Result<(), SinkError> {
        if self.accepted >= self.capacity {
            return Err(SinkError::new(
                "writing published chunks",
                std::io::Error::new(std::io::ErrorKind::StorageFull, "no space left on device"),
            ));
        }
        self.accepted += 1;
        Ok(())
    }
    fn finish(&mut self) -> Result<(), SinkError> {
        self.finished = true;
        Ok(())
    }
}

#[test]
fn sink_failure_on_the_store_backed_path_aborts_and_leaves_the_store_intact() {
    let dir = tmpdir("sink_failure");
    let dataset = workload();
    let store = ingest(&dir, &dataset);

    for threads in [1, 4] {
        let mut source = store.source(BATCH);
        let mut sink = FullDeviceSink {
            capacity: 2,
            accepted: 0,
            finished: false,
        };
        let err = Pipeline::new(config())
            .source(&mut source)
            .sink(&mut sink)
            .threads(threads)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Sink(_)), "{err:?}");
        let chain = disassociation::error::render_chain(&err);
        assert!(chain.contains("no space left"), "{chain}");
        assert_eq!(sink.accepted, 2, "in-order delivery up to the failure");
        assert!(!sink.finished, "failed runs must not seal the sink");
    }

    // The store is read-only to the pipeline: a failed publication leaves
    // every record scannable.
    let records: Vec<Record> = store.scan(BATCH).flat_map(|b| b.unwrap()).collect();
    assert_eq!(records, dataset.records());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// The real `/dev/full` twin of the synthetic sink above (Linux only): the
/// streaming chunk writer itself must surface ENOSPC as a typed sink error.
#[test]
#[cfg(target_os = "linux")]
fn dev_full_surfaces_as_a_typed_sink_error() {
    if !Path::new("/dev/full").exists() {
        return; // minimal container without /dev/full
    }
    let dir = tmpdir("dev_full");
    let dataset = workload();
    let store = ingest(&dir, &dataset);
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .unwrap();
    // An unbuffered writer so the very first batch hits ENOSPC.
    let mut sink = JsonChunksSink::numeric(file, &config());
    let mut source = store.source(BATCH);
    let err = Pipeline::new(config())
        .source(&mut source)
        .sink(&mut sink)
        .run()
        .unwrap_err();
    assert!(matches!(err, Error::Sink(_)), "{err:?}");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// 3. Determinism: threads(4) == threads(1), byte for byte
// ---------------------------------------------------------------------------

#[test]
fn thread_count_and_entry_point_do_not_change_the_published_bytes() {
    let dir = tmpdir("determinism");
    let dataset = workload();
    let store = ingest(&dir, &dataset);

    // New API, in-memory source, serial.
    let mut mem1 = DatasetSource::new(&dataset, BATCH);
    let serial = publish_to_file(&mut mem1, 1, &dir.join("serial.json")).unwrap();

    // New API, in-memory source, 4 worker threads.
    let mut mem4 = DatasetSource::new(&dataset, BATCH);
    let parallel = publish_to_file(&mut mem4, 4, &dir.join("parallel.json")).unwrap();
    assert_eq!(serial, parallel, "threads(4) must match threads(1)");

    // New API, store-backed source, 4 worker threads.
    let mut st4 = store.source(BATCH);
    let from_store = publish_to_file(&mut st4, 4, &dir.join("store.json")).unwrap();
    assert_eq!(
        serial, from_store,
        "store-backed bytes must match in-memory"
    );

    // Collecting sink instead of a file sink: same bytes again, so the
    // choice of sink does not influence the publication either.
    let mut collect = CollectSink::for_config(&config());
    Pipeline::new(config())
        .source(&mut DatasetSource::new(&dataset, BATCH))
        .sink(&mut collect)
        .run()
        .unwrap();
    let collected = serde_json::to_vec(&collect.into_output().dataset).unwrap();
    assert_eq!(
        serial, collected,
        "the collecting sink must publish identically"
    );

    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
