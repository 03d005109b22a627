//! Acceptance tests of the observability layer (`disassoc-obs`):
//!
//! 1. **Collection is inert** — running the anonymizer with metrics and
//!    tracing enabled publishes the byte-identical dataset to a run with
//!    everything off (instrumentation must never steer the algorithm), and
//!    the trace holds one span per phase per batch whose duration is the
//!    phase time the batch reports.
//! 2. **The counters balance** — every REFINE join attempt is accounted
//!    for: `joins_accepted + joins_rejected == join_attempts`, and every
//!    anonymity-check trial landed in exactly one checker-path counter.
//! 3. **The counters agree with the API** — the incremental dirty-cluster
//!    counter matches the `AppendOutcome` the caller saw, and the WAL
//!    append counter matches the number of batches ingested.
//!
//! The registry is process-global, so every test takes a shared lock and
//! starts from `reset_all()`.

use datagen::{QuestConfig, QuestGenerator};
use disassoc_obs::metrics::{self, counters};
use disassoc_obs::{names, trace};
use disassoc_store::{Store, StoreConfig};
use disassociation::pipeline::{DatasetSource, FnSink};
use disassociation::{
    BatchOutput, DisassociationConfig, DisassociationOutput, Disassociator, Pipeline,
};
use serde_json::Value;
use std::sync::{Mutex, MutexGuard, PoisonError};
use transact::{Dataset, Record};

/// Serializes tests that toggle/reset the process-global registry.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn quest(records: usize, seed: u64) -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: 400,
        avg_transaction_len: 8.0,
        seed,
        ..QuestConfig::default()
    })
}

fn config() -> DisassociationConfig {
    DisassociationConfig {
        k: 3,
        m: 2,
        ..Default::default()
    }
}

/// Runs a serial `Pipeline` over `dataset` in 500-record batches and
/// returns every batch's output, in batch order.
fn run_batches(dataset: &Dataset) -> Vec<DisassociationOutput> {
    let mut outputs = Vec::new();
    let mut source = DatasetSource::new(dataset, 500);
    Pipeline::new(config())
        .source(&mut source)
        .sink(&mut FnSink::new(|batch: BatchOutput| {
            outputs.push(batch.output)
        }))
        .threads(1)
        .run()
        .unwrap();
    outputs
}

#[test]
fn collection_does_not_change_the_publication() {
    let _guard = obs_lock();
    let dataset = quest(2_000, 11);

    metrics::disable();
    let plain = run_batches(&dataset);

    // Full collection: metrics plus a live trace sink.
    metrics::reset_all();
    metrics::enable();
    let trace_path = std::env::temp_dir().join(format!("obs_inert_{}.jsonl", std::process::id()));
    trace::init_file(&trace_path).unwrap();
    let observed = run_batches(&dataset);
    trace::shutdown().unwrap();
    metrics::disable();

    assert_eq!(observed.len(), 4);
    for (plain, observed) in plain.iter().zip(&observed) {
        assert_eq!(
            serde_json::to_vec(&plain.dataset).unwrap(),
            serde_json::to_vec(&observed.dataset).unwrap(),
            "metrics/tracing must be observationally inert"
        );
    }
    // The trace recorded the run as JSONL.
    let text = std::fs::read_to_string(&trace_path).unwrap();
    let records: Vec<Value> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("every line is JSON"))
        .collect();
    assert!(!records.is_empty(), "trace should hold events");
    for value in &records {
        assert!(value.get("ts_us").is_some());
        assert!(value.get("kind").is_some());
        assert!(value.get("name").is_some());
    }
    // One span per phase per batch, each as long as the phase time the
    // batch reports (the span is the phase's only clock).
    let phase_spans = |phase: &str| -> Vec<u64> {
        let str_field = |r: &Value, key: &str| match r.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key} is not a string: {other:?}"),
        };
        records
            .iter()
            .filter(|r| str_field(r, "kind") == "span" && str_field(r, "name") == phase)
            .map(|r| match r.get("dur_us") {
                Some(Value::Int(us)) => *us as u64,
                other => panic!("spans carry an integer dur_us, got {other:?}"),
            })
            .collect()
    };
    for (phase, seconds) in [
        (
            names::SPAN_CORE_HORPART,
            observed
                .iter()
                .map(|o| o.phases.horpart)
                .collect::<Vec<_>>(),
        ),
        (
            names::SPAN_CORE_VERPART,
            observed.iter().map(|o| o.phases.verpart).collect(),
        ),
        (
            names::SPAN_CORE_REFINE,
            observed.iter().map(|o| o.phases.refine).collect(),
        ),
    ] {
        let spans = phase_spans(phase);
        assert_eq!(spans.len(), observed.len(), "one {phase} span per batch");
        for (dur_us, seconds) in spans.iter().zip(seconds) {
            let micros = seconds * 1e6;
            assert!(
                (*dur_us as f64 - micros).abs() < 1.0,
                "{phase}: span {dur_us} us vs phase time {micros} us"
            );
        }
    }
    std::fs::remove_file(&trace_path).ok();
}

#[test]
fn join_and_checker_counters_balance() {
    let _guard = obs_lock();
    let dataset = quest(2_000, 23);

    metrics::reset_all();
    metrics::enable();
    let output = Disassociator::new(config()).anonymize(&dataset);
    metrics::disable();
    assert!(!output.dataset.clusters.is_empty());

    let attempts = counters::CORE_JOIN_ATTEMPTS.get();
    let accepted = counters::CORE_JOINS_ACCEPTED.get();
    let rejected = counters::CORE_JOINS_REJECTED.get();
    assert!(attempts > 0, "REFINE should have tried joins");
    assert_eq!(
        accepted + rejected,
        attempts,
        "every join attempt must be accepted or rejected"
    );
    // Equation-1 rejections are a subset of all rejections.
    assert!(counters::CORE_JOINS_REJECTED_EQ1.get() <= rejected);

    // Every anonymity trial landed in exactly one checker-path counter;
    // for m=2 at this domain size at least one m=2 path must have fired.
    let trials = counters::CORE_CHECKER_TRIALS_M2_TRIANGLE.get()
        + counters::CORE_CHECKER_TRIALS_PACKED.get()
        + counters::CORE_CHECKER_TRIALS_FALLBACK.get();
    assert!(
        trials > 0,
        "VERPART/REFINE should have run anonymity checks"
    );
    assert!(
        counters::CORE_CHECKER_TRIALS_M2_TRIANGLE.get() > 0,
        "an m=2 run should exercise the m=2 triangle"
    );
    assert_eq!(counters::CORE_ANONYMIZE_RUNS.get(), 1);
    assert!(counters::CORE_HORPART_CLUSTERS.get() > 0);
}

#[test]
fn incremental_dirty_cluster_counter_matches_the_outcome() {
    let _guard = obs_lock();
    let records: Vec<Record> = quest(2_000, 31).records().to_vec();
    let split = records.len() - records.len() / 20;
    let (base, delta) = records.split_at(split);

    metrics::disable();
    let disassociator = Disassociator::new(config());
    let mut run = disassociator.anonymize_incremental(Dataset::from_records(base.to_vec()));

    metrics::reset_all();
    metrics::enable();
    let outcome = run.append(delta);
    metrics::disable();

    assert_eq!(counters::INCR_APPENDS.get(), 1);
    assert_eq!(
        counters::INCR_DIRTY_CLUSTERS.get(),
        outcome.dirty_clusters as u64,
        "the dirty-cluster counter must agree with the AppendOutcome"
    );
    assert!(counters::INCR_ROUTED_RECORDS.get() <= delta.len() as u64);
}

#[test]
fn wal_append_counter_matches_batches_ingested() {
    let _guard = obs_lock();
    let records: Vec<Record> = quest(500, 47).records().to_vec();
    let dir = std::env::temp_dir().join(format!("obs_wal_test_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    metrics::reset_all();
    metrics::enable();
    let mut store = Store::open(&dir, StoreConfig::default()).unwrap();
    let batch_size = 100;
    let mut batches = 0u64;
    for chunk in records.chunks(batch_size) {
        store.append_batch(chunk).unwrap();
        batches += 1;
    }
    store.flush().unwrap();
    metrics::disable();

    assert_eq!(
        counters::STORE_WAL_APPENDS.get(),
        batches,
        "one WAL append per ingested batch"
    );
    assert!(counters::STORE_WAL_APPEND_BYTES.get() > 0);
    std::fs::remove_dir_all(&dir).ok();
}
