//! Process-global metrics registry: counters, gauges, histograms.
//!
//! All instruments share one [`AtomicBool`] enabled flag.  Instrumented code
//! calls [`Counter::inc`] unconditionally; when metrics are disabled the
//! call is a relaxed load plus an untaken branch, which is the whole point —
//! the hot loops (checker trials, join attempts, WAL appends) keep their
//! instrumentation in release builds without measurable cost.
//!
//! Instruments are `static`s declared in [`counters`], [`gauges`], and
//! [`histograms`]; [`snapshot`] walks those catalogs, so every snapshot
//! lists the complete set of known metrics, including zeros.  That makes
//! "the counter is absent" and "the counter is zero" distinguishable for
//! consumers of `--metrics-out` files.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns metric recording on for the whole process.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns metric recording off for the whole process.  Values already
/// recorded are kept; use [`reset_all`] to clear them.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether metric recording is currently enabled.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// A monotonically increasing counter.  Const-constructible so instruments
/// can live in `static`s with no registration step.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter; `name` is dotted lowercase (`layer.event`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.  A no-op (one relaxed load + branch) while disabled.
    #[inline(always)]
    pub fn inc(&self) {
        if enabled() {
            self.value.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n`.  A no-op (one relaxed load + branch) while disabled.
    #[inline(always)]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The counter's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for summaries and docs.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (test support).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins instrument for level-style measurements.
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// Creates a gauge; `name` is dotted lowercase (`layer.level`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Records the current level.  A no-op while disabled.
    #[inline(always)]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// The gauge's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for summaries and docs.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Last recorded level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (test support).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of power-of-two buckets in a [`Histogram`]; bucket `i` holds
/// values whose bit length is `i` (bucket 0 is the value zero), with the
/// final bucket absorbing everything wider.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A log2-bucketed histogram of `u64` samples (e.g. microsecond latencies).
pub struct Histogram {
    name: &'static str,
    help: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// Creates a histogram; `name` is dotted lowercase (`layer.latency_us`).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        // `AtomicU64` is not Copy; an inline-const element keeps the whole
        // instrument const-constructible without a shared interior-mutable
        // const item.
        Self {
            name,
            help,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample.  A no-op while disabled.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        if enabled() {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
            let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
            self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The histogram's registered name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// One-line description for summaries and docs.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Resets all buckets (test support).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    fn bucket_values(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }
}

/// The counter catalog.  Names are stable identifiers: `--metrics-out`
/// files, the README counter table, and CI greps all key off them.
pub mod counters {
    use super::Counter;

    macro_rules! catalog {
        ($($ident:ident => ($name:literal, $help:literal);)+) => {
            $(
                #[doc = $help]
                pub static $ident: Counter = Counter::new($name, $help);
            )+
            /// Every registered counter, in declaration order.
            pub static ALL: &[&Counter] = &[$(&$ident),+];
        };
    }

    catalog! {
        // --- core: phases -------------------------------------------------
        CORE_ANONYMIZE_RUNS => ("core.anonymize_runs", "Full HORPART→VERPART→REFINE runs over a batch");
        CORE_HORPART_CLUSTERS => ("core.horpart_clusters", "Clusters produced by horizontal partitioning (post-merge)");
        CORE_REFINE_PASSES => ("core.refine_passes", "REFINE passes executed across all runs");
        CORE_REFINE_CAPPED => ("core.refine_capped", "REFINE runs that hit the pass cap without converging");
        // --- core: REFINE join decisions (Equation 1) ---------------------
        CORE_JOIN_ATTEMPTS => ("core.join_attempts", "Cluster-pair join attempts evaluated by REFINE");
        CORE_JOINS_ACCEPTED => ("core.joins_accepted", "Join attempts that produced a joint cluster");
        CORE_JOINS_REJECTED => ("core.joins_rejected", "Join attempts rejected (all causes)");
        CORE_JOINS_REJECTED_EQ1 => ("core.joins_rejected_eq1", "Join attempts rejected by the Equation-1 support test");
        // --- core: anonymity-checker trials by path -----------------------
        CORE_CHECKER_TRIALS_M2_TRIANGLE => ("core.checker_trials_m2_triangle", "Checker trials on the m=2 triangular pair-count path");
        CORE_CHECKER_TRIALS_PACKED => ("core.checker_trials_packed", "Checker trials on the packed m-combination path");
        CORE_CHECKER_TRIALS_FALLBACK => ("core.checker_trials_fallback", "Checker trials on the reference fallback path");
        // --- store --------------------------------------------------------
        STORE_WAL_APPENDS => ("store.wal_appends", "Batches appended to the write-ahead log");
        STORE_WAL_APPEND_BYTES => ("store.wal_append_bytes", "Bytes appended to the write-ahead log");
        STORE_MEMTABLE_SPILLS => ("store.memtable_spills", "Memtable spills to a sealed segment");
        STORE_SEGMENT_SEALS => ("store.segment_seals", "Segments sealed (spills and compaction rewrites)");
        STORE_COMPACTION_RUNS => ("store.compaction_runs", "Compaction passes executed");
        STORE_COMPACTION_MERGES => ("store.compaction_merges", "Segment merge operations performed by compaction");
        STORE_COMPACTION_BYTES_READ => ("store.compaction_bytes_read", "Bytes read from segments replaced by compaction");
        STORE_COMPACTION_BYTES_WRITTEN => ("store.compaction_bytes_written", "Bytes written to replacement segments by compaction");
        STORE_CHUNKS_STAGED => ("store.chunks_staged", "Chunk batch files staged for publication");
        STORE_CHUNKS_SKIPPED => ("store.chunks_skipped", "Chunk batch stagings skipped as byte-identical to the published file");
        STORE_CHUNK_COMMITS => ("store.chunk_commits", "Two-phase chunk publications committed");
        STORE_CHUNK_INDEX_LOADS => ("store.chunk_index_loads", "Committed chunk batch files decoded into the term-filtered read index");
        // --- incremental append -------------------------------------------
        INCR_APPENDS => ("incr.appends", "Incremental append operations");
        INCR_ROUTED_RECORDS => ("incr.routed_records", "Appended records routed into an existing cluster slot");
        INCR_DIRTY_CLUSTERS => ("incr.dirty_clusters", "Clusters marked dirty by appends");
        INCR_BUDGET_OVERFLOWS => ("incr.budget_overflows", "Appended records diverted to overflow by the dirty-cluster budget");
        // --- serve (the `disassoc serve` daemon) --------------------------
        SERVE_REQUESTS => ("serve.requests", "HTTP requests accepted by the service");
        SERVE_REQUESTS_REJECTED => ("serve.requests_rejected", "HTTP requests answered with a 4xx/5xx status");
        SERVE_INGESTED_RECORDS => ("serve.ingested_records", "Records ingested over the socket into dataset stores");
        SERVE_ANONYMIZE_JOBS => ("serve.anonymize_jobs", "Anonymization jobs executed by the worker pool");
        SERVE_APPEND_JOBS => ("serve.append_jobs", "Incremental append jobs executed by the worker pool");
        SERVE_JOBS_REJECTED => ("serve.jobs_rejected", "Jobs rejected by backpressure (full per-dataset queue)");
        SERVE_JOB_RETRIES => ("serve.job_retries", "Write operations retried after a transient store error");
        SERVE_DATASETS_DEGRADED => ("serve.datasets_degraded", "Datasets flipped to degraded read-only mode by persistent write failures");
        // --- faults (the `disassoc-faults` failpoint registry) ------------
        FAULTS_INJECTED => ("faults.injected", "Faults injected by armed failpoints (errors, torn writes, crashes, delays)");
    }
}

/// The gauge catalog.
pub mod gauges {
    use super::Gauge;

    /// Records in the most recently anonymized batch.
    pub static CORE_LAST_BATCH_RECORDS: Gauge = Gauge::new(
        "core.last_batch_records",
        "Records in the most recently anonymized batch",
    );

    /// Every registered gauge, in declaration order.
    pub static ALL: &[&Gauge] = &[&CORE_LAST_BATCH_RECORDS];
}

/// The histogram catalog.
pub mod histograms {
    use super::Histogram;

    /// Per-batch anonymization wall time, in microseconds.
    pub static CORE_BATCH_MICROS: Histogram = Histogram::new(
        "core.batch_micros",
        "Per-batch anonymization wall time (microseconds)",
    );

    /// Every registered histogram, in declaration order.
    pub static ALL: &[&Histogram] = &[&CORE_BATCH_MICROS];
}

/// Resets every instrument to zero.  Test support: integration tests that
/// assert counter invariants reset between cases (and serialize on a lock,
/// since the registry is process-global).
pub fn reset_all() {
    for c in counters::ALL {
        c.reset();
    }
    for g in gauges::ALL {
        g.reset();
    }
    for h in histograms::ALL {
        h.reset();
    }
}

/// A point-in-time copy of every registered instrument.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Counter name → value, in catalog order.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge name → value, in catalog order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Histogram name → (count, sum, buckets), in catalog order.
    pub histograms: Vec<(&'static str, u64, u64, [u64; HISTOGRAM_BUCKETS])>,
}

impl Snapshot {
    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Serializes the snapshot as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {name: {count, sum, buckets}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            crate::json_escape_into(&mut out, name);
            out.push_str(&format!("\": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            crate::json_escape_into(&mut out, name);
            out.push_str(&format!("\": {value}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, count, sum, buckets)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            crate::json_escape_into(&mut out, name);
            out.push_str(&format!(
                "\": {{\"count\": {count}, \"sum\": {sum}, \"buckets\": ["
            ));
            let last_nonzero = buckets.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            for (j, b) in buckets[..last_nonzero].iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{b}"));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Renders a human-readable summary: nonzero counters grouped and
    /// aligned, gauges, and histogram count/mean lines.  Zero-valued
    /// instruments are elided — the JSON form is the complete record.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .iter()
            .filter(|(_, v)| *v != 0)
            .map(|(n, _)| n.len())
            .chain(
                self.gauges
                    .iter()
                    .filter(|(_, v)| *v != 0)
                    .map(|(n, _)| n.len()),
            )
            .max()
            .unwrap_or(0);
        let mut any = false;
        for (name, value) in &self.counters {
            if *value != 0 {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
                any = true;
            }
        }
        for (name, value) in &self.gauges {
            if *value != 0 {
                out.push_str(&format!("  {name:<width$}  {value}\n"));
                any = true;
            }
        }
        for (name, count, sum, _) in &self.histograms {
            if *count != 0 {
                let mean = *sum as f64 / *count as f64;
                out.push_str(&format!("  {name}  count {count}  mean {mean:.1}\n"));
                any = true;
            }
        }
        if !any {
            out.push_str("  (no nonzero metrics recorded)\n");
        }
        out
    }
}

/// Captures the current value of every registered instrument.
pub fn snapshot() -> Snapshot {
    Snapshot {
        counters: counters::ALL.iter().map(|c| (c.name(), c.get())).collect(),
        gauges: gauges::ALL.iter().map(|g| (g.name(), g.get())).collect(),
        histograms: histograms::ALL
            .iter()
            .map(|h| (h.name(), h.count(), h.sum(), h.bucket_values()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; serialize tests that mutate it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_instruments_record_nothing() {
        let _guard = LOCK.lock().unwrap();
        disable();
        reset_all();
        counters::CORE_JOIN_ATTEMPTS.inc();
        gauges::CORE_LAST_BATCH_RECORDS.set(7);
        histograms::CORE_BATCH_MICROS.record(123);
        assert_eq!(counters::CORE_JOIN_ATTEMPTS.get(), 0);
        assert_eq!(gauges::CORE_LAST_BATCH_RECORDS.get(), 0);
        assert_eq!(histograms::CORE_BATCH_MICROS.count(), 0);
    }

    #[test]
    fn enabled_instruments_record_and_snapshot_lists_full_catalog() {
        let _guard = LOCK.lock().unwrap();
        reset_all();
        enable();
        counters::CORE_JOIN_ATTEMPTS.add(3);
        gauges::CORE_LAST_BATCH_RECORDS.set(11);
        histograms::CORE_BATCH_MICROS.record(0);
        histograms::CORE_BATCH_MICROS.record(1_000_000);
        disable();

        let snap = snapshot();
        assert_eq!(snap.counter("core.join_attempts"), Some(3));
        // Untouched counters are present as zeros, not absent.
        assert_eq!(snap.counter("store.wal_appends"), Some(0));
        assert_eq!(snap.counters.len(), counters::ALL.len());
        let (_, count, sum, buckets) = snap.histograms[0];
        assert_eq!((count, sum), (2, 1_000_000));
        assert_eq!(buckets[0], 1); // the zero sample
        assert_eq!(buckets.iter().sum::<u64>(), 2);

        let json = snap.to_json();
        assert!(json.contains("\"core.join_attempts\": 3"));
        assert!(json.contains("\"histograms\""));
        let summary = snap.render_summary();
        assert!(summary.contains("core.join_attempts"));
        assert!(!summary.contains("store.wal_appends")); // zero → elided
        reset_all();
    }
}
