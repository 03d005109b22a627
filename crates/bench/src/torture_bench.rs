//! Crash-point torture sweep + fault-layer overhead honesty
//! (`BENCH_torture`): enumerates every registered failpoint in the store
//! and publication layers under injected-error and panic-to-crash modes,
//! verifying recovery after each, and measures what the fault layer costs
//! when it is disarmed — the honesty series that keeps "zero-cost when
//! disabled" an empirical claim rather than a slogan.

use crate::experiment::{ExperimentReport, Series};
use disassoc_faults as faults;
use disassoc_store::{failpoints, ChunkDir, Store, StoreConfig};
use disassociation::pipeline::DatasetSource;
use disassociation::{DisassociationConfig, IncrementalPipeline};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;
use transact::Record;

/// Removes its directory on drop, surviving panics inside the sweep.
struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn create(path: PathBuf) -> TempDir {
        std::fs::remove_dir_all(&path).ok();
        std::fs::create_dir_all(&path).expect("creating bench temp dir");
        TempDir { path }
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.path).ok();
    }
}

fn records(n: usize, seed: u64) -> Vec<Record> {
    crate::workloads::quest_scaled(n, 60, 5.0, seed)
        .dataset
        .records()
        .to_vec()
}

fn torture_store_config() -> StoreConfig {
    StoreConfig {
        memtable_capacity: 8,
        compaction_min_segments: 2,
    }
}

/// One crash point: run the store workload with `site` armed (panicking
/// when `panic_mode`), then verify recovery.  Returns `true` when the
/// fault fired and the reopened store held a consistent prefix.
fn store_point(dir: &Path, site: &str, panic_mode: bool, seed: u64) -> bool {
    let policy = if panic_mode {
        faults::Policy::crash().once()
    } else {
        faults::Policy::error().once()
    };
    faults::arm(site, policy);
    let all = records(60, seed);
    let sent = std::cell::Cell::new(0usize);
    let _ = catch_unwind(AssertUnwindSafe(|| -> disassoc_store::Result<()> {
        let mut store = Store::open(dir.join("store"), torture_store_config())?;
        for (i, batch) in all.chunks(4).enumerate() {
            sent.set(sent.get() + batch.len());
            store.append_batch(batch)?;
            if i % 4 == 3 {
                store.flush()?;
                store.compact()?;
            }
        }
        store.flush()?;
        store.compact()?;
        Ok(())
    }));
    let fired = faults::site_stats(site).map(|s| s.triggers).unwrap_or(0) == 1;
    faults::disarm_all();
    let recovered = Store::open(dir.join("store"), torture_store_config())
        .ok()
        .map(|store| {
            let got: Vec<Record> = store.scan(16).filter_map(|b| b.ok()).flatten().collect();
            got.len() <= sent.get() && got[..] == all[..got.len()]
        })
        .unwrap_or(false);
    fired && recovered
}

/// One publication crash point: commit a base chunk set, append, fail the
/// republish at `site`, and verify the visible publication is entirely old
/// or entirely new.
fn publish_point(dir: &Path, site: &str, panic_mode: bool, seed: u64) -> bool {
    let all = records(180, seed);
    let (base, delta) = all.split_at(144);
    let mut pipeline = {
        let mut source = DatasetSource::from_records(base, 36);
        IncrementalPipeline::build(
            DisassociationConfig {
                k: 3,
                m: 2,
                seed: 21,
                ..Default::default()
            },
            &mut source,
        )
        .expect("building the base pipeline")
    };
    {
        let mut chunks = ChunkDir::open(dir.join("chunks")).expect("opening the chunk dir");
        pipeline.publish_all(&mut chunks).expect("base publication");
    }
    let old_total = base.len();

    pipeline.append(delta);
    let policy = if panic_mode {
        faults::Policy::crash().once()
    } else {
        faults::Policy::error().once()
    };
    faults::arm(site, policy);
    let _ = catch_unwind(AssertUnwindSafe(|| -> disassoc_store::Result<()> {
        let mut chunks = ChunkDir::open(dir.join("chunks"))?;
        pipeline
            .publish_all(&mut chunks)
            .map_err(|e| disassoc_store::StoreError::corrupt(e.to_string()))?;
        Ok(())
    }));
    let fired = faults::site_stats(site).map(|s| s.triggers).unwrap_or(0) == 1;
    faults::disarm_all();
    let consistent = ChunkDir::open(dir.join("chunks"))
        .ok()
        .and_then(|chunks| chunks.combined_dataset().ok().flatten())
        .map(|dataset| {
            let total = dataset.total_records();
            (total == old_total || total == all.len())
                && disassociation::verify::verify_structure(&dataset).is_ok()
        })
        .unwrap_or(false);
    fired && consistent
}

/// The honesty series: what does the fault layer cost when no fault is
/// armed?  `disabled_check_ns` times the real `faults::check` fast path
/// (one relaxed atomic load) against an empty `baseline_ns` loop, and the
/// `ingest_*_s` points compare a full store ingest with the registry
/// disarmed vs. armed-for-somebody-else (a policy whose path filter never
/// matches, the worst case that still takes the registry lock).
fn overhead_series(seed: u64) -> Series {
    use std::hint::black_box;
    const ITERS: u64 = 20_000_000;
    faults::disarm_all();
    let started = Instant::now();
    for i in 0..ITERS {
        black_box(faults::check("bench.calibration.site")).ok();
        black_box(i);
    }
    let disabled_check_ns = started.elapsed().as_nanos() as f64 / ITERS as f64;
    let started = Instant::now();
    for i in 0..ITERS {
        black_box(i);
    }
    let baseline_ns = started.elapsed().as_nanos() as f64 / ITERS as f64;

    let ingest = |dir: &Path| -> f64 {
        let all = records(20_000, seed);
        let started = Instant::now();
        let mut store = Store::open(
            dir.join("store"),
            StoreConfig {
                memtable_capacity: 4096,
                ..StoreConfig::default()
            },
        )
        .expect("opening the overhead store");
        for batch in all.chunks(1024) {
            store.append_batch(batch).expect("appending");
        }
        store.flush().expect("sealing");
        started.elapsed().as_secs_f64()
    };
    let guard = TempDir::create(
        std::env::temp_dir().join(format!("disassoc_bench_torture_oh_{}", std::process::id())),
    );
    let disarmed_dir = guard.path.join("disarmed");
    std::fs::create_dir_all(&disarmed_dir).unwrap();
    let ingest_disarmed_s = ingest(&disarmed_dir);
    // Armed for a path that never matches: every seam check now goes
    // through the registry lock — the worst case short of actually firing.
    faults::arm(
        failpoints::WAL_APPEND,
        faults::Policy::error().when_path_contains("/never/matches/anywhere/"),
    );
    let armed_dir = guard.path.join("armed");
    std::fs::create_dir_all(&armed_dir).unwrap();
    let ingest_armed_other_s = ingest(&armed_dir);
    faults::disarm_all();

    let mut series = Series::new("faults_overhead");
    series.push("disabled_check_ns", disabled_check_ns);
    series.push("baseline_ns", baseline_ns);
    series.push("delta_ns", disabled_check_ns - baseline_ns);
    series.push("ingest_disarmed_s", ingest_disarmed_s);
    series.push("ingest_armed_other_s", ingest_armed_other_s);
    series.push(
        "armed_over_disarmed",
        ingest_armed_other_s / ingest_disarmed_s.max(1e-9),
    );
    series
}

/// Runs the crash-point sweep and the overhead honesty measurement (the
/// `BENCH_torture.json` report).  `seed` drives both the workload content
/// and the registry's probabilistic policies, so two runs with the same
/// seed exercise byte-identical schedules.
pub fn bench_torture(seed: u64) -> ExperimentReport {
    faults::set_seed(seed);
    let mut report = ExperimentReport::new(
        "BENCH_torture",
        "crash-point torture sweep + fault-layer overhead honesty",
        &format!(
            "seed {seed}; {} store + {} publish failpoints x error/panic modes",
            failpoints::STORE_SITES.len(),
            failpoints::PUBLISH_SITES.len()
        ),
        1,
    );

    // Silence the expected panic spew from the panic-mode points; the hook
    // is restored before returning.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let guard = TempDir::create(
        std::env::temp_dir().join(format!("disassoc_bench_torture_{}", std::process::id())),
    );
    let mut enumerated = 0u32;
    let mut recovered = 0u32;
    let started = Instant::now();
    for &site in failpoints::STORE_SITES {
        for panic_mode in [false, true] {
            let dir = guard
                .path
                .join(format!("{}_{}", site.replace('.', "_"), panic_mode));
            std::fs::create_dir_all(&dir).unwrap();
            enumerated += 1;
            recovered += store_point(&dir, site, panic_mode, seed) as u32;
        }
    }
    for &site in failpoints::PUBLISH_SITES {
        for panic_mode in [false, true] {
            let dir = guard
                .path
                .join(format!("{}_{}", site.replace('.', "_"), panic_mode));
            std::fs::create_dir_all(&dir).unwrap();
            enumerated += 1;
            recovered += publish_point(&dir, site, panic_mode, seed) as u32;
        }
    }
    let sweep_s = started.elapsed().as_secs_f64();
    std::panic::set_hook(prev_hook);
    assert_eq!(
        enumerated, recovered,
        "every enumerated crash point must fire and recover"
    );

    let mut points = Series::new("crash_points");
    points.push("store_sites", failpoints::STORE_SITES.len() as f64);
    points.push("publish_sites", failpoints::PUBLISH_SITES.len() as f64);
    points.push("enumerated", enumerated as f64);
    points.push("recovered", recovered as f64);
    points.push("faults_injected_total", faults::injected_total() as f64);
    points.push("sweep_s", sweep_s);
    report.add_series(points);
    report.add_series(overhead_series(seed));
    report
}
