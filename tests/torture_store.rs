//! Crash-consistency torture harness: enumerates every failpoint in the
//! store and publication layers (`disassoc_store::failpoints`) under both
//! injected-error and panic-to-crash modes, and checks the recovery
//! invariants after each simulated crash:
//!
//! 1. **Acked data survives**: every record whose `append_batch` returned
//!    `Ok` is recovered on reopen, in order.
//! 2. **No phantom data**: the recovered record sequence is a prefix of
//!    what was sent — a crash never invents, reorders, or double-counts.
//! 3. **Lock released**: the advisory store lock never survives the crash
//!    (reopen succeeds without manual cleanup).
//! 4. **Publication old-or-new**: a crashed republish leaves the committed
//!    chunk set either entirely old or entirely new, never a mix, and the
//!    visible publication stays structurally k^m-anonymous.
//! 5. **The store stays usable**: post-recovery appends, flushes, compacts
//!    and republishes all succeed.
//!
//! The failpoint registry is process-global, so every test serializes on
//! one mutex and disarms on entry; this binary must stay its own test
//! target (separate process) so it cannot race other suites.

use datagen::{QuestConfig, QuestGenerator};
use disassoc_faults as faults;
use disassoc_store::{failpoints, ChunkDir, Store, StoreConfig};
use disassociation::pipeline::DatasetSource;
use disassociation::{DisassociationConfig, IncrementalPipeline};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use transact::Record;

/// Serializes every test in this binary: the failpoint registry is
/// process-global state.
static LOCK: Mutex<()> = Mutex::new(());

fn guard() -> MutexGuard<'static, ()> {
    let g = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    faults::disarm_all();
    g
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("torture_store_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn records(n: usize, seed: u64) -> Vec<Record> {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: n,
        domain_size: 60,
        avg_transaction_len: 5.0,
        seed,
        ..QuestConfig::default()
    })
    .records()
    .to_vec()
}

/// Small memtable + aggressive compaction so a ~60-record workload walks
/// the full ingest → spill → seal → compact cycle several times.
fn torture_config() -> StoreConfig {
    StoreConfig {
        memtable_capacity: 8,
        compaction_min_segments: 2,
    }
}

/// The two ways a failpoint can take a process down.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// The site returns an injected `io::Error` (and the caller unwinds
    /// through ordinary error paths).
    Error,
    /// The site panics, simulating an abrupt crash mid-operation.
    Panic,
}

impl Mode {
    fn policy(self) -> faults::Policy {
        match self {
            Mode::Error => faults::Policy::error().once(),
            Mode::Panic => faults::Policy::crash().once(),
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Mode::Error => "error",
            Mode::Panic => "panic",
        }
    }
}

/// Runs the store workload with `site` armed in `mode`, then verifies the
/// crash-consistency invariants on recovery.  Returns the number of crash
/// points exercised (always 1).
fn store_torture_one(site: &str, mode: Mode) -> usize {
    let dir = tmpdir(&format!("store_{}_{}", site.replace('.', "_"), mode.tag()));
    let all = records(60, 11);
    let batches: Vec<&[Record]> = all.chunks(4).collect();

    faults::arm(site, mode.policy());

    // The workload: open, ingest in small batches (spilling every second
    // batch), seal, compact, ingest more, seal, compact again.  `sent`
    // counts records handed to `append_batch`; `acked` counts records whose
    // append returned Ok.  Both survive a panic via the shared cells.
    let sent = std::cell::Cell::new(0usize);
    let acked = std::cell::Cell::new(0usize);
    let workload = AssertUnwindSafe(|| -> disassoc_store::Result<()> {
        let mut store = Store::open(dir.join("store"), torture_config())?;
        for (i, batch) in batches.iter().enumerate() {
            sent.set(sent.get() + batch.len());
            store.append_batch(batch)?;
            acked.set(acked.get() + batch.len());
            // Two seal+compact cycles mid-stream so compaction and
            // publication-adjacent sites are reachable with data at stake.
            if i == 7 || i == 11 {
                store.flush()?;
                store.compact()?;
            }
        }
        store.flush()?;
        store.compact()?;
        Ok(())
    });
    let outcome = catch_unwind(workload);

    // The armed site must actually have fired, in the requested shape.
    let stats = faults::site_stats(site).unwrap_or_else(|| panic!("site {site} never registered"));
    assert_eq!(
        stats.triggers,
        1,
        "{site}/{} must fire exactly once",
        mode.tag()
    );
    match (mode, outcome) {
        (Mode::Error, Ok(result)) => {
            assert!(result.is_err(), "{site}: injected error must surface");
        }
        (Mode::Error, Err(_)) => panic!("{site}: error mode must not panic"),
        (Mode::Panic, Err(_)) => {}
        (Mode::Panic, Ok(_)) => panic!("{site}: armed panic never unwound"),
    }
    faults::disarm_all();

    // Recovery, exactly as a restarted process would see it.  The open
    // itself asserts invariant 3: the advisory lock died with the "crash".
    let mut store = Store::open(dir.join("store"), torture_config())
        .unwrap_or_else(|e| panic!("{site}/{}: reopen after crash failed: {e}", mode.tag()));
    let recovered: Vec<Record> = store.scan(16).flat_map(|b| b.unwrap()).collect();
    // Invariant 1: everything acked is there...
    assert!(
        recovered.len() >= acked.get(),
        "{site}/{}: {} acked records but only {} recovered",
        mode.tag(),
        acked.get(),
        recovered.len()
    );
    // ...and invariant 2: nothing beyond what was sent, in sent order.
    assert!(
        recovered.len() <= sent.get(),
        "{site}/{}: recovered {} records but only {} were ever sent",
        mode.tag(),
        recovered.len(),
        sent.get()
    );
    assert_eq!(
        recovered,
        all[..recovered.len()],
        "{site}/{}: recovered records must be a prefix of the sent sequence",
        mode.tag()
    );

    // Invariant 5: the recovered store takes new writes and compacts.
    let before = store.len();
    store.append_batch(&all[..4]).unwrap();
    store.flush().unwrap();
    store.compact().unwrap();
    assert_eq!(store.len(), before + 4);
    let rescanned: Vec<Record> = store.scan(16).flat_map(|b| b.unwrap()).collect();
    assert_eq!(rescanned.len() as u64, before + 4);

    std::fs::remove_dir_all(&dir).ok();
    1
}

#[test]
fn store_crash_matrix_recovers_at_every_failpoint() {
    let _g = guard();
    let mut points = 0;
    for &site in failpoints::STORE_SITES {
        for mode in [Mode::Error, Mode::Panic] {
            points += store_torture_one(site, mode);
        }
    }
    assert_eq!(points, failpoints::STORE_SITES.len() * 2);
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

/// Runs the republication workload with `site` armed in `mode`: a
/// committed generation-1 publication, an append, then a crashed
/// re-publish.  Verifies old-or-new atomicity, k^m-anonymity of whatever
/// publication is visible, and that a retry lands the full new set.
fn publish_torture_one(site: &str, mode: Mode) -> usize {
    let dir = tmpdir(&format!(
        "publish_{}_{}",
        site.replace('.', "_"),
        mode.tag()
    ));
    let all = records(180, 13);
    let (base, delta) = all.split_at(144);

    // Generation 1, unarmed: build the incremental pipeline and commit a
    // multi-batch publication.
    let mut pipeline = {
        let mut source = DatasetSource::from_records(base, 36);
        IncrementalPipeline::build(incremental_config(), &mut source).unwrap()
    };
    assert!(pipeline.batch_count() >= 2, "need multiple chunk files");
    {
        let mut chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        pipeline.publish_all(&mut chunks).unwrap();
    }
    let (old_manifest, old_dataset) = {
        let chunks = ChunkDir::open(dir.join("chunks")).unwrap();
        (
            manifest_snapshot(&chunks),
            chunks.combined_dataset().unwrap().unwrap(),
        )
    };
    let old_total = old_dataset.total_records();

    // Append, arm, and crash the re-publication (the reopen is inside the
    // crash window so `store.publish.gc` — fired at open — is reachable).
    pipeline.append(delta);
    faults::arm(site, mode.policy());
    let outcome = catch_unwind(AssertUnwindSafe(|| -> disassoc_store::Result<()> {
        let mut chunks = ChunkDir::open(dir.join("chunks"))?;
        pipeline
            .publish_all(&mut chunks)
            .map_err(|e| disassoc_store::StoreError::corrupt(e.to_string()))?;
        Ok(())
    }));
    let stats = faults::site_stats(site).unwrap_or_else(|| panic!("site {site} never registered"));
    assert_eq!(
        stats.triggers,
        1,
        "{site}/{} must fire exactly once",
        mode.tag()
    );
    match (mode, outcome) {
        (Mode::Error, Ok(result)) => {
            assert!(result.is_err(), "{site}: injected error must surface");
        }
        (Mode::Error, Err(_)) => panic!("{site}: error mode must not panic"),
        (Mode::Panic, Err(_)) => {}
        (Mode::Panic, Ok(_)) => panic!("{site}: armed panic never unwound"),
    }
    faults::disarm_all();

    // Recovery: the publication must be entirely old or entirely new —
    // never a mix — and whatever is visible must verify.
    let reopened = ChunkDir::open(dir.join("chunks"))
        .unwrap_or_else(|e| panic!("{site}/{}: reopen after crash failed: {e}", mode.tag()));
    let visible = manifest_snapshot(&reopened);
    let visible_dataset = reopened.combined_dataset().unwrap().unwrap();
    let is_old = visible == old_manifest && visible_dataset.total_records() == old_total;
    let is_new =
        visible.len() == pipeline.batch_count() && visible_dataset.total_records() == all.len();
    assert!(
        is_old || is_new,
        "{site}/{}: publication is neither the old nor the new set \
         ({} batches, {} records)",
        mode.tag(),
        visible.len(),
        visible_dataset.total_records()
    );
    assert!(
        disassociation::verify::verify_structure(&visible_dataset).is_ok(),
        "{site}/{}: visible publication lost k^m-anonymity",
        mode.tag()
    );
    // No stray batch files outside the manifest survive the reopen.
    let live: std::collections::BTreeSet<String> =
        visible.iter().map(|(_, f, _)| f.clone()).collect();
    for entry in std::fs::read_dir(reopened.dir()).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.starts_with("batch-") {
            assert!(
                live.contains(&name),
                "{site}/{}: orphan chunk file {name} survived recovery",
                mode.tag()
            );
        }
    }

    // Invariant 5: a retry against the recovered dir lands the complete
    // new publication.
    let mut retried = reopened;
    pipeline.publish_all(&mut retried).unwrap();
    assert_eq!(retried.manifest().batches.len(), pipeline.batch_count());
    let final_dataset = retried.combined_dataset().unwrap().unwrap();
    assert_eq!(final_dataset.total_records(), all.len());
    assert!(disassociation::verify::verify_structure(&final_dataset).is_ok());

    std::fs::remove_dir_all(&dir).ok();
    1
}

#[test]
fn publication_crash_matrix_is_old_or_new_at_every_failpoint() {
    let _g = guard();
    let mut points = 0;
    for &site in failpoints::PUBLISH_SITES {
        for mode in [Mode::Error, Mode::Panic] {
            points += publish_torture_one(site, mode);
        }
    }
    assert_eq!(points, failpoints::PUBLISH_SITES.len() * 2);
}

/// Runs the CLI flat-file publication commit with `site` armed in `mode`:
/// an existing publication at the final path, a fully staged `.partial`
/// replacement, then a crashed [`disassoc_store::publish::commit_flat_file`].
/// Verifies the visible file is byte-for-byte either the old or the new
/// publication — never a mix — and that a retry lands the new one.
fn cli_publish_torture_one(site: &str, mode: Mode) -> usize {
    let dir = tmpdir(&format!("cli_{}_{}", site.replace('.', "_"), mode.tag()));
    let final_path = dir.join("out.chunks.json");
    let partial = dir.join("out.chunks.json.partial");
    let old_bytes = b"{\"generation\":1,\"clusters\":[\"old\"]}\n".to_vec();
    let new_bytes = b"{\"generation\":2,\"clusters\":[\"new\",\"newer\"]}\n".to_vec();
    std::fs::write(&final_path, &old_bytes).unwrap();
    std::fs::write(&partial, &new_bytes).unwrap();

    faults::arm(site, mode.policy());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        disassoc_store::publish::commit_flat_file(&partial, &final_path)
    }));
    let stats = faults::site_stats(site).unwrap_or_else(|| panic!("site {site} never registered"));
    assert_eq!(
        stats.triggers,
        1,
        "{site}/{} must fire exactly once",
        mode.tag()
    );
    match (mode, outcome) {
        (Mode::Error, Ok(result)) => {
            assert!(result.is_err(), "{site}: injected error must surface");
        }
        (Mode::Error, Err(_)) => panic!("{site}: error mode must not panic"),
        (Mode::Panic, Err(_)) => {}
        (Mode::Panic, Ok(_)) => panic!("{site}: armed panic never unwound"),
    }
    faults::disarm_all();

    // Old-or-new: the final path holds exactly one of the two byte strings.
    let visible = std::fs::read(&final_path).unwrap();
    assert!(
        visible == old_bytes || visible == new_bytes,
        "{site}/{}: visible publication is neither the old nor the new bytes",
        mode.tag()
    );

    // A retry with the surviving (or re-staged) partial lands the new
    // publication cleanly.
    if !partial.exists() {
        std::fs::write(&partial, &new_bytes).unwrap();
    }
    disassoc_store::publish::commit_flat_file(&partial, &final_path).unwrap();
    assert_eq!(std::fs::read(&final_path).unwrap(), new_bytes);
    assert!(!partial.exists(), "{site}: committed partial must be gone");

    std::fs::remove_dir_all(&dir).ok();
    1
}

#[test]
fn cli_publication_crash_matrix_is_old_or_new_at_every_failpoint() {
    let _g = guard();
    let mut points = 0;
    for &site in failpoints::CLI_SITES {
        for mode in [Mode::Error, Mode::Panic] {
            points += cli_publish_torture_one(site, mode);
        }
    }
    assert_eq!(points, failpoints::CLI_SITES.len() * 2);
}

#[test]
fn the_matrix_covers_at_least_thirty_crash_points() {
    // The acceptance floor: every named failpoint exercised in both error
    // and panic modes by the three matrix tests above.
    let covered = failpoints::STORE_SITES.len()
        + failpoints::PUBLISH_SITES.len()
        + failpoints::CLI_SITES.len();
    let points = covered * 2;
    assert!(points >= 30, "only {points} crash points enumerated");
    assert_eq!(
        covered,
        failpoints::ALL.len(),
        "matrix must cover every registered failpoint"
    );
}

/// Satellite regression: a crash precisely between writing the compacted
/// segment and swapping the manifest loses nothing and double-counts
/// nothing — the merged output is an orphan, the replaced segments are
/// still live, and the next compaction finishes the job.
#[test]
fn compaction_crash_between_segment_write_and_manifest_swap() {
    let _g = guard();
    let dir = tmpdir("compact_atomicity");
    let all = records(16, 29);

    // Four sealed segments of four records each.
    let config = StoreConfig {
        memtable_capacity: 4,
        compaction_min_segments: 2,
    };
    {
        let mut store = Store::open(dir.join("store"), config.clone()).unwrap();
        for batch in all.chunks(4) {
            store.append_batch(batch).unwrap();
        }
        store.flush().unwrap();
        assert_eq!(store.info().unwrap().segments.len(), 4);
    }

    // Crash in the commit window: merged segment written, manifest swap
    // still pending.
    faults::arm(failpoints::COMPACT_COMMIT, faults::Policy::crash().once());
    let crash = catch_unwind(AssertUnwindSafe(|| {
        let mut store = Store::open(dir.join("store"), config.clone()).unwrap();
        store.compact().unwrap();
    }));
    assert!(crash.is_err(), "the armed panic must fire");
    faults::disarm_all();

    // Recovery: exactly the original records — no loss, no double-count —
    // and the abandoned merge output is collected as an orphan.
    let mut store = Store::open(dir.join("store"), config.clone()).unwrap();
    assert_eq!(store.len(), 16);
    let recovered: Vec<Record> = store.scan(8).flat_map(|b| b.unwrap()).collect();
    assert_eq!(
        recovered, all,
        "record set must be exactly the pre-crash one"
    );
    let manifest_files: std::collections::BTreeSet<String> = store
        .info()
        .unwrap()
        .segments
        .iter()
        .map(|(entry, _)| entry.file.clone())
        .collect();
    for entry in std::fs::read_dir(dir.join("store")).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        if name.ends_with(".seg") {
            assert!(
                manifest_files.contains(&name),
                "orphan segment {name} survived recovery"
            );
        }
    }

    // The interrupted compaction completes on retry, still byte-exact.
    let stats = store.compact().unwrap();
    assert!(stats.merges > 0, "retried compaction must merge");
    let after: Vec<Record> = store.scan(8).flat_map(|b| b.unwrap()).collect();
    assert_eq!(after, all);

    std::fs::remove_dir_all(&dir).ok();
}

/// The error-mode sibling: a failed manifest rename during compaction
/// surfaces as an error, and the store still agrees with disk afterwards.
#[test]
fn compaction_survives_a_failed_manifest_rename() {
    let _g = guard();
    let dir = tmpdir("compact_rename_fault");
    let all = records(16, 31);
    let config = StoreConfig {
        memtable_capacity: 4,
        compaction_min_segments: 2,
    };
    let mut store = Store::open(dir.join("store"), config.clone()).unwrap();
    for batch in all.chunks(4) {
        store.append_batch(batch).unwrap();
    }
    store.flush().unwrap();

    faults::arm(failpoints::MANIFEST_RENAME, faults::Policy::error().once());
    let err = store.compact();
    assert!(err.is_err(), "injected rename failure must surface");
    faults::disarm_all();

    // Same handle, no restart: the in-memory view never adopted the failed
    // swap, so reads and a retried compaction both work.
    let recovered: Vec<Record> = store.scan(8).flat_map(|b| b.unwrap()).collect();
    assert_eq!(recovered, all);
    store.compact().unwrap();
    let after: Vec<Record> = store.scan(8).flat_map(|b| b.unwrap()).collect();
    assert_eq!(after, all);

    std::fs::remove_dir_all(&dir).ok();
}
