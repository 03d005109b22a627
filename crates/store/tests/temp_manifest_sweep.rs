//! A crash at a manifest rename leaves the synced temp manifest behind; the
//! next open sweeps it, for the store's `MANIFEST.tmp` and a `ChunkDir`'s
//! `CHUNKS.tmp` alike, and the committed state stays the old one.

use disassoc_faults as faults;
use disassoc_store::{failpoints, ChunkDir, Store, StoreConfig};
use disassociation::{BatchOutput, ChunkSink, DisassociationConfig, Disassociator};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use transact::{Dataset, Record, TermId};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "disassoc_store_tmp_sweep_{name}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn rec(ids: &[u32]) -> Record {
    Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
}

/// Runs `f` with a crash armed at `site` for paths under `dir`, and asserts
/// the crash fired.
fn crash_at(site: &str, dir: &Path, f: impl FnOnce()) {
    let scope = dir.to_string_lossy().into_owned();
    faults::arm(
        site,
        faults::Policy::crash().once().when_path_contains(scope),
    );
    let outcome = catch_unwind(AssertUnwindSafe(f));
    faults::disarm(site);
    assert!(outcome.is_err(), "the crash armed at {site} must fire");
}

#[test]
fn reopened_store_sweeps_the_temp_manifest_of_a_crashed_rename() {
    let dir = tmpdir("store");
    let config = StoreConfig {
        memtable_capacity: 2,
        ..StoreConfig::default()
    };
    {
        let mut store = Store::open(&dir, config.clone()).unwrap();
        store.append_batch(&[rec(&[1, 2]), rec(&[2, 3])]).unwrap();
    }
    crash_at(failpoints::MANIFEST_RENAME, &dir, || {
        let mut store = Store::open(&dir, config.clone()).unwrap();
        store.append_batch(&[rec(&[3, 4]), rec(&[4, 5])]).unwrap();
    });
    assert!(dir.join("MANIFEST.tmp").exists(), "the crash left the temp");

    let store = Store::open(&dir, config).unwrap();
    assert!(!dir.join("MANIFEST.tmp").exists(), "open sweeps the temp");
    assert_eq!(store.len(), 4, "the WAL replays the uncommitted spill");
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reopened_chunk_dir_sweeps_the_temp_manifest_of_a_crashed_rename() {
    let dir = tmpdir("chunks");
    let config = DisassociationConfig {
        k: 2,
        m: 2,
        ..DisassociationConfig::default()
    };
    let batch = |tag: u32| BatchOutput {
        batch_index: 0,
        record_offset: 0,
        output: Disassociator::new(config.clone()).anonymize(&Dataset::from_records(vec![
            rec(&[tag, 1]),
            rec(&[tag, 1]),
            rec(&[tag, 2]),
        ])),
    };
    let mut chunks = ChunkDir::open(&dir).unwrap();
    chunks.accept(batch(10)).unwrap();
    chunks.finish().unwrap();
    let committed = chunks.manifest().clone();

    crash_at(failpoints::PUBLISH_COMMIT_RENAME, &dir, || {
        chunks.accept(batch(20)).unwrap();
        chunks.finish().unwrap();
    });
    assert!(dir.join("CHUNKS.tmp").exists(), "the crash left the temp");

    let reopened = ChunkDir::open(&dir).unwrap();
    assert!(!dir.join("CHUNKS.tmp").exists(), "open sweeps the temp");
    assert_eq!(
        reopened.manifest(),
        &committed,
        "the old publication stands"
    );
    std::fs::remove_dir_all(&dir).ok();
}
