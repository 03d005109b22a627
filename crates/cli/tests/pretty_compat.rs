//! Files written in the earlier pretty-printed encoding stay readable.
//!
//! Every published file is compact JSON now: the flat `.chunks.json`, the
//! store's `MANIFEST.json` and a chunk directory's `CHUNKS.json`.  Stores
//! and publications written before that carry two-space indentation; the
//! readers ignore whitespace, so such a store must still open, append and
//! republish exactly as a compact one does, and `disassoc reconstruct` must
//! read a pretty publication as it reads its compact rendering.  A chunk
//! directory whose every file is pretty answers term-filtered reads compact.

use disassoc_cli::Command;
use disassoc_store::ChunkDir;
use disassociation::DisassociatedDataset;
use std::path::{Path, PathBuf};
use transact::TermId;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "disassoc_pretty_compat_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(command: String) {
    let args: Vec<String> = command.split_whitespace().map(str::to_owned).collect();
    Command::parse(&args)
        .unwrap_or_else(|e| panic!("{command}: {e}"))
        .run(&mut Vec::new())
        .unwrap_or_else(|e| panic!("{command}: {e}"));
}

/// Rewrites the JSON document at `path` with two-space indentation, as the
/// earlier encoding wrote it.
fn prettify(path: &Path) {
    let doc: serde_json::Value = serde_json::from_slice(&std::fs::read(path).unwrap()).unwrap();
    let pretty = serde_json::to_vec_pretty(&doc).unwrap();
    assert!(pretty.starts_with(b"{\n  \""), "{}", path.display());
    std::fs::write(path, pretty).unwrap();
}

#[test]
fn a_store_and_chunk_dir_written_pretty_open_append_and_republish() {
    let dir = tmpdir("store");
    let data = dir.join("data.dat");
    let delta = [dir.join("delta1.dat"), dir.join("delta2.dat")];
    run(format!(
        "generate --kind quest --records 600 --domain 120 --seed 3 --out {}",
        data.display()
    ));
    for (seed, path) in [(5, &delta[0]), (6, &delta[1])] {
        run(format!(
            "generate --kind quest --records 40 --domain 120 --seed {seed} --out {}",
            path.display()
        ));
    }
    // Two identical histories; only `pretty`'s manifests are rewritten in
    // the earlier encoding before the second append.
    for side in ["pretty", "control"] {
        let store = dir.join(side).join("store");
        run(format!(
            "ingest --input {} --store {} --memtable 256",
            data.display(),
            store.display()
        ));
        run(format!(
            "append --input {} --store {} --k 3 --m 2 --batch-size 128 --publish {} --out-prefix {}",
            delta[0].display(),
            store.display(),
            dir.join(side).join("chunks").display(),
            dir.join(side).join("first").display()
        ));
    }
    let pretty = dir.join("pretty");
    prettify(&pretty.join("store").join("MANIFEST.json"));
    prettify(&pretty.join("chunks").join("CHUNKS.json"));
    run(format!(
        "store-info --store {}",
        pretty.join("store").display()
    ));
    for side in ["pretty", "control"] {
        run(format!(
            "append --input {} --store {} --k 3 --m 2 --batch-size 128 --publish {} --out-prefix {}",
            delta[1].display(),
            dir.join(side).join("store").display(),
            dir.join(side).join("chunks").display(),
            dir.join(side).join("second").display()
        ));
    }
    let read = |side: &str, file: &str| std::fs::read(dir.join(side).join(file)).unwrap();
    for file in ["second.chunks.json", "chunks/CHUNKS.json"] {
        let republished = read("pretty", file);
        assert!(!republished.contains(&b'\n'), "{file} is written compact");
        assert_eq!(republished, read("control", file), "{file}");
    }
    let published: DisassociatedDataset =
        serde_json::from_slice(&read("pretty", "second.chunks.json")).unwrap();
    assert_eq!(published.total_records(), 680);

    // With every file of the chunk dir rewritten pretty, term-filtered
    // reads still answer compact: the filtered combined dataset, encoded.
    for entry in std::fs::read_dir(pretty.join("chunks")).unwrap() {
        prettify(&entry.unwrap().path());
    }
    let chunks = ChunkDir::open(pretty.join("chunks")).unwrap();
    let combined = chunks.combined_dataset().unwrap().unwrap();
    assert_eq!(combined, published);
    let terms = combined.all_terms();
    let absent = TermId::new(terms.iter().map(|t| t.0).max().unwrap() + 1);
    for term in terms.iter().copied().chain([absent]) {
        let mut expected = combined.clone();
        expected.clusters.retain(|c| c.mentions_term(term));
        let body = chunks.filtered_json(term).unwrap().unwrap();
        assert_eq!(body, serde_json::to_vec(&expected).unwrap(), "term {term}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reconstruct_reads_the_pretty_fixture_like_its_compact_rendering() {
    let dir = tmpdir("reconstruct");
    let fixture = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/figure2_k3_m2.chunks.json"
    ));
    let pretty = std::fs::read(fixture).unwrap();
    assert!(
        pretty.starts_with(b"{\n  \"k\": 3"),
        "the fixture is pretty"
    );
    let decoded: DisassociatedDataset = serde_json::from_slice(&pretty).unwrap();
    let compact = dir.join("compact.chunks.json");
    std::fs::write(&compact, serde_json::to_vec(&decoded).unwrap()).unwrap();
    let mut outputs = Vec::new();
    for (name, chunks) in [("pretty", fixture), ("compact", compact.as_path())] {
        let out = dir.join(format!("{name}.dat"));
        run(format!(
            "reconstruct --chunks {} --out {} --samples 2 --seed 9",
            chunks.display(),
            out.display()
        ));
        let samples: Vec<Vec<u8>> = (0..2)
            .map(|i| std::fs::read(out.with_extension(format!("{i}.dat"))).unwrap())
            .collect();
        assert!(samples.iter().all(|s| !s.is_empty()));
        outputs.push(samples);
    }
    assert_eq!(outputs[0], outputs[1]);
    std::fs::remove_dir_all(&dir).ok();
}
