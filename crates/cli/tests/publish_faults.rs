//! Process-level tests of the CLI's flat-file publication seam: armed via
//! the `DISASSOC_FAULTS` environment, `disassoc anonymize --out` must hit
//! the `cli.publish.*` failpoints in a real process, and a publication that
//! crashes at the rename commit point must leave the previous publication
//! byte-for-byte intact (old-or-new, never a mix).
//!
//! These complement the in-tree matrix in `tests/torture_store.rs` (which
//! exercises `publish::commit_flat_file` directly): here the whole binary
//! runs, so the seam wiring from `Command::run` down to the rename is what
//! is under test.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "disassoc_publish_faults_{tag}_{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_input(dir: &Path) -> PathBuf {
    let input = dir.join("input.txt");
    let status = Command::new(env!("CARGO_BIN_EXE_disassoc"))
        .args([
            "generate",
            "--kind",
            "quest",
            "--records",
            "200",
            "--seed",
            "7",
            "--out",
            input.to_str().unwrap(),
        ])
        .status()
        .expect("running generate");
    assert!(status.success(), "generate must succeed");
    input
}

fn anonymize(input: &Path, out_prefix: &Path, faults: Option<&str>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_disassoc"));
    cmd.args([
        "anonymize",
        "--input",
        input.to_str().unwrap(),
        "--k",
        "3",
        "--m",
        "2",
        "--out-prefix",
        out_prefix.to_str().unwrap(),
    ]);
    match faults {
        Some(spec) => cmd.env(disassoc_faults::ENV_VAR, spec),
        None => cmd.env_remove(disassoc_faults::ENV_VAR),
    };
    cmd.output().expect("running anonymize")
}

#[test]
fn a_crashed_rename_commit_preserves_the_previous_publication() {
    let dir = tmpdir("rename_crash");
    let input = generate_input(&dir);
    let out_prefix = dir.join("pub");
    let chunks = dir.join("pub.chunks.json");
    let partial = dir.join("pub.chunks.json.partial");

    // Generation 1, unarmed: a committed publication.
    let ok = anonymize(&input, &out_prefix, None);
    assert!(ok.status.success(), "baseline publication must succeed");
    let old_bytes = std::fs::read(&chunks).unwrap();
    assert!(!old_bytes.is_empty());

    // Generation 2 crashes at the rename commit point.  The old
    // publication must survive byte-for-byte and no stray partial may be
    // left behind looking like output.
    for spec in ["cli.publish.rename=error", "cli.publish.sync=error"] {
        let crashed = anonymize(&input, &out_prefix, Some(spec));
        assert!(
            !crashed.status.success(),
            "{spec}: injected failure must fail the run"
        );
        assert_eq!(
            std::fs::read(&chunks).unwrap(),
            old_bytes,
            "{spec}: previous publication must survive a crashed commit"
        );
        assert!(
            !partial.exists(),
            "{spec}: failed runs must not leave a partial file"
        );
    }

    // A retry with nothing armed replaces the publication atomically.
    let retried = anonymize(&input, &out_prefix, None);
    assert!(retried.status.success(), "retry must succeed");
    assert_eq!(
        std::fs::read(&chunks).unwrap(),
        old_bytes,
        "same input and seed must republish identical bytes"
    );
    assert!(!partial.exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bare_out_prefix_publishes_into_the_working_directory() {
    // A bare file name has the empty path as its parent; the directory
    // fsync after the commit rename must resolve it to the working
    // directory rather than fail the run.
    let dir = tmpdir("bare_prefix");
    let input = generate_input(&dir);
    let input_name = input.file_name().expect("input is a file path");
    let out = Command::new(env!("CARGO_BIN_EXE_disassoc"))
        .current_dir(&dir)
        .env_remove(disassoc_faults::ENV_VAR)
        .arg("anonymize")
        .arg("--input")
        .arg(input_name)
        .args(["--k", "3", "--m", "2"])
        .args(["--out-prefix", "pub"])
        .output()
        .expect("running anonymize");
    assert!(
        out.status.success(),
        "bare --out-prefix must publish: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("pub.chunks.json").is_file());
    assert!(!dir.join("pub.chunks.json.partial").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_bad_fault_spec_is_a_usage_error() {
    let dir = tmpdir("bad_spec");
    let input = generate_input(&dir);
    let out = anonymize(&input, &dir.join("pub"), Some("cli.publish.rename=bogus"));
    assert_eq!(
        out.status.code(),
        Some(2),
        "unparseable fault specs are usage errors"
    );
    std::fs::remove_dir_all(&dir).ok();
}
