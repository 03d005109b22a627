//! Rule-level tests against the fixture corpora: every seeded violation in
//! a `*_violation.rs` fixture is detected, every `*_clean.rs` fixture comes
//! back empty, and the DL001 regression fixture (the pre-fix CLI rename)
//! stays pinned.
//!
//! Fixtures are lint *inputs*, not compiled code — they live in
//! `tests/fixtures/`, which the workspace lint config excludes, and are read
//! from disk here rather than inlined so their seeded violations can never
//! leak into the self-lint scan of this file.

use disassoc_lint::{Config, Finding, Linter};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn linter() -> Linter {
    let root = workspace_root();
    let cfg = Config::load(&root).expect("workspace lint.toml loads");
    Linter::new(&root, cfg).expect("linter builds against the workspace registry")
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Lints `name` as if it lived at `rel` inside the workspace (non-test).
fn lint_fixture(name: &str, rel: &str) -> Vec<Finding> {
    linter().lint_source(rel, false, &fixture(name))
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn dl001_flags_every_raw_call_and_the_late_seam() {
    let findings = lint_fixture("dl001_violation.rs", "crates/cli/src/fixture.rs");
    assert_eq!(rules_of(&findings), vec!["DL001"; 5], "{findings:#?}");
    // The late-seam function: a consult after the rename does not cover it.
    assert!(
        findings.iter().any(|f| f.message.contains("fs::rename")),
        "{findings:#?}"
    );
}

#[test]
fn dl001_clean_staging_idiom_and_annotations_pass() {
    let findings = lint_fixture("dl001_clean.rs", "crates/cli/src/fixture.rs");
    assert_eq!(findings, vec![], "{findings:#?}");
}

#[test]
fn dl001_regression_pre_fix_cli_rename_is_flagged() {
    // The exact shape that went untested for three PRs: raw renames inside
    // a large dispatcher whose seam consult sits in a later match arm.
    let findings = lint_fixture("dl001_cli_regression.rs", "crates/cli/src/lib.rs");
    assert_eq!(rules_of(&findings), vec!["DL001", "DL001"], "{findings:#?}");
    assert!(
        findings.iter().all(|f| f.message.contains("fs::rename")),
        "{findings:#?}"
    );
}

#[test]
fn dl003_flags_all_four_panic_forms() {
    let findings = lint_fixture("dl003_violation.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&findings), vec!["DL003"; 4], "{findings:#?}");
}

#[test]
fn dl003_clean_annotations_and_tests_pass() {
    let findings = lint_fixture("dl003_clean.rs", "crates/core/src/fixture.rs");
    assert_eq!(findings, vec![], "{findings:#?}");
}

#[test]
fn dl003_out_of_scope_crates_are_exempt() {
    let findings = lint_fixture("dl003_violation.rs", "crates/datagen/src/fixture.rs");
    assert!(!findings.iter().any(|f| f.rule == "DL003"), "{findings:#?}");
}

#[test]
fn dl004_flags_unregistered_names_and_stray_constructors() {
    let findings = lint_fixture("dl004_violation.rs", "crates/obs/src/fixture.rs");
    // Three unregistered name literals (one a typo of a real counter) plus
    // one instrument constructor outside the registry.
    assert_eq!(rules_of(&findings), vec!["DL004"; 4], "{findings:#?}");
}

#[test]
fn dl004_clean_registered_names_filenames_and_foreign_prefixes_pass() {
    let findings = lint_fixture("dl004_clean.rs", "crates/obs/src/fixture.rs");
    assert_eq!(findings, vec![], "{findings:#?}");
}

#[test]
fn dl004_applies_to_test_files_too() {
    // Name drift in an assertion is exactly the test-file failure mode.
    let findings = linter().lint_source("tests/fixture.rs", true, &fixture("dl004_violation.rs"));
    assert!(findings.iter().any(|f| f.rule == "DL004"), "{findings:#?}");
}

#[test]
fn dl005_flags_clocks_and_entropy() {
    let findings = lint_fixture("dl005_violation.rs", "crates/core/src/fixture.rs");
    assert_eq!(rules_of(&findings), vec!["DL005"; 3], "{findings:#?}");
}

#[test]
fn dl005_clean_seeded_rngs_and_annotated_timing_pass() {
    let findings = lint_fixture("dl005_clean.rs", "crates/core/src/fixture.rs");
    assert_eq!(findings, vec![], "{findings:#?}");
}

#[test]
fn dl005_allowlisted_timing_modules_are_exempt() {
    let findings = lint_fixture("dl005_violation.rs", "crates/obs/src/trace.rs");
    assert!(!findings.iter().any(|f| f.rule == "DL005"), "{findings:#?}");
}

#[test]
fn the_registry_holds_catalog_and_trace_names() {
    let linter = linter();
    let registry = linter.registry();
    assert!(registry.contains("core.anonymize_runs"), "catalog counter");
    assert!(registry.contains("core.anonymize"), "trace event name");
    assert!(registry.contains("core.horpart"), "trace span name");
    assert!(registry.contains("refine.pass_cap"), "warning name");
    assert!(registry.len() >= 20, "registry too small: {registry:?}");
}
