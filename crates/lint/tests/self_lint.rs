//! The workspace lints itself clean.
//!
//! This is the in-tree twin of the CI lint job: every rule runs over every
//! workspace source, and any finding — including a new raw I/O call, a
//! minted obs name, or an unannotated panic path — fails the build here
//! before it reaches CI.  Every `// lint:allow` in tree therefore carries a
//! reason that survived review.

use std::path::Path;

#[test]
fn the_workspace_self_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let report = disassoc_lint::lint_workspace(&root).expect("lint run completes");
    assert_eq!(report.rules_run, 4, "all four rules enabled");
    assert!(
        report.files_scanned >= 100,
        "only {} files scanned — the walker lost a root",
        report.files_scanned
    );
    let rendered: Vec<String> = report.findings.iter().map(|f| f.render()).collect();
    assert!(
        report.findings.is_empty(),
        "workspace must self-lint clean:\n{}",
        rendered.join("\n")
    );
}
