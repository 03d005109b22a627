//! # disassoc-lint — workspace invariant checker
//!
//! A zero-dependency static-analysis pass over the workspace's Rust
//! sources, in the workspace's own style: a hand-rolled lexer
//! ([`lexer`]), a module/`cfg(test)`-aware walker ([`walker`] +
//! [`analyze`]), and a rule engine ([`rules`]) emitting rustc-style
//! `file:line:col: error[DL0xx]` diagnostics ([`diag`]) plus a `--json`
//! machine-readable mode.
//!
//! The rules promote what used to be brittle CI shell greps (and one known
//! coverage gap) into systematic checks:
//!
//! - **DL001 seam coverage** — raw durability I/O must consult
//!   `disassoc_store::failpoints`, so the torture matrix can crash it;
//! - **DL003 panic policy** — `unwrap`/`expect`/`panic!`/`unreachable!`
//!   in shipped library code needs a `// lint:allow(panic, "reason")`;
//! - **DL004 obs-name registry** — instrument/trace name literals must
//!   exist in the canonical obs registry modules;
//! - **DL005 nondeterminism guard** — no wall clocks or OS randomness
//!   outside allowlisted timing modules.
//!
//! Configuration lives in the workspace-root `lint.toml` ([`config`]);
//! per-line escape hatches are `// lint:allow(key, "reason")` comments —
//! the reason is mandatory.  The whole workspace self-lints clean
//! (`crates/lint/tests/self_lint.rs`), so every allowance in tree carries
//! its justification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod walker;

pub use config::{Config, ConfigError};
pub use diag::{Finding, Report};

use rules::FileCtx;
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// A lint-run failure (not a finding: findings are data, this is broken
/// input — unreadable files or a bad configuration).
#[derive(Debug)]
pub enum LintError {
    /// `lint.toml` problems.
    Config(ConfigError),
    /// A file could not be read.
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintError::Config(e) => write!(f, "{e}"),
            LintError::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for LintError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LintError::Config(e) => Some(e),
            LintError::Io(_, e) => Some(e),
        }
    }
}

impl From<ConfigError> for LintError {
    fn from(e: ConfigError) -> Self {
        LintError::Config(e)
    }
}

/// The configured engine: rule scopes plus the loaded obs-name registry.
pub struct Linter {
    root: PathBuf,
    cfg: Config,
    registry: BTreeSet<String>,
    registry_files: Vec<String>,
}

impl Linter {
    /// Builds a linter for the workspace at `root` from its configuration,
    /// loading the DL004 registry modules.
    pub fn new(root: &Path, cfg: Config) -> Result<Linter, LintError> {
        for section in cfg.section_names() {
            let known = section == "workspace" || rules::ALL_RULES.contains(&section);
            if !known {
                return Err(ConfigError {
                    line: 0,
                    message: format!("unknown section [{section}]"),
                }
                .into());
            }
        }
        let registry_files = cfg.list(rules::obs_names::ID, "registry");
        let prefixes = cfg.list(rules::obs_names::ID, "prefixes");
        let mut registry = BTreeSet::new();
        for rel in &registry_files {
            let path = walker::to_path(root, rel);
            let text = std::fs::read_to_string(&path).map_err(|e| LintError::Io(path, e))?;
            for t in lexer::lex(&text).tokens {
                if t.kind == lexer::TokenKind::Str
                    && rules::obs_names::is_name_shaped(&t.text, &prefixes)
                {
                    registry.insert(t.text);
                }
            }
        }
        Ok(Linter {
            root: root.to_path_buf(),
            cfg,
            registry,
            registry_files,
        })
    }

    /// The registered obs names (for tests and tooling).
    pub fn registry(&self) -> &BTreeSet<String> {
        &self.registry
    }

    /// Lints the whole workspace per the configured roots.
    pub fn run(&self) -> Result<Report, LintError> {
        let roots = self.cfg.list("workspace", "roots");
        let exclude = self.cfg.list("workspace", "exclude");
        let files = walker::collect(&self.root, &roots, &exclude)
            .map_err(|e| LintError::Io(self.root.clone(), e))?;
        let mut report = Report {
            findings: Vec::new(),
            files_scanned: files.len(),
            rules_run: rules::ALL_RULES
                .iter()
                .filter(|r| self.rule_enabled(r))
                .count(),
        };
        for file in &files {
            let path = walker::to_path(&self.root, &file.rel);
            let text =
                std::fs::read_to_string(&path).map_err(|e| LintError::Io(path.clone(), e))?;
            report
                .findings
                .extend(self.lint_source(&file.rel, file.is_test, &text));
        }
        report.sort();
        Ok(report)
    }

    /// Lints a single source text as workspace-relative `rel`.  This is the
    /// fixture-testing entry point; `is_test_file` mirrors what the walker
    /// would derive from the path.
    pub fn lint_source(&self, rel: &str, is_test_file: bool, text: &str) -> Vec<Finding> {
        let lexed = lexer::lex(text);
        let structure = analyze::analyze(&lexed);
        let ctx = FileCtx {
            rel,
            is_test_file,
            lexed: &lexed,
            structure: &structure,
        };
        let mut raw = Vec::new();
        if self.applies(rules::seam::ID, rel) {
            rules::seam::check(&ctx, &mut raw);
        }
        if self.applies(rules::panics::ID, rel) {
            rules::panics::check(&ctx, &mut raw);
        }
        if self.applies(rules::obs_names::ID, rel) && !self.is_registry_file(rel) {
            let prefixes = self.cfg.list(rules::obs_names::ID, "prefixes");
            let ignore_suffixes = self.cfg.list(rules::obs_names::ID, "ignore_suffixes");
            rules::obs_names::check(&ctx, &prefixes, &ignore_suffixes, &self.registry, &mut raw);
        }
        if self.applies(rules::nondet::ID, rel) {
            rules::nondet::check(&ctx, &mut raw);
        }
        // Central suppression: a finding survives unless a well-formed
        // annotation for its rule covers its line.
        raw.retain(|f| !structure.allowed(rules::key_for(f.rule), f.rule, f.line));
        raw
    }

    fn rule_enabled(&self, rule: &str) -> bool {
        self.cfg.flag(rule, "enabled", true)
    }

    /// Whether `rule` runs on `rel`: enabled, inside the rule's `paths`
    /// scope (empty = everywhere), and not in its `allow_modules`.
    fn applies(&self, rule: &str, rel: &str) -> bool {
        if !self.rule_enabled(rule) {
            return false;
        }
        let paths = self.cfg.list(rule, "paths");
        if !paths.is_empty()
            && !paths
                .iter()
                .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
        {
            return false;
        }
        !self
            .cfg
            .list(rule, "allow_modules")
            .iter()
            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
    }

    fn is_registry_file(&self, rel: &str) -> bool {
        self.registry_files.iter().any(|f| f == rel)
    }
}

/// Convenience: load `root/lint.toml` and lint the workspace.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let cfg = Config::load(root)?;
    Linter::new(root, cfg)?.run()
}
