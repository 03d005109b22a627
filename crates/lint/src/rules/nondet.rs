//! DL005 — nondeterminism guard.
//!
//! The workspace's two strongest guarantees are *byte-identical
//! publication* (any thread count, any batching) and *seeded
//! reproducibility* (torture schedules, generators).  Both die the moment
//! a wall clock or OS randomness leaks into an output-affecting path, and
//! such leaks are invisible in review — `Instant::now()` looks harmless.
//!
//! Shipped code may read clocks only in allowlisted timing modules (the
//! workspace allowlists the trace module, whose spans time everything) or
//! under an explicit
//! `// lint:allow(nondeterminism, "...")` stating why the value never
//! reaches published bytes.  Test code is exempt.

use super::{is_ident, is_punct, FileCtx};
use crate::diag::Finding;
use crate::lexer::TokenKind;

/// Rule id.
pub const ID: &str = "DL005";

/// `Type::method` pairs that read a wall clock.
const CLOCK_CALLS: &[(&str, &str)] = &[("Instant", "now"), ("SystemTime", "now")];

/// Bare identifiers that reach for OS randomness.
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "OsRng", "getrandom"];

/// Checks one file.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let tokens = &ctx.lexed.tokens;
    for (i, t) in tokens.iter().enumerate() {
        if ctx.is_test(i) || t.kind != TokenKind::Ident {
            continue;
        }
        let what = if let Some((ty, method)) = CLOCK_CALLS
            .iter()
            .find(|(ty, _)| *ty == t.text)
            .filter(|(_, method)| is_punct(tokens, i + 1, "::") && is_ident(tokens, i + 2, method))
        {
            format!("{ty}::{method}()")
        } else if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            t.text.clone()
        } else {
            continue;
        };
        out.push(Finding {
            rule: ID,
            file: ctx.rel.to_string(),
            line: t.line,
            col: t.col,
            message: format!(
                "`{what}` in deterministic code: wall clocks and OS randomness break \
                 byte-identical publication and seeded reproducibility"
            ),
            help: "take the value as a parameter / use the seeded rng, move the code \
                   into an allowlisted timing module, or annotate \
                   `// lint:allow(nondeterminism, \"why this never affects output\")`"
                .into(),
        });
    }
}
