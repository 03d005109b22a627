//! The rule catalog.
//!
//! Every rule is a pure function over one file's token stream plus the
//! pre-computed [`Structure`] summary; the engine in
//! [`crate::Linter`] handles path scoping, module allowlists, and
//! `lint:allow` suppression so rules only report raw violations.
//!
//! | id    | key            | invariant                                           |
//! |-------|----------------|-----------------------------------------------------|
//! | DL001 | seam           | raw durability I/O goes through the failpoint seam  |
//! | DL003 | panic          | no unannotated panics in shipped library code       |
//! | DL004 | obs-name       | obs instrument names live in one canonical registry |
//! | DL005 | nondeterminism | no wall clocks / OS randomness in deterministic code|

pub mod nondet;
pub mod obs_names;
pub mod panics;
pub mod seam;

use crate::analyze::Structure;
use crate::lexer::{Lexed, Token, TokenKind};

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel: &'a str,
    /// True for files under a `tests/` or `benches/` directory.
    pub is_test_file: bool,
    /// The lexed token stream and comments.
    pub lexed: &'a Lexed,
    /// Function extents, test regions, annotations.
    pub structure: &'a Structure,
}

impl FileCtx<'_> {
    /// True when token `i` belongs to test code (test file or test item).
    pub fn is_test(&self, i: usize) -> bool {
        self.is_test_file || self.structure.is_test_token(i)
    }
}

/// All rule ids, in catalog order.
pub const ALL_RULES: &[&str] = &[seam::ID, panics::ID, obs_names::ID, nondet::ID];

/// The `lint:allow` key for a rule id.
pub fn key_for(id: &str) -> &'static str {
    match id {
        "DL001" => "seam",
        "DL003" => "panic",
        "DL004" => "obs-name",
        "DL005" => "nondeterminism",
        _ => "unknown",
    }
}

/// True when `tokens[i]` is an identifier with the given text.
pub(crate) fn is_ident(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

/// True when `tokens[i]` is the given punctuation.
pub(crate) fn is_punct(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

/// True when the token before `i` is one of the given punctuations.
pub(crate) fn preceded_by(tokens: &[Token], i: usize, any: &[&str]) -> bool {
    i > 0
        && tokens
            .get(i - 1)
            .is_some_and(|t| t.kind == TokenKind::Punct && any.contains(&t.text.as_str()))
}
