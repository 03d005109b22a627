//! # transact — sparse set-valued (transactional) data model
//!
//! This crate is the data substrate of the disassociation reproduction
//! (Terrovitis et al., *Privacy Preservation by Disassociation*, VLDB 2012).
//!
//! The paper models a dataset `D` as a collection of records, each record a
//! *set of terms* drawn from a huge domain `T` (web-search queries, products
//! bought, pages clicked).  This crate provides:
//!
//! * [`TermId`] — a compact integer identifier for a term,
//! * [`Dictionary`] — a bidirectional mapping between term strings and ids,
//! * [`Record`] — a canonical (sorted, deduplicated) set of terms,
//! * [`Dataset`] — a collection of records with support counting and
//!   statistics,
//! * [`Itemset`] — small term combinations used by the anonymity checks and
//!   by frequent-itemset mining,
//! * [`dense`] — cluster-local dense interning, bitset subrecords and packed
//!   combination keys (the substrate of the fast k^m-anonymity engine),
//! * [`SupportMap`] / [`PairSupports`] — support counting infrastructure,
//! * [`stats`] — the dataset statistics reported in Figure 6 of the paper,
//! * [`io`] — reading and writing the conventional space-separated
//!   transaction format (one record per line).
//!
//! ```
//! use transact::{Dataset, Dictionary, Record};
//!
//! let mut dict = Dictionary::new();
//! let r1 = Record::from_terms(&mut dict, ["madonna", "flu", "viagra"]);
//! let r2 = Record::from_terms(&mut dict, ["madonna", "ikea"]);
//! let dataset = Dataset::from_records(vec![r1, r2]);
//! assert_eq!(dataset.len(), 2);
//! assert_eq!(dataset.term_support(dict.id("madonna").unwrap()), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod dense;
pub mod dictionary;
pub mod io;
pub mod itemset;
pub mod record;
pub mod stats;
pub mod support;
pub mod term;

pub use dataset::Dataset;
pub use dense::{DenseDomain, PackedCombo};
pub use dictionary::Dictionary;
pub use itemset::Itemset;
pub use record::Record;
pub use stats::DatasetStats;
pub use support::{PairSupports, SupportMap};
pub use term::TermId;

/// Errors produced by this crate.
#[derive(Debug)]
pub enum TransactError {
    /// An I/O error while reading or writing a dataset file.
    Io(std::io::Error),
    /// A malformed line or token while parsing a dataset file.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// A term id that is not present in the dictionary.
    UnknownTerm(TermId),
}

impl std::fmt::Display for TransactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransactError::Io(e) => write!(f, "I/O error: {e}"),
            TransactError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            TransactError::UnknownTerm(t) => write!(f, "unknown term id {}", t.0),
        }
    }
}

impl std::error::Error for TransactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransactError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransactError {
    fn from(e: std::io::Error) -> Self {
        TransactError::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TransactError>;
