//! Compact term identifiers.
//!
//! The paper's domain `T` is "huge" (millions of distinct query terms), so
//! terms are represented internally as dense `u32` identifiers handed out by
//! a [`crate::Dictionary`].  Using a 4-byte id keeps records small and makes
//! support counting a plain array index.

use serde::{Deserialize, Serialize};

/// Identifier of a term of the domain `T`.
///
/// Ids are dense: a dataset over `n` distinct terms uses ids `0..n`.  The
/// ordering of ids is arbitrary (insertion order into the dictionary) and has
/// no semantic meaning; algorithms that need frequency order sort explicitly.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TermId(pub u32);

impl TermId {
    /// Creates a term id from a raw `u32`.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        TermId(raw)
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the id as a `usize` index (for dense per-term tables).
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// Reads a sorted id set (a [`crate::Record`]'s or a term chunk's terms),
/// rejecting ids that do not strictly increase with an error naming
/// `owner`: binary-search lookups on an unsorted list miss terms.
pub fn decode_sorted_ids(
    r: &mut serde::JsonReader<'_>,
    owner: &str,
) -> Result<Vec<TermId>, serde::Error> {
    let mut ids: Vec<TermId> = Vec::new();
    r.begin_array()?;
    while r.next_element()? {
        let id = TermId::deserialize(r)?;
        if ids.last().is_some_and(|&last| last >= id) {
            return Err(r.error(format_args!("term ids of `{owner}` must strictly increase")));
        }
        ids.push(id);
    }
    Ok(ids)
}

impl From<u32> for TermId {
    #[inline]
    fn from(raw: u32) -> Self {
        TermId(raw)
    }
}

impl From<TermId> for u32 {
    #[inline]
    fn from(id: TermId) -> Self {
        id.0
    }
}

impl From<usize> for TermId {
    #[inline]
    fn from(raw: usize) -> Self {
        TermId(u32::try_from(raw).expect("term id overflows u32"))
    }
}

impl std::fmt::Display for TermId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u32() {
        let id = TermId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(u32::from(id), 42);
        assert_eq!(TermId::from(42u32), id);
    }

    #[test]
    fn index_matches_raw() {
        assert_eq!(TermId::new(7).index(), 7usize);
    }

    #[test]
    fn ordering_is_by_raw_value() {
        assert!(TermId::new(1) < TermId::new(2));
        assert_eq!(TermId::new(3), TermId::new(3));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(TermId::new(5).to_string(), "t5");
    }

    #[test]
    fn from_usize() {
        assert_eq!(TermId::from(9usize), TermId::new(9));
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn from_huge_usize_panics() {
        let _ = TermId::from(u64::MAX as usize);
    }
}
