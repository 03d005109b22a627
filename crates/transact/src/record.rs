//! Records: canonical sets of terms.
//!
//! A record models the complete trace of one user/transaction (the set of
//! queries a user posed, the set of products in one basket).  Records have
//! *set semantics*: no duplicates, and the internal representation keeps the
//! term ids sorted so that subset/intersection/projection operations are
//! linear merges.

use crate::dictionary::Dictionary;
use crate::term::TermId;
use serde::{Deserialize, Serialize};

/// A canonical (sorted, deduplicated) set of terms.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Record {
    #[serde(deserialize_with = "decode_terms")]
    terms: Vec<TermId>,
}

fn decode_terms(r: &mut serde::JsonReader<'_>) -> Result<Vec<TermId>, serde::Error> {
    crate::term::decode_sorted_ids(r, "Record")
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a record from an iterator of term ids (deduplicated, sorted).
    pub fn from_ids<I: IntoIterator<Item = TermId>>(ids: I) -> Self {
        let mut terms: Vec<TermId> = ids.into_iter().collect();
        terms.sort_unstable();
        terms.dedup();
        Record { terms }
    }

    /// Builds a record from term strings, interning them in `dict`.
    pub fn from_terms<'a, I: IntoIterator<Item = &'a str>>(
        dict: &mut Dictionary,
        terms: I,
    ) -> Self {
        Record::from_ids(terms.into_iter().map(|t| dict.intern(t)))
    }

    /// Number of terms in the record.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the record contains no terms.
    ///
    /// The paper's Lemma 2 hinges on the fact that *valid* original records
    /// are non-empty; empty projections however arise naturally during
    /// vertical partitioning.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The terms of the record, sorted ascending by id.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// Whether the record contains `term`.
    pub fn contains(&self, term: TermId) -> bool {
        self.terms.binary_search(&term).is_ok()
    }

    /// Whether the record contains *all* terms of `other` (⊇).
    pub fn contains_all(&self, other: &[TermId]) -> bool {
        // `other` is not required to be sorted; fall back to per-term search.
        other.iter().all(|t| self.contains(*t))
    }

    /// Inserts a term, keeping canonical form. Returns `true` if it was new.
    pub fn insert(&mut self, term: TermId) -> bool {
        match self.terms.binary_search(&term) {
            Ok(_) => false,
            Err(pos) => {
                self.terms.insert(pos, term);
                true
            }
        }
    }

    /// Removes a term. Returns `true` if it was present.
    pub fn remove(&mut self, term: TermId) -> bool {
        match self.terms.binary_search(&term) {
            Ok(pos) => {
                self.terms.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Projects the record onto a *sorted* slice of domain terms, returning
    /// the subrecord `self ∩ domain`.
    ///
    /// This is the core operation of vertical partitioning (`Ci = {{ Ti ∩ r }}`,
    /// Section 3 of the paper).
    pub fn project_sorted(&self, domain: &[TermId]) -> Record {
        debug_assert!(
            domain.windows(2).all(|w| w[0] < w[1]),
            "domain must be sorted+dedup"
        );
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.terms.len() && j < domain.len() {
            match self.terms[i].cmp(&domain[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.terms[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        Record { terms: out }
    }

    /// Projects the record onto an arbitrary set of domain terms.
    pub fn project<I: IntoIterator<Item = TermId>>(&self, domain: I) -> Record {
        let mut d: Vec<TermId> = domain.into_iter().collect();
        d.sort_unstable();
        d.dedup();
        self.project_sorted(&d)
    }

    /// Set union of two records.
    pub fn union(&self, other: &Record) -> Record {
        let mut merged = Vec::with_capacity(self.terms.len() + other.terms.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.terms.len() && j < other.terms.len() {
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.terms[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.terms[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.terms[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.terms[i..]);
        merged.extend_from_slice(&other.terms[j..]);
        Record { terms: merged }
    }

    /// Set intersection of two records.
    pub fn intersect(&self, other: &Record) -> Record {
        self.project_sorted(&other.terms)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Record) -> Record {
        let mut out = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.terms.len() {
            if j >= other.terms.len() {
                out.extend_from_slice(&self.terms[i..]);
                break;
            }
            match self.terms[i].cmp(&other.terms[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.terms[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        Record { terms: out }
    }

    /// Iterates over the terms.
    pub fn iter(&self) -> impl Iterator<Item = TermId> + '_ {
        self.terms.iter().copied()
    }

    /// Renders the record as `{a, b, c}` using the dictionary.
    pub fn render(&self, dict: &Dictionary) -> String {
        let names: Vec<String> = self
            .terms
            .iter()
            .map(|&t| dict.term_or_placeholder(t))
            .collect();
        format!("{{{}}}", names.join(", "))
    }
}

impl FromIterator<TermId> for Record {
    fn from_iter<I: IntoIterator<Item = TermId>>(iter: I) -> Self {
        Record::from_ids(iter)
    }
}

impl<'a> IntoIterator for &'a Record {
    type Item = TermId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, TermId>>;
    fn into_iter(self) -> Self::IntoIter {
        self.terms.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    #[test]
    fn decoding_rejects_terms_that_do_not_strictly_increase() {
        let back: Record = serde_json::from_str(r#"{"terms":[1,5,9]}"#).unwrap();
        assert_eq!(back, r(&[1, 5, 9]));
        for bad in [r#"{"terms":[5,1,5]}"#, r#"{"terms":[1,1]}"#] {
            let err = serde_json::from_str::<Record>(bad).unwrap_err().to_string();
            assert!(
                err.contains("term ids of `Record` must strictly increase"),
                "{err}"
            );
        }
    }

    #[test]
    fn from_ids_sorts_and_dedups() {
        let rec = r(&[3, 1, 3, 2, 1]);
        assert_eq!(
            rec.terms(),
            &[TermId::new(1), TermId::new(2), TermId::new(3)]
        );
    }

    #[test]
    fn from_terms_interns_in_dictionary() {
        let mut d = Dictionary::new();
        let rec = Record::from_terms(&mut d, ["b", "a", "b"]);
        assert_eq!(rec.len(), 2);
        assert!(rec.contains(d.id("a").unwrap()));
        assert!(rec.contains(d.id("b").unwrap()));
    }

    #[test]
    fn contains_and_contains_all() {
        let rec = r(&[1, 5, 9]);
        assert!(rec.contains(TermId::new(5)));
        assert!(!rec.contains(TermId::new(4)));
        assert!(rec.contains_all(&[TermId::new(9), TermId::new(1)]));
        assert!(!rec.contains_all(&[TermId::new(9), TermId::new(2)]));
    }

    #[test]
    fn insert_and_remove_keep_canonical_order() {
        let mut rec = r(&[2, 8]);
        assert!(rec.insert(TermId::new(5)));
        assert!(!rec.insert(TermId::new(5)));
        assert_eq!(
            rec.terms(),
            &[TermId::new(2), TermId::new(5), TermId::new(8)]
        );
        assert!(rec.remove(TermId::new(2)));
        assert!(!rec.remove(TermId::new(2)));
        assert_eq!(rec.terms(), &[TermId::new(5), TermId::new(8)]);
    }

    #[test]
    fn projection_is_intersection_with_domain() {
        let rec = r(&[1, 2, 3, 4, 5]);
        let dom = [TermId::new(2), TermId::new(4), TermId::new(6)];
        assert_eq!(rec.project_sorted(&dom), r(&[2, 4]));
        // Unsorted domain goes through `project`.
        assert_eq!(rec.project([TermId::new(4), TermId::new(2)]), r(&[2, 4]));
    }

    #[test]
    fn projection_onto_disjoint_domain_is_empty() {
        let rec = r(&[1, 2]);
        assert!(rec.project_sorted(&[TermId::new(7)]).is_empty());
    }

    #[test]
    fn union_intersection_difference() {
        let a = r(&[1, 2, 3]);
        let b = r(&[3, 4]);
        assert_eq!(a.union(&b), r(&[1, 2, 3, 4]));
        assert_eq!(a.intersect(&b), r(&[3]));
        assert_eq!(a.difference(&b), r(&[1, 2]));
        assert_eq!(b.difference(&a), r(&[4]));
    }

    #[test]
    fn render_uses_dictionary() {
        let mut d = Dictionary::new();
        let rec = Record::from_terms(&mut d, ["itunes", "flu"]);
        let s = rec.render(&d);
        assert!(s.contains("itunes") && s.contains("flu"));
        assert!(s.starts_with('{') && s.ends_with('}'));
    }

    #[test]
    fn empty_record_properties() {
        let rec = Record::new();
        assert!(rec.is_empty());
        assert_eq!(rec.len(), 0);
        assert_eq!(rec.union(&r(&[1])), r(&[1]));
        assert!(rec.intersect(&r(&[1])).is_empty());
    }
}
