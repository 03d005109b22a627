//! Support counting infrastructure.
//!
//! "Support" `s(a)` of a term or itemset is the number of records that
//! contain it (Figure 1 of the paper).  Two flavours are provided:
//!
//! * [`SupportMap`] — dense per-term counts over a known domain size,
//! * [`PairSupports`] — sparse counts of 2-term combinations (the basis of
//!   the relative-error metric of Section 6).

use crate::record::Record;
use crate::term::TermId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Dense per-term support counts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SupportMap {
    counts: Vec<u64>,
}

impl SupportMap {
    /// Creates a map able to hold supports for term ids `0..domain_size`.
    pub fn with_domain(domain_size: usize) -> Self {
        SupportMap {
            counts: vec![0; domain_size],
        }
    }

    /// Counts supports over an iterator of records.
    pub fn from_records<'a, I: IntoIterator<Item = &'a Record>>(records: I) -> Self {
        let mut map = SupportMap::default();
        for r in records {
            map.add_record(r);
        }
        map
    }

    /// Adds one record's terms to the counts (growing the table as needed).
    pub fn add_record(&mut self, record: &Record) {
        for t in record.iter() {
            self.increment(t);
        }
    }

    /// Increments the support of one term.
    pub fn increment(&mut self, term: TermId) {
        let idx = term.index();
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
    }

    /// Support of `term` (0 when never seen).
    pub fn support(&self, term: TermId) -> u64 {
        self.counts.get(term.index()).copied().unwrap_or(0)
    }

    /// Number of term slots tracked (highest seen id + 1).
    pub fn domain_size(&self) -> usize {
        self.counts.len()
    }

    /// Iterates over `(term, support)` pairs with non-zero support.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (TermId, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (TermId::from(i), c))
    }

    /// Terms sorted by descending support; ties are broken by ascending id so
    /// that the order is deterministic (important: HORPART and VERPART both
    /// iterate terms in this order and must be reproducible).
    pub fn terms_by_descending_support(&self) -> Vec<TermId> {
        let mut terms: Vec<TermId> = self.iter_nonzero().map(|(t, _)| t).collect();
        terms.sort_by(|a, b| {
            self.support(*b)
                .cmp(&self.support(*a))
                .then_with(|| a.cmp(b))
        });
        terms
    }

    /// The term with the maximum support among `candidates` (deterministic
    /// tie-break by ascending id).  Returns `None` when all candidates have
    /// zero support or the list is empty.
    pub fn most_frequent_among(
        &self,
        candidates: impl IntoIterator<Item = TermId>,
    ) -> Option<TermId> {
        let mut best: Option<(TermId, u64)> = None;
        for t in candidates {
            let s = self.support(t);
            if s == 0 {
                continue;
            }
            best = match best {
                None => Some((t, s)),
                Some((bt, bs)) if s > bs || (s == bs && t < bt) => Some((t, s)),
                keep => keep,
            };
        }
        best.map(|(t, _)| t)
    }
}

/// Sparse support counts of term pairs.
#[derive(Debug, Clone, Default)]
pub struct PairSupports {
    counts: HashMap<(TermId, TermId), u64>,
}

impl PairSupports {
    /// Creates an empty pair-support table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts pair supports over records, restricted to pairs where *both*
    /// members belong to `universe` (pass `None` for all pairs).
    ///
    /// The restriction matters: the paper computes the relative error only on
    /// the pairs formed by a small window of the support-ordered domain
    /// (e.g. the 200th–220th most frequent terms), and counting all pairs of
    /// a 1M-record dataset would be needlessly quadratic.
    pub fn from_records<'a, I: IntoIterator<Item = &'a Record>>(
        records: I,
        universe: Option<&[TermId]>,
    ) -> Self {
        let filter: Option<std::collections::HashSet<TermId>> =
            universe.map(|u| u.iter().copied().collect());
        let mut ps = PairSupports::new();
        for r in records {
            let relevant: Vec<TermId> = match &filter {
                Some(f) => r.iter().filter(|t| f.contains(t)).collect(),
                None => r.iter().collect(),
            };
            for i in 0..relevant.len() {
                for j in (i + 1)..relevant.len() {
                    ps.increment(relevant[i], relevant[j]);
                }
            }
        }
        ps
    }

    /// Increments the support of the unordered pair `{a, b}`.
    pub fn increment(&mut self, a: TermId, b: TermId) {
        if a == b {
            return;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        *self.counts.entry(key).or_insert(0) += 1;
    }

    /// Support of the unordered pair `{a, b}`.
    pub fn support(&self, a: TermId, b: TermId) -> u64 {
        if a == b {
            return 0;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        self.counts.get(&key).copied().unwrap_or(0)
    }

    /// Number of distinct pairs with non-zero support.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no pair has been counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Iterates over `((a, b), support)`.
    pub fn iter(&self) -> impl Iterator<Item = ((TermId, TermId), u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    #[test]
    fn support_map_counts_records_containing_term() {
        let records = vec![rec(&[0, 1]), rec(&[1, 2]), rec(&[1])];
        let sm = SupportMap::from_records(&records);
        assert_eq!(sm.support(TermId::new(1)), 3);
        assert_eq!(sm.support(TermId::new(0)), 1);
        assert_eq!(sm.support(TermId::new(7)), 0);
    }

    #[test]
    fn support_map_grows_on_demand() {
        let mut sm = SupportMap::with_domain(2);
        sm.increment(TermId::new(10));
        assert_eq!(sm.support(TermId::new(10)), 1);
        assert!(sm.domain_size() >= 11);
    }

    #[test]
    fn descending_support_order_is_deterministic() {
        let records = vec![rec(&[0, 1, 2]), rec(&[1, 2]), rec(&[2])];
        let sm = SupportMap::from_records(&records);
        assert_eq!(
            sm.terms_by_descending_support(),
            vec![TermId::new(2), TermId::new(1), TermId::new(0)]
        );
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let records = vec![rec(&[5, 3]), rec(&[3, 5])];
        let sm = SupportMap::from_records(&records);
        assert_eq!(
            sm.terms_by_descending_support(),
            vec![TermId::new(3), TermId::new(5)]
        );
    }

    #[test]
    fn most_frequent_among_subset() {
        let records = vec![rec(&[0, 1]), rec(&[1, 2]), rec(&[1, 2]), rec(&[2])];
        let sm = SupportMap::from_records(&records);
        assert_eq!(
            sm.most_frequent_among([TermId::new(0), TermId::new(2)]),
            Some(TermId::new(2))
        );
        assert_eq!(sm.most_frequent_among([TermId::new(9)]), None);
        assert_eq!(sm.most_frequent_among([]), None);
    }

    #[test]
    fn pair_supports_count_unordered_pairs() {
        let records = vec![rec(&[1, 2, 3]), rec(&[2, 3]), rec(&[1, 3])];
        let ps = PairSupports::from_records(&records, None);
        assert_eq!(ps.support(TermId::new(2), TermId::new(3)), 2);
        assert_eq!(ps.support(TermId::new(3), TermId::new(2)), 2);
        assert_eq!(ps.support(TermId::new(1), TermId::new(2)), 1);
        assert_eq!(ps.support(TermId::new(1), TermId::new(9)), 0);
        assert_eq!(ps.support(TermId::new(1), TermId::new(1)), 0);
    }

    #[test]
    fn pair_supports_respect_universe_filter() {
        let records = vec![rec(&[1, 2, 3]), rec(&[1, 2])];
        let universe = [TermId::new(1), TermId::new(2)];
        let ps = PairSupports::from_records(&records, Some(&universe));
        assert_eq!(ps.support(TermId::new(1), TermId::new(2)), 2);
        assert_eq!(
            ps.support(TermId::new(1), TermId::new(3)),
            0,
            "3 not in universe"
        );
        assert_eq!(ps.len(), 1);
    }
}
