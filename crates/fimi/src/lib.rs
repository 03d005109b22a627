//! # fimi — frequent itemset mining
//!
//! The paper's information-loss metrics (Section 6) compare the **top-K
//! frequent itemsets** of the original and the anonymized datasets (the
//! `tKd` and `tKd-ML2` metrics, K = 1000 in the evaluation).  This crate
//! provides the mining machinery:
//!
//! * [`fpgrowth`] — the FP-growth threshold miner,
//! * [`topk`] — exact top-K frequent itemset extraction built on it.
//!
//! The miner is item-type agnostic: transactions are `Vec<u32>` item lists
//! so that both original terms ([`transact::TermId`]) and generalized
//! taxonomy nodes (`hierarchy::NodeId`, needed by tKd-ML2) can be mined with
//! the same code.  Use [`records_to_transactions`] to adapt a
//! [`transact::Record`] slice.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fpgrowth;
pub mod topk;

pub use fpgrowth::mine_frequent_fpgrowth;
pub use topk::{top_k_frequent, TopKConfig};

use transact::Record;

/// A mined itemset with its support.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequentItemset {
    /// Sorted item ids.
    pub items: Vec<u32>,
    /// Number of transactions containing all the items.
    pub support: u64,
}

impl FrequentItemset {
    /// Creates a frequent itemset (sorts the items).
    pub fn new(mut items: Vec<u32>, support: u64) -> Self {
        items.sort_unstable();
        items.dedup();
        FrequentItemset { items, support }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the itemset is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Converts records into plain `u32` transactions (sorted item lists).
pub fn records_to_transactions(records: &[Record]) -> Vec<Vec<u32>> {
    records
        .iter()
        .map(|r| r.iter().map(|t| t.raw()).collect())
        .collect()
}

/// Sorts mined itemsets by descending support, breaking ties by ascending
/// length and lexicographic item order so results are deterministic across
/// runs.
pub fn sort_canonical(itemsets: &mut [FrequentItemset]) {
    itemsets.sort_by(|a, b| {
        b.support
            .cmp(&a.support)
            .then_with(|| a.items.len().cmp(&b.items.len()))
            .then_with(|| a.items.cmp(&b.items))
    });
}

/// The reference that the FP-growth and top-K tests compare against.
#[cfg(test)]
mod oracle {
    use crate::FrequentItemset;
    use std::collections::HashMap;

    /// Every itemset with support ≥ `min_support` and size ≤ `max_len`, by
    /// enumerating each transaction's subsets (exponential; small inputs
    /// only). Sorted by item list.
    pub(crate) fn mine_frequent_bruteforce(
        transactions: &[Vec<u32>],
        min_support: u64,
        max_len: usize,
    ) -> Vec<FrequentItemset> {
        fn rec(
            items: &[u32],
            start: usize,
            max_len: usize,
            cur: &mut Vec<u32>,
            counts: &mut HashMap<Vec<u32>, u64>,
        ) {
            for i in start..items.len() {
                cur.push(items[i]);
                *counts.entry(cur.clone()).or_insert(0) += 1;
                if cur.len() < max_len {
                    rec(items, i + 1, max_len, cur, counts);
                }
                cur.pop();
            }
        }
        let min_support = min_support.max(1);
        let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
        for t in transactions {
            let mut items = t.clone();
            items.sort_unstable();
            items.dedup();
            if max_len > 0 {
                rec(&items, 0, max_len, &mut Vec::new(), &mut counts);
            }
        }
        let mut out: Vec<FrequentItemset> = counts
            .into_iter()
            .filter(|&(_, c)| c >= min_support)
            .map(|(items, support)| FrequentItemset { items, support })
            .collect();
        out.sort_by(|a, b| a.items.cmp(&b.items));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use transact::TermId;

    #[test]
    fn frequent_itemset_canonicalizes_items() {
        let fi = FrequentItemset::new(vec![3, 1, 3], 7);
        assert_eq!(fi.items, vec![1, 3]);
        assert_eq!(fi.support, 7);
        assert_eq!(fi.len(), 2);
    }

    #[test]
    fn records_to_transactions_preserves_items() {
        let recs = vec![Record::from_ids([TermId::new(2), TermId::new(0)])];
        let tx = records_to_transactions(&recs);
        assert_eq!(tx, vec![vec![0, 2]]);
    }

    #[test]
    fn canonical_sort_orders_by_support_then_length() {
        let mut v = vec![
            FrequentItemset::new(vec![1, 2], 5),
            FrequentItemset::new(vec![3], 9),
            FrequentItemset::new(vec![1], 5),
        ];
        sort_canonical(&mut v);
        assert_eq!(v[0].items, vec![3]);
        assert_eq!(v[1].items, vec![1]);
        assert_eq!(v[2].items, vec![1, 2]);
    }
}
