//! Exact top-K frequent itemset extraction.
//!
//! The tKd metric (Section 6, Equation 2) compares the *top-1000* frequent
//! itemsets of the original and anonymized data.  Top-K mining is reduced to
//! threshold mining with a provably sufficient threshold:
//!
//! 1. count singleton supports and let `θ` be the K-th largest singleton
//!    support (1 when there are fewer than K items);
//! 2. mine all itemsets with support ≥ `θ` — every member of the true top-K
//!    has support ≥ the K-th largest itemset support, which is ≥ `θ` because
//!    the K most frequent singletons are themselves itemsets;
//! 3. sort canonically and keep the first K.
//!
//! A low `θ` can mean *enumerate every itemset of every (repeated) record*
//! — up to `Σ_t C(|t|, max_len)` subsets, which is ~10^8 for a single
//! 200-term click-stream record and effectively unbounded. The derived
//! threshold is therefore raised until the estimated enumeration work fits
//! a fixed budget, trading the (arbitrarily tie-ranked) low-support tail of
//! the top-K for a bounded run; exactness on small inputs is preserved.

use crate::{mine_frequent_fpgrowth, sort_canonical, FrequentItemset};
use std::collections::HashMap;

/// Configuration of a top-K mining run.
#[derive(Debug, Clone)]
pub struct TopKConfig {
    /// How many itemsets to return (the paper uses 1000).
    pub k: usize,
    /// Maximum itemset length considered (the top-1000 of the evaluation
    /// datasets are short; 4 is a safe default).
    pub max_len: usize,
    /// Optional floor for the derived threshold, as a fraction of the number
    /// of transactions.  Guards against pathological inputs where the K-th
    /// singleton support is tiny and threshold mining would enumerate an
    /// enormous number of itemsets.
    pub min_relative_support: Option<f64>,
    /// Optional absolute floor for the derived threshold.  Unlike
    /// [`min_relative_support`](Self::min_relative_support) it does not
    /// depend on the mined dataset's own transaction count, so a metric
    /// comparing two datasets of different sizes (e.g. tKd's original vs.
    /// chunk subrecords) can apply the *same* cut-off to both sides.
    pub min_absolute_support: Option<u64>,
}

impl Default for TopKConfig {
    fn default() -> Self {
        TopKConfig {
            k: 1000,
            max_len: 4,
            min_relative_support: None,
            min_absolute_support: None,
        }
    }
}

impl TopKConfig {
    /// The configuration used throughout the paper's evaluation
    /// (top-1000 frequent itemsets).
    pub fn paper_default() -> Self {
        TopKConfig::default()
    }
}

/// Mines the top-`config.k` frequent itemsets of `transactions`.
///
/// Results are sorted by descending support (ties: shorter first, then
/// lexicographic), truncated to K.
pub fn top_k_frequent(transactions: &[Vec<u32>], config: &TopKConfig) -> Vec<FrequentItemset> {
    if config.k == 0 || transactions.is_empty() {
        return Vec::new();
    }
    let threshold = derive_threshold(transactions, config);
    let mut mined = mine_frequent_fpgrowth(transactions, threshold, config.max_len);
    sort_canonical(&mut mined);
    mined.truncate(config.k);
    mined
}

/// Derives the mining threshold described in the module docs.
fn derive_threshold(transactions: &[Vec<u32>], config: &TopKConfig) -> u64 {
    // Distinct records (as sets) with multiplicities; singleton supports
    // follow from the multiplicities without re-scanning the transactions.
    let mut distinct: HashMap<Vec<u32>, u64> = HashMap::new();
    for t in transactions {
        let mut set = t.clone();
        set.sort_unstable();
        set.dedup();
        *distinct.entry(set).or_insert(0) += 1;
    }
    let mut counts: HashMap<u32, u64> = HashMap::new();
    for (set, &multiplicity) in &distinct {
        for &item in set {
            *counts.entry(item).or_insert(0) += multiplicity;
        }
    }
    let mut supports: Vec<u64> = counts.into_values().collect();
    supports.sort_unstable_by(|a, b| b.cmp(a));
    let kth = supports
        .get(config.k.saturating_sub(1))
        .copied()
        .unwrap_or(1);
    let relative_floor = config
        .min_relative_support
        .map(|f| ((transactions.len() as f64) * f).ceil() as u64)
        .unwrap_or(1);
    let absolute_floor = config.min_absolute_support.unwrap_or(1);
    let mut threshold = kth.max(relative_floor).max(absolute_floor).max(1);

    // Anti-blowup guard. The subsets of a single record can reach support
    // `θ` on their own only when the record (as a set) repeats at least `θ`
    // times, so the dominant term of the enumeration work at threshold `θ`
    // is `Σ_{distinct t: count(t) ≥ θ} Σ_j C(|t|, j)` — a step function of
    // `θ` that loses a record's contribution exactly when `θ` passes its
    // multiplicity. Walk the contributing records in ascending multiplicity
    // order, raising the threshold just past each one, until the remaining
    // work fits the budget. Explosions driven by *near*-duplicate long
    // records are not caught by this estimate; the paper's workloads have
    // no such records.
    let mut contributors: Vec<(u64, f64)> = distinct
        .iter()
        .filter(|&(_, &count)| count >= threshold)
        .map(|(set, &count)| (count, subset_work(set.len(), config.max_len)))
        .collect();
    contributors.sort_unstable_by_key(|a| a.0);
    let mut work: f64 = contributors.iter().map(|&(_, w)| w).sum();
    for &(count, record_work) in &contributors {
        if work <= SUBSET_WORK_BUDGET {
            break;
        }
        threshold = count + 1;
        work -= record_work;
    }
    threshold
}

/// Upper bound on the estimated subset-enumeration work accepted before the
/// degenerate floor of the module docs kicks in (a few million subsets ≈
/// well under a second of mining).
const SUBSET_WORK_BUDGET: f64 = 4_000_000.0;

/// Number of subsets of length `1..=max_len` of an `n`-term record:
/// `Σ_{j=1..max_len} C(n, j)`.
fn subset_work(n: usize, max_len: usize) -> f64 {
    let n = n as f64;
    let mut total = 0.0;
    let mut c = 1.0;
    for j in 1..=max_len {
        c = c * (n - (j as f64 - 1.0)) / j as f64;
        if c <= 0.0 {
            break;
        }
        total += c;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mine_frequent_bruteforce;

    fn tx(data: &[&[u32]]) -> Vec<Vec<u32>> {
        data.iter().map(|t| t.to_vec()).collect()
    }

    #[test]
    fn returns_at_most_k_results_sorted_by_support() {
        let t = tx(&[&[1, 2], &[1, 2], &[1, 3], &[1], &[2]]);
        let top = top_k_frequent(
            &t,
            &TopKConfig {
                k: 3,
                ..TopKConfig::default()
            },
        );
        assert_eq!(top.len(), 3);
        assert!(top.windows(2).all(|w| w[0].support >= w[1].support));
        assert_eq!(top[0].items, vec![1]);
        assert_eq!(top[0].support, 4);
    }

    #[test]
    fn top_k_matches_bruteforce_ranking() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let n_tx = rng.gen_range(5..30);
            let t: Vec<Vec<u32>> = (0..n_tx)
                .map(|_| {
                    let len = rng.gen_range(1..6);
                    (0..len).map(|_| rng.gen_range(0..8)).collect()
                })
                .collect();
            let k = 10;
            let top = top_k_frequent(
                &t,
                &TopKConfig {
                    k,
                    max_len: 3,
                    ..TopKConfig::default()
                },
            );

            let mut all = mine_frequent_bruteforce(&t, 1, 3);
            sort_canonical(&mut all);
            all.truncate(k);
            // The exact itemsets can differ on support ties, but the support
            // sequence (the ranking) must be identical.
            let got: Vec<u64> = top.iter().map(|f| f.support).collect();
            let want: Vec<u64> = all.iter().map(|f| f.support).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn top_k_matches_bruteforce_itemsets() {
        let t = tx(&[&[1, 2, 3], &[1, 2], &[2, 3], &[1, 3], &[1, 2, 3]]);
        let top = top_k_frequent(
            &t,
            &TopKConfig {
                k: 8,
                ..TopKConfig::default()
            },
        );
        let mut all = mine_frequent_bruteforce(&t, 1, TopKConfig::default().max_len);
        sort_canonical(&mut all);
        all.truncate(8);
        assert_eq!(top, all);
    }

    #[test]
    fn zero_k_or_empty_input() {
        assert!(top_k_frequent(&[], &TopKConfig::default()).is_empty());
        let t = tx(&[&[1]]);
        assert!(top_k_frequent(
            &t,
            &TopKConfig {
                k: 0,
                ..TopKConfig::default()
            }
        )
        .is_empty());
    }

    #[test]
    fn k_larger_than_available_itemsets() {
        let t = tx(&[&[1], &[2]]);
        let top = top_k_frequent(
            &t,
            &TopKConfig {
                k: 100,
                ..TopKConfig::default()
            },
        );
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn relative_support_floor_is_applied() {
        let t: Vec<Vec<u32>> = (0..100u32).map(|i| vec![i]).collect();
        let cfg = TopKConfig {
            k: 50,
            min_relative_support: Some(0.05),
            ..TopKConfig::default()
        };
        // Every item has support 1 < 5 (the floor), so nothing is mined.
        assert!(top_k_frequent(&t, &cfg).is_empty());
    }

    #[test]
    fn paper_default_is_top_1000() {
        assert_eq!(TopKConfig::paper_default().k, 1000);
    }

    /// Regression test for the anti-blowup guard: a 250-term record has
    /// ~C(250, 4) ≈ 1.6e8 subsets of length ≤ 4, so threshold-1 mining
    /// would hang. The guard must bound the run whether the long record is
    /// unique (degenerate threshold 1) or duplicated (its subsets all have
    /// support 2, so a naive raise to threshold 2 is not enough).
    #[test]
    fn long_records_do_not_explode_top_k_mining() {
        let long: Vec<u32> = (0..250).collect();
        // Unique long record among short ones.
        let mut t: Vec<Vec<u32>> = (0..50u32).map(|i| vec![i % 10, 10 + (i % 5)]).collect();
        t.push(long.clone());
        let top = top_k_frequent(
            &t,
            &TopKConfig {
                k: 1000,
                ..TopKConfig::default()
            },
        );
        assert!(!top.is_empty());

        // Duplicated long record.
        t.push(long);
        let top = top_k_frequent(
            &t,
            &TopKConfig {
                k: 1000,
                ..TopKConfig::default()
            },
        );
        assert!(!top.is_empty());
    }
}
