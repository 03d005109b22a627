//! FP-growth frequent itemset mining.
//!
//! The tKd metric mines the top-1000 frequent itemsets of datasets with up to
//! half a million records; a level-wise Apriori pass over such data is slow
//! because every candidate is tested against every transaction.  FP-growth
//! compresses the transactions into a prefix tree (the FP-tree) once and then
//! mines recursively on conditional trees.  The implementation below follows
//! Han, Pei & Yin (SIGMOD 2000) with parent pointers stored as indices into a
//! node arena (no `Rc`/`RefCell` churn, no unsafe).

use crate::FrequentItemset;
use std::collections::HashMap;

/// A node of the FP-tree arena.
#[derive(Debug, Clone)]
struct Node {
    item: u32,
    count: u64,
    parent: usize,
    children: HashMap<u32, usize>,
}

/// An FP-tree with its header table.
#[derive(Debug)]
struct FpTree {
    nodes: Vec<Node>,
    /// item → indices of the nodes carrying that item.
    header: HashMap<u32, Vec<usize>>,
}

const ROOT: usize = 0;

impl FpTree {
    fn new() -> Self {
        FpTree {
            nodes: vec![Node {
                item: u32::MAX,
                count: 0,
                parent: ROOT,
                children: HashMap::new(),
            }],
            header: HashMap::new(),
        }
    }

    /// Inserts a transaction (items must already be filtered to frequent ones
    /// and sorted in descending frequency order) with multiplicity `count`.
    fn insert(&mut self, items: &[u32], count: u64) {
        let mut current = ROOT;
        for &item in items {
            let next = match self.nodes[current].children.get(&item) {
                Some(&idx) => {
                    self.nodes[idx].count += count;
                    idx
                }
                None => {
                    let idx = self.nodes.len();
                    self.nodes.push(Node {
                        item,
                        count,
                        parent: current,
                        children: HashMap::new(),
                    });
                    self.nodes[current].children.insert(item, idx);
                    self.header.entry(item).or_default().push(idx);
                    idx
                }
            };
            current = next;
        }
    }

    /// The prefix path of a node (excluding the node itself and the root),
    /// returned root-to-leaf order not needed — only membership matters, so
    /// leaf-to-root is fine.
    fn prefix_path(&self, mut idx: usize) -> Vec<u32> {
        let mut path = Vec::new();
        idx = self.nodes[idx].parent;
        while idx != ROOT {
            path.push(self.nodes[idx].item);
            idx = self.nodes[idx].parent;
        }
        path
    }
}

/// Mines all itemsets with support ≥ `min_support` and size ≤ `max_len`
/// using FP-growth.
///
/// * `transactions` — item lists; items inside one transaction are treated
///   with set semantics (duplicates ignored).
/// * `min_support` — absolute support threshold (number of transactions);
///   0 is treated as 1.
/// * `max_len` — maximum itemset size to mine (0 means "no itemsets").
///
/// Results are sorted by item list.
pub fn mine_frequent_fpgrowth(
    transactions: &[Vec<u32>],
    min_support: u64,
    max_len: usize,
) -> Vec<FrequentItemset> {
    if transactions.is_empty() || max_len == 0 {
        return Vec::new();
    }
    let min_support = min_support.max(1);

    // Global item frequencies.
    let mut freq: HashMap<u32, u64> = HashMap::new();
    for t in transactions {
        let mut seen: Vec<u32> = t.clone();
        seen.sort_unstable();
        seen.dedup();
        for item in seen {
            *freq.entry(item).or_insert(0) += 1;
        }
    }
    let frequent_items: HashMap<u32, u64> = freq
        .into_iter()
        .filter(|&(_, c)| c >= min_support)
        .collect();
    if frequent_items.is_empty() {
        return Vec::new();
    }

    // Build the initial FP-tree: each transaction filtered to frequent items
    // and ordered by descending global frequency (ties by ascending item id
    // for determinism).
    let order_key = |item: u32| (std::cmp::Reverse(frequent_items[&item]), item);
    let mut tree = FpTree::new();
    for t in transactions {
        let mut items: Vec<u32> = t
            .iter()
            .copied()
            .filter(|i| frequent_items.contains_key(i))
            .collect();
        items.sort_unstable();
        items.dedup();
        items.sort_by_key(|&i| order_key(i));
        if !items.is_empty() {
            tree.insert(&items, 1);
        }
    }

    let mut results = Vec::new();
    let mut suffix: Vec<u32> = Vec::new();
    mine_tree(&tree, min_support, max_len, &mut suffix, &mut results);
    // Canonical order: ascending item lists.
    for fi in &mut results {
        fi.items.sort_unstable();
    }
    results.sort_by(|a, b| a.items.cmp(&b.items));
    results
}

/// Recursively mines `tree`, emitting itemsets `item ∪ suffix`.
fn mine_tree(
    tree: &FpTree,
    min_support: u64,
    max_len: usize,
    suffix: &mut Vec<u32>,
    results: &mut Vec<FrequentItemset>,
) {
    if suffix.len() >= max_len {
        return;
    }
    // Item supports inside this (conditional) tree.
    let mut item_supports: Vec<(u32, u64)> = tree
        .header
        .iter()
        .map(|(&item, nodes)| (item, nodes.iter().map(|&n| tree.nodes[n].count).sum()))
        .filter(|&(_, s)| s >= min_support)
        .collect();
    // Mine the least frequent items first (standard FP-growth order); the
    // order does not change the result set, only the recursion shape.
    item_supports.sort_by_key(|&(item, s)| (s, item));

    for (item, support) in item_supports {
        let mut items = suffix.clone();
        items.push(item);
        results.push(FrequentItemset {
            items: items.clone(),
            support,
        });
        if suffix.len() + 1 >= max_len {
            continue;
        }
        // Build the conditional pattern base and the conditional tree.
        let mut conditional = FpTree::new();
        let mut any = false;
        if let Some(nodes) = tree.header.get(&item) {
            // Conditional item frequencies (needed to order the paths and to
            // filter items that cannot reach min_support in the conditional
            // tree).
            let mut cond_freq: HashMap<u32, u64> = HashMap::new();
            let mut paths: Vec<(Vec<u32>, u64)> = Vec::new();
            for &n in nodes {
                let count = tree.nodes[n].count;
                let path = tree.prefix_path(n);
                for &p in &path {
                    *cond_freq.entry(p).or_insert(0) += count;
                }
                if !path.is_empty() {
                    paths.push((path, count));
                }
            }
            for (mut path, count) in paths {
                path.retain(|p| cond_freq.get(p).copied().unwrap_or(0) >= min_support);
                if path.is_empty() {
                    continue;
                }
                path.sort_by_key(|&p| (std::cmp::Reverse(cond_freq[&p]), p));
                conditional.insert(&path, count);
                any = true;
            }
        }
        if any {
            suffix.push(item);
            mine_tree(&conditional, min_support, max_len, suffix, results);
            suffix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::mine_frequent_bruteforce;

    fn tx(data: &[&[u32]]) -> Vec<Vec<u32>> {
        data.iter().map(|t| t.to_vec()).collect()
    }

    fn normalized(mut v: Vec<FrequentItemset>) -> Vec<(Vec<u32>, u64)> {
        v.sort_by(|a, b| a.items.cmp(&b.items));
        v.into_iter().map(|f| (f.items, f.support)).collect()
    }

    #[test]
    fn textbook_example() {
        let t = tx(&[&[1, 2, 3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3, 4]]);
        let map: HashMap<Vec<u32>, u64> = mine_frequent_fpgrowth(&t, 3, 3)
            .into_iter()
            .map(|f| (f.items, f.support))
            .collect();
        assert_eq!(map[&vec![1]], 4);
        assert_eq!(map[&vec![2]], 4);
        assert_eq!(map[&vec![3]], 4);
        assert_eq!(map[&vec![1, 2]], 3);
        assert_eq!(map[&vec![1, 3]], 3);
        assert_eq!(map[&vec![2, 3]], 3);
        assert!(!map.contains_key(&vec![4]));
        assert!(!map.contains_key(&vec![1, 2, 3]), "support 2 < 3");
        assert_eq!(map.len(), 6);
    }

    #[test]
    fn textbook_example_matches_bruteforce() {
        let t = tx(&[&[1, 2, 3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3, 4]]);
        for min_support in 1..=4 {
            let fp = normalized(mine_frequent_fpgrowth(&t, min_support, 4));
            let brute = normalized(mine_frequent_bruteforce(&t, min_support, 4));
            assert_eq!(fp, brute, "min_support={min_support}");
        }
    }

    #[test]
    fn single_transaction() {
        let t = tx(&[&[5, 7, 9]]);
        let fp = normalized(mine_frequent_fpgrowth(&t, 1, 3));
        assert_eq!(fp.len(), 7); // all non-empty subsets
        assert!(fp.iter().all(|(_, s)| *s == 1));
    }

    #[test]
    fn respects_max_len() {
        let t = tx(&[&[1, 2, 3], &[1, 2, 3]]);
        let fp = mine_frequent_fpgrowth(&t, 1, 2);
        assert!(fp.iter().all(|f| f.len() <= 2));
    }

    #[test]
    fn max_len_limits_itemset_size() {
        let t = tx(&[&[1, 2, 3], &[1, 2, 3], &[1, 2, 3]]);
        let result = mine_frequent_fpgrowth(&t, 2, 2);
        assert!(result.iter().all(|f| f.len() <= 2));
        assert!(result.iter().any(|f| f.len() == 2));
        let result3 = mine_frequent_fpgrowth(&t, 2, 3);
        assert!(result3.iter().any(|f| f.len() == 3));
    }

    #[test]
    fn empty_and_infrequent_inputs() {
        assert!(mine_frequent_fpgrowth(&[], 1, 3).is_empty());
        let t = tx(&[&[1], &[2], &[3]]);
        assert!(mine_frequent_fpgrowth(&t, 2, 3).is_empty());
    }

    #[test]
    fn empty_inputs_yield_nothing() {
        assert!(mine_frequent_fpgrowth(&[], 1, 3).is_empty());
        assert!(mine_frequent_fpgrowth(&tx(&[&[1]]), 1, 0).is_empty());
        assert!(mine_frequent_fpgrowth(&tx(&[&[]]), 1, 3).is_empty());
    }

    #[test]
    fn agrees_with_bruteforce_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..25 {
            let n_tx = rng.gen_range(1..25);
            let t: Vec<Vec<u32>> = (0..n_tx)
                .map(|_| {
                    let len = rng.gen_range(0..7);
                    (0..len).map(|_| rng.gen_range(0..10)).collect()
                })
                .collect();
            let min_support = rng.gen_range(1..4);
            let fp = normalized(mine_frequent_fpgrowth(&t, min_support, 4));
            let brute = normalized(mine_frequent_bruteforce(&t, min_support, 4));
            assert_eq!(fp, brute, "case {case}");
        }
    }

    #[test]
    fn duplicate_items_in_transaction_counted_once() {
        let t = tx(&[&[1, 1, 2], &[2, 1]]);
        let fp = normalized(mine_frequent_fpgrowth(&t, 2, 2));
        assert!(fp.contains(&(vec![1, 2], 2)));
        assert!(fp.contains(&(vec![1], 2)));
    }
}
