//! Property-based tests pinning the indexed REFINE to the pre-index
//! reference path.
//!
//! Both paths share one procedure: the pass loop, the term-chunk ordering,
//! Equation 1 with the candidate order, VERPART's greedy chunk builder and
//! the placed-term removal with its Lemma 2 repair.  They differ only in
//! what the index replaced: [`refine`] reads cached node metadata
//! (per-cluster support indexes, incrementally merged virtual term chunks
//! and `T^r` sets, pooled checker scratch, group-based Property 1 trials),
//! while [`refine_reference`] walks subtrees for virtual term chunks and
//! `T^r`, scans raw records for joint supports, materializes every
//! Property 1 trial and builds a fresh checker per join.  Driven by
//! equal-seeded RNGs they must produce **identical** forests — same join
//! decisions (tree shape), same shared-chunk domains, same subrecord
//! multisets (asserted even more strongly: same subrecord *sequences*, since
//! the shuffle streams align) — and identical convergence telemetry, over
//! random datasets across `k ∈ 2..6` and `m ∈ 1..=5` (m = 5 runs the
//! checker's fallback engine, m ≤ 4 the packed one).

use disassociation::horpart::{horizontal_partition, merge_small_clusters};
use disassociation::refine::{refine, refine_reference, RefineOptions, WorkCluster, WorkNode};
use disassociation::verpart::{vertical_partition, VerPartOptions};
use disassociation::ClusterNode;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use transact::{Dataset, Record, TermId};

fn arb_record(domain: u32) -> impl Strategy<Value = Record> {
    // 1..7 terms per record: non-empty records with enough overlap for
    // low-support terms to recur across clusters (the situation REFINE
    // exists for).
    proptest::collection::vec(0..domain, 1..7)
        .prop_map(|v| Record::from_ids(v.into_iter().map(TermId::new)))
}

/// A random dataset large enough to split into several clusters: up to 90
/// records over a domain of up to 18 terms.
fn arb_dataset() -> impl Strategy<Value = Vec<Record>> {
    (6u32..18).prop_flat_map(|domain| proptest::collection::vec(arb_record(domain), 8..90))
}

/// Builds the working forest the way the pipeline does: horizontal
/// partitioning (small max cluster size to force several clusters), merge of
/// sub-k clusters, then a publication-mode vertical partition per cluster
/// seeded per cluster index.
fn build_forest(records: &[Record], k: usize, m: usize) -> Vec<WorkNode> {
    let dataset = Dataset::from_records(records.to_vec());
    let mut partition = horizontal_partition(&dataset, (3 * k).max(4), &BTreeSet::new());
    merge_small_clusters(&mut partition, k);
    partition
        .clusters
        .iter()
        .enumerate()
        .map(|(i, indices)| {
            let cluster_records: Vec<Record> = indices
                .iter()
                .map(|&idx| dataset.records()[idx].clone())
                .collect();
            let mut rng = StdRng::seed_from_u64(0xC1A5 ^ (i as u64).wrapping_mul(0x9E37));
            let cluster = vertical_partition(
                &cluster_records,
                k,
                m,
                &VerPartOptions::publication(),
                &mut rng,
            );
            WorkNode::Simple(WorkCluster::new(indices.clone(), cluster_records, cluster))
        })
        .collect()
}

fn published(nodes: Vec<WorkNode>) -> Vec<ClusterNode> {
    nodes.into_iter().map(WorkNode::into_cluster_node).collect()
}

fn assert_refines_agree(
    records: &[Record],
    k: usize,
    m: usize,
    options: &RefineOptions,
    seed: u64,
) {
    let fast = refine(
        build_forest(records, k, m),
        k,
        m,
        options,
        &mut StdRng::seed_from_u64(seed),
    );
    let slow = refine_reference(
        build_forest(records, k, m),
        k,
        m,
        options,
        &mut StdRng::seed_from_u64(seed),
    );
    assert_eq!(fast.passes_used, slow.passes_used, "pass counts diverge");
    assert_eq!(fast.converged, slow.converged, "convergence diverges");
    let fast_pub = published(fast.nodes);
    let slow_pub = published(slow.nodes);
    assert_eq!(fast_pub, slow_pub, "published forests diverge");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The indexed REFINE and the reference path publish identical forests
    /// (join structure, shared-chunk domains, subrecord multisets) across
    /// the paper's parameter range.
    #[test]
    fn indexed_refine_matches_reference(
        records in arb_dataset(),
        k in 2usize..6,
        m in 1usize..6,
        seed in 0u64..1u64 << 48,
    ) {
        assert_refines_agree(&records, k, m, &RefineOptions::default(), seed);
    }

    /// ... including under a pass cap (partial refinement states must match
    /// too, not just fixpoints) and with shuffling disabled.
    #[test]
    fn indexed_refine_matches_reference_with_capped_passes(
        records in arb_dataset(),
        k in 2usize..6,
        m in 1usize..6,
        max_passes in 1usize..4,
        shuffle in any::<bool>(),
        seed in 0u64..1u64 << 48,
    ) {
        let options = RefineOptions {
            max_passes,
            shuffle,
            excluded_terms: BTreeSet::new(),
        };
        assert_refines_agree(&records, k, m, &options, seed);
    }

    /// ... and with excluded (sensitive) terms kept out of shared chunks.
    #[test]
    fn indexed_refine_matches_reference_with_exclusions(
        records in arb_dataset(),
        k in 2usize..6,
        excluded in proptest::collection::btree_set(0u32..18, 0..4),
        seed in 0u64..1u64 << 48,
    ) {
        let options = RefineOptions {
            excluded_terms: excluded.into_iter().map(TermId::new).collect(),
            ..RefineOptions::default()
        };
        assert_refines_agree(&records, k, 2, &options, seed);
    }
}
