//! Property-based tests of the end-to-end anonymization guarantee.
//!
//! These tests treat the whole pipeline as a black box: for arbitrary small
//! datasets and privacy parameters, the published output must
//!
//! * pass the structural verifier (chunk anonymity, Lemma 2, Property 1),
//! * survive the adversary simulation of Guarantee 1,
//! * preserve every original term and the record count,
//! * reconstruct into datasets of the right size whose chunk projections
//!   match the published chunks.

use disassociation::verify::{verify_attack, verify_structure};
use disassociation::{reconstruct, DisassociationConfig, Disassociator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use transact::{Dataset, Record, TermId};

fn arb_record(domain: u32) -> impl Strategy<Value = Record> {
    proptest::collection::vec(0..domain, 1..8)
        .prop_map(|v| Record::from_ids(v.into_iter().map(TermId::new)))
}

fn arb_dataset() -> impl Strategy<Value = Dataset> {
    (8u32..24).prop_flat_map(|domain| {
        proptest::collection::vec(arb_record(domain), 1..60).prop_map(Dataset::from_records)
    })
}

fn arb_config() -> impl Strategy<Value = DisassociationConfig> {
    (2usize..5, 1usize..3, 0usize..2, any::<bool>(), any::<u64>()).prop_map(
        |(k, m, cluster_choice, enable_refine, seed)| DisassociationConfig {
            k,
            m,
            max_cluster_size: if cluster_choice == 0 { 0 } else { 4 * k },
            enable_refine,
            seed,
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn published_dataset_passes_structural_verification(
        dataset in arb_dataset(),
        config in arb_config(),
    ) {
        let output = Disassociator::new(config).anonymize(&dataset);
        let report = verify_structure(&output.dataset);
        prop_assert!(report.is_ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn published_dataset_survives_the_adversary_simulation(
        dataset in arb_dataset(),
        config in arb_config(),
    ) {
        // Guarantee 1 is only attainable when the dataset has at least k
        // records (a 1-record dataset cannot hide among k candidates).
        prop_assume!(dataset.len() >= config.k);
        let output = Disassociator::new(config).anonymize(&dataset);
        let report = verify_attack(&dataset, &output.dataset, &output.cluster_assignment);
        prop_assert!(report.is_ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn every_original_term_is_preserved(
        dataset in arb_dataset(),
        config in arb_config(),
    ) {
        let output = Disassociator::new(config).anonymize(&dataset);
        let original_terms: std::collections::BTreeSet<TermId> =
            dataset.domain().into_iter().collect();
        prop_assert_eq!(output.dataset.all_terms(), original_terms);
        prop_assert_eq!(output.dataset.total_records(), dataset.len());
    }

    #[test]
    fn term_support_lower_bounds_never_exceed_true_supports(
        dataset in arb_dataset(),
        config in arb_config(),
    ) {
        let output = Disassociator::new(config).anonymize(&dataset);
        for t in dataset.domain() {
            let bound = output.dataset.term_support_lower_bound(t);
            prop_assert!(
                bound <= dataset.term_support(t),
                "lower bound {bound} exceeds true support {} for {t}",
                dataset.term_support(t)
            );
            prop_assert!(bound >= 1, "term {t} lost entirely");
        }
    }

    #[test]
    fn reconstructions_match_the_published_form(
        dataset in arb_dataset(),
        config in arb_config(),
        recon_seed in any::<u64>(),
    ) {
        let output = Disassociator::new(config).anonymize(&dataset);
        let mut rng = StdRng::seed_from_u64(recon_seed);
        let reconstructed = reconstruct(&output.dataset, &mut rng);
        prop_assert_eq!(reconstructed.len(), dataset.len());
        // Every original term survives into every reconstruction.  (The
        // chunk-occurrence lower bound applies to the *original* data; a
        // reconstruction of a joint cluster may merge a shared-chunk
        // subrecord into a record that already carries the same term, so the
        // per-reconstruction count can be slightly lower — see the
        // `reconstruct` module docs.)
        for t in dataset.domain() {
            prop_assert!(
                reconstructed.term_support(t) >= 1,
                "reconstruction lost term {t} entirely"
            );
        }
        // For simple (non-joint) top-level clusters the bound is exact.
        for node in &output.dataset.clusters {
            if let disassociation::ClusterNode::Simple(cluster) = node {
                for chunk in &cluster.record_chunks {
                    for &t in &chunk.domain {
                        prop_assert!(
                            reconstructed.term_support(t) >= chunk.support(&[t]),
                            "reconstruction lost chunk occurrences of {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cluster_sizes_are_at_least_k(
        dataset in arb_dataset(),
        config in arb_config(),
    ) {
        let k = config.k;
        let output = Disassociator::new(config).anonymize(&dataset);
        if dataset.len() >= k {
            for cluster in output.dataset.simple_clusters() {
                prop_assert!(cluster.size >= k, "cluster of size {} < k = {k}", cluster.size);
            }
        }
    }
}
