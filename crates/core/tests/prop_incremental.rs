//! Property-based tests of incremental re-anonymization.
//!
//! The headline privacy-equivalence properties: for arbitrary base+append
//! splits across the k/m grid,
//!
//! * the incremental publication satisfies the **same structural guarantee**
//!   `verify_structure` checks on a full run (chunk anonymity, Lemma 2,
//!   Property 1) — appends never weaken privacy;
//! * an **empty append is a no-op**: zero dirty clusters and a publication
//!   byte-identical to the full (= base) run;
//! * a **clean chunk is never republished**: every published node whose
//!   generation did not change keeps its exact bytes, and the number of
//!   changed nodes equals the reported `republished_chunks`;
//! * the base build itself is byte-identical to the one-shot anonymizer, so
//!   the incremental path is a strict superset of the full path;
//! * every record (base and appended) stays assigned to exactly one
//!   cluster, so no append loses or duplicates data.

use disassociation::verify::verify_structure;
use disassociation::{AppendOptions, DisassociationConfig, Disassociator};
use proptest::prelude::*;
use transact::{Dataset, Record, TermId};

fn arb_record(domain: u32) -> impl Strategy<Value = Record> {
    proptest::collection::vec(0..domain, 1..8)
        .prop_map(|v| Record::from_ids(v.into_iter().map(TermId::new)))
}

/// A base dataset plus an append set over the same domain.
fn arb_split() -> impl Strategy<Value = (Vec<Record>, Vec<Record>)> {
    (8u32..24).prop_flat_map(|domain| {
        (
            proptest::collection::vec(arb_record(domain), 1..60),
            proptest::collection::vec(arb_record(domain), 0..20),
        )
    })
}

fn arb_config() -> impl Strategy<Value = DisassociationConfig> {
    // The ISSUE grid: k in 2..6, m in 1..=3.
    (2usize..6, 1usize..4, any::<bool>(), any::<u64>()).prop_map(|(k, m, enable_refine, seed)| {
        DisassociationConfig {
            k,
            m,
            enable_refine,
            seed,
            ..Default::default()
        }
    })
}

fn arb_options() -> impl Strategy<Value = AppendOptions> {
    (0.05f64..1.0).prop_map(|max_dirty_fraction| AppendOptions { max_dirty_fraction })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_publication_passes_structural_verification(
        split in arb_split(),
        config in arb_config(),
        options in arb_options(),
    ) {
        let (base, delta) = split;
        let disassociator = Disassociator::new(config);
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(base));
        run.append_with(&delta, &options);
        let report = verify_structure(&run.published_dataset());
        prop_assert!(report.is_ok(), "violations: {:?}", report.violations);
    }

    #[test]
    fn base_build_is_byte_identical_to_the_full_run(
        split in arb_split(),
        config in arb_config(),
    ) {
        let (base, _) = split;
        let dataset = Dataset::from_records(base);
        let disassociator = Disassociator::new(config);
        let full = disassociator.anonymize(&dataset);
        let run = disassociator.anonymize_incremental(dataset);
        prop_assert_eq!(
            serde_json::to_vec(&run.published_dataset()).unwrap(),
            serde_json::to_vec(&full.dataset).unwrap(),
            "incremental base build must equal the one-shot publication"
        );
        prop_assert_eq!(run.assignment(), full.cluster_assignment);
    }

    #[test]
    fn empty_append_is_byte_identical_and_dirties_nothing(
        split in arb_split(),
        config in arb_config(),
        options in arb_options(),
    ) {
        let (base, _) = split;
        let disassociator = Disassociator::new(config);
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(base));
        let before = serde_json::to_vec(&run.published_dataset()).unwrap();
        let generations = run.node_generations();
        let outcome = run.append_with(&[], &options);
        prop_assert_eq!(outcome.dirty_clusters, 0);
        prop_assert_eq!(outcome.new_clusters, 0);
        prop_assert_eq!(outcome.republished_chunks, 0);
        prop_assert_eq!(outcome.reused_clusters, outcome.total_clusters);
        prop_assert_eq!(serde_json::to_vec(&run.published_dataset()).unwrap(), before);
        prop_assert_eq!(run.node_generations(), generations);
    }

    #[test]
    fn clean_chunks_are_never_republished(
        split in arb_split(),
        config in arb_config(),
        options in arb_options(),
    ) {
        let (base, delta) = split;
        let disassociator = Disassociator::new(config);
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(base));
        let before: Vec<Vec<u8>> = run
            .published_dataset()
            .clusters
            .iter()
            .map(|c| serde_json::to_vec(c).unwrap())
            .collect();
        let generation_before = run.generation();
        let outcome = run.append_with(&delta, &options);

        let after: Vec<(u64, Vec<u8>)> = run
            .node_generations()
            .into_iter()
            .zip(
                run.published_dataset()
                    .clusters
                    .iter()
                    .map(|c| serde_json::to_vec(c).unwrap()),
            )
            .collect();
        // Nodes the append did not touch keep their published bytes.
        let before_set: std::collections::BTreeSet<&Vec<u8>> = before.iter().collect();
        let mut republished = 0usize;
        for (generation, bytes) in &after {
            if *generation <= generation_before {
                prop_assert!(
                    before_set.contains(bytes),
                    "an untouched chunk changed bytes"
                );
            } else {
                republished += 1;
            }
        }
        // The outcome reports exactly the chunks that were (re)written.
        prop_assert_eq!(republished, outcome.republished_chunks);
    }

    #[test]
    fn every_record_is_assigned_exactly_once_after_append(
        split in arb_split(),
        config in arb_config(),
        options in arb_options(),
    ) {
        let (base, delta) = split;
        let total = base.len() + delta.len();
        let disassociator = Disassociator::new(config);
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(base));
        let outcome = run.append_with(&delta, &options);
        prop_assert_eq!(outcome.appended_records, delta.len());
        let mut seen: Vec<usize> = run.assignment().into_iter().flatten().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..total).collect::<Vec<_>>());
        // The published record count matches too.
        prop_assert_eq!(run.published_dataset().total_records(), total);
    }

    #[test]
    fn repeated_appends_keep_the_guarantee_and_the_budget(
        split in arb_split(),
        config in arb_config(),
        options in arb_options(),
    ) {
        let (base, delta) = split;
        let disassociator = Disassociator::new(config);
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(base));
        for chunk in delta.chunks(7) {
            let before_total = run.cluster_count();
            let budget = ((options.max_dirty_fraction * before_total as f64).floor() as usize).max(1);
            let outcome = run.append_with(chunk, &options);
            prop_assert!(
                outcome.dirty_clusters <= budget,
                "append dirtied {} clusters with a budget of {budget}",
                outcome.dirty_clusters
            );
        }
        let report = verify_structure(&run.published_dataset());
        prop_assert!(report.is_ok(), "violations: {:?}", report.violations);
    }
}
