//! End-to-end integration tests across crates: synthetic workload generation
//! (`datagen`) → anonymization (`disassociation`) → verification →
//! reconstruction → information-loss metrics (`metrics`, `fimi`).

use datagen::{QuestConfig, QuestGenerator, RealDataset};
use disassociation::pipeline::{CollectSink, DatasetSource, Pipeline};
use disassociation::verify::{verify_attack, verify_structure};
use disassociation::{reconstruct_many, DisassociationConfig, Disassociator};
use metrics::{pair_window, relative_error_averaged, InformationLoss, LossConfig, TkdConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use transact::{Dataset, DatasetStats};

fn quest(records: usize, domain: usize, seed: u64) -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: domain,
        avg_transaction_len: 6.0,
        seed,
        ..QuestConfig::default()
    })
}

fn loss_config() -> LossConfig {
    LossConfig {
        tkd: TkdConfig {
            top_k: 100,
            max_len: 3,
        },
        re_window: 10..30,
        ..Default::default()
    }
}

#[test]
fn quest_workload_full_pipeline_and_guarantee() {
    let dataset = quest(2_000, 300, 1);
    for (k, m) in [(3usize, 2usize), (5, 2), (10, 1)] {
        let output = Disassociator::try_new(DisassociationConfig {
            k,
            m,
            ..Default::default()
        })
        .expect("valid disassociation configuration")
        .anonymize(&dataset);
        assert_eq!(output.dataset.total_records(), dataset.len());
        let structure = verify_structure(&output.dataset);
        assert!(structure.is_ok(), "k={k} m={m}: {:?}", structure.violations);
        let attack = verify_attack(&dataset, &output.dataset, &output.cluster_assignment);
        assert!(attack.is_ok(), "k={k} m={m}: {:?}", attack.violations.len());
    }
}

#[test]
fn real_profiles_full_pipeline_and_guarantee() {
    for real in [RealDataset::Wv1, RealDataset::Wv2] {
        let dataset = real.generate_scaled(100);
        let output = Disassociator::try_new(DisassociationConfig {
            k: 5,
            m: 2,
            ..Default::default()
        })
        .expect("valid disassociation configuration")
        .anonymize(&dataset);
        assert!(verify_structure(&output.dataset).is_ok(), "{}", real.name());
        assert!(
            verify_attack(&dataset, &output.dataset, &output.cluster_assignment).is_ok(),
            "{}",
            real.name()
        );
        // Every term of the original domain is preserved by disassociation.
        assert_eq!(output.dataset.all_terms().len(), dataset.domain_size());
    }
}

#[test]
fn information_loss_is_moderate_on_a_friendly_workload() {
    // A workload with strong frequent structure: disassociation should keep
    // the top itemsets almost perfectly (the paper reports tKd ≈ 0.05 on POS).
    let dataset = quest(3_000, 200, 7);
    let output = Disassociator::try_new(DisassociationConfig {
        k: 5,
        m: 2,
        ..Default::default()
    })
    .expect("valid disassociation configuration")
    .anonymize(&dataset);
    let loss = InformationLoss::evaluate(&dataset, &output, &loss_config());
    assert!(
        loss.tkd <= 0.5,
        "top-K deviation unexpectedly high: {loss:?}"
    );
    assert!(loss.tlost <= 0.5, "too many frequent terms lost: {loss:?}");
    assert!(loss.re <= 1.5, "pair supports destroyed: {loss:?}");
}

#[test]
fn information_loss_grows_with_k() {
    let dataset = quest(2_500, 250, 9);
    let mut previous_re = -1.0f64;
    let mut last = None;
    for k in [2usize, 5, 15] {
        let output = Disassociator::try_new(DisassociationConfig {
            k,
            m: 2,
            ..Default::default()
        })
        .expect("valid disassociation configuration")
        .anonymize(&dataset);
        let loss = InformationLoss::evaluate(&dataset, &output, &loss_config());
        last = Some(loss.clone());
        // A strict monotone check would be brittle; require the broad trend:
        // k = 15 must not be better than k = 2 on re by more than noise.
        if k == 2 {
            previous_re = loss.re;
        }
    }
    let final_loss = last.unwrap();
    assert!(
        final_loss.re + 1e-9 >= previous_re - 0.1,
        "re at k=15 ({}) should not be meaningfully below re at k=2 ({previous_re})",
        final_loss.re
    );
}

#[test]
fn averaging_reconstructions_improves_or_matches_pair_supports() {
    let dataset = quest(2_000, 150, 21);
    let output = Disassociator::try_new(DisassociationConfig {
        k: 5,
        m: 2,
        ..Default::default()
    })
    .expect("valid disassociation configuration")
    .anonymize(&dataset);
    let window = pair_window(&dataset, 20..40);
    let mut rng = StdRng::seed_from_u64(17);
    let reconstructions = reconstruct_many(&output.dataset, 10, &mut rng);
    let single = relative_error_averaged(&dataset, &reconstructions[..1], &window);
    let ten = relative_error_averaged(&dataset, &reconstructions, &window);
    assert!(
        ten <= single + 0.05,
        "averaging 10 reconstructions should not be worse than one ({ten} vs {single})"
    );
}

#[test]
fn serde_roundtrip_of_the_published_dataset() {
    let dataset = quest(800, 120, 5);
    let output = Disassociator::try_new(DisassociationConfig {
        k: 3,
        m: 2,
        ..Default::default()
    })
    .expect("valid disassociation configuration")
    .anonymize(&dataset);
    let json = serde_json::to_string(&output.dataset).unwrap();
    let parsed: disassociation::DisassociatedDataset = serde_json::from_str(&json).unwrap();
    assert_eq!(parsed, output.dataset);
}

#[test]
fn dataset_statistics_survive_the_io_roundtrip() {
    let dataset = RealDataset::Wv1.generate_scaled(200);
    let mut buffer = Vec::new();
    transact::io::write_numeric_transactions(&dataset, &mut buffer).unwrap();
    let reread = transact::io::read_numeric_transactions(buffer.as_slice()).unwrap();
    let a = DatasetStats::compute(&dataset);
    let b = DatasetStats::compute(&reread);
    assert_eq!(a, b);
}

#[test]
fn parallel_pipeline_matches_serial_on_a_larger_workload() {
    let dataset = quest(4_000, 400, 31);
    let config = DisassociationConfig {
        k: 5,
        m: 2,
        seed: 99,
        ..Default::default()
    };
    let run = |threads: usize| {
        let mut source = DatasetSource::new(&dataset, 1_000);
        let mut sink = CollectSink::for_config(&config);
        let summary = Pipeline::new(config.clone())
            .source(&mut source)
            .sink(&mut sink)
            .threads(threads)
            .run()
            .expect("pipeline run");
        assert_eq!(summary.batches, 4);
        sink.into_output()
    };
    let serial = run(1);
    let parallel = run(2);
    assert_eq!(serial.dataset, parallel.dataset);
    assert_eq!(serial.cluster_assignment, parallel.cluster_assignment);
}

#[test]
fn sensitive_terms_stay_isolated_end_to_end() {
    use std::collections::BTreeSet;
    use transact::TermId;
    let dataset = quest(1_500, 200, 41);
    // Pick the three most frequent terms as "sensitive" — the hardest case,
    // since they would certainly be published in record chunks otherwise.
    let supports = dataset.supports();
    let sensitive: BTreeSet<TermId> = supports
        .terms_by_descending_support()
        .into_iter()
        .take(3)
        .collect();
    let output = Disassociator::try_new(DisassociationConfig {
        k: 5,
        m: 2,
        sensitive_terms: sensitive.clone(),
        ..Default::default()
    })
    .expect("valid disassociation configuration")
    .anonymize(&dataset);
    assert!(disassociation::diversity::sensitive_terms_isolated(
        &output.dataset,
        &sensitive
    ));
    let l = disassociation::diversity::achieved_diversity(&output.dataset, &sensitive).unwrap();
    assert!(l >= 5, "diversity {l} below the cluster-size floor");
    assert!(verify_structure(&output.dataset).is_ok());
}
