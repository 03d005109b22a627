//! Criterion micro-benchmarks of the comparison methods (Apriori
//! generalization and DiffPart) against the disassociation pipeline on the
//! same workload — the runtime side of the Figure 11 comparison.

use baselines::{AprioriAnonymizer, AprioriConfig, DiffPart, DiffPartConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use datagen::{QuestConfig, QuestGenerator};
use disassociation::{DisassociationConfig, Disassociator};
use hierarchy::Taxonomy;
use transact::Dataset;

fn workload() -> (Dataset, Taxonomy) {
    let dataset = QuestGenerator::generate_with(QuestConfig {
        num_transactions: 3_000,
        domain_size: 300,
        avg_transaction_len: 6.0,
        seed: 0xBA5E,
        ..QuestConfig::default()
    });
    let taxonomy = Taxonomy::balanced(300, 4);
    (dataset, taxonomy)
}

fn bench_methods(c: &mut Criterion) {
    let (dataset, taxonomy) = workload();
    let mut group = c.benchmark_group("anonymizers-3k-records");
    group.sample_size(10);
    group.bench_function("disassociation", |b| {
        b.iter(|| {
            Disassociator::try_new(DisassociationConfig {
                k: 5,
                m: 2,
                ..Default::default()
            })
            .expect("valid disassociation configuration")
            .anonymize(&dataset)
        })
    });
    group.bench_function("apriori-generalization", |b| {
        b.iter(|| {
            AprioriAnonymizer::new(
                &taxonomy,
                AprioriConfig {
                    k: 5,
                    m: 2,
                    ..Default::default()
                },
            )
            .anonymize(&dataset)
        })
    });
    group.bench_function("diffpart", |b| {
        b.iter(|| DiffPart::new(&taxonomy, DiffPartConfig::default()).sanitize(&dataset))
    });
    group.finish();
}

criterion_group!(benches, bench_methods);
criterion_main!(benches);
