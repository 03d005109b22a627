//! Criterion micro-benchmarks of the anonymization pipeline phases
//! (HORPART, VERPART, REFINE and the end-to-end Disassociator), sized so the
//! whole suite runs in a couple of minutes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use datagen::{QuestConfig, QuestGenerator};
use disassociation::horpart::{horizontal_partition, merge_small_clusters};
use disassociation::refine::{refine, RefineOptions, WorkCluster, WorkNode};
use disassociation::verpart::{vertical_partition, VerPartOptions};
use disassociation::{DisassociationConfig, Disassociator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use transact::Dataset;

fn workload(records: usize) -> Dataset {
    QuestGenerator::generate_with(QuestConfig {
        num_transactions: records,
        domain_size: 1_000,
        avg_transaction_len: 8.0,
        seed: 0xBE7C,
        ..QuestConfig::default()
    })
}

fn bench_horpart(c: &mut Criterion) {
    let mut group = c.benchmark_group("horpart");
    for &n in &[2_000usize, 10_000] {
        let dataset = workload(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &dataset, |b, d| {
            b.iter(|| horizontal_partition(d, 50, &BTreeSet::new()))
        });
    }
    group.finish();
}

fn bench_verpart(c: &mut Criterion) {
    let dataset = workload(5_000);
    let mut partition = horizontal_partition(&dataset, 50, &BTreeSet::new());
    merge_small_clusters(&mut partition, 5);
    // The largest cluster is the most expensive unit of work.
    let largest = partition
        .clusters
        .iter()
        .max_by_key(|c| c.len())
        .cloned()
        .unwrap_or_default();
    let records: Vec<transact::Record> = largest
        .iter()
        .map(|&i| dataset.records()[i].clone())
        .collect();
    c.bench_function("verpart/largest-cluster", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            vertical_partition(&records, 5, 2, &VerPartOptions::publication(), &mut rng)
        })
    });
}

fn bench_refine(c: &mut Criterion) {
    let dataset = workload(5_000);
    let mut partition = horizontal_partition(&dataset, 50, &BTreeSet::new());
    merge_small_clusters(&mut partition, 5);
    let clusters: Vec<WorkCluster> = partition
        .clusters
        .iter()
        .map(|indices| {
            let records: Vec<transact::Record> = indices
                .iter()
                .map(|&i| dataset.records()[i].clone())
                .collect();
            let mut rng = StdRng::seed_from_u64(2);
            let cluster =
                vertical_partition(&records, 5, 2, &VerPartOptions::publication(), &mut rng);
            WorkCluster::new(indices.clone(), records, cluster)
        })
        .collect();
    c.bench_function("refine/5k-records", |b| {
        b.iter(|| {
            let nodes: Vec<WorkNode> = clusters.iter().cloned().map(WorkNode::Simple).collect();
            let mut rng = StdRng::seed_from_u64(3);
            refine(nodes, 5, 2, &RefineOptions::default(), &mut rng)
        })
    });
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("disassociate");
    group.sample_size(10);
    for &n in &[2_000usize, 10_000] {
        let dataset = workload(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &dataset, |b, d| {
            b.iter(|| {
                Disassociator::try_new(DisassociationConfig {
                    k: 5,
                    m: 2,
                    ..Default::default()
                })
                .expect("valid disassociation configuration")
                .anonymize(d)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_horpart,
    bench_verpart,
    bench_refine,
    bench_end_to_end
);
criterion_main!(benches);
