//! # disassociation — privacy preservation by disassociation
//!
//! A Rust implementation of the anonymization method of *Terrovitis,
//! Liagouris, Mamoulis, Skiadopoulos — "Privacy Preservation by
//! Disassociation", PVLDB 5(10), 2012*.
//!
//! Disassociation publishes sparse set-valued data (web-search logs, retail
//! baskets, click-streams) with a **k^m-anonymity** guarantee: an adversary
//! who knows up to `m` terms of a record cannot narrow it down to fewer than
//! `k` candidate records — yet **every original term is preserved**: nothing
//! is generalized, suppressed, or perturbed.  Instead, the records are
//! partitioned so that *the fact that certain terms co-occur in one record*
//! is hidden.
//!
//! ## Pipeline
//!
//! 1. **Horizontal partitioning** ([`horpart`]) groups similar records into
//!    small clusters.
//! 2. **Vertical partitioning** ([`verpart`]) splits every cluster into
//!    k^m-anonymous *record chunks* and one *term chunk*.
//! 3. **Refining** ([`refine`](mod@refine)) merges clusters into *joint clusters* with
//!    *shared chunks*, recovering the supports of terms that are rare per
//!    cluster but frequent overall.
//!
//! The result is a [`DisassociatedDataset`]; [`reconstruct`](mod@reconstruct) samples possible
//! original datasets from it for analysis, and [`verify`] re-checks the
//! guarantee independently.
//!
//! ```
//! use disassociation::{Disassociator, DisassociationConfig};
//! use transact::{Dataset, Dictionary, Record};
//!
//! let mut dict = Dictionary::new();
//! let records: Vec<Record> = vec![
//!     Record::from_terms(&mut dict, ["itunes", "flu", "madonna", "ikea", "ruby"]),
//!     Record::from_terms(&mut dict, ["madonna", "flu", "viagra", "ruby", "audi a4", "sony tv"]),
//!     Record::from_terms(&mut dict, ["itunes", "madonna", "audi a4", "ikea", "sony tv"]),
//!     Record::from_terms(&mut dict, ["itunes", "flu", "viagra"]),
//!     Record::from_terms(&mut dict, ["itunes", "flu", "madonna", "audi a4", "sony tv"]),
//! ];
//! let dataset = Dataset::from_records(records);
//!
//! let config = DisassociationConfig { k: 3, m: 2, ..Default::default() };
//! let output = Disassociator::new(config).anonymize(&dataset);
//!
//! assert_eq!(output.dataset.total_records(), 5);
//! assert!(disassociation::verify::verify_structure(&output.dataset).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Using any deprecated item, ours or a dependency's, is an error, so a
// retired API cannot creep back in.
#![deny(deprecated)]

pub mod anonymity;
pub mod diversity;
pub mod error;
pub mod horpart;
pub mod incremental;
pub mod model;
pub mod pipeline;
pub mod query;
pub mod reconstruct;
pub mod refine;
pub mod verify;
pub mod verpart;

pub use error::{ConfigError, Error, SinkError, SourceError};
pub use incremental::{AppendOptions, AppendOutcome, IncrementalPipeline, IncrementalRun};
pub use model::{
    Cluster, ClusterNode, DisassociatedDataset, JointCluster, RecordChunk, SharedChunk, TermChunk,
};
pub use pipeline::{BatchOutput, ChunkSink, Pipeline, RecordSource, RunSummary};
pub use reconstruct::{reconstruct, reconstruct_many};

use disassoc_obs::metrics::counters as obs_counters;
use disassoc_obs::names as obs_names;
use disassoc_obs::trace::{self as obs_trace, Attr};
use horpart::{
    horizontal_partition_traced, merge_small_clusters_with_map, HorizontalPartition, SplitTree,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use refine::{refine, RefineOptions, RefineOutcome, WorkCluster, WorkNode};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use transact::{Dataset, TermId};
use verpart::VerPartOptions;

/// Configuration of a disassociation run.
#[derive(Debug, Clone)]
pub struct DisassociationConfig {
    /// The `k` of the k^m-anonymity guarantee (paper default: 5).
    pub k: usize,
    /// The `m` of the k^m-anonymity guarantee — the assumed upper bound on
    /// the adversary's background knowledge (paper default: 2).
    pub m: usize,
    /// Maximum records per cluster produced by the horizontal partitioning.
    /// `0` selects the default of `10·k` records.
    pub max_cluster_size: usize,
    /// Whether the refining step (joint clusters / shared chunks) runs.
    pub enable_refine: bool,
    /// Cap on the refining step's passes over the cluster list; `0` selects
    /// the [`refine::RefineOptions`] default.  Whether a run hit this cap
    /// before converging is reported in
    /// [`DisassociationOutput::refine_converged`].
    pub refine_max_passes: usize,
    /// Seed for the randomized parts of the transformation (subrecord
    /// shuffling); the anonymization is deterministic given the seed.
    pub seed: u64,
    /// Terms designated as sensitive: they are excluded from horizontal
    /// partitioning decisions and always placed in term chunks (l-diversity
    /// mode, Section 5).
    pub sensitive_terms: BTreeSet<TermId>,
}

impl Default for DisassociationConfig {
    fn default() -> Self {
        DisassociationConfig {
            k: 5,
            m: 2,
            max_cluster_size: 0,
            enable_refine: true,
            refine_max_passes: 0,
            seed: 0xD15A550C,
            sensitive_terms: BTreeSet::new(),
        }
    }
}

impl DisassociationConfig {
    /// The paper's default evaluation setting: k = 5, m = 2.
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// The effective maximum cluster size.
    pub fn effective_max_cluster_size(&self) -> usize {
        if self.max_cluster_size == 0 {
            (10 * self.k).max(2)
        } else {
            self.max_cluster_size.max(2)
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), error::ConfigError> {
        if self.k < 2 {
            return Err(error::ConfigError::KTooSmall { k: self.k });
        }
        if self.m == 0 {
            return Err(error::ConfigError::MIsZero);
        }
        Ok(())
    }
}

/// Wall-clock duration of the pipeline's three phases, in seconds: the
/// durations of the `core.horpart`, `core.verpart` and `core.refine` trace
/// spans, with a named field per phase so serialized forms are
/// self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Horizontal partitioning (clustering + small-cluster merging).
    pub horpart: f64,
    /// Vertical partitioning (record/term chunk construction).
    pub verpart: f64,
    /// Refining (joint clusters / shared chunks), zero when disabled.
    pub refine: f64,
}

impl PhaseTimings {
    /// Sum of the three phases.
    pub fn total(&self) -> f64 {
        self.horpart + self.verpart + self.refine
    }

    /// Adds another timing set phase-by-phase (batch accumulation).
    pub fn accumulate(&mut self, other: PhaseTimings) {
        self.horpart += other.horpart;
        self.verpart += other.verpart;
        self.refine += other.refine;
    }
}

/// The three phases of one full anonymization run, before publication.
pub(crate) struct PhaseRun {
    /// HORPART's clusters (record indices), small ones merged.
    pub(crate) partition: HorizontalPartition,
    /// HORPART's split tree, its leaves pointing at `partition`'s clusters.
    pub(crate) tree: SplitTree,
    /// REFINE's forest, pass count and convergence flag.
    pub(crate) refined: RefineOutcome,
    /// The phase spans' durations.
    pub(crate) phases: PhaseTimings,
}

/// The result of a disassociation run.
#[derive(Debug, Clone)]
pub struct DisassociationOutput {
    /// The published dataset.
    pub dataset: DisassociatedDataset,
    /// For every simple cluster (depth-first order, matching
    /// [`DisassociatedDataset::simple_clusters`]) the indices of the original
    /// records it was built from.  This mapping is **not** part of the
    /// publication — it exists so that tests, audits and information-loss
    /// metrics can relate the published form back to the original data.
    pub cluster_assignment: Vec<Vec<usize>>,
    /// Wall-clock duration of the three phases, in seconds.
    pub phases: PhaseTimings,
    /// Number of refining passes executed (0 when refining was disabled or
    /// the forest had fewer than two clusters).
    pub refine_passes: usize,
    /// Whether the refining step reached a fixpoint before exhausting its
    /// pass limit.  `false` flags a run whose forest might still admit
    /// further joins — valid output, merely possibly under-refined.
    pub refine_converged: bool,
}

impl DisassociationOutput {
    /// Total anonymization time in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.phases.total()
    }
}

/// The disassociation anonymizer.
#[derive(Debug, Clone)]
pub struct Disassociator {
    config: DisassociationConfig,
}

impl Disassociator {
    /// Creates an anonymizer, rejecting invalid configurations with a typed
    /// [`ConfigError`] — the fallible constructor every caller outside this
    /// crate should use (or go through [`pipeline::Pipeline`], which
    /// validates on `run`).
    pub fn try_new(config: DisassociationConfig) -> Result<Self, error::ConfigError> {
        config.validate()?;
        Ok(Disassociator { config })
    }

    /// Creates an anonymizer with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`DisassociationConfig::validate`]); prefer [`Disassociator::try_new`]
    /// anywhere a panic is not acceptable.
    pub fn new(config: DisassociationConfig) -> Self {
        Self::try_new(config)
            // lint:allow(panic, "documented # Panics contract; try_new is the non-panicking form")
            .unwrap_or_else(|e| panic!("invalid disassociation configuration: {e}"))
    }

    /// The configuration.
    pub fn config(&self) -> &DisassociationConfig {
        &self.config
    }

    /// Anonymizes `dataset`, producing the published form plus bookkeeping.
    ///
    /// Clones the records once (the work clusters own their records); a
    /// caller that owns the dataset should prefer
    /// [`Disassociator::anonymize_owned`], which moves them instead.
    pub fn anonymize(&self, dataset: &Dataset) -> DisassociationOutput {
        self.anonymize_owned(dataset.clone())
    }

    /// Anonymizes an owned `dataset` without cloning any record: after
    /// horizontal partitioning the records are *moved* into their clusters
    /// (each record is built exactly once and shared — borrowed by
    /// `vertical_partition`, then owned by the [`WorkCluster`] the refining
    /// step reads).  This is the entry point the batch pipeline uses.
    pub fn anonymize_owned(&self, dataset: Dataset) -> DisassociationOutput {
        let PhaseRun {
            refined, phases, ..
        } = self.run_phases(dataset);
        let cluster_assignment: Vec<Vec<usize>> = refined
            .nodes
            .iter()
            .flat_map(|node| {
                node.simple_clusters()
                    .into_iter()
                    .map(|wc| wc.record_indices.clone())
            })
            .collect();
        let dataset = DisassociatedDataset {
            k: self.config.k,
            m: self.config.m,
            clusters: refined
                .nodes
                .into_iter()
                .map(WorkNode::into_cluster_node)
                .collect(),
        };
        if obs_trace::enabled() {
            obs_trace::event(
                obs_names::EVENT_CORE_ANONYMIZE,
                &[
                    ("records", Attr::U64(dataset.total_records() as u64)),
                    ("clusters", Attr::U64(cluster_assignment.len() as u64)),
                    ("refine_passes", Attr::U64(refined.passes_used as u64)),
                ],
            );
        }
        DisassociationOutput {
            dataset,
            cluster_assignment,
            phases,
            refine_passes: refined.passes_used,
            refine_converged: refined.converged,
        }
    }

    /// Runs HORPART → VERPART → REFINE over `dataset`, one trace span per
    /// phase, whose durations make up [`PhaseRun::phases`].  The records
    /// are moved into their clusters, never cloned.
    pub(crate) fn run_phases(&self, dataset: Dataset) -> PhaseRun {
        let cfg = &self.config;
        // Phase 1: horizontal partitioning.  Clusters smaller than k are
        // folded into a neighbour: the Lemma 1/2 padding arguments need at
        // least k records per cluster.  The split tree follows the merge so
        // appends can route through it.
        let ((partition, tree), horpart) = obs_trace::span(obs_names::SPAN_CORE_HORPART, || {
            let (mut partition, mut tree) = horizontal_partition_traced(
                &dataset,
                cfg.effective_max_cluster_size(),
                &cfg.sensitive_terms,
            );
            tree.remap_clusters(&merge_small_clusters_with_map(&mut partition, cfg.k));
            (partition, tree)
        });
        obs_counters::CORE_ANONYMIZE_RUNS.inc();
        obs_counters::CORE_HORPART_CLUSTERS.add(partition.len() as u64);

        // Phase 2: vertical partitioning, cluster by cluster.  Every record
        // moves into its cluster (the clusters partition the record
        // indices, so each slot is taken exactly once).
        let (clusters, verpart) = obs_trace::span(obs_names::SPAN_CORE_VERPART, || {
            let mut slots: Vec<Option<transact::Record>> =
                dataset.into_records().into_iter().map(Some).collect();
            let vp_options = self.verpart_options();
            partition
                .clusters
                .iter()
                .enumerate()
                .map(|(i, indices)| {
                    let records = indices
                        .iter()
                        .map(|&idx| {
                            slots[idx]
                                .take()
                                // lint:allow(panic, "the partition is a permutation of record indices, so each slot is taken exactly once")
                                .expect("horizontal partition assigns each record to one cluster")
                        })
                        .collect();
                    self.partition_one(i, indices, records, &vp_options)
                })
                .collect::<Vec<WorkCluster>>()
        });

        // Phase 3: refining.
        let (refined, refine) = obs_trace::span(obs_names::SPAN_CORE_REFINE, || {
            self.refine_forest(clusters.into_iter().map(WorkNode::Simple).collect(), 0)
        });
        obs_counters::CORE_REFINE_PASSES.add(refined.passes_used as u64);
        if !refined.converged {
            obs_counters::CORE_REFINE_CAPPED.inc();
        }
        PhaseRun {
            partition,
            tree,
            refined,
            phases: PhaseTimings {
                horpart,
                verpart,
                refine,
            },
        }
    }

    /// VERPART options of a publication under this configuration: shuffled
    /// chunks, sensitive terms forced into the term chunk.
    pub(crate) fn verpart_options(&self) -> VerPartOptions {
        VerPartOptions {
            forced_term_chunk: self.config.sensitive_terms.clone(),
            shuffle: true,
        }
    }

    /// Runs REFINE over `nodes` under this configuration, or returns them
    /// untouched (zero passes, converged) when refining is disabled.  `salt`
    /// is mixed into the REFINE seed: `0` for a full run, a per-generation
    /// value for an incremental append.
    pub(crate) fn refine_forest(&self, nodes: Vec<WorkNode>, salt: u64) -> RefineOutcome {
        let cfg = &self.config;
        if !cfg.enable_refine {
            return RefineOutcome {
                nodes,
                passes_used: 0,
                converged: true,
            };
        }
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_2EF1 ^ salt);
        let mut options = RefineOptions {
            excluded_terms: cfg.sensitive_terms.clone(),
            ..RefineOptions::default()
        };
        if cfg.refine_max_passes > 0 {
            options.max_passes = cfg.refine_max_passes;
        }
        refine(nodes, cfg.k, cfg.m, &options, &mut rng)
    }

    pub(crate) fn partition_one(
        &self,
        cluster_index: usize,
        indices: &[usize],
        records: Vec<transact::Record>,
        options: &VerPartOptions,
    ) -> WorkCluster {
        let mut rng = StdRng::seed_from_u64(
            self.config.seed ^ (cluster_index as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        let supports = transact::SupportMap::from_records(records.iter());
        let cluster = verpart::vertical_partition_with_supports(
            &records,
            &supports,
            self.config.k,
            self.config.m,
            options,
            &mut rng,
        );
        WorkCluster::with_supports(indices.to_vec(), records, cluster, &supports)
    }
}

/// Convenience wrapper: anonymize with `k`, `m` and defaults for everything
/// else.
pub fn disassociate(dataset: &Dataset, k: usize, m: usize) -> DisassociationOutput {
    Disassociator::new(DisassociationConfig {
        k,
        m,
        ..Default::default()
    })
    .anonymize(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use transact::Record;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    fn figure2_dataset() -> Dataset {
        // itunes=0, flu=1, madonna=2, audi=3, sony=4, ikea=5, viagra=6,
        // ruby=7, digital=8, panic=9, playboy=10, iphone=11.
        Dataset::from_records(vec![
            rec(&[0, 1, 2, 5, 7]),
            rec(&[2, 1, 6, 7, 3, 4]),
            rec(&[0, 2, 3, 5, 4]),
            rec(&[0, 1, 6]),
            rec(&[0, 1, 2, 3, 4]),
            rec(&[2, 8, 9, 10]),
            rec(&[11, 2, 5, 7]),
            rec(&[11, 8, 2, 10]),
            rec(&[11, 8, 9]),
            rec(&[11, 8, 2, 5, 7]),
        ])
    }

    #[test]
    fn end_to_end_on_the_papers_running_example() {
        let d = figure2_dataset();
        let output = Disassociator::new(DisassociationConfig {
            k: 3,
            m: 2,
            max_cluster_size: 6,
            ..Default::default()
        })
        .anonymize(&d);
        assert_eq!(output.dataset.total_records(), 10);
        assert!(verify::verify_structure(&output.dataset).is_ok());
        let attack = verify::verify_attack(&d, &output.dataset, &output.cluster_assignment);
        assert!(attack.is_ok(), "{:?}", attack.violations);
        // All 12 original terms survive publication.
        assert_eq!(output.dataset.all_terms().len(), 12);
    }

    #[test]
    fn convenience_function_and_defaults() {
        let d = figure2_dataset();
        let output = disassociate(&d, 3, 2);
        assert_eq!(output.dataset.k, 3);
        assert_eq!(output.dataset.m, 2);
        assert_eq!(output.dataset.total_records(), 10);
        assert!(output.total_seconds() >= 0.0);
    }

    #[test]
    fn cluster_assignment_partitions_the_record_indices() {
        let d = figure2_dataset();
        let output = disassociate(&d, 2, 2);
        let mut all: Vec<usize> = output
            .cluster_assignment
            .iter()
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(
            output.cluster_assignment.len(),
            output.dataset.simple_clusters().len()
        );
        for (indices, cluster) in output
            .cluster_assignment
            .iter()
            .zip(output.dataset.simple_clusters())
        {
            assert_eq!(indices.len(), cluster.size);
        }
    }

    #[test]
    fn same_seed_is_fully_deterministic() {
        let d = figure2_dataset();
        let cfg = DisassociationConfig {
            k: 3,
            m: 2,
            seed: 55,
            ..Default::default()
        };
        let a = Disassociator::new(cfg.clone()).anonymize(&d);
        let b = Disassociator::new(cfg).anonymize(&d);
        assert_eq!(a.dataset, b.dataset);
    }

    #[test]
    fn refine_pass_cap_non_convergence_is_observable() {
        // Three 4-record groups (distinct dominant base terms, so HorPart
        // splits them apart) sharing rare term 9: refining joins a pair in
        // pass 1, so a 1-pass cap stops with two nodes left — joins were
        // still happening and more might have been possible.
        let d = Dataset::from_records(vec![
            rec(&[1, 9]),
            rec(&[1]),
            rec(&[1]),
            rec(&[1]),
            rec(&[2, 9]),
            rec(&[2]),
            rec(&[2]),
            rec(&[2]),
            rec(&[3, 9]),
            rec(&[3]),
            rec(&[3]),
            rec(&[3]),
        ]);
        let base = DisassociationConfig {
            k: 2,
            m: 2,
            max_cluster_size: 4,
            ..Default::default()
        };
        let capped = Disassociator::new(DisassociationConfig {
            refine_max_passes: 1,
            ..base.clone()
        })
        .anonymize(&d);
        assert_eq!(capped.refine_passes, 1);
        assert!(
            !capped.refine_converged,
            "a capped run that still joined must not look converged"
        );
        assert!(
            verify::verify_structure(&capped.dataset).is_ok(),
            "a non-converged run is still a valid publication"
        );
        let full = Disassociator::new(base).anonymize(&d);
        assert!(full.refine_converged);
        assert!(
            full.refine_passes >= 2,
            "convergence takes a no-change pass after the joining pass"
        );
    }

    #[test]
    fn disabled_refine_reports_trivial_convergence() {
        let d = figure2_dataset();
        let output = Disassociator::new(DisassociationConfig {
            k: 3,
            m: 2,
            enable_refine: false,
            ..Default::default()
        })
        .anonymize(&d);
        assert_eq!(output.refine_passes, 0);
        assert!(output.refine_converged);
    }

    #[test]
    fn refining_can_be_disabled() {
        let d = figure2_dataset();
        let output = Disassociator::new(DisassociationConfig {
            k: 3,
            m: 2,
            max_cluster_size: 6,
            enable_refine: false,
            ..Default::default()
        })
        .anonymize(&d);
        assert!(output
            .dataset
            .clusters
            .iter()
            .all(|n| matches!(n, ClusterNode::Simple(_))));
        assert!(verify::verify_structure(&output.dataset).is_ok());
    }

    #[test]
    fn sensitive_terms_are_isolated_in_term_chunks() {
        let d = figure2_dataset();
        // madonna (=2) is frequent and would normally be published in record
        // chunks; mark it sensitive.
        let sensitive: BTreeSet<TermId> = [TermId::new(2)].into_iter().collect();
        let output = Disassociator::new(DisassociationConfig {
            k: 2,
            m: 2,
            sensitive_terms: sensitive.clone(),
            ..Default::default()
        })
        .anonymize(&d);
        assert!(diversity::sensitive_terms_isolated(
            &output.dataset,
            &sensitive
        ));
        assert!(diversity::achieved_diversity(&output.dataset, &sensitive).unwrap() >= 2);
        assert!(verify::verify_structure(&output.dataset).is_ok());
    }

    #[test]
    fn empty_dataset_is_handled() {
        let output = disassociate(&Dataset::new(), 3, 2);
        assert_eq!(output.dataset.total_records(), 0);
        assert!(output.dataset.clusters.is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid disassociation configuration")]
    fn k_of_one_is_rejected() {
        let _ = Disassociator::new(DisassociationConfig {
            k: 1,
            ..Default::default()
        });
    }

    #[test]
    fn config_validation_and_effective_cluster_size() {
        assert!(DisassociationConfig {
            k: 1,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DisassociationConfig {
            m: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(DisassociationConfig::paper_default().validate().is_ok());
        assert_eq!(
            DisassociationConfig {
                k: 5,
                max_cluster_size: 0,
                ..Default::default()
            }
            .effective_max_cluster_size(),
            50
        );
        assert_eq!(
            DisassociationConfig {
                max_cluster_size: 7,
                ..Default::default()
            }
            .effective_max_cluster_size(),
            7
        );
    }
}
