//! Incremental re-anonymization (appends without a full re-run).
//!
//! The paper's guarantee is argued **per cluster**: every record chunk of
//! every published cluster is k^m-anonymous on its own, and every shared
//! chunk satisfies Property 1 within its joint cluster.  Nothing about a
//! clean cluster changes when records are appended elsewhere — so an append
//! only has to re-run VERPART/REFINE on the clusters that actually receive
//! new records, and republish those.
//!
//! [`IncrementalRun`] is the retained state of one anonymization run that
//! makes this possible:
//!
//! * the recorded [`SplitTree`] routes each appended record through the
//!   *same* HORPART split criteria the base run used, picking the cluster
//!   the original clustering would have chosen;
//! * clusters keep a stable *VerPart identity* (the index that seeds their
//!   shuffle RNG), so a re-run of an untouched cluster reproduces its
//!   published bytes exactly — and an untouched cluster is simply **never
//!   re-run**;
//! * refining joins are confined to the rebuilt clusters: clean joint
//!   clusters keep their verified structure, dirty ones are dissolved and
//!   their members re-refined together with the freshly built clusters.
//!
//! ## Bounded churn
//!
//! Routing alone cannot bound how many clusters an adversarial (or merely
//! diverse) append would dirty — 5% new records could touch 80% of the
//! clusters one record at a time.  [`AppendOptions::max_dirty_fraction`]
//! therefore caps the dirty set, LSM-style: a record whose target cluster
//! would blow the budget is diverted to the *overflow* set, which is
//! HORPART-partitioned on its own and published as brand-new clusters.  New
//! clusters satisfy the guarantee by construction (VERPART + REFINE run on
//! them like on any cluster), so the cap trades utility (fewer co-clustered
//! similar records), never privacy.
//!
//! The result observability lives in [`AppendOutcome`]: how many clusters
//! were dirtied, how many were reused untouched, and how many published
//! chunks were (re)written.

use crate::error::Error;
use crate::horpart::{horizontal_partition, merge_small_clusters, SplitTree};
use crate::model::{ClusterNode, DisassociatedDataset};
use crate::pipeline::{BatchOutput, ChunkSink, Pipeline, RecordSource};
use crate::refine::{WorkCluster, WorkNode};
use crate::verpart::VerPartOptions;
use crate::{DisassociationConfig, DisassociationOutput, Disassociator, PhaseRun, PhaseTimings};
use disassoc_obs::metrics::counters as obs_counters;
use disassoc_obs::names as obs_names;
use disassoc_obs::trace::{self as obs_trace, Attr};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use transact::{Dataset, Record};

/// Options of an [`IncrementalRun::append_with`] call.
#[derive(Debug, Clone)]
pub struct AppendOptions {
    /// Upper bound on the fraction of existing clusters an append may dirty
    /// (clamped to `0.0..=1.0`; at least one cluster is always allowed).
    /// Records that would exceed the budget are published as new clusters
    /// instead of being absorbed into existing ones.
    pub max_dirty_fraction: f64,
}

impl Default for AppendOptions {
    fn default() -> Self {
        AppendOptions {
            max_dirty_fraction: 0.2,
        }
    }
}

/// What one append did — the observability contract of the incremental path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct AppendOutcome {
    /// Records appended by this call.
    pub appended_records: usize,
    /// Pre-existing clusters that received records and were re-run through
    /// VERPART/REFINE (including clean members of dissolved joint clusters).
    pub dirty_clusters: usize,
    /// Pre-existing clusters left completely untouched (their published
    /// bytes were reused, not recomputed).
    pub reused_clusters: usize,
    /// Clusters newly created for overflow records and local re-splits.
    pub new_clusters: usize,
    /// Published top-level chunks (cluster nodes) written by this append;
    /// everything else kept its prior published form.
    pub republished_chunks: usize,
    /// Total clusters after the append.
    pub total_clusters: usize,
}

impl AppendOutcome {
    fn reuse_all(total: usize) -> Self {
        AppendOutcome {
            appended_records: 0,
            dirty_clusters: 0,
            reused_clusters: total,
            new_clusters: 0,
            republished_chunks: 0,
            total_clusters: total,
        }
    }

    /// Fraction of the pre-append clusters this append re-ran (0.0 when
    /// there were none).
    pub fn dirty_fraction(&self) -> f64 {
        let base = self.dirty_clusters + self.reused_clusters;
        if base == 0 {
            0.0
        } else {
            self.dirty_clusters as f64 / base as f64
        }
    }

    fn absorb(&mut self, other: &AppendOutcome) {
        self.appended_records += other.appended_records;
        self.dirty_clusters += other.dirty_clusters;
        self.reused_clusters += other.reused_clusters;
        self.new_clusters += other.new_clusters;
        self.republished_chunks += other.republished_chunks;
        self.total_clusters += other.total_clusters;
    }
}

/// One simple cluster's retained identity across appends.
#[derive(Debug, Clone)]
struct ClusterSlot {
    /// The index that seeds this cluster's VERPART RNG — stable for the
    /// cluster's lifetime, so untouched clusters keep reproducible bytes.
    verpart_index: usize,
    /// Global indices (into [`IncrementalRun::records`]) of the cluster's
    /// records, in cluster order.
    record_indices: Vec<usize>,
}

/// One published top-level node plus the slots it was built from.
#[derive(Debug, Clone)]
struct NodeSlot {
    published: ClusterNode,
    /// Member slot ids, in the node's depth-first simple-cluster order.
    members: Vec<usize>,
    /// The append generation that (re)published this node (0 = base run).
    generation: u64,
}

/// The retained state of an anonymization run that can absorb appends.
///
/// Built by [`Disassociator::anonymize_incremental`]; the base publication
/// is byte-identical to [`Disassociator::anonymize`] on the same records.
/// Each [`append`](IncrementalRun::append) then routes the new records
/// through the recorded HORPART splits, re-runs VERPART/REFINE on the dirty
/// clusters only, and swaps exactly those published chunks.
#[derive(Debug, Clone)]
pub struct IncrementalRun {
    disassociator: Disassociator,
    /// Every record ever seen (base + appends), in arrival order.
    records: Vec<Record>,
    tree: SplitTree,
    slots: Vec<ClusterSlot>,
    nodes: Vec<NodeSlot>,
    next_verpart_index: usize,
    generation: u64,
    phases: PhaseTimings,
    refine_passes: usize,
    refine_converged: bool,
}

impl IncrementalRun {
    /// Runs the full anonymization on `dataset`, retaining the state needed
    /// for incremental appends.  The published form equals
    /// `disassociator.anonymize(&dataset).dataset` byte for byte.
    pub fn build(disassociator: Disassociator, dataset: Dataset) -> Self {
        // The phases consume the dataset; the run keeps every record for
        // later re-splits, so they are cloned once, up front.
        let records: Vec<Record> = dataset.records().to_vec();
        let PhaseRun {
            partition,
            tree,
            refined,
            phases,
        } = disassociator.run_phases(dataset);

        // Capture the retained state: clusters keep their HORPART index as
        // VerPart identity, nodes remember which slots compose them.  A
        // cluster is identified by its first record index (clusters
        // partition the records, so it is unique).
        let first_to_slot: HashMap<usize, usize> = partition
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (c[0], i))
            .collect();
        let mut slots: Vec<ClusterSlot> = partition
            .clusters
            .iter()
            .enumerate()
            .map(|(i, indices)| ClusterSlot {
                verpart_index: i,
                record_indices: indices.clone(),
            })
            .collect();
        let node_slots: Vec<NodeSlot> = refined
            .nodes
            .into_iter()
            .map(|node| {
                let members: Vec<usize> = node
                    .simple_clusters()
                    .iter()
                    .map(|wc| {
                        let slot = first_to_slot[&wc.record_indices[0]];
                        // Refine may reorder records conceptually; record the
                        // authoritative per-cluster order the node publishes.
                        slots[slot].record_indices = wc.record_indices.clone();
                        slot
                    })
                    .collect();
                NodeSlot {
                    published: node.into_cluster_node(),
                    members,
                    generation: 0,
                }
            })
            .collect();

        let next_verpart_index = slots.len();
        IncrementalRun {
            disassociator,
            records,
            tree,
            slots,
            nodes: node_slots,
            next_verpart_index,
            generation: 0,
            phases,
            refine_passes: refined.passes_used,
            refine_converged: refined.converged,
        }
    }

    /// The configuration of the underlying anonymizer.
    pub fn config(&self) -> &DisassociationConfig {
        self.disassociator.config()
    }

    /// All records seen so far (base + appends), in arrival order.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Current number of simple clusters.
    pub fn cluster_count(&self) -> usize {
        self.slots.len()
    }

    /// Current number of published top-level chunks (cluster nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of appends performed so far.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative per-phase timings across the base run and all appends.
    pub fn phases(&self) -> PhaseTimings {
        self.phases
    }

    /// Per published node: the append generation that last wrote it
    /// (0 = unchanged since the base run).  The clean-chunk invariant is
    /// directly observable here: a node whose generation did not change has
    /// not been republished.
    pub fn node_generations(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.generation).collect()
    }

    /// The current published dataset.
    pub fn published_dataset(&self) -> DisassociatedDataset {
        let cfg = self.config();
        DisassociatedDataset {
            k: cfg.k,
            m: cfg.m,
            clusters: self.nodes.iter().map(|n| n.published.clone()).collect(),
        }
    }

    /// The current publication plus assignment bookkeeping, in the shape of
    /// a one-shot [`DisassociationOutput`] (phase timings are cumulative
    /// across the base run and all appends).
    pub fn output(&self) -> DisassociationOutput {
        DisassociationOutput {
            dataset: self.published_dataset(),
            cluster_assignment: self.assignment(),
            phases: self.phases,
            refine_passes: self.refine_passes,
            refine_converged: self.refine_converged,
        }
    }

    /// For every simple cluster (depth-first over the published nodes) the
    /// indices of the records it was built from.
    pub fn assignment(&self) -> Vec<Vec<usize>> {
        self.nodes
            .iter()
            .flat_map(|n| {
                n.members
                    .iter()
                    .map(|&s| self.slots[s].record_indices.clone())
            })
            .collect()
    }

    /// How strongly `record` matches this run's recorded HORPART splits: the
    /// number of split terms it contains along its routing path (`None` when
    /// the run has no recorded splits, i.e. was built on an empty dataset).
    pub fn route_affinity(&self, record: &Record) -> Option<usize> {
        self.tree.route(record).map(|(_, depth)| depth)
    }

    /// Appends `new_records` with default [`AppendOptions`].
    pub fn append(&mut self, new_records: &[Record]) -> AppendOutcome {
        self.append_with(new_records, &AppendOptions::default())
    }

    /// Appends `new_records`: routes them through the recorded HORPART
    /// splits, re-runs VERPART/REFINE on the dirty clusters only (bounded by
    /// [`AppendOptions::max_dirty_fraction`]), publishes overflow records as
    /// new clusters, and swaps exactly the dirty published chunks.
    ///
    /// An empty `new_records` changes nothing — the published dataset stays
    /// byte-identical and no chunk is republished.
    pub fn append_with(
        &mut self,
        new_records: &[Record],
        options: &AppendOptions,
    ) -> AppendOutcome {
        let total_before = self.slots.len();
        if new_records.is_empty() {
            return AppendOutcome::reuse_all(total_before);
        }
        self.generation += 1;
        obs_counters::INCR_APPENDS.inc();
        let cfg = self.disassociator.config().clone();
        let budget = ((options.max_dirty_fraction.clamp(0.0, 1.0) * total_before as f64).floor()
            as usize)
            .max(1);

        // Phase 1: route every new record; absorb while the dirty budget
        // allows, divert to the overflow set afterwards.  Dirtying a cluster
        // dirties its whole published node (a joint cluster's shared chunks
        // depend on every member), so the budget is charged per node-member.
        let ((mut absorbed, overflow, dirty_nodes, dirty_slots), horpart) =
            obs_trace::span(obs_names::SPAN_CORE_HORPART, || {
                let slot_to_node = self.slot_to_node();
                let mut absorbed: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                let mut overflow: Vec<usize> = Vec::new();
                let mut dirty_nodes: BTreeSet<usize> = BTreeSet::new();
                let mut dirty_members = 0usize;
                for record in new_records {
                    let global = self.records.len();
                    self.records.push(record.clone());
                    match self.tree.route(record) {
                        None => overflow.push(global),
                        Some((slot, _)) => {
                            obs_counters::INCR_ROUTED_RECORDS.inc();
                            let node = slot_to_node[slot];
                            if dirty_nodes.contains(&node) {
                                absorbed.entry(slot).or_default().push(global);
                            } else {
                                let cost = self.nodes[node].members.len();
                                if dirty_members + cost <= budget {
                                    dirty_nodes.insert(node);
                                    dirty_members += cost;
                                    absorbed.entry(slot).or_default().push(global);
                                } else {
                                    obs_counters::INCR_BUDGET_OVERFLOWS.inc();
                                    overflow.push(global);
                                }
                            }
                        }
                    }
                }
                let dirty_slots: BTreeSet<usize> = dirty_nodes
                    .iter()
                    .flat_map(|&n| self.nodes[n].members.iter().copied())
                    .collect();
                (absorbed, overflow, dirty_nodes, dirty_slots)
            });
        let dirty_count = dirty_slots.len();

        // Phase 2: rebuild the dirty slots (VERPART with their retained seed
        // identity), re-splitting any cluster the absorption pushed past the
        // HORPART size bound, then partition the overflow into new clusters.
        let ((work, touched_slots, new_clusters), verpart) =
            obs_trace::span(obs_names::SPAN_CORE_VERPART, || {
                let vp_options = self.disassociator.verpart_options();
                let mut work: Vec<WorkCluster> = Vec::new();
                let mut touched_slots: Vec<usize> = Vec::new();
                let mut new_clusters = 0usize;
                for &slot in &dirty_slots {
                    let mut indices = std::mem::take(&mut self.slots[slot].record_indices);
                    if let Some(extra) = absorbed.remove(&slot) {
                        indices.extend(extra);
                    }
                    if indices.len() > cfg.effective_max_cluster_size() {
                        // Local re-split with the same HORPART criteria; the
                        // first sub-cluster inherits the slot (and its
                        // routing leaf), the rest become new clusters.
                        let local = Dataset::from_records(
                            indices.iter().map(|&g| self.records[g].clone()).collect(),
                        );
                        let mut part = horizontal_partition(
                            &local,
                            cfg.effective_max_cluster_size(),
                            &cfg.sensitive_terms,
                        );
                        merge_small_clusters(&mut part, cfg.k);
                        for (j, local_indices) in part.clusters.iter().enumerate() {
                            let global: Vec<usize> =
                                local_indices.iter().map(|&li| indices[li]).collect();
                            let target = if j == 0 { slot } else { self.new_slot() };
                            if j > 0 {
                                new_clusters += 1;
                            }
                            self.slots[target].record_indices = global;
                            work.push(self.build_work_cluster(target, &vp_options));
                            touched_slots.push(target);
                        }
                    } else {
                        self.slots[slot].record_indices = indices;
                        work.push(self.build_work_cluster(slot, &vp_options));
                        touched_slots.push(slot);
                    }
                }
                if !overflow.is_empty() {
                    let local = Dataset::from_records(
                        overflow.iter().map(|&g| self.records[g].clone()).collect(),
                    );
                    let mut part = horizontal_partition(
                        &local,
                        cfg.effective_max_cluster_size(),
                        &cfg.sensitive_terms,
                    );
                    merge_small_clusters(&mut part, cfg.k);
                    for local_indices in &part.clusters {
                        let global: Vec<usize> =
                            local_indices.iter().map(|&li| overflow[li]).collect();
                        let target = self.new_slot();
                        new_clusters += 1;
                        self.slots[target].record_indices = global;
                        work.push(self.build_work_cluster(target, &vp_options));
                        touched_slots.push(target);
                    }
                }
                (work, touched_slots, new_clusters)
            });

        // Phase 3: refine the rebuilt forest among itself.  Clean nodes keep
        // their verified structure; the dirty generation gets its own RNG
        // stream so repeated appends stay deterministic.
        let salt = self.generation.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let (refined, refine) = obs_trace::span(obs_names::SPAN_CORE_REFINE, || {
            self.disassociator
                .refine_forest(work.into_iter().map(WorkNode::Simple).collect(), salt)
        });
        self.refine_passes = self.refine_passes.max(refined.passes_used);
        self.refine_converged &= refined.converged;

        // Phase 4: swap the publication — drop the dissolved dirty nodes,
        // keep every clean node untouched, append the rebuilt ones.
        let first_to_slot: HashMap<usize, usize> = touched_slots
            .iter()
            .map(|&s| (self.slots[s].record_indices[0], s))
            .collect();
        let keep: Vec<NodeSlot> = std::mem::take(&mut self.nodes)
            .into_iter()
            .enumerate()
            .filter_map(|(i, n)| (!dirty_nodes.contains(&i)).then_some(n))
            .collect();
        self.nodes = keep;
        let mut republished = 0usize;
        for node in refined.nodes {
            let members: Vec<usize> = node
                .simple_clusters()
                .iter()
                .map(|wc| {
                    let slot = first_to_slot[&wc.record_indices[0]];
                    self.slots[slot].record_indices = wc.record_indices.clone();
                    slot
                })
                .collect();
            self.nodes.push(NodeSlot {
                published: node.into_cluster_node(),
                members,
                generation: self.generation,
            });
            republished += 1;
        }

        self.phases.accumulate(PhaseTimings {
            horpart,
            verpart,
            refine,
        });
        obs_counters::INCR_DIRTY_CLUSTERS.add(dirty_count as u64);
        let outcome = AppendOutcome {
            appended_records: new_records.len(),
            dirty_clusters: dirty_count,
            reused_clusters: total_before - dirty_count,
            new_clusters,
            republished_chunks: republished,
            total_clusters: self.slots.len(),
        };
        if obs_trace::enabled() {
            obs_trace::event(
                disassoc_obs::names::EVENT_INCR_APPEND,
                &[
                    ("generation", Attr::U64(self.generation)),
                    ("appended", Attr::U64(outcome.appended_records as u64)),
                    ("dirty", Attr::U64(outcome.dirty_clusters as u64)),
                    ("reused", Attr::U64(outcome.reused_clusters as u64)),
                    ("new", Attr::U64(outcome.new_clusters as u64)),
                    ("republished", Attr::U64(outcome.republished_chunks as u64)),
                ],
            );
        }
        outcome
    }

    fn new_slot(&mut self) -> usize {
        let verpart_index = self.next_verpart_index;
        self.next_verpart_index += 1;
        self.slots.push(ClusterSlot {
            verpart_index,
            record_indices: Vec::new(),
        });
        self.slots.len() - 1
    }

    fn build_work_cluster(&self, slot: usize, options: &VerPartOptions) -> WorkCluster {
        let s = &self.slots[slot];
        let records: Vec<Record> = s
            .record_indices
            .iter()
            .map(|&g| self.records[g].clone())
            .collect();
        self.disassociator
            .partition_one(s.verpart_index, &s.record_indices, records, options)
    }

    /// Slot id → index of the published node containing it.
    fn slot_to_node(&self) -> Vec<usize> {
        let mut map = vec![usize::MAX; self.slots.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &s in &node.members {
                map[s] = i;
            }
        }
        debug_assert!(map.iter().all(|&n| n != usize::MAX));
        map
    }
}

impl Disassociator {
    /// Like [`Disassociator::anonymize_owned`], but returns an
    /// [`IncrementalRun`] that retains the state needed to absorb appends
    /// without re-running the untouched clusters.  The initial publication
    /// is byte-identical to the one-shot path.
    pub fn anonymize_incremental(&self, dataset: Dataset) -> IncrementalRun {
        IncrementalRun::build(self.clone(), dataset)
    }
}

/// The batched twin of [`IncrementalRun`]: one retained run per pipeline
/// batch, with appended records routed to the batch whose recorded HORPART
/// splits they match best.  Only dirty batches are re-anonymized, and
/// [`publish_dirty`](IncrementalPipeline::publish_dirty) delivers only those
/// to the sink.  Built by [`Pipeline::build_incremental`], on the same batch
/// driver and thread budget as a full [`Pipeline::run`].
#[derive(Debug, Clone)]
pub struct IncrementalPipeline {
    disassociator: Disassociator,
    batches: Vec<IncrementalRun>,
    dirty: Vec<bool>,
}

impl IncrementalPipeline {
    /// Runs the full batched anonymization over `source`, retaining
    /// per-batch state: `Pipeline::new(config).source(source)`
    /// [`.build_incremental()`](crate::pipeline::Pipeline::build_incremental)
    /// on one worker thread.
    pub fn build<S: RecordSource + ?Sized>(
        config: DisassociationConfig,
        mut source: &mut S,
    ) -> Result<Self, Error> {
        Pipeline::new(config)
            .source(&mut source)
            .build_incremental()
    }

    /// Wraps the per-batch runs of a finished build.  Every batch starts out
    /// dirty (nothing has been delivered to a sink yet); the first publish
    /// clears the flags.
    pub(crate) fn from_runs(disassociator: Disassociator, batches: Vec<IncrementalRun>) -> Self {
        let dirty = vec![true; batches.len()];
        IncrementalPipeline {
            disassociator,
            batches,
            dirty,
        }
    }

    /// Number of batches.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// The per-batch retained runs.
    pub fn batches(&self) -> &[IncrementalRun] {
        &self.batches
    }

    /// Indices of the batches that changed since the last publish.
    pub fn dirty_batches(&self) -> Vec<usize> {
        self.dirty
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i))
            .collect()
    }

    /// Total simple clusters across batches.
    pub fn cluster_count(&self) -> usize {
        self.batches.iter().map(IncrementalRun::cluster_count).sum()
    }

    /// Appends with default [`AppendOptions`].
    pub fn append(&mut self, new_records: &[Record]) -> AppendOutcome {
        self.append_with(new_records, &AppendOptions::default())
    }

    /// Routes the append **as a unit** to the batch whose recorded splits
    /// match it best in aggregate (ties to the earliest batch) and appends
    /// every record there.  Chunk publication is batch-grained, so keeping
    /// one append inside one batch bounds its republish cost to a single
    /// chunk rewrite no matter how many batches the pipeline holds; the
    /// chosen batch's retained split tree still routes each record to its
    /// own cluster, which is where utility is actually decided.  Per-batch
    /// dirtiness is visible through
    /// [`dirty_batches`](IncrementalPipeline::dirty_batches).
    pub fn append_with(
        &mut self,
        new_records: &[Record],
        options: &AppendOptions,
    ) -> AppendOutcome {
        if new_records.is_empty() {
            return AppendOutcome::reuse_all(self.cluster_count());
        }
        if self.batches.is_empty() {
            self.batches.push(IncrementalRun::build(
                self.disassociator.clone(),
                Dataset::new(),
            ));
            self.dirty.push(true);
        }
        let best = self
            .batches
            .iter()
            .enumerate()
            .max_by_key(|(i, run)| {
                // Highest aggregate affinity wins; ties go to the earliest
                // batch.
                let affinity: usize = new_records
                    .iter()
                    .map(|record| run.route_affinity(record).map_or(0, |d| d + 1))
                    .sum();
                (affinity, usize::MAX - *i)
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let mut total = AppendOutcome::reuse_all(0);
        for (i, run) in self.batches.iter_mut().enumerate() {
            if i == best {
                let outcome = run.append_with(new_records, options);
                self.dirty[i] = true;
                total.absorb(&outcome);
            } else {
                total.reused_clusters += run.cluster_count();
                total.total_clusters += run.cluster_count();
            }
        }
        total
    }

    /// Delivers **every** batch to `sink` (then `finish`) and marks all
    /// batches clean.
    pub fn publish_all<K: ChunkSink + ?Sized>(&mut self, sink: &mut K) -> Result<usize, Error> {
        let all = (0..self.batches.len()).collect::<Vec<_>>();
        self.publish(&all, sink)
    }

    /// Delivers only the batches dirtied since the last publish (then
    /// `finish`), marking them clean; returns how many were delivered.
    /// Clean batches are never re-sent — the sink-side twin of the
    /// clean-chunk invariant.
    pub fn publish_dirty<K: ChunkSink + ?Sized>(&mut self, sink: &mut K) -> Result<usize, Error> {
        let dirty = self.dirty_batches();
        self.publish(&dirty, sink)
    }

    fn publish<K: ChunkSink + ?Sized>(
        &mut self,
        batch_indices: &[usize],
        sink: &mut K,
    ) -> Result<usize, Error> {
        let offsets = self.record_offsets();
        for &i in batch_indices {
            sink.accept(BatchOutput {
                batch_index: i,
                record_offset: offsets[i],
                output: self.batches[i].output(),
            })
            .map_err(Error::Sink)?;
        }
        sink.finish().map_err(Error::Sink)?;
        for &i in batch_indices {
            self.dirty[i] = false;
        }
        Ok(batch_indices.len())
    }

    /// Record offset of each batch in the canonical (batch-concatenated)
    /// order.  Appends grow batches in place, so offsets describe the
    /// *current* layout, not the historical arrival order.
    pub fn record_offsets(&self) -> Vec<usize> {
        let mut offsets = Vec::with_capacity(self.batches.len());
        let mut acc = 0usize;
        for run in &self.batches {
            offsets.push(acc);
            acc += run.records().len();
        }
        offsets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::DatasetSource;
    use crate::verify::verify_structure;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use transact::TermId;

    fn synthetic(n: usize, domain: u32, seed: u64) -> Vec<Record> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let len = rng.gen_range(1..=6);
                let mut r = Record::new();
                for _ in 0..len {
                    // Zipf-ish skew: square the uniform draw.
                    let u: f64 = rng.gen();
                    r.insert(TermId::new((u * u * domain as f64) as u32));
                }
                r
            })
            .collect()
    }

    fn config(k: usize, m: usize) -> DisassociationConfig {
        DisassociationConfig {
            k,
            m,
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn base_build_matches_one_shot_anonymization_byte_for_byte() {
        let records = synthetic(400, 60, 1);
        let dataset = Dataset::from_records(records);
        let disassociator = Disassociator::new(config(3, 2));
        let one_shot = disassociator.anonymize(&dataset);
        let run = disassociator.anonymize_incremental(dataset);
        assert_eq!(
            serde_json::to_vec(&run.published_dataset()).unwrap(),
            serde_json::to_vec(&one_shot.dataset).unwrap()
        );
        assert_eq!(run.assignment(), one_shot.cluster_assignment);
    }

    #[test]
    fn empty_append_republishes_nothing() {
        let records = synthetic(300, 50, 2);
        let disassociator = Disassociator::new(config(3, 2));
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(records));
        let before = serde_json::to_vec(&run.published_dataset()).unwrap();
        let outcome = run.append(&[]);
        assert_eq!(outcome.dirty_clusters, 0);
        assert_eq!(outcome.republished_chunks, 0);
        assert_eq!(outcome.reused_clusters, outcome.total_clusters);
        assert_eq!(
            serde_json::to_vec(&run.published_dataset()).unwrap(),
            before
        );
        assert!(run.node_generations().iter().all(|&g| g == 0));
    }

    #[test]
    fn append_preserves_clean_chunks_and_verifies() {
        let records = synthetic(500, 70, 3);
        let (base, delta) = records.split_at(450);
        let disassociator = Disassociator::new(config(3, 2));
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(base.to_vec()));
        let clean_before: Vec<(u64, Vec<u8>)> = run
            .node_generations()
            .into_iter()
            .zip(
                run.published_dataset()
                    .clusters
                    .iter()
                    .map(|c| serde_json::to_vec(c).unwrap()),
            )
            .collect();
        let outcome = run.append(delta);
        assert_eq!(outcome.appended_records, delta.len());
        assert!(outcome.dirty_clusters > 0 || outcome.new_clusters > 0);
        let report = verify_structure(&run.published_dataset());
        assert!(report.is_ok(), "append broke the guarantee: {report:?}");

        // Every clean (generation-0 surviving) chunk kept its exact bytes.
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
        let before_set: BTreeSet<&Vec<u8>> = clean_before.iter().map(|(_, b)| b).collect();
        for (generation, bytes) in &after {
            if *generation == 0 {
                assert!(
                    before_set.contains(bytes),
                    "a generation-0 chunk changed bytes"
                );
            }
        }
        assert_eq!(
            after.iter().filter(|(g, _)| *g == 1).count(),
            outcome.republished_chunks
        );

        // Every record (base + appended) is assigned exactly once.
        let mut seen: Vec<usize> = run.assignment().into_iter().flatten().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..records.len()).collect::<Vec<_>>());
    }

    #[test]
    fn dirty_budget_is_respected() {
        let records = synthetic(800, 40, 4);
        let (base, delta) = records.split_at(600);
        let disassociator = Disassociator::new(config(3, 2));
        let mut run = disassociator.anonymize_incremental(Dataset::from_records(base.to_vec()));
        let options = AppendOptions {
            max_dirty_fraction: 0.25,
        };
        let base_clusters = run.cluster_count();
        let outcome = run.append_with(delta, &options);
        assert!(
            outcome.dirty_clusters as f64 <= (0.25 * base_clusters as f64).floor().max(1.0),
            "dirty {} of {base_clusters}",
            outcome.dirty_clusters
        );
        assert!(verify_structure(&run.published_dataset()).is_ok());
    }

    #[test]
    fn append_to_empty_base_publishes_new_clusters() {
        let disassociator = Disassociator::new(config(2, 1));
        let mut run = disassociator.anonymize_incremental(Dataset::new());
        let outcome = run.append(&synthetic(40, 12, 5));
        assert_eq!(outcome.dirty_clusters, 0);
        assert!(outcome.new_clusters > 0);
        assert!(verify_structure(&run.published_dataset()).is_ok());
        assert_eq!(run.records().len(), 40);
    }

    #[test]
    fn repeated_appends_stay_deterministic() {
        let records = synthetic(400, 50, 6);
        let (base, rest) = records.split_at(300);
        let (d1, d2) = rest.split_at(50);
        let disassociator = Disassociator::new(config(3, 2));
        let build = |d1: &[Record], d2: &[Record]| {
            let mut run = disassociator.anonymize_incremental(Dataset::from_records(base.to_vec()));
            run.append(d1);
            run.append(d2);
            serde_json::to_vec(&run.published_dataset()).unwrap()
        };
        assert_eq!(build(d1, d2), build(d1, d2));
    }

    #[test]
    fn pipeline_routes_appends_and_republishes_only_dirty_batches() {
        // Two batches over disjoint vocabularies; appends matching the
        // second batch's vocabulary must dirty only that batch.
        let mut records: Vec<Record> = synthetic(200, 30, 7);
        records.extend(
            synthetic(200, 30, 8)
                .into_iter()
                .map(|r| Record::from_ids(r.iter().map(|t| TermId::new(t.raw() + 1000)))),
        );
        let dataset = Dataset::from_records(records);
        let mut source = DatasetSource::new(&dataset, 200);
        let mut pipeline = IncrementalPipeline::build(config(3, 2), &mut source).unwrap();
        assert_eq!(pipeline.batch_count(), 2);

        let mut sink = crate::pipeline::CollectSink::for_config(pipeline.disassociator.config());
        pipeline.publish_all(&mut sink).unwrap();
        assert!(pipeline.dirty_batches().is_empty());

        let delta: Vec<Record> = synthetic(30, 30, 9)
            .into_iter()
            .map(|r| {
                // Offset into the second batch's vocabulary and pin the
                // dominant term so routing affinity is never ambiguous.
                let mut r = Record::from_ids(r.iter().map(|t| TermId::new(t.raw() + 1000)));
                r.insert(TermId::new(1000));
                r
            })
            .collect();
        let outcome = pipeline.append(&delta);
        assert_eq!(outcome.appended_records, 30);
        assert_eq!(pipeline.dirty_batches(), vec![1]);

        let mut delivered: Vec<usize> = Vec::new();
        let mut sink = crate::pipeline::FnSink::new(|b: BatchOutput| {
            delivered.push(b.batch_index);
        });
        pipeline.publish_dirty(&mut sink).unwrap();
        let _ = sink;
        assert_eq!(delivered, vec![1]);
        assert!(pipeline.dirty_batches().is_empty());
        let mut combined =
            crate::pipeline::CollectSink::for_config(pipeline.disassociator.config());
        pipeline.publish_all(&mut combined).unwrap();
        assert!(verify_structure(&combined.into_output().dataset).is_ok());
    }
}
