//! REFINE — joint clusters and shared chunks (Algorithm REFINE, Section 4).
//!
//! After vertical partitioning, low-support terms sit in term chunks where
//! their multiplicities are hidden.  Terms that are rare *within* a cluster
//! may still be frequent *across* clusters (the paper's ikea/ruby example).
//! The refining step merges clusters into **joint clusters** and publishes
//! such terms in **shared chunks**, recovering their supports without
//! weakening the guarantee:
//!
//! * two (simple or joint) clusters are merged only when Equation 1 holds —
//!   the probability of attributing a refining term to a record of the joint
//!   cluster must not drop below the probability in the original clusters;
//! * shared chunks are built over the *common term-chunk terms* with the same
//!   greedy procedure as VERPART; Property 1 additionally requires plain
//!   k-anonymity for a shared chunk whose domain intersects `T^r` (the terms
//!   already published in record or shared chunks below the joint), which
//!   closes the inference channel illustrated in Figure 5a.
//!
//! ## One procedure, two ways to feed it
//!
//! [`refine`] and [`refine_reference`] run the same procedure: one pass loop
//! (order, try adjacent pairs, stop at a fixpoint or the pass cap), one
//! term-chunk ordering, one Equation 1 + candidate-order selection, VERPART's
//! greedy chunk builder for the shared chunks, and one placed-term removal
//! with its Lemma 2 repair.  They differ only in where the inputs of that
//! procedure come from.
//!
//! [`refine`] reads them from **cached, incrementally maintained
//! metadata**:
//!
//! * every [`WorkCluster`] carries its per-term supports (compact, sorted by
//!   term id), built once — joint supports become lookups instead of record
//!   scans;
//! * every working node caches its `size`, virtual term chunk and `T^r` set,
//!   merged in `O(|child sets|)` when two nodes join (and only recomputed
//!   from the tree in the rare case a Lemma 2 repair fires);
//! * one pooled [`CheckerScratch`] is reused across all join attempts, and
//!   the Property 1 k-anonymity trial runs on the checker's incrementally
//!   maintained projection-equality groups instead of cloning the full
//!   projection set per candidate term.
//!
//! [`refine_reference`] is the pre-index formulation of exactly those
//! inputs: it walks subtrees for every virtual term chunk and `T^r`, scans
//! raw records for joint supports, materializes every Property 1 trial and
//! calls [`is_k_anonymous`] on it, and builds a fresh unpooled checker per
//! join.  It is the property-tested oracle ([`refine`] must produce
//! byte-identical forests) and the baseline of the `refine_ubench` benchmark
//! series.  Both use the **exact** Equation 1 predicate [`equation1_holds`] —
//! the original `f64` division could flip a join decision near the boundary
//! on large joint clusters.

use crate::anonymity::{is_k_anonymous, CheckerScratch, IncrementalChecker};
use crate::model::{Cluster, ClusterNode, JointCluster, RecordChunk, SharedChunk};
use crate::verpart::{enforce_lemma2, greedy_chunks, lemma2_holds};
use disassoc_obs::metrics::counters as obs_counters;
use rand::Rng;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use transact::{Record, SupportMap, TermId};

/// A simple cluster in the working (pre-publication) representation: the
/// published [`Cluster`] plus the original records it was built from, which
/// the refining step needs in order to project refining terms into shared
/// chunks.
#[derive(Debug, Clone)]
pub struct WorkCluster {
    /// Indices of the original records (into the input dataset).
    pub record_indices: Vec<usize>,
    /// The original records of this cluster.
    pub records: Vec<Record>,
    /// The vertical-partitioning result.
    pub cluster: Cluster,
    /// Per-term supports over `records` (sorted by term id), built once at
    /// construction — the index behind REFINE's joint-support lookups.
    /// Compact on purpose: a dense [`SupportMap`] is sized by the *global*
    /// term universe, which per retained cluster would dwarf the records.
    supports: Vec<(TermId, u32)>,
}

impl WorkCluster {
    /// Creates a work cluster, indexing the per-term supports of `records`.
    pub fn new(record_indices: Vec<usize>, records: Vec<Record>, cluster: Cluster) -> Self {
        let supports = SupportMap::from_records(records.iter());
        Self::with_supports(record_indices, records, cluster, &supports)
    }

    /// [`WorkCluster::new`] with a precomputed support map (the pipeline
    /// reuses the one `vertical_partition_with_supports` already counted).
    ///
    /// `supports` must equal `SupportMap::from_records(records.iter())`.
    pub fn with_supports(
        record_indices: Vec<usize>,
        records: Vec<Record>,
        cluster: Cluster,
        supports: &SupportMap,
    ) -> Self {
        debug_assert!({
            let fresh = SupportMap::from_records(records.iter());
            // Both directions: every record term has the right count AND the
            // given map has no extra nonzero terms (e.g. one counted over a
            // superset of `records`).
            records
                .iter()
                .flat_map(|r| r.iter())
                .all(|t| fresh.support(t) == supports.support(t))
                && supports.iter_nonzero().all(|(t, s)| fresh.support(t) == s)
        });
        WorkCluster {
            record_indices,
            records,
            cluster,
            supports: supports
                .iter_nonzero()
                .map(|(t, s)| (t, s as u32))
                .collect(),
        }
    }

    /// The cached support of `t` among this cluster's records.
    pub fn support_of(&self, t: TermId) -> u64 {
        match self.supports.binary_search_by_key(&t, |&(term, _)| term) {
            Ok(pos) => self.supports[pos].1 as u64,
            Err(_) => 0,
        }
    }
}

/// A node of the working forest.
#[derive(Debug, Clone)]
pub enum WorkNode {
    /// A simple cluster.
    Simple(WorkCluster),
    /// A joint cluster created by the refining step.
    Joint {
        /// Children (simple or joint).
        children: Vec<WorkNode>,
        /// Shared chunks created for this joint.
        shared: Vec<SharedChunk>,
    },
}

impl WorkNode {
    /// Total number of original records under this node.
    pub fn size(&self) -> usize {
        match self {
            WorkNode::Simple(w) => w.records.len(),
            WorkNode::Joint { children, .. } => children.iter().map(WorkNode::size).sum(),
        }
    }

    /// The simple clusters below this node (depth-first).
    pub fn simple_clusters(&self) -> Vec<&WorkCluster> {
        let mut out = Vec::new();
        self.collect_simple(&mut out);
        out
    }

    fn collect_simple<'a>(&'a self, out: &mut Vec<&'a WorkCluster>) {
        match self {
            WorkNode::Simple(w) => out.push(w),
            WorkNode::Joint { children, .. } => {
                for c in children {
                    c.collect_simple(out);
                }
            }
        }
    }

    fn collect_simple_mut<'a>(&'a mut self, out: &mut Vec<&'a mut WorkCluster>) {
        match self {
            WorkNode::Simple(w) => out.push(w),
            WorkNode::Joint { children, .. } => {
                for c in children {
                    c.collect_simple_mut(out);
                }
            }
        }
    }

    /// The virtual term chunk: union of the term chunks of the simple
    /// clusters below this node.
    pub fn virtual_term_chunk(&self) -> BTreeSet<TermId> {
        self.simple_clusters()
            .iter()
            .flat_map(|w| w.cluster.term_chunk.terms.iter().copied())
            .collect()
    }

    /// The set `T^r` of Property 1: terms published in record chunks or
    /// shared chunks anywhere below this node.
    pub fn record_and_shared_terms(&self) -> BTreeSet<TermId> {
        let mut set: BTreeSet<TermId> = BTreeSet::new();
        match self {
            WorkNode::Simple(w) => set.extend(w.cluster.record_chunk_terms()),
            WorkNode::Joint { children, shared } => {
                for s in shared {
                    set.extend(s.chunk.domain.iter().copied());
                }
                for c in children {
                    set.extend(c.record_and_shared_terms());
                }
            }
        }
        set
    }

    /// Converts the working node into the published form.
    pub fn into_cluster_node(self) -> ClusterNode {
        match self {
            WorkNode::Simple(w) => ClusterNode::Simple(w.cluster),
            WorkNode::Joint { children, shared } => ClusterNode::Joint(JointCluster {
                children: children
                    .into_iter()
                    .map(WorkNode::into_cluster_node)
                    .collect(),
                shared_chunks: shared,
            }),
        }
    }
}

/// Configuration of the refining step.
#[derive(Debug, Clone)]
pub struct RefineOptions {
    /// Upper bound on the number of full passes over the cluster list (a
    /// safety valve; the algorithm converges long before this on real data).
    pub max_passes: usize,
    /// Whether shared-chunk subrecords are shuffled before publication.
    pub shuffle: bool,
    /// Terms that must never be promoted into shared chunks — the l-diversity
    /// mode routes the sensitive terms here so they stay isolated in term
    /// chunks (Section 5).
    pub excluded_terms: BTreeSet<TermId>,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            max_passes: 16,
            shuffle: true,
            excluded_terms: BTreeSet::new(),
        }
    }
}

/// The result of a refining run: the refined forest plus convergence
/// telemetry, so a run that exhausted [`RefineOptions::max_passes`] while
/// joins were still happening is observable instead of indistinguishable
/// from a converged run.
#[derive(Debug, Clone)]
pub struct RefineOutcome {
    /// The refined forest.
    pub nodes: Vec<WorkNode>,
    /// Number of full passes executed (including the final no-change pass of
    /// a converged run; 0 when the input held fewer than two nodes).
    pub passes_used: usize,
    /// Whether the run reached a fixpoint — a pass with no joins, or a
    /// forest reduced below two nodes — before hitting the pass limit.
    /// `false` means the forest might still admit further joins — the
    /// published data is valid either way, merely possibly under-refined.
    pub converged: bool,
}

/// The exact Equation 1 predicate: whether
/// `lhs_num / joint_size ≥ rhs_num / rhs_den` as rationals.
///
/// Compared by `u128` cross-multiplication — `f64` division can round the
/// two quotients onto the wrong side of each other once the counts are
/// large, silently flipping a join decision near the boundary.
pub fn equation1_holds(lhs_num: u64, joint_size: u64, rhs_num: u64, rhs_den: u64) -> bool {
    (lhs_num as u128) * (rhs_den as u128) >= (rhs_num as u128) * (joint_size as u128)
}

// ---------------------------------------------------------------------------
// The indexed path
// ---------------------------------------------------------------------------

/// A working-forest node plus its cached metadata, maintained incrementally
/// across joins so passes never walk subtrees to re-derive it.
struct NodeState {
    node: WorkNode,
    /// Cached [`WorkNode::size`].
    size: usize,
    /// Cached [`WorkNode::virtual_term_chunk`].
    vtc: BTreeSet<TermId>,
    /// Cached [`WorkNode::record_and_shared_terms`].
    rst: BTreeSet<TermId>,
}

impl NodeState {
    fn new(node: WorkNode) -> Self {
        let size = node.size();
        let vtc = node.virtual_term_chunk();
        let rst = node.record_and_shared_terms();
        NodeState {
            node,
            size,
            vtc,
            rst,
        }
    }
}

/// Buffers reused across every join attempt of one refining run.
#[derive(Default)]
struct JoinScratch {
    /// Pooled allocations of the incremental anonymity checker.
    checker: CheckerScratch,
    /// Base projections of the current join attempt.
    proj_base: Vec<Record>,
}

/// Runs the refining step over a forest of clusters, producing a (possibly
/// smaller) forest where some clusters have been merged into joint clusters
/// with shared chunks.
///
/// This is the indexed implementation (cached node metadata, per-cluster
/// support maps, pooled checker scratch — see the module docs); it produces
/// forests identical to [`refine_reference`], only faster.
pub fn refine<R: Rng + ?Sized>(
    nodes: Vec<WorkNode>,
    k: usize,
    m: usize,
    options: &RefineOptions,
    rng: &mut R,
) -> RefineOutcome {
    let mut scratch = JoinScratch::default();
    let (states, passes_used, converged) = run_passes(
        nodes.into_iter().map(NodeState::new).collect(),
        options.max_passes,
        |states| order_by_term_chunks(states, |s| Cow::Borrowed(&s.vtc)),
        |a, b| try_join(a, b, k, m, options, rng, &mut scratch),
    );
    RefineOutcome {
        nodes: states.into_iter().map(|s| s.node).collect(),
        passes_used,
        converged,
    }
}

/// The indexed join attempt: cached term chunks, sizes and `T^r`, joint
/// supports read off the per-cluster support maps, pooled checker, group-
/// based Property 1 trials.  The only path that counts `core.join_*`.
#[allow(clippy::too_many_arguments)]
fn try_join<R: Rng + ?Sized>(
    a: NodeState,
    b: NodeState,
    k: usize,
    m: usize,
    options: &RefineOptions,
    rng: &mut R,
    scratch: &mut JoinScratch,
) -> Join<NodeState> {
    obs_counters::CORE_JOIN_ATTEMPTS.inc();
    let reject = |a, b| {
        obs_counters::CORE_JOINS_REJECTED.inc();
        Join::Apart(a, b)
    };
    let common = refining_terms(&a.vtc, &b.vtc, options);
    if common.is_empty() {
        return reject(a, b);
    }
    let joint_size = a.size + b.size;
    let simple: Vec<&WorkCluster> = a
        .node
        .simple_clusters()
        .into_iter()
        .chain(b.node.simple_clusters())
        .collect();
    let candidates =
        match select_candidates(&simple, &common, joint_size, k, WorkCluster::support_of) {
            Ok(candidates) => candidates,
            Err(rejection) => {
                if matches!(rejection, Rejection::Equation1) {
                    obs_counters::CORE_JOINS_REJECTED_EQ1.inc();
                }
                return reject(a, b);
            }
        };
    scratch.proj_base.clear();
    project_shared_base_into(&simple, &candidates, &mut scratch.proj_base);
    let mut checker =
        IncrementalChecker::with_scratch(&scratch.proj_base, k, m, &mut scratch.checker);
    let chunks = greedy_chunks(
        &mut checker,
        candidates,
        |t| a.rst.contains(&t) || b.rst.contains(&t),
        IncrementalChecker::can_add_k,
        options.shuffle,
        rng,
    )
    .chunks;
    checker.recycle(&mut scratch.checker);
    if chunks.is_empty() {
        return reject(a, b);
    }

    let (node, placed, repaired) = join_nodes(a.node, b.node, chunks, k, m);
    // Merge the caches: the joint's virtual term chunk is the children's
    // union minus the placed terms, and its `T^r` gains exactly the shared
    // domains (= the placed terms).  A Lemma 2 repair moves a record-chunk
    // term back into a term chunk, which these deltas cannot express —
    // recompute from the tree in that (rare) case.
    let (vtc, rst) = if repaired {
        (node.virtual_term_chunk(), node.record_and_shared_terms())
    } else {
        let mut vtc = a.vtc;
        vtc.extend(b.vtc);
        for t in &placed {
            vtc.remove(t);
        }
        let mut rst = a.rst;
        rst.extend(b.rst);
        rst.extend(placed);
        (vtc, rst)
    };
    obs_counters::CORE_JOINS_ACCEPTED.inc();
    Join::Joined(NodeState {
        node,
        size: joint_size,
        vtc,
        rst,
    })
}

// ---------------------------------------------------------------------------
// The reference path (pre-index oracle)
// ---------------------------------------------------------------------------

/// The pre-index REFINE: the same procedure as [`refine`], fed by subtree
/// walks for every virtual term chunk and `T^r`, raw record scans for joint
/// supports, materialized Property 1 trials and a fresh checker per join.
///
/// Kept as the oracle [`refine`] is property-tested against (the two must
/// produce identical forests, pass counts and convergence verdicts on every
/// input when driven by equal-seeded RNGs) and as the baseline of the
/// `refine_ubench` benchmark series.  Uses the same exact
/// [`equation1_holds`] predicate — the `f64` comparison it replaced was a
/// correctness bug, not a performance trade-off.
pub fn refine_reference<R: Rng + ?Sized>(
    nodes: Vec<WorkNode>,
    k: usize,
    m: usize,
    options: &RefineOptions,
    rng: &mut R,
) -> RefineOutcome {
    let (nodes, passes_used, converged) = run_passes(
        nodes,
        options.max_passes,
        |nodes| order_by_term_chunks(nodes, |n| Cow::Owned(n.virtual_term_chunk())),
        |a, b| try_join_reference(a, b, k, m, options, rng),
    );
    RefineOutcome {
        nodes,
        passes_used,
        converged,
    }
}

/// The reference join attempt (see [`refine_reference`]).
fn try_join_reference<R: Rng + ?Sized>(
    a: WorkNode,
    b: WorkNode,
    k: usize,
    m: usize,
    options: &RefineOptions,
    rng: &mut R,
) -> Join<WorkNode> {
    let common = refining_terms(&a.virtual_term_chunk(), &b.virtual_term_chunk(), options);
    if common.is_empty() {
        return Join::Apart(a, b);
    }
    let joint_size = a.size() + b.size();
    let simple: Vec<&WorkCluster> = a
        .simple_clusters()
        .into_iter()
        .chain(b.simple_clusters())
        .collect();
    let scan_support =
        |w: &WorkCluster, t: TermId| w.records.iter().filter(|r| r.contains(t)).count() as u64;
    let Ok(candidates) = select_candidates(&simple, &common, joint_size, k, scan_support) else {
        return Join::Apart(a, b);
    };
    let mut t_r = a.record_and_shared_terms();
    t_r.extend(b.record_and_shared_terms());
    let mut proj_base = Vec::new();
    project_shared_base_into(&simple, &candidates, &mut proj_base);
    let mut checker = IncrementalChecker::new(&proj_base, k, m);
    // Property 1: the whole trial chunk, materialized, must be k-anonymous.
    let materialized_trial = |checker: &mut IncrementalChecker<'_>, t: TermId| {
        let mut trial = checker.projections();
        for (base, proj) in proj_base.iter().zip(trial.iter_mut()) {
            if base.contains(t) {
                proj.insert(t);
            }
        }
        is_k_anonymous(&trial, k)
    };
    let chunks = greedy_chunks(
        &mut checker,
        candidates,
        |t| t_r.contains(&t),
        materialized_trial,
        options.shuffle,
        rng,
    )
    .chunks;
    if chunks.is_empty() {
        return Join::Apart(a, b);
    }
    Join::Joined(join_nodes(a, b, chunks, k, m).0)
}

// ---------------------------------------------------------------------------
// The procedure both paths share
// ---------------------------------------------------------------------------

/// The outcome of one join attempt.
enum Join<N> {
    /// The joint node.
    Joined(N),
    /// The two nodes, unchanged.
    Apart(N, N),
}

/// REFINE's pass loop: each pass orders the forest, then tries to join
/// strictly adjacent pairs (a node left unjoined gets a new neighbour after
/// the next pass's re-ordering).  Returns the forest, the passes used and
/// whether a fixpoint was reached — a pass without joins, or a forest below
/// two nodes (so a run capped right after its final merge still reads as
/// converged) — before `max_passes` ran out.
fn run_passes<N>(
    mut nodes: Vec<N>,
    max_passes: usize,
    mut order: impl FnMut(&mut [N]),
    mut join: impl FnMut(N, N) -> Join<N>,
) -> (Vec<N>, usize, bool) {
    if nodes.len() < 2 {
        return (nodes, 0, true);
    }
    for pass in 1..=max_passes.max(1) {
        order(&mut nodes);
        let mut changed = false;
        let mut merged: Vec<N> = Vec::with_capacity(nodes.len());
        let mut iter = nodes.into_iter();
        while let Some(current) = iter.next() {
            match iter.next() {
                Some(next) => match join(current, next) {
                    Join::Joined(joint) => {
                        changed = true;
                        merged.push(joint);
                    }
                    Join::Apart(a, b) => merged.extend([a, b]),
                },
                None => merged.push(current),
            }
        }
        nodes = merged;
        if !changed || nodes.len() < 2 {
            return (nodes, pass, true);
        }
    }
    (nodes, max_passes.max(1), false)
}

/// Orders the forest by the contents of the (virtual) term chunks, as in
/// Algorithm REFINE: terms are ranked by descending *term-chunk support*
/// `tcs` (the number of nodes whose term chunk holds the term; ties by term
/// id) and each node is keyed by the sorted ranks of its term-chunk terms.
/// `vtc` reads a node's term-chunk set, twice per node.
fn order_by_term_chunks<N>(nodes: &mut [N], vtc: impl Fn(&N) -> Cow<'_, BTreeSet<TermId>>) {
    let mut tcs: BTreeMap<TermId, usize> = BTreeMap::new();
    for node in nodes.iter() {
        for &t in vtc(node).iter() {
            *tcs.entry(t).or_insert(0) += 1;
        }
    }
    let mut ranked: Vec<(TermId, usize)> = tcs.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let rank: BTreeMap<TermId, usize> = ranked
        .into_iter()
        .enumerate()
        .map(|(i, (t, _))| (t, i))
        .collect();
    nodes.sort_by_cached_key(|node| {
        let mut ranks: Vec<usize> = vtc(node)
            .iter()
            .map(|t| rank.get(t).copied().unwrap_or(usize::MAX))
            .collect();
        ranks.sort_unstable();
        ranks
    });
}

/// The refining terms of a join: the common term-chunk terms of both nodes,
/// minus the excluded (sensitive) ones.
fn refining_terms(
    a_vtc: &BTreeSet<TermId>,
    b_vtc: &BTreeSet<TermId>,
    options: &RefineOptions,
) -> BTreeSet<TermId> {
    a_vtc
        .intersection(b_vtc)
        .filter(|t| !options.excluded_terms.contains(t))
        .copied()
        .collect()
}

/// Why [`select_candidates`] turned a join down.
enum Rejection {
    /// Equation 1 fails (or no simple cluster holds a refining term).
    Equation1,
    /// No refining term reaches joint support `k`.
    NoCandidates,
}

/// Equation 1 and the candidate order of a join over the simple clusters
/// `simple` of both nodes.
///
/// The joint support of a refining term is its support in the original
/// records of the simple clusters whose *term chunk* currently holds it;
/// `support_in(w, t)` gives the support of `t` among `w`'s records.  The
/// candidates are the refining terms with joint support ≥ k (below that no
/// anonymous shared chunk is possible), in descending joint support, ties by
/// term id.
fn select_candidates(
    simple: &[&WorkCluster],
    common: &BTreeSet<TermId>,
    joint_size: usize,
    k: usize,
    support_in: impl Fn(&WorkCluster, TermId) -> u64,
) -> Result<Vec<TermId>, Rejection> {
    let mut joint_support: BTreeMap<TermId, u64> = common.iter().map(|&t| (t, 0)).collect();
    let mut rhs_num = 0u64;
    let mut rhs_den = 0u64;
    for w in simple {
        let mut held = 0u64;
        for (&t, support) in joint_support.iter_mut() {
            if w.cluster.term_chunk.contains(t) {
                *support += support_in(w, t);
                held += 1;
            }
        }
        if held > 0 {
            rhs_num += held;
            rhs_den += w.records.len() as u64;
        }
    }
    let lhs_num: u64 = joint_support.values().sum();
    if rhs_den == 0 || !equation1_holds(lhs_num, joint_size as u64, rhs_num, rhs_den) {
        return Err(Rejection::Equation1);
    }
    let mut candidates: Vec<TermId> = common
        .iter()
        .copied()
        .filter(|t| joint_support[t] as usize >= k)
        .collect();
    candidates.sort_by(|x, y| {
        joint_support[y]
            .cmp(&joint_support[x])
            .then_with(|| x.cmp(y))
    });
    if candidates.is_empty() {
        return Err(Rejection::NoCandidates);
    }
    Ok(candidates)
}

/// Projects the original records of the simple clusters onto the candidate
/// refining terms, restricted per cluster to the terms its term chunk
/// currently holds (a record never contributes the same projection to two
/// chunks — Section 3).
///
/// This is computed **once per join attempt**; every trial domain is a
/// subset of `candidates`, so trial projections are derived from these base
/// projections by the incremental checker instead of re-projecting the full
/// records.  Records whose base projection is empty are dropped — no trial
/// can ever make them non-empty.
fn project_shared_base_into(simple: &[&WorkCluster], candidates: &[TermId], out: &mut Vec<Record>) {
    for w in simple {
        let mut eligible: Vec<TermId> = candidates
            .iter()
            .copied()
            .filter(|t| w.cluster.term_chunk.contains(*t))
            .collect();
        if eligible.is_empty() {
            continue;
        }
        eligible.sort_unstable();
        for r in &w.records {
            let proj = r.project_sorted(&eligible);
            if !proj.is_empty() {
                out.push(proj);
            }
        }
    }
}

/// Joins `a` and `b` under a node publishing `chunks` as its shared chunks,
/// then removes the placed terms from the term chunks below it.  Removing
/// terms can empty a term chunk, which re-exposes the Lemma 2 side condition
/// (the cluster must then hold enough subrecords); the repair is VERPART's —
/// demote the least frequent record-chunk term back into the term chunk —
/// on a freshly counted support map (records never change, and the repair is
/// rare).  Returns the joint, the placed terms and whether a repair fired.
fn join_nodes(
    a: WorkNode,
    b: WorkNode,
    chunks: Vec<(RecordChunk, bool)>,
    k: usize,
    m: usize,
) -> (WorkNode, BTreeSet<TermId>, bool) {
    let placed: BTreeSet<TermId> = chunks
        .iter()
        .flat_map(|(chunk, _)| chunk.domain.iter().copied())
        .collect();
    let mut children = vec![a, b];
    let mut simple: Vec<&mut WorkCluster> = Vec::new();
    for c in children.iter_mut() {
        c.collect_simple_mut(&mut simple);
    }
    let mut repaired = false;
    for w in simple {
        let mut touched = false;
        for &t in &placed {
            touched |= w.cluster.term_chunk.remove(t);
        }
        if touched && !lemma2_holds(&w.cluster, k, m) {
            let supports = SupportMap::from_records(w.records.iter());
            enforce_lemma2(&mut w.cluster, &supports, k, m);
            repaired = true;
        }
    }
    let shared = chunks
        .into_iter()
        .map(|(chunk, requires_k_anonymity)| SharedChunk {
            chunk,
            requires_k_anonymity,
        })
        .collect();
    (WorkNode::Joint { children, shared }, placed, repaired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::is_km_anonymous;
    use crate::verpart::{vertical_partition, VerPartOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    fn tid(i: u32) -> TermId {
        TermId::new(i)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    fn no_shuffle_vp() -> VerPartOptions {
        VerPartOptions {
            forced_term_chunk: BTreeSet::new(),
            shuffle: false,
        }
    }

    fn no_shuffle_refine() -> RefineOptions {
        RefineOptions {
            shuffle: false,
            ..RefineOptions::default()
        }
    }

    /// Figure 2 term ids: itunes=0, flu=1, madonna=2, audi=3, sony=4, ikea=5,
    /// viagra=6, ruby=7, digital=8, panic=9, playboy=10, iphone=11.
    fn figure2_p1_records() -> Vec<Record> {
        vec![
            rec(&[0, 1, 2, 5, 7]),
            rec(&[2, 1, 6, 7, 3, 4]),
            rec(&[0, 2, 3, 5, 4]),
            rec(&[0, 1, 6]),
            rec(&[0, 1, 2, 3, 4]),
        ]
    }

    fn figure2_p2_records() -> Vec<Record> {
        vec![
            rec(&[2, 8, 9, 10]),
            rec(&[11, 2, 5, 7]),
            rec(&[11, 8, 2, 10]),
            rec(&[11, 8, 2, 5, 7]),
            rec(&[11, 8, 9]),
        ]
    }

    fn work_cluster(records: Vec<Record>, start_idx: usize, k: usize, m: usize) -> WorkCluster {
        let cluster = vertical_partition(&records, k, m, &no_shuffle_vp(), &mut rng());
        WorkCluster::new(
            (start_idx..start_idx + records.len()).collect(),
            records,
            cluster,
        )
    }

    #[test]
    fn figure3_joint_cluster_is_reproduced() {
        let (k, m) = (3, 2);
        let p1 = work_cluster(figure2_p1_records(), 0, k, m);
        let p2 = work_cluster(figure2_p2_records(), 5, k, m);
        let outcome = refine(
            vec![WorkNode::Simple(p1), WorkNode::Simple(p2)],
            k,
            m,
            &no_shuffle_refine(),
            &mut rng(),
        );
        assert!(outcome.converged);
        let nodes = outcome.nodes;
        assert_eq!(nodes.len(), 1, "the two clusters must merge");
        let WorkNode::Joint { children, shared } = &nodes[0] else {
            panic!("expected a joint cluster");
        };
        assert_eq!(children.len(), 2);
        assert_eq!(shared.len(), 1);
        let sc = &shared[0].chunk;
        assert_eq!(
            sc.domain,
            vec![tid(5), tid(7)],
            "shared chunk over ikea, ruby"
        );
        // Figure 3: {ikea,ruby} ×3, {ikea} ×1, {ruby} ×1 — five subrecords.
        assert_eq!(sc.subrecords.len(), 5);
        assert_eq!(sc.support(&[tid(5), tid(7)]), 3);
        assert_eq!(sc.support(&[tid(5)]), 4);
        assert_eq!(sc.support(&[tid(7)]), 4);
        assert!(!shared[0].requires_k_anonymity);
        // ikea and ruby left the term chunks; viagra, panic, playboy stay.
        let vtc = nodes[0].virtual_term_chunk();
        assert!(!vtc.contains(&tid(5)) && !vtc.contains(&tid(7)));
        assert!(vtc.contains(&tid(6)) && vtc.contains(&tid(9)) && vtc.contains(&tid(10)));
    }

    #[test]
    fn clusters_without_common_term_chunk_terms_do_not_merge() {
        let (k, m) = (2, 2);
        let a = work_cluster(vec![rec(&[1, 2]), rec(&[1, 3])], 0, k, m);
        let b = work_cluster(vec![rec(&[10, 11]), rec(&[10, 12])], 2, k, m);
        let outcome = refine(
            vec![WorkNode::Simple(a), WorkNode::Simple(b)],
            k,
            m,
            &no_shuffle_refine(),
            &mut rng(),
        );
        assert_eq!(outcome.nodes.len(), 2);
        assert!(outcome
            .nodes
            .iter()
            .all(|n| matches!(n, WorkNode::Simple(_))));
        assert!(outcome.converged);
        assert_eq!(outcome.passes_used, 1, "first pass already finds nothing");
    }

    #[test]
    fn refining_terms_below_k_are_not_promoted() {
        // Term 9 appears once in each cluster's term chunk: joint support 2 < k = 3.
        let (k, m) = (3, 2);
        let a = work_cluster(vec![rec(&[1, 9]), rec(&[1]), rec(&[1]), rec(&[1])], 0, k, m);
        let b = work_cluster(vec![rec(&[2, 9]), rec(&[2]), rec(&[2]), rec(&[2])], 4, k, m);
        let outcome = refine(
            vec![WorkNode::Simple(a), WorkNode::Simple(b)],
            k,
            m,
            &no_shuffle_refine(),
            &mut rng(),
        );
        // No shared chunk can be built, so no join happens.
        assert_eq!(outcome.nodes.len(), 2);
    }

    #[test]
    fn shared_chunks_satisfy_their_anonymity_requirement() {
        let (k, m) = (3, 2);
        let p1 = work_cluster(figure2_p1_records(), 0, k, m);
        let p2 = work_cluster(figure2_p2_records(), 5, k, m);
        let outcome = refine(
            vec![WorkNode::Simple(p1), WorkNode::Simple(p2)],
            k,
            m,
            &RefineOptions::default(),
            &mut rng(),
        );
        for node in &outcome.nodes {
            if let WorkNode::Joint { shared, .. } = node {
                for sc in shared {
                    if sc.requires_k_anonymity {
                        assert!(is_k_anonymous(&sc.chunk.subrecords, k));
                    } else {
                        assert!(is_km_anonymous(&sc.chunk.subrecords, k, m));
                    }
                }
            }
        }
    }

    #[test]
    fn property1_forces_k_anonymity_when_term_is_in_descendant_record_chunks() {
        // The Figure 5 scenario: term 5 is published in a record chunk of a
        // simple cluster *below* node A (so 5 ∈ T^r of A) while also sitting
        // in the term chunk of another simple cluster below A and in the term
        // chunk of node B.  A shared chunk over 5 must then be k-anonymous
        // and carry the `requires_k_anonymity` flag.
        let (k, m) = (3, 2);
        // P1: term 5 in a record chunk (support 4 ≥ k).
        let p1 = work_cluster(
            vec![rec(&[5, 1]), rec(&[5, 1]), rec(&[5, 1]), rec(&[5, 1])],
            0,
            k,
            m,
        );
        assert!(p1.cluster.record_chunk_terms().contains(&tid(5)));
        // P2: term 5 in the term chunk (support 2 < k).
        let p2 = work_cluster(
            vec![rec(&[2, 5]), rec(&[2, 5]), rec(&[2]), rec(&[2])],
            4,
            k,
            m,
        );
        assert!(p2.cluster.term_chunk.contains(tid(5)));
        // Node A is an (artificial) joint of P1 and P2 with no shared chunks.
        let a = WorkNode::Joint {
            children: vec![WorkNode::Simple(p1), WorkNode::Simple(p2)],
            shared: vec![],
        };
        assert!(a.virtual_term_chunk().contains(&tid(5)));
        assert!(a.record_and_shared_terms().contains(&tid(5)));
        // Node B: term 5 in the term chunk again.
        let p3 = work_cluster(
            vec![rec(&[3, 5]), rec(&[3, 5]), rec(&[3]), rec(&[3])],
            8,
            k,
            m,
        );
        assert!(p3.cluster.term_chunk.contains(tid(5)));
        let outcome = refine(
            vec![a, WorkNode::Simple(p3)],
            k,
            m,
            &no_shuffle_refine(),
            &mut rng(),
        );
        let mut saw_shared_over_5 = false;
        for node in &outcome.nodes {
            if let WorkNode::Joint { shared, .. } = node {
                for sc in shared {
                    if sc.chunk.domain.contains(&tid(5)) {
                        saw_shared_over_5 = true;
                        assert!(sc.requires_k_anonymity, "5 ∈ T^r ⇒ Property 1 applies");
                        assert!(is_k_anonymous(&sc.chunk.subrecords, k));
                    }
                }
            }
        }
        assert!(
            saw_shared_over_5,
            "a shared chunk over term 5 should have been built"
        );
    }

    #[test]
    fn equation1_rejects_joins_that_dilute_term_probability() {
        // Node A is a joint whose subtree contains a large simple cluster P2
        // that does NOT carry the refining term 9; joining A with P3 would
        // spread 9 over 36 records while the clusters that actually hold it
        // cover only 6 — Equation 1 (lhs = 2/36 < rhs = 2/6) must reject the
        // join even though a k-anonymous shared chunk could be built.
        let (k, m) = (2, 2);
        // P1: 3 records, term 9 has support 1 < k → term chunk.
        let p1 = work_cluster(vec![rec(&[1, 9]), rec(&[1]), rec(&[1])], 0, k, m);
        assert!(p1.cluster.term_chunk.contains(tid(9)));
        // P2: 30 records of a frequent term only — empty term chunk.
        let p2 = work_cluster(vec![rec(&[2]); 30], 3, k, m);
        assert!(p2.cluster.term_chunk.is_empty());
        let a = WorkNode::Joint {
            children: vec![WorkNode::Simple(p1), WorkNode::Simple(p2)],
            shared: vec![],
        };
        // P3: 3 records, term 9 again in the term chunk.
        let p3 = work_cluster(vec![rec(&[3, 9]), rec(&[3]), rec(&[3])], 33, k, m);
        assert!(p3.cluster.term_chunk.contains(tid(9)));
        let outcome = refine(
            vec![a, WorkNode::Simple(p3)],
            k,
            m,
            &no_shuffle_refine(),
            &mut rng(),
        );
        assert_eq!(
            outcome.nodes.len(),
            2,
            "Equation 1 must reject the dilutive join"
        );
        assert!(outcome.nodes.iter().all(|n| match n {
            WorkNode::Joint { shared, .. } => shared.is_empty(),
            WorkNode::Simple(_) => true,
        }));
    }

    #[test]
    fn equation1_boundary_equal_ratios_still_join() {
        // Exactly equal ratios: each cluster holds term 9 once over 3
        // records, so lhs = 2/6 and rhs = 2/6.  Equation 1 holds with
        // equality and the join must proceed — in exact arithmetic there is
        // no rounding to nudge the comparison either way.
        let (k, m) = (2, 2);
        let a = work_cluster(vec![rec(&[1, 9]), rec(&[1]), rec(&[1])], 0, k, m);
        let b = work_cluster(vec![rec(&[2, 9]), rec(&[2]), rec(&[2])], 3, k, m);
        assert!(a.cluster.term_chunk.contains(tid(9)));
        assert!(b.cluster.term_chunk.contains(tid(9)));
        for refine_fn in [refine::<StdRng>, refine_reference::<StdRng>] {
            let outcome = refine_fn(
                vec![WorkNode::Simple(a.clone()), WorkNode::Simple(b.clone())],
                k,
                m,
                &no_shuffle_refine(),
                &mut rng(),
            );
            assert_eq!(outcome.nodes.len(), 1, "equal ratios satisfy Equation 1");
            let WorkNode::Joint { shared, .. } = &outcome.nodes[0] else {
                panic!("expected a joint cluster");
            };
            assert_eq!(shared[0].chunk.support(&[tid(9)]), 2);
        }
    }

    #[test]
    fn equation1_exact_arithmetic_beats_f64_rounding() {
        // Equality and strict cases in ranges f64 handles fine.
        assert!(equation1_holds(2, 6, 1, 3), "2/6 == 1/3");
        assert!(equation1_holds(3, 6, 1, 3), "3/6 > 1/3");
        assert!(!equation1_holds(1, 6, 1, 3), "1/6 < 1/3");
        // Division by huge denominators stays exact.
        assert!(equation1_holds(u64::MAX, u64::MAX, 1, 1));
        assert!(!equation1_holds(u64::MAX - 1, u64::MAX, 1, 1));

        // The rounding flip: 2^53 / (2^53 + 1) < 1 exactly, but as f64 the
        // numerator and denominator both collapse to 2^53 and the old
        // comparison saw two equal quotients — accepting a join Equation 1
        // forbids.
        let (lhs_num, joint_size, rhs_num, rhs_den) = (1u64 << 53, (1u64 << 53) + 1, 1u64, 1u64);
        let f64_verdict = (lhs_num as f64 / joint_size as f64) >= (rhs_num as f64 / rhs_den as f64);
        assert!(f64_verdict, "f64 rounding used to accept this join");
        assert!(
            !equation1_holds(lhs_num, joint_size, rhs_num, rhs_den),
            "exact arithmetic must reject it"
        );
    }

    #[test]
    fn exhausting_max_passes_is_observable() {
        // Three clusters sharing rare term 9: pass 1 joins a pair, and with
        // `max_passes: 1` the run stops while joins may still be possible —
        // the outcome must say so instead of looking converged.
        let (k, m) = (3, 2);
        let mk = |base: u32, start: usize| {
            work_cluster(
                vec![rec(&[base, 9]), rec(&[base, 9]), rec(&[base]), rec(&[base])],
                start,
                k,
                m,
            )
        };
        let nodes = || {
            vec![
                WorkNode::Simple(mk(1, 0)),
                WorkNode::Simple(mk(2, 4)),
                WorkNode::Simple(mk(3, 8)),
            ]
        };
        let capped = refine(
            nodes(),
            k,
            m,
            &RefineOptions {
                max_passes: 1,
                ..no_shuffle_refine()
            },
            &mut rng(),
        );
        assert_eq!(capped.passes_used, 1);
        assert!(
            !capped.converged,
            "a pass that joined and then hit the limit must not report convergence"
        );
        let full = refine(nodes(), k, m, &no_shuffle_refine(), &mut rng());
        assert!(full.converged);
        assert!(
            full.passes_used >= 2,
            "convergence takes a no-change pass after the joining pass"
        );
        assert!(full.passes_used <= RefineOptions::default().max_passes);
    }

    #[test]
    fn indexed_refine_matches_reference_on_figure_data() {
        // Same inputs, equal-seeded RNGs (shuffle on): the indexed path and
        // the pre-refactor reference must publish identical forests and
        // report identical telemetry.
        let (k, m) = (3, 2);
        let nodes = || {
            vec![
                WorkNode::Simple(work_cluster(figure2_p1_records(), 0, k, m)),
                WorkNode::Simple(work_cluster(figure2_p2_records(), 5, k, m)),
            ]
        };
        let fast = refine(
            nodes(),
            k,
            m,
            &RefineOptions::default(),
            &mut StdRng::seed_from_u64(99),
        );
        let slow = refine_reference(
            nodes(),
            k,
            m,
            &RefineOptions::default(),
            &mut StdRng::seed_from_u64(99),
        );
        assert_eq!(fast.passes_used, slow.passes_used);
        assert_eq!(fast.converged, slow.converged);
        let fast_pub: Vec<ClusterNode> = fast
            .nodes
            .into_iter()
            .map(WorkNode::into_cluster_node)
            .collect();
        let slow_pub: Vec<ClusterNode> = slow
            .nodes
            .into_iter()
            .map(WorkNode::into_cluster_node)
            .collect();
        assert_eq!(fast_pub, slow_pub);
    }

    #[test]
    fn work_node_accessors() {
        let (k, m) = (3, 2);
        let p1 = work_cluster(figure2_p1_records(), 0, k, m);
        assert_eq!(p1.support_of(tid(0)), 4, "itunes appears 4 times");
        let node = WorkNode::Simple(p1);
        assert_eq!(node.size(), 5);
        assert_eq!(node.simple_clusters().len(), 1);
        assert!(node.record_and_shared_terms().contains(&tid(0)));
        let published = node.into_cluster_node();
        assert_eq!(published.size(), 5);
    }

    #[test]
    fn refine_handles_single_and_empty_forests() {
        let outcome = refine(vec![], 3, 2, &RefineOptions::default(), &mut rng());
        assert!(outcome.nodes.is_empty());
        assert_eq!(outcome.passes_used, 0);
        assert!(outcome.converged);
        let one = vec![WorkNode::Simple(work_cluster(
            figure2_p1_records(),
            0,
            3,
            2,
        ))];
        let outcome = refine(one, 3, 2, &RefineOptions::default(), &mut rng());
        assert_eq!(outcome.nodes.len(), 1);
        assert!(outcome.converged);
    }

    #[test]
    fn clusters_sharing_a_rare_term_merge_and_keep_every_record() {
        // Three clusters where term 9 has support 2 < k = 3 and therefore
        // sits in every term chunk; any two of them can join and publish 9 in
        // a shared chunk with support 4 ≥ k.
        let (k, m) = (3, 2);
        let mk = |base: u32, start: usize| {
            work_cluster(
                vec![rec(&[base, 9]), rec(&[base, 9]), rec(&[base]), rec(&[base])],
                start,
                k,
                m,
            )
        };
        let outcome = refine(
            vec![
                WorkNode::Simple(mk(1, 0)),
                WorkNode::Simple(mk(2, 4)),
                WorkNode::Simple(mk(3, 8)),
            ],
            k,
            m,
            &no_shuffle_refine(),
            &mut rng(),
        );
        let nodes = outcome.nodes;
        let total: usize = nodes.iter().map(WorkNode::size).sum();
        assert_eq!(total, 12, "no records may be lost by refining");
        assert!(
            nodes.len() < 3,
            "at least one join must happen when all clusters share term 9"
        );
        // The promoted term must appear in exactly one shared chunk with the
        // combined support of the two merged clusters.
        let shared_support: u64 = nodes
            .iter()
            .flat_map(|n| match n {
                WorkNode::Joint { shared, .. } => shared.clone(),
                _ => vec![],
            })
            .map(|sc| sc.chunk.support(&[tid(9)]))
            .sum();
        assert_eq!(shared_support, 4);
    }
}
