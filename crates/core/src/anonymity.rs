//! k^m-anonymity and k-anonymity checks on chunks.
//!
//! A chunk (a bag of subrecords) is **k^m-anonymous** when every combination
//! of at most `m` terms that appears in some subrecord appears in at least
//! `k` subrecords (Section 3).  It is **k-anonymous** when every distinct
//! non-empty subrecord value appears at least `k` times; k-anonymity implies
//! k^m-anonymity for every `m` (needed by Property 1 for shared chunks).
//!
//! ## The dense engine
//!
//! These checks dominate end-to-end anonymization time (VERPART calls
//! [`IncrementalChecker::can_add`] once per candidate term per greedy round
//! per cluster), so the module has two implementations:
//!
//! * the **dense engine** (default): the cluster domain is interned into
//!   `u16` dense ids ([`transact::dense::DenseDomain`]), records become
//!   fixed-width rows of `u64` words so projection is a word-wise `AND`
//!   ([`transact::dense::bits_for_each_and`]), and combinations are counted
//!   under packed `u64` keys
//!   ([`transact::dense::PackedCombo`]) in a scratch map that is *cleared,
//!   never reallocated*, across calls.  For the paper's default `m = 2` the
//!   subset enumeration collapses entirely: a per-cluster **pair-count
//!   triangle** is built once and `can_add` becomes one lookup per term of
//!   the current domain, early-exiting on the first sub-`k` pair;
//! * the **reference implementation** ([`combination_counts`],
//!   [`is_km_anonymous_reference`], [`ReferenceChecker`]): the original
//!   `Itemset`-keyed counting.  It remains the property-tested oracle the
//!   dense engine is checked against, and the fallback for `m >`
//!   [`PACK_ARITY`] or domains beyond `u16` (never reached by realistic
//!   clusters).
//!
//! Both implementations answer every query identically — the engine changes
//! speed, not results (pinned by the output-bytes regression tests).

use disassoc_obs::metrics::counters as obs_counters;
use std::collections::HashMap;
use transact::dense::{
    bits_contain, bits_for_each, bits_for_each_and, bits_set, for_each_packed_subset,
    ComboCountMap, FxBuildHasher, PackedCombo, PACK_ARITY,
};
use transact::itemset::{for_each_subset_containing, for_each_subset_up_to, subset_count};
use transact::{DenseDomain, Itemset, Record, TermId};

/// Domain-size ceiling for the m = 2 pair-count triangle (above it the
/// triangle would cost O(d²) memory; the checker counts packed pairs per
/// call instead).
const TRIANGLE_MAX_DOMAIN: usize = 1024;

/// Cap on the pre-allocated capacity of [`combination_counts`] (the subset
/// count is an upper bound on the number of *distinct* combinations, so a
/// pathological chunk must not translate into a gigabyte reservation).
const COUNTS_CAPACITY_CAP: u64 = 1 << 20;

/// Whether `subrecords` form a k^m-anonymous chunk.
///
/// Empty subrecords are ignored: they contain no term combination.
///
/// Uses the dense packed-combination engine for `m ≤ 4` (the paper evaluates
/// m = 2, 3), falling back to [`is_km_anonymous_reference`] beyond that.
pub fn is_km_anonymous(subrecords: &[Record], k: usize, m: usize) -> bool {
    if k <= 1 || m == 0 || subrecords.is_empty() {
        return true;
    }
    if m > PACK_ARITY {
        return is_km_anonymous_reference(subrecords, k, m);
    }
    let Some(domain) = DenseDomain::from_records(subrecords.iter()) else {
        return is_km_anonymous_reference(subrecords, k, m);
    };
    let mut scratch: Vec<u16> = Vec::new();
    if m == 1 {
        // Only singletons matter: per-term supports.
        let mut supports = vec![0u32; domain.len()];
        for r in subrecords {
            for t in r.iter() {
                // lint:allow(panic, "the domain was built by interning every term of these records")
                supports[domain.dense_of(t).expect("term interned") as usize] += 1;
            }
        }
        return supports.iter().all(|&s| s == 0 || s as usize >= k);
    }
    let mut counts = ComboCountMap::default();
    for r in subrecords {
        scratch.clear();
        // lint:allow(panic, "the domain was built by interning every term of these records")
        scratch.extend(r.iter().map(|t| domain.dense_of(t).expect("term interned")));
        for_each_packed_subset(&scratch, m, |combo| {
            *counts.entry(combo).or_insert(0) += 1;
        });
    }
    counts.values().all(|&c| c as usize >= k)
}

/// Reference implementation of [`is_km_anonymous`]: exhaustive
/// `Itemset`-keyed counting via [`combination_counts`].
///
/// Kept as the oracle the dense engine is property-tested against, and as
/// the fallback for `m > PACK_ARITY`.
pub fn is_km_anonymous_reference(subrecords: &[Record], k: usize, m: usize) -> bool {
    if k <= 1 || m == 0 {
        return true;
    }
    let counts = combination_counts(subrecords, m);
    counts.values().all(|&c| c as usize >= k)
}

/// Counts the support of every term combination of size `1..=m` appearing in
/// the subrecords.
///
/// The map is pre-sized from [`subset_count`] so counting large chunks
/// doesn't rehash repeatedly.  Two upper bounds on the number of distinct
/// combinations are taken (subsets summed per record count *multiplicity*,
/// so duplicated records would overshoot; subsets of the chunk's distinct
/// domain bound what can exist at all), capped so pathological chunks don't
/// over-reserve.
pub fn combination_counts(subrecords: &[Record], m: usize) -> HashMap<Itemset, u64> {
    let per_record = subrecords
        .iter()
        .map(|r| subset_count(r.len(), m))
        .fold(0u64, u64::saturating_add);
    let mut domain: Vec<TermId> = subrecords.iter().flat_map(|r| r.iter()).collect();
    domain.sort_unstable();
    domain.dedup();
    let estimate = per_record
        .min(subset_count(domain.len(), m))
        .min(COUNTS_CAPACITY_CAP);
    let mut counts: HashMap<Itemset, u64> = HashMap::with_capacity(estimate as usize);
    for r in subrecords {
        for_each_subset_up_to(r.terms(), m, |subset| {
            *counts.entry(Itemset(subset.to_vec())).or_insert(0) += 1;
        });
    }
    counts
}

/// Whether `subrecords` form a k-anonymous chunk: every *distinct non-empty
/// subrecord* appears at least `k` times.
pub fn is_k_anonymous(subrecords: &[Record], k: usize) -> bool {
    if k <= 1 {
        return true;
    }
    let mut counts: HashMap<&Record, usize> = HashMap::new();
    for r in subrecords {
        if r.is_empty() {
            continue;
        }
        *counts.entry(r).or_insert(0) += 1;
    }
    counts.values().all(|&c| c >= k)
}

// ---------------------------------------------------------------------------
// The incremental checker (dense engine)
// ---------------------------------------------------------------------------

/// Incremental k^m-anonymity tester used by VERPART and REFINE.
///
/// The greedy chunk construction repeatedly asks "does the chunk stay
/// k^m-anonymous if term `t` joins the current domain `T_cur`?".  Because the
/// chunk over `T_cur` is k^m-anonymous by construction, only combinations
/// *containing `t`* can be violated, so the tester counts just those.
///
/// Internally this runs on the dense engine (bitset records, packed
/// combination keys, reusable scratch buffers — see the module docs); it
/// falls back to the [`ReferenceChecker`] algorithm for `m > PACK_ARITY` or
/// domains larger than a `u16`.  `can_add` takes `&mut self` because the
/// scratch buffers are reused — cleared, never reallocated — across calls.
#[derive(Debug)]
pub struct IncrementalChecker<'a> {
    k: usize,
    m: usize,
    inner: Inner<'a>,
}

#[derive(Debug)]
enum Inner<'a> {
    Dense(Box<DenseChecker>),
    Reference(ReferenceChecker<'a>),
}

impl<'a> IncrementalChecker<'a> {
    /// Creates a checker over the cluster `records` with an empty domain.
    pub fn new(records: &'a [Record], k: usize, m: usize) -> Self {
        Self::with_scratch(records, k, m, &mut CheckerScratch::default())
    }

    /// Creates a checker reusing the buffers pooled in `scratch`.
    ///
    /// The dense engine's allocations (interning table, record bitsets,
    /// counting maps, the pair triangle) are recovered from `scratch` and
    /// rebuilt in place instead of reallocated; hand the checker back with
    /// [`IncrementalChecker::recycle`] once done so the next construction
    /// can reuse them.  REFINE runs one scratch across all its join
    /// attempts; VERPART-style one-shot callers use [`IncrementalChecker::new`].
    pub fn with_scratch(
        records: &'a [Record],
        k: usize,
        m: usize,
        scratch: &mut CheckerScratch,
    ) -> Self {
        let inner = if m > PACK_ARITY {
            Inner::Reference(ReferenceChecker::new(records, k, m))
        } else {
            let mut dense = scratch
                .dense
                .take()
                .unwrap_or_else(|| Box::new(DenseChecker::empty()));
            if dense.rebuild(records, k, m) {
                Inner::Dense(dense)
            } else {
                // Domain beyond u16: give the buffers back, fall back.
                scratch.dense = Some(dense);
                Inner::Reference(ReferenceChecker::new(records, k, m))
            }
        };
        IncrementalChecker { k, m, inner }
    }

    /// Returns the checker's reusable buffers to `scratch` (see
    /// [`IncrementalChecker::with_scratch`]).  Dropping the checker instead
    /// merely loses the pooling, never correctness.
    pub fn recycle(self, scratch: &mut CheckerScratch) {
        if let Inner::Dense(dense) = self.inner {
            scratch.dense = Some(dense);
        }
    }

    /// The current chunk domain (sorted ascending).
    pub fn domain(&self) -> &[TermId] {
        match &self.inner {
            Inner::Dense(d) => &d.current_terms,
            Inner::Reference(r) => r.domain(),
        }
    }

    /// Whether adding `t` keeps the chunk k^m-anonymous.
    pub fn can_add(&mut self, t: TermId) -> bool {
        if self.k <= 1 || self.m == 0 {
            return true;
        }
        match &mut self.inner {
            Inner::Dense(d) => d.can_add(t),
            Inner::Reference(r) => {
                obs_counters::CORE_CHECKER_TRIALS_FALLBACK.inc();
                r.can_add(t)
            }
        }
    }

    /// Whether adding `t` keeps the chunk **k-anonymous**: every distinct
    /// non-empty projection onto `domain ∪ {t}` appears at least `k` times
    /// (the Property 1 trial of REFINE's shared-chunk construction).
    ///
    /// Equivalent to materializing every trial projection and running
    /// [`is_k_anonymous`], but the dense engine maintains the
    /// projection-equality groups incrementally and answers from the new
    /// term's postings — `O(support(t) + #groups)` instead of cloning and
    /// recounting a `Vec<Record>` per trial.
    pub fn can_add_k(&mut self, t: TermId) -> bool {
        if self.k <= 1 {
            return true;
        }
        match &mut self.inner {
            Inner::Dense(d) => d.can_add_k(t),
            Inner::Reference(r) => r.can_add_k(t),
        }
    }

    /// Support of `t` among the checker's records (0 when absent from all).
    pub fn support_of(&self, t: TermId) -> u64 {
        match &self.inner {
            Inner::Dense(d) => d.support_of(t) as u64,
            Inner::Reference(r) => r.support_of(t),
        }
    }

    /// Adds `t` to the chunk domain (the caller has already established that
    /// the chunk stays anonymous, or deliberately forces the addition).
    pub fn add(&mut self, t: TermId) {
        match &mut self.inner {
            Inner::Dense(d) => d.add(t),
            Inner::Reference(r) => r.add(t),
        }
    }

    /// Resets the domain to empty (to start building the next chunk).
    pub fn reset(&mut self) {
        match &mut self.inner {
            Inner::Dense(d) => d.reset(),
            Inner::Reference(r) => r.reset(),
        }
    }

    /// Materializes the projection of every record onto the current domain
    /// (one `Record` per input record, in input order, possibly empty).
    ///
    /// Equal to `records[i].project_sorted(self.domain())` for every `i` —
    /// VERPART reuses this to publish the chunk it just built instead of
    /// re-projecting every record.
    pub fn projections(&self) -> Vec<Record> {
        match &self.inner {
            Inner::Dense(d) => d.projections(),
            Inner::Reference(r) => r.projections().to_vec(),
        }
    }
}

/// A pool of the dense engine's reusable allocations.
///
/// [`IncrementalChecker::with_scratch`] recovers the interning table, the
/// flat record-bitset buffer, the counting maps and the pair triangle from
/// here and rebuilds them in place for the next cluster;
/// [`IncrementalChecker::recycle`] puts them back.  One scratch amortizes
/// every per-cluster allocation of a long sequence of checker builds (REFINE
/// runs one across all join attempts of a refining run).
#[derive(Debug, Default)]
pub struct CheckerScratch {
    dense: Option<Box<DenseChecker>>,
}

/// The dense-engine state behind [`IncrementalChecker`].
///
/// Record bitsets are stored as **flat rows** of one shared `Vec<u64>`
/// (record `i` occupies `bits[i·words..(i+1)·words]`): one allocation per
/// cluster instead of one per record, reusable across rebuilds and friendly
/// to the word-wise loops.
#[derive(Debug, Default)]
struct DenseChecker {
    k: usize,
    m: usize,
    /// Cluster-local interning of the record terms.
    domain: DenseDomain,
    /// Row width of `bits`, in `u64` words.
    words: usize,
    /// Number of records (= rows of `bits`).
    n_records: usize,
    /// Flat record bitsets (see type docs).
    bits: Vec<u64>,
    /// Cluster support per dense id.
    supports: Vec<u32>,
    /// Bitset of the current chunk domain (width `words`).
    current: Vec<u64>,
    /// Current domain as sorted `TermId`s (may include terms absent from
    /// every record — mirrors the reference checker's bookkeeping).
    current_terms: Vec<TermId>,
    /// Current domain as sorted dense ids (only terms present in records).
    current_dense: Vec<u16>,
    /// m = 2 fast path: the full co-occurrence triangle, built once per
    /// cluster of at most [`TRIANGLE_MAX_DOMAIN`] terms, so `can_add(t)` is
    /// one lookup per current-domain term.  Entry `(a, b)` with `a < b` is
    /// the number of records containing both terms.  `None` for other `m`
    /// and wider domains, which count packed combinations instead.
    pairs: Option<Vec<u32>>,
    /// Packed-combination counting scratch: cleared, never
    /// reallocated, across `can_add` calls.
    counts: ComboCountMap,
    /// Reusable buffer for a record's projected dense ids.
    scratch_ids: Vec<u16>,
    /// CSR postings: `postings[postings_start[d]..postings_start[d+1]]` are
    /// the (ascending) row indices containing dense id `d`.
    postings_start: Vec<u32>,
    postings: Vec<u32>,
    /// Fill cursor reused by the postings build.
    postings_cursor: Vec<u32>,
    /// Projection-equality groups: rows with equal projections onto the
    /// current domain share a group id; group 0 holds the empty projections.
    /// Maintained incrementally by `add` (rows containing the new term split
    /// off their group), this is what makes the k-anonymity trial
    /// (`can_add_k`) O(support(t) + #groups) instead of a full row scan.
    group_of: Vec<u32>,
    group_count: Vec<u32>,
    /// Dense ids accepted into the domain but not yet folded into the
    /// groups.  Group refinement is order-independent, so the splits are
    /// deferred until a `can_add_k` actually needs them — callers that never
    /// run Property 1 trials (VERPART) pay nothing.
    group_pending: Vec<u16>,
    /// Per-split scratch: old group id → the id its `t`-rows split into.
    group_remap: HashMap<u32, u32, FxBuildHasher>,
    /// Per-trial scratch: old group id → number of its rows containing `t`.
    trial_ct: HashMap<u32, u32, FxBuildHasher>,
}

impl DenseChecker {
    /// An empty checker holding no records (a rebuild target).
    fn empty() -> DenseChecker {
        DenseChecker::default()
    }

    /// Rebuilds the checker over `records` in place, reusing every buffer.
    /// Returns `false` (contents unspecified, safe to retry) when the
    /// cluster domain does not fit `u16` dense ids.
    fn rebuild(&mut self, records: &[Record], k: usize, m: usize) -> bool {
        if !self.domain.rebuild(records.iter()) {
            return false;
        }
        self.k = k;
        self.m = m;
        let words = self.domain.words();
        self.words = words;
        self.n_records = records.len();
        self.bits.clear();
        self.bits.resize(records.len() * words, 0);
        self.supports.clear();
        self.supports.resize(self.domain.len(), 0);
        for (i, r) in records.iter().enumerate() {
            let row = &mut self.bits[i * words..(i + 1) * words];
            for t in r.iter() {
                if let Some(d) = self.domain.dense_of(t) {
                    bits_set(row, d);
                    self.supports[d as usize] += 1;
                }
            }
        }
        // Postings (CSR): supports double as the per-id slot counts.
        let d = self.domain.len();
        self.postings_start.clear();
        self.postings_start.resize(d + 1, 0);
        for i in 0..d {
            self.postings_start[i + 1] = self.postings_start[i] + self.supports[i];
        }
        self.postings_cursor.clear();
        self.postings_cursor
            .extend_from_slice(&self.postings_start[..d]);
        self.postings.clear();
        self.postings.resize(self.postings_start[d] as usize, 0);
        for (i, r) in records.iter().enumerate() {
            for t in r.iter() {
                if let Some(d) = self.domain.dense_of(t) {
                    let slot = &mut self.postings_cursor[d as usize];
                    self.postings[*slot as usize] = i as u32;
                    *slot += 1;
                }
            }
        }
        self.group_of.clear();
        self.group_of.resize(records.len(), 0);
        self.group_count.clear();
        self.group_count.push(records.len() as u32);
        self.group_pending.clear();
        let mut tri = self.pairs.take().unwrap_or_default();
        self.pairs = (m == 2 && k > 1 && self.domain.len() <= TRIANGLE_MAX_DOMAIN).then(|| {
            tri.clear();
            tri.resize(
                self.domain.len() * self.domain.len().saturating_sub(1) / 2,
                0,
            );
            let ids = &mut self.scratch_ids;
            for i in 0..self.n_records {
                let row = &self.bits[i * words..(i + 1) * words];
                ids.clear();
                bits_for_each(row, |d| ids.push(d));
                for j in 1..ids.len() {
                    for l in 0..j {
                        tri[tri_index(ids[l], ids[j])] += 1;
                    }
                }
            }
            tri
        });
        self.current.clear();
        self.current.resize(words, 0);
        self.current_terms.clear();
        self.current_dense.clear();
        self.counts.clear();
        true
    }

    fn support_of(&self, t: TermId) -> u32 {
        self.domain
            .dense_of(t)
            .map(|d| self.supports[d as usize])
            .unwrap_or(0)
    }

    fn can_add(&mut self, t: TermId) -> bool {
        let Some(dt) = self.domain.dense_of(t) else {
            // `t` appears in no record: no combination involves it.
            return true;
        };
        let support = self.supports[dt as usize];
        if support == 0 {
            return true;
        }
        // The singleton {t} has count = support(t); every larger combination
        // containing t appears at most that often, so this rejects early.
        if (support as usize) < self.k {
            return false;
        }
        if self.m == 1 {
            return true;
        }
        let words = self.words;
        let rows_with_t = &self.postings[self.postings_start[dt as usize] as usize
            ..self.postings_start[dt as usize + 1] as usize];
        match &self.pairs {
            // m = 2: the only new combinations are {t} (checked above) and
            // {t, u} for current-domain terms u.  Their counts are the plain
            // pair co-occurrences — independent of the current domain — so
            // the triangle answers each in O(1), earliest exit wins.
            Some(tri) => {
                obs_counters::CORE_CHECKER_TRIALS_M2_TRIANGLE.inc();
                self.current_dense.iter().all(|&u| {
                    let c = tri[tri_index(dt.min(u), dt.max(u))];
                    c == 0 || c as usize >= self.k
                })
            }
            // m ∈ 2..=PACK_ARITY without a triangle: count every combination
            // {t} ∪ S with S a non-empty subset of the projected record,
            // |S| < m, under
            // packed keys (S ascending, t in the last lane — canonical for a
            // fixed t).  The map is cleared, never reallocated.
            None => {
                obs_counters::CORE_CHECKER_TRIALS_PACKED.inc();
                let (k, m) = (self.k, self.m);
                self.counts.clear();
                for &i in rows_with_t {
                    let i = i as usize;
                    let row = &self.bits[i * words..(i + 1) * words];
                    self.scratch_ids.clear();
                    bits_for_each_and(row, &self.current, |d| self.scratch_ids.push(d));
                    for_each_subset_with(&self.scratch_ids, dt, m - 1, |combo| {
                        *self.counts.entry(combo).or_insert(0) += 1;
                    });
                }
                self.counts.values().all(|&c| c as usize >= k)
            }
        }
    }

    /// The Property 1 trial: whether every distinct non-empty projection onto
    /// `current ∪ {t}` appears at least `k` times.
    ///
    /// Adding `t` splits each projection-equality group into its rows with
    /// and without `t` (no two groups can merge — no current projection
    /// contains `t`), so the trial only needs the per-group `t`-row counts
    /// from the postings: O(support(t) + #groups), no row scan, nothing
    /// materialized.
    fn can_add_k(&mut self, t: TermId) -> bool {
        let k = self.k as u32;
        self.apply_pending_splits();
        self.trial_ct.clear();
        if let Some(dt) = self.domain.dense_of(t) {
            // `t` already accepted: adding it again changes nothing and the
            // loop below degenerates to checking the current groups.
            if !bits_contain(&self.current, dt) {
                let rows = &self.postings[self.postings_start[dt as usize] as usize
                    ..self.postings_start[dt as usize + 1] as usize];
                for &row in rows {
                    *self
                        .trial_ct
                        .entry(self.group_of[row as usize])
                        .or_insert(0) += 1;
                }
            }
        }
        // Every group must stay k-anonymous after the split: the rows that
        // leave form a new group of size `ct`, the remainder keeps the old
        // identity.  Group 0 (empty projections) is exempt on the remainder
        // side — empty subrecords carry no information.
        for (g, &count) in self.group_count.iter().enumerate() {
            let ct = self.trial_ct.get(&(g as u32)).copied().unwrap_or(0);
            if ct != 0 && ct < k {
                return false;
            }
            if g == 0 {
                continue;
            }
            let rem = count - ct;
            if rem != 0 && rem < k {
                return false;
            }
        }
        true
    }

    fn add(&mut self, t: TermId) {
        if let Err(pos) = self.current_terms.binary_search(&t) {
            self.current_terms.insert(pos, t);
        }
        if let Some(dt) = self.domain.dense_of(t) {
            if !bits_contain(&self.current, dt) {
                bits_set(&mut self.current, dt);
                if let Err(pos) = self.current_dense.binary_search(&dt) {
                    self.current_dense.insert(pos, dt);
                }
                self.group_pending.push(dt);
            }
        }
    }

    /// Folds the deferred domain additions into the projection-equality
    /// groups: rows containing the added term leave their group for a fresh
    /// one (one per old group).  The resulting partition is independent of
    /// the split order.
    fn apply_pending_splits(&mut self) {
        for idx in 0..self.group_pending.len() {
            let dt = self.group_pending[idx];
            let rows = &self.postings[self.postings_start[dt as usize] as usize
                ..self.postings_start[dt as usize + 1] as usize];
            let (group_of, group_count, remap) = (
                &mut self.group_of,
                &mut self.group_count,
                &mut self.group_remap,
            );
            remap.clear();
            for &row in rows {
                let g = group_of[row as usize];
                let ng = *remap.entry(g).or_insert_with(|| {
                    group_count.push(0);
                    (group_count.len() - 1) as u32
                });
                group_count[g as usize] -= 1;
                group_count[ng as usize] += 1;
                group_of[row as usize] = ng;
            }
        }
        self.group_pending.clear();
    }

    fn reset(&mut self) {
        self.current.fill(0);
        self.current_terms.clear();
        self.current_dense.clear();
        if self.group_count.len() > 1 {
            self.group_of.fill(0);
        }
        self.group_count.clear();
        self.group_count.push(self.n_records as u32);
        self.group_pending.clear();
    }

    fn projections(&self) -> Vec<Record> {
        let words = self.words;
        (0..self.n_records)
            .map(|i| {
                let row = &self.bits[i * words..(i + 1) * words];
                let mut terms: Vec<TermId> = Vec::new();
                bits_for_each_and(row, &self.current, |d| terms.push(self.domain.term_of(d)));
                // Dense-id order is term-id order, so `terms` is sorted.
                Record::from_ids(terms)
            })
            .collect()
    }
}

/// Triangle index of the (unordered) pair `a < b`.
#[inline]
fn tri_index(a: u16, b: u16) -> usize {
    debug_assert!(a < b);
    (b as usize) * (b as usize - 1) / 2 + a as usize
}

/// Enumerates `{distinguished} ∪ S` for every subset `S ⊆ ids` with
/// `1 ≤ |S| ≤ max_others`, packed as (S ascending, distinguished last).
/// For a fixed distinguished id the keys are canonical.
fn for_each_subset_with<F: FnMut(PackedCombo)>(
    ids: &[u16],
    distinguished: u16,
    max_others: usize,
    mut f: F,
) {
    debug_assert!(max_others < PACK_ARITY);
    fn recurse<F: FnMut(PackedCombo)>(
        ids: &[u16],
        start: usize,
        depth: usize,
        max_others: usize,
        prefix: PackedCombo,
        distinguished: u16,
        f: &mut F,
    ) {
        for i in start..ids.len() {
            let combo = prefix.extended(depth, ids[i]);
            f(combo.extended(depth + 1, distinguished));
            if depth + 1 < max_others {
                recurse(ids, i + 1, depth + 1, max_others, combo, distinguished, f);
            }
        }
    }
    if max_others == 0 || ids.is_empty() {
        return;
    }
    recurse(
        ids,
        0,
        0,
        max_others,
        PackedCombo::EMPTY,
        distinguished,
        &mut f,
    );
}

// ---------------------------------------------------------------------------
// The reference checker (Itemset oracle)
// ---------------------------------------------------------------------------

/// The original `Itemset`-based incremental checker.
///
/// Maintains explicit projection records and counts combinations under
/// heap-allocated [`Itemset`] keys.  It answers every query identically to
/// the dense [`IncrementalChecker`] — kept as the property-test oracle, the
/// `m > PACK_ARITY` fallback, and the baseline the `bench_core` VERPART
/// microbenchmark measures the dense engine against.
#[derive(Debug)]
pub struct ReferenceChecker<'a> {
    /// The cluster's original records.
    records: &'a [Record],
    /// Current chunk domain (sorted).
    current_domain: Vec<TermId>,
    /// Projection of every record onto the current domain.
    projections: Vec<Record>,
    k: usize,
    m: usize,
}

impl<'a> ReferenceChecker<'a> {
    /// Creates a checker over the cluster `records` with an empty domain.
    pub fn new(records: &'a [Record], k: usize, m: usize) -> Self {
        ReferenceChecker {
            records,
            current_domain: Vec::new(),
            projections: vec![Record::new(); records.len()],
            k,
            m,
        }
    }

    /// The current chunk domain.
    pub fn domain(&self) -> &[TermId] {
        &self.current_domain
    }

    /// The current projections (one per record, possibly empty).
    pub fn projections(&self) -> &[Record] {
        &self.projections
    }

    /// Whether adding `t` keeps the chunk k^m-anonymous.
    pub fn can_add(&self, t: TermId) -> bool {
        if self.k <= 1 || self.m == 0 {
            return true;
        }
        // Count only the combinations that contain `t`.
        let mut counts: HashMap<Itemset, u64> = HashMap::new();
        for (rec, proj) in self.records.iter().zip(&self.projections) {
            if !rec.contains(t) {
                continue;
            }
            let mut extended = proj.clone();
            extended.insert(t);
            for_each_subset_containing(extended.terms(), t, self.m, |subset| {
                *counts.entry(Itemset(subset.to_vec())).or_insert(0) += 1;
            });
        }
        counts.values().all(|&c| c as usize >= self.k)
    }

    /// Whether adding `t` keeps the chunk **k-anonymous** (the Property 1
    /// trial): materializes the trial projections and counts them — the
    /// oracle the dense hashed-bitset path of
    /// [`IncrementalChecker::can_add_k`] is checked against.
    pub fn can_add_k(&self, t: TermId) -> bool {
        if self.k <= 1 {
            return true;
        }
        let mut trial = self.projections.clone();
        for (rec, proj) in self.records.iter().zip(trial.iter_mut()) {
            if rec.contains(t) {
                proj.insert(t);
            }
        }
        is_k_anonymous(&trial, self.k)
    }

    /// Support of `t` among the checker's records.
    pub fn support_of(&self, t: TermId) -> u64 {
        self.records.iter().filter(|r| r.contains(t)).count() as u64
    }

    /// Adds `t` to the chunk domain.
    pub fn add(&mut self, t: TermId) {
        if let Err(pos) = self.current_domain.binary_search(&t) {
            self.current_domain.insert(pos, t);
        }
        for (rec, proj) in self.records.iter().zip(self.projections.iter_mut()) {
            if rec.contains(t) {
                proj.insert(t);
            }
        }
    }

    /// Resets the domain to empty (to start building the next chunk).
    pub fn reset(&mut self) {
        self.current_domain.clear();
        for p in &mut self.projections {
            *p = Record::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    fn tid(i: u32) -> TermId {
        TermId::new(i)
    }

    #[test]
    fn km_anonymity_of_figure2_chunk_c1() {
        // Chunk C1 of Figure 2b: {itunes(0), flu(1), madonna(2)} projections.
        let subrecords = vec![
            rec(&[0, 1, 2]),
            rec(&[2, 1]),
            rec(&[0, 2]),
            rec(&[0, 1]),
            rec(&[0, 1, 2]),
        ];
        assert!(is_km_anonymous(&subrecords, 3, 2));
        assert!(
            !is_km_anonymous(&subrecords, 4, 2),
            "each pair appears exactly 3 times"
        );
    }

    #[test]
    fn km_anonymity_trivial_cases() {
        assert!(is_km_anonymous(&[], 5, 2));
        assert!(
            is_km_anonymous(&[rec(&[1])], 1, 2),
            "k=1 is always satisfied"
        );
        assert!(
            is_km_anonymous(&[rec(&[1])], 5, 0),
            "m=0 means no background knowledge"
        );
        assert!(!is_km_anonymous(&[rec(&[1])], 2, 1));
    }

    #[test]
    fn empty_subrecords_are_ignored() {
        let subrecords = vec![rec(&[]), rec(&[1]), rec(&[1]), rec(&[])];
        assert!(is_km_anonymous(&subrecords, 2, 2));
    }

    #[test]
    fn km_violation_detected_for_rare_pair() {
        let subrecords = vec![rec(&[1, 2]), rec(&[1]), rec(&[2]), rec(&[1, 2])];
        assert!(is_km_anonymous(&subrecords, 2, 2));
        assert!(
            !is_km_anonymous(&subrecords, 3, 2),
            "pair {{1,2}} appears twice"
        );
        // With m = 1 only singletons matter: both appear 3 times.
        assert!(is_km_anonymous(&subrecords, 3, 1));
    }

    #[test]
    fn dense_and_reference_checks_agree_across_m() {
        let subrecords = vec![
            rec(&[1, 2, 3, 4]),
            rec(&[1, 2, 3]),
            rec(&[1, 2, 3, 4, 5]),
            rec(&[2, 3, 4]),
            rec(&[1, 3, 4, 5]),
        ];
        for k in 2..=5 {
            for m in 1..=6 {
                assert_eq!(
                    is_km_anonymous(&subrecords, k, m),
                    is_km_anonymous_reference(&subrecords, k, m),
                    "k={k} m={m}"
                );
            }
        }
    }

    #[test]
    fn m_above_pack_arity_uses_the_fallback() {
        // m = 5 exceeds PACK_ARITY: both entry points must agree (and the
        // violation — the 5-subset {1..5} appears only twice — is found).
        let subrecords = vec![rec(&[1, 2, 3, 4, 5]), rec(&[1, 2, 3, 4, 5])];
        assert!(is_km_anonymous(&subrecords, 2, 5));
        assert!(!is_km_anonymous(&subrecords, 3, 5));
        assert_eq!(
            is_km_anonymous(&subrecords, 3, 5),
            is_km_anonymous_reference(&subrecords, 3, 5)
        );
    }

    #[test]
    fn k_anonymity_counts_identical_subrecords() {
        let subrecords = vec![rec(&[1, 2]), rec(&[1, 2]), rec(&[1, 2])];
        assert!(is_k_anonymous(&subrecords, 3));
        assert!(!is_k_anonymous(&subrecords, 4));
        let mixed = vec![rec(&[1, 2]), rec(&[1, 2]), rec(&[1])];
        assert!(!is_k_anonymous(&mixed, 2));
        assert!(is_k_anonymous(&[], 5));
        assert!(is_k_anonymous(&[rec(&[])], 5), "empty subrecords ignored");
    }

    #[test]
    fn k_anonymity_implies_km_anonymity() {
        let subrecords = vec![rec(&[1, 2, 3]); 4];
        for m in 1..=3 {
            assert!(is_km_anonymous(&subrecords, 4, m));
        }
        assert!(is_k_anonymous(&subrecords, 4));
    }

    #[test]
    fn combination_counts_are_exact() {
        let subrecords = vec![rec(&[1, 2]), rec(&[1, 2, 3])];
        let counts = combination_counts(&subrecords, 2);
        assert_eq!(counts[&Itemset(vec![tid(1)])], 2);
        assert_eq!(counts[&Itemset(vec![tid(1), tid(2)])], 2);
        assert_eq!(counts[&Itemset(vec![tid(2), tid(3)])], 1);
        assert!(!counts.contains_key(&Itemset(vec![tid(1), tid(2), tid(3)])));
    }

    #[test]
    fn incremental_checker_matches_full_check() {
        // Cluster P1 of Figure 2 (term ids: itunes=0, flu=1, madonna=2,
        // audi=3, sony=4, ikea=5, viagra=6, ruby=7).
        let records = vec![
            rec(&[0, 1, 2, 5, 7]),
            rec(&[2, 1, 6, 7, 3, 4]),
            rec(&[0, 2, 3, 5, 4]),
            rec(&[0, 1, 6]),
            rec(&[0, 1, 2, 3, 4]),
        ];
        let (k, m) = (3, 2);
        let mut checker = IncrementalChecker::new(&records, k, m);
        // Candidate order by descending support: 0(4),1(4),2(4),3(3),4(3),5(2),6(2),7(2).
        let mut accepted = Vec::new();
        for t in [0u32, 1, 2, 3, 4].map(tid) {
            if checker.can_add(t) {
                checker.add(t);
                accepted.push(t);
                // The projected chunk must be k^m-anonymous after every accepted add.
                let projections: Vec<Record> = records
                    .iter()
                    .map(|r| r.project_sorted(checker.domain()))
                    .collect();
                assert!(is_km_anonymous(&projections, k, m));
                assert_eq!(checker.projections(), projections);
            }
        }
        // itunes, flu, madonna are mutually frequent enough (each pair ≥ 3);
        // audi/sony pairs with them appear only 2-3 times.
        assert!(accepted.contains(&tid(0)));
        assert!(accepted.contains(&tid(1)));
        assert!(accepted.contains(&tid(2)));
    }

    #[test]
    fn incremental_checker_rejects_violating_term() {
        // Term 9 co-occurs with 1 only once: adding it after 1 violates 2^2.
        let records = vec![rec(&[1, 9]), rec(&[1]), rec(&[1]), rec(&[9])];
        let mut checker = IncrementalChecker::new(&records, 2, 2);
        assert!(checker.can_add(tid(1)));
        checker.add(tid(1));
        assert!(!checker.can_add(tid(9)), "pair {{1,9}} appears only once");
        checker.reset();
        assert!(checker.can_add(tid(9)), "singleton 9 has support 2");
    }

    #[test]
    fn incremental_checker_reset_clears_state() {
        let records = vec![rec(&[1, 2]), rec(&[1, 2])];
        let mut checker = IncrementalChecker::new(&records, 2, 2);
        checker.add(tid(1));
        assert_eq!(checker.domain(), &[tid(1)]);
        checker.reset();
        assert!(checker.domain().is_empty());
        assert!(checker.projections().iter().all(Record::is_empty));
    }

    /// Runs a full greedy pass with both checkers and asserts identical
    /// accept/reject decisions, domains and projections.
    fn assert_checkers_agree(records: &[Record], candidates: &[TermId], k: usize, m: usize) {
        let mut dense = IncrementalChecker::new(records, k, m);
        let mut reference = ReferenceChecker::new(records, k, m);
        for &t in candidates {
            let a = dense.can_add(t);
            let b = reference.can_add(t);
            assert_eq!(a, b, "can_add({t}) diverges for k={k} m={m}");
            if a {
                dense.add(t);
                reference.add(t);
            }
        }
        assert_eq!(dense.domain(), reference.domain());
        assert_eq!(dense.projections(), reference.projections());
    }

    #[test]
    fn dense_checker_matches_reference_on_figure2() {
        let records = vec![
            rec(&[0, 1, 2, 5, 7]),
            rec(&[2, 1, 6, 7, 3, 4]),
            rec(&[0, 2, 3, 5, 4]),
            rec(&[0, 1, 6]),
            rec(&[0, 1, 2, 3, 4]),
        ];
        let candidates: Vec<TermId> = (0..8).map(tid).collect();
        for k in 2..=4 {
            for m in 1..=5 {
                assert_checkers_agree(&records, &candidates, k, m);
            }
        }
    }

    #[test]
    fn dense_checker_m3_packed_path_matches_reference() {
        // Records long enough that triples matter.
        let records = vec![
            rec(&[1, 2, 3, 4, 5]),
            rec(&[1, 2, 3, 4]),
            rec(&[1, 2, 3, 5]),
            rec(&[2, 3, 4, 5]),
            rec(&[1, 2, 4, 5]),
            rec(&[1, 3, 4, 5]),
        ];
        let candidates: Vec<TermId> = (1..=5).map(tid).collect();
        for k in 2..=4 {
            assert_checkers_agree(&records, &candidates, k, 3);
            assert_checkers_agree(&records, &candidates, k, 4);
        }
    }

    #[test]
    fn m2_packed_path_matches_reference_beyond_the_domain_ceiling() {
        // > TRIANGLE_MAX_DOMAIN distinct terms: m = 2 counts packed pairs.
        let wide: Vec<u32> = (0..1100).collect();
        let mut records: Vec<Record> = vec![rec(&wide), rec(&wide)];
        records.push(rec(&[0, 1, 2]));
        records.push(rec(&[0, 1, 3]));
        let candidates: Vec<TermId> = (0..6).map(tid).collect();
        for k in 2..=3 {
            assert_checkers_agree(&records, &candidates, k, 2);
        }
        assert_eq!(
            is_km_anonymous(&records, 2, 2),
            is_km_anonymous_reference(&records, 2, 2)
        );
    }

    #[test]
    fn term_absent_from_every_record_is_always_addable() {
        let records = vec![rec(&[1, 2]), rec(&[1, 2])];
        let mut checker = IncrementalChecker::new(&records, 2, 2);
        assert!(checker.can_add(tid(99)), "no record contains 99");
        checker.add(tid(99));
        assert_eq!(checker.domain(), &[tid(99)]);
        assert!(checker.projections().iter().all(Record::is_empty));
    }

    /// What `can_add_k` replaces: materialize every trial projection and run
    /// the chunk-level k-anonymity check.
    fn materialized_k_trial(
        checker: &IncrementalChecker,
        records: &[Record],
        t: TermId,
        k: usize,
    ) -> bool {
        let mut trial = checker.projections();
        for (rec, proj) in records.iter().zip(trial.iter_mut()) {
            if rec.contains(t) {
                proj.insert(t);
            }
        }
        is_k_anonymous(&trial, k)
    }

    #[test]
    fn can_add_k_matches_the_materialized_trial() {
        let records = vec![
            rec(&[0, 1, 2, 5, 7]),
            rec(&[2, 1, 6, 7, 3, 4]),
            rec(&[0, 2, 3, 5, 4]),
            rec(&[0, 1, 6]),
            rec(&[0, 1, 2, 3, 4]),
            rec(&[0, 1, 2]),
        ];
        let candidates: Vec<TermId> = (0..8).map(tid).collect();
        for k in 2..=4 {
            let mut checker = IncrementalChecker::new(&records, k, 2);
            // Greedy replay: every trial verdict must equal the materialized
            // check, whether accepted or not.
            for round in 0..2 {
                checker.reset();
                for &t in &candidates {
                    let expected = materialized_k_trial(&checker, &records, t, k);
                    assert_eq!(
                        checker.can_add_k(t),
                        expected,
                        "k={k} round={round} trial {t} diverges from the materialized check"
                    );
                    if expected {
                        checker.add(t);
                    }
                }
            }
        }
    }

    #[test]
    fn can_add_k_zero_support_term_verdict_is_unchanged() {
        // Term 99 occurs in no record: the trial projections equal the
        // current ones, so the verdict must match `is_k_anonymous` of the
        // current state — true on a k-anonymous prefix, false on a
        // non-k-anonymous one (the forced `add` below builds the latter).
        let records = vec![rec(&[1, 2]), rec(&[1]), rec(&[2]), rec(&[1, 2])];
        let k = 2;
        let mut checker = IncrementalChecker::new(&records, k, 2);
        assert_eq!(checker.support_of(tid(99)), 0);
        assert!(checker.can_add_k(tid(99)), "empty chunk is k-anonymous");
        assert!(materialized_k_trial(&checker, &records, tid(99), k));
        // Force a non-k-anonymous current state: projections {1,2},{1},{2},{1,2}
        // have two singleton groups.
        checker.add(tid(1));
        checker.add(tid(2));
        assert!(!materialized_k_trial(&checker, &records, tid(99), k));
        assert!(
            !checker.can_add_k(tid(99)),
            "zero-support trial must still expose a non-k-anonymous prefix"
        );
    }

    #[test]
    fn support_of_counts_cluster_records() {
        let records = vec![rec(&[1, 2]), rec(&[1]), rec(&[2, 3])];
        let dense = IncrementalChecker::new(&records, 2, 2);
        let reference = ReferenceChecker::new(&records, 2, 2);
        for t in [1u32, 2, 3, 99] {
            assert_eq!(dense.support_of(tid(t)), reference.support_of(tid(t)));
        }
        assert_eq!(dense.support_of(tid(1)), 2);
        assert_eq!(dense.support_of(tid(99)), 0);
    }

    #[test]
    fn scratch_recycling_preserves_answers_across_clusters() {
        let cluster_a = vec![rec(&[1, 2, 3]), rec(&[1, 2]), rec(&[1, 2, 3]), rec(&[3])];
        let cluster_b = vec![rec(&[7, 8]), rec(&[7, 9]), rec(&[7, 8, 9]), rec(&[8, 9])];
        let mut scratch = CheckerScratch::default();
        for (k, m) in [(2, 2), (3, 2), (2, 3)] {
            for records in [&cluster_a, &cluster_b] {
                let mut pooled = IncrementalChecker::with_scratch(records, k, m, &mut scratch);
                let mut fresh = IncrementalChecker::new(records, k, m);
                let candidates: Vec<TermId> = (1..10).map(tid).collect();
                for &t in &candidates {
                    assert_eq!(pooled.can_add(t), fresh.can_add(t), "k={k} m={m} t={t}");
                    assert_eq!(pooled.can_add_k(t), fresh.can_add_k(t), "k={k} m={m} t={t}");
                    assert_eq!(pooled.support_of(t), fresh.support_of(t));
                    if pooled.can_add(t) {
                        pooled.add(t);
                        fresh.add(t);
                    }
                }
                assert_eq!(pooled.domain(), fresh.domain());
                assert_eq!(pooled.projections(), fresh.projections());
                pooled.recycle(&mut scratch);
            }
        }
    }
}
