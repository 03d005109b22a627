//! VERPART — vertical partitioning of a cluster (Algorithm VERPART, Section 4).
//!
//! Given a cluster `P` and the privacy parameters `k`, `m`, the algorithm
//! splits the cluster domain `T^P` into record-chunk domains `T_1..T_v` and a
//! term-chunk domain `T_T` such that every record chunk is k^m-anonymous:
//!
//! 1. terms with support `< k` can never be k^m-anonymous and go straight to
//!    the term chunk;
//! 2. the remaining terms are considered in descending support order and
//!    greedily added to the current chunk domain as long as the chunk stays
//!    k^m-anonymous (only combinations involving the new term need checking —
//!    see [`crate::anonymity::IncrementalChecker`]).  REFINE builds its
//!    shared chunks with this same greedy procedure (`greedy_chunks`, one
//!    implementation for both), adding Property 1's k-anonymity trial;
//! 3. after all chunks are built, the Lemma 2 side condition is enforced: a
//!    cluster whose term chunk is empty must contain at least
//!    `|P| + k·(min(m, v) − 1)` subrecords, otherwise the least frequent
//!    record-chunk term is demoted to the term chunk.
//!
//! The subrecords of every chunk are shuffled before publication so that the
//! association between subrecords of different chunks is destroyed — this is
//! the actual "disassociation".

use crate::anonymity::IncrementalChecker;
use crate::model::{Cluster, RecordChunk, TermChunk};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use transact::{Record, SupportMap, TermId};

/// Options of a vertical partitioning run.
#[derive(Debug, Clone, Default)]
pub struct VerPartOptions {
    /// Terms that must be placed in the term chunk regardless of support —
    /// the l-diversity mode routes the *sensitive* terms here (Section 5).
    pub forced_term_chunk: BTreeSet<TermId>,
    /// When `false` the chunk subrecords keep the original record order
    /// (useful for debugging and for deterministic unit tests); publication
    /// must use `true`.
    pub shuffle: bool,
}

impl VerPartOptions {
    /// Publication defaults: shuffling on, no sensitive terms.
    pub fn publication() -> Self {
        VerPartOptions {
            forced_term_chunk: BTreeSet::new(),
            shuffle: true,
        }
    }
}

/// Vertically partitions the cluster `records` into a k^m-anonymous
/// [`Cluster`].
pub fn vertical_partition<R: Rng + ?Sized>(
    records: &[Record],
    k: usize,
    m: usize,
    options: &VerPartOptions,
    rng: &mut R,
) -> Cluster {
    let supports = SupportMap::from_records(records.iter());
    vertical_partition_with_supports(records, &supports, k, m, options, rng)
}

/// [`vertical_partition`] with the cluster's per-term supports supplied by
/// the caller, who typically needs them again afterwards (the pipeline hands
/// the same map to [`crate::refine::WorkCluster`] so it is counted once per
/// cluster, not twice).
///
/// `supports` must equal `SupportMap::from_records(records.iter())`.
pub fn vertical_partition_with_supports<R: Rng + ?Sized>(
    records: &[Record],
    supports: &SupportMap,
    k: usize,
    m: usize,
    options: &VerPartOptions,
    rng: &mut R,
) -> Cluster {
    let size = records.len();
    if size == 0 {
        return Cluster {
            size: 0,
            record_chunks: vec![],
            term_chunk: TermChunk::default(),
        };
    }

    let ordered = supports.terms_by_descending_support();

    // Split the domain into the term-chunk seed (support < k or forced) and
    // the candidates for record chunks (kept in descending support order).
    let mut term_chunk_terms: Vec<TermId> = Vec::new();
    let mut remaining: Vec<TermId> = Vec::new();
    for t in ordered {
        if options.forced_term_chunk.contains(&t) || (supports.support(t) as usize) < k {
            term_chunk_terms.push(t);
        } else {
            remaining.push(t);
        }
    }

    let mut checker = IncrementalChecker::new(records, k, m);
    // No record-chunk term is in `T^r`, so the k-anonymity trial never runs.
    let built = greedy_chunks(
        &mut checker,
        remaining,
        |_| false,
        IncrementalChecker::can_add_k,
        options.shuffle,
        rng,
    );
    // Every remaining term has support ≥ k, so each round accepts at least
    // one (a singleton chunk is k^m-anonymous); anything left unplaced would
    // stay in the term chunk.
    term_chunk_terms.extend(built.unplaced);
    let record_chunks = built.chunks.into_iter().map(|(chunk, _)| chunk).collect();

    let mut cluster = Cluster {
        size,
        record_chunks,
        term_chunk: TermChunk::new(term_chunk_terms),
    };
    enforce_lemma2(&mut cluster, supports, k, m);
    cluster
}

/// The chunks of one greedy construction, in build order.
pub(crate) struct GreedyChunks {
    /// Each chunk with whether it had to be plain k-anonymous (Property 1).
    pub(crate) chunks: Vec<(RecordChunk, bool)>,
    /// The terms left when a round accepted none of them (empty otherwise).
    pub(crate) unplaced: Vec<TermId>,
}

/// The greedy chunk construction of VERPART, which REFINE also uses for its
/// shared chunks.
///
/// Each round resets `checker` and offers it every term of `remaining` in
/// order.  A term joins the chunk while the chunk stays k^m-anonymous
/// ([`IncrementalChecker::can_add`]).  Once the chunk holds a term of `T^r`
/// (`in_t_r`), Property 1 demands plain k-anonymity instead, decided by
/// `k_trial`; k-anonymity of every accepted prefix implies k^m-anonymity, so
/// the checker's incremental argument holds across the switch.  Rejected
/// terms carry over to the next round.  A finished chunk gets its domain
/// sorted and its non-empty projections, shuffled when `shuffle` is set (the
/// only use of `rng`, one shuffle per chunk in build order).  A round that
/// accepts nothing ends the construction.
pub(crate) fn greedy_chunks<'c, R: Rng + ?Sized>(
    checker: &mut IncrementalChecker<'c>,
    mut remaining: Vec<TermId>,
    in_t_r: impl Fn(TermId) -> bool,
    mut k_trial: impl FnMut(&mut IncrementalChecker<'c>, TermId) -> bool,
    shuffle: bool,
    rng: &mut R,
) -> GreedyChunks {
    let mut chunks = Vec::new();
    while !remaining.is_empty() {
        checker.reset();
        let mut domain: Vec<TermId> = Vec::new();
        let mut needs_k = false;
        let mut rejected: Vec<TermId> = Vec::new();
        for &t in &remaining {
            let trial_needs_k = needs_k || in_t_r(t);
            let ok = if trial_needs_k {
                k_trial(checker, t)
            } else {
                checker.can_add(t)
            };
            if ok {
                checker.add(t);
                domain.push(t);
                needs_k = trial_needs_k;
            } else {
                rejected.push(t);
            }
        }
        if domain.is_empty() {
            return GreedyChunks {
                chunks,
                unplaced: rejected,
            };
        }
        domain.sort_unstable();
        // The checker maintains every record's projection onto the accepted
        // domain, so the chunk is materialized without re-projecting.
        let mut subrecords: Vec<Record> = checker
            .projections()
            .into_iter()
            .filter(|r| !r.is_empty())
            .collect();
        if shuffle {
            subrecords.shuffle(rng);
        }
        chunks.push((RecordChunk { domain, subrecords }, needs_k));
        remaining = rejected;
    }
    GreedyChunks {
        chunks,
        unplaced: Vec::new(),
    }
}

/// Enforces the Lemma 2 side condition (see module docs).  Returns whether a
/// repair was applied.
pub fn enforce_lemma2(cluster: &mut Cluster, supports: &SupportMap, k: usize, m: usize) -> bool {
    if lemma2_holds(cluster, k, m) {
        return false;
    }
    // Demote the least frequent record-chunk term to the term chunk; a
    // non-empty term chunk satisfies the lemma immediately.
    let mut candidates: Vec<TermId> = cluster
        .record_chunks
        .iter()
        .flat_map(|c| c.domain.iter().copied())
        .collect();
    candidates.sort_by_key(|&t| (supports.support(t), t));
    let Some(&victim) = candidates.first() else {
        return false;
    };
    for chunk in &mut cluster.record_chunks {
        if let Ok(pos) = chunk.domain.binary_search(&victim) {
            chunk.domain.remove(pos);
            for sub in &mut chunk.subrecords {
                sub.remove(victim);
            }
            chunk.subrecords.retain(|r| !r.is_empty());
        }
    }
    cluster.record_chunks.retain(|c| !c.domain.is_empty());
    cluster.term_chunk.insert(victim);
    true
}

/// Whether the Lemma 2 condition holds for `cluster`:
/// the term chunk is non-empty, there are no record chunks at all, or the
/// total number of subrecords is at least `|P| + k·(min(m, v) − 1)`.
pub fn lemma2_holds(cluster: &Cluster, k: usize, m: usize) -> bool {
    if !cluster.term_chunk.is_empty() {
        return true;
    }
    let v = cluster.record_chunks.len();
    if v == 0 {
        return true;
    }
    let h = m.min(v).max(1);
    cluster.total_subrecords() >= cluster.size + k * (h - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymity::{is_k_anonymous, is_km_anonymous};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    fn tid(i: u32) -> TermId {
        TermId::new(i)
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(123)
    }

    fn no_shuffle() -> VerPartOptions {
        VerPartOptions {
            forced_term_chunk: BTreeSet::new(),
            shuffle: false,
        }
    }

    /// Cluster P1 of Figure 2: itunes=0, flu=1, madonna=2, audi=3, sony=4,
    /// ikea=5, viagra=6, ruby=7.
    fn figure2_p1() -> Vec<Record> {
        vec![
            rec(&[0, 1, 2, 5, 7]),
            rec(&[2, 1, 6, 7, 3, 4]),
            rec(&[0, 2, 3, 5, 4]),
            rec(&[0, 1, 6]),
            rec(&[0, 1, 2, 3, 4]),
        ]
    }

    #[test]
    fn figure2_example_reproduces_the_published_partitioning() {
        let cluster = vertical_partition(&figure2_p1(), 3, 2, &no_shuffle(), &mut rng());
        assert_eq!(cluster.size, 5);
        // The paper's result: T1 = {itunes, flu, madonna}, T2 = {audi, sony},
        // TT = {ikea, viagra, ruby}.
        assert_eq!(cluster.record_chunks.len(), 2);
        assert_eq!(
            cluster.record_chunks[0].domain,
            vec![tid(0), tid(1), tid(2)]
        );
        assert_eq!(cluster.record_chunks[1].domain, vec![tid(3), tid(4)]);
        assert_eq!(cluster.term_chunk.terms, vec![tid(5), tid(6), tid(7)]);
        // Chunk contents: C1 has 5 non-empty subrecords, C2 has 3.
        assert_eq!(cluster.record_chunks[0].len(), 5);
        assert_eq!(cluster.record_chunks[1].len(), 3);
    }

    #[test]
    fn figure2_p2_reproduces_single_chunk() {
        // P2: madonna=2, digital camera=8, panic disorder=9, playboy=10,
        // iphone sdk=11, ikea=5, ruby=7.
        let records = vec![
            rec(&[2, 8, 9, 10]),
            rec(&[11, 2, 5, 7]),
            rec(&[11, 8, 2, 10]),
            rec(&[11, 8, 9]),
            rec(&[11, 8, 2, 5, 7]),
        ];
        let cluster = vertical_partition(&records, 3, 2, &no_shuffle(), &mut rng());
        assert_eq!(cluster.record_chunks.len(), 1);
        let mut dom = cluster.record_chunks[0].domain.clone();
        dom.sort_unstable();
        assert_eq!(dom, vec![tid(2), tid(8), tid(11)]);
        let mut tt = cluster.term_chunk.terms.clone();
        tt.sort_unstable();
        assert_eq!(tt, vec![tid(5), tid(7), tid(9), tid(10)]);
    }

    #[test]
    fn every_produced_chunk_is_km_anonymous() {
        let records = figure2_p1();
        for k in 2..=4 {
            for m in 1..=3 {
                let cluster =
                    vertical_partition(&records, k, m, &VerPartOptions::publication(), &mut rng());
                for chunk in &cluster.record_chunks {
                    assert!(
                        is_km_anonymous(&chunk.subrecords, k, m),
                        "chunk {:?} violates {k}^{m}-anonymity",
                        chunk.domain
                    );
                }
            }
        }
    }

    #[test]
    fn low_support_terms_go_to_the_term_chunk() {
        let records = vec![rec(&[1, 2]), rec(&[1, 3]), rec(&[1, 4]), rec(&[1, 5])];
        let cluster = vertical_partition(&records, 2, 2, &no_shuffle(), &mut rng());
        // Terms 2..5 have support 1 < k = 2.
        assert_eq!(
            cluster.term_chunk.terms,
            vec![tid(2), tid(3), tid(4), tid(5)]
        );
        assert_eq!(cluster.record_chunks.len(), 1);
        assert_eq!(cluster.record_chunks[0].domain, vec![tid(1)]);
    }

    #[test]
    fn empty_cluster_produces_empty_partition() {
        let cluster = vertical_partition(&[], 3, 2, &no_shuffle(), &mut rng());
        assert_eq!(cluster.size, 0);
        assert!(cluster.record_chunks.is_empty());
        assert!(cluster.term_chunk.is_empty());
    }

    #[test]
    fn forced_terms_always_land_in_term_chunk() {
        let records = vec![rec(&[1, 2]); 6];
        let mut options = no_shuffle();
        options.forced_term_chunk.insert(tid(2));
        let cluster = vertical_partition(&records, 2, 2, &options, &mut rng());
        assert!(cluster.term_chunk.contains(tid(2)));
        assert!(!cluster.record_chunk_terms().contains(&tid(2)));
        assert!(cluster.record_chunk_terms().contains(&tid(1)));
    }

    #[test]
    fn lemma2_repair_triggers_for_example1_dataset() {
        // Figure 4 / Example 1: the pathological cluster where both chunks
        // are 3^2-anonymous but no valid 5-record original containing {a, b}
        // three times exists. a=1, b=2, c=3.
        let records = vec![
            rec(&[1]),
            rec(&[1]),
            rec(&[2, 3]),
            rec(&[2, 3]),
            rec(&[1, 2, 3]),
        ];
        let cluster = vertical_partition(&records, 3, 2, &no_shuffle(), &mut rng());
        // Lemma 2 requires ≥ 5 + 3·(min(2, v) − 1) subrecords when the term
        // chunk is empty; the naive split ({a}, {b,c}) yields only 6 < 8, so
        // the repair must have moved a term to the term chunk.
        assert!(lemma2_holds(&cluster, 3, 2));
        assert!(
            !cluster.term_chunk.is_empty() || cluster.record_chunks.len() <= 1,
            "repair failed: {cluster:?}"
        );
    }

    #[test]
    fn lemma2_condition_math() {
        let cluster = Cluster {
            size: 5,
            record_chunks: vec![
                RecordChunk::new(vec![tid(1)], vec![rec(&[1]); 3]),
                RecordChunk::new(vec![tid(2)], vec![rec(&[2]); 3]),
            ],
            term_chunk: TermChunk::default(),
        };
        // 6 subrecords < 5 + 3·(2−1) = 8 → violated.
        assert!(!lemma2_holds(&cluster, 3, 2));
        // With m = 1, h = 1 → only 5 subrecords needed → holds.
        assert!(lemma2_holds(&cluster, 3, 1));
        // A non-empty term chunk always satisfies the condition.
        let mut with_term = cluster.clone();
        with_term.term_chunk.insert(tid(9));
        assert!(lemma2_holds(&with_term, 3, 2));
    }

    #[test]
    fn enforce_lemma2_moves_least_frequent_term() {
        let mut cluster = Cluster {
            size: 5,
            record_chunks: vec![
                RecordChunk::new(vec![tid(1)], vec![rec(&[1]); 4]),
                RecordChunk::new(vec![tid(2)], vec![rec(&[2]); 3]),
            ],
            term_chunk: TermChunk::default(),
        };
        let mut supports = SupportMap::default();
        for _ in 0..4 {
            supports.increment(tid(1));
        }
        for _ in 0..3 {
            supports.increment(tid(2));
        }
        let repaired = enforce_lemma2(&mut cluster, &supports, 3, 2);
        assert!(repaired);
        assert!(
            cluster.term_chunk.contains(tid(2)),
            "least frequent term demoted"
        );
        assert_eq!(cluster.record_chunks.len(), 1);
        assert!(lemma2_holds(&cluster, 3, 2));
    }

    #[test]
    fn shuffling_hides_the_original_order_but_preserves_content() {
        let records = figure2_p1();
        let unshuffled = vertical_partition(&records, 3, 2, &no_shuffle(), &mut rng());
        let shuffled =
            vertical_partition(&records, 3, 2, &VerPartOptions::publication(), &mut rng());
        for (a, b) in unshuffled.record_chunks.iter().zip(&shuffled.record_chunks) {
            assert_eq!(a.domain, b.domain);
            let mut sa = a.subrecords.clone();
            let mut sb = b.subrecords.clone();
            sa.sort_by(|x, y| x.terms().cmp(y.terms()));
            sb.sort_by(|x, y| x.terms().cmp(y.terms()));
            assert_eq!(
                sa, sb,
                "shuffling must not change the multiset of subrecords"
            );
        }
    }

    #[test]
    fn single_chunk_of_identical_records_is_k_anonymous_too() {
        let records = vec![rec(&[1, 2, 3]); 5];
        let cluster = vertical_partition(&records, 5, 2, &no_shuffle(), &mut rng());
        assert_eq!(cluster.record_chunks.len(), 1);
        assert!(is_k_anonymous(&cluster.record_chunks[0].subrecords, 5));
    }
}
