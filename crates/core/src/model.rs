//! The published (disassociated) data model.
//!
//! A disassociated dataset (Section 3 of the paper) is a forest of clusters.
//! A *simple cluster* holds:
//!
//! * its original record count `|P|` (published explicitly — without it a
//!   data analyst could not even estimate term co-occurrence),
//! * zero or more **record chunks**: bags of subrecords, each chunk
//!   individually k^m-anonymous,
//! * exactly one **term chunk**: the set of terms that could not be placed in
//!   a record chunk (set semantics; supports are hidden).
//!
//! A *joint cluster* (created by the refining step) has child clusters (simple
//! or joint) and **shared chunks** built from terms that used to sit in the
//! children's term chunks.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use transact::{Dictionary, Record, TermId};

/// A record chunk `C_i`: a bag of non-empty subrecords over a private domain
/// `T_i`.
///
/// Empty projections are not stored (they carry no information); the owning
/// cluster's [`Cluster::size`] tells how many original records exist, so the
/// number of implicit empty subrecords is `size - subrecords.len()`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct RecordChunk {
    /// The chunk domain `T_i` (sorted).
    pub domain: Vec<TermId>,
    /// The non-empty subrecords (order randomized at publication time).
    pub subrecords: Vec<Record>,
}

impl RecordChunk {
    /// Creates a chunk from a domain and subrecords, dropping empty
    /// subrecords and sorting the domain.
    pub fn new(mut domain: Vec<TermId>, subrecords: Vec<Record>) -> Self {
        domain.sort_unstable();
        domain.dedup();
        let subrecords = subrecords.into_iter().filter(|r| !r.is_empty()).collect();
        RecordChunk { domain, subrecords }
    }

    /// Number of (non-empty) subrecords `|C_i|`.
    pub fn len(&self) -> usize {
        self.subrecords.len()
    }

    /// Whether the chunk holds no subrecords.
    pub fn is_empty(&self) -> bool {
        self.subrecords.is_empty()
    }

    /// Support of `terms` inside this chunk (number of subrecords containing
    /// all of them).
    pub fn support(&self, terms: &[TermId]) -> u64 {
        self.subrecords
            .iter()
            .filter(|r| r.contains_all(terms))
            .count() as u64
    }

    /// Renders the chunk for human inspection.
    pub fn render(&self, dict: &Dictionary) -> String {
        let rows: Vec<String> = self.subrecords.iter().map(|r| r.render(dict)).collect();
        format!(
            "chunk(domain=[{}]) {}",
            self.domain
                .iter()
                .map(|t| dict.term_or_placeholder(*t))
                .collect::<Vec<_>>()
                .join(", "),
            rows.join(" ")
        )
    }
}

/// The term chunk `C_T`: a plain set of terms whose multiplicities and
/// co-occurrences are hidden.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct TermChunk {
    /// The terms (sorted, set semantics).
    #[serde(deserialize_with = "decode_terms")]
    pub terms: Vec<TermId>,
}

fn decode_terms(r: &mut serde::JsonReader<'_>) -> Result<Vec<TermId>, serde::Error> {
    transact::term::decode_sorted_ids(r, "TermChunk")
}

impl TermChunk {
    /// Creates a term chunk.
    pub fn new(mut terms: Vec<TermId>) -> Self {
        terms.sort_unstable();
        terms.dedup();
        TermChunk { terms }
    }

    /// Number of terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the term chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Whether `term` is present.
    pub fn contains(&self, term: TermId) -> bool {
        self.terms.binary_search(&term).is_ok()
    }

    /// Inserts a term (keeps sorted order).
    pub fn insert(&mut self, term: TermId) {
        if let Err(pos) = self.terms.binary_search(&term) {
            self.terms.insert(pos, term);
        }
    }

    /// Removes a term if present.
    pub fn remove(&mut self, term: TermId) -> bool {
        match self.terms.binary_search(&term) {
            Ok(pos) => {
                self.terms.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// A simple (leaf) cluster `P`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// The published original record count `|P|`.
    pub size: usize,
    /// The k^m-anonymous record chunks `C_1 .. C_v`.
    pub record_chunks: Vec<RecordChunk>,
    /// The single term chunk `C_T` (possibly empty).
    pub term_chunk: TermChunk,
}

impl Cluster {
    /// Terms appearing in the record chunks of this cluster.
    pub fn record_chunk_terms(&self) -> BTreeSet<TermId> {
        self.record_chunks
            .iter()
            .flat_map(|c| c.domain.iter().copied())
            .collect()
    }

    /// All terms of the cluster domain `T^P` (record chunks + term chunk).
    pub fn all_terms(&self) -> BTreeSet<TermId> {
        let mut set = self.record_chunk_terms();
        set.extend(self.term_chunk.terms.iter().copied());
        set
    }

    /// Total number of non-empty subrecords over all record chunks
    /// (the quantity bounded by Lemma 2).
    pub fn total_subrecords(&self) -> usize {
        self.record_chunks.iter().map(RecordChunk::len).sum()
    }

    /// Lower bound of the support of `term` derivable from the published
    /// cluster: its support inside record chunks, or 1 if it only appears in
    /// the term chunk (Section 6 of the paper).
    pub fn term_support_lower_bound(&self, term: TermId) -> u64 {
        let in_chunks: u64 = self.record_chunks.iter().map(|c| c.support(&[term])).sum();
        if in_chunks > 0 {
            in_chunks
        } else if self.term_chunk.contains(term) {
            1
        } else {
            0
        }
    }
}

/// A shared chunk of a joint cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SharedChunk {
    /// The chunk content (domain + subrecords).
    pub chunk: RecordChunk,
    /// Whether Property 1 forced this chunk to be k-anonymous (it contains a
    /// term that also appears in a descendant record/shared chunk) instead of
    /// merely k^m-anonymous.
    pub requires_k_anonymity: bool,
}

/// A joint cluster: children (simple or joint) plus shared chunks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointCluster {
    /// Child clusters.
    pub children: Vec<ClusterNode>,
    /// Shared chunks built over refining terms.
    pub shared_chunks: Vec<SharedChunk>,
}

/// A node of the published forest: either a simple or a joint cluster.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterNode {
    /// A simple cluster.
    Simple(Cluster),
    /// A joint cluster.
    Joint(JointCluster),
}

impl ClusterNode {
    /// Total number of original records covered by this node.
    pub fn size(&self) -> usize {
        match self {
            ClusterNode::Simple(c) => c.size,
            ClusterNode::Joint(j) => j.children.iter().map(ClusterNode::size).sum(),
        }
    }

    /// Iterates over the simple clusters in this subtree (depth-first).
    pub fn simple_clusters(&self) -> Vec<&Cluster> {
        let mut out = Vec::new();
        self.collect_simple(&mut out);
        out
    }

    fn collect_simple<'a>(&'a self, out: &mut Vec<&'a Cluster>) {
        match self {
            ClusterNode::Simple(c) => out.push(c),
            ClusterNode::Joint(j) => {
                for child in &j.children {
                    child.collect_simple(out);
                }
            }
        }
    }

    /// Iterates over the shared chunks in this subtree (depth-first).
    pub fn shared_chunks(&self) -> Vec<&SharedChunk> {
        let mut out = Vec::new();
        self.collect_shared(&mut out);
        out
    }

    fn collect_shared<'a>(&'a self, out: &mut Vec<&'a SharedChunk>) {
        if let ClusterNode::Joint(j) = self {
            out.extend(j.shared_chunks.iter());
            for child in &j.children {
                child.collect_shared(out);
            }
        }
    }

    /// Terms appearing in the record chunks and shared chunks of this subtree
    /// (the set `T^r` of Property 1).
    pub fn record_and_shared_terms(&self) -> BTreeSet<TermId> {
        let mut set = BTreeSet::new();
        for c in self.simple_clusters() {
            set.extend(c.record_chunk_terms());
        }
        for s in self.shared_chunks() {
            set.extend(s.chunk.domain.iter().copied());
        }
        set
    }

    /// Whether `term` appears anywhere in this subtree: in a record-chunk
    /// domain, a shared-chunk domain, or a term chunk.
    pub fn mentions_term(&self, term: TermId) -> bool {
        self.any_term(&mut |t| t == term)
    }

    /// Walks every term this subtree mentions — term chunks, record-chunk
    /// domains, shared-chunk domains, recursively through joint children —
    /// until `hit` returns true (a term may be visited more than once).
    /// The one definition of "mentions": [`Self::mentions_term`] and the
    /// term postings of the published-read index (`GET
    /// /datasets/{name}/chunks?term=`) both walk it.
    pub fn any_term<F: FnMut(TermId) -> bool>(&self, hit: &mut F) -> bool {
        match self {
            ClusterNode::Simple(c) => {
                c.term_chunk.terms.iter().any(|&t| hit(t))
                    || c.record_chunks
                        .iter()
                        .any(|rc| rc.domain.iter().any(|&t| hit(t)))
            }
            ClusterNode::Joint(j) => {
                j.shared_chunks
                    .iter()
                    .any(|s| s.chunk.domain.iter().any(|&t| hit(t)))
                    || j.children.iter().any(|child| child.any_term(hit))
            }
        }
    }

    /// Terms currently residing in term chunks of this subtree (the *virtual
    /// term chunk* of the refining step).
    pub fn virtual_term_chunk(&self) -> BTreeSet<TermId> {
        self.simple_clusters()
            .iter()
            .flat_map(|c| c.term_chunk.terms.iter().copied())
            .collect()
    }
}

/// The complete disassociated (published) dataset.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DisassociatedDataset {
    /// The `k` of the k^m guarantee.
    pub k: usize,
    /// The `m` of the k^m guarantee.
    pub m: usize,
    /// The published forest of clusters.
    pub clusters: Vec<ClusterNode>,
}

impl DisassociatedDataset {
    /// Total number of original records `|D|`.
    pub fn total_records(&self) -> usize {
        self.clusters.iter().map(ClusterNode::size).sum()
    }

    /// All simple clusters of the forest.
    pub fn simple_clusters(&self) -> Vec<&Cluster> {
        self.clusters
            .iter()
            .flat_map(ClusterNode::simple_clusters)
            .collect()
    }

    /// All shared chunks of the forest.
    pub fn shared_chunks(&self) -> Vec<&SharedChunk> {
        self.clusters
            .iter()
            .flat_map(ClusterNode::shared_chunks)
            .collect()
    }

    /// Total number of record chunks (not counting shared chunks).
    pub fn num_record_chunks(&self) -> usize {
        self.simple_clusters()
            .iter()
            .map(|c| c.record_chunks.len())
            .sum()
    }

    /// All subrecords of all record chunks and shared chunks.
    ///
    /// These are the "certain" itemset occurrences of the published data:
    /// the basis of the paper's `tKd-a` / `re-a` metrics, which only count
    /// itemsets that are guaranteed to exist in *any* reconstruction.
    pub fn chunk_subrecords(&self) -> Vec<Record> {
        let mut out = Vec::new();
        for c in self.simple_clusters() {
            for chunk in &c.record_chunks {
                out.extend(chunk.subrecords.iter().cloned());
            }
        }
        for s in self.shared_chunks() {
            out.extend(s.chunk.subrecords.iter().cloned());
        }
        out
    }

    /// Lower bound of the support of `term` across the published dataset
    /// (chunk occurrences plus one per term chunk that lists it).
    pub fn term_support_lower_bound(&self, term: TermId) -> u64 {
        let mut total = 0u64;
        for c in self.simple_clusters() {
            total += c.term_support_lower_bound(term);
        }
        for s in self.shared_chunks() {
            total += s.chunk.support(&[term]);
        }
        total
    }

    /// The set of all terms appearing anywhere in the published dataset.
    ///
    /// Disassociation preserves every original term (the headline property of
    /// the transformation), so this equals the original domain.
    pub fn all_terms(&self) -> BTreeSet<TermId> {
        let mut set = BTreeSet::new();
        for c in self.simple_clusters() {
            set.extend(c.all_terms());
        }
        for s in self.shared_chunks() {
            set.extend(s.chunk.domain.iter().copied());
        }
        set
    }

    /// Terms that appear *only* in term chunks (nowhere in a record or shared
    /// chunk) — the numerator of the paper's `tlost` metric is the subset of
    /// these whose original support was ≥ k.
    pub fn terms_only_in_term_chunks(&self) -> BTreeSet<TermId> {
        let mut in_chunks = BTreeSet::new();
        for c in self.simple_clusters() {
            in_chunks.extend(c.record_chunk_terms());
        }
        for s in self.shared_chunks() {
            in_chunks.extend(s.chunk.domain.iter().copied());
        }
        let mut only_term: BTreeSet<TermId> = BTreeSet::new();
        for c in self.simple_clusters() {
            for &t in &c.term_chunk.terms {
                if !in_chunks.contains(&t) {
                    only_term.insert(t);
                }
            }
        }
        only_term
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
    fn decoding_rejects_repeated_fields_and_unsorted_term_chunks() {
        let err =
            serde_json::from_str::<DisassociatedDataset>(r#"{"k":5,"k":9,"m":2,"clusters":[]}"#)
                .unwrap_err()
                .to_string();
        assert!(
            err.contains("duplicate field `k` of `DisassociatedDataset`"),
            "{err}"
        );
        let unknown: DisassociatedDataset =
            serde_json::from_str(r#"{"k":5,"extra":{"x":[1]},"m":2,"clusters":[]}"#).unwrap();
        assert_eq!((unknown.k, unknown.m), (5, 2), "unknown fields are ignored");
        let err = serde_json::from_str::<DisassociatedDataset>(r#"{"k":5,"m":2}"#)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("missing field `clusters` of `DisassociatedDataset`"),
            "{err}"
        );

        let chunk: TermChunk = serde_json::from_str(r#"{"terms":[2,7]}"#).unwrap();
        assert_eq!(chunk, TermChunk::new(vec![tid(7), tid(2)]));
        let err = serde_json::from_str::<TermChunk>(r#"{"terms":[7,2]}"#)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("term ids of `TermChunk` must strictly increase"),
            "{err}"
        );
    }

    fn simple_cluster() -> Cluster {
        Cluster {
            size: 5,
            record_chunks: vec![
                RecordChunk::new(
                    vec![tid(0), tid(1)],
                    vec![rec(&[0, 1]), rec(&[0]), rec(&[0, 1]), rec(&[])],
                ),
                RecordChunk::new(vec![tid(2)], vec![rec(&[2]), rec(&[2]), rec(&[2])]),
            ],
            term_chunk: TermChunk::new(vec![tid(5), tid(6)]),
        }
    }

    #[test]
    fn record_chunk_drops_empty_subrecords() {
        let c = RecordChunk::new(vec![tid(1), tid(0)], vec![rec(&[]), rec(&[0])]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.domain, vec![tid(0), tid(1)]);
    }

    #[test]
    fn record_chunk_support() {
        let c = RecordChunk::new(
            vec![tid(0), tid(1)],
            vec![rec(&[0, 1]), rec(&[0]), rec(&[0, 1])],
        );
        assert_eq!(c.support(&[tid(0)]), 3);
        assert_eq!(c.support(&[tid(0), tid(1)]), 2);
        assert_eq!(c.support(&[tid(9)]), 0);
    }

    #[test]
    fn term_chunk_set_operations() {
        let mut tc = TermChunk::new(vec![tid(3), tid(1), tid(3)]);
        assert_eq!(tc.len(), 2);
        assert!(tc.contains(tid(1)));
        tc.insert(tid(2));
        tc.insert(tid(2));
        assert_eq!(tc.terms, vec![tid(1), tid(2), tid(3)]);
        assert!(tc.remove(tid(1)));
        assert!(!tc.remove(tid(1)));
    }

    #[test]
    fn cluster_term_sets_and_subrecord_count() {
        let c = simple_cluster();
        assert_eq!(c.record_chunk_terms().len(), 3);
        assert_eq!(c.all_terms().len(), 5);
        assert_eq!(c.total_subrecords(), 6, "empty subrecord dropped");
    }

    #[test]
    fn cluster_support_lower_bounds() {
        let c = simple_cluster();
        assert_eq!(c.term_support_lower_bound(tid(0)), 3);
        assert_eq!(
            c.term_support_lower_bound(tid(5)),
            1,
            "term chunk contributes 1"
        );
        assert_eq!(c.term_support_lower_bound(tid(9)), 0);
    }

    #[test]
    fn cluster_node_size_and_traversal() {
        let joint = ClusterNode::Joint(JointCluster {
            children: vec![
                ClusterNode::Simple(simple_cluster()),
                ClusterNode::Simple(Cluster {
                    size: 3,
                    record_chunks: vec![],
                    term_chunk: TermChunk::new(vec![tid(5)]),
                }),
            ],
            shared_chunks: vec![SharedChunk {
                chunk: RecordChunk::new(vec![tid(5)], vec![rec(&[5]), rec(&[5]), rec(&[5])]),
                requires_k_anonymity: false,
            }],
        });
        assert_eq!(joint.size(), 8);
        assert_eq!(joint.simple_clusters().len(), 2);
        assert_eq!(joint.shared_chunks().len(), 1);
        assert!(joint.record_and_shared_terms().contains(&tid(5)));
        assert!(joint.virtual_term_chunk().contains(&tid(6)));
    }

    #[test]
    fn mentions_term_covers_every_chunk_kind() {
        let simple = ClusterNode::Simple(simple_cluster());
        assert!(simple.mentions_term(tid(0)), "record-chunk domain");
        assert!(simple.mentions_term(tid(6)), "term chunk");
        assert!(!simple.mentions_term(tid(9)));

        let joint = ClusterNode::Joint(JointCluster {
            children: vec![ClusterNode::Simple(Cluster {
                size: 3,
                record_chunks: vec![RecordChunk::new(vec![tid(7)], vec![rec(&[7])])],
                term_chunk: TermChunk::new(vec![]),
            })],
            shared_chunks: vec![SharedChunk {
                chunk: RecordChunk::new(vec![tid(5)], vec![rec(&[5]), rec(&[5])]),
                requires_k_anonymity: false,
            }],
        });
        assert!(joint.mentions_term(tid(5)), "shared-chunk domain");
        assert!(joint.mentions_term(tid(7)), "child record chunk");
        assert!(!joint.mentions_term(tid(0)));
    }

    #[test]
    fn dataset_aggregates() {
        let ds = DisassociatedDataset {
            k: 3,
            m: 2,
            clusters: vec![ClusterNode::Simple(simple_cluster())],
        };
        assert_eq!(ds.total_records(), 5);
        assert_eq!(ds.num_record_chunks(), 2);
        assert_eq!(ds.chunk_subrecords().len(), 6);
        assert_eq!(ds.term_support_lower_bound(tid(2)), 3);
        assert_eq!(ds.term_support_lower_bound(tid(6)), 1);
        assert_eq!(ds.all_terms().len(), 5);
        let only_term = ds.terms_only_in_term_chunks();
        assert!(only_term.contains(&tid(5)) && only_term.contains(&tid(6)));
    }

    #[test]
    fn render_is_human_readable() {
        let dict = Dictionary::synthetic(3);
        let c = RecordChunk::new(vec![tid(0), tid(1)], vec![rec(&[0, 1])]);
        let s = c.render(&dict);
        assert!(s.contains("item0") && s.contains("item1"));
    }
}
