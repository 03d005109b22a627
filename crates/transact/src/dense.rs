//! Dense-domain combinatorics: cluster-local term interning, word-slice
//! bitset operations and packed combination keys.
//!
//! The k^m-anonymity hot path (VERPART's greedy chunk construction) operates
//! on one *cluster* at a time, whose domain is tiny compared to the global
//! term universe (tens to hundreds of terms for the paper's default
//! `max_cluster_size = 10·k`).  This module exploits that locality:
//!
//! * [`DenseDomain`] interns the cluster's [`TermId`]s into consecutive
//!   *dense ids* `0..d` (`u16`), assigned in ascending `TermId` order — so
//!   dense-id order and term-id order agree and a sorted dense sequence
//!   decodes to a sorted term sequence;
//! * the `bits_*` functions operate on a (sub)record stored as a
//!   fixed-width row of `u64` words over the dense ids: projection becomes a
//!   word-wise `AND`, membership a shift;
//! * [`PackedCombo`] packs up to [`PACK_ARITY`] dense ids into a single
//!   `u64` hash-map key (16 bits per id, biased by 1 so `0` means "empty
//!   lane"), replacing the heap-allocated `Vec<TermId>` itemset keys of the
//!   reference implementation;
//! * [`FxBuildHasher`] is a multiply-xor hasher for those `u64` keys (the
//!   default SipHash is overkill for counting combinations).
//!
//! **Invariants.**  A dense id is only meaningful relative to the
//! [`DenseDomain`] that produced it.  Packing requires every id to be
//! `< DenseDomain::MAX_LEN` (guaranteed by construction) and at most
//! [`PACK_ARITY`] ids per combination; combinations larger than that fall
//! back to the [`crate::Itemset`] path.  [`PackedCombo`] keys compare equal
//! iff the ids were appended in the same order — callers enumerate ids in
//! ascending order (or with a fixed distinguished id in a fixed lane), which
//! makes the key canonical per counting pass.

use crate::record::Record;
use crate::term::TermId;
use std::hash::{BuildHasherDefault, Hasher};

/// Maximum number of dense ids a [`PackedCombo`] can hold (one 16-bit lane
/// each).  Combinations above this arity use the `Itemset` fallback.
pub const PACK_ARITY: usize = 4;

// ---------------------------------------------------------------------------
// DenseDomain
// ---------------------------------------------------------------------------

/// A cluster-local interning of [`TermId`]s into consecutive `u16` dense ids.
///
/// Dense ids are assigned in ascending term-id order: `dense_of` and
/// `term_of` are monotone bijections between the cluster's terms and
/// `0..len()`.
#[derive(Debug, Clone, Default)]
pub struct DenseDomain {
    /// Sorted, deduplicated terms; the dense id of `terms[i]` is `i`.
    terms: Vec<TermId>,
}

impl DenseDomain {
    /// The maximum number of terms a dense domain can intern: dense ids must
    /// fit a `u16` *after* the +1 bias used by [`PackedCombo`] lanes.
    pub const MAX_LEN: usize = u16::MAX as usize;

    /// Interns the union of all terms of `records`.
    ///
    /// Returns `None` when the union exceeds [`DenseDomain::MAX_LEN`]
    /// distinct terms (callers fall back to the sparse `Itemset` path).
    pub fn from_records<'a, I>(records: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Record>,
    {
        let mut domain = DenseDomain::default();
        domain.rebuild(records).then_some(domain)
    }

    /// Re-interns the domain in place from `records`, reusing the existing
    /// allocation — the pooled-scratch twin of [`DenseDomain::from_records`].
    ///
    /// Returns `false` (leaving the domain empty) when the term union
    /// exceeds [`DenseDomain::MAX_LEN`].
    pub fn rebuild<'a, I>(&mut self, records: I) -> bool
    where
        I: IntoIterator<Item = &'a Record>,
    {
        self.terms.clear();
        for r in records {
            self.terms.extend_from_slice(r.terms());
        }
        self.terms.sort_unstable();
        self.terms.dedup();
        if self.terms.len() > Self::MAX_LEN {
            self.terms.clear();
            return false;
        }
        true
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// The interned terms, ascending; index = dense id.
    pub fn terms(&self) -> &[TermId] {
        &self.terms
    }

    /// The dense id of `t`, or `None` when `t` is outside the domain.
    #[inline]
    pub fn dense_of(&self, t: TermId) -> Option<u16> {
        self.terms.binary_search(&t).ok().map(|i| i as u16)
    }

    /// The term behind dense id `d` (panics when out of range).
    #[inline]
    pub fn term_of(&self, d: u16) -> TermId {
        self.terms[d as usize]
    }

    /// Number of `u64` words a bitset row over this domain occupies.
    pub fn words(&self) -> usize {
        self.terms.len().div_ceil(64)
    }
}

// ---------------------------------------------------------------------------
// Word-slice bit operations
// ---------------------------------------------------------------------------
//
// The checker hot path stores many same-width bitsets in one flat `Vec<u64>`
// (rows of `DenseDomain::words()` words) so a pooled scratch buffer can be
// reused across clusters without one boxed allocation per record.  These
// free functions are the word-level loops over those rows.

/// Sets bit `d` in a word slice.
#[inline]
pub fn bits_set(words: &mut [u64], d: u16) {
    words[(d / 64) as usize] |= 1u64 << (d % 64);
}

/// Whether bit `d` is set in a word slice.
#[inline]
pub fn bits_contain(words: &[u64], d: u16) -> bool {
    (words[(d / 64) as usize] >> (d % 64)) & 1 == 1
}

/// Invokes `f` with every set dense id of a word slice, ascending.
#[inline]
pub fn bits_for_each<F: FnMut(u16)>(words: &[u64], mut f: F) {
    for (wi, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let bit = w.trailing_zeros();
            f((wi as u32 * 64 + bit) as u16);
            w &= w - 1;
        }
    }
}

/// Invokes `f` with every dense id set in `a ∩ b`, ascending.
#[inline]
pub fn bits_for_each_and<F: FnMut(u16)>(a: &[u64], b: &[u64], mut f: F) {
    debug_assert_eq!(a.len(), b.len());
    for (wi, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let mut w = x & y;
        while w != 0 {
            let bit = w.trailing_zeros();
            f((wi as u32 * 64 + bit) as u16);
            w &= w - 1;
        }
    }
}

// ---------------------------------------------------------------------------
// PackedCombo
// ---------------------------------------------------------------------------

/// Up to [`PACK_ARITY`] dense ids packed into one `u64` (16 bits per lane,
/// ids biased by 1 so `0` marks an empty lane).
///
/// Built incrementally with [`PackedCombo::extended`]; the empty combo is
/// [`PackedCombo::EMPTY`].  Two combos are equal iff the same ids were
/// appended in the same lane order — enumerate ids in a canonical order
/// (ascending, or a fixed distinguished id in a fixed lane) to use combos as
/// counting keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PackedCombo(pub u64);

impl PackedCombo {
    /// The empty combination.
    pub const EMPTY: PackedCombo = PackedCombo(0);

    /// Returns the combo with dense id `d` appended in lane `lane`
    /// (`lane < PACK_ARITY`, lanes filled left to right starting at 0).
    #[inline]
    pub fn extended(self, lane: usize, d: u16) -> PackedCombo {
        debug_assert!(lane < PACK_ARITY);
        debug_assert_eq!((self.0 >> (16 * lane)), 0, "lane already occupied");
        PackedCombo(self.0 | ((d as u64 + 1) << (16 * lane)))
    }

    /// Packs a slice of at most [`PACK_ARITY`] dense ids (lane `i` = `ids[i]`).
    pub fn pack(ids: &[u16]) -> PackedCombo {
        debug_assert!(ids.len() <= PACK_ARITY);
        let mut c = PackedCombo::EMPTY;
        for (lane, &d) in ids.iter().enumerate() {
            c = c.extended(lane, d);
        }
        c
    }

    /// The packed dense ids, in lane order.
    pub fn ids(self) -> impl Iterator<Item = u16> {
        (0..PACK_ARITY).filter_map(move |lane| {
            let v = (self.0 >> (16 * lane)) & 0xFFFF;
            (v != 0).then(|| (v - 1) as u16)
        })
    }

    /// Number of occupied lanes.
    pub fn len(self) -> usize {
        self.ids().count()
    }

    /// Whether no lane is occupied.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// Enumerates every subset of `ids` (ascending dense ids) with size in
/// `1..=max_size.min(PACK_ARITY)`, invoking `f` with the packed key.
///
/// Subsets are packed in ascending-id lane order, so the keys are canonical
/// across records: the bitset-based `is_km_anonymous` counts with this.
pub fn for_each_packed_subset<F: FnMut(PackedCombo)>(ids: &[u16], max_size: usize, mut f: F) {
    let max_size = max_size.min(PACK_ARITY);
    if max_size == 0 || ids.is_empty() {
        return;
    }
    fn recurse<F: FnMut(PackedCombo)>(
        ids: &[u16],
        start: usize,
        depth: usize,
        max_size: usize,
        prefix: PackedCombo,
        f: &mut F,
    ) {
        for i in start..ids.len() {
            let combo = prefix.extended(depth, ids[i]);
            f(combo);
            if depth + 1 < max_size {
                recurse(ids, i + 1, depth + 1, max_size, combo, f);
            }
        }
    }
    recurse(ids, 0, 0, max_size, PackedCombo::EMPTY, &mut f);
}

// ---------------------------------------------------------------------------
// FxHasher
// ---------------------------------------------------------------------------

/// A fast multiply-xor hasher for small integer keys ([`PackedCombo`]s).
///
/// Modeled after rustc's FxHash: good-enough scatter for counting maps, a
/// fraction of SipHash's cost.  Not DoS-resistant — only use for keys the
/// process derives itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// `BuildHasher` for [`FxHasher`] (plug into `HashMap::with_hasher`).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed by packed combos, using [`FxHasher`].
pub type ComboCountMap = std::collections::HashMap<PackedCombo, u32, FxBuildHasher>;

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FX_SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so sequential keys don't land in sequential
        // buckets.
        let h = self.0;
        h.rotate_left(26) ^ h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn rec(ids: &[u32]) -> Record {
        Record::from_ids(ids.iter().map(|&i| TermId::new(i)))
    }

    #[test]
    fn dense_domain_interns_in_term_order() {
        let records = [rec(&[9, 3]), rec(&[7, 3, 100])];
        let dom = DenseDomain::from_records(records.iter()).unwrap();
        assert_eq!(dom.len(), 4);
        assert_eq!(dom.dense_of(TermId::new(3)), Some(0));
        assert_eq!(dom.dense_of(TermId::new(7)), Some(1));
        assert_eq!(dom.dense_of(TermId::new(9)), Some(2));
        assert_eq!(dom.dense_of(TermId::new(100)), Some(3));
        assert_eq!(dom.dense_of(TermId::new(8)), None);
        assert_eq!(dom.term_of(2), TermId::new(9));
        assert_eq!(dom.words(), 1);
    }

    #[test]
    fn dense_domain_of_empty_input() {
        let dom = DenseDomain::from_records(std::iter::empty()).unwrap();
        assert!(dom.is_empty());
        assert_eq!(dom.words(), 0);
    }

    #[test]
    fn intersection_iteration_is_sorted_and_exact() {
        let records = [rec(&(0..130).collect::<Vec<_>>())];
        let dom = DenseDomain::from_records(records.iter()).unwrap();
        let row = |ids: &[u16]| {
            let mut words = vec![0u64; dom.words()];
            ids.iter().for_each(|&d| bits_set(&mut words, d));
            words
        };
        let a = row(&[1, 63, 64, 65, 127, 128]);
        let b = row(&[63, 65, 128, 129]);
        assert!(bits_contain(&a, 127) && !bits_contain(&b, 127));
        let mut got = Vec::new();
        bits_for_each_and(&a, &b, |d| got.push(d));
        assert_eq!(got, vec![63, 65, 128]);
        assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn packed_combo_roundtrip_and_lanes() {
        let c = PackedCombo::pack(&[0, 7, 65_534]);
        assert_eq!(c.ids().collect::<Vec<_>>(), vec![0, 7, 65_534]);
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert!(PackedCombo::EMPTY.is_empty());
        // Lane order matters: same set, different order, different key.
        assert_ne!(PackedCombo::pack(&[1, 2]), PackedCombo::pack(&[2, 1]));
        // Distinct sets never collide.
        assert_ne!(PackedCombo::pack(&[0]), PackedCombo::pack(&[0, 0]));
        assert_ne!(PackedCombo::pack(&[0, 1]), PackedCombo::pack(&[0, 2]));
    }

    #[test]
    fn packed_subset_enumeration_matches_itemset_enumeration() {
        use crate::itemset::for_each_subset_up_to;
        let ids: Vec<u16> = vec![0, 1, 2, 3, 4];
        let terms: Vec<TermId> = ids.iter().map(|&d| TermId::new(d as u32)).collect();
        for m in 1..=4 {
            let mut packed = HashSet::new();
            for_each_packed_subset(&ids, m, |c| {
                assert!(packed.insert(c), "duplicate subset for m={m}");
            });
            let mut reference = 0usize;
            for_each_subset_up_to(&terms, m, |_| reference += 1);
            assert_eq!(packed.len(), reference, "m={m}");
        }
    }

    #[test]
    fn packed_subset_enumeration_caps_at_pack_arity() {
        let ids: Vec<u16> = (0..6).collect();
        let mut max_len = 0;
        for_each_packed_subset(&ids, 10, |c| max_len = max_len.max(c.len()));
        assert_eq!(max_len, PACK_ARITY);
        let mut count = 0;
        for_each_packed_subset(&ids, 0, |_| count += 1);
        for_each_packed_subset(&[], 3, |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn fx_hasher_scatters_sequential_keys() {
        use std::hash::BuildHasher;
        let build = FxBuildHasher::default();
        let hashes: HashSet<u64> = (0u64..1000)
            .map(|k| build.hash_one(PackedCombo(k)))
            .collect();
        assert_eq!(hashes.len(), 1000, "sequential keys must not collide");
    }
}
