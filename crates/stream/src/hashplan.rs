//! Schema-wide shared hashing: hash every attribute of a tuple exactly
//! once, then derive any query's `(lhs, rhs)` itemset hashes by cheap
//! combination.
//!
//! [`Projector`](crate::project::Projector) + `hash_slice` re-reads and
//! re-hashes the same attribute values once per registered query. With a
//! catalog of hundreds of implication queries over one stream that is the
//! dominant per-tuple cost, and it is pure recomputation: every query's
//! itemset hash is a function of the same per-attribute values. The
//! consistent-subset-sampling observation is that one *per-attribute*
//! hashing pass suffices — each attribute position `j` gets its own
//! independently seeded hash function, a tuple is hashed attribute-wise
//! exactly once ([`TupleHasher::hash_tuple`], zero-alloc like
//! `project_into`), and a query's itemset hash is derived from the shared
//! per-attribute hashes by XOR plus one finalizing mix
//! ([`ItemsetCombiner::combine`]). Marginal cost per query is a few XORs,
//! not a projection and a re-hash.
//!
//! Two independent hash families are maintained — the `a` family for
//! left-hand (antecedent) itemsets and the `b` family for right-hand
//! fingerprints — matching the estimator's two-hasher scheme, and they are
//! derived from the same single seed an estimator would use, so an engine
//! fed through this path is bit-identical to one fed the combined hashes
//! any other way with the same seed.

use imp_sketch::hash::{mix64, Hasher64, MixHasher};

use crate::schema::{AttrSet, Schema};
use crate::tuple::Tuple;

/// Family-A seed tweak — matches the estimator's `hasher_a` derivation so
/// one `seed` names one coherent hash configuration across the stack.
const FAMILY_A: u64 = 0xa11c_e0de;
/// Family-B seed tweak (estimator's `hasher_b`).
const FAMILY_B: u64 = 0x00b0_bca7;
/// Salt separating per-attribute functions within a family.
const ATTR_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// Seed for one attribute position within one family: each position gets
/// a distinct, well-separated `MixHasher` seed.
fn attr_seed(family_base: u64, position: usize) -> u64 {
    family_base ^ mix64((position as u64 + 1).wrapping_mul(ATTR_STEP))
}

/// The fixed hash of the empty itemset within one family (the paper's
/// distinct-count queries use an empty `B`).
fn empty_hash(family_base: u64) -> u64 {
    MixHasher::new(family_base).hash_u64(ATTR_STEP)
}

/// One side (`lhs` or `rhs`) of a per-query combiner: the attribute
/// positions to fold and the finalization constants, resolved once at
/// registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemsetCombiner {
    /// Positions into the per-attribute hash row, ascending.
    positions: Vec<usize>,
    attrs: AttrSet,
    /// Length-dependent salt folded in before the finalizing mix.
    salt: u64,
    /// Hash of the empty itemset for this side's family.
    empty: u64,
}

impl ItemsetCombiner {
    fn new(set: AttrSet, family_base: u64, arity: usize) -> Self {
        let positions: Vec<usize> = set.iter().map(|id| id.index()).collect();
        if let Some(&max) = positions.last() {
            assert!(
                max < arity,
                "attribute {max} out of range for arity {arity}"
            );
        }
        Self {
            salt: mix64(family_base ^ positions.len() as u64),
            positions,
            attrs: set,
            empty: empty_hash(family_base),
        }
    }

    /// The attribute set this combiner folds.
    pub fn attrs(&self) -> AttrSet {
        self.attrs
    }

    /// Derives the itemset hash from one tuple's per-attribute hash row
    /// (`hashes[j]` is attribute `j`'s hash under this side's family).
    ///
    /// Single-attribute itemsets — the common case — pass the attribute
    /// hash through untouched; wider sets XOR their members and finalize
    /// with one mix so distinct subsets decorrelate.
    #[inline]
    pub fn combine(&self, hashes: &[u64]) -> u64 {
        match self.positions.as_slice() {
            [] => self.empty,
            &[p] => hashes[p],
            ps => {
                let mut acc = self.salt;
                for &p in ps {
                    acc ^= hashes[p];
                }
                mix64(acc)
            }
        }
    }
}

/// A query's `(lhs, rhs)` pair of combiners over one [`TupleHasher`]'s
/// hash rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryCombiner {
    lhs: ItemsetCombiner,
    rhs: ItemsetCombiner,
}

impl QueryCombiner {
    /// The left-hand (antecedent, family-A) combiner.
    pub fn lhs(&self) -> &ItemsetCombiner {
        &self.lhs
    }

    /// The right-hand (fingerprint, family-B) combiner.
    pub fn rhs(&self) -> &ItemsetCombiner {
        &self.rhs
    }
}

/// Hashes every attribute of a tuple exactly once under two independent
/// per-attribute hash families, so any number of per-query
/// [`QueryCombiner`]s can derive their itemset hashes by combination.
///
/// ```
/// use imp_stream::hashplan::TupleHasher;
/// use imp_stream::{Schema, Tuple};
///
/// let schema = Schema::new([("src", 1 << 32), ("dst", 1 << 32), ("port", 65_536)]);
/// let mut hasher = TupleHasher::new(&schema, 42);
/// let q = hasher.combiner(schema.attr_set(&["src"]), schema.attr_set(&["dst"]));
///
/// hasher.hash_tuple(&Tuple::new([10u64, 20, 443]));
/// let (h_a, b_fp) = hasher.combine(&q);
/// // Same tuple, same seed → same hashes, independent of how many other
/// // combiners share this hasher.
/// hasher.hash_tuple(&Tuple::new([10u64, 20, 443]));
/// assert_eq!(hasher.combine(&q), (h_a, b_fp));
/// ```
#[derive(Debug, Clone)]
pub struct TupleHasher {
    /// Per-attribute hashers, family A (lhs itemsets).
    ha: Vec<MixHasher>,
    /// Per-attribute hashers, family B (rhs fingerprints).
    hb: Vec<MixHasher>,
    /// Most recent tuple's per-attribute hash row, family A.
    row_a: Vec<u64>,
    /// Most recent tuple's per-attribute hash row, family B.
    row_b: Vec<u64>,
    seed: u64,
}

impl TupleHasher {
    /// A hasher for `schema` derived from `seed` — the same seed an
    /// estimator config would carry, so hashes are one coherent
    /// configuration across the stack.
    pub fn new(schema: &Schema, seed: u64) -> Self {
        let arity = schema.arity();
        Self {
            ha: (0..arity)
                .map(|j| MixHasher::new(attr_seed(seed ^ FAMILY_A, j)))
                .collect(),
            hb: (0..arity)
                .map(|j| MixHasher::new(attr_seed(seed ^ FAMILY_B, j)))
                .collect(),
            row_a: vec![0; arity],
            row_b: vec![0; arity],
            seed,
        }
    }

    /// The seed this hasher was derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The schema arity this hasher covers.
    pub fn arity(&self) -> usize {
        self.ha.len()
    }

    /// Resolves a query's `(lhs, rhs)` attribute sets into a combiner
    /// over this hasher's rows.
    ///
    /// # Panics
    /// If either set references an attribute outside the schema's arity.
    pub fn combiner(&self, lhs: AttrSet, rhs: AttrSet) -> QueryCombiner {
        QueryCombiner {
            lhs: ItemsetCombiner::new(lhs, self.seed ^ FAMILY_A, self.ha.len()),
            rhs: ItemsetCombiner::new(rhs, self.seed ^ FAMILY_B, self.hb.len()),
        }
    }

    /// Hashes each of `tuple`'s attributes exactly once into the internal
    /// rows — the zero-allocation per-tuple pass. Subsequent
    /// [`combine`](Self::combine) calls derive itemset hashes from these
    /// rows until the next `hash_tuple`.
    ///
    /// # Panics
    /// In debug builds, if the tuple's arity is below the schema's.
    #[inline]
    pub fn hash_tuple(&mut self, tuple: &Tuple) {
        let vals = tuple.values();
        debug_assert!(
            vals.len() >= self.ha.len(),
            "tuple arity {} below schema arity {}",
            vals.len(),
            self.ha.len()
        );
        for (j, &v) in vals.iter().enumerate().take(self.ha.len()) {
            self.row_a[j] = self.ha[j].hash_u64(v);
            self.row_b[j] = self.hb[j].hash_u64(v);
        }
    }

    /// Hashes `tuple` attribute-wise and **appends** both rows to caller
    /// buffers — the columnar form a batch-processing catalog uses to
    /// keep one query's estimator hot across a whole batch.
    #[inline]
    pub fn hash_tuple_append(&self, tuple: &Tuple, out_a: &mut Vec<u64>, out_b: &mut Vec<u64>) {
        let vals = tuple.values();
        debug_assert!(vals.len() >= self.ha.len());
        for (j, &v) in vals.iter().enumerate().take(self.ha.len()) {
            out_a.push(self.ha[j].hash_u64(v));
            out_b.push(self.hb[j].hash_u64(v));
        }
    }

    /// Derives one query's `(h_a, b_fp)` pair from the rows of the most
    /// recent [`hash_tuple`](Self::hash_tuple).
    #[inline]
    pub fn combine(&self, q: &QueryCombiner) -> (u64, u64) {
        (q.lhs.combine(&self.row_a), q.rhs.combine(&self.row_b))
    }

    /// Hashes a whole batch of tuples attribute-wise exactly once into
    /// `out` — the columnar pass that produces the [`HashedBatch`]
    /// currency the rest of the pipeline rides on.
    ///
    /// `tuples` is moved *into* the batch (filtered consumers still need
    /// the raw values); reclaim the allocation with
    /// [`HashedBatch::recycle`] to keep steady-state ingest
    /// allocation-free.
    pub fn hash_batch(&self, tuples: Vec<Tuple>, out: &mut HashedBatch) {
        out.col_a.clear();
        out.col_b.clear();
        out.arity = self.ha.len();
        for t in &tuples {
            self.hash_tuple_append(t, &mut out.col_a, &mut out.col_b);
        }
        out.tuples = tuples;
    }
}

/// A batch of tuples hashed attribute-wise exactly once: the raw tuples
/// (filters still need values) plus the two columnar per-attribute hash
/// lanes, `arity` words per row per family.
///
/// This is the **only** currency that crosses layer boundaries in the
/// batch pipeline: [`TupleHasher::hash_batch`] produces it from a
/// [`TupleSource::next_batch`](crate::source::TupleSource::next_batch)
/// slice, per-query `(h_a, b_fp)` pairs are derived from its rows by
/// [`combine_row`](Self::combine_row) or [`row_a`](Self::row_a) /
/// [`row_b`](Self::row_b), and the sharded pipelines ship it whole across
/// their rings.
#[derive(Debug, Default, Clone)]
pub struct HashedBatch {
    tuples: Vec<Tuple>,
    /// Row-major per-attribute hashes, family A: row `i` occupies
    /// `[i*arity, (i+1)*arity)`.
    col_a: Vec<u64>,
    /// Row-major per-attribute hashes, family B.
    col_b: Vec<u64>,
    arity: usize,
}

impl HashedBatch {
    /// An empty batch; fill it with [`TupleHasher::hash_batch`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The schema arity the hash lanes were produced under.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The raw tuples, aligned row-for-row with the hash lanes.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Row `i`'s family-A per-attribute hash row.
    #[inline]
    pub fn row_a(&self, i: usize) -> &[u64] {
        &self.col_a[i * self.arity..(i + 1) * self.arity]
    }

    /// Row `i`'s family-B per-attribute hash row.
    #[inline]
    pub fn row_b(&self, i: usize) -> &[u64] {
        &self.col_b[i * self.arity..(i + 1) * self.arity]
    }

    /// Derives one query's `(h_a, b_fp)` pair for row `i`.
    #[inline]
    pub fn combine_row(&self, q: &QueryCombiner, i: usize) -> (u64, u64) {
        (q.lhs.combine(self.row_a(i)), q.rhs.combine(self.row_b(i)))
    }

    /// Clears the batch and hands back the tuple storage so the producer
    /// can refill it without allocating.
    pub fn recycle(&mut self) -> Vec<Tuple> {
        self.col_a.clear();
        self.col_b.clear();
        let mut tuples = std::mem::take(&mut self.tuples);
        tuples.clear();
        tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new([("A", 100), ("B", 100), ("C", 100), ("D", 100)])
    }

    #[test]
    fn same_tuple_same_seed_same_hashes() {
        let s = schema();
        let mut h1 = TupleHasher::new(&s, 7);
        let mut h2 = TupleHasher::new(&s, 7);
        let q1 = h1.combiner(s.attr_set(&["A", "C"]), s.attr_set(&["B"]));
        let q2 = h2.combiner(s.attr_set(&["A", "C"]), s.attr_set(&["B"]));
        let t = Tuple::from([1u64, 2, 3, 4]);
        h1.hash_tuple(&t);
        h2.hash_tuple(&t);
        assert_eq!(h1.combine(&q1), h2.combine(&q2));
    }

    #[test]
    fn different_seeds_decorrelate() {
        let s = schema();
        let mut h1 = TupleHasher::new(&s, 7);
        let mut h2 = TupleHasher::new(&s, 8);
        let q1 = h1.combiner(s.attr_set(&["A"]), s.attr_set(&["B"]));
        let q2 = h2.combiner(s.attr_set(&["A"]), s.attr_set(&["B"]));
        let t = Tuple::from([1u64, 2, 3, 4]);
        h1.hash_tuple(&t);
        h2.hash_tuple(&t);
        assert_ne!(h1.combine(&q1), h2.combine(&q2));
    }

    #[test]
    fn lhs_and_rhs_families_are_independent() {
        let s = schema();
        let mut h = TupleHasher::new(&s, 3);
        let q = h.combiner(s.attr_set(&["A"]), s.attr_set(&["A"]));
        h.hash_tuple(&Tuple::from([5u64, 0, 0, 0]));
        let (a, b) = h.combine(&q);
        assert_ne!(a, b, "same attribute must hash differently per family");
    }

    #[test]
    fn empty_itemset_is_a_fixed_constant() {
        let s = schema();
        let mut h = TupleHasher::new(&s, 3);
        let q = h.combiner(s.attr_set(&["A"]), AttrSet::EMPTY);
        h.hash_tuple(&Tuple::from([5u64, 0, 0, 0]));
        let (_, b1) = h.combine(&q);
        h.hash_tuple(&Tuple::from([9u64, 8, 7, 6]));
        let (_, b2) = h.combine(&q);
        assert_eq!(b1, b2, "empty rhs must not vary per tuple");
    }

    #[test]
    fn distinct_attribute_sets_decorrelate() {
        // {A,B} vs {A,C} vs {A} over a tuple with identical values in
        // every attribute — a structured worst case for naive XOR.
        let s = schema();
        let mut h = TupleHasher::new(&s, 11);
        let qa = h.combiner(s.attr_set(&["A"]), AttrSet::EMPTY);
        let qab = h.combiner(s.attr_set(&["A", "B"]), AttrSet::EMPTY);
        let qac = h.combiner(s.attr_set(&["A", "C"]), AttrSet::EMPTY);
        h.hash_tuple(&Tuple::from([5u64, 5, 5, 5]));
        let (a, _) = h.combine(&qa);
        let (ab, _) = h.combine(&qab);
        let (ac, _) = h.combine(&qac);
        assert_ne!(a, ab);
        assert_ne!(a, ac);
        assert_ne!(ab, ac);
    }

    #[test]
    fn append_form_matches_in_place_rows() {
        let s = schema();
        let mut h = TupleHasher::new(&s, 21);
        let q = h.combiner(s.attr_set(&["B", "D"]), s.attr_set(&["C"]));
        let t = Tuple::from([4u64, 3, 2, 1]);
        h.hash_tuple(&t);
        let direct = h.combine(&q);
        let (mut col_a, mut col_b) = (Vec::new(), Vec::new());
        h.hash_tuple_append(&t, &mut col_a, &mut col_b);
        let appended = (q.lhs().combine(&col_a), q.rhs().combine(&col_b));
        assert_eq!(direct, appended);
    }

    #[test]
    fn hash_batch_matches_per_tuple_rows() {
        let s = schema();
        let mut h = TupleHasher::new(&s, 17);
        let q = h.combiner(s.attr_set(&["A", "C"]), s.attr_set(&["B"]));
        let tuples: Vec<Tuple> = (0..5u64)
            .map(|i| Tuple::from([i, i * 3, i ^ 7, 100 - i]))
            .collect();
        let mut batch = HashedBatch::new();
        h.hash_batch(tuples.clone(), &mut batch);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.arity(), 4);
        for (i, t) in tuples.iter().enumerate() {
            h.hash_tuple(t);
            assert_eq!(h.combine(&q), batch.combine_row(&q, i));
            assert_eq!(batch.tuples()[i], *t);
        }
    }

    #[test]
    fn recycle_returns_cleared_storage_with_capacity() {
        let s = schema();
        let h = TupleHasher::new(&s, 29);
        let tuples: Vec<Tuple> = (0..16u64).map(|i| Tuple::from([i, i, i, i])).collect();
        let mut batch = HashedBatch::new();
        h.hash_batch(tuples, &mut batch);
        let storage = batch.recycle();
        assert!(storage.is_empty());
        assert!(storage.capacity() >= 16, "tuple storage must be reusable");
        assert!(batch.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn combiner_rejects_out_of_range_attribute() {
        let s = Schema::new([("A", 2)]);
        let h = TupleHasher::new(&s, 1);
        let wide = Schema::new([("A", 2), ("B", 2)]);
        let _ = h.combiner(wide.attr_set(&["B"]), AttrSet::EMPTY);
    }
}
