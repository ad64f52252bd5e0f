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
//! exactly once, and a query's itemset hash is derived from the shared
//! per-attribute hashes by XOR plus one finalizing mix
//! ([`ItemsetCombiner::combine`]). Marginal cost per query is a few XORs,
//! not a projection and a re-hash.
//!
//! Rows are hashed by one loop, [`TupleHasher::hash_batch`], into a
//! [`HashedBatch`]: three flat row-major lanes of `arity` words per row,
//! the raw values beside the two families' per-attribute hashes; a single
//! tuple is a one-row batch. It takes any rows that are `AsRef<[u64]>` —
//! [`Tuple`](crate::Tuple)s, or `chunks_exact(arity)` of a flat buffer a
//! front end filled without one heap object per row — and refuses a row
//! narrower than the schema, which would otherwise shift every later row
//! of the lane.
//!
//! Two independent hash families are maintained — the `a` family for
//! left-hand (antecedent) itemsets and the `b` family for right-hand
//! fingerprints — matching the estimator's two-hasher scheme, and they are
//! derived from the same single seed an estimator would use, so an engine
//! fed through this path is bit-identical to one fed the combined hashes
//! any other way with the same seed.

use imp_sketch::hash::{mix64, Hasher64, MixHasher};

use crate::schema::{AttrSet, Schema};

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
/// use imp_stream::hashplan::{HashedBatch, TupleHasher};
/// use imp_stream::{Schema, Tuple};
///
/// let schema = Schema::new([("src", 1 << 32), ("dst", 1 << 32), ("port", 65_536)]);
/// let hasher = TupleHasher::new(&schema, 42);
/// let q = hasher.combiner(schema.attr_set(&["src"]), schema.attr_set(&["dst"]));
///
/// let mut row = HashedBatch::new();
/// hasher.hash_batch([Tuple::new([10u64, 20, 443])], &mut row);
/// let (h_a, b_fp) = row.combine_row(&q, 0);
/// // Same tuple, same seed → same hashes, independent of how many other
/// // combiners share this hasher.
/// hasher.hash_batch([Tuple::new([10u64, 20, 443])], &mut row);
/// assert_eq!(row.combine_row(&q, 0), (h_a, b_fp));
/// ```
#[derive(Debug, Clone)]
pub struct TupleHasher {
    /// Per-attribute hashers, family A (lhs itemsets).
    ha: Vec<MixHasher>,
    /// Per-attribute hashers, family B (rhs fingerprints).
    hb: Vec<MixHasher>,
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

    /// Hashes a batch of rows attribute-wise exactly once into `out`,
    /// replacing its contents — the one loop that produces the
    /// [`HashedBatch`] currency the rest of the pipeline rides on. Each
    /// row's first `arity` values are copied into the batch's flat value
    /// lane (filters read them there) and hashed into its two hash lanes;
    /// a row may be any `AsRef<[u64]>`: a [`Tuple`](crate::Tuple), a
    /// `&[u64]`, or a `chunks_exact(arity)` piece of a flat buffer. Once
    /// `out` has grown to the batch size, refilling it allocates nothing.
    ///
    /// # Panics
    /// If a row is narrower than the schema's arity.
    pub fn hash_batch<R: AsRef<[u64]>>(
        &self,
        rows: impl IntoIterator<Item = R>,
        out: &mut HashedBatch,
    ) {
        out.values.clear();
        out.col_a.clear();
        out.col_b.clear();
        out.arity = self.ha.len();
        out.len = 0;
        for row in rows {
            let vals = self.leading(row.as_ref());
            out.values.extend_from_slice(vals);
            for ((&v, ha), hb) in vals.iter().zip(&self.ha).zip(&self.hb) {
                out.col_a.push(ha.hash_u64(v));
                out.col_b.push(hb.hash_u64(v));
            }
            out.len += 1;
        }
    }

    /// The schema's `arity` leading values of `row`.
    ///
    /// # Panics
    /// If `row` is narrower than the schema: a short row would shift every
    /// later row of a flat batch.
    #[inline]
    fn leading<'r>(&self, row: &'r [u64]) -> &'r [u64] {
        let arity = self.ha.len();
        assert!(
            row.len() >= arity,
            "row of {} values is narrower than the schema arity {arity}",
            row.len()
        );
        &row[..arity]
    }
}

/// A batch of rows hashed attribute-wise exactly once: three row-major
/// lanes of `arity` words per row — the raw values (filters still read
/// them) and the per-attribute hashes of the two families.
///
/// This is the **only** currency that crosses layer boundaries in the
/// batch pipeline: [`TupleHasher::hash_batch`] produces it, per-query
/// `(h_a, b_fp)` pairs are derived from its rows by
/// [`combine_row`](Self::combine_row) or [`row_a`](Self::row_a) /
/// [`row_b`](Self::row_b), filters read [`row`](Self::row), and the
/// sharded pipelines ship it whole across their lanes.
#[derive(Debug, Default, Clone)]
pub struct HashedBatch {
    /// Row-major raw values: row `i` occupies `[i*arity, (i+1)*arity)`.
    values: Vec<u64>,
    /// Row-major per-attribute hashes, family A.
    col_a: Vec<u64>,
    /// Row-major per-attribute hashes, family B.
    col_b: Vec<u64>,
    arity: usize,
    len: usize,
}

impl HashedBatch {
    /// An empty batch; fill it with [`TupleHasher::hash_batch`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The schema arity the lanes were produced under.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Row `i`'s raw values (the schema's `arity` leading values of the
    /// row that was hashed).
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.values[i * self.arity..(i + 1) * self.arity]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;

    fn schema() -> Schema {
        Schema::new([("A", 100), ("B", 100), ("C", 100), ("D", 100)])
    }

    /// `q`'s `(h_a, b_fp)` for one tuple, hashed as a one-row batch.
    fn hash_one(h: &TupleHasher, q: &QueryCombiner, t: &Tuple) -> (u64, u64) {
        let mut row = HashedBatch::new();
        h.hash_batch([t], &mut row);
        row.combine_row(q, 0)
    }

    #[test]
    fn same_tuple_same_seed_same_hashes() {
        let s = schema();
        let h1 = TupleHasher::new(&s, 7);
        let h2 = TupleHasher::new(&s, 7);
        let q1 = h1.combiner(s.attr_set(&["A", "C"]), s.attr_set(&["B"]));
        let q2 = h2.combiner(s.attr_set(&["A", "C"]), s.attr_set(&["B"]));
        let t = Tuple::from([1u64, 2, 3, 4]);
        assert_eq!(hash_one(&h1, &q1, &t), hash_one(&h2, &q2, &t));
    }

    #[test]
    fn different_seeds_decorrelate() {
        let s = schema();
        let h1 = TupleHasher::new(&s, 7);
        let h2 = TupleHasher::new(&s, 8);
        let q1 = h1.combiner(s.attr_set(&["A"]), s.attr_set(&["B"]));
        let q2 = h2.combiner(s.attr_set(&["A"]), s.attr_set(&["B"]));
        let t = Tuple::from([1u64, 2, 3, 4]);
        assert_ne!(hash_one(&h1, &q1, &t), hash_one(&h2, &q2, &t));
    }

    #[test]
    fn lhs_and_rhs_families_are_independent() {
        let s = schema();
        let h = TupleHasher::new(&s, 3);
        let q = h.combiner(s.attr_set(&["A"]), s.attr_set(&["A"]));
        let (a, b) = hash_one(&h, &q, &Tuple::from([5u64, 0, 0, 0]));
        assert_ne!(a, b, "same attribute must hash differently per family");
    }

    #[test]
    fn empty_itemset_is_a_fixed_constant() {
        let s = schema();
        let h = TupleHasher::new(&s, 3);
        let q = h.combiner(s.attr_set(&["A"]), AttrSet::EMPTY);
        let (_, b1) = hash_one(&h, &q, &Tuple::from([5u64, 0, 0, 0]));
        let (_, b2) = hash_one(&h, &q, &Tuple::from([9u64, 8, 7, 6]));
        assert_eq!(b1, b2, "empty rhs must not vary per tuple");
    }

    #[test]
    fn distinct_attribute_sets_decorrelate() {
        // {A,B} vs {A,C} vs {A} over a tuple with identical values in
        // every attribute — a structured worst case for naive XOR.
        let s = schema();
        let h = TupleHasher::new(&s, 11);
        let qa = h.combiner(s.attr_set(&["A"]), AttrSet::EMPTY);
        let qab = h.combiner(s.attr_set(&["A", "B"]), AttrSet::EMPTY);
        let qac = h.combiner(s.attr_set(&["A", "C"]), AttrSet::EMPTY);
        let t = Tuple::from([5u64, 5, 5, 5]);
        let (a, _) = hash_one(&h, &qa, &t);
        let (ab, _) = hash_one(&h, &qab, &t);
        let (ac, _) = hash_one(&h, &qac, &t);
        assert_ne!(a, ab);
        assert_ne!(a, ac);
        assert_ne!(ab, ac);
    }

    #[test]
    fn hash_batch_matches_per_tuple_rows() {
        let s = schema();
        let h = TupleHasher::new(&s, 17);
        let q = h.combiner(s.attr_set(&["A", "C"]), s.attr_set(&["B"]));
        let tuples: Vec<Tuple> = (0..5u64)
            .map(|i| Tuple::from([i, i * 3, i ^ 7, 100 - i]))
            .collect();
        let mut batch = HashedBatch::new();
        h.hash_batch(tuples.clone(), &mut batch);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.arity(), 4);
        for (i, t) in tuples.iter().enumerate() {
            assert_eq!(hash_one(&h, &q, t), batch.combine_row(&q, i));
            assert_eq!(batch.row(i), t.values());
        }
    }

    #[test]
    fn hash_batch_reads_flat_rows_like_tuples() {
        let s = schema();
        let h = TupleHasher::new(&s, 23);
        let tuples: Vec<Tuple> = (0..6u64)
            .map(|i| Tuple::from([i, i + 1, i * i, 9 - i]))
            .collect();
        let flat: Vec<u64> = tuples.iter().flat_map(|t| t.values().to_vec()).collect();
        let (mut boxed, mut lane) = (HashedBatch::new(), HashedBatch::new());
        h.hash_batch(&tuples, &mut boxed);
        h.hash_batch(flat.chunks_exact(4), &mut lane);
        assert_eq!(lane.len(), 6);
        for i in 0..6 {
            assert_eq!(lane.row(i), boxed.row(i));
            assert_eq!(lane.row_a(i), boxed.row_a(i));
            assert_eq!(lane.row_b(i), boxed.row_b(i));
        }
        // Refilling replaces the contents; a wider row keeps its leading
        // `arity` values.
        h.hash_batch([[7u64, 8, 9, 10, 11]], &mut lane);
        assert_eq!(lane.len(), 1);
        assert_eq!(lane.row(0), &[7, 8, 9, 10]);
    }

    #[test]
    #[should_panic(expected = "narrower than the schema arity 4")]
    fn hash_batch_rejects_a_narrow_row() {
        let s = schema();
        let h = TupleHasher::new(&s, 31);
        let rows: [&[u64]; 3] = [&[1, 2, 3, 4], &[5, 6, 7], &[8, 9, 10, 11]];
        h.hash_batch(rows, &mut HashedBatch::new());
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
