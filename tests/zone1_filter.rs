//! The Zone-1 filter on the batch spine is unobservable. Batch paths drop
//! rows whose cell is already 1 before updating, against a mirror of the
//! bitmaps' `ones` words that merges, adoptions and wire deltas make
//! stale. The oracle is the per-row `update_hashed`, which never consults
//! the mirror: state bytes, tuple counts and every transition counter
//! must match it exactly, whatever the batch cuts and whatever happens
//! to the estimator between batches.

use proptest::prelude::*;

use implicate::core::wire::{WireDecoder, WireSnapshot};
use implicate::query::Filter;
use implicate::stream::AttrId;
use implicate::{
    EstimatorConfig, Fringe, HashedBatch, ImplicationConditions, ImplicationEstimator,
    ImplicationQuery, MetricsRegistry, QueryCatalog, Schema, Tuple,
};

/// splitmix64: one proptest seed drives a whole stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A skewed `(key, partner)` row: keys follow a cubic power law over
/// `0..keys`, so a few hot keys dominate; every third key takes one of
/// two partners, so it violates one-to-one and commits its cell partway
/// through a batch.
fn skewed_row(state: &mut u64, keys: u64) -> (u64, u64) {
    let u = (next(state) >> 11) as f64 / (1u64 << 53) as f64;
    let a = (u * u * u * keys as f64) as u64;
    let b = if a.is_multiple_of(3) {
        next(state) % 2
    } else {
        a
    };
    (a, b)
}

fn skewed_pairs(est: &ImplicationEstimator, seed: u64, n: usize) -> Vec<(u64, u64)> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            let (a, b) = skewed_row(&mut state, 4_000);
            est.hash_pair(&[a], &[b])
        })
        .collect()
}

fn conditions(pick: u8) -> ImplicationConditions {
    match pick {
        0 => ImplicationConditions::strict_one_to_one(1),
        1 => ImplicationConditions::strict_one_to_one(2),
        _ => ImplicationConditions::one_to_c(2, 0.8, 2),
    }
}

fn config(pick: u8, bitmaps: usize, bounded: bool, seed: u64) -> EstimatorConfig {
    EstimatorConfig::new(conditions(pick))
        .bitmaps(bitmaps)
        .fringe(if bounded {
            Fringe::Bounded(4)
        } else {
            Fringe::Unbounded
        })
        .seed(seed)
}

/// A snapshot round trip that keeps the registry, so counters stay
/// cumulative.
fn through_snapshot(est: &ImplicationEstimator) -> ImplicationEstimator {
    let mut back = ImplicationEstimator::from_bytes(est.to_bytes()).expect("snapshot restores");
    back.set_metrics(est.metrics().clone());
    back
}

/// Ships `est` as a delta against `base` (after the base's full frame)
/// and continues from the decoder's replica; returns the replica and the
/// next base.
fn through_wire(
    est: &ImplicationEstimator,
    base: &WireSnapshot,
) -> (ImplicationEstimator, WireSnapshot) {
    let now = WireSnapshot::capture(est, base.epoch() + 1);
    let mut decoder = WireDecoder::new();
    decoder
        .apply(base.full_frame(0))
        .expect("full frame applies");
    decoder
        .apply(now.delta_frame(base, 0))
        .expect("delta frame applies");
    let mut replica = decoder.into_estimator().expect("replica held");
    replica.set_metrics(est.metrics().clone());
    (replica, now)
}

fn assert_same(
    batched: &ImplicationEstimator,
    per_row: &ImplicationEstimator,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(batched.to_bytes(), per_row.to_bytes());
    prop_assert_eq!(batched.tuples_seen(), per_row.tuples_seen());
    let (b, r) = (&batched.metrics().estimator, &per_row.metrics().estimator);
    prop_assert_eq!(b.tuples.get(), r.tuples.get());
    prop_assert_eq!(b.cells_committed.get(), r.cells_committed.get());
    prop_assert_eq!(b.dirty_multiplicity.get(), r.dirty_multiplicity.get());
    prop_assert_eq!(b.dirty_confidence.get(), r.dirty_confidence.get());
    prop_assert_eq!(b.dirty_support_gate.get(), r.dirty_support_gate.get());
    prop_assert_eq!(b.occupancy.get(), r.occupancy.get());
    prop_assert!(b.zone1_skips.get() <= b.tuples.get());
    prop_assert_eq!(r.zone1_skips.get(), 0, "per-row updates never filter");
    Ok(())
}

/// Schema of the catalog case: a skewed key, its partner, and a small
/// category the filters select on.
fn catalog_schema() -> Schema {
    Schema::new([("key", 0), ("partner", 0), ("cat", 0)])
}

fn catalog_queries(schema: &Schema) -> Vec<ImplicationQuery> {
    let key = schema.attr_set(&["key"]);
    let partner = schema.attr_set(&["partner"]);
    let cat = AttrId(2);
    vec![
        ImplicationQuery::one_to_one(key, partner, 1),
        ImplicationQuery::one_to_one(key, partner, 1).filtered(Filter::new().and_eq(cat, 0)),
        ImplicationQuery::distinct_count(key),
        ImplicationQuery::more_than(schema.attr_set(&["key", "cat"]), partner, 1, 1)
            .filtered(Filter::new().and_eq(cat, 1)),
        ImplicationQuery::at_most(key, partner, 2, 2),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random batch cuts (up to 5,000 rows) with merges, adoptions,
    /// snapshot and wire round trips between batches leave the batched
    /// estimator exactly where per-row updates leave the reference.
    #[test]
    fn batches_with_the_filter_match_per_row_updates(
        seed in 0u64..1_000_000,
        cond in 0u8..3,
        wide in prop::bool::ANY,
        bounded in prop::bool::ANY,
        cuts in proptest::collection::vec(1usize..=5_000, 1..8),
        ops in proptest::collection::vec(0u8..6, 8..9),
    ) {
        let config = config(cond, if wide { 64 } else { 16 }, bounded, seed % 97);
        let mut batched = config.build();
        let mut per_row = config.build();
        let rows: usize = cuts.iter().sum();
        let pairs = skewed_pairs(&batched, seed, rows);
        // The merge and adoption donor saw a different stream, so its
        // `ones` differ from both sides' in both directions.
        let mut donor = config.build();
        for &(h_a, b_fp) in &skewed_pairs(&donor, seed ^ 0xd0d0, 3_000) {
            donor.update_hashed(h_a, b_fp);
        }
        let mut batched_base = WireSnapshot::capture(&batched, 0);
        let mut per_row_base = WireSnapshot::capture(&per_row, 0);

        let mut at = 0;
        for (&cut, &op) in cuts.iter().zip(&ops) {
            let batch = &pairs[at..at + cut];
            at += cut;
            batched.update_hashed_batch(batch);
            for &(h_a, b_fp) in batch {
                per_row.update_hashed(h_a, b_fp);
            }
            assert_same(&batched, &per_row)?;
            match op {
                0 => {
                    batched.merge(&donor);
                    per_row.merge(&donor);
                }
                1 => {
                    batched.adopt_state(donor.clone());
                    per_row.adopt_state(donor.clone());
                }
                2 => {
                    batched = through_snapshot(&batched);
                    per_row = through_snapshot(&per_row);
                }
                3 => {
                    (batched, batched_base) = through_wire(&batched, &batched_base);
                    (per_row, per_row_base) = through_wire(&per_row, &per_row_base);
                }
                _ => {}
            }
        }
        assert_same(&batched, &per_row)?;
    }

    /// A catalog of filtered and unfiltered queries, fed through both
    /// batch entry points, matches each query fed alone row by row with
    /// `update_hashed`.
    #[test]
    fn catalog_lanes_match_per_query_per_row_updates(
        seed in 0u64..1_000_000,
        wide in prop::bool::ANY,
        cuts in proptest::collection::vec(1usize..=5_000, 1..6),
    ) {
        let schema = catalog_schema();
        let queries = catalog_queries(&schema);
        let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(if wide { 64 } else { 16 })
            .seed(seed % 89);
        let mut catalog = QueryCatalog::new(&schema, template);
        let ids: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| catalog.register(format!("q{i}"), q.clone()))
            .collect();
        let hasher = catalog.hasher().clone();
        let combiners: Vec<_> = queries.iter().map(|q| hasher.combiner(q.lhs, q.rhs)).collect();
        let mut reference: Vec<ImplicationEstimator> = queries
            .iter()
            .map(|q| q.estimator(template))
            .collect();

        let mut state = seed;
        let mut batch = HashedBatch::new();
        for (k, &cut) in cuts.iter().enumerate() {
            let tuples: Vec<Tuple> = (0..cut)
                .map(|_| {
                    let (a, b) = skewed_row(&mut state, 4_000);
                    Tuple::from([a, b, a % 3])
                })
                .collect();
            if k % 2 == 0 {
                catalog.process_batch(&tuples);
            }
            let mut owned = batch.recycle();
            owned.extend_from_slice(&tuples);
            hasher.hash_batch(owned, &mut batch);
            if k % 2 == 1 {
                catalog.process_hashed(&batch);
            }
            for ((q, combiner), est) in queries.iter().zip(&combiners).zip(&mut reference) {
                for (i, t) in batch.tuples().iter().enumerate() {
                    if q.filter.matches(t) {
                        let (h_a, b_fp) = batch.combine_row(combiner, i);
                        est.update_hashed(h_a, b_fp);
                    }
                }
            }
        }

        let readers: Vec<_> = ids.iter().map(|&id| catalog.reader(id).expect("live")).collect();
        catalog.publish();
        for (((&id, est), reader), q) in ids.iter().zip(&reference).zip(&readers).zip(&queries) {
            let got = catalog.estimate(id).expect("live");
            let want = est.estimate_now();
            prop_assert_eq!(got.f0_sup.to_bits(), want.f0_sup.to_bits(), "{:?}", q);
            prop_assert_eq!(
                got.non_implication_count.to_bits(),
                want.non_implication_count.to_bits(),
                "{:?}",
                q
            );
            prop_assert_eq!(catalog.matched(id), Some(est.tuples_seen()));
            prop_assert_eq!(reader.tuples(), est.tuples_seen());
            prop_assert_eq!(catalog.resident_bytes(id), Some(est.tracked_bytes()));
        }
    }
}

/// The filter is not vacuous: on a skewed stream most rows of a late
/// batch land in decided cells, and the counter says so.
#[test]
fn the_filter_fires_on_a_skewed_stream() {
    let mut est = config(0, 16, true, 5).build();
    let pairs = skewed_pairs(&est, 11, 40_000);
    for batch in pairs.chunks(256) {
        est.update_hashed_batch(batch);
    }
    let m = &est.metrics().estimator;
    assert_eq!(est.tuples_seen(), 40_000);
    if MetricsRegistry::enabled() {
        assert_eq!(m.tuples.get(), 40_000);
        assert!(
            m.zone1_skips.get() > 10_000,
            "skipped {} of 40000 rows",
            m.zone1_skips.get()
        );
    } else {
        assert_eq!(m.zone1_skips.get(), 0);
    }
}
