//! A distinct-count query (empty rhs) runs on a support-only estimator:
//! only the `F0^sup` side-fringe, no NIPS arena, and a Zone-1 mirror of
//! `ones | certified`. With `B = ∅` no cell can ever turn 1, so the
//! general estimator of the same conditions must give the same answers.
//! The oracle is a general `EstimatorConfig::build()` estimator fed row
//! by row; the subject is the query fed through the catalog's batch
//! lanes, whatever the batch cuts.

use proptest::prelude::*;

use implicate::query::Filter;
use implicate::stream::AttrId;
use implicate::{
    EstimatorConfig, Fringe, HashedBatch, ImplicationConditions, ImplicationEstimator,
    ImplicationQuery, QueryCatalog, Schema, Tuple,
};

/// splitmix64: one proptest seed drives a whole stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A skewed tuple `(key, partner, cat)`: keys follow a cubic power law
/// over `0..keys`, so a few hot keys dominate and repeat.
fn skewed_tuple(state: &mut u64, keys: u64) -> Tuple {
    let u = (next(state) >> 11) as f64 / (1u64 << 53) as f64;
    let a = (u * u * u * keys as f64) as u64;
    Tuple::from([a, next(state) % 5, a % 3])
}

fn schema() -> Schema {
    Schema::new([("key", 0), ("partner", 0), ("cat", 0)])
}

/// Distinct-count conditions: any `K ≥ 1`, `c ≥ 1` and `ψ` leave the
/// implication side vacuous; `σ > 1` exercises the side-fringe's
/// capacity discipline.
fn distinct_conditions(k: u32, c: u32, psi: f64, sigma: u64) -> ImplicationConditions {
    ImplicationConditions::builder()
        .max_multiplicity(k)
        .min_support(sigma)
        .top_confidence(c.min(k), psi)
        .build()
}

fn template(bitmaps: usize, bounded: bool, seed: u64) -> EstimatorConfig {
    EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
        .bitmaps(bitmaps)
        .fringe(if bounded {
            Fringe::Bounded(4)
        } else {
            Fringe::Unbounded
        })
        .seed(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distinct_queries_in_the_catalog_match_the_general_estimator(
        seed in 0u64..1_000_000,
        wide in prop::bool::ANY,
        bounded in prop::bool::ANY,
        filtered in prop::bool::ANY,
        k in 1u32..4,
        c in 1u32..4,
        psi in 0u32..=100,
        sigma in 1u64..4,
        cuts in proptest::collection::vec(1usize..=4_000, 1..6),
    ) {
        let schema = schema();
        let cond = distinct_conditions(k, c, f64::from(psi) / 100.0, sigma);
        let mut query = ImplicationQuery::distinct_count(schema.attr_set(&["key"]))
            .with_conditions(cond);
        if filtered {
            query = query.filtered(Filter::new().and_eq(AttrId(2), 0));
        }
        let template = template(if wide { 64 } else { 16 }, bounded, seed % 89);
        let mut catalog = QueryCatalog::new(&schema, template);
        let id = catalog.register("distinct", query.clone());
        let hasher = catalog.hasher().clone();
        let combiner = hasher.combiner(query.lhs, query.rhs);
        let mut general: ImplicationEstimator = template.conditions(cond).build();

        let mut state = seed;
        let mut batch = HashedBatch::new();
        for (k, &cut) in cuts.iter().enumerate() {
            let tuples: Vec<Tuple> = (0..cut).map(|_| skewed_tuple(&mut state, 3_000)).collect();
            if k % 2 == 0 {
                catalog.process_batch(&tuples);
            }
            hasher.hash_batch(&tuples, &mut batch);
            if k % 2 == 1 {
                catalog.process_hashed(&batch);
            }
            for i in 0..batch.len() {
                if query.filter.matches(batch.row(i)) {
                    let (h_a, b_fp) = batch.combine_row(&combiner, i);
                    general.update_hashed(h_a, b_fp);
                }
            }
        }

        let got = catalog.estimate(id).expect("live");
        let want = general.estimate_now();
        prop_assert_eq!(got.f0_sup.to_bits(), want.f0_sup.to_bits());
        prop_assert_eq!(
            got.non_implication_count.to_bits(),
            want.non_implication_count.to_bits()
        );
        prop_assert_eq!(want.non_implication_count, 0.0, "no cell can turn 1");
        prop_assert_eq!(catalog.matched(id), Some(general.tuples_seen()));
        let resident = catalog.resident_bytes(id).expect("live");
        prop_assert!(
            resident <= general.tracked_bytes(),
            "support-only {} > general {}",
            resident,
            general.tracked_bytes()
        );
    }
}

/// The support-only mirror holds the certified cells, so on a skewed
/// stream most rows of a distinct query are dropped before they load a
/// bitmap. A general estimator of the same conditions never commits a
/// cell, so its filter has nothing to drop.
#[test]
fn zone1_skips_fire_for_a_distinct_query() {
    let schema = schema();
    let query = ImplicationQuery::distinct_count(schema.attr_set(&["key"]));
    let template = template(16, true, 5);
    let mut support_only = query.estimator(template);
    let mut general = template.conditions(query.conditions).build();
    let hasher = implicate::stream::hashplan::TupleHasher::new(&schema, template.hash_seed());
    let combiner = hasher.combiner(query.lhs, query.rhs);
    let mut state = 11;
    let tuples: Vec<Tuple> = (0..40_000)
        .map(|_| skewed_tuple(&mut state, 4_000))
        .collect();
    let mut batch = HashedBatch::new();
    for chunk in tuples.chunks(256) {
        hasher.hash_batch(chunk, &mut batch);
        let pairs: Vec<(u64, u64)> = (0..batch.len())
            .map(|i| batch.combine_row(&combiner, i))
            .collect();
        support_only.update_hashed_batch(&pairs);
        general.update_hashed_batch(&pairs);
    }
    assert_eq!(support_only.tuples_seen(), 40_000);
    assert_eq!(support_only.estimate_now(), general.estimate_now());
    let (s, g) = (
        &support_only.metrics().estimator,
        &general.metrics().estimator,
    );
    assert_eq!(g.zone1_skips.get(), 0);
    assert_eq!(s.tuples.get(), 40_000);
    assert!(
        s.zone1_skips.get() > 30_000,
        "skipped {} of 40000 rows",
        s.zone1_skips.get()
    );
}

/// Support-only and general estimators hold different state for the
/// same conditions, so neither merges into nor adopts the other.
#[test]
#[should_panic(expected = "estimator modes")]
fn merge_refuses_mismatched_modes() {
    let schema = schema();
    let query = ImplicationQuery::distinct_count(schema.attr_set(&["key"]));
    let template = template(16, true, 5);
    let mut general = template.conditions(query.conditions).build();
    general.merge(&query.estimator(template));
}

#[test]
#[should_panic(expected = "estimator modes")]
fn adopt_state_refuses_mismatched_modes() {
    let schema = schema();
    let query = ImplicationQuery::distinct_count(schema.attr_set(&["key"]));
    let template = template(16, true, 5);
    let mut support_only = query.estimator(template);
    support_only.adopt_state(template.conditions(query.conditions).build());
}
