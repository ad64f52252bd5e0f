//! The catalog's load-bearing contract, property-tested: a query
//! evaluated inside a [`QueryCatalog`] — shared per-attribute hashing,
//! query-major batching, one global budget — answers **bit-for-bit**
//! identically to a standalone [`QueryEngine`] built from the same
//! template over the same stream. Registration order, batch boundaries,
//! co-resident queries, and mid-stream retirement must all be
//! unobservable.

use proptest::prelude::*;

use implicate::query::Filter;
use implicate::stream::AttrId;
use implicate::{
    EstimatorConfig, ImplicationConditions, ImplicationQuery, QueryCatalog, QueryEngine, Schema,
    ShardedCatalog, Tuple,
};

/// Fixed 3-attribute schema: wide enough for multi-attribute itemsets,
/// small enough that random masks hit interesting overlaps often.
const ARITY: usize = 3;

fn schema() -> Schema {
    Schema::new((0..ARITY).map(|i| (format!("c{i}"), 0)))
}

/// One random query over the 3-attribute schema. The rhs mask is
/// disjointed from the lhs (the constructors assert §3 disjointness);
/// when nothing is left for the rhs the query degrades to a distinct
/// count, which has no rhs at all.
fn arb_query() -> impl Strategy<Value = ImplicationQuery> {
    (
        // kind selector, lhs mask, rhs mask (masks non-empty)
        (0usize..5, 1u64..(1 << ARITY), 1u64..(1 << ARITY)),
        // k (doubles as c), min support
        (1u32..4, 1u64..4),
        // Filter clause, applied only when the leading flag is set.
        (prop::bool::ANY, 0u8..ARITY as u8, 0u64..6),
        prop::bool::ANY, // complement
    )
        .prop_map(
            |((kind, lhs_bits, rhs_bits), (k, support), clause, complement)| {
                let clause = clause.0.then_some((clause.1, clause.2));
                let rhs_bits = rhs_bits & !lhs_bits;
                let lhs = implicate::AttrSet::from_bits(lhs_bits);
                let rhs = implicate::AttrSet::from_bits(rhs_bits);
                let kind = if rhs_bits == 0 { 0 } else { kind };
                let mut q = match kind {
                    0 => ImplicationQuery::distinct_count(lhs),
                    1 => ImplicationQuery::one_to_one(lhs, rhs, support),
                    2 => ImplicationQuery::at_most(lhs, rhs, k, support),
                    3 => ImplicationQuery::more_than(lhs, rhs, k, support),
                    _ => ImplicationQuery::noisy(lhs, rhs, k, 0.85, support),
                };
                if complement {
                    q = q.complement();
                }
                if let Some((attr, value)) = clause {
                    q = q.filtered(Filter::new().and_eq(AttrId(attr), value));
                }
                q
            },
        )
}

fn tuples(raw: &[(u64, u64, u64)]) -> Vec<Tuple> {
    raw.iter()
        .map(|&(a, b, c)| Tuple::from([a, b, c]))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any random catalog over any random stream answers each query
    /// bit-identically to that query running alone, and retiring a
    /// co-resident query mid-stream perturbs nothing.
    #[test]
    fn catalog_answers_match_standalone_engines(
        queries in proptest::collection::vec(arb_query(), 1..6),
        raw in proptest::collection::vec(
            (0u64..40, 0u64..6, 0u64..3), 0..600),
        batch in 1usize..97,
        seed in 0u64..500,
    ) {
        let schema = schema();
        let stream = tuples(&raw);
        let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(16)
            .seed(seed);

        let mut catalog = QueryCatalog::new(&schema, template);
        let ids: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| catalog.register(format!("q{i}"), q.clone()))
            .collect();
        let mut engines: Vec<QueryEngine> = queries
            .iter()
            .map(|q| QueryEngine::new(&schema, q.clone(), template))
            .collect();

        let split = stream.len() / 2;
        for chunk in stream[..split].chunks(batch) {
            catalog.process_batch(chunk);
            for engine in &mut engines {
                for t in chunk {
                    engine.process(t);
                }
            }
        }
        // Retire the first query halfway through: the survivors' state
        // lives in their own arenas and must not move.
        if ids.len() > 1 {
            prop_assert!(catalog.retire(ids[0]));
        }
        let survivors = if ids.len() > 1 { 1 } else { 0 };
        for chunk in stream[split..].chunks(batch) {
            catalog.process_batch(chunk);
            for engine in &mut engines[survivors..] {
                for t in chunk {
                    engine.process(t);
                }
            }
        }

        for (i, (id, engine)) in ids.iter().zip(&engines).enumerate().skip(survivors) {
            let from_catalog = catalog.answer(*id)
                .unwrap_or_else(|| panic!("query {i} retired unexpectedly"));
            prop_assert_eq!(
                from_catalog.to_bits(),
                engine.answer().to_bits(),
                "query {} diverged: catalog {} vs standalone {}",
                i,
                from_catalog,
                engine.answer()
            );
        }
    }

    /// The `--threads N` catalog is unobservable: for any query mix,
    /// any stream, any batching (empty batches included), and any lane
    /// count, the sharded catalog answers every query — and accounts
    /// every tuple — bit-identically to the sequential one-pass
    /// catalog. Lanes see every batch as a shared [`HashedBatch`] over
    /// SPSC rings, so each query replays the exact sequential path.
    #[test]
    fn sharded_catalog_matches_sequential_for_any_lane_count(
        queries in proptest::collection::vec(arb_query(), 1..6),
        raw in proptest::collection::vec(
            (0u64..40, 0u64..6, 0u64..3), 0..600),
        batch in 1usize..97,
        threads in 1usize..5,
        seed in 0u64..500,
    ) {
        let schema = schema();
        let stream = tuples(&raw);
        let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(16)
            .seed(seed);

        let mut seq = QueryCatalog::new(&schema, template);
        let mut base = QueryCatalog::new(&schema, template);
        let ids: Vec<_> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                seq.register(format!("q{i}"), q.clone());
                base.register(format!("q{i}"), q.clone())
            })
            .collect();

        let mut sharded = ShardedCatalog::new(base, threads);
        for chunk in stream.chunks(batch) {
            seq.process_batch(chunk);
            sharded.process_batch(chunk);
            sharded.process_batch(&[]); // an empty batch is a free no-op
        }
        // A mid-stream settled read must not perturb the final state.
        sharded.publish();
        sharded.barrier();

        let merged = sharded.finish();
        prop_assert_eq!(merged.tuples_seen(), seq.tuples_seen());
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(
                merged.answer(*id).expect("query live").to_bits(),
                seq.answer(*id).expect("query live").to_bits(),
                "query {} diverged under {} lanes",
                i,
                threads
            );
        }
    }

    /// A query registered mid-stream counts exactly the suffix: its
    /// answer is bit-identical to a standalone engine that only ever
    /// saw the post-registration tuples.
    #[test]
    fn late_registration_counts_only_the_suffix(
        query in arb_query(),
        raw in proptest::collection::vec(
            (0u64..40, 0u64..6, 0u64..3), 2..400),
        seed in 0u64..500,
    ) {
        let schema = schema();
        let stream = tuples(&raw);
        let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(16)
            .seed(seed);

        let mut catalog = QueryCatalog::new(&schema, template);
        // A bystander query keeps the pass busy before the late one
        // arrives.
        catalog.register(
            "bystander",
            ImplicationQuery::one_to_one(
                implicate::AttrSet::from_bits(1),
                implicate::AttrSet::from_bits(2),
                1,
            ),
        );
        let split = stream.len() / 2;
        catalog.process_batch(&stream[..split]);
        let late = catalog.register("late", query.clone());
        catalog.process_batch(&stream[split..]);

        let mut suffix_engine = QueryEngine::new(&schema, query, template);
        for t in &stream[split..] {
            suffix_engine.process(t);
        }
        prop_assert_eq!(
            catalog.answer(late).expect("late query live").to_bits(),
            suffix_engine.answer().to_bits()
        );
    }
}

/// One pinned query: `(name, answer bits, matched, shed_events,
/// resident_bytes, zone1_skips)`.
type Pin = (&'static str, u64, u64, u64, usize, u64);

/// A skewed 4-column stream: a few hot keys on `c0` and `c1`, so cells
/// turn 1 early and the Zone-1 filter has rows to drop.
fn skewed_stream(n: usize, mut state: u64) -> Vec<Tuple> {
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let r = next();
            let hot = r % 8 < 5;
            let c0 = if hot { r >> 8 & 31 } else { r >> 8 & 4095 };
            let c1 = if hot { c0 % 7 } else { r >> 24 & 63 };
            Tuple::from([c0, c1, r >> 32 & 3, r >> 40 & 7])
        })
        .collect()
}

/// Everything a catalog run can observe per query, pinned to the values
/// the one-query-at-a-time pass produced: a catalog in which several
/// queries share an antecedent (plain, filtered and distinct), queries
/// come and go mid-stream, and a tight shared budget makes estimators
/// shed. Grouping queries by antecedent must move none of it — not the
/// answers, not which estimator sheds when, not what the filter skips.
#[test]
fn shared_antecedent_catalog_is_pinned_through_churn_and_shedding() {
    let schema = Schema::new((0..4).map(|i| (format!("c{i}"), 0)));
    let set = |names: &[&str]| schema.attr_set(names);
    let morning = Filter::new().and_in(AttrId(3), vec![0, 1, 2]);
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
        .bitmaps(16)
        .seed(17);
    let floor = template.construction_floor();
    let template = template.memory_budget(12 * floor);
    let mut catalog = QueryCatalog::new(&schema, template);
    let queries = [
        (
            "loyal",
            ImplicationQuery::one_to_one(set(&["c0"]), set(&["c1"]), 1),
        ),
        (
            "loyal_morning",
            ImplicationQuery::one_to_one(set(&["c0"]), set(&["c2"]), 1).filtered(morning.clone()),
        ),
        ("keys", ImplicationQuery::distinct_count(set(&["c0"]))),
        (
            "fanout",
            ImplicationQuery::more_than(set(&["c0"]), set(&["c2"]), 2, 1),
        ),
        (
            "svc",
            ImplicationQuery::one_to_one(set(&["c1"]), set(&["c2"]), 2),
        ),
        ("svc_keys", ImplicationQuery::distinct_count(set(&["c1"]))),
        (
            "pair",
            ImplicationQuery::at_most(set(&["c0", "c1"]), set(&["c3"]), 2, 1),
        ),
        (
            "wide_morning",
            ImplicationQuery::one_to_one(set(&["c0"]), set(&["c3"]), 1).filtered(morning),
        ),
    ];
    let ids: Vec<_> = queries
        .iter()
        .map(|(name, q)| catalog.register(*name, q.clone()))
        .collect();

    let stream = skewed_stream(24_000, 0x9e37_79b9);
    let hasher = catalog.hasher().clone();
    let mut batch = implicate::HashedBatch::new();
    for (i, chunk) in stream.chunks(256).enumerate() {
        if i == 30 {
            // Churn: retire a member of the shared-antecedent group and
            // add a late one to it.
            assert!(catalog.retire(ids[3]));
            catalog.register(
                "late",
                ImplicationQuery::one_to_one(set(&["c0"]), set(&["c3"]), 1),
            );
        }
        if i == 60 {
            assert!(catalog.retire(ids[5]));
        }
        if i % 3 == 0 {
            catalog.process_batch(chunk);
        } else {
            hasher.hash_batch(chunk, &mut batch);
            catalog.process_hashed(&batch);
        }
    }
    assert_eq!(catalog.tuples_seen(), 24_000);

    let want: [Pin; 7] = [
        ("loyal", 0x4096_60c1_fd1d_feda, 24_000, 42, 24_832, 22_349),
        (
            "loyal_morning",
            0x40a2_db32_c119_91d4,
            9_146,
            356,
            14_848,
            8_289,
        ),
        ("keys", 0x40af_d323_9d47_9e26, 24_000, 0, 10_240, 23_867),
        ("svc", 0, 24_000, 0, 10_240, 23_903),
        ("pair", 0x40c8_79da_ad27_4270, 24_000, 3_374, 41_984, 18_785),
        (
            "wide_morning",
            0x40a4_e79b_73db_22c2,
            9_146,
            754,
            10_240,
            8_027,
        ),
        ("late", 0x40a1_6f00_b467_92e8, 16_320, 790, 10_240, 15_094),
    ];
    assert_eq!(catalog.len(), want.len());
    for (name, bits, matched, sheds, resident, skips) in want {
        let id = catalog.find(name).expect("pinned query live");
        let got = (
            name,
            catalog.answer(id).unwrap().to_bits(),
            catalog.matched(id).unwrap(),
            catalog.shed_events(id).unwrap(),
            catalog.resident_bytes(id).unwrap(),
            catalog.zone1_skips(id).unwrap(),
        );
        assert_eq!(got, (name, bits, matched, sheds, resident, skips));
    }
}
