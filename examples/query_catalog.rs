//! The full Table 2 query catalog, evaluated on a realistic synthetic
//! network-traffic stream — one query per class, all eight answered by
//! the NIPS/CI [`QueryCatalog`] in a **single pass** over the stream
//! (each tuple is hashed attribute-wise once and shared by every query),
//! with exact baselines accumulated alongside for the error column.
//!
//! Run with: `cargo run --release --example query_catalog`

use implicate::catalog::QueryCatalog;
use implicate::datagen::{NetworkSpec, NetworkStream};
use implicate::query::Filter;
use implicate::stream::source::TupleSource;
use implicate::{
    EstimatorConfig, ExactCounter, ImplicationConditions, ImplicationCounter, ImplicationQuery,
    Projector, QueryKind, Schema, Tuple,
};

const TUPLES: u64 = 400_000;
const BATCH: usize = 1024;

fn main() {
    // Materialize one stream so every query sees identical data.
    let mut gen = NetworkStream::new(NetworkSpec::default());
    let schema = gen.schema().clone();
    let tuples: Vec<Tuple> = (0..TUPLES).map(|_| gen.next_row()).collect();
    println!("stream: {TUPLES} tuples over (Source, Destination, Service, Time)\n");

    let src = schema.attr_set(&["Source"]);
    let dst = schema.attr_set(&["Destination"]);
    let svc = schema.attr_set(&["Service"]);
    let time = schema.attr_expect("Time");
    let svc_attr = schema.attr_expect("Service");

    let queries: Vec<(&str, ImplicationQuery)> = vec![
        (
            "how many sources have we seen so far? (Distinct Count)",
            ImplicationQuery::distinct_count(src),
        ),
        // Direction matters: this stream has loyal *sources*, so we count
        // sources locked to one destination.
        (
            "sources contacting only one destination (one-to-one)",
            ImplicationQuery::one_to_one(src, dst, 1),
        ),
        (
            "sources contacting more than 10 destinations (one-to-many)",
            ImplicationQuery::more_than(src, dst, 10, 1),
        ),
        (
            "sources with one destination 80% of the time (noisy)",
            ImplicationQuery::noisy(src, dst, 1, 0.80, 2),
        ),
        (
            "destinations NOT served over a single service (complement)",
            ImplicationQuery::one_to_one(dst, svc, 2).complement(),
        ),
        (
            "sources with one destination during the morning (conditional)",
            ImplicationQuery::one_to_one(src, dst, 1).filtered(Filter::new().and_eq(time, 0)),
        ),
        (
            "(source, service) pairs locked to one destination (compound)",
            ImplicationQuery::one_to_one(src.union(svc), dst, 1),
        ),
        (
            "srcs with ≤2 destinations 90% of the time on services 1-3 (complex)",
            ImplicationQuery::noisy(src, dst, 2, 0.90, 2)
                .filtered(Filter::new().and_in(svc_attr, vec![1, 2, 3])),
        ),
    ];

    // One catalog, one shared budget, one pass: every query derives its
    // itemset hashes from the same per-attribute hashing stage, and each
    // estimator stays cache-hot across a whole batch.
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1)).seed(99);
    let mut catalog = QueryCatalog::new(&schema, template);
    let ids: Vec<_> = queries
        .iter()
        .enumerate()
        .map(|(i, (_, q))| catalog.register(format!("q{}", i + 1), q.clone()))
        .collect();
    for batch in tuples.chunks(BATCH) {
        catalog.process_batch(batch);
    }

    println!(
        "{:<58} {:>10} {:>10} {:>7}",
        "query (Table 2 class)", "exact", "NIPS/CI", "err"
    );
    println!("{}", "-".repeat(88));
    for ((label, query), id) in queries.iter().zip(&ids) {
        let truth = exact_answer(&schema, &tuples, query);
        let est = catalog.answer(*id).expect("registered query");
        let err = if truth == 0.0 {
            if est == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (truth - est).abs() / truth
        };
        println!(
            "{label:<58} {truth:>10.0} {est:>10.0} {:>6.1}%",
            err * 100.0
        );
    }
    println!(
        "\ncatalog: {} queries, {} tuples, {} tracked bytes on one shared budget",
        catalog.len(),
        catalog.tuples_seen(),
        catalog.tracked_bytes()
    );
}

/// Exact evaluation with the same filter/projections (reference only —
/// this is the memory-unbounded baseline the estimator replaces).
fn exact_answer(schema: &Schema, tuples: &[Tuple], query: &ImplicationQuery) -> f64 {
    let pl = Projector::new(schema, query.lhs);
    let pr = Projector::new(schema, query.rhs);
    let mut exact = ExactCounter::new(query.conditions);
    for t in tuples {
        if !query.filter.is_empty() && !query.filter.matches(t.values()) {
            continue;
        }
        exact.update(pl.project(t).as_slice(), pr.project(t).as_slice());
    }
    match query.kind {
        QueryKind::DistinctCount => exact.exact_f0_sup() as f64,
        QueryKind::Implication => exact.exact_implication_count() as f64,
        QueryKind::Complement => exact.exact_non_implication_count() as f64,
    }
}
