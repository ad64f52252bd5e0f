//! Observability cost on the §4.6 hot path:
//!
//! ```text
//! cargo bench -p imp-bench --bench metrics_overhead
//! ```
//!
//! Every [`imp_core::ImplicationEstimator::update`] records one
//! [`imp_core::UpdateOutcome`] into relaxed atomics, and the metrics are
//! always compiled in. `update_hot_path` times that path; compare it
//! across commits with Criterion's saved baselines. The last measurement
//! against a build without the registry is in EXPERIMENTS.md
//! ("instrumentation tax").

#![allow(missing_docs)] // criterion_group expands undocumented items

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use imp_core::{EstimatorConfig, ImplicationConditions, ShardedEstimator};

/// Mixed loyal/disloyal pair stream, matching `update_cost.rs` so the
/// two benches are comparable.
fn stream(n: u64) -> Vec<([u64; 1], [u64; 1])> {
    (0..n)
        .map(|i| {
            let a = imp_sketch::hash::mix64(i) % (n / 4);
            let b = if a.is_multiple_of(3) { a % 50 } else { i % 50 };
            ([a], [b])
        })
        .collect()
}

/// Sequential `update`, recording into the estimator's registry. The
/// label is the one earlier saved Criterion baselines carry.
fn bench_update_hot_path(c: &mut Criterion) {
    let cond = ImplicationConditions::one_to_c(2, 0.8, 2);
    let data = stream(100_000);
    let mut g = c.benchmark_group("update_hot_path");
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("metrics_enabled", |bench| {
        bench.iter(|| {
            let mut est = EstimatorConfig::new(cond).seed(1).build();
            for (a, b) in &data {
                est.update(black_box(a), black_box(b));
            }
            black_box(est.estimate_now())
        });
    });
    g.finish();
}

/// Reading the registry while the estimator runs — the `--stats-interval`
/// pattern. Sampling cost is off the per-update path entirely; this
/// group documents what one `samples()` sweep costs the reporter thread.
fn bench_sampling(c: &mut Criterion) {
    let cond = ImplicationConditions::one_to_c(2, 0.8, 2);
    let data = stream(50_000);
    let mut est = EstimatorConfig::new(cond).seed(1).build();
    for (a, b) in &data {
        est.update(a, b);
    }
    let mut g = c.benchmark_group("registry_read");
    g.bench_function("samples", |bench| {
        bench.iter(|| black_box(est.metrics().samples()));
    });
    g.bench_function("line_protocol", |bench| {
        bench.iter(|| black_box(est.metrics().line_protocol("implicate")));
    });
    g.finish();
}

/// Tracing's hot-path cost in its two run-time states: inactive (the
/// default — every estimator starts with a disabled
/// [`imp_core::TraceHandle`], so each update pays one `Option` check)
/// and actively journaling into a ring (DESIGN.md §8.3). Journaling
/// cost is reported, not bounded.
fn bench_trace_states(c: &mut Criterion) {
    let cond = ImplicationConditions::one_to_c(2, 0.8, 2);
    let data = stream(100_000);
    let mut g = c.benchmark_group("trace_hot_path");
    g.throughput(Throughput::Elements(data.len() as u64));
    g.bench_function("trace_inactive", |bench| {
        bench.iter(|| {
            let mut est = EstimatorConfig::new(cond).seed(1).build();
            for (a, b) in &data {
                est.update(black_box(a), black_box(b));
            }
            black_box(est.estimate_now())
        });
    });
    g.bench_function("trace_journaling", |bench| {
        bench.iter(|| {
            let mut est = EstimatorConfig::new(cond).seed(1).build();
            est.set_trace(imp_core::TraceHandle::with_capacity(1 << 16));
            for (a, b) in &data {
                est.update(black_box(a), black_box(b));
            }
            black_box(est.estimate_now())
        });
    });
    g.finish();
}

/// Sharded ingestion with the shared registry: shards of one estimator
/// hammer the same atomics, the worst contention case the design accepts
/// (see DESIGN.md §8.2 for why relaxed ordering makes this safe).
fn bench_sharded_shared_registry(c: &mut Criterion) {
    let cond = ImplicationConditions::one_to_c(2, 0.8, 2);
    let pairs: Vec<(u64, u64)> = {
        let data = stream(100_000);
        let probe = EstimatorConfig::new(cond).seed(1).build();
        let sharded = ShardedEstimator::new(probe, 1);
        let hasher = sharded.pair_hasher();
        data.iter().map(|(a, b)| hasher.hash_pair(a, b)).collect()
    };
    let mut g = c.benchmark_group("sharded_shared_registry");
    g.throughput(Throughput::Elements(pairs.len() as u64));
    for threads in [1usize, 4] {
        g.bench_function(format!("threads_{threads}"), |bench| {
            bench.iter(|| {
                let est = EstimatorConfig::new(cond).seed(1).build();
                let mut sharded = ShardedEstimator::new(est, threads);
                sharded.update_hashed_batch(black_box(&pairs));
                black_box(sharded.finish().estimate_now())
            });
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_update_hot_path, bench_sampling, bench_trace_states, bench_sharded_shared_registry
}
criterion_main!(benches);
