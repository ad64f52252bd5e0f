//! Sharded-ingestion throughput: tuples/second through
//! [`ShardedEstimator`] at 1, 2, 4 and 8 worker shards, against the same
//! pre-hashed zipf-ish workload. The 1-shard case measures the pipeline
//! overhead over plain sequential updates (also benched here as the
//! baseline); results at every width are bit-identical by construction.

#![allow(missing_docs)] // criterion_group expands undocumented items

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use imp_core::{EstimatorConfig, ImplicationConditions, ShardedEstimator};
use imp_sketch::hash::mix64;

const STREAM: u64 = 400_000;

/// Skewed loyal/disloyal pair stream, pre-materialized and pre-hashed so
/// the benchmark times ingestion rather than generation.
fn stream() -> Vec<(u64, u64)> {
    let hasher = config().build().pair_hasher();
    (0..STREAM)
        .map(|i| {
            let a = mix64(i) % (STREAM / 8);
            let b = if a.is_multiple_of(5) { i % 64 } else { a % 997 };
            hasher.hash_pair(&[a], &[b])
        })
        .collect()
}

fn config() -> EstimatorConfig {
    EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.8, 2)).seed(1)
}

fn bench_parallel_ingest(c: &mut Criterion) {
    let data = stream();
    let mut g = c.benchmark_group("parallel_ingest");
    g.throughput(Throughput::Elements(data.len() as u64));

    g.bench_function("sequential_baseline", |bench| {
        bench.iter(|| {
            let mut est = config().build();
            est.update_hashed_batch(black_box(&data));
            black_box(est.estimate_now())
        });
    });

    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |bench, &threads| {
                bench.iter(|| {
                    let mut sharded = ShardedEstimator::new(config().build(), threads);
                    for chunk in data.chunks(4096) {
                        sharded.update_hashed_batch(black_box(chunk));
                    }
                    black_box(sharded.finish().estimate_now())
                });
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_ingest
}
criterion_main!(benches);
