//! Sharded-ingestion throughput: tuples/second through
//! [`ShardedEstimator`] at 1, 2, 4 and 8 worker shards, against the same
//! pre-hashed zipf-ish workload. The 1-shard case measures the pipeline
//! overhead over plain sequential updates (also benched here as the
//! baseline); results at every width are bit-identical by construction.
//!
//! The `catalog_ingest` group times the other lane front end the same way:
//! a pre-hashed 8-column [`HashedBatch`] stream through a [`QueryCatalog`]
//! of eight queries, then through [`ShardedCatalog`] at 1, 2 and 4 lanes,
//! which broadcasts every batch to every lane.

#![allow(missing_docs)] // criterion_group expands undocumented items

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use imp_core::{
    EstimatorConfig, ImplicationConditions, ImplicationQuery, QueryCatalog, ShardedCatalog,
    ShardedEstimator,
};
use imp_sketch::hash::mix64;
use imp_stream::hashplan::HashedBatch;
use imp_stream::schema::Schema;

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

/// Rows in the catalog stream.
const CATALOG_ROWS: u64 = 100_000;
/// Rows per shipped batch, as the CLI's catalog engine ships them.
const CATALOG_BATCH: usize = 2_048;
const COLUMNS: usize = 8;

/// Eight queries over eight columns: `c{j} → c{j+1 mod 8}`, one-to-one.
fn catalog() -> QueryCatalog {
    let names: Vec<String> = (0..COLUMNS).map(|j| format!("c{j}")).collect();
    let schema = Schema::new(names.iter().map(|n| (n.as_str(), 0)));
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1)).seed(1);
    let mut catalog = QueryCatalog::new(&schema, template);
    for j in 0..COLUMNS {
        let lhs = schema.attr_set(&[names[j].as_str()]);
        let rhs = schema.attr_set(&[names[(j + 1) % COLUMNS].as_str()]);
        catalog.register(format!("q{j}"), ImplicationQuery::one_to_one(lhs, rhs, 1));
    }
    catalog
}

/// Rows where each column mostly follows from the one before it, hashed
/// once into the catalog's batches.
fn catalog_stream() -> Vec<HashedBatch> {
    let hasher = catalog().hasher().clone();
    let rows: Vec<[u64; COLUMNS]> = (0..CATALOG_ROWS)
        .map(|i| {
            let mut row = [mix64(i) % (CATALOG_ROWS / 8); COLUMNS];
            for j in 1..COLUMNS {
                row[j] = if i.is_multiple_of(7) {
                    mix64(i ^ j as u64) % 64
                } else {
                    mix64(row[j - 1] ^ j as u64) % (CATALOG_ROWS >> j)
                };
            }
            row
        })
        .collect();
    rows.chunks(CATALOG_BATCH)
        .map(|chunk| {
            let mut batch = HashedBatch::new();
            hasher.hash_batch(chunk, &mut batch);
            batch
        })
        .collect()
}

fn bench_catalog_ingest(c: &mut Criterion) {
    let stream = catalog_stream();
    let mut g = c.benchmark_group("catalog_ingest");
    g.throughput(Throughput::Elements(CATALOG_ROWS));

    g.bench_function("sequential_baseline", |bench| {
        bench.iter_batched(
            catalog,
            |mut catalog| {
                for batch in &stream {
                    catalog.process_hashed(black_box(batch));
                }
                black_box(catalog.tuples_seen())
            },
            BatchSize::LargeInput,
        );
    });

    for threads in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::new("sharded", threads),
            &threads,
            |bench, &threads| {
                // The router takes each batch by value and hands back a
                // pooled buffer, so every iteration gets its own copy.
                bench.iter_batched(
                    || (catalog(), stream.clone()),
                    |(catalog, batches)| {
                        let mut sharded = ShardedCatalog::new(catalog, threads);
                        for batch in batches {
                            black_box(sharded.process_hashed(batch));
                        }
                        black_box(sharded.finish().tuples_seen())
                    },
                    BatchSize::LargeInput,
                );
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_ingest, bench_catalog_ingest
}
criterion_main!(benches);
