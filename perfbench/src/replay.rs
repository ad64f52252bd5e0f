//! The traced replay: a workload's rows fed in-process through every
//! layer's public calls, each call wrapped in a span.
//!
//! The replay mirrors what the binaries do with a row: serve's 256-row
//! ingest batches, its 4,096-row publish cadence, an edge per bitmap
//! half shipping wire frames every 4,096 of its rows to one aggregator
//! that decodes, merges and republishes, and a catalog answering the
//! workload's query set. Every workload replays every layer, so each
//! per-layer metric exists on each workload; the ledger counts only the
//! layers the workload's binaries actually run.

use std::collections::BTreeMap;
use std::hint::black_box;

use implicate::core::wire::{WireDecoder, WireSnapshot};
use implicate::sketch::hash::MixHasher;
use implicate::sketch::rank::split_rank;
use implicate::spec::{QuerySpec, FIELD_HASHER_SEED};
use implicate::{
    EstimatorConfig, HashedBatch, ImplicationEstimator, QueryCatalog, QueryId, Schema, Tuple,
};

use crate::trace::{SpanLog, Total};
use crate::Metric;

/// serve's `INGEST_BATCH`.
const BATCH: usize = 256;
/// serve's default `--publish-every` (and so `--ship-every`).
const PUBLISH_EVERY: usize = 4096;
/// View reads timed after each catalog publish.
const READS_PER_PUBLISH: usize = 64;

/// What to replay.
pub struct Plan<'a> {
    /// The rows as sent, whitespace-delimited.
    pub lines: &'a [String],
    /// Leading fields of each row that get hashed; the estimator layers
    /// use fields 0 and 1.
    pub arity: usize,
    pub config: EstimatorConfig,
    /// The catalog's preloaded queries.
    pub queries: &'a [QuerySpec],
    /// `kind lhs rhs` of the query registered and retired in turn.
    pub churn_spec: &'a str,
    /// Rows between two register/retire calls.
    pub churn_every: usize,
}

/// The replay's result.
pub struct Layers {
    /// Per-layer metrics, named as in `BENCHMARK.json`.
    pub metrics: Vec<Metric>,
    pub totals: BTreeMap<&'static str, Total>,
    pub rows: usize,
}

impl Layers {
    /// Self time per row of one span name, in ns — which is ms per
    /// million rows.
    pub fn ns_per_row(&self, span: &str) -> f64 {
        self.totals
            .get(span)
            .map_or(0.0, |t| t.self_ns as f64 / self.rows as f64)
    }

    fn unit_ns(&self, span: &str) -> f64 {
        self.totals
            .get(span)
            .map_or(0.0, |t| t.self_ns as f64 / t.count.max(1) as f64)
    }

    /// Mean cost of one `EstimateReader::estimate()`, ns.
    pub fn view_read_ns(&self) -> f64 {
        self.unit_ns("view.read") / READS_PER_PUBLISH as f64
    }
}

/// One edge of the replayed fleet.
struct Edge {
    est: ImplicationEstimator,
    pairs: Vec<(u64, u64)>,
    since_publish: usize,
    since_ship: usize,
    epoch: u64,
    base: Option<WireSnapshot>,
}

pub fn run(plan: &Plan, log: &mut SpanLog) -> Result<Layers, String> {
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let mut row_est = plan.config.build();
    let pair_hasher = row_est.pair_hasher();
    let log2_m = row_est.bitmap_count().trailing_zeros();
    let mut edges: Vec<Edge> = (0..2)
        .map(|_| Edge {
            est: plan.config.build(),
            pairs: Vec::with_capacity(BATCH),
            since_publish: 0,
            since_ship: 0,
            epoch: 0,
            base: None,
        })
        .collect();
    let mut decoders: Vec<WireDecoder> = (0..2).map(|_| WireDecoder::new()).collect();
    let mut serving = plan.config.build();
    let reader = serving.reader();

    let schema = Schema::new((0..plan.arity).map(|i| (format!("c{i}"), 0)));
    let mut catalog = QueryCatalog::new(&schema, plan.config);
    for q in plan.queries {
        catalog
            .try_register(q.name.clone(), q.query.clone())
            .map_err(|e| format!("replay catalog: {}: {e}", q.name))?;
    }
    let first = catalog
        .find(&plan.queries[0].name)
        .expect("registered above");
    let catalog_reader = catalog.reader(first).expect("live query");
    let churn = implicate::spec::parse_query_line(&format!("churn {}", plan.churn_spec))?;
    let mut churn_live: Option<QueryId> = None;
    let mut churn_seq = 0u64;
    let tuple_hasher = catalog.hasher().clone();
    let mut hashed = HashedBatch::new();

    let (mut since_catalog_publish, mut since_churn) = (0, 0);
    let (mut delta_frames, mut delta_bytes, mut shipped_bytes) = (0usize, 0usize, 0usize);
    let mut fields: Vec<&str> = Vec::with_capacity(BATCH * plan.arity);
    let mut hashes: Vec<u64> = Vec::with_capacity(BATCH * plan.arity);
    let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(BATCH);

    for (id, batch) in plan.lines.chunks(BATCH).enumerate() {
        let id = id as u64;
        let n = batch.len();
        let root = log.open("batch", None, id);
        let parent = Some(root);

        fields.clear();
        for line in batch {
            let before = fields.len();
            fields.extend(line.split_whitespace().take(plan.arity));
            if fields.len() - before != plan.arity {
                return Err(format!(
                    "replay: row {line:?} has fewer than {} fields",
                    plan.arity
                ));
            }
        }
        hashes.clear();
        log.time("text.hash_field", parent, id, || {
            hashes.extend(
                fields
                    .iter()
                    .map(|f| implicate::text::hash_field(&field_hasher, f)),
            );
        });
        let row = |r: usize| &hashes[r * plan.arity..(r + 1) * plan.arity];

        // The CLI's path: per-row update.
        log.time("estimator.update", parent, id, || {
            for r in 0..n {
                row_est.update(&row(r)[..1], &row(r)[1..2]);
            }
        });

        // serve's plain path: hash pairs, batch-update one edge per
        // bitmap half, publish, and ship wire frames to the aggregator.
        pairs.clear();
        log.time("estimator.hash_pair", parent, id, || {
            pairs.extend((0..n).map(|r| pair_hasher.hash_pair(&row(r)[..1], &row(r)[1..2])));
        });
        for &(h_a, b_fp) in &pairs {
            edges[split_rank(h_a, log2_m).0 % 2].pairs.push((h_a, b_fp));
        }
        for (node, edge) in edges.iter_mut().enumerate() {
            if edge.pairs.is_empty() {
                continue;
            }
            log.time("estimator.update_hashed_batch", parent, id, || {
                edge.est.update_hashed_batch(&edge.pairs)
            });
            edge.since_publish += edge.pairs.len();
            edge.since_ship += edge.pairs.len();
            edge.pairs.clear();
            if edge.since_publish >= PUBLISH_EVERY {
                edge.since_publish = 0;
                log.time("estimator.publish", parent, id, || edge.est.publish());
            }
            if edge.since_ship < PUBLISH_EVERY {
                continue;
            }
            edge.since_ship = 0;
            edge.epoch += 1;
            let snap = log.time("wire.capture", parent, id, || {
                WireSnapshot::capture(&edge.est, edge.epoch)
            });
            let frame = match &edge.base {
                Some(base) => {
                    let frame = log.time("wire.delta_encode", parent, id, || {
                        snap.delta_frame(base, node as u64)
                    });
                    delta_frames += 1;
                    delta_bytes += frame.len();
                    frame
                }
                None => log.time("wire.full_encode", parent, id, || {
                    snap.full_frame(node as u64)
                }),
            };
            shipped_bytes += frame.len();
            edge.base = Some(snap);
            log.time("wire.decode_apply", parent, id, || {
                decoders[node].apply(frame)
            })
            .map_err(|e| format!("replay: wire frame from edge {node}: {e}"))?;
            log.time("wire.merge", parent, id, || {
                let mut merged = plan.config.build();
                for d in &decoders {
                    if let Some(replica) = d.estimator() {
                        merged.merge(replica);
                    }
                }
                serving.adopt_state(merged);
            });
            log.time("estimator.publish_full", parent, id, || {
                serving.publish_full();
                black_box(serving.to_bytes());
            });
        }

        // serve's catalog path: hash the batch attribute-wise once, then
        // answer every query.
        let tuples: Vec<Tuple> = (0..n).map(|r| Tuple::new(row(r))).collect();
        log.time("hashplan.hash_batch", parent, id, || {
            tuple_hasher.hash_batch(tuples, &mut hashed)
        });
        log.time("catalog.process_hashed", parent, id, || {
            catalog.process_hashed(&hashed)
        });
        since_catalog_publish += n;
        if since_catalog_publish >= PUBLISH_EVERY {
            since_catalog_publish = 0;
            log.time("catalog.publish", parent, id, || catalog.publish());
            // A query connection clones a reader, then reads once.
            log.time("view.read", parent, id, || {
                for _ in 0..READS_PER_PUBLISH {
                    black_box(catalog_reader.clone().estimate());
                }
            });
        }
        since_churn += n;
        if since_churn >= plan.churn_every {
            since_churn = 0;
            match churn_live.take() {
                Some(q) => {
                    log.time("catalog.retire", parent, id, || catalog.retire(q));
                }
                None => {
                    churn_seq += 1;
                    let name = format!("churn{churn_seq}");
                    let q = log.time("catalog.register", parent, id, || {
                        catalog.try_register(name, churn.query.clone())
                    });
                    churn_live = Some(q.map_err(|e| format!("replay churn: {e}"))?);
                }
            }
        }
        log.close(root);
    }

    let full_bytes: usize = edges
        .iter()
        .enumerate()
        .map(|(node, e)| {
            WireSnapshot::capture(&e.est, e.epoch + 1)
                .full_frame(node as u64)
                .len()
        })
        .sum();
    black_box(reader.estimate());

    let rows = plan.lines.len();
    let layers = Layers {
        metrics: Vec::new(),
        totals: log.totals(),
        rows,
    };
    let fields_hashed = (rows * plan.arity) as f64;
    let per_call_us = |span: &str| layers.unit_ns(span) / 1e3;
    let per_row = |span: &str| layers.ns_per_row(span);
    let metrics = vec![
        Metric::new(
            "text.hash_field_ns",
            layers
                .totals
                .get("text.hash_field")
                .map_or(0.0, |t| t.self_ns as f64)
                / fields_hashed,
            "ns",
        ),
        Metric::new(
            "estimator.update_ns_per_row",
            per_row("estimator.update"),
            "ns",
        ),
        Metric::new(
            "estimator.hash_pair_ns_per_row",
            per_row("estimator.hash_pair"),
            "ns",
        ),
        Metric::new(
            "estimator.update_hashed_batch_ns_per_row",
            per_row("estimator.update_hashed_batch"),
            "ns",
        ),
        Metric::new(
            "estimator.publish_us",
            per_call_us("estimator.publish"),
            "us",
        ),
        Metric::new(
            "estimator.publish_full_us",
            per_call_us("estimator.publish_full"),
            "us",
        ),
        Metric::new(
            "estimator.tracked_bytes",
            row_est.tracked_bytes() as f64,
            "bytes",
        ),
        Metric::new(
            "hashplan.hash_batch_ns_per_row",
            per_row("hashplan.hash_batch"),
            "ns",
        ),
        Metric::new(
            "catalog.process_hashed_ns_per_row",
            per_row("catalog.process_hashed"),
            "ns",
        ),
        Metric::new(
            "catalog.ns_per_row_per_query",
            per_row("catalog.process_hashed") / plan.queries.len() as f64,
            "ns",
        ),
        Metric::new("catalog.publish_us", per_call_us("catalog.publish"), "us"),
        Metric::new("catalog.register_us", per_call_us("catalog.register"), "us"),
        Metric::new("catalog.retire_us", per_call_us("catalog.retire"), "us"),
        Metric::new(
            "catalog.tracked_bytes",
            catalog.tracked_bytes() as f64,
            "bytes",
        ),
        Metric::new("view.read_ns", layers.view_read_ns(), "ns"),
        Metric::new("wire.capture_us", per_call_us("wire.capture"), "us"),
        Metric::new(
            "wire.delta_encode_us",
            per_call_us("wire.delta_encode"),
            "us",
        ),
        Metric::new(
            "wire.delta_bytes",
            delta_bytes as f64 / delta_frames.max(1) as f64,
            "bytes",
        ),
        Metric::new("wire.full_bytes", full_bytes as f64, "bytes"),
        Metric::new(
            "wire.bytes_per_mrow",
            shipped_bytes as f64 * 1e6 / rows as f64,
            "bytes",
        ),
        Metric::new(
            "wire.decode_apply_us",
            per_call_us("wire.decode_apply"),
            "us",
        ),
        Metric::new("wire.merge_us", per_call_us("wire.merge"), "us"),
    ];
    if delta_frames == 0 || !layers.totals.contains_key("catalog.retire") {
        return Err(format!(
            "replay of {rows} rows is too short to ship a delta frame and retire a query"
        ));
    }
    Ok(Layers { metrics, ..layers })
}
