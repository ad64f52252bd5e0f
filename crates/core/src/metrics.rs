//! Zero-dependency observability: a lock-free [`MetricsRegistry`] of
//! relaxed-atomic counters, gauges and histograms threaded through the
//! ingestion hot paths.
//!
//! # Design
//!
//! The registry is a *fixed struct of atomics*, not a string-keyed map:
//! every metric is a named field, reachable without hashing, locking or
//! allocation, so recording on the `update` hot path is a handful of
//! `Relaxed` `fetch_add`s. Reporting walks one table that declares each
//! series once — name, kind, help text and the field it reads — and
//! renders it by name ([`MetricsRegistry::samples`],
//! [`MetricsRegistry::report`], [`MetricsRegistry::line_protocol`],
//! [`MetricsRegistry::prometheus`]).
//!
//! Every Prometheus exposition of the workspace (this registry, the
//! catalog's, the fleet's, the serve binary's) is written through one
//! writer, [`Exposition`].
//!
//! All atomics use [`Ordering::Relaxed`](std::sync::atomic::Ordering):
//! each metric is an independent monotone counter (or a gauge whose exact
//! instantaneous value is advisory), no control flow ever reads a metric,
//! and cross-metric consistency is not promised — a reader may observe
//! `tuples = 100, dirty = 3` while a writer is between the two
//! increments. That is the correct contract for telemetry and the cheapest
//! ordering the hardware offers; the full argument is in DESIGN.md §8.2.
//!
//! # Sharing
//!
//! A [`MetricsHandle`] is a cheaply-clonable reference to one registry
//! (an `Arc` under the hood). Cloning an
//! [`ImplicationEstimator`](crate::ImplicationEstimator) — or splitting
//! it into ingestion shards — shares the registry, so one pipeline's
//! traffic aggregates in one place regardless of its thread layout.
//!
//! ```
//! use imp_core::{EstimatorConfig, ImplicationConditions};
//!
//! let cond = ImplicationConditions::strict_one_to_one(1);
//! let mut est = EstimatorConfig::new(cond).build();
//! for a in 0..1000u64 {
//!     est.update(&[a], &[1]);
//!     if a % 2 == 0 {
//!         est.update(&[a], &[2]); // a second partner: violates K = 1
//!     }
//! }
//! let m = est.metrics().registry();
//! assert_eq!(m.estimator.tuples.get(), 1500);
//! assert!(m.estimator.dirty_multiplicity.get() > 0);
//! ```

use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::nips::UpdateOutcome;
use crate::state::DirtyReason;

/// Number of per-shard lanes statically allocated in [`IngestMetrics`].
/// Shard `k` records into lane `k % LANES`, so pipelines wider than this
/// fold — counts stay correct in aggregate, only the per-shard breakdown
/// coarsens.
pub const LANES: usize = 16;

/// Number of power-of-two buckets in a [`Histogram`]: bucket `i` holds
/// the values of bit length `i`, and the last one every value ≥ 2^62.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event counter (relaxed atomic).
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

/// A signed-adjustable level with a high-watermark (relaxed atomics).
///
/// `add` may race between the level update and the peak update, so the
/// recorded peak is a lower bound on the true instantaneous peak under
/// concurrency — the standard, and here sufficient, trade for staying
/// lock-free (DESIGN.md §8.2).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Sets the level outright.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Relaxed);
        self.peak.fetch_max(v, Relaxed);
    }

    /// Adjusts the level by a signed delta. The level must logically stay
    /// non-negative; a transiently racy reader may observe wrapped values.
    #[inline]
    pub fn adjust(&self, delta: i64) {
        let prev = self.value.fetch_add(delta as u64, Relaxed);
        self.peak
            .fetch_max(prev.wrapping_add(delta as u64), Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Relaxed)
    }

    /// High-watermark of the level so far.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

/// A log₂-bucketed histogram of `u64` observations (durations in
/// nanoseconds, sizes in bytes). Bucket `i` holds values whose bit length
/// is `i` — i.e. `[2^(i−1), 2^i)` — so relative resolution is a constant
/// 2× at every scale, which is what latency/size telemetry needs. Built
/// from [`Counter`]s, so recording is lock-free. The workspace's one
/// log₂ histogram: the registry's snapshot timings, the fleet registry's
/// merge/publish timings and an edge's ship latencies all use it.
#[derive(Debug)]
pub struct Histogram {
    buckets: [Counter; HISTOGRAM_BUCKETS],
    count: Counter,
    sum: Counter,
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: Counter = Counter::new();
        Self {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: Counter::new(),
            sum: Counter::new(),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[log2_bucket(v)].inc();
        self.count.inc();
        self.sum.add(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Mean observation, or 0.0 with no data.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper bound (exclusive, a power of two) of the bucket containing
    /// the `q`-quantile, or 0 with no data. `q` is clamped to `[0, 1]`.
    /// Reads one snapshot of the buckets and ranks within it, so an
    /// `observe` racing the read can never leave the quantile past the
    /// last bucket.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let buckets: [u64; HISTOGRAM_BUCKETS] = std::array::from_fn(|i| self.buckets[i].get());
        log2_quantile_bound(&buckets, q)
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// The bucket of `v` in a [`Histogram`]: its bit length, with the last
/// bucket catching every wider value.
#[inline]
fn log2_bucket(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound (exclusive, a power of two) of the log₂ bucket holding the
/// `q`-quantile of the observations counted in `buckets`, or 0 with no
/// data. `q` is clamped to `[0, 1]`. The rank is taken against the
/// buckets' own total, so the scan always ends inside them.
fn log2_quantile_bound(buckets: &[u64], q: f64) -> u64 {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0;
    }
    let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    let bucket = buckets.iter().position(|&b| {
        seen += b;
        seen >= target
    });
    1u64 << bucket.unwrap_or(buckets.len() - 1).min(63)
}

/// Hot-path counters of the estimator proper: what the stream did to the
/// sketch. The names below are the canonical metric names (glossary with
/// paper quantities: DESIGN.md §8.2).
#[derive(Debug, Default)]
pub struct EstimatorMetrics {
    /// `estimator.tuples` — `(a, b)` pairs ingested (`T` of §3.1).
    pub tuples: Counter,
    /// `estimator.zone1_skips` — batch rows dropped before their update
    /// because their cell is already 1 (§4.3, Zone 1: the event is
    /// recorded and the cell holds no state). A subset of
    /// `estimator.tuples`.
    pub zone1_skips: Counter,
    /// `estimator.dirty_multiplicity` — dirty transitions caused by the
    /// `(K+1)`-th distinct partner (max-multiplicity condition `K`).
    pub dirty_multiplicity: Counter,
    /// `estimator.dirty_confidence` — dirty transitions caused by the
    /// top-`c` confidence dropping below `ψ_c`.
    pub dirty_confidence: Counter,
    /// `estimator.dirty_support_gate` — dirty transitions materializing at
    /// the support gate: the multiplicity had already overflowed while the
    /// itemset was below `σ`, and reaching `σ` exposed the violation.
    pub dirty_support_gate: Counter,
    /// `estimator.cells_committed` — NIPS bitmap cells committed to value
    /// 1 (the irreversible "once dirty, always dirty" bit of §4.2).
    pub cells_committed: Counter,
    /// `estimator.fringe_evictions` — itemset slots recycled or shed by
    /// the bounded-fringe capacity discipline (per-cell recycling plus
    /// global-budget shedding, both NIPS and `F0^sup` side-fringe).
    pub fringe_evictions: Counter,
    /// `estimator.support_certified` — `F0^sup` side-fringe cells
    /// certified to hold a supported itemset (§4.4's virtual ones).
    pub support_certified: Counter,
    /// `estimator.occupancy` — tracked itemset entries currently held
    /// across all bitmaps (the §6.2 memory metric), with high-watermark.
    pub occupancy: Gauge,
    /// `estimator.merges` — estimators merged into this one
    /// (distributed aggregation).
    pub merges: Counter,
    /// `estimator.mem_bytes` — exact bytes of tracked state reserved from
    /// the shared [`MemoryBudget`](crate::MemoryBudget) (arena tables of
    /// every bitmap plus support fringes), with high-watermark.
    pub mem_bytes: Gauge,
    /// `estimator.mem_budget` — the configured memory-budget ceiling in
    /// bytes, or 0 when unlimited.
    pub mem_budget: Gauge,
    /// `estimator.shed_events` — slots recycled because the memory budget
    /// denied arena growth (pressure shedding; a subset of
    /// `estimator.fringe_evictions` pressure, reported separately so a
    /// capped deployment can see the budget bite).
    pub shed_events: Counter,
}

impl EstimatorMetrics {
    /// All-zero metrics.
    pub const fn new() -> Self {
        Self {
            tuples: Counter::new(),
            zone1_skips: Counter::new(),
            dirty_multiplicity: Counter::new(),
            dirty_confidence: Counter::new(),
            dirty_support_gate: Counter::new(),
            cells_committed: Counter::new(),
            fringe_evictions: Counter::new(),
            support_certified: Counter::new(),
            occupancy: Gauge::new(),
            merges: Counter::new(),
            mem_bytes: Gauge::new(),
            mem_budget: Gauge::new(),
            shed_events: Counter::new(),
        }
    }

    /// Records one update's [`UpdateOutcome`] — the single call on the
    /// `update` hot path.
    #[inline]
    pub fn record(&self, outcome: &UpdateOutcome) {
        self.tuples.inc();
        self.record_outcome(outcome);
    }

    /// [`record`](Self::record) without the per-update `tuples`
    /// increment — for batch paths that count the whole batch with one
    /// atomic add up front. The steady-state outcome is all-default, so
    /// this is branch-predictable and store-free on the hot path.
    pub fn record_outcome(&self, outcome: &UpdateOutcome) {
        if let Some(reason) = outcome.dirty {
            match reason {
                DirtyReason::Multiplicity => self.dirty_multiplicity.inc(),
                DirtyReason::Confidence => self.dirty_confidence.inc(),
                DirtyReason::SupportGate => self.dirty_support_gate.inc(),
            }
        }
        if outcome.committed {
            self.cells_committed.inc();
        }
        if outcome.evictions > 0 {
            self.fringe_evictions.add(outcome.evictions as u64);
        }
        if outcome.certified {
            self.support_certified.inc();
        }
        if outcome.entries_delta != 0 {
            self.occupancy.adjust(outcome.entries_delta as i64);
        }
        if outcome.budget_sheds > 0 {
            self.shed_events.add(outcome.budget_sheds as u64);
        }
    }

    /// Total dirty transitions across all three conditions.
    pub fn dirty_total(&self) -> u64 {
        self.dirty_multiplicity.get() + self.dirty_confidence.get() + self.dirty_support_gate.get()
    }
}

/// Per-shard lane of the parallel-ingestion pipeline.
#[derive(Debug, Default)]
pub struct ShardLane {
    /// `ingest.shardK.batches` — batches shipped to this shard's worker.
    pub batches: Counter,
    /// `ingest.shardK.queue_depth` — batches in flight to the worker
    /// (sent, not yet drained), with high-watermark: queue pressure.
    pub queue_depth: Gauge,
}

impl ShardLane {
    /// All-zero lane.
    pub const fn new() -> Self {
        Self {
            batches: Counter::new(),
            queue_depth: Gauge::new(),
        }
    }
}

/// Counters of the sharded parallel-ingestion pipeline
/// ([`ShardedEstimator`](crate::ShardedEstimator)).
#[derive(Debug, Default)]
pub struct IngestMetrics {
    /// `ingest.shards` — configured worker shard count.
    pub shards: Gauge,
    /// `ingest.batches_routed` — batches shipped across all shards.
    pub batches_routed: Counter,
    /// `ingest.updates_routed` — pre-hashed pairs shipped inside those
    /// batches.
    pub updates_routed: Counter,
    /// `ingest.flushes` — explicit partial-buffer flushes.
    pub flushes: Counter,
    /// `ingest.idle_waits` — times a worker found its queue empty and had
    /// to block (router-bound pipeline; high values mean workers starve).
    pub idle_waits: Counter,
    lanes: [ShardLane; LANES],
}

impl IngestMetrics {
    /// All-zero metrics.
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const LANE: ShardLane = ShardLane::new();
        Self {
            shards: Gauge::new(),
            batches_routed: Counter::new(),
            updates_routed: Counter::new(),
            flushes: Counter::new(),
            idle_waits: Counter::new(),
            lanes: [LANE; LANES],
        }
    }

    /// The lane shard `k` records into (`k % LANES`).
    #[inline]
    pub fn lane(&self, shard: usize) -> &ShardLane {
        &self.lanes[shard % LANES]
    }
}

/// Counters and gauges of the epoch-publication channel
/// ([`crate::view`]): how often views are published, how fresh the
/// latest one is, and how much read traffic it serves.
#[derive(Debug, Default)]
pub struct ViewMetrics {
    /// `view.publishes` — read views published (including the initial
    /// epoch-0 view captured when the channel is created).
    pub publishes: Counter,
    /// `view.epoch` — the latest published epoch.
    pub epoch: Gauge,
    /// `view.published_tuples` — tuples the writer had applied at the
    /// latest published epoch.
    pub published_tuples: Gauge,
    /// `view.age_rows` — rows the writer (or router) had ingested beyond
    /// the latest published view at publication time: the staleness a
    /// reader pays for wait-freedom. 0 for a sequential writer; for the
    /// sharded pipeline, the in-flight backlog a barrier would have
    /// drained.
    pub age_rows: Gauge,
    /// `view.reads` — estimates answered from published views
    /// ([`EstimateReader`](crate::EstimateReader) traffic).
    pub reads: Counter,
}

impl ViewMetrics {
    /// All-zero metrics.
    pub const fn new() -> Self {
        Self {
            publishes: Counter::new(),
            epoch: Gauge::new(),
            published_tuples: Gauge::new(),
            age_rows: Gauge::new(),
            reads: Counter::new(),
        }
    }
}

/// Counters of snapshot encoding/decoding (`core::snapshot`).
#[derive(Debug, Default)]
pub struct SnapshotMetrics {
    /// `snapshot.encodes` — snapshots serialized.
    pub encodes: Counter,
    /// `snapshot.decodes` — snapshots restored.
    pub decodes: Counter,
    /// `snapshot.bytes_written` — total serialized bytes.
    pub bytes_written: Counter,
    /// `snapshot.bytes_read` — total bytes consumed by restores.
    pub bytes_read: Counter,
    /// `snapshot.encode_nanos` — wall-clock nanoseconds per encode.
    pub encode_nanos: Histogram,
    /// `snapshot.decode_nanos` — wall-clock nanoseconds per decode.
    pub decode_nanos: Histogram,
}

impl SnapshotMetrics {
    /// All-zero metrics.
    pub const fn new() -> Self {
        Self {
            encodes: Counter::new(),
            decodes: Counter::new(),
            bytes_written: Counter::new(),
            bytes_read: Counter::new(),
            encode_nanos: Histogram::new(),
            decode_nanos: Histogram::new(),
        }
    }
}

/// Counters of the distributed wire codec (`core::wire`): frames encoded
/// and decoded by kind, bytes on the wire in each direction, decode
/// failures broken down by [`WireError`](crate::wire::WireError) variant,
/// and the resyncs those failures force. These are the series a fleet
/// monitor watches to tell "edge went quiet" from "edge is shipping
/// garbage" (DESIGN.md §8.7).
#[derive(Debug, Default)]
pub struct WireMetrics {
    /// `wire.frames_encoded_full` — full state frames encoded for shipping.
    pub frames_encoded_full: Counter,
    /// `wire.frames_encoded_delta` — delta frames encoded for shipping.
    pub frames_encoded_delta: Counter,
    /// `wire.bytes_out` — total encoded frame bytes produced.
    pub bytes_out: Counter,
    /// `wire.frames_decoded_full` — full frames applied successfully.
    pub frames_decoded_full: Counter,
    /// `wire.frames_decoded_delta` — delta frames applied successfully.
    pub frames_decoded_delta: Counter,
    /// `wire.bytes_in` — total frame bytes consumed by successful applies.
    pub bytes_in: Counter,
    /// `wire.decode_errors` — frames rejected by the decoder, any variant.
    pub decode_errors: Counter,
    /// `wire.resyncs_forced` — times a decoder dropped held replica state,
    /// forcing the peer to resend a full frame before deltas resume.
    pub resyncs_forced: Counter,
    /// `wire.node_id_conflicts` — frames rejected because a pinned ingest
    /// connection switched `node_id` mid-stream (spoofing guard).
    pub node_id_conflicts: Counter,
    /// `wire.err_bad_magic` — rejects: stream does not open with the magic.
    pub err_bad_magic: Counter,
    /// `wire.err_bad_version` — rejects: unsupported wire version.
    pub err_bad_version: Counter,
    /// `wire.err_truncated` — rejects: frame shorter than declared.
    pub err_truncated: Counter,
    /// `wire.err_corrupt` — rejects: malformed payload or rank-sum
    /// cross-check failure.
    pub err_corrupt: Counter,
    /// `wire.err_frame_too_large` — rejects: declared length above the
    /// decoder's frame cap.
    pub err_frame_too_large: Counter,
    /// `wire.err_budget_exceeded` — rejects: decoded state would overflow
    /// the receiver's memory budget.
    pub err_budget_exceeded: Counter,
    /// `wire.err_delta_without_base` — rejects: delta with no base replica.
    pub err_delta_without_base: Counter,
    /// `wire.err_base_epoch_mismatch` — rejects: delta base epoch differs
    /// from the replica's.
    pub err_base_epoch_mismatch: Counter,
    /// `wire.err_config_mismatch` — rejects: frame's estimator config
    /// differs from the receiver's.
    pub err_config_mismatch: Counter,
}

impl WireMetrics {
    /// All-zero metrics.
    pub const fn new() -> Self {
        Self {
            frames_encoded_full: Counter::new(),
            frames_encoded_delta: Counter::new(),
            bytes_out: Counter::new(),
            frames_decoded_full: Counter::new(),
            frames_decoded_delta: Counter::new(),
            bytes_in: Counter::new(),
            decode_errors: Counter::new(),
            resyncs_forced: Counter::new(),
            node_id_conflicts: Counter::new(),
            err_bad_magic: Counter::new(),
            err_bad_version: Counter::new(),
            err_truncated: Counter::new(),
            err_corrupt: Counter::new(),
            err_frame_too_large: Counter::new(),
            err_budget_exceeded: Counter::new(),
            err_delta_without_base: Counter::new(),
            err_base_epoch_mismatch: Counter::new(),
            err_config_mismatch: Counter::new(),
        }
    }

    /// Records one decode failure: bumps the total and the per-variant
    /// counter.
    pub fn record_error(&self, err: &crate::wire::WireError) {
        use crate::wire::WireError as E;
        self.decode_errors.inc();
        match err {
            E::BadMagic => self.err_bad_magic.inc(),
            E::BadVersion(_) => self.err_bad_version.inc(),
            E::Truncated => self.err_truncated.inc(),
            E::Corrupt(_) => self.err_corrupt.inc(),
            E::FrameTooLarge { .. } => self.err_frame_too_large.inc(),
            E::BudgetExceeded { .. } => self.err_budget_exceeded.inc(),
            E::DeltaWithoutBase => self.err_delta_without_base.inc(),
            E::BaseEpochMismatch { .. } => self.err_base_epoch_mismatch.inc(),
            E::ConfigMismatch(_) => self.err_config_mismatch.inc(),
        }
    }
}

/// The registry: every metric the library records, as plain named fields.
///
/// Obtain one through an estimator's
/// [`metrics()`](crate::ImplicationEstimator::metrics) handle rather than
/// constructing it directly, so hot-path recording and your reporting see
/// the same instance.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Estimator hot-path counters.
    pub estimator: EstimatorMetrics,
    /// Parallel-ingestion pipeline counters.
    pub ingest: IngestMetrics,
    /// Epoch-publication (read view) counters.
    pub view: ViewMetrics,
    /// Snapshot encode/decode counters.
    pub snapshot: SnapshotMetrics,
    /// Distributed wire-codec counters.
    pub wire: WireMetrics,
}

impl MetricsRegistry {
    /// An all-zero registry.
    pub const fn new() -> Self {
        Self {
            estimator: EstimatorMetrics::new(),
            ingest: IngestMetrics::new(),
            view: ViewMetrics::new(),
            snapshot: SnapshotMetrics::new(),
            wire: WireMetrics::new(),
        }
    }

    /// All metrics as `(name, value)` pairs, in glossary order. Gauges
    /// contribute `<name>` and `<name>_peak`; histograms contribute
    /// `<name>_count`, `<name>_sum` and `<name>_p95` (a power-of-two
    /// upper bound).
    pub fn samples(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(SERIES.len() + 2 * LANES);
        self.each(|name, _, _, value| out.push((name.to_string(), value)));
        out
    }

    /// Visits every series in glossary order as `(name, kind, help,
    /// value)`: the rows of [`SERIES`], with the `ingest.shardK.*` pairs
    /// of the lanes in use after `ingest.idle_waits`.
    fn each(&self, mut visit: impl FnMut(&dyn fmt::Display, Kind, &'static str, u64)) {
        let lanes_in_use = (self.ingest.shards.peak() as usize).min(LANES);
        for (i, row) in SERIES.iter().enumerate() {
            visit(&row.name, row.kind, row.help, (row.read)(self));
            if i + 1 != LANES_AFTER {
                continue;
            }
            for k in 0..lanes_in_use {
                let lane = self.ingest.lane(k);
                for row in &LANE_SERIES {
                    let name = format_args!("ingest.shard{k}.{}", row.name);
                    visit(&name, row.kind, row.help, (row.read)(lane));
                }
            }
        }
    }

    /// A human-readable multi-line report of every metric.
    pub fn report(&self) -> String {
        let samples = self.samples();
        let width = samples.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::from("metrics:\n");
        for (name, value) in samples {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
        out.pop();
        out
    }

    /// One line of InfluxDB line protocol (integer fields, no timestamp):
    /// `measurement estimator.tuples=123i,...`.
    pub fn line_protocol(&self, measurement: &str) -> String {
        let mut out = format!("{measurement} ");
        self.each(|name, _, _, value| {
            let _ = write!(out, "{name}={value}i,");
        });
        out.pop();
        out
    }

    /// The full registry in Prometheus text exposition format: for every
    /// sample of [`MetricsRegistry::samples`], a `# HELP` line, a `# TYPE`
    /// line and a sample line, with names flattened to
    /// `<namespace>_<name>` (dots become underscores).
    ///
    /// ```
    /// use imp_core::MetricsRegistry;
    ///
    /// let reg = MetricsRegistry::new();
    /// reg.estimator.tuples.add(7);
    /// let text = reg.prometheus("implicate");
    /// assert!(text.contains("# HELP implicate_estimator_tuples "));
    /// assert!(text.contains("# TYPE implicate_estimator_tuples counter"));
    /// assert!(text.contains("\nimplicate_estimator_tuples 7\n"));
    /// imp_core::metrics::lint_prometheus(&text).expect("lints clean");
    /// ```
    pub fn prometheus(&self, namespace: &str) -> String {
        let mut out = String::with_capacity(8192);
        let mut w = Exposition::new(namespace, &mut out);
        self.each(|name, kind, help, value| w.single(name, kind, help, value));
        out
    }
}

/// One declared series: its name, its Prometheus kind, its `# HELP` text
/// and how to read its value off a `T`. The fixed series of every
/// exposition in the workspace are tables of these, built with
/// [`metric_rows!`](crate::metric_rows) and written with [`Exposition`].
pub struct Row<T: ?Sized> {
    /// The series name, before flattening (`estimator.tuples`).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: Kind,
    /// The `# HELP` text.
    pub help: &'static str,
    /// Reads the current value.
    pub read: fn(&T) -> u64,
}

/// Builds a `[Row<T>; N]` (see [`metrics::Row`](crate::metrics::Row))
/// from `Kind "name" reader, "help";` entries, one per series.
///
/// ```
/// use imp_core::metrics::Row;
///
/// const SERIES: [Row<(u64, u64)>; 2] = imp_core::metric_rows![
///     Counter "requests_total" |s| s.0, "Requests answered";
///     Gauge "queue_depth" |s| s.1, "Requests waiting";
/// ];
/// assert_eq!((SERIES[1].read)(&(7, 2)), 2);
/// ```
#[macro_export]
macro_rules! metric_rows {
    ($($kind:ident $name:literal $read:expr, $help:literal;)*) => {
        [$($crate::metrics::Row {
            name: $name,
            kind: $crate::metrics::Kind::$kind,
            help: $help,
            read: $read,
        },)*]
    };
}

/// The registry's series in glossary order (DESIGN.md §8.2), each
/// declared once. Levels, peaks and quantile read-offs are gauges: they
/// can go down between scrapes.
const SERIES: [Row<MetricsRegistry>; 53] = crate::metric_rows![
    Counter "estimator.tuples" |r| r.estimator.tuples.get(),
        "(a, b) pairs ingested (T of paper section 3.1)";
    Counter "estimator.zone1_skips" |r| r.estimator.zone1_skips.get(),
        "Batch rows skipped because their cell is already 1 (paper section 4.3, Zone 1)";
    Counter "estimator.dirty_multiplicity" |r| r.estimator.dirty_multiplicity.get(),
        "Dirty transitions from the (K+1)-th distinct partner";
    Counter "estimator.dirty_confidence" |r| r.estimator.dirty_confidence.get(),
        "Dirty transitions from top-c confidence below psi_c";
    Counter "estimator.dirty_support_gate" |r| r.estimator.dirty_support_gate.get(),
        "Dirty transitions materialized at the support gate";
    Counter "estimator.cells_committed" |r| r.estimator.cells_committed.get(),
        "NIPS bitmap cells committed to value 1";
    Counter "estimator.fringe_evictions" |r| r.estimator.fringe_evictions.get(),
        "Itemset slots recycled or shed by the bounded fringe";
    Counter "estimator.support_certified" |r| r.estimator.support_certified.get(),
        "Side-fringe cells certified as supported itemsets";
    Gauge "estimator.occupancy" |r| r.estimator.occupancy.get(),
        "Tracked itemset entries currently held";
    Gauge "estimator.occupancy_peak" |r| r.estimator.occupancy.peak(),
        "High-watermark of tracked itemset entries";
    Counter "estimator.merges" |r| r.estimator.merges.get(),
        "Estimators merged into this one";
    Gauge "estimator.mem_bytes" |r| r.estimator.mem_bytes.get(),
        "Bytes of tracked state reserved from the memory budget";
    Gauge "estimator.mem_bytes_peak" |r| r.estimator.mem_bytes.peak(),
        "High-watermark of reserved tracked-state bytes";
    Gauge "estimator.mem_budget" |r| r.estimator.mem_budget.get(),
        "Configured memory-budget ceiling in bytes (0 = unlimited)";
    Counter "estimator.shed_events" |r| r.estimator.shed_events.get(),
        "Slots recycled because the memory budget denied growth";
    Gauge "ingest.shards" |r| r.ingest.shards.get(),
        "Configured worker shard count";
    Counter "ingest.batches_routed" |r| r.ingest.batches_routed.get(),
        "Batches shipped across all ingestion shards";
    Counter "ingest.updates_routed" |r| r.ingest.updates_routed.get(),
        "Pre-hashed pairs shipped inside routed batches";
    Counter "ingest.flushes" |r| r.ingest.flushes.get(),
        "Explicit partial-buffer flushes";
    Counter "ingest.idle_waits" |r| r.ingest.idle_waits.get(),
        "Times a shard worker blocked on an empty queue";
    Counter "view.publishes" |r| r.view.publishes.get(),
        "Read views published";
    Gauge "view.epoch" |r| r.view.epoch.get(),
        "Latest published view epoch";
    Gauge "view.published_tuples" |r| r.view.published_tuples.get(),
        "Tuples applied at the latest published epoch";
    Gauge "view.age_rows" |r| r.view.age_rows.get(),
        "Rows ingested beyond the latest view at publication";
    Counter "view.reads" |r| r.view.reads.get(),
        "Estimates answered from published views";
    Counter "snapshot.encodes" |r| r.snapshot.encodes.get(),
        "Snapshots serialized";
    Counter "snapshot.decodes" |r| r.snapshot.decodes.get(),
        "Snapshots restored";
    Counter "snapshot.bytes_written" |r| r.snapshot.bytes_written.get(),
        "Total serialized snapshot bytes";
    Counter "snapshot.bytes_read" |r| r.snapshot.bytes_read.get(),
        "Total bytes consumed by snapshot restores";
    Counter "snapshot.encode_nanos_count" |r| r.snapshot.encode_nanos.count(),
        "Snapshot encodes timed";
    Counter "snapshot.encode_nanos_sum" |r| r.snapshot.encode_nanos.sum(),
        "Total snapshot encode wall-clock nanoseconds";
    Gauge "snapshot.encode_nanos_p95" |r| r.snapshot.encode_nanos.quantile_bound(0.95),
        "p95 snapshot encode nanoseconds (power-of-two bound)";
    Counter "snapshot.decode_nanos_count" |r| r.snapshot.decode_nanos.count(),
        "Snapshot decodes timed";
    Counter "snapshot.decode_nanos_sum" |r| r.snapshot.decode_nanos.sum(),
        "Total snapshot decode wall-clock nanoseconds";
    Gauge "snapshot.decode_nanos_p95" |r| r.snapshot.decode_nanos.quantile_bound(0.95),
        "p95 snapshot decode nanoseconds (power-of-two bound)";
    Counter "wire.frames_encoded_full" |r| r.wire.frames_encoded_full.get(),
        "Full wire frames encoded for shipping";
    Counter "wire.frames_encoded_delta" |r| r.wire.frames_encoded_delta.get(),
        "Delta wire frames encoded for shipping";
    Counter "wire.bytes_out" |r| r.wire.bytes_out.get(),
        "Encoded wire frame bytes produced";
    Counter "wire.frames_decoded_full" |r| r.wire.frames_decoded_full.get(),
        "Full wire frames applied successfully";
    Counter "wire.frames_decoded_delta" |r| r.wire.frames_decoded_delta.get(),
        "Delta wire frames applied successfully";
    Counter "wire.bytes_in" |r| r.wire.bytes_in.get(),
        "Wire frame bytes consumed by successful applies";
    Counter "wire.decode_errors" |r| r.wire.decode_errors.get(),
        "Wire frames rejected by the decoder (all variants)";
    Counter "wire.resyncs_forced" |r| r.wire.resyncs_forced.get(),
        "Replica resets forcing a full-frame resync";
    Counter "wire.node_id_conflicts" |r| r.wire.node_id_conflicts.get(),
        "Frames rejected for switching node_id mid-connection";
    Counter "wire.err_bad_magic" |r| r.wire.err_bad_magic.get(),
        "Wire rejects: bad magic";
    Counter "wire.err_bad_version" |r| r.wire.err_bad_version.get(),
        "Wire rejects: unsupported version";
    Counter "wire.err_truncated" |r| r.wire.err_truncated.get(),
        "Wire rejects: truncated frame";
    Counter "wire.err_corrupt" |r| r.wire.err_corrupt.get(),
        "Wire rejects: corrupt payload or rank-sum mismatch";
    Counter "wire.err_frame_too_large" |r| r.wire.err_frame_too_large.get(),
        "Wire rejects: declared length above the frame cap";
    Counter "wire.err_budget_exceeded" |r| r.wire.err_budget_exceeded.get(),
        "Wire rejects: decoded state would exceed the budget";
    Counter "wire.err_delta_without_base" |r| r.wire.err_delta_without_base.get(),
        "Wire rejects: delta frame with no base replica";
    Counter "wire.err_base_epoch_mismatch" |r| r.wire.err_base_epoch_mismatch.get(),
        "Wire rejects: delta base epoch mismatch";
    Counter "wire.err_config_mismatch" |r| r.wire.err_config_mismatch.get(),
        "Wire rejects: estimator config mismatch";
];

/// How many rows of [`SERIES`] precede the per-lane series: the lanes
/// follow `ingest.idle_waits`.
const LANES_AFTER: usize = 20;

/// The series of each shard lane in use, named `ingest.shard<K>.<name>`.
const LANE_SERIES: [Row<ShardLane>; 2] = crate::metric_rows![
    Counter "batches" |l| l.batches.get(),
        "Batches shipped to this ingestion shard's worker";
    Gauge "queue_depth_peak" |l| l.queue_depth.peak(),
        "High-watermark of batches in flight to this shard's worker";
];

/// The kind of a Prometheus metric family, written in its `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone total.
    Counter,
    /// A level that can go down between scrapes.
    Gauge,
}

/// The one writer of Prometheus text exposition: appends families and
/// samples to a caller's `String` under `<namespace>_`, with no
/// allocation of its own. Names are flattened as they are written (every
/// character other than an ASCII letter or digit becomes `_`, so
/// `estimator.tuples` is written `estimator_tuples`), and a label value
/// is escaped (`\`, `"` and newline).
///
/// ```
/// use imp_core::metrics::{lint_prometheus, Exposition, Kind};
///
/// let mut text = String::new();
/// let mut w = Exposition::new("ns", &mut text);
/// w.single("up", Kind::Gauge, "Whether the node is up", 1);
/// w.family("frames_total", Kind::Counter, "Frames per node");
/// w.labeled("frames_total", "node", 3, 12);
/// let want = [
///     "# HELP ns_up Whether the node is up",
///     "# TYPE ns_up gauge",
///     "ns_up 1",
///     "# HELP ns_frames_total Frames per node",
///     "# TYPE ns_frames_total counter",
///     "ns_frames_total{node=\"3\"} 12",
/// ];
/// assert_eq!(text, want.map(|line| format!("{line}\n")).concat());
/// assert_eq!(lint_prometheus(&text), Ok(2));
/// ```
pub struct Exposition<'a> {
    namespace: &'a str,
    out: &'a mut String,
}

impl<'a> Exposition<'a> {
    /// A writer appending to `out`, every name prefixed `<namespace>_`.
    pub fn new(namespace: &'a str, out: &'a mut String) -> Self {
        Self { namespace, out }
    }

    /// Writes a family's `# HELP` and `# TYPE` lines.
    pub fn family(&mut self, name: impl fmt::Display, kind: Kind, help: impl fmt::Display) {
        let kind = match kind {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        };
        self.out.push_str("# HELP ");
        self.name(&name);
        let _ = writeln!(self.out, " {help}");
        self.out.push_str("# TYPE ");
        self.name(&name);
        let _ = writeln!(self.out, " {kind}");
    }

    /// Writes one unlabeled sample.
    pub fn sample(&mut self, name: impl fmt::Display, value: impl fmt::Display) {
        self.name(&name);
        let _ = writeln!(self.out, " {value}");
    }

    /// Writes one sample with the single label `key="label"`.
    pub fn labeled(
        &mut self,
        name: impl fmt::Display,
        key: &str,
        label: impl fmt::Display,
        value: impl fmt::Display,
    ) {
        self.name(&name);
        let _ = write!(self.out, "{{{key}=\"");
        let _ = write!(CharMap(self.out, escaped), "{label}");
        let _ = writeln!(self.out, "\"}} {value}");
    }

    /// Writes a family holding one unlabeled sample.
    pub fn single(
        &mut self,
        name: impl fmt::Display,
        kind: Kind,
        help: impl fmt::Display,
        value: impl fmt::Display,
    ) {
        self.family(&name, kind, help);
        self.sample(&name, value);
    }

    fn name(&mut self, name: &dyn fmt::Display) {
        self.out.push_str(self.namespace);
        self.out.push('_');
        let _ = write!(CharMap(self.out, flat), "{name}");
    }
}

/// Appends to a `String`, each character through its function: name
/// flattening ([`flat`]) or label-value escaping ([`escaped`]).
struct CharMap<'a>(&'a mut String, fn(char, &mut String));

impl fmt::Write for CharMap<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        s.chars().for_each(|c| (self.1)(c, self.0));
        Ok(())
    }
}

/// Writes a metric-name character: an ASCII letter or digit as itself,
/// anything else as `_`.
fn flat(c: char, out: &mut String) {
    out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
}

/// Writes a label-value character, escaping `\`, `"` and newline.
fn escaped(c: char, out: &mut String) {
    match c {
        '\\' => out.push_str("\\\\"),
        '"' => out.push_str("\\\""),
        '\n' => out.push_str("\\n"),
        c => out.push(c),
    }
}

/// Validates a Prometheus text-exposition document (the output of
/// [`MetricsRegistry::prometheus`] and the serve binary's `/metrics`):
/// every sample line must be preceded by `# HELP` and `# TYPE` metadata
/// for its metric name, names and label pairs must be well-formed, and
/// values must parse as numbers. Returns the number of sample lines, or
/// a message naming the first violating line.
///
/// Free-form comment lines (anything starting `#` that is not HELP/TYPE)
/// are ignored. Label values are assumed not to contain escaped quotes
/// or commas — true for everything this crate emits (numeric `node="N"`
/// labels), and a deliberate simplification over a full lexer.
pub fn lint_prometheus(text: &str) -> Result<usize, String> {
    use std::collections::HashSet;
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut helped: HashSet<&str> = HashSet::new();
    let mut typed: HashSet<&str> = HashSet::new();
    let mut samples = 0usize;
    for (idx, line) in text.lines().enumerate() {
        let ln = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, help) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {ln}: HELP without help text"))?;
            if !valid_name(name) {
                return Err(format!("line {ln}: bad metric name {name:?}"));
            }
            if help.trim().is_empty() {
                return Err(format!("line {ln}: empty HELP text for {name}"));
            }
            if !helped.insert(name) {
                return Err(format!("line {ln}: duplicate HELP for {name}"));
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest
                .split_once(' ')
                .ok_or_else(|| format!("line {ln}: TYPE without a kind"))?;
            if !valid_name(name) {
                return Err(format!("line {ln}: bad metric name {name:?}"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("line {ln}: unknown TYPE kind {kind:?} for {name}"));
            }
            if !helped.contains(name) {
                return Err(format!("line {ln}: TYPE for {name} precedes its HELP"));
            }
            if !typed.insert(name) {
                return Err(format!("line {ln}: duplicate TYPE for {name}"));
            }
        } else if line.starts_with('#') {
            continue;
        } else {
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {ln}: sample without a value: {line:?}"))?;
            let (name, labels) = match series.split_once('{') {
                Some((n, l)) => (n, Some(l)),
                None => (series, None),
            };
            if !valid_name(name) {
                return Err(format!("line {ln}: bad metric name {name:?}"));
            }
            if let Some(labels) = labels {
                let body = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {ln}: unterminated label set on {name}"))?;
                for pair in body.split(',') {
                    let (key, val) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {ln}: label without '=' on {name}"))?;
                    if !valid_name(key) {
                        return Err(format!("line {ln}: bad label name {key:?} on {name}"));
                    }
                    let inner = val
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .ok_or_else(|| format!("line {ln}: unquoted label value on {name}"))?;
                    if inner.contains('"') {
                        return Err(format!("line {ln}: stray quote in label value on {name}"));
                    }
                }
            }
            if !typed.contains(name) {
                return Err(format!("line {ln}: sample for {name} without a TYPE"));
            }
            if !helped.contains(name) {
                return Err(format!("line {ln}: sample for {name} without a HELP"));
            }
            if !matches!(value, "NaN" | "+Inf" | "-Inf") && value.parse::<f64>().is_err() {
                return Err(format!("line {ln}: bad sample value {value:?} for {name}"));
            }
            samples += 1;
        }
    }
    Ok(samples)
}

/// A cheaply-clonable handle to one [`MetricsRegistry`]. Clones share the
/// registry; `Default`/[`MetricsHandle::new`] allocate a fresh one.
#[derive(Debug, Clone, Default)]
pub struct MetricsHandle {
    inner: Arc<MetricsRegistry>,
}

impl MetricsHandle {
    /// A handle to a fresh, all-zero registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying registry.
    #[inline]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner
    }

    /// Whether two handles share one registry.
    pub fn same_registry(&self, other: &MetricsHandle) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::ops::Deref for MetricsHandle {
    type Target = MetricsRegistry;

    #[inline]
    fn deref(&self) -> &MetricsRegistry {
        self.registry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let g = Gauge::new();
        g.adjust(10);
        g.adjust(-4);
        g.adjust(3);
        assert_eq!(g.get(), 9);
        assert_eq!(g.peak(), 10);
        g.set(100);
        assert_eq!(g.peak(), 100);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_bound(0.5), 0);
        for v in [0u64, 1, 1, 2, 3, 900, 1000, 1100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 3007);
        // p50 falls among the small values, p95 in the ≈1k bucket.
        assert!(h.quantile_bound(0.5) <= 4, "{}", h.quantile_bound(0.5));
        assert_eq!(h.quantile_bound(0.95), 2048);
        assert!(h.mean() > 300.0);
        // A 33-bit value gets its own bucket (bound 2^33), not one
        // shared with everything from 2^30 up.
        h.observe(3 << 31);
        assert_eq!(h.quantile_bound(1.0), 1 << 33);
        h.observe(u64::MAX);
        assert_eq!(h.quantile_bound(1.0), 1 << 63);
    }

    #[test]
    fn quantile_ranks_within_one_bucket_snapshot() {
        // The window a concurrent `observe` opens: the observation is
        // counted but its bucket is not yet bumped. The quantile must
        // still land in a real bucket, not past the last one.
        let h = Histogram::new();
        h.observe(1000);
        h.count.inc();
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_bound(1.0), 1024);
        assert_eq!(log2_quantile_bound(&[0, 1, 0], 1.0), 2);
    }

    #[test]
    fn histogram_is_one_word_per_bucket_plus_count_and_sum() {
        let size = std::mem::size_of::<Histogram>();
        assert_eq!(size, (HISTOGRAM_BUCKETS + 2) * 8);
    }

    #[test]
    fn handle_clones_share_fresh_handles_dont() {
        let a = MetricsHandle::new();
        let b = a.clone();
        let c = MetricsHandle::new();
        assert!(a.same_registry(&b));
        a.estimator.tuples.inc();
        assert_eq!(b.estimator.tuples.get(), 1);
        assert_eq!(c.estimator.tuples.get(), 0);
        assert!(!a.same_registry(&c));
    }

    #[test]
    fn record_routes_outcome_fields() {
        let m = EstimatorMetrics::new();
        m.record(&UpdateOutcome {
            dirty: Some(DirtyReason::Confidence),
            committed: true,
            evictions: 3,
            certified: true,
            entries_delta: -2,
            budget_sheds: 2,
        });
        m.record(&UpdateOutcome {
            dirty: Some(DirtyReason::Multiplicity),
            entries_delta: 5,
            ..UpdateOutcome::default()
        });
        assert_eq!(m.tuples.get(), 2);
        assert_eq!(m.dirty_confidence.get(), 1);
        assert_eq!(m.dirty_multiplicity.get(), 1);
        assert_eq!(m.dirty_total(), 2);
        assert_eq!(m.cells_committed.get(), 1);
        assert_eq!(m.fringe_evictions.get(), 3);
        assert_eq!(m.support_certified.get(), 1);
        assert_eq!(m.occupancy.get(), 3); // −2 then +5
        assert_eq!(m.shed_events.get(), 2);
    }

    #[test]
    fn samples_and_renderings_agree() {
        let reg = MetricsRegistry::new();
        reg.estimator.tuples.add(7);
        let samples = reg.samples();
        assert!(samples
            .iter()
            .any(|(n, v)| n == "estimator.tuples" && *v == 7));
        assert!(reg.report().contains("estimator.tuples"));
        assert!(reg
            .line_protocol("implicate")
            .starts_with("implicate estimator.tuples=7i,"));
    }

    #[test]
    fn prometheus_exposition_covers_every_sample_with_types() {
        let reg = MetricsRegistry::new();
        reg.estimator.tuples.add(41);
        reg.estimator.occupancy.set(9);
        let text = reg.prometheus("implicate");
        for (name, value) in reg.samples() {
            let flat: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            assert!(
                text.contains(&format!("\nimplicate_{flat} {value}\n"))
                    || text.starts_with(&format!("# TYPE implicate_{flat} ")),
                "missing sample {name}: {text}"
            );
        }
        assert!(text.contains("# TYPE implicate_estimator_tuples counter"));
        assert!(text.contains("# TYPE implicate_estimator_zone1_skips counter"));
        assert!(text.contains("# TYPE implicate_estimator_occupancy gauge"));
        assert!(text.contains("# TYPE implicate_estimator_occupancy_peak gauge"));
        assert!(text.contains("# TYPE implicate_ingest_shards gauge"));
        assert!(text.contains("# TYPE implicate_snapshot_encode_nanos_p95 gauge"));
        assert!(text.contains("# TYPE implicate_wire_decode_errors counter"));
        // Every series carries HELP metadata, and the whole document
        // satisfies the in-tree exposition linter.
        for (name, _) in reg.samples() {
            let flat: String = name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            assert!(
                text.contains(&format!("# HELP implicate_{flat} ")),
                "missing HELP for {name}"
            );
        }
        let n = lint_prometheus(&text).expect("exposition lints clean");
        assert_eq!(n, reg.samples().len());
    }

    #[test]
    fn wire_metrics_route_errors_per_variant() {
        use crate::wire::WireError;
        let w = WireMetrics::new();
        w.record_error(&WireError::BadMagic);
        w.record_error(&WireError::Corrupt("rank sums"));
        w.record_error(&WireError::Corrupt("bitmap blob"));
        w.record_error(&WireError::BaseEpochMismatch {
            declared: 3,
            have: 5,
        });
        assert_eq!(w.decode_errors.get(), 4);
        assert_eq!(w.err_bad_magic.get(), 1);
        assert_eq!(w.err_corrupt.get(), 2);
        assert_eq!(w.err_base_epoch_mismatch.get(), 1);
        assert_eq!(w.err_truncated.get(), 0);
    }

    #[test]
    fn lint_accepts_labeled_series_and_rejects_malformed_documents() {
        let good = "# HELP ns_node_frames_total Frames per node\n\
                    # TYPE ns_node_frames_total counter\n\
                    ns_node_frames_total{node=\"0\"} 12\n\
                    ns_node_frames_total{node=\"1\"} 7\n\
                    # free-form comment\n\
                    # HELP ns_up Up flag\n\
                    # TYPE ns_up gauge\n\
                    ns_up 1\n";
        assert_eq!(lint_prometheus(good), Ok(3));

        // A sample with no preceding TYPE.
        let e = lint_prometheus("# HELP ns_x x\nns_x 1\n").unwrap_err();
        assert!(e.contains("without a TYPE"), "{e}");
        // TYPE before HELP violates the emission convention.
        let e = lint_prometheus("# TYPE ns_x counter\nns_x 1\n").unwrap_err();
        assert!(e.contains("precedes its HELP"), "{e}");
        // Unquoted label value.
        let bad = "# HELP ns_x x\n# TYPE ns_x counter\nns_x{node=3} 1\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("unquoted"));
        // Garbage value.
        let bad = "# HELP ns_x x\n# TYPE ns_x counter\nns_x pony\n";
        assert!(lint_prometheus(bad)
            .unwrap_err()
            .contains("bad sample value"));
        // Unknown kind.
        let bad = "# HELP ns_x x\n# TYPE ns_x teapot\nns_x 1\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("unknown TYPE"));
    }

    #[test]
    fn lanes_fold_beyond_capacity() {
        let i = IngestMetrics::new();
        i.lane(0).batches.inc();
        i.lane(LANES).batches.inc(); // folds onto lane 0
        assert_eq!(i.lane(0).batches.get(), 2);
    }

    #[test]
    fn every_table_series_is_in_the_design_glossary() {
        let design = include_str!("../../../DESIGN.md");
        for row in &SERIES {
            assert!(design.contains(&format!("`{}`", row.name)), "{}", row.name);
        }
        for row in &LANE_SERIES {
            let name = format!("`ingest.shardK.{}`", row.name);
            assert!(design.contains(&name), "{name}");
        }
    }

    #[test]
    fn table_names_are_unique_and_lanes_follow_the_ingest_rows() {
        let mut names: Vec<&str> = SERIES.iter().map(|row| row.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SERIES.len());
        assert!(SERIES[LANES_AFTER - 1].name.starts_with("ingest."));
        assert!(!SERIES[LANES_AFTER].name.starts_with("ingest."));
    }

    #[test]
    fn exposition_flattens_names_and_escapes_label_values() {
        let mut text = String::new();
        let mut w = Exposition::new("ns", &mut text);
        w.family("a.b-c", Kind::Counter, "Help with \"quotes\"");
        w.labeled("a.b-c", "query", "x\"y\\z\nw", 1.5);
        w.sample(format_args!("lane{}.depth", 3), 0);
        assert_eq!(
            text,
            "# HELP ns_a_b_c Help with \"quotes\"\n\
             # TYPE ns_a_b_c counter\n\
             ns_a_b_c{query=\"x\\\"y\\\\z\\nw\"} 1.5\n\
             ns_lane3_depth 0\n"
        );
    }
}
