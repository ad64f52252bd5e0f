//! Sharded parallel ingestion with a bit-exact sequential contract.
//!
//! A [`ShardedEstimator`] spreads one estimator's ingestion work over `T`
//! worker threads while guaranteeing that the final state — estimates
//! *and* snapshot bytes — is identical to single-threaded execution, for
//! any `T`.
//!
//! # Why partitioning the bitmap index space is exact
//!
//! Every update touches exactly one of the `m` stochastic-averaging
//! bitmaps: `update_hashed(h_a, b_fp)` routes to bitmap
//! `idx = h_a mod m` and modifies no other bitmap. The estimator's state
//! is therefore a product of `m` independent per-bitmap states, and each
//! bitmap's final state is a function of the *subsequence* of updates
//! routed to it, in stream order.
//!
//! Sharding by bitmap index (`shard = idx % T`) sends every update for a
//! given bitmap to the same worker, over a FIFO queue, in the order the
//! coordinator observed the stream. Each worker therefore replays, for
//! each bitmap it owns, exactly the subsequence a sequential run would
//! have applied — same updates, same order. Contrast with splitting the
//! *raw stream* across workers, which interleaves updates to one bitmap
//! across threads and loses that order.
//!
//! # The handoff: whole batches, recycled buffers
//!
//! Shards run on the crate's lane runtime, as
//! [`ShardedCatalog`](crate::ShardedCatalog)'s lanes do: one worker per
//! lane behind a bounded blocking queue, one lock per batch, and at most
//! [`LANE_DEPTH`] batches in flight per lane. The router buffers each
//! shard's pairs in its own `Vec` and ships it down that shard's lane; the
//! runtime moves it into a pooled buffer no lane still holds and leaves
//! that buffer's allocation in its place, for the router to clear and
//! refill. The pool is seeded with full-size buffers, so even the first
//! ships allocate nothing.
//!
//! Reassembly is merge-based: shards are merged into a fresh estimator.
//! Because each bitmap carries non-trivial state on exactly one shard,
//! every [`NipsBitmap::merge`](crate::NipsBitmap::merge) either ignores a
//! pristine source or adopts a bitmap into a pristine target — both are
//! verbatim state transfers, so the merge's usual order-blindness caveat
//! never applies. See DESIGN.md ("Sharded parallel ingestion") for the
//! full argument.
//!
//! # Memory budgets under sharding
//!
//! All shards share the source estimator's
//! [`MemoryBudget`](crate::MemoryBudget), so the configured ceiling bounds
//! the *pipeline's* tracked bytes, not each shard's. The cap itself is
//! race-free (reservations are CAS-checked), but *which* slots get shed
//! under pressure depends on which shard's arena hits the denied growth
//! first — so a budget-constrained run under `T > 1` stays within the
//! ceiling yet is not bit-identical to the sequential run. The bit-exact
//! contract above is for unconstrained budgets (the default); keep
//! `--threads 1` when a budget is set and reproducibility matters.
//!
//! # Example
//!
//! ```
//! use imp_core::{EstimatorConfig, ImplicationConditions, ShardedEstimator};
//!
//! let cond = ImplicationConditions::strict_one_to_one(1);
//! let mut sharded =
//!     ShardedEstimator::new(EstimatorConfig::new(cond).seed(7).build(), 4);
//! for a in 0..10_000u64 {
//!     sharded.update(&[a], &[a % 97]);
//! }
//! let est = sharded.finish();
//!
//! let mut seq = EstimatorConfig::new(cond).seed(7).build();
//! for a in 0..10_000u64 {
//!     seq.update(&[a], &[a % 97]);
//! }
//! assert_eq!(est.estimate_now(), seq.estimate_now());
//! assert_eq!(est.to_bytes(), seq.to_bytes());
//! ```
//!
//! For wait-free mid-stream estimates while the lanes keep ingesting,
//! publish views ([`ShardedEstimator::publish`]) and read them through
//! [`ShardedEstimator::reader`]; see [`crate::view`] for the protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use imp_sketch::hash::{Hasher64, MixHasher};
use imp_sketch::rank::split_rank;

use crate::estimator::ImplicationEstimator;
pub use crate::lane::LANE_DEPTH;
use crate::lane::{LaneWorker, Lanes};
use crate::metrics::MetricsHandle;
use crate::trace::{Span, SpanKind, TraceEvent, TraceHandle};
use crate::view::{pack_ranks, EstimateReader, ReadView, ViewPublisher};

/// Pre-hashed pairs buffered per shard before a batch is shipped.
const BATCH: usize = 1024;

/// A cheap, copyable pre-hasher matching an estimator's internal hash
/// functions, for pipelines that parse and hash on different threads than
/// the one feeding the [`ShardedEstimator`].
#[derive(Debug, Clone, Copy)]
pub struct PairHasher {
    hasher_a: MixHasher,
    hasher_b: MixHasher,
}

impl PairHasher {
    pub(crate) fn from_hashers(hasher_a: MixHasher, hasher_b: MixHasher) -> Self {
        Self { hasher_a, hasher_b }
    }

    /// Hashes an `(a, b)` pair exactly as
    /// [`ImplicationEstimator::update`] would, producing arguments for
    /// [`ShardedEstimator::update_hashed`].
    #[inline]
    pub fn hash_pair(&self, a: &[u64], b: &[u64]) -> (u64, u64) {
        (self.hasher_a.hash_slice(a), self.hasher_b.hash_slice(b))
    }
}

/// The lock-free register table workers refresh after every applied
/// batch, letting the router publish read views without barriering the
/// lanes. Each bitmap's packed rank word is owned by exactly one worker
/// (the bitmap-partitioning invariant), so stores never race; `Release`
/// stores pair with the router's `Acquire` loads so an assembled view
/// sees each bitmap at one of its batch boundaries.
#[derive(Debug)]
struct SharedRegisters {
    /// One packed `(rank_f0_sup, rank_non_implication)` word per bitmap.
    ranks: Box<[AtomicU64]>,
    /// Pre-hashed pairs *applied* (drained and updated) across all
    /// shards — trails the routed count by the in-flight backlog.
    applied: AtomicU64,
    /// Tracked entries per shard (each worker stores its own slot).
    entries: Box<[AtomicU64]>,
}

impl SharedRegisters {
    /// Captures `base`'s current per-bitmap registers, with entry counts
    /// pre-assigned to the shard that will own each bitmap.
    fn capture(base: &ImplicationEstimator, threads: usize) -> Self {
        let mut entries = vec![0u64; threads];
        for (i, bm) in base.bitmaps().iter().enumerate() {
            entries[i % threads] += bm.entries() as u64;
        }
        Self {
            ranks: base
                .bitmaps()
                .iter()
                .map(|bm| AtomicU64::new(pack_ranks(bm.rank_f0_sup(), bm.rank_non_implication())))
                .collect(),
            applied: AtomicU64::new(base.tuples_seen()),
            entries: entries.into_iter().map(AtomicU64::new).collect(),
        }
    }

    /// Worker `k` refreshes the registers of the bitmaps it owns after
    /// applying a batch of `applied` pairs.
    fn refresh(&self, shard: &ImplicationEstimator, k: usize, applied: u64) {
        let threads = self.entries.len();
        for (i, bm) in shard.bitmaps().iter().enumerate().skip(k).step_by(threads) {
            self.ranks[i].store(
                pack_ranks(bm.rank_f0_sup(), bm.rank_non_implication()),
                Ordering::Release,
            );
        }
        // Non-owned bitmaps of this shard are pristine, so the shard's
        // entry count is exactly its owned bitmaps' count.
        self.entries[k].store(shard.entries() as u64, Ordering::Release);
        self.applied.fetch_add(applied, Ordering::Release);
    }
}

/// One bitmap lane's worker: shard `k`, which applies the batches routed
/// to the bitmaps it owns.
#[derive(Debug)]
struct Shard {
    est: ImplicationEstimator,
    k: usize,
    registers: Arc<SharedRegisters>,
}

impl LaneWorker for Shard {
    type Batch = Vec<(u64, u64)>;

    fn apply(&mut self, batch: &Vec<(u64, u64)>) {
        self.est
            .metrics()
            .ingest
            .lane(self.k)
            .queue_depth
            .adjust(-1);
        self.est.update_hashed_batch(batch);
        // Expose the owned bitmaps' new read-off state at this batch
        // boundary, so the router can publish views without a barrier.
        self.registers
            .refresh(&self.est, self.k, batch.len() as u64);
    }

    fn idle(&self) {
        self.est.metrics().ingest.idle_waits.inc();
    }
}

/// A `T`-way sharded ingestion front-end for an [`ImplicationEstimator`].
///
/// Construction consumes a base estimator (fresh or restored from a
/// snapshot) and splits its state across `T` worker shards by bitmap
/// index; updates are routed to the owning shard over bounded blocking
/// queues;
/// [`ShardedEstimator::finish`] joins the workers and reassembles a
/// single estimator whose state is bit-for-bit identical to feeding the
/// same updates sequentially into the base (see the module docs for the
/// argument).
#[derive(Debug)]
pub struct ShardedEstimator {
    /// A stateless estimator of the same configuration, sharing the
    /// base's metrics registry, trace journal and budget: the hashers,
    /// routing and read-off context, and the chassis `finish` merges the
    /// shards into.
    template: ImplicationEstimator,
    /// One lane per shard (see [`crate::lane`]).
    lanes: Lanes<Shard>,
    pending: Vec<Vec<(u64, u64)>>,
    /// Pre-hashed updates routed by this session, reported by its ingest
    /// span (`ingest.updates_routed` also counts every other pipeline
    /// sharing the registry).
    routed: u64,
    /// Brackets the whole session, construction → `finish`.
    ingest_span: Span,
    /// Lock-free per-bitmap registers the workers refresh after every
    /// applied batch — what [`ShardedEstimator::publish`] assembles views
    /// from without barriering the lanes.
    registers: Arc<SharedRegisters>,
    /// Tuples the base estimator carried at construction (snapshot
    /// resume).
    preloaded: u64,
    /// The view-publication channel (created lazily, or inherited from a
    /// base writer that already had readers).
    publisher: Option<ViewPublisher>,
}

impl ShardedEstimator {
    /// Splits `base` into `threads >= 1` worker shards and starts their
    /// ingestion threads. `base` may carry state restored from a snapshot;
    /// resuming sharded is exactly as exact as resuming sequentially.
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(mut base: ImplicationEstimator, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one ingestion shard");
        let publisher = base.take_publisher();
        base.metrics().ingest.shards.set(threads as u64);
        let ingest_span = base.trace().span(SpanKind::Ingest);
        let template = base.fresh_like();
        let registers = Arc::new(SharedRegisters::capture(&base, threads));
        let preloaded = base.tuples_seen();
        let workers = base.split_shards(threads).into_iter().enumerate();
        let workers = workers.map(|(k, est)| Shard {
            est,
            k,
            registers: Arc::clone(&registers),
        });
        // The pool is born at working size, so the first ships swap in a
        // full-capacity buffer instead of growing one on the hot path.
        let seed = || Vec::with_capacity(BATCH);
        Self {
            template,
            lanes: Lanes::spawn(workers, "ingestion worker", "ingest-lane", seed),
            pending: vec![Vec::with_capacity(BATCH); threads],
            routed: 0,
            ingest_span,
            registers,
            preloaded,
            publisher,
        }
    }

    /// The observability registry shared with the base estimator, its
    /// shards, and the reassembled result (see [`crate::metrics`]).
    pub fn metrics(&self) -> &MetricsHandle {
        self.template.metrics()
    }

    /// The structured-tracing handle shared with the base estimator, its
    /// shards, and the reassembled result (see [`crate::trace`]).
    pub fn trace(&self) -> &TraceHandle {
        self.template.trace()
    }

    /// Ships shard `shard`'s pending buffer to its lane, maintaining the
    /// routing counters and the in-flight queue-depth gauge; the lane
    /// runtime leaves a pooled buffer in its place, cleared here for the
    /// shard's next pairs.
    fn ship(&mut self, shard: usize) {
        let batch = &mut self.pending[shard];
        let m = &self.template.metrics().ingest;
        m.batches_routed.inc();
        m.updates_routed.add(batch.len() as u64);
        let lane = m.lane(shard);
        lane.batches.inc();
        lane.queue_depth.adjust(1);
        self.routed += batch.len() as u64;
        self.template.trace().record(|| TraceEvent::ShardHandoff {
            shard: shard as u32,
            updates: batch.len() as u32,
        });
        self.lanes.send(shard, batch);
        batch.clear();
    }

    /// Number of worker shards.
    pub fn threads(&self) -> usize {
        self.lanes.len()
    }

    /// A copyable hasher matching this pipeline's internal hash functions.
    pub fn pair_hasher(&self) -> PairHasher {
        self.template.pair_hasher()
    }

    /// Routes one `(a, b)` pair (value-slice form, as in
    /// [`ImplicationEstimator::update`]).
    pub fn update(&mut self, a: &[u64], b: &[u64]) {
        let (h_a, b_fp) = self.template.hash_pair(a, b);
        self.update_hashed(h_a, b_fp);
    }

    /// Routes one pre-hashed pair (see
    /// [`ImplicationEstimator::update_hashed`] for the hashing contract;
    /// [`PairHasher`] produces conforming pairs).
    #[inline]
    pub fn update_hashed(&mut self, h_a: u64, b_fp: u64) {
        let (idx, _) = split_rank(h_a, self.template.log2_m());
        let shard = idx % self.lanes.len();
        self.pending[shard].push((h_a, b_fp));
        if self.pending[shard].len() >= BATCH {
            self.ship(shard);
        }
    }

    /// Routes a batch of pre-hashed pairs, in order.
    pub fn update_hashed_batch(&mut self, pairs: &[(u64, u64)]) {
        for &(h_a, b_fp) in pairs {
            self.update_hashed(h_a, b_fp);
        }
    }

    /// Ships all partially-filled per-shard buffers to their workers.
    /// Called automatically by [`ShardedEstimator::finish`]; useful on its
    /// own only to bound buffering latency.
    pub fn flush(&mut self) {
        self.template.metrics().ingest.flushes.inc();
        for shard in 0..self.pending.len() {
            if !self.pending[shard].is_empty() {
                self.ship(shard);
            }
        }
    }

    /// Flushes every buffer and blocks until **all** workers have applied
    /// everything routed so far. After `barrier` returns, the shared
    /// metrics registry (and trace journal) reflect the complete stream
    /// prefix, and a [`publish`](ShardedEstimator::publish) captures a
    /// view bit-identical to the sequential run over the routed prefix.
    /// This stalls every lane — use it for quiesce points (checkpoints,
    /// final read-offs), **not** for routine mid-stream estimates; those
    /// should read the published view through
    /// [`reader`](ShardedEstimator::reader).
    ///
    /// # Panics
    /// If a worker thread exited early.
    pub fn barrier(&mut self) {
        self.flush();
        self.lanes.barrier();
    }

    /// Publishes a read view assembled from the workers' lock-free
    /// registers — **without** barriering the lanes — and returns its
    /// epoch. Each bitmap's registers are captured at one of its owning
    /// worker's batch boundaries; batches still in flight are not yet
    /// reflected (the lag is exported as the `view.age_rows` gauge).
    /// After a [`barrier`](ShardedEstimator::barrier), a publish is
    /// bit-identical to the sequential read-off over the routed prefix.
    pub fn publish(&mut self) -> u64 {
        let (view, rows) = (self.assemble_view(), self.position());
        let (metrics, trace) = (self.template.metrics(), self.template.trace());
        ViewPublisher::publish_into(&mut self.publisher, view, rows, metrics, trace)
    }

    /// A wait-free read handle answering estimates from the latest
    /// published view while the lanes keep ingesting (see
    /// [`crate::view`]); the counterpart of
    /// [`ImplicationEstimator::reader`]. Readers created here keep
    /// working — and keep receiving epochs — after
    /// [`finish`](ShardedEstimator::finish) hands the channel to the
    /// reassembled writer.
    pub fn reader(&mut self) -> EstimateReader {
        if self.publisher.is_none() {
            self.publish();
        }
        self.publisher.as_ref().expect("publisher created").reader()
    }

    /// Rows accepted by the router that the lanes have not yet applied
    /// (shipped batches in flight plus pairs still buffered here). A
    /// publisher that wants fully-settled views can keep republishing
    /// until this reaches zero instead of paying for a barrier.
    pub fn backlog(&self) -> u64 {
        self.position() - self.registers.applied.load(Ordering::Acquire)
    }

    /// The router's stream position. It includes pairs still buffered
    /// here, so `view.age_rows` and [`backlog`](Self::backlog) report the
    /// full backlog a barrier would drain, not just what has shipped.
    fn position(&self) -> u64 {
        let buffered: u64 = self.pending.iter().map(|b| b.len() as u64).sum();
        self.preloaded + self.routed + buffered
    }

    /// Assembles an unpublished view from the shared registers.
    fn assemble_view(&self) -> ReadView {
        let ranks = self
            .registers
            .ranks
            .iter()
            .map(|r| r.load(Ordering::Acquire))
            .collect();
        let entries = self
            .registers
            .entries
            .iter()
            .map(|e| e.load(Ordering::Acquire))
            .sum();
        ReadView::from_parts(
            self.registers.applied.load(Ordering::Acquire),
            entries,
            self.template.memory_budget().used() as u64,
            *self.template.conditions(),
            ranks,
        )
    }

    /// Flushes, joins the workers, and reassembles the single merged
    /// estimator — bit-for-bit the state a sequential run over the same
    /// updates would have produced.
    ///
    /// # Panics
    /// If a worker thread panicked.
    pub fn finish(mut self) -> ImplicationEstimator {
        self.flush();
        self.ingest_span.set_quantity(self.routed);
        let Self {
            template,
            lanes,
            ingest_span,
            publisher,
            ..
        } = self;
        let mut out = template;
        for shard in lanes.finish() {
            out.merge(&shard.est);
        }
        // The session span covers reassembly too.
        drop(ingest_span);
        // Hand the publication channel to the reassembled writer and push
        // the fully-merged state, so existing readers advance to the final
        // (sequential-identical) epoch instead of going stale.
        if let Some(publisher) = publisher {
            out.adopt_publisher(publisher);
            out.publish();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::ImplicationConditions;
    use crate::estimator::{EstimatorConfig, Fringe};

    fn cond() -> ImplicationConditions {
        ImplicationConditions::one_to_c(2, 0.9, 2)
    }

    fn config() -> EstimatorConfig {
        EstimatorConfig::new(cond()).bitmaps(64).seed(11)
    }

    /// A mixed workload: skewed repeats, violations, and one-shot tail.
    fn pairs(n: u64) -> impl Iterator<Item = (u64, u64)> {
        (0..n).map(|i| {
            let a = if i % 3 == 0 { i % 50 } else { i };
            let b = if i % 7 == 0 { i % 5 } else { a % 11 };
            (a, b)
        })
    }

    fn sequential(n: u64) -> ImplicationEstimator {
        let mut est = config().build();
        for (a, b) in pairs(n) {
            est.update(&[a], &[b]);
        }
        est
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let seq = sequential(50_000);
        for threads in [1, 2, 3, 4, 8] {
            let mut sharded = ShardedEstimator::new(config().build(), threads);
            for (a, b) in pairs(50_000) {
                sharded.update(&[a], &[b]);
            }
            let est = sharded.finish();
            assert_eq!(est.estimate_now(), seq.estimate_now(), "T = {threads}");
            assert_eq!(est.tuples_seen(), seq.tuples_seen(), "T = {threads}");
            assert_eq!(est.to_bytes(), seq.to_bytes(), "T = {threads}");
        }
    }

    #[test]
    fn unbounded_fringe_matches_too() {
        let cfg = EstimatorConfig::new(cond())
            .bitmaps(32)
            .fringe(Fringe::Unbounded)
            .seed(3);
        let mut seq = cfg.build();
        let mut sharded = ShardedEstimator::new(cfg.build(), 4);
        for (a, b) in pairs(20_000) {
            seq.update(&[a], &[b]);
            sharded.update(&[a], &[b]);
        }
        let est = sharded.finish();
        assert_eq!(est.to_bytes(), seq.to_bytes());
    }

    #[test]
    fn resume_from_snapshot_is_exact() {
        // Sequential prefix → snapshot → sharded suffix must equal the
        // fully sequential run, byte for byte.
        let seq = sequential(30_000);
        let mut prefix = config().build();
        for (a, b) in pairs(30_000).take(17_000) {
            prefix.update(&[a], &[b]);
        }
        let restored = ImplicationEstimator::from_bytes(prefix.to_bytes()).expect("roundtrip");
        let mut sharded = ShardedEstimator::new(restored, 4);
        for (a, b) in pairs(30_000).skip(17_000) {
            sharded.update(&[a], &[b]);
        }
        let est = sharded.finish();
        assert_eq!(est.to_bytes(), seq.to_bytes());
    }

    #[test]
    fn batch_and_hashed_entry_points_agree() {
        let mut seq = config().build();
        let hashed: Vec<(u64, u64)> = pairs(9_000)
            .map(|(a, b)| seq.hash_pair(&[a], &[b]))
            .collect();
        seq.update_hashed_batch(&hashed);

        let mut sharded = ShardedEstimator::new(config().build(), 3);
        sharded.update_hashed_batch(&hashed[..4_000]);
        for &(h_a, b_fp) in &hashed[4_000..] {
            sharded.update_hashed(h_a, b_fp);
        }
        assert_eq!(sharded.finish().to_bytes(), seq.to_bytes());
    }

    #[test]
    fn more_threads_than_bitmaps_is_fine() {
        let cfg = EstimatorConfig::new(cond()).bitmaps(4).seed(5);
        let mut seq = cfg.build();
        let mut sharded = ShardedEstimator::new(cfg.build(), 9);
        for (a, b) in pairs(5_000) {
            seq.update(&[a], &[b]);
            sharded.update(&[a], &[b]);
        }
        assert_eq!(sharded.finish().to_bytes(), seq.to_bytes());
    }

    #[test]
    fn flush_mid_stream_changes_nothing() {
        let mut seq = config().build();
        let mut sharded = ShardedEstimator::new(config().build(), 2);
        for (i, (a, b)) in pairs(10_000).enumerate() {
            seq.update(&[a], &[b]);
            sharded.update(&[a], &[b]);
            if i % 1_111 == 0 {
                sharded.flush();
            }
        }
        assert_eq!(sharded.finish().to_bytes(), seq.to_bytes());
    }

    #[test]
    #[should_panic(expected = "at least one ingestion shard")]
    fn zero_threads_rejected() {
        let _ = ShardedEstimator::new(config().build(), 0);
    }

    #[test]
    fn barrier_makes_shared_registry_reflect_every_routed_update() {
        // Without the barrier, a mid-stream metrics read sees only the
        // batches workers happened to have drained — the partial-count bug
        // behind the old `--threads N --stats-interval` output.
        let mut sharded = ShardedEstimator::new(config().build(), 3);
        for (a, b) in pairs(10_000) {
            sharded.update(&[a], &[b]);
        }
        sharded.barrier();
        assert_eq!(sharded.metrics().estimator.tuples.get(), 10_000);
        // The barrier must not disturb the bit-exact contract.
        let est = sharded.finish();
        assert_eq!(est.tuples_seen(), 10_000);
    }

    #[test]
    fn repeated_barrier_is_idempotent_and_cheap() {
        let mut sharded = ShardedEstimator::new(config().build(), 2);
        for (a, b) in pairs(3_000) {
            sharded.update(&[a], &[b]);
            if a % 500 == 0 {
                sharded.barrier();
            }
        }
        sharded.barrier();
        sharded.barrier();
        assert_eq!(sharded.finish().tuples_seen(), 3_000);
    }

    #[test]
    fn publish_after_barrier_matches_sequential_bit_for_bit() {
        let mut seq = config().build();
        let mut sharded = ShardedEstimator::new(config().build(), 4);
        let reader = sharded.reader();
        let mut published = 0;
        for (i, (a, b)) in pairs(20_000).enumerate() {
            seq.update(&[a], &[b]);
            sharded.update(&[a], &[b]);
            if i % 4_096 == 0 {
                sharded.barrier();
                let epoch = sharded.publish();
                assert!(epoch >= published, "epochs are monotone");
                published = epoch;
                // At a quiesce point the published view must read off
                // exactly what the sequential run would.
                assert_eq!(reader.estimate(), seq.estimate_now(), "row {i}");
                assert_eq!(reader.tuples(), seq.tuples_seen(), "row {i}");
            }
        }
        assert_eq!(sharded.finish().to_bytes(), seq.to_bytes());
    }

    #[test]
    fn mid_stream_publish_without_barrier_is_a_valid_prefix_read() {
        // No barrier: the view reflects only applied batches, so tuples
        // must never exceed what was routed, and the estimate must be
        // finite and well-formed.
        let mut sharded = ShardedEstimator::new(config().build(), 3);
        let reader = sharded.reader();
        for (i, (a, b)) in pairs(30_000).enumerate() {
            sharded.update(&[a], &[b]);
            if i % 7_000 == 0 {
                sharded.publish();
                let view = reader.estimate();
                assert!(reader.tuples() <= (i as u64) + 1);
                assert!(view.implication_count.is_finite());
            }
        }
        let est = sharded.finish();
        assert_eq!(est.tuples_seen(), 30_000);
    }

    #[test]
    fn first_publish_counts_the_routed_backlog_in_its_age() {
        // The first publish creates the channel; its age gauge must still
        // count rows routed but not yet applied by the lanes.
        let mut sharded = ShardedEstimator::new(config().build(), 2);
        for (a, b) in pairs(5_000) {
            sharded.update(&[a], &[b]);
        }
        sharded.publish();
        let view = &sharded.metrics().view;
        assert_eq!(view.published_tuples.get() + view.age_rows.get(), 5_000);
        let _ = sharded.finish();
    }

    #[test]
    fn readers_follow_the_channel_across_finish() {
        let mut sharded = ShardedEstimator::new(config().build(), 2);
        let reader = sharded.reader();
        for (a, b) in pairs(10_000) {
            sharded.update(&[a], &[b]);
        }
        let mut est = sharded.finish();
        // finish() publishes the merged state on the inherited channel, so
        // the pre-finish reader sees the final, sequential-identical view.
        assert_eq!(reader.tuples(), 10_000);
        assert_eq!(reader.estimate(), est.estimate_now());
        // And the reassembled writer keeps publishing to the same readers.
        est.update(&[1_000_001], &[3]);
        est.publish();
        assert_eq!(reader.tuples(), 10_001);
    }

    #[test]
    fn sharding_inherits_an_existing_publication_channel() {
        let mut base = config().build();
        for (a, b) in pairs(4_000) {
            base.update(&[a], &[b]);
        }
        let reader = base.reader();
        let before = reader.epoch();
        let mut sharded = ShardedEstimator::new(base, 2);
        for (a, b) in pairs(4_000) {
            sharded.update(&[a], &[b]);
        }
        sharded.barrier();
        let epoch = sharded.publish();
        assert!(epoch > before, "inherited channel keeps advancing epochs");
        assert_eq!(reader.tuples(), 8_000);
        assert_eq!(sharded.finish().tuples_seen(), 8_000);
    }

    #[test]
    fn shards_journal_handoffs_into_the_shared_journal() {
        use crate::trace::{SpanKind, TraceEvent, TraceHandle};
        let mut base = config().build();
        base.set_trace(TraceHandle::with_capacity(1 << 14));
        let trace = base.trace().clone();
        let mut sharded = ShardedEstimator::new(base, 2);
        assert!(trace.same_journal(sharded.trace()));
        for (a, b) in pairs(5_000) {
            sharded.update(&[a], &[b]);
        }
        let est = sharded.finish();
        assert!(
            trace.same_journal(est.trace()),
            "reassembled estimator must keep the pipeline's journal"
        );
        let events = trace.journal().expect("active journal").events();
        let handoffs = events
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::ShardHandoff { .. }))
            .count();
        assert!(handoffs >= 2, "final flush ships one batch per shard");
        assert!(
            events.iter().any(|e| matches!(
                e.event,
                TraceEvent::SpanClosed {
                    kind: SpanKind::Ingest,
                    ..
                }
            )),
            "finish() must close the session-long ingest span"
        );
    }
}
