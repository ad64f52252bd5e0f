//! Wait-free concurrent reads: epoch-published read views of an
//! estimator's CI read-off state.
//!
//! # The problem
//!
//! [`ImplicationEstimator::estimate`](crate::ImplicationEstimator::estimate_now)
//! walks the live bitmaps, so it needs exclusive access; under sharded
//! ingestion a mid-stream read needed a full
//! [`barrier`](crate::ShardedEstimator::barrier), stalling every lane. But
//! the CI read-off itself needs only the per-bitmap rank registers
//! (`R` of §4.4) plus the tuple counter — a few hundred bytes. This module
//! publishes exactly that as an immutable [`ReadView`] under a
//! monotonically increasing *epoch*, so any number of [`EstimateReader`]s
//! on any threads answer estimates from the latest published view while
//! the single writer (or the sharded pipeline) keeps ingesting.
//!
//! # The publication protocol
//!
//! The shared state is one `AtomicU64` epoch plus a small ring of
//! [`RwLock`]`<`[`Arc`]`<ReadView>>` slots; epoch `e` lives in slot
//! `e % SLOTS`.
//!
//! * **Writer** (unique, `&mut`): build the next view, store it into
//!   `slots[(e+1) % SLOTS]` under the write lock, *then* store the epoch
//!   with `Release`.
//! * **Reader**: load the epoch with `Acquire`; if it matches the
//!   reader-local cached view, answer from the cache — the steady-state
//!   read is **one atomic load and no stores**, wait-free. On an epoch
//!   change, clone the `Arc` out of the slot under the read lock and
//!   cache it.
//!
//! The `Release` epoch store happens after the slot write-lock is
//! released, so a reader that observes epoch `e` (`Acquire`) sees the
//! completed slot write for `e` (happens-before through the epoch), and
//! the slot lock is then free. The only contention window is a reader
//! refreshing the *same* slot the writer is concurrently overwriting —
//! which holds epoch `e + SLOTS`, i.e. the writer has lapped the ring
//! while the reader was between its epoch load and its lock; the reader
//! then briefly blocks and comes back with the *newer* view. Views are
//! therefore monotone per reader. The full memory-ordering argument is in
//! DESIGN.md §8.5.
//!
//! # Bit-identical reads
//!
//! A published view stores the per-bitmap rank registers verbatim, and
//! [`ReadView::estimate`] runs the same expansion
//! ([`estimate_from_rank_sums`](crate::estimator)) over them that the
//! owner-side read-off runs over the live bitmaps — so a concurrent
//! reader at epoch `e` returns estimates bit-identical to a sequential
//! `estimate_now()` at the moment `e` was published.
//!
//! ```
//! use imp_core::{EstimatorConfig, ImplicationConditions};
//!
//! let cond = ImplicationConditions::strict_one_to_one(1);
//! let mut est = EstimatorConfig::new(cond).build();
//! let reader = est.reader(); // cheap Clone + Send: one per thread
//! for a in 0..10_000u64 {
//!     est.update(&[a], &[a % 3]);
//!     if a % 1024 == 0 {
//!         est.publish(); // writer decides the epoch cadence
//!     }
//! }
//! est.publish();
//! // A reader (usually on another thread) answers wait-free:
//! assert_eq!(reader.estimate(), est.estimate_now());
//! assert_eq!(reader.tuples(), 10_000);
//! ```

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::conditions::ImplicationConditions;
use crate::estimator::{estimate_from_rank_sums, Estimate};
use crate::metrics::MetricsHandle;
use crate::trace::{TraceEvent, TraceHandle};

/// Slots in the publication ring. A reader refreshing view `e` can only
/// contend with the writer once the writer has already published
/// `SLOTS − 1` further epochs — deep enough that in practice the read
/// lock is uncontended.
const SLOTS: usize = 8;

/// Packs a bitmap's two read-off registers into one word
/// (`rank_f0_sup` high, `rank_non_implication` low).
#[inline]
pub(crate) fn pack_ranks(sup: u32, non: u32) -> u64 {
    ((sup as u64) << 32) | non as u64
}

/// Inverse of [`pack_ranks`].
#[inline]
pub(crate) fn unpack_ranks(packed: u64) -> (u32, u32) {
    ((packed >> 32) as u32, packed as u32)
}

/// An immutable, published snapshot of everything the CI read-off needs:
/// the per-bitmap rank registers and the stream counters.
///
/// Obtained from an [`EstimateReader`]; see the module docs for the
/// publication protocol.
#[derive(Debug, Clone)]
pub struct ReadView {
    epoch: u64,
    tuples: u64,
    entries: u64,
    tracked_bytes: u64,
    cond: ImplicationConditions,
    /// One packed `(rank_f0_sup, rank_non_implication)` word per bitmap,
    /// in bitmap order (see [`pack_ranks`]). Shared with the next view
    /// when the writer's registers have not moved since (see
    /// [`ImplicationEstimator::publish`](crate::ImplicationEstimator::publish)).
    ranks: Arc<[u64]>,
}

impl ReadView {
    pub(crate) fn from_parts(
        tuples: u64,
        entries: u64,
        tracked_bytes: u64,
        cond: ImplicationConditions,
        ranks: Arc<[u64]>,
    ) -> Self {
        Self {
            epoch: 0,
            tuples,
            entries,
            tracked_bytes,
            cond,
            ranks,
        }
    }

    /// The publication epoch of this view (0 = the initial view captured
    /// when the first reader or publish call created the channel).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tuples the writer had ingested when this view was published.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Tracked itemset entries at publication (the §6.2 memory metric).
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Bytes of tracked state at publication.
    pub fn tracked_bytes(&self) -> u64 {
        self.tracked_bytes
    }

    /// The conditions under estimation.
    pub fn conditions(&self) -> &ImplicationConditions {
        &self.cond
    }

    /// The CI estimate at this view's epoch — the same f64 operations,
    /// in the same order, as the owner-side read-off, so the result is
    /// bit-identical to `estimate_now()` at publication time.
    pub fn estimate(&self) -> Estimate {
        let m = self.ranks.len() as f64;
        let (mut sum_sup, mut sum_non) = (0u32, 0u32);
        for &packed in self.ranks.iter() {
            let (sup, non) = unpack_ranks(packed);
            sum_sup += sup;
            sum_non += non;
        }
        estimate_from_rank_sums(sum_sup, sum_non, m)
    }

    /// The packed rank registers, one word per bitmap.
    pub(crate) fn ranks(&self) -> &Arc<[u64]> {
        &self.ranks
    }
}

/// The state shared between one writer and its readers.
#[derive(Debug)]
struct SharedViews {
    /// Latest published epoch; epoch `e` lives in `slots[e % SLOTS]`.
    epoch: AtomicU64,
    slots: [RwLock<Arc<ReadView>>; SLOTS],
}

/// The single-writer publication handle, owned by the estimator (or the
/// sharded pipeline). Deliberately not `Clone`: one channel has exactly
/// one publisher, which is what makes the slot ring race-free.
#[derive(Debug)]
pub(crate) struct ViewPublisher {
    shared: Arc<SharedViews>,
    /// The view published last, which the writer may reuse parts of.
    latest: Arc<ReadView>,
    metrics: MetricsHandle,
    trace: TraceHandle,
}

impl ViewPublisher {
    /// Publishes `view` on the channel in `slot` and returns its epoch,
    /// first creating the channel, with `view` as epoch 0, if there is
    /// none yet — the one publish path of the estimator and the sharded
    /// pipeline.
    pub(crate) fn publish_into(
        slot: &mut Option<Self>,
        view: ReadView,
        stream_rows: u64,
        metrics: &MetricsHandle,
        trace: &TraceHandle,
    ) -> u64 {
        match slot {
            Some(publisher) => publisher.publish(view, stream_rows),
            None => {
                *slot = Some(Self::new(view, stream_rows, metrics.clone(), trace.clone()));
                0
            }
        }
    }

    /// Creates the channel with `initial` as epoch 0; `stream_rows` is
    /// the writer's position, as in [`publish`](Self::publish).
    fn new(
        initial: ReadView,
        stream_rows: u64,
        metrics: MetricsHandle,
        trace: TraceHandle,
    ) -> Self {
        let mut view = initial;
        view.epoch = 0;
        let view = Arc::new(view);
        let publisher = Self {
            shared: Arc::new(SharedViews {
                epoch: AtomicU64::new(0),
                slots: std::array::from_fn(|_| RwLock::new(Arc::clone(&view))),
            }),
            latest: view,
            metrics,
            trace,
        };
        publisher.record(stream_rows);
        publisher
    }

    /// Publishes `view` as the next epoch and returns that epoch.
    /// `stream_rows` is the writer's current position (rows routed /
    /// ingested), used for the `view.age_rows` staleness gauge — for a
    /// sequential writer it equals `view.tuples()`; for the sharded
    /// pipeline it is the routed count, so the gauge exposes the
    /// in-flight backlog a barrier would have drained.
    pub(crate) fn publish(&mut self, view: ReadView, stream_rows: u64) -> u64 {
        let epoch = self.shared.epoch.load(Ordering::Relaxed) + 1;
        let mut view = view;
        view.epoch = epoch;
        let view = Arc::new(view);
        {
            let mut slot = self.shared.slots[epoch as usize % SLOTS]
                .write()
                .expect("view slot poisoned");
            *slot = Arc::clone(&view);
        }
        // Release-publish the epoch *after* the slot write: a reader that
        // Acquire-loads this epoch therefore sees the completed slot.
        self.shared.epoch.store(epoch, Ordering::Release);
        self.latest = view;
        self.record(stream_rows);
        epoch
    }

    /// The view published last.
    pub(crate) fn latest(&self) -> &ReadView {
        &self.latest
    }

    fn record(&self, stream_rows: u64) {
        let view = &self.latest;
        let m = &self.metrics.view;
        m.publishes.inc();
        m.epoch.set(view.epoch);
        m.published_tuples.set(view.tuples);
        m.age_rows.set(stream_rows.saturating_sub(view.tuples));
        let (epoch, position) = (view.epoch, view.tuples);
        self.trace
            .record(|| TraceEvent::ViewPublished { epoch, position });
    }

    /// A new reader against this channel, starting on the latest view.
    pub(crate) fn reader(&self) -> EstimateReader {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        let cached = self.shared.slots[epoch as usize % SLOTS]
            .read()
            .expect("view slot poisoned")
            .clone();
        EstimateReader {
            shared: Arc::clone(&self.shared),
            cached: RefCell::new(cached),
            metrics: self.metrics.clone(),
        }
    }

    /// The latest published epoch.
    pub(crate) fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }
}

/// The read half of the writer/reader API split: answers estimates from
/// the latest *published* [`ReadView`], wait-free in the steady state,
/// while the writer keeps ingesting on its own thread.
///
/// Cheap to [`Clone`] and [`Send`] (an `Arc` plus a cached view); it is
/// deliberately **not** `Sync` — clone one reader per thread instead of
/// sharing one behind a reference, so the per-reader view cache never
/// needs synchronization. Readers are *monotone*: the observed epoch
/// never decreases.
///
/// Obtained from [`ImplicationEstimator::reader`](crate::ImplicationEstimator::reader)
/// or [`ShardedEstimator::reader`](crate::ShardedEstimator::reader).
#[derive(Debug, Clone)]
pub struct EstimateReader {
    shared: Arc<SharedViews>,
    /// The reader-local cache making the steady-state read one atomic
    /// load. `RefCell`, not a lock: the reader is `!Sync` by design.
    cached: RefCell<Arc<ReadView>>,
    metrics: MetricsHandle,
}

impl EstimateReader {
    /// The latest published view. Wait-free when the epoch has not moved
    /// since the last call; on an epoch change, briefly takes the slot's
    /// read lock to refresh the local cache (uncontended unless the
    /// writer has lapped the whole `SLOTS`-deep ring in the meantime).
    pub fn view(&self) -> Arc<ReadView> {
        self.metrics.view.reads.inc();
        let published = self.shared.epoch.load(Ordering::Acquire);
        let mut cached = self.cached.borrow_mut();
        if cached.epoch != published {
            // The slot may already hold a *later* epoch than the one we
            // loaded (the writer moved on) — that is fine and keeps the
            // reader monotone; it can never hold an earlier one.
            let fresh = self.shared.slots[published as usize % SLOTS]
                .read()
                .expect("view slot poisoned")
                .clone();
            if fresh.epoch > cached.epoch {
                *cached = fresh;
            }
        }
        Arc::clone(&cached)
    }

    /// The CI estimate at the latest published epoch — bit-identical to
    /// the writer's `estimate_now()` at the moment that epoch was
    /// published.
    pub fn estimate(&self) -> Estimate {
        self.view().estimate()
    }

    /// `F0^sup` at the latest published epoch (the support read-off).
    pub fn support(&self) -> f64 {
        self.view().estimate().f0_sup
    }

    /// The latest published epoch this reader can observe right now.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Tuples the writer had ingested at the latest published epoch.
    pub fn tuples(&self) -> u64 {
        self.view().tuples()
    }

    /// The conditions under estimation.
    pub fn conditions(&self) -> ImplicationConditions {
        *self.view().conditions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EstimatorConfig;
    use crate::ImplicationEstimator;

    fn cond() -> ImplicationConditions {
        ImplicationConditions::strict_one_to_one(1)
    }

    #[test]
    fn pack_unpack_round_trips() {
        for (sup, non) in [(0, 0), (1, 2), (u32::MAX, 0), (7, u32::MAX)] {
            assert_eq!(unpack_ranks(pack_ranks(sup, non)), (sup, non));
        }
    }

    #[test]
    fn initial_view_is_epoch_zero_and_empty() {
        let mut est = EstimatorConfig::new(cond()).build();
        let reader = est.reader();
        assert_eq!(reader.epoch(), 0);
        let e = reader.estimate();
        assert_eq!(e.implication_count, 0.0);
        assert_eq!(reader.tuples(), 0);
    }

    #[test]
    fn published_views_are_bit_identical_to_owner_readoffs() {
        let mut est = EstimatorConfig::new(cond()).seed(9).build();
        let reader = est.reader();
        for a in 0..5_000u64 {
            est.update(&[a], &[a % 7]);
            if a % 997 == 0 {
                let at_publish = est.estimate_now();
                est.publish();
                assert_eq!(reader.estimate(), at_publish);
                assert_eq!(reader.tuples(), a + 1);
            }
        }
    }

    #[test]
    fn readers_only_see_published_epochs() {
        let mut est = EstimatorConfig::new(cond()).build();
        let reader = est.reader();
        for a in 0..100u64 {
            est.update(&[a], &[a]);
        }
        // Nothing published since the reader was created: still epoch 0.
        assert_eq!(reader.tuples(), 0);
        est.publish();
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.tuples(), 100);
    }

    #[test]
    fn epochs_are_monotone_across_ring_laps() {
        let mut est = EstimatorConfig::new(cond()).build();
        let reader = est.reader();
        let mut last = 0;
        for round in 0..(3 * SLOTS as u64) {
            est.update(&[round], &[round]);
            let epoch = est.publish();
            assert_eq!(epoch, round + 1);
            let seen = reader.view().epoch();
            assert!(seen >= last, "reader went backwards: {seen} < {last}");
            last = seen;
        }
        assert_eq!(reader.epoch(), 3 * SLOTS as u64);
    }

    #[test]
    fn cloned_readers_are_independent_and_send() {
        let mut est = EstimatorConfig::new(cond()).build();
        for a in 0..1_000u64 {
            est.update(&[a], &[1]);
        }
        est.publish();
        let reader = est.reader();
        let expected = est.estimate_now();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = reader.clone();
                std::thread::spawn(move || r.estimate())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("reader thread"), expected);
        }
    }

    #[test]
    fn concurrent_reads_during_ingest_always_match_some_published_prefix() {
        // The tentpole invariant, exercised under real concurrency: every
        // estimate a reader returns equals the writer's own read-off at
        // one of the published epochs.
        let mut est = EstimatorConfig::new(cond()).seed(3).build();
        let reader = est.reader();
        let stop = Arc::new(AtomicU64::new(0));
        let mut published: Vec<(u64, Estimate)> = vec![(0, est.estimate_now())];
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..3)
                .map(|_| {
                    let r = reader.clone();
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || {
                        let mut seen = Vec::new();
                        while stop.load(Ordering::Acquire) == 0 {
                            let view = r.view();
                            seen.push((view.epoch(), view.estimate()));
                        }
                        seen
                    })
                })
                .collect();
            for a in 0..20_000u64 {
                est.update(&[a], &[a % 13]);
                if a % 512 == 0 {
                    let snapshot = est.estimate_now();
                    let epoch = est.publish();
                    published.push((epoch, snapshot));
                }
            }
            stop.store(1, Ordering::Release);
            for t in threads {
                for (epoch, estimate) in t.join().expect("reader thread") {
                    let want = published
                        .iter()
                        .find(|(e, _)| *e == epoch)
                        .unwrap_or_else(|| panic!("reader saw unpublished epoch {epoch}"));
                    assert_eq!(estimate, want.1, "epoch {epoch}");
                }
            }
        });
    }

    /// Publishes `est` and checks that `reader` now answers exactly what
    /// the writer reads off itself.
    fn publish_and_check(est: &mut ImplicationEstimator, reader: &EstimateReader) {
        est.publish();
        let view = reader.view();
        assert_eq!(view.estimate(), est.estimate_now());
        assert_eq!(view.tuples(), est.tuples_seen());
        assert_eq!(view.entries(), est.entries() as u64);
        assert_eq!(view.tracked_bytes(), est.tracked_bytes() as u64);
    }

    /// Publishes `est` twice with nothing in between: the second view
    /// must share the first one's rank words.
    fn assert_republish_reuses(est: &mut ImplicationEstimator, reader: &EstimateReader) {
        publish_and_check(est, reader);
        let first = reader.view();
        publish_and_check(est, reader);
        let second = reader.view();
        assert_eq!(second.epoch(), first.epoch() + 1);
        assert!(Arc::ptr_eq(first.ranks(), second.ranks()), "ranks re-read");
    }

    #[test]
    fn every_mutator_republishes_fresh_and_a_quiet_publish_reuses() {
        let config = EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.8, 3))
            .bitmaps(16)
            .seed(5);
        // Keys repeat every 900 rows, so cells fill up and turn 1.
        let pairs = |est: &ImplicationEstimator, range: std::ops::Range<u64>| {
            range
                .map(|a| est.hash_pair(&[a % 900], &[a % 11]))
                .collect::<Vec<_>>()
        };
        let mut est = config.build();
        let reader = est.reader();
        assert_republish_reuses(&mut est, &reader);

        let batch = pairs(&est, 0..3_000);
        est.update_hashed_batch(&batch);
        assert_republish_reuses(&mut est, &reader);

        // A batch every row of which the Zone-1 filter drops moves only
        // the tuple counter.
        let decided: Vec<_> = batch
            .iter()
            .copied()
            .filter(|&(h_a, _)| est.zone1().decided(h_a))
            .collect();
        assert!(!decided.is_empty());
        est.update_hashed_batch(&decided);
        let before = reader.view();
        publish_and_check(&mut est, &reader);
        assert!(Arc::ptr_eq(before.ranks(), reader.view().ranks()));

        let mut other = config.build();
        other.update_hashed_batch(&pairs(&other, 5_000..9_000));
        est.merge(&other);
        assert_republish_reuses(&mut est, &reader);

        let mut donor = config.build();
        donor.update_hashed_batch(&pairs(&donor, 20_000..21_000));
        est.adopt_state(donor);
        assert_republish_reuses(&mut est, &reader);

        let mut restored = ImplicationEstimator::from_bytes(est.to_bytes()).expect("restores");
        let restored_reader = restored.reader();
        assert_republish_reuses(&mut restored, &restored_reader);

        // Re-arming a tight budget, then growing under it, sheds.
        restored.set_memory_budget(Some(restored.tracked_bytes()));
        assert_republish_reuses(&mut restored, &restored_reader);
        let fresh_keys: Vec<_> = (0..10_000u64)
            .map(|a| restored.hash_pair(&[a + 1_000_000], &[a % 11]))
            .collect();
        restored.update_hashed_batch(&fresh_keys);
        let sheds = restored.metrics().estimator.shed_events.get();
        assert!(sheds > 0, "the budget must shed");
        assert_republish_reuses(&mut restored, &restored_reader);

        // A full publication always captures fresh.
        let before = restored_reader.view();
        restored.publish_full();
        let full = restored_reader.view();
        assert!(!Arc::ptr_eq(before.ranks(), full.ranks()));
        assert_eq!(full.ranks(), before.ranks());
    }

    #[test]
    fn view_metrics_track_publication() {
        let mut est = EstimatorConfig::new(cond()).build();
        let reader = est.reader();
        for a in 0..500u64 {
            est.update(&[a], &[a]);
        }
        est.publish();
        let _ = reader.estimate();
        let m = est.metrics();
        assert_eq!(m.view.epoch.get(), 1);
        assert_eq!(m.view.published_tuples.get(), 500);
        assert_eq!(m.view.age_rows.get(), 0);
        assert!(m.view.publishes.get() >= 2); // epoch 0 + publish()
        assert!(m.view.reads.get() >= 1);
    }
}
