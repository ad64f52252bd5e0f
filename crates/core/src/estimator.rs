//! The production implication-count estimator: `m`-way stochastic averaging
//! over [`NipsBitmap`]s (§6.1 uses `m = 64` bitmaps for ≈10% error).
//!
//! Each itemset `a` is routed to bitmap `hash(a) mod m` by the low bits of
//! its hash; the remaining bits supply the FM rank. Both CI read-offs are
//! averaged across bitmaps and expanded with the PCSA estimator
//!
//! ```text
//! n̂ = m/φ · (2^R̄ − 2^(−κ·R̄)),   φ ≈ 0.77351, κ = 1.75
//! ```
//!
//! (the `2^(−κ·R̄)` term is Flajolet–Martin's correction for the initial
//! nonlinear region, which matters for the paper's smallest workloads,
//! `‖A‖ = 100` split over 64 bitmaps). The implication count is the
//! difference of the two expansions, never negative.

use std::sync::Arc;
use std::time::Instant;

use imp_sketch::estimate::FM_PHI;
use imp_sketch::hash::{Hasher64, MixHasher};
use imp_sketch::rank::split_rank;

use crate::arena::CellArena;
use crate::budget::{CapacityPolicy, MemoryBudget};
use crate::conditions::ImplicationConditions;
use crate::metrics::MetricsHandle;
use crate::nips::{NipsBitmap, CELLS};
use crate::trace::{SpanKind, TraceHandle};
use crate::view::{pack_ranks, EstimateReader, ReadView, ViewPublisher};

/// Exponent of the small-range correction term.
const KAPPA: f64 = 1.75;

/// The result of querying an [`ImplicationEstimator`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// `F0^sup(A)` — distinct itemsets of `A` meeting the support condition.
    pub f0_sup: f64,
    /// `S̄` — the non-implication count.
    pub non_implication_count: f64,
    /// `S = max(0, F0^sup − S̄)` — the implication count (§4.4).
    pub implication_count: f64,
}

/// Fringe configuration of an estimator (§4.3).
///
/// ```
/// use imp_core::Fringe;
///
/// // The constrained algorithm: 4 fringe cells per bitmap (the paper's
/// // default). Memory stays flat no matter how long the stream runs.
/// let constrained = Fringe::Bounded(4);
/// assert_eq!(constrained.size(), Some(4));
///
/// // The accuracy yard-stick: cells keep full state until a decision.
/// let yardstick = Fringe::Unbounded;
/// assert_eq!(yardstick.size(), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fringe {
    /// A bounded fringe of the given size in cells — the constrained
    /// algorithm proper (the paper uses 4).
    Bounded(u32),
    /// The unbounded-fringe accuracy yard-stick with `O(F0)` memory (the
    /// "Unbounded Fringe" series of Figures 4–6).
    Unbounded,
}

impl Fringe {
    /// The bounded size in cells, or `None` for [`Fringe::Unbounded`].
    pub fn size(self) -> Option<u32> {
        match self {
            Fringe::Bounded(f) => Some(f),
            Fringe::Unbounded => None,
        }
    }
}

/// What two estimators must share for one to merge into the other: the
/// conditions, the bitmap count and the hash seeds (fringes may differ).
/// Wire decoders and checkpoint restores compare it.
#[derive(Debug, Clone, Copy)]
pub struct MergeKey {
    pub(crate) cond: ImplicationConditions,
    pub(crate) bitmaps: usize,
    /// The two hashers' pre-mixed seeds.
    pub(crate) seeds: (u64, u64),
}

impl MergeKey {
    /// The first field in which `other` differs from this key
    /// (`"conditions"`, `"bitmap count"` or `"hash seeds"`), or `None`
    /// when estimators with the two keys can merge.
    pub fn mismatch(&self, other: &MergeKey) -> Option<&'static str> {
        [
            (self.cond != other.cond, "conditions"),
            (self.bitmaps != other.bitmaps, "bitmap count"),
            (self.seeds != other.seeds, "hash seeds"),
        ]
        .into_iter()
        .find_map(|(differs, field)| differs.then_some(field))
    }
}

/// The two hash functions of an estimator built with `seed`.
fn seeded_hashers(seed: u64) -> (MixHasher, MixHasher) {
    (
        MixHasher::new(seed ^ 0xa11c_e0de),
        MixHasher::new(seed ^ 0x00b0_bca7),
    )
}

/// Builder-style construction for [`ImplicationEstimator`].
///
/// Defaults follow the paper's §6.1 configuration: 64 bitmaps, a bounded
/// fringe of 4 cells, seed 42. Every knob is optional:
///
/// ```
/// use imp_core::{EstimatorConfig, Fringe, ImplicationConditions};
///
/// let cond = ImplicationConditions::strict_one_to_one(1);
/// let est = EstimatorConfig::new(cond)
///     .bitmaps(64)
///     .fringe(Fringe::Bounded(4))
///     .seed(42)
///     .build();
/// assert_eq!(est.bitmap_count(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    cond: ImplicationConditions,
    bitmaps: usize,
    fringe: Fringe,
    seed: u64,
    memory_budget: Option<usize>,
}

impl EstimatorConfig {
    /// Starts a configuration for the given conditions with the paper's
    /// §6.1 defaults (64 bitmaps, `Fringe::Bounded(4)`, seed 42, no
    /// memory budget).
    pub fn new(cond: ImplicationConditions) -> Self {
        Self {
            cond,
            bitmaps: 64,
            fringe: Fringe::Bounded(4),
            seed: 42,
            memory_budget: None,
        }
    }

    /// Sets the number of stochastic-averaging bitmaps `m` (must be a
    /// power of two; checked in [`EstimatorConfig::build`]).
    #[must_use]
    pub fn bitmaps(mut self, m: usize) -> Self {
        self.bitmaps = m;
        self
    }

    /// Sets the fringe configuration.
    #[must_use]
    pub fn fringe(mut self, fringe: Fringe) -> Self {
        self.fringe = fringe;
        self
    }

    /// Sets the hash seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps the bytes of tracked state (the cell arenas of all `m`
    /// bitmaps plus their support side-fringes) at an enforced hard
    /// limit. Under pressure the estimator sheds its weakest tracked
    /// itemsets instead of allocating — estimates degrade conservatively
    /// while memory stays put. Without this knob the accounting still
    /// runs ([`ImplicationEstimator::tracked_bytes`] stays exact) but
    /// nothing is refused.
    ///
    /// ```
    /// use imp_core::{EstimatorConfig, ImplicationConditions};
    ///
    /// let cond = ImplicationConditions::strict_one_to_one(1);
    /// let mut est = EstimatorConfig::new(cond)
    ///     .memory_budget(4 << 20) // 4 MiB, enforced
    ///     .build();
    /// for a in 0..100_000u64 {
    ///     est.update(&[a], &[a % 3]);
    /// }
    /// assert!(est.tracked_bytes() <= 4 << 20);
    /// ```
    #[must_use]
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// The configured memory budget in bytes, if any.
    pub fn memory_budget_limit(&self) -> Option<usize> {
        self.memory_budget
    }

    /// The construction floor in bytes — the smallest memory budget this
    /// configuration can be built under (`m` bitmaps × two initial arena
    /// tables each). [`Self::build`] panics on enforced budgets below
    /// this; front ends should validate against it first.
    pub fn construction_floor(&self) -> usize {
        let per_bitmap = CellArena::initial_bytes(self.cond.max_multiplicity as usize)
            + CellArena::initial_bytes(0);
        self.bitmaps * per_bitmap
    }

    /// Replaces the conditions (for engines that re-target a template
    /// configuration at a query's conditions).
    #[must_use]
    pub fn conditions(mut self, cond: ImplicationConditions) -> Self {
        self.cond = cond;
        self
    }

    /// The configured conditions.
    pub fn conditions_ref(&self) -> &ImplicationConditions {
        &self.cond
    }

    /// The configured bitmap count.
    pub fn bitmap_count(&self) -> usize {
        self.bitmaps
    }

    /// The configured fringe.
    pub fn fringe_config(&self) -> Fringe {
        self.fringe
    }

    /// The configured hash seed.
    pub fn hash_seed(&self) -> u64 {
        self.seed
    }

    /// The [`MergeKey`] of every estimator this configuration builds.
    pub fn merge_key(&self) -> MergeKey {
        let (a, b) = seeded_hashers(self.seed);
        MergeKey {
            cond: self.cond,
            bitmaps: self.bitmaps,
            seeds: (a.seed(), b.seed()),
        }
    }

    /// Builds the estimator.
    ///
    /// # Panics
    /// If the bitmap count is not a power of two, or if the memory budget
    /// is below the construction floor (`m` bitmaps × two initial arena
    /// tables each) — a budget the estimator could never fit inside is a
    /// configuration error, not a pressure condition.
    pub fn build(self) -> ImplicationEstimator {
        self.build_as(false)
    }

    /// [`build`](Self::build), support-only if `support_only` (the
    /// per-query constructor's choice, see
    /// [`ImplicationQuery::estimator`](crate::query::ImplicationQuery::estimator)).
    pub(crate) fn build_as(self, support_only: bool) -> ImplicationEstimator {
        let budget = match self.memory_budget {
            None => MemoryBudget::unlimited(),
            Some(limit) => {
                let floor = self.construction_floor();
                assert!(
                    limit >= floor,
                    "memory budget of {limit} bytes is below the construction floor of \
                     {floor} bytes ({m} bitmaps × 2 initial arena tables each)",
                    m = self.bitmaps,
                );
                MemoryBudget::with_limit(limit)
            }
        };
        self.build_on(budget, support_only)
    }

    /// Builds the estimator on an **externally owned** (typically shared)
    /// budget account, ignoring [`memory_budget`](Self::memory_budget) —
    /// the catalog path, where many per-query estimators draw from one
    /// global [`MemoryBudget`]. The caller is responsible for checking
    /// headroom against [`construction_floor`](Self::construction_floor)
    /// first; construction itself reserves via the shared account.
    pub(crate) fn build_on(self, budget: MemoryBudget, support_only: bool) -> ImplicationEstimator {
        ImplicationEstimator::build(
            self.cond,
            self.bitmaps,
            self.fringe.size(),
            self.seed,
            budget,
            support_only,
        )
    }
}

/// Stochastic-averaged NIPS/CI estimator — the crate's main entry point,
/// and the *writer* half of the writer/reader API split: mutation stays
/// here, while wait-free concurrent reads go through
/// [`reader`](ImplicationEstimator::reader) (see [`crate::view`]).
#[derive(Debug)]
pub struct ImplicationEstimator {
    cond: ImplicationConditions,
    bitmaps: Vec<NipsBitmap>,
    log2_m: u32,
    hasher_a: MixHasher,
    hasher_b: MixHasher,
    tuples: u64,
    /// The shared memory account every bitmap arena draws from. Clones
    /// and ingestion shards share it, so [`MemoryBudget::used`] is the
    /// pipeline-wide tracked-state footprint.
    budget: MemoryBudget,
    /// Shared observability registry (see [`crate::metrics`]). Clones of
    /// this estimator — including ingestion shards — share it.
    metrics: MetricsHandle,
    /// Shared structured-tracing handle (see [`crate::trace`]); disabled
    /// until a journal is attached with
    /// [`set_trace`](ImplicationEstimator::set_trace).
    trace: TraceHandle,
    /// The single-writer publication channel behind
    /// [`reader`](ImplicationEstimator::reader) /
    /// [`publish`](ImplicationEstimator::publish); created lazily by the
    /// first of those calls.
    publisher: Option<ViewPublisher>,
    /// The Zone-1 mirror: word `i` is a copy of bitmap `i`'s `ones`, so
    /// batch paths can drop rows routed to decided cells without loading
    /// the bitmap (see [`Zone1`]). It only ever holds a **subset** of the
    /// real `ones`; empty means stale, and the next batch rebuilds it.
    zone1: Vec<u64>,
    /// Whether this estimator keeps only the `F0^sup` side-fringe, as a
    /// query whose implication side is vacuous does (see
    /// [`ImplicationQuery::estimator`](crate::query::ImplicationQuery::estimator)).
    /// Its updates never touch a NIPS arena, no cell of it ever turns 1,
    /// and its Zone-1 mirror holds `ones | certified`: an arrival in a
    /// certified cell changes nothing either.
    support_only: bool,
    /// Whether a rank register or the entry count may have moved since
    /// the last publish. While it is clear, a publish reuses the last
    /// view's rank words instead of re-reading every bitmap.
    moved: bool,
}

/// A read-only view of an estimator's Zone-1 mirror, for the batch
/// paths' filter: a row whose `(bitmap, cell)` bit is set here is
/// already recorded (paper §4.3, Zone 1), so updating it would change
/// nothing and it can be skipped before it costs anything.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Zone1<'a> {
    words: &'a [u64],
    log2_m: u32,
}

impl<'a> Zone1<'a> {
    /// A filter over mirror words routed by `log2_m` — e.g. the AND of
    /// several estimators' mirrors, which has a cell at 1 only where
    /// every one of them does.
    pub(crate) fn new(words: &'a [u64], log2_m: u32) -> Self {
        Self { words, log2_m }
    }

    /// Whether the row with lhs hash `h_a` lands in a cell the mirror
    /// knows to be 1.
    #[inline]
    pub(crate) fn decided(self, h_a: u64) -> bool {
        let (idx, rank) = split_rank(h_a, self.log2_m);
        is_set(self.words, idx, rank)
    }

    /// ANDs this mirror into `mask`, or copies it there if `mask` is
    /// empty.
    pub(crate) fn and_into(self, mask: &mut Vec<u64>) {
        if mask.is_empty() {
            mask.extend_from_slice(self.words);
        } else {
            for (m, &w) in mask.iter_mut().zip(self.words) {
                *m &= w;
            }
        }
    }
}

/// Whether the mirror has cell `rank` (clamped like
/// [`NipsBitmap::update`] clamps it) of bitmap `idx` at 1.
#[inline]
fn is_set(zone1: &[u64], idx: usize, rank: u32) -> bool {
    zone1[idx] >> rank.min(CELLS - 1) & 1 == 1
}

impl Clone for ImplicationEstimator {
    /// Clones the sketch state. The clone is an independent *writer*: it
    /// shares the metrics registry, trace journal and memory account (as
    /// documented on those fields) but **not** the view-publication
    /// channel — readers obtained from the original keep following the
    /// original, and the clone starts with no readers, preserving the
    /// one-writer-per-channel invariant.
    fn clone(&self) -> Self {
        Self {
            cond: self.cond,
            bitmaps: self.bitmaps.clone(),
            log2_m: self.log2_m,
            hasher_a: self.hasher_a,
            hasher_b: self.hasher_b,
            tuples: self.tuples,
            budget: self.budget.clone(),
            metrics: self.metrics.clone(),
            trace: self.trace.clone(),
            publisher: None,
            zone1: Vec::new(),
            support_only: self.support_only,
            moved: true,
        }
    }
}

impl ImplicationEstimator {
    fn build(
        cond: ImplicationConditions,
        m: usize,
        fringe: Option<u32>,
        seed: u64,
        budget: MemoryBudget,
        support_only: bool,
    ) -> Self {
        assert!(m.is_power_of_two(), "bitmap count must be a power of two");
        let policy = match fringe {
            Some(f) => {
                assert!(
                    (1..=crate::nips::CELLS).contains(&f),
                    "fringe size must be in 1..=64"
                );
                CapacityPolicy::bounded(f, 2)
            }
            None => CapacityPolicy::unbounded(),
        };
        let bitmaps = (0..m)
            .map(|_| NipsBitmap::build_with(cond, policy, &budget))
            .collect();
        let (hasher_a, hasher_b) = seeded_hashers(seed);
        let est = Self {
            cond,
            bitmaps,
            log2_m: m.trailing_zeros(),
            hasher_a,
            hasher_b,
            tuples: 0,
            budget,
            metrics: MetricsHandle::new(),
            trace: TraceHandle::disabled(),
            publisher: None,
            zone1: Vec::new(),
            support_only,
            moved: true,
        };
        est.publish_mem_gauges();
        est
    }

    /// Pushes the budget gauges (`mem_bytes`, `mem_budget`) into the
    /// metrics registry; `mem_budget` reports 0 when unlimited.
    fn publish_mem_gauges(&self) {
        let m = &self.metrics.estimator;
        m.mem_bytes.set(self.budget.used() as u64);
        m.mem_budget.set(if self.budget.is_limited() {
            self.budget.limit() as u64
        } else {
            0
        });
    }

    /// The observability registry this estimator records into. Cheap to
    /// clone; clones (and estimator clones, and ingestion shards) share
    /// the underlying counters. See [`crate::metrics`].
    pub fn metrics(&self) -> &MetricsHandle {
        &self.metrics
    }

    /// Replaces the observability registry — e.g. to aggregate several
    /// independently-built estimators into one report, or to isolate one
    /// estimator's counters after cloning.
    pub fn set_metrics(&mut self, metrics: MetricsHandle) {
        self.metrics = metrics;
    }

    /// The structured-tracing handle this estimator journals into —
    /// disabled by default (see [`crate::trace`]). Cheap to clone; clones
    /// and ingestion shards share the journal.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Attaches (or detaches, with [`TraceHandle::disabled`]) the event
    /// journal this estimator records into.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The conditions under estimation.
    pub fn conditions(&self) -> &ImplicationConditions {
        &self.cond
    }

    /// Number of bitmaps `m`.
    pub fn bitmap_count(&self) -> usize {
        self.bitmaps.len()
    }

    /// Tuples processed so far (`T` of §3.1).
    pub fn tuples_seen(&self) -> u64 {
        self.tuples
    }

    /// Feeds one `(a, b)` pair — the projections of the arriving tuple onto
    /// `A` and `B`, encoded as value slices.
    pub fn update(&mut self, a: &[u64], b: &[u64]) {
        let h_a = self.hasher_a.hash_slice(a);
        let b_fp = self.hasher_b.hash_slice(b);
        self.update_hashed(h_a, b_fp);
    }

    /// Feeds one pre-hashed pair; `h_a` must come from a hash function
    /// shared by all updates, `b_fp` from an independent one.
    #[inline]
    pub fn update_hashed(&mut self, h_a: u64, b_fp: u64) {
        self.metrics.estimator.tuples.inc();
        let (idx, rank) = split_rank(h_a, self.log2_m);
        if self.support_only {
            self.update_routed::<true>(idx, rank, h_a, b_fp);
        } else {
            self.update_routed::<false>(idx, rank, h_a, b_fp);
        }
    }

    /// Applies one pair already split into its bitmap index and rank,
    /// minus the `estimator.tuples` counter bump, so batch paths can
    /// meter a whole batch with one atomic add instead of one per row.
    /// `SUPPORT_ONLY` must equal the estimator's mode; it is a constant so
    /// the mode is chosen once per call site, not once per row.
    #[inline]
    fn update_routed<const SUPPORT_ONLY: bool>(
        &mut self,
        idx: usize,
        rank: u32,
        h_a: u64,
        b_fp: u64,
    ) {
        self.tuples += 1;
        self.moved = true;
        let bitmap = &mut self.bitmaps[idx];
        let outcome = if SUPPORT_ONLY {
            bitmap.update_support(rank, h_a)
        } else {
            bitmap.update(rank, h_a, b_fp)
        };
        self.metrics.estimator.record_outcome(&outcome);
        if outcome.committed || SUPPORT_ONLY && outcome.certified {
            // The cell is decided for good now; a stale (empty) mirror is
            // rebuilt by the next batch instead.
            if let Some(word) = self.zone1.get_mut(idx) {
                *word |= 1 << rank.min(CELLS - 1);
            }
        }
        if outcome.entries_delta != 0 || outcome.budget_sheds > 0 {
            // Occupancy (and therefore the byte footprint) moved: refresh
            // the gauge. Steady-state updates skip the atomic store.
            self.metrics
                .estimator
                .mem_bytes
                .set(self.budget.used() as u64);
        }
        self.trace
            .record_update(idx as u32, rank, h_a, self.tuples, &outcome);
    }

    /// Rebuilds the Zone-1 mirror if a merge, an adoption or a wire delta
    /// left it stale.
    fn refresh_zone1(&mut self) {
        let support_only = self.support_only;
        // The cells of a bitmap an arrival can no longer change.
        let decided = |bm: &NipsBitmap| {
            if support_only {
                bm.ones() | bm.certified()
            } else {
                bm.ones()
            }
        };
        if self.zone1.len() != self.bitmaps.len() {
            self.zone1.clear();
            self.zone1.extend(self.bitmaps.iter().map(decided));
        }
        debug_assert!(
            self.zone1
                .iter()
                .zip(&self.bitmaps)
                .all(|(&word, bm)| word & !decided(bm) == 0),
            "the Zone-1 mirror must be a subset of the bitmaps' decided cells"
        );
    }

    /// The Zone-1 filter for the next batch (see
    /// [`update_hashed_batch`](Self::update_hashed_batch)).
    pub(crate) fn zone1(&mut self) -> Zone1<'_> {
        self.refresh_zone1();
        Zone1::new(&self.zone1, self.log2_m)
    }

    /// Feeds a batch of pre-hashed pairs `(h_a, b_fp)` (see
    /// [`ImplicationEstimator::update_hashed`] for the hashing contract).
    /// The resulting state is exactly that of feeding the pairs one by
    /// one, in order.
    ///
    /// **Zone-1 filter.** A row routed to a cell that is already 1
    /// changes nothing (paper §4.3: its non-implication event is
    /// recorded and the cell holds no state). The estimator keeps a
    /// contiguous mirror of its bitmaps' `ones` words and drops such rows
    /// before touching their bitmap. Skipped rows still count in
    /// [`tuples_seen`](Self::tuples_seen) and `estimator.tuples`;
    /// `estimator.zone1_skips` counts them. The mirror is only ever a
    /// subset of the real `ones`, so a row it lets through is still
    /// dropped by [`NipsBitmap::update`]'s own check. For a support-only
    /// estimator the mirror also holds the certified cells, where an
    /// arrival changes nothing either.
    ///
    /// **Trace positions** are the tuple count when an event fires. The
    /// batch applies its rows in stream order and counts a skipped row
    /// where it stands, so at every batch size its update events carry
    /// the positions per-row [`update_hashed`](Self::update_hashed) calls
    /// would give them.
    pub fn update_hashed_batch(&mut self, pairs: &[(u64, u64)]) {
        self.update_hashed_lane(pairs, 0);
    }

    /// [`update_hashed_batch`](Self::update_hashed_batch) for a lane from
    /// which the caller already dropped `skipped` rows against
    /// [`zone1`](Self::zone1) (the catalog's path). They count like rows
    /// the batch skips itself, ahead of `pairs`.
    pub(crate) fn update_hashed_lane(&mut self, pairs: &[(u64, u64)], mut skipped: u64) {
        let rows = pairs.len() as u64 + skipped;
        let mut span = self.trace.span(SpanKind::UpdateBatch);
        span.set_quantity(rows);
        // One atomic add meters the whole batch; the updates then touch
        // the metrics lane only on state transitions.
        self.metrics.estimator.tuples.add(rows);
        self.tuples += skipped;
        self.refresh_zone1();
        skipped += if self.support_only {
            self.apply_lane::<true>(pairs)
        } else {
            self.apply_lane::<false>(pairs)
        };
        self.metrics.estimator.zone1_skips.add(skipped);
    }

    /// Applies `pairs` in order, dropping the rows the Zone-1 mirror has
    /// decided; returns how many it dropped.
    fn apply_lane<const SUPPORT_ONLY: bool>(&mut self, pairs: &[(u64, u64)]) -> u64 {
        let mut skipped = 0;
        for &(h_a, b_fp) in pairs {
            let (idx, rank) = split_rank(h_a, self.log2_m);
            if is_set(&self.zone1, idx, rank) {
                self.tuples += 1;
                skipped += 1;
                continue;
            }
            self.update_routed::<SUPPORT_ONLY>(idx, rank, h_a, b_fp);
        }
        skipped
    }

    /// Pre-hashes an `(a, b)` pair exactly as [`ImplicationEstimator::update`]
    /// would, for pipelines that hash on one thread and ingest on another
    /// via [`ImplicationEstimator::update_hashed`].
    #[inline]
    pub fn hash_pair(&self, a: &[u64], b: &[u64]) -> (u64, u64) {
        (self.hasher_a.hash_slice(a), self.hasher_b.hash_slice(b))
    }

    /// The [`MergeKey`] another estimator must share to merge with this
    /// one.
    pub fn merge_key(&self) -> MergeKey {
        MergeKey {
            cond: self.cond,
            bitmaps: self.bitmaps.len(),
            seeds: (self.hasher_a.seed(), self.hasher_b.seed()),
        }
    }

    /// A copyable hasher matching this estimator's internal hash
    /// functions (the counterpart of
    /// [`ShardedEstimator::pair_hasher`](crate::ShardedEstimator::pair_hasher)),
    /// for pipelines that parse and hash on threads other than the
    /// writer's.
    pub fn pair_hasher(&self) -> crate::parallel::PairHasher {
        crate::parallel::PairHasher::from_hashers(self.hasher_a, self.hasher_b)
    }

    /// The CI estimate over the current stream prefix, read directly off
    /// the live bitmaps. This needs `&self` — i.e. exclusive or shared
    /// access to the *writer* — so it is the owner's one-shot read;
    /// concurrent queries while ingestion continues should go through
    /// [`reader`](ImplicationEstimator::reader) instead.
    pub fn estimate_now(&self) -> Estimate {
        let m = self.bitmaps.len() as f64;
        let (mut sum_sup, mut sum_non) = (0u32, 0u32);
        for bm in &self.bitmaps {
            sum_sup += bm.rank_f0_sup();
            sum_non += bm.rank_non_implication();
        }
        estimate_from_rank_sums(sum_sup, sum_non, m)
    }

    /// A wait-free read handle answering estimates from the latest
    /// *published* view while this writer keeps ingesting — the reader
    /// half of the API split (see [`crate::view`]). Cheap to clone and
    /// `Send`: hand one clone to each query thread. Readers observe
    /// nothing until [`publish`](ImplicationEstimator::publish) (or
    /// [`publish_full`](ImplicationEstimator::publish_full)) is called;
    /// the view captured when the channel is first created is epoch 0.
    pub fn reader(&mut self) -> EstimateReader {
        if self.publisher.is_none() {
            self.publish();
        }
        self.publisher.as_ref().expect("publisher created").reader()
    }

    /// Publishes the current read-off state (per-bitmap rank registers
    /// plus stream counters) as the next epoch, and returns that epoch.
    /// Readers from [`reader`](ImplicationEstimator::reader) switch to
    /// the new view wait-free. Costs one small allocation plus an atomic
    /// store — cheap enough to call every batch. When no row has reached
    /// a bitmap since the last publish (every arrival was dropped by the
    /// Zone-1 filter, or none came), the new view shares the last one's
    /// rank words and entry count and only the counters are read fresh.
    pub fn publish(&mut self) -> u64 {
        let view = self.capture_view();
        self.moved = false;
        let (metrics, trace) = (&self.metrics, &self.trace);
        ViewPublisher::publish_into(&mut self.publisher, view, self.tuples, metrics, trace)
    }

    /// Like [`publish`](ImplicationEstimator::publish), but always reads
    /// the rank registers and the entry count fresh off the bitmaps.
    pub fn publish_full(&mut self) -> u64 {
        self.moved = true;
        self.publish()
    }

    /// The latest epoch published on this writer's channel, or `None` if
    /// no reader or publish call has created the channel yet.
    pub fn published_epoch(&self) -> Option<u64> {
        self.publisher.as_ref().map(ViewPublisher::epoch)
    }

    /// Captures the current read-off state as an unpublished view,
    /// reusing the last view's rank words and entry count when nothing
    /// has moved them.
    fn capture_view(&self) -> ReadView {
        let last = self.publisher.as_ref().map(ViewPublisher::latest);
        let (ranks, entries) = match last.filter(|_| !self.moved) {
            Some(last) => {
                debug_assert_eq!(
                    (&**last.ranks(), last.entries()),
                    (&*self.fresh_ranks(), self.entries() as u64),
                    "a rank register or the entry count moved without marking the estimator"
                );
                (Arc::clone(last.ranks()), last.entries())
            }
            None => (self.fresh_ranks(), self.entries() as u64),
        };
        let tracked = self.budget.used() as u64;
        ReadView::from_parts(self.tuples, entries, tracked, self.cond, ranks)
    }

    /// Every bitmap's rank registers, packed, read off the bitmaps.
    fn fresh_ranks(&self) -> Arc<[u64]> {
        self.bitmaps
            .iter()
            .map(|bm| pack_ranks(bm.rank_f0_sup(), bm.rank_non_implication()))
            .collect()
    }

    /// Total `(a, b)` tracking entries held across all bitmaps — the
    /// §6.2 memory comparison metric ("1920 itemsets" for the paper's
    /// parameters).
    pub fn entries(&self) -> usize {
        self.bitmaps.iter().map(NipsBitmap::entries).sum()
    }

    /// Exact bytes of tracked state reserved on this estimator's
    /// [`MemoryBudget`] — every cell arena and support side-fringe across
    /// all bitmaps (and, for a sharded pipeline, across every shard
    /// sharing the budget). Replaces the old `approx_bytes` heuristic.
    pub fn tracked_bytes(&self) -> usize {
        self.budget.used()
    }

    /// The shared memory account this estimator draws from (see
    /// [`crate::budget`]).
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Replaces the enforced byte ceiling at runtime (`None` lifts it).
    /// Lowering the ceiling below the current footprint does not reclaim
    /// anything: tables never shrink, and pressure shedding recycles
    /// slots in place. The new ceiling simply gates all further growth —
    /// relevant after a snapshot restore, where tables rebuilt at the
    /// canonical load factor may occupy more bytes than the ceiling
    /// that originally squeezed them.
    pub fn set_memory_budget(&mut self, limit: Option<usize>) {
        self.budget.set_limit(limit.unwrap_or(usize::MAX));
        self.moved = true;
        self.publish_mem_gauges();
    }

    /// Access to the underlying bitmaps (diagnostics, tests).
    pub fn bitmaps(&self) -> &[NipsBitmap] {
        &self.bitmaps
    }

    /// Merges an estimator built at another node with the **same
    /// conditions, bitmap count, fringe configuration and seed** —
    /// distributed aggregation for the §3 "node in a distributed
    /// environment" deployment: each node sketches its local traffic and
    /// a collector merges the sketches instead of the streams.
    ///
    /// See [`NipsBitmap::merge`] for the (slight, conservative)
    /// order-blindness caveat.
    ///
    /// ```
    /// use imp_core::{EstimatorConfig, ImplicationConditions};
    ///
    /// let cond = ImplicationConditions::strict_one_to_one(1);
    /// let config = EstimatorConfig::new(cond); // same config ⇒ mergeable
    /// let (mut node1, mut node2) = (config.build(), config.build());
    /// for a in 0..500u64 {
    ///     node1.update(&[a], &[a]); // loyal traffic at node 1
    ///     node2.update(&[a + 500], &[1]); // scanner traffic at node 2
    ///     node2.update(&[a + 500], &[2]);
    /// }
    /// node1.merge(&node2);
    /// assert_eq!(node1.tuples_seen(), 1500);
    /// let e = node1.estimate_now();
    /// assert!(e.implication_count > 300.0 && e.implication_count < 700.0);
    /// ```
    ///
    /// Replaces this estimator's accumulated state (conditions, bitmaps,
    /// hash seeds, tuple counter, memory budget) with `donor`'s, while
    /// keeping this estimator's publication channel, metrics registry
    /// and trace journal.
    ///
    /// This is the aggregator-side commit of the wire protocol (see
    /// [`crate::wire`]): the aggregator merges freshly-decoded edge
    /// replicas into a scratch estimator, then adopts the result into
    /// its long-lived serving writer so existing
    /// [`EstimateReader`]s keep following the
    /// same channel across re-aggregations — epochs continue, readers
    /// never re-attach. The donor's arenas carry their own budget
    /// accounting with them; the previously held state releases its
    /// reservations on drop.
    ///
    /// # Panics
    /// If one estimator is support-only and the other is not.
    pub fn adopt_state(&mut self, donor: ImplicationEstimator) {
        assert_eq!(
            self.support_only, donor.support_only,
            "estimator modes (support-only or not) must match"
        );
        let ImplicationEstimator {
            cond,
            log2_m,
            bitmaps,
            hasher_a,
            hasher_b,
            tuples,
            budget,
            metrics: _,
            trace: _,
            publisher: _,
            zone1: _,
            support_only: _,
            moved: _,
        } = donor;
        self.cond = cond;
        self.log2_m = log2_m;
        self.bitmaps = bitmaps;
        self.hasher_a = hasher_a;
        self.hasher_b = hasher_b;
        self.tuples = tuples;
        self.budget = budget;
        self.zone1.clear();
        self.moved = true;
        self.publish_mem_gauges();
    }

    /// # Panics
    /// If conditions, bitmap counts, hash seeds or modes (support-only or
    /// not) differ.
    pub fn merge(&mut self, other: &ImplicationEstimator) {
        let mut span = self.trace.span(SpanKind::Merge);
        span.set_quantity(self.bitmaps.len() as u64);
        assert_eq!(
            self.support_only, other.support_only,
            "estimator modes (support-only or not) must match"
        );
        if let Some(field) = self.merge_key().mismatch(&other.merge_key()) {
            panic!("estimators must share {field} to be mergeable");
        }
        for (a, b) in self.bitmaps.iter_mut().zip(&other.bitmaps) {
            a.merge(b);
        }
        self.zone1.clear();
        self.moved = true;
        self.tuples += other.tuples;
        self.metrics.estimator.merges.inc();
    }
}

/// Internal plumbing for the sharded ingestion pipeline
/// (see [`crate::parallel`]).
impl ImplicationEstimator {
    /// Reassembles a general (not support-only) estimator from parts —
    /// the wire decoder's replica; shard construction copies the mode
    /// over afterwards.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cond: ImplicationConditions,
        bitmaps: Vec<NipsBitmap>,
        hasher_a: MixHasher,
        hasher_b: MixHasher,
        tuples: u64,
        budget: MemoryBudget,
        metrics: MetricsHandle,
        trace: TraceHandle,
    ) -> Self {
        assert!(
            bitmaps.len().is_power_of_two(),
            "bitmap count must be a power of two"
        );
        Self {
            cond,
            log2_m: bitmaps.len().trailing_zeros(),
            bitmaps,
            hasher_a,
            hasher_b,
            tuples,
            budget,
            metrics,
            trace,
            publisher: None,
            zone1: Vec::new(),
            support_only: false,
            moved: true,
        }
    }

    /// Hands an existing publication channel to this estimator — used by
    /// [`ShardedEstimator::finish`](crate::ShardedEstimator::finish) so
    /// readers created against the pipeline keep following the
    /// reassembled writer (epochs continue, they don't restart).
    pub(crate) fn adopt_publisher(&mut self, publisher: ViewPublisher) {
        debug_assert!(self.publisher.is_none(), "writer already has a channel");
        self.publisher = Some(publisher);
        // The channel's last view is not this estimator's.
        self.moved = true;
    }

    /// The writer's publication channel, if created — taken by
    /// [`ShardedEstimator::finish`](crate::ShardedEstimator::finish)'s
    /// counterpart in `new` when a pre-published base is sharded.
    pub(crate) fn take_publisher(&mut self) -> Option<ViewPublisher> {
        self.publisher.take()
    }

    /// `log2` of the bitmap count (routing).
    pub(crate) fn log2_m(&self) -> u32 {
        self.log2_m
    }

    /// Mutable access to the bitmaps — the wire decoder's delta path
    /// replaces individual bitmaps in place (see [`crate::wire`]). Marks
    /// the Zone-1 mirror stale: a replaced bitmap's `ones` need not
    /// contain the old one's.
    pub(crate) fn bitmaps_mut(&mut self) -> &mut [NipsBitmap] {
        self.zone1.clear();
        self.moved = true;
        &mut self.bitmaps
    }

    /// Overwrites the tuple counter — wire frames carry the sender's
    /// absolute count, not an increment.
    pub(crate) fn set_tuples(&mut self, tuples: u64) {
        self.tuples = tuples;
    }

    /// A same-configuration estimator with no accumulated state. Shares
    /// this estimator's metrics registry and trace journal (shards of one
    /// pipeline report into one place).
    pub(crate) fn fresh_like(&self) -> Self {
        self.keeping(|_| false, false)
    }

    /// Splits this estimator into `threads` shard estimators. Shard `k`
    /// carries the accumulated state of every bitmap index `i` with
    /// `i % threads == k` (plus, on shard 0, the tuple counter); all other
    /// bitmaps start fresh. Merging the shards back recovers the original
    /// state exactly, because each bitmap's state lives on exactly one
    /// shard.
    pub(crate) fn split_shards(&self, threads: usize) -> Vec<Self> {
        assert!(threads >= 1, "need at least one shard");
        (0..threads)
            .map(|k| self.keeping(|i| i % threads == k, k == 0))
            .collect()
    }

    /// A same-configuration estimator holding the state of the bitmaps
    /// `owned` selects (and the tuple counter if `tuples`), every other
    /// bitmap fresh, on the same metrics, trace and budget.
    fn keeping(&self, owned: impl Fn(usize) -> bool, tuples: bool) -> Self {
        let bitmaps = self.bitmaps.iter().enumerate();
        let bitmaps = bitmaps.map(|(i, bm)| {
            if owned(i) {
                bm.clone()
            } else {
                bm.fresh_like()
            }
        });
        let mut est = Self::from_parts(
            self.cond,
            bitmaps.collect(),
            self.hasher_a,
            self.hasher_b,
            if tuples { self.tuples } else { 0 },
            self.budget.clone(),
            self.metrics.clone(),
            self.trace.clone(),
        );
        est.support_only = self.support_only;
        est
    }
}

impl ImplicationEstimator {
    /// Serializes the complete estimator state into a portable snapshot
    /// (see [`crate::snapshot`] for the format and guarantees).
    ///
    /// A full save/restore round-trip:
    ///
    /// ```
    /// use imp_core::{EstimatorConfig, ImplicationConditions, ImplicationEstimator};
    ///
    /// let cond = ImplicationConditions::one_to_c(1, 0.8, 2);
    /// let mut est = EstimatorConfig::new(cond).seed(7).build();
    /// for a in 0..1000u64 {
    ///     est.update(&[a], &[a % 50]);
    /// }
    ///
    /// let snapshot = est.to_bytes(); // → write to disk / ship elsewhere
    /// let mut restored = ImplicationEstimator::from_bytes(snapshot)?;
    /// assert_eq!(restored.estimate_now(), est.estimate_now());
    ///
    /// // The restored estimator keeps ingesting where the original
    /// // left off — identical future behaviour, not just identical
    /// // read-offs.
    /// est.update(&[1], &[2]);
    /// restored.update(&[1], &[2]);
    /// assert_eq!(restored.to_bytes(), est.to_bytes());
    /// # Ok::<(), imp_core::SnapshotError>(())
    /// ```
    ///
    /// The format has no mode field: a support-only estimator encodes
    /// like any other and restores as a general one with the same
    /// answers, since a query with an empty rhs can turn no cell 1 on
    /// either path. (Front ends never checkpoint catalog estimators.)
    pub fn to_bytes(&self) -> bytes::Bytes {
        use bytes::BufMut;
        let mut span = self.trace.span(SpanKind::SnapshotEncode);
        let started = Instant::now();
        let mut buf = bytes::BytesMut::with_capacity(4096);
        buf.put_u32_le(crate::snapshot::MAGIC);
        buf.put_u16_le(crate::snapshot::VERSION);
        self.cond.encode(&mut buf);
        buf.put_u32_le(self.bitmaps.len() as u32);
        buf.put_u64_le(self.hasher_a.seed());
        buf.put_u64_le(self.hasher_b.seed());
        buf.put_u64_le(self.tuples);
        for bm in &self.bitmaps {
            bm.encode(&mut buf);
        }
        let out = buf.freeze();
        let m = &self.metrics.snapshot;
        m.encodes.inc();
        m.bytes_written.add(out.len() as u64);
        m.encode_nanos.observe(started.elapsed().as_nanos() as u64);
        span.set_quantity(out.len() as u64);
        out
    }

    /// Restores an estimator from [`ImplicationEstimator::to_bytes`]
    /// output.
    pub fn from_bytes(mut buf: bytes::Bytes) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{need, SnapshotError};
        use bytes::Buf;
        let started = Instant::now();
        let total_len = buf.len();
        need(&buf, 4 + 2)?;
        if buf.get_u32_le() != crate::snapshot::MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != crate::snapshot::VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let cond = ImplicationConditions::decode(&mut buf)?;
        need(&buf, 4 + 8 + 8 + 8)?;
        let m = buf.get_u32_le() as usize;
        if !m.is_power_of_two() || m == 0 || m > 1 << 20 {
            return Err(SnapshotError::Corrupt("bitmap count"));
        }
        let hasher_a = MixHasher::from_premixed(buf.get_u64_le());
        let hasher_b = MixHasher::from_premixed(buf.get_u64_le());
        let tuples = buf.get_u64_le();
        // Snapshots carry state, not the budget ceiling: restoration is
        // charged to a fresh unlimited account (restoring bytes the
        // caller already persisted must not fail). Re-arm enforcement
        // with `set_memory_budget` afterwards.
        let budget = MemoryBudget::unlimited();
        let bitmaps = (0..m)
            .map(|_| NipsBitmap::decode(&mut buf, cond, &budget))
            .collect::<Result<Vec<_>, _>>()?;
        let metrics = MetricsHandle::new();
        let s = &metrics.snapshot;
        s.decodes.inc();
        s.bytes_read.add((total_len - buf.len()) as u64);
        s.decode_nanos.observe(started.elapsed().as_nanos() as u64);
        let est = Self {
            cond,
            bitmaps,
            log2_m: m.trailing_zeros(),
            hasher_a,
            hasher_b,
            tuples,
            budget,
            metrics,
            // A restored estimator starts untraced, like a fresh build;
            // attach a journal with `set_trace` to resume journaling.
            trace: TraceHandle::disabled(),
            publisher: None,
            zone1: Vec::new(),
            support_only: false,
            moved: true,
        };
        est.publish_mem_gauges();
        Ok(est)
    }
}

/// The CI expansion shared by the owner-side read-off
/// ([`ImplicationEstimator::estimate_now`]) and published-view reads
/// ([`crate::view::ReadView::estimate`]): identical f64 operations in
/// identical order, so the two paths are bit-identical by construction.
pub(crate) fn estimate_from_rank_sums(sum_sup: u32, sum_non: u32, m: f64) -> Estimate {
    let f0_sup = expand_mean(sum_sup as f64 / m, m);
    let non = expand_mean(sum_non as f64 / m, m);
    Estimate {
        f0_sup,
        non_implication_count: non,
        implication_count: (f0_sup - non).max(0.0),
    }
}

/// PCSA expansion of a mean rank, with the small-range correction.
fn expand_mean(mean_rank: f64, m: f64) -> f64 {
    if mean_rank <= 0.0 {
        return 0.0;
    }
    let main = mean_rank.exp2();
    let correction = (-KAPPA * mean_rank).exp2();
    (m / FM_PHI) * (main - correction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sketch::estimate::relative_error;

    fn one_to_one() -> ImplicationConditions {
        ImplicationConditions::strict_one_to_one(1)
    }

    fn bounded(cond: ImplicationConditions, m: usize, f: u32, seed: u64) -> ImplicationEstimator {
        EstimatorConfig::new(cond)
            .bitmaps(m)
            .fringe(Fringe::Bounded(f))
            .seed(seed)
            .build()
    }

    fn unbounded(cond: ImplicationConditions, m: usize, seed: u64) -> ImplicationEstimator {
        EstimatorConfig::new(cond)
            .bitmaps(m)
            .fringe(Fringe::Unbounded)
            .seed(seed)
            .build()
    }

    /// Streams `n_impl` implicating and `n_viol` violating itemsets.
    fn run(est: &mut ImplicationEstimator, n_impl: u64, n_viol: u64) {
        for a in 0..n_impl {
            est.update(&[a], &[a]);
            est.update(&[a], &[a]);
        }
        for a in 0..n_viol {
            let a = a + 1_000_000_000;
            est.update(&[a], &[1]);
            est.update(&[a], &[2]);
        }
    }

    #[test]
    fn empty_estimate_is_zero() {
        let est = bounded(one_to_one(), 64, 4, 1);
        let e = est.estimate_now();
        assert_eq!(e.implication_count, 0.0);
        assert_eq!(e.f0_sup, 0.0);
        assert_eq!(e.non_implication_count, 0.0);
    }

    #[test]
    fn pure_implication_stream_unbounded_is_exact_on_sbar() {
        let mut est = unbounded(one_to_one(), 64, 2);
        run(&mut est, 10_000, 0);
        let e = est.estimate_now();
        assert_eq!(e.non_implication_count, 0.0);
        let err = relative_error(10_000.0, e.implication_count);
        assert!(err < 0.15, "err {err}, est {e:?}");
    }

    #[test]
    fn pure_implication_stream_bounded_stays_clean() {
        // A cell only ever becomes 1 on an *observed* violation (cells
        // never close on capacity overflow — DESIGN.md §7.4), so a q = 0
        // stream reads S̄ = 0 even with the bounded fringe, instead of the
        // paper's ≈ 2^-F · F0 floor.
        let mut est = bounded(one_to_one(), 64, 4, 2);
        run(&mut est, 10_000, 0);
        let e = est.estimate_now();
        assert_eq!(e.non_implication_count, 0.0);
        let err = relative_error(10_000.0, e.implication_count);
        assert!(err < 0.15, "err {err}, est {e:?}");
    }

    #[test]
    fn pure_violation_stream() {
        let mut est = bounded(one_to_one(), 64, 4, 3);
        run(&mut est, 0, 10_000);
        let e = est.estimate_now();
        let err = relative_error(10_000.0, e.non_implication_count);
        assert!(err < 0.15, "err {err}, est {e:?}");
        assert!(
            e.implication_count < 0.1 * e.f0_sup,
            "implication count should be near zero: {e:?}"
        );
    }

    #[test]
    fn mixed_stream_recovers_both_counts() {
        for (s, q, seed) in [
            (5_000u64, 5_000u64, 4u64),
            (9_000, 1_000, 5),
            (1_000, 9_000, 6),
        ] {
            let mut est = bounded(one_to_one(), 64, 4, seed);
            run(&mut est, s, q);
            let e = est.estimate_now();
            let err_s = relative_error(s as f64, e.implication_count);
            let err_f0 = relative_error((s + q) as f64, e.f0_sup);
            assert!(err_f0 < 0.15, "F0 err {err_f0} at (s={s}, q={q})");
            assert!(err_s < 0.35, "S err {err_s} at (s={s}, q={q}): {e:?}");
        }
    }

    #[test]
    fn small_cardinality_100_stays_reasonable() {
        // The paper's smallest panel: ‖A‖ = 100 over 64 bitmaps.
        let mut errs = 0.0;
        let reps = 20;
        for seed in 0..reps {
            let mut est = bounded(one_to_one(), 64, 4, 100 + seed);
            run(&mut est, 50, 50);
            let e = est.estimate_now();
            errs += relative_error(50.0, e.implication_count);
        }
        let mean_err = errs / reps as f64;
        assert!(mean_err < 0.25, "mean err {mean_err}");
    }

    #[test]
    fn bounded_matches_unbounded_for_large_nonimpl() {
        let mut b = bounded(one_to_one(), 64, 4, 7);
        let mut u = unbounded(one_to_one(), 64, 7);
        run(&mut b, 4_000, 4_000);
        run(&mut u, 4_000, 4_000);
        let (eb, eu) = (b.estimate_now(), u.estimate_now());
        let diff = relative_error(eu.implication_count, eb.implication_count);
        assert!(diff < 0.10, "bounded {eb:?} vs unbounded {eu:?}");
    }

    #[test]
    fn memory_stays_within_paper_budget() {
        // Per bitmap: the NIPS fringe holds ≤ headroom·(2^F − 1) = 30
        // itemsets and the F0^sup side-fringe another 30 support counters
        // (the "double the allocated memory" of §4.3.2), independent of the
        // stream length.
        let cond = ImplicationConditions::one_to_c(2, 0.9, 2);
        let mut est = bounded(cond, 64, 4, 8);
        let mut peak = 0usize;
        for a in 0..200_000u64 {
            est.update(&[a], &[a % 7]);
            if a % 1000 == 0 {
                peak = peak.max(est.entries());
            }
        }
        peak = peak.max(est.entries());
        // Per bitmap: the NIPS cells hold ≤ 2·headroom·(2^F − 1) = 60
        // itemsets (global budget) and the F0^sup side-fringe another 60
        // support counters, plus transient slack for the cell being
        // updated when the budget check declines to shed it.
        assert!(peak <= 64 * 125, "entries {peak} exceed budget");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = bounded(one_to_one(), 16, 4, 99);
        let mut b = bounded(one_to_one(), 16, 4, 99);
        run(&mut a, 500, 500);
        run(&mut b, 500, 500);
        assert_eq!(a.estimate_now(), b.estimate_now());
    }

    #[test]
    fn tuple_counter_advances() {
        let mut est = bounded(one_to_one(), 16, 4, 1);
        run(&mut est, 10, 5);
        assert_eq!(est.tuples_seen(), 30);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = bounded(one_to_one(), 48, 4, 1);
    }

    #[test]
    fn merge_of_partitioned_stream_matches_single_node() {
        // Partition-by-itemset (the natural distributed deployment): the
        // merged sketch must read exactly like one node seeing everything.
        let mut whole = unbounded(one_to_one(), 64, 5);
        let mut node1 = unbounded(one_to_one(), 64, 5);
        let mut node2 = unbounded(one_to_one(), 64, 5);
        for a in 0..8_000u64 {
            let b = if a % 2 == 0 { [a] } else { [a % 7] };
            let node = if a < 4_000 { &mut node1 } else { &mut node2 };
            node.update(&[a], &b);
            whole.update(&[a], &b);
            if a % 3 == 0 {
                node.update(&[a], &[a + 1]); // violating second partner
                whole.update(&[a], &[a + 1]);
            }
        }
        node1.merge(&node2);
        let (m, w) = (node1.estimate_now(), whole.estimate_now());
        assert_eq!(m, w, "disjoint-itemset merge must be lossless");
        assert_eq!(node1.tuples_seen(), whole.tuples_seen());
    }

    #[test]
    fn merge_unions_violations_across_nodes() {
        // An itemset clean at each node but with different partners on the
        // two nodes must be dirty after the merge (K = 1).
        let mut node1 = bounded(one_to_one(), 16, 4, 9);
        let mut node2 = bounded(one_to_one(), 16, 4, 9);
        for a in 0..500u64 {
            node1.update(&[a], &[1]);
            node2.update(&[a], &[2]);
        }
        assert_eq!(node1.estimate_now().non_implication_count, 0.0);
        assert_eq!(node2.estimate_now().non_implication_count, 0.0);
        node1.merge(&node2);
        let e = node1.estimate_now();
        assert!(
            e.non_implication_count > 200.0,
            "merged union must expose the violations: {e:?}"
        );
        assert!(e.implication_count < 0.2 * e.f0_sup, "{e:?}");
    }

    #[test]
    #[should_panic(expected = "hash seeds")]
    fn merge_rejects_mismatched_seeds() {
        let mut a = bounded(one_to_one(), 16, 4, 1);
        let b = bounded(one_to_one(), 16, 4, 2);
        a.merge(&b);
    }

    #[test]
    fn replacing_bitmaps_makes_the_zone1_mirror_stale() {
        // The wire decoder's delta path swaps whole bitmaps in, and a
        // swapped-in bitmap may hold fewer ones than the mirror: rows
        // routed to those cells must reach the bitmap again.
        let mut batched = bounded(one_to_one(), 16, 4, 21);
        let mut per_row = bounded(one_to_one(), 16, 4, 21);
        let pairs: Vec<(u64, u64)> = (0..6_000u64)
            .map(|i| batched.hash_pair(&[i % 1_500], &[i / 1_500 % 2]))
            .collect();
        batched.update_hashed_batch(&pairs);
        for &(h_a, b_fp) in &pairs {
            per_row.update_hashed(h_a, b_fp);
        }
        assert!(batched.bitmaps().iter().any(|bm| bm.ones() != 0));
        for est in [&mut batched, &mut per_row] {
            let fresh: Vec<NipsBitmap> = est.bitmaps().iter().map(NipsBitmap::fresh_like).collect();
            est.bitmaps_mut().clone_from_slice(&fresh);
        }
        batched.update_hashed_batch(&pairs);
        for &(h_a, b_fp) in &pairs {
            per_row.update_hashed(h_a, b_fp);
        }
        assert_eq!(batched.to_bytes(), per_row.to_bytes());
    }

    #[test]
    fn merge_is_idempotent_on_empty() {
        let mut a = bounded(one_to_one(), 16, 4, 3);
        for x in 0..100u64 {
            a.update(&[x], &[0]);
        }
        let before = a.estimate_now();
        let empty = bounded(one_to_one(), 16, 4, 3);
        a.merge(&empty);
        assert_eq!(a.estimate_now(), before);
    }
}
