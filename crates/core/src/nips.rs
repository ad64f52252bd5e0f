//! The NIPS bitmap (Algorithm 1) and the CI read-offs (Algorithm 2).
//!
//! One [`NipsBitmap`] is a 64-cell Flajolet–Martin bitmap whose undecided
//! cells carry live per-itemset state. The three zones of Figure 3:
//!
//! ```text
//!   1 1 1 1 | f f f f | 0 0 0 0 0 …
//!   Zone-1    fringe    Zone-0
//! ```
//!
//! * **Zone-1** — cells committed to value 1: a non-implication was
//!   *observed* there. (Unlike Algorithm 1 line 13, capacity overflow
//!   never closes a cell — see DESIGN.md §7.4.)
//! * **fringe** — undecided cells carrying per-itemset state. Capacities
//!   follow Lemma 1's geometry anchored at the rightmost occupied cell:
//!   the top-`F` cells hold the `headroom · (2^F − 1)` budget of §4.6;
//!   crowded cells recycle their least-supported slots; a global item
//!   budget sheds the weakest itemset of the most crowded cell. `F = 4`
//!   suffices for all non-implication counts above `≈ 2^-4` of `F0(A)`
//!   (Lemma 2); smaller counts degrade conservatively.
//! * **Zone-0** — cells with no tracked state and no decision.
//!
//! Since the arena refactor, all 64 cells of one bitmap store their
//! itemset state in a single `CellArena` of fixed-size slots; which
//! cells are *open* (may be empty yet still distinct from Zone-0) and
//! which carry a sticky supported flag live in the `open_mask` /
//! `supported_mask` bit sets. Every byte of tracked state is charged to
//! the bitmap's shared [`MemoryBudget`], and a budget that denies arena
//! growth makes the bitmap shed its weakest slots instead (reported as
//! [`UpdateOutcome::budget_sheds`]).
//!
//! The bitmap records the *monotone* event "this cell contains a supported
//! itemset that violates the conditions". The CI estimator reads the same
//! bitmap twice: `R_F0sup` (leftmost cell without any supported itemset)
//! estimates the distinct count of supported itemsets, `R_S̄` (leftmost
//! cell with value ≠ 1) estimates the non-implication count, and
//! `S ≈ 2^R_F0sup − 2^R_S̄`.

use crate::arena::CellArena;
use crate::budget::{CapacityPolicy, MemoryBudget};
use crate::cell::{insert_with_shed, update_cell, CellEvent};
use crate::conditions::ImplicationConditions;
use crate::state::{self, DirtyReason, Verdict};
use imp_sketch::estimate::FM_PHI;

/// Number of cells per bitmap (ranks of a 64-bit hash).
pub const CELLS: u32 = 64;

/// Everything one [`NipsBitmap::update`] did, in countable form — the
/// record the metrics layer folds into
/// [`EstimatorMetrics`](crate::metrics::EstimatorMetrics). Plain data:
/// ignoring it (as the pre-observability call sites did) loses nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateOutcome {
    /// If this arrival flipped an itemset dirty for the first time, the
    /// implication condition whose failure caused it.
    pub dirty: Option<DirtyReason>,
    /// Whether a cell was committed to value 1 (irreversible Zone-1
    /// growth).
    pub committed: bool,
    /// Tracked entries evicted by the capacity discipline: per-cell slot
    /// recycling plus global-budget shedding, in both the NIPS fringe and
    /// the `F0^sup` side-fringe.
    pub evictions: u32,
    /// Whether a support cell was certified (a virtual one of §4.4).
    pub certified: bool,
    /// Net change in tracked entries across both fringes (occupancy).
    pub entries_delta: i32,
    /// Slots recycled because the [`MemoryBudget`] denied arena growth —
    /// memory-pressure shedding, counted separately from the
    /// capacity-policy `evictions` above (and surfaced as the
    /// `BudgetPressure` trace event).
    pub budget_sheds: u32,
}

/// A bounded fringe for the *monotone* event "this cell contains an
/// itemset with support ≥ σ" — the `F0^sup` side of the CI read-off
/// (§4.4: "we can have an estimate of `F0^sup(A)` … by virtually assigning
/// a value of one to each cell in the fringe zone where at least one
/// itemset that meets the minimum support condition is hashed in").
///
/// It mirrors the NIPS bitmap's capacity discipline — geometric per-cell
/// caps anchored at the rightmost occupied cell, every cell tracked from
/// its first arrival — but each tracked cell only needs per-itemset
/// support counters, so its arena slots carry zero partner pairs (24
/// bytes each). A cell is certified only by hard evidence (some counter
/// reaching σ); crowded cells recycle their weakest counter so recurring
/// — i.e. supportable — itemsets win slots.
#[derive(Debug, Clone)]
struct SupportFringe {
    min_support: u64,
    policy: CapacityPolicy,
    /// Cells certified to contain a supported itemset.
    certified: u64,
    /// Cells currently tracking counters (an open cell may be empty —
    /// drained by shedding — and is still distinct from a never-touched
    /// one in the snapshot encoding).
    open_mask: u64,
    /// Support counters for every open cell, keyed by `(cell, key)`.
    arena: CellArena,
    top: Option<u32>,
}

impl SupportFringe {
    fn new(min_support: u64, policy: CapacityPolicy, budget: &MemoryBudget) -> Self {
        Self {
            min_support,
            policy,
            certified: 0,
            open_mask: 0,
            arena: CellArena::new(0, budget),
            top: None,
        }
    }

    /// Records one arrival; returns `(certified_now, evictions,
    /// budget_sheds)` for the metrics layer.
    #[inline]
    fn update(&mut self, i: u32, a_key: u64) -> (bool, u32, u32) {
        if self.certified >> i & 1 == 1 {
            return (false, 0, 0);
        }
        if self.min_support <= 1 {
            self.certify(i);
            return (true, 0, 0);
        }
        let mut evictions = 0u32;
        let mut sheds = 0u32;
        self.top = Some(self.top.map_or(i, |t| t.max(i)));
        let capacity = self.policy.cell_capacity(self.top.expect("just set"), i);
        self.open_mask |= 1u64 << i;
        let certify_now = match self.arena.find(i, a_key) {
            Some(idx) => {
                let mut slot = self.arena.slot_mut(idx);
                let c = slot.support() + 1;
                slot.set_support(c);
                c >= self.min_support
            }
            None => {
                if self.arena.cell_len(i) >= capacity {
                    // Deterministic tie-break by key (snapshot-replay
                    // stability).
                    let weakest = self.arena.weakest_in_cell(i).expect("capacity >= 1");
                    self.arena.remove(weakest);
                    evictions += 1;
                }
                let idx = insert_with_shed(&mut self.arena, i, a_key, &mut sheds);
                self.arena.slot_mut(idx).set_support(1);
                false
            }
        };
        if certify_now {
            self.certify(i);
        }
        // Shed the weakest counter of the most crowded cell until the
        // global budget holds — never a whole cell, so accumulated
        // support evidence survives (crucial at large σ).
        let global = self.policy.global_items();
        while self.arena.len() > global {
            let Some(crowded) = self.arena.most_crowded_cell() else {
                break;
            };
            let Some(weakest) = self.arena.weakest_in_cell(crowded) else {
                break;
            };
            self.arena.remove(weakest);
            evictions += 1;
        }
        (certify_now, evictions, sheds)
    }

    fn certify(&mut self, i: u32) {
        self.certified |= 1u64 << i;
        self.forget(i);
    }

    fn forget(&mut self, j: u32) {
        self.arena.remove_cell(j);
        self.open_mask &= !(1u64 << j);
    }

    fn entries(&self) -> usize {
        self.arena.len()
    }

    /// Serializes into a snapshot buffer.
    fn encode(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        buf.put_u64_le(self.certified);
        match self.top {
            None => buf.put_u8(0),
            Some(t) => {
                buf.put_u8(1);
                buf.put_u8(t as u8);
            }
        }
        buf.put_u8(self.open_mask.count_ones() as u8);
        for i in 0..CELLS {
            if self.open_mask >> i & 1 == 0 {
                continue;
            }
            buf.put_u8(i as u8);
            buf.put_u32_le(self.arena.cell_len(i) as u32);
            // Canonical order: identical logical state must serialize to
            // identical bytes regardless of table layout.
            let mut entries: Vec<(u64, u64)> = self
                .arena
                .slots_of_cell(i)
                .map(|idx| (self.arena.slot_key(idx), self.arena.slot(idx).support()))
                .collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            for (k, n) in entries {
                buf.put_u64_le(k);
                buf.put_u64_le(n);
            }
        }
    }

    /// Restores from a snapshot buffer.
    fn decode(
        buf: &mut bytes::Bytes,
        min_support: u64,
        policy: CapacityPolicy,
        budget: &MemoryBudget,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{need, SnapshotError};
        use bytes::Buf;
        let mut out = SupportFringe::new(min_support, policy, budget);
        need(buf, 8 + 1)?;
        out.certified = buf.get_u64_le();
        out.top = match buf.get_u8() {
            0 => None,
            1 => {
                need(buf, 1)?;
                let t = buf.get_u8() as u32;
                if t >= CELLS {
                    return Err(SnapshotError::Corrupt("support top"));
                }
                Some(t)
            }
            _ => return Err(SnapshotError::Corrupt("support top flag")),
        };
        need(buf, 1)?;
        let open = buf.get_u8() as usize;
        for _ in 0..open {
            need(buf, 1 + 4)?;
            let i = buf.get_u8() as u32;
            if i >= CELLS {
                return Err(SnapshotError::Corrupt("support cell index"));
            }
            if out.open_mask >> i & 1 == 1 {
                return Err(SnapshotError::Corrupt("duplicate support cell index"));
            }
            out.open_mask |= 1u64 << i;
            let len = buf.get_u32_le() as usize;
            need(buf, len * 16)?;
            for _ in 0..len {
                let (k, n) = (buf.get_u64_le(), buf.get_u64_le());
                let idx = match out.arena.find(i, k) {
                    Some(idx) => idx,
                    None => out.arena.insert_grow_unchecked(i, k),
                };
                out.arena.slot_mut(idx).set_support(n);
            }
        }
        Ok(out)
    }

    /// Whether this fringe has never recorded an arrival.
    fn is_pristine(&self) -> bool {
        self.certified == 0 && self.top.is_none() && self.open_mask == 0 && self.arena.len() == 0
    }

    /// Merges another node's support fringe (counts add; certification is
    /// sticky; newly-crossed thresholds certify).
    ///
    /// Inheriting a certified bit from `other` deliberately does *not*
    /// forget this fringe's own open cell at that index — the cell stays
    /// open (frozen, since updates early-return on certified bits) and is
    /// still emitted by [`SupportFringe::encode`]. This matches the
    /// pre-arena behavior exactly, which snapshot byte-identity depends
    /// on.
    fn merge(&mut self, other: &SupportFringe) {
        self.certified |= other.certified;
        self.top = match (self.top, other.top) {
            (a, None) => a,
            (None, b) => b,
            (Some(a), Some(b)) => Some(a.max(b)),
        };
        for i in 0..CELLS {
            if other.open_mask >> i & 1 == 0 {
                continue;
            }
            if self.certified >> i & 1 == 1 {
                continue;
            }
            self.open_mask |= 1u64 << i;
            for oidx in other.arena.slots_of_cell(i) {
                let k = other.arena.slot_key(oidx);
                let n = other.arena.slot(oidx).support();
                let idx = match self.arena.find(i, k) {
                    Some(idx) => idx,
                    None => self.arena.insert_grow_unchecked(i, k),
                };
                let mut slot = self.arena.slot_mut(idx);
                let c = slot.support() + n;
                slot.set_support(c);
            }
            // The threshold check covers the whole merged cell (including
            // counters `other` never touched), as the map-based merge did.
            let crossed = self
                .arena
                .slots_of_cell(i)
                .any(|idx| self.arena.slot(idx).support() >= self.min_support);
            if crossed {
                self.certify(i);
            }
        }
    }
}

/// One NIPS probabilistic-sampling bitmap.
#[derive(Debug, Clone)]
pub struct NipsBitmap {
    cond: ImplicationConditions,
    /// The §4.6 capacity geometry: fringe bound `F` and head-room
    /// multiplier (§4.3.2: "we can also double the allocated memory").
    policy: CapacityPolicy,
    /// Cells committed to value 1.
    ones: u64,
    /// Open cells: tracking state, possibly drained to empty — distinct
    /// from untouched Zone-0 cells in the snapshot encoding.
    open_mask: u64,
    /// Cells whose sticky supported flag is set (some tracked itemset
    /// reached σ while the cell was open).
    supported_mask: u64,
    /// Per-itemset state for every open cell, keyed by `(cell, key)`.
    arena: CellArena,
    /// Rightmost occupied cell (anchors the capacity geometry).
    top: Option<u32>,
    /// The monotone `F0^sup` side-structure (§4.4).
    support: SupportFringe,
}

impl NipsBitmap {
    /// Creates a bitmap with a bounded fringe of `fringe_size` cells
    /// (the paper's default is 4) and 2× capacity head-room.
    pub fn bounded(cond: ImplicationConditions, fringe_size: u32) -> Self {
        assert!(
            (1..=CELLS).contains(&fringe_size),
            "fringe size must be in 1..=64"
        );
        Self::build_with(
            cond,
            CapacityPolicy::bounded(fringe_size, 2),
            &MemoryBudget::unlimited(),
        )
    }

    /// Creates a bitmap with an unbounded fringe: cells keep full state
    /// until a non-implication is discovered. Memory is `O(F0)` — this is
    /// the accuracy yard-stick, not the constrained algorithm.
    pub fn unbounded(cond: ImplicationConditions) -> Self {
        Self::build_with(
            cond,
            CapacityPolicy::unbounded(),
            &MemoryBudget::unlimited(),
        )
    }

    /// Creates a bounded bitmap with an explicit capacity head-room
    /// multiplier (ablation hook).
    pub fn bounded_with_headroom(
        cond: ImplicationConditions,
        fringe_size: u32,
        headroom: u32,
    ) -> Self {
        assert!((1..=CELLS).contains(&fringe_size) && headroom >= 1);
        Self::build_with(
            cond,
            CapacityPolicy::bounded(fringe_size, headroom),
            &MemoryBudget::unlimited(),
        )
    }

    /// The constructor every path funnels through: both arenas (NIPS
    /// fringe and `F0^sup` side-fringe) are charged to `budget`.
    pub(crate) fn build_with(
        cond: ImplicationConditions,
        policy: CapacityPolicy,
        budget: &MemoryBudget,
    ) -> Self {
        Self {
            cond,
            policy,
            ones: 0,
            open_mask: 0,
            supported_mask: 0,
            arena: CellArena::new(cond.max_multiplicity as usize, budget),
            top: None,
            support: SupportFringe::new(cond.min_support, policy, budget),
        }
    }

    /// A same-configuration bitmap with no accumulated state, drawing on
    /// the same memory budget.
    pub(crate) fn fresh_like(&self) -> Self {
        Self::build_with(self.cond, self.policy, self.arena.budget())
    }

    /// Whether this bitmap has never recorded an arrival. Every update
    /// path either certifies a support cell, raises `top`, or opens a
    /// cell, so a pristine bitmap is exactly a never-updated one.
    fn is_pristine(&self) -> bool {
        self.ones == 0
            && self.top.is_none()
            && self.open_mask == 0
            && self.supported_mask == 0
            && self.arena.len() == 0
            && self.support.is_pristine()
    }

    /// The conditions this bitmap tracks.
    pub fn conditions(&self) -> &ImplicationConditions {
        &self.cond
    }

    /// Whether the fringe is bounded.
    pub fn is_bounded(&self) -> bool {
        self.policy.fringe.is_some()
    }

    /// Records the arrival of an `(a, b)` pair and reports what happened
    /// as an [`UpdateOutcome`] (callers that predate the observability
    /// layer may simply ignore it).
    ///
    /// * `rank` — `p(hash(a))`, the cell index (clamped to 63);
    /// * `a_key` — a collision-resistant identity for `a` (its full 64-bit
    ///   hash);
    /// * `b_fingerprint` — a 64-bit fingerprint of the `B`-itemset.
    pub fn update(&mut self, rank: u32, a_key: u64, b_fingerprint: u64) -> UpdateOutcome {
        let i = rank.min(CELLS - 1);
        let mut out = UpdateOutcome::default();
        if self.ones >> i & 1 == 1 {
            return out; // Zone-1: the event is already recorded.
        }
        let entries_before = self.arena.len() + self.support.entries();
        // The monotone F0^sup event is recorded for every arrival (a
        // value-1 cell is implicitly supported, so it can be skipped).
        let (certified, support_evictions, support_sheds) = self.support.update(i, a_key);
        out.certified = certified;
        out.evictions += support_evictions;
        out.budget_sheds += support_sheds;
        match self.policy.fringe {
            Some(_) => self.update_bounded(i, a_key, b_fingerprint, &mut out),
            None => self.update_unbounded(i, a_key, b_fingerprint, &mut out),
        }
        out.entries_delta =
            (self.arena.len() + self.support.entries()) as i32 - entries_before as i32;
        out
    }

    fn update_unbounded(&mut self, i: u32, a_key: u64, b_fp: u64, out: &mut UpdateOutcome) {
        self.open_mask |= 1u64 << i;
        let result = update_cell(
            &mut self.arena,
            &mut self.supported_mask,
            i,
            a_key,
            b_fp,
            &self.cond,
            usize::MAX,
        );
        out.dirty = result.dirty;
        out.budget_sheds += result.budget_sheds;
        if result.event == CellEvent::MustClose {
            self.commit_one(i);
            out.committed = true;
        }
    }

    /// Bounded mode. Every undecided cell may carry state; what is bounded
    /// is the per-cell capacity and the total item budget:
    ///
    /// * **per-cell capacity** follows Lemma 1's geometry anchored at the
    ///   rightmost occupied cell `top`: cell `i` expects `2^(top − i)`
    ///   itemsets, so it gets `headroom · 2^min(top − i, F − 1)` slots —
    ///   `headroom · (2^F − 1)` across the top-`F` band, the paper's §4.6
    ///   budget. Cells deeper than the band are over-loaded by definition;
    ///   they close themselves through the recurring-crowd overflow rule
    ///   (the paper's Algorithm 1 line 13, see
    ///   [`update_cell`](crate::cell)) or churn cheaply at the band cap
    ///   when the crowd is one-shot tail.
    /// * **global budget** (`2 · headroom · (2^F − 1)` items): if churny
    ///   tail cells exceed it, the weakest itemset of the most crowded
    ///   cell is shed (conservative — no violation is fabricated).
    ///
    /// Tracking every cell from its first arrival matters: the support
    /// condition counts an itemset's arrivals from the beginning, so a
    /// fringe that adopts cells late systematically under-detects at high
    /// `σ`.
    fn update_bounded(&mut self, i: u32, a_key: u64, b_fp: u64, out: &mut UpdateOutcome) {
        self.top = Some(self.top.map_or(i, |t| t.max(i)));
        let capacity = self.policy.cell_capacity(self.top.expect("just set"), i);
        self.open_mask |= 1u64 << i;
        let result = update_cell(
            &mut self.arena,
            &mut self.supported_mask,
            i,
            a_key,
            b_fp,
            &self.cond,
            capacity,
        );
        out.dirty = result.dirty;
        if result.recycled {
            out.evictions += 1;
        }
        out.budget_sheds += result.budget_sheds;
        if result.event == CellEvent::MustClose {
            self.commit_one(i);
            out.committed = true;
        }
        // Enforce the global item budget by shedding the least-supported
        // itemset of the most crowded cell — never a whole cell, so
        // accumulated evidence survives (crucial at large σ).
        let global = self.policy.global_items();
        while self.arena.len() > global {
            let Some(crowded) = self.arena.most_crowded_cell() else {
                break;
            };
            let Some(weakest) = self.arena.weakest_in_cell(crowded) else {
                break;
            };
            self.arena.remove(weakest);
            out.evictions += 1;
        }
    }

    /// Commits cell `j` to value 1, freeing its state. The supported flag
    /// is implied for value-1 cells (§4.4: Zone-1 cells by definition hold
    /// an itemset that met the support condition).
    fn commit_one(&mut self, j: u32) {
        self.ones |= 1u64 << j;
        self.drop_cell(j);
    }

    /// Drops cell `j`'s state without recording a decision.
    fn drop_cell(&mut self, j: u32) {
        self.arena.remove_cell(j);
        self.open_mask &= !(1u64 << j);
        self.supported_mask &= !(1u64 << j);
    }

    /// Whether cell `i` currently has value 1.
    pub fn is_one(&self, i: u32) -> bool {
        i < CELLS && self.ones >> i & 1 == 1
    }

    /// The Zone-1 cells as one word: bit `i` is set iff cell `i` has
    /// value 1.
    pub(crate) fn ones(&self) -> u64 {
        self.ones
    }

    /// `R_S̄` — Algorithm 2 lines 5–8: leftmost cell with value ≠ 1.
    pub fn rank_non_implication(&self) -> u32 {
        (!self.ones).trailing_zeros()
    }

    /// `R_F0sup` — Algorithm 2 lines 1–4: leftmost cell not certified to
    /// hold a supported itemset (value-1 cells count as supported by
    /// definition, §4.4).
    pub fn rank_f0_sup(&self) -> u32 {
        (!(self.ones | self.support.certified)).trailing_zeros()
    }

    /// Single-bitmap estimates `(F0^sup, S̄, S)` with the FM `φ` bias
    /// correction applied to both read-offs. Multi-bitmap averaging lives
    /// in [`crate::ImplicationEstimator`].
    pub fn estimate(&self) -> (f64, f64, f64) {
        let f0 = expand(self.rank_f0_sup());
        let sbar = expand(self.rank_non_implication());
        (f0, sbar, (f0 - sbar).max(0.0))
    }

    /// Number of tracking entries currently held: distinct itemsets in the
    /// NIPS fringe plus support counters in the `F0^sup` side-fringe. The
    /// paper's §4.6 bound is `(2^F − 1) · K` per bitmap before head-room;
    /// the side-fringe adds one more `(2^F − 1)` term (the "double the
    /// allocated memory" head-room of §4.3.2 is spent here).
    pub fn entries(&self) -> usize {
        self.arena.len() + self.support.entries()
    }

    /// Exact bytes of tracked state: the two arena tables, as reserved on
    /// the shared [`MemoryBudget`] (replaces the old `approx_bytes`
    /// heuristic).
    pub fn tracked_bytes(&self) -> usize {
        self.arena.bytes() + self.support.arena.bytes()
    }

    /// The open fringe cells as `(index, tracked itemsets)`, for
    /// diagnostics.
    pub fn open_cells(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        (0..CELLS)
            .filter(|&i| self.open_mask >> i & 1 == 1)
            .map(|i| (i, self.arena.cell_len(i)))
    }

    /// Serializes into a snapshot buffer (conditions are stored once at
    /// the estimator level).
    pub(crate) fn encode(&self, buf: &mut bytes::BytesMut) {
        use bytes::BufMut;
        match self.policy.fringe {
            None => buf.put_u8(0),
            Some(f) => {
                buf.put_u8(1);
                buf.put_u8(f as u8);
            }
        }
        buf.put_u32_le(self.policy.headroom);
        buf.put_u64_le(self.ones);
        match self.top {
            None => buf.put_u8(0),
            Some(t) => {
                buf.put_u8(1);
                buf.put_u8(t as u8);
            }
        }
        buf.put_u8(self.open_mask.count_ones() as u8);
        for i in 0..CELLS {
            if self.open_mask >> i & 1 == 0 {
                continue;
            }
            buf.put_u8(i as u8);
            buf.put_u8(u8::from(self.supported_mask >> i & 1 == 1));
            buf.put_u32_le(self.arena.cell_len(i) as u32);
            // Canonical order: identical logical state must serialize to
            // identical bytes regardless of table layout.
            let mut entries: Vec<(u64, usize)> = self
                .arena
                .slots_of_cell(i)
                .map(|idx| (self.arena.slot_key(idx), idx))
                .collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            for (key, idx) in entries {
                buf.put_u64_le(key);
                state::encode_state(&self.arena.slot(idx), buf);
            }
        }
        self.support.encode(buf);
    }

    /// Restores from a snapshot buffer, charging the restored state to
    /// `budget`.
    pub(crate) fn decode(
        buf: &mut bytes::Bytes,
        cond: ImplicationConditions,
        budget: &MemoryBudget,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{need, SnapshotError};
        use bytes::Buf;
        need(buf, 1)?;
        let fringe = match buf.get_u8() {
            0 => None,
            1 => {
                need(buf, 1)?;
                let f = buf.get_u8() as u32;
                if !(1..=CELLS).contains(&f) {
                    return Err(SnapshotError::Corrupt("fringe size"));
                }
                Some(f)
            }
            _ => return Err(SnapshotError::Corrupt("fringe flag")),
        };
        need(buf, 4 + 8 + 1)?;
        let headroom = buf.get_u32_le();
        if headroom == 0 {
            return Err(SnapshotError::Corrupt("headroom"));
        }
        let mut out = NipsBitmap::build_with(cond, CapacityPolicy { fringe, headroom }, budget);
        out.ones = buf.get_u64_le();
        out.top = match buf.get_u8() {
            0 => None,
            1 => {
                need(buf, 1)?;
                let t = buf.get_u8() as u32;
                if t >= CELLS {
                    return Err(SnapshotError::Corrupt("top"));
                }
                Some(t)
            }
            _ => return Err(SnapshotError::Corrupt("top flag")),
        };
        need(buf, 1)?;
        let open = buf.get_u8() as usize;
        for _ in 0..open {
            need(buf, 1 + 1 + 4)?;
            let i = buf.get_u8() as u32;
            if i >= CELLS {
                return Err(SnapshotError::Corrupt("cell index"));
            }
            if out.open_mask >> i & 1 == 1 {
                return Err(SnapshotError::Corrupt("duplicate cell index"));
            }
            out.open_mask |= 1u64 << i;
            match buf.get_u8() {
                0 => {}
                1 => out.supported_mask |= 1u64 << i,
                _ => return Err(SnapshotError::Corrupt("supported flag")),
            }
            let len = buf.get_u32_le() as usize;
            for _ in 0..len {
                need(buf, 8)?;
                let key = buf.get_u64_le();
                let item = crate::state::ItemState::decode(buf)?;
                // The slot's inline pair capacity is K; a partner list
                // beyond it cannot come from a well-formed snapshot.
                if item.multiplicity() > cond.max_multiplicity as usize {
                    return Err(SnapshotError::Corrupt("partner count exceeds K"));
                }
                let idx = match out.arena.find(i, key) {
                    Some(idx) => idx,
                    None => out.arena.insert_grow_unchecked(i, key),
                };
                state::store_item(&mut out.arena.slot_mut(idx), &item);
            }
        }
        out.support = SupportFringe::decode(buf, cond.min_support, out.policy, budget)?;
        Ok(out)
    }

    /// Merges a bitmap built at another node **with the same conditions,
    /// hash functions and fringe configuration** (distributed aggregation;
    /// §3 frames NIPS at "a node in a distributed environment").
    ///
    /// Value-1 cells union; per-itemset states add, and unions that expose
    /// a violation close their cell. The merge is order-blind (see
    /// [`crate::ItemState::merge`]) — the result approximates processing
    /// the concatenated stream and is exact when the nodes saw disjoint
    /// stream segments per itemset history dip, which is the common
    /// partition-by-source deployment.
    ///
    /// # Panics
    /// If the two bitmaps were built with different conditions or fringe
    /// configurations.
    pub fn merge(&mut self, other: &NipsBitmap) {
        assert_eq!(self.cond, other.cond, "conditions must match");
        assert_eq!(
            self.policy.fringe, other.policy.fringe,
            "fringe configuration must match"
        );
        // Fast paths that are also exactness guarantees: adopting a
        // bitmap into a pristine one (and ignoring a pristine other) is a
        // verbatim state transfer, which makes shard reassembly in
        // `crate::parallel` bit-exact rather than merely order-blind.
        if other.is_pristine() {
            return;
        }
        if self.is_pristine() {
            self.adopt(other);
            return;
        }
        self.support.merge(&other.support);
        self.ones |= other.ones;
        self.top = match (self.top, other.top) {
            (a, None) => a,
            (None, b) => b,
            (Some(a), Some(b)) => Some(a.max(b)),
        };
        for i in 0..CELLS {
            if other.open_mask >> i & 1 == 0 {
                continue;
            }
            if self.ones >> i & 1 == 1 {
                continue;
            }
            self.open_mask |= 1u64 << i;
            let mut must_close = false;
            for oidx in other.arena.slots_of_cell(i) {
                let key = other.arena.slot_key(oidx);
                let verdict = match self.arena.find(i, key) {
                    Some(idx) => {
                        // Materialize, merge with the battle-tested
                        // Vec-based logic, write back.
                        let mut item = state::load_item(&self.arena.slot(idx));
                        let v = item.merge(&state::load_item(&other.arena.slot(oidx)), &self.cond);
                        state::store_item(&mut self.arena.slot_mut(idx), &item);
                        v
                    }
                    None => {
                        let item = state::load_item(&other.arena.slot(oidx));
                        let idx = self.arena.insert_grow_unchecked(i, key);
                        state::store_item(&mut self.arena.slot_mut(idx), &item);
                        state::state_verdict(&mut self.arena.slot_mut(idx), &self.cond)
                    }
                };
                if verdict == Verdict::Violates {
                    must_close = true;
                }
            }
            if other.supported_mask >> i & 1 == 1 {
                self.supported_mask |= 1u64 << i;
            }
            let sigma = self.cond.min_support;
            let crossed = self
                .arena
                .slots_of_cell(i)
                .any(|idx| self.arena.slot(idx).support() >= sigma);
            if crossed {
                self.supported_mask |= 1u64 << i;
            }
            if must_close {
                self.ones |= 1u64 << i;
            }
        }
        // Drop any state made redundant by newly-merged ones.
        for i in 0..CELLS {
            if self.ones >> i & 1 == 1 {
                self.drop_cell(i);
            }
        }
    }

    /// Verbatim state transfer into a pristine bitmap: clone `other`, then
    /// move the cloned arenas' byte accounting from the donor's budget
    /// onto this bitmap's own.
    fn adopt(&mut self, other: &NipsBitmap) {
        let budget = self.arena.budget().clone();
        *self = other.clone();
        self.arena.rebind_budget(&budget);
        self.support.arena.rebind_budget(&budget);
    }
}

fn expand(rank: u32) -> f64 {
    if rank == 0 {
        0.0
    } else {
        (rank as f64).exp2() / FM_PHI
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_sketch::hash::{mix64, Hasher64, MixHasher};
    use imp_sketch::rank::lsb_rank;

    fn strict() -> ImplicationConditions {
        ImplicationConditions::strict_one_to_one(1)
    }

    /// Feeds (a, b) through a real hash like the estimator does.
    fn feed(bm: &mut NipsBitmap, a: u64, b: u64) {
        let h = MixHasher::new(9).hash_u64(a);
        bm.update(lsb_rank(h), h, mix64(b ^ 0xb0b));
    }

    #[test]
    fn empty_bitmap_reads_zero() {
        let bm = NipsBitmap::bounded(strict(), 4);
        assert_eq!(bm.rank_non_implication(), 0);
        assert_eq!(bm.rank_f0_sup(), 0);
        assert_eq!(bm.estimate(), (0.0, 0.0, 0.0));
        assert_eq!(bm.entries(), 0);
    }

    #[test]
    fn all_implicating_items_keep_sbar_zero_unbounded() {
        let mut bm = NipsBitmap::unbounded(strict());
        for a in 0..500u64 {
            feed(&mut bm, a, a); // each a has exactly one partner
            feed(&mut bm, a, a);
        }
        assert_eq!(bm.rank_non_implication(), 0, "no violation may be recorded");
        assert!(bm.rank_f0_sup() > 5, "F0^sup must track ~500 items");
        let (_, sbar, s) = bm.estimate();
        assert_eq!(sbar, 0.0);
        assert!(s > 100.0);
    }

    #[test]
    fn all_violating_items_align_read_offs() {
        // Every a appears with two partners → all violate K = 1.
        let mut bm = NipsBitmap::unbounded(strict());
        for a in 0..2000u64 {
            feed(&mut bm, a, 1);
            feed(&mut bm, a, 2);
        }
        let r_sup = bm.rank_f0_sup();
        let r_non = bm.rank_non_implication();
        assert_eq!(r_sup, r_non, "S̄ = F0^sup when everything violates");
        let (_, _, s) = bm.estimate();
        assert_eq!(s, 0.0);
    }

    #[test]
    fn bounded_fringe_holds_at_most_f_open_cells() {
        let cond = ImplicationConditions::one_to_c(2, 0.5, 1);
        let mut bm = NipsBitmap::bounded(cond, 4);
        for a in 0..10_000u64 {
            feed(&mut bm, a, a % 3);
        }
        // Open cells may span more than F indices, but the tracked
        // itemsets respect the global budget 2·headroom·(2^F − 1).
        let tracked: usize = bm.open_cells().map(|(_, len)| len).sum();
        assert!(tracked <= 2 * 2 * 15 + 1, "tracked itemsets {tracked}");
    }

    #[test]
    fn bounded_memory_is_capped() {
        // 2x head-room, F = 4 → at most 2·(8+4+2+1) = 30 itemsets tracked,
        // independent of stream length.
        let cond = ImplicationConditions::one_to_c(2, 0.5, 1);
        for n in [1_000u64, 10_000, 100_000] {
            let mut bm = NipsBitmap::bounded(cond, 4);
            let mut peak = 0usize;
            for a in 0..n {
                feed(&mut bm, a, a % 5);
                peak = peak.max(bm.entries());
            }
            // NIPS budget (60) + support side-fringe budget (60), plus a
            // transient slot — and crucially, flat across 100× growth.
            assert!(peak <= 125, "n={n}: peak entries {peak}");
        }
    }

    #[test]
    fn unbounded_and_bounded_agree_for_large_counts() {
        // Half the itemsets violate; S̄ = F0/2 ≫ 2^-4·F0, so the bounded
        // fringe introduces no additional error (§4.3.3).
        let cond = strict();
        let mut bounded = NipsBitmap::bounded(cond, 4);
        let mut unbounded = NipsBitmap::unbounded(cond);
        for a in 0..4000u64 {
            let partners: &[u64] = if a % 2 == 0 { &[1] } else { &[1, 2] };
            for &b in partners {
                feed(&mut bounded, a, b);
                feed(&mut unbounded, a, b);
            }
        }
        assert_eq!(
            bounded.rank_non_implication(),
            unbounded.rank_non_implication()
        );
        assert_eq!(bounded.rank_f0_sup(), unbounded.rank_f0_sup());
    }

    #[test]
    fn violation_in_leftmost_cell_floats_fringe() {
        let cond = strict();
        let mut bm = NipsBitmap::bounded(cond, 4);
        // Feed enough violating itemsets that low cells close one by one.
        for a in 0..200u64 {
            feed(&mut bm, a, 1);
            feed(&mut bm, a, 2);
        }
        assert!(bm.rank_non_implication() >= 3);
        // Open cells must sit right of the committed prefix.
        for (i, _) in bm.open_cells() {
            assert!(!bm.is_one(i));
        }
    }

    #[test]
    fn value_one_cells_count_as_supported() {
        // A violating itemset with support ≥ σ leaves a value-1 cell that
        // must still count toward F0^sup.
        let cond = strict();
        let mut bm = NipsBitmap::unbounded(cond);
        // One item, two partners → its cell closes.
        feed(&mut bm, 7, 1);
        feed(&mut bm, 7, 2);
        let cell = lsb_rank(MixHasher::new(9).hash_u64(7));
        if cell == 0 {
            assert_eq!(bm.rank_f0_sup(), bm.rank_non_implication());
        }
        assert_eq!(bm.rank_f0_sup(), bm.rank_non_implication());
    }

    #[test]
    fn unsupported_items_do_not_count_toward_f0_sup() {
        // σ = 5 but every item appears once: F0^sup must stay 0.
        let cond = ImplicationConditions::one_to_c(1, 1.0, 5);
        let mut bm = NipsBitmap::unbounded(cond);
        for a in 0..1000u64 {
            feed(&mut bm, a, 1);
        }
        assert_eq!(bm.rank_f0_sup(), 0);
        assert_eq!(bm.rank_non_implication(), 0);
        let (f0, sbar, s) = bm.estimate();
        assert_eq!((f0, sbar, s), (0.0, 0.0, 0.0));
    }

    #[test]
    fn update_outcome_reports_what_happened() {
        let mut bm = NipsBitmap::unbounded(strict());
        // First arrival: tracked in both fringes (σ = 1 certifies
        // immediately, so the support side holds no entry).
        let h = MixHasher::new(9).hash_u64(7);
        let first = bm.update(lsb_rank(h), h, mix64(1));
        assert!(first.certified, "σ = 1 certifies on first arrival");
        assert_eq!(first.dirty, None);
        assert!(!first.committed);
        assert_eq!(first.entries_delta, 1, "one NIPS entry tracked");
        // Second partner violates K = 1: dirty + commit, entry dropped.
        let second = bm.update(lsb_rank(h), h, mix64(2));
        assert_eq!(second.dirty, Some(crate::state::DirtyReason::Multiplicity));
        assert!(second.committed);
        assert_eq!(second.entries_delta, -1, "commit frees the cell");
        // Zone-1 arrivals are no-ops.
        let third = bm.update(lsb_rank(h), h, mix64(3));
        assert_eq!(third, UpdateOutcome::default());
        // Occupancy bookkeeping: cumulative deltas equal live entries.
        assert_eq!(bm.entries(), 0);
    }

    #[test]
    fn update_outcome_counts_evictions_under_pressure() {
        let cond = ImplicationConditions::one_to_c(2, 0.5, 2);
        let mut bm = NipsBitmap::bounded(cond, 2);
        let mut evictions = 0u64;
        let mut delta_sum = 0i64;
        for a in 0..2000u64 {
            let h = MixHasher::new(9).hash_u64(a);
            let out = bm.update(lsb_rank(h), h, mix64(a % 3));
            evictions += out.evictions as u64;
            delta_sum += out.entries_delta as i64;
        }
        assert!(
            evictions > 0,
            "a tiny fringe under 2000 itemsets must evict"
        );
        assert_eq!(
            delta_sum,
            bm.entries() as i64,
            "entries_delta must telescope to the live entry count"
        );
    }

    #[test]
    fn rank_clamps_beyond_cells() {
        let mut bm = NipsBitmap::bounded(strict(), 4);
        bm.update(200, 1, 1); // absurd rank clamps to 63
        assert_eq!(bm.entries(), 1);
    }

    #[test]
    #[should_panic(expected = "fringe size")]
    fn zero_fringe_rejected() {
        let _ = NipsBitmap::bounded(strict(), 0);
    }

    #[test]
    fn memory_budget_is_respected_under_pressure() {
        // Both arenas of the bitmap share one pinned budget: nothing may
        // grow, so tracked bytes stay at the floor forever while updates
        // shed their way through an adversarial (all-distinct) stream.
        let cond = ImplicationConditions::one_to_c(2, 0.5, 3);
        let floor =
            crate::arena::CellArena::initial_bytes(2) + crate::arena::CellArena::initial_bytes(0);
        let budget = MemoryBudget::with_limit(floor);
        let mut bm = NipsBitmap::build_with(cond, CapacityPolicy::bounded(4, 2), &budget);
        let mut sheds = 0u64;
        for a in 0..5000u64 {
            let h = MixHasher::new(9).hash_u64(a);
            sheds += bm.update(lsb_rank(h), h, mix64(a)).budget_sheds as u64;
            assert!(budget.used() <= budget.limit(), "a={a}");
        }
        assert!(sheds > 0, "a pinned budget must force shedding");
        assert_eq!(bm.tracked_bytes(), floor);
        assert_eq!(budget.used(), floor);
    }

    #[test]
    fn unconstrained_run_is_identical_to_huge_budget_run() {
        // Enforcement only gates growth, so a budget nobody hits must not
        // perturb a single bit of bitmap state.
        let cond = ImplicationConditions::one_to_c(2, 0.5, 2);
        let mut free = NipsBitmap::bounded(cond, 4);
        let mut capped = NipsBitmap::build_with(
            cond,
            CapacityPolicy::bounded(4, 2),
            &MemoryBudget::with_limit(1 << 30),
        );
        for a in 0..3000u64 {
            feed(&mut free, a, a % 3);
            feed(&mut capped, a, a % 3);
        }
        let mut b_free = bytes::BytesMut::new();
        let mut b_capped = bytes::BytesMut::new();
        free.encode(&mut b_free);
        capped.encode(&mut b_capped);
        assert_eq!(b_free, b_capped, "snapshots must be byte-identical");
    }

    proptest::proptest! {
        /// Arena-backed cells must round-trip through the wire format:
        /// decode(encode(x)) re-encodes to the same bytes, for random
        /// streams over bounded and unbounded bitmaps.
        #[test]
        fn snapshot_round_trips_arena_cells(
            ops in proptest::collection::vec((0u64..60, 0u64..6), 0..300),
            bounded in proptest::bool::ANY,
            sigma in 1u64..4,
        ) {
            let cond = ImplicationConditions::one_to_c(2, 0.5, sigma);
            let mut bm = if bounded {
                NipsBitmap::bounded(cond, 3)
            } else {
                NipsBitmap::unbounded(cond)
            };
            for &(a, b) in &ops {
                feed(&mut bm, a, b);
            }
            let mut wire = bytes::BytesMut::new();
            bm.encode(&mut wire);
            let wire = wire.freeze();
            let mut cursor = wire.clone();
            let restored =
                NipsBitmap::decode(&mut cursor, cond, &MemoryBudget::unlimited()).expect("decodes");
            proptest::prop_assert_eq!(cursor.len(), 0, "decode must consume everything");
            proptest::prop_assert_eq!(restored.entries(), bm.entries());
            proptest::prop_assert_eq!(restored.estimate(), bm.estimate());
            let mut rewire = bytes::BytesMut::new();
            restored.encode(&mut rewire);
            proptest::prop_assert_eq!(rewire.freeze(), wire, "re-encode must be byte-identical");
        }
    }
}
