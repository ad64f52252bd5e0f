//! Slab-arena cell storage: every tracked itemset is one fixed-size slot
//! in a contiguous per-bitmap table.
//!
//! # Slot layout
//!
//! `K` (the max-multiplicity condition) is fixed at configuration time,
//! so an itemset's whole state fits a fixed-size slot of `4 + 2K` u64
//! words:
//!
//! ```text
//! word 0        itemset key (full 64-bit hash)
//! word 1        support counter σ(a)   (the plain count for pair-less
//!               support-fringe arenas)
//! word 2        meta: bit 63 occupied · bits 16..48 partner count
//!                     bits 8..14 cell index · bit 1 dirty · bit 0 K-overflow
//! word 3        intrusive cell list: bits 0..32 prev slot · bits 32..64
//!               next slot (`u32::MAX` = end)
//! words 4..     up to K inline (fingerprint, count) partner pairs
//! ```
//!
//! Occupancy lives in the meta word, not the key, because a key of 0 is
//! legal. The cell index is stored per slot so one table serves all 64
//! cells of a bitmap; a slot is addressed by `(cell, key)` since the
//! same key may be fed to different cells (the rank is a caller-supplied
//! parameter).
//!
//! Word 3 threads every slot of a cell onto a doubly-linked list rooted
//! in the arena's per-cell head array. Shedding and cell teardown walk a
//! cell's own slots in O(cell length) instead of scanning the shared
//! table — the bounded fringe recycles its weakest slot on nearly every
//! tail-cell arrival, so this walk is hot-path work.
//!
//! # Table discipline
//!
//! Open addressing with linear probing and backward-shift deletion (no
//! tombstones, so probe chains never rot). The probe start is a
//! Fibonacci remix of the key — keys routed to one bitmap share their
//! low bits by construction (stochastic averaging splits on them), so
//! masking the raw key would cluster catastrophically. Growth doubles
//! the table at 7/8 load and is the *only* allocation the arena ever
//! performs after construction; it is gated on the shared
//! [`MemoryBudget`], and a denied growth surfaces as [`ArenaFull`] so
//! the caller can shed its weakest slot instead (pressure-driven
//! recycling). The table keeps at least one empty slot at all times, so
//! probes terminate.
//!
//! Byte accounting is exact: the arena reserves its table bytes on the
//! budget at construction, reserves the delta on every growth, and
//! releases on drop. [`MemoryBudget::used`](crate::MemoryBudget::used)
//! over all arenas is therefore the true tracked-state footprint.

use crate::budget::MemoryBudget;

/// Cells per bitmap (must agree with `nips::CELLS`).
const CELLS: usize = 64;

/// Initial table capacity in slots (power of two).
const INITIAL_CAP: usize = 8;

/// Fibonacci multiplier for the probe-start remix.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

const OCCUPIED: u64 = 1 << 63;
const FLAG_MULT: u64 = 1;
const FLAG_DIRTY: u64 = 1 << 1;
const CELL_SHIFT: u32 = 8;
const CELL_MASK: u64 = 0x3f << CELL_SHIFT;
const LEN_SHIFT: u32 = 16;
const LEN_MASK: u64 = 0xffff_ffff << LEN_SHIFT;

/// End-of-list marker for the intrusive per-cell slot lists.
const NIL: u32 = u32::MAX;

/// Insertion failed: the table is full and the memory budget denied
/// growth. The caller must shed a slot and retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ArenaFull;

/// A contiguous open-addressed slot table for one bitmap's tracked
/// itemsets (see the [module docs](self) for layout and discipline).
#[derive(Debug)]
pub(crate) struct CellArena {
    words: Vec<u64>,
    /// Slot capacity (power of two).
    cap: usize,
    /// Occupied slots.
    len: usize,
    /// Inline partner pairs per slot (the conditions' `K`; 0 for
    /// support-fringe arenas).
    pairs: usize,
    /// Occupied-slot count per cell index.
    cell_len: [u32; CELLS],
    /// Head slot of each cell's intrusive list ([`NIL`] = empty).
    cell_heads: [u32; CELLS],
    budget: MemoryBudget,
    /// Bytes currently reserved on `budget` for this table.
    reserved: usize,
}

impl CellArena {
    /// A fresh arena with `pairs` inline partner pairs per slot, charged
    /// against `budget`.
    pub fn new(pairs: usize, budget: &MemoryBudget) -> Self {
        let slot_words = 4 + 2 * pairs;
        let reserved = INITIAL_CAP * slot_words * 8;
        budget.reserve_unchecked(reserved);
        Self {
            words: vec![0; INITIAL_CAP * slot_words],
            cap: INITIAL_CAP,
            len: 0,
            pairs,
            cell_len: [0; CELLS],
            cell_heads: [NIL; CELLS],
            budget: budget.clone(),
            reserved,
        }
    }

    /// Table bytes an arena of this `pairs` width reserves at creation
    /// (the per-arena floor of an estimator's memory budget).
    pub fn initial_bytes(pairs: usize) -> usize {
        INITIAL_CAP * (4 + 2 * pairs) * 8
    }

    /// The budget this arena draws from.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Exact bytes reserved for the table.
    pub fn bytes(&self) -> usize {
        self.reserved
    }

    /// Occupied slots across all cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Occupied slots in cell `cell`.
    pub fn cell_len(&self, cell: u32) -> usize {
        self.cell_len[cell as usize] as usize
    }

    #[inline]
    fn slot_words(&self) -> usize {
        4 + 2 * self.pairs
    }

    #[inline]
    fn link_prev(&self, idx: usize) -> u32 {
        self.words[idx * self.slot_words() + 3] as u32
    }

    #[inline]
    fn link_next(&self, idx: usize) -> u32 {
        (self.words[idx * self.slot_words() + 3] >> 32) as u32
    }

    #[inline]
    fn set_link_prev(&mut self, idx: usize, prev: u32) {
        let w = idx * self.slot_words() + 3;
        self.words[w] = (self.words[w] & !0xffff_ffff) | prev as u64;
    }

    #[inline]
    fn set_link_next(&mut self, idx: usize, next: u32) {
        let w = idx * self.slot_words() + 3;
        self.words[w] = (self.words[w] & 0xffff_ffff) | ((next as u64) << 32);
    }

    /// Pushes occupied slot `idx` onto the head of `cell`'s list.
    #[inline]
    fn link_push(&mut self, cell: u32, idx: usize) {
        let head = self.cell_heads[cell as usize];
        let w = idx * self.slot_words() + 3;
        self.words[w] = NIL as u64 | ((head as u64) << 32);
        if head != NIL {
            self.set_link_prev(head as usize, idx as u32);
        }
        self.cell_heads[cell as usize] = idx as u32;
    }

    /// Unlinks occupied slot `idx` from `cell`'s list.
    #[inline]
    fn link_unlink(&mut self, cell: u32, idx: usize) {
        let (prev, next) = (self.link_prev(idx), self.link_next(idx));
        if prev == NIL {
            self.cell_heads[cell as usize] = next;
        } else {
            self.set_link_next(prev as usize, next);
        }
        if next != NIL {
            self.set_link_prev(next as usize, prev);
        }
    }

    /// Points `cell`-list neighbors of the slot now living at `idx` back
    /// at it (after a backward-shift relocation or a table rebuild).
    #[inline]
    fn link_retarget(&mut self, cell: u32, idx: usize) {
        let (prev, next) = (self.link_prev(idx), self.link_next(idx));
        if prev == NIL {
            self.cell_heads[cell as usize] = idx as u32;
        } else {
            self.set_link_next(prev as usize, idx as u32);
        }
        if next != NIL {
            self.set_link_prev(next as usize, idx as u32);
        }
    }

    #[inline]
    fn probe_home(&self, key: u64) -> usize {
        (key.wrapping_mul(FIB) >> (64 - self.cap.trailing_zeros())) as usize
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.words[idx * self.slot_words() + 2] & OCCUPIED != 0
    }

    /// The key stored in occupied slot `idx`.
    #[inline]
    pub fn slot_key(&self, idx: usize) -> u64 {
        self.words[idx * self.slot_words()]
    }

    /// The cell index stored in occupied slot `idx`.
    #[inline]
    pub fn slot_cell(&self, idx: usize) -> u32 {
        ((self.words[idx * self.slot_words() + 2] & CELL_MASK) >> CELL_SHIFT) as u32
    }

    /// Locates the slot tracking `(cell, key)`, if any. Allocation-free.
    ///
    /// The probe body is branchless per step: occupancy and the cell
    /// index live in the same meta word, so one masked compare fused
    /// (non-short-circuit `&`) with the key compare decides a hit, and
    /// the only branches are the two loop exits. An unoccupied slot can
    /// never satisfy the hit predicate (its `OCCUPIED` bit is clear), so
    /// testing the hit first preserves the linear-probing contract.
    #[inline]
    pub fn find(&self, cell: u32, key: u64) -> Option<usize> {
        let mask = self.cap - 1;
        let sw = self.slot_words();
        let meta_sel = OCCUPIED | CELL_MASK;
        let want_meta = OCCUPIED | ((cell as u64) << CELL_SHIFT);
        let mut i = self.probe_home(key);
        loop {
            let base = i * sw;
            let k = self.words[base];
            let meta = self.words[base + 2];
            if (k == key) & ((meta & meta_sel) == want_meta) {
                return Some(i);
            }
            if meta & OCCUPIED == 0 {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    /// Inserts a zeroed slot for `(cell, key)` (which must not already be
    /// present) and returns its index. Fails with [`ArenaFull`] when the
    /// table is full and the budget denies growth; allocation-free unless
    /// the table grows.
    pub fn try_insert(&mut self, cell: u32, key: u64) -> Result<usize, ArenaFull> {
        debug_assert!(self.find(cell, key).is_none(), "duplicate (cell, key)");
        if (self.len + 1) * 8 > self.cap * 7 && !self.grow(false) && self.len + 1 >= self.cap {
            return Err(ArenaFull);
        }
        Ok(self.insert_raw(cell, key))
    }

    /// Like [`CellArena::try_insert`], but growth bypasses the budget
    /// check ([`MemoryBudget::reserve_unchecked`]): for merge and
    /// snapshot-decode paths that must not fail mid-flight. Usage may
    /// end up above the limit; the ceiling then gates further growth
    /// (tables never shrink — see
    /// [`ImplicationEstimator::set_memory_budget`](crate::ImplicationEstimator::set_memory_budget)).
    pub fn insert_grow_unchecked(&mut self, cell: u32, key: u64) -> usize {
        debug_assert!(self.find(cell, key).is_none(), "duplicate (cell, key)");
        if (self.len + 1) * 8 > self.cap * 7 {
            self.grow(true);
        }
        self.insert_raw(cell, key)
    }

    fn insert_raw(&mut self, cell: u32, key: u64) -> usize {
        let mask = self.cap - 1;
        let mut i = self.probe_home(key);
        while self.is_occupied(i) {
            i = (i + 1) & mask;
        }
        let sw = self.slot_words();
        let base = i * sw;
        self.words[base] = key;
        self.words[base + 1] = 0;
        // Stale partner words from a previous occupant are fine: the
        // partner count in the meta word gates every read.
        self.words[base + 2] = OCCUPIED | ((cell as u64) << CELL_SHIFT);
        self.len += 1;
        self.cell_len[cell as usize] += 1;
        self.link_push(cell, i);
        i
    }

    /// Doubles the table. Returns `false` (unchanged) when `unchecked` is
    /// off and the budget denies the extra bytes.
    fn grow(&mut self, unchecked: bool) -> bool {
        let sw = self.slot_words();
        let new_cap = self.cap * 2;
        let delta = (new_cap - self.cap) * sw * 8;
        if unchecked {
            self.budget.reserve_unchecked(delta);
        } else if !self.budget.try_reserve(delta) {
            return false;
        }
        let old_words = std::mem::replace(&mut self.words, vec![0; new_cap * sw]);
        let old_cap = self.cap;
        self.cap = new_cap;
        self.reserved += delta;
        self.cell_heads = [NIL; CELLS];
        let mask = new_cap - 1;
        for s in 0..old_cap {
            let base = s * sw;
            if old_words[base + 2] & OCCUPIED == 0 {
                continue;
            }
            let mut i = self.probe_home(old_words[base]);
            while self.is_occupied(i) {
                i = (i + 1) & mask;
            }
            self.words[i * sw..(i + 1) * sw].copy_from_slice(&old_words[base..base + sw]);
            // The copied link word is stale: rethread onto the rebuilt
            // per-cell lists.
            let cell = self.slot_cell(i);
            self.link_push(cell, i);
        }
        true
    }

    /// Removes occupied slot `idx` by backward-shift deletion (probe
    /// chains stay tombstone-free). Allocation-free.
    pub fn remove(&mut self, idx: usize) {
        debug_assert!(self.is_occupied(idx));
        let sw = self.slot_words();
        let cell = self.slot_cell(idx);
        self.cell_len[cell as usize] -= 1;
        self.len -= 1;
        self.link_unlink(cell, idx);
        let mask = self.cap - 1;
        let mut hole = idx;
        let mut j = idx;
        loop {
            j = (j + 1) & mask;
            if !self.is_occupied(j) {
                break;
            }
            let home = self.probe_home(self.slot_key(j));
            // j's occupant may fill the hole iff the hole lies on its
            // probe path (home .. j, cyclically).
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.words.copy_within(j * sw..(j + 1) * sw, hole * sw);
                // The slot moved; its cell-list neighbors still point at
                // j, so aim them at the new index.
                let moved_cell = self.slot_cell(hole);
                self.link_retarget(moved_cell, hole);
                hole = j;
            }
        }
        self.words[hole * sw + 2] = 0;
    }

    /// Removes every slot of `cell`, returning how many. Walks the
    /// cell's intrusive list — backward shifts keep the list pointing at
    /// live positions, so popping the head until empty is exact.
    /// Allocation-free.
    pub fn remove_cell(&mut self, cell: u32) -> usize {
        let mut removed = 0;
        while self.cell_heads[cell as usize] != NIL {
            self.remove(self.cell_heads[cell as usize] as usize);
            removed += 1;
        }
        removed
    }

    /// Indices of cell `cell`'s slots, in the cell's list order (most
    /// recently linked first). O(cell length), not O(table).
    pub fn slots_of_cell(&self, cell: u32) -> impl Iterator<Item = usize> + '_ {
        let first = self.cell_heads[cell as usize];
        std::iter::successors((first != NIL).then_some(first as usize), move |&i| {
            let next = self.link_next(i);
            (next != NIL).then_some(next as usize)
        })
    }

    /// The slot of `cell` minimizing `(support, key)` — the deterministic
    /// recycling victim (the order is total: keys are distinct within a
    /// cell). O(cell length); allocation-free.
    pub fn weakest_in_cell(&self, cell: u32) -> Option<usize> {
        let mut best: Option<(u64, u64, usize)> = None;
        for i in self.slots_of_cell(cell) {
            let cand = (self.words[i * self.slot_words() + 1], self.slot_key(i), i);
            if best.is_none_or(|b| (cand.0, cand.1) < (b.0, b.1)) {
                best = Some(cand);
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// The cell with the most slots — the *last* such index among ties,
    /// matching the `Iterator::max_by_key` contract the `HashMap`-based
    /// shedding loop relied on. Allocation-free.
    pub fn most_crowded_cell(&self) -> Option<u32> {
        let mut best: Option<(u32, u32)> = None;
        for (c, &l) in self.cell_len.iter().enumerate() {
            match best {
                Some((_, bl)) if l < bl => {}
                _ => best = Some((c as u32, l)),
            }
        }
        best.map(|(c, _)| c)
    }

    /// Read-only view of occupied slot `idx`.
    #[inline]
    pub fn slot(&self, idx: usize) -> SlotRef<'_> {
        let sw = self.slot_words();
        SlotRef {
            words: &self.words[idx * sw..(idx + 1) * sw],
        }
    }

    /// Mutable view of occupied slot `idx`.
    #[inline]
    pub fn slot_mut(&mut self, idx: usize) -> SlotMut<'_> {
        let sw = self.slot_words();
        SlotMut {
            words: &mut self.words[idx * sw..(idx + 1) * sw],
        }
    }

    /// Moves this arena's byte accounting to another budget (used when a
    /// pristine bitmap adopts a clone whose arenas were charged to the
    /// donor's budget). No-op when the budgets already share an account.
    pub fn rebind_budget(&mut self, budget: &MemoryBudget) {
        if self.budget.same_budget(budget) {
            return;
        }
        self.budget.release(self.reserved);
        budget.reserve_unchecked(self.reserved);
        self.budget = budget.clone();
    }
}

impl Clone for CellArena {
    fn clone(&self) -> Self {
        self.budget.reserve_unchecked(self.reserved);
        Self {
            words: self.words.clone(),
            cap: self.cap,
            len: self.len,
            pairs: self.pairs,
            cell_len: self.cell_len,
            cell_heads: self.cell_heads,
            budget: self.budget.clone(),
            reserved: self.reserved,
        }
    }
}

impl Drop for CellArena {
    fn drop(&mut self) {
        self.budget.release(self.reserved);
    }
}

/// Read-only view of one slot (word layout in the [module docs](self)).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotRef<'a> {
    words: &'a [u64],
}

/// Mutable view of one slot.
#[derive(Debug)]
pub(crate) struct SlotMut<'a> {
    words: &'a mut [u64],
}

macro_rules! slot_getters {
    ($ty:ident) => {
        impl $ty<'_> {
            /// The slot's itemset key.
            #[inline]
            #[allow(dead_code)] // callers mostly go through `slot_key`
            pub fn key(&self) -> u64 {
                self.words[0]
            }

            /// `σ(a)` (or the raw count for support-fringe slots).
            #[inline]
            pub fn support(&self) -> u64 {
                self.words[1]
            }

            /// Whether the multiplicity overflowed `K`.
            #[inline]
            pub fn mult_exceeded(&self) -> bool {
                self.words[2] & FLAG_MULT != 0
            }

            /// Whether the itemset has ever violated the conditions.
            #[inline]
            pub fn dirty(&self) -> bool {
                self.words[2] & FLAG_DIRTY != 0
            }

            /// Live partner pairs.
            #[inline]
            pub fn partner_len(&self) -> usize {
                ((self.words[2] & LEN_MASK) >> LEN_SHIFT) as usize
            }

            /// Partner pair `i` as `(fingerprint, count)`.
            #[inline]
            pub fn partner(&self, i: usize) -> (u64, u64) {
                debug_assert!(i < self.partner_len());
                (self.words[4 + 2 * i], self.words[5 + 2 * i])
            }
        }
    };
}

slot_getters!(SlotRef);
slot_getters!(SlotMut);

impl SlotMut<'_> {
    /// Overwrites the support counter.
    #[inline]
    pub fn set_support(&mut self, v: u64) {
        self.words[1] = v;
    }

    /// Sets the K-overflow flag.
    #[inline]
    pub fn set_mult_exceeded(&mut self, v: bool) {
        if v {
            self.words[2] |= FLAG_MULT;
        } else {
            self.words[2] &= !FLAG_MULT;
        }
    }

    /// Sets the dirty flag.
    #[inline]
    pub fn set_dirty(&mut self, v: bool) {
        if v {
            self.words[2] |= FLAG_DIRTY;
        } else {
            self.words[2] &= !FLAG_DIRTY;
        }
    }

    /// Overwrites partner pair `i` (which must be live).
    #[inline]
    pub fn set_partner(&mut self, i: usize, fp: u64, n: u64) {
        debug_assert!(i < self.partner_len());
        self.words[4 + 2 * i] = fp;
        self.words[5 + 2 * i] = n;
    }

    /// Appends a partner pair (capacity `K` is the caller's invariant).
    #[inline]
    pub fn push_partner(&mut self, fp: u64, n: u64) {
        let len = self.partner_len();
        debug_assert!(4 + 2 * len < self.words.len(), "slot partner overflow");
        self.words[4 + 2 * len] = fp;
        self.words[5 + 2 * len] = n;
        self.words[2] = (self.words[2] & !LEN_MASK) | (((len as u64) + 1) << LEN_SHIFT);
    }

    /// Drops every partner pair.
    #[inline]
    pub fn clear_partners(&mut self) {
        self.words[2] &= !LEN_MASK;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(pairs: usize) -> CellArena {
        CellArena::new(pairs, &MemoryBudget::unlimited())
    }

    #[test]
    fn insert_find_remove_round_trip() {
        let mut a = arena(2);
        let i = a.try_insert(3, 0xdead).unwrap();
        assert_eq!(a.find(3, 0xdead), Some(i));
        assert_eq!(a.find(4, 0xdead), None, "cell is part of the identity");
        assert_eq!(a.len(), 1);
        assert_eq!(a.cell_len(3), 1);
        a.remove(i);
        assert_eq!(a.find(3, 0xdead), None);
        assert_eq!(a.len(), 0);
        assert_eq!(a.cell_len(3), 0);
    }

    #[test]
    fn key_zero_is_a_legal_key() {
        let mut a = arena(1);
        let i = a.try_insert(0, 0).unwrap();
        assert_eq!(a.find(0, 0), Some(i));
        a.remove(i);
        assert_eq!(a.find(0, 0), None);
    }

    #[test]
    fn same_key_in_two_cells_resolves_per_cell() {
        let mut a = arena(1);
        let i3 = a.try_insert(3, 77).unwrap();
        let i9 = a.try_insert(9, 77).unwrap();
        assert_ne!(i3, i9, "same key, different cells → distinct slots");
        assert_eq!(a.find(3, 77), Some(i3));
        assert_eq!(a.find(9, 77), Some(i9));
        a.remove(i3);
        assert_eq!(a.find(3, 77), None);
        // Backward-shift deletion may relocate the sibling; it must stay
        // findable with its identity intact.
        let at = a.find(9, 77).expect("sibling cell survives removal");
        assert_eq!((a.slot_key(at), a.slot_cell(at)), (77, 9));
    }

    #[test]
    fn growth_preserves_every_slot_and_charges_budget() {
        let budget = MemoryBudget::unlimited();
        let mut a = CellArena::new(1, &budget);
        let base = a.bytes();
        assert_eq!(budget.used(), base);
        for k in 0..100u64 {
            let idx = a.try_insert((k % 7) as u32, k * 31).unwrap();
            let mut s = a.slot_mut(idx);
            s.set_support(k + 1);
            s.push_partner(k, 2 * k + 1);
        }
        assert!(a.bytes() > base, "100 slots force growth past 8");
        assert_eq!(budget.used(), a.bytes(), "accounting is exact");
        for k in 0..100u64 {
            let idx = a.find((k % 7) as u32, k * 31).expect("survives growth");
            let s = a.slot(idx);
            assert_eq!(s.support(), k + 1);
            assert_eq!(s.partner(0), (k, 2 * k + 1));
        }
    }

    #[test]
    fn denied_growth_fills_to_the_brim_then_errs() {
        let budget = MemoryBudget::with_limit(CellArena::initial_bytes(0));
        let mut a = CellArena::new(0, &budget);
        let mut inserted = 0;
        let err = loop {
            match a.try_insert(0, inserted) {
                Ok(_) => inserted += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, ArenaFull);
        assert_eq!(inserted, INITIAL_CAP as u64 - 1, "one slot stays empty");
        // Shedding one admits one.
        a.remove(a.weakest_in_cell(0).unwrap());
        assert!(a.try_insert(0, 999).is_ok());
        assert!(a.try_insert(0, 1000).is_err());
    }

    #[test]
    fn unchecked_insert_grows_past_the_limit() {
        let budget = MemoryBudget::with_limit(CellArena::initial_bytes(0));
        let mut a = CellArena::new(0, &budget);
        for k in 0..50 {
            a.insert_grow_unchecked(1, k);
        }
        assert_eq!(a.len(), 50);
        assert!(
            budget.used() > budget.limit(),
            "transient overshoot allowed"
        );
        assert_eq!(budget.used(), a.bytes());
    }

    #[test]
    fn backward_shift_keeps_colliding_chains_findable() {
        // Many keys, tiny cell spread: every removal exercises the shift.
        let mut a = arena(0);
        let keys: Vec<u64> = (0..200).map(|k| k * 0x1_0001).collect();
        for &k in &keys {
            a.try_insert(5, k).unwrap();
        }
        for (n, &k) in keys.iter().enumerate() {
            let idx = a.find(5, k).expect("present before removal");
            a.remove(idx);
            assert_eq!(a.find(5, k), None);
            for &later in &keys[n + 1..] {
                assert!(a.find(5, later).is_some(), "chain broken at {later:#x}");
            }
        }
        assert_eq!(a.len(), 0);
    }

    #[test]
    fn remove_cell_catches_wraparound_stragglers() {
        let mut a = arena(0);
        for k in 0..300u64 {
            a.try_insert((k % 3) as u32, k.wrapping_mul(0x9E37_79B9))
                .unwrap();
        }
        let removed = a.remove_cell(1);
        assert_eq!(removed, 100);
        assert_eq!(a.cell_len(1), 0);
        assert_eq!(a.len(), 200);
        for k in 0..300u64 {
            let key = k.wrapping_mul(0x9E37_79B9);
            let want = k % 3 != 1;
            assert_eq!(a.find((k % 3) as u32, key).is_some(), want, "k={k}");
        }
    }

    #[test]
    fn weakest_is_min_by_support_then_key() {
        let mut a = arena(0);
        for (key, support) in [(10u64, 5u64), (11, 2), (12, 2), (13, 9)] {
            let i = a.try_insert(7, key).unwrap();
            a.slot_mut(i).set_support(support);
        }
        let w = a.weakest_in_cell(7).unwrap();
        assert_eq!(a.slot_key(w), 11, "support ties break on the lower key");
        assert_eq!(a.weakest_in_cell(6), None);
    }

    #[test]
    fn most_crowded_prefers_the_last_max_like_max_by_key() {
        let mut a = arena(0);
        a.try_insert(2, 1).unwrap();
        a.try_insert(9, 2).unwrap();
        assert_eq!(a.most_crowded_cell(), Some(9), "tie → last index");
        a.try_insert(2, 3).unwrap();
        assert_eq!(a.most_crowded_cell(), Some(2));
    }

    #[test]
    fn clone_and_drop_balance_the_budget() {
        let budget = MemoryBudget::unlimited();
        let a = CellArena::new(2, &budget);
        let bytes = a.bytes();
        {
            let _b = a.clone();
            assert_eq!(budget.used(), 2 * bytes);
        }
        assert_eq!(budget.used(), bytes);
        drop(a);
        assert_eq!(budget.used(), 0);
    }

    #[test]
    fn rebind_moves_the_accounting() {
        let donor = MemoryBudget::unlimited();
        let mine = MemoryBudget::unlimited();
        let mut a = CellArena::new(1, &donor);
        let bytes = a.bytes();
        a.rebind_budget(&mine);
        assert_eq!(donor.used(), 0);
        assert_eq!(mine.used(), bytes);
        a.rebind_budget(&mine); // no-op on the same account
        assert_eq!(mine.used(), bytes);
    }

    #[test]
    fn slot_flags_and_partners_round_trip() {
        let mut a = arena(3);
        let i = a.try_insert(0, 42).unwrap();
        {
            let mut s = a.slot_mut(i);
            s.set_support(7);
            s.set_mult_exceeded(true);
            s.set_dirty(true);
            s.push_partner(100, 1);
            s.push_partner(200, 2);
            s.set_partner(0, 101, 3);
        }
        let s = a.slot(i);
        assert_eq!(s.key(), 42);
        assert_eq!(s.support(), 7);
        assert!(s.mult_exceeded() && s.dirty());
        assert_eq!(s.partner_len(), 2);
        assert_eq!(s.partner(0), (101, 3));
        assert_eq!(s.partner(1), (200, 2));
        let mut s = a.slot_mut(i);
        s.clear_partners();
        s.set_mult_exceeded(false);
        s.set_dirty(false);
        let s = a.slot(i);
        assert_eq!(s.partner_len(), 0);
        assert!(!s.mult_exceeded() && !s.dirty());
        assert_eq!(s.support(), 7, "flags edits must not clobber support");
    }
}
