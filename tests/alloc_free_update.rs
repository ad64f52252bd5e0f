//! Proves the arena-backed estimator's steady-state update path is
//! allocation-free: once every key has been admitted and the slab tables
//! have grown to their working size, `update()` must never touch the
//! heap — the whole hot path runs over preallocated arena slots.
//!
//! Isolated in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

// Implementing `GlobalAlloc` needs `unsafe`, which the workspace denies
// everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use implicate::{EstimatorConfig, ImplicationConditions, ShardedEstimator};

struct CountingAlloc;

thread_local! {
    /// Per-thread allocation count, so concurrent test threads and the
    /// harness itself cannot pollute a measurement.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_update_performs_zero_allocations() {
    // Loyal keys under a high σ: every key stays open and tracked, so the
    // working set is fixed after the warm pass and later updates only
    // find-and-bump existing arena slots.
    let cond = ImplicationConditions::strict_one_to_one(1_000_000);
    let mut est = EstimatorConfig::new(cond).bitmaps(32).seed(13).build();
    let keys: Vec<(u64, u64)> = (0..256u64).map(|a| (a, a % 4)).collect();

    // Warm: admit every key and let every table reach its working shape
    // (arena growth is allowed to allocate here).
    for _ in 0..2 {
        for &(a, b) in &keys {
            est.update(&[a], &[b]);
        }
    }

    let before = allocs_on_this_thread();
    for _ in 0..200 {
        for &(a, b) in &keys {
            est.update(&[a], &[b]);
        }
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state update allocated on the hot path"
    );
    assert!(est.entries() > 0, "keys are still tracked");
}

#[test]
fn steady_state_update_hashed_performs_zero_allocations() {
    // Same contract one layer down: the pre-hashed entry point the
    // sharded pipeline drives must be equally quiet.
    let cond = ImplicationConditions::strict_one_to_one(1_000_000);
    let mut est = EstimatorConfig::new(cond).bitmaps(32).seed(29).build();
    let hashed: Vec<(u64, u64)> = (0..256u64).map(|a| est.hash_pair(&[a], &[a % 4])).collect();

    for &(h_a, b_fp) in &hashed {
        est.update_hashed(h_a, b_fp);
    }

    let before = allocs_on_this_thread();
    for _ in 0..200 {
        for &(h_a, b_fp) in &hashed {
            est.update_hashed(h_a, b_fp);
        }
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state update_hashed allocated on the hot path"
    );
}

#[test]
fn steady_state_large_batch_update_performs_zero_allocations() {
    // A batch four times what a sharded lane ships: once the warm
    // passes have admitted every key, each later batch only finds and
    // bumps existing arena slots.
    let cond = ImplicationConditions::strict_one_to_one(1_000_000);
    let mut est = EstimatorConfig::new(cond).bitmaps(32).seed(29).build();
    let hashed: Vec<(u64, u64)> = (0..4_096u64)
        .map(|a| est.hash_pair(&[a], &[a % 4]))
        .collect();

    for _ in 0..2 {
        est.update_hashed_batch(&hashed);
    }

    let before = allocs_on_this_thread();
    for _ in 0..200 {
        est.update_hashed_batch(&hashed);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state large batch update allocated on the hot path"
    );
}

#[test]
fn sharded_ingest_across_the_lane_queues_keeps_the_router_off_the_heap() {
    // The batch handoff contract one layer up: once the recycle queues'
    // seeded buffer pools are circulating, the router's steady state —
    // fill a buffer, ship it down the forward queue, reclaim a drained
    // one from the reverse queue, quiesce at a barrier — must never
    // allocate on the routing thread. (Worker threads count their own
    // allocations; the thread-local counter isolates the router.)
    let cond = ImplicationConditions::strict_one_to_one(1_000_000);
    let est = EstimatorConfig::new(cond).bitmaps(32).seed(13).build();
    let mut sharded = ShardedEstimator::new(est, 3);
    let hasher = sharded.pair_hasher();
    // One burst stays within LANE_DEPTH × BATCH pairs (8 × 1024), so even
    // if every batch hashed to the same lane its ships fit the seeded
    // buffer pool without waiting on the worker to recycle mid-burst.
    let hashed: Vec<(u64, u64)> = (0..4_096u64)
        .map(|a| hasher.hash_pair(&[a], &[a % 4]))
        .collect();

    // Warm: admit every key and let each shard's arena reach its working
    // shape (growth may allocate here, on the workers).
    for _ in 0..2 {
        sharded.update_hashed_batch(&hashed);
        sharded.barrier();
    }

    let before = allocs_on_this_thread();
    for _ in 0..50 {
        sharded.update_hashed_batch(&hashed);
        sharded.barrier();
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "router allocated on the steady-state lane handoff"
    );
    let est = sharded.finish();
    assert_eq!(est.tuples_seen(), 52 * 4_096);
}

#[test]
fn shedding_under_a_floor_budget_is_also_allocation_free() {
    // Pressure shedding recycles slots in place — even the degenerate
    // floor-pinned budget (every admission sheds) must stay off the heap
    // once the initial tables exist.
    let cond = ImplicationConditions::strict_one_to_one(2);
    let floor = EstimatorConfig::new(cond)
        .bitmaps(16)
        .seed(17)
        .build()
        .tracked_bytes();
    let mut est = EstimatorConfig::new(cond)
        .bitmaps(16)
        .seed(17)
        .memory_budget(floor)
        .build();
    for a in 0..512u64 {
        est.update(&[a], &[0]);
    }

    let before = allocs_on_this_thread();
    for a in 512..4_096u64 {
        est.update(&[a], &[0]);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "budget shedding allocated on the hot path"
    );
    assert!(est.tracked_bytes() <= floor);
}
