//! Proves the catalog's steady-state batch path is allocation-free:
//! once the per-attribute hash scratch columns and every query's arena
//! have reached working size, `process_batch` over N co-resident
//! queries must never touch the heap — the multi-query pass costs
//! arithmetic, not allocations.
//!
//! Isolated in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

// Implementing `GlobalAlloc` needs `unsafe`, which the workspace denies
// everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use implicate::query::Filter;
use implicate::stream::AttrId;
use implicate::{
    AttrSet, EstimatorConfig, HashedBatch, ImplicationConditions, ImplicationQuery, QueryCatalog,
    Schema, ShardedCatalog, Tuple,
};

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
fn steady_state_process_batch_performs_zero_allocations() {
    // Loyal keys under a high σ keep every cell open and tracked, so
    // after the warm passes each query's working set is fixed and
    // updates only find-and-bump existing arena slots.
    let schema = Schema::new([("Src", 0), ("Dst", 0), ("Svc", 0)]);
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1_000_000))
        .bitmaps(16)
        .seed(7);
    let mut catalog = QueryCatalog::new(&schema, template);
    let (src, dst, svc) = (
        schema.attr_set(&["Src"]),
        schema.attr_set(&["Dst"]),
        schema.attr_set(&["Svc"]),
    );
    catalog.register("loyal", ImplicationQuery::one_to_one(src, dst, 1));
    catalog.register("pair", ImplicationQuery::at_most(src.union(svc), dst, 2, 1));
    catalog.register("services", ImplicationQuery::distinct_count(svc));
    // A filtered query exercises the skip path on the same batches.
    catalog.register(
        "filtered",
        ImplicationQuery::one_to_one(src, dst, 1).filtered(Filter::new().and_eq(AttrId(2), 0)),
    );

    let batch: Vec<Tuple> = (0..256u64)
        .map(|i| Tuple::from([i, i % 5, i % 3]))
        .collect();

    // Warm: admit every key, grow the shared hash columns to the batch
    // width, and let every arena reach its working shape (growth may
    // allocate here).
    for _ in 0..2 {
        catalog.process_batch(&batch);
    }

    let before = allocs_on_this_thread();
    for _ in 0..200 {
        catalog.process_batch(&batch);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state catalog process_batch allocated on the hot path"
    );
    assert_eq!(catalog.tuples_seen(), 202 * 256);
    assert!(catalog.tracked_bytes() > 0, "queries are still tracked");
}

#[test]
fn steady_state_process_hashed_performs_zero_allocations() {
    // The batch currency one layer up: applying a pre-hashed columnar
    // [`HashedBatch`] to every query — combiner fold into the shared
    // pair scratch, in-order estimator update, filters walking the raw
    // tuples — must never touch the heap once warm. This is exactly the
    // per-batch path every `ShardedCatalog` lane runs, so a quiet run
    // here certifies the `--threads N` catalog workers' steady state.
    let schema = Schema::new([("Src", 0), ("Dst", 0), ("Svc", 0)]);
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1_000_000))
        .bitmaps(16)
        .seed(23);
    let mut catalog = QueryCatalog::new(&schema, template);
    let (src, dst, svc) = (
        schema.attr_set(&["Src"]),
        schema.attr_set(&["Dst"]),
        schema.attr_set(&["Svc"]),
    );
    catalog.register("loyal", ImplicationQuery::one_to_one(src, dst, 1));
    catalog.register("pair", ImplicationQuery::at_most(src.union(svc), dst, 2, 1));
    catalog.register(
        "filtered",
        ImplicationQuery::one_to_one(src, dst, 1).filtered(Filter::new().and_eq(AttrId(2), 0)),
    );
    // Siblings sharing an antecedent: two more on `src` (one of them a
    // distinct count) join `loyal`'s pass, and one joins `filtered`'s,
    // so the grouped pass runs its mask, scan and candidate lanes here.
    catalog.register("fanout", ImplicationQuery::more_than(src, svc, 2, 1));
    catalog.register("sources", ImplicationQuery::distinct_count(src));
    catalog.register(
        "filtered_sibling",
        ImplicationQuery::at_most(src, dst, 2, 1).filtered(Filter::new().and_eq(AttrId(2), 0)),
    );

    // Hash the workload once; steady state re-applies the same batch.
    let tuples: Vec<Tuple> = (0..256u64)
        .map(|i| Tuple::from([i, i % 5, i % 3]))
        .collect();
    let mut batch = HashedBatch::new();
    catalog.hasher().clone().hash_batch(tuples, &mut batch);

    for _ in 0..2 {
        catalog.process_hashed(&batch);
    }

    let before = allocs_on_this_thread();
    for _ in 0..200 {
        catalog.process_hashed(&batch);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state catalog process_hashed allocated on the hot path"
    );
    assert_eq!(catalog.tuples_seen(), 202 * 256);
}

#[test]
fn sharded_router_stays_off_the_heap() {
    // The `--threads N` catalog's router thread: it ships each batch to
    // every lane in a pooled `Arc`, asks the lanes to publish, and
    // quiesces them at barriers. None of that may touch its heap once
    // warm; the caller refills the batches the router hands back.
    let schema = Schema::new([("Src", 0), ("Dst", 0), ("Svc", 0)]);
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1_000_000))
        .bitmaps(16)
        .seed(31);
    let mut catalog = QueryCatalog::new(&schema, template);
    let (src, dst, svc) = (
        schema.attr_set(&["Src"]),
        schema.attr_set(&["Dst"]),
        schema.attr_set(&["Svc"]),
    );
    catalog.register("loyal", ImplicationQuery::one_to_one(src, dst, 1));
    catalog.register("services", ImplicationQuery::distinct_count(svc));
    catalog.register("pair", ImplicationQuery::at_most(src.union(svc), dst, 2, 1));
    let mut sharded = ShardedCatalog::new(catalog, 2);

    // More batches than the router's pool holds, so the caller always
    // has one to ship while the rest are in flight or pooled.
    let hasher = sharded.hasher().clone();
    let mut mine: Vec<HashedBatch> = Vec::with_capacity(64);
    for round in 0..16u64 {
        let tuples: Vec<Tuple> = (0..256u64)
            .map(|i| Tuple::from([round * 256 + i, i % 5, i % 3]))
            .collect();
        let mut batch = HashedBatch::new();
        hasher.hash_batch(tuples, &mut batch);
        mine.push(batch);
    }
    let mut shipped = 0u64;
    let mut round = |sharded: &mut ShardedCatalog, mine: &mut Vec<HashedBatch>, i: u64| {
        let batch = mine.pop().expect("the caller keeps batches to ship");
        shipped += batch.len() as u64;
        let back = sharded.process_hashed(batch);
        if !back.is_empty() {
            mine.push(back);
        }
        if i.is_multiple_of(4) {
            sharded.publish();
        }
        if i.is_multiple_of(16) {
            sharded.barrier();
        }
    };
    // Warm: the lanes' arenas reach working size and every channel the
    // barrier waits on has been used once.
    for i in 0..64 {
        round(&mut sharded, &mut mine, i);
    }

    let before = allocs_on_this_thread();
    for i in 0..400 {
        round(&mut sharded, &mut mine, i);
    }
    sharded.publish();
    sharded.barrier();
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before,
        0,
        "steady-state sharded catalog router allocated"
    );
    assert_eq!(sharded.tuples_seen(), shipped);
    let done = sharded.finish();
    assert_eq!(done.tuples_seen(), shipped);
}

#[test]
fn wait_free_reads_stay_off_the_heap() {
    // The per-query readers the catalog hands out answer from published
    // view slots; reading (view resolution + estimate) must not
    // allocate, or a tight polling client would put pressure on the
    // writer's allocator.
    let schema = Schema::new([("Src", 0), ("Dst", 0)]);
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1_000_000))
        .bitmaps(16)
        .seed(11);
    let mut catalog = QueryCatalog::new(&schema, template);
    let id = catalog.register(
        "loyal",
        ImplicationQuery::one_to_one(AttrSet::from_bits(1), AttrSet::from_bits(2), 1),
    );
    let reader = catalog.reader(id).expect("registered");

    let batch: Vec<Tuple> = (0..128u64).map(|i| Tuple::from([i, i % 4])).collect();
    catalog.process_batch(&batch);
    catalog.publish();
    let _ = reader.view().estimate();

    let before = allocs_on_this_thread();
    for _ in 0..200 {
        let view = reader.view();
        assert!(view.tuples() > 0);
        let _ = view.estimate();
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "wait-free read allocated");
}
