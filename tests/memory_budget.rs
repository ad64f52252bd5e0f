//! End-to-end contract of the enforced global memory budget, through the
//! `implicate` facade: tracked-state bytes never exceed a configured
//! ceiling, pressure shedding is observable, and the *absence* of a
//! budget changes nothing — bit for bit.
//!
//! Budgeted runs are kept sequential: under sharded ingestion the ceiling
//! still holds but shed victims depend on thread interleaving (see the
//! `imp_core::parallel` module docs).

use implicate::{EstimatorConfig, ImplicationConditions};

fn cond() -> ImplicationConditions {
    ImplicationConditions::one_to_c(2, 0.5, 3)
}

/// The exact byte floor an estimator of this shape reserves at
/// construction (initial arena tables; nothing has grown yet).
fn construction_floor(c: ImplicationConditions, bitmaps: usize, seed: u64) -> usize {
    EstimatorConfig::new(c)
        .bitmaps(bitmaps)
        .seed(seed)
        .build()
        .tracked_bytes()
}

#[test]
fn tracked_bytes_never_exceed_the_budget() {
    let floor = construction_floor(cond(), 16, 3);
    // Head-room for a few arena doublings, far below unconstrained needs.
    let limit = floor * 2;
    let mut est = EstimatorConfig::new(cond())
        .bitmaps(16)
        .seed(3)
        .memory_budget(limit)
        .build();
    assert_eq!(est.memory_budget().limit(), limit);
    for a in 0..20_000u64 {
        est.update(&[a % 7_000], &[a % 5]);
        assert!(
            est.memory_budget().used() <= limit,
            "budget exceeded at tuple {a}: {} > {limit}",
            est.memory_budget().used()
        );
    }
    assert!(est.tracked_bytes() <= limit);
    let m = est.metrics().registry();
    assert!(
        m.estimator.shed_events.get() > 0,
        "an under-provisioned budget must shed"
    );
    assert_eq!(m.estimator.mem_budget.get(), limit as u64);
    assert_eq!(m.estimator.mem_bytes.get(), est.tracked_bytes() as u64);
    assert!(m.estimator.mem_bytes.peak() <= limit as u64);
    // Still answers: a constrained sketch degrades, it does not break.
    assert!(est.estimate_now().implication_count.is_finite());
}

#[test]
fn no_budget_is_bit_identical_to_a_huge_budget() {
    // The enforcement path must be invisible when it never bites: a run
    // with a budget nothing approaches serializes byte-identically to a
    // run with no budget at all.
    let mut plain = EstimatorConfig::new(cond()).bitmaps(32).seed(5).build();
    let mut capped = EstimatorConfig::new(cond())
        .bitmaps(32)
        .seed(5)
        .memory_budget(1 << 30)
        .build();
    for a in 0..30_000u64 {
        plain.update(&[a % 9_000], &[a % 4]);
        capped.update(&[a % 9_000], &[a % 4]);
    }
    assert_eq!(plain.estimate_now(), capped.estimate_now());
    assert_eq!(plain.to_bytes(), capped.to_bytes());
}

#[test]
fn snapshot_restore_rearms_the_budget() {
    let floor = construction_floor(cond(), 16, 7);
    let limit = floor * 2;
    let mut est = EstimatorConfig::new(cond())
        .bitmaps(16)
        .seed(7)
        .memory_budget(limit)
        .build();
    for a in 0..5_000u64 {
        est.update(&[a], &[a % 3]);
    }
    let mut restored =
        implicate::ImplicationEstimator::from_bytes(est.to_bytes()).expect("restore");
    // Restoration is deliberately unbudgeted (persisted state must load);
    // the ceiling is re-armed explicitly, as the CLI does after --resume.
    // Decode rebuilds tables at the canonical load factor, so the
    // restored footprint may exceed the old ceiling that squeezed them —
    // the re-armed budget bounds growth from wherever restore landed.
    assert!(!restored.memory_budget().is_limited());
    let ceiling = restored.memory_budget().used().max(limit);
    restored.set_memory_budget(Some(ceiling));
    assert_eq!(restored.memory_budget().limit(), ceiling);
    for a in 5_000..15_000u64 {
        restored.update(&[a], &[a % 3]);
        assert!(
            restored.memory_budget().used() <= ceiling,
            "re-armed budget exceeded at tuple {a}"
        );
    }
}

#[test]
fn lifting_the_budget_resumes_growth() {
    let floor = construction_floor(cond(), 16, 11);
    let mut est = EstimatorConfig::new(cond())
        .bitmaps(16)
        .seed(11)
        .memory_budget(floor)
        .build();
    for a in 0..3_000u64 {
        est.update(&[a], &[0]);
    }
    let frozen = est.tracked_bytes();
    assert_eq!(frozen, floor, "a floor budget freezes every table");
    est.set_memory_budget(None);
    assert!(!est.memory_budget().is_limited());
    for a in 3_000..6_000u64 {
        est.update(&[a], &[0]);
    }
    assert!(
        est.tracked_bytes() > frozen,
        "lifting the ceiling must let arenas grow again"
    );
}
