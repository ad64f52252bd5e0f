//! End-to-end tracing tests through the `implicate` facade (DESIGN.md
//! §8.3).

use implicate::{
    DirtyReason, EstimatorConfig, ImplicationConditions, SpanKind, TraceEvent, TraceHandle,
};

#[test]
fn estimators_start_untraced_and_opt_in() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(2).build();
    assert!(!est.trace().is_active(), "tracing is opt-in at runtime");
    est.set_trace(TraceHandle::with_capacity(1 << 12));
    assert!(est.trace().is_active());
}

#[test]
fn journal_captures_dirty_transitions_and_commits() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(2).build();
    let trace = TraceHandle::with_capacity(1 << 14);
    est.set_trace(trace.clone());
    for a in 0..2_000u64 {
        est.update(&[a], &[1]);
        if a % 2 == 0 {
            est.update(&[a], &[2]); // second partner: violates K = 1
        }
    }

    let journal = trace.journal().expect("journal attached");
    assert!(journal.recorded() > 0);
    let events = journal.events();
    let dirty: Vec<_> = events
        .iter()
        .filter_map(|t| match t.event {
            TraceEvent::Dirty {
                reason, position, ..
            } => Some((reason, position)),
            _ => None,
        })
        .collect();
    assert!(!dirty.is_empty(), "disloyal keys must journal transitions");
    for (reason, position) in &dirty {
        assert_eq!(*reason, DirtyReason::Multiplicity);
        assert!(*position <= 3_000, "position is the tuple count");
    }
    assert!(
        events
            .iter()
            .any(|t| matches!(t.event, TraceEvent::CellCommit { .. })),
        "some loyal keys must commit cells"
    );
}

#[test]
fn batch_and_snapshot_spans_close_into_the_journal() {
    let cond = ImplicationConditions::one_to_c(2, 0.8, 2);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(4).build();
    let trace = TraceHandle::with_capacity(1 << 12);
    est.set_trace(trace.clone());
    let pairs: Vec<(u64, u64)> = (0..500u64)
        .map(|i| est.hash_pair(&[i % 100], &[i % 5]))
        .collect();
    est.update_hashed_batch(&pairs);
    let bytes = est.to_bytes();

    let spans: Vec<_> = trace
        .journal()
        .expect("journal attached")
        .events()
        .into_iter()
        .filter_map(|t| match t.event {
            TraceEvent::SpanClosed {
                kind,
                nanos,
                quantity,
            } => Some((kind, nanos, quantity)),
            _ => None,
        })
        .collect();
    let batch = spans
        .iter()
        .find(|(k, ..)| *k == SpanKind::UpdateBatch)
        .expect("update_batch span");
    assert_eq!(batch.2, 500, "span quantity is the batch size");
    let encode = spans
        .iter()
        .find(|(k, ..)| *k == SpanKind::SnapshotEncode)
        .expect("snapshot span");
    assert_eq!(encode.2, bytes.len() as u64, "span quantity is the bytes");
}

#[test]
fn batch_positions_are_stream_positions_at_every_size() {
    // A batch applies its rows in stream order and counts a Zone-1 skip
    // where it stands, so even a 4,096-row batch must journal the events
    // of 4,096 per-row calls, position for position.
    let config = EstimatorConfig::new(ImplicationConditions::one_to_c(2, 0.9, 2))
        .bitmaps(16)
        .seed(8);
    let pairs: Vec<(u64, u64)> = {
        let est = config.build();
        (0..4_096u64)
            .map(|i| {
                // Skewed repeats (commits, then Zone-1 rows), violations
                // and a one-shot tail.
                let a = if i % 3 == 0 { i % 64 } else { i };
                let b = if i % 7 == 0 { i % 5 } else { a % 11 };
                est.hash_pair(&[a], &[b])
            })
            .collect()
    };
    let journal = |batched: bool| {
        let mut est = config.build();
        let trace = TraceHandle::with_capacity(1 << 16);
        est.set_trace(trace.clone());
        if batched {
            est.update_hashed_batch(&pairs);
        } else {
            for &(h_a, b_fp) in &pairs {
                est.update_hashed(h_a, b_fp);
            }
        }
        let events = trace.journal().expect("journal attached").events();
        let updates: Vec<TraceEvent> = events
            .into_iter()
            .map(|t| t.event)
            .filter(|e| !matches!(e, TraceEvent::SpanClosed { .. }))
            .collect();
        (updates, est.metrics().estimator.zone1_skips.get())
    };
    let (per_row, _) = journal(false);
    let (batch, skips) = journal(true);
    assert!(
        per_row
            .iter()
            .any(|e| matches!(e, TraceEvent::CellCommit { .. }))
            && per_row
                .iter()
                .any(|e| matches!(e, TraceEvent::Dirty { .. })),
        "the stream must commit cells and mark keys dirty"
    );
    assert_eq!(batch, per_row);
    assert!(skips > 0, "the batch must skip Zone-1 rows");
}

#[test]
fn jsonl_drain_ends_with_the_journal_summary() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(6).build();
    est.set_trace(TraceHandle::with_capacity(64));
    // Every key betrays its first partner: thousands of journal events
    // through a 64-slot ring, so laps (drops) are guaranteed.
    for a in 0..5_000u64 {
        est.update(&[a], &[1]);
        est.update(&[a], &[2]);
    }
    let journal = est.trace().journal().expect("journal attached");
    let jsonl = journal.to_jsonl();
    let summary = jsonl.lines().last().expect("summary line");
    assert!(summary.contains("\"event\":\"journal_summary\""));
    assert!(summary.contains("\"enabled\":true"));
    // A 64-slot ring under hundreds of events must report drops.
    assert!(journal.dropped() > 0);
}

#[test]
fn budget_pressure_lifecycle_reaches_the_journal() {
    // Full lifecycle of the memory-budget pressure signal: pin the budget
    // at the construction floor (arenas can never grow), stream more
    // distinct itemsets than the initial tables hold, and the shedding
    // must surface as `BudgetPressure` events carrying stream positions.
    let cond = ImplicationConditions::strict_one_to_one(2);
    let floor = EstimatorConfig::new(cond)
        .bitmaps(16)
        .seed(9)
        .build()
        .tracked_bytes();
    let mut est = EstimatorConfig::new(cond)
        .bitmaps(16)
        .seed(9)
        .memory_budget(floor)
        .build();
    let trace = TraceHandle::with_capacity(1 << 14);
    est.set_trace(trace.clone());
    // Every key arrives once (support 1 < σ = 2): all stay tracked, so
    // admissions beyond the frozen tables must shed.
    for a in 0..4_000u64 {
        est.update(&[a], &[0]);
    }
    assert!(est.tracked_bytes() <= floor, "budget ceiling violated");

    let pressure: Vec<_> = trace
        .journal()
        .expect("journal attached")
        .events()
        .into_iter()
        .filter_map(|t| match t.event {
            TraceEvent::BudgetPressure { shed, position } => Some((shed, position)),
            _ => None,
        })
        .collect();
    assert!(
        !pressure.is_empty(),
        "a floor-pinned budget must journal pressure events"
    );
    for (shed, position) in &pressure {
        assert!(*shed >= 1, "pressure events carry the shed count");
        assert!(*position <= 4_000, "position is the tuple count");
    }
}

#[test]
fn restored_snapshots_start_untraced() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(8).build();
    est.set_trace(TraceHandle::with_capacity(1 << 10));
    for a in 0..200u64 {
        est.update(&[a], &[0]);
    }
    let restored = implicate::ImplicationEstimator::from_bytes(est.to_bytes()).expect("restore");
    assert!(
        !restored.trace().is_active(),
        "journals are process-local, not part of the snapshot"
    );
}
