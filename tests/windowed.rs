//! Direct coverage of the windowed counters (`core::sliding`,
//! `core::incremental`) through the `implicate` facade, including the
//! dirty-transition journal contract.

use implicate::core::incremental::IncrementalCounter;
use implicate::core::sliding::{MovingAverage, SlidingEstimator};
use implicate::sketch::estimate::relative_error;
use implicate::{
    DirtyReason, EstimatorConfig, ExactCounter, Fringe, ImplicationConditions, ImplicationCounter,
    TraceEvent, TraceHandle,
};

fn strict_config(seed: u64) -> EstimatorConfig {
    EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1)).seed(seed)
}

#[test]
fn sliding_windows_retire_on_schedule_and_bound_memory() {
    let mut s = SlidingEstimator::new(strict_config(11), 800, 400);
    let mut origins = Vec::new();
    for i in 0..2_400u64 {
        if let Some(w) = s.update(&[i % 300], &[0]) {
            origins.push(w.origin);
            assert!(w.estimate.f0_sup > 0.0);
        }
    }
    assert_eq!(origins, vec![0, 400, 800, 1200, 1600]);
    assert!(
        s.open_origins() <= 2,
        "width/step = 2 bounds concurrent origins"
    );
    assert_eq!(s.position(), 2_400);
}

#[test]
fn sliding_estimates_follow_a_regime_change() {
    // Loyal regime, then every key takes a second partner: per-window
    // implication counts must collapse across the transition.
    let mut s = SlidingEstimator::new(strict_config(13), 1_000, 1_000);
    let mut counts = Vec::new();
    for i in 0..2_000u64 {
        let a = [i % 250];
        // Phase 2: each key's partner flips 0,1,0,1 across its four
        // occurrences per window, violating K = 1 for every key.
        let b = if i < 1_000 { [a[0]] } else { [(i / 250) % 2] };
        if let Some(w) = s.update(&a, &b) {
            counts.push(w.estimate.implication_count);
        }
    }
    assert_eq!(counts.len(), 2);
    let loyal_err = relative_error(250.0, counts[0]);
    assert!(loyal_err < 0.35, "loyal window err {loyal_err}");
    assert!(
        counts[1] < 0.3 * counts[0],
        "disloyal window {:.0} must collapse vs loyal {:.0}",
        counts[1],
        counts[0]
    );
}

#[test]
fn moving_average_smooths_closed_windows() {
    let mut s = SlidingEstimator::new(strict_config(17), 500, 500);
    let mut ma = MovingAverage::new(3);
    for i in 0..2_500u64 {
        if let Some(w) = s.update(&[i % 100], &[0]) {
            ma.push(w.estimate.implication_count);
        }
    }
    assert_eq!(ma.windows(), 3);
    let avg = ma.value().expect("five windows closed");
    let err = relative_error(100.0, avg);
    assert!(err < 0.35, "moving average err {err} ({avg:.1})");
}

#[test]
fn incremental_deltas_isolate_the_interval() {
    let mut c = IncrementalCounter::new(strict_config(19).build());
    for a in 0..3_000u64 {
        c.update(&[a], &[a]);
    }
    let t1 = c.snapshot();
    assert_eq!(t1.position, 3_000);
    for a in 3_000..5_000u64 {
        c.update(&[a], &[a]);
    }
    let d = c.since(&t1);
    assert_eq!(d.tuples, 2_000);
    let err = relative_error(2_000.0, d.implication_count);
    assert!(err < 0.35, "delta err {err}: {d:?}");
    // The underlying estimator remains accessible for queries.
    assert_eq!(c.estimator().tuples_seen(), 5_000);
}

#[test]
fn incremental_counter_journals_dirty_transitions() {
    // Attach the journal before wrapping: the handle rides inside the
    // wrapped estimator, so windowed bookkeeping and tracing compose.
    let mut est = strict_config(23).fringe(Fringe::Bounded(4)).build();
    let trace = TraceHandle::with_capacity(1 << 14);
    est.set_trace(trace.clone());
    let mut c = IncrementalCounter::new(est);

    for a in 0..1_000u64 {
        c.update(&[a], &[0]);
    }
    let t1 = c.snapshot();
    // Second partner for every key: mass dirty transitions after t1.
    for a in 0..1_000u64 {
        c.update(&[a], &[1]);
    }
    let d = c.since(&t1);
    assert_eq!(d.tuples, 1_000);
    assert!(
        d.implication_count < 0.0,
        "retroactive dirt must shrink the count: {d:?}"
    );

    let journal = trace.journal().expect("journal attached");
    let dirty: Vec<(u64, u64)> = journal
        .events()
        .into_iter()
        .filter_map(|t| match t.event {
            TraceEvent::Dirty {
                key,
                reason,
                position,
            } => {
                assert_eq!(reason, DirtyReason::Multiplicity);
                Some((key, position))
            }
            _ => None,
        })
        .collect();
    assert!(!dirty.is_empty(), "1000 betrayed keys, none journaled?");
    for &(key, position) in &dirty {
        assert!(
            position > 1_000,
            "transitions happen only in the second phase, got {position}"
        );
        assert_ne!(key, 0, "the journal carries the itemset hash");
    }
}

/// Bitmaps of the estimators checked against exact counts: more than the
/// default 64, so that a window over the wrong rows, or a delta against
/// the wrong reference point, stands out of the noise.
const BITMAPS: usize = 256;
/// Standard error of one `F0^sup` count at m = 256: PCSA's
/// 0.78/√256 ≈ 4.9% (EXPERIMENTS.md, §4.7 `bitmap_ablation`).
const F0_BAND: f64 = 0.049;
/// Error of one implication count `S` at m = 256. `S = F0^sup − S̄`
/// differences two read-offs, so its error is larger: 9.9% measured at
/// S/F0^sup = 50% (EXPERIMENTS.md, §4.7 `bitmap_ablation`).
const S_BAND: f64 = 0.099;

/// A splitmix64 finalizer: a fixed pseudo-random stream for the tests.
fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Row `i` of a stream whose source is `a`: two in three sources are
/// loyal to one destination, the rest pick one of two at random.
fn row_of(i: u64, a: u64) -> ([u64; 1], [u64; 1]) {
    let b = if a.is_multiple_of(3) {
        mix(i ^ 0xfeed) % 2
    } else {
        a + 1_000_000
    };
    ([a], [b])
}

/// Exact `(S, F0^sup)` over `rows`.
fn exact_counts(rows: &[([u64; 1], [u64; 1])]) -> ExactCounter {
    let mut exact = ExactCounter::new(ImplicationConditions::strict_one_to_one(1));
    for (a, b) in rows {
        exact.update(a, b);
    }
    exact
}

#[test]
fn sliding_windows_track_exact_counts_over_each_window() {
    // 20k sources over 40k rows: a window of 10k rows sees about 7.9k of
    // them and one of 15k about 10.6k, so a window over the wrong rows
    // misses by far more than the band.
    let (width, step) = (10_000u64, 5_000u64);
    let rows: Vec<_> = (0..40_000).map(|i| row_of(i, mix(i) % 20_000)).collect();
    let mut s = SlidingEstimator::new(strict_config(29).bitmaps(BITMAPS), width, step);
    let (mut s_errs, mut f0_errs) = (Vec::new(), Vec::new());
    for (i, (a, b)) in rows.iter().enumerate() {
        let Some(w) = s.update(a, b) else { continue };
        assert_eq!(w.origin + width, i as u64 + 1, "a window closes at its end");
        let exact = exact_counts(&rows[w.origin as usize..=i]);
        let e = w.estimate;
        s_errs.push(relative_error(
            exact.implication_count(),
            e.implication_count,
        ));
        f0_errs.push(relative_error(exact.f0_sup().unwrap(), e.f0_sup));
    }
    assert_eq!(s_errs.len(), 7, "windows at origins 0, 5k, …, 30k");
    // Each window has its own seed, so its error is one draw: within
    // three standard errors, and the windows' RMS within 1.5 of them.
    for (errs, band, what) in [(&s_errs, S_BAND, "S"), (&f0_errs, F0_BAND, "F0^sup")] {
        assert!(
            errs.iter().all(|&e| e < 3.0 * band),
            "{what} errors {errs:?}"
        );
        let rms = (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt();
        assert!(rms < 1.5 * band, "{what} RMS error {rms} over {errs:?}");
    }
}

#[test]
fn incremental_deltas_track_exact_deltas() {
    // Each 10k-row interval brings 4k fresh sources, and one row in five
    // revisits an earlier source, which may turn it dirty.
    let rows: Vec<_> = (0..40_000u64)
        .map(|i| {
            let fresh = (i / 10_000) * 4_000 + mix(i) % 4_000;
            let a = if i % 5 == 4 {
                mix(i ^ 0xabc) % (fresh + 1)
            } else {
                fresh
            };
            row_of(i, a)
        })
        .collect();
    let mut c = IncrementalCounter::new(strict_config(31).bitmaps(BITMAPS).build());
    let mut marks = Vec::new();
    for (i, (a, b)) in rows.iter().enumerate() {
        c.update(a, b);
        if (i + 1).is_multiple_of(10_000) {
            marks.push(c.snapshot());
        }
    }
    assert_eq!(marks.len(), 4);
    let end = exact_counts(&rows);
    for t in &marks[..3] {
        let d = c.since(t);
        assert_eq!(d.tuples, 40_000 - t.position);
        let start = exact_counts(&rows[..t.position as usize]);
        // A delta inherits the absolute error of the later count: its
        // standard error times that count. Allow three of those; reading
        // the count since the wrong point would miss by the count at
        // that point, which from row 20k on is well over that.
        for (est, before, after, band, what) in [
            (
                d.implication_count,
                start.implication_count(),
                end.implication_count(),
                S_BAND,
                "S",
            ),
            (
                d.f0_sup,
                start.f0_sup().unwrap(),
                end.f0_sup().unwrap(),
                F0_BAND,
                "F0^sup",
            ),
        ] {
            let exact = after - before;
            assert!(
                (est - exact).abs() < 3.0 * band * after,
                "{what} since row {}: delta {est:.0} vs exact {exact} (count {after})",
                t.position
            );
        }
    }
}
