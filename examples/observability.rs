//! Watching a NIPS/CI estimator work — the observability layer end to
//! end.
//!
//! A constrained deployment (router, collector sidecar) can't attach a
//! debugger, so the estimator exports its internals three ways:
//!
//! * **metrics** (`core::metrics`) — lock-free counters: tuples,
//!   dirty transitions attributed to the violated condition (K / ψ_c /
//!   σ), fringe evictions, snapshot traffic (glossary: DESIGN.md §8.2);
//! * **tracing** (`core::trace`) — a bounded journal of typed events
//!   (per-key dirty transitions, cell commits, span timings) drained to
//!   JSONL, the CLI's `--trace-out` (DESIGN.md §8.3);
//! * **accuracy auditing** (`baselines::audit`) — the exact counter
//!   running in the estimator's shadow, reporting the true relative
//!   error at a fixed row cadence, the CLI's `--audit N`.
//!
//! This example ingests a two-phase stream — loyal traffic, then a
//! noisy scanner burst — sampling all three between phases, and
//! finishes with the `--stats` report plus one sample in each
//! `--stats-format` (InfluxDB line protocol, Prometheus exposition).
//!
//! Run with: `cargo run --release --example observability`

use implicate::{
    AccuracyAuditor, EstimatorConfig, Fringe, ImplicationConditions, TraceEvent, TraceHandle,
};

fn main() {
    // "How many sources stick to at most 2 destinations ≥ 80% of the
    // time, with at least 3 observations?" — bounded fringe, so heavy
    // cardinality also exercises eviction accounting.
    let cond = ImplicationConditions::builder()
        .max_multiplicity(2)
        .min_support(3)
        .top_confidence(2, 0.80)
        .build();
    let mut est = EstimatorConfig::new(cond)
        .bitmaps(64)
        .fringe(Fringe::Bounded(4))
        .seed(7)
        .build();

    // Opt in to the event journal (a runtime choice) and hook an exact
    // shadow auditing every 60k rows over the full key population.
    est.set_trace(TraceHandle::with_capacity(1 << 16));
    let mut aud = AccuracyAuditor::new(cond, 60_000, 1);
    aud.set_trace(est.trace().clone());

    let audit = |aud: &mut AccuracyAuditor, est: &implicate::ImplicationEstimator| {
        if aud.due() {
            let s = aud.audit(est.estimate_now().implication_count);
            println!(
                "  audit @ {:>6}: exact {:>6.0}  estimate {:>6.0}  rel error {:.3}",
                s.position, s.exact, s.estimated, s.rel_error
            );
        }
    };

    // Phase 1: loyal traffic — every source revisits one destination.
    println!("loyal phase:");
    for i in 0..120_000u64 {
        let src = i % 30_000;
        let dst = src % 97;
        est.update(&[src], &[dst]);
        aud.observe(&[src], &[dst]);
        audit(&mut aud, &est);
    }
    // Handle clones share the registry, so `m` keeps reading live
    // counters while `est` continues to ingest.
    let m = est.metrics().clone();
    println!(
        "  tuples {}  dirty(K {} / psi {} / sigma {})  occupancy {} (peak {})",
        m.estimator.tuples.get(),
        m.estimator.dirty_multiplicity.get(),
        m.estimator.dirty_confidence.get(),
        m.estimator.dirty_support_gate.get(),
        m.estimator.occupancy.get(),
        m.estimator.occupancy.peak(),
    );

    // Phase 2: a burst of scanners — one-shot sources spraying fresh
    // destinations. Multiplicity violations and fringe churn follow.
    println!("scanner burst:");
    for i in 0..120_000u64 {
        let src = 1_000_000 + i % 40_000;
        est.update(&[src], &[i]); // new destination every visit
        aud.observe(&[src], &[i]);
        audit(&mut aud, &est);
    }
    println!(
        "  tuples {}  dirty(K {} / psi {} / sigma {})  evictions {}",
        m.estimator.tuples.get(),
        m.estimator.dirty_multiplicity.get(),
        m.estimator.dirty_confidence.get(),
        m.estimator.dirty_support_gate.get(),
        m.estimator.fringe_evictions.get(),
    );
    println!(
        "  auditor shadowed {} itemsets over {} rows",
        aud.shadowed_keys(),
        aud.rows_seen(),
    );
    // The burst's cardinality blows past the F = 4 fringe (Lemma 2):
    // scanners are evicted before their third destination can convict
    // them, so most are never marked dirty and the estimate inflates.
    // The metrics hint at it (evictions ≫ dirty); the audit *proves*
    // it — the whole point of running an exact shadow online.
    if let Some(err) = aud.final_error() {
        println!(
            "  final audit error {err:.2} ⇒ fringe under-provisioned for this burst (DESIGN.md §4 / Lemma 2)",
        );
    }

    // Snapshot traffic is metered too.
    let bytes = est.to_bytes();
    println!(
        "snapshot: {} bytes in {} encode(s)",
        est.metrics().snapshot.bytes_written.get(),
        est.metrics().snapshot.encodes.get(),
    );
    drop(bytes);

    let e = est.estimate_now();
    println!("\nestimate: S ≈ {:.0}\n", e.implication_count);

    // The journal holds the most recent events (oldest are lapped once
    // the ring fills) — the CLI writes the same stream as JSONL via
    // `--trace-out FILE`. Histogram what this run retained:
    let journal = est.trace().journal().expect("journal attached");
    let events = journal.events();
    let count = |f: fn(&TraceEvent) -> bool| events.iter().filter(|t| f(&t.event)).count();
    println!(
        "journal: {} recorded, {} retained, {} lapped (capacity {})",
        journal.recorded(),
        events.len(),
        journal.dropped(),
        journal.capacity(),
    );
    println!(
        "  retained: {} dirty, {} cell commits, {} eviction batches, {} spans, {} audits",
        count(|e| matches!(e, TraceEvent::Dirty { .. })),
        count(|e| matches!(e, TraceEvent::CellCommit { .. })),
        count(|e| matches!(e, TraceEvent::Evictions { .. })),
        count(|e| matches!(e, TraceEvent::SpanClosed { .. })),
        count(|e| matches!(e, TraceEvent::AuditSample { .. })),
    );
    if let Some(line) = journal.to_jsonl().lines().next() {
        println!("  oldest retained line: {line}");
    }

    // What `implicate --stats` prints at exit …
    println!("\n{}", est.metrics().report());
    // … one `implicate --stats-interval N` sample (InfluxDB line
    // protocol, the default `--stats-format influx`) …
    println!("\n{}", est.metrics().line_protocol("implicate"));
    // … and the first few lines of `--stats-format prom` (Prometheus
    // text exposition, one `# TYPE` header per sample).
    let prom = est.metrics().prometheus("implicate");
    println!();
    for line in prom.lines().take(6) {
        println!("{line}");
    }
    println!("...");
}
