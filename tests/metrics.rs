//! End-to-end observability tests: the metrics registry viewed through
//! the `implicate` facade.

use implicate::{EstimatorConfig, Fringe, ImplicationConditions, ShardedEstimator};

fn loyal_and_fickle(est: &mut implicate::ImplicationEstimator, n: u64) {
    for a in 0..n {
        est.update(&[a], &[1]);
        if a % 2 == 0 {
            est.update(&[a], &[2]); // second partner: violates K = 1
        }
    }
}

#[test]
fn estimator_counters_match_the_stream() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(9).build();
    loyal_and_fickle(&mut est, 1_000);

    let m = est.metrics();
    // Exactly one tuple counted per update call.
    assert_eq!(m.estimator.tuples.get(), est.tuples_seen());
    assert_eq!(m.estimator.tuples.get(), 1_500);
    // Half the itemsets turned dirty, all via the multiplicity bound
    // (minus the Zone-1 fraction the bitmap never tracks).
    assert!(m.estimator.dirty_multiplicity.get() > 0);
    assert_eq!(m.estimator.dirty_confidence.get(), 0);
    assert_eq!(m.estimator.dirty_support_gate.get(), 0);
    assert!(m.estimator.dirty_total() <= 500);
    // The occupancy gauge telescopes entries_delta, so it must agree
    // with the estimator's own entry count at any quiescent point.
    assert_eq!(m.estimator.occupancy.get(), est.entries() as u64);
    assert!(m.estimator.occupancy.peak() >= m.estimator.occupancy.get());
    assert!(m.estimator.cells_committed.get() > 0);
}

#[test]
fn fringe_pressure_shows_up_as_evictions() {
    let cond = ImplicationConditions::one_to_c(1, 0.8, 2);
    let mut est = EstimatorConfig::new(cond)
        .bitmaps(16)
        .fringe(Fringe::Bounded(2))
        .seed(3)
        .build();
    for a in 0..20_000u64 {
        est.update(&[a], &[a % 7]);
    }
    assert!(
        est.metrics().estimator.fringe_evictions.get() > 0,
        "20k distinct itemsets through fringe 2 must shed"
    );
    assert_eq!(
        est.metrics().estimator.occupancy.get(),
        est.entries() as u64
    );
}

#[test]
fn sharded_ingestion_shares_one_registry() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let est = EstimatorConfig::new(cond).bitmaps(32).seed(5).build();
    let mut sharded = ShardedEstimator::new(est, 3);
    let hasher = sharded.pair_hasher();
    let pairs: Vec<(u64, u64)> = (0..10_000u64)
        .map(|a| hasher.hash_pair(&[a % 2_000], &[a % 3]))
        .collect();
    sharded.update_hashed_batch(&pairs);
    // Partial per-shard batches are still pending here; finish() flushes.
    let routed_before_finish = sharded.metrics().ingest.updates_routed.get();
    let est = sharded.finish();

    let m = est.metrics();
    // The finished estimator holds the same registry the shards and
    // the router wrote to — ingest counters survive the merge.
    assert!(routed_before_finish <= 10_000);
    assert_eq!(m.ingest.updates_routed.get(), 10_000);
    assert_eq!(m.ingest.shards.get(), 3);
    assert!(m.ingest.batches_routed.get() > 0);
    // Shard workers recorded their updates into the shared estimator
    // family: every routed pair became a counted tuple.
    assert_eq!(m.estimator.tuples.get(), 10_000);
    assert!(m.estimator.merges.get() >= 3, "finish merges the shards");
}

#[test]
fn snapshot_metrics_count_bytes_and_calls() {
    let cond = ImplicationConditions::one_to_c(2, 0.8, 2);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(11).build();
    loyal_and_fickle(&mut est, 2_000);

    let bytes = est.to_bytes();
    let restored = implicate::ImplicationEstimator::from_bytes(bytes.clone()).expect("restore");

    let s = &est.metrics().snapshot;
    assert_eq!(s.encodes.get(), 1);
    assert_eq!(s.bytes_written.get(), bytes.len() as u64);
    assert_eq!(s.encode_nanos.count(), 1);
    // The restored estimator gets a *fresh* registry: decode-side
    // counters live there, and the original's are untouched.
    assert_eq!(s.decodes.get(), 0);
    let r = &restored.metrics().snapshot;
    assert_eq!(r.decodes.get(), 1);
    assert_eq!(r.bytes_read.get(), bytes.len() as u64);
    assert_eq!(r.decode_nanos.count(), 1);
    assert!(!est.metrics().same_registry(restored.metrics()));
}

#[test]
fn prometheus_exposition_round_trips_every_sample() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(7).build();
    loyal_and_fickle(&mut est, 500);
    let m = est.metrics();
    let text = m.prometheus("implicate");

    // Parse the text exposition back: `# HELP <name> <text>` then
    // `# TYPE <name> <kind>` then `<name> <value>`, nothing else.
    let mut parsed = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let help = line
            .strip_prefix("# HELP ")
            .unwrap_or_else(|| panic!("expected HELP line, got {line:?}"));
        let (hname, htext) = help.split_once(' ').expect("HELP line has name + text");
        assert!(!htext.trim().is_empty(), "empty HELP text for {hname}");
        let tline = lines.next().expect("TYPE line after HELP");
        let meta = tline
            .strip_prefix("# TYPE ")
            .unwrap_or_else(|| panic!("unexpected line {tline:?}"));
        let (name, kind) = meta.split_once(' ').expect("TYPE line has name + kind");
        assert_eq!(name, hname, "HELP and TYPE name must agree");
        assert!(matches!(kind, "counter" | "gauge"), "kind {kind:?}");
        let sample = lines.next().expect("sample line after TYPE");
        let (sname, value) = sample.split_once(' ').expect("sample has name + value");
        assert_eq!(sname, name, "TYPE and sample name must agree");
        parsed.push((name.to_owned(), value.parse::<u64>().expect("int value")));
    }

    // Every registry sample survives the round trip, value intact, under
    // its flattened name (dots and dashes become underscores) — and the
    // in-tree exposition linter agrees on the sample count.
    let samples = m.samples();
    assert_eq!(parsed.len(), samples.len());
    assert_eq!(implicate::lint_prometheus(&text), Ok(samples.len()));
    for ((flat, got), (name, want)) in parsed.iter().zip(&samples) {
        let expect_flat: String = format!("implicate_{name}")
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        assert_eq!(flat, &expect_flat);
        assert_eq!(got, want, "{name}");
    }
}

#[test]
fn report_and_line_protocol_render_the_registry() {
    let cond = ImplicationConditions::strict_one_to_one(1);
    let mut est = EstimatorConfig::new(cond).bitmaps(16).seed(1).build();
    loyal_and_fickle(&mut est, 100);
    let m = est.metrics();
    let report = m.report();
    let line = m.line_protocol("implicate");
    assert!(report.starts_with("metrics:"));
    assert!(line.starts_with("implicate estimator.tuples="));
}
