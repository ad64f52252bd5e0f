//! Byte-exact golden tests of every text rendering of the metrics
//! surfaces: the registry's Prometheus exposition, `--stats` report and
//! InfluxDB line, the catalog's labeled per-query series and the fleet
//! registry's per-node series. Each fixture is fixed: registry values
//! are injected field by field (distinct per series, so a series that
//! reads the wrong field shows), durations included, and the fleet runs
//! on an injected clock, so no sample is timing-valued and none is
//! masked.
//!
//! The expected texts live in `tests/golden/`.

use implicate::core::wire::FrameKind;
use implicate::sketch::hash::MixHasher;
use implicate::spec::{parse_query_line, FIELD_HASHER_SEED};
use implicate::text::hash_field;
use implicate::{
    EstimatorConfig, ImplicationConditions, MetricsRegistry, NodeRegistry, QueryCatalog, Schema,
    Tuple,
};

/// The first line where `got` and `want` differ, for a readable failure.
fn first_difference(got: &str, want: &str) -> String {
    let mut got_lines = got.lines();
    for (i, w) in want.lines().enumerate() {
        match got_lines.next() {
            Some(g) if g == w => continue,
            g => return format!("line {}: got {g:?}, want {w:?}", i + 1),
        }
    }
    match got_lines.next() {
        Some(extra) => format!("extra line {extra:?}"),
        None => "same lines, different line endings".to_owned(),
    }
}

fn assert_golden(got: &str, want: &str) {
    assert!(
        got == want,
        "{}\n--- got ---\n{got}",
        first_difference(got, want)
    );
}

/// A registry whose every series holds a value of its own: counters
/// count up from 1 in glossary order, gauges end below their peaks, the
/// two snapshot histograms hold fixed durations and two shard lanes are
/// in use.
fn fixed_registry() -> MetricsRegistry {
    let r = MetricsRegistry::new();
    let e = &r.estimator;
    e.tuples.add(1_001);
    e.zone1_skips.add(2);
    e.dirty_multiplicity.add(3);
    e.dirty_confidence.add(4);
    e.dirty_support_gate.add(5);
    e.cells_committed.add(6);
    e.fringe_evictions.add(7);
    e.support_certified.add(8);
    e.occupancy.set(90);
    e.occupancy.set(9);
    e.merges.add(10);
    e.mem_bytes.set(11_000);
    e.mem_bytes.set(1_100);
    e.mem_budget.set(12_000);
    e.shed_events.add(13);
    let i = &r.ingest;
    i.shards.set(2);
    i.batches_routed.add(14);
    i.updates_routed.add(15);
    i.flushes.add(16);
    i.idle_waits.add(17);
    i.lane(0).batches.add(18);
    i.lane(0).queue_depth.set(19);
    i.lane(0).queue_depth.set(0);
    i.lane(1).batches.add(20);
    i.lane(1).queue_depth.set(21);
    let v = &r.view;
    v.publishes.add(22);
    v.epoch.set(23);
    v.published_tuples.set(24);
    v.age_rows.set(25);
    v.reads.add(26);
    let s = &r.snapshot;
    s.encodes.add(27);
    s.decodes.add(28);
    s.bytes_written.add(29);
    s.bytes_read.add(30);
    for nanos in [1_500, 70_000, 900] {
        s.encode_nanos.observe(nanos);
    }
    s.decode_nanos.observe(300);
    let w = &r.wire;
    let counters = [
        &w.frames_encoded_full,
        &w.frames_encoded_delta,
        &w.bytes_out,
        &w.frames_decoded_full,
        &w.frames_decoded_delta,
        &w.bytes_in,
        &w.decode_errors,
        &w.resyncs_forced,
        &w.node_id_conflicts,
        &w.err_bad_magic,
        &w.err_bad_version,
        &w.err_truncated,
        &w.err_corrupt,
        &w.err_frame_too_large,
        &w.err_budget_exceeded,
        &w.err_delta_without_base,
        &w.err_base_epoch_mismatch,
        &w.err_config_mismatch,
    ];
    for (k, counter) in counters.into_iter().enumerate() {
        counter.add(31 + k as u64);
    }
    r
}

#[test]
fn registry_prometheus_is_byte_exact() {
    let text = fixed_registry().prometheus("implicate");
    assert_golden(&text, include_str!("golden/registry.prom"));
}

#[test]
fn registry_report_is_byte_exact() {
    let text = fixed_registry().report();
    assert_golden(&text, include_str!("golden/registry.report"));
}

#[test]
fn registry_line_protocol_is_byte_exact() {
    let text = fixed_registry().line_protocol("implicate");
    assert_golden(&text, include_str!("golden/registry.influx").trim_end());
}

/// The catalog exposition after 3,000 rows through three queries: a
/// one-to-one query, an at-most query behind a `where=` filter and a
/// distinct count, on one shared budget.
fn fixed_catalog() -> String {
    let schema = Schema::new((0..4).map(|i| (format!("c{i}"), 0)));
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
        .bitmaps(16)
        .seed(7)
        .memory_budget(100_000);
    let mut catalog = QueryCatalog::new(&schema, template);
    for line in [
        "loyal one-to-one 0 1",
        "am_fickle at-most 0 1 k=2 where=2=am",
        "sources distinct 0 -",
    ] {
        let spec = parse_query_line(line).expect("spec parses");
        catalog
            .try_register(spec.name, spec.query)
            .expect("query registers");
    }
    // Even sources keep one partner, odd ones take a new one on each of
    // their two or three rows, and the budget is tight enough to shed;
    // column 2 is `am` on two rows of three.
    let hasher = MixHasher::new(FIELD_HASHER_SEED);
    let field = |s: &str| hash_field(&hasher, s);
    let rows: Vec<Tuple> = (0..3_000u64)
        .map(|i| {
            let src = i % 1_200;
            let dst = if src % 2 == 0 { src % 5 } else { i / 1_200 };
            let slot = if i % 3 == 2 { "pm" } else { "am" };
            Tuple::from([
                field(&format!("s{src}")),
                field(&format!("d{dst}")),
                field(slot),
                field("x"),
            ])
        })
        .collect();
    for chunk in rows.chunks(256) {
        catalog.process_batch(chunk);
    }
    catalog.publish();
    let mut text = String::new();
    catalog.prometheus_into("implicate", &mut text);
    text
}

#[test]
fn catalog_prometheus_is_byte_exact() {
    let text = fixed_catalog();
    assert_golden(&text, include_str!("golden/catalog.prom"));
    assert_eq!(implicate::lint_prometheus(&text), Ok(6 + 3 * 5));
}

#[test]
fn empty_catalog_prometheus_is_byte_exact() {
    assert_golden(&empty_catalog(), include_str!("golden/catalog_empty.prom"));
}

/// The fleet exposition at t = 1,800 ms (stale window 1,000 ms) of
/// three nodes on an injected clock. Node 0: full then delta frames, a
/// reconnect and an id conflict. Node 4: one frame, then a rejected one
/// (poisoned, running ahead). Node 9: connected, never shipped, stale.
fn fixed_fleet() -> String {
    let fleet = NodeRegistry::new(1_000);
    fleet.record_connect(0, 0);
    fleet.record_frame(0, FrameKind::Full, 2_048, 1, 100, 10);
    fleet.record_frame(0, FrameKind::Delta, 96, 2, 180, 1_500);
    fleet.record_connect(0, 1_600);
    fleet.record_id_conflict(0);
    fleet.record_frame(4, FrameKind::Full, 1_024, 3, 50, 1_700);
    fleet.record_error(4, Some(6), 1_750);
    fleet.record_connect(9, 200);
    let mut text = String::new();
    fleet.prometheus_into("implicate", 1_800, &mut text);
    text
}

/// An empty fleet's exposition: the two fleet-wide gauges only.
fn empty_fleet() -> String {
    let mut text = String::new();
    NodeRegistry::new(1_000).prometheus_into("implicate", 5, &mut text);
    text
}

/// An empty catalog's exposition: the catalog-wide families only.
fn empty_catalog() -> String {
    let schema = Schema::new([("a", 0), ("b", 0)]);
    let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1));
    let mut text = String::new();
    QueryCatalog::new(&schema, template).prometheus_into("implicate", &mut text);
    text
}

#[test]
fn fleet_prometheus_is_byte_exact() {
    let text = fixed_fleet();
    assert_golden(&text, include_str!("golden/fleet.prom"));
    assert_eq!(implicate::lint_prometheus(&text), Ok(12 * 3 + 2));
    assert_golden(&empty_fleet(), include_str!("golden/fleet_empty.prom"));
}
