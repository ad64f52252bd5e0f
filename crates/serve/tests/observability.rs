//! Fleet observability end-to-end (DESIGN.md §8.7): a 3-edge topology
//! whose `/status` and `/metrics` report per-node epoch lag and
//! frame/byte/error counters matching ground truth; killing one edge
//! drives exactly that node through `lagging` → `stale` while the
//! others stay `live`; and a corrupted frame produces a parseable
//! flight-recorder JSONL plus per-variant decode-error counters and a
//! rejected-node-id-switch audit trail.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use implicate::core::wire::WireSnapshot;
use implicate::lint_prometheus;

mod common;

use common::*;

/// `n` distinct rows tagged per edge so ground-truth tuple counts are
/// exact.
fn edge_rows(edge: usize, from: u64, n: u64) -> String {
    let mut rows = String::new();
    for i in from..from + n {
        rows.push_str(&format!("e{edge}x{i} v{}\n", i % 5));
    }
    rows
}

#[test]
fn fleet_status_tracks_per_node_counters_and_an_edge_kill() {
    // A short staleness window so the kill phase settles fast, but wide
    // enough (lagging at 1.5 s) that 50 ms polling cannot skip a state.
    let agg = Server::spawn(&["--aggregate", "--stale-after", "3000"]);
    let edges: Vec<Server> = (0..3)
        .map(|i| {
            let id = i.to_string();
            Server::spawn(&[
                "--upstream",
                &agg.ingest,
                "--node-id",
                &id,
                "--publish-every",
                "32",
                "--ship-every",
                "32",
            ])
        })
        .collect();

    // Distinct per-node volumes make the ground truth unambiguous.
    let volumes: [u64; 3] = [300, 200, 100];
    for (i, edge) in edges.iter().enumerate() {
        edge.ingest_rows(&edge_rows(i, 0, volumes[i]));
    }
    let body = agg.wait_status("all nodes at ground-truth tuples", |b| {
        (0..3).all(|i| node_json(b, i as u64).is_some_and(|n| json_u64(&n, "tuples") == volumes[i]))
    });

    // Per-node counters match ground truth: every applied frame is
    // either a full or a delta, bytes flowed, epochs advanced, and no
    // node is behind what it declared.
    assert!(body.contains("\"role\":\"aggregate\""), "{body}");
    for i in 0..3u64 {
        let n = node_json(&body, i).expect("node present");
        assert_eq!(field_str(&n, "health"), "live", "{n}");
        let frames = json_u64(&n, "frames");
        assert!(frames >= 1, "{n}");
        assert_eq!(
            frames,
            json_u64(&n, "fulls") + json_u64(&n, "deltas"),
            "{n}"
        );
        assert!(json_u64(&n, "bytes") > 0, "{n}");
        assert!(json_u64(&n, "epoch") >= 1, "{n}");
        assert_eq!(json_u64(&n, "epoch_lag"), 0, "{n}");
        assert_eq!(json_u64(&n, "decode_errors"), 0, "{n}");
    }

    // The merged estimate serves the union of the edges.
    let (status, est_body) = agg.http("GET", "/estimate");
    assert!(status.contains("200"));
    let est_body = String::from_utf8(est_body).unwrap();
    assert_eq!(json_u64(&est_body, "tuples"), volumes.iter().sum::<u64>());

    // /metrics carries the labeled per-node series and lints clean.
    let (status, metrics) = agg.http("GET", "/metrics");
    assert!(status.contains("200"));
    let metrics = String::from_utf8(metrics).unwrap();
    lint_prometheus(&metrics).expect("aggregator exposition lints");
    for i in 0..3 {
        assert!(
            metrics.contains(&format!("implicate_node_frames_total{{node=\"{i}\"}}")),
            "node {i} series in {metrics}"
        );
    }
    assert!(metrics.contains("implicate_fleet_nodes 3"), "{metrics}");
    assert!(
        metrics.contains("# TYPE implicate_estimator_zone1_skips counter"),
        "{metrics}"
    );

    // An edge's own /status and /metrics report upstream connectivity.
    let edge_status = edges[1].status_body();
    assert!(edge_status.contains("\"role\":\"edge\""), "{edge_status}");
    assert!(edge_status.contains("\"connected\":true"), "{edge_status}");
    assert!(
        edge_status.contains(&format!("\"upstream\":\"{}\"", agg.ingest)),
        "{edge_status}"
    );
    let eobj = edge_status.clone();
    assert!(json_u64(&eobj, "ships") >= 1, "{edge_status}");
    let (status, edge_metrics) = edges[1].http("GET", "/metrics");
    assert!(status.contains("200"));
    let edge_metrics = String::from_utf8(edge_metrics).unwrap();
    lint_prometheus(&edge_metrics).expect("edge exposition lints");
    assert!(
        edge_metrics.contains("implicate_edge_connected 1"),
        "{edge_metrics}"
    );

    // ── Kill edge 0 (hard, no graceful flush). Its node must age
    // through lagging → stale while the continuously-fed survivors stay
    // live.
    let mut edges = edges;
    drop(edges.remove(0));
    let mut saw_lagging = false;
    let mut fed_from: [u64; 2] = [volumes[1], volumes[2]];
    let start = Instant::now();
    loop {
        for (j, edge) in edges.iter().enumerate() {
            edge.ingest_rows(&edge_rows(j + 1, fed_from[j], 10));
            fed_from[j] += 10;
        }
        let body = agg.status_body();
        let h0 = node_health(&body, 0);
        if h0 == "lagging" {
            saw_lagging = true;
        }
        for survivor in [1u64, 2] {
            let h = node_health(&body, survivor);
            assert!(
                h != "stale" && h != "poisoned",
                "survivor {survivor} went {h} during the kill phase: {body}"
            );
        }
        if h0 == "stale" {
            break;
        }
        assert!(
            start.elapsed() < DEADLINE,
            "node 0 never went stale; last: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(saw_lagging, "node 0 skipped the lagging state");

    // After one more round of traffic the survivors are provably live
    // while node 0 stays stale — the kill flipped exactly one node.
    for (j, edge) in edges.iter().enumerate() {
        edge.ingest_rows(&edge_rows(j + 1, fed_from[j], 10));
        fed_from[j] += 10;
    }
    let body = agg.wait_status("survivors live, node 0 stale", |b| {
        node_health(b, 0) == "stale" && node_health(b, 1) == "live" && node_health(b, 2) == "live"
    });
    let n0 = node_json(&body, 0).unwrap();
    assert_eq!(json_u64(&n0, "tuples"), volumes[0], "dead node froze");
    let (_, metrics) = agg.http("GET", "/metrics");
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(
        metrics.contains("implicate_node_health{node=\"0\"} 2"),
        "stale code for node 0 in {metrics}"
    );
    assert!(
        metrics.contains("implicate_node_health{node=\"1\"} 0"),
        "live code for node 1 in {metrics}"
    );
}

#[test]
fn corrupted_frame_triggers_flight_recorder_and_error_counters() {
    let dir = std::env::temp_dir().join(format!("imp-observability-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let flight_dir = dir.join("flight");
    let flight_dir = flight_dir.to_str().expect("utf8 path");

    let agg = Server::spawn(&[
        "--aggregate",
        "--stale-after",
        "60000",
        "--flight-dir",
        flight_dir,
        "--flight-keep",
        "4",
    ]);

    // A valid full frame from node 7 applies cleanly.
    let mut est = serve_default_config().build();
    for i in 0..50u64 {
        est.update(&[i], &[i % 5]);
    }
    let mut conn = TcpStream::connect(&agg.ingest).expect("connect ingest");
    conn.write_all(&WireSnapshot::capture(&est, 1).full_frame(7))
        .expect("send valid frame");
    conn.flush().expect("flush");
    agg.wait_status("node 7 applied", |b| {
        node_json(b, 7).is_some_and(|n| json_u64(&n, "tuples") == 50)
    });

    // A frame from an estimator with different hash seeds is the
    // deterministic corruption: it parses but fails `require_matching`
    // with ConfigMismatch — a stable WireError variant to assert on.
    let mut alien = serve_default_config().seed(43).build();
    alien.update(&[1], &[2]);
    conn.write_all(&WireSnapshot::capture(&alien, 2).full_frame(7))
        .expect("send mismatched frame");
    conn.flush().expect("flush");

    let body = agg.wait_status("node 7 poisoned", |b| {
        node_json(b, 7).is_some_and(|n| {
            json_u64(&n, "decode_errors") == 1 && field_str(&n, "health") == "poisoned"
        })
    });
    let n7 = node_json(&body, 7).unwrap();
    assert_eq!(json_u64(&n7, "epoch"), 1, "rejected frame not applied");
    assert_eq!(json_u64(&n7, "epoch_lag"), 1, "declared 2, applied 1");

    // The rejection dumped a flight recording: bounded JSONL whose
    // first line is the decode-error context.
    let recordings: Vec<std::path::PathBuf> = std::fs::read_dir(flight_dir)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with("-decode_error.jsonl"))
        })
        .collect();
    assert_eq!(recordings.len(), 1, "exactly one decode-error recording");
    let text = std::fs::read_to_string(&recordings[0]).expect("readable recording");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "flight line is not a JSON object: {line:?}"
        );
    }
    let first = text.lines().next().expect("context line");
    assert!(first.contains("\"reason\":\"decode_error\""), "{first}");
    assert!(first.contains("\"node_id\":7"), "{first}");
    assert!(first.contains("\"error\":\"config_mismatch\""), "{first}");
    // The drained trace ring holds the rejection itself plus the
    // closing journal summary.
    assert!(text.contains("\"event\":\"frame_rejected\""), "{text}");
    assert!(text.contains("\"journal_summary\""), "{text}");

    // Per-variant decode-error counters on /metrics.
    let (_, metrics) = agg.http("GET", "/metrics");
    let metrics = String::from_utf8(metrics).unwrap();
    lint_prometheus(&metrics).expect("exposition lints");
    assert!(
        metrics.contains("implicate_wire_decode_errors 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("implicate_wire_err_config_mismatch 1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("implicate_wire_resyncs_forced 1"),
        "{metrics}"
    );

    // ── node_id pinning: a connection that switches ids mid-stream is
    // rejected, counted, and dropped; the impostor id never appears.
    let mut est8 = serve_default_config().build();
    for i in 0..10u64 {
        est8.update(&[i + 1_000], &[i % 3]);
    }
    let mut conn2 = TcpStream::connect(&agg.ingest).expect("connect ingest");
    conn2
        .write_all(&WireSnapshot::capture(&est8, 1).full_frame(8))
        .expect("send node 8 frame");
    conn2.flush().expect("flush");
    agg.wait_status("node 8 applied", |b| {
        node_json(b, 8).is_some_and(|n| json_u64(&n, "tuples") == 10)
    });
    conn2
        .write_all(&WireSnapshot::capture(&est8, 2).full_frame(9))
        .expect("send switched-id frame");
    conn2.flush().expect("flush");
    let body = agg.wait_status("id conflict recorded", |b| {
        node_json(b, 8).is_some_and(|n| json_u64(&n, "id_conflicts") == 1)
    });
    assert!(
        !body.contains("\"node_id\":9"),
        "impostor id registered: {body}"
    );
    let (_, metrics) = agg.http("GET", "/metrics");
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(
        metrics.contains("implicate_wire_node_id_conflicts 1"),
        "{metrics}"
    );

    // ── Poison clears on the next good frame: the edge's post-kill
    // reconnect ships a full snapshot and the node returns to live.
    for i in 50..60u64 {
        est.update(&[i], &[i % 5]);
    }
    let mut conn3 = TcpStream::connect(&agg.ingest).expect("reconnect ingest");
    conn3
        .write_all(&WireSnapshot::capture(&est, 3).full_frame(7))
        .expect("send resync frame");
    conn3.flush().expect("flush");
    let body = agg.wait_status("node 7 resynced", |b| {
        node_json(b, 7)
            .is_some_and(|n| field_str(&n, "health") == "live" && json_u64(&n, "tuples") == 60)
    });
    let n7 = node_json(&body, 7).unwrap();
    assert_eq!(json_u64(&n7, "epoch"), 3);
    assert_eq!(json_u64(&n7, "epoch_lag"), 0);
    assert_eq!(json_u64(&n7, "decode_errors"), 1, "history preserved");

    let _ = std::fs::remove_dir_all(&dir);
}

/// An aggregator encodes one snapshot at startup and one per applied
/// frame — the `/snapshot` bytes; publishing the merged view encodes
/// nothing.
#[test]
fn aggregator_encodes_one_snapshot_per_applied_frame() {
    let agg = Server::spawn(&["--aggregate"]);
    // No keep-alive: once the tail has shipped, no frame is in flight.
    let edge = Server::spawn(&[
        "--upstream",
        &agg.ingest,
        "--node-id",
        "0",
        "--publish-every",
        "64",
        "--ship-every",
        "64",
        "--keepalive-ms",
        "0",
    ]);
    edge.ingest_rows(&edge_rows(0, 0, 300));

    let start = Instant::now();
    loop {
        let node = node_json(&agg.status_body(), 0);
        let (tuples, frames) =
            node.map_or((0, 0), |n| (json_u64(&n, "tuples"), json_u64(&n, "frames")));
        let (_, metrics) = agg.http("GET", "/metrics");
        let metrics = String::from_utf8(metrics).expect("utf8 exposition");
        let encodes: u64 = metrics
            .lines()
            .find_map(|l| l.strip_prefix("implicate_snapshot_encodes "))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("implicate_snapshot_encodes in {metrics}"));
        if tuples == 300 && frames > 1 && encodes == 1 + frames {
            break;
        }
        assert!(
            start.elapsed() < DEADLINE,
            "{encodes} encodes for {frames} frames ({tuples} tuples)"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}
