//! End-to-end exercise of `implicate-serve`: TCP line-protocol
//! ingestion, wait-free concurrent queries that stay bit-identical to a
//! library run over the same rows, the Prometheus endpoint, and the
//! graceful shutdown → checkpoint → restart round trip.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use imp_serve::MAX_INGEST_CONNECTIONS;
use implicate::sketch::hash::MixHasher;

mod common;

use common::*;

/// The value of an unlabeled sample in a Prometheus exposition.
fn sample(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{name} in {exposition}"))
}

#[test]
fn served_estimates_match_a_library_run_and_survive_restart() {
    let dir = std::env::temp_dir().join(format!("imp-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let checkpoint = dir.join("state.imps");
    let checkpoint = checkpoint.to_str().expect("utf8 path");

    let rows = workload(3_000);
    let mut est = library_run(&rows);

    let server = Server::spawn(&[
        "--publish-every",
        "256",
        "--checkpoint",
        checkpoint,
        "--checkpoint-every",
        "1000",
    ]);
    server.ingest_rows(&rows);
    let body = server.wait_for_tuples(3_000);
    // The service hashed, routed, and published the exact same f64s the
    // library computes over the same rows — bits, not approximations.
    assert_bits_match(&body, &est);

    // Malformed and comment lines are skipped, not fatal.
    server.ingest_rows("# comment\n\nonly_one_column\n");

    let (status, metrics) = server.http("GET", "/metrics");
    assert!(status.contains("200"));
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(metrics.starts_with('#'), "exposition format: {metrics}");
    assert!(
        metrics.contains("implicate_view_publishes"),
        "view metrics exported: {metrics}"
    );
    assert!(metrics.contains("# TYPE implicate_view_epoch gauge"));
    // The plain ingest path runs the batch spine's Zone-1 filter.
    assert!(metrics.contains("# HELP implicate_estimator_zone1_skips "));
    assert!(metrics.contains("# TYPE implicate_estimator_zone1_skips counter"));
    // Hot keys betray their partners early, so later rows to their
    // cells are skipped.
    let skips = sample(&metrics, "implicate_estimator_zone1_skips");
    assert!(skips > 0, "{metrics}");
    assert!(skips <= sample(&metrics, "implicate_estimator_tuples"));

    let (status, snapshot) = server.http("GET", "/snapshot");
    assert!(status.contains("200"), "snapshot endpoint: {status}");
    assert!(!snapshot.is_empty());

    let (status, _) = server.http("GET", "/healthz");
    assert!(status.contains("200"));

    server.shutdown();
    assert!(
        std::path::Path::new(checkpoint).exists(),
        "graceful shutdown wrote the checkpoint"
    );

    // Restart from the checkpoint: the published state picks up exactly
    // where the previous process stopped, then keeps ingesting.
    let server = Server::spawn(&["--publish-every", "256", "--checkpoint", checkpoint]);
    let body = server.wait_for_tuples(3_000);
    assert_bits_match(&body, &est);

    let extra = workload(500);
    server.ingest_rows(&extra);
    for line in extra.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
        let a = [implicate::text::hash_field(&field_hasher, fields[0])];
        let b = [implicate::text::hash_field(&field_hasher, fields[1])];
        let (h_a, b_fp) = est.pair_hasher().hash_pair(&a, &b);
        est.update_hashed(h_a, b_fp);
    }
    let body = server.wait_for_tuples(3_500);
    assert_bits_match(&body, &est);
    server.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_queries_ride_a_sharded_ingest_without_blocking() {
    let server = Server::spawn(&["--threads", "2", "--publish-every", "128"]);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));

    // Hammer /estimate from several connections while rows stream in.
    // Each response must be a well-formed published view; per thread the
    // observed epochs and tuple counts must be monotone.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = std::sync::Arc::clone(&stop);
            let query = server.query.clone();
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut last_tuples = 0u64;
                let mut observations = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(25));
                    // Transient connect/reset errors just mean the
                    // accept queue is briefly full on a loaded box —
                    // retry; correctness is judged on successful reads.
                    let Ok(response) = (|| -> std::io::Result<Vec<u8>> {
                        let mut conn = TcpStream::connect(&query)?;
                        conn.write_all(b"GET /estimate HTTP/1.0\r\n\r\n")?;
                        let mut response = Vec::new();
                        conn.read_to_end(&mut response)?;
                        Ok(response)
                    })() else {
                        continue;
                    };
                    let body = String::from_utf8(response).expect("utf8");
                    let body = body.split("\r\n\r\n").nth(1).expect("body");
                    let (epoch, tuples) = (json_u64(body, "epoch"), json_u64(body, "tuples"));
                    assert!(epoch >= last_epoch, "epoch went backwards");
                    assert!(tuples >= last_tuples, "tuples went backwards");
                    // A view is a consistent pair: the estimate fields
                    // must always be present and parseable.
                    let _ = json_u64(body, "f0_sup_bits");
                    (last_epoch, last_tuples) = (epoch, tuples);
                    observations += 1;
                }
                observations
            })
        })
        .collect();

    // Stream the workload in chunks over several connections, as a
    // fleet of emitters would.
    let rows = workload(24_000);
    let lines: Vec<&str> = rows.lines().collect();
    for chunk in lines.chunks(6_000) {
        let mut payload = chunk.join("\n");
        payload.push('\n');
        server.ingest_rows(&payload);
    }

    let body = server.wait_for_tuples(24_000);
    assert!(json_u64(&body, "epoch") > 0);
    stop.store(true, std::sync::atomic::Ordering::Release);
    let total: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0, "queries were served during ingest");
    server.shutdown();
}

/// Queries answer as soon as they arrive: the acceptor blocks in
/// `accept` instead of sleeping between polls (which cost ~50 ms per
/// idle wake-up), so back-to-back requests are not paced by a timer.
#[test]
fn sequential_queries_are_not_paced_by_a_poll_interval() {
    let server = Server::spawn(&[]);
    // Warm up: the first request also waits for the process to settle.
    let (status, _) = server.http("GET", "/estimate");
    assert!(status.contains("200"), "{status}");
    let start = Instant::now();
    for _ in 0..20 {
        let (status, _) = server.http("GET", "/estimate");
        assert!(status.contains("200"), "{status}");
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "20 sequential /estimate calls took {took:?}"
    );
    server.shutdown();
}

/// An oversized request head is refused with 431 without harming the
/// server, and `/shutdown` only answers `POST`.
#[test]
fn oversized_heads_and_get_shutdown_are_refused() {
    let server = Server::spawn(&[]);

    let huge = format!(
        "GET /estimate HTTP/1.0\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(9 * 1024)
    );
    let (head, _) = server.raw(huge.as_bytes());
    assert!(head.starts_with("HTTP/1.0 431"), "{head}");
    let (status, _) = server.http("GET", "/estimate");
    assert!(status.contains("200"), "next request after a 431: {status}");

    let (head, _) = server.raw(b"GET /shutdown HTTP/1.0\r\n\r\n");
    assert!(head.starts_with("HTTP/1.0 405"), "{head}");
    assert!(head.contains("\r\nAllow: POST"), "{head}");
    let (status, _) = server.http("GET", "/healthz");
    assert!(status.contains("200"), "server stayed up: {status}");

    server.shutdown();
}

/// Bad lines cost one counted line each, never the connection: a line
/// that is not UTF-8 counts in `skipped`, a line over the 64 KiB cap in
/// `skipped_oversize`, and the rows after either are still ingested.
#[test]
fn bad_lines_are_counted_and_the_connection_survives() {
    let server = Server::spawn(&[]);

    server.ingest_bytes(b"0 1\n\xff\xfe 1\n2 3\n");
    let body = server.wait_for_tuples(2);
    assert_eq!(json_u64(&body, "skipped"), 1, "{body}");

    let mut oversize = vec![b'x'; 100 * 1024];
    oversize.extend_from_slice(b" 9\n4 5\n6 7\n");
    server.ingest_bytes(&oversize);
    let body = server.wait_for_tuples(4);
    assert_eq!(json_u64(&body, "skipped"), 1, "{body}");
    let (status, body) = server.http("GET", "/status");
    assert!(status.contains("200"), "{status}");
    let body = String::from_utf8(body).expect("json body");
    assert_eq!(json_u64(&body, "skipped_oversize"), 1, "{body}");

    let (status, metrics) = server.http("GET", "/metrics");
    assert!(status.contains("200"), "{status}");
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(
        metrics.contains("# HELP implicate_ingest_skipped_oversize_total ")
            && metrics.contains("\nimplicate_ingest_skipped_oversize_total 1\n"),
        "{metrics}"
    );
    implicate::lint_prometheus(&metrics).expect("exposition lints");
    server.shutdown();
}

/// With `MAX_INGEST_CONNECTIONS` ingest connections held open, one more
/// is closed at once and counted as `ingest_refused` in `/status`, while
/// `/metrics` gains no series; once the held connections close, rows
/// ingest again.
#[test]
fn ingest_connections_past_the_cap_are_refused_and_counted() {
    let server = Server::spawn(&[]);
    let held: Vec<TcpStream> = (0..MAX_INGEST_CONNECTIONS)
        .map(|_| TcpStream::connect(&server.ingest).expect("connect ingest"))
        .collect();

    // The acceptor takes connections in order, so this one finds every
    // place taken and must see the server close it.
    let mut extra = TcpStream::connect(&server.ingest).expect("connect ingest");
    extra
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read timeout");
    match extra.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("connection past the cap was not closed: {other:?}"),
    }
    let status_json = || {
        let (status, body) = server.http("GET", "/status");
        assert!(status.contains("200"), "{status}");
        String::from_utf8(body).expect("json body")
    };
    assert_eq!(json_u64(&status_json(), "ingest_refused"), 1);
    let (_, metrics) = server.http("GET", "/metrics");
    let metrics = String::from_utf8(metrics).expect("utf8 metrics");
    assert!(!metrics.contains("refused"), "{metrics}");

    // Closing the held connections gives their places back. A retry
    // covers a connection accepted before the places were.
    drop(held);
    let mut refused = 1;
    let start = Instant::now();
    'send: loop {
        server.ingest_rows("1 2\n3 4\n");
        loop {
            let status = status_json();
            if json_u64(&status, "tuples") == 2 {
                break 'send;
            }
            if json_u64(&status, "ingest_refused") > refused {
                refused = json_u64(&status, "ingest_refused");
                continue 'send;
            }
            assert!(start.elapsed() < DEADLINE, "rows never ingested: {status}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
    server.shutdown();
}

/// Serve ends lines like the CLI (see `tests/cli.rs`): `\n` or `\r\n`
/// ends a line, so `\r\r\n` leaves a one-`\r` line — not blank, but a
/// row with no fields, skipped.
#[test]
fn crlf_lines_follow_the_cli_terminator_rule() {
    let server = Server::spawn(&[]);
    server.ingest_bytes(b"0 1\r\n\r\n\r\r\n2 3\r\n");
    let body = server.wait_for_tuples(2);
    assert_eq!(json_u64(&body, "skipped"), 1, "{body}");
    server.shutdown();
}

/// Every serve thread carries its role's name, so per-thread CPU read
/// from `/proc/<pid>/task/*/stat` says which role the time went to.
#[cfg(target_os = "linux")]
#[test]
fn serve_threads_are_named() {
    let server = Server::spawn(&[]);
    server.ingest_rows(&workload(100));
    server.wait_for_tuples(100);
    let tasks = format!("/proc/{}/task", server.child.id());
    let names: Vec<String> = std::fs::read_dir(&tasks)
        .unwrap_or_else(|e| panic!("{tasks}: {e}"))
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_owned())
        .collect();
    for want in ["writer", "accept-ingest", "accept-query", "query-0"] {
        assert!(names.iter().any(|n| n == want), "{want} in {names:?}");
    }
    server.shutdown();
}
