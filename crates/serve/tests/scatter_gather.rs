//! Distributed scatter-gather: N edge `implicate-serve` processes
//! ingesting disjoint partitions ship wire snapshots to an aggregator
//! whose published estimate is **bit-for-bit identical** to a
//! single-node run over the union stream — at every settled epoch,
//! across edge reconnects (full-snapshot fallback) and across an
//! aggregator checkpoint → restore.
//!
//! The partitions are *bitmap-disjoint*: rows are routed to edges by
//! the bitmap index their `h_a` hash maps to (`split_rank(h_a) % N`),
//! so every bitmap's entire update history lives on exactly one edge in
//! original stream order. Merging the edge states then reconstructs the
//! single-node state exactly — the same argument that makes the sharded
//! pipeline bit-identical (see DESIGN.md §8.6).

use implicate::sketch::hash::MixHasher;
use implicate::sketch::rank::split_rank;

mod common;

use common::*;

const EDGES: usize = 3;

/// Splits rows into `n` bitmap-disjoint partitions: every row lands on
/// the edge that owns the bitmap its `h_a` routes to, preserving
/// per-bitmap stream order.
fn partition(rows: &str, n: usize) -> Vec<String> {
    let est = serve_default_config().build();
    let pair_hasher = est.pair_hasher();
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let log2_m = est.bitmap_count().trailing_zeros();
    let mut parts = vec![String::new(); n];
    for line in rows.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let a = [implicate::text::hash_field(&field_hasher, fields[0])];
        let b = [implicate::text::hash_field(&field_hasher, fields[1])];
        let (h_a, _) = pair_hasher.hash_pair(&a, &b);
        let (idx, _) = split_rank(h_a, log2_m);
        let part = &mut parts[idx % n];
        part.push_str(line);
        part.push('\n');
    }
    parts
}

/// Grabs a currently-free localhost port. The aggregator must listen on
/// a *known* port so edges can reconnect to it across its restart.
fn free_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0")
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port()
}

#[test]
fn aggregated_estimate_is_bit_identical_to_a_single_node_run() {
    let dir = std::env::temp_dir().join(format!("imp-scatter-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let checkpoint = dir.join("aggregate.imps");
    let checkpoint = checkpoint.to_str().expect("utf8 path");

    let agg_ingest = format!("127.0.0.1:{}", free_port());
    let aggregator = Server::spawn(&[
        "--aggregate",
        "--ingest",
        &agg_ingest,
        "--checkpoint",
        checkpoint,
    ]);

    let edges: Vec<Server> = (0..EDGES)
        .map(|i| {
            let id = i.to_string();
            Server::spawn(&[
                "--upstream",
                &agg_ingest,
                "--node-id",
                &id,
                "--publish-every",
                "64",
                "--ship-every",
                "64",
            ])
        })
        .collect();

    let rows = workload(5_000);
    let all_lines: Vec<&str> = rows.lines().collect();
    let prefix = |n: usize| {
        let mut s = all_lines[..n].join("\n");
        s.push('\n');
        s
    };

    // ── Wave 1: first 2 500 rows, bitmap-partitioned across the edges.
    let wave1 = prefix(2_500);
    for (edge, part) in edges.iter().zip(partition(&wave1, EDGES)) {
        assert!(!part.is_empty(), "every edge gets rows in wave 1");
        edge.ingest_rows(&part);
    }
    let body = aggregator.wait_for_tuples(2_500);
    assert_bits_match(&body, &library_run(&wave1));

    // ── Wave 2: the next 1 500 rows, streamed in several chunks so the
    // edges ship *delta* frames between settled epochs.
    let wave2 = prefix(4_000);
    let tail: Vec<String> = partition(&wave2, EDGES)
        .into_iter()
        .zip(partition(&wave1, EDGES))
        .map(|(full, done)| full[done.len()..].to_string())
        .collect();
    for chunk in 0..3 {
        for (edge, part) in edges.iter().zip(&tail) {
            let lines: Vec<&str> = part.lines().collect();
            let lo = lines.len() * chunk / 3;
            let hi = lines.len() * (chunk + 1) / 3;
            if lo < hi {
                let mut payload = lines[lo..hi].join("\n");
                payload.push('\n');
                edge.ingest_rows(&payload);
            }
        }
    }
    let body = aggregator.wait_for_tuples(4_000);
    assert_bits_match(&body, &library_run(&wave2));

    // ── Aggregator restart: graceful shutdown writes the checkpoint;
    // the replacement restores it and listens on the same port. The
    // edges keep running, notice the dead connection, reconnect with
    // backoff, and resync via full-snapshot fallback.
    aggregator.shutdown();
    assert!(
        std::path::Path::new(checkpoint).exists(),
        "aggregator shutdown wrote the checkpoint"
    );
    let aggregator = Server::spawn(&[
        "--aggregate",
        "--ingest",
        &agg_ingest,
        "--checkpoint",
        checkpoint,
    ]);

    // Before any edge resyncs, the restored checkpoint serves queries.
    let (status, snapshot) = aggregator.http("GET", "/snapshot");
    assert!(status.contains("200"), "snapshot after restore: {status}");
    assert!(!snapshot.is_empty());

    // ── Wave 3: the last 1 000 rows drive captures on every edge, so
    // every edge reconnects and the merged state converges on the full
    // 5 000-row stream.
    let wave3_tail: Vec<String> = partition(&rows, EDGES)
        .into_iter()
        .zip(partition(&wave2, EDGES))
        .map(|(full, done)| full[done.len()..].to_string())
        .collect();
    for (edge, part) in edges.iter().zip(&wave3_tail) {
        assert!(!part.is_empty(), "every edge gets rows in wave 3");
        edge.ingest_rows(part);
    }
    let body = aggregator.wait_for_tuples(5_000);
    assert_bits_match(&body, &library_run(&rows));

    // ── Graceful teardown: edges flush their final state upstream
    // before exiting; the aggregate must still match exactly.
    for edge in edges {
        edge.shutdown();
    }
    let body = aggregator.wait_for_tuples(5_000);
    assert_bits_match(&body, &library_run(&rows));
    // The aggregator accepts frames, not rows.
    assert_eq!(json_u64(&body, "accepted"), 0, "{body}");
    aggregator.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
}
