//! `fleet_network`: the paper's router scenario as a fleet.
//!
//! Two edges (`implicate-serve --upstream … --node-id i`) and one
//! `--aggregate` node. Network src→dst rows go to the edges at a fixed
//! total rate, routed by bitmap (`split_rank(h_a) % 2`) so the edge
//! partitions are bitmap-disjoint; Poisson `GET /estimate` and
//! `GET /healthz` requests go to the aggregator. The only workload that
//! runs wire encode/decode, merge, and serve's plain ingest path and
//! writer; it bypasses `hashplan` and the catalog.

use std::time::{Duration, Instant};

use implicate::datagen::{NetworkSpec, NetworkStream};
use implicate::sketch::hash::MixHasher;
use implicate::sketch::rank::split_rank;
use implicate::spec::FIELD_HASHER_SEED;
use implicate::ImplicationEstimator;

use crate::loadgen::{self, Lane};
use crate::serve::{self, Server};
use crate::stats::{median, quantile};
use crate::sys::Usage;
use crate::trace::SpanLog;
use crate::{replay, Ctx, Metric, Report};

/// Offered ingest rate over both edges, rows per second.
const ROW_RATE: f64 = 60_000.0;
/// Poisson request rates at the aggregator, per second.
const ESTIMATE_RATE: f64 = 60.0;
const HEALTHZ_RATE: f64 = 60.0;
const EDGES: usize = 2;
/// Mean gap between two throwaway fleet starts timed for `setup_s` while
/// the run goes on (about 120 in 30 s).
const SETUP_EVERY: Duration = Duration::from_millis(250);

struct Fleet {
    aggregator: Server,
    edges: Vec<Server>,
}

/// Starts the aggregator, then both edges; returns the fleet and the
/// time from the first spawn until every process announced itself.
fn start_fleet(ctx: &Ctx) -> Result<(Fleet, f64), String> {
    let bin = ctx.bin("implicate-serve");
    let t = Instant::now();
    let aggregator = Server::ready(Server::spawn(&bin, &["--aggregate".to_string()])?, None)?;
    let spawned: Vec<_> = (0..EDGES)
        .map(|i| {
            let args = [
                "--upstream",
                &aggregator.ingest,
                "--node-id",
                &i.to_string(),
            ]
            .map(str::to_string);
            Server::spawn(&bin, &args)
        })
        .collect::<Result<_, _>>()?;
    let edges = spawned
        .into_iter()
        .map(|p| Server::ready(p, None))
        .collect::<Result<_, _>>()?;
    Ok((Fleet { aggregator, edges }, t.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let total = (ROW_RATE * ctx.seconds) as usize;
    let mut stream = NetworkStream::new(NetworkSpec {
        seed: ctx.seed ^ 0x2e70_5eed,
        ..NetworkSpec::default()
    });
    let lines: Vec<String> = (0..total)
        .map(|_| {
            let t = stream.next_row();
            let vals: Vec<String> = t.values().iter().map(u64::to_string).collect();
            vals.join(" ")
        })
        .collect();

    // Route by bitmap and build the reference: one library estimator
    // per edge partition, merged as the aggregator merges.
    let config = serve::default_config();
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let mut parts: Vec<ImplicationEstimator> = (0..EDGES).map(|_| config.build()).collect();
    let pair_hasher = parts[0].pair_hasher();
    let log2_m = parts[0].bitmap_count().trailing_zeros();
    let mut route = Vec::with_capacity(total);
    for line in &lines {
        let mut fields = line.split_whitespace();
        let mut next =
            || implicate::text::hash_field(&field_hasher, fields.next().expect("4 fields"));
        let (a, b) = (next(), next());
        let (h_a, b_fp) = pair_hasher.hash_pair(&[a], &[b]);
        let edge = split_rank(h_a, log2_m).0 % EDGES;
        parts[edge].update_hashed(h_a, b_fp);
        route.push(edge);
    }
    let mut reference = config.build();
    for p in &parts {
        reference.merge(p);
    }
    let want = reference.estimate_now();

    let (fleet, first_start) = start_fleet(ctx)?;
    let mut attempted = 1;

    let mut lanes: Vec<Lane> = fleet
        .edges
        .iter()
        .map(|e| Lane::new(e.ingest.clone()))
        .collect();
    for (g, (line, &edge)) in lines.iter().zip(&route).enumerate() {
        lanes[edge].push(g, line);
    }
    let plan = loadgen::Plan {
        query_addr: fleet.aggregator.query.clone(),
        lanes,
        total_rows: total,
        row_rate: ROW_RATE,
        seconds: ctx.seconds,
        estimate_paths: vec!["/estimate".to_string()],
        estimate_rate: ESTIMATE_RATE,
        healthz_rate: HEALTHZ_RATE,
        churn_rate: 0.0,
        churn_spec: String::new(),
        seed: ctx.seed,
    };
    let mut log = SpanLog::new();
    let fleet_cpu = |fleet: &Fleet| -> Result<Duration, String> {
        let mut cpu = Duration::ZERO;
        for server in fleet.edges.iter().chain([&fleet.aggregator]) {
            cpu += server.cpu_so_far()?;
        }
        Ok(cpu)
    };
    let cpu_before = fleet_cpu(&fleet)?;
    let throwaway = || -> Result<f64, String> {
        let (mut fleet, secs) = start_fleet(ctx)?;
        for s in fleet.edges.iter_mut().chain([&mut fleet.aggregator]) {
            s.proc.kill().map_err(|e| format!("stop serve: {e}"))?;
        }
        Ok(secs)
    };
    let (outcome, setup) =
        serve::starts_during(SETUP_EVERY, ctx.seed ^ 0x5e70_0b5e, throwaway, || {
            loadgen::run(&plan, ctx.trace.then_some(&mut log))
        });
    let outcome = outcome.map_err(|e| format!("load generator: {e}"))?;
    let mut setup = setup?;
    attempted += setup.len() as u64;
    setup.push(first_start);
    attempted += outcome.attempted;
    let mut failed = outcome.failed;

    // Settle, check the merged answer bit for bit, and scrape counters.
    let (body, settled) = fleet.aggregator.settle("/estimate", total as u64)?;
    let cpu = fleet_cpu(&fleet)? - cpu_before;
    attempted += 1;
    let bits = [
        ("f0_sup_bits", want.f0_sup),
        ("non_implication_count_bits", want.non_implication_count),
        ("implication_count_bits", want.implication_count),
    ];
    let wrong = u64::from(
        bits.iter()
            .any(|(key, v)| crate::http::json_u64(&body, key) != Some(v.to_bits())),
    );
    if wrong > 0 {
        failed += 1;
        eprintln!("perfbench: fleet_network aggregate {body} differs from the reference {want:?}");
    }
    let timeout = Duration::from_secs(30);
    attempted += 1;
    let decode_errors = crate::http::call(&fleet.aggregator.query, "GET", "/metrics", "", timeout)
        .ok()
        .filter(|(code, _)| *code == 200)
        .and_then(|(_, text)| crate::http::prom_value(&text, "wire_decode_errors"));
    if decode_errors != Some(0.0) {
        failed += 1;
        eprintln!("perfbench: fleet_network aggregator wire decode errors: {decode_errors:?}");
    }
    for edge in &fleet.edges {
        attempted += 1;
        let reply = crate::http::call(&edge.query, "GET", "/status", "", timeout);
        let clean =
            matches!(&reply, Ok((200, body)) if crate::http::json_u64(body, "skipped") == Some(0));
        if !clean {
            failed += 1;
            eprintln!("perfbench: fleet_network edge /status: {reply:?}");
        }
    }

    let mut usage = Usage::default();
    for server in fleet.edges.into_iter().chain([fleet.aggregator]) {
        attempted += 1;
        let u = server.shutdown()?;
        usage.peak_rss_kib += u.peak_rss_kib;
    }

    let latency: Vec<f64> = outcome.answers.iter().map(|a| a.latency_ms).collect();
    let freshness: Vec<f64> = outcome
        .answers
        .iter()
        .map(|a| a.freshness_ms)
        .filter(|f| f.is_finite())
        .collect();
    let cpu_ms_per_mrow = cpu.as_secs_f64() * 1e3 / (total as f64 / 1e6);
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
    let end_to_end = vec![
        Metric::new("setup_s", need(median(&setup), "setup_s")?, "s"),
        Metric::new(
            "rows_per_s",
            total as f64 / settled.duration_since(outcome.started).as_secs_f64(),
            "1/s",
        ),
        Metric::new("cpu_ms_per_mrow", cpu_ms_per_mrow, "ms"),
        Metric::new(
            "peak_rss_mb",
            usage.peak_rss_kib as f64 * 1024.0 / 1e6,
            "MB",
        ),
        Metric::new(
            "query_p50_ms",
            need(median(&latency), "query latency")?,
            "ms",
        ),
        Metric::new(
            "query_p99_ms",
            need(quantile(&latency, 0.99), "query latency")?,
            "ms",
        ),
        Metric::new(
            "freshness_p50_ms",
            need(median(&freshness), "freshness")?,
            "ms",
        ),
        Metric::new(
            "freshness_p99_ms",
            need(quantile(&freshness, 0.99), "freshness")?,
            "ms",
        ),
    ];
    let mut report = Report {
        correct: wrong == 0,
        attempted,
        failed,
        end_to_end,
        per_layer: Vec::new(),
        ledger: String::new(),
    };
    if ctx.trace {
        let queries = implicate::spec::parse_query_file("q0 one-to-one 0 1")?;
        let layers = replay::run(
            &replay::Plan {
                lines: &lines,
                arity: 2,
                config,
                queries: &queries,
                churn_spec: "one-to-one 1 0",
                churn_every: total / 8,
            },
            &mut log,
        )?;
        crate::ledger_header(
            &mut report.ledger,
            "fleet_network",
            ctx,
            total,
            &report.end_to_end,
        );
        crate::ledger_http(&mut report.ledger, &outcome, &latency);
        let unattributed = crate::ledger_layers(
            &mut report.ledger,
            &layers,
            &[
                "text.hash_field",
                "estimator.hash_pair",
                "estimator.update_hashed_batch",
                "estimator.publish",
                "wire.capture",
                "wire.full_encode",
                "wire.delta_encode",
                "wire.decode_apply",
                "wire.merge",
                "estimator.publish_full",
            ],
            outcome.answers.len() as f64 / total as f64,
            cpu_ms_per_mrow,
        );
        report.per_layer = layers.metrics;
        report.per_layer.push(Metric::new(
            "ledger.unattributed_ms_per_mrow",
            unattributed,
            "ms",
        ));
        log.write_jsonl(
            &ctx.out_dir
                .join(format!("fleet_network-{}.spans.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(report)
}
