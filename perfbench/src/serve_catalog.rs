//! `serve_catalog`: writes beside reads on the catalog server.
//!
//! `implicate-serve --catalog --arity 8` preloaded with a 64-query
//! candidate-FD sweep over the 8 OLAP columns. OLAP rows arrive as text
//! on one ingest connection at a fixed rate while Poisson
//! `GET /estimate?query=…` and `GET /healthz` requests and a slow
//! `POST /query` / `DELETE /query/{id}` churn run alongside. The only
//! workload that runs `hashplan`, the catalog fan-out and publish, and
//! the catalog lifecycle.

use std::time::Duration;

use implicate::datagen::{OlapSpec, OlapStream};
use implicate::sketch::hash::MixHasher;
use implicate::spec::{QuerySpec, FIELD_HASHER_SEED};
use implicate::{HashedBatch, QueryCatalog, Schema, Tuple};

use crate::loadgen::{self, Lane};
use crate::serve::{self, Server};
use crate::stats::{median, quantile};
use crate::trace::SpanLog;
use crate::{replay, Ctx, Metric, Report};

/// Columns of an OLAP row.
const ARITY: usize = 8;
/// Offered ingest rate, rows per second.
const ROW_RATE: f64 = 40_000.0;
/// Poisson request rates, per second.
const ESTIMATE_RATE: f64 = 60.0;
const HEALTHZ_RATE: f64 = 60.0;
const CHURN_RATE: f64 = 2.0;
/// The query the churn registers and retires.
const CHURN_SPEC: &str = "one-to-one 2 3";
/// Mean gap between two throwaway server starts timed for `setup_s` while
/// the run goes on (about 120 in 30 s).
const SETUP_EVERY: Duration = Duration::from_millis(250);

/// The 64-query sweep: every ordered column pair as a candidate
/// functional dependency, plus each column's distinct count.
fn query_file() -> String {
    let mut text = String::new();
    for lhs in 0..ARITY {
        for rhs in 0..ARITY {
            if lhs == rhs {
                text.push_str(&format!("q{lhs}{rhs} distinct {lhs} -\n"));
            } else {
                text.push_str(&format!("q{lhs}{rhs} one-to-one {lhs} {rhs}\n"));
            }
        }
    }
    text
}

fn start_server(ctx: &Ctx, args: &[String]) -> Result<(Server, f64), String> {
    let t = std::time::Instant::now();
    let proc = Server::spawn(&ctx.bin("implicate-serve"), args)?;
    let server = Server::ready(proc, Some("implicate-serve: preloaded"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let total = (ROW_RATE * ctx.seconds) as usize;
    let mut stream = OlapStream::new(OlapSpec {
        seed: ctx.seed ^ 0x01a5_eed5,
        ..OlapSpec::default()
    });
    let lines: Vec<String> = (0..total)
        .map(|_| {
            let t = stream.next_row();
            let vals: Vec<String> = t.values().iter().map(u64::to_string).collect();
            vals.join(" ")
        })
        .collect();

    let file = query_file();
    let queries: Vec<QuerySpec> = implicate::spec::parse_query_file(&file)?;
    let path = ctx
        .out_dir
        .join(format!("serve_catalog-{}.queries", ctx.seed));
    std::fs::write(&path, &file).map_err(|e| format!("{}: {e}", path.display()))?;

    // Reference: the library catalog fed exactly as serve's writer.
    let config = serve::default_config();
    let schema = Schema::new((0..ARITY).map(|i| (format!("c{i}"), 0)));
    let mut reference = QueryCatalog::new(&schema, config);
    for q in &queries {
        reference
            .try_register(q.name.clone(), q.query.clone())
            .map_err(|e| format!("reference catalog: {e}"))?;
    }
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let hasher = reference.hasher().clone();
    let mut hashed = HashedBatch::new();
    for chunk in lines.chunks(256) {
        let tuples: Vec<Tuple> = chunk
            .iter()
            .map(|l| {
                let v: Vec<u64> = l
                    .split_whitespace()
                    .map(|f| implicate::text::hash_field(&field_hasher, f))
                    .collect();
                Tuple::new(v)
            })
            .collect();
        hasher.hash_batch(tuples, &mut hashed);
        reference.process_hashed(&hashed);
    }

    let args: Vec<String> = ["--catalog", "--arity", "8", "--query-file"]
        .iter()
        .map(|s| s.to_string())
        .chain([path.display().to_string()])
        .collect();
    let (server, first_start) = start_server(ctx, &args)?;
    let mut attempted = 1;

    let mut lane = Lane::new(server.ingest.clone());
    for (g, line) in lines.iter().enumerate() {
        lane.push(g, line);
    }
    let plan = loadgen::Plan {
        query_addr: server.query.clone(),
        lanes: vec![lane],
        total_rows: total,
        row_rate: ROW_RATE,
        seconds: ctx.seconds,
        estimate_paths: queries
            .iter()
            .map(|q| format!("/estimate?query={}", q.name))
            .collect(),
        estimate_rate: ESTIMATE_RATE,
        healthz_rate: HEALTHZ_RATE,
        churn_rate: CHURN_RATE,
        churn_spec: CHURN_SPEC.to_string(),
        seed: ctx.seed,
    };
    let mut log = SpanLog::new();
    let cpu_before = server.cpu_so_far()?;
    let throwaway = || -> Result<f64, String> {
        let (mut server, secs) = start_server(ctx, &args)?;
        server.proc.kill().map_err(|e| format!("stop serve: {e}"))?;
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

    // Settle, then check every preloaded answer bit for bit.
    let (_, settled) = server.settle(
        &format!("/estimate?query={}", queries[0].name),
        total as u64,
    )?;
    let cpu = server.cpu_so_far()? - cpu_before;
    let timeout = Duration::from_secs(30);
    let mut wrong = 0u64;
    for q in &queries {
        attempted += 1;
        let path = format!("/estimate?query={}", q.name);
        let reply = crate::http::call(&server.query, "GET", &path, "", timeout);
        let id = reference.find(&q.name).expect("registered above");
        let want = reference.answer(id).expect("live query").to_bits();
        match reply {
            Ok((200, body)) => {
                let got = crate::http::json_u64(&body, "answer_bits");
                let tuples = crate::http::json_u64(&body, "tuples");
                if got != Some(want) || tuples != Some(total as u64) {
                    wrong += 1;
                    failed += 1;
                    eprintln!(
                        "perfbench: serve_catalog {}: {body} (reference bits {want})",
                        q.name
                    );
                }
            }
            _ => failed += 1,
        }
    }
    attempted += 1;
    match crate::http::call(&server.query, "GET", "/status", "", timeout) {
        Ok((200, body))
            if crate::http::json_u64(&body, "skipped") == Some(0)
                && crate::http::json_u64(&body, "accepted") == Some(total as u64) => {}
        other => {
            failed += 1;
            eprintln!("perfbench: serve_catalog final /status: {other:?}");
        }
    }
    attempted += 1;
    let usage = server.shutdown()?;

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
        let layers = replay::run(
            &replay::Plan {
                lines: &lines,
                arity: ARITY,
                config,
                queries: &queries,
                churn_spec: CHURN_SPEC,
                churn_every: (ROW_RATE / CHURN_RATE) as usize,
            },
            &mut log,
        )?;
        crate::ledger_header(
            &mut report.ledger,
            "serve_catalog",
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
                "hashplan.hash_batch",
                "catalog.process_hashed",
                "catalog.publish",
                "catalog.register",
                "catalog.retire",
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
                .join(format!("serve_catalog-{}.spans.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(report)
}
