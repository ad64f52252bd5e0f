//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload cli_single --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload generates its input from the seed, drives the shipped
//! `implicate` / `implicate-serve` binaries from outside for `--seconds`,
//! checks their answers against an in-process library reference, and
//! prints one JSON object as the last line of stdout. With `--trace 0`
//! it carries the end-to-end metrics; with `--trace 1` the run also
//! replays the rows through each layer's public calls inside spans,
//! prints a per-layer ledger, and the JSON carries the per-layer metrics.
//! See `perfbench/NOTES.md` for the workloads and what they bypass.

mod cli_single;
mod fleet_network;
mod http;
mod loadgen;
mod replay;
mod serve;
mod serve_catalog;
mod stats;
mod sys;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What every workload gets.
pub struct Ctx {
    pub bin_dir: PathBuf,
    /// Scratch space inside the checkout (query files, span logs).
    pub out_dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }
}

/// What every workload returns.
pub struct Report {
    /// Every answer checked matched the library reference.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Filled by traced runs only.
    pub per_layer: Vec<Metric>,
    /// Human-readable ledger printed before the JSON line.
    pub ledger: String,
}

/// Appends the end-to-end section common to every workload's ledger:
/// the traced run's own end-to-end numbers (an untraced run gives the
/// reported ones; the difference is the tracing overhead).
pub fn ledger_header(out: &mut String, workload: &str, ctx: &Ctx, rows: usize, e2e: &[Metric]) {
    let _ = writeln!(out, "ledger {workload} seed={} rows={rows}", ctx.seed);
    let _ = writeln!(out, "  end-to-end in this traced run:");
    for m in e2e {
        let gated = if UNGATED.contains(&m.name) {
            " (printed, not gated)"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "    {:<34} {:>14.4} {}{gated}",
            m.name, m.value, m.unit
        );
    }
}

/// Appends the layer table and returns `ledger.unattributed_ms_per_mrow`:
/// the workload's CPU per million rows minus the self time of the
/// layers its binaries run. `view_reads_per_row` scales the view layer,
/// which runs once per answered request rather than per row.
pub fn ledger_layers(
    out: &mut String,
    layers: &replay::Layers,
    spans: &[&str],
    view_reads_per_row: f64,
    cpu_ms_per_mrow: f64,
) -> f64 {
    let _ = writeln!(
        out,
        "  layer self time (traced replay)       ms/Mrow     calls"
    );
    let mut attributed = 0.0;
    for &span in spans {
        let ms = layers.ns_per_row(span);
        let calls = layers.totals.get(span).map_or(0, |t| t.count);
        attributed += ms;
        let _ = writeln!(out, "    {span:<34} {ms:>10.2} {calls:>9}");
    }
    if view_reads_per_row > 0.0 {
        let ms = layers.view_read_ns() * view_reads_per_row;
        attributed += ms;
        let _ = writeln!(
            out,
            "    {:<34} {ms:>10.2}",
            "view.read (x answered requests)"
        );
    }
    let unattributed = cpu_ms_per_mrow - attributed;
    let _ = writeln!(out, "    {:<34} {attributed:>10.2}", "attributed");
    let _ = writeln!(
        out,
        "    {:<34} {cpu_ms_per_mrow:>10.2}",
        "cpu_ms_per_mrow (processes)"
    );
    let _ = writeln!(
        out,
        "    {:<34} {unattributed:>10.2}",
        "ledger.unattributed_ms_per_mrow"
    );
    let _ = writeln!(out, "  per-layer metrics:");
    for m in &layers.metrics {
        let _ = writeln!(out, "    {:<42} {:>14.4} {}", m.name, m.value, m.unit);
    }
    unattributed
}

/// End-to-end tails that are printed but are not keys of the JSON
/// result: on a shared 2-vCPU VM the p99s spread between runs of the
/// same code by more than any bound a later change could be held to
/// (see `NOTES.md`).
const UNGATED: [&str; 2] = ["query_p99_ms", "freshness_p99_ms"];

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --bin-dir DIR --workload cli_single|serve_catalog|fleet_network \
         --seed N --seconds S --trace 0|1"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bin_dir = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let ctx = Ctx {
        bin_dir: bin_dir.unwrap_or_else(|| usage("--bin-dir is required")),
        out_dir: PathBuf::from(".bench_out"),
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
    };
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: {}: {e}", ctx.out_dir.display());
        exit(1);
    }
    let result = match workload.as_str() {
        "cli_single" => cli_single::run(&ctx),
        "serve_catalog" => serve_catalog::run(&ctx),
        "fleet_network" => fleet_network::run(&ctx),
        other => usage(&format!("unknown workload {other}")),
    };
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            exit(1);
        }
    };
    let (tails, gated): (Vec<&Metric>, Vec<&Metric>) = report
        .end_to_end
        .iter()
        .partition(|m| UNGATED.contains(&m.name));
    let metrics: Vec<&Metric> = if ctx.trace {
        print!("{}", report.ledger);
        report.per_layer.iter().collect()
    } else {
        let shown: Vec<String> = tails
            .iter()
            .map(|m| format!("{} {:.3} {}", m.name, m.value, m.unit))
            .collect();
        println!("tails, printed but not gated: {}", shown.join(", "));
        gated
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {workload}: metric {} is not a number", bad.name);
        exit(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        body.join(", ")
    );
}

/// Appends the HTTP and load-generator lines of a serve workload's
/// ledger: `/estimate` latency beside `/healthz` latency, which does no
/// estimator work, and how late the generator ran.
pub fn ledger_http(out: &mut String, outcome: &loadgen::Outcome, estimate_ms: &[f64]) {
    let q = |v: &[f64], p: f64| stats::quantile(v, p).unwrap_or(f64::NAN);
    let healthz = &outcome.healthz_ms;
    let _ = writeln!(out, "  http, timed from outside against the live server:");
    for (p, name) in [(0.5, "p50"), (0.99, "p99")] {
        let _ = writeln!(
            out,
            "    query_{name}_ms {:>10.3}    http.healthz_{name}_ms {:>10.3}",
            q(estimate_ms, p),
            q(healthz, p),
        );
    }
    let _ = writeln!(
        out,
        "    answers: {} GET /estimate, {} GET /healthz, {} churn requests",
        estimate_ms.len(),
        healthz.len(),
        outcome.churn_ops
    );
    let _ = writeln!(
        out,
        "  loadgen.send_lag_p99_ms {:.3}\n  loadgen.inflight_max {}",
        q(&outcome.lag_ms, 0.99),
        outcome.inflight_max
    );
}
