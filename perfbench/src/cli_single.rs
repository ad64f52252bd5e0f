//! `cli_single`: the paper's own workload on the default CLI path.
//!
//! `implicate --lhs 0 --rhs 1` under the §6.1 conditions reads a Dataset
//! One stream on stdin, written by the benchmark as fast as the CLI
//! takes it, and prints a `--watch` answer every `WATCH` rows plus the
//! final answer. The run repeats whole invocations for `--seconds` and
//! reports medians over them. No HTTP, wire, catalog or publish work.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use implicate::datagen::{DatasetOne, DatasetOneSpec};
use implicate::sketch::hash::MixHasher;
use implicate::spec::FIELD_HASHER_SEED;
use implicate::{EstimatorConfig, Fringe};

use crate::stats::{median, quantile};
use crate::sys::{self, PollFd, Proc, POLLIN};
use crate::trace::SpanLog;
use crate::{replay, Ctx, Metric, Report};

/// `‖A‖` of the Dataset One instance: about 290k rows, about 0.1 s per
/// invocation.
const CARDINALITY: u64 = 3_000;
/// Rows between two `--watch` answers.
const WATCH: usize = 4096;
/// Untimed invocations before anything is timed.
const WARMUP: usize = 3;
/// Timed invocations, and so empty-input spawns timed for `setup_s`,
/// even when one invocation outlasts `--seconds`.
const MIN_INVOCATIONS: usize = 31;
/// Bytes per write into the CLI's stdin.
const CHUNK: usize = 64 * 1024;
/// An invocation running longer than this is killed and counts as failed.
const INVOCATION_LIMIT: Duration = Duration::from_secs(60);

fn cli_args() -> Vec<String> {
    [
        "--lhs",
        "0",
        "--rhs",
        "1",
        "--max-mult",
        "1",
        "--support",
        "50",
        "--top-c",
        "1",
        "--confidence",
        "90",
        "--policy",
        "tracktop",
        "--watch",
    ]
    .iter()
    .map(|s| s.to_string())
    .chain([WATCH.to_string()])
    .collect()
}

/// The CLI's defaults under the §6.1 conditions.
fn config(spec: &DatasetOneSpec) -> EstimatorConfig {
    EstimatorConfig::new(spec.paper_conditions())
        .bitmaps(64)
        .fringe(Fringe::Bounded(4))
        .seed(42)
}

/// One observed invocation.
struct Invocation {
    /// Spawn to printed answer.
    turnaround_ms: f64,
    /// Last input byte written (then stdin closed) to printed answer:
    /// the rest of the input, the final estimate and the exit's flush.
    eof_to_answer_ms: f64,
    answer: String,
    /// Every `--watch` line, in order.
    watch_lines: Vec<String>,
    /// The summary line, `rows N (skipped S) | …`.
    summary: Option<String>,
    freshness_ms: Vec<f64>,
    cpu: Duration,
    peak_rss_kib: u64,
    success: bool,
}

/// Parses `"{rows} rows: answer ≈ …"` (a `--watch` line).
fn watch_rows(line: &str) -> Option<usize> {
    let (n, rest) = line.split_once(' ')?;
    rest.starts_with("rows: answer").then(|| n.parse().ok())?
}

/// What the CLI prints for one estimate, as the reference expects it.
struct Expected {
    /// The answer on stdout.
    answer: String,
    /// Every `--watch` line.
    watch_lines: Vec<String>,
    /// The summary line up to the tracking-entry count.
    summary_prefix: String,
}

fn invoke(
    bin: &std::path::Path,
    args: &[String],
    text: &[u8],
    ends: &[usize],
) -> Result<Invocation, String> {
    let spawned = Instant::now();
    let mut proc = Proc::spawn(
        Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped()),
    )
    .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let mut stdin = proc.child_mut().stdin.take().expect("piped stdin");
    let mut stdout = proc.stdout.take().expect("piped stdout");
    let mut stderr = proc.stderr.take().expect("piped stderr");

    std::thread::scope(|s| {
        // Feeder: (rows fully written, ns since spawn) after each chunk,
        // and when stdin was closed.
        let feeder = s.spawn(move || {
            let mut sent: Vec<(usize, u64)> = Vec::with_capacity(text.len() / CHUNK + 1);
            let mut row = 0;
            for (i, chunk) in text.chunks(CHUNK).enumerate() {
                if stdin.write_all(chunk).is_err() {
                    break;
                }
                let written = (i * CHUNK + chunk.len()).min(text.len());
                while row < ends.len() && ends[row] <= written {
                    row += 1;
                }
                sent.push((row, spawned.elapsed().as_nanos() as u64));
            }
            drop(stdin);
            (sent, spawned.elapsed().as_nanos() as u64)
        });

        let mut out = Vec::new();
        let mut err = Vec::new();
        let mut answered: Option<u64> = None;
        let mut watched: Vec<(usize, u64)> = Vec::new();
        let mut watch_lines = Vec::new();
        let mut err_scanned = 0;
        let mut open = [true, true];
        let mut buf = vec![0u8; 64 * 1024];
        while open[0] || open[1] {
            if spawned.elapsed() > INVOCATION_LIMIT {
                break;
            }
            let mut fds: Vec<PollFd> = Vec::new();
            if open[0] {
                fds.push(PollFd {
                    fd: stdout.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
            }
            if open[1] {
                fds.push(PollFd {
                    fd: stderr.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                });
            }
            sys::poll(&mut fds, Duration::from_millis(100)).map_err(|e| format!("poll: {e}"))?;
            let mut k = 0;
            for (stream, is_open) in open.iter_mut().enumerate() {
                if !*is_open {
                    continue;
                }
                let ready = fds[k].revents != 0;
                k += 1;
                if !ready {
                    continue;
                }
                let n = if stream == 0 {
                    stdout.read(&mut buf)
                } else {
                    stderr.read(&mut buf)
                }
                .map_err(|e| format!("read CLI output: {e}"))?;
                let now = spawned.elapsed().as_nanos() as u64;
                if n == 0 {
                    *is_open = false;
                } else if stream == 0 {
                    out.extend_from_slice(&buf[..n]);
                    if answered.is_none() && out.contains(&b'\n') {
                        answered = Some(now);
                    }
                } else {
                    err.extend_from_slice(&buf[..n]);
                    while let Some(nl) = err[err_scanned..].iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&err[err_scanned..err_scanned + nl]);
                        if let Some(rows) = watch_rows(&line) {
                            watched.push((rows, now));
                            watch_lines.push(line.into_owned());
                            proc.sample_rss();
                        }
                        err_scanned += nl + 1;
                    }
                }
            }
        }
        let (exit, by_itself) = proc
            .wait_or_kill(Duration::from_secs(5))
            .map_err(|e| format!("wait for CLI: {e}"))?;
        let (sent, eof) = feeder.join().expect("feeder thread panicked");

        let freshness_ms = watched
            .iter()
            .filter_map(|&(rows, seen)| {
                let at = sent.partition_point(|&(r, _)| r < rows);
                sent.get(at)
                    .map(|&(_, t)| seen.saturating_sub(t) as f64 / 1e6)
            })
            .collect();
        let err_text = String::from_utf8_lossy(&err);
        Ok(Invocation {
            turnaround_ms: answered.map_or(f64::NAN, |t| t as f64 / 1e6),
            eof_to_answer_ms: answered.map_or(f64::NAN, |t| t.saturating_sub(eof) as f64 / 1e6),
            answer: String::from_utf8_lossy(&out).trim().to_string(),
            watch_lines,
            summary: err_text
                .lines()
                .find(|l| l.starts_with("rows "))
                .map(str::to_string),
            freshness_ms,
            cpu: exit.usage.cpu,
            peak_rss_kib: exit.usage.peak_rss_kib,
            success: exit.success && by_itself && answered.is_some(),
        })
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let spec = DatasetOneSpec::paper(CARDINALITY, CARDINALITY / 2, 1, ctx.seed);
    let data = DatasetOne::generate(&spec);
    let rows = data.pairs.len();
    let lines: Vec<String> = data.pairs.iter().map(|(a, b)| format!("{a} {b}")).collect();
    let mut text = Vec::new();
    let mut ends = Vec::with_capacity(rows);
    for line in &lines {
        text.extend_from_slice(line.as_bytes());
        text.push(b'\n');
        ends.push(text.len());
    }

    // Reference: the library estimator fed exactly as `run_sequential`,
    // with each estimate rendered as the CLI renders it.
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let mut reference = config(&spec).build();
    let mut watch_lines = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let (a, b) = line.split_once(' ').expect("rendered as two fields");
        reference.update(
            &[implicate::text::hash_field(&field_hasher, a)],
            &[implicate::text::hash_field(&field_hasher, b)],
        );
        if (i + 1) % WATCH == 0 {
            let e = reference.estimate_now();
            watch_lines.push(format!(
                "{} rows: answer ≈ {:.0} (S {:.0}, S̄ {:.0}, F0^sup {:.0})",
                i + 1,
                e.implication_count,
                e.implication_count,
                e.non_implication_count,
                e.f0_sup
            ));
        }
    }
    let e = reference.estimate_now();
    let expected = Expected {
        answer: format!("{:.0}", e.implication_count),
        watch_lines,
        summary_prefix: format!(
            "rows {rows} (skipped 0) | conditions {} | S ≈ {:.0}, S̄ ≈ {:.0}, F0^sup ≈ {:.0} | ",
            reference.conditions(),
            e.implication_count,
            e.non_implication_count,
            e.f0_sup
        ),
    };

    let bin = ctx.bin("implicate");
    let args = cli_args();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut wrong = 0u64;
    // (failed, wrong) for one invocation: the answer, every `--watch`
    // line and the summary's estimates must match the reference.
    let check = |inv: &Invocation| -> (u64, u64) {
        let summary = inv.summary.as_deref().unwrap_or("");
        if !inv.success || !summary.starts_with(&format!("rows {rows} (skipped 0) |")) {
            (1, 0)
        } else if inv.answer != expected.answer
            || inv.watch_lines != expected.watch_lines
            || !summary.starts_with(&expected.summary_prefix)
        {
            eprintln!(
                "perfbench: cli_single answered {:?} with {} watch lines and summary {summary:?}; \
                 reference {:?}, {} watch lines, {:?}",
                inv.answer,
                inv.watch_lines.len(),
                expected.answer,
                expected.watch_lines.len(),
                expected.summary_prefix
            );
            (1, 1)
        } else {
            (0, 0)
        }
    };
    // Untimed invocations first, so page cache and CPU frequency have
    // settled before anything is timed.
    for _ in 0..WARMUP {
        attempted += 1;
        let (f, w) = check(&invoke(&bin, &args, &text, &ends)?);
        failed += f;
        wrong += w;
    }
    // One empty-input spawn before each invocation, so the setup median
    // spans the whole run rather than one moment of it.
    let mut setup = Vec::new();
    let mut spawn_empty = || -> Result<u64, String> {
        let t = Instant::now();
        let mut p =
            Proc::spawn_quiet(&bin, &args).map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let exit = p.wait().map_err(|e| format!("wait for CLI: {e}"))?;
        setup.push(t.elapsed().as_secs_f64());
        Ok(u64::from(!exit.success))
    };

    let mut runs: Vec<Invocation> = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds || runs.len() < MIN_INVOCATIONS {
        attempted += 2;
        failed += spawn_empty()?;
        let inv = invoke(&bin, &args, &text, &ends)?;
        let (f, w) = check(&inv);
        failed += f;
        wrong += w;
        runs.push(inv);
    }
    let ok: Vec<&Invocation> = runs.iter().filter(|r| r.success).collect();
    if ok.is_empty() {
        return Err("no CLI invocation succeeded".into());
    }
    let eof_to_answer: Vec<f64> = ok.iter().map(|r| r.eof_to_answer_ms).collect();
    // All rows over all spawn-to-answer time: the host's speed swings
    // between runs of seconds, and a total follows the mix of fast and
    // slow stretches smoothly where a median jumps between them.
    let turnaround_s: f64 = ok.iter().map(|r| r.turnaround_ms / 1e3).sum();
    let rows_per_s = (rows * ok.len()) as f64 / turnaround_s;
    let freshness: Vec<f64> = ok
        .iter()
        .flat_map(|r| r.freshness_ms.iter().copied())
        .collect();
    // The tail within one invocation, then the median over invocations:
    // a pooled p99 would follow whichever invocations a neighbour on a
    // shared host happened to stall.
    let freshness_p99: Vec<f64> = ok
        .iter()
        .filter_map(|r| quantile(&r.freshness_ms, 0.99))
        .collect();
    let cpu_ms: f64 = ok.iter().map(|r| r.cpu.as_secs_f64() * 1e3).sum();
    let rss: Vec<f64> = ok
        .iter()
        .map(|r| r.peak_rss_kib as f64 * 1024.0 / 1e6)
        .collect();
    let cpu_ms_per_mrow = cpu_ms / (rows * ok.len()) as f64 * 1e6;
    let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
    let end_to_end = vec![
        Metric::new("setup_s", need(median(&setup), "setup_s")?, "s"),
        Metric::new("rows_per_s", rows_per_s, "1/s"),
        Metric::new("cpu_ms_per_mrow", cpu_ms_per_mrow, "ms"),
        Metric::new("peak_rss_mb", need(median(&rss), "peak_rss_mb")?, "MB"),
        Metric::new(
            "query_p50_ms",
            need(median(&eof_to_answer), "query_p50_ms")?,
            "ms",
        ),
        Metric::new(
            "query_p99_ms",
            need(quantile(&eof_to_answer, 0.99), "query_p99_ms")?,
            "ms",
        ),
        Metric::new(
            "freshness_p50_ms",
            need(median(&freshness), "freshness")?,
            "ms",
        ),
        Metric::new(
            "freshness_p99_ms",
            need(median(&freshness_p99), "freshness")?,
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
        let mut log = SpanLog::new();
        let queries = implicate::spec::parse_query_file("q0 noisy 0 1 c=1 psi=90 support=50")?;
        let layers = replay::run(
            &replay::Plan {
                lines: &lines,
                arity: 2,
                config: config(&spec),
                queries: &queries,
                churn_spec: "one-to-one 1 0",
                churn_every: rows / 8,
            },
            &mut log,
        )?;
        crate::ledger_header(
            &mut report.ledger,
            "cli_single",
            ctx,
            rows,
            &report.end_to_end,
        );
        let _ = writeln!(
            report.ledger,
            "  samples: {} invocations, {} watch answers, {} setup spawns",
            ok.len(),
            freshness.len(),
            setup.len()
        );
        let unattributed = crate::ledger_layers(
            &mut report.ledger,
            &layers,
            &["text.hash_field", "estimator.update"],
            0.0,
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
                .join(format!("cli_single-{}.spans.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("write spans: {e}"))?;
    }
    Ok(report)
}
