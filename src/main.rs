//! `implicate` — command-line implication statistics over delimited
//! streams.
//!
//! Reads rows from a file or stdin, projects two column sets, and
//! maintains a NIPS/CI implication-count estimate online:
//!
//! ```text
//! # how many sources (col 0) stick to a single destination (col 1)?
//! implicate --lhs 0 --rhs 1 < traffic.csv
//!
//! # destinations contacted by >100 sources, reported every 100k rows
//! implicate --lhs 1 --rhs 0 --max-mult 100 --complement --watch 100000
//!
//! # spread parsing + ingestion over 4 cores (same results, bit for bit)
//! implicate --lhs 0 --rhs 1 --threads 4 traffic.csv
//!
//! # checkpoint / resume across restarts
//! implicate --lhs 0 --rhs 1 --save state.imps
//! implicate --lhs 0 --rhs 1 --resume state.imps --save state.imps
//!
//! # observability: end-of-run counter report + periodic line protocol
//! implicate --lhs 0 --rhs 1 --stats --stats-interval 100000 traffic.csv
//!
//! # structured tracing (JSONL event journal) + online accuracy audit
//! implicate --lhs 0 --rhs 1 --trace-out events.jsonl --audit 100000 traffic.csv
//!
//! # a whole catalog of queries in ONE pass over the stream
//! implicate --query-file queries.txt --stats traffic.csv
//!
//! # the same catalog, queries spread over 4 cores (bit-identical)
//! implicate --query-file queries.txt --threads 4 traffic.csv
//! ```
//!
//! A query file declares one query per line (`#` comments allowed):
//!
//! ```text
//! # name      kind        lhs   rhs   options
//! loyal       one-to-one  0     1     support=1
//! fanout      more-than   0     1     k=10
//! sources     distinct    0     -
//! mostly-one  noisy       0     1     c=1 psi=80 support=2
//! not-single  one-to-one  1     2     complement
//! morning     one-to-one  0     1     where=3=morning
//! ```
//!
//! All queries share a single attribute-wise hashing stage and one
//! global `--memory-budget`; each tuple is hashed once no matter how
//! many queries are registered (see DESIGN.md §8.8).
//!
//! Fields are treated as opaque strings (hashed to 64-bit fingerprints),
//! so the tool works on IPs, URLs or numeric ids alike.

use std::io::{BufRead, Write};
use std::process::exit;
use std::sync::mpsc::sync_channel;
use std::sync::OnceLock;

use implicate::opts::{self, EstimatorOpts, Flag};
use implicate::sketch::hash::MixHasher;
use implicate::spec::QuerySpec;
use implicate::text::{project, wanted_columns, Line, LineFields, LineReader, Row};
use implicate::{
    AccuracyAuditor, EstimatorConfig, ExactCounter, ImplicationConditions, ImplicationCounter,
    ImplicationEstimator, MetricsHandle, QueryCatalog, QueryId, QueryKind, Schema, ShardedCatalog,
    ShardedEstimator, TraceHandle, Tuple,
};

/// Lines per batch handed from the reader to the parser pool.
const LINE_BATCH: usize = 2048;

/// Bound, in batches, of the parallel pipeline's channels.
const PIPE_DEPTH: usize = 4;

/// Wire format of the periodic `--stats-interval` emission.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StatsFormat {
    /// Influx line protocol: one line, `implicate k=vi ...` (the default).
    Influx,
    /// Prometheus text exposition: `# TYPE` + sample line per counter.
    Prom,
}

/// Renders one periodic stats emission in the selected format.
fn stats_emission(metrics: &MetricsHandle, format: StatsFormat) -> String {
    match format {
        StatsFormat::Influx => metrics.line_protocol("implicate"),
        StatsFormat::Prom => metrics.prometheus("implicate").trim_end().to_owned(),
    }
}

/// The command line: the flag values as parsed, then, once
/// [`Cli::finish`] has checked them, the resolved columns, the query
/// catalog and the estimator configuration. In catalog mode
/// (`--query-file`), `lhs`/`rhs` are empty and `queries` holds the
/// parsed catalog.
struct Cli {
    est: EstimatorOpts,
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    queries: Vec<QuerySpec>,
    config: EstimatorConfig,
    complement: bool,
    watch: Option<u64>,
    stats: bool,
    stats_interval: Option<u64>,
    stats_format: StatsFormat,
    trace_out: Option<String>,
    trace_buffer: usize,
    audit: Option<u64>,
    audit_sample: u64,
    save: Option<String>,
    resume: Option<String>,
    query_file: Option<String>,
    input: Option<String>,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            est: EstimatorOpts::default(),
            lhs: Vec::new(),
            rhs: Vec::new(),
            queries: Vec::new(),
            // Replaced by `finish` with the configuration the flags give.
            config: EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1)),
            complement: false,
            watch: None,
            stats: false,
            stats_interval: None,
            stats_format: StatsFormat::Influx,
            trace_out: None,
            trace_buffer: implicate::core::trace::DEFAULT_JOURNAL_EVENTS,
            audit: None,
            audit_sample: 1,
            save: None,
            resume: None,
            query_file: None,
            input: None,
        }
    }
}

/// The CLI's own flags; the estimator flags are [`opts::FLAGS`]. Both
/// tables drive parsing and the generated usage text.
const OPTIONS: &[Flag<Cli>] = &[
    Flag {
        name: "--complement",
        metavar: "",
        doc: "report the non-implication count S̄ instead of S",
        set: |d, _| {
            d.complement = true;
            Ok(())
        },
    },
    Flag {
        name: "--watch",
        metavar: "N",
        doc: "print a progress line every N rows",
        set: |d, v| opts::value(v, "--watch").map(|n| d.watch = Some(n)),
    },
    Flag {
        name: "--stats",
        metavar: "",
        doc: "print the internal metrics report on stderr at exit\n(counter glossary: DESIGN.md §8.2)",
        set: |d, _| {
            d.stats = true;
            Ok(())
        },
    },
    Flag {
        name: "--stats-interval",
        metavar: "N",
        doc: "emit a metrics snapshot on stderr every N rows\n(see --stats-format)",
        set: |d, v| opts::at_least_one(v, "--stats-interval").map(|n| d.stats_interval = Some(n)),
    },
    Flag {
        name: "--stats-format",
        metavar: "F",
        doc: "influx (line protocol, default) | prom (Prometheus\ntext exposition) for --stats-interval emissions",
        set: |d, v| {
            d.stats_format = match v {
                "influx" => StatsFormat::Influx,
                "prom" => StatsFormat::Prom,
                other => return Err(format!("unknown stats format {other:?}")),
            };
            Ok(())
        },
    },
    Flag {
        name: "--trace-out",
        metavar: "FILE",
        doc: "drain the trace event journal to FILE as JSONL at exit\n(event schema: DESIGN.md §8.3)",
        set: |d, v| {
            d.trace_out = Some(v.to_owned());
            Ok(())
        },
    },
    Flag {
        name: "--trace-buffer",
        metavar: "N",
        doc: "trace journal capacity in events (default 65536); the\nring keeps the most recent N",
        set: |d, v| opts::at_least_one(v, "--trace-buffer").map(|n| d.trace_buffer = n),
    },
    Flag {
        name: "--audit",
        metavar: "N",
        doc: "every N rows, audit the estimate against exact ground\ntruth and report relative error on stderr (needs\n--threads 1; see --audit-sample)",
        set: |d, v| opts::at_least_one(v, "--audit").map(|n| d.audit = Some(n)),
    },
    Flag {
        name: "--audit-sample",
        metavar: "K",
        doc: "shadow one in K itemsets exactly during --audit\n(default 1 = all; >1 trades memory for sampling noise)",
        set: |d, v| opts::at_least_one(v, "--audit-sample").map(|n| d.audit_sample = n),
    },
    Flag {
        name: "--save",
        metavar: "FILE",
        doc: "write a snapshot of the estimator state on exit",
        set: |d, v| {
            d.save = Some(v.to_owned());
            Ok(())
        },
    },
    Flag {
        name: "--resume",
        metavar: "FILE",
        doc: "restore estimator state from a snapshot before reading",
        set: |d, v| {
            d.resume = Some(v.to_owned());
            Ok(())
        },
    },
    Flag {
        name: "--query-file",
        metavar: "FILE",
        doc: "evaluate a catalog of queries (one per line) in a single\npass; replaces --lhs/--rhs, shares one hashing stage and\none --memory-budget across all queries, and under\n--threads N spreads them over N lanes (header comment\nin src/main.rs documents the line grammar)",
        set: |d, v| {
            d.query_file = Some(v.to_owned());
            Ok(())
        },
    },
];

/// The usage text, generated from [`opts::FLAGS`] and [`OPTIONS`].
fn usage() -> &'static str {
    static USAGE: OnceLock<String> = OnceLock::new();
    USAGE.get_or_init(|| {
        let width = opts::width(opts::FLAGS)
            .max(opts::width(OPTIONS))
            .max("FILE".len());
        format!(
            "implicate — streaming implication-count statistics (NIPS/CI, ICDE 2005)\n\n\
             usage: implicate --lhs COLS --rhs COLS [options] [FILE]\n\n\
             {}{}  {:<width$}  input path (default: stdin)",
            opts::usage(opts::FLAGS, width),
            opts::usage(OPTIONS, width),
            "FILE"
        )
    })
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                exit(0);
            }
            name if name.starts_with("--") => {
                let mut value = |metavar: &str| {
                    if metavar.is_empty() {
                        String::new()
                    } else {
                        args.next()
                            .unwrap_or_else(|| die(&format!("{name} needs a value")))
                    }
                };
                let set = if let Some(flag) = opts::find(opts::FLAGS, name) {
                    (flag.set)(&mut cli.est, &value(flag.metavar))
                } else if let Some(opt) = opts::find(OPTIONS, name) {
                    (opt.set)(&mut cli, &value(opt.metavar))
                } else {
                    die(&format!("unknown option {name}"))
                };
                set.unwrap_or_else(|e| die(&e));
            }
            path => {
                if cli.input.replace(path.to_owned()).is_some() {
                    die("more than one input file");
                }
            }
        }
    }
    cli.finish()
}

impl Cli {
    /// Cross-checks the CLI's own flags against the estimator flags and
    /// assembles the estimator configuration.
    fn finish(mut self) -> Self {
        if let Some(path) = &self.query_file {
            if self.est.lhs.is_some() || self.est.rhs.is_some() {
                die("--query-file replaces --lhs/--rhs");
            }
            if self.save.is_some() || self.resume.is_some() {
                die("--save/--resume are not supported with --query-file");
            }
            if self.complement {
                die("--complement is per-query in a query file (use the `complement` option)");
            }
            self.queries = parse_query_file(path);
        } else {
            self.lhs = self
                .est
                .lhs
                .clone()
                .unwrap_or_else(|| die("--lhs is required"));
            self.rhs = self
                .est
                .rhs
                .clone()
                .unwrap_or_else(|| die("--rhs is required"));
        }
        if self.audit.is_some() && self.est.threads > 1 {
            // The audit compares an exact prefix count against the live
            // estimate at an exact row boundary; sharded ingestion would
            // need a pipeline barrier per audit to make that meaningful.
            die("--audit requires --threads 1");
        }
        self.config = self.est.config().unwrap_or_else(|e| die(&e));
        self
    }
}

/// Seed of the hasher folding raw text fields into 64-bit fingerprints
/// (rows and `where=` literals must agree, so it is fixed).
const FIELD_HASHER_SEED: u64 = implicate::spec::FIELD_HASHER_SEED;

/// Reads and parses a `--query-file` (line grammar: `implicate::spec`).
fn parse_query_file(path: &str) -> Vec<QuerySpec> {
    let body = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    implicate::spec::parse_query_file(&body).unwrap_or_else(|e| die(&format!("{path}: {e}")))
}

/// Exact reference counters for one query during `--audit`.
struct CatalogAudit {
    exact: ExactCounter,
    buf_a: Vec<u64>,
    buf_b: Vec<u64>,
}

impl CatalogAudit {
    fn observe(&mut self, q: &QuerySpec, t: &Tuple) {
        if !q.query.filter.is_empty() && !q.query.filter.matches(t) {
            return;
        }
        self.buf_a.clear();
        self.buf_b.clear();
        self.buf_a.extend(q.lhs_cols.iter().map(|&c| t.get(c)));
        self.buf_b.extend(q.rhs_cols.iter().map(|&c| t.get(c)));
        self.exact.update(&self.buf_a, &self.buf_b);
    }

    fn answer(&self, kind: QueryKind) -> f64 {
        match kind {
            QueryKind::DistinctCount => self.exact.exact_f0_sup() as f64,
            QueryKind::Implication => self.exact.exact_implication_count() as f64,
            QueryKind::Complement => self.exact.exact_non_implication_count() as f64,
        }
    }
}

/// Catalog mode: registers every `--query-file` query in one
/// [`QueryCatalog`] and answers all of them in a single pass. Rows are
/// hashed whole (every column becomes one tuple attribute), batched, and
/// fed query-major; `--watch`, `--stats`, `--stats-interval`, `--audit`
/// and `--trace-out` all operate per query.
fn run_catalog(cli: &Cli) {
    let (mut catalog, ids, arity) = build_catalog(cli);
    let mut audits: Vec<CatalogAudit> = if cli.audit.is_some() {
        cli.queries
            .iter()
            .map(|q| CatalogAudit {
                exact: ExactCounter::new(q.query.conditions),
                buf_a: Vec::new(),
                buf_b: Vec::new(),
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut lines = LineReader::new(open_input(cli));
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), cli.est.delimiter);
    let all_columns = vec![true; arity];
    let mut batch: Vec<Tuple> = Vec::new();
    let mut rows = 0u64;
    let mut skipped = 0u64;
    let flush = |catalog: &mut QueryCatalog, batch: &mut Vec<Tuple>| {
        catalog.process_batch(batch);
        batch.clear();
    };
    while let Some(line) = next_input_line(&mut lines) {
        let Some(row) = cli_fields(&mut fields, line, &all_columns) else {
            continue;
        };
        if row.len() < arity {
            skipped += 1;
            continue;
        }
        let t = Tuple::new(row);
        if !audits.is_empty() {
            for (q, audit) in cli.queries.iter().zip(&mut audits) {
                audit.observe(q, &t);
            }
        }
        batch.push(t);
        rows += 1;
        if batch.len() >= LINE_BATCH {
            flush(&mut catalog, &mut batch);
        }
        let boundary = |n: Option<u64>| n.is_some_and(|n| rows.is_multiple_of(n));
        if boundary(cli.audit) {
            flush(&mut catalog, &mut batch);
            for ((q, id), audit) in cli.queries.iter().zip(&ids).zip(&audits) {
                let exact = audit.answer(q.query.kind);
                let est = catalog.answer(*id).expect("live query");
                let rel = if exact == 0.0 {
                    if est == 0.0 {
                        0.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    (exact - est).abs() / exact
                };
                eprintln!(
                    "audit {rows} rows [{}]: exact ≈ {exact:.0}, estimate {est:.0}, \
                     rel error {rel:.4}",
                    q.name
                );
            }
        }
        if boundary(cli.stats_interval) {
            flush(&mut catalog, &mut batch);
            let mut text = String::new();
            catalog.prometheus_into("implicate", &mut text);
            eprintln!("{}", text.trim_end());
        }
        if boundary(cli.watch) {
            flush(&mut catalog, &mut batch);
            for (q, id) in cli.queries.iter().zip(&ids) {
                eprintln!(
                    "{rows} rows [{}]: answer ≈ {:.0} ({} matched)",
                    q.name,
                    catalog.answer(*id).expect("live query"),
                    catalog.matched(*id).expect("live query"),
                );
            }
        }
    }
    flush(&mut catalog, &mut batch);
    report_catalog(cli, &catalog, &ids, rows, skipped);
}

/// Catalog mode under `--threads N`: the *queries* are partitioned over
/// N worker lanes ([`ShardedCatalog`]), every lane sees every tuple as a
/// shared pre-hashed batch, and per-query answers stay bit-identical to
/// the single-threaded catalog. The main thread parses and hashes
/// (attribute-wise, once); workers run the per-query combine + estimator
/// passes. `--watch` and `--stats-interval` read per-query published
/// views at settled boundaries (publish, then barrier), so their
/// emissions match the sequential run's numbers exactly.
fn run_catalog_parallel(cli: &Cli) {
    let (catalog, ids, arity) = build_catalog(cli);
    let mut sharded = ShardedCatalog::new(catalog, cli.est.threads);
    let viewers: Vec<_> = ids
        .iter()
        .map(|id| sharded.reader(*id).expect("live query"))
        .collect();
    let tuple_hasher = sharded.hasher().clone();

    let mut lines = LineReader::new(open_input(cli));
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), cli.est.delimiter);
    let all_columns = vec![true; arity];
    let mut hashed = sharded.checkout();
    let mut tuples = hashed.recycle();
    let mut rows = 0u64;
    let mut skipped = 0u64;
    while let Some(line) = next_input_line(&mut lines) {
        let Some(row) = cli_fields(&mut fields, line, &all_columns) else {
            continue;
        };
        if row.len() < arity {
            skipped += 1;
            continue;
        }
        tuples.push(Tuple::new(row));
        rows += 1;
        let boundary = |n: Option<u64>| n.is_some_and(|n| rows.is_multiple_of(n));
        let at_boundary = boundary(cli.stats_interval) || boundary(cli.watch);
        if tuples.len() >= LINE_BATCH || at_boundary {
            tuple_hasher.hash_batch(std::mem::take(&mut tuples), &mut hashed);
            hashed = sharded.process_hashed(hashed);
            tuples = hashed.recycle();
        }
        if at_boundary {
            // Publish, then barrier: the lanes publish at their message
            // boundary, and the barrier guarantees the views are settled
            // at exactly this row — same numbers as the sequential run.
            sharded.publish();
            sharded.barrier();
        }
        if boundary(cli.stats_interval) {
            for (q, viewer) in cli.queries.iter().zip(&viewers) {
                eprintln!(
                    "implicate_query_tuples{{query=\"{}\"}} {}",
                    q.name,
                    viewer.tuples()
                );
                eprintln!(
                    "implicate_query_answer{{query=\"{}\"}} {}",
                    q.name,
                    q.query.answer_from(&viewer.estimate())
                );
            }
        }
        if boundary(cli.watch) {
            for (q, viewer) in cli.queries.iter().zip(&viewers) {
                eprintln!(
                    "{rows} rows [{}]: answer ≈ {:.0} ({} matched)",
                    q.name,
                    q.query.answer_from(&viewer.estimate()),
                    viewer.tuples(),
                );
            }
        }
    }
    if !tuples.is_empty() {
        tuple_hasher.hash_batch(tuples, &mut hashed);
        let _ = sharded.process_hashed(hashed);
    }
    report_catalog(cli, &sharded.finish(), &ids, rows, skipped);
}

/// Builds the `--query-file` catalog: a schema spanning every column the
/// queries touch, and every query registered. Returns the catalog, the
/// query ids in file order, and the schema's arity.
fn build_catalog(cli: &Cli) -> (QueryCatalog, Vec<QueryId>, usize) {
    let arity = 1 + cli
        .queries
        .iter()
        .map(|q| q.max_column())
        .max()
        .expect("parse_query_file rejects empty catalogs");
    let schema = Schema::new((0..arity).map(|i| (format!("c{i}"), 0)));
    let mut catalog = QueryCatalog::new(&schema, cli.config);
    if cli.trace_out.is_some() {
        catalog.set_trace(TraceHandle::with_capacity(cli.trace_buffer));
    }
    let ids = cli
        .queries
        .iter()
        .map(|q| {
            catalog
                .try_register(q.name.clone(), q.query.clone())
                .unwrap_or_else(|e| die(&format!("query {:?}: {e}", q.name)))
        })
        .collect();
    (catalog, ids, arity)
}

/// Prints the final catalog answers on stdout, then the run summary, the
/// `--trace-out` journal and the `--stats` report.
fn report_catalog(cli: &Cli, catalog: &QueryCatalog, ids: &[QueryId], rows: u64, skipped: u64) {
    for (q, id) in cli.queries.iter().zip(ids) {
        println!(
            "{}\t{:.0}",
            q.name,
            catalog.answer(*id).expect("live query")
        );
    }
    let lanes = if cli.est.threads > 1 {
        format!(" over {} lanes", cli.est.threads)
    } else {
        String::new()
    };
    eprintln!(
        "rows {rows} (skipped {skipped}) | {} queries{lanes}, one pass | \
         {} tracked bytes on one budget",
        catalog.len(),
        catalog.tracked_bytes()
    );
    if let Some(path) = &cli.trace_out {
        write_trace(path, catalog.trace());
    }
    if cli.stats {
        let mut text = String::new();
        catalog.prometheus_into("implicate", &mut text);
        eprintln!("{}", text.trim_end());
    }
}

/// The next input line; `None` at end of input. Exits on a read error.
fn next_input_line<R: BufRead>(lines: &mut LineReader<R>) -> Option<&[u8]> {
    match lines.next_line() {
        Ok(Line::Text(line)) => Some(line),
        Ok(Line::Eof) => None,
        Ok(Line::Oversize) => unreachable!("the CLI reads with no line cap"),
        Err(e) => die(&format!("read error: {e}")),
    }
}

/// Fingerprints of a line's leading fields, hashed where `wanted`
/// selects them; `None` for a blank or comment line. Exits on a line that
/// is not UTF-8.
fn cli_fields<'f>(fields: &'f mut LineFields, line: &[u8], wanted: &[bool]) -> Option<&'f [u64]> {
    match fields.hash_line(line, wanted) {
        Row::Fields(row) => Some(row),
        Row::Blank => None,
        Row::NotUtf8 => die("read error: stream did not contain valid UTF-8"),
    }
}

fn open_input(cli: &Cli) -> Box<dyn BufRead> {
    match &cli.input {
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            Box::new(std::io::BufReader::new(file))
        }
        None => Box::new(std::io::stdin().lock()),
    }
}

/// Builds the online accuracy auditor when `--audit` is set, sharing the
/// estimator's trace handle so audit samples land in the same journal.
fn make_auditor(cli: &Cli, est: &ImplicationEstimator) -> Option<AccuracyAuditor> {
    cli.audit.map(|cadence| {
        let mut auditor =
            AccuracyAuditor::new(*cli.config.conditions_ref(), cadence, cli.audit_sample);
        auditor.set_trace(est.trace().clone());
        auditor
    })
}

/// Single-threaded ingestion; returns `(estimator, rows, skipped)`.
fn run_sequential(
    cli: &Cli,
    mut est: ImplicationEstimator,
    mut fields: LineFields,
) -> (ImplicationEstimator, u64, u64) {
    let mut lines = LineReader::new(open_input(cli));
    let wanted = wanted_columns(&[&cli.lhs, &cli.rhs]);
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    let mut auditor = make_auditor(cli, &est);
    let mut rows = 0u64;
    let mut skipped = 0u64;
    while let Some(line) = next_input_line(&mut lines) {
        let Some(row) = cli_fields(&mut fields, line, &wanted) else {
            continue;
        };
        if !(project(row, &cli.lhs, &mut buf_a) && project(row, &cli.rhs, &mut buf_b)) {
            skipped += 1;
            continue;
        }
        est.update(&buf_a, &buf_b);
        rows += 1;
        if let Some(aud) = auditor.as_mut() {
            aud.observe(&buf_a, &buf_b);
            if aud.due() {
                let s = aud.audit(est.estimate_now().implication_count);
                eprintln!(
                    "audit {} rows: exact ≈ {:.0}, estimate {:.0}, rel error {:.4}",
                    s.position, s.exact, s.estimated, s.rel_error
                );
            }
        }
        if cli.stats_interval.is_some_and(|n| rows.is_multiple_of(n)) {
            eprintln!("{}", stats_emission(est.metrics(), cli.stats_format));
        }
        if cli.watch.is_some_and(|w| rows.is_multiple_of(w)) {
            let e = est.estimate_now();
            let answer = if cli.complement {
                e.non_implication_count
            } else {
                e.implication_count
            };
            eprintln!(
                "{rows} rows: answer ≈ {answer:.0} (S {:.0}, S̄ {:.0}, F0^sup {:.0})",
                e.implication_count, e.non_implication_count, e.f0_sup
            );
        }
    }
    if let Some(aud) = &auditor {
        match aud.final_error() {
            Some(err) => eprintln!(
                "audit: {} samples over {} rows, {} shadowed itemsets, final rel error {err:.4}",
                aud.samples().len(),
                aud.rows_seen(),
                aud.shadowed_keys(),
            ),
            None => eprintln!(
                "audit: no samples ({} rows < cadence {})",
                aud.rows_seen(),
                aud.cadence()
            ),
        }
    }
    (est, rows, skipped)
}

/// One parser's output for one line batch.
struct ParsedBatch {
    pairs: Vec<(u64, u64)>,
    rows: u64,
    skipped: u64,
}

/// Parallel ingestion: the main thread reads batches of `LINE_BATCH`
/// whole lines (one byte buffer each, lines `\n`-separated) and deals them
/// round-robin to `threads` parser workers; a router thread collects the
/// parsed batches *in dealing order* — restoring stream order — and
/// feeds a [`ShardedEstimator`], which preserves per-bitmap update order
/// (see the `imp_core::parallel` docs). The result is therefore
/// bit-identical to `--threads 1`. `--watch` reports row counts only in
/// this mode (a mid-stream estimate would force a pipeline barrier).
fn run_parallel(
    cli: &Cli,
    est: ImplicationEstimator,
    fields: LineFields,
) -> (ImplicationEstimator, u64, u64) {
    let threads = cli.est.threads;
    let sharded = ShardedEstimator::new(est, threads);
    let pair_hasher = sharded.pair_hasher();
    let mut lines = LineReader::new(open_input(cli));
    let wanted = wanted_columns(&[&cli.lhs, &cli.rhs]);
    std::thread::scope(|scope| {
        let mut line_txs = Vec::with_capacity(threads);
        let mut parsed_rxs = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (line_tx, line_rx) = sync_channel::<Vec<u8>>(PIPE_DEPTH);
            let (parsed_tx, parsed_rx) = sync_channel::<ParsedBatch>(PIPE_DEPTH);
            line_txs.push(line_tx);
            parsed_rxs.push(parsed_rx);
            let (lhs, rhs, wanted) = (&cli.lhs, &cli.rhs, &wanted);
            let mut fields = fields.clone();
            scope.spawn(move || {
                let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
                while let Ok(batch) = line_rx.recv() {
                    let mut out = ParsedBatch {
                        pairs: Vec::with_capacity(LINE_BATCH),
                        rows: 0,
                        skipped: 0,
                    };
                    // The piece after the final `\n` is empty, so blank.
                    for line in batch.split(|&b| b == b'\n') {
                        let Some(row) = cli_fields(&mut fields, line, wanted) else {
                            continue;
                        };
                        if !(project(row, lhs, &mut buf_a) && project(row, rhs, &mut buf_b)) {
                            out.skipped += 1;
                            continue;
                        }
                        out.pairs.push(pair_hasher.hash_pair(&buf_a, &buf_b));
                        out.rows += 1;
                    }
                    if parsed_tx.send(out).is_err() {
                        return;
                    }
                }
            });
        }
        let watch = cli.watch;
        let stats_interval = cli.stats_interval;
        let stats_format = cli.stats_format;
        let router = scope.spawn(move || {
            let mut sharded = sharded;
            let viewer = (watch.is_some() || stats_interval.is_some()).then(|| sharded.reader());
            let (mut rows, mut skipped) = (0u64, 0u64);
            'drain: loop {
                // Same cyclic order the reader deals batches in, so
                // pairs reach the shards in stream order.
                for parsed_rx in &parsed_rxs {
                    let Ok(batch) = parsed_rx.recv() else {
                        break 'drain;
                    };
                    let before = rows;
                    sharded.update_hashed_batch(&batch.pairs);
                    rows += batch.rows;
                    skipped += batch.skipped;
                    if let Some(n) = stats_interval {
                        if rows / n > before / n {
                            // Publish a fresh view instead of barriering:
                            // the lanes keep ingesting, and the emission
                            // carries the view.* gauges (epoch, published
                            // tuples, age) that say exactly how far the
                            // published prefix trails the routed stream.
                            sharded.publish();
                            eprintln!("{}", stats_emission(sharded.metrics(), stats_format));
                        }
                    }
                    if let Some(w) = watch {
                        if rows / w > before / w {
                            sharded.publish();
                            let viewer = viewer.as_ref().expect("reader created");
                            let e = viewer.estimate();
                            eprintln!(
                                "{rows} rows routed, {} applied: S ≈ {:.0}, S̄ ≈ {:.0}, \
                                 F0^sup ≈ {:.0}",
                                viewer.tuples(),
                                e.implication_count,
                                e.non_implication_count,
                                e.f0_sup
                            );
                        }
                    }
                }
            }
            (sharded.finish(), rows, skipped)
        });
        let mut batch = Vec::new();
        let mut batched = 0usize;
        let mut dealt = 0usize;
        while let Some(line) = next_input_line(&mut lines) {
            batch.extend_from_slice(line);
            batch.push(b'\n');
            batched += 1;
            if batched >= LINE_BATCH {
                let next = Vec::with_capacity(batch.capacity());
                let full = std::mem::replace(&mut batch, next);
                if line_txs[dealt % threads].send(full).is_err() {
                    break;
                }
                batched = 0;
                dealt += 1;
            }
        }
        if batched > 0 {
            let _ = line_txs[dealt % threads].send(batch);
        }
        drop(line_txs);
        router.join().expect("router thread panicked")
    })
}

/// Writes the trace journal as JSONL. With the `trace` feature compiled
/// out the file still appears, holding only the `journal_summary` line
/// with `"enabled":false` — scripts can rely on the file existing.
fn write_trace(path: &str, trace: &TraceHandle) {
    let body = match trace.journal() {
        Some(journal) => journal.to_jsonl(),
        None => format!(
            "{{\"event\":\"journal_summary\",\"enabled\":{},\"recorded\":0,\
             \"retained\":0,\"dropped\":0,\"capacity\":0}}\n",
            TraceHandle::enabled()
        ),
    };
    std::fs::write(path, &body).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let events = body.lines().count().saturating_sub(1);
    eprintln!("trace: wrote {events} events to {path}");
}

fn main() {
    let cli = parse_cli();
    if !cli.queries.is_empty() {
        if cli.est.threads > 1 {
            run_catalog_parallel(&cli);
        } else {
            run_catalog(&cli);
        }
        return;
    }
    let mut est = match &cli.resume {
        Some(path) => {
            let raw = std::fs::read(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            ImplicationEstimator::from_bytes(bytes::Bytes::from(raw))
                .unwrap_or_else(|e| die(&format!("{path}: {e}")))
        }
        None => cli.config.build(),
    };
    if cli.resume.is_some() && est.conditions() != cli.config.conditions_ref() {
        die("snapshot was built with different implication conditions");
    }
    if cli.resume.is_some() {
        // A snapshot restores against an unlimited budget; re-arm the
        // requested ceiling before ingestion continues.
        est.set_memory_budget(cli.config.memory_budget_limit());
    }
    if cli.trace_out.is_some() {
        est.set_trace(TraceHandle::with_capacity(cli.trace_buffer));
    }

    let fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), cli.est.delimiter);
    let (est, rows, skipped) = if cli.est.threads > 1 {
        run_parallel(&cli, est, fields)
    } else {
        run_sequential(&cli, est, fields)
    };

    let e = est.estimate_now();
    let answer = if cli.complement {
        e.non_implication_count
    } else {
        e.implication_count
    };
    println!("{answer:.0}");
    eprintln!(
        "rows {rows} (skipped {skipped}) | conditions {} | S ≈ {:.0}, S̄ ≈ {:.0}, \
         F0^sup ≈ {:.0} | {} tracking entries",
        est.conditions(),
        e.implication_count,
        e.non_implication_count,
        e.f0_sup,
        est.entries()
    );
    if let Some(path) = &cli.save {
        let bytes = est.to_bytes();
        let mut f = std::fs::File::create(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
        f.write_all(&bytes)
            .unwrap_or_else(|e| die(&format!("{path}: {e}")));
        eprintln!("snapshot: wrote {} bytes to {path}", bytes.len());
    }
    // After --save, so the journal includes the snapshot-encode span and
    // the report the encode counters.
    if let Some(path) = &cli.trace_out {
        write_trace(path, est.trace());
    }
    if cli.stats {
        eprintln!("{}", est.metrics().report().trim_end());
    }
}
