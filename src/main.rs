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

use implicate::sketch::hash::MixHasher;
use implicate::spec::QuerySpec;
use implicate::text::{project, wanted_columns, Line, LineFields, LineReader, Row};
use implicate::{
    AccuracyAuditor, EstimatorConfig, ExactCounter, Fringe, ImplicationConditions,
    ImplicationCounter, ImplicationEstimator, MetricsHandle, MultiplicityPolicy, QueryCatalog,
    QueryKind, Schema, ShardedCatalog, ShardedEstimator, TraceHandle, Tuple,
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

/// Accumulates option values while parsing the command line.
struct CliDraft {
    lhs: Option<Vec<usize>>,
    rhs: Option<Vec<usize>>,
    max_mult: u32,
    support: u64,
    top_c: Option<u32>,
    confidence: f64,
    policy: MultiplicityPolicy,
    complement: bool,
    delimiter: Option<char>,
    bitmaps: usize,
    fringe: u32,
    memory_budget: Option<usize>,
    seed: u64,
    threads: usize,
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

impl Default for CliDraft {
    fn default() -> Self {
        Self {
            lhs: None,
            rhs: None,
            max_mult: 1,
            support: 1,
            top_c: None,
            confidence: 100.0,
            policy: MultiplicityPolicy::Strict,
            complement: false,
            delimiter: None,
            bitmaps: 64,
            fringe: 4,
            memory_budget: None,
            seed: 42,
            threads: 1,
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

/// One CLI option: flag name, value placeholder (empty for boolean
/// flags), help text (extra lines indent under the first), and the
/// action applying one occurrence to the draft. The table drives both
/// parsing and the generated usage text.
struct Opt {
    name: &'static str,
    metavar: &'static str,
    doc: &'static str,
    set: fn(&mut CliDraft, &str),
}

const OPTIONS: &[Opt] = &[
    Opt {
        name: "--lhs",
        metavar: "COLS",
        doc: "comma-separated 0-based columns forming the counted\nitemset A (e.g. --lhs 0 or --lhs 0,2)",
        set: |d, v| d.lhs = Some(parse_cols(v)),
    },
    Opt {
        name: "--rhs",
        metavar: "COLS",
        doc: "columns forming the implied itemset B",
        set: |d, v| d.rhs = Some(parse_cols(v)),
    },
    Opt {
        name: "--max-mult",
        metavar: "K",
        doc: "maximum multiplicity (default 1)",
        set: |d, v| d.max_mult = parse_num(v, "--max-mult"),
    },
    Opt {
        name: "--support",
        metavar: "N",
        doc: "minimum absolute support σ (default 1)",
        set: |d, v| d.support = parse_num(v, "--support"),
    },
    Opt {
        name: "--top-c",
        metavar: "C",
        doc: "the c of the top-confidence level (default = K)",
        set: |d, v| d.top_c = Some(parse_num(v, "--top-c")),
    },
    Opt {
        name: "--confidence",
        metavar: "P",
        doc: "minimum top-c confidence in percent (default 100)",
        set: |d, v| d.confidence = parse_num(v, "--confidence"),
    },
    Opt {
        name: "--policy",
        metavar: "P",
        doc: "strict | tracktop (default strict)",
        set: |d, v| {
            d.policy = match v {
                "strict" => MultiplicityPolicy::Strict,
                "tracktop" => MultiplicityPolicy::TrackTop,
                other => die(&format!("unknown policy {other:?}")),
            }
        },
    },
    Opt {
        name: "--complement",
        metavar: "",
        doc: "report the non-implication count S̄ instead of S",
        set: |d, _| d.complement = true,
    },
    Opt {
        name: "--delimiter",
        metavar: "C",
        doc: "field delimiter (default: any whitespace; e.g. ',')",
        set: |d, v| {
            let mut chars = v.chars();
            d.delimiter = chars.next();
            if d.delimiter.is_none() || chars.next().is_some() {
                die("--delimiter must be a single character");
            }
        },
    },
    Opt {
        name: "--bitmaps",
        metavar: "M",
        doc: "stochastic-averaging bitmaps, power of two (default 64)",
        set: |d, v| d.bitmaps = parse_num(v, "--bitmaps"),
    },
    Opt {
        name: "--fringe",
        metavar: "F",
        doc: "fringe size (default 4); 0 = unbounded",
        set: |d, v| d.fringe = parse_num(v, "--fringe"),
    },
    Opt {
        name: "--memory-budget",
        metavar: "BYTES",
        doc: "hard cap on tracked-state memory (default: unlimited);\nat the cap, admissions shed the weakest tracked\nitemsets instead of growing (watch estimator.mem_bytes\nand estimator.shed_events under --stats)",
        set: |d, v| d.memory_budget = Some(parse_num(v, "--memory-budget")),
    },
    Opt {
        name: "--seed",
        metavar: "N",
        doc: "hash seed (default 42)",
        set: |d, v| d.seed = parse_num(v, "--seed"),
    },
    Opt {
        name: "--threads",
        metavar: "N",
        doc: "ingestion shards (default 1); N > 1 parses and ingests\nin parallel with results identical to N = 1; with\n--query-file, spreads the catalog's queries over N lanes",
        set: |d, v| d.threads = parse_num(v, "--threads"),
    },
    Opt {
        name: "--watch",
        metavar: "N",
        doc: "print a progress line every N rows",
        set: |d, v| d.watch = Some(parse_num(v, "--watch")),
    },
    Opt {
        name: "--stats",
        metavar: "",
        doc: "print the internal metrics report on stderr at exit\n(counter glossary: DESIGN.md §8.2)",
        set: |d, _| d.stats = true,
    },
    Opt {
        name: "--stats-interval",
        metavar: "N",
        doc: "emit a metrics snapshot on stderr every N rows\n(see --stats-format)",
        set: |d, v| d.stats_interval = Some(parse_num(v, "--stats-interval")),
    },
    Opt {
        name: "--stats-format",
        metavar: "F",
        doc: "influx (line protocol, default) | prom (Prometheus\ntext exposition) for --stats-interval emissions",
        set: |d, v| {
            d.stats_format = match v {
                "influx" => StatsFormat::Influx,
                "prom" => StatsFormat::Prom,
                other => die(&format!("unknown stats format {other:?}")),
            }
        },
    },
    Opt {
        name: "--trace-out",
        metavar: "FILE",
        doc: "drain the trace event journal to FILE as JSONL at exit\n(event schema: DESIGN.md §8.3)",
        set: |d, v| d.trace_out = Some(v.to_owned()),
    },
    Opt {
        name: "--trace-buffer",
        metavar: "N",
        doc: "trace journal capacity in events (default 65536); the\nring keeps the most recent N",
        set: |d, v| d.trace_buffer = parse_num(v, "--trace-buffer"),
    },
    Opt {
        name: "--audit",
        metavar: "N",
        doc: "every N rows, audit the estimate against exact ground\ntruth and report relative error on stderr (needs\n--threads 1; see --audit-sample)",
        set: |d, v| d.audit = Some(parse_num(v, "--audit")),
    },
    Opt {
        name: "--audit-sample",
        metavar: "K",
        doc: "shadow one in K itemsets exactly during --audit\n(default 1 = all; >1 trades memory for sampling noise)",
        set: |d, v| d.audit_sample = parse_num(v, "--audit-sample"),
    },
    Opt {
        name: "--save",
        metavar: "FILE",
        doc: "write a snapshot of the estimator state on exit",
        set: |d, v| d.save = Some(v.to_owned()),
    },
    Opt {
        name: "--resume",
        metavar: "FILE",
        doc: "restore estimator state from a snapshot before reading",
        set: |d, v| d.resume = Some(v.to_owned()),
    },
    Opt {
        name: "--query-file",
        metavar: "FILE",
        doc: "evaluate a catalog of queries (one per line) in a single\npass; replaces --lhs/--rhs, shares one hashing stage and\none --memory-budget across all queries (header comment\nin src/main.rs documents the line grammar)",
        set: |d, v| d.query_file = Some(v.to_owned()),
    },
];

/// The usage text, generated from [`OPTIONS`].
fn usage() -> &'static str {
    static USAGE: OnceLock<String> = OnceLock::new();
    USAGE.get_or_init(|| {
        let left = |o: &Opt| {
            if o.metavar.is_empty() {
                o.name.to_string()
            } else {
                format!("{} {}", o.name, o.metavar)
            }
        };
        let width = OPTIONS
            .iter()
            .map(|o| left(o).len())
            .max()
            .unwrap_or(0)
            .max("FILE".len());
        let mut out = String::from(
            "implicate — streaming implication-count statistics (NIPS/CI, ICDE 2005)\n\n\
             usage: implicate --lhs COLS --rhs COLS [options] [FILE]\n\n",
        );
        for o in OPTIONS {
            let mut lines = o.doc.lines();
            let first = lines.next().unwrap_or("");
            out.push_str(&format!("  {:<width$}  {first}\n", left(o)));
            for line in lines {
                out.push_str(&format!("  {:<width$}  {line}\n", ""));
            }
        }
        out.push_str(&format!(
            "  {:<width$}  input path (default: stdin)",
            "FILE"
        ));
        out
    })
}

/// Parsed and validated command line. In catalog mode (`--query-file`),
/// `lhs`/`rhs` are empty and `queries` holds the parsed catalog.
struct Cli {
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    queries: Vec<QuerySpec>,
    config: EstimatorConfig,
    complement: bool,
    delimiter: Option<char>,
    threads: usize,
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
    input: Option<String>,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{}", usage());
    exit(2)
}

fn parse_cols(raw: &str) -> Vec<usize> {
    raw.split(',')
        .map(|c| {
            c.trim()
                .parse()
                .unwrap_or_else(|_| die(&format!("bad column {c:?}")))
        })
        .collect()
}

fn parse_num<T: std::str::FromStr>(raw: &str, key: &str) -> T {
    raw.parse().unwrap_or_else(|_| die(&format!("bad {key}")))
}

fn parse_cli() -> Cli {
    let mut draft = CliDraft::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{}", usage());
                exit(0);
            }
            name if name.starts_with("--") => {
                let opt = OPTIONS
                    .iter()
                    .find(|o| o.name == name)
                    .unwrap_or_else(|| die(&format!("unknown option {name}")));
                let value = if opt.metavar.is_empty() {
                    String::new()
                } else {
                    args.next()
                        .unwrap_or_else(|| die(&format!("{name} needs a value")))
                };
                (opt.set)(&mut draft, &value);
            }
            path => {
                if draft.input.replace(path.to_owned()).is_some() {
                    die("more than one input file");
                }
            }
        }
    }
    draft.finish()
}

impl CliDraft {
    /// Validates the draft and assembles the estimator configuration.
    fn finish(self) -> Cli {
        let (lhs, rhs, queries) = if let Some(path) = &self.query_file {
            if self.lhs.is_some() || self.rhs.is_some() {
                die("--query-file replaces --lhs/--rhs");
            }
            if self.save.is_some() || self.resume.is_some() {
                die("--save/--resume are not supported with --query-file");
            }
            if self.complement {
                die("--complement is per-query in a query file (use the `complement` option)");
            }
            (Vec::new(), Vec::new(), parse_query_file(path))
        } else {
            let lhs = self.lhs.unwrap_or_else(|| die("--lhs is required"));
            let rhs = self.rhs.unwrap_or_else(|| die("--rhs is required"));
            (lhs, rhs, Vec::new())
        };
        if !(0.0..=100.0).contains(&self.confidence) {
            die("--confidence must be in [0, 100]");
        }
        if !self.bitmaps.is_power_of_two() {
            die("--bitmaps must be a power of two");
        }
        if self.threads == 0 {
            die("--threads must be at least 1");
        }
        if self.stats_interval == Some(0) {
            die("--stats-interval must be at least 1");
        }
        if self.trace_buffer == 0 {
            die("--trace-buffer must be at least 1");
        }
        if self.audit == Some(0) {
            die("--audit must be at least 1");
        }
        if self.audit_sample == 0 {
            die("--audit-sample must be at least 1");
        }
        if self.audit.is_some() && self.threads > 1 {
            // The audit compares an exact prefix count against the live
            // estimate at an exact row boundary; sharded ingestion would
            // need a pipeline barrier per audit to make that meaningful.
            die("--audit requires --threads 1");
        }
        let cond = ImplicationConditions::builder()
            .max_multiplicity(self.max_mult)
            .min_support(self.support)
            .top_confidence(self.top_c.unwrap_or(self.max_mult), self.confidence / 100.0)
            .multiplicity_policy(self.policy)
            .build();
        let fringe = match self.fringe {
            0 => Fringe::Unbounded,
            f => Fringe::Bounded(f),
        };
        if self.memory_budget == Some(0) {
            die("--memory-budget must be at least 1 byte");
        }
        let mut config = EstimatorConfig::new(cond)
            .bitmaps(self.bitmaps)
            .fringe(fringe)
            .seed(self.seed);
        if let Some(bytes) = self.memory_budget {
            let floor = config.construction_floor();
            if bytes < floor {
                die(&format!(
                    "--memory-budget {bytes} is below the smallest enforceable budget \
                     for this configuration: {floor} bytes ({m} initial arena tables; \
                     lower --bitmaps or raise the budget)",
                    m = self.bitmaps * 2,
                ));
            }
            config = config.memory_budget(bytes);
        }
        Cli {
            lhs,
            rhs,
            queries,
            config,
            complement: self.complement,
            delimiter: self.delimiter,
            threads: self.threads,
            watch: self.watch,
            stats: self.stats,
            stats_interval: self.stats_interval,
            stats_format: self.stats_format,
            trace_out: self.trace_out,
            trace_buffer: self.trace_buffer,
            audit: self.audit,
            audit_sample: self.audit_sample,
            save: self.save,
            resume: self.resume,
            input: self.input,
        }
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
    for q in &cli.queries {
        if let Err(e) = catalog.try_register(q.name.clone(), q.query.clone()) {
            die(&format!("query {:?}: {e}", q.name));
        }
    }
    let ids: Vec<_> = cli
        .queries
        .iter()
        .map(|q| catalog.find(&q.name).expect("just registered"))
        .collect();
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
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), cli.delimiter);
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

    for (q, id) in cli.queries.iter().zip(&ids) {
        println!(
            "{}\t{:.0}",
            q.name,
            catalog.answer(*id).expect("live query")
        );
    }
    eprintln!(
        "rows {rows} (skipped {skipped}) | {} queries, one pass | {} tracked bytes on one budget",
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

/// Catalog mode under `--threads N`: the *queries* are partitioned over
/// N worker lanes ([`ShardedCatalog`]), every lane sees every tuple as a
/// shared pre-hashed batch, and per-query answers stay bit-identical to
/// the single-threaded catalog. The main thread parses and hashes
/// (attribute-wise, once); workers run the per-query combine + estimator
/// passes. `--watch` and `--stats-interval` read per-query published
/// views at settled boundaries (publish, then barrier), so their
/// emissions match the sequential run's numbers exactly.
fn run_catalog_parallel(cli: &Cli) {
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
    for q in &cli.queries {
        if let Err(e) = catalog.try_register(q.name.clone(), q.query.clone()) {
            die(&format!("query {:?}: {e}", q.name));
        }
    }
    let ids: Vec<_> = cli
        .queries
        .iter()
        .map(|q| catalog.find(&q.name).expect("just registered"))
        .collect();
    let mut sharded = ShardedCatalog::new(catalog, cli.threads);
    let viewers: Vec<_> = ids
        .iter()
        .map(|id| sharded.reader(*id).expect("live query"))
        .collect();
    let tuple_hasher = sharded.hasher().clone();

    let mut lines = LineReader::new(open_input(cli));
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), cli.delimiter);
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
    let catalog = sharded.finish();

    for (q, id) in cli.queries.iter().zip(&ids) {
        println!(
            "{}\t{:.0}",
            q.name,
            catalog.answer(*id).expect("live query")
        );
    }
    eprintln!(
        "rows {rows} (skipped {skipped}) | {} queries over {} lanes, one pass | \
         {} tracked bytes on one budget",
        catalog.len(),
        cli.threads,
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
    let threads = cli.threads;
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
        if cli.threads > 1 {
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

    let fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), cli.delimiter);
    let (est, rows, skipped) = if cli.threads > 1 {
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
