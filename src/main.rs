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
//! # parse on 4 threads, ingest over 4 lanes (same output, bit for bit)
//! implicate --lhs 0 --rhs 1 --threads 4 traffic.csv
//!
//! # checkpoint / resume across restarts (a save replaces the file whole;
//! # a resume under other conditions, --bitmaps or --seed exits 2)
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
//! # the same catalog, parsed on 4 threads, queries over 4 lanes
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
//!
//! Both modes share one ingest loop, [`run`], with a parser pool under
//! `--threads N`; the row makers, the checkpoint restore and the
//! checkpoint writer come from [`implicate::pipeline`], as in
//! `implicate-serve`. Each engine shadows its `--audit` over exactly the
//! rows it applies, keyed on the `(h_a, b_fp)` pair its estimators
//! ingest, so stdout, `--watch` and `--audit` lines are the same at
//! every `--threads` (DESIGN.md §8.10).

use std::io::Read;
use std::process::exit;
use std::sync::mpsc::sync_channel;
use std::sync::OnceLock;

use implicate::opts::{self, EstimatorOpts, Flag};
use implicate::pipeline::{self, MakeRow, Pipeline};
use implicate::sketch::hash::MixHasher;
use implicate::spec::{QuerySpec, FIELD_HASHER_SEED};
use implicate::text::{Line, LineFields, LineReader, Row};
use implicate::{
    AccuracyAuditor, EstimateReader, EstimatorConfig, HashedBatch, ImplicationConditions,
    QueryCatalog, QueryCombiner, QueryId, QueryKind, Schema, ShardedCatalog, TraceHandle,
    TupleHasher,
};

/// Lines per batch dealt to the parser pool, and the most rows one
/// [`Engine::apply`] takes.
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
    /// The answer plain mode reports: `S̄` under `--complement`, else `S`.
    kind: QueryKind,
    watch: Option<u64>,
    stats: bool,
    stats_interval: Option<u64>,
    stats_format: Option<StatsFormat>,
    trace_out: Option<String>,
    trace_buffer: usize,
    audit: Option<u64>,
    audit_sample: Option<u64>,
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
            kind: QueryKind::Implication,
            watch: None,
            stats: false,
            stats_interval: None,
            stats_format: None,
            trace_out: None,
            trace_buffer: implicate::core::trace::DEFAULT_JOURNAL_EVENTS,
            audit: None,
            audit_sample: None,
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
            d.kind = QueryKind::Complement;
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
        doc: "influx (line protocol, default) | prom (Prometheus\ntext exposition) for --stats-interval emissions\n(not with --query-file, whose stats are Prometheus text)",
        set: |d, v| {
            d.stats_format = Some(match v {
                "influx" => StatsFormat::Influx,
                "prom" => StatsFormat::Prom,
                other => return Err(format!("unknown stats format {other:?}")),
            });
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
        doc: "every N rows, audit the answer against exact ground\ntruth and report relative error on stderr (per query\nwith --query-file; see --audit-sample)",
        set: |d, v| opts::at_least_one(v, "--audit").map(|n| d.audit = Some(n)),
    },
    Flag {
        name: "--audit-sample",
        metavar: "K",
        doc: "shadow one in K itemsets exactly during --audit, chosen\nby their hash h_a (default 1 = all; >1 trades memory\nfor sampling noise)",
        set: |d, v| opts::at_least_one(v, "--audit-sample").map(|n| d.audit_sample = Some(n)),
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
            if self.kind == QueryKind::Complement {
                die("--complement is per-query in a query file (use the `complement` option)");
            }
            if self.stats_format.is_some() {
                die("--stats-format is not supported with --query-file (its stats are Prometheus text)");
            }
            // Line grammar: `implicate::spec`.
            let body =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            self.queries = implicate::spec::parse_query_file(&body)
                .unwrap_or_else(|e| die(&format!("{path}: {e}")));
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
        if self.audit_sample.is_some() && self.audit.is_none() {
            die("--audit-sample needs --audit");
        }
        self.config = self.est.config().unwrap_or_else(|e| die(&e));
        self
    }
}

/// What [`run`] feeds: plain mode's [`Pipeline`] or catalog mode's
/// queries. Each engine shadows its `--audit` over exactly the rows it
/// applies, so `--threads` changes only speed.
trait Engine {
    /// One word of a row batch: plain mode's `(h_a, b_fp)` pair, or one
    /// of a catalog row's values.
    type Word: Copy + Send;
    /// Words per row.
    fn width(&self) -> usize;
    /// Applies `rows` (`width` words each) in order, shadowing them for
    /// `--audit`, and leaves the vector empty.
    fn apply(&mut self, rows: &mut Vec<Self::Word>);
    /// Prints the reports due at row `rows`, every row up to it applied.
    fn report(&mut self, rows: u64);
}

/// Whether a report every `n` rows is due at row `rows`.
fn due(n: Option<u64>, rows: u64) -> bool {
    n.is_some_and(|n| rows.is_multiple_of(n))
}

/// The first row after `rows` at which a report ([`due`]) is due;
/// `u64::MAX` when none ever is.
fn next_report(cli: &Cli, rows: u64) -> u64 {
    [cli.audit, cli.stats_interval, cli.watch]
        .into_iter()
        .flatten()
        .filter(|&n| n > 0)
        .map(|n| (rows / n + 1).saturating_mul(n))
        .min()
        .unwrap_or(u64::MAX)
}

/// The one ingest loop of both modes; returns `(rows, skipped)`. Each
/// line's fields are hashed where the mode's `wanted` mask selects them
/// and made into an engine row by its row maker (see
/// [`implicate::pipeline`]). At `--threads 1` this thread parses; at
/// `--threads N` the [`parse_pool`] does. Either way rows reach the
/// engine in stream order, in batches cut at every report boundary, so
/// each report names its exact row.
fn run<E: Engine + Send>(
    cli: &Cli,
    engine: &mut E,
    (wanted, mut make_row): (Vec<bool>, impl MakeRow<E::Word>),
) -> (u64, u64) {
    let mut lines = LineReader::new(open_input(cli));
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), cli.est.delimiter);
    let (width, mut rows, mut batch) = (engine.width(), 0, Vec::new());
    let mut report_at = next_report(cli, 0);
    // Counts the row just appended to `batch`.
    let mut accepted = |engine: &mut E, batch: &mut Vec<E::Word>| {
        rows += 1;
        let report = rows == report_at;
        if report || batch.len() >= LINE_BATCH * width {
            engine.apply(batch);
        }
        if report {
            engine.report(rows);
            report_at = next_report(cli, rows);
        }
    };
    let skipped = if cli.est.threads > 1 {
        parse_pool(cli, lines, &fields, &wanted, width, make_row, |row| {
            batch.extend_from_slice(row);
            accepted(engine, &mut batch);
        })
    } else {
        let mut skipped = 0;
        while let Some(line) = next_input_line(&mut lines) {
            let Some(row) = cli_fields(&mut fields, line, &wanted) else {
                continue;
            };
            if make_row(row, &mut batch) {
                accepted(engine, &mut batch);
            } else {
                skipped += 1;
            }
        }
        skipped
    };
    if !batch.is_empty() {
        engine.apply(&mut batch);
    }
    (rows, skipped)
}

/// The parser pool of `--threads N`; returns the rows skipped. This
/// thread reads batches of [`LINE_BATCH`] whole lines (one byte buffer
/// each, lines `\n`-separated) and deals them round-robin to N parsers,
/// each running its own clone of `make_row`. A collector thread takes the
/// parsed batches back *in dealing order*, restoring stream order, and
/// hands their rows (`width` words each) to `sink`.
fn parse_pool<T: Copy + Send>(
    cli: &Cli,
    mut lines: LineReader<Box<dyn Read>>,
    fields: &LineFields,
    wanted: &[bool],
    width: usize,
    make_row: impl MakeRow<T>,
    mut sink: impl FnMut(&[T]) + Send,
) -> u64 {
    let threads = cli.est.threads;
    std::thread::scope(|scope| {
        let mut line_txs = Vec::with_capacity(threads);
        let mut parsed_rxs = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (line_tx, line_rx) = sync_channel::<Vec<u8>>(PIPE_DEPTH);
            let (parsed_tx, parsed_rx) = sync_channel::<(Vec<T>, u64)>(PIPE_DEPTH);
            line_txs.push(line_tx);
            parsed_rxs.push(parsed_rx);
            let (mut fields, mut make_row) = (fields.clone(), make_row.clone());
            scope.spawn(move || {
                while let Ok(batch) = line_rx.recv() {
                    let (mut rows, mut skipped) = (Vec::with_capacity(LINE_BATCH * width), 0);
                    // The piece after the final `\n` is empty, so blank.
                    for line in batch.split(|&b| b == b'\n') {
                        let Some(row) = cli_fields(&mut fields, line, wanted) else {
                            continue;
                        };
                        if !make_row(row, &mut rows) {
                            skipped += 1;
                        }
                    }
                    if parsed_tx.send((rows, skipped)).is_err() {
                        return;
                    }
                }
            });
        }
        let collector = scope.spawn(move || {
            let mut skipped = 0;
            'drain: loop {
                for parsed_rx in &parsed_rxs {
                    let Ok((rows, s)) = parsed_rx.recv() else {
                        break 'drain;
                    };
                    skipped += s;
                    rows.chunks_exact(width).for_each(&mut sink);
                }
            }
            skipped
        });
        let (mut batch, mut batched, mut dealt) = (Vec::new(), 0, 0);
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
        collector.join().expect("collector thread panicked")
    })
}

/// The next input line; `None` at end of input. Exits on a read error.
fn next_input_line<R: Read>(lines: &mut LineReader<R>) -> Option<&[u8]> {
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

/// The input file, or stdin; [`LineReader`] buffers either.
fn open_input(cli: &Cli) -> Box<dyn Read> {
    match &cli.input {
        Some(path) => {
            let file = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            Box::new(file)
        }
        None => Box::new(std::io::stdin().lock()),
    }
}

/// Plain mode's engine: the [`Pipeline`] and the `--audit` shadow of
/// the `(h_a, b_fp)` pairs it applies.
struct Plain<'c> {
    cli: &'c Cli,
    pipeline: Pipeline,
    auditor: Option<AccuracyAuditor>,
}

impl Engine for Plain<'_> {
    type Word = (u64, u64);

    fn width(&self) -> usize {
        1
    }

    fn apply(&mut self, rows: &mut Vec<(u64, u64)>) {
        if let Some(aud) = &mut self.auditor {
            for &(h_a, b_fp) in rows.iter() {
                aud.observe(&[h_a], &[b_fp]);
            }
        }
        self.pipeline.apply(rows);
        rows.clear();
    }

    fn report(&mut self, rows: u64) {
        let cli = self.cli;
        if let Some(aud) = self.auditor.as_mut().filter(|_| due(cli.audit, rows)) {
            let s = aud.audit(cli.kind.answer_from(&self.pipeline.estimate()));
            eprintln!(
                "audit {} rows: exact ≈ {:.0}, estimate {:.0}, rel error {:.4}",
                s.position, s.exact, s.estimated, s.rel_error
            );
        }
        if due(cli.stats_interval, rows) {
            if let Pipeline::Sharded(sharded) = &mut self.pipeline {
                // Publish a fresh view instead of barriering: the lanes
                // keep ingesting, and the emission carries the view.*
                // gauges (epoch, published tuples, age) that say exactly
                // how far the published prefix trails the routed stream.
                sharded.publish();
            }
            let metrics = self.pipeline.metrics();
            let text = match cli.stats_format.unwrap_or(StatsFormat::Influx) {
                StatsFormat::Influx => metrics.line_protocol("implicate"),
                StatsFormat::Prom => metrics.prometheus("implicate"),
            };
            eprintln!("{}", text.trim_end());
        }
        if due(cli.watch, rows) {
            let e = self.pipeline.estimate();
            eprintln!(
                "{rows} rows: answer ≈ {:.0} (S {:.0}, S̄ {:.0}, F0^sup {:.0})",
                cli.kind.answer_from(&e),
                e.implication_count,
                e.non_implication_count,
                e.f0_sup
            );
        }
    }
}

/// Plain mode: one estimate over the `--lhs`/`--rhs` projections,
/// resumed from and saved to a snapshot on request.
fn plain(cli: &Cli) {
    let mut est = match &cli.resume {
        Some(path) => pipeline::restore(path, &cli.config).unwrap_or_else(|e| die(&e)),
        None => cli.config.build(),
    };
    if cli.trace_out.is_some() {
        est.set_trace(TraceHandle::with_capacity(cli.trace_buffer));
    }
    // The auditor shares the estimator's trace handle, so audit samples
    // land in the same journal.
    let sample = cli.audit_sample.unwrap_or(1);
    let auditor = cli.audit.map(|cadence| {
        let auditor = AccuracyAuditor::new(*cli.config.conditions_ref(), cadence, sample);
        let mut auditor = auditor.reporting(cli.kind);
        auditor.set_trace(est.trace().clone());
        auditor
    });
    let maker = pipeline::pair_rows(&cli.lhs, &cli.rhs, est.pair_hasher());
    let mut engine = Plain {
        cli,
        pipeline: Pipeline::new(est, cli.est.threads),
        auditor,
    };
    let (rows, skipped) = run(cli, &mut engine, maker);
    if let Some(aud) = &engine.auditor {
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

    let est = engine.pipeline.finish();
    let e = est.estimate_now();
    println!("{:.0}", cli.kind.answer_from(&e));
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
        pipeline::write_checkpoint(path, &bytes).unwrap_or_else(|e| die(&format!("{path}: {e}")));
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

/// Catalog mode's queries: the [`QueryCatalog`] itself at `--threads 1`;
/// otherwise partitioned over N lanes ([`ShardedCatalog`]) that each see
/// every row.
enum Queries {
    Single(QueryCatalog),
    Sharded(ShardedCatalog),
}

/// Catalog mode's engine. Rows travel flat, `arity` values each; every
/// row is hashed attribute-wise once, whatever the number of queries,
/// and fed to each of them.
struct Catalog<'c> {
    cli: &'c Cli,
    queries: Queries,
    /// One reader per query, in file order.
    readers: Vec<EstimateReader>,
    hasher: TupleHasher,
    hashed: HashedBatch,
    /// Under `--audit`, one shadow per query in file order, beside the
    /// combiner that derives the pair the query's estimator ingests.
    audits: Vec<(QueryCombiner, AccuracyAuditor)>,
}

impl Catalog<'_> {
    /// Each query's `(answer, matched tuples)` over the rows applied so
    /// far, in file order, read through its reader: the queries publish,
    /// and sharded lanes then barrier, so the views are settled at
    /// exactly this row.
    fn settled(&mut self) -> Vec<(f64, u64)> {
        match &mut self.queries {
            Queries::Single(catalog) => catalog.publish(),
            Queries::Sharded(sharded) => {
                sharded.publish();
                sharded.barrier();
            }
        }
        let queries = self.cli.queries.iter().zip(&self.readers);
        queries
            .map(|(q, r)| (q.query.kind.answer_from(&r.estimate()), r.tuples()))
            .collect()
    }
}

impl Engine for Catalog<'_> {
    type Word = u64;

    fn width(&self) -> usize {
        self.hasher.arity()
    }

    fn apply(&mut self, rows: &mut Vec<u64>) {
        let hashed = &mut self.hashed;
        self.hasher
            .hash_batch(rows.chunks_exact(self.hasher.arity()), hashed);
        rows.clear();
        for (q, (combiner, aud)) in self.cli.queries.iter().zip(&mut self.audits) {
            for i in 0..hashed.len() {
                if q.query.filter.matches(hashed.row(i)) {
                    let (h_a, b_fp) = hashed.combine_row(combiner, i);
                    aud.observe(&[h_a], &[b_fp]);
                }
            }
        }
        match &mut self.queries {
            Queries::Single(catalog) => catalog.process_hashed(hashed),
            Queries::Sharded(sharded) => *hashed = sharded.process_hashed(std::mem::take(hashed)),
        }
    }

    fn report(&mut self, rows: u64) {
        let cli = self.cli;
        if due(cli.audit, rows) {
            let answers = self.settled();
            let audits = cli.queries.iter().zip(&mut self.audits);
            for ((q, (_, aud)), (answer, _)) in audits.zip(answers) {
                let s = aud.audit(answer);
                eprintln!(
                    "audit {rows} rows [{}]: exact ≈ {:.0}, estimate {answer:.0}, \
                     rel error {:.4}",
                    q.name, s.exact, s.rel_error
                );
            }
        }
        if due(cli.stats_interval, rows) {
            let mut text = String::new();
            match &mut self.queries {
                Queries::Single(catalog) => catalog.prometheus_into("implicate", &mut text),
                Queries::Sharded(sharded) => sharded.prometheus_into("implicate", &mut text),
            }
            eprintln!("{}", text.trim_end());
        }
        if due(cli.watch, rows) {
            for (q, (answer, matched)) in cli.queries.iter().zip(self.settled()) {
                eprintln!(
                    "{rows} rows [{}]: answer ≈ {answer:.0} ({matched} matched)",
                    q.name
                );
            }
        }
    }
}

/// Catalog mode: registers every `--query-file` query on a schema
/// spanning every column they touch and answers all of them in a single
/// pass. Rows travel flat and are hashed whole (every column becomes one
/// tuple attribute); `--watch`, `--stats`, `--stats-interval`, `--audit`
/// and `--trace-out` all operate per query.
fn catalog(cli: &Cli) {
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
    let ids: Vec<QueryId> = cli
        .queries
        .iter()
        .map(|q| {
            catalog
                .try_register(q.name.clone(), q.query.clone())
                .unwrap_or_else(|e| die(&format!("query {:?}: {e}", q.name)))
        })
        .collect();
    let readers = ids
        .iter()
        .map(|&id| catalog.reader(id).expect("live query"));
    let readers = readers.collect();
    let hasher = catalog.hasher().clone();
    let sample = cli.audit_sample.unwrap_or(1);
    let audits = cli.audit.map_or_else(Vec::new, |cadence| {
        let audit = |q: &QuerySpec| {
            let auditor = AccuracyAuditor::new(q.query.conditions, cadence, sample);
            (
                hasher.combiner(q.query.lhs, q.query.rhs),
                auditor.reporting(q.query.kind),
            )
        };
        cli.queries.iter().map(audit).collect()
    });
    let queries = if cli.est.threads > 1 {
        Queries::Sharded(ShardedCatalog::new(catalog, cli.est.threads))
    } else {
        Queries::Single(catalog)
    };
    let mut engine = Catalog {
        cli,
        queries,
        readers,
        hasher,
        hashed: HashedBatch::new(),
        audits,
    };
    let (rows, skipped) = run(cli, &mut engine, pipeline::flat_rows(arity));
    let catalog = match engine.queries {
        Queries::Single(catalog) => catalog,
        Queries::Sharded(sharded) => sharded.finish(),
    };

    for (q, id) in cli.queries.iter().zip(ids) {
        println!("{}\t{:.0}", q.name, catalog.answer(id).expect("live query"));
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

/// Writes the trace journal as JSONL, ending with its `journal_summary`
/// line. `--trace-out` attaches the journal before the first row.
fn write_trace(path: &str, trace: &TraceHandle) {
    let body = trace
        .journal()
        .expect("--trace-out attaches a journal")
        .to_jsonl();
    std::fs::write(path, &body).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let events = body.lines().count().saturating_sub(1);
    eprintln!("trace: wrote {events} events to {path}");
}

fn main() {
    let cli = parse_cli();
    if cli.queries.is_empty() {
        plain(&cli);
    } else {
        catalog(&cli);
    }
}
