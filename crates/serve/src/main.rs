//! `implicate-serve` — a long-running implication-statistics service.
//!
//! One process owns the estimator writer and keeps ingesting while any
//! number of query connections read **wait-free** from epoch-published
//! views (see `imp_core::view`): a query never blocks ingestion and
//! ingestion never blocks a query.
//!
//! ```text
//! implicate-serve --lhs 0 --rhs 1 --publish-every 4096 \
//!     --ingest 127.0.0.1:7071 --query 127.0.0.1:7072 \
//!     --checkpoint state.imps --checkpoint-every 1000000
//! ```
//!
//! * **Ingestion** is a TCP line protocol on `--ingest`: each line is a
//!   delimited row, projected and hashed exactly like the `implicate`
//!   CLI (same field hasher, same seed semantics), so a served stream
//!   and a batch run produce bit-identical estimates.
//! * **Queries** are HTTP/1.0 on `--query`:
//!   `GET /estimate` (JSON, includes raw f64 bit patterns for exact
//!   comparison), `GET /status` (role, uptime, and the fleet/edge
//!   observability block — see DESIGN.md §8.7), `GET /metrics`
//!   (Prometheus exposition with `# HELP`/`# TYPE` metadata, plus
//!   per-node fleet series on an aggregator and `edge_*` series on an
//!   edge), `GET /snapshot` (latest checkpoint bytes, VERSION 2 codec),
//!   `GET /healthz`, and `POST /shutdown` (graceful: drain, final
//!   publish, checkpoint, exit; `GET /shutdown` is refused with `405`).
//! * **Restart** with the same `--checkpoint` file resumes from the
//!   snapshot — estimates continue bit-identically from where the
//!   previous process stopped.
//!
//! The binary is pure `std`: no async runtime, one writer thread, one
//! thread per ingest connection, and a fixed pool of query workers
//! behind a blocking acceptor (see [`imp_serve::http`]).
//!
//! The estimator flags (`--lhs` … `--threads`) are the CLI's: both parse
//! and document them through [`implicate::opts`]. This file keeps the
//! service's own flags, its role cross-checks and the wiring; the rest
//! sits beside it by concern:
//!
//! * `ingest` — line-protocol and wire-frame ingest connections;
//! * `writer` — the one writer loop ([`writer::run`]) and the plain,
//!   catalog and aggregate roles that plug into it;
//! * `edge` — the ship slot and the upstream sender of the edge role;
//! * `routes` — the query port's routes;
//! * `flight`, `status` — the flight recorder and the edge status block.
//!
//! # Distributed operation
//!
//! The same binary also runs the two halves of an edge→aggregator
//! topology (see `WIRE.md` for the frame format and `README.md` for the
//! protocol):
//!
//! * `--upstream ADDR --node-id N` turns the service into an **edge**:
//!   it keeps serving local queries, and additionally ships its sketch
//!   state upstream as VERSION 3 wire frames — a full snapshot on each
//!   (re)connect, compact deltas afterwards (`--ship-every` rows apart).
//!   Lost connections reconnect with capped exponential backoff, and
//!   always restart from a full snapshot so a lost delta can never
//!   corrupt the aggregate.
//! * `--aggregate` turns the ingest listener into an **aggregator**: it
//!   speaks the wire protocol instead of the line protocol, holds one
//!   decoded replica per edge, and re-publishes the merged estimate
//!   after every applied frame. For bitmap-disjoint edge partitions the
//!   merged estimate is bit-for-bit identical to a single-node run over
//!   the union stream.
//!
//! # Fleet observability
//!
//! An aggregator tracks every edge in a per-node registry (last-frame
//! age, applied epoch, frame/byte/error counters) and derives a health
//! state per node — `live`, `lagging`, `stale` (thresholds from
//! `--stale-after`), or `poisoned` after a rejected frame. The registry
//! is served as JSON on `GET /status` and as labeled Prometheus series
//! on `GET /metrics`; edges symmetrically report upstream connectivity,
//! backoff, ship latency, and unshipped backlog. With `--flight-dir`,
//! any decode error or panic drains the in-memory trace ring to a
//! bounded JSONL flight recording for post-mortem analysis.

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use implicate::core::fleet::{NodeRegistry, DEFAULT_STALE_AFTER_MS};
use implicate::opts::{self, EstimatorOpts};
use implicate::spec;
use implicate::{
    EstimatorConfig, ImplicationEstimator, MetricsHandle, QueryCatalog, Schema, ShardedEstimator,
    TraceHandle,
};

use imp_serve::http;

use edge::{edge_sender, ShipSlot};
use ingest::{
    catalog_ingest_connection, ingest_connection, wire_ingest_connection, MAX_INGEST_LINE,
};
use routes::{route, CatalogCtrl, CatalogShared};
use writer::Pipeline;

mod edge;
mod flight;
mod ingest;
mod routes;
mod status;
mod writer;

/// Field hasher seed shared with the `implicate` CLI so both tools
/// fingerprint the same fields identically.
const FIELD_HASHER_SEED: u64 = spec::FIELD_HASHER_SEED;

/// Bound, in batches, of the ingest-to-writer channel (back-pressure).
const INGEST_DEPTH: usize = 64;

/// How long blocking loops sleep between checks of the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// Locks `m` even if a panicking thread poisoned it: every value the
/// service guards is replaced whole, so a poisoned one is still valid,
/// and one panic must not fail every later request on the same route.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn die(msg: &str) -> ! {
    eprintln!("implicate-serve: {msg}");
    exit(2);
}

/// Parsed command line.
struct Opts {
    lhs: Vec<usize>,
    rhs: Vec<usize>,
    delimiter: Option<char>,
    config: EstimatorConfig,
    threads: usize,
    publish_every: u64,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    ingest_addr: String,
    query_addr: String,
    aggregate: bool,
    upstream: Option<String>,
    node_id: u64,
    ship_every: u64,
    keepalive_ms: u64,
    stale_after_ms: u64,
    flight_dir: Option<String>,
    flight_keep: usize,
    catalog: bool,
    arity: usize,
    query_file: Option<String>,
}

/// Usage lines for serve's own flags; the estimator flags' lines come
/// from [`opts::FLAGS`].
const USAGE: &str = "\
service:
  --publish-every N      rows between view publications (default 4096)
  --checkpoint FILE      snapshot file: restored at startup if present,
                         written on graceful shutdown
  --checkpoint-every N   also checkpoint every N ingested rows
                         (requires --threads 1)
  --ingest ADDR          ingestion TCP address (default 127.0.0.1:0)
  --query ADDR           query HTTP address (default 127.0.0.1:0)

distributed roles (see WIRE.md):
  --aggregate            ingest wire frames from edges instead of text
                         rows, serve the merged estimate
                         (requires --threads 1)
  --upstream ADDR        edge role: ship wire snapshots to an aggregator
                         (requires --node-id and --threads 1)
  --node-id N            stable identity of this edge at the aggregator
  --ship-every N         rows between upstream shipments
                         (default: --publish-every)
  --keepalive-ms MS      edge: when idle, still ship an (empty) delta
                         every MS milliseconds so the aggregator keeps
                         seeing the node as live (default 1000; 0 = off)

observability (see DESIGN.md §8.7):
  --stale-after MS       aggregator: a node with no applied frame for MS
                         milliseconds is `stale` (`lagging` from MS/2;
                         default 10000)
  --flight-dir DIR       on decode error, poison, or panic, drain the
                         trace ring to a JSONL flight recording in DIR
  --flight-keep N        keep at most N flight recordings (default 8)

catalog role (see DESIGN.md §8.8):
  --catalog              own a QueryCatalog instead of a single estimator:
                         rows ingest once, every registered query answers
                         from the same pass; queries are managed at
                         runtime over HTTP (POST /query, DELETE
                         /query/{id}, GET /estimate?query=ID)
                         (requires --threads 1)
  --arity N              columns per ingested row in catalog mode
                         (default 8, max 64)
  --query-file FILE      preload the catalog from a query spec file
                         (same line grammar as the implicate CLI)
";

/// The usage text: the estimator flags, then [`USAGE`].
fn usage() -> String {
    format!(
        "implicate-serve — long-running implication-statistics service\n\n\
         usage: implicate-serve [options]\n\n\
         estimator flags, as in the implicate CLI (here --lhs defaults to 0\n\
         and --rhs to 1):\n{}\n{USAGE}",
        opts::usage(opts::FLAGS, opts::width(opts::FLAGS)),
    )
}

/// The value of a parsed flag; exits with the parser's message on error.
fn or_die<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| die(&e))
}

fn parse_opts() -> Opts {
    let mut est = EstimatorOpts::default();
    let mut publish_every = 4096u64;
    let mut checkpoint = None;
    let mut checkpoint_every = None;
    let mut ingest_addr = "127.0.0.1:0".to_string();
    let mut query_addr = "127.0.0.1:0".to_string();
    let mut aggregate = false;
    let mut upstream: Option<String> = None;
    let mut node_id: Option<u64> = None;
    let mut ship_every: Option<u64> = None;
    let mut keepalive_ms: Option<u64> = None;
    let mut stale_after_ms: Option<u64> = None;
    let mut flight_dir: Option<String> = None;
    let mut flight_keep: Option<usize> = None;
    let mut catalog = false;
    let mut arity: Option<usize> = None;
    let mut query_file: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            print!("{}", usage());
            exit(0);
        }
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
                .as_str()
        };
        if let Some(shared) = opts::find(opts::FLAGS, flag) {
            or_die((shared.set)(&mut est, val()));
            continue;
        }
        match flag.as_str() {
            "--publish-every" => publish_every = or_die(opts::at_least_one(val(), flag)),
            "--checkpoint" => checkpoint = Some(val().to_string()),
            "--checkpoint-every" => checkpoint_every = Some(or_die(opts::value(val(), flag))),
            "--ingest" => ingest_addr = val().to_string(),
            "--query" => query_addr = val().to_string(),
            "--aggregate" => aggregate = true,
            "--upstream" => upstream = Some(val().to_string()),
            "--node-id" => node_id = Some(or_die(opts::value(val(), flag))),
            "--ship-every" => ship_every = Some(or_die(opts::at_least_one(val(), flag))),
            "--keepalive-ms" => keepalive_ms = Some(or_die(opts::value(val(), flag))),
            "--stale-after" => stale_after_ms = Some(or_die(opts::at_least_one(val(), flag))),
            "--flight-dir" => flight_dir = Some(val().to_string()),
            "--flight-keep" => flight_keep = Some(or_die(opts::at_least_one(val(), flag))),
            "--catalog" => catalog = true,
            "--arity" => arity = Some(or_die(opts::value(val(), flag))),
            "--query-file" => query_file = Some(val().to_string()),
            other => die(&format!("unknown option {other:?} (try --help)")),
        }
    }

    let threads = est.threads;
    if checkpoint_every.is_some() && threads > 1 {
        // Mid-run snapshots need a quiesced pipeline; under sharding the
        // service checkpoints once, at graceful shutdown.
        die("--checkpoint-every requires --threads 1 (sharded runs checkpoint at shutdown)");
    }
    if checkpoint_every.is_some() && checkpoint.is_none() {
        die("--checkpoint-every needs --checkpoint FILE");
    }
    if aggregate && upstream.is_some() {
        die("--aggregate and --upstream are mutually exclusive roles");
    }
    if aggregate && threads > 1 {
        die("--aggregate requires --threads 1 (the aggregator merges, it does not shard)");
    }
    if upstream.is_some() && threads > 1 {
        die("--upstream requires --threads 1 (delta capture needs the sequential writer)");
    }
    if upstream.is_some() && node_id.is_none() {
        die("--upstream needs --node-id N");
    }
    if node_id.is_some() && upstream.is_none() {
        die("--node-id only makes sense with --upstream");
    }
    if ship_every.is_some() && upstream.is_none() {
        die("--ship-every only makes sense with --upstream");
    }
    if stale_after_ms.is_some() && !aggregate {
        die("--stale-after only makes sense with --aggregate");
    }
    if flight_keep.is_some() && flight_dir.is_none() {
        die("--flight-keep needs --flight-dir DIR");
    }
    if keepalive_ms.is_some() && upstream.is_none() {
        die("--keepalive-ms only makes sense with --upstream");
    }
    if catalog {
        if aggregate || upstream.is_some() {
            die("--catalog is its own role (no --aggregate / --upstream)");
        }
        if threads > 1 {
            die("--catalog requires --threads 1 (the catalog is one single-pass engine)");
        }
        if checkpoint.is_some() || checkpoint_every.is_some() {
            die("--checkpoint is not supported in catalog mode");
        }
    }
    if !catalog && (arity.is_some() || query_file.is_some()) {
        die("--arity / --query-file only make sense with --catalog");
    }
    let arity = arity.unwrap_or(8);
    if catalog && !(1..=64).contains(&arity) {
        die("--arity must be in 1..=64");
    }

    Opts {
        config: or_die(est.config()),
        lhs: est.lhs.unwrap_or_else(|| vec![0]),
        rhs: est.rhs.unwrap_or_else(|| vec![1]),
        delimiter: est.delimiter,
        threads,
        publish_every,
        checkpoint,
        checkpoint_every,
        ingest_addr,
        query_addr,
        aggregate,
        upstream,
        node_id: node_id.unwrap_or(0),
        ship_every: ship_every.unwrap_or(publish_every),
        keepalive_ms: keepalive_ms.unwrap_or(1000),
        stale_after_ms: stale_after_ms.unwrap_or(DEFAULT_STALE_AFTER_MS),
        flight_dir,
        flight_keep: flight_keep.unwrap_or(8),
        catalog,
        arity,
        query_file,
    }
}

/// Shared state the connection handlers read.
struct Shared {
    stop: AtomicBool,
    /// Rows accepted off ingest sockets (routed; the published view may
    /// trail this by the in-flight backlog).
    accepted: AtomicU64,
    /// Lines dropped because a projection column was missing or the
    /// line was not UTF-8.
    skipped: AtomicU64,
    /// Lines dropped for exceeding [`MAX_INGEST_LINE`].
    skipped_oversize: AtomicU64,
    /// Latest checkpoint bytes (written by the writer thread at each
    /// `publish_full` / checkpoint, served verbatim by `GET /snapshot`).
    snapshot: Mutex<Option<bytes::Bytes>>,
    metrics: MetricsHandle,
    /// Trace ring shared with the estimator and the wire codec — sized
    /// when the flight recorder is armed, disabled otherwise.
    trace: TraceHandle,
    /// Aggregator role: the per-node health/staleness registry behind
    /// `GET /status` and the labeled `/metrics` series.
    fleet: Option<Arc<NodeRegistry>>,
    /// Edge role: upstream-connectivity status behind `GET /status`.
    edge: Option<Arc<status::EdgeStatus>>,
    /// Crash/decode-error flight recorder (`--flight-dir`).
    flight: Option<Arc<flight::FlightRecorder>>,
    /// Process start — the monotonic base for every staleness age.
    started: std::time::Instant,
    /// Role name reported by `/status`.
    role: &'static str,
}

impl Shared {
    /// Milliseconds since process start (the injected clock of the
    /// fleet registry and edge status).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Appends the line-protocol ingest counters to a Prometheus
    /// exposition.
    fn ingest_prometheus_into(&self, out: &mut String) {
        out.push_str(&format!(
            "# HELP implicate_ingest_skipped_oversize_total Ingest lines over the \
             {MAX_INGEST_LINE}-byte cap, discarded\n\
             # TYPE implicate_ingest_skipped_oversize_total counter\n\
             implicate_ingest_skipped_oversize_total {}\n",
            self.skipped_oversize.load(Ordering::Relaxed)
        ));
    }
}

/// Spawns the writer thread running `role` and the ingest acceptor that
/// feeds it: each accepted connection runs `connection` on a thread of
/// its own, with a sender into the writer's channel. Only the acceptor
/// and its connections hold senders, and the acceptor never exits, so
/// the writer leaves its loop on the stop flag, not on a disconnected
/// channel.
fn spawn_role<R>(
    role: R,
    shared: &Arc<Shared>,
    listener: TcpListener,
    connection: impl Fn(TcpStream, &Shared, &SyncSender<R::Msg>) + Clone + Send + 'static,
) -> JoinHandle<(u64, u64)>
where
    R: writer::Role + Send + 'static,
    R::Msg: Send + 'static,
{
    let (tx, rx) = sync_channel(INGEST_DEPTH);
    let writer = {
        let shared = Arc::clone(shared);
        std::thread::spawn(move || writer::run(role, &rx, &shared))
    };
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        http::accept_loop(&listener, |stream| {
            let (tx, shared, connection) = (tx.clone(), Arc::clone(&shared), connection.clone());
            std::thread::spawn(move || connection(stream, &shared, &tx));
        });
    });
    writer
}

fn main() {
    let opts = parse_opts();

    // Restore or build the estimator.
    let mut est = match &opts.checkpoint {
        Some(path) if std::path::Path::new(path).exists() => {
            let raw = std::fs::read(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let est = ImplicationEstimator::from_bytes(bytes::Bytes::from(raw))
                .unwrap_or_else(|e| die(&format!("{path}: {e}")));
            if est.conditions() != opts.config.conditions_ref() {
                die("checkpoint was built with different implication conditions");
            }
            eprintln!(
                "implicate-serve: restored {} tuples from {path}",
                est.tuples_seen()
            );
            est
        }
        _ => opts.config.build(),
    };
    if opts.checkpoint.is_some() {
        // A snapshot restores against an unlimited budget; re-arm the
        // requested ceiling before ingestion continues.
        est.set_memory_budget(opts.config.memory_budget_limit());
    }

    // Arm the trace ring when a flight recorder wants it drained: the
    // ring feeds the wire codec's typed events (frame encoded/rejected,
    // resync forced) and is what a recording dumps. Without a recorder
    // it stays disabled — zero cost on the ingest path.
    let trace = if opts.flight_dir.is_some() {
        TraceHandle::with_capacity(16_384)
    } else {
        TraceHandle::disabled()
    };
    est.set_trace(trace.clone());

    let flight = opts.flight_dir.as_ref().map(|dir| {
        let recorder = flight::FlightRecorder::new(dir, opts.flight_keep)
            .unwrap_or_else(|e| die(&format!("--flight-dir {dir}: {e}")));
        Arc::new(recorder)
    });
    if let Some(recorder) = &flight {
        // A panic anywhere in the process drains the trace ring before
        // the default hook prints and the process dies.
        let recorder = Arc::clone(recorder);
        let trace = trace.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let context = format!(
                "{{\"reason\":\"panic\",\"detail\":{}}}",
                flight::json_string(&info.to_string()),
            );
            recorder.record(
                "panic",
                &context,
                trace.journal().map(|j| j.to_jsonl()).as_deref(),
            );
            prev(info);
        }));
    }

    let role = if opts.catalog {
        "catalog"
    } else if opts.aggregate {
        "aggregate"
    } else if opts.upstream.is_some() {
        "edge"
    } else {
        "standalone"
    };
    let reader_proto = est.reader();
    let pair_hasher = est.pair_hasher();
    let shared = Arc::new(Shared {
        stop: AtomicBool::new(false),
        accepted: AtomicU64::new(0),
        skipped: AtomicU64::new(0),
        skipped_oversize: AtomicU64::new(0),
        snapshot: Mutex::new(None),
        metrics: est.metrics().clone(),
        trace,
        fleet: opts
            .aggregate
            .then(|| Arc::new(NodeRegistry::new(opts.stale_after_ms))),
        edge: opts
            .upstream
            .as_ref()
            .map(|u| Arc::new(status::EdgeStatus::new(u.clone(), opts.node_id))),
        flight,
        started: std::time::Instant::now(),
        role,
    });

    // Seed /snapshot with the restored/initial state so the endpoint is
    // never empty once the service is up.
    writer::store_snapshot(&shared, est.to_bytes(), None);

    let ingest_listener = TcpListener::bind(&opts.ingest_addr)
        .unwrap_or_else(|e| die(&format!("bind {}: {e}", opts.ingest_addr)));
    let query_listener = TcpListener::bind(&opts.query_addr)
        .unwrap_or_else(|e| die(&format!("bind {}: {e}", opts.query_addr)));
    let ingest_addr = ingest_listener.local_addr().expect("bound");
    let query_addr = query_listener.local_addr().expect("bound");
    // Announced on stdout (and flushed) so wrappers can discover the
    // actual ports when binding :0.
    println!("serve: ingest listening on {ingest_addr}");
    println!("serve: query listening on {query_addr}");
    std::io::stdout().flush().ok();

    let (ctrl_tx, ctrl_rx) = sync_channel::<CatalogCtrl>(INGEST_DEPTH);

    // Catalog role: query connections resolve per-query readers and
    // push register/retire control messages through this shared block.
    let cat_shared: Option<Arc<CatalogShared>> = opts.catalog.then(|| {
        Arc::new(CatalogShared {
            queries: Mutex::new(HashMap::new()),
            exposition: Mutex::new(String::new()),
            ctrl: ctrl_tx,
        })
    });

    // Edge role: the writer hands captured wire snapshots to the
    // upstream sender through this keep-latest slot.
    let ship_slot = opts.upstream.as_ref().map(|_| Arc::new(ShipSlot::new()));

    // The writer thread, the single owner of estimator mutation, and the
    // ingest acceptor feeding it: wire frames when aggregating, text rows
    // otherwise.
    let writer = if opts.catalog {
        let schema = Schema::new((0..opts.arity).map(|i| (format!("c{i}"), 0)));
        let mut engine = QueryCatalog::new(&schema, opts.config);
        engine.set_trace(shared.trace.clone());
        let cat = Arc::clone(cat_shared.as_ref().expect("catalog mode"));
        let mut role = writer::Catalog::new(engine, ctrl_rx, cat, &opts);
        // Preload from --query-file (same grammar as POST /query); any
        // bad line is a startup error, not a silently-empty catalog.
        if let Some(path) = &opts.query_file {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let specs =
                spec::parse_query_file(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let n = specs.len();
            for s in specs {
                let name = s.name.clone();
                if let Err(e) = role.register(s) {
                    die(&format!("{path}: query {name:?}: {e}"));
                }
            }
            eprintln!("implicate-serve: preloaded {n} queries from {path}");
        }
        role.refresh();
        let (arity, delimiter) = (opts.arity, opts.delimiter);
        spawn_role(role, &shared, ingest_listener, move |stream, shared, tx| {
            catalog_ingest_connection(stream, shared, arity, delimiter, tx);
        })
    } else if opts.aggregate {
        let role = writer::Aggregate::new(est, &opts);
        spawn_role(role, &shared, ingest_listener, wire_ingest_connection)
    } else {
        let pipeline = if opts.threads > 1 {
            Pipeline::Sharded(ShardedEstimator::new(est, opts.threads))
        } else {
            Pipeline::Sequential(est)
        };
        let role = writer::Plain::new(pipeline, &opts, ship_slot.clone());
        let (lhs, rhs, delimiter) = (opts.lhs.clone(), opts.rhs.clone(), opts.delimiter);
        spawn_role(role, &shared, ingest_listener, move |stream, shared, tx| {
            ingest_connection(stream, shared, &lhs, &rhs, delimiter, pair_hasher, tx);
        })
    };

    // Upstream sender (edge role).
    let sender = match (&opts.upstream, &ship_slot) {
        (Some(addr), Some(slot)) => {
            let addr = addr.clone();
            let slot = Arc::clone(slot);
            let shared = Arc::clone(&shared);
            let node_id = opts.node_id;
            Some(std::thread::spawn(move || {
                edge_sender(&addr, node_id, &slot, &shared);
            }))
        }
        _ => None,
    };

    // Query acceptor and its fixed worker pool; each worker answers
    // from its own reader clone.
    {
        let shared = Arc::clone(&shared);
        let cat = cat_shared.clone();
        let reader_proto = Mutex::new(reader_proto);
        std::thread::spawn(move || {
            http::serve(
                &query_listener,
                http::QUERY_WORKERS,
                http::QUEUE_DEPTH,
                move || {
                    let (shared, cat) = (Arc::clone(&shared), cat.clone());
                    let reader = lock(&reader_proto).clone();
                    move |stream| {
                        http::answer(stream, |req| route(req, &shared, &reader, cat.as_deref()));
                    }
                },
            );
        });
    }

    let (rows, final_tuples) = writer.join().expect("writer thread panicked");
    if let Some(sender) = sender {
        // Wait for the final captured state to reach the aggregator
        // (or for the sender to give up on an unreachable one).
        sender.join().expect("sender thread panicked");
    }
    eprintln!(
        "implicate-serve: shut down after {rows} rows this session \
         ({} tuples total, {} skipped, {} oversize)",
        final_tuples,
        shared.skipped.load(Ordering::Relaxed),
        shared.skipped_oversize.load(Ordering::Relaxed),
    );
    // The acceptors block in `accept` and the connection threads are
    // detached; exiting the process reaps them all.
    exit(0);
}
