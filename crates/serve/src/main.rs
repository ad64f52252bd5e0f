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
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::exit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use implicate::core::fleet::{NodeRegistry, DEFAULT_STALE_AFTER_MS};
use implicate::core::wire::{
    peek_frame, WireDecoder, WireSnapshot, DEFAULT_MAX_FRAME_BYTES, REJECT_NODE_ID_SWITCH,
};
use implicate::sketch::hash::MixHasher;
use implicate::spec;
use implicate::text::{project, wanted_columns, Line, LineFields, LineReader, Row};
use implicate::{
    EstimateReader, EstimatorConfig, Fringe, HashedBatch, ImplicationConditions,
    ImplicationEstimator, ImplicationQuery, MetricsHandle, MultiplicityPolicy, PairHasher,
    QueryCatalog, QueryId, Schema, ShardedEstimator, TraceEvent, TraceHandle, Tuple,
};

use imp_serve::http::{self, Request, Response};

mod flight;
mod status;

/// Field hasher seed shared with the `implicate` CLI so both tools
/// fingerprint the same fields identically.
const FIELD_HASHER_SEED: u64 = spec::FIELD_HASHER_SEED;

/// Rows buffered per ingest connection before a batch ships to the
/// writer.
const INGEST_BATCH: usize = 256;

/// Longest ingest line, in bytes before its `\n`. A longer line is
/// discarded through its `\n` and counted in `skipped_oversize`; the
/// connection stays open.
const MAX_INGEST_LINE: usize = 64 * 1024;

/// Bound, in batches, of the ingest-to-writer channel (back-pressure).
const INGEST_DEPTH: usize = 64;

/// How long blocking loops sleep between checks of the stop flag.
const POLL: Duration = Duration::from_millis(50);

/// First reconnect delay of an edge's upstream sender; doubles per
/// failed attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(100);

/// Ceiling of the edge sender's exponential reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

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

const USAGE: &str = "\
implicate-serve — long-running implication-statistics service

usage: implicate-serve [options]

  --lhs COLS            columns forming the counted itemset A (default 0)
  --rhs COLS            columns forming the implied itemset B (default 1)
  --delimiter C         field delimiter (default: any whitespace)
  --max-mult K          maximum multiplicity (default 1)
  --support N           minimum absolute support (default 1)
  --top-c C             the c of the top-confidence level (default = K)
  --confidence P        minimum top-c confidence in percent (default 100)
  --policy P            strict | tracktop (default strict)
  --bitmaps M           stochastic-averaging bitmaps (default 64)
  --fringe F            fringe size (default 4); 0 = unbounded
  --memory-budget BYTES hard cap on tracked-state memory
  --seed N              hash seed (default 42)
  --threads N           ingestion shards (default 1)
  --publish-every N     rows between view publications (default 4096)
  --checkpoint FILE     snapshot file: restored at startup if present,
                        written on graceful shutdown
  --checkpoint-every N  also checkpoint every N ingested rows
                        (requires --threads 1)
  --ingest ADDR         ingestion TCP address (default 127.0.0.1:0)
  --query ADDR          query HTTP address (default 127.0.0.1:0)

distributed roles (see WIRE.md):
  --aggregate           ingest wire frames from edges instead of text
                        rows, serve the merged estimate
                        (requires --threads 1)
  --upstream ADDR       edge role: ship wire snapshots to an aggregator
                        (requires --node-id and --threads 1)
  --node-id N           stable identity of this edge at the aggregator
  --ship-every N        rows between upstream shipments
                        (default: --publish-every)
  --keepalive-ms MS     edge: when idle, still ship an (empty) delta
                        every MS milliseconds so the aggregator keeps
                        seeing the node as live (default 1000; 0 = off)

observability (see DESIGN.md §8.7):
  --stale-after MS      aggregator: a node with no applied frame for MS
                        milliseconds is `stale` (`lagging` from MS/2;
                        default 10000)
  --flight-dir DIR      on decode error, poison, or panic, drain the
                        trace ring to a JSONL flight recording in DIR
  --flight-keep N       keep at most N flight recordings (default 8)

catalog role (see DESIGN.md §8.8):
  --catalog             own a QueryCatalog instead of a single estimator:
                        rows ingest once, every registered query answers
                        from the same pass; queries are managed at
                        runtime over HTTP (POST /query, DELETE
                        /query/{id}, GET /estimate?query=ID)
                        (requires --threads 1)
  --arity N             columns per ingested row in catalog mode
                        (default 8, max 64)
  --query-file FILE     preload the catalog from a query spec file
                        (same line grammar as the implicate CLI)
";

fn parse_cols(v: &str) -> Vec<usize> {
    let cols: Vec<usize> = v
        .split(',')
        .map(|c| {
            c.trim()
                .parse()
                .unwrap_or_else(|_| die(&format!("bad column {c:?}")))
        })
        .collect();
    if cols.is_empty() {
        die("empty column list");
    }
    cols
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| die(&format!("{flag}: bad value {v:?}")))
}

fn parse_opts() -> Opts {
    let mut lhs = vec![0usize];
    let mut rhs = vec![1usize];
    let mut delimiter = None;
    let mut max_mult = 1u32;
    let mut support = 1u64;
    let mut top_c: Option<u32> = None;
    let mut confidence = 100.0f64;
    let mut policy = MultiplicityPolicy::Strict;
    let mut bitmaps = 64usize;
    let mut fringe = 4u32;
    let mut memory_budget: Option<usize> = None;
    let mut seed = 42u64;
    let mut threads = 1usize;
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
            print!("{USAGE}");
            exit(0);
        }
        let mut val = || {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs a value")))
                .as_str()
        };
        match flag.as_str() {
            "--lhs" => lhs = parse_cols(val()),
            "--rhs" => rhs = parse_cols(val()),
            "--delimiter" => {
                let v = val();
                let mut chars = v.chars();
                delimiter = chars.next();
                if delimiter.is_none() || chars.next().is_some() {
                    die("--delimiter must be a single character");
                }
            }
            "--max-mult" => max_mult = parse_num(val(), "--max-mult"),
            "--support" => support = parse_num(val(), "--support"),
            "--top-c" => top_c = Some(parse_num(val(), "--top-c")),
            "--confidence" => confidence = parse_num(val(), "--confidence"),
            "--policy" => {
                policy = match val() {
                    "strict" => MultiplicityPolicy::Strict,
                    "tracktop" => MultiplicityPolicy::TrackTop,
                    other => die(&format!("unknown policy {other:?}")),
                }
            }
            "--bitmaps" => bitmaps = parse_num(val(), "--bitmaps"),
            "--fringe" => fringe = parse_num(val(), "--fringe"),
            "--memory-budget" => memory_budget = Some(parse_num(val(), "--memory-budget")),
            "--seed" => seed = parse_num(val(), "--seed"),
            "--threads" => threads = parse_num(val(), "--threads"),
            "--publish-every" => publish_every = parse_num(val(), "--publish-every"),
            "--checkpoint" => checkpoint = Some(val().to_string()),
            "--checkpoint-every" => checkpoint_every = Some(parse_num(val(), "--checkpoint-every")),
            "--ingest" => ingest_addr = val().to_string(),
            "--query" => query_addr = val().to_string(),
            "--aggregate" => aggregate = true,
            "--upstream" => upstream = Some(val().to_string()),
            "--node-id" => node_id = Some(parse_num(val(), "--node-id")),
            "--ship-every" => ship_every = Some(parse_num(val(), "--ship-every")),
            "--keepalive-ms" => keepalive_ms = Some(parse_num(val(), "--keepalive-ms")),
            "--stale-after" => stale_after_ms = Some(parse_num(val(), "--stale-after")),
            "--flight-dir" => flight_dir = Some(val().to_string()),
            "--flight-keep" => flight_keep = Some(parse_num(val(), "--flight-keep")),
            "--catalog" => catalog = true,
            "--arity" => arity = Some(parse_num(val(), "--arity")),
            "--query-file" => query_file = Some(val().to_string()),
            other => die(&format!("unknown option {other:?} (try --help)")),
        }
    }

    if threads == 0 {
        die("--threads must be at least 1");
    }
    if publish_every == 0 {
        die("--publish-every must be at least 1");
    }
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
    if ship_every == Some(0) {
        die("--ship-every must be at least 1");
    }
    if ship_every.is_some() && upstream.is_none() {
        die("--ship-every only makes sense with --upstream");
    }
    if stale_after_ms.is_some() && !aggregate {
        die("--stale-after only makes sense with --aggregate");
    }
    if stale_after_ms == Some(0) {
        die("--stale-after must be at least 1 millisecond");
    }
    if flight_keep.is_some() && flight_dir.is_none() {
        die("--flight-keep needs --flight-dir DIR");
    }
    if flight_keep == Some(0) {
        die("--flight-keep must be at least 1");
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

    let cond = ImplicationConditions::builder()
        .max_multiplicity(max_mult)
        .min_support(support)
        .top_confidence(top_c.unwrap_or(max_mult), confidence / 100.0)
        .multiplicity_policy(policy)
        .build();
    let mut config = EstimatorConfig::new(cond)
        .bitmaps(bitmaps)
        .fringe(match fringe {
            0 => Fringe::Unbounded,
            f => Fringe::Bounded(f),
        })
        .seed(seed);
    if let Some(bytes) = memory_budget {
        config = config.memory_budget(bytes);
    }

    Opts {
        lhs,
        rhs,
        delimiter,
        config,
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

/// The writer side: one thread owning either the sequential estimator or
/// the sharded pipeline.
// One Pipeline exists per process, so the size spread between variants
// is irrelevant — boxing would only add a pointer chase per batch.
#[allow(clippy::large_enum_variant)]
enum Pipeline {
    Sequential(ImplicationEstimator),
    Sharded(ShardedEstimator),
}

impl Pipeline {
    fn apply(&mut self, batch: &[(u64, u64)]) {
        match self {
            Pipeline::Sequential(est) => est.update_hashed_batch(batch),
            Pipeline::Sharded(sharded) => sharded.update_hashed_batch(batch),
        }
    }

    fn publish(&mut self) -> u64 {
        match self {
            Pipeline::Sequential(est) => est.publish(),
            Pipeline::Sharded(sharded) => sharded.publish(),
        }
    }

    /// Applied-row lag behind the accepted stream (always 0 when
    /// sequential — applying is synchronous there).
    fn backlog(&self) -> u64 {
        match self {
            Pipeline::Sequential(_) => 0,
            Pipeline::Sharded(sharded) => sharded.backlog(),
        }
    }

    /// Ships partially-filled router buffers to the lanes (no-op when
    /// sequential).
    fn flush(&mut self) {
        if let Pipeline::Sharded(sharded) = self {
            sharded.flush();
        }
    }

    /// Publishes a view carrying the canonical snapshot payload and
    /// returns those bytes. Sequential only — the sharded pipeline
    /// cannot encode without quiescing.
    fn publish_full(&mut self) -> Option<bytes::Bytes> {
        match self {
            Pipeline::Sequential(est) => {
                est.publish_full();
                Some(est.to_bytes())
            }
            Pipeline::Sharded(_) => None,
        }
    }

    /// The owned estimator when sequential (edge shipping captures wire
    /// snapshots off it; the sharded pipeline cannot without quiescing).
    fn sequential(&self) -> Option<&ImplicationEstimator> {
        match self {
            Pipeline::Sequential(est) => Some(est),
            Pipeline::Sharded(_) => None,
        }
    }

    /// Drains, reassembles (if sharded), publishes the final state, and
    /// returns the owning estimator.
    fn into_final(self) -> ImplicationEstimator {
        match self {
            Pipeline::Sequential(mut est) => {
                est.publish_full();
                est
            }
            Pipeline::Sharded(sharded) => {
                // finish() barriers, merges, and republishes the merged
                // state on the inherited channel.
                let mut est = sharded.finish();
                est.publish_full();
                est
            }
        }
    }
}

/// Atomically replaces `path` with `data` (write temp + rename).
fn write_checkpoint(path: &str, data: &[u8]) {
    let tmp = format!("{path}.tmp");
    let result = std::fs::write(&tmp, data).and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = result {
        eprintln!("implicate-serve: checkpoint {path}: {e}");
    }
}

/// Keep-latest handoff between the writer (which captures wire
/// snapshots at the ship cadence) and the upstream sender thread. A
/// newer capture replaces an unsent older one — the wire protocol only
/// ever needs the newest state, since deltas are computed against the
/// last snapshot actually *sent*, not the previous capture.
struct ShipSlot {
    /// The newest unsent capture, and whether it is the writer's final
    /// one (the slot is closed: nothing more will be stored).
    state: Mutex<(Option<WireSnapshot>, bool)>,
    /// Signalled on every store, so the sender wakes as soon as a
    /// capture is ready — it never polls.
    stored: Condvar,
}

impl ShipSlot {
    fn new() -> Self {
        Self {
            state: Mutex::new((None, false)),
            stored: Condvar::new(),
        }
    }

    fn store(&self, snap: WireSnapshot) {
        lock(&self.state).0 = Some(snap);
        self.stored.notify_one();
    }

    /// Stores the writer's final capture and closes the slot.
    fn close(&self, snap: WireSnapshot) {
        *lock(&self.state) = (Some(snap), true);
        self.stored.notify_one();
    }

    fn take(&self) -> Option<WireSnapshot> {
        lock(&self.state).0.take()
    }

    /// Whether the writer's final capture has been taken.
    fn drained(&self) -> bool {
        matches!(*lock(&self.state), (None, true))
    }

    /// Blocks until a capture is waiting or the slot is closed.
    fn wait(&self) {
        let state = lock(&self.state);
        drop(
            self.stored
                .wait_while(state, |(latest, closed)| latest.is_none() && !*closed),
        );
    }

    /// Blocks until the slot is closed or `deadline` passes; returns
    /// whether it is closed.
    fn closed_before(&self, deadline: std::time::Instant) -> bool {
        let mut state = lock(&self.state);
        while !state.1 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            state = match self.stored.wait_timeout(state, left) {
                Ok((state, _)) => state,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        true
    }
}

/// Catalog-role control message from an HTTP connection thread to the
/// catalog writer — the single owner of the [`QueryCatalog`].
enum CatalogCtrl {
    /// Parse and register one query-spec line (the body of
    /// `POST /query`); replies with the raw id or a client-readable
    /// error.
    Register {
        line: String,
        reply: SyncSender<Result<u64, String>>,
    },
    /// Retire by raw id (`DELETE /query/{id}`); replies with whether
    /// the id was live.
    Retire { id: u64, reply: SyncSender<bool> },
}

/// What a query connection needs to answer `/estimate?query=…` without
/// consulting the writer: the registered name, the declarative query
/// (for `answer_from`), and a wait-free per-query reader.
struct CatalogQueryHandle {
    name: String,
    query: ImplicationQuery,
    reader: EstimateReader,
}

/// Read-side state of the catalog role. The writer owns the
/// [`QueryCatalog`]; query connections resolve per-query readers here
/// and serve the Prometheus exposition the writer re-renders at the
/// publish cadence.
struct CatalogShared {
    /// Live queries by raw id — mutated only by the writer (register /
    /// retire); query threads lock briefly to resolve `?query=` by id
    /// or name.
    queries: Mutex<HashMap<u64, CatalogQueryHandle>>,
    /// Latest `QueryCatalog::prometheus_into` rendering, per-query
    /// labeled series included.
    exposition: Mutex<String>,
    /// Control channel into the catalog writer.
    ctrl: SyncSender<CatalogCtrl>,
}

/// The catalog role's writer: single owner of the [`QueryCatalog`].
/// Hashes each incoming row batch attribute-wise exactly once into a
/// reused [`HashedBatch`], applies it to every registered query,
/// services register/retire control messages between batches, and
/// republishes every query's view (plus the metrics exposition) on the
/// publish cadence.
///
/// Returns (rows this session, final tuple count).
fn catalog_writer_loop(
    mut catalog: QueryCatalog,
    batch_rx: &Receiver<Vec<Tuple>>,
    ctrl_rx: &Receiver<CatalogCtrl>,
    shared: &Shared,
    cat: &CatalogShared,
    publish_every: u64,
) -> (u64, u64) {
    let mut rows = 0u64;
    let mut since_publish = 0u64;
    let hasher = catalog.hasher().clone();
    let mut hashed = HashedBatch::new();
    let refresh = |catalog: &QueryCatalog, cat: &CatalogShared| {
        let mut text = String::new();
        catalog.prometheus_into("implicate", &mut text);
        *lock(&cat.exposition) = text;
    };
    loop {
        // Control first: a registration must not wait behind a long
        // run of queued row batches.
        while let Ok(msg) = ctrl_rx.try_recv() {
            match msg {
                CatalogCtrl::Register { line, reply } => {
                    let result = spec::parse_query_line(&line).and_then(|s| {
                        if s.max_column() >= catalog.schema().arity() {
                            return Err(format!(
                                "column {} out of range (--arity {})",
                                s.max_column(),
                                catalog.schema().arity(),
                            ));
                        }
                        let id = catalog
                            .try_register(s.name.clone(), s.query.clone())
                            .map_err(|e| e.to_string())?;
                        let reader = catalog.reader(id).expect("just registered");
                        lock(&cat.queries).insert(
                            id.raw(),
                            CatalogQueryHandle {
                                name: s.name,
                                query: s.query,
                                reader,
                            },
                        );
                        Ok(id.raw())
                    });
                    refresh(&catalog, cat);
                    let _ = reply.send(result);
                }
                CatalogCtrl::Retire { id, reply } => {
                    let live = catalog.retire(QueryId::from_raw(id));
                    if live {
                        lock(&cat.queries).remove(&id);
                        refresh(&catalog, cat);
                    }
                    let _ = reply.send(live);
                }
            }
        }
        match batch_rx.recv_timeout(POLL) {
            Ok(batch) => {
                let n = batch.len() as u64;
                hasher.hash_batch(batch, &mut hashed);
                catalog.process_hashed(&hashed);
                rows += n;
                since_publish += n;
                if since_publish >= publish_every {
                    since_publish = 0;
                    catalog.publish();
                    refresh(&catalog, cat);
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                if since_publish > 0 {
                    since_publish = 0;
                    catalog.publish();
                    refresh(&catalog, cat);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain anything still queued, then publish the final state.
    while let Ok(batch) = batch_rx.try_recv() {
        rows += batch.len() as u64;
        hasher.hash_batch(batch, &mut hashed);
        catalog.process_hashed(&hashed);
    }
    catalog.publish();
    refresh(&catalog, cat);
    (rows, catalog.tuples_seen())
}

/// One catalog ingest connection: every line becomes a full
/// `--arity`-wide tuple of field fingerprints (narrower rows are
/// skipped), so any query registered now *or later in the stream* is
/// answered from the same pass.
fn catalog_ingest_connection(
    stream: TcpStream,
    shared: &Shared,
    arity: usize,
    delimiter: Option<char>,
    tx: &SyncSender<Vec<Tuple>>,
) {
    ingest_lines(stream, shared, delimiter, &vec![true; arity], tx, |row| {
        (row.len() >= arity).then(|| Tuple::new(row))
    });
}

/// Drives one line-protocol ingest connection: reads lines capped at
/// [`MAX_INGEST_LINE`], hashes the leading fields `wanted` selects, and
/// batches what `make_row` builds from them to the writer. `make_row`
/// returns `None` for a row too short for it; such rows and non-UTF-8
/// lines count as `skipped`, oversize lines as `skipped_oversize`, and
/// none of them closes the connection.
fn ingest_lines<T>(
    stream: TcpStream,
    shared: &Shared,
    delimiter: Option<char>,
    wanted: &[bool],
    tx: &SyncSender<Vec<T>>,
    mut make_row: impl FnMut(&[u64]) -> Option<T>,
) {
    stream.set_read_timeout(Some(POLL)).ok();
    let mut lines = LineReader::with_cap(BufReader::new(stream), MAX_INGEST_LINE);
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), delimiter);
    let mut batch = Vec::with_capacity(INGEST_BATCH);
    loop {
        let row = match lines.next_line() {
            Ok(Line::Text(line)) => fields.hash_line(line, wanted),
            Ok(Line::Oversize) => {
                shared.skipped_oversize.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Ok(Line::Eof) => break, // EOF: client done.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The read timed out; the reader keeps any partial line
                // and the next read resumes it. Flush what we have so
                // slow trickles still become visible, then check for
                // stop.
                if !batch.is_empty() && tx.send(std::mem::take(&mut batch)).is_err() {
                    return;
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => break,
        };
        let made = match row {
            Row::Blank => continue,
            Row::Fields(row) => make_row(row),
            Row::NotUtf8 => None,
        };
        let Some(made) = made else {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        batch.push(made);
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        if batch.len() >= INGEST_BATCH {
            let full = std::mem::replace(&mut batch, Vec::with_capacity(INGEST_BATCH));
            if tx.send(full).is_err() {
                return;
            }
        }
    }
    if !batch.is_empty() {
        let _ = tx.send(batch);
    }
}

/// Returns true when the peer has half-closed or reset the connection —
/// detected with a nonblocking 1-byte probe read (the aggregator never
/// sends application data, so any `Ok` read of 0 bytes is a FIN).
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match (&*stream).read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false, // unexpected chatter; the write path decides
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    gone || stream.set_nonblocking(false).is_err()
}

/// The edge's upstream sender: connects to the aggregator with capped
/// exponential backoff and ships every snapshot the writer hands over —
/// a **full** frame right after each (re)connect, **deltas** against
/// the last sent snapshot afterwards. Any send failure drops the
/// connection and clears the delta base, so the next frame after a
/// reconnect is always full: a delta the aggregator never applied can
/// never poison the resync.
///
/// Runs until the writer's final capture ([`ShipSlot::close`]) has
/// shipped, so a graceful shutdown always delivers the final state.
fn edge_sender(upstream: &str, node_id: u64, slot: &ShipSlot, shared: &Shared) {
    let mut conn: Option<TcpStream> = None;
    let mut base: Option<WireSnapshot> = None;
    let mut backoff = BACKOFF_START;
    let mut pending: Option<WireSnapshot> = None;
    loop {
        if pending.is_none() {
            pending = slot.take();
        }
        let Some(snap) = pending.as_ref() else {
            if slot.drained() {
                return;
            }
            slot.wait();
            continue;
        };

        // (Re)connect if needed; detect a silently-dead peer first so a
        // restarted aggregator gets a full frame instead of a delta
        // written into a black hole.
        if conn.as_ref().is_some_and(peer_gone) {
            conn = None;
            if let Some(edge) = &shared.edge {
                edge.set_connected(false);
            }
        }
        if conn.is_none() {
            base = None;
            match TcpStream::connect(upstream) {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    conn = Some(stream);
                    backoff = BACKOFF_START;
                    if let Some(edge) = &shared.edge {
                        edge.record_connect();
                    }
                }
                Err(_) => {
                    if let Some(edge) = &shared.edge {
                        edge.record_backoff(backoff.as_millis() as u64);
                    }
                    // Don't spin while unreachable — but stay
                    // responsive to shutdown: with the aggregator
                    // unreachable when the writer closes the slot, the
                    // state is lost to this session, as documented —
                    // exit rather than hang.
                    if slot.closed_before(std::time::Instant::now() + backoff) {
                        return;
                    }
                    backoff = (backoff * 2).min(BACKOFF_CAP);
                    continue;
                }
            }
        }

        let is_full = base.is_none();
        let frame = match &base {
            Some(b) => snap.delta_frame(b, node_id),
            None => snap.full_frame(node_id),
        };
        let stream = conn.as_mut().expect("connected above");
        let write_started = std::time::Instant::now();
        match stream.write_all(&frame).and_then(|()| stream.flush()) {
            Ok(()) => {
                if let Some(edge) = &shared.edge {
                    edge.record_ship(
                        frame.len() as u64,
                        is_full,
                        write_started.elapsed().as_nanos() as u64,
                        shared.now_ms(),
                    );
                }
                base = pending.take();
                if slot.drained() {
                    return;
                }
            }
            Err(_) => {
                // Keep `pending`: it resends as a full frame once the
                // connection is back.
                conn = None;
                if let Some(edge) = &shared.edge {
                    edge.record_send_error();
                }
            }
        }
    }
}

/// One aggregator ingest connection: reassembles wire frames off the
/// stream and hands complete frames to the writer. The writer flips
/// `kill` when a frame from this connection fails to apply — dropping
/// the connection is the signal that makes the edge reconnect and
/// resync with a full snapshot.
fn wire_ingest_connection(
    mut stream: TcpStream,
    shared: &Shared,
    tx: &SyncSender<(bytes::Bytes, Arc<AtomicBool>)>,
) {
    stream.set_read_timeout(Some(POLL)).ok();
    let kill = Arc::new(AtomicBool::new(false));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    // The connection pins itself to the first node_id it presents; a
    // frame declaring a different id mid-connection is rejected and
    // drops the connection. Nothing authenticates the *first* claim
    // (trusted-network protocol, as WIRE.md states), but a pinned
    // connection can no longer impersonate other nodes or smear one
    // edge's stream across several registry entries.
    let mut pinned: Option<u64> = None;
    loop {
        if kill.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
            return; // dropping the stream sends the edge its FIN
        }
        // Drain every complete frame currently buffered.
        loop {
            match peek_frame(&buf) {
                Ok(Some(header)) => {
                    if header.body_len > DEFAULT_MAX_FRAME_BYTES as u64 {
                        return;
                    }
                    match pinned {
                        None => {
                            pinned = Some(header.node_id);
                            if let Some(fleet) = &shared.fleet {
                                fleet.record_connect(header.node_id, shared.now_ms());
                            }
                        }
                        Some(p) if p != header.node_id => {
                            shared.metrics.wire.node_id_conflicts.inc();
                            shared.trace.record(|| TraceEvent::FrameRejected {
                                node: p,
                                error: REJECT_NODE_ID_SWITCH,
                                epoch: header.epoch,
                            });
                            if let Some(fleet) = &shared.fleet {
                                fleet.record_id_conflict(p);
                            }
                            eprintln!(
                                "implicate-serve: connection pinned to node {p} sent a \
                                 frame claiming node {} — dropping connection",
                                header.node_id
                            );
                            return;
                        }
                        Some(_) => {}
                    }
                    let total = header.frame_len();
                    if buf.len() < total {
                        break;
                    }
                    let rest = buf.split_off(total);
                    let frame = bytes::Bytes::from(std::mem::replace(&mut buf, rest));
                    if tx.send((frame, Arc::clone(&kill))).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return, // not wire traffic; hang up
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // edge closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// The aggregator's writer: the single owner of the serving estimator
/// and of one [`WireDecoder`] replica per edge node.
///
/// Every successfully applied frame triggers a re-merge of all held
/// replicas into a fresh same-configuration estimator, which the
/// serving writer then adopts and republishes — readers keep their
/// wait-free channel across re-aggregations. A frame that fails to
/// apply resets that node's replica and kills its connection; the edge
/// reconnects and resyncs with a full snapshot.
///
/// Returns (frames applied, final tuple count).
fn aggregate_writer_loop(
    mut serving: ImplicationEstimator,
    template: &EstimatorConfig,
    frame_rx: &Receiver<(bytes::Bytes, Arc<AtomicBool>)>,
    shared: &Shared,
    checkpoint: Option<&str>,
    checkpoint_every: Option<u64>,
) -> (u64, u64) {
    let mut decoders: HashMap<u64, WireDecoder> = HashMap::new();
    let mut frames = 0u64;
    let mut tuples_at_checkpoint = serving.tuples_seen();
    loop {
        match frame_rx.recv_timeout(POLL) {
            Ok((frame, kill)) => {
                // node_id is authenticated by nothing but the header —
                // this is a trusted-network protocol, as WIRE.md states
                // (the ingest connection pins it so it cannot *switch*).
                let peeked = match peek_frame(&frame) {
                    Ok(Some(h)) => h,
                    _ => {
                        kill.store(true, Ordering::Release);
                        continue;
                    }
                };
                let node = peeked.node_id;
                let frame_bytes = frame.len() as u64;
                let decoder = decoders.entry(node).or_insert_with(|| {
                    WireDecoder::new()
                        .require_matching(&serving)
                        .with_metrics(serving.metrics().clone())
                        .with_trace(serving.trace().clone())
                });
                match decoder.apply(frame) {
                    Ok(header) => {
                        frames += 1;
                        shared.accepted.fetch_add(header.tuples, Ordering::Relaxed);
                        if let Some(fleet) = &shared.fleet {
                            fleet.record_frame(
                                node,
                                header.kind,
                                frame_bytes,
                                header.epoch,
                                header.tuples,
                                shared.now_ms(),
                            );
                        }
                        let merge_started = std::time::Instant::now();
                        let mut merged = template.build();
                        for dec in decoders.values() {
                            if let Some(replica) = dec.estimator() {
                                merged.merge(replica);
                            }
                        }
                        serving.adopt_state(merged);
                        if let Some(fleet) = &shared.fleet {
                            fleet.observe_merge_nanos(merge_started.elapsed().as_nanos() as u64);
                        }
                        let publish_started = std::time::Instant::now();
                        serving.publish_full();
                        let data = serving.to_bytes();
                        if let Some(fleet) = &shared.fleet {
                            fleet
                                .observe_publish_nanos(publish_started.elapsed().as_nanos() as u64);
                        }
                        if let Some(path) = checkpoint {
                            let due = checkpoint_every.is_some_and(|n| {
                                serving.tuples_seen().saturating_sub(tuples_at_checkpoint) >= n
                            });
                            if due {
                                tuples_at_checkpoint = serving.tuples_seen();
                                write_checkpoint(path, &data);
                            }
                        }
                        *lock(&shared.snapshot) = Some(data);
                    }
                    Err(e) => {
                        eprintln!("implicate-serve: frame from node {node}: {e}");
                        // Record first, so the recording is on disk by the
                        // time `/status` reports the node poisoned.
                        if let Some(recorder) = &shared.flight {
                            let context = format!(
                                "{{\"reason\":\"decode_error\",\"node_id\":{node},\
                                 \"epoch\":{},\"error\":\"{}\",\"detail\":{}}}",
                                peeked.epoch,
                                e.name(),
                                flight::json_string(&e.to_string()),
                            );
                            recorder.record(
                                "decode_error",
                                &context,
                                shared.trace.journal().map(|j| j.to_jsonl()).as_deref(),
                            );
                        }
                        if let Some(fleet) = &shared.fleet {
                            fleet.record_error(node, Some(peeked.epoch), shared.now_ms());
                        }
                        decoder.reset();
                        kill.store(true, Ordering::Release);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok((frame, kill)) = frame_rx.try_recv() {
        let peeked = match peek_frame(&frame) {
            Ok(Some(h)) => h,
            _ => continue,
        };
        let node = peeked.node_id;
        let frame_bytes = frame.len() as u64;
        if let Some(decoder) = decoders.get_mut(&node) {
            match decoder.apply(frame) {
                Ok(header) => {
                    frames += 1;
                    if let Some(fleet) = &shared.fleet {
                        fleet.record_frame(
                            node,
                            header.kind,
                            frame_bytes,
                            header.epoch,
                            header.tuples,
                            shared.now_ms(),
                        );
                    }
                    let mut merged = template.build();
                    for dec in decoders.values() {
                        if let Some(replica) = dec.estimator() {
                            merged.merge(replica);
                        }
                    }
                    serving.adopt_state(merged);
                }
                Err(_) => {
                    if let Some(fleet) = &shared.fleet {
                        fleet.record_error(node, Some(peeked.epoch), shared.now_ms());
                    }
                    kill.store(true, Ordering::Release);
                }
            }
        }
    }
    serving.publish_full();
    let data = serving.to_bytes();
    if let Some(path) = checkpoint {
        write_checkpoint(path, &data);
        eprintln!(
            "implicate-serve: checkpointed {} tuples to {path}",
            serving.tuples_seen()
        );
    }
    *lock(&shared.snapshot) = Some(data);
    (frames, serving.tuples_seen())
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
    *lock(&shared.snapshot) = Some(est.to_bytes());

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

    let (batch_tx, batch_rx) = sync_channel::<Vec<(u64, u64)>>(INGEST_DEPTH);
    let (frame_tx, frame_rx) = sync_channel::<(bytes::Bytes, Arc<AtomicBool>)>(INGEST_DEPTH);
    let (tuple_tx, tuple_rx) = sync_channel::<Vec<Tuple>>(INGEST_DEPTH);
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

    // Writer thread: the single owner of estimator mutation.
    let writer = if opts.catalog {
        let schema = Schema::new((0..opts.arity).map(|i| (format!("c{i}"), 0)));
        let mut catalog_engine = QueryCatalog::new(&schema, opts.config);
        catalog_engine.set_trace(shared.trace.clone());
        let cat = Arc::clone(cat_shared.as_ref().expect("catalog mode"));
        // Preload from --query-file (same grammar as POST /query);
        // any bad line is a startup error, not a silently-empty
        // catalog.
        if let Some(path) = &opts.query_file {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let specs =
                spec::parse_query_file(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            let mut queries = lock(&cat.queries);
            for s in specs {
                if s.max_column() >= opts.arity {
                    die(&format!(
                        "{path}: query {:?} touches column {} (--arity {})",
                        s.name,
                        s.max_column(),
                        opts.arity,
                    ));
                }
                let id = catalog_engine
                    .try_register(s.name.clone(), s.query.clone())
                    .unwrap_or_else(|e| die(&format!("{path}: {}: {e}", s.name)));
                let reader = catalog_engine.reader(id).expect("just registered");
                queries.insert(
                    id.raw(),
                    CatalogQueryHandle {
                        name: s.name,
                        query: s.query,
                        reader,
                    },
                );
            }
            drop(queries);
            eprintln!(
                "implicate-serve: preloaded {} queries from {path}",
                catalog_engine.len()
            );
        }
        let mut text = String::new();
        catalog_engine.prometheus_into("implicate", &mut text);
        *lock(&cat.exposition) = text;
        let shared = Arc::clone(&shared);
        let publish_every = opts.publish_every;
        std::thread::spawn(move || {
            catalog_writer_loop(
                catalog_engine,
                &tuple_rx,
                &ctrl_rx,
                &shared,
                &cat,
                publish_every,
            )
        })
    } else if opts.aggregate {
        let shared = Arc::clone(&shared);
        let template = opts.config;
        let checkpoint = opts.checkpoint.clone();
        let checkpoint_every = opts.checkpoint_every;
        std::thread::spawn(move || {
            aggregate_writer_loop(
                est,
                &template,
                &frame_rx,
                &shared,
                checkpoint.as_deref(),
                checkpoint_every,
            )
        })
    } else {
        let pipeline = if opts.threads > 1 {
            Pipeline::Sharded(ShardedEstimator::new(est, opts.threads))
        } else {
            Pipeline::Sequential(est)
        };
        let shared = Arc::clone(&shared);
        let publish_every = opts.publish_every;
        let checkpoint = opts.checkpoint.clone();
        let checkpoint_every = opts.checkpoint_every;
        let ship = ship_slot
            .as_ref()
            .map(|slot| (Arc::clone(slot), opts.ship_every, opts.keepalive_ms));
        std::thread::spawn(move || {
            writer_loop(
                pipeline,
                &batch_rx,
                &shared,
                publish_every,
                checkpoint.as_deref(),
                checkpoint_every,
                ship,
            )
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

    // Ingest acceptor: wire frames when aggregating, text rows otherwise.
    // Ingest connections are long-lived streams, one thread each.
    {
        let shared = Arc::clone(&shared);
        if opts.aggregate {
            let frame_tx = frame_tx.clone();
            std::thread::spawn(move || {
                http::accept_loop(&ingest_listener, |stream| {
                    let (tx, shared) = (frame_tx.clone(), Arc::clone(&shared));
                    std::thread::spawn(move || {
                        wire_ingest_connection(stream, &shared, &tx);
                    });
                });
            });
        } else if opts.catalog {
            let arity = opts.arity;
            let delimiter = opts.delimiter;
            let tuple_tx = tuple_tx.clone();
            std::thread::spawn(move || {
                http::accept_loop(&ingest_listener, |stream| {
                    let (tx, shared) = (tuple_tx.clone(), Arc::clone(&shared));
                    std::thread::spawn(move || {
                        catalog_ingest_connection(stream, &shared, arity, delimiter, &tx);
                    });
                });
            });
        } else {
            let lhs = opts.lhs.clone();
            let rhs = opts.rhs.clone();
            let delimiter = opts.delimiter;
            let batch_tx = batch_tx.clone();
            std::thread::spawn(move || {
                http::accept_loop(&ingest_listener, |stream| {
                    let (tx, shared) = (batch_tx.clone(), Arc::clone(&shared));
                    let (lhs, rhs) = (lhs.clone(), rhs.clone());
                    std::thread::spawn(move || {
                        ingest_connection(stream, &shared, &lhs, &rhs, delimiter, pair_hasher, &tx);
                    });
                });
            });
        }
    }
    // Only the ingest acceptor and its connections hold senders from
    // here on. The acceptor never exits, so the writer leaves its loop
    // on the stop flag, not on a disconnected channel.
    drop(batch_tx);
    drop(frame_tx);
    drop(tuple_tx);

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

/// The single mutation owner: applies batches, publishes views on the
/// configured cadence, checkpoints, and performs the graceful-shutdown
/// drain. Returns (rows this session, final tuple count).
fn writer_loop(
    mut pipeline: Pipeline,
    batch_rx: &Receiver<Vec<(u64, u64)>>,
    shared: &Shared,
    publish_every: u64,
    checkpoint: Option<&str>,
    checkpoint_every: Option<u64>,
    ship: Option<(Arc<ShipSlot>, u64, u64)>,
) -> (u64, u64) {
    let mut rows = 0u64;
    let mut since_publish = 0u64;
    let mut since_checkpoint = 0u64;
    let mut since_ship = 0u64;
    let mut ship_epoch = 0u64;
    let mut last_capture = std::time::Instant::now();
    // Captures the sequential estimator's state into the ship slot
    // under the next wire epoch (edge role only).
    let capture = |pipeline: &Pipeline, ship_epoch: &mut u64| {
        if let (Some((slot, _, _)), Some(est)) = (&ship, pipeline.sequential()) {
            *ship_epoch += 1;
            slot.store(WireSnapshot::capture(est, *ship_epoch));
        }
    };
    // Whether the last published view reflects *every* routed row. A
    // mid-stream publish races the lanes by design (that is what makes
    // it wait-free), so after going idle the writer republishes until a
    // view assembled at backlog 0 is out — otherwise readers could be
    // pinned forever on an estimate missing the stream's tail.
    let mut published_settled = true;
    loop {
        match batch_rx.recv_timeout(POLL) {
            Ok(batch) => {
                let n = batch.len() as u64;
                pipeline.apply(&batch);
                rows += n;
                since_publish += n;
                since_checkpoint += n;
                since_ship += n;
                if ship
                    .as_ref()
                    .is_some_and(|(_, every, _)| since_ship >= *every)
                {
                    since_ship = 0;
                    capture(&pipeline, &mut ship_epoch);
                    last_capture = std::time::Instant::now();
                }
                if let Some(edge) = &shared.edge {
                    edge.set_unshipped(since_ship);
                }
                if since_publish >= publish_every {
                    since_publish = 0;
                    if checkpoint_every.is_some_and(|n| since_checkpoint >= n) {
                        since_checkpoint = 0;
                        if let Some(data) = pipeline.publish_full() {
                            if let Some(path) = checkpoint {
                                write_checkpoint(path, &data);
                            }
                            *lock(&shared.snapshot) = Some(data);
                        }
                    } else {
                        pipeline.publish();
                    }
                    published_settled = pipeline.backlog() == 0;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                // Idle: ship any partial per-shard buffers to the lanes
                // (full batches ship eagerly; partials otherwise wait
                // for more rows), then publish until a settled view —
                // one assembled with nothing left in flight — is out.
                if pipeline.backlog() > 0 {
                    pipeline.flush();
                }
                let settled = pipeline.backlog() == 0;
                if since_publish > 0 || !settled || !published_settled {
                    since_publish = 0;
                    pipeline.publish();
                    published_settled = settled;
                }
                // Idle edges ship the stream's tail: rows that arrived
                // since the last capture must not wait for a full
                // cadence interval that may never fill. Fully-idle
                // edges still ship on the keep-alive cadence — the
                // resulting unchanged-state delta is ~20 bytes, and it
                // keeps the node `live` on the aggregator's registry
                // instead of decaying to `stale` for mere quietness.
                let keepalive_due = ship.as_ref().is_some_and(|(_, _, ka_ms)| {
                    *ka_ms > 0 && last_capture.elapsed() >= Duration::from_millis(*ka_ms)
                });
                if since_ship > 0 || keepalive_due {
                    since_ship = 0;
                    capture(&pipeline, &mut ship_epoch);
                    last_capture = std::time::Instant::now();
                }
                if let Some(edge) = &shared.edge {
                    edge.set_unshipped(since_ship);
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    // Drain anything still queued, then publish the final state.
    while let Ok(batch) = batch_rx.try_recv() {
        rows += batch.len() as u64;
        pipeline.apply(&batch);
    }
    let est = pipeline.into_final();
    let data = est.to_bytes();
    if let Some(path) = checkpoint {
        write_checkpoint(path, &data);
        eprintln!(
            "implicate-serve: checkpointed {} tuples to {path}",
            est.tuples_seen()
        );
    }
    *lock(&shared.snapshot) = Some(data);
    // The final state always ships (an unchanged-state delta is a few
    // bytes), so a graceful edge shutdown never strands its tail.
    if let Some((slot, _, _)) = &ship {
        ship_epoch += 1;
        slot.close(WireSnapshot::capture(&est, ship_epoch));
    }
    (rows, est.tuples_seen())
}

/// One ingest connection: parse lines, hash pairs, ship batches.
fn ingest_connection(
    stream: TcpStream,
    shared: &Shared,
    lhs: &[usize],
    rhs: &[usize],
    delimiter: Option<char>,
    pair_hasher: PairHasher,
    tx: &SyncSender<Vec<(u64, u64)>>,
) {
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    let wanted = wanted_columns(&[lhs, rhs]);
    ingest_lines(stream, shared, delimiter, &wanted, tx, |row| {
        (project(row, lhs, &mut buf_a) && project(row, rhs, &mut buf_b))
            .then(|| pair_hasher.hash_pair(&buf_a, &buf_b))
    });
}

/// Routes specific to the catalog role; `None` falls through to the
/// common handler (`/healthz`, `/shutdown`, 404).
fn catalog_route(
    method: &str,
    route: &str,
    query_string: &str,
    body_in: &[u8],
    cat: &CatalogShared,
    shared: &Shared,
) -> Option<(&'static str, &'static str, Vec<u8>)> {
    match (method, route) {
        ("GET", "/estimate") => {
            let Some(wanted) = query_string
                .split('&')
                .find_map(|kv| kv.strip_prefix("query="))
            else {
                return Some((
                    "400 Bad Request",
                    "text/plain",
                    b"catalog mode: GET /estimate?query=ID-or-NAME\n".to_vec(),
                ));
            };
            let queries = lock(&cat.queries);
            let found = wanted
                .parse::<u64>()
                .ok()
                .and_then(|id| queries.get_key_value(&id))
                .or_else(|| queries.iter().find(|(_, h)| h.name == wanted));
            let Some((id, handle)) = found else {
                return Some((
                    "404 Not Found",
                    "text/plain",
                    format!("no query {wanted:?}\n").into_bytes(),
                ));
            };
            let view = handle.reader.view();
            let e = view.estimate();
            let answer = handle.query.answer_from(&e);
            let body = format!(
                "{{\"id\":{id},\"name\":{},\"epoch\":{},\"tuples\":{},\
                 \"answer\":{answer},\"answer_bits\":{},\
                 \"f0_sup\":{},\"non_implication_count\":{},\"implication_count\":{}}}\n",
                flight::json_string(&handle.name),
                view.epoch(),
                view.tuples(),
                answer.to_bits(),
                e.f0_sup,
                e.non_implication_count,
                e.implication_count,
            );
            Some(("200 OK", "application/json", body.into_bytes()))
        }
        ("GET", "/queries") => {
            let queries = lock(&cat.queries);
            let mut rows: Vec<(u64, String)> = queries
                .iter()
                .map(|(id, h)| {
                    (
                        *id,
                        format!(
                            "{{\"id\":{id},\"name\":{},\"tuples\":{}}}",
                            flight::json_string(&h.name),
                            h.reader.view().tuples(),
                        ),
                    )
                })
                .collect();
            rows.sort_by_key(|(id, _)| *id);
            let body = format!(
                "{{\"queries\":[{}]}}\n",
                rows.iter()
                    .map(|(_, json)| json.as_str())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            Some(("200 OK", "application/json", body.into_bytes()))
        }
        ("POST", "/query") => {
            let line = String::from_utf8_lossy(body_in);
            let line = line.trim();
            if line.is_empty() {
                return Some((
                    "400 Bad Request",
                    "text/plain",
                    b"empty body: expected one query spec line\n".to_vec(),
                ));
            }
            let (reply_tx, reply_rx) = sync_channel(1);
            let msg = CatalogCtrl::Register {
                line: line.to_string(),
                reply: reply_tx,
            };
            if cat.ctrl.send(msg).is_err() {
                return Some((
                    "503 Service Unavailable",
                    "text/plain",
                    b"catalog writer is gone\n".to_vec(),
                ));
            }
            match reply_rx.recv_timeout(Duration::from_secs(5)) {
                Ok(Ok(id)) => {
                    let name = lock(&cat.queries)
                        .get(&id)
                        .map(|h| h.name.clone())
                        .unwrap_or_default();
                    let body = format!("{{\"id\":{id},\"name\":{}}}\n", flight::json_string(&name));
                    ("200 OK", "application/json", body.into_bytes())
                }
                Ok(Err(e)) => (
                    "400 Bad Request",
                    "text/plain",
                    format!("{e}\n").into_bytes(),
                ),
                Err(_) => (
                    "503 Service Unavailable",
                    "text/plain",
                    b"catalog writer timed out\n".to_vec(),
                ),
            }
            .into()
        }
        ("DELETE", _) if route.starts_with("/query/") => {
            let Ok(id) = route["/query/".len()..].parse::<u64>() else {
                return Some((
                    "400 Bad Request",
                    "text/plain",
                    b"DELETE /query/{numeric-id}\n".to_vec(),
                ));
            };
            let (reply_tx, reply_rx) = sync_channel(1);
            let msg = CatalogCtrl::Retire {
                id,
                reply: reply_tx,
            };
            if cat.ctrl.send(msg).is_err() {
                return Some((
                    "503 Service Unavailable",
                    "text/plain",
                    b"catalog writer is gone\n".to_vec(),
                ));
            }
            match reply_rx.recv_timeout(Duration::from_secs(5)) {
                Ok(true) => (
                    "200 OK",
                    "text/plain",
                    format!("retired {id}\n").into_bytes(),
                ),
                Ok(false) => (
                    "404 Not Found",
                    "text/plain",
                    format!("no query {id}\n").into_bytes(),
                ),
                Err(_) => (
                    "503 Service Unavailable",
                    "text/plain",
                    b"catalog writer timed out\n".to_vec(),
                ),
            }
            .into()
        }
        ("GET", "/metrics") => {
            let mut body = lock(&cat.exposition).clone();
            shared.ingest_prometheus_into(&mut body);
            Some(("200 OK", "text/plain; version=0.0.4", body.into_bytes()))
        }
        ("GET", "/status") => {
            let queries = lock(&cat.queries).len();
            let body = format!(
                "{{\"role\":\"catalog\",\"queries\":{queries},\
                 \"accepted\":{},\"skipped\":{},\"skipped_oversize\":{},\"uptime_ms\":{}}}\n",
                shared.accepted.load(Ordering::Relaxed),
                shared.skipped.load(Ordering::Relaxed),
                shared.skipped_oversize.load(Ordering::Relaxed),
                shared.now_ms(),
            );
            Some(("200 OK", "application/json", body.into_bytes()))
        }
        ("GET", "/snapshot") => Some((
            "404 Not Found",
            "text/plain",
            b"no snapshots in catalog mode (state is per-query)\n".to_vec(),
        )),
        _ => None,
    }
}

/// Answers one query request: catalog routes first (in catalog mode),
/// then the routes every role serves.
fn route(
    req: &Request,
    shared: &Shared,
    reader: &EstimateReader,
    catalog: Option<&CatalogShared>,
) -> Response {
    let (method, route) = (req.method.as_str(), req.route.as_str());
    if let Some((status, content_type, body)) =
        catalog.and_then(|cat| catalog_route(method, route, &req.query, &req.body, cat, shared))
    {
        return Response::new(status, content_type, body);
    }
    let (status, content_type, body): (&str, &str, Vec<u8>) = match (method, route) {
        ("GET", "/estimate") => {
            let view = reader.view();
            let e = view.estimate();
            let body = format!(
                "{{\"epoch\":{},\"tuples\":{},\"accepted\":{},\"skipped\":{},\
             \"f0_sup\":{},\"non_implication_count\":{},\"implication_count\":{},\
             \"f0_sup_bits\":{},\"non_implication_count_bits\":{},\
             \"implication_count_bits\":{}}}\n",
                view.epoch(),
                view.tuples(),
                shared.accepted.load(Ordering::Relaxed),
                shared.skipped.load(Ordering::Relaxed),
                e.f0_sup,
                e.non_implication_count,
                e.implication_count,
                e.f0_sup.to_bits(),
                e.non_implication_count.to_bits(),
                e.implication_count.to_bits(),
            );
            ("200 OK", "application/json", body.into_bytes())
        }
        ("GET", "/metrics") => {
            let mut body = shared.metrics.prometheus("implicate");
            let now = shared.now_ms();
            if let Some(fleet) = &shared.fleet {
                fleet.prometheus_into("implicate", now, &mut body);
            }
            if let Some(edge) = &shared.edge {
                edge.prometheus_into("implicate", now, &mut body);
            }
            shared.ingest_prometheus_into(&mut body);
            ("200 OK", "text/plain; version=0.0.4", body.into_bytes())
        }
        ("GET", "/status") => {
            let view = reader.view();
            let now = shared.now_ms();
            let mut body = format!(
                "{{\"role\":\"{}\",\"epoch\":{},\"tuples\":{},\
             \"accepted\":{},\"skipped\":{},\"skipped_oversize\":{},\"uptime_ms\":{now}",
                shared.role,
                view.epoch(),
                view.tuples(),
                shared.accepted.load(Ordering::Relaxed),
                shared.skipped.load(Ordering::Relaxed),
                shared.skipped_oversize.load(Ordering::Relaxed),
            );
            if let Some(fleet) = &shared.fleet {
                body.push_str(",\"fleet\":");
                body.push_str(&fleet.status_json(now));
            }
            if let Some(edge) = &shared.edge {
                body.push_str(",\"edge\":");
                body.push_str(&edge.status_json(now));
            }
            body.push_str("}\n");
            ("200 OK", "application/json", body.into_bytes())
        }
        ("GET", "/snapshot") => match lock(&shared.snapshot).clone() {
            Some(data) => ("200 OK", "application/octet-stream", data.to_vec()),
            None => (
                "404 Not Found",
                "text/plain",
                b"no checkpoint published yet\n".to_vec(),
            ),
        },
        ("GET", "/healthz") => ("200 OK", "text/plain", b"ok\n".to_vec()),
        ("POST", "/shutdown") => {
            shared.stop.store(true, Ordering::Release);
            ("200 OK", "text/plain", b"shutting down\n".to_vec())
        }
        (_, "/shutdown") => {
            return Response::text("405 Method Not Allowed", "shutdown needs POST\n")
                .with_header("Allow: POST");
        }
        _ => (
            "404 Not Found",
            "text/plain",
            b"routes: /estimate /status /metrics /snapshot /healthz /shutdown\n".to_vec(),
        ),
    };
    Response::new(status, content_type, body)
}
