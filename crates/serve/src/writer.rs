//! The writer thread of each role: the single owner of estimator (or
//! catalog) mutation. [`run`] owns the poll loop, the stop flag and the
//! drain after stop; each role — [`Plain`] (standalone and edge),
//! [`Catalog`] and [`Aggregate`] — supplies only its per-message work,
//! its idle work and its final state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use implicate::core::wire::{peek_frame, WireDecoder, WireSnapshot};
use implicate::spec::QuerySpec;
use implicate::{
    EstimatorConfig, HashedBatch, ImplicationEstimator, QueryCatalog, QueryId, ShardedEstimator,
    Tuple, TupleHasher,
};

use crate::edge::ShipSlot;
use crate::routes::{CatalogCtrl, CatalogQueryHandle, CatalogShared};
use crate::{flight, lock, Opts, Shared, POLL};

/// One role's work on the writer thread; [`run`] drives it.
pub trait Role {
    /// What the ingest connections hand this writer.
    type Msg;

    /// Applies one message, in the live loop and in the drain after stop
    /// alike.
    fn apply(&mut self, msg: Self::Msg, shared: &Shared);

    /// Runs after each [`POLL`] interval without a message while the
    /// service is not stopping.
    fn idle(&mut self, _shared: &Shared) {}

    /// Publishes and stores the final state. Returns (rows or frames
    /// this session, final tuple count).
    fn finish(self, shared: &Shared) -> (u64, u64);
}

/// The writer loop of every role: applies messages as they arrive, runs
/// the idle work after each quiet [`POLL`], and once the stop flag is up
/// applies whatever is still queued before [`Role::finish`].
pub fn run<R: Role>(mut role: R, rx: &Receiver<R::Msg>, shared: &Shared) -> (u64, u64) {
    loop {
        match rx.recv_timeout(POLL) {
            Ok(msg) => role.apply(msg, shared),
            Err(RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                role.idle(shared);
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    while let Ok(msg) = rx.try_recv() {
        role.apply(msg, shared);
    }
    role.finish(shared)
}

/// Serves `data` on `GET /snapshot` and, given a path, also writes it
/// there as the checkpoint (write temp + rename, so the file is always a
/// whole snapshot).
pub fn store_snapshot(shared: &Shared, data: bytes::Bytes, checkpoint: Option<&str>) {
    if let Some(path) = checkpoint {
        let tmp = format!("{path}.tmp");
        let result = std::fs::write(&tmp, &data).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = result {
            eprintln!("implicate-serve: checkpoint {path}: {e}");
        }
    }
    *lock(&shared.snapshot) = Some(data);
}

/// Publishes `est`'s final state and stores its snapshot and checkpoint.
fn store_final(shared: &Shared, est: &mut ImplicationEstimator, checkpoint: Option<&str>) {
    est.publish();
    store_snapshot(shared, est.to_bytes(), checkpoint);
    if let Some(path) = checkpoint {
        eprintln!(
            "implicate-serve: checkpointed {} tuples to {path}",
            est.tuples_seen()
        );
    }
}

/// The sequential estimator or the sharded pipeline.
// One Pipeline exists per process, so the size spread between variants
// is irrelevant — boxing would only add a pointer chase per batch.
#[allow(clippy::large_enum_variant)]
pub enum Pipeline {
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

    /// The owned estimator when sequential (checkpoints and edge
    /// captures encode it; the sharded pipeline cannot without
    /// quiescing).
    fn sequential(&self) -> Option<&ImplicationEstimator> {
        match self {
            Pipeline::Sequential(est) => Some(est),
            Pipeline::Sharded(_) => None,
        }
    }

    /// Drains and reassembles (if sharded) the pipeline into the owning
    /// estimator.
    fn into_final(self) -> ImplicationEstimator {
        match self {
            Pipeline::Sequential(est) => est,
            // finish() barriers, merges, and republishes the merged state
            // on the inherited channel.
            Pipeline::Sharded(sharded) => sharded.finish(),
        }
    }
}

/// The edge role's side of the ship cadence.
struct Ship {
    slot: Arc<ShipSlot>,
    every: u64,
    keepalive_ms: u64,
    since: u64,
    epoch: u64,
    last_capture: Instant,
}

impl Ship {
    /// Captures the estimator's state into the ship slot under the next
    /// wire epoch.
    fn capture(&mut self, est: Option<&ImplicationEstimator>) {
        self.since = 0;
        if let Some(est) = est {
            self.epoch += 1;
            self.slot.store(WireSnapshot::capture(est, self.epoch));
        }
        self.last_capture = Instant::now();
    }
}

/// The standalone and edge roles' writer: applies row batches to the
/// pipeline and publishes views, checkpoints and (edge) ships captures
/// on their cadences.
pub struct Plain {
    pipeline: Pipeline,
    publish_every: u64,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    ship: Option<Ship>,
    rows: u64,
    since_publish: u64,
    since_checkpoint: u64,
    /// Whether the last published view reflects *every* routed row. A
    /// mid-stream publish races the lanes by design (that is what makes
    /// it wait-free), so after going idle the writer republishes until a
    /// view assembled at backlog 0 is out — otherwise readers could be
    /// pinned forever on an estimate missing the stream's tail.
    published_settled: bool,
}

impl Plain {
    /// A writer over `pipeline`; `slot` is the edge role's ship slot.
    pub fn new(pipeline: Pipeline, opts: &Opts, slot: Option<Arc<ShipSlot>>) -> Self {
        Self {
            pipeline,
            publish_every: opts.publish_every,
            checkpoint: opts.checkpoint.clone(),
            checkpoint_every: opts.checkpoint_every,
            ship: slot.map(|slot| Ship {
                slot,
                every: opts.ship_every,
                keepalive_ms: opts.keepalive_ms,
                since: 0,
                epoch: 0,
                last_capture: Instant::now(),
            }),
            rows: 0,
            since_publish: 0,
            since_checkpoint: 0,
            published_settled: true,
        }
    }
}

impl Role for Plain {
    type Msg = Vec<(u64, u64)>;

    fn apply(&mut self, batch: Vec<(u64, u64)>, shared: &Shared) {
        let n = batch.len() as u64;
        self.pipeline.apply(&batch);
        self.rows += n;
        self.since_publish += n;
        self.since_checkpoint += n;
        if let Some(ship) = &mut self.ship {
            ship.since += n;
            if ship.since >= ship.every {
                ship.capture(self.pipeline.sequential());
            }
            if let Some(edge) = &shared.edge {
                edge.set_unshipped(ship.since);
            }
        }
        if self.since_publish >= self.publish_every {
            self.since_publish = 0;
            self.pipeline.publish();
            if self
                .checkpoint_every
                .is_some_and(|n| self.since_checkpoint >= n)
            {
                self.since_checkpoint = 0;
                if let Some(est) = self.pipeline.sequential() {
                    store_snapshot(shared, est.to_bytes(), self.checkpoint.as_deref());
                }
            }
            self.published_settled = self.pipeline.backlog() == 0;
        }
    }

    fn idle(&mut self, shared: &Shared) {
        // Ship any partial per-shard buffers to the lanes (full batches
        // ship eagerly; partials otherwise wait for more rows), then
        // publish until a settled view — one assembled with nothing left
        // in flight — is out.
        if self.pipeline.backlog() > 0 {
            self.pipeline.flush();
        }
        let settled = self.pipeline.backlog() == 0;
        if self.since_publish > 0 || !settled || !self.published_settled {
            self.since_publish = 0;
            self.pipeline.publish();
            self.published_settled = settled;
        }
        // Idle edges ship the stream's tail: rows that arrived since the
        // last capture must not wait for a full cadence interval that
        // may never fill. Fully-idle edges still ship on the keep-alive
        // cadence — the resulting unchanged-state delta is ~20 bytes, and
        // it keeps the node `live` on the aggregator's registry instead
        // of decaying to `stale` for mere quietness.
        if let Some(ship) = &mut self.ship {
            let keepalive_due = ship.keepalive_ms > 0
                && ship.last_capture.elapsed() >= Duration::from_millis(ship.keepalive_ms);
            if ship.since > 0 || keepalive_due {
                ship.capture(self.pipeline.sequential());
            }
            if let Some(edge) = &shared.edge {
                edge.set_unshipped(ship.since);
            }
        }
    }

    fn finish(self, shared: &Shared) -> (u64, u64) {
        let mut est = self.pipeline.into_final();
        store_final(shared, &mut est, self.checkpoint.as_deref());
        // The final state always ships (an unchanged-state delta is a few
        // bytes), so a graceful edge shutdown never strands its tail.
        if let Some(ship) = self.ship {
            ship.slot.close(WireSnapshot::capture(&est, ship.epoch + 1));
        }
        (self.rows, est.tuples_seen())
    }
}

/// The catalog role's writer: single owner of the [`QueryCatalog`].
/// Hashes each incoming row batch attribute-wise exactly once into a
/// reused [`HashedBatch`], applies it to every registered query,
/// services register/retire control messages between batches, and
/// republishes every query's view (plus the metrics exposition) on the
/// publish cadence.
pub struct Catalog {
    catalog: QueryCatalog,
    hasher: TupleHasher,
    hashed: HashedBatch,
    ctrl_rx: Receiver<CatalogCtrl>,
    cat: Arc<CatalogShared>,
    publish_every: u64,
    rows: u64,
    since_publish: u64,
}

impl Catalog {
    /// A writer over `catalog`, taking register/retire requests from
    /// `ctrl_rx` and keeping `cat` current for the query connections.
    pub fn new(
        catalog: QueryCatalog,
        ctrl_rx: Receiver<CatalogCtrl>,
        cat: Arc<CatalogShared>,
        opts: &Opts,
    ) -> Self {
        Self {
            hasher: catalog.hasher().clone(),
            catalog,
            hashed: HashedBatch::new(),
            ctrl_rx,
            cat,
            publish_every: opts.publish_every,
            rows: 0,
            since_publish: 0,
        }
    }

    /// Registers one parsed spec and makes it answerable to the query
    /// connections; returns its raw id.
    pub fn register(&mut self, spec: QuerySpec) -> Result<u64, String> {
        let arity = self.catalog.schema().arity();
        if spec.max_column() >= arity {
            return Err(format!(
                "column {} out of range (--arity {arity})",
                spec.max_column()
            ));
        }
        let id = self
            .catalog
            .try_register(spec.name.clone(), spec.query.clone())
            .map_err(|e| e.to_string())?;
        let reader = self.catalog.reader(id).expect("just registered");
        lock(&self.cat.queries).insert(
            id.raw(),
            CatalogQueryHandle {
                name: spec.name,
                query: spec.query,
                reader,
            },
        );
        Ok(id.raw())
    }

    /// Serves the queued control messages. Called before each batch and
    /// each idle pass, so a registration never waits behind a long run
    /// of queued row batches.
    fn control(&mut self) {
        while let Ok(msg) = self.ctrl_rx.try_recv() {
            match msg {
                CatalogCtrl::Register { line, reply } => {
                    let result = implicate::spec::parse_query_line(&line)
                        .and_then(|spec| self.register(spec));
                    self.refresh();
                    let _ = reply.send(result);
                }
                CatalogCtrl::Retire { id, reply } => {
                    let live = self.catalog.retire(QueryId::from_raw(id));
                    if live {
                        lock(&self.cat.queries).remove(&id);
                        self.refresh();
                    }
                    let _ = reply.send(live);
                }
            }
        }
    }

    fn publish(&mut self) {
        self.since_publish = 0;
        self.catalog.publish();
        self.refresh();
    }

    /// Re-renders the metrics exposition the query connections serve.
    pub fn refresh(&self) {
        let mut text = String::new();
        self.catalog.prometheus_into("implicate", &mut text);
        *lock(&self.cat.exposition) = text;
    }
}

impl Role for Catalog {
    type Msg = Vec<Tuple>;

    fn apply(&mut self, batch: Vec<Tuple>, _shared: &Shared) {
        self.control();
        let n = batch.len() as u64;
        self.hasher.hash_batch(batch, &mut self.hashed);
        self.catalog.process_hashed(&self.hashed);
        self.rows += n;
        self.since_publish += n;
        if self.since_publish >= self.publish_every {
            self.publish();
        }
    }

    fn idle(&mut self, _shared: &Shared) {
        self.control();
        if self.since_publish > 0 {
            self.publish();
        }
    }

    fn finish(mut self, _shared: &Shared) -> (u64, u64) {
        self.publish();
        (self.rows, self.catalog.tuples_seen())
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
pub struct Aggregate {
    serving: ImplicationEstimator,
    template: EstimatorConfig,
    decoders: HashMap<u64, WireDecoder>,
    frames: u64,
    checkpoint: Option<String>,
    checkpoint_every: Option<u64>,
    tuples_at_checkpoint: u64,
}

impl Aggregate {
    /// An aggregator serving `serving` (fresh or restored).
    pub fn new(serving: ImplicationEstimator, opts: &Opts) -> Self {
        Self {
            tuples_at_checkpoint: serving.tuples_seen(),
            serving,
            template: opts.config,
            decoders: HashMap::new(),
            frames: 0,
            checkpoint: opts.checkpoint.clone(),
            checkpoint_every: opts.checkpoint_every,
        }
    }
}

impl Role for Aggregate {
    type Msg = (bytes::Bytes, Arc<AtomicBool>);

    fn apply(&mut self, (frame, kill): Self::Msg, shared: &Shared) {
        // node_id is authenticated by nothing but the header — this is a
        // trusted-network protocol, as WIRE.md states (the ingest
        // connection pins it so it cannot *switch*).
        let Ok(Some(peeked)) = peek_frame(&frame) else {
            kill.store(true, Ordering::Release);
            return;
        };
        let node = peeked.node_id;
        let frame_bytes = frame.len() as u64;
        let serving = &self.serving;
        let decoder = self.decoders.entry(node).or_insert_with(|| {
            WireDecoder::new()
                .require_matching(serving)
                .with_metrics(serving.metrics().clone())
                .with_trace(serving.trace().clone())
        });
        let header = match decoder.apply(frame) {
            Ok(header) => header,
            Err(e) => {
                eprintln!("implicate-serve: frame from node {node}: {e}");
                // Record first, so the recording is on disk by the time
                // `/status` reports the node poisoned.
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
                return;
            }
        };
        self.frames += 1;
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
        let merge_started = Instant::now();
        let mut merged = self.template.build();
        for dec in self.decoders.values() {
            if let Some(replica) = dec.estimator() {
                merged.merge(replica);
            }
        }
        self.serving.adopt_state(merged);
        if let Some(fleet) = &shared.fleet {
            fleet.observe_merge_nanos(merge_started.elapsed().as_nanos() as u64);
        }
        let publish_started = Instant::now();
        self.serving.publish();
        let data = self.serving.to_bytes();
        if let Some(fleet) = &shared.fleet {
            fleet.observe_publish_nanos(publish_started.elapsed().as_nanos() as u64);
        }
        let tuples = self.serving.tuples_seen();
        let due = self
            .checkpoint_every
            .is_some_and(|n| tuples.saturating_sub(self.tuples_at_checkpoint) >= n);
        if due {
            self.tuples_at_checkpoint = tuples;
        }
        store_snapshot(shared, data, self.checkpoint.as_deref().filter(|_| due));
    }

    fn finish(mut self, shared: &Shared) -> (u64, u64) {
        store_final(shared, &mut self.serving, self.checkpoint.as_deref());
        (self.frames, self.serving.tuples_seen())
    }
}
