//! The writer thread of each role: the single owner of estimator (or
//! catalog) mutation. [`run`] owns the poll loop, the stop flag and the
//! drain after stop; each role — [`Plain`] (standalone and edge),
//! [`Catalog`] and [`Aggregate`] — supplies only its per-message work,
//! its catch-up and idle work and its final state.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use implicate::core::wire::{peek_frame, WireDecoder, WireSnapshot};
use implicate::pipeline::{self, Pipeline};
use implicate::spec::QuerySpec;
use implicate::{
    EstimatorConfig, HashedBatch, ImplicationEstimator, QueryCatalog, QueryId, TupleHasher,
};

use crate::edge::ShipSlot;
use crate::routes::{CatalogCtrl, CatalogQueryHandle, CatalogShared};
use crate::{die, flight, lock, Opts, Shared, POLL};

/// One role's work on the writer thread; [`run`] drives it.
pub trait Role {
    /// What the ingest connections hand this writer.
    type Msg;

    /// Applies one message, in the live loop and in the drain after stop
    /// alike.
    fn apply(&mut self, msg: Self::Msg, shared: &Shared);

    /// Runs once the live loop has applied every queued message: the
    /// writer has caught up with its ingest connections.
    fn caught_up(&mut self, _shared: &Shared) {}

    /// Runs after each [`POLL`] interval without a message while the
    /// service is not stopping.
    fn idle(&mut self, _shared: &Shared) {}

    /// Publishes and stores the final state. Returns (rows or frames
    /// this session, final tuple count), or `None` when the final
    /// checkpoint could not be written.
    fn finish(self, shared: &Shared) -> Option<(u64, u64)>;
}

/// The writer loop of every role: applies messages as they arrive, runs
/// the catch-up work each time the queue is empty again, the idle work
/// after each quiet [`POLL`], and once the stop flag is up applies
/// whatever is still queued before [`Role::finish`].
pub fn run<R: Role>(mut role: R, rx: &Receiver<R::Msg>, shared: &Shared) -> Option<(u64, u64)> {
    loop {
        match rx.recv_timeout(POLL) {
            Ok(msg) => {
                role.apply(msg, shared);
                while let Ok(msg) = rx.try_recv() {
                    role.apply(msg, shared);
                }
                role.caught_up(shared);
            }
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
/// there as the checkpoint ([`pipeline::write_checkpoint`]). Returns
/// whether the checkpoint was written; a failed write is logged.
fn store_snapshot(shared: &Shared, data: bytes::Bytes, checkpoint: Option<&str>) -> bool {
    let written = checkpoint.map_or(Ok(()), |path| {
        pipeline::write_checkpoint(path, &data)
            .map_err(|e| eprintln!("implicate-serve: checkpoint {path}: {e}"))
    });
    *lock(&shared.snapshot) = Some(data);
    written.is_ok()
}

/// Publishes `est`'s final state and stores its snapshot and checkpoint;
/// returns whether the checkpoint was written.
fn store_final(shared: &Shared, est: &mut ImplicationEstimator, checkpoint: Option<&str>) -> bool {
    est.publish();
    let written = store_snapshot(shared, est.to_bytes(), checkpoint);
    if let Some(path) = checkpoint.filter(|_| written) {
        let tuples = est.tuples_seen();
        eprintln!("implicate-serve: checkpointed {tuples} tuples to {path}");
    }
    written
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

    fn finish(self, shared: &Shared) -> Option<(u64, u64)> {
        let mut est = self.pipeline.finish();
        let written = store_final(shared, &mut est, self.checkpoint.as_deref());
        // The final state always ships (an unchanged-state delta is a few
        // bytes), so a graceful edge shutdown never strands its tail.
        if let Some(ship) = self.ship {
            ship.slot.close(WireSnapshot::capture(&est, ship.epoch + 1));
        }
        written.then(|| (self.rows, est.tuples_seen()))
    }
}

/// The catalog role's writer: single owner of the [`QueryCatalog`].
/// Hashes each incoming flat row batch (`arity` words per row)
/// attribute-wise exactly once into a reused [`HashedBatch`], applies it
/// to every registered query, and services register/retire control
/// messages between batches.
///
/// Every query's view is republished whenever the writer catches up
/// with its ingest queue and rows arrived since the last publication, so
/// an answer is as old as the last batch; a writer that never catches up
/// still publishes every `--publish-every` rows. The metrics exposition
/// is re-rendered on that cadence, on register/retire and when idle, but
/// never on a catch-up publication.
pub struct Catalog {
    catalog: QueryCatalog,
    hasher: TupleHasher,
    hashed: HashedBatch,
    ctrl_rx: Receiver<CatalogCtrl>,
    cat: Arc<CatalogShared>,
    publish_every: u64,
    rows: u64,
    /// Rows applied since the views were last published.
    unpublished: u64,
    /// Rows applied since the exposition was last re-rendered.
    since_refresh: u64,
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
            unpublished: 0,
            since_refresh: 0,
        }
    }

    /// Registers one parsed spec and makes it answerable to the query
    /// connections; returns its raw id.
    pub fn register(&mut self, spec: QuerySpec) -> Result<u64, String> {
        let id = self
            .catalog
            .try_register(spec.name.clone(), spec.query.clone())
            .map_err(|e| e.to_string())?;
        let Some(reader) = self.catalog.reader(id) else {
            die(&format!(
                "query {} has no reader right after registering",
                id.raw()
            ));
        };
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

    /// Publishes every query's view.
    fn publish(&mut self) {
        self.unpublished = 0;
        self.catalog.publish();
    }

    /// Re-renders the metrics exposition the query connections serve.
    pub fn refresh(&mut self) {
        self.since_refresh = 0;
        let mut text = String::new();
        self.catalog.prometheus_into("implicate", &mut text);
        *lock(&self.cat.exposition) = text;
    }
}

impl Role for Catalog {
    type Msg = Vec<u64>;

    fn apply(&mut self, batch: Vec<u64>, _shared: &Shared) {
        self.control();
        let rows = batch.chunks_exact(self.hasher.arity());
        self.hasher.hash_batch(rows, &mut self.hashed);
        self.catalog.process_hashed(&self.hashed);
        let n = self.hashed.len() as u64;
        self.rows += n;
        self.unpublished += n;
        self.since_refresh += n;
        if self.since_refresh >= self.publish_every {
            self.publish();
            self.refresh();
        }
    }

    fn caught_up(&mut self, _shared: &Shared) {
        if self.unpublished > 0 {
            self.publish();
        }
    }

    fn idle(&mut self, _shared: &Shared) {
        self.control();
        if self.unpublished > 0 {
            self.publish();
        }
        if self.since_refresh > 0 {
            self.refresh();
        }
    }

    fn finish(mut self, _shared: &Shared) -> Option<(u64, u64)> {
        self.publish();
        self.refresh();
        Some((self.rows, self.catalog.tuples_seen()))
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

    fn finish(mut self, shared: &Shared) -> Option<(u64, u64)> {
        store_final(shared, &mut self.serving, self.checkpoint.as_deref())
            .then(|| (self.frames, self.serving.tuples_seen()))
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc::{channel, Sender};
    use std::sync::Mutex;

    use implicate::TraceHandle;

    use super::*;

    fn shared() -> Shared {
        Shared {
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
            skipped_oversize: AtomicU64::new(0),
            ingest_refused: AtomicU64::new(0),
            snapshot: Mutex::new(None),
            trace: TraceHandle::disabled(),
            fleet: None,
            edge: None,
            flight: None,
            started: Instant::now(),
            role: "test",
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Apply(u32),
        CaughtUp,
        Idle,
    }

    /// Records every call [`run`] makes into `calls`. Its first catch-up
    /// queues `burst`, as an ingest connection would; its idle work
    /// raises the stop flag.
    struct Recorder {
        calls: Rc<RefCell<Vec<Call>>>,
        burst: Option<(Sender<u32>, Vec<u32>)>,
    }

    impl Role for Recorder {
        type Msg = u32;

        fn apply(&mut self, msg: u32, _shared: &Shared) {
            self.calls.borrow_mut().push(Call::Apply(msg));
        }

        fn caught_up(&mut self, _shared: &Shared) {
            self.calls.borrow_mut().push(Call::CaughtUp);
            if let Some((tx, burst)) = self.burst.take() {
                for msg in burst {
                    tx.send(msg).unwrap();
                }
            }
        }

        fn idle(&mut self, shared: &Shared) {
            self.calls.borrow_mut().push(Call::Idle);
            shared.stop.store(true, Ordering::Release);
        }

        fn finish(self, _shared: &Shared) -> Option<(u64, u64)> {
            Some((0, 0))
        }
    }

    /// Runs a [`Recorder`] over `queued` (sent before the call) and
    /// `burst` (sent at its first catch-up), then returns its calls. The
    /// loop ends once every sender is gone, or at its first idle pass if
    /// `keep_open` holds a sender past that.
    fn recorded(queued: &[u32], burst: &[u32], keep_open: bool) -> Vec<Call> {
        let (tx, rx) = channel();
        for &msg in queued {
            tx.send(msg).unwrap();
        }
        let calls = Rc::new(RefCell::new(Vec::new()));
        let role = Recorder {
            calls: Rc::clone(&calls),
            burst: Some((tx.clone(), burst.to_vec())),
        };
        let held = keep_open.then_some(tx);
        run(role, &rx, &shared()).expect("the recorder finishes");
        drop(held);
        calls.take()
    }

    fn applies(msgs: std::ops::Range<u32>) -> Vec<Call> {
        msgs.map(Call::Apply).collect()
    }

    #[test]
    fn a_queued_backlog_is_applied_then_caught_up_once() {
        let mut want = applies(0..5);
        want.push(Call::CaughtUp);
        assert_eq!(recorded(&[0, 1, 2, 3, 4], &[], false), want);
    }

    #[test]
    fn a_later_burst_catches_up_once_more() {
        let mut want = applies(0..3);
        want.push(Call::CaughtUp);
        want.extend(applies(3..7));
        want.push(Call::CaughtUp);
        assert_eq!(recorded(&[0, 1, 2], &[3, 4, 5, 6], false), want);
    }

    #[test]
    fn no_catch_up_runs_without_an_apply_before_it() {
        // A quiet queue runs the idle work (which stops this loop), never
        // the catch-up work.
        assert_eq!(recorded(&[], &[], true), vec![Call::Idle]);
        let calls = recorded(&[0, 1], &[2], true);
        for (i, call) in calls.iter().enumerate() {
            if *call == Call::CaughtUp {
                assert!(matches!(calls[i - 1], Call::Apply(_)), "{calls:?}");
            }
        }
        let mut want = applies(0..2);
        want.push(Call::CaughtUp);
        want.push(Call::Apply(2));
        want.extend([Call::CaughtUp, Call::Idle]);
        assert_eq!(calls, want);
    }
}
