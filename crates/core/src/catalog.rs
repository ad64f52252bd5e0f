//! Multi-query catalog engine: one stream pass, N implications, one
//! shared budget.
//!
//! Production users do not ask one `(A → B)` question — they ask a
//! *catalog* of Table 2 implication classes over the same stream. Running
//! Q independent [`QueryEngine`](crate::query::QueryEngine)s costs Q
//! projections + Q itemset hashes per tuple, and — worse at scale —
//! touches Q estimators' arenas per tuple, evicting each other's working
//! set from cache. The [`QueryCatalog`] removes both costs:
//!
//! * **Shared hashing.** Each tuple is hashed *attribute-wise exactly
//!   once* ([`TupleHasher`]); every registered query derives its
//!   `(lhs, rhs)` itemset hashes from the shared per-attribute hashes by
//!   XOR + one mix ([`QueryCombiner`]). Marginal hash cost per query is a
//!   few ALU ops, not a projection and a re-hash.
//! * **Query-major batching.** [`process_batch`](QueryCatalog::process_batch)
//!   hashes a whole batch into columnar per-attribute rows, then drives
//!   each query's estimator over the *entire batch* before moving to the
//!   next query — one estimator's arenas stay cache-hot across the batch
//!   instead of being thrashed per tuple.
//! * **One budget.** All per-query estimators draw from a single global
//!   [`MemoryBudget`]. Registration preflights the construction floor
//!   against the remaining headroom; retiring a query drops its
//!   estimator, whose arenas release their bytes back to the shared
//!   account (`tracked_bytes` returns to its pre-register level).
//!
//! Per-query estimates are **bit-identical** to a standalone
//! `QueryEngine` run with the same seed: both paths feed the same
//! combined hashes, in the same stream order, into identically built
//! estimators. The catalog is pure refactoring of *where* hashing
//! happens, not a different estimator.
//!
//! Observability: every entry owns its own metrics registry, so shed
//! events and budget pressure attribute per query;
//! [`prometheus_into`](QueryCatalog::prometheus_into) renders the
//! `implicate_query_*{query="…"}` labeled series, and registration /
//! retirement emit [`TraceEvent::QueryRegistered`] /
//! [`TraceEvent::QueryRetired`].

use std::fmt;
use std::sync::Arc;

use imp_stream::hashplan::{HashedBatch, QueryCombiner, TupleHasher};
use imp_stream::schema::Schema;
use imp_stream::tuple::Tuple;

use crate::budget::MemoryBudget;
use crate::estimator::{Estimate, EstimatorConfig, ImplicationEstimator};
use crate::lane::{LaneWorker, Lanes, RING_DEPTH};
use crate::query::ImplicationQuery;
use crate::trace::{TraceEvent, TraceHandle};
use crate::view::EstimateReader;

/// Opaque handle to one registered query; ids are never reused within a
/// catalog, so a retired id stays dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(u64);

impl QueryId {
    /// The raw id (stable across the catalog's lifetime, also used as
    /// the `query` field of lifecycle trace events).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstructs an id from its raw value (e.g. parsed back out of an
    /// HTTP path). Looking up an id that was never issued is harmless —
    /// accessors return `None`.
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Why a registration was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// The shared budget's remaining headroom is below the construction
    /// floor of one estimator (`needed` bytes, `headroom` available).
    BudgetExhausted {
        /// Bytes a fresh estimator's initial arenas reserve.
        needed: usize,
        /// Bytes left under the global limit.
        headroom: usize,
    },
    /// A live query already uses this name (names key the labeled
    /// metrics and the HTTP lookup, so they must be unique).
    DuplicateName(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::BudgetExhausted { needed, headroom } => write!(
                f,
                "global memory budget exhausted: a new query needs {needed} bytes, \
                 {headroom} available"
            ),
            CatalogError::DuplicateName(name) => {
                write!(f, "a live query is already named {name:?}")
            }
        }
    }
}

impl std::error::Error for CatalogError {}

/// One live registered query.
struct CatalogEntry {
    id: QueryId,
    name: String,
    query: ImplicationQuery,
    combiner: QueryCombiner,
    est: ImplicationEstimator,
    /// Tuples that passed this query's filter (== its estimator's tuple
    /// counter; kept separately so the invariant is checkable).
    matched: u64,
}

impl CatalogEntry {
    /// Feeds this query one batch, whose row `i` is `tuples[i]` with
    /// per-attribute hash rows `rows(i)`. The lane is built in one pass:
    /// apply the filter, combine `h_a`, drop the row if the estimator's
    /// Zone-1 mirror already has its cell at 1, and combine `b_fp` only
    /// for the rows that survive. Dropped rows still count as matched
    /// and as tuples, exactly as if each had been updated.
    fn feed<'a>(
        &mut self,
        tuples: &[Tuple],
        rows: impl Fn(usize) -> (&'a [u64], &'a [u64]),
        lane: &mut Vec<(u64, u64)>,
    ) {
        let filtered = !self.query.filter.is_empty();
        let (lhs, rhs) = (self.combiner.lhs(), self.combiner.rhs());
        let zone1 = self.est.zone1();
        lane.clear();
        let mut matched = 0u64;
        for (i, t) in tuples.iter().enumerate() {
            if filtered && !self.query.filter.matches(t) {
                continue;
            }
            matched += 1;
            let (row_a, row_b) = rows(i);
            let h_a = lhs.combine(row_a);
            if !zone1.decided(h_a) {
                lane.push((h_a, rhs.combine(row_b)));
            }
        }
        self.matched += matched;
        self.est
            .update_hashed_lane(lane, matched - lane.len() as u64);
    }
}

/// Evaluates many registered [`ImplicationQuery`]s in a single pass over
/// one tuple stream, all estimators drawing from one global
/// [`MemoryBudget`].
///
/// ```
/// use imp_core::catalog::QueryCatalog;
/// use imp_core::{EstimatorConfig, ImplicationConditions, ImplicationQuery};
/// use imp_stream::{Schema, Tuple};
///
/// let schema = Schema::new([("Src", 0), ("Dst", 0)]);
/// let template = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1)).seed(42);
/// let mut catalog = QueryCatalog::new(&schema, template);
///
/// let loyal = catalog.register(
///     "loyal",
///     ImplicationQuery::one_to_one(schema.attr_set(&["Src"]), schema.attr_set(&["Dst"]), 1),
/// );
/// let distinct = catalog.register(
///     "distinct",
///     ImplicationQuery::distinct_count(schema.attr_set(&["Src"])),
/// );
///
/// for i in 0..1000u64 {
///     catalog.process(&Tuple::new([i % 100, i % 7, ]));
/// }
/// assert!(catalog.answer(distinct).unwrap() > 0.0);
/// assert!(catalog.answer(loyal).is_some());
/// catalog.retire(loyal);
/// assert!(catalog.answer(loyal).is_none());
/// ```
pub struct QueryCatalog {
    schema: Schema,
    hasher: TupleHasher,
    /// Estimator knobs (bitmaps / fringe / seed) applied to every
    /// registered query; per-query conditions come from the query.
    template: EstimatorConfig,
    /// The one global account every per-query estimator draws from.
    budget: MemoryBudget,
    entries: Vec<CatalogEntry>,
    next_id: u64,
    /// Tuples offered to the catalog (pre-filter).
    tuples: u64,
    registered: u64,
    retired: u64,
    /// Columnar per-attribute hash rows for the current batch
    /// (`batch_len × arity`, family A then family B), reused across
    /// batches so steady-state processing is allocation-free.
    col_a: Vec<u64>,
    col_b: Vec<u64>,
    /// Per-query `(h_a, b_fp)` scratch for the current batch, reused so
    /// the combine pass and the estimator pass each run as a tight loop.
    pairs: Vec<(u64, u64)>,
    trace: TraceHandle,
}

impl QueryCatalog {
    /// A catalog over `schema`. `template` supplies the per-query
    /// estimator knobs (bitmaps, fringe, seed) and — when
    /// [`memory_budget`](EstimatorConfig::memory_budget) is set — the
    /// **global** byte limit shared by all queries; its conditions are
    /// ignored (each query carries its own).
    pub fn new(schema: &Schema, template: EstimatorConfig) -> Self {
        let budget = match template.memory_budget_limit() {
            None => MemoryBudget::unlimited(),
            Some(limit) => MemoryBudget::with_limit(limit),
        };
        Self {
            hasher: TupleHasher::new(schema, template.hash_seed()),
            schema: schema.clone(),
            template,
            budget,
            entries: Vec::new(),
            next_id: 0,
            tuples: 0,
            registered: 0,
            retired: 0,
            col_a: Vec::new(),
            col_b: Vec::new(),
            pairs: Vec::new(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches a structured-trace journal; lifecycle events and every
    /// per-query estimator record into it.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        for e in &mut self.entries {
            e.est.set_trace(trace.clone());
        }
        self.trace = trace;
    }

    /// The attached trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Bytes a new registration reserves up front (one estimator's
    /// initial arena tables).
    pub fn construction_floor(&self) -> usize {
        self.template.construction_floor()
    }

    /// Registers `query` under `name`, building its estimator on the
    /// shared budget. A query registered mid-stream only sees the suffix
    /// of the stream from this point on.
    ///
    /// # Errors
    /// [`CatalogError::BudgetExhausted`] when the global budget's
    /// headroom cannot fit a fresh estimator's construction floor;
    /// [`CatalogError::DuplicateName`] when a live query already uses
    /// `name`.
    pub fn try_register(
        &mut self,
        name: impl Into<String>,
        query: ImplicationQuery,
    ) -> Result<QueryId, CatalogError> {
        let name = name.into();
        if self.entries.iter().any(|e| e.name == name) {
            return Err(CatalogError::DuplicateName(name));
        }
        let plan = query.estimator_plan(self.template);
        if self.budget.is_limited() {
            // The floor depends on the query's own conditions (multiplicity
            // widens the arena cells), so preflight the query's own plan.
            let needed = plan.construction_floor();
            let headroom = self.budget.limit().saturating_sub(self.budget.used());
            if headroom < needed {
                return Err(CatalogError::BudgetExhausted { needed, headroom });
            }
        }
        let id = QueryId(self.next_id);
        self.next_id += 1;
        let mut est = plan.build_on(self.budget.clone());
        est.set_trace(self.trace.clone());
        let combiner = self.hasher.combiner(query.lhs, query.rhs);
        self.entries.push(CatalogEntry {
            id,
            name,
            query,
            combiner,
            est,
            matched: 0,
        });
        self.registered += 1;
        let position = self.tuples;
        self.trace.record(|| TraceEvent::QueryRegistered {
            query: id.0,
            position,
        });
        Ok(id)
    }

    /// [`try_register`](Self::try_register), panicking on refusal — for
    /// static catalogs assembled at startup.
    ///
    /// # Panics
    /// On budget exhaustion or a duplicate name.
    pub fn register(&mut self, name: impl Into<String>, query: ImplicationQuery) -> QueryId {
        match self.try_register(name, query) {
            Ok(id) => id,
            Err(e) => panic!("QueryCatalog::register: {e}"),
        }
    }

    /// Retires a query: its estimator is dropped and the arena bytes it
    /// reserved are released back to the shared budget. Returns `false`
    /// if the id is not live.
    pub fn retire(&mut self, id: QueryId) -> bool {
        let Some(at) = self.entries.iter().position(|e| e.id == id) else {
            return false;
        };
        self.entries.remove(at);
        self.retired += 1;
        let position = self.tuples;
        self.trace.record(|| TraceEvent::QueryRetired {
            query: id.0,
            position,
        });
        true
    }

    /// Feeds one tuple to every registered query.
    pub fn process(&mut self, t: &Tuple) {
        self.process_batch(std::slice::from_ref(t));
    }

    /// Feeds a batch of tuples to every registered query, query-major:
    /// the batch is hashed attribute-wise once into columnar rows, then
    /// each query's combiner + estimator consumes the whole batch before
    /// the next query runs — keeping one estimator's arenas cache-hot
    /// across the batch. Steady-state processing with a stable batch
    /// size is allocation-free.
    ///
    /// Equivalent to calling [`process`](Self::process) per tuple (each
    /// query sees tuples in stream order), just faster.
    pub fn process_batch(&mut self, tuples: &[Tuple]) {
        let arity = self.schema.arity();
        self.col_a.clear();
        self.col_b.clear();
        for t in tuples {
            self.hasher
                .hash_tuple_append(t, &mut self.col_a, &mut self.col_b);
        }
        let (col_a, col_b) = (&self.col_a[..], &self.col_b[..]);
        let rows = |i: usize| {
            let row = i * arity..(i + 1) * arity;
            (&col_a[row.clone()], &col_b[row])
        };
        for e in &mut self.entries {
            e.feed(tuples, rows, &mut self.pairs);
        }
        self.tuples += tuples.len() as u64;
    }

    /// Feeds a pre-hashed batch to every registered query — the zero-copy
    /// entry point when the caller already holds a [`HashedBatch`] (e.g.
    /// from [`TupleSource::next_hashed_batch`](imp_stream::source::TupleSource::next_hashed_batch)).
    /// The batch must have been produced by a [`TupleHasher`] matching
    /// [`hasher`](Self::hasher) (same schema, same seed), or per-query
    /// hashes diverge from the sequential contract.
    ///
    /// Bit-identical to [`process_batch`](Self::process_batch) over the
    /// same tuples: the combiners fold the same per-attribute hash rows.
    pub fn process_hashed(&mut self, batch: &HashedBatch) {
        debug_assert_eq!(batch.arity(), self.schema.arity(), "batch/schema arity");
        let rows = |i: usize| (batch.row_a(i), batch.row_b(i));
        for e in &mut self.entries {
            e.feed(batch.tuples(), rows, &mut self.pairs);
        }
        self.tuples += batch.len() as u64;
    }

    /// The attribute-wise hasher every registered query combines over.
    /// Clone it to pre-hash batches on another thread
    /// ([`TupleHasher::hash_batch`]) and feed them back through
    /// [`process_hashed`](Self::process_hashed).
    pub fn hasher(&self) -> &TupleHasher {
        &self.hasher
    }

    /// Publishes every query's current state on its epoch channel (see
    /// [`crate::view`]), making it visible to per-query readers.
    pub fn publish(&mut self) {
        for e in &mut self.entries {
            e.est.publish();
        }
    }

    /// A wait-free concurrent reader for one query (see
    /// [`EstimateReader`]); `None` if the id is not live. Readers follow
    /// the query's publication channel and survive until dropped, but go
    /// stale (keep the last published view) once the query is retired.
    pub fn reader(&mut self, id: QueryId) -> Option<EstimateReader> {
        self.entry_mut(id).map(|e| e.est.reader())
    }

    /// The scalar answer for one query's [`QueryKind`](crate::query::QueryKind).
    pub fn answer(&self, id: QueryId) -> Option<f64> {
        self.entry(id)
            .map(|e| e.query.answer_from(&e.est.estimate_now()))
    }

    /// One query's full three-component estimate.
    pub fn estimate(&self, id: QueryId) -> Option<Estimate> {
        self.entry(id).map(|e| e.est.estimate_now())
    }

    /// Tuples that passed one query's filter.
    pub fn matched(&self, id: QueryId) -> Option<u64> {
        self.entry(id).map(|e| e.matched)
    }

    /// Bytes of tracked state currently resident for one query (the sum
    /// of its bitmaps' arena tables, as reserved on the shared budget).
    pub fn resident_bytes(&self, id: QueryId) -> Option<usize> {
        self.entry(id)
            .map(|e| e.est.bitmaps().iter().map(|b| b.tracked_bytes()).sum())
    }

    /// Budget-pressure sheds attributed to one query (its estimator's
    /// `shed_events` counter; 0 with metrics compiled out).
    pub fn shed_events(&self, id: QueryId) -> Option<u64> {
        self.entry(id)
            .map(|e| e.est.metrics().registry().estimator.shed_events.get())
    }

    /// The registered query behind an id.
    pub fn query(&self, id: QueryId) -> Option<&ImplicationQuery> {
        self.entry(id).map(|e| &e.query)
    }

    /// The name a query was registered under.
    pub fn name(&self, id: QueryId) -> Option<&str> {
        self.entry(id).map(|e| e.name.as_str())
    }

    /// Looks a live query up by registration name.
    pub fn find(&self, name: &str) -> Option<QueryId> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.id)
    }

    /// Iterates live queries in registration order as
    /// `(id, name, query)`.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &str, &ImplicationQuery)> {
        self.entries
            .iter()
            .map(|e| (e.id, e.name.as_str(), &e.query))
    }

    /// Live query count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no query is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tuples offered to the catalog so far (pre-filter).
    pub fn tuples_seen(&self) -> u64 {
        self.tuples
    }

    /// Bytes of tracked state across all live queries — the shared
    /// budget's usage.
    pub fn tracked_bytes(&self) -> usize {
        self.budget.used()
    }

    /// The shared global budget account.
    pub fn memory_budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// The schema this catalog runs over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The seed shared by the hasher and every per-query estimator.
    pub fn seed(&self) -> u64 {
        self.template.hash_seed()
    }

    fn entry(&self, id: QueryId) -> Option<&CatalogEntry> {
        self.entries.iter().find(|e| e.id == id)
    }

    fn entry_mut(&mut self, id: QueryId) -> Option<&mut CatalogEntry> {
        self.entries.iter_mut().find(|e| e.id == id)
    }

    /// Appends the catalog's Prometheus exposition to `out`: catalog-wide
    /// gauges plus the per-query `implicate_query_*{query="…"}` labeled
    /// series (passes [`lint_prometheus`](crate::metrics::lint_prometheus)).
    pub fn prometheus_into(&self, namespace: &str, out: &mut String) {
        use std::fmt::Write;
        fn label_escape(s: &str) -> String {
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
        }
        let catalog_gauges: [(&str, &str, u64); 5] = [
            (
                "catalog_queries",
                "Live registered queries",
                self.entries.len() as u64,
            ),
            (
                "catalog_registered_total",
                "Queries registered over the catalog's lifetime",
                self.registered,
            ),
            (
                "catalog_retired_total",
                "Queries retired over the catalog's lifetime",
                self.retired,
            ),
            (
                "catalog_tuples_total",
                "Tuples offered to the catalog",
                self.tuples,
            ),
            (
                "catalog_mem_bytes",
                "Tracked bytes across all live queries (shared budget usage)",
                self.tracked_bytes() as u64,
            ),
        ];
        for (suffix, help, value) in catalog_gauges {
            let kind = if suffix.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            let _ = write!(
                out,
                "# HELP {namespace}_{suffix} {help}\n\
                 # TYPE {namespace}_{suffix} {kind}\n\
                 {namespace}_{suffix} {value}\n"
            );
        }
        let _ = write!(
            out,
            "# HELP {namespace}_catalog_mem_budget_bytes Global shared budget limit (0 when unlimited)\n\
             # TYPE {namespace}_catalog_mem_budget_bytes gauge\n\
             {namespace}_catalog_mem_budget_bytes {}\n",
            if self.budget.is_limited() { self.budget.limit() as u64 } else { 0 }
        );
        if self.entries.is_empty() {
            return;
        }
        struct PerQuery {
            suffix: &'static str,
            kind: &'static str,
            help: &'static str,
            value: fn(&CatalogEntry) -> String,
        }
        let families: [PerQuery; 5] = [
            PerQuery {
                suffix: "query_tuples",
                kind: "counter",
                help: "Tuples a query's estimator has absorbed (post-filter)",
                value: |e| e.est.tuples_seen().to_string(),
            },
            PerQuery {
                suffix: "query_mem_bytes",
                kind: "gauge",
                help: "Tracked bytes resident for a query on the shared budget",
                value: |e| {
                    e.est
                        .bitmaps()
                        .iter()
                        .map(|b| b.tracked_bytes())
                        .sum::<usize>()
                        .to_string()
                },
            },
            PerQuery {
                suffix: "query_shed_events",
                kind: "counter",
                help: "Budget-pressure sheds attributed to a query",
                value: |e| {
                    e.est
                        .metrics()
                        .registry()
                        .estimator
                        .shed_events
                        .get()
                        .to_string()
                },
            },
            PerQuery {
                suffix: "query_dirty_total",
                kind: "counter",
                help: "Itemsets a query's estimator marked dirty",
                value: |e| {
                    e.est
                        .metrics()
                        .registry()
                        .estimator
                        .dirty_total()
                        .to_string()
                },
            },
            PerQuery {
                suffix: "query_answer",
                kind: "gauge",
                help: "The query's current scalar answer per its kind",
                value: |e| {
                    let v = e.query.answer_from(&e.est.estimate_now());
                    if v.is_finite() {
                        format!("{v}")
                    } else {
                        "0".to_owned()
                    }
                },
            },
        ];
        for family in families {
            let _ = write!(
                out,
                "# HELP {namespace}_{suffix} {help}\n# TYPE {namespace}_{suffix} {kind}\n",
                suffix = family.suffix,
                help = family.help,
                kind = family.kind,
            );
            for e in &self.entries {
                let _ = writeln!(
                    out,
                    "{namespace}_{suffix}{{query=\"{name}\"}} {value}",
                    suffix = family.suffix,
                    name = label_escape(&e.name),
                    value = (family.value)(e),
                );
            }
        }
    }
}

/// A catalog lane: a [`QueryCatalog`] holding a subset of the queries,
/// applying every batch of the stream.
impl LaneWorker for QueryCatalog {
    type Batch = Arc<HashedBatch>;

    fn apply(&mut self, batch: Arc<HashedBatch>) {
        self.process_hashed(&batch);
    }

    fn publish(&mut self) {
        QueryCatalog::publish(self);
    }
}

/// Batches the router keeps pooled for reuse once every lane has dropped
/// its `Arc`. A lane holds at most `RING_DEPTH` queued batches plus the
/// one it is applying, so one more than that always leaves a free one.
const CATALOG_POOL: usize = RING_DEPTH + 2;

/// A `T`-way parallel front-end for a [`QueryCatalog`]: the *queries*
/// are partitioned across `T` worker threads, and every worker sees the
/// *whole* stream as shared [`HashedBatch`]es shipped over SPSC rings
/// ([`crate::ring`]).
///
/// # Why partitioning queries is exact
///
/// Catalog entries are independent: each query owns its estimator, and
/// [`QueryCatalog::process_hashed`] touches no cross-query state beyond
/// the (atomic) shared budget. A worker that receives every batch, in
/// stream order, and applies it to its subset of queries therefore runs
/// each of those queries through *exactly* the sequential path — same
/// hashes, same order, same estimator. Per-query answers (and snapshot
/// bytes) after [`finish`](Self::finish) are bit-identical to a
/// single-threaded [`QueryCatalog`] fed the same tuples, for any `T`.
/// The tuples are hashed attribute-wise once by the router; lanes share
/// the columnar rows through an `Arc` and never re-hash.
///
/// The lanes run on the crate's lane runtime, the one
/// [`ShardedEstimator`](crate::ShardedEstimator) runs on too; the
/// hand-off is this type's own. Batches travel in pooled `Arc`s: once
/// every lane has dropped its reference, the router moves the next batch
/// into that `Arc` and hands the old contents back to the caller, so
/// steady-state ingestion, publishes and barriers allocate nothing.
///
/// Mid-stream stats come from per-query readers ([`Self::reader`]),
/// minted **before** the workers spawn and refreshed whenever a
/// [`publish`](Self::publish) request reaches a lane — the same
/// epoch-channel protocol as [`crate::view`]. Budget caveat: as with
/// [`ShardedEstimator`](crate::ShardedEstimator), a *limited* global
/// budget makes shed timing depend on lane interleaving, so keep one
/// thread when a budget is set and reproducibility matters.
pub struct ShardedCatalog {
    /// The base catalog minus its entries: schema, hasher, budget,
    /// counters — reused as the chassis of the reassembled catalog.
    shell: QueryCatalog,
    /// One lane per child catalog (see [`crate::lane`]).
    lanes: Lanes<QueryCatalog>,
    /// One pre-minted reader per live query, in registration order.
    readers: Vec<(QueryId, String, EstimateReader)>,
    /// Shipped batches, reusable once no lane holds them.
    pool: Vec<Arc<HashedBatch>>,
    /// Rows shipped to the lanes by this router.
    shipped: u64,
}

impl ShardedCatalog {
    /// Splits a fully-registered catalog across `threads >= 1` worker
    /// lanes (round-robin by registration order) and starts them.
    /// Register every query **before** sharding; registration and
    /// retirement are owner operations and resume on the reassembled
    /// catalog after [`finish`](Self::finish).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(base: QueryCatalog, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one catalog lane");
        let mut shell = base;
        let entries = std::mem::take(&mut shell.entries);
        let mut children: Vec<QueryCatalog> = (0..threads)
            .map(|_| {
                let mut child = QueryCatalog::new(&shell.schema, shell.template);
                child.budget = shell.budget.clone();
                child.tuples = shell.tuples;
                child.trace = shell.trace.clone();
                child
            })
            .collect();
        let mut readers = Vec::with_capacity(entries.len());
        for (i, mut e) in entries.into_iter().enumerate() {
            readers.push((e.id, e.name.clone(), e.est.reader()));
            children[i % threads].entries.push(e);
        }
        Self {
            shell,
            lanes: Lanes::spawn(children, "catalog worker"),
            readers,
            pool: (0..CATALOG_POOL).map(|_| Arc::default()).collect(),
            shipped: 0,
        }
    }

    /// Number of worker lanes.
    pub fn threads(&self) -> usize {
        self.lanes.len()
    }

    /// Live query count.
    pub fn len(&self) -> usize {
        self.readers.len()
    }

    /// Whether no query is registered.
    pub fn is_empty(&self) -> bool {
        self.readers.is_empty()
    }

    /// Tuples offered to the catalog so far (base preload + routed).
    pub fn tuples_seen(&self) -> u64 {
        self.shell.tuples + self.shipped
    }

    /// The schema this catalog runs over.
    pub fn schema(&self) -> &Schema {
        &self.shell.schema
    }

    /// The attribute-wise hasher batches fed to
    /// [`process_hashed`](Self::process_hashed) must match.
    pub fn hasher(&self) -> &TupleHasher {
        &self.shell.hasher
    }

    /// Looks a live query up by registration name.
    pub fn find(&self, name: &str) -> Option<QueryId> {
        self.readers
            .iter()
            .find(|(_, n, _)| n == name)
            .map(|&(id, _, _)| id)
    }

    /// A wait-free reader for one query's published views; `None` if the
    /// id is not live. Readers keep working after
    /// [`finish`](Self::finish) — the reassembled catalog publishes on
    /// the same channels.
    pub fn reader(&self, id: QueryId) -> Option<EstimateReader> {
        self.readers
            .iter()
            .find(|(rid, _, _)| *rid == id)
            .map(|(_, _, r)| r.clone())
    }

    /// Iterates live queries in registration order as `(id, name)`.
    pub fn iter(&self) -> impl Iterator<Item = (QueryId, &str)> {
        self.readers
            .iter()
            .map(|(id, name, _)| (*id, name.as_str()))
    }

    /// A pooled batch ready to refill (via [`HashedBatch::recycle`] +
    /// [`TupleHasher::hash_batch`]), or an empty one if the pool has none
    /// to spare.
    pub fn checkout(&mut self) -> HashedBatch {
        self.pool
            .iter_mut()
            .find_map(Arc::get_mut)
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Ships one pre-hashed batch to every lane and hands back a pooled
    /// buffer for the caller's next read (a previous batch's allocation,
    /// once every lane is done with it). The batch must come from a
    /// hasher matching [`hasher`](Self::hasher).
    pub fn process_hashed(&mut self, mut batch: HashedBatch) -> HashedBatch {
        debug_assert_eq!(
            batch.arity(),
            self.shell.schema.arity(),
            "batch/schema arity"
        );
        if batch.is_empty() {
            return batch;
        }
        self.shipped += batch.len() as u64;
        // Move the batch into a pooled `Arc` no lane holds any more; the
        // old contents come back out for the caller to refill.
        let free = self.pool.iter_mut().position(|a| Arc::get_mut(a).is_some());
        let shared = match free {
            Some(i) => {
                let free = &mut self.pool[i];
                std::mem::swap(Arc::get_mut(free).expect("no lane holds it"), &mut batch);
                Arc::clone(free)
            }
            // The pool outnumbers what the lanes can hold, so this is not
            // reached; allocate rather than wait if it ever is.
            None => Arc::new(std::mem::take(&mut batch)),
        };
        for lane in 0..self.lanes.len() {
            self.lanes.send(lane, Arc::clone(&shared));
        }
        batch
    }

    /// Hashes `tuples` once (attribute-wise, shared across all queries)
    /// and ships the batch to every lane.
    pub fn process_batch(&mut self, tuples: &[Tuple]) {
        if tuples.is_empty() {
            return;
        }
        let mut batch = self.checkout();
        let mut owned = batch.recycle();
        owned.extend_from_slice(tuples);
        self.shell.hasher.hash_batch(owned, &mut batch);
        let _ = self.process_hashed(batch);
    }

    /// Asks every lane to publish its queries' current views at its next
    /// message boundary (non-blocking for the router). Follow with
    /// [`barrier`](Self::barrier) when a reader must observe the
    /// publication before proceeding.
    pub fn publish(&mut self) {
        self.lanes.publish();
    }

    /// Blocks until every lane has applied everything routed so far.
    /// After `barrier` returns, per-query readers (once the lanes'
    /// publications are requested via [`publish`](Self::publish) *before*
    /// the barrier) reflect the complete routed prefix, bit-identical to
    /// the sequential catalog at the same position.
    ///
    /// # Panics
    /// If a worker thread exited early.
    pub fn barrier(&mut self) {
        self.lanes.barrier();
    }

    /// Joins the lanes and reassembles the single catalog — per-query
    /// state bit-for-bit identical to a sequential run over the same
    /// tuples. Pre-minted readers keep following their queries' channels.
    ///
    /// # Panics
    /// If a worker thread panicked.
    pub fn finish(self) -> QueryCatalog {
        let Self {
            mut shell,
            lanes,
            shipped,
            ..
        } = self;
        let mut entries = Vec::new();
        for child in lanes.finish() {
            debug_assert_eq!(child.tuples, shell.tuples + shipped, "lane saw every batch");
            entries.extend(child.entries);
        }
        // Ids are issued monotonically, so id order is registration order.
        entries.sort_by_key(|e| e.id);
        shell.entries = entries;
        shell.tuples += shipped;
        shell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conditions::ImplicationConditions;
    use crate::query::QueryEngine;

    fn schema() -> Schema {
        Schema::new([("Src", 0), ("Dst", 0), ("Svc", 4), ("Time", 4)])
    }

    fn template() -> EstimatorConfig {
        EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1))
            .bitmaps(32)
            .seed(99)
    }

    fn workload(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::from([i % 500, i % 7, i % 4, i % 3]))
            .collect()
    }

    #[test]
    fn catalog_matches_standalone_engines_bit_for_bit() {
        let s = schema();
        let queries = [
            (
                "loyal",
                ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1),
            ),
            (
                "distinct",
                ImplicationQuery::distinct_count(s.attr_set(&["Src"])),
            ),
            (
                "fanout",
                ImplicationQuery::more_than(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 2, 1),
            ),
        ];
        let tuples = workload(30_000);

        let mut catalog = QueryCatalog::new(&s, template());
        let ids: Vec<QueryId> = queries
            .iter()
            .map(|(n, q)| catalog.register(*n, q.clone()))
            .collect();
        for batch in tuples.chunks(512) {
            catalog.process_batch(batch);
        }

        for ((_, q), id) in queries.iter().zip(&ids) {
            let mut engine = QueryEngine::new(
                &s,
                q.clone(),
                EstimatorConfig::new(q.conditions).bitmaps(32).seed(99),
            );
            for t in &tuples {
                engine.process(t);
            }
            let (cat, alone) = (catalog.answer(*id).unwrap(), engine.answer());
            assert_eq!(cat.to_bits(), alone.to_bits(), "query {id} diverged");
            assert_eq!(
                catalog.estimate(*id).unwrap().f0_sup.to_bits(),
                engine.estimate().f0_sup.to_bits(),
            );
        }
    }

    #[test]
    fn register_retire_budget_round_trip() {
        let s = schema();
        let floor = template().construction_floor();
        let mut catalog = QueryCatalog::new(&s, template().memory_budget(4 * floor));
        let before = catalog.tracked_bytes();
        let q = ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1);
        let id = catalog.register("a", q.clone());
        assert!(catalog.tracked_bytes() >= before + floor);
        for t in workload(5_000) {
            catalog.process(&t);
        }
        assert!(catalog.retire(id));
        assert_eq!(
            catalog.tracked_bytes(),
            before,
            "retire must return the budget to its pre-register level"
        );
        assert!(!catalog.retire(id), "double retire is a no-op");
        assert!(catalog.answer(id).is_none());
    }

    #[test]
    fn register_is_refused_when_budget_headroom_is_gone() {
        let s = schema();
        let q = ImplicationQuery::distinct_count(s.attr_set(&["Src"]));
        let floor = template().conditions(q.conditions).construction_floor();
        let mut catalog = QueryCatalog::new(&s, template().memory_budget(floor + floor / 2));
        let first = catalog.try_register("one", q.clone()).expect("fits");
        match catalog.try_register("two", q.clone()) {
            Err(CatalogError::BudgetExhausted { needed, headroom }) => {
                assert_eq!(needed, floor);
                assert!(headroom < needed);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // Retiring the first frees the headroom for the second.
        assert!(catalog.retire(first));
        catalog.try_register("two", q).expect("fits after retire");
    }

    #[test]
    fn duplicate_names_are_refused_until_retired() {
        let s = schema();
        let mut catalog = QueryCatalog::new(&s, template());
        let q = ImplicationQuery::distinct_count(s.attr_set(&["Src"]));
        let id = catalog.register("same", q.clone());
        assert!(matches!(
            catalog.try_register("same", q.clone()),
            Err(CatalogError::DuplicateName(_))
        ));
        catalog.retire(id);
        catalog
            .try_register("same", q)
            .expect("name freed by retire");
    }

    #[test]
    fn filters_apply_per_query() {
        let s = schema();
        let time = s.attr_expect("Time");
        let mut catalog = QueryCatalog::new(&s, template());
        let all = catalog.register(
            "all",
            ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1),
        );
        let morning = catalog.register(
            "morning",
            ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1)
                .filtered(crate::query::Filter::new().and_eq(time, 0)),
        );
        let tuples = workload(9_000);
        let expected = tuples.iter().filter(|t| t.get(time.index()) == 0).count() as u64;
        catalog.process_batch(&tuples);
        assert_eq!(catalog.matched(all), Some(9_000));
        assert_eq!(catalog.matched(morning), Some(expected));
        assert!(expected > 0 && expected < 9_000);
    }

    #[test]
    fn per_query_readers_follow_publication() {
        let s = schema();
        let mut catalog = QueryCatalog::new(&s, template());
        let id = catalog.register(
            "loyal",
            ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1),
        );
        let reader = catalog.reader(id).expect("live query");
        catalog.process_batch(&workload(4_000));
        catalog.publish();
        let view = reader.view();
        assert_eq!(view.tuples(), 4_000);
        let direct = catalog.estimate(id).unwrap();
        assert_eq!(
            reader.estimate().implication_count.to_bits(),
            direct.implication_count.to_bits(),
            "published view must agree with the owner's estimate"
        );
    }

    #[test]
    fn batched_and_tuple_at_a_time_are_identical() {
        let s = schema();
        let q = ImplicationQuery::more_than(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1, 1);
        let tuples = workload(10_000);

        let mut one = QueryCatalog::new(&s, template());
        let id_one = one.register("q", q.clone());
        for t in &tuples {
            one.process(t);
        }

        let mut batched = QueryCatalog::new(&s, template());
        let id_batched = batched.register("q", q);
        for chunk in tuples.chunks(777) {
            batched.process_batch(chunk);
        }

        assert_eq!(
            one.answer(id_one).unwrap().to_bits(),
            batched.answer(id_batched).unwrap().to_bits()
        );
        assert_eq!(one.tuples_seen(), batched.tuples_seen());
    }

    #[test]
    fn prometheus_exposition_lints_and_labels_queries() {
        let s = schema();
        let mut catalog = QueryCatalog::new(&s, template());
        catalog.register(
            "loyal",
            ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1),
        );
        catalog.register(
            "distinct",
            ImplicationQuery::distinct_count(s.attr_set(&["Src"])),
        );
        catalog.process_batch(&workload(2_000));
        let mut text = String::new();
        catalog.prometheus_into("implicate", &mut text);
        crate::metrics::lint_prometheus(&text).expect("catalog exposition lints");
        assert!(text.contains("implicate_catalog_queries 2"), "{text}");
        assert!(
            text.contains("implicate_query_tuples{query=\"loyal\"} 2000"),
            "{text}"
        );
        assert!(
            text.contains("implicate_query_answer{query=\"distinct\"}"),
            "{text}"
        );
    }

    #[test]
    fn process_hashed_matches_process_batch_bit_for_bit() {
        let s = schema();
        let q = ImplicationQuery::more_than(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 2, 1);
        let time = s.attr_expect("Time");
        let filtered = ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1)
            .filtered(crate::query::Filter::new().and_eq(time, 0));
        let tuples = workload(8_000);

        let mut plain = QueryCatalog::new(&s, template());
        let p1 = plain.register("q", q.clone());
        let p2 = plain.register("f", filtered.clone());
        for chunk in tuples.chunks(512) {
            plain.process_batch(chunk);
        }

        let mut hashed = QueryCatalog::new(&s, template());
        let h1 = hashed.register("q", q);
        let h2 = hashed.register("f", filtered);
        let hasher = hashed.hasher().clone();
        let mut batch = HashedBatch::new();
        for chunk in tuples.chunks(512) {
            let mut owned = batch.recycle();
            owned.extend_from_slice(chunk);
            hasher.hash_batch(owned, &mut batch);
            hashed.process_hashed(&batch);
        }

        assert_eq!(plain.tuples_seen(), hashed.tuples_seen());
        assert_eq!(plain.matched(p2), hashed.matched(h2));
        for (a, b) in [(p1, h1), (p2, h2)] {
            assert_eq!(
                plain.answer(a).unwrap().to_bits(),
                hashed.answer(b).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn sharded_catalog_matches_sequential_for_any_thread_count() {
        let s = schema();
        let time = s.attr_expect("Time");
        let queries = [
            (
                "loyal",
                ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1),
            ),
            (
                "distinct",
                ImplicationQuery::distinct_count(s.attr_set(&["Src"])),
            ),
            (
                "fanout",
                ImplicationQuery::more_than(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 2, 1),
            ),
            (
                "morning",
                ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1)
                    .filtered(crate::query::Filter::new().and_eq(time, 0)),
            ),
        ];
        let tuples = workload(20_000);

        let mut seq = QueryCatalog::new(&s, template());
        for (n, q) in &queries {
            seq.register(*n, q.clone());
        }
        for chunk in tuples.chunks(512) {
            seq.process_batch(chunk);
        }

        for threads in [1, 2, 3, 7] {
            let mut base = QueryCatalog::new(&s, template());
            for (n, q) in &queries {
                base.register(*n, q.clone());
            }
            let mut sharded = ShardedCatalog::new(base, threads);
            assert_eq!(sharded.len(), queries.len());
            for chunk in tuples.chunks(512) {
                sharded.process_batch(chunk);
            }
            assert_eq!(sharded.tuples_seen(), seq.tuples_seen(), "T = {threads}");
            let done = sharded.finish();
            assert_eq!(done.tuples_seen(), seq.tuples_seen());
            for (n, _) in &queries {
                let (a, b) = (seq.find(n).unwrap(), done.find(n).unwrap());
                assert_eq!(
                    seq.answer(a).unwrap().to_bits(),
                    done.answer(b).unwrap().to_bits(),
                    "query {n}, T = {threads}"
                );
                assert_eq!(seq.matched(a), done.matched(b), "query {n}, T = {threads}");
            }
        }
    }

    #[test]
    fn sharded_readers_see_published_views_and_survive_finish() {
        let s = schema();
        let mut base = QueryCatalog::new(&s, template());
        let id = base.register(
            "loyal",
            ImplicationQuery::one_to_one(s.attr_set(&["Src"]), s.attr_set(&["Dst"]), 1),
        );
        let mut sharded = ShardedCatalog::new(base, 3);
        let reader = sharded.reader(id).expect("live query");
        assert_eq!(sharded.find("loyal"), Some(id));
        sharded.process_batch(&workload(6_000));
        sharded.publish();
        sharded.barrier();
        assert_eq!(reader.tuples(), 6_000, "publish-then-barrier settles views");
        let mut done = sharded.finish();
        // The reassembled owner keeps publishing to the same channel.
        done.process_batch(&workload(100));
        done.publish();
        assert_eq!(reader.tuples(), 6_100);
        assert_eq!(
            reader.estimate().implication_count.to_bits(),
            done.estimate(id).unwrap().implication_count.to_bits()
        );
    }

    #[test]
    fn sharded_catalog_recycles_batch_buffers() {
        let s = schema();
        let mut base = QueryCatalog::new(&s, template());
        base.register(
            "distinct",
            ImplicationQuery::distinct_count(s.attr_set(&["Src"])),
        );
        let mut sharded = ShardedCatalog::new(base, 2);
        let hasher = sharded.hasher().clone();
        let mut batch = sharded.checkout();
        for round in 0..200u64 {
            let tuples: Vec<Tuple> = (0..64)
                .map(|i| Tuple::from([round * 64 + i, i % 7, i % 4, i % 3]))
                .collect();
            let mut owned = batch.recycle();
            owned.clear();
            owned.extend_from_slice(&tuples);
            hasher.hash_batch(owned, &mut batch);
            batch = sharded.process_hashed(batch);
        }
        // The pool caps in-flight allocations regardless of round count.
        assert_eq!(sharded.pool.len(), CATALOG_POOL);
        assert_eq!(sharded.finish().tuples_seen(), 200 * 64);
    }

    #[test]
    #[should_panic(expected = "at least one catalog lane")]
    fn sharded_catalog_rejects_zero_threads() {
        let s = schema();
        let base = QueryCatalog::new(&s, template());
        let _ = ShardedCatalog::new(base, 0);
    }

    #[test]
    fn lifecycle_emits_trace_events() {
        let s = schema();
        let mut catalog = QueryCatalog::new(&s, template());
        let trace = TraceHandle::with_capacity(4096);
        catalog.set_trace(trace.clone());
        let q = ImplicationQuery::distinct_count(s.attr_set(&["Src"]));
        let id = catalog.register("traced", q);
        catalog.process_batch(&workload(100));
        catalog.retire(id);
        if let Some(journal) = trace.journal() {
            let events = journal.events();
            assert!(events.iter().any(|t| matches!(
                t.event,
                TraceEvent::QueryRegistered { query, position: 0 } if query == id.raw()
            )));
            assert!(events.iter().any(|t| matches!(
                t.event,
                TraceEvent::QueryRetired { query, position: 100 } if query == id.raw()
            )));
        }
    }
}
