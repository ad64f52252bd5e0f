//! # implicate
//!
//! A production-quality Rust implementation of **NIPS/CI** — the
//! implication-count estimation framework of Sismanis & Roussopoulos,
//! *Maintaining Implicated Statistics in Constrained Environments*
//! (ICDE 2005) — together with every substrate and baseline its evaluation
//! depends on.
//!
//! An *implication statistic* asks: across a high-volume stream, how many
//! distinct itemsets `a` of attribute set `A` appear (almost) exclusively
//! with a bounded set of `B`-itemsets? E.g. *"how many destinations are
//! contacted by just a single source?"* (intrusion detection), *"how many
//! services are requested from at most two sources 80% of the time?"*
//! (traffic characterization). NIPS/CI answers these within ~10% relative
//! error using memory independent of both the attribute cardinalities and
//! the stream length.
//!
//! ## Crate map
//!
//! * [`core`] (re-exported at the top level) — conditions, the NIPS bitmap
//!   with its floating fringe, the CI estimator, queries, windows.
//! * [`sketch`] — hashing and probabilistic-counting machinery.
//! * [`stream`] — schemas, tuples, projections, sources.
//! * [`datagen`] — the paper's synthetic workloads.
//! * [`baselines`] — exact counting, Distinct Sampling, (Implication)
//!   Lossy Counting, Sticky Sampling, and the naive §4.2 bitmap.
//!
//! ## Quick start
//!
//! ```
//! use implicate::{EstimatorConfig, ImplicationConditions};
//!
//! // How many sources stick to a single destination, allowing no noise?
//! let cond = ImplicationConditions::strict_one_to_one(1);
//! let mut est = EstimatorConfig::new(cond).build();
//!
//! for src in 0..10_000u64 {
//!     let dst = if src % 2 == 0 { src } else { src % 97 };
//!     est.update(&[src], &[dst]);
//!     if src % 2 == 1 {
//!         est.update(&[src], &[(src + 1) % 97]); // disloyal second contact
//!     }
//! }
//! let e = est.estimate_now();
//! // ~5000 loyal sources, within estimator tolerance.
//! assert!((e.implication_count - 5000.0).abs() < 1500.0);
//! ```
//!
//! Higher-level query construction lives in [`query`]; evaluating a
//! whole catalog of queries in a single stream pass lives in
//! [`catalog`]. See the `examples/` directory for runnable scenarios.

pub mod opts;
pub mod pipeline;
pub mod spec;
pub mod text;

pub use imp_baselines as baselines;
pub use imp_core as core;
pub use imp_datagen as datagen;
pub use imp_sketch as sketch;
pub use imp_stream as stream;

pub use imp_baselines::{
    AccuracyAuditor, DistinctSampling, ErrorSample, ExactCounter, Ilc, ImplicationCounter,
    ImplicationStickySampling, LossyCounter, NaiveImplicationBitmap, StickySampler,
};
pub use imp_core::catalog::{self, CatalogError, QueryCatalog, QueryId, ShardedCatalog};
pub use imp_core::query::{self, Filter};
pub use imp_core::{
    lint_prometheus, CapacityPolicy, Confidence, DirtyReason, Estimate, EstimateReader,
    EstimatorConfig, Fringe, ImplicationConditions, ImplicationEstimator, ImplicationQuery,
    MemoryBudget, MetricsHandle, MetricsRegistry, MultiplicityPolicy, NipsBitmap, NodeHealth,
    NodeRegistry, NodeStatus, PairHasher, QueryEngine, QueryKind, ReadView, ShardedEstimator, Span,
    SpanKind, TraceEvent, TraceHandle, TraceJournal, TracedEvent, UpdateOutcome, WireMetrics,
};
pub use imp_stream::{
    AttrSet, HashedBatch, ItemKey, Projector, QueryCombiner, Schema, Tuple, TupleHasher,
};
