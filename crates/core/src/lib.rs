//! NIPS/CI — probabilistic implication-count estimation with a floating
//! fringe, reproducing Sismanis & Roussopoulos, *Maintaining Implicated
//! Statistics in Constrained Environments*, ICDE 2005.
//!
//! # The problem
//!
//! For a stream of tuples projected onto disjoint attribute sets `A` and
//! `B`, estimate the number of distinct itemsets `a` of `A` that *imply*
//! `B` under three user conditions (§3.1.1): maximum multiplicity `K`,
//! minimum (absolute) support `σ`, and minimum top-`c` confidence `ψ_c` —
//! using memory that does **not** grow with the attribute cardinalities or
//! the stream length.
//!
//! # The algorithm
//!
//! Implications cannot be recorded monotonically (an itemset may stop
//! implying later), but **non-implications can**: once an itemset violates
//! the conditions it violates them forever. NIPS therefore runs
//! Flajolet–Martin probabilistic counting over the *non-implication* events,
//! keeping full per-itemset state only inside a small floating *fringe* of
//! bitmap cells (§4.3), and CI recovers the implication count as the
//! difference of two read-offs of the same bitmap (§4.4):
//!
//! ```text
//! S  ≈  F0^sup(A) − S̄
//! ```
//!
//! # Quick start
//!
//! ```
//! use imp_core::{EstimatorConfig, ImplicationConditions};
//!
//! // "How many a's appear with at most 2 distinct b's, at least 90% of the
//! //  time, with at least 3 occurrences?"
//! let cond = ImplicationConditions::builder()
//!     .max_multiplicity(2)
//!     .min_support(3)
//!     .top_confidence(2, 0.90)
//!     .build();
//! let mut est = EstimatorConfig::new(cond).build();
//! for i in 0..3000u64 {
//!     let a = i % 1000; // 1000 itemsets, 3 occurrences each …
//!     est.update(&[a], &[a % 7]); // … every a sticks to one b: all imply
//! }
//! let e = est.estimate_now();
//! assert!(e.implication_count > 500.0 && e.implication_count < 2000.0);
//! ```
//!
//! For multi-core ingestion behind the same exact semantics, see
//! [`parallel::ShardedEstimator`]; for wait-free concurrent estimates
//! while ingestion continues, see [`view`] and
//! [`ImplicationEstimator::reader`].

pub(crate) mod arena;
pub mod bounds;
pub mod budget;
pub mod catalog;
pub mod cell;
pub mod conditions;
pub mod estimator;
pub mod fleet;
pub mod incremental;
mod lane;
pub mod metrics;
pub mod nips;
pub mod parallel;
pub mod query;
pub mod ring;
pub mod sliding;
pub mod snapshot;
pub mod state;
pub mod trace;
pub mod view;
pub mod wire;

pub use bounds::{fringe_size_for_ratio, min_estimable_ratio};
pub use budget::{CapacityPolicy, MemoryBudget};
pub use catalog::{CatalogError, QueryCatalog, QueryId, ShardedCatalog};
pub use conditions::{
    Confidence, ImplicationConditions, ImplicationConditionsBuilder, MultiplicityPolicy,
};
pub use estimator::{Estimate, EstimatorConfig, Fringe, ImplicationEstimator};
pub use fleet::{Log2Hist, NodeHealth, NodeRegistry, NodeStatus};
pub use metrics::{lint_prometheus, MetricsHandle, MetricsRegistry, WireMetrics};
pub use nips::{NipsBitmap, UpdateOutcome};
pub use parallel::{PairHasher, ShardedEstimator};
pub use query::{ImplicationQuery, QueryEngine, QueryKind};
pub use snapshot::SnapshotError;
pub use state::{DirtyReason, ItemState, Verdict};
pub use trace::{Span, SpanKind, TraceEvent, TraceHandle, TraceJournal, TracedEvent};
pub use view::{EstimateReader, ReadView};
pub use wire::{CheckpointError, FrameHeader, FrameKind, WireDecoder, WireError, WireSnapshot};
