//! Stream data model for the `implicate` workspace.
//!
//! The paper models a data stream as a relation `R` over a set of attributes
//! (dimensions); an *itemset* `a` is the projection of a tuple onto an
//! attribute set `A` (§3.1). This crate provides exactly that vocabulary:
//!
//! * [`schema`] — named attributes with (advisory) cardinalities, attribute
//!   ids, and [`schema::AttrSet`] bitsets for the `A`, `B` (and conditioning)
//!   attribute sets of a query.
//! * [`mod@tuple`] — fixed-arity tuples of dictionary-encoded `u64` values.
//! * [`item`] — [`item::ItemKey`], the compact encoded projection of a tuple
//!   onto an attribute set, with inline storage for up to four attributes
//!   (all of the paper's queries use at most three).
//! * [`project`] — pre-resolved projections from a schema + attribute set.
//! * [`dictionary`] — per-attribute string interning so symbolic traces
//!   (sources, services, …) round-trip to readable output.
//! * [`source`] — the tuple-stream abstraction plus in-memory sources.
//! * [`window`] — timestamps and sliding-window delivery (§3.2).
//! * [`toy`] — the paper's Table 1 "Network Traffic" example window.
//! * [`hashplan`] — each attribute of a row hashed once, into the flat
//!   [`HashedBatch`] lanes every query's itemset hashes are combined from.

pub mod dictionary;
pub mod hashplan;
pub mod item;
pub mod project;
pub mod schema;
pub mod source;
pub mod toy;
pub mod tuple;
pub mod window;

pub use dictionary::Dictionary;
pub use hashplan::{HashedBatch, ItemsetCombiner, QueryCombiner, TupleHasher};
pub use item::ItemKey;
pub use project::Projector;
pub use schema::{AttrId, AttrSet, Schema};
pub use source::{TupleSource, VecSource};
pub use tuple::Tuple;
