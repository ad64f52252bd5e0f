//! Tuple-stream sources.
//!
//! A stream is anything that yields [`Tuple`]s in arrival order. The trait
//! is deliberately tiny — the constrained-environment model of the paper
//! (§1) allows exactly one pass, so sources are consumed-by-iteration and
//! algorithms never ask to rewind.

use crate::schema::Schema;
use crate::tuple::Tuple;

/// A single-pass source of tuples with a known schema.
pub trait TupleSource {
    /// The schema all yielded tuples conform to.
    fn schema(&self) -> &Schema;

    /// Yields the next tuple, or `None` at end of stream.
    fn next_tuple(&mut self) -> Option<Tuple>;

    /// Drives the whole stream through a callback, returning the tuple
    /// count. Convenience for tests and examples.
    fn for_each_tuple(&mut self, mut f: impl FnMut(&Tuple)) -> u64 {
        let mut n = 0u64;
        while let Some(t) = self.next_tuple() {
            f(&t);
            n += 1;
        }
        n
    }
}

/// An owning in-memory source.
#[derive(Debug, Clone)]
pub struct VecSource {
    schema: Schema,
    tuples: std::vec::IntoIter<Tuple>,
}

impl VecSource {
    /// Wraps a materialized stream.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Self {
        Self {
            schema,
            tuples: tuples.into_iter(),
        }
    }
}

impl TupleSource for VecSource {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next_tuple(&mut self) -> Option<Tuple> {
        self.tuples.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new([("X", 5), ("Y", 5)])
    }

    #[test]
    fn vec_source_yields_in_order() {
        let mut src = VecSource::new(
            schema(),
            vec![Tuple::from([0u64, 1]), Tuple::from([2u64, 3])],
        );
        assert_eq!(src.next_tuple(), Some(Tuple::from([0u64, 1])));
        assert_eq!(src.next_tuple(), Some(Tuple::from([2u64, 3])));
        assert_eq!(src.next_tuple(), None);
        assert_eq!(src.next_tuple(), None, "stays exhausted");
    }
}
