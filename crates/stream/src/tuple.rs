//! Tuples: fixed-arity rows of dictionary-encoded values.
//!
//! Values are `u64` codes; symbolic attributes map codes to strings through
//! [`crate::Dictionary`]. Tuples are stored as boxed slices — two words on
//! the stack, no spare capacity — since streams never mutate rows in place.

use crate::schema::Schema;

/// One stream tuple: values aligned with a [`Schema`]'s attribute order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Box<[u64]>,
}

impl Tuple {
    /// Builds a tuple from values in schema order.
    pub fn new(values: impl Into<Box<[u64]>>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// The tuple's values.
    #[inline]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// The value of attribute `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.values[i]
    }

    /// The tuple's arity.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Checks the tuple against a schema (arity only; values are opaque).
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.values.len() == schema.arity()
    }
}

impl AsRef<[u64]> for Tuple {
    fn as_ref(&self) -> &[u64] {
        &self.values
    }
}

impl From<Vec<u64>> for Tuple {
    fn from(v: Vec<u64>) -> Self {
        Tuple::new(v)
    }
}

impl<const N: usize> From<[u64; N]> for Tuple {
    fn from(v: [u64; N]) -> Self {
        Tuple::new(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::from([1u64, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(1), 2);
        assert_eq!(t.values(), &[1, 2, 3]);
    }

    #[test]
    fn conformance_checks_arity() {
        let s = Schema::new([("A", 2), ("B", 2)]);
        assert!(Tuple::from([0u64, 1]).conforms_to(&s));
        assert!(!Tuple::from([0u64]).conforms_to(&s));
    }

    #[test]
    fn equality_is_value_based() {
        assert_eq!(Tuple::from(vec![5u64, 6]), Tuple::from([5u64, 6]));
        assert_ne!(Tuple::from([5u64, 6]), Tuple::from([6u64, 5]));
    }
}
