//! Library side of `implicate-serve`: the pieces of the service that are
//! pure enough to test and fuzz on their own, outside the binary.

pub mod http;
