//! Library side of `implicate-serve`: the pieces of the service that are
//! pure enough to test and fuzz on their own, outside the binary.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod http;

/// Most ingest connections one server serves at once, each on a thread
/// of its own. A connection accepted past it is closed at once and
/// counted as `ingest_refused` in `/status`.
pub const MAX_INGEST_CONNECTIONS: usize = 64;
