//! Fuzz the HTTP request-head parser of `implicate-serve`: arbitrary
//! bytes must yield a typed `HeadError`, an incomplete-head `None`, or a
//! head that lies inside the input and within the head cap — never a
//! panic.
//!
//! Run with `cargo +nightly fuzz run http_head` from the repository
//! root; nightly CI smokes it for at least 60 seconds.

#![no_main]

use imp_serve::http::{parse_head, MAX_HEAD};
use libfuzzer_sys::fuzz_target;

fuzz_target!(|data: &[u8]| {
    if let Ok(Some(head)) = parse_head(data) {
        assert!(head.len <= data.len() && head.len <= MAX_HEAD);
        assert!(head.route.starts_with('/'));
    }
});
