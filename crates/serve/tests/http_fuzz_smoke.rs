//! In-tree fuzz smoke for the HTTP request-head parser: a deterministic
//! xorshift mutation loop over valid request heads, asserting that
//! `parse_head` never panics and that whatever it accepts lies inside
//! the input and within the head cap.
//!
//! Runs for about a second by default so it rides along with `cargo
//! test`; set `HTTP_FUZZ_SECS` for a longer campaign (the `http_head`
//! cargo-fuzz target in `fuzz/` is the coverage-guided counterpart).

use std::time::{Duration, Instant};

use imp_serve::http::{parse_head, MAX_HEAD};

/// xorshift64* — tiny, deterministic, good enough to drive mutations.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Valid requests to mutate from, including one whose body follows the
/// head in the same buffer and one that sits right at the head cap.
fn seed_corpus() -> Vec<Vec<u8>> {
    let near_cap = format!(
        "GET /estimate HTTP/1.0\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(MAX_HEAD - 40)
    );
    [
        "GET /estimate HTTP/1.0\r\nHost: t\r\n\r\n",
        "GET /estimate?query=loyal&x=1 HTTP/1.0\r\n\r\n",
        "POST /query HTTP/1.0\r\nHost: t\r\nContent-Length: 20\r\n\r\nloyal one-to-one 0 1",
        "DELETE /query/7 HTTP/1.1\ncontent-length: 0\n\n",
        "POST /shutdown HTTP/1.0\r\n\r\n",
        near_cap.as_str(),
    ]
    .iter()
    .map(|s| s.as_bytes().to_vec())
    .collect()
}

/// Parses `bytes` and checks what an accepted head claims.
fn exercise(bytes: &[u8]) {
    if let Ok(Some(head)) = parse_head(bytes) {
        assert!(head.len <= bytes.len() && head.len <= MAX_HEAD, "{head:?}");
        assert!(
            !head.method.is_empty() && !head.route.is_empty(),
            "{head:?}"
        );
    }
}

#[test]
fn mutated_heads_never_panic_the_parser() {
    let secs: u64 = std::env::var("HTTP_FUZZ_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let corpus = seed_corpus();
    for seed in &corpus {
        assert!(
            matches!(parse_head(seed), Ok(Some(_))),
            "seed parses: {}",
            String::from_utf8_lossy(seed)
        );
    }
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut rounds = 0u64;
    while Instant::now() < deadline {
        let mut bytes = corpus[rng.below(corpus.len())].clone();
        match rng.below(5) {
            // Bit flips.
            0 => {
                for _ in 0..=rng.below(8) {
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            // Truncate.
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            // Splice a window from another corpus entry.
            2 => {
                let donor = &corpus[rng.below(corpus.len())];
                let at = rng.below(bytes.len());
                let from = rng.below(donor.len());
                let n = rng.below(64).min(bytes.len() - at).min(donor.len() - from);
                bytes[at..at + n].copy_from_slice(&donor[from..from + n]);
            }
            // Insert line breaks and separators the parser keys on.
            3 => {
                for _ in 0..=rng.below(4) {
                    let at = rng.below(bytes.len() + 1);
                    let token: &[u8] = [&b"\r\n"[..], b"\n", b":", b"?", b" "][rng.below(5)];
                    bytes.splice(at..at, token.iter().copied());
                }
            }
            // Replace with raw noise (keeps short inputs in the mix).
            _ => {
                bytes = (0..rng.below(512)).map(|_| rng.next() as u8).collect();
            }
        }
        exercise(&bytes);
        rounds += 1;
    }
    assert!(rounds > 0, "fuzz loop never ran");
}
