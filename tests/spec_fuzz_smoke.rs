//! In-tree fuzz smoke for the query-spec grammar (`implicate::spec`), the
//! line format of `implicate --query-file` and of `implicate-serve`'s
//! `POST /query`: a deterministic xorshift mutation loop over valid spec
//! lines. The parser must never panic, and every line it accepts must
//! register into a [`QueryCatalog`], ingest a batch, and retire without
//! panicking — a line the parser lets through must never crash the
//! catalog behind it.
//!
//! Runs for about a second by default so it rides along with `cargo
//! test`; set `SPEC_FUZZ_SECS` for a longer campaign (nightly CI runs
//! the `query_spec` cargo-fuzz target in `fuzz/` for 60 s and this smoke
//! at 60 s in release mode).

use std::time::{Duration, Instant};

use implicate::spec::parse_query_line;
use implicate::{EstimatorConfig, ImplicationConditions, QueryCatalog, Schema, Tuple};

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

/// Valid lines covering every kind and option.
const SEEDS: &[&str] = &[
    "sources distinct 0 -",
    "loyal one-to-one 0 1 support=2",
    "capped at-most 0 1,2 k=3",
    "fanout more-than 0 1 k=10 support=5",
    "mostly noisy 0,2 1 c=2 psi=85 support=3",
    "flipped one-to-one 1 2 complement",
    "morning one-to-one 0 1 where=3=am where=4=x",
    "wide at-most 62 63 k=4096",
];

/// Tokens worth splicing in: boundary numbers, overlapping and
/// out-of-range columns, every kind and option, malformed options.
const INTERESTING: &[&str] = &[
    "-",
    "0",
    "0,0",
    "0,1",
    "1,0",
    "63",
    "64",
    "0,63",
    ",",
    "distinct",
    "one-to-one",
    "at-most",
    "more-than",
    "noisy",
    "complement",
    "k=0",
    "k=1",
    "k=4096",
    "k=4097",
    "k=4294967295",
    "c=0",
    "c=4096",
    "c=4294967295",
    "psi=0",
    "psi=100",
    "psi=NaN",
    "psi=-0",
    "psi=1e400",
    "support=0",
    "support=18446744073709551615",
    "where=0=a",
    "where=63=",
    "where=64=a",
    "where==",
    "k=",
    "\u{a0}",
];

fn mutate(rng: &mut XorShift) -> String {
    let mut tokens: Vec<String> = SEEDS[rng.below(SEEDS.len())]
        .split(' ')
        .map(str::to_owned)
        .collect();
    for _ in 0..=rng.below(4) {
        let at = rng.below(tokens.len() + 1);
        match rng.below(5) {
            // Replace a token.
            0 if at < tokens.len() => {
                tokens[at] = INTERESTING[rng.below(INTERESTING.len())].to_owned();
            }
            // Insert a token.
            1 => tokens.insert(at, INTERESTING[rng.below(INTERESTING.len())].to_owned()),
            // Drop a token.
            2 if at < tokens.len() => {
                tokens.remove(at);
            }
            // Flip a bit of one byte, keeping the line valid UTF-8.
            3 if at < tokens.len() && !tokens[at].is_empty() => {
                let mut bytes = tokens[at].clone().into_bytes();
                let i = rng.below(bytes.len());
                bytes[i] ^= 1 << rng.below(7);
                if let Ok(s) = String::from_utf8(bytes) {
                    tokens[at] = s;
                }
            }
            // Append a token from another seed line.
            _ => {
                let other: Vec<&str> = SEEDS[rng.below(SEEDS.len())].split(' ').collect();
                tokens.push(other[rng.below(other.len())].to_owned());
            }
        }
    }
    tokens.join(" ")
}

/// The oracle: parse, and if the parser accepts, register, ingest a few
/// rows and retire. Any panic fails the test. Returns whether the line
/// was accepted.
fn check(catalog: &mut QueryCatalog, rows: &[Tuple], line: &str) -> bool {
    let Ok(spec) = parse_query_line(line) else {
        return false;
    };
    let id = catalog
        .try_register(spec.name.clone(), spec.query.clone())
        .unwrap_or_else(|e| panic!("{line:?} parsed but did not register: {e}"));
    catalog.process_batch(rows);
    let _ = catalog.answer(id);
    assert!(catalog.retire(id), "{line:?} retired twice");
    true
}

fn catalog() -> (QueryCatalog, Vec<Tuple>) {
    let schema = Schema::new((0..64).map(|i| (format!("c{i}"), 0)));
    let config = EstimatorConfig::new(ImplicationConditions::strict_one_to_one(1)).bitmaps(4);
    let rows = (0..8u64)
        .map(|r| Tuple::new((0..64).map(|c| (r * 64 + c) % 5).collect::<Vec<u64>>()))
        .collect();
    (QueryCatalog::new(&schema, config), rows)
}

#[test]
fn seed_lines_register_and_retire() {
    let (mut catalog, rows) = catalog();
    for line in SEEDS {
        assert!(check(&mut catalog, &rows, line), "{line:?} is valid");
    }
}

#[test]
fn mutated_lines_never_crash_the_catalog() {
    let secs: u64 = std::env::var("SPEC_FUZZ_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let (mut catalog, rows) = catalog();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let (mut rounds, mut accepted) = (0u64, 0u64);
    while Instant::now() < deadline {
        let line = mutate(&mut rng);
        accepted += u64::from(check(&mut catalog, &rows, &line));
        rounds += 1;
    }
    assert!(rounds > 0, "fuzz loop never ran");
    assert!(
        accepted > 0,
        "no mutated line was accepted in {rounds} rounds"
    );
}
