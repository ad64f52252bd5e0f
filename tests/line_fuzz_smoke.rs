//! In-tree fuzz smoke for the line front-end (`implicate::text`): a
//! deterministic xorshift mutation loop over seed inputs, checking the
//! byte-level reader and field hasher against the `str` path they
//! replaced (`BufRead::lines` plus `split_whitespace` /
//! `split(d).map(str::trim)` plus `hash_field`), kept here as the
//! oracle. Field counts and fingerprints must match line for line, a
//! capped reader must drop exactly the lines over its cap, and nothing
//! may panic.
//!
//! Runs for about a second by default so it rides along with `cargo
//! test`; set `LINE_FUZZ_SECS` for a longer campaign (nightly CI runs
//! the `line_fields` cargo-fuzz target in `fuzz/` for 60 s and this
//! smoke at 60 s in release mode).

use std::io::{self, BufRead, ErrorKind, Read};
use std::time::{Duration, Instant};

use implicate::sketch::hash::MixHasher;
use implicate::text::{hash_field, Line, LineFields, LineReader, Row};

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

/// Inputs to mutate from: the whitespace the two split paths must agree
/// on, terminators, comments, blank and short rows, bytes that are not
/// UTF-8, and text for a non-ASCII delimiter.
fn seed_corpus() -> Vec<Vec<u8>> {
    [
        &b"src1 dst1\nsrc2\tdst2 extra\n"[..],
        b"a\x0Bb\x0Cc\n\x0B\x0C\n",
        "a\u{a0}b c\u{2003}d\n\u{a0}\n".as_bytes(),
        b"a b\r\nc d\r\r\n\r\n\re f\rg\n",
        b"# comment\n#\n #not a comment\n",
        b"\n\n only\n\n",
        b"x,y, z ,\n,,\n , \n",
        b"ok 1\n\xff\xfe 1\nok\xc3 2\n\xe2\x82\n",
        "a\u{2502}b \u{2502} c\n\u{2502}\u{2502}\n".as_bytes(),
        b"a\tb\t\tc\n\t\n",
        b"unterminated last",
    ]
    .iter()
    .map(|s| s.to_vec())
    .collect()
}

/// Bytes worth inserting: separators, terminators, and pieces of
/// multi-byte whitespace and of the non-ASCII delimiter.
const INTERESTING: &[&[u8]] = &[
    b"\n",
    b"\r",
    b"\r\n",
    b" ",
    b"\t",
    b"\x0B",
    b"\x0C",
    b",",
    b"#",
    "\u{a0}".as_bytes(),
    "\u{2003}".as_bytes(),
    "\u{85}".as_bytes(),
    "\u{2502}".as_bytes(),
    b"\xff",
    b"\xc3",
];

const DELIMITERS: &[Option<char>] = &[None, Some(','), Some('\t'), Some(' '), Some('\u{2502}')];

fn mutate(rng: &mut XorShift, corpus: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = corpus[rng.below(corpus.len())].clone();
    for _ in 0..=rng.below(4) {
        match rng.below(5) {
            // Bit flip.
            0 if !bytes.is_empty() => {
                let at = rng.below(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            // Truncate.
            1 => bytes.truncate(rng.below(bytes.len() + 1)),
            // Insert an interesting piece.
            2 => {
                let at = rng.below(bytes.len() + 1);
                let piece = INTERESTING[rng.below(INTERESTING.len())];
                bytes.splice(at..at, piece.iter().copied());
            }
            // Append another corpus entry.
            3 => bytes.extend_from_slice(&corpus[rng.below(corpus.len())]),
            // Raw noise over a small alphabet-heavy byte set.
            _ => {
                for _ in 0..rng.below(24) {
                    const ALPHABET: &[u8] = b"ab ,\n\r\t#";
                    let b = match rng.below(3) {
                        0 => rng.next() as u8,
                        _ => ALPHABET[rng.below(ALPHABET.len())],
                    };
                    bytes.push(b);
                }
            }
        }
    }
    bytes
}

/// One line as the front-end sees it: `Ok(None)` for a blank or comment
/// line, `Err(true)` for an oversize line, `Err(false)` for a line that
/// is not UTF-8.
type Outcome = Result<Option<Vec<u64>>, bool>;

/// The replaced `str` path: fingerprints of up to `wanted.len()` fields
/// per line, 0 for a field `wanted` does not select.
fn oracle(input: &[u8], delimiter: Option<char>, wanted: &[bool]) -> Vec<Outcome> {
    let hasher = MixHasher::new(0x00f1_e1d5);
    input
        .lines()
        .map(|line| {
            let line = line.map_err(|_| false)?;
            if line.is_empty() || line.starts_with('#') {
                return Ok(None);
            }
            let fields: Vec<&str> = match delimiter {
                Some(d) => line.split(d).map(str::trim).collect(),
                None => line.split_whitespace().collect(),
            };
            Ok(Some(
                fields
                    .iter()
                    .zip(wanted)
                    .map(|(f, &w)| if w { hash_field(&hasher, f) } else { 0 })
                    .collect(),
            ))
        })
        .collect()
}

/// Lengths of the raw lines (bytes before `\n`) of `input`.
fn raw_lengths(input: &[u8]) -> Vec<usize> {
    let mut lens: Vec<usize> = input.split(|&b| b == b'\n').map(<[u8]>::len).collect();
    if input.is_empty() || input.ends_with(b"\n") {
        lens.pop();
    }
    lens
}

/// Hands out the input in random-sized pieces of at most `piece` bytes,
/// with read timeouts between some of them, so the reader's resume,
/// compaction and growth paths are exercised.
struct Stutter<'a> {
    data: &'a [u8],
    piece: usize,
    rng: XorShift,
}

impl Read for Stutter<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.rng.below(3) == 0 {
            return Err(io::Error::new(ErrorKind::WouldBlock, "stall"));
        }
        let n = (1 + self.rng.below(self.piece))
            .min(buf.len())
            .min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// One input through the front-end.
fn front_end<R: Read>(
    mut lines: LineReader<R>,
    delimiter: Option<char>,
    wanted: &[bool],
) -> Vec<Outcome> {
    let mut fields = LineFields::new(MixHasher::new(0x00f1_e1d5), delimiter);
    let mut out = Vec::new();
    loop {
        match lines.next_line() {
            Ok(Line::Text(line)) => out.push(match fields.hash_line(line, wanted) {
                Row::Blank => Ok(None),
                Row::NotUtf8 => Err(false),
                Row::Fields(row) => {
                    assert!(row.len() <= wanted.len(), "more fields than {wanted:?}");
                    Ok(Some(row.to_vec()))
                }
            }),
            Ok(Line::Oversize) => out.push(Err(true)),
            Ok(Line::Eof) => return out,
            Err(e) => assert_eq!(e.kind(), ErrorKind::WouldBlock, "only stalls fail"),
        }
    }
}

fn check(
    input: &[u8],
    delimiter: Option<char>,
    wanted: &[bool],
    (cap, piece): (usize, usize),
    rng: &mut XorShift,
) {
    let want = oracle(input, delimiter, wanted);
    let got = front_end(LineReader::new(input), delimiter, wanted);
    assert_eq!(got, want, "{input:?} split by {delimiter:?}, {wanted:?}");

    // Capped and stuttering: the same lines, except those over the cap.
    let lens = raw_lengths(input);
    assert_eq!(lens.len(), want.len(), "{input:?}");
    let want_capped: Vec<_> = want
        .iter()
        .zip(&lens)
        .map(|(w, &len)| if len > cap { Err(true) } else { w.clone() })
        .collect();
    let stutter = Stutter {
        data: input,
        piece,
        rng: XorShift(rng.next() | 1),
    };
    let got = front_end(LineReader::with_cap(stutter, cap), delimiter, wanted);
    assert_eq!(got, want_capped, "{input:?} capped at {cap}, {wanted:?}");
}

#[test]
fn seed_inputs_match_the_str_path() {
    let mut rng = XorShift(7);
    for input in seed_corpus() {
        for &delimiter in DELIMITERS {
            for n in 0..5 {
                let cap = 1 + rng.below(24);
                check(&input, delimiter, &vec![true; n], (cap, 7), &mut rng);
            }
            let sparse = [false, true, false, true];
            check(&input, delimiter, &sparse, (1 + rng.below(24), 7), &mut rng);
        }
    }
}

/// The reader's read size, and serve's ingest line cap.
const READ: usize = 8 * 1024;
const CAP: usize = 64 * 1024;

/// A line of exactly `len` bytes of short fields, with no `\n`.
fn long_line(rng: &mut XorShift, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8] = b"abcxyz0129,, \t";
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

/// `lines` newline-terminated, a short row after each.
fn joined(lines: &[Vec<u8>]) -> Vec<u8> {
    let mut input = Vec::new();
    for line in lines {
        input.extend_from_slice(line);
        input.extend_from_slice(b"\nshort row\n");
    }
    input
}

/// Lines longer than one read, which the reader must carry across
/// refills, compact and grow for: up to about three reads long with no
/// cap, and just under, at and over serve's 64 KiB cap with it (a
/// CRLF's `\r` counting toward the cap), read in pieces of any size.
#[test]
fn lines_longer_than_a_read_match_the_str_path() {
    let mut rng = XorShift(0x00c0_ffee);
    let lens = [
        READ - 1,
        READ,
        READ + 1,
        2 * READ + 3,
        3 * READ - 7,
        3 * READ + 1,
    ];
    let uncapped: Vec<Vec<u8>> = lens.iter().map(|&len| long_line(&mut rng, len)).collect();
    let mut at_cap: Vec<Vec<u8>> = [CAP - 1, CAP, CAP + 1, 3 * READ]
        .iter()
        .map(|&len| long_line(&mut rng, len))
        .collect();
    let mut crlf = long_line(&mut rng, CAP - 1);
    crlf.push(b'\r');
    at_cap.push(crlf);
    for lines in [&uncapped, &at_cap] {
        let input = joined(lines);
        for (delimiter, piece) in [(None, 7), (Some(','), READ), (None, 3 * READ)] {
            let wanted = [true, false, true];
            check(&input, delimiter, &wanted, (CAP, piece), &mut rng);
        }
        let stutter = Stutter {
            data: &input,
            piece: READ / 3,
            rng: XorShift(rng.next() | 1),
        };
        let got = front_end(LineReader::new(stutter), None, &[true]);
        assert_eq!(got, oracle(&input, None, &[true]), "uncapped, stuttering");
        // Unterminated: the last long line ends the input.
        let unterminated = &input[..input.len() - b"\nshort row\n".len()];
        check(unterminated, None, &[true], (CAP, READ), &mut rng);
    }
}

#[test]
fn mutated_inputs_match_the_str_path() {
    let secs: u64 = std::env::var("LINE_FUZZ_SECS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let corpus = seed_corpus();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let mut rounds = 0u64;
    while Instant::now() < deadline {
        let input = mutate(&mut rng, &corpus);
        let delimiter = DELIMITERS[rng.below(DELIMITERS.len())];
        let wanted: Vec<bool> = (0..rng.below(5)).map(|_| rng.below(3) > 0).collect();
        let cap = 1 + rng.below(24);
        check(&input, delimiter, &wanted, (cap, 7), &mut rng);
        rounds += 1;
    }
    assert!(rounds > 0, "fuzz loop never ran");
}
