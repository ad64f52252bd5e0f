//! The line front-end shared by the `implicate` CLI and
//! `implicate-serve`: reading lines, splitting them into fields, and
//! hashing the fields into itemset fingerprint words.
//!
//! The CLI treats fields as opaque byte strings. Each field is packed
//! into 8-byte little-endian words (the trailing chunk zero-padded and
//! length-tagged so `"a"` and `"a\0"` differ) and folded through the
//! estimator's [`Hasher64`] slice-chaining scheme — without materializing
//! the word slice, so hashing a field performs no heap allocation
//! regardless of field length.
//!
//! Input rules, identical on both front-ends:
//!
//! * A line ends at `\n` or at the end of input; a `\r` directly before
//!   the `\n` belongs to the terminator ([`LineReader`]).
//! * An empty line or one starting with `#` is not a row.
//! * A line that is not UTF-8 is not a row either ([`Row::NotUtf8`]);
//!   the CLI stops with a read error, serve counts it as skipped.
//! * Fields are split on Unicode whitespace (`str::split_whitespace`),
//!   or on a one-character delimiter with each field trimmed
//!   (`str::split(d).map(str::trim)`).
//!
//! [`LineFields`] implements the split rules twice: a byte-level fast
//! path for ASCII lines under no delimiter or an ASCII one, and the
//! `str` rules themselves for every other line. On ASCII input the two
//! agree because the only ASCII members of `char::is_whitespace` are
//! `\t \n \x0B \x0C \r` and space (note `u8::is_ascii_whitespace` omits
//! `\x0B`, so it is not used).

use std::io::{self, BufRead, ErrorKind, Read};

use imp_sketch::hash::{Hasher64, MixHasher};

/// The empty-slice sentinel of [`Hasher64::hash_slice`].
const EMPTY_SENTINEL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Packs one ≤ 8-byte chunk into a length-tagged little-endian word.
#[inline]
fn pack_chunk(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(w) ^ chunk.len() as u64
}

/// Hashes a text field to a single fingerprint word, allocation-free.
///
/// Produces exactly `hasher.hash_slice(&words)` where `words` is the
/// field's packed chunk sequence — so fingerprints are interchangeable
/// with those of callers that materialize the words.
#[inline]
pub fn hash_field_bytes<H: Hasher64 + ?Sized>(hasher: &H, field: &[u8]) -> u64 {
    let mut chunks = field.chunks(8).map(pack_chunk);
    match field.len().div_ceil(8) {
        0 => hasher.hash_u64(EMPTY_SENTINEL),
        1 => hasher.hash_u64(chunks.next().expect("one chunk")),
        n => {
            // Mirrors Hasher64::hash_slice's length-dependent chaining.
            let mut acc = hasher.hash_u64(n as u64);
            for word in chunks {
                acc = hasher.hash_u64(acc ^ word);
            }
            acc
        }
    }
}

/// [`hash_field_bytes`] over a `str` field.
pub fn hash_field<H: Hasher64 + ?Sized>(hasher: &H, field: &str) -> u64 {
    hash_field_bytes(hasher, field.as_bytes())
}

/// One step of a [`LineReader`].
#[derive(Debug, PartialEq, Eq)]
pub enum Line<'a> {
    /// A whole line without its terminator.
    Text(&'a [u8]),
    /// A line longer than the reader's cap, discarded through its `\n`.
    Oversize,
    /// End of input.
    Eof,
}

/// Reads lines through `BufRead::read_until` into one reused buffer,
/// which stops growing at the longest line, so reading allocates
/// nothing per line.
///
/// A read that fails with `WouldBlock` or `TimedOut` (a socket read
/// timeout) keeps the partial line, and the next [`next_line`] resumes
/// it. With a cap, a line whose bytes before the `\n` (a CRLF's `\r`
/// included) exceed the cap is never buffered past the cap: the rest is
/// skipped up to the next `\n` and reported as [`Line::Oversize`].
///
/// [`next_line`]: LineReader::next_line
pub struct LineReader<R> {
    inner: R,
    line: Vec<u8>,
    cap: Option<usize>,
    /// `line` holds the line last returned; clear it before reading on.
    returned: bool,
    /// Inside an oversize line: skipping to its `\n`.
    discarding: bool,
}

impl<R: BufRead> LineReader<R> {
    /// A reader with no length cap.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            line: Vec::new(),
            cap: None,
            returned: false,
            discarding: false,
        }
    }

    /// A reader that reports lines longer than `cap` bytes as
    /// [`Line::Oversize`].
    pub fn with_cap(inner: R, cap: usize) -> Self {
        LineReader {
            cap: Some(cap),
            ..LineReader::new(inner)
        }
    }

    /// The next line. An error leaves any partial line in place; after
    /// a timeout, call again to resume it.
    pub fn next_line(&mut self) -> io::Result<Line<'_>> {
        if std::mem::take(&mut self.returned) {
            self.line.clear();
        }
        if !self.discarding {
            match self.cap {
                None => self.inner.read_until(b'\n', &mut self.line)?,
                Some(cap) => {
                    // Room for the cap plus the `\n`, so a line of exactly
                    // `cap` bytes still ends inside the limit.
                    let room = (cap + 1).saturating_sub(self.line.len()) as u64;
                    (&mut self.inner)
                        .take(room)
                        .read_until(b'\n', &mut self.line)?
                }
            };
            if self.line.last() == Some(&b'\n') {
                self.line.pop();
                if self.line.last() == Some(&b'\r') {
                    self.line.pop();
                }
            } else if self.cap.is_some_and(|cap| self.line.len() > cap) {
                self.line.clear();
                self.discarding = true;
            } else if self.line.is_empty() {
                return Ok(Line::Eof);
            }
            // Otherwise: a final line with no terminator.
        }
        if self.discarding {
            self.skip_line()?;
            self.discarding = false;
            return Ok(Line::Oversize);
        }
        self.returned = true;
        Ok(Line::Text(&self.line))
    }

    /// Consumes input through the next `\n` or to the end of input.
    fn skip_line(&mut self) -> io::Result<()> {
        loop {
            let buf = match self.inner.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if buf.is_empty() {
                return Ok(());
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(at) => {
                    self.inner.consume(at + 1);
                    return Ok(());
                }
                None => {
                    let n = buf.len();
                    self.inner.consume(n);
                }
            }
        }
    }
}

/// What [`LineFields::hash_line`] made of a line.
#[derive(Debug, PartialEq, Eq)]
pub enum Row<'a> {
    /// An empty line or a `#` comment: not a row.
    Blank,
    /// The line is not valid UTF-8.
    NotUtf8,
    /// Fingerprints of the line's first fields, as many as it has up to
    /// the length of the column mask; a field the mask does not select
    /// is split off but not hashed, and holds 0.
    Fields(&'a [u64]),
}

/// The ASCII members of `char::is_whitespace`, by byte.
const ASCII_WS: [bool; 256] = {
    let mut t = [false; 256];
    t[b'\t' as usize] = true;
    t[b'\n' as usize] = true;
    t[0x0B] = true;
    t[0x0C] = true;
    t[b'\r' as usize] = true;
    t[b' ' as usize] = true;
    t
};

/// `str::trim` for an ASCII field.
#[inline]
fn trim_ascii(mut field: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = field {
        if !ASCII_WS[*first as usize] {
            break;
        }
        field = rest;
    }
    while let [rest @ .., last] = field {
        if !ASCII_WS[*last as usize] {
            break;
        }
        field = rest;
    }
    field
}

/// Splits lines into fields and hashes them into one reused buffer.
#[derive(Debug, Clone)]
pub struct LineFields {
    hasher: MixHasher,
    delimiter: Option<char>,
    /// The delimiter as a byte when the byte-level path can split on it.
    ascii_delimiter: Option<u8>,
    fields: Vec<u64>,
}

impl LineFields {
    /// Fields split on whitespace, or on `delimiter` and trimmed, hashed
    /// with `hasher`.
    pub fn new(hasher: MixHasher, delimiter: Option<char>) -> Self {
        LineFields {
            hasher,
            delimiter,
            ascii_delimiter: delimiter.filter(char::is_ascii).map(|d| d as u8),
            fields: Vec::new(),
        }
    }

    /// Splits up to `wanted.len()` leading fields off `line` (no
    /// terminator) and hashes those that `wanted` selects.
    pub fn hash_line(&mut self, line: &[u8], wanted: &[bool]) -> Row<'_> {
        if line.is_empty() {
            return Row::Blank;
        }
        let text = if line.is_ascii() {
            None
        } else {
            match std::str::from_utf8(line) {
                Ok(text) => Some(text),
                Err(_) => return Row::NotUtf8,
            }
        };
        if line[0] == b'#' {
            return Row::Blank;
        }
        self.fields.clear();
        let n = wanted.len();
        let hasher = &self.hasher;
        let push = |fields: &mut Vec<u64>, field: &[u8]| {
            let word = if wanted[fields.len()] {
                hash_field_bytes(hasher, field)
            } else {
                0
            };
            fields.push(word);
        };
        match (text, self.delimiter, self.ascii_delimiter) {
            (None, None, _) => {
                let mut rest = line;
                while self.fields.len() < n {
                    let Some(start) = rest.iter().position(|&b| !ASCII_WS[b as usize]) else {
                        break;
                    };
                    rest = &rest[start..];
                    let end = rest
                        .iter()
                        .position(|&b| ASCII_WS[b as usize])
                        .unwrap_or(rest.len());
                    push(&mut self.fields, &rest[..end]);
                    rest = &rest[end..];
                }
            }
            (None, _, Some(d)) => {
                for field in line.split(|&b| b == d).take(n) {
                    push(&mut self.fields, trim_ascii(field));
                }
            }
            (text, delimiter, _) => {
                // Non-ASCII line or delimiter: the `str` rules verbatim.
                let text =
                    text.unwrap_or_else(|| std::str::from_utf8(line).expect("ASCII is UTF-8"));
                match delimiter {
                    Some(d) => {
                        for field in text.split(d).map(str::trim).take(n) {
                            push(&mut self.fields, field.as_bytes());
                        }
                    }
                    None => {
                        for field in text.split_whitespace().take(n) {
                            push(&mut self.fields, field.as_bytes());
                        }
                    }
                }
            }
        }
        Row::Fields(&self.fields)
    }
}

/// Copies the fingerprints of columns `cols` out of a hashed row into
/// `out`; false when the row is too short for some column.
#[inline]
pub fn project(fields: &[u64], cols: &[usize], out: &mut Vec<u64>) -> bool {
    out.clear();
    for &c in cols {
        match fields.get(c) {
            Some(&f) => out.push(f),
            None => return false,
        }
    }
    true
}

/// The column mask for [`LineFields::hash_line`] that [`project`] needs
/// for every column of every set in `col_sets`: as long as the highest
/// such column, selecting exactly those columns.
pub fn wanted_columns(col_sets: &[&[usize]]) -> Vec<bool> {
    let cols = col_sets.iter().flat_map(|cols| cols.iter());
    let mut wanted = vec![false; cols.clone().max().map_or(0, |&c| c + 1)];
    for &c in cols {
        wanted[c] = true;
    }
    wanted
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The materializing reference implementation.
    fn hash_field_alloc(hasher: &MixHasher, field: &str) -> u64 {
        hasher.hash_slice(
            &field
                .as_bytes()
                .chunks(8)
                .map(pack_chunk)
                .collect::<Vec<u64>>(),
        )
    }

    #[test]
    fn matches_materializing_reference() {
        let hasher = MixHasher::new(0x00f1_e1d5);
        let cases = [
            "",
            "a",
            "12345678",
            "123456789",
            "10.0.0.1",
            "https://example.com/some/long/path?q=1",
            "field with spaces and unicode: héllo wörld ✓",
        ];
        for field in cases {
            assert_eq!(
                hash_field(&hasher, field),
                hash_field_alloc(&hasher, field),
                "field {field:?}"
            );
        }
    }

    /// Fingerprints pinned from the released hashing: one field per
    /// length 0..=9 and two multi-chunk fields, so a change to the chunk
    /// packing or the chaining cannot pass unnoticed.
    #[test]
    fn fingerprints_are_pinned() {
        let hasher = MixHasher::new(0x00f1_e1d5);
        let golden: [(&str, u64); 12] = [
            ("", 0xc4e0_7621_3a78_8cd2),
            ("a", 0x67b8_9f19_a7ea_0b05),
            ("ab", 0x9060_f612_cf34_04cb),
            ("abc", 0x7fcf_ee55_14a7_f8c1),
            ("abcd", 0xe58e_346d_2c67_81c3),
            ("abcde", 0x9720_07fd_df28_cb61),
            ("abcdef", 0x7842_82ca_efd1_ff0f),
            ("abcdefg", 0xd64d_6280_1834_2764),
            ("abcdefgh", 0x1718_3ff6_3986_d6f0),
            ("abcdefghi", 0x148f_d9ae_0b43_a80f),
            ("10.0.0.1:443", 0xd47d_4478_3855_6989),
            ("héllo wörld ✓ and a long tail", 0x8de1_4ec9_9f43_4678),
        ];
        for (field, want) in golden {
            assert_eq!(hash_field(&hasher, field), want, "field {field:?}");
        }
    }

    #[test]
    fn distinct_fields_do_not_collide() {
        let hasher = MixHasher::new(1);
        assert_ne!(hash_field(&hasher, "a"), hash_field(&hasher, "a\0"));
        assert_ne!(hash_field(&hasher, ""), hash_field(&hasher, "\0"));
        assert_ne!(
            hash_field(&hasher, "12345678"),
            hash_field(&hasher, "123456780")
        );
    }

    fn lines_of(input: &[u8], cap: Option<usize>) -> Vec<Result<Vec<u8>, ()>> {
        let mut reader = match cap {
            Some(cap) => LineReader::with_cap(input, cap),
            None => LineReader::new(input),
        };
        let mut out = Vec::new();
        loop {
            match reader.next_line().expect("in-memory read") {
                Line::Text(l) => out.push(Ok(l.to_vec())),
                Line::Oversize => out.push(Err(())),
                Line::Eof => return out,
            }
        }
    }

    #[test]
    fn terminators_follow_bufread_lines() {
        let input = b"a\nb\r\nc\r\r\n\r\n\nd\re\rf";
        let want: Vec<Vec<u8>> = input
            .lines()
            .map(|l| l.expect("utf-8").into_bytes())
            .collect();
        let got: Vec<Vec<u8>> = lines_of(input, None)
            .into_iter()
            .map(|l| l.expect("no cap"))
            .collect();
        assert_eq!(got, want);
        assert_eq!(got[2], b"c\r");
        assert_eq!(got.last().expect("final line"), b"d\re\rf");
    }

    #[test]
    fn oversize_lines_are_skipped_to_their_newline() {
        let input = b"1234\n12345\n123456\r\n12345\r\nabcdefghij";
        let got = lines_of(input, Some(5));
        assert_eq!(
            got,
            vec![
                Ok(b"1234".to_vec()),
                Ok(b"12345".to_vec()),
                Err(()),
                Err(()), // the `\r` counts toward the cap
                Err(()), // unterminated, at end of input
            ]
        );
    }

    /// Hands out its chunks one per read, with a timeout between each.
    struct Trickle {
        chunks: Vec<&'static [u8]>,
        stall: bool,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.stall = !self.stall;
            if self.stall {
                return Err(io::Error::new(ErrorKind::WouldBlock, "stall"));
            }
            if self.chunks.is_empty() {
                return Ok(0);
            }
            let chunk = self.chunks.remove(0);
            buf[..chunk.len()].copy_from_slice(chunk);
            Ok(chunk.len())
        }
    }

    #[test]
    fn timeouts_resume_partial_and_oversize_lines() {
        let trickle = Trickle {
            chunks: vec![b"ab", b"c\nxx", b"xxxx", b"xxxx", b"\nd", b"e\n", b"f"],
            stall: false,
        };
        let mut reader = LineReader::with_cap(io::BufReader::with_capacity(4, trickle), 6);
        let mut got = Vec::new();
        let mut stalls = 0;
        loop {
            match reader.next_line() {
                Ok(Line::Text(l)) => got.push(String::from_utf8(l.to_vec()).expect("ascii")),
                Ok(Line::Oversize) => got.push("<oversize>".into()),
                Ok(Line::Eof) => break,
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::WouldBlock);
                    stalls += 1;
                }
            }
        }
        assert_eq!(got, ["abc", "<oversize>", "de", "f"]);
        assert!(stalls >= 6, "every chunk was preceded by a stall");
    }

    fn oracle(line: &str, delimiter: Option<char>, wanted: &[bool]) -> Vec<u64> {
        let hasher = MixHasher::new(5);
        let fields: Vec<&str> = match delimiter {
            Some(d) => line.split(d).map(str::trim).collect(),
            None => line.split_whitespace().collect(),
        };
        fields
            .iter()
            .zip(wanted)
            .map(|(f, &w)| if w { hash_field(&hasher, f) } else { 0 })
            .collect()
    }

    #[test]
    fn fast_path_and_str_rules_agree() {
        let lines = [
            "a b",
            " \t a\x0Bb\x0Cc \r",
            "a\u{A0}b\u{2003}c d",
            "x,  y ,z\x0B,",
            ",,",
            "only",
            "héllo, wörld ,✓",
            "a│b │ c",
        ];
        for delimiter in [None, Some(','), Some('\t'), Some('│')] {
            let mut fields = LineFields::new(MixHasher::new(5), delimiter);
            for line in lines {
                let masks: [&[bool]; 7] = [
                    &[],
                    &[true],
                    &[true, true],
                    &[true; 8],
                    &[false, true],
                    &[true, false, false, true],
                    &[false; 3],
                ];
                for wanted in masks {
                    let want = oracle(line, delimiter, wanted);
                    assert_eq!(
                        fields.hash_line(line.as_bytes(), wanted),
                        Row::Fields(&want),
                        "{line:?} split by {delimiter:?}, columns {wanted:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn blank_and_invalid_lines_are_not_rows() {
        let mut fields = LineFields::new(MixHasher::new(5), None);
        let two = [true; 2];
        assert_eq!(fields.hash_line(b"", &two), Row::Blank);
        assert_eq!(fields.hash_line(b"# a b", &two), Row::Blank);
        assert_eq!(fields.hash_line(b"a \xff", &[true]), Row::NotUtf8);
        assert_eq!(fields.hash_line(b"#\xfe", &[true]), Row::NotUtf8);
        assert_eq!(
            fields.hash_line(b" # a", &two),
            Row::Fields(&oracle(" # a", None, &two))
        );
    }

    #[test]
    fn projection_picks_hashed_columns() {
        let mut out = Vec::new();
        assert!(project(&[10, 11, 12], &[2, 0], &mut out));
        assert_eq!(out, [12, 10]);
        assert!(!project(&[10], &[0, 1], &mut out));
        assert_eq!(wanted_columns(&[&[0, 3], &[1]]), [true, true, false, true]);
        assert_eq!(wanted_columns(&[&[2], &[2]]), [false, false, true]);
        assert!(wanted_columns(&[]).is_empty());
    }
}
