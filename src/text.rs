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

use std::io::{self, ErrorKind, Read};

use imp_sketch::hash::{Hasher64, MixHasher};

/// The empty-slice sentinel of [`Hasher64::hash_slice`].
const EMPTY_SENTINEL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Packs one ≤ 8-byte chunk into a length-tagged little-endian word:
/// the chunk's bytes zero-padded to 8, XOR its length. Fixed-width
/// loads build the word without a variable-length copy: one `u64` for
/// 8 bytes, two overlapping `u32`s for 4–7, and the first, middle and
/// last byte for 1–3.
#[inline]
fn pack_chunk(chunk: &[u8]) -> u64 {
    let n = chunk.len();
    let word = match n {
        8 => u64::from_le_bytes(chunk.try_into().expect("8 bytes")),
        4..=7 => {
            let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
            let hi = u32::from_le_bytes(chunk[n - 4..].try_into().expect("4 bytes"));
            u64::from(lo) | u64::from(hi) << ((n - 4) * 8)
        }
        1..=3 => {
            u64::from(chunk[0])
                | u64::from(chunk[n / 2]) << (n / 2 * 8)
                | u64::from(chunk[n - 1]) << ((n - 1) * 8)
        }
        _ => 0,
    };
    word ^ n as u64
}

/// Hashes a text field to a single fingerprint word, allocation-free.
///
/// Produces exactly `hasher.hash_slice(&words)` where `words` is the
/// field's packed chunk sequence — so fingerprints are interchangeable
/// with those of callers that materialize the words.
#[inline]
pub fn hash_field_bytes<H: Hasher64 + ?Sized>(hasher: &H, field: &[u8]) -> u64 {
    match field.len() {
        0 => hasher.hash_u64(EMPTY_SENTINEL),
        1..=8 => hasher.hash_u64(pack_chunk(field)),
        len => {
            // Mirrors Hasher64::hash_slice's length-dependent chaining.
            let mut acc = hasher.hash_u64(len.div_ceil(8) as u64);
            let mut words = field.chunks_exact(8);
            for word in words.by_ref() {
                acc = hasher.hash_u64(acc ^ pack_chunk(word));
            }
            if !words.remainder().is_empty() {
                acc = hasher.hash_u64(acc ^ pack_chunk(words.remainder()));
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

/// Bytes the reader's buffer starts with, and the most one `read` asks
/// for while no line outgrows it.
const READ_SIZE: usize = 8 * 1024;

/// Every byte of a word set to `b`.
const fn splat(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// The index of the first `\n` in `bytes`, searched a word at a time.
#[inline]
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = splat(0x01);
    const HIGHS: u64 = splat(0x80);
    let mut words = bytes.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ splat(b'\n');
        // The lowest set bit marks the first zero byte of `x`: borrows
        // only carry upward, so false hits lie above a true one.
        let zero = x.wrapping_sub(ONES) & !x & HIGHS;
        if zero != 0 {
            return Some(i * 8 + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = bytes.len() - tail.len();
    tail.iter().position(|&b| b == b'\n').map(|p| at + p)
}

/// Reads lines out of one owned buffer and returns them in place, so
/// each input byte is copied once, by the `read` that fetched it.
///
/// The buffer starts at 8 KiB and each `read` asks for at most its free
/// tail. The `\n` search resumes where it stopped, so a line fed in
/// small pieces is scanned once. Before a read, only the unfinished
/// line moves to the front; the buffer grows only for a line longer
/// than itself, so reading allocates nothing per line.
///
/// A read that fails with `WouldBlock` or `TimedOut` (a socket read
/// timeout) keeps the partial line, and the next [`next_line`] resumes
/// it; `Interrupted` is retried. With a cap, a line whose bytes before
/// the `\n` (a CRLF's `\r` included) exceed the cap is reported as
/// [`Line::Oversize`]: once its unterminated part passes the cap, what
/// is held of it is dropped and the rest is discarded through its
/// `\n`, so at most the cap plus one read is ever buffered.
///
/// [`next_line`]: LineReader::next_line
pub struct LineReader<R> {
    inner: R,
    buf: Vec<u8>,
    /// The first byte not yet returned.
    start: usize,
    /// The end of the bytes read.
    end: usize,
    /// `buf[start..scanned]` holds no `\n`.
    scanned: usize,
    cap: Option<usize>,
    /// Inside an oversize line: discarding through its `\n`.
    discarding: bool,
}

impl<R: Read> LineReader<R> {
    /// A reader with no length cap.
    pub fn new(inner: R) -> Self {
        LineReader {
            inner,
            buf: vec![0; READ_SIZE],
            start: 0,
            end: 0,
            scanned: 0,
            cap: None,
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
        loop {
            if let Some(at) = find_newline(&self.buf[self.scanned..self.end]) {
                let (start, newline) = (self.start, self.scanned + at);
                self.start = newline + 1;
                self.scanned = self.start;
                if std::mem::take(&mut self.discarding)
                    || self.cap.is_some_and(|cap| newline - start > cap)
                {
                    return Ok(Line::Oversize);
                }
                let end = match self.buf[start..newline] {
                    [.., b'\r'] => newline - 1,
                    _ => newline,
                };
                return Ok(Line::Text(&self.buf[start..end]));
            }
            self.scanned = self.end;
            if self.discarding || self.cap.is_some_and(|cap| self.end - self.start > cap) {
                self.discarding = true;
                self.start = self.end;
            }
            if self.fill()? == 0 {
                // End of input: a final line with no terminator, if any.
                let start = std::mem::replace(&mut self.start, self.end);
                self.scanned = self.end;
                return Ok(if std::mem::take(&mut self.discarding) {
                    Line::Oversize
                } else if start < self.end {
                    Line::Text(&self.buf[start..self.end])
                } else {
                    Line::Eof
                });
            }
        }
    }

    /// Moves the unfinished line to the front, grows the buffer if that
    /// line fills it, and reads once into the free tail; returns the
    /// bytes read, 0 at end of input.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            // Under a cap the line needs room for only the cap and one
            // byte more, which decides whether it fits.
            let grown = match self.cap {
                Some(cap) => (2 * self.end).min(cap + 1),
                None => 2 * self.end,
            };
            self.buf.resize(grown, 0);
        }
        loop {
            match self.inner.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
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
    use std::io::BufRead;

    use super::*;

    /// The materializing reference: each chunk copied into a zeroed
    /// word, length-tagged, then the whole word slice hashed.
    fn hash_field_alloc(hasher: &MixHasher, field: &[u8]) -> u64 {
        let words: Vec<u64> = field
            .chunks(8)
            .map(|chunk| {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                u64::from_le_bytes(w) ^ chunk.len() as u64
            })
            .collect();
        hasher.hash_slice(&words)
    }

    #[test]
    fn matches_materializing_reference() {
        let hasher = MixHasher::new(0x00f1_e1d5);
        // Every length over three chunks, with zero bytes, high bytes
        // and a distinct value at each position.
        let bytes: Vec<u8> = (0..24u8)
            .map(|i| match i % 4 {
                0 => 0x00,
                1 => 0x80 | i,
                2 => 0xff - i,
                _ => b'a' + i,
            })
            .collect();
        for len in 0..=bytes.len() {
            let field = &bytes[..len];
            assert_eq!(
                hash_field_bytes(&hasher, field),
                hash_field_alloc(&hasher, field),
                "field {field:02x?}"
            );
        }
        let cases = [
            "10.0.0.1",
            "https://example.com/some/long/path?q=1",
            "field with spaces and unicode: héllo wörld ✓",
        ];
        for field in cases {
            assert_eq!(
                hash_field(&hasher, field),
                hash_field_alloc(&hasher, field.as_bytes()),
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
        let mut reader = LineReader::with_cap(trickle, 6);
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

    #[test]
    fn newline_search_finds_the_first_at_every_offset() {
        for len in 0..40 {
            let mut bytes = vec![b'x'; len];
            assert_eq!(find_newline(&bytes), None, "len {len}");
            for at in (0..len).rev() {
                bytes[at] = b'\n';
                assert_eq!(find_newline(&bytes), Some(at), "len {len}");
            }
        }
        // Bytes one off `\n` on either side, and a borrow-chain.
        assert_eq!(find_newline(b"\x0b\x09\x8a\x00\x01\n\n\x0b"), Some(5));
        assert_eq!(find_newline(b"\x01\x00\x0b\x0b\x0b\x0b\x0b\x0b\x0b"), None);
    }

    /// Reads `input` in pieces of at most `piece` bytes.
    struct Pieces<'a> {
        data: &'a [u8],
        piece: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.piece.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn lines_longer_than_the_buffer_grow_it_and_caps_bound_it() {
        let long = vec![b'y'; 3 * READ_SIZE + 5];
        let mut input = b"a\n".to_vec();
        input.extend_from_slice(&long);
        input.extend_from_slice(b"\r\nb\n");
        input.extend_from_slice(&long);
        for piece in [1, 7, READ_SIZE, usize::MAX] {
            let mut reader = LineReader::new(Pieces {
                data: &input,
                piece,
            });
            let mut got = Vec::new();
            while let Line::Text(l) = reader.next_line().expect("in-memory read") {
                got.push(l.to_vec());
            }
            assert_eq!(got, [&b"a"[..], &long, b"b", &long], "pieces of {piece}");
            assert!(reader.buf.len() <= 4 * READ_SIZE, "grew past need");

            let cap = READ_SIZE + 1;
            let mut reader = LineReader::with_cap(
                Pieces {
                    data: &input,
                    piece,
                },
                cap,
            );
            let mut got = Vec::new();
            loop {
                match reader.next_line().expect("in-memory read") {
                    Line::Text(l) => got.push(Some(l.to_vec())),
                    Line::Oversize => got.push(None),
                    Line::Eof => break,
                }
                assert!(reader.buf.len() <= cap + 1, "buffered past the cap");
            }
            assert_eq!(got, [Some(b"a".to_vec()), None, Some(b"b".to_vec()), None]);
        }
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
