//! Fuzz the line front-end shared by the `implicate` CLI and
//! `implicate-serve`: for arbitrary bytes, the byte-level reader and
//! field hasher must agree line for line with the `str` path they
//! replaced (`BufRead::lines`, `split_whitespace` or
//! `split(d).map(str::trim)`, then `hash_field`), a capped reader must
//! drop exactly the lines over its cap, and nothing may panic. The
//! reader reads the text in pieces whose sizes come from the input, so
//! partial lines are carried across refills and compacted; a line
//! longer than the reader's 8 KiB buffer (run with `-max_len` above
//! 8192) also grows it.
//!
//! Run with `cargo +nightly fuzz run line_fields` from the repository
//! root; nightly CI smokes it for at least 60 seconds.

#![no_main]

use std::io::{self, BufRead, Read};

use implicate::sketch::hash::MixHasher;
use implicate::text::{hash_field, Line, LineFields, LineReader, Row};
use libfuzzer_sys::fuzz_target;

const DELIMITERS: [Option<char>; 5] = [None, Some(','), Some('\t'), Some(' '), Some('\u{2502}')];

/// Per line: `Ok(None)` blank or comment, `Ok(Some(fingerprints))` a
/// row, `Err(true)` oversize, `Err(false)` not UTF-8.
type Outcome = Result<Option<Vec<u64>>, bool>;

/// Hands out `data` in pieces of 1 to 64 bytes, their sizes drawn
/// from `sizes` in turn (never empty).
struct Pieces<'a> {
    data: &'a [u8],
    sizes: std::iter::Cycle<std::slice::Iter<'a, u8>>,
}

impl Read for Pieces<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let size = 1 + *self.sizes.next().expect("a cycle") as usize % 64;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn front_end<R: Read>(
    mut lines: LineReader<R>,
    delimiter: Option<char>,
    wanted: &[bool],
) -> Vec<Outcome> {
    let mut fields = LineFields::new(MixHasher::new(1), delimiter);
    let mut out = Vec::new();
    loop {
        match lines.next_line().expect("in-memory reads cannot fail") {
            Line::Text(line) => out.push(match fields.hash_line(line, wanted) {
                Row::Blank => Ok(None),
                Row::NotUtf8 => Err(false),
                Row::Fields(row) => Ok(Some(row.to_vec())),
            }),
            Line::Oversize => out.push(Err(true)),
            Line::Eof => return out,
        }
    }
}

fuzz_target!(|data: &[u8]| {
    let [mode, cap, mask, text @ ..] = data else {
        return;
    };
    // Piece sizes cycle through the input's own bytes.
    let pieces = |text| Pieces {
        data: text,
        sizes: data.iter().cycle(),
    };
    let delimiter = DELIMITERS[*mode as usize % DELIMITERS.len()];
    let n = (*mode as usize / DELIMITERS.len()) % 6;
    let wanted: Vec<bool> = (0..n).map(|i| mask >> i & 1 == 1).collect();
    let cap = 1 + *cap as usize % 64;

    let hasher = MixHasher::new(1);
    let want: Vec<Outcome> = text
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
                    .zip(&wanted)
                    .map(|(f, &w)| if w { hash_field(&hasher, f) } else { 0 })
                    .collect(),
            ))
        })
        .collect();
    assert_eq!(front_end(LineReader::new(text), delimiter, &wanted), want);
    assert_eq!(
        front_end(LineReader::new(pieces(text)), delimiter, &wanted),
        want
    );

    let mut lens: Vec<usize> = text.split(|&b| b == b'\n').map(<[u8]>::len).collect();
    if text.is_empty() || text.ends_with(b"\n") {
        lens.pop();
    }
    let capped: Vec<Outcome> = want
        .into_iter()
        .zip(lens)
        .map(|(w, len)| if len > cap { Err(true) } else { w })
        .collect();
    assert_eq!(
        front_end(LineReader::with_cap(pieces(text), cap), delimiter, &wanted),
        capped
    );
});
