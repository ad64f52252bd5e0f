//! Proves the line front-end the CLI and `implicate-serve` run is
//! allocation-free per line: reading a line (`LineReader`), hashing its
//! fields (`LineFields`) and projecting the selected columns
//! (`project`) must not touch the heap once the reused buffers are warm,
//! with whitespace splitting and with a `--delimiter`, on the ASCII fast
//! path and on the `str` fallback alike.
//!
//! Isolated in its own integration-test binary because the counting
//! `#[global_allocator]` is process-wide.

// Implementing `GlobalAlloc` needs `unsafe`, which the workspace denies
// everywhere else.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use implicate::sketch::hash::MixHasher;
use implicate::text::{hash_field, project, wanted_columns, Line, LineFields, LineReader, Row};

struct CountingAlloc;

thread_local! {
    /// Per-thread allocation count, so concurrent test threads and the
    /// harness itself cannot pollute a measurement.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn allocs_on_this_thread() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `lines` repeated `reps` times, newline-terminated.
fn input(lines: &[&str], reps: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..reps {
        for line in lines {
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
    }
    out
}

/// Runs the CLI's per-line loop over `data`; the first line warms the
/// buffers, then every later line must be allocation-free. Returns the
/// number of projected rows.
fn drive(data: &[u8], delimiter: Option<char>, lhs: &[usize], rhs: &[usize]) -> u64 {
    let mut lines = LineReader::new(data);
    let mut fields = LineFields::new(MixHasher::new(0x00f1_e1d5), delimiter);
    let wanted = wanted_columns(&[lhs, rhs]);
    let (mut buf_a, mut buf_b) = (Vec::with_capacity(8), Vec::with_capacity(8));
    let mut rows = 0u64;
    let mut acc = 0u64;
    let mut before = None;
    loop {
        let line = match lines.next_line().expect("in-memory read") {
            Line::Text(line) => line,
            Line::Oversize => unreachable!("no cap"),
            Line::Eof => break,
        };
        if let Row::Fields(row) = fields.hash_line(line, &wanted) {
            if project(row, lhs, &mut buf_a) && project(row, rhs, &mut buf_b) {
                rows += 1;
                acc ^= buf_a.iter().chain(&buf_b).fold(0, |x, w| x ^ w);
            }
        }
        before.get_or_insert_with(allocs_on_this_thread);
    }
    let after = allocs_on_this_thread();
    assert_eq!(
        after - before.expect("at least one line"),
        0,
        "the line front-end allocated after warm-up (fingerprint {acc:#x})"
    );
    rows
}

/// The longest line comes first, so one line warms every buffer.
const WHITESPACE: &[&str] = &[
    "10.20.30.40  https://example.com/a/rather/long/path?session=8f2e 443 x",
    "# a comment",
    "",
    "10.0.0.1\t/index.html 80 y",
    "short",
    "caf\u{e9} \u{2003}na\u{ef}ve\u{a0}r\u{e9}sum\u{e9} 8080 z",
];

const DELIMITED: &[&str] = &[
    "10.20.30.40 , https://example.com/a/rather/long/path?session=8f2e,443,x",
    "# a comment",
    "",
    "10.0.0.1,/index.html, 80 ,y",
    "short",
    "caf\u{e9} ,\u{2003}na\u{ef}ve, 8080,z",
];

#[test]
fn whitespace_lines_are_read_hashed_and_projected_without_allocating() {
    let rows = drive(&input(WHITESPACE, 2_000), None, &[0], &[1, 2]);
    assert_eq!(rows, 3 * 2_000);
}

#[test]
fn delimited_lines_are_read_hashed_and_projected_without_allocating() {
    let rows = drive(&input(DELIMITED, 2_000), Some(','), &[0, 3], &[1]);
    assert_eq!(rows, 3 * 2_000);
    // A non-ASCII delimiter runs every line through the `str` rules.
    let rows = drive(&input(DELIMITED, 500), Some('\u{e9}'), &[0], &[1]);
    assert_eq!(rows, 500);
}

#[test]
fn lines_straddling_refills_are_read_without_allocating() {
    // One line longer than a read warms the reader's buffer; the rest,
    // of many lengths, straddle refills at every offset.
    let mut data = "w".repeat(10 * 1024).into_bytes();
    data.extend_from_slice(b" b c d\n");
    for len in (1..3_000).step_by(7) {
        data.extend_from_slice("f".repeat(len).as_bytes());
        data.extend_from_slice(b" 2 3\n");
    }
    let rows = drive(&data, None, &[0], &[1, 2]);
    assert_eq!(rows, 1 + (1..3_000).step_by(7).len() as u64);
}

#[test]
fn hash_field_alone_is_allocation_free_for_any_length() {
    let hasher = MixHasher::new(7);
    let long = "f".repeat(4096);
    let before = allocs_on_this_thread();
    let mut acc = 0u64;
    for field in ["", "short", "exactly-8", &long] {
        for _ in 0..1_000 {
            acc = acc.wrapping_add(hash_field(&hasher, field));
        }
    }
    let after = allocs_on_this_thread();
    assert_eq!(after - before, 0, "hash_field allocated (acc {acc})");
}
