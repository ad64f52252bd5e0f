//! Ingest connections: the line protocol (plain and catalog roles) and
//! wire-frame reassembly (aggregator role). Each connection runs on its
//! own thread and hands batches to the writer over a bounded channel.

use std::io::{BufReader, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use implicate::core::wire::{peek_frame, DEFAULT_MAX_FRAME_BYTES, REJECT_NODE_ID_SWITCH};
use implicate::sketch::hash::MixHasher;
use implicate::text::{project, wanted_columns, Line, LineFields, LineReader, Row};
use implicate::{PairHasher, TraceEvent, Tuple};

use crate::{Shared, FIELD_HASHER_SEED, POLL};

/// Rows buffered per ingest connection before a batch ships to the
/// writer.
const INGEST_BATCH: usize = 256;

/// Longest ingest line, in bytes before its `\n`. A longer line is
/// discarded through its `\n` and counted in `skipped_oversize`; the
/// connection stays open.
pub const MAX_INGEST_LINE: usize = 64 * 1024;

/// One catalog ingest connection: every line becomes a full
/// `--arity`-wide tuple of field fingerprints (narrower rows are
/// skipped), so any query registered now *or later in the stream* is
/// answered from the same pass.
pub fn catalog_ingest_connection(
    stream: TcpStream,
    shared: &Shared,
    arity: usize,
    delimiter: Option<char>,
    tx: &SyncSender<Vec<Tuple>>,
) {
    ingest_lines(stream, shared, delimiter, &vec![true; arity], tx, |row| {
        (row.len() >= arity).then(|| Tuple::new(row))
    });
}

/// Drives one line-protocol ingest connection: reads lines capped at
/// [`MAX_INGEST_LINE`], hashes the leading fields `wanted` selects, and
/// batches what `make_row` builds from them to the writer. `make_row`
/// returns `None` for a row too short for it; such rows and non-UTF-8
/// lines count as `skipped`, oversize lines as `skipped_oversize`, and
/// none of them closes the connection.
fn ingest_lines<T>(
    stream: TcpStream,
    shared: &Shared,
    delimiter: Option<char>,
    wanted: &[bool],
    tx: &SyncSender<Vec<T>>,
    mut make_row: impl FnMut(&[u64]) -> Option<T>,
) {
    stream.set_read_timeout(Some(POLL)).ok();
    let mut lines = LineReader::with_cap(BufReader::new(stream), MAX_INGEST_LINE);
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), delimiter);
    let mut batch = Vec::with_capacity(INGEST_BATCH);
    loop {
        let row = match lines.next_line() {
            Ok(Line::Text(line)) => fields.hash_line(line, wanted),
            Ok(Line::Oversize) => {
                shared.skipped_oversize.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            Ok(Line::Eof) => break, // EOF: client done.
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // The read timed out; the reader keeps any partial line
                // and the next read resumes it. Flush what we have so
                // slow trickles still become visible, then check for
                // stop.
                if !batch.is_empty() && tx.send(std::mem::take(&mut batch)).is_err() {
                    return;
                }
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => break,
        };
        let made = match row {
            Row::Blank => continue,
            Row::Fields(row) => make_row(row),
            Row::NotUtf8 => None,
        };
        let Some(made) = made else {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        batch.push(made);
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        if batch.len() >= INGEST_BATCH {
            let full = std::mem::replace(&mut batch, Vec::with_capacity(INGEST_BATCH));
            if tx.send(full).is_err() {
                return;
            }
        }
    }
    if !batch.is_empty() {
        let _ = tx.send(batch);
    }
}

/// One aggregator ingest connection: reassembles wire frames off the
/// stream and hands complete frames to the writer. The writer flips
/// `kill` when a frame from this connection fails to apply — dropping
/// the connection is the signal that makes the edge reconnect and
/// resync with a full snapshot.
pub fn wire_ingest_connection(
    mut stream: TcpStream,
    shared: &Shared,
    tx: &SyncSender<(bytes::Bytes, Arc<AtomicBool>)>,
) {
    stream.set_read_timeout(Some(POLL)).ok();
    let kill = Arc::new(AtomicBool::new(false));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    // The connection pins itself to the first node_id it presents; a
    // frame declaring a different id mid-connection is rejected and
    // drops the connection. Nothing authenticates the *first* claim
    // (trusted-network protocol, as WIRE.md states), but a pinned
    // connection can no longer impersonate other nodes or smear one
    // edge's stream across several registry entries.
    let mut pinned: Option<u64> = None;
    loop {
        if kill.load(Ordering::Acquire) || shared.stop.load(Ordering::Acquire) {
            return; // dropping the stream sends the edge its FIN
        }
        // Drain every complete frame currently buffered.
        loop {
            match peek_frame(&buf) {
                Ok(Some(header)) => {
                    if header.body_len > DEFAULT_MAX_FRAME_BYTES as u64 {
                        return;
                    }
                    match pinned {
                        None => {
                            pinned = Some(header.node_id);
                            if let Some(fleet) = &shared.fleet {
                                fleet.record_connect(header.node_id, shared.now_ms());
                            }
                        }
                        Some(p) if p != header.node_id => {
                            shared.metrics.wire.node_id_conflicts.inc();
                            shared.trace.record(|| TraceEvent::FrameRejected {
                                node: p,
                                error: REJECT_NODE_ID_SWITCH,
                                epoch: header.epoch,
                            });
                            if let Some(fleet) = &shared.fleet {
                                fleet.record_id_conflict(p);
                            }
                            eprintln!(
                                "implicate-serve: connection pinned to node {p} sent a \
                                 frame claiming node {} — dropping connection",
                                header.node_id
                            );
                            return;
                        }
                        Some(_) => {}
                    }
                    let total = header.frame_len();
                    if buf.len() < total {
                        break;
                    }
                    let rest = buf.split_off(total);
                    let frame = bytes::Bytes::from(std::mem::replace(&mut buf, rest));
                    if tx.send((frame, Arc::clone(&kill))).is_err() {
                        return;
                    }
                }
                Ok(None) => break,
                Err(_) => return, // not wire traffic; hang up
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // edge closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => return,
        }
    }
}

/// One ingest connection: parse lines, hash pairs, ship batches.
pub fn ingest_connection(
    stream: TcpStream,
    shared: &Shared,
    lhs: &[usize],
    rhs: &[usize],
    delimiter: Option<char>,
    pair_hasher: PairHasher,
    tx: &SyncSender<Vec<(u64, u64)>>,
) {
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    let wanted = wanted_columns(&[lhs, rhs]);
    ingest_lines(stream, shared, delimiter, &wanted, tx, |row| {
        (project(row, lhs, &mut buf_a) && project(row, rhs, &mut buf_b))
            .then(|| pair_hasher.hash_pair(&buf_a, &buf_b))
    });
}
