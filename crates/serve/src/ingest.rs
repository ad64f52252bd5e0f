//! Ingest connections: the line protocol (plain and catalog roles) and
//! wire-frame reassembly (aggregator role). Each connection runs on its
//! own thread and hands batches to the writer over a bounded channel.

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Arc;

use implicate::core::wire::{peek_frame, DEFAULT_MAX_FRAME_BYTES, REJECT_NODE_ID_SWITCH};
use implicate::pipeline::MakeRow;
use implicate::sketch::hash::MixHasher;
use implicate::spec::FIELD_HASHER_SEED;
use implicate::text::{Line, LineFields, LineReader, Row};
use implicate::{MetricsHandle, TraceEvent};

use crate::{Shared, POLL};

/// Rows buffered per ingest connection before a batch ships to the
/// writer.
const INGEST_BATCH: usize = 256;

/// Longest ingest line, in bytes before its `\n`. A longer line is
/// discarded through its `\n` and counted in `skipped_oversize`; the
/// connection stays open.
pub const MAX_INGEST_LINE: usize = 64 * 1024;

/// Drives one line-protocol ingest connection (the plain and catalog
/// roles): reads lines capped at [`MAX_INGEST_LINE`], hashes the leading
/// fields the role's `wanted` mask selects, and ships batches of
/// [`INGEST_BATCH`] rows made by its row maker (see
/// [`implicate::pipeline`]) to the writer. Rows too short for the maker
/// and non-UTF-8 lines count as `skipped`, oversize lines as
/// `skipped_oversize`, and none of them closes the connection.
pub fn ingest_lines<T>(
    stream: TcpStream,
    shared: &Shared,
    delimiter: Option<char>,
    (wanted, make_row): &(Vec<bool>, impl MakeRow<T>),
    tx: &SyncSender<Vec<T>>,
) {
    let mut make_row = make_row.clone();
    stream.set_read_timeout(Some(POLL)).ok();
    let mut lines = LineReader::with_cap(stream, MAX_INGEST_LINE);
    let mut fields = LineFields::new(MixHasher::new(FIELD_HASHER_SEED), delimiter);
    let (mut batch, mut rows) = (Vec::new(), 0);
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
                if rows > 0 && !ship(shared, tx, std::mem::take(&mut batch), rows) {
                    return;
                }
                rows = 0;
                if shared.stop.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => break,
        };
        let appended = match row {
            Row::Blank => continue,
            Row::Fields(row) => make_row(row, &mut batch),
            Row::NotUtf8 => false,
        };
        if !appended {
            shared.skipped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        rows += 1;
        if rows >= INGEST_BATCH {
            // The next batch starts at the size this one reached.
            let next = Vec::with_capacity(batch.len());
            if !ship(shared, tx, std::mem::replace(&mut batch, next), rows) {
                return;
            }
            rows = 0;
        }
    }
    if rows > 0 {
        ship(shared, tx, batch, rows);
    }
}

/// Counts a batch of `rows` rows as accepted and sends it to the
/// writer; false once the writer is gone.
fn ship<T>(shared: &Shared, tx: &SyncSender<Vec<T>>, batch: Vec<T>, rows: usize) -> bool {
    shared.accepted.fetch_add(rows as u64, Ordering::Relaxed);
    tx.send(batch).is_ok()
}

/// One aggregator ingest connection: reassembles wire frames off the
/// stream and hands complete frames to the writer (`metrics` is the
/// serving estimator's). The writer flips `kill` when a frame from this
/// connection fails to apply — dropping the connection is the signal
/// that makes the edge reconnect and resync with a full snapshot.
pub fn wire_ingest_connection(
    mut stream: TcpStream,
    shared: &Shared,
    metrics: &MetricsHandle,
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
                            metrics.wire.node_id_conflicts.inc();
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
