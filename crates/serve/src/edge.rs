//! The edge role's upstream side: the keep-latest ship slot the writer
//! fills, and the sender thread that ships its captures to the
//! aggregator as wire frames.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use implicate::core::wire::WireSnapshot;

use crate::{lock, Shared};

/// First reconnect delay of an edge's upstream sender; doubles per
/// failed attempt up to [`BACKOFF_CAP`].
const BACKOFF_START: Duration = Duration::from_millis(100);

/// Ceiling of the edge sender's exponential reconnect backoff.
const BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Keep-latest handoff between the writer (which captures wire
/// snapshots at the ship cadence) and the upstream sender thread. A
/// newer capture replaces an unsent older one — the wire protocol only
/// ever needs the newest state, since deltas are computed against the
/// last snapshot actually *sent*, not the previous capture.
pub struct ShipSlot {
    /// The newest unsent capture, and whether it is the writer's final
    /// one (the slot is closed: nothing more will be stored).
    state: Mutex<(Option<WireSnapshot>, bool)>,
    /// Signalled on every store, so the sender wakes as soon as a
    /// capture is ready — it never polls.
    stored: Condvar,
}

impl ShipSlot {
    pub fn new() -> Self {
        Self {
            state: Mutex::new((None, false)),
            stored: Condvar::new(),
        }
    }

    pub fn store(&self, snap: WireSnapshot) {
        lock(&self.state).0 = Some(snap);
        self.stored.notify_one();
    }

    /// Stores the writer's final capture and closes the slot.
    pub fn close(&self, snap: WireSnapshot) {
        *lock(&self.state) = (Some(snap), true);
        self.stored.notify_one();
    }

    fn take(&self) -> Option<WireSnapshot> {
        lock(&self.state).0.take()
    }

    /// Whether the writer's final capture has been taken.
    fn drained(&self) -> bool {
        matches!(*lock(&self.state), (None, true))
    }

    /// Blocks until a capture is waiting or the slot is closed.
    fn wait(&self) {
        let state = lock(&self.state);
        drop(
            self.stored
                .wait_while(state, |(latest, closed)| latest.is_none() && !*closed),
        );
    }

    /// Blocks until the slot is closed or `deadline` passes; returns
    /// whether it is closed.
    fn closed_before(&self, deadline: std::time::Instant) -> bool {
        let mut state = lock(&self.state);
        while !state.1 {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            state = match self.stored.wait_timeout(state, left) {
                Ok((state, _)) => state,
                Err(poisoned) => poisoned.into_inner().0,
            };
        }
        true
    }
}

/// Returns true when the peer has half-closed or reset the connection —
/// detected with a nonblocking 1-byte probe read (the aggregator never
/// sends application data, so any `Ok` read of 0 bytes is a FIN).
fn peer_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match (&*stream).read(&mut probe) {
        Ok(0) => true,
        Ok(_) => false, // unexpected chatter; the write path decides
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    gone || stream.set_nonblocking(false).is_err()
}

/// The edge's upstream sender: connects to the aggregator with capped
/// exponential backoff and ships every snapshot the writer hands over —
/// a **full** frame right after each (re)connect, **deltas** against
/// the last sent snapshot afterwards. Any send failure drops the
/// connection and clears the delta base, so the next frame after a
/// reconnect is always full: a delta the aggregator never applied can
/// never poison the resync.
///
/// Runs until the writer's final capture ([`ShipSlot::close`]) has
/// shipped, so a graceful shutdown always delivers the final state.
pub fn edge_sender(upstream: &str, node_id: u64, slot: &ShipSlot, shared: &Shared) {
    let mut conn: Option<TcpStream> = None;
    let mut base: Option<WireSnapshot> = None;
    let mut backoff = BACKOFF_START;
    let mut pending: Option<WireSnapshot> = None;
    loop {
        if pending.is_none() {
            pending = slot.take();
        }
        let Some(snap) = pending.as_ref() else {
            if slot.drained() {
                return;
            }
            slot.wait();
            continue;
        };

        // (Re)connect if needed; detect a silently-dead peer first so a
        // restarted aggregator gets a full frame instead of a delta
        // written into a black hole.
        if conn.as_ref().is_some_and(peer_gone) {
            conn = None;
            if let Some(edge) = &shared.edge {
                edge.set_connected(false);
            }
        }
        // The connection is taken for the write and put back only when
        // the write succeeds.
        let mut stream = match conn.take() {
            Some(stream) => stream,
            None => {
                base = None;
                match TcpStream::connect(upstream) {
                    Ok(stream) => {
                        stream.set_nodelay(true).ok();
                        backoff = BACKOFF_START;
                        if let Some(edge) = &shared.edge {
                            edge.record_connect();
                        }
                        stream
                    }
                    Err(_) => {
                        if let Some(edge) = &shared.edge {
                            edge.record_backoff(backoff.as_millis() as u64);
                        }
                        // Don't spin while unreachable — but stay
                        // responsive to shutdown: with the aggregator
                        // unreachable when the writer closes the slot,
                        // the state is lost to this session, as
                        // documented — exit rather than hang.
                        if slot.closed_before(std::time::Instant::now() + backoff) {
                            return;
                        }
                        backoff = (backoff * 2).min(BACKOFF_CAP);
                        continue;
                    }
                }
            }
        };

        let is_full = base.is_none();
        let frame = match &base {
            Some(b) => snap.delta_frame(b, node_id),
            None => snap.full_frame(node_id),
        };
        let write_started = std::time::Instant::now();
        match stream.write_all(&frame).and_then(|()| stream.flush()) {
            Ok(()) => {
                if let Some(edge) = &shared.edge {
                    edge.record_ship(
                        frame.len() as u64,
                        is_full,
                        write_started.elapsed().as_nanos() as u64,
                        shared.now_ms(),
                    );
                }
                conn = Some(stream);
                base = pending.take();
                if slot.drained() {
                    return;
                }
            }
            Err(_) => {
                // The connection drops with `stream`. Keep `pending`: it
                // resends as a full frame once the connection is back.
                if let Some(edge) = &shared.edge {
                    edge.record_send_error();
                }
            }
        }
    }
}
