//! The HTTP/1.0 front-end of `implicate-serve`: a bounded request-head
//! parser and a fixed pool of query workers fed by a blocking acceptor.
//!
//! * **Acceptor.** [`serve`] blocks in `accept` — a request wakes the
//!   server the moment it arrives, with no polling interval — and hands
//!   each connection to the pool through a bounded queue. When the
//!   queue is full the acceptor answers `503 Service Unavailable` with
//!   `Retry-After: 1` itself, so the number of connections the server
//!   holds is capped at [`QUERY_WORKERS`] + [`QUEUE_DEPTH`].
//! * **Pool.** [`QUERY_WORKERS`] threads each own one handler built by
//!   the caller's factory (per-thread state such as a `!Sync` view
//!   reader lives there). Every connection runs under `catch_unwind`: a
//!   panicking request costs that connection, never a worker.
//! * **Head reads.** [`answer`] reads the head through a 1 KiB buffer up
//!   to [`MAX_HEAD`] bytes (`431` past that), and the whole request
//!   within one 2 s deadline; bytes read past the head terminator are
//!   the start of the body, so a client may send head and body in one
//!   segment. [`parse_head`] is the pure parser underneath, fuzzed on
//!   its own.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Query worker threads serving accepted connections.
pub const QUERY_WORKERS: usize = 4;

/// Accepted connections that may wait for a free worker; past this the
/// acceptor answers `503` with `Retry-After: 1`.
pub const QUEUE_DEPTH: usize = 64;

/// Bytes requested per `read` while looking for the end of the head.
const HEAD_CHUNK: usize = 1024;

/// Largest accepted request head (request line plus headers, including
/// the blank line that ends it); a longer head gets `431`.
pub const MAX_HEAD: usize = 8192;

/// Largest accepted request body (`Content-Length`); larger gets `413`.
const MAX_BODY: usize = 65_536;

/// Time a client has to deliver the whole request, head and body.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Time a response write may block on a client that does not read.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Pause after a failed `accept` (e.g. out of file descriptors).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Bytes discarded, at most, while closing a connection whose request
/// was refused unread (see [`linger_close`]).
const LINGER_BYTES: usize = 65_536;

/// A parsed request head, borrowing the buffer it was parsed from.
#[derive(Debug, PartialEq, Eq)]
pub struct Head<'a> {
    /// Request method, e.g. `GET`.
    pub method: &'a str,
    /// Request path without the query string, e.g. `/estimate`.
    pub route: &'a str,
    /// Everything after the first `?` of the target (empty if none).
    pub query: &'a str,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: usize,
    /// Bytes of the buffer the head occupies, terminator included; the
    /// body starts here.
    pub len: usize,
}

/// Why a request head was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadError {
    /// The head exceeds [`MAX_HEAD`] bytes.
    TooLarge,
    /// The head is not a well-formed HTTP request head.
    Malformed(&'static str),
}

impl HeadError {
    fn response(self) -> Response {
        match self {
            HeadError::TooLarge => Response::text(
                "431 Request Header Fields Too Large",
                format!("request head over {MAX_HEAD} bytes\n"),
            ),
            HeadError::Malformed(why) => Response::text("400 Bad Request", format!("{why}\n")),
        }
    }
}

/// Offset just past the blank line ending the head (`\n\n` or
/// `\n\r\n`), if the buffer holds one.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.iter().enumerate().find_map(|(i, &b)| {
        if b != b'\n' {
            return None;
        }
        match &buf[i + 1..] {
            [b'\n', ..] => Some(i + 2),
            [b'\r', b'\n', ..] => Some(i + 3),
            _ => None,
        }
    })
}

/// Parses a request head from the start of `buf`.
///
/// Returns `Ok(None)` while the head is still incomplete and within
/// [`MAX_HEAD`]; bytes past the head (the body) are left alone.
pub fn parse_head(buf: &[u8]) -> Result<Option<Head<'_>>, HeadError> {
    let Some(len) = head_end(buf) else {
        return if buf.len() > MAX_HEAD {
            Err(HeadError::TooLarge)
        } else {
            Ok(None)
        };
    };
    if len > MAX_HEAD {
        return Err(HeadError::TooLarge);
    }
    let text = std::str::from_utf8(&buf[..len])
        .map_err(|_| HeadError::Malformed("request head is not UTF-8"))?;
    let mut lines = text.lines();
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(HeadError::Malformed("expected `METHOD /path HTTP/1.x`"));
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HeadError::Malformed("bad request method"));
    }
    if !target.starts_with('/') {
        return Err(HeadError::Malformed("request target must start with `/`"));
    }
    let (route, query) = target.split_once('?').unwrap_or((target, ""));
    let mut content_length = None;
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or(HeadError::Malformed("header line without `:`"))?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            let n = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HeadError::Malformed("bad Content-Length"))?;
            if content_length.is_some_and(|seen| seen != n) {
                return Err(HeadError::Malformed("conflicting Content-Length"));
            }
            content_length = Some(n);
        }
    }
    Ok(Some(Head {
        method,
        route,
        query,
        content_length: content_length.unwrap_or(0),
        len,
    }))
}

/// One request, read in full.
#[derive(Debug)]
pub struct Request {
    /// Request method, e.g. `GET`.
    pub method: String,
    /// Request path without the query string.
    pub route: String,
    /// Everything after the first `?` of the target (empty if none).
    pub query: String,
    /// Exactly `Content-Length` bytes of body.
    pub body: Vec<u8>,
}

/// One response; always sent with `Connection: close`.
#[derive(Debug)]
pub struct Response {
    /// Status line tail, e.g. `200 OK`.
    pub status: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// One extra header line without its CRLF (e.g. `Allow: POST`), or
    /// empty.
    pub header: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with the given status, content type and body.
    pub fn new(status: &'static str, content_type: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Self {
            status,
            content_type,
            header: "",
            body: body.into(),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: &'static str, body: impl Into<Vec<u8>>) -> Self {
        Self::new(status, "text/plain", body)
    }

    /// Adds one extra header line (without CRLF).
    pub fn with_header(mut self, line: &'static str) -> Self {
        self.header = line;
        self
    }

    /// Writes the response in one `write` (a separate small body write
    /// could wait on the client's delayed ACK); errors mean the client
    /// went away.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let extra = if self.header.is_empty() { "" } else { "\r\n" };
        let mut out = format!(
            "HTTP/1.0 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}{extra}\
             Connection: close\r\n\r\n",
            self.status,
            self.content_type,
            self.body.len(),
            self.header,
        )
        .into_bytes();
        out.extend_from_slice(&self.body);
        stream.write_all(&out)
    }
}

/// Why [`read_request`] produced no request.
enum ReadFailure {
    /// Answer with this response, then close.
    Reply(Response),
    /// The client left (or never spoke); close without answering.
    Hangup,
}

/// Reads into `chunk` before `deadline`; `Ok(0)` is end of stream.
fn read_before(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
) -> Result<usize, ReadFailure> {
    let left = deadline.saturating_duration_since(Instant::now());
    let timed_out = || {
        ReadFailure::Reply(Response::text(
            "408 Request Timeout",
            "request not received in time\n",
        ))
    };
    if left.is_zero() {
        return Err(timed_out());
    }
    stream
        .set_read_timeout(Some(left))
        .map_err(|_| ReadFailure::Hangup)?;
    loop {
        match stream.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                return Err(timed_out())
            }
            Err(_) => return Err(ReadFailure::Hangup),
        }
    }
}

/// Reads one request: the head through a [`HEAD_CHUNK`] buffer capped at
/// [`MAX_HEAD`], then exactly `Content-Length` body bytes (counting any
/// read past the head), all within [`HEAD_DEADLINE`].
fn read_request(stream: &mut TcpStream) -> Result<Request, ReadFailure> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut buf = Vec::with_capacity(HEAD_CHUNK);
    let mut chunk = [0u8; HEAD_CHUNK];
    let (mut request, head_len, content_length) = loop {
        match parse_head(&buf) {
            Ok(Some(head)) => {
                let request = Request {
                    method: head.method.to_string(),
                    route: head.route.to_string(),
                    query: head.query.to_string(),
                    body: Vec::new(),
                };
                break (request, head.len, head.content_length);
            }
            Ok(None) => {}
            Err(e) => return Err(ReadFailure::Reply(e.response())),
        }
        match read_before(stream, &mut chunk, deadline)? {
            0 if buf.is_empty() => return Err(ReadFailure::Hangup),
            0 => {
                return Err(ReadFailure::Reply(Response::text(
                    "400 Bad Request",
                    "connection closed inside the request head\n",
                )))
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    };
    if content_length > MAX_BODY {
        return Err(ReadFailure::Reply(Response::text(
            "413 Payload Too Large",
            format!("request body over {MAX_BODY} bytes\n"),
        )));
    }
    buf.drain(..head_len);
    buf.truncate(content_length);
    while buf.len() < content_length {
        let want = (content_length - buf.len()).min(HEAD_CHUNK);
        match read_before(stream, &mut chunk[..want], deadline)? {
            0 => {
                return Err(ReadFailure::Reply(Response::text(
                    "400 Bad Request",
                    "connection closed inside the request body\n",
                )))
            }
            n => buf.extend_from_slice(&chunk[..n]),
        }
    }
    request.body = buf;
    Ok(request)
}

/// Closes a connection whose request may be partly unread: half-closes
/// so the response is delivered, then discards what the client is still
/// sending (bounded in bytes and time). Closing with unread bytes queued
/// would reset the connection and could destroy the response in flight.
fn linger_close(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut sink = [0u8; HEAD_CHUNK];
    let mut drained = 0;
    while drained < LINGER_BYTES {
        match read_before(&mut stream, &mut sink, deadline) {
            Ok(n) if n > 0 => drained += n,
            _ => return,
        }
    }
}

/// Answers one connection: reads the request, routes it through
/// `route`, writes the response and closes.
pub fn answer(mut stream: TcpStream, route: impl FnOnce(&Request) -> Response) {
    stream.set_write_timeout(Some(WRITE_TIMEOUT)).ok();
    match read_request(&mut stream) {
        Ok(request) => {
            let _ = route(&request).write_to(&mut stream);
        }
        Err(ReadFailure::Reply(refusal)) => {
            let _ = refusal.write_to(&mut stream);
            linger_close(stream);
        }
        Err(ReadFailure::Hangup) => {}
    }
}

/// Refuses a connection the pool has no room for, from the acceptor
/// thread itself; never blocks on the client.
fn refuse_busy(mut stream: TcpStream) {
    // Take whatever part of the request already arrived so the close
    // below is less likely to reset the connection over unread bytes.
    if stream.set_nonblocking(true).is_ok() {
        let mut sink = [0u8; HEAD_CHUNK];
        for _ in 0..MAX_HEAD / HEAD_CHUNK {
            if !matches!(stream.read(&mut sink), Ok(n) if n > 0) {
                break;
            }
        }
    }
    let busy = Response::text("503 Service Unavailable", "server busy, retry shortly\n")
        .with_header("Retry-After: 1");
    let _ = busy.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
}

/// One pool worker: takes connections off the shared queue and runs
/// each under `catch_unwind`, so a panic drops that connection but
/// never the worker.
fn worker(queue: &Mutex<Receiver<TcpStream>>, mut handle: impl FnMut(TcpStream)) {
    loop {
        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(stream) = next else {
            return; // acceptor gone
        };
        let _ = catch_unwind(AssertUnwindSafe(|| handle(stream)));
    }
}

/// Blocking accept loop: hands each connection to `handle` the moment it
/// arrives, forever. Shared by the query acceptor and the ingest
/// listeners; the process exits around it at shutdown.
pub fn accept_loop(listener: &TcpListener, mut handle: impl FnMut(TcpStream)) {
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => handle(stream),
            // E.g. out of file descriptors: the pending connection stays
            // queued, so back off instead of spinning on the same error.
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Serves `listener` on the calling thread, forever: a blocking accept
/// loop that hands each connection to one of `workers` threads through
/// a queue of `depth`, answering `503` itself when the queue is full.
///
/// Each worker calls `make` once for its own handler, so handlers may
/// hold non-`Sync` state. Workers start with the first `workers`
/// connections, so a server that is never queried never starts them.
pub fn serve<H, M>(listener: &TcpListener, workers: usize, depth: usize, make: M)
where
    H: FnMut(TcpStream) + 'static,
    M: Fn() -> H + Send + Sync + 'static,
{
    let (tx, rx) = sync_channel::<TcpStream>(depth);
    let queue = Arc::new(Mutex::new(rx));
    let make = Arc::new(make);
    let mut started = 0;
    accept_loop(listener, |stream| {
        if started < workers.max(1) {
            started += 1;
            let (queue, make) = (Arc::clone(&queue), Arc::clone(&make));
            std::thread::spawn(move || worker(&queue, make()));
        }
        if let Err(TrySendError::Full(stream)) = tx.try_send(stream) {
            refuse_busy(stream);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn head(raw: &str) -> Head<'_> {
        parse_head(raw.as_bytes())
            .expect("valid")
            .expect("complete")
    }

    #[test]
    fn parses_route_query_and_length() {
        let raw = "POST /query?x=1 HTTP/1.0\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello";
        let h = head(raw);
        assert_eq!((h.method, h.route, h.query), ("POST", "/query", "x=1"));
        assert_eq!(h.content_length, 5);
        assert_eq!(&raw[h.len..], "hello");
        let h = head("GET /healthz\n\n");
        assert_eq!(
            (h.method, h.route, h.content_length),
            ("GET", "/healthz", 0)
        );
    }

    #[test]
    fn incomplete_oversize_and_malformed_heads() {
        assert_eq!(parse_head(b"GET /estimate HTTP/1.0\r\n"), Ok(None));
        assert_eq!(parse_head(b""), Ok(None));
        let long = format!("GET /{} HTTP/1.0\r\n", "a".repeat(MAX_HEAD));
        assert_eq!(parse_head(long.as_bytes()), Err(HeadError::TooLarge));
        let complete_but_long = format!("{long}\r\n");
        assert_eq!(
            parse_head(complete_but_long.as_bytes()),
            Err(HeadError::TooLarge)
        );
        for bad in [
            "\r\n\r\n",
            "GET\r\n\r\n",
            "get /x HTTP/1.0\r\n\r\n",
            "GET ?x HTTP/1.0\r\n\r\n",
            "GET /x HTTP/1.0\r\nno colon\r\n\r\n",
            "GET /x HTTP/1.0\r\nContent-Length: -1\r\n\r\n",
            "GET /x HTTP/1.0\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
        ] {
            assert!(
                matches!(parse_head(bad.as_bytes()), Err(HeadError::Malformed(_))),
                "{bad:?}"
            );
        }
        assert!(matches!(
            parse_head(b"GET /\xff HTTP/1.0\r\n\r\n"),
            Err(HeadError::Malformed(_))
        ));
    }

    fn get(addr: std::net::SocketAddr) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(b"GET /healthz HTTP/1.0\r\n\r\n")
            .expect("send");
        let mut out = String::new();
        let _ = conn.read_to_string(&mut out);
        out
    }

    #[test]
    fn a_full_queue_is_refused_with_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new((started_tx, release_rx)));
        std::thread::spawn(move || {
            // One worker and room for one waiting connection.
            serve(&listener, 1, 1, move || {
                let gate = Arc::clone(&gate);
                move |stream| {
                    {
                        let gate = gate.lock().unwrap();
                        gate.0.send(()).unwrap();
                        gate.1.recv().unwrap();
                    }
                    answer(stream, |_| Response::text("200 OK", "ok\n"));
                }
            });
        });
        let busy = std::thread::spawn(move || get(addr));
        started_rx
            .recv()
            .expect("worker picked up the first connection");
        // The worker is held, so this one waits in the queue...
        let queued = std::thread::spawn(move || get(addr));
        std::thread::sleep(Duration::from_millis(100));
        // ...and the next finds the queue full.
        let refused = get(addr);
        assert!(refused.starts_with("HTTP/1.0 503"), "{refused:?}");
        assert!(refused.contains("\r\nRetry-After: 1\r\n"), "{refused:?}");
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        for conn in [busy, queued] {
            let answered = conn.join().unwrap();
            assert!(answered.starts_with("HTTP/1.0 200 OK"), "{answered:?}");
        }
    }

    #[test]
    fn a_panicking_handler_neither_kills_nor_shrinks_the_pool() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let panicked = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&panicked);
        std::thread::spawn(move || {
            // One worker: if the panic took it down, nothing would
            // answer the second connection.
            serve(&listener, 1, 4, move || {
                let flag = Arc::clone(&flag);
                move |stream| {
                    if !flag.swap(true, Ordering::SeqCst) {
                        panic!("first connection panics on purpose");
                    }
                    answer(stream, |_| Response::text("200 OK", "ok\n"));
                }
            });
        });
        let first = get(addr);
        assert!(
            first.is_empty(),
            "the panicking connection is dropped: {first:?}"
        );
        assert!(panicked.load(Ordering::SeqCst));
        let second = get(addr);
        assert!(second.starts_with("HTTP/1.0 200 OK"), "{second:?}");
        assert!(second.ends_with("ok\n"), "{second:?}");
    }
}
