//! The open-loop load generator for the serve workloads: one thread, one
//! event loop, non-blocking sockets.
//!
//! Rows go out on one or more ingest connections on a fixed schedule
//! (global row `g` is due at `g / row_rate` seconds, released in 10 ms
//! steps). HTTP requests arrive as independent Poisson processes, one
//! per request class, each on its own connection; any number may be in
//! flight at once, because serve parks every new connection until its
//! accept loop wakes (a 50 ms sleep) and a one-at-a-time client would
//! measure that sleep rather than the server. Every request is timed from
//! its scheduled send time, so a late generator shows as latency and as
//! send lag rather than vanishing.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::http;
use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::trace::SpanLog;

/// Rows due within one step go out together: serve's ingest reader and
/// writer then wake about once per step rather than once per row, so
/// per-row CPU reflects row work more than wake-ups, whose cost on a
/// shared VM moves with the neighbours.
const ROW_STEP: Duration = Duration::from_millis(10);
/// A request that has not completed this long after its scheduled send
/// time counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);

/// Rows bound for one ingest connection, in global send order.
pub struct Lane {
    pub addr: String,
    text: Vec<u8>,
    /// End offset in `text` of each local row.
    ends: Vec<usize>,
    /// Global index of each local row.
    global: Vec<usize>,
}

impl Lane {
    pub fn new(addr: String) -> Lane {
        Lane {
            addr,
            text: Vec::new(),
            ends: Vec::new(),
            global: Vec::new(),
        }
    }

    /// Appends one row (without its newline) as global row `g`.
    pub fn push(&mut self, g: usize, line: &str) {
        self.text.extend_from_slice(line.as_bytes());
        self.text.push(b'\n');
        self.ends.push(self.text.len());
        self.global.push(g);
    }
}

/// The HTTP request classes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// `GET /estimate…`: timed, and its `tuples` gives freshness.
    Estimate,
    /// `GET /healthz`: no estimator work — the HTTP path alone.
    Healthz,
    /// `POST /query` then `DELETE /query/{id}`, alternating.
    Churn,
}

impl Class {
    fn span_name(self) -> &'static str {
        match self {
            Class::Estimate => "http.estimate",
            Class::Healthz => "http.healthz",
            Class::Churn => "http.churn",
        }
    }
}

/// What to send during one run.
pub struct Plan {
    pub query_addr: String,
    pub lanes: Vec<Lane>,
    pub total_rows: usize,
    pub row_rate: f64,
    pub seconds: f64,
    /// Paths the estimate class picks from uniformly.
    pub estimate_paths: Vec<String>,
    /// Poisson rates, per second.
    pub estimate_rate: f64,
    pub healthz_rate: f64,
    pub churn_rate: f64,
    /// `kind lhs rhs` of the queries the churn class registers.
    pub churn_spec: String,
    pub seed: u64,
}

/// One timed `/estimate` answer.
pub struct Answer {
    pub latency_ms: f64,
    pub freshness_ms: f64,
}

/// Everything one run of the loop observed.
pub struct Outcome {
    pub answers: Vec<Answer>,
    pub healthz_ms: Vec<f64>,
    /// Actual minus scheduled send time of every request.
    pub lag_ms: Vec<f64>,
    pub inflight_max: usize,
    pub attempted: u64,
    pub failed: u64,
    pub churn_ops: u64,
    /// When the first row went out.
    pub started: Instant,
}

struct Flight {
    conn: TcpStream,
    class: Class,
    id: u64,
    scheduled_ns: u64,
    req: Vec<u8>,
    written: usize,
    resp: Vec<u8>,
    /// For a churn `POST`, so the reply's id can be retired later.
    registers: bool,
}

struct LaneState {
    conn: TcpStream,
    released: usize,
    sent: usize,
    written: usize,
    closed: bool,
}

/// Exponential gap of a Poisson process with `rate` per second, in ns.
fn gap_ns(rng: &mut StdRng, rate: f64) -> u64 {
    let u: f64 = rng.gen();
    (-(1.0 - u).ln() / rate * 1e9) as u64
}

/// Runs the plan to completion. Spans of every request go to `spans`
/// when one is given.
pub fn run(plan: &Plan, mut spans: Option<&mut SpanLog>) -> io::Result<Outcome> {
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x10ad_6e4e);
    let mut lanes = Vec::new();
    for lane in &plan.lanes {
        let conn = TcpStream::connect(&lane.addr)?;
        conn.set_nodelay(true)?;
        conn.set_nonblocking(true)?;
        lanes.push(LaneState {
            conn,
            released: 0,
            sent: 0,
            written: 0,
            closed: false,
        });
    }
    let mut sent_ns = vec![u64::MAX; plan.total_rows];
    let mut out = Outcome {
        answers: Vec::new(),
        healthz_ms: Vec::new(),
        lag_ms: Vec::new(),
        inflight_max: 0,
        attempted: plan.lanes.len() as u64,
        failed: 0,
        churn_ops: 0,
        started: Instant::now(),
    };
    let t0 = out.started;
    // Request spans go into the log on its own clock.
    let span_base = spans.as_deref().map_or(0, SpanLog::now);
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let end_ns = (plan.seconds * 1e9) as u64;
    let step_ns = ROW_STEP.as_nanos() as u64;
    let rates = [
        (Class::Estimate, plan.estimate_rate),
        (Class::Healthz, plan.healthz_rate),
        (Class::Churn, plan.churn_rate),
    ];
    let mut next: Vec<u64> = rates
        .iter()
        .map(|&(_, r)| {
            if r > 0.0 {
                gap_ns(&mut rng, r)
            } else {
                u64::MAX
            }
        })
        .collect();
    let mut flights: Vec<Flight> = Vec::new();
    let mut next_id = 0u64;
    let mut churn_live: Option<u64> = None;
    let mut churn_busy = false;
    let mut churn_seq = 0u64;
    let mut buf = vec![0u8; 16 * 1024];

    loop {
        let now = now_ns();

        // Rows: release what is due, write what the sockets take.
        let due = if now >= end_ns {
            plan.total_rows
        } else {
            (((now / step_ns * step_ns) as f64 * plan.row_rate / 1e9) as usize).min(plan.total_rows)
        };
        for (lane, st) in plan.lanes.iter().zip(&mut lanes) {
            while st.released < lane.global.len() && lane.global[st.released] < due {
                st.released += 1;
            }
            let target = if st.released == 0 {
                0
            } else {
                lane.ends[st.released - 1]
            };
            while st.written < target {
                match st.conn.write(&lane.text[st.written..target]) {
                    Ok(n) => st.written += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            let t = now_ns();
            while st.sent < st.released && lane.ends[st.sent] <= st.written {
                sent_ns[lane.global[st.sent]] = t;
                st.sent += 1;
            }
            if !st.closed && st.written == lane.text.len() {
                st.conn.shutdown(Shutdown::Write)?;
                st.closed = true;
            }
        }

        // Requests: open every arrival that is due.
        for (k, &(class, rate)) in rates.iter().enumerate() {
            while next[k] <= now && next[k] < end_ns {
                let scheduled_ns = next[k];
                next[k] += gap_ns(&mut rng, rate);
                let (method, path, body, registers) = match class {
                    Class::Estimate => {
                        let i = rng.gen_range(0..plan.estimate_paths.len());
                        ("GET", plan.estimate_paths[i].clone(), String::new(), false)
                    }
                    Class::Healthz => ("GET", "/healthz".to_string(), String::new(), false),
                    Class::Churn => {
                        if churn_busy {
                            continue;
                        }
                        match churn_live.take() {
                            Some(id) => ("DELETE", format!("/query/{id}"), String::new(), false),
                            None => {
                                churn_seq += 1;
                                let spec = format!("churn{churn_seq} {}", plan.churn_spec);
                                ("POST", "/query".to_string(), spec, true)
                            }
                        }
                    }
                };
                out.attempted += 1;
                next_id += 1;
                match TcpStream::connect(&plan.query_addr).and_then(|c| {
                    c.set_nonblocking(true)?;
                    Ok(c)
                }) {
                    Ok(conn) => {
                        out.lag_ms
                            .push(now_ns().saturating_sub(scheduled_ns) as f64 / 1e6);
                        churn_busy |= class == Class::Churn;
                        flights.push(Flight {
                            conn,
                            class,
                            id: next_id,
                            scheduled_ns,
                            req: http::request(method, &path, &body),
                            written: 0,
                            resp: Vec::new(),
                            registers,
                        });
                    }
                    Err(_) => out.failed += 1,
                }
            }
        }
        out.inflight_max = out.inflight_max.max(flights.len());

        let rows_done = lanes.iter().all(|st| st.closed);
        if now >= end_ns && rows_done && flights.is_empty() {
            break;
        }

        // Wait for the next socket event, arrival or row step.
        let mut fds: Vec<PollFd> = Vec::with_capacity(lanes.len() + flights.len());
        for (lane, st) in plan.lanes.iter().zip(&lanes) {
            if !st.closed && st.released > 0 && st.written < lane.ends[st.released - 1] {
                fds.push(PollFd {
                    fd: st.conn.as_raw_fd(),
                    events: POLLOUT,
                    revents: 0,
                });
            }
        }
        let lane_fds = fds.len();
        for f in &flights {
            fds.push(PollFd {
                fd: f.conn.as_raw_fd(),
                events: if f.written < f.req.len() {
                    POLLOUT
                } else {
                    POLLIN
                },
                revents: 0,
            });
        }
        let next_event = next
            .iter()
            .copied()
            .filter(|&t| t < end_ns)
            .min()
            .unwrap_or(u64::MAX);
        let next_step = (now / step_ns + 1) * step_ns;
        let wake = next_event.min(next_step).max(now);
        sys::poll(&mut fds, Duration::from_nanos(wake - now))?;

        // Progress every in-flight request (not only the ready ones: a
        // fresh request's bytes go out without waiting for POLLOUT).
        let mut i = 0;
        while i < flights.len() {
            let ready = fds[lane_fds + i].revents != 0 || flights[i].written < flights[i].req.len();
            let f = &mut flights[i];
            let mut finished: Option<Result<(), ()>> = None;
            if ready {
                while f.written < f.req.len() {
                    match f.conn.write(&f.req[f.written..]) {
                        Ok(n) => f.written += n,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            finished = Some(Err(()));
                            break;
                        }
                    }
                }
                while finished.is_none() && f.written == f.req.len() {
                    match f.conn.read(&mut buf) {
                        Ok(0) => finished = Some(Ok(())),
                        Ok(n) => f.resp.extend_from_slice(&buf[..n]),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => finished = Some(Err(())),
                    }
                }
            }
            let done_ns = now_ns();
            if finished.is_none() && done_ns - f.scheduled_ns > REQUEST_TIMEOUT.as_nanos() as u64 {
                finished = Some(Err(()));
            }
            let Some(result) = finished else {
                i += 1;
                continue;
            };
            let f = flights.swap_remove(i);
            // Swapping moved the last flight's poll entry out of place;
            // it is retried on the next pass instead.
            if i < flights.len() {
                fds[lane_fds + i].revents = 0;
            }
            if f.class == Class::Churn {
                churn_busy = false;
                out.churn_ops += 1;
            }
            if let Some(log) = spans.as_deref_mut() {
                log.record(
                    f.class.span_name(),
                    span_base + f.scheduled_ns,
                    span_base + done_ns,
                    None,
                    f.id,
                );
            }
            let reply = result.ok().and_then(|()| http::parse_response(&f.resp));
            let Some((200, body)) = reply else {
                out.failed += 1;
                continue;
            };
            let latency_ms = (done_ns - f.scheduled_ns) as f64 / 1e6;
            match f.class {
                Class::Estimate => {
                    let tuples = http::json_u64(&body, "tuples").unwrap_or(0) as usize;
                    let newest = tuples.checked_sub(1).and_then(|g| sent_ns.get(g));
                    match newest {
                        Some(&sent) if sent != u64::MAX => out.answers.push(Answer {
                            latency_ms,
                            freshness_ms: done_ns.saturating_sub(sent) as f64 / 1e6,
                        }),
                        // An answer that counts no row yet has no
                        // freshness; only its latency is kept.
                        _ => out.answers.push(Answer {
                            latency_ms,
                            freshness_ms: f64::NAN,
                        }),
                    }
                }
                Class::Healthz => out.healthz_ms.push(latency_ms),
                Class::Churn => {
                    if f.registers {
                        churn_live = http::json_u64(&body, "id");
                        if churn_live.is_none() {
                            out.failed += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}
