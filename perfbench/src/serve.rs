//! Starting, checking and stopping `implicate-serve` processes.

use std::io::{BufRead, BufReader};
use std::process::{ChildStderr, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use implicate::{EstimatorConfig, Fringe, ImplicationConditions, MultiplicityPolicy};

use crate::http;
use crate::sys::{Proc, Usage};

/// How long a process gets to announce itself or to shut down.
const DEADLINE: Duration = Duration::from_secs(30);

/// `implicate-serve`'s estimator configuration when no flag changes it.
pub fn default_config() -> EstimatorConfig {
    let cond = ImplicationConditions::builder()
        .max_multiplicity(1)
        .min_support(1)
        .top_confidence(1, 1.0)
        .multiplicity_policy(MultiplicityPolicy::Strict)
        .build();
    EstimatorConfig::new(cond)
        .bitmaps(64)
        .fringe(Fringe::Bounded(4))
        .seed(42)
}

/// A running server and its announced addresses.
pub struct Server {
    pub proc: Proc,
    pub ingest: String,
    pub query: String,
    /// Holds the read end of stderr open; drained at shutdown.
    stderr: Option<BufReader<ChildStderr>>,
}

impl Server {
    /// Spawns `implicate-serve args…` without waiting for it.
    pub fn spawn(bin: &std::path::Path, args: &[String]) -> Result<Proc, String> {
        Proc::spawn(
            Command::new(bin)
                .args(args)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped()),
        )
        .map_err(|e| format!("spawn {}: {e}", bin.display()))
    }

    /// Waits until `proc` has announced both listen addresses and, when
    /// `ready_line` is given, printed a stderr line starting with it.
    pub fn ready(mut proc: Proc, ready_line: Option<&str>) -> Result<Server, String> {
        let stdout = proc.stdout.take().expect("spawned with piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut next = |prefix: &str| -> Result<String, String> {
            let line = lines
                .next()
                .ok_or("serve exited before announcing its addresses")?
                .map_err(|e| format!("serve stdout: {e}"))?;
            line.strip_prefix(prefix)
                .map(str::to_string)
                .ok_or_else(|| format!("unexpected serve announcement {line:?}"))
        };
        let ingest = next("serve: ingest listening on ")?;
        let query = next("serve: query listening on ")?;
        let mut stderr = BufReader::new(proc.stderr.take().expect("spawned with piped stderr"));
        if let Some(prefix) = ready_line {
            let mut line = String::new();
            loop {
                line.clear();
                let n = stderr
                    .read_line(&mut line)
                    .map_err(|e| format!("serve stderr: {e}"))?;
                if n == 0 {
                    return Err(format!("serve exited before printing {prefix:?}"));
                }
                if line.starts_with(prefix) {
                    break;
                }
            }
        }
        Ok(Server {
            proc,
            ingest,
            query,
            stderr: Some(stderr),
        })
    }

    /// CPU time the server has used so far.
    pub fn cpu_so_far(&self) -> Result<Duration, String> {
        self.proc
            .cpu_so_far()
            .map_err(|e| format!("read serve CPU time: {e}"))
    }

    /// `POST /shutdown`, then waits for a clean exit. Returns what the
    /// process used; an unclean exit is an error carrying its stderr.
    pub fn shutdown(mut self) -> Result<Usage, String> {
        self.proc.sample_rss();
        http::call(&self.query, "POST", "/shutdown", "", DEADLINE)
            .map_err(|e| format!("POST /shutdown: {e}"))?;
        let (exit, by_itself) = self
            .proc
            .wait_or_kill(DEADLINE)
            .map_err(|e| format!("wait for serve: {e}"))?;
        if !by_itself || !exit.success {
            let mut text = String::new();
            if let Some(mut stderr) = self.stderr.take() {
                let _ = std::io::Read::read_to_string(&mut stderr, &mut text);
            }
            return Err(format!("serve did not shut down cleanly: {text}"));
        }
        Ok(exit.usage)
    }

    /// Polls `path` until its `tuples` reaches `want`; returns the body
    /// and the moment it was seen.
    pub fn settle(&self, path: &str, want: u64) -> Result<(String, Instant), String> {
        let start = Instant::now();
        loop {
            let (code, body) = http::call(&self.query, "GET", path, "", DEADLINE)
                .map_err(|e| format!("GET {path}: {e}"))?;
            if code != 200 {
                return Err(format!("GET {path}: status {code}"));
            }
            if http::json_u64(&body, "tuples") == Some(want) {
                return Ok((body, Instant::now()));
            }
            if start.elapsed() > DEADLINE {
                return Err(format!("GET {path} never reached {want} tuples: {body}"));
            }
        }
    }
}

/// Runs `work` on this thread while a second thread times throwaway
/// starts of the processes under test, on average one every `every`,
/// until `work` returns. `start` starts them, stops them once ready, and
/// returns how long they took to become ready. Spreading the starts over
/// the whole run keeps the set-up median from hanging on one moment of a
/// shared machine; drawing the gaps at random (uniform over half to one
/// and a half `every`, from `seed`) keeps the starts from locking onto
/// the phase of the running servers' 50 ms timers.
pub fn starts_during<T>(
    every: Duration,
    seed: u64,
    start: impl Fn() -> Result<f64, String> + Sync,
    work: impl FnOnce() -> T,
) -> (T, Result<Vec<f64>, String>) {
    // Dropping the sender ends the timer's wait at once.
    let (done, wait) = mpsc::channel::<()>();
    let start = &start;
    std::thread::scope(|s| {
        let timer = s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut secs = Vec::new();
            let mut next = Instant::now();
            loop {
                secs.push(start()?);
                next += every.mul_f64(rng.gen_range(0.5..1.5));
                let left = next.saturating_duration_since(Instant::now());
                if wait.recv_timeout(left) != Err(RecvTimeoutError::Timeout) {
                    return Ok(secs);
                }
            }
        });
        let out = work();
        drop(done);
        (out, timer.join().expect("set-up timer thread panicked"))
    })
}
