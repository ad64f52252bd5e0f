//! The harness every `implicate-serve` end-to-end test shares: a
//! [`Server`] child process with its ingest and query ports, the flat
//! JSON readers its answers need, and the library run a served estimate
//! must match bit for bit. Each test binary uses part of it.

#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use implicate::sketch::hash::MixHasher;
use implicate::{
    EstimatorConfig, Fringe, ImplicationConditions, ImplicationEstimator, MultiplicityPolicy,
};

/// Must match the service's field-hasher seed (shared with the CLI).
pub const FIELD_HASHER_SEED: u64 = 0x00f1_e1d5;

pub const DEADLINE: Duration = Duration::from_secs(60);

/// Kills the child process if the test panics before shutdown.
pub struct Server {
    pub child: Child,
    pub ingest: String,
    pub query: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns the binary with `extra` options and reads the announced
    /// listener addresses off stdout.
    pub fn spawn(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_implicate-serve"))
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn implicate-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = std::io::BufRead::lines(std::io::BufReader::new(stdout));
        let mut next = || {
            lines
                .next()
                .expect("server announced an address")
                .expect("readable stdout")
        };
        let ingest = next()
            .strip_prefix("serve: ingest listening on ")
            .expect("ingest announcement")
            .to_string();
        let query = next()
            .strip_prefix("serve: query listening on ")
            .expect("query announcement")
            .to_string();
        Server {
            child,
            ingest,
            query,
        }
    }

    /// Sends rows over the ingest socket and closes the connection.
    pub fn ingest_rows(&self, rows: &str) {
        self.ingest_bytes(rows.as_bytes());
    }

    /// Sends raw bytes over one ingest connection and closes it.
    pub fn ingest_bytes(&self, bytes: &[u8]) {
        let mut conn = TcpStream::connect(&self.ingest).expect("connect ingest");
        conn.write_all(bytes).expect("send rows");
        conn.flush().expect("flush rows");
        // Dropping the stream closes it; the server flushes on EOF.
    }

    /// One HTTP request; returns (status line, body).
    pub fn http(&self, method: &str, path: &str) -> (String, Vec<u8>) {
        let (head, body) =
            self.raw(format!("{method} {path} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes());
        let status = head.lines().next().unwrap_or("").to_string();
        (status, body)
    }

    /// One HTTP request carrying `body` with its `Content-Length`;
    /// returns (status line, body).
    pub fn request(&self, method: &str, path: &str, body: &str) -> (String, String) {
        let (head, response) = self.raw(
            format!(
                "{method} {path} HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        let status = head.lines().next().unwrap_or("").to_string();
        (status, String::from_utf8_lossy(&response).into_owned())
    }

    /// A `GET` through [`Server::request`].
    pub fn get(&self, path: &str) -> (String, String) {
        self.request("GET", path, "")
    }

    /// Sends `request` verbatim; returns (response head, body).
    pub fn raw(&self, request: &[u8]) -> (String, Vec<u8>) {
        let mut conn = TcpStream::connect(&self.query).expect("connect query");
        conn.write_all(request).expect("send request");
        let mut response = Vec::new();
        conn.read_to_end(&mut response).expect("read response");
        let split = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("header terminator");
        let head = String::from_utf8_lossy(&response[..split]).into_owned();
        (head, response[split + 4..].to_vec())
    }

    /// The `/status` body.
    pub fn status_body(&self) -> String {
        let (status, body) = self.http("GET", "/status");
        assert!(status.contains("200"), "status failed: {status}");
        String::from_utf8(body).expect("status is utf8 json")
    }

    /// Polls `/status` until `pred` holds on the body, returning it.
    pub fn wait_status(&self, what: &str, pred: impl Fn(&str) -> bool) -> String {
        let start = Instant::now();
        loop {
            let body = self.status_body();
            if pred(&body) {
                return body;
            }
            assert!(
                start.elapsed() < DEADLINE,
                "timed out waiting for {what}; last status: {body}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Polls `/estimate` until the published tuple count reaches `want`
    /// — on an aggregator that means every edge's latest state (at that
    /// stream position) has arrived and been merged.
    pub fn wait_for_tuples(&self, want: u64) -> String {
        let start = Instant::now();
        loop {
            let (status, body) = self.http("GET", "/estimate");
            assert!(status.contains("200"), "estimate failed: {status}");
            let body = String::from_utf8(body).expect("json body");
            if json_u64(&body, "tuples") == want {
                return body;
            }
            assert!(
                start.elapsed() < DEADLINE,
                "timed out waiting for {want} tuples; last: {body}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Graceful stop; asserts the process exits cleanly.
    pub fn shutdown(mut self) {
        let (status, _) = self.http("POST", "/shutdown");
        assert!(status.contains("200"), "shutdown failed: {status}");
        let start = Instant::now();
        loop {
            if let Some(code) = self.child.try_wait().expect("try_wait") {
                assert!(code.success(), "server exited with {code}");
                return;
            }
            assert!(start.elapsed() < DEADLINE, "server never exited");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Pulls an unsigned integer field out of a flat JSON object (no
/// nesting, no string values with digits).
pub fn json_u64(body: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = body.find(&pat).unwrap_or_else(|| panic!("{key} in {body}"));
    body[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key} in {body}"))
}

/// String field out of a flat JSON object.
pub fn field_str(obj: &str, key: &str) -> String {
    let pat = format!("\"{key}\":\"");
    let at = obj.find(&pat).unwrap_or_else(|| panic!("{key} in {obj}"));
    obj[at + pat.len()..]
        .chars()
        .take_while(|&c| c != '"')
        .collect()
}

/// Extracts node `id`'s JSON object from a `/status` body (node objects
/// are flat, so the first `}` closes them).
pub fn node_json(body: &str, id: u64) -> Option<String> {
    let pat = format!("{{\"node_id\":{id},");
    let at = body.find(&pat)?;
    let end = body[at..].find('}')? + at;
    Some(body[at..=end].to_string())
}

pub fn node_health(body: &str, id: u64) -> String {
    let obj = node_json(body, id).unwrap_or_else(|| panic!("node {id} in {body}"));
    field_str(&obj, "health")
}

/// The service's default conditions/config, mirrored for a library run
/// (and so test-built wire frames pass an aggregator's
/// `require_matching` check).
pub fn serve_default_config() -> EstimatorConfig {
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

/// Rows with enough repetition to exercise both implication outcomes.
pub fn workload(n: u64) -> String {
    let mut rows = String::new();
    for i in 0..n {
        let a = if i % 3 == 0 { i % 40 } else { i };
        rows.push_str(&format!("u{a} v{}\n", i % 7));
    }
    rows
}

/// Feeds the same rows through the same text → fingerprint → pair-hash
/// path the service uses and returns the resulting estimator.
pub fn library_run(rows: &str) -> ImplicationEstimator {
    let mut est = serve_default_config().build();
    let field_hasher = MixHasher::new(FIELD_HASHER_SEED);
    let pair_hasher = est.pair_hasher();
    for line in rows.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let a = [implicate::text::hash_field(&field_hasher, fields[0])];
        let b = [implicate::text::hash_field(&field_hasher, fields[1])];
        let (h_a, b_fp) = pair_hasher.hash_pair(&a, &b);
        est.update_hashed(h_a, b_fp);
    }
    est
}

/// Asserts the served estimate carries exactly the library run's bits.
pub fn assert_bits_match(body: &str, est: &ImplicationEstimator) {
    let want = est.estimate_now();
    assert_eq!(json_u64(body, "f0_sup_bits"), want.f0_sup.to_bits());
    assert_eq!(
        json_u64(body, "non_implication_count_bits"),
        want.non_implication_count.to_bits()
    );
    assert_eq!(
        json_u64(body, "implication_count_bits"),
        want.implication_count.to_bits()
    );
}
