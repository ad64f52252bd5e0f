//! End-to-end coverage of the catalog role (DESIGN.md §8.8) and of the
//! edge idle keep-alive: a quiet-but-connected edge must stay `live`
//! on the aggregator's registry instead of decaying to `stale` for
//! mere quietness.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use implicate::lint_prometheus;

const DEADLINE: Duration = Duration::from_secs(60);

/// Kills the child process if the test panics before shutdown.
struct Server {
    child: Child,
    ingest: String,
    query: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    fn spawn(extra: &[&str]) -> Server {
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

    fn ingest_rows(&self, rows: &str) {
        let mut conn = TcpStream::connect(&self.ingest).expect("connect ingest");
        conn.write_all(rows.as_bytes()).expect("send rows");
        conn.flush().expect("flush rows");
    }

    /// One HTTP exchange; returns (status line, body).
    fn http(&self, method: &str, path: &str, body: &str) -> (String, String) {
        let mut conn = TcpStream::connect(&self.query).expect("connect query");
        conn.write_all(
            format!(
                "{method} {path} HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
        let mut response = Vec::new();
        conn.read_to_end(&mut response).expect("read response");
        let split = response
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("header terminator");
        let head = String::from_utf8_lossy(&response[..split]);
        let status = head.lines().next().unwrap_or("").to_string();
        (
            status,
            String::from_utf8_lossy(&response[split + 4..]).into_owned(),
        )
    }

    fn get(&self, path: &str) -> (String, String) {
        self.http("GET", path, "")
    }

    /// Polls `/status` until `pred` holds on the body, returning it.
    fn wait_status(&self, what: &str, pred: impl Fn(&str) -> bool) -> String {
        let start = Instant::now();
        loop {
            let (status, body) = self.get("/status");
            assert!(status.contains("200"), "status failed: {status}");
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
}

/// Extracts node `id`'s JSON object from a `/status` body (node objects
/// are flat, so the first `}` closes them).
fn node_json(body: &str, id: u64) -> Option<String> {
    let pat = format!("{{\"node_id\":{id},");
    let at = body.find(&pat)?;
    let end = body[at..].find('}')? + at;
    Some(body[at..=end].to_string())
}

/// Numeric field out of a flat JSON object.
fn field_u64(obj: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = obj.find(&pat).unwrap_or_else(|| panic!("{key} in {obj}"));
    obj[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("numeric {key} in {obj}"))
}

/// String field out of a flat JSON object.
fn field_str(obj: &str, key: &str) -> String {
    let pat = format!("\"{key}\":\"");
    let at = obj.find(&pat).unwrap_or_else(|| panic!("{key} in {obj}"));
    obj[at + pat.len()..]
        .chars()
        .take_while(|&c| c != '"')
        .collect()
}

fn node_health(body: &str, id: u64) -> String {
    let obj = node_json(body, id).unwrap_or_else(|| panic!("node {id} in {body}"));
    field_str(&obj, "health")
}

/// An idle edge with the keep-alive on stays `live` across several
/// staleness windows, while an identically-idle edge with the
/// keep-alive disabled decays to `stale` — isolating the keep-alive as
/// the thing that preserves liveness.
#[test]
fn idle_edge_with_keepalive_stays_live() {
    let agg = Server::spawn(&["--aggregate", "--stale-after", "1500"]);
    let alive = Server::spawn(&[
        "--upstream",
        &agg.ingest,
        "--node-id",
        "1",
        "--publish-every",
        "8",
        "--ship-every",
        "8",
        "--keepalive-ms",
        "200",
    ]);
    let quiet = Server::spawn(&[
        "--upstream",
        &agg.ingest,
        "--node-id",
        "2",
        "--publish-every",
        "8",
        "--ship-every",
        "8",
        "--keepalive-ms",
        "0",
    ]);

    for (edge, tag) in [(&alive, "a"), (&quiet, "q")] {
        let rows: String = (0..16).map(|i| format!("{tag}{i} v{}\n", i % 3)).collect();
        edge.ingest_rows(&rows);
    }
    let body = agg.wait_status("both edges applied", |b| {
        [1, 2]
            .iter()
            .all(|&i| node_json(b, i).is_some_and(|n| field_u64(&n, "tuples") == 16))
    });
    let frames_before = field_u64(&node_json(&body, 1).unwrap(), "frames");

    // Neither edge ingests anything from here on. The keep-alive edge
    // must hold `live` for the whole idle stretch (several staleness
    // windows); the silent one must decay.
    let body = agg.wait_status("silent edge stale", |b| node_health(b, 2) == "stale");
    assert_eq!(
        node_health(&body, 1),
        "live",
        "keep-alive edge decayed during idle: {body}"
    );
    let n1 = node_json(&body, 1).unwrap();
    assert!(
        field_u64(&n1, "frames") > frames_before,
        "no keep-alive frames flowed while idle: {n1}"
    );
    // Keep-alive frames are liveness only — they must not invent data.
    assert_eq!(field_u64(&n1, "tuples"), 16, "{n1}");

    // Hold live across one more full staleness window to rule out a
    // lucky single refresh.
    std::thread::sleep(Duration::from_millis(1600));
    let (status, body) = agg.get("/status");
    assert!(status.contains("200"), "{status}");
    assert_eq!(node_health(&body, 1), "live", "{body}");
}

/// Catalog-role HTTP lifecycle: register over POST, answer per-query
/// from one shared pass, list, expose labeled metrics, retire over
/// DELETE.
#[test]
fn catalog_role_registers_answers_and_retires_over_http() {
    let srv = Server::spawn(&["--catalog", "--arity", "3", "--publish-every", "64"]);

    let (status, body) = srv.http("POST", "/query", "loyal one-to-one 0 1\n");
    assert!(status.contains("200"), "{status}: {body}");
    assert!(body.contains("\"name\":\"loyal\""), "{body}");
    let loyal_id = field_u64(&body, "id");

    // 200 sources, each loyal to a single destination.
    let rows: String = (0..1000)
        .map(|i| format!("s{} d{} t{}\n", i % 200, i % 200, i % 2))
        .collect();
    srv.ingest_rows(&rows);
    srv.wait_status("rows accepted", |b| field_u64(b, "accepted") == 1000);

    let wait_estimate = |query: &str, tuples: u64| -> String {
        let start = Instant::now();
        loop {
            let (status, body) = srv.get(&format!("/estimate?query={query}"));
            assert!(status.contains("200"), "{status}: {body}");
            if field_u64(&body, "tuples") == tuples {
                return body;
            }
            assert!(
                start.elapsed() < DEADLINE,
                "estimate for {query} never reached {tuples} tuples; last: {body}"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    };
    let est = wait_estimate("loyal", 1000);
    let answer: f64 = {
        let at = est.find("\"answer\":").expect("answer field") + "\"answer\":".len();
        est[at..]
            .chars()
            .take_while(|c| !matches!(c, ','))
            .collect::<String>()
            .parse()
            .expect("numeric answer")
    };
    assert!(
        (answer - 200.0).abs() < 60.0,
        "~200 loyal sources, got {answer}"
    );
    // Lookup by id and by name resolve to the same query.
    let (_, by_id) = srv.get(&format!("/estimate?query={loyal_id}"));
    assert!(by_id.contains("\"name\":\"loyal\""), "{by_id}");

    // A query registered mid-stream answers from its own registration
    // point: it sees none of the 1000 rows already consumed.
    let (status, body) = srv.http("POST", "/query", "late distinct 0 -\n");
    assert!(status.contains("200"), "{status}: {body}");
    let late_id = field_u64(&body, "id");
    assert_ne!(late_id, loyal_id);
    let rows: String = (0..300).map(|i| format!("x{i} y z\n")).collect();
    srv.ingest_rows(&rows);
    let late = wait_estimate("late", 300);
    assert_eq!(field_u64(&late, "tuples"), 300, "{late}");

    // Malformed and duplicate registrations are client errors.
    let (status, _) = srv.http("POST", "/query", "bad unknown-kind 0 1\n");
    assert!(status.contains("400"), "{status}");
    let (status, body) = srv.http("POST", "/query", "loyal one-to-one 0 1\n");
    assert!(status.contains("400"), "{status}: {body}");
    let (status, body) = srv.http("POST", "/query", "wide one-to-one 0 7\n");
    assert!(
        status.contains("400"),
        "out-of-arity column: {status}: {body}"
    );

    let (status, body) = srv.get("/queries");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"name\":\"loyal\""), "{body}");
    assert!(body.contains("\"name\":\"late\""), "{body}");

    let (status, metrics) = srv.get("/metrics");
    assert!(status.contains("200"), "{status}");
    lint_prometheus(&metrics).expect("catalog exposition lints");
    // `loyal` is unfiltered, so it also consumed the 300 rows ingested
    // after `late` registered: 1000 + 300.
    assert!(
        metrics.contains("implicate_query_tuples{query=\"loyal\"} 1300"),
        "{metrics}"
    );
    assert!(metrics.contains("implicate_catalog_queries 2"), "{metrics}");

    let (status, body) = srv.get("/status");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"role\":\"catalog\""), "{body}");
    assert!(body.contains("\"queries\":2"), "{body}");

    // Retire: the id stops answering, the name frees up for reuse.
    let (status, _) = srv.http("DELETE", &format!("/query/{loyal_id}"), "");
    assert!(status.contains("200"), "{status}");
    let (status, _) = srv.get("/estimate?query=loyal");
    assert!(status.contains("404"), "retired query still answers");
    let (status, _) = srv.http("DELETE", &format!("/query/{loyal_id}"), "");
    assert!(status.contains("404"), "double retire should 404");
    let (status, body) = srv.http("POST", "/query", "loyal one-to-one 1 0\n");
    assert!(status.contains("200"), "name not freed: {status}: {body}");

    // No single-estimator snapshot exists in catalog mode.
    let (status, _) = srv.get("/snapshot");
    assert!(status.contains("404"), "{status}");

    let (status, _) = srv.http("POST", "/shutdown", "");
    assert!(status.contains("200"), "{status}");
}

/// `POST /query` registers whether the spec line arrives in the same
/// write as the request head or in a later one.
#[test]
fn query_registration_accepts_body_with_or_after_the_head() {
    let srv = Server::spawn(&["--catalog", "--arity", "2"]);
    let exchange = |name: &str, split: bool| -> String {
        let body = format!("{name} one-to-one 0 1\n");
        let head = format!(
            "POST /query HTTP/1.0\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut conn = TcpStream::connect(&srv.query).expect("connect query");
        if split {
            conn.write_all(head.as_bytes()).expect("send head");
            conn.flush().expect("flush head");
            std::thread::sleep(Duration::from_millis(100));
            conn.write_all(body.as_bytes()).expect("send body");
        } else {
            conn.write_all(format!("{head}{body}").as_bytes())
                .expect("send request");
        }
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read response");
        response
    };
    let together = exchange("together", false);
    assert!(together.starts_with("HTTP/1.0 200"), "{together}");
    let apart = exchange("apart", true);
    assert!(apart.starts_with("HTTP/1.0 200"), "{apart}");

    let (status, body) = srv.get("/queries");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"name\":\"together\""), "{body}");
    assert!(body.contains("\"name\":\"apart\""), "{body}");

    let (status, _) = srv.http("POST", "/shutdown", "");
    assert!(status.contains("200"), "{status}");
}

/// Spec lines that used to crash the catalog writer — overlapping
/// columns trip the §3 disjointness assert, a huge multiplicity asks for
/// a ~550 GB arena — are client errors, and the server keeps serving.
#[test]
fn crashing_spec_lines_are_refused_and_the_server_survives() {
    let srv = Server::spawn(&["--catalog", "--arity", "2"]);
    for bad in ["x one-to-one 0 0\n", "x at-most 0 1 k=4294967295\n"] {
        let (status, body) = srv.http("POST", "/query", bad);
        assert!(status.contains("400"), "{bad:?}: {status}: {body}");
    }

    let (status, body) = srv.http("POST", "/query", "loyal one-to-one 0 1\n");
    assert!(status.contains("200"), "{status}: {body}");
    srv.ingest_rows("a x\nb y\n");
    let start = Instant::now();
    loop {
        let (status, body) = srv.get("/estimate?query=loyal");
        assert!(status.contains("200"), "{status}: {body}");
        if field_u64(&body, "tuples") == 2 {
            break;
        }
        assert!(start.elapsed() < DEADLINE, "never answered: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }

    let (status, _) = srv.http("POST", "/shutdown", "");
    assert!(status.contains("200"), "{status}");
}
