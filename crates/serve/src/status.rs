//! Edge-side observability: the upstream-connectivity status block
//! behind an edge's `GET /status` and its `implicate_edge_*` Prometheus
//! series (the symmetric counterpart of the aggregator's per-node
//! fleet registry, DESIGN.md §8.7).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use implicate::core::metrics::{Exposition, Histogram, Kind::Gauge, Row};

/// Escapes `s` as the contents of a JSON string literal (quotes not
/// included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Live upstream-connectivity state of an edge, updated by the sender
/// thread and the writer, read by `/status` and `/metrics` scrapes.
pub struct EdgeStatus {
    upstream: String,
    node_id: u64,
    connected: AtomicBool,
    connects: AtomicU64,
    backoff_ms: AtomicU64,
    ships: AtomicU64,
    ship_bytes: AtomicU64,
    fulls: AtomicU64,
    deltas: AtomicU64,
    send_errors: AtomicU64,
    last_ship_ms: AtomicU64,
    unshipped_rows: AtomicU64,
    ship_nanos: Histogram,
}

impl EdgeStatus {
    /// A fresh (disconnected) status block for an edge shipping to
    /// `upstream` as `node_id`.
    pub fn new(upstream: String, node_id: u64) -> Self {
        Self {
            upstream,
            node_id,
            connected: AtomicBool::new(false),
            connects: AtomicU64::new(0),
            backoff_ms: AtomicU64::new(0),
            ships: AtomicU64::new(0),
            ship_bytes: AtomicU64::new(0),
            fulls: AtomicU64::new(0),
            deltas: AtomicU64::new(0),
            send_errors: AtomicU64::new(0),
            last_ship_ms: AtomicU64::new(0),
            unshipped_rows: AtomicU64::new(0),
            ship_nanos: Histogram::new(),
        }
    }

    /// Marks the upstream connection up or down (a `peer_gone` probe or
    /// a dropped connection calls this with `false`).
    pub fn set_connected(&self, up: bool) {
        self.connected.store(up, Ordering::Relaxed);
    }

    /// Records a successful upstream connect: connected, one more
    /// connect, backoff cleared.
    pub fn record_connect(&self) {
        self.connected.store(true, Ordering::Relaxed);
        self.connects.fetch_add(1, Ordering::Relaxed);
        self.backoff_ms.store(0, Ordering::Relaxed);
    }

    /// Records a failed connect attempt and the backoff now in force.
    pub fn record_backoff(&self, ms: u64) {
        self.connected.store(false, Ordering::Relaxed);
        self.backoff_ms.store(ms, Ordering::Relaxed);
    }

    /// Records one shipped frame (`full` distinguishes full snapshots
    /// from deltas; `nanos` is the blocking write+flush latency).
    pub fn record_ship(&self, bytes: u64, full: bool, nanos: u64, now_ms: u64) {
        self.ships.fetch_add(1, Ordering::Relaxed);
        self.ship_bytes.fetch_add(bytes, Ordering::Relaxed);
        if full {
            self.fulls.fetch_add(1, Ordering::Relaxed);
        } else {
            self.deltas.fetch_add(1, Ordering::Relaxed);
        }
        self.last_ship_ms.store(now_ms, Ordering::Relaxed);
        self.ship_nanos.observe(nanos);
    }

    /// Records a failed frame write (the connection drops and the next
    /// frame after reconnect is a full snapshot).
    pub fn record_send_error(&self) {
        self.send_errors.fetch_add(1, Ordering::Relaxed);
        self.connected.store(false, Ordering::Relaxed);
    }

    /// Publishes the writer's current unshipped-row backlog (rows
    /// ingested since the last wire capture).
    pub fn set_unshipped(&self, rows: u64) {
        self.unshipped_rows.store(rows, Ordering::Relaxed);
    }

    /// The edge block of `/status` as one JSON object.
    pub fn status_json(&self, now_ms: u64) -> String {
        let ships = self.ships.load(Ordering::Relaxed);
        let last = self.last_ship_ms.load(Ordering::Relaxed);
        let p50 = self.ship_nanos.quantile_bound(0.50);
        let p99 = self.ship_nanos.quantile_bound(0.99);
        format!(
            "{{\"upstream\":\"{}\",\"node_id\":{},\"connected\":{},\
             \"connects\":{},\"reconnects\":{},\"backoff_ms\":{},\
             \"ships\":{},\"ship_bytes\":{},\"fulls\":{},\"deltas\":{},\
             \"send_errors\":{},\"last_ship_age_ms\":{},\
             \"unshipped_rows\":{},\"ship_p50_nanos\":{p50},\
             \"ship_p99_nanos\":{p99}}}",
            json_escape(&self.upstream),
            self.node_id,
            self.connected.load(Ordering::Relaxed),
            self.connects.load(Ordering::Relaxed),
            self.connects.load(Ordering::Relaxed).saturating_sub(1),
            self.backoff_ms.load(Ordering::Relaxed),
            ships,
            self.ship_bytes.load(Ordering::Relaxed),
            self.fulls.load(Ordering::Relaxed),
            self.deltas.load(Ordering::Relaxed),
            self.send_errors.load(Ordering::Relaxed),
            if ships > 0 {
                now_ms.saturating_sub(last)
            } else {
                0
            },
            self.unshipped_rows.load(Ordering::Relaxed),
        )
    }

    /// Appends the edge's Prometheus series (with `# HELP`/`# TYPE`
    /// metadata) to `out`.
    pub fn prometheus_into(&self, namespace: &str, now_ms: u64, out: &mut String) {
        let mut w = Exposition::new(namespace, out);
        for row in &EDGE_SERIES {
            w.single(row.name, row.kind, row.help, (row.read)(self));
        }
        let last_ship_age_ms = match self.ships.load(Ordering::Relaxed) {
            0 => 0,
            _ => now_ms.saturating_sub(self.last_ship_ms.load(Ordering::Relaxed)),
        };
        w.single(
            "edge_last_ship_age_ms",
            Gauge,
            "Milliseconds since the last shipped frame",
            last_ship_age_ms,
        );
        w.single(
            "edge_ship_p50_nanos",
            Gauge,
            "Median upstream write+flush latency bucket bound",
            self.ship_nanos.quantile_bound(0.50),
        );
        w.single(
            "edge_ship_p99_nanos",
            Gauge,
            "p99 upstream write+flush latency bucket bound",
            self.ship_nanos.quantile_bound(0.99),
        );
    }
}

/// The edge's series that read one counter each, in exposition order;
/// [`EdgeStatus::prometheus_into`] follows them with the last-ship age
/// and the ship-latency quantiles.
const EDGE_SERIES: [Row<EdgeStatus>; 10] = implicate::core::metric_rows![
    Gauge "edge_connected" |e| u64::from(e.connected.load(Ordering::Relaxed)),
        "Whether the upstream connection is up (1) or down (0)";
    Counter "edge_connects_total" |e| e.connects.load(Ordering::Relaxed),
        "Successful upstream connects";
    Counter "edge_reconnects_total" |e| e.connects.load(Ordering::Relaxed).saturating_sub(1),
        "Upstream connects beyond the first";
    Gauge "edge_backoff_ms" |e| e.backoff_ms.load(Ordering::Relaxed),
        "Reconnect backoff currently in force (0 while connected)";
    Counter "edge_ships_total" |e| e.ships.load(Ordering::Relaxed),
        "Wire frames shipped upstream";
    Counter "edge_ship_bytes_total" |e| e.ship_bytes.load(Ordering::Relaxed),
        "Wire bytes shipped upstream";
    Counter "edge_ship_fulls_total" |e| e.fulls.load(Ordering::Relaxed),
        "Full snapshots shipped upstream";
    Counter "edge_ship_deltas_total" |e| e.deltas.load(Ordering::Relaxed),
        "Delta frames shipped upstream";
    Counter "edge_send_errors_total" |e| e.send_errors.load(Ordering::Relaxed),
        "Frame writes that failed and dropped the connection";
    Gauge "edge_unshipped_rows" |e| e.unshipped_rows.load(Ordering::Relaxed),
        "Rows ingested since the last wire capture";
];

#[cfg(test)]
mod tests {
    use super::*;
    use implicate::core::metrics::lint_prometheus;

    #[test]
    fn edge_status_json_and_prometheus_render_and_lint() {
        let edge = EdgeStatus::new("127.0.0.1:7071".into(), 3);
        edge.record_backoff(100);
        edge.record_connect();
        edge.record_ship(2_048, true, 5_000, 10);
        edge.record_ship(128, false, 3_000, 20);
        edge.set_unshipped(7);
        let json = edge.status_json(30);
        assert!(json.contains("\"upstream\":\"127.0.0.1:7071\""), "{json}");
        assert!(json.contains("\"connected\":true"), "{json}");
        assert!(json.contains("\"ships\":2"), "{json}");
        assert!(json.contains("\"fulls\":1"), "{json}");
        assert!(json.contains("\"deltas\":1"), "{json}");
        assert!(json.contains("\"last_ship_age_ms\":10"), "{json}");
        assert!(json.contains("\"unshipped_rows\":7"), "{json}");
        assert!(json.contains("\"backoff_ms\":0"), "{json}");

        let mut text = String::new();
        edge.prometheus_into("implicate", 30, &mut text);
        assert!(text.contains("implicate_edge_connected 1"), "{text}");
        assert!(text.contains("implicate_edge_ships_total 2"), "{text}");
        assert_eq!(lint_prometheus(&text), Ok(13));

        edge.record_send_error();
        assert!(edge.status_json(40).contains("\"connected\":false"));
    }

    /// The edge exposition, byte for byte, on injected ship latencies and
    /// clock: one reconnect, two ships (one full, one delta), then a
    /// send error and a failed reconnect backing off 400 ms, 7 rows
    /// unshipped.
    #[test]
    fn edge_prometheus_is_byte_exact() {
        let edge = EdgeStatus::new("10.0.0.1:7071".into(), 4);
        edge.record_connect();
        edge.record_backoff(200);
        edge.record_connect();
        edge.record_ship(2_048, true, 5_000, 100);
        edge.record_ship(96, false, 700_000, 250);
        edge.record_send_error();
        edge.record_backoff(400);
        edge.set_unshipped(7);
        let mut text = String::new();
        edge.prometheus_into("implicate", 400, &mut text);
        assert_eq!(text, include_str!("../../../tests/golden/edge.prom"));
    }

    #[test]
    fn json_escape_handles_quotes_and_control_chars() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
