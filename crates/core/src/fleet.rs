//! `core::fleet` — the aggregator-side per-node health/staleness
//! registry behind the serve binary's `GET /status` endpoint and its
//! labeled `/metrics` series (DESIGN.md §8.7).
//!
//! An aggregator ingesting wire frames from many edges needs to answer
//! one operational question per node: *is this edge alive, merely slow,
//! silent, or actively shipping garbage?* The registry derives that as
//! a four-state health value from two signals it already has — the
//! wall-clock age of the node's last applied frame, and whether its
//! decoder is poisoned awaiting a full-frame resync:
//!
//! | state      | meaning                                                    |
//! |------------|------------------------------------------------------------|
//! | `live`     | a frame applied within half the staleness window           |
//! | `lagging`  | last frame older than half the window but inside it        |
//! | `stale`    | no frame for a full window — the node is presumed down     |
//! | `poisoned` | the last frame was rejected; replica dropped, resync due   |
//!
//! # Injected clocks
//!
//! Every method that touches time takes an explicit `now_ms` — a
//! monotonic millisecond reading supplied by the caller (the serve
//! binary uses its process uptime). The registry never reads a clock
//! itself, which makes the health state machine deterministic under
//! test: the table-driven transition tests below step a fake clock
//! through every edge of the state diagram.
//!
//! The node table sits under one mutex: it is updated once per *frame*
//! (not per row), far off any hot path. The merge and publish timings
//! are lock-free [`Histogram`]s beside it.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::metrics::{Exposition, Histogram, Row};
use crate::wire::FrameKind;

/// Default staleness window in milliseconds (the serve binary's
/// `--stale-after` default): a node with no applied frame for this long
/// is `stale`, and `lagging` from half this age.
pub const DEFAULT_STALE_AFTER_MS: u64 = 10_000;

/// Derived health of one node (ordering: healthiest first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeHealth {
    /// A frame applied within half the staleness window.
    Live,
    /// The last applied frame is older than half the window.
    Lagging,
    /// No applied frame for a full staleness window.
    Stale,
    /// The node's last frame was rejected; its replica was dropped and
    /// a full-frame resync is pending. Clears on the next good frame.
    Poisoned,
}

impl NodeHealth {
    /// Stable lowercase name used in `/status` JSON.
    pub fn name(self) -> &'static str {
        match self {
            NodeHealth::Live => "live",
            NodeHealth::Lagging => "lagging",
            NodeHealth::Stale => "stale",
            NodeHealth::Poisoned => "poisoned",
        }
    }

    /// Stable numeric code used as the `node_health` gauge value
    /// (0 = live, 1 = lagging, 2 = stale, 3 = poisoned).
    pub fn code(self) -> u64 {
        match self {
            NodeHealth::Live => 0,
            NodeHealth::Lagging => 1,
            NodeHealth::Stale => 2,
            NodeHealth::Poisoned => 3,
        }
    }
}

/// Per-node bookkeeping (all clocks are caller-supplied `now_ms`
/// readings).
#[derive(Debug, Clone, Default)]
struct NodeEntry {
    /// `now_ms` when the node first connected or was first seen.
    first_seen_ms: u64,
    /// `now_ms` of the last *applied* frame (seeded at first contact so
    /// a fresh node starts `live` rather than `stale`).
    last_frame_ms: u64,
    /// Epoch of the last applied frame.
    epoch: u64,
    /// Newest epoch any frame from this node has *declared*, applied or
    /// not — `newest_epoch - epoch` is the node's epoch lag while
    /// poisoned or resyncing.
    newest_epoch: u64,
    /// Tuples the node had ingested at its last applied epoch.
    tuples: u64,
    frames: u64,
    fulls: u64,
    deltas: u64,
    bytes: u64,
    decode_errors: u64,
    reconnects: u64,
    id_conflicts: u64,
    poisoned: bool,
}

impl NodeEntry {
    fn health(&self, now_ms: u64, stale_after_ms: u64) -> NodeHealth {
        if self.poisoned {
            return NodeHealth::Poisoned;
        }
        let age = now_ms.saturating_sub(self.last_frame_ms);
        if age >= stale_after_ms {
            NodeHealth::Stale
        } else if age >= stale_after_ms / 2 {
            NodeHealth::Lagging
        } else {
            NodeHealth::Live
        }
    }
}

/// A point-in-time, plain-data view of one node — what `/status`
/// serializes and tests assert against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatus {
    /// The node's wire identity ([`FrameHeader::node_id`](crate::wire::FrameHeader)).
    pub node_id: u64,
    /// Derived health at the queried `now_ms`.
    pub health: NodeHealth,
    /// `now_ms` reading at which the node was first seen.
    pub first_seen_ms: u64,
    /// Milliseconds since the last applied frame.
    pub age_ms: u64,
    /// Epoch of the last applied frame.
    pub epoch: u64,
    /// Newest declared epoch minus applied epoch (> 0 while the node
    /// ships frames the aggregator rejects).
    pub epoch_lag: u64,
    /// Tuples at the last applied epoch.
    pub tuples: u64,
    /// Frames applied (fulls + deltas).
    pub frames: u64,
    /// Full frames applied.
    pub fulls: u64,
    /// Delta frames applied.
    pub deltas: u64,
    /// Frame bytes applied.
    pub bytes: u64,
    /// Frames rejected by the decoder.
    pub decode_errors: u64,
    /// Connections beyond the first that pinned this node id.
    pub reconnects: u64,
    /// Frames rejected for switching node id mid-connection.
    pub id_conflicts: u64,
}

/// The aggregator's per-node registry. Updated once per frame from the
/// ingest path, read by `/status` and `/metrics` scrapes; a plain mutex
/// is plenty at frame granularity.
#[derive(Debug)]
pub struct NodeRegistry {
    stale_after_ms: u64,
    nodes: Mutex<BTreeMap<u64, NodeEntry>>,
    merge_nanos: Histogram,
    publish_nanos: Histogram,
}

impl NodeRegistry {
    /// A registry with the given staleness window (clamped to ≥ 2 ms so
    /// the half-window `lagging` threshold stays meaningful).
    pub fn new(stale_after_ms: u64) -> Self {
        Self {
            stale_after_ms: stale_after_ms.max(2),
            nodes: Mutex::new(BTreeMap::new()),
            merge_nanos: Histogram::new(),
            publish_nanos: Histogram::new(),
        }
    }

    /// The configured staleness window in milliseconds.
    pub fn stale_after_ms(&self) -> u64 {
        self.stale_after_ms
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, NodeEntry>> {
        // A poisoned mutex only means a panic mid-update; the data is
        // plain counters, safe to keep serving.
        self.nodes.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a connection pinning itself to `node`: first contact
    /// creates the entry (seeded `live`), later contacts count as
    /// reconnects.
    pub fn record_connect(&self, node: u64, now_ms: u64) {
        let mut nodes = self.lock();
        match nodes.get_mut(&node) {
            Some(entry) => entry.reconnects += 1,
            None => {
                nodes.insert(
                    node,
                    NodeEntry {
                        first_seen_ms: now_ms,
                        last_frame_ms: now_ms,
                        ..NodeEntry::default()
                    },
                );
            }
        }
    }

    /// Records one successfully applied frame; clears any poison.
    pub fn record_frame(
        &self,
        node: u64,
        kind: FrameKind,
        bytes: u64,
        epoch: u64,
        tuples: u64,
        now_ms: u64,
    ) {
        let mut nodes = self.lock();
        let entry = nodes.entry(node).or_insert_with(|| NodeEntry {
            first_seen_ms: now_ms,
            last_frame_ms: now_ms,
            ..NodeEntry::default()
        });
        entry.last_frame_ms = now_ms;
        entry.epoch = epoch;
        entry.newest_epoch = entry.newest_epoch.max(epoch);
        entry.tuples = tuples;
        entry.frames += 1;
        match kind {
            FrameKind::Full => entry.fulls += 1,
            FrameKind::Delta => entry.deltas += 1,
        }
        entry.bytes += bytes;
        entry.poisoned = false;
    }

    /// Records one rejected frame: the node is poisoned until its next
    /// good frame. `declared_epoch` (when the header parsed) advances
    /// the newest-declared-epoch watermark so `epoch_lag` reflects how
    /// far the node has run ahead of what the aggregator holds.
    pub fn record_error(&self, node: u64, declared_epoch: Option<u64>, now_ms: u64) {
        let mut nodes = self.lock();
        let entry = nodes.entry(node).or_insert_with(|| NodeEntry {
            first_seen_ms: now_ms,
            last_frame_ms: now_ms,
            ..NodeEntry::default()
        });
        entry.decode_errors += 1;
        entry.poisoned = true;
        if let Some(e) = declared_epoch {
            entry.newest_epoch = entry.newest_epoch.max(e);
        }
    }

    /// Records a frame rejected for switching node id mid-connection,
    /// attributed to the *pinned* node.
    pub fn record_id_conflict(&self, node: u64) {
        if let Some(entry) = self.lock().get_mut(&node) {
            entry.id_conflicts += 1;
        }
    }

    /// Times one merge-and-adopt of all replicas (nanoseconds).
    pub fn observe_merge_nanos(&self, nanos: u64) {
        self.merge_nanos.observe(nanos);
    }

    /// Times one publish of the merged serving state (nanoseconds).
    pub fn observe_publish_nanos(&self, nanos: u64) {
        self.publish_nanos.observe(nanos);
    }

    /// Derived health of one node, if known.
    pub fn health(&self, node: u64, now_ms: u64) -> Option<NodeHealth> {
        self.lock()
            .get(&node)
            .map(|e| e.health(now_ms, self.stale_after_ms))
    }

    /// Point-in-time view of every node, ordered by node id.
    pub fn snapshot(&self, now_ms: u64) -> Vec<NodeStatus> {
        self.lock()
            .iter()
            .map(|(&node_id, e)| NodeStatus {
                node_id,
                health: e.health(now_ms, self.stale_after_ms),
                first_seen_ms: e.first_seen_ms,
                age_ms: now_ms.saturating_sub(e.last_frame_ms),
                epoch: e.epoch,
                epoch_lag: e.newest_epoch.saturating_sub(e.epoch),
                tuples: e.tuples,
                frames: e.frames,
                fulls: e.fulls,
                deltas: e.deltas,
                bytes: e.bytes,
                decode_errors: e.decode_errors,
                reconnects: e.reconnects,
                id_conflicts: e.id_conflicts,
            })
            .collect()
    }

    /// Milliseconds since the *oldest* last-applied frame across the
    /// fleet — the aggregate staleness headline (0 with no nodes).
    pub fn aggregate_lag_ms(&self, now_ms: u64) -> u64 {
        self.snapshot(now_ms)
            .iter()
            .map(|n| n.age_ms)
            .max()
            .unwrap_or(0)
    }

    /// The fleet as one JSON object: the node table plus aggregate lag
    /// and merge/publish latency quantiles. Embedded verbatim under the
    /// `"fleet"` key of the serve binary's `/status` payload.
    pub fn status_json(&self, now_ms: u64) -> String {
        let nodes = self.snapshot(now_ms);
        let mut out = String::with_capacity(256 + nodes.len() * 192);
        out.push_str(&format!(
            "{{\"stale_after_ms\":{},\"nodes\":[",
            self.stale_after_ms
        ));
        for (i, n) in nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"node_id\":{},\"health\":\"{}\",\"first_seen_ms\":{},\"age_ms\":{},\"epoch\":{},\
                 \"epoch_lag\":{},\"tuples\":{},\"frames\":{},\"fulls\":{},\
                 \"deltas\":{},\"bytes\":{},\"decode_errors\":{},\
                 \"reconnects\":{},\"id_conflicts\":{}}}",
                n.node_id,
                n.health.name(),
                n.first_seen_ms,
                n.age_ms,
                n.epoch,
                n.epoch_lag,
                n.tuples,
                n.frames,
                n.fulls,
                n.deltas,
                n.bytes,
                n.decode_errors,
                n.reconnects,
                n.id_conflicts,
            ));
        }
        out.push_str(&format!(
            "],\"aggregate_lag_ms\":{},\"merges\":{},\"merge_p50_nanos\":{},\
             \"merge_p99_nanos\":{},\"publishes\":{},\"publish_p50_nanos\":{},\
             \"publish_p99_nanos\":{}}}",
            nodes.iter().map(|n| n.age_ms).max().unwrap_or(0),
            self.merge_nanos.count(),
            self.merge_nanos.quantile_bound(0.50),
            self.merge_nanos.quantile_bound(0.99),
            self.publish_nanos.count(),
            self.publish_nanos.quantile_bound(0.50),
            self.publish_nanos.quantile_bound(0.99),
        ));
        out
    }

    /// Appends the fleet's labeled Prometheus series (one sample per
    /// node, `node="<id>"` label) plus fleet-wide gauges to `out`, with
    /// `# HELP`/`# TYPE` metadata satisfying
    /// [`crate::metrics::lint_prometheus`].
    pub fn prometheus_into(&self, namespace: &str, now_ms: u64, out: &mut String) {
        let nodes = self.snapshot(now_ms);
        let mut w = Exposition::new(namespace, out);
        // A family with no samples is legal but noisy: an empty fleet
        // writes only the fleet-wide gauges.
        for row in NODE_SERIES.iter().filter(|_| !nodes.is_empty()) {
            w.family(row.name, row.kind, row.help);
            for n in &nodes {
                w.labeled(row.name, "node", n.node_id, (row.read)(n));
            }
        }
        for row in &FLEET_SERIES {
            w.single(row.name, row.kind, row.help, (row.read)(&nodes));
        }
    }
}

/// The per-node series of [`NodeRegistry::prometheus_into`], one sample
/// per node labeled `node="<id>"`.
const NODE_SERIES: [Row<NodeStatus>; 12] = crate::metric_rows![
    Gauge "node_health" |n| n.health.code(),
        "Derived node health (0=live 1=lagging 2=stale 3=poisoned)";
    Gauge "node_age_ms" |n| n.age_ms,
        "Milliseconds since the node's last applied frame";
    Gauge "node_epoch" |n| n.epoch,
        "Epoch of the node's last applied frame";
    Gauge "node_epoch_lag" |n| n.epoch_lag,
        "Newest declared epoch minus applied epoch";
    Gauge "node_tuples" |n| n.tuples,
        "Tuples the node had ingested at its applied epoch";
    Counter "node_frames_total" |n| n.frames,
        "Frames applied from this node";
    Counter "node_fulls_total" |n| n.fulls,
        "Full frames applied from this node";
    Counter "node_deltas_total" |n| n.deltas,
        "Delta frames applied from this node";
    Counter "node_bytes_total" |n| n.bytes,
        "Frame bytes applied from this node";
    Counter "node_decode_errors_total" |n| n.decode_errors,
        "Frames from this node rejected by the decoder";
    Counter "node_reconnects_total" |n| n.reconnects,
        "Connections beyond the first pinning this node id";
    Counter "node_id_conflicts_total" |n| n.id_conflicts,
        "Frames rejected for switching node id mid-connection";
];

/// The fleet-wide gauges of [`NodeRegistry::prometheus_into`].
const FLEET_SERIES: [Row<[NodeStatus]>; 2] = crate::metric_rows![
    Gauge "fleet_nodes" |nodes| nodes.len() as u64,
        "Nodes known to the aggregator";
    Gauge "fleet_aggregate_lag_ms" |nodes| nodes.iter().map(|n| n.age_ms).max().unwrap_or(0),
        "Oldest last-frame age across the fleet";
];

impl Default for NodeRegistry {
    fn default() -> Self {
        Self::new(DEFAULT_STALE_AFTER_MS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::lint_prometheus;

    const WINDOW: u64 = 1_000; // lagging at 500, stale at 1000

    #[test]
    fn health_transitions_under_injected_clock_steps() {
        // Table-driven walk of the state machine: (action, clock,
        // expected health after).
        enum Act {
            Connect,
            Frame,
            Error,
            Nothing,
        }
        let steps: &[(Act, u64, NodeHealth)] = &[
            (Act::Connect, 0, NodeHealth::Live),
            (Act::Nothing, 100, NodeHealth::Live),
            (Act::Nothing, 499, NodeHealth::Live),
            (Act::Nothing, 500, NodeHealth::Lagging), // half-window edge
            (Act::Nothing, 999, NodeHealth::Lagging),
            (Act::Nothing, 1_000, NodeHealth::Stale), // full-window edge
            (Act::Nothing, 10_000, NodeHealth::Stale),
            (Act::Frame, 10_000, NodeHealth::Live), // frame revives
            (Act::Error, 10_050, NodeHealth::Poisoned),
            // Poison dominates freshness entirely …
            (Act::Nothing, 10_060, NodeHealth::Poisoned),
            (Act::Nothing, 20_000, NodeHealth::Poisoned),
            // … and only a good frame clears it.
            (Act::Frame, 20_100, NodeHealth::Live),
            (Act::Nothing, 20_700, NodeHealth::Lagging),
            (Act::Frame, 20_750, NodeHealth::Live),
        ];
        let reg = NodeRegistry::new(WINDOW);
        for (i, (act, now, want)) in steps.iter().enumerate() {
            match act {
                Act::Connect => reg.record_connect(9, *now),
                Act::Frame => reg.record_frame(9, FrameKind::Delta, 64, i as u64, 10, *now),
                Act::Error => reg.record_error(9, Some(i as u64), *now),
                Act::Nothing => {}
            }
            assert_eq!(
                reg.health(9, *now),
                Some(*want),
                "step {i}: wrong health at t={now}"
            );
        }
    }

    #[test]
    fn counters_epoch_lag_and_reconnects_accumulate() {
        let reg = NodeRegistry::new(WINDOW);
        reg.record_connect(1, 0);
        reg.record_frame(1, FrameKind::Full, 1_000, 1, 500, 10);
        reg.record_frame(1, FrameKind::Delta, 200, 2, 600, 20);
        reg.record_frame(1, FrameKind::Delta, 150, 3, 700, 30);
        // Node runs ahead while its frames bounce.
        reg.record_error(1, Some(7), 40);
        reg.record_connect(1, 50); // reconnect
        reg.record_id_conflict(1);
        let snap = reg.snapshot(60);
        assert_eq!(snap.len(), 1);
        let n = &snap[0];
        assert_eq!(n.node_id, 1);
        assert_eq!(n.frames, 3);
        assert_eq!(n.fulls, 1);
        assert_eq!(n.deltas, 2);
        assert_eq!(n.bytes, 1_350);
        assert_eq!(n.epoch, 3);
        assert_eq!(n.epoch_lag, 4); // declared 7, applied 3
        assert_eq!(n.tuples, 700);
        assert_eq!(n.decode_errors, 1);
        assert_eq!(n.reconnects, 1);
        assert_eq!(n.id_conflicts, 1);
        assert_eq!(n.health, NodeHealth::Poisoned);
        assert_eq!(n.age_ms, 30);
    }

    #[test]
    fn aggregate_lag_is_the_oldest_node() {
        let reg = NodeRegistry::new(WINDOW);
        reg.record_frame(1, FrameKind::Full, 10, 1, 1, 100);
        reg.record_frame(2, FrameKind::Full, 10, 1, 1, 400);
        assert_eq!(reg.aggregate_lag_ms(500), 400);
        assert_eq!(reg.aggregate_lag_ms(100), 0);
    }

    #[test]
    fn status_json_and_prometheus_render_and_lint() {
        let reg = NodeRegistry::new(WINDOW);
        reg.record_connect(0, 0);
        reg.record_frame(0, FrameKind::Full, 2_048, 1, 100, 0);
        reg.record_frame(3, FrameKind::Delta, 64, 5, 900, 100);
        reg.observe_merge_nanos(1_500);
        reg.observe_publish_nanos(900);
        let json = reg.status_json(200);
        assert!(json.contains("\"node_id\":0"), "{json}");
        assert!(json.contains("\"node_id\":3"), "{json}");
        assert!(json.contains("\"health\":\"live\""), "{json}");
        assert!(json.contains("\"aggregate_lag_ms\":200"), "{json}");
        assert!(json.contains("\"merges\":1"), "{json}");
        assert!(json.contains("\"merge_p50_nanos\":2048"), "{json}");

        let mut text = String::new();
        reg.prometheus_into("implicate", 200, &mut text);
        assert!(
            text.contains("implicate_node_frames_total{node=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("implicate_node_tuples{node=\"3\"} 900"),
            "{text}"
        );
        assert!(text.contains("implicate_fleet_nodes 2"), "{text}");
        let samples = lint_prometheus(&text).expect("labeled exposition lints");
        assert_eq!(samples, 12 * 2 + 2);
    }

    #[test]
    fn empty_registry_renders_fleet_gauges_only() {
        let reg = NodeRegistry::new(WINDOW);
        let mut text = String::new();
        reg.prometheus_into("implicate", 0, &mut text);
        assert!(text.contains("implicate_fleet_nodes 0"), "{text}");
        assert!(!text.contains("node_health"), "{text}");
        assert_eq!(lint_prometheus(&text), Ok(2));
        assert!(reg.status_json(0).contains("\"nodes\":[]"));
    }

    #[test]
    fn every_fleet_family_is_in_the_design_glossary() {
        let design = include_str!("../../../DESIGN.md");
        let names = NODE_SERIES.iter().map(|row| row.name);
        for name in names.chain(FLEET_SERIES.iter().map(|row| row.name)) {
            assert!(design.contains(&format!("`{name}")), "{name}");
        }
    }
}
