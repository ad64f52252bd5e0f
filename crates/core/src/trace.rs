//! Structured tracing: a bounded, lock-free event journal for post-mortem
//! forensics, answering questions the aggregate counters of
//! [`crate::metrics`] cannot — *which* itemset went dirty, *when* in the
//! stream, *why*, and what the coarse phases of a run cost.
//!
//! # Design
//!
//! A [`TraceJournal`] is a power-of-two ring of fixed-size slots written
//! with a seqlock-style protocol (ticket from one `fetch_add`, odd/even
//! sequence stamps, a per-slot checksum): recording is wait-free for
//! writers, never allocates after construction, and never blocks the
//! ingestion hot path. When the ring laps, the *oldest* events are
//! overwritten — the journal keeps the most recent window, which is the
//! window post-mortems care about. Readers ([`TraceJournal::events`])
//! validate each slot's sequence stamp and checksum, so a drain running
//! concurrently with writers yields only complete events (a torn slot is
//! skipped and counted, never decoded).
//!
//! Unlike the always-on metrics registry, a journal is **opt-in at run
//! time** as well as compile time: estimators start with a disabled
//! [`TraceHandle`], and the hot path pays only an `Option` check until a
//! journal is attached with
//! [`set_trace`](crate::ImplicationEstimator::set_trace). Event
//! construction sits behind that check, so a disabled handle never even
//! builds the event value.
//!
//! # Feature gate
//!
//! Everything here is compile-time gated on the `trace` feature (on by
//! default, like `metrics`). With the feature **off** every type still
//! exists with the same API but is a zero-sized shell with empty
//! `#[inline]` methods — call sites compile unchanged and the optimizer
//! erases them. [`TraceHandle::enabled`] reports which world was compiled.
//!
//! # Event schema
//!
//! The JSONL rendering ([`TraceJournal::to_jsonl`]) is documented in
//! DESIGN.md §8.3. In brief: `dirty`, `cell_commit`, `evictions`,
//! `support_certified` carry a stream position (the shared tuple counter,
//! truncated to 48 bits); `shard_handoff` records batches crossing the
//! router→worker channels; `span` records coarse phase durations;
//! `audit_sample` records online ground-truth relative error;
//! `view_published` records epochs going live on the concurrent-read
//! channel (see [`crate::view`]); `frame_encoded`, `frame_rejected` and
//! `resync_forced` record distributed wire-codec traffic and failures
//! (see [`crate::wire`] and the fleet-observability story in DESIGN.md
//! §8.7).
//!
//! ```
//! use imp_core::{EstimatorConfig, ImplicationConditions, TraceEvent, TraceHandle};
//!
//! let cond = ImplicationConditions::strict_one_to_one(1);
//! let mut est = EstimatorConfig::new(cond).build();
//! est.set_trace(TraceHandle::with_capacity(1024));
//! est.update(&[7], &[1]);
//! est.update(&[7], &[2]); // second partner: violates K = 1
//! if let Some(journal) = est.trace().journal() {
//!     let dirty = journal
//!         .events()
//!         .into_iter()
//!         .filter(|e| matches!(e.event, TraceEvent::Dirty { .. }))
//!         .count();
//!     assert_eq!(dirty, 1);
//! }
//! ```

#[cfg(feature = "trace")]
use std::sync::atomic::{
    fence, AtomicU64,
    Ordering::{AcqRel, Acquire, Relaxed, Release},
};
#[cfg(feature = "trace")]
use std::sync::Arc;

use crate::nips::UpdateOutcome;
use crate::state::DirtyReason;

/// Default journal capacity in events (see [`TraceHandle::with_capacity`]).
pub const DEFAULT_JOURNAL_EVENTS: usize = 65_536;

/// Stream positions in trace events are truncated to this many low bits
/// (2^48 tuples ≈ 2.8 × 10^14 — far beyond any workload here).
pub const POSITION_BITS: u32 = 48;

#[cfg(feature = "trace")]
const POSITION_MASK: u64 = (1 << POSITION_BITS) - 1;

/// The coarse phases bracketed by duration spans ([`Span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A whole sharded-ingestion session (construction → `finish`);
    /// `quantity` = pre-hashed updates routed.
    Ingest,
    /// One batch-update call; `quantity` = pairs in the batch.
    UpdateBatch,
    /// One snapshot serialization; `quantity` = bytes written.
    SnapshotEncode,
    /// One snapshot restore; `quantity` = bytes read.
    SnapshotDecode,
    /// One estimator merge; `quantity` = bitmaps merged.
    Merge,
    /// One accuracy-audit comparison; `quantity` = audit samples so far.
    Audit,
}

impl SpanKind {
    /// Stable lowercase name used in the JSONL rendering.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Ingest => "ingest",
            SpanKind::UpdateBatch => "update_batch",
            SpanKind::SnapshotEncode => "snapshot_encode",
            SpanKind::SnapshotDecode => "snapshot_decode",
            SpanKind::Merge => "merge",
            SpanKind::Audit => "audit",
        }
    }

    #[cfg(feature = "trace")]
    fn tag(self) -> u64 {
        match self {
            SpanKind::Ingest => 0,
            SpanKind::UpdateBatch => 1,
            SpanKind::SnapshotEncode => 2,
            SpanKind::SnapshotDecode => 3,
            SpanKind::Merge => 4,
            SpanKind::Audit => 5,
        }
    }

    #[cfg(feature = "trace")]
    fn from_tag(tag: u64) -> Option<Self> {
        Some(match tag {
            0 => SpanKind::Ingest,
            1 => SpanKind::UpdateBatch,
            2 => SpanKind::SnapshotEncode,
            3 => SpanKind::SnapshotDecode,
            4 => SpanKind::Merge,
            5 => SpanKind::Audit,
            _ => return None,
        })
    }
}

#[cfg(feature = "trace")]
fn reason_tag(reason: DirtyReason) -> u64 {
    match reason {
        DirtyReason::Multiplicity => 0,
        DirtyReason::Confidence => 1,
        DirtyReason::SupportGate => 2,
    }
}

#[cfg(feature = "trace")]
fn reason_from_tag(tag: u64) -> Option<DirtyReason> {
    Some(match tag {
        0 => DirtyReason::Multiplicity,
        1 => DirtyReason::Confidence,
        2 => DirtyReason::SupportGate,
        _ => return None,
    })
}

/// Stable lowercase name of a [`DirtyReason`] in the JSONL rendering.
pub fn reason_name(reason: DirtyReason) -> &'static str {
    match reason {
        DirtyReason::Multiplicity => "multiplicity",
        DirtyReason::Confidence => "confidence",
        DirtyReason::SupportGate => "support_gate",
    }
}

/// One typed journal entry. Positions are the estimator's shared tuple
/// counter at the triggering update, truncated to [`POSITION_BITS`] bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// An itemset turned irreversibly dirty: `key` is its 64-bit hash
    /// (`h_a`), `reason` the failed condition.
    Dirty {
        /// The itemset's internal 64-bit hash.
        key: u64,
        /// Which implication condition failed.
        reason: DirtyReason,
        /// Stream position (tuples seen) at the transition.
        position: u64,
    },
    /// A NIPS cell was committed to value 1 (irreversible Zone-1 growth).
    CellCommit {
        /// Stochastic-averaging bitmap index.
        bitmap: u32,
        /// Cell (FM rank) committed within that bitmap.
        cell: u32,
        /// Stream position at the commit.
        position: u64,
    },
    /// The bounded-fringe capacity discipline evicted tracked entries.
    Evictions {
        /// Entries recycled or shed by this one update.
        count: u32,
        /// Stream position at the eviction.
        position: u64,
    },
    /// An `F0^sup` side-fringe cell was certified as supported (§4.4).
    SupportCertified {
        /// Stochastic-averaging bitmap index.
        bitmap: u32,
        /// Cell (FM rank) certified within that bitmap.
        cell: u32,
        /// Stream position at the certification.
        position: u64,
    },
    /// A batch of pre-hashed updates was handed to an ingestion shard.
    ShardHandoff {
        /// Receiving shard index.
        shard: u32,
        /// Updates in the batch.
        updates: u32,
    },
    /// A [`Span`] closed.
    SpanClosed {
        /// Which phase the span bracketed.
        kind: SpanKind,
        /// Wall-clock duration in nanoseconds.
        nanos: u64,
        /// Kind-specific magnitude (see [`SpanKind`]).
        quantity: u64,
    },
    /// An online accuracy audit compared the estimate to scaled exact
    /// ground truth (see `imp_baselines::audit`).
    AuditSample {
        /// Stream position of the audit.
        position: u64,
        /// Scaled exact implication count at that position.
        exact: f64,
        /// Relative error of the estimate against `exact`.
        rel_error: f64,
    },
    /// The memory budget denied arena growth, forcing tracked slots to be
    /// shed (see [`MemoryBudget`](crate::MemoryBudget)): the estimator is
    /// running at its configured ceiling.
    BudgetPressure {
        /// Slots shed by this one update.
        shed: u32,
        /// Stream position at the pressure event.
        position: u64,
    },
    /// A read view was published on the epoch channel (see
    /// [`crate::view`]): concurrent readers switch to it wait-free.
    ViewPublished {
        /// The published epoch.
        epoch: u64,
        /// Stream position (tuples applied) captured in the view.
        position: u64,
    },
    /// A wire frame was encoded for shipping (see [`crate::wire`]).
    FrameEncoded {
        /// The sender's node id stamped into the frame header.
        node: u64,
        /// Full or delta frame.
        kind: crate::wire::FrameKind,
        /// Encoded frame length in bytes.
        bytes: u64,
        /// The state epoch the frame carries (truncated to
        /// [`POSITION_BITS`]).
        epoch: u64,
    },
    /// A wire frame was rejected — by the decoder, or by the aggregator's
    /// connection guard (node-id switch).
    FrameRejected {
        /// The node id the frame claimed (0 if the header never parsed).
        node: u64,
        /// Rejection code: [`WireError::code`](crate::wire::WireError::code)
        /// values, or [`crate::wire::REJECT_NODE_ID_SWITCH`]. Rendered via
        /// [`crate::wire::reject_code_name`].
        error: u8,
        /// The epoch the frame declared (truncated, 0 if unparsed).
        epoch: u64,
    },
    /// A decoder dropped its held replica state, forcing the peer to
    /// resend a full frame before deltas resume.
    ResyncForced {
        /// The node id of the last frame the decoder saw (0 if none).
        node: u64,
        /// The replica epoch discarded (truncated).
        epoch: u64,
    },
    /// A query was registered with a [`QueryCatalog`](crate::catalog):
    /// a fresh per-query estimator was reserved on the shared budget.
    QueryRegistered {
        /// The catalog-assigned query id.
        query: u64,
        /// Stream position (catalog tuples seen) at registration.
        position: u64,
    },
    /// A query was retired from a [`QueryCatalog`](crate::catalog): its
    /// arena bytes were released back to the shared budget.
    QueryRetired {
        /// The catalog-assigned query id.
        query: u64,
        /// Stream position (catalog tuples seen) at retirement.
        position: u64,
    },
}

impl TraceEvent {
    /// Packs the event into three words: `w0` = kind (8 bits) | subtag
    /// (8 bits) | position/aux (48 bits); `w1`, `w2` = payload.
    #[cfg(feature = "trace")]
    fn encode(&self) -> [u64; 3] {
        fn w0(kind: u64, subtag: u64, aux: u64) -> u64 {
            kind | (subtag << 8) | ((aux & POSITION_MASK) << 16)
        }
        match *self {
            TraceEvent::Dirty {
                key,
                reason,
                position,
            } => [w0(1, reason_tag(reason), position), key, 0],
            TraceEvent::CellCommit {
                bitmap,
                cell,
                position,
            } => [w0(2, 0, position), bitmap as u64, cell as u64],
            TraceEvent::Evictions { count, position } => [w0(3, 0, position), count as u64, 0],
            TraceEvent::SupportCertified {
                bitmap,
                cell,
                position,
            } => [w0(4, 0, position), bitmap as u64, cell as u64],
            TraceEvent::ShardHandoff { shard, updates } => {
                [w0(5, 0, 0), shard as u64, updates as u64]
            }
            TraceEvent::SpanClosed {
                kind,
                nanos,
                quantity,
            } => [w0(6, kind.tag(), 0), nanos, quantity],
            TraceEvent::AuditSample {
                position,
                exact,
                rel_error,
            } => [w0(7, 0, position), exact.to_bits(), rel_error.to_bits()],
            TraceEvent::BudgetPressure { shed, position } => [w0(8, 0, position), shed as u64, 0],
            TraceEvent::ViewPublished { epoch, position } => [w0(9, 0, position), epoch, 0],
            TraceEvent::FrameEncoded {
                node,
                kind,
                bytes,
                epoch,
            } => [
                w0(
                    10,
                    match kind {
                        crate::wire::FrameKind::Full => 0,
                        crate::wire::FrameKind::Delta => 1,
                    },
                    epoch,
                ),
                node,
                bytes,
            ],
            TraceEvent::FrameRejected { node, error, epoch } => {
                [w0(11, error as u64, epoch), node, 0]
            }
            TraceEvent::ResyncForced { node, epoch } => [w0(12, 0, epoch), node, 0],
            TraceEvent::QueryRegistered { query, position } => [w0(13, 0, position), query, 0],
            TraceEvent::QueryRetired { query, position } => [w0(14, 0, position), query, 0],
        }
    }

    #[cfg(feature = "trace")]
    fn decode(w: [u64; 3]) -> Option<TraceEvent> {
        let kind = w[0] & 0xff;
        let subtag = (w[0] >> 8) & 0xff;
        let position = w[0] >> 16;
        Some(match kind {
            1 => TraceEvent::Dirty {
                key: w[1],
                reason: reason_from_tag(subtag)?,
                position,
            },
            2 => TraceEvent::CellCommit {
                bitmap: w[1] as u32,
                cell: w[2] as u32,
                position,
            },
            3 => TraceEvent::Evictions {
                count: w[1] as u32,
                position,
            },
            4 => TraceEvent::SupportCertified {
                bitmap: w[1] as u32,
                cell: w[2] as u32,
                position,
            },
            5 => TraceEvent::ShardHandoff {
                shard: w[1] as u32,
                updates: w[2] as u32,
            },
            6 => TraceEvent::SpanClosed {
                kind: SpanKind::from_tag(subtag)?,
                nanos: w[1],
                quantity: w[2],
            },
            7 => TraceEvent::AuditSample {
                position,
                exact: f64::from_bits(w[1]),
                rel_error: f64::from_bits(w[2]),
            },
            8 => TraceEvent::BudgetPressure {
                shed: w[1] as u32,
                position,
            },
            9 => TraceEvent::ViewPublished {
                epoch: w[1],
                position,
            },
            10 => TraceEvent::FrameEncoded {
                node: w[1],
                kind: match subtag {
                    0 => crate::wire::FrameKind::Full,
                    1 => crate::wire::FrameKind::Delta,
                    _ => return None,
                },
                bytes: w[2],
                epoch: position,
            },
            11 => TraceEvent::FrameRejected {
                node: w[1],
                error: subtag as u8,
                epoch: position,
            },
            12 => TraceEvent::ResyncForced {
                node: w[1],
                epoch: position,
            },
            13 => TraceEvent::QueryRegistered {
                query: w[1],
                position,
            },
            14 => TraceEvent::QueryRetired {
                query: w[1],
                position,
            },
            _ => return None,
        })
    }

    /// One JSON object (no trailing newline) rendering this event with its
    /// journal sequence number. Non-finite floats render as `null`.
    pub fn to_json(&self, seq: u64) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_owned()
            }
        }
        match *self {
            TraceEvent::Dirty {
                key,
                reason,
                position,
            } => format!(
                "{{\"seq\":{seq},\"event\":\"dirty\",\"key\":{key},\"reason\":\"{}\",\
                 \"position\":{position}}}",
                reason_name(reason)
            ),
            TraceEvent::CellCommit {
                bitmap,
                cell,
                position,
            } => format!(
                "{{\"seq\":{seq},\"event\":\"cell_commit\",\"bitmap\":{bitmap},\
                 \"cell\":{cell},\"position\":{position}}}"
            ),
            TraceEvent::Evictions { count, position } => format!(
                "{{\"seq\":{seq},\"event\":\"evictions\",\"count\":{count},\
                 \"position\":{position}}}"
            ),
            TraceEvent::SupportCertified {
                bitmap,
                cell,
                position,
            } => format!(
                "{{\"seq\":{seq},\"event\":\"support_certified\",\"bitmap\":{bitmap},\
                 \"cell\":{cell},\"position\":{position}}}"
            ),
            TraceEvent::ShardHandoff { shard, updates } => format!(
                "{{\"seq\":{seq},\"event\":\"shard_handoff\",\"shard\":{shard},\
                 \"updates\":{updates}}}"
            ),
            TraceEvent::SpanClosed {
                kind,
                nanos,
                quantity,
            } => format!(
                "{{\"seq\":{seq},\"event\":\"span\",\"kind\":\"{}\",\"nanos\":{nanos},\
                 \"quantity\":{quantity}}}",
                kind.name()
            ),
            TraceEvent::AuditSample {
                position,
                exact,
                rel_error,
            } => format!(
                "{{\"seq\":{seq},\"event\":\"audit_sample\",\"position\":{position},\
                 \"exact\":{},\"rel_error\":{}}}",
                num(exact),
                num(rel_error)
            ),
            TraceEvent::BudgetPressure { shed, position } => format!(
                "{{\"seq\":{seq},\"event\":\"budget_pressure\",\"shed\":{shed},\
                 \"position\":{position}}}"
            ),
            TraceEvent::ViewPublished { epoch, position } => format!(
                "{{\"seq\":{seq},\"event\":\"view_published\",\"epoch\":{epoch},\
                 \"position\":{position}}}"
            ),
            TraceEvent::FrameEncoded {
                node,
                kind,
                bytes,
                epoch,
            } => format!(
                "{{\"seq\":{seq},\"event\":\"frame_encoded\",\"node\":{node},\
                 \"kind\":\"{}\",\"bytes\":{bytes},\"epoch\":{epoch}}}",
                kind.name()
            ),
            TraceEvent::FrameRejected { node, error, epoch } => format!(
                "{{\"seq\":{seq},\"event\":\"frame_rejected\",\"node\":{node},\
                 \"error\":\"{}\",\"epoch\":{epoch}}}",
                crate::wire::reject_code_name(error)
            ),
            TraceEvent::ResyncForced { node, epoch } => format!(
                "{{\"seq\":{seq},\"event\":\"resync_forced\",\"node\":{node},\
                 \"epoch\":{epoch}}}"
            ),
            TraceEvent::QueryRegistered { query, position } => format!(
                "{{\"seq\":{seq},\"event\":\"query_registered\",\"query\":{query},\
                 \"position\":{position}}}"
            ),
            TraceEvent::QueryRetired { query, position } => format!(
                "{{\"seq\":{seq},\"event\":\"query_retired\",\"query\":{query},\
                 \"position\":{position}}}"
            ),
        }
    }
}

/// A decoded journal entry with its global sequence number (the writer's
/// ticket: total events recorded before it, including since-overwritten
/// ones).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracedEvent {
    /// Global record order of the event.
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

#[cfg(feature = "trace")]
#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in progress; even `s` = complete
    /// event with ticket `(s − 2) / 2`.
    seq: AtomicU64,
    words: [AtomicU64; 3],
    /// `words[0] ^ words[1] ^ words[2] ^ begin_stamp` — detects the
    /// theoretical torn write where a writer stalls mid-slot for a full
    /// ring lap while another completes the same slot.
    check: AtomicU64,
}

/// The bounded lock-free ring journal. Obtain one through
/// [`TraceHandle::with_capacity`]; it is shared (via the handle's `Arc`)
/// by everything recording into one pipeline.
#[derive(Debug, Default)]
pub struct TraceJournal {
    #[cfg(feature = "trace")]
    head: AtomicU64,
    #[cfg(feature = "trace")]
    collisions: AtomicU64,
    #[cfg(feature = "trace")]
    torn: AtomicU64,
    #[cfg(feature = "trace")]
    slots: Vec<Slot>,
    #[cfg(feature = "trace")]
    mask: u64,
}

impl TraceJournal {
    #[cfg(feature = "trace")]
    fn with_capacity(events: usize) -> Self {
        let cap = events.clamp(8, 1 << 24).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                words: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
                check: AtomicU64::new(0),
            })
            .collect();
        Self {
            head: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            torn: AtomicU64::new(0),
            slots,
            mask: (cap - 1) as u64,
        }
    }

    /// Capacity in events (0 when the `trace` feature is off).
    pub fn capacity(&self) -> usize {
        #[cfg(feature = "trace")]
        {
            self.slots.len()
        }
        #[cfg(not(feature = "trace"))]
        {
            0
        }
    }

    /// Records one event; wait-free, allocation-free. When the ring has
    /// lapped, this overwrites the oldest slot.
    #[inline]
    pub fn record(&self, _event: TraceEvent) {
        #[cfg(feature = "trace")]
        {
            let w = _event.encode();
            let ticket = self.head.fetch_add(1, Relaxed);
            let slot = &self.slots[(ticket & self.mask) as usize];
            let begin = 2 * ticket + 1;
            // Claim the slot by advancing its stamp; losing the max means a
            // ring-lapping writer already owns it — drop this event rather
            // than race on the payload.
            let prev = slot.seq.fetch_max(begin, AcqRel);
            if prev >= begin {
                self.collisions.fetch_add(1, Relaxed);
                return;
            }
            slot.words[0].store(w[0], Relaxed);
            slot.words[1].store(w[1], Relaxed);
            slot.words[2].store(w[2], Relaxed);
            slot.check.store(w[0] ^ w[1] ^ w[2] ^ begin, Relaxed);
            // Publish; failure means a lapping writer stole the slot while
            // we wrote — the slot stays odd/foreign and readers skip it.
            let _ = slot
                .seq
                .compare_exchange(begin, begin + 1, Release, Relaxed);
        }
    }

    /// Total events ever recorded (including overwritten and dropped).
    pub fn recorded(&self) -> u64 {
        #[cfg(feature = "trace")]
        {
            self.head.load(Relaxed)
        }
        #[cfg(not(feature = "trace"))]
        {
            0
        }
    }

    /// Events no longer retrievable: overwritten by ring laps, dropped on
    /// slot collisions, or skipped as torn during reads.
    pub fn dropped(&self) -> u64 {
        #[cfg(feature = "trace")]
        {
            let head = self.head.load(Relaxed);
            head.saturating_sub(self.slots.len() as u64)
                + self.collisions.load(Relaxed)
                + self.torn.load(Relaxed)
        }
        #[cfg(not(feature = "trace"))]
        {
            0
        }
    }

    /// Snapshot of the currently retained events in record order. Safe to
    /// call while writers are active: slots being written (or overwritten
    /// mid-read) are skipped. Non-destructive. Empty when the `trace`
    /// feature is off.
    pub fn events(&self) -> Vec<TracedEvent> {
        #[cfg(feature = "trace")]
        {
            let mut out = Vec::with_capacity(self.slots.len().min(1024));
            for slot in &self.slots {
                let s1 = slot.seq.load(Acquire);
                if s1 == 0 || s1 % 2 == 1 {
                    continue; // never written, or write in progress
                }
                let w = [
                    slot.words[0].load(Relaxed),
                    slot.words[1].load(Relaxed),
                    slot.words[2].load(Relaxed),
                ];
                let check = slot.check.load(Relaxed);
                fence(Acquire);
                if slot.seq.load(Relaxed) != s1 {
                    continue; // overwritten while reading
                }
                let begin = s1 - 1;
                if check != w[0] ^ w[1] ^ w[2] ^ begin {
                    self.torn.fetch_add(1, Relaxed);
                    continue;
                }
                if let Some(event) = TraceEvent::decode(w) {
                    out.push(TracedEvent {
                        seq: (s1 - 2) / 2,
                        event,
                    });
                }
            }
            out.sort_by_key(|e| e.seq);
            out
        }
        #[cfg(not(feature = "trace"))]
        {
            Vec::new()
        }
    }

    /// The retained events as JSONL (one object per line, record order),
    /// terminated by a `journal_summary` object with the recorded/dropped
    /// totals. This is what the CLI's `--trace-out` writes.
    pub fn to_jsonl(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 80 + 128);
        let retained = events.len();
        for e in events {
            out.push_str(&e.event.to_json(e.seq));
            out.push('\n');
        }
        out.push_str(&format!(
            "{{\"event\":\"journal_summary\",\"enabled\":{},\"recorded\":{},\
             \"retained\":{retained},\"dropped\":{},\"capacity\":{}}}\n",
            TraceHandle::enabled(),
            self.recorded(),
            self.dropped(),
            self.capacity(),
        ));
        out
    }
}

/// A cheaply-clonable reference to one [`TraceJournal`], or a disabled
/// token. Estimators, their clones and their ingestion shards share the
/// handle, so one pipeline's events land in one journal. With the `trace`
/// feature off this is a zero-sized always-disabled token.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    #[cfg(feature = "trace")]
    journal: Option<Arc<TraceJournal>>,
}

impl TraceHandle {
    /// A disabled handle: every recording call is a cheap no-op.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A handle to a fresh journal retaining (about) `events` entries —
    /// clamped to `[8, 2^24]` and rounded up to a power of two. With the
    /// `trace` feature off, returns a disabled handle.
    pub fn with_capacity(events: usize) -> Self {
        #[cfg(feature = "trace")]
        {
            Self {
                journal: Some(Arc::new(TraceJournal::with_capacity(events))),
            }
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = events;
            Self::default()
        }
    }

    /// Whether tracing was compiled in (the `trace` feature).
    pub const fn enabled() -> bool {
        cfg!(feature = "trace")
    }

    /// Whether this handle carries a journal (always false with the
    /// feature off).
    #[inline]
    pub fn is_active(&self) -> bool {
        #[cfg(feature = "trace")]
        {
            self.journal.is_some()
        }
        #[cfg(not(feature = "trace"))]
        {
            false
        }
    }

    /// The journal, if active.
    pub fn journal(&self) -> Option<&TraceJournal> {
        #[cfg(feature = "trace")]
        {
            self.journal.as_deref()
        }
        #[cfg(not(feature = "trace"))]
        {
            None
        }
    }

    /// Whether two handles share one journal (or are both disabled).
    pub fn same_journal(&self, _other: &TraceHandle) -> bool {
        #[cfg(feature = "trace")]
        {
            match (&self.journal, &_other.journal) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
        }
        #[cfg(not(feature = "trace"))]
        {
            true
        }
    }

    /// Records the event built by `make` — which runs only if a journal is
    /// attached, so inactive handles skip event construction entirely.
    #[inline]
    pub fn record(&self, _make: impl FnOnce() -> TraceEvent) {
        #[cfg(feature = "trace")]
        if let Some(journal) = &self.journal {
            journal.record(_make());
        }
    }

    /// Journals everything notable about one update's [`UpdateOutcome`] —
    /// the single trace call on the estimator hot path. Most updates have
    /// no notable outcome and record nothing.
    #[inline]
    pub fn record_update(
        &self,
        _bitmap: u32,
        _cell: u32,
        _key: u64,
        _position: u64,
        _outcome: &UpdateOutcome,
    ) {
        #[cfg(feature = "trace")]
        if let Some(journal) = &self.journal {
            if let Some(reason) = _outcome.dirty {
                journal.record(TraceEvent::Dirty {
                    key: _key,
                    reason,
                    position: _position,
                });
            }
            if _outcome.committed {
                journal.record(TraceEvent::CellCommit {
                    bitmap: _bitmap,
                    cell: _cell,
                    position: _position,
                });
            }
            if _outcome.evictions > 0 {
                journal.record(TraceEvent::Evictions {
                    count: _outcome.evictions,
                    position: _position,
                });
            }
            if _outcome.certified {
                journal.record(TraceEvent::SupportCertified {
                    bitmap: _bitmap,
                    cell: _cell,
                    position: _position,
                });
            }
            if _outcome.budget_sheds > 0 {
                journal.record(TraceEvent::BudgetPressure {
                    shed: _outcome.budget_sheds,
                    position: _position,
                });
            }
        }
    }

    /// Opens a duration span of the given kind; the span journals a
    /// [`TraceEvent::SpanClosed`] when dropped. Inactive handles read no
    /// clock and record nothing.
    #[inline]
    pub fn span(&self, _kind: SpanKind) -> Span {
        #[cfg(feature = "trace")]
        {
            Span {
                handle: self.clone(),
                kind: _kind,
                start: self.is_active().then(std::time::Instant::now),
                quantity: 0,
            }
        }
        #[cfg(not(feature = "trace"))]
        {
            Span {}
        }
    }
}

/// An RAII duration span (see [`TraceHandle::span`]): journals wall-clock
/// nanoseconds and an optional kind-specific magnitude on drop. Zero-sized
/// and inert with the `trace` feature off.
#[derive(Debug)]
pub struct Span {
    #[cfg(feature = "trace")]
    handle: TraceHandle,
    #[cfg(feature = "trace")]
    kind: SpanKind,
    #[cfg(feature = "trace")]
    start: Option<std::time::Instant>,
    #[cfg(feature = "trace")]
    quantity: u64,
}

impl Span {
    /// Sets the kind-specific magnitude reported with the span (bytes,
    /// pairs, … — see [`SpanKind`]).
    #[inline]
    pub fn set_quantity(&mut self, _quantity: u64) {
        #[cfg(feature = "trace")]
        {
            self.quantity = _quantity;
        }
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        #[cfg(feature = "trace")]
        if let Some(start) = self.start {
            let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let (kind, quantity) = (self.kind, self.quantity);
            self.handle.record(|| TraceEvent::SpanClosed {
                kind,
                nanos,
                quantity,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active() -> TraceHandle {
        TraceHandle::with_capacity(64)
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let h = TraceHandle::disabled();
        assert!(!h.is_active());
        h.record(|| panic!("event built on a disabled handle"));
        assert!(h.journal().is_none());
    }

    #[test]
    fn events_round_trip_through_the_ring() {
        let h = active();
        let all = [
            TraceEvent::Dirty {
                key: 0xdead_beef,
                reason: DirtyReason::Confidence,
                position: 42,
            },
            TraceEvent::CellCommit {
                bitmap: 3,
                cell: 7,
                position: 43,
            },
            TraceEvent::Evictions {
                count: 2,
                position: 44,
            },
            TraceEvent::SupportCertified {
                bitmap: 1,
                cell: 0,
                position: 45,
            },
            TraceEvent::ShardHandoff {
                shard: 2,
                updates: 1024,
            },
            TraceEvent::SpanClosed {
                kind: SpanKind::Merge,
                nanos: 12345,
                quantity: 64,
            },
            TraceEvent::AuditSample {
                position: 1000,
                exact: 512.0,
                rel_error: 0.0625,
            },
            TraceEvent::BudgetPressure {
                shed: 4,
                position: 1001,
            },
            TraceEvent::ViewPublished {
                epoch: 17,
                position: 1002,
            },
            TraceEvent::FrameEncoded {
                node: 3,
                kind: crate::wire::FrameKind::Delta,
                bytes: 512,
                epoch: 9,
            },
            TraceEvent::FrameRejected {
                node: 3,
                error: 3, // WireError::Corrupt
                epoch: 10,
            },
            TraceEvent::ResyncForced { node: 3, epoch: 10 },
            TraceEvent::QueryRegistered {
                query: 5,
                position: 1003,
            },
            TraceEvent::QueryRetired {
                query: 5,
                position: 1004,
            },
        ];
        for e in all {
            h.record(|| e);
        }
        if let Some(journal) = h.journal() {
            let got = journal.events();
            assert_eq!(got.len(), all.len());
            for (i, traced) in got.iter().enumerate() {
                assert_eq!(traced.seq, i as u64);
                assert_eq!(traced.event, all[i]);
            }
            assert_eq!(journal.dropped(), 0);
        } else {
            assert!(!TraceHandle::enabled());
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_events() {
        let h = TraceHandle::with_capacity(8);
        for i in 0..20u64 {
            h.record(|| TraceEvent::Evictions {
                count: 1,
                position: i,
            });
        }
        if let Some(journal) = h.journal() {
            let got = journal.events();
            assert_eq!(got.len(), 8);
            let positions: Vec<u64> = got
                .iter()
                .map(|e| match e.event {
                    TraceEvent::Evictions { position, .. } => position,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(positions, (12..20).collect::<Vec<_>>());
            assert_eq!(journal.recorded(), 20);
            assert_eq!(journal.dropped(), 12);
        }
    }

    #[test]
    fn concurrent_writers_never_yield_torn_events() {
        let h = TraceHandle::with_capacity(64);
        let Some(journal) = h.journal() else {
            return;
        };
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..5_000u64 {
                        // Key and position agree per event; a torn mix
                        // would break that invariant.
                        let v = t * 1_000_000 + i;
                        h.record(|| TraceEvent::Dirty {
                            key: v,
                            reason: DirtyReason::Multiplicity,
                            position: v,
                        });
                    }
                });
            }
            for _ in 0..50 {
                for e in journal.events() {
                    if let TraceEvent::Dirty { key, position, .. } = e.event {
                        assert_eq!(key, position, "torn event surfaced");
                    }
                }
            }
        });
        let total = journal.recorded();
        assert_eq!(total, 20_000);
        assert!(journal.events().len() <= 64);
    }

    #[test]
    fn span_journals_duration_and_quantity() {
        let h = active();
        {
            let mut span = h.span(SpanKind::SnapshotEncode);
            span.set_quantity(4096);
        }
        if let Some(journal) = h.journal() {
            let got = journal.events();
            assert_eq!(got.len(), 1);
            match got[0].event {
                TraceEvent::SpanClosed { kind, quantity, .. } => {
                    assert_eq!(kind, SpanKind::SnapshotEncode);
                    assert_eq!(quantity, 4096);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn jsonl_renders_every_event_kind_plus_summary() {
        let h = active();
        h.record(|| TraceEvent::Dirty {
            key: 1,
            reason: DirtyReason::SupportGate,
            position: 2,
        });
        h.record(|| TraceEvent::AuditSample {
            position: 10,
            exact: 0.0,
            rel_error: f64::INFINITY,
        });
        h.record(|| TraceEvent::FrameEncoded {
            node: 7,
            kind: crate::wire::FrameKind::Full,
            bytes: 2048,
            epoch: 4,
        });
        h.record(|| TraceEvent::FrameRejected {
            node: 7,
            error: 8, // WireError::ConfigMismatch
            epoch: 5,
        });
        h.record(|| TraceEvent::ResyncForced { node: 7, epoch: 5 });
        if let Some(journal) = h.journal() {
            let jsonl = journal.to_jsonl();
            assert!(jsonl.contains("\"reason\":\"support_gate\""), "{jsonl}");
            assert!(
                jsonl.contains("\"event\":\"frame_encoded\",\"node\":7,\"kind\":\"full\""),
                "{jsonl}"
            );
            assert!(jsonl.contains("\"error\":\"config_mismatch\""), "{jsonl}");
            assert!(
                jsonl.contains("\"event\":\"resync_forced\",\"node\":7,\"epoch\":5"),
                "{jsonl}"
            );
            // Non-finite floats must render as null, not break JSON.
            assert!(jsonl.contains("\"rel_error\":null"), "{jsonl}");
            let last = jsonl.lines().last().expect("summary line");
            assert!(last.contains("\"event\":\"journal_summary\""), "{last}");
            assert!(last.contains("\"recorded\":5"), "{last}");
        } else {
            assert!(!TraceHandle::enabled());
        }
    }

    #[test]
    fn record_update_expands_outcome_into_events() {
        let h = active();
        h.record_update(
            5,
            9,
            0xabc,
            77,
            &UpdateOutcome {
                dirty: Some(DirtyReason::Multiplicity),
                committed: true,
                evictions: 3,
                certified: false,
                entries_delta: 0,
                budget_sheds: 1,
            },
        );
        h.record_update(0, 0, 1, 78, &UpdateOutcome::default());
        if let Some(journal) = h.journal() {
            let got = journal.events();
            // Dirty + commit + evictions + budget pressure from the first
            // call; nothing from the quiet outcome.
            assert_eq!(got.len(), 4);
            assert!(got.iter().any(|e| matches!(
                e.event,
                TraceEvent::BudgetPressure {
                    shed: 1,
                    position: 77
                }
            )));
        }
    }

    #[test]
    fn clones_share_the_journal() {
        let a = active();
        let b = a.clone();
        let c = active();
        assert!(a.same_journal(&b));
        b.record(|| TraceEvent::Evictions {
            count: 1,
            position: 1,
        });
        if TraceHandle::enabled() {
            assert_eq!(a.journal().expect("active").events().len(), 1);
            assert!(!a.same_journal(&c));
        }
    }
}
