//! `core::wire` — the versioned, length-prefixed delta-snapshot codec
//! for shipping estimator state between nodes (VERSION 3 framing).
//!
//! The [`crate::snapshot`] codec (VERSION 2) answers "persist my state
//! and restore it later": one self-contained blob, canonical bytes,
//! no framing. This module answers the *distributed* question — many
//! constrained edge nodes periodically shipping sketch state to an
//! aggregator over a byte stream — which needs three things VERSION 2
//! does not have:
//!
//! 1. **Framing.** Frames are length-prefixed and self-delimiting, so a
//!    receiver can reassemble them from a TCP stream
//!    ([`peek_frame`]) without trusting the sender to pause between
//!    writes.
//! 2. **Deltas.** A frame carries either a *full* canonical snapshot or
//!    a *delta since a declared base epoch*: only the bitmaps whose
//!    canonical encoding changed since the base are present. An edge
//!    publishing every few thousand rows ships a fraction of its state
//!    per frame; a receiver that has the base reconstructs the exact
//!    full state (per-bitmap replacement, not patching — a delta can
//!    never half-apply).
//! 3. **Hostile-input hardening.** The decoder never panics and never
//!    over-allocates: every malformed input comes back as a typed
//!    [`WireError`], declared sizes are checked against the remaining
//!    buffer before any allocation, and the frame header's declared
//!    decoded footprint is preflighted against a [`MemoryBudget`]
//!    ceiling ([`WireDecoder::with_budget`]) before decoding begins.
//!
//! The byte-level layout of both versions is specified in `WIRE.md` at
//! the repository root, precisely enough to write an independent
//! decoder.
//!
//! # Bit-identity
//!
//! Full frames embed the same canonical per-bitmap encoding VERSION 2
//! uses, so a state that round-trips through the wire — including
//! through any chain of deltas — re-encodes to exactly the same
//! [`ImplicationEstimator::to_bytes`] bytes as the original writer.
//! Combined with the bit-identical merge (see
//! [`ImplicationEstimator::merge`]), an aggregator merging wire
//! replicas of bitmap-disjoint edges reads off estimates bit-for-bit
//! equal to a single node that saw the whole stream.
//!
//! # Quick tour
//!
//! ```
//! use imp_core::wire::{WireDecoder, WireSnapshot};
//! use imp_core::{EstimatorConfig, ImplicationConditions};
//!
//! let cond = ImplicationConditions::strict_one_to_one(1);
//! let mut edge = EstimatorConfig::new(cond).bitmaps(16).build();
//! for a in 0..500u64 {
//!     edge.update(&[a], &[a % 3]);
//! }
//!
//! // Edge: capture epoch 1 and ship a full frame …
//! let base = WireSnapshot::capture(&edge, 1);
//! let full = base.full_frame(7); // node id 7
//!
//! // … ingest more, then ship only what changed since epoch 1.
//! for a in 0..100u64 {
//!     edge.update(&[a], &[a + 1]);
//! }
//! let next = WireSnapshot::capture(&edge, 2);
//! let delta = next.delta_frame(&base, 7);
//!
//! // Aggregator: apply both; the replica is byte-identical to the edge.
//! let mut dec = WireDecoder::new();
//! dec.apply(full).unwrap();
//! dec.apply(delta).unwrap();
//! assert_eq!(dec.estimator().unwrap().to_bytes(), edge.to_bytes());
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};
use imp_sketch::hash::MixHasher;

use crate::budget::MemoryBudget;
use crate::conditions::ImplicationConditions;
use crate::estimator::{ImplicationEstimator, MergeKey};
use crate::metrics::MetricsHandle;
use crate::nips::NipsBitmap;
use crate::snapshot::SnapshotError;
use crate::trace::TraceHandle;

/// Magic bytes opening every wire frame (`IMPW`, little-endian).
pub const WIRE_MAGIC: u32 = 0x494d_5057;

/// Wire layout version. VERSION 3 is the first framed layout; versions
/// 1–2 are the unframed snapshot codec of [`crate::snapshot`].
pub const WIRE_VERSION: u16 = 3;

/// Hard cap on the bitmap count `m` a wire decoder accepts. Snapshots
/// are trusted local files and allow up to 2^20 bitmaps; wire frames
/// come from the network, and each declared bitmap costs two initial
/// arena tables before its cells decode, so the bound is much tighter.
/// The paper's configuration is 64.
pub const MAX_WIRE_BITMAPS: usize = 1 << 12;

/// Hard cap on `K` (maximum multiplicity) in wire frames. Arena slot
/// width grows linearly with `K`, so an attacker-controlled `K` is an
/// allocation amplifier; 4096 is far above any practical setting.
pub const MAX_WIRE_MULTIPLICITY: u32 = 1 << 12;

/// Default ceiling on a frame's declared body length
/// ([`WireDecoder::with_max_frame_bytes`] overrides it).
pub const DEFAULT_MAX_FRAME_BYTES: usize = 64 << 20;

/// Longest legal LEB128 varint for a `u64` (10 bytes).
const MAX_VARINT_BYTES: usize = 10;

/// Errors decoding or applying a wire frame. Every malformed input maps
/// to one of these; the decoder never panics on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not open with [`WIRE_MAGIC`].
    BadMagic,
    /// The version field names a layout this decoder does not speak.
    BadVersion(u16),
    /// The buffer ended before the declared content — for stream
    /// reassembly this means "need more bytes", see [`peek_frame`].
    Truncated,
    /// A decoded value is structurally invalid (the message names the
    /// offending field; the full taxonomy is tabulated in `WIRE.md`).
    Corrupt(&'static str),
    /// The header's declared body length exceeds the decoder's frame
    /// ceiling; nothing was allocated.
    FrameTooLarge {
        /// Body length the header declared.
        declared: u64,
        /// The decoder's configured ceiling.
        limit: usize,
    },
    /// The frame's declared (or actual) decoded footprint does not fit
    /// the decoder's [`MemoryBudget`] ceiling.
    BudgetExceeded {
        /// Bytes the frame needs once decoded.
        needed: usize,
        /// Bytes the budget has available.
        available: usize,
    },
    /// A delta frame arrived but the decoder holds no base state — the
    /// sender must fall back to a full frame.
    DeltaWithoutBase,
    /// A delta frame's declared base epoch is not the epoch this
    /// decoder last applied — a frame was lost or reordered; the sender
    /// must fall back to a full frame.
    BaseEpochMismatch {
        /// Base epoch the frame declared.
        declared: u64,
        /// Epoch the decoder actually holds.
        have: u64,
    },
    /// A full frame's configuration (conditions, bitmap count or hash
    /// seeds) does not match what this decoder was told to require via
    /// [`WireDecoder::require_matching`].
    ConfigMismatch(&'static str),
}

impl WireError {
    /// Stable numeric code of the variant, used to pack rejections into
    /// trace events ([`TraceEvent::FrameRejected`](crate::TraceEvent))
    /// and to key per-variant counters. Codes are append-only.
    pub fn code(&self) -> u8 {
        match self {
            WireError::BadMagic => 0,
            WireError::BadVersion(_) => 1,
            WireError::Truncated => 2,
            WireError::Corrupt(_) => 3,
            WireError::FrameTooLarge { .. } => 4,
            WireError::BudgetExceeded { .. } => 5,
            WireError::DeltaWithoutBase => 6,
            WireError::BaseEpochMismatch { .. } => 7,
            WireError::ConfigMismatch(_) => 8,
        }
    }

    /// Stable snake_case name of the variant (the flight-recorder and
    /// `/status` vocabulary).
    pub fn name(&self) -> &'static str {
        reject_code_name(self.code())
    }
}

/// Rejection code for a frame that switched `node_id` mid-connection —
/// not a [`WireError`] (the frame itself may be well-formed) but part of
/// the same [`reject_code_name`] vocabulary, recorded by the serve
/// binary's ingest connection guard.
pub const REJECT_NODE_ID_SWITCH: u8 = 100;

/// Stable snake_case name for a rejection code: the
/// [`WireError::code`] values plus [`REJECT_NODE_ID_SWITCH`]. Unknown
/// codes (from a newer writer) render as `"unknown"`.
pub fn reject_code_name(code: u8) -> &'static str {
    match code {
        0 => "bad_magic",
        1 => "bad_version",
        2 => "truncated",
        3 => "corrupt",
        4 => "frame_too_large",
        5 => "budget_exceeded",
        6 => "delta_without_base",
        7 => "base_epoch_mismatch",
        8 => "config_mismatch",
        REJECT_NODE_ID_SWITCH => "node_id_switch",
        _ => "unknown",
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not an IMPW frame (bad magic)"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Corrupt(what) => write!(f, "frame corrupt: {what}"),
            WireError::FrameTooLarge { declared, limit } => {
                write!(f, "frame body of {declared} bytes exceeds limit {limit}")
            }
            WireError::BudgetExceeded { needed, available } => write!(
                f,
                "decoded state needs {needed} bytes, budget has {available}"
            ),
            WireError::DeltaWithoutBase => write!(f, "delta frame but no base state held"),
            WireError::BaseEpochMismatch { declared, have } => {
                write!(
                    f,
                    "delta declares base epoch {declared}, decoder holds {have}"
                )
            }
            WireError::ConfigMismatch(what) => write!(f, "configuration mismatch: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<SnapshotError> for WireError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::BadMagic => WireError::BadMagic,
            SnapshotError::BadVersion(v) => WireError::BadVersion(v),
            SnapshotError::Truncated => WireError::Truncated,
            SnapshotError::Corrupt(what) => WireError::Corrupt(what),
        }
    }
}

/// Why [`decode_compat`] refused a checkpoint. Each variant names the
/// format the bytes turned out to be, so a bad `IMPS` snapshot is not
/// reported as a bad wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The bytes open with neither the snapshot magic (`IMPS`) nor
    /// [`WIRE_MAGIC`] (`IMPW`).
    UnknownFormat,
    /// A VERSION 2 snapshot that does not decode, or whose `K` or `m`
    /// is past the wire caps.
    Snapshot(SnapshotError),
    /// A wire frame that does not decode to an estimator on its own.
    Frame(WireError),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::UnknownFormat => {
                write!(f, "neither an IMPS snapshot nor an IMPW frame (bad magic)")
            }
            CheckpointError::Snapshot(e) => e.fmt(f),
            CheckpointError::Frame(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::UnknownFormat => None,
            CheckpointError::Snapshot(e) => Some(e),
            CheckpointError::Frame(e) => Some(e),
        }
    }
}

/// Discriminant of a frame's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A complete canonical snapshot; applying it replaces any state
    /// the receiver held for the sending node.
    Full,
    /// Only the bitmaps whose canonical encoding changed since the
    /// declared base epoch; applying it requires the receiver to hold
    /// exactly that base.
    Delta,
}

impl FrameKind {
    /// Stable lowercase name used in trace events and `/status` JSON.
    pub fn name(self) -> &'static str {
        match self {
            FrameKind::Full => "full",
            FrameKind::Delta => "delta",
        }
    }
}

/// The parsed fixed part of a frame — everything before the body.
///
/// [`peek_frame`] yields one of these from a partial stream buffer so
/// a receiver knows how many bytes to accumulate
/// ([`FrameHeader::frame_len`]) before handing the complete frame to
/// [`WireDecoder::apply`]. All fields are declared by the sender; the
/// decoder cross-checks the rank sums and tuple counter against the
/// decoded state before accepting a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Full or delta payload.
    pub kind: FrameKind,
    /// Stable identity of the sending node (an aggregator keys its
    /// per-edge replicas by this).
    pub node_id: u64,
    /// The publication epoch this frame carries the state of.
    pub epoch: u64,
    /// For deltas, the epoch the receiver must hold; 0 for full frames.
    pub base_epoch: u64,
    /// Total tuples the sender had ingested at `epoch`.
    pub tuples: u64,
    /// Sum of `R_F0sup` read-offs across the sender's bitmaps
    /// (varint-packed on the wire; verified against the decoded state).
    pub rank_sum_sup: u64,
    /// Sum of `R_S̄` read-offs across the sender's bitmaps (likewise
    /// verified).
    pub rank_sum_non: u64,
    /// The sender's tracked-state footprint in bytes — the decoder's
    /// preflight checks this against its [`MemoryBudget`] ceiling
    /// before allocating.
    pub decoded_bytes_hint: u64,
    /// Declared body length in bytes.
    pub body_len: u64,
    /// Bytes the header itself occupies.
    pub header_len: usize,
}

impl FrameHeader {
    /// Total frame length: header plus declared body.
    pub fn frame_len(&self) -> usize {
        self.header_len + self.body_len as usize
    }
}

/// Appends a LEB128 varint.
fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint off a checked cursor.
fn get_varint(cur: &mut Cursor<'_>) -> Result<u64, WireError> {
    let mut value = 0u64;
    for i in 0..MAX_VARINT_BYTES {
        let byte = cur.u8()?;
        let payload = (byte & 0x7f) as u64;
        // The 10th byte may only contribute the single remaining bit.
        if i == MAX_VARINT_BYTES - 1 && payload > 1 {
            return Err(WireError::Corrupt("varint overflow"));
        }
        value |= payload << (7 * i);
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(WireError::Corrupt("varint too long"))
}

/// Bounds-checked reader over a borrowed frame buffer. Every accessor
/// returns [`WireError::Truncated`] instead of slicing out of range, so
/// decoding can never panic on short input.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16_le(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32_le(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

/// Parses the header at the start of `buf` (which may hold extra bytes
/// after it). `Truncated` means the buffer ends inside the header.
fn parse_header(buf: &[u8]) -> Result<FrameHeader, WireError> {
    let mut cur = Cursor::new(buf);
    if cur.u32_le()? != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = cur.u16_le()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = match cur.u8()? {
        0 => FrameKind::Full,
        1 => FrameKind::Delta,
        _ => return Err(WireError::Corrupt("frame kind")),
    };
    let node_id = get_varint(&mut cur)?;
    let epoch = get_varint(&mut cur)?;
    let tuples = get_varint(&mut cur)?;
    let rank_sum_sup = get_varint(&mut cur)?;
    let rank_sum_non = get_varint(&mut cur)?;
    let decoded_bytes_hint = get_varint(&mut cur)?;
    let base_epoch = match kind {
        FrameKind::Delta => get_varint(&mut cur)?,
        FrameKind::Full => 0,
    };
    let body_len = get_varint(&mut cur)?;
    Ok(FrameHeader {
        kind,
        node_id,
        epoch,
        base_epoch,
        tuples,
        rank_sum_sup,
        rank_sum_non,
        decoded_bytes_hint,
        body_len,
        header_len: cur.pos,
    })
}

/// Stream-reassembly probe: parses the frame header at the start of
/// `buf` if enough bytes have arrived.
///
/// * `Ok(Some(header))` — the header is complete; accumulate
///   [`FrameHeader::frame_len`] bytes, then [`WireDecoder::apply`].
/// * `Ok(None)` — the buffer ends inside the header; read more.
/// * `Err(_)` — the bytes can never become a valid frame (wrong magic,
///   unsupported version, malformed varint); drop the connection.
///
/// Callers should bound the body lengths they are willing to buffer
/// (compare [`FrameHeader::body_len`] against their frame ceiling)
/// before accumulating.
pub fn peek_frame(buf: &[u8]) -> Result<Option<FrameHeader>, WireError> {
    match parse_header(buf) {
        Ok(header) => Ok(Some(header)),
        Err(WireError::Truncated) => Ok(None),
        Err(e) => Err(e),
    }
}

/// A captured, encode-ready copy of an estimator's state at one
/// publication epoch: the configuration header plus each bitmap's
/// canonical encoding as an independent byte blob.
///
/// Capturing is the sender-side half of the delta protocol: an edge
/// keeps the snapshot it last shipped, captures a new one at the next
/// publication, and [`WireSnapshot::delta_frame`] emits only the
/// bitmaps whose canonical bytes differ. Blobs are cheaply-clonable
/// [`Bytes`], so keeping a base around costs one allocation per
/// bitmap, not a second estimator.
#[derive(Debug, Clone)]
pub struct WireSnapshot {
    epoch: u64,
    tuples: u64,
    rank_sum_sup: u64,
    rank_sum_non: u64,
    tracked_bytes: u64,
    key: MergeKey,
    bitmaps: Vec<Bytes>,
    /// Inherited from the captured estimator: encode-side counters
    /// (`wire.frames_encoded_*`, `wire.bytes_out`) land in its registry.
    metrics: MetricsHandle,
    /// Inherited likewise: every encoded frame journals a
    /// [`TraceEvent::FrameEncoded`](crate::TraceEvent) if a journal is
    /// attached.
    trace: TraceHandle,
}

impl WireSnapshot {
    /// Captures the estimator's current state, labelled with the given
    /// publication epoch (the caller decides the epoch discipline —
    /// typically the value returned by
    /// [`ImplicationEstimator::publish`]).
    pub fn capture(est: &ImplicationEstimator, epoch: u64) -> Self {
        let (mut sup, mut non) = (0u64, 0u64);
        let bitmaps = est
            .bitmaps()
            .iter()
            .map(|bm| {
                sup += bm.rank_f0_sup() as u64;
                non += bm.rank_non_implication() as u64;
                let mut buf = BytesMut::new();
                bm.encode(&mut buf);
                buf.freeze()
            })
            .collect();
        Self {
            epoch,
            tuples: est.tuples_seen(),
            rank_sum_sup: sup,
            rank_sum_non: non,
            tracked_bytes: est.tracked_bytes() as u64,
            key: est.merge_key(),
            bitmaps,
            metrics: est.metrics().clone(),
            trace: est.trace().clone(),
        }
    }

    /// The epoch this snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tuples the estimator had ingested at capture time.
    pub fn tuples(&self) -> u64 {
        self.tuples
    }

    /// Sum of the per-bitmap canonical encodings in bytes — the payload
    /// a full frame carries before header overhead (the
    /// `snapshot_bytes_per_bitmap` telemetry numerator).
    pub fn payload_bytes(&self) -> usize {
        self.bitmaps.iter().map(Bytes::len).sum()
    }

    /// True if `base` was captured from the same configuration
    /// (conditions, bitmap count, hash seeds) at an epoch not after
    /// this one — the precondition for [`WireSnapshot::delta_frame`]
    /// to emit an actual delta.
    pub fn delta_compatible(&self, base: &WireSnapshot) -> bool {
        self.key.mismatch(&base.key).is_none() && base.epoch <= self.epoch
    }

    /// Encodes a full frame: the complete canonical state, applicable
    /// by any decoder regardless of what it held before.
    pub fn full_frame(&self, node_id: u64) -> Bytes {
        let mut body = BytesMut::with_capacity(64 + self.payload_bytes() + 4 * self.bitmaps.len());
        self.key.cond.encode(&mut body);
        put_varint(&mut body, self.key.bitmaps as u64);
        body.put_u64_le(self.key.seeds.0);
        body.put_u64_le(self.key.seeds.1);
        for blob in &self.bitmaps {
            put_varint(&mut body, blob.len() as u64);
            body.extend_from_slice(blob);
        }
        self.frame(FrameKind::Full, node_id, 0, &body)
    }

    /// Encodes a delta frame against `base`: a changed-bitmap mask plus
    /// the canonical encodings of exactly the bitmaps whose bytes
    /// differ. Falls back to [`WireSnapshot::full_frame`] when `base`
    /// is not [`delta_compatible`](WireSnapshot::delta_compatible) —
    /// the emitted frame always reconstructs this snapshot exactly.
    pub fn delta_frame(&self, base: &WireSnapshot, node_id: u64) -> Bytes {
        if !self.delta_compatible(base) {
            return self.full_frame(node_id);
        }
        let m = self.bitmaps.len();
        let mut mask = vec![0u8; m.div_ceil(8)];
        let mut changed = Vec::new();
        for (i, (now, then)) in self.bitmaps.iter().zip(&base.bitmaps).enumerate() {
            if now != then {
                mask[i / 8] |= 1 << (i % 8);
                changed.push(now);
            }
        }
        let changed_bytes: usize = changed.iter().map(|b| b.len()).sum();
        let mut body = BytesMut::with_capacity(mask.len() + changed_bytes + 4 * changed.len());
        body.extend_from_slice(&mask);
        for blob in changed {
            put_varint(&mut body, blob.len() as u64);
            body.extend_from_slice(blob);
        }
        self.frame(FrameKind::Delta, node_id, base.epoch, &body)
    }

    /// Assembles header + body into one contiguous frame, recording the
    /// encode in the captured estimator's metrics and trace journal. A
    /// delta that fell back to a full frame records as full — the
    /// counters describe what actually went on the wire.
    fn frame(&self, kind: FrameKind, node_id: u64, base_epoch: u64, body: &[u8]) -> Bytes {
        let mut out = BytesMut::with_capacity(body.len() + 8 * MAX_VARINT_BYTES);
        out.put_u32_le(WIRE_MAGIC);
        out.put_u16_le(WIRE_VERSION);
        out.put_u8(match kind {
            FrameKind::Full => 0,
            FrameKind::Delta => 1,
        });
        put_varint(&mut out, node_id);
        put_varint(&mut out, self.epoch);
        put_varint(&mut out, self.tuples);
        put_varint(&mut out, self.rank_sum_sup);
        put_varint(&mut out, self.rank_sum_non);
        put_varint(&mut out, self.tracked_bytes);
        if kind == FrameKind::Delta {
            put_varint(&mut out, base_epoch);
        }
        put_varint(&mut out, body.len() as u64);
        out.extend_from_slice(body);
        let frame = out.freeze();
        let w = &self.metrics.wire;
        match kind {
            FrameKind::Full => w.frames_encoded_full.inc(),
            FrameKind::Delta => w.frames_encoded_delta.inc(),
        }
        w.bytes_out.add(frame.len() as u64);
        let (bytes, epoch) = (frame.len() as u64, self.epoch);
        self.trace.record(|| crate::TraceEvent::FrameEncoded {
            node: node_id,
            kind,
            bytes,
            epoch,
        });
        frame
    }
}

/// The receive side of the wire protocol: holds (at most) one node's
/// replica estimator and folds incoming frames into it.
///
/// An aggregator keeps one decoder per edge, keyed by the frames'
/// [`FrameHeader::node_id`]. A full frame replaces the replica
/// wholesale; a delta frame replaces exactly the bitmaps it carries,
/// after the decoder verifies the declared base epoch matches the one
/// it holds. After any successful apply the decoder cross-checks the
/// header's rank sums against the decoded state, so a frame that
/// decodes but does not reproduce the sender's read-offs is rejected as
/// [`WireError::Corrupt`] rather than silently skewing the merge.
///
/// On any error while applying a **delta**, the held state is
/// discarded (a partially-patched replica must never be merged);
/// subsequent deltas fail with [`WireError::DeltaWithoutBase`] until a
/// full frame re-seeds it. A failed **full** frame leaves the previous
/// state untouched.
#[derive(Debug, Default)]
pub struct WireDecoder {
    replica: Option<ImplicationEstimator>,
    epoch: Option<u64>,
    budget: Option<MemoryBudget>,
    max_frame: Option<usize>,
    expect: Option<MergeKey>,
    metrics: MetricsHandle,
    trace: TraceHandle,
    /// Node id of the last frame whose header parsed — identity for
    /// resync trace events (0 until a header is seen).
    last_node: u64,
}

impl WireDecoder {
    /// A decoder with no held state, the default frame ceiling
    /// ([`DEFAULT_MAX_FRAME_BYTES`]) and no memory-budget preflight.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the decoded-size preflight: frames whose declared footprint
    /// ([`FrameHeader::decoded_bytes_hint`]) exceeds the budget's
    /// available headroom are rejected *before* anything is allocated,
    /// and the actual decoded footprint is re-checked after decoding
    /// (a lying hint cannot smuggle an oversized state through).
    #[must_use]
    pub fn with_budget(mut self, budget: MemoryBudget) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Overrides the ceiling on a frame's declared body length.
    #[must_use]
    pub fn with_max_frame_bytes(mut self, limit: usize) -> Self {
        self.max_frame = Some(limit);
        self
    }

    /// Routes decode counters (`wire.frames_decoded_*`, `wire.bytes_in`,
    /// the per-variant `wire.err_*` family, `wire.resyncs_forced`) into
    /// the given registry instead of a private one — an aggregator
    /// passes its serving estimator's handle so every per-edge decoder
    /// aggregates into the one scraped registry.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = metrics;
        self
    }

    /// Attaches a trace journal: rejected frames record
    /// [`TraceEvent::FrameRejected`](crate::TraceEvent) and forced
    /// resyncs record [`TraceEvent::ResyncForced`](crate::TraceEvent),
    /// which is what the serve binary's flight recorder drains on
    /// failure.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceHandle) -> Self {
        self.trace = trace;
        self
    }

    /// Requires every full frame to carry the same configuration
    /// (conditions, bitmap count, hash seeds) as `template`, so a
    /// misconfigured sender is rejected with
    /// [`WireError::ConfigMismatch`] instead of poisoning a merge
    /// (which would otherwise panic in
    /// [`ImplicationEstimator::merge`]).
    #[must_use]
    pub fn require_matching(mut self, template: &ImplicationEstimator) -> Self {
        self.expect = Some(template.merge_key());
        self
    }

    /// The replica reconstructed from frames applied so far.
    pub fn estimator(&self) -> Option<&ImplicationEstimator> {
        self.replica.as_ref()
    }

    /// Consumes the decoder, yielding the held replica.
    pub fn into_estimator(self) -> Option<ImplicationEstimator> {
        self.replica
    }

    /// The epoch of the held state, if any.
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// Drops any held state; the next frame must be full. Counts a
    /// forced resync (and journals it) only when state was actually
    /// held — calling `reset` on an already-empty decoder is free, so
    /// belt-and-braces resets after an error that internally reset do
    /// not double-count.
    pub fn reset(&mut self) {
        if self.replica.is_some() || self.epoch.is_some() {
            self.metrics.wire.resyncs_forced.inc();
            let (node, epoch) = (self.last_node, self.epoch.unwrap_or(0));
            self.trace
                .record(|| crate::TraceEvent::ResyncForced { node, epoch });
        }
        self.replica = None;
        self.epoch = None;
    }

    /// Applies one complete frame (exactly one — reassemble from the
    /// stream with [`peek_frame`] first) and returns its parsed header.
    /// See the type-level docs for the state machine on errors.
    ///
    /// Successful applies count `wire.frames_decoded_{full,delta}` and
    /// `wire.bytes_in`; failures count `wire.decode_errors` plus the
    /// per-variant `wire.err_*` counter and journal a
    /// [`TraceEvent::FrameRejected`](crate::TraceEvent) carrying the
    /// claimed node id and epoch (0 if the header never parsed).
    pub fn apply(&mut self, frame: Bytes) -> Result<FrameHeader, WireError> {
        // Re-parse for identity so the error path can name the claimed
        // sender even when the failure happens deep in the body; header
        // parsing is a few dozen varint reads, noise next to the body.
        let peeked = parse_header(&frame).ok();
        if let Some(h) = &peeked {
            self.last_node = h.node_id;
        }
        let frame_len = frame.len() as u64;
        let result = self.apply_inner(frame);
        let w = &self.metrics.wire;
        match &result {
            Ok(header) => {
                match header.kind {
                    FrameKind::Full => w.frames_decoded_full.inc(),
                    FrameKind::Delta => w.frames_decoded_delta.inc(),
                }
                w.bytes_in.add(frame_len);
            }
            Err(e) => {
                w.record_error(e);
                let (node, epoch) = peeked.map_or((0, 0), |h| (h.node_id, h.epoch));
                let code = e.code();
                self.trace.record(|| crate::TraceEvent::FrameRejected {
                    node,
                    error: code,
                    epoch,
                });
            }
        }
        result
    }

    /// [`WireDecoder::apply`] without the instrumentation wrapper.
    fn apply_inner(&mut self, frame: Bytes) -> Result<FrameHeader, WireError> {
        let header = parse_header(&frame)?;
        let limit = self.max_frame.unwrap_or(DEFAULT_MAX_FRAME_BYTES);
        if header.body_len > limit as u64 {
            return Err(WireError::FrameTooLarge {
                declared: header.body_len,
                limit,
            });
        }
        let actual_body = (frame.len() - header.header_len) as u64;
        if actual_body != header.body_len {
            // Reassembly contract: apply() takes exactly one frame.
            return if actual_body < header.body_len {
                Err(WireError::Truncated)
            } else {
                Err(WireError::Corrupt("trailing bytes after frame"))
            };
        }
        if let Some(budget) = &self.budget {
            let available = budget_headroom(budget);
            if header.decoded_bytes_hint > available as u64 {
                return Err(WireError::BudgetExceeded {
                    needed: header.decoded_bytes_hint as usize,
                    available,
                });
            }
        }
        let body = frame.slice(header.header_len..frame.len());
        let result = match header.kind {
            FrameKind::Full => self.apply_full(&header, body),
            FrameKind::Delta => self.apply_delta(&header, body).inspect_err(|_| {
                // A delta that failed mid-application may have replaced
                // some bitmaps already: the replica is poisoned.
                self.reset();
            }),
        };
        result?;
        self.epoch = Some(header.epoch);
        Ok(header)
    }

    /// Decodes a full frame into a fresh replica; commits only on
    /// success, so the previous state survives a bad frame.
    fn apply_full(&mut self, header: &FrameHeader, mut body: Bytes) -> Result<(), WireError> {
        let cond = decode_checked_conditions(&mut body)?;
        let mut cur = Cursor::new(&body);
        let m = get_varint(&mut cur)? as usize;
        let consumed = cur.pos;
        if !m.is_power_of_two() || m == 0 || m > MAX_WIRE_BITMAPS {
            return Err(WireError::Corrupt("bitmap count"));
        }
        body.advance(consumed);
        if body.remaining() < 16 {
            return Err(WireError::Truncated);
        }
        let seed_a = body.get_u64_le();
        let seed_b = body.get_u64_le();
        let found = MergeKey {
            cond,
            bitmaps: m,
            seeds: (seed_a, seed_b),
        };
        if let Some(field) = self.expect.and_then(|want| want.mismatch(&found)) {
            return Err(WireError::ConfigMismatch(field));
        }
        let budget = MemoryBudget::unlimited();
        let mut bitmaps = Vec::with_capacity(m);
        for _ in 0..m {
            bitmaps.push(decode_bitmap_blob(&mut body, cond, &budget)?);
        }
        if body.has_remaining() {
            return Err(WireError::Corrupt("trailing bytes in body"));
        }
        let replica = ImplicationEstimator::from_parts(
            cond,
            bitmaps,
            MixHasher::from_premixed(seed_a),
            MixHasher::from_premixed(seed_b),
            header.tuples,
            budget,
            MetricsHandle::new(),
            TraceHandle::disabled(),
        );
        verify_read_offs(&replica, header)?;
        self.check_actual_footprint(&replica)?;
        self.replica = Some(replica);
        Ok(())
    }

    /// Patches the held replica with a delta frame's changed bitmaps.
    fn apply_delta(&mut self, header: &FrameHeader, mut body: Bytes) -> Result<(), WireError> {
        let have = match self.epoch {
            Some(e) if self.replica.is_some() => e,
            _ => return Err(WireError::DeltaWithoutBase),
        };
        if header.base_epoch != have {
            return Err(WireError::BaseEpochMismatch {
                declared: header.base_epoch,
                have,
            });
        }
        if header.epoch < have {
            return Err(WireError::Corrupt("epoch regression"));
        }
        let replica = self.replica.as_mut().expect("checked above");
        if header.tuples < replica.tuples_seen() {
            return Err(WireError::Corrupt("tuple count regression"));
        }
        let cond = *replica.conditions();
        let m = replica.bitmap_count();
        let mask_len = m.div_ceil(8);
        if body.remaining() < mask_len {
            return Err(WireError::Truncated);
        }
        let mask = body.slice(0..mask_len);
        body.advance(mask_len);
        if !m.is_multiple_of(8) && mask[mask_len - 1] >> (m % 8) != 0 {
            return Err(WireError::Corrupt("mask padding"));
        }
        let budget = replica.memory_budget().clone();
        for i in 0..m {
            if mask[i / 8] & (1 << (i % 8)) != 0 {
                let bm = decode_bitmap_blob(&mut body, cond, &budget)?;
                replica.bitmaps_mut()[i] = bm;
            }
        }
        if body.has_remaining() {
            return Err(WireError::Corrupt("trailing bytes in body"));
        }
        replica.set_tuples(header.tuples);
        let replica = self.replica.as_ref().expect("still held");
        verify_read_offs(replica, header)?;
        self.check_actual_footprint(replica)?;
        Ok(())
    }

    /// Post-decode re-check of the actual footprint against the budget
    /// ceiling (the preflight trusted the header's hint).
    fn check_actual_footprint(&self, replica: &ImplicationEstimator) -> Result<(), WireError> {
        if let Some(budget) = &self.budget {
            let available = budget_headroom(budget);
            if replica.tracked_bytes() > available {
                return Err(WireError::BudgetExceeded {
                    needed: replica.tracked_bytes(),
                    available,
                });
            }
        }
        Ok(())
    }
}

/// Available headroom of a budget used as a decode ceiling.
fn budget_headroom(budget: &MemoryBudget) -> usize {
    if budget.is_limited() {
        budget.limit().saturating_sub(budget.used())
    } else {
        usize::MAX
    }
}

/// Decodes conditions off a body and applies the wire-level sanity cap
/// on the allocation-amplifying `K`.
fn decode_checked_conditions(body: &mut Bytes) -> Result<ImplicationConditions, WireError> {
    let cond = ImplicationConditions::decode(body)?;
    if cond.max_multiplicity > MAX_WIRE_MULTIPLICITY {
        return Err(WireError::Corrupt("max multiplicity"));
    }
    Ok(cond)
}

/// Decodes one length-prefixed canonical bitmap blob, requiring it to
/// consume exactly its declared bytes.
fn decode_bitmap_blob(
    body: &mut Bytes,
    cond: ImplicationConditions,
    budget: &MemoryBudget,
) -> Result<NipsBitmap, WireError> {
    let mut cur = Cursor::new(body);
    let blob_len = get_varint(&mut cur)? as usize;
    let consumed = cur.pos;
    body.advance(consumed);
    if body.remaining() < blob_len {
        return Err(WireError::Truncated);
    }
    let mut blob = body.slice(0..blob_len);
    body.advance(blob_len);
    let bm = NipsBitmap::decode(&mut blob, cond, budget)?;
    if blob.has_remaining() {
        return Err(WireError::Corrupt("bitmap blob length"));
    }
    Ok(bm)
}

/// Cross-checks the header's declared read-offs against the decoded
/// state — the end-to-end integrity check that catches a frame which
/// decodes structurally but does not reproduce the sender's state.
fn verify_read_offs(replica: &ImplicationEstimator, header: &FrameHeader) -> Result<(), WireError> {
    let (mut sup, mut non) = (0u64, 0u64);
    for bm in replica.bitmaps() {
        sup += bm.rank_f0_sup() as u64;
        non += bm.rank_non_implication() as u64;
    }
    if (sup, non) != (header.rank_sum_sup, header.rank_sum_non) {
        return Err(WireError::Corrupt("rank sums"));
    }
    Ok(())
}

/// Restores an estimator from either codec: a VERSION 2 snapshot
/// ([`ImplicationEstimator::to_bytes`] bytes) or a VERSION 3 **full**
/// frame. The cross-version entry point for tools that accept "some
/// serialized estimator state" — e.g. a collector reading both old
/// checkpoint files and freshly-shipped frames.
///
/// Unlike [`ImplicationEstimator::from_bytes`], the VERSION 2 path here
/// also enforces the wire-level sanity caps ([`MAX_WIRE_BITMAPS`],
/// [`MAX_WIRE_MULTIPLICITY`]) — use this for bytes of network
/// provenance, and `from_bytes` for trusted local files.
///
/// A VERSION 3 *delta* frame is rejected with
/// [`WireError::DeltaWithoutBase`]: deltas are only meaningful against
/// a held base, i.e. through a [`WireDecoder`].
pub fn decode_compat(bytes: Bytes) -> Result<ImplicationEstimator, CheckpointError> {
    let magic = (bytes.len() >= 4).then(|| bytes.slice(0..4).get_u32_le());
    match magic {
        Some(WIRE_MAGIC) => {
            let mut dec = WireDecoder::new();
            dec.apply(bytes).map_err(CheckpointError::Frame)?;
            Ok(dec.into_estimator().expect("apply succeeded"))
        }
        Some(crate::snapshot::MAGIC) => {
            decode_capped_snapshot(bytes).map_err(CheckpointError::Snapshot)
        }
        _ => Err(CheckpointError::UnknownFormat),
    }
}

/// [`decode_compat`]'s VERSION 2 path: checks the allocation-relevant
/// header fields against the wire caps before the snapshot decoder
/// sizes anything.
fn decode_capped_snapshot(bytes: Bytes) -> Result<ImplicationEstimator, SnapshotError> {
    use crate::snapshot::need;
    let mut header = bytes.slice(4..bytes.len());
    need(&header, 2)?;
    let version = header.get_u16_le();
    if version != crate::snapshot::VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if ImplicationConditions::decode(&mut header)?.max_multiplicity > MAX_WIRE_MULTIPLICITY {
        return Err(SnapshotError::Corrupt("max multiplicity"));
    }
    need(&header, 4)?;
    let m = header.get_u32_le() as usize;
    if !m.is_power_of_two() || m == 0 || m > MAX_WIRE_BITMAPS {
        return Err(SnapshotError::Corrupt("bitmap count"));
    }
    ImplicationEstimator::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EstimatorConfig;

    fn cond() -> ImplicationConditions {
        ImplicationConditions::one_to_c(2, 0.8, 3)
    }

    fn edge(seed: u64) -> ImplicationEstimator {
        EstimatorConfig::new(cond()).bitmaps(16).seed(seed).build()
    }

    fn run(est: &mut ImplicationEstimator, range: std::ops::Range<u64>) {
        for a in range {
            est.update(&[a % 700], &[a % 9]);
        }
    }

    #[test]
    fn full_frame_round_trips_bit_identically() {
        let mut est = edge(1);
        run(&mut est, 0..4_000);
        let snap = WireSnapshot::capture(&est, 1);
        let frame = snap.full_frame(42);
        let mut dec = WireDecoder::new();
        let header = dec.apply(frame).expect("apply full");
        assert_eq!(header.kind, FrameKind::Full);
        assert_eq!(header.node_id, 42);
        assert_eq!(header.epoch, 1);
        assert_eq!(dec.epoch(), Some(1));
        let replica = dec.estimator().expect("replica held");
        assert_eq!(replica.to_bytes(), est.to_bytes());
        assert_eq!(replica.estimate_now(), est.estimate_now());
    }

    #[test]
    fn delta_chain_reconstructs_exactly() {
        let mut est = edge(2);
        run(&mut est, 0..2_000);
        let base = WireSnapshot::capture(&est, 1);
        let mut dec = WireDecoder::new();
        dec.apply(base.full_frame(7)).expect("full");

        let mut prev = base;
        for (epoch, hi) in [(2u64, 2_500u64), (3, 2_600), (4, 5_000)] {
            run(&mut est, prev.tuples()..hi);
            let snap = WireSnapshot::capture(&est, epoch);
            let delta = snap.delta_frame(&prev, 7);
            // Deltas must actually be smaller when little changed.
            if epoch == 3 {
                assert!(
                    delta.len() < prev.full_frame(7).len(),
                    "delta {} >= full {}",
                    delta.len(),
                    prev.full_frame(7).len()
                );
            }
            let header = dec.apply(delta).expect("apply delta");
            assert_eq!(header.kind, FrameKind::Delta);
            assert_eq!(dec.estimator().unwrap().to_bytes(), est.to_bytes());
            prev = snap;
        }
    }

    #[test]
    fn a_published_replica_republishes_what_a_delta_changed() {
        let mut est = edge(13);
        run(&mut est, 0..2_000);
        let base = WireSnapshot::capture(&est, 1);
        let mut dec = WireDecoder::new();
        dec.apply(base.full_frame(7)).expect("full");
        let reader = dec.replica.as_mut().expect("held").reader();
        run(&mut est, 2_000..4_000);
        let next = WireSnapshot::capture(&est, 2);
        dec.apply(next.delta_frame(&base, 7)).expect("delta");
        let replica = dec.replica.as_mut().expect("held");
        replica.publish();
        let view = reader.view();
        assert_eq!(view.estimate(), est.estimate_now());
        assert_eq!(view.tuples(), est.tuples_seen());
        assert_eq!(view.entries(), est.entries() as u64);
    }

    #[test]
    fn empty_delta_is_valid_and_tiny() {
        let mut est = edge(3);
        run(&mut est, 0..1_000);
        let base = WireSnapshot::capture(&est, 1);
        let next = WireSnapshot::capture(&est, 2);
        let delta = next.delta_frame(&base, 1);
        assert!(delta.len() < 64, "no-change delta is {} bytes", delta.len());
        let mut dec = WireDecoder::new();
        dec.apply(base.full_frame(1)).unwrap();
        dec.apply(delta).unwrap();
        assert_eq!(dec.epoch(), Some(2));
        assert_eq!(dec.estimator().unwrap().to_bytes(), est.to_bytes());
    }

    #[test]
    fn delta_against_incompatible_base_falls_back_to_full() {
        let mut a = edge(4);
        let mut b = edge(5); // different seed ⇒ incompatible
        run(&mut a, 0..500);
        run(&mut b, 0..500);
        let base = WireSnapshot::capture(&b, 1);
        let snap = WireSnapshot::capture(&a, 2);
        let frame = snap.delta_frame(&base, 9);
        let header = parse_header(&frame).unwrap();
        assert_eq!(header.kind, FrameKind::Full);
    }

    #[test]
    fn cross_version_full_frame_matches_v2_snapshot() {
        // The wire's full payload embeds the same canonical per-bitmap
        // encoding VERSION 2 uses: decoding either representation and
        // re-encoding as VERSION 2 must give identical bytes.
        let mut est = edge(6);
        run(&mut est, 0..3_000);
        let v2 = est.to_bytes();
        let from_v2 = decode_compat(v2.clone()).expect("v2 path");
        let frame = WireSnapshot::capture(&est, 1).full_frame(0);
        let from_v3 = decode_compat(frame).expect("v3 path");
        assert_eq!(from_v2.to_bytes(), v2);
        assert_eq!(from_v3.to_bytes(), v2);
    }

    #[test]
    fn decode_compat_rejects_delta_frames() {
        let mut est = edge(7);
        run(&mut est, 0..500);
        let base = WireSnapshot::capture(&est, 1);
        run(&mut est, 500..600);
        let delta = WireSnapshot::capture(&est, 2).delta_frame(&base, 0);
        assert_eq!(
            decode_compat(delta).err(),
            Some(CheckpointError::Frame(WireError::DeltaWithoutBase))
        );
    }

    #[test]
    fn decode_compat_names_the_format_it_found() {
        let mut est = edge(9);
        run(&mut est, 0..500);
        let mut v2 = est.to_bytes().to_vec();
        // Magic (4 bytes) and version (2), then the conditions, K first.
        v2[6..10].copy_from_slice(&0x7fff_ffffu32.to_le_bytes());
        let err = decode_compat(Bytes::from(v2)).expect_err("K past the cap");
        assert_eq!(
            err,
            CheckpointError::Snapshot(SnapshotError::Corrupt("max multiplicity"))
        );
        assert_eq!(err.to_string(), "snapshot corrupt: max multiplicity");
        for garbage in [&b"not a checkpoint"[..], b"IM", b""] {
            let err = decode_compat(Bytes::from(garbage.to_vec())).expect_err("garbage");
            assert_eq!(err, CheckpointError::UnknownFormat);
            assert!(err
                .to_string()
                .contains("neither an IMPS snapshot nor an IMPW frame"));
        }
        let frame = WireSnapshot::capture(&est, 1).full_frame(0);
        let cut = frame.slice(0..frame.len() - 1);
        assert!(matches!(decode_compat(cut), Err(CheckpointError::Frame(_))));
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let mut est = edge(8);
        run(&mut est, 0..2_000);
        let frame = WireSnapshot::capture(&est, 1).full_frame(3);
        for cut in 0..frame.len() {
            let mut dec = WireDecoder::new();
            let err = dec.apply(frame.slice(0..cut)).expect_err("truncated");
            assert!(
                matches!(err, WireError::Truncated | WireError::Corrupt(_)),
                "cut at {cut}: unexpected {err:?}"
            );
            assert!(dec.estimator().is_none());
        }
    }

    #[test]
    fn stream_reassembly_via_peek_frame() {
        let mut est = edge(9);
        run(&mut est, 0..1_500);
        let snap = WireSnapshot::capture(&est, 1);
        let frame = snap.full_frame(5);
        // Partial header: need more bytes, not an error.
        assert_eq!(peek_frame(&frame[..3]).unwrap(), None);
        assert_eq!(peek_frame(&frame[..8]).unwrap(), None);
        // Complete header: total length is announced.
        let header = peek_frame(&frame).unwrap().expect("complete header");
        assert_eq!(header.frame_len(), frame.len());
        // Garbage can never become a frame.
        assert!(peek_frame(b"GET /estimate HTTP/1.0\r\n").is_err());
    }

    #[test]
    fn base_epoch_mismatch_and_delta_without_base() {
        let mut est = edge(10);
        run(&mut est, 0..800);
        let base = WireSnapshot::capture(&est, 1);
        run(&mut est, 800..900);
        let next = WireSnapshot::capture(&est, 2);
        let delta = next.delta_frame(&base, 0);

        let mut dec = WireDecoder::new();
        assert_eq!(dec.apply(delta.clone()), Err(WireError::DeltaWithoutBase));

        dec.apply(next.full_frame(0)).unwrap(); // decoder is at epoch 2
        let err = dec.apply(delta).expect_err("stale base");
        assert_eq!(
            err,
            WireError::BaseEpochMismatch {
                declared: 1,
                have: 2
            }
        );
        // The failed delta poisoned nothing it shouldn't have — but per
        // the state machine, any delta error resets the decoder.
        assert!(dec.estimator().is_none());
    }

    #[test]
    fn budget_preflight_rejects_oversized_frames() {
        let mut est = edge(11);
        run(&mut est, 0..5_000);
        let frame = WireSnapshot::capture(&est, 1).full_frame(0);
        let tight = MemoryBudget::with_limit(1024); // far below tracked state
        let mut dec = WireDecoder::new().with_budget(tight);
        match dec.apply(frame).expect_err("over budget") {
            WireError::BudgetExceeded { needed, available } => {
                assert!(needed > available);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(dec.estimator().is_none(), "nothing was materialized");
    }

    #[test]
    fn budget_postcheck_catches_lying_hints() {
        let mut est = edge(12);
        run(&mut est, 0..5_000);
        let frame = WireSnapshot::capture(&est, 1).full_frame(0);
        // Forge the header: re-encode with a tiny decoded_bytes_hint.
        let header = parse_header(&frame).unwrap();
        let mut forged = BytesMut::new();
        forged.put_u32_le(WIRE_MAGIC);
        forged.put_u16_le(WIRE_VERSION);
        forged.put_u8(0);
        for v in [
            header.node_id,
            header.epoch,
            header.tuples,
            header.rank_sum_sup,
            header.rank_sum_non,
            16, // the lie
            header.body_len,
        ] {
            put_varint(&mut forged, v);
        }
        forged.extend_from_slice(&frame[header.header_len..]);
        let mut dec = WireDecoder::new().with_budget(MemoryBudget::with_limit(1024));
        match dec.apply(forged.freeze()).expect_err("actual footprint") {
            WireError::BudgetExceeded { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(dec.estimator().is_none());
    }

    #[test]
    fn config_mismatch_is_rejected_before_merge_could_panic() {
        let mut template = edge(13);
        let mut other = edge(14); // different seed
        run(&mut template, 0..100);
        run(&mut other, 0..100);
        let frame = WireSnapshot::capture(&other, 1).full_frame(0);
        let mut dec = WireDecoder::new().require_matching(&template);
        assert_eq!(
            dec.apply(frame),
            Err(WireError::ConfigMismatch("hash seeds"))
        );
    }

    #[test]
    fn frame_ceiling_is_enforced_before_allocation() {
        let mut est = edge(15);
        run(&mut est, 0..2_000);
        let frame = WireSnapshot::capture(&est, 1).full_frame(0);
        let mut dec = WireDecoder::new().with_max_frame_bytes(16);
        match dec.apply(frame).expect_err("too large") {
            WireError::FrameTooLarge { limit: 16, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rank_sum_tampering_is_detected() {
        let mut est = edge(16);
        run(&mut est, 0..2_000);
        let snap = WireSnapshot::capture(&est, 1);
        let mut tampered = snap.clone();
        tampered.rank_sum_non = tampered.rank_sum_non.wrapping_add(1);
        let mut dec = WireDecoder::new();
        assert_eq!(
            dec.apply(tampered.full_frame(0)),
            Err(WireError::Corrupt("rank sums"))
        );
    }

    #[test]
    fn codec_metrics_and_trace_cover_encode_decode_and_errors() {
        use crate::{MetricsHandle, TraceEvent, TraceHandle};

        let mut est = edge(17);
        run(&mut est, 0..1_500);
        let base = WireSnapshot::capture(&est, 1);
        run(&mut est, 1_500..1_600);
        let next = WireSnapshot::capture(&est, 2);
        let full = base.full_frame(3);
        let delta = next.delta_frame(&base, 3);
        // Encode side: counters land in the captured estimator's
        // registry (both snapshots share it).
        let w = &est.metrics().wire;
        assert_eq!(w.frames_encoded_full.get(), 1);
        assert_eq!(w.frames_encoded_delta.get(), 1);
        assert_eq!(w.bytes_out.get(), (full.len() + delta.len()) as u64);

        let metrics = MetricsHandle::new();
        let trace = TraceHandle::with_capacity(64);
        let mut dec = WireDecoder::new()
            .with_metrics(metrics.clone())
            .with_trace(trace.clone());
        dec.apply(full.clone()).expect("full applies");
        dec.apply(delta.clone()).expect("delta applies");
        // Replay of the same delta: base epoch no longer matches; the
        // internal reset fires, and a second explicit reset is free.
        let err = dec.apply(delta).expect_err("stale delta");
        assert_eq!(err.code(), 7);
        assert_eq!(err.name(), "base_epoch_mismatch");
        dec.reset(); // already empty — must not double-count
        let w = &metrics.wire;
        assert_eq!(w.frames_decoded_full.get(), 1);
        assert_eq!(w.frames_decoded_delta.get(), 1);
        assert!(w.bytes_in.get() > 0);
        assert_eq!(w.decode_errors.get(), 1);
        assert_eq!(w.err_base_epoch_mismatch.get(), 1);
        assert_eq!(w.resyncs_forced.get(), 1);
        let journal = trace.journal().expect("journal attached");
        let events = journal.events();
        assert!(events.iter().any(|e| matches!(
            e.event,
            TraceEvent::FrameRejected {
                node: 3,
                error: 7,
                epoch: 2
            }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::ResyncForced { node: 3, .. })));
    }

    #[test]
    fn reject_code_names_are_stable() {
        assert_eq!(WireError::BadMagic.code(), 0);
        assert_eq!(WireError::Truncated.name(), "truncated");
        assert_eq!(reject_code_name(REJECT_NODE_ID_SWITCH), "node_id_switch");
        assert_eq!(reject_code_name(200), "unknown");
    }

    #[test]
    fn varint_bounds() {
        let mut buf = BytesMut::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut cur = Cursor::new(&buf);
            assert_eq!(get_varint(&mut cur).unwrap(), v);
            assert_eq!(cur.pos, buf.len());
        }
        // 11-byte varints and 10-byte overflows are rejected.
        let long = [0x80u8; 11];
        assert!(get_varint(&mut Cursor::new(&long)).is_err());
        let overflow = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(
            get_varint(&mut Cursor::new(&overflow)),
            Err(WireError::Corrupt("varint overflow"))
        );
    }
}
