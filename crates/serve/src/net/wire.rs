//! The `BIQP` wire codec — pure frame encoding/decoding, no sockets.
//!
//! One frame per message, little-endian throughout:
//!
//! ```text
//! offset size  field
//!      0    4  magic     "BIQP"
//!      4    1  version   1
//!      5    1  kind      message discriminant (see [`Message`])
//!      6    2  reserved  must be zero
//!      8    4  body_len  bytes after the header (≤ MAX_BODY)
//!     12    4  checksum  fnv1a64(body) folded hi32 ^ lo32
//!     16    …  body      kind-specific, must be consumed exactly
//! ```
//!
//! Decoding follows the artifact crate's discipline: every read checks the
//! remaining length, every count is capped **before** any allocation, the
//! body must tile exactly (trailing bytes are an error), nonzero reserved
//! fields are errors, and the checksum is verified before the body is
//! parsed — a corrupt frame is always [`WireError::Malformed`], never a
//! panic or an over-allocation.

use crate::registry::ModelInfo;
use biq_artifact::fnv1a64;
use biq_obs::{
    HistogramSnapshot, MetricValue, OpPoint, RequestRecord, Sample, SeriesPoint, SlowHit, BUCKETS,
};
use std::io::Read;

/// Frame magic.
pub const MAGIC: [u8; 4] = *b"BIQP";
/// Protocol version this codec speaks.
pub const WIRE_VERSION: u8 = 1;
/// Fixed frame-header size in bytes.
pub const HEADER_LEN: usize = 16;
/// Cap on `body_len`: nothing is allocated past this (16 MiB).
pub const MAX_BODY: usize = 1 << 24;
/// Cap on an op-name length in bytes.
pub const MAX_NAME: usize = 256;
/// Cap on request/reply columns per frame.
pub const MAX_COLS: usize = 4096;
/// Cap on request/reply rows per frame.
pub const MAX_ROWS: usize = 1 << 20;
/// Cap on a reject-message length in bytes.
pub const MAX_MSG: usize = 1024;
/// Cap on ops listed in one `OpList` frame.
pub const MAX_OPS: usize = 4096;
/// Cap on samples carried by one `StatsReply` frame.
pub const MAX_SAMPLES: usize = 2048;
/// Cap on a metric-name length in bytes.
pub const MAX_METRIC_NAME: usize = 160;
/// Cap on labels per stats sample.
pub const MAX_LABELS: usize = 8;
/// Cap on a label-key length in bytes.
pub const MAX_LABEL_KEY: usize = 64;
/// Cap on a label-value length in bytes.
pub const MAX_LABEL_VALUE: usize = 128;
/// `StatsReply` body schema version this codec speaks. The body carries
/// its own version byte (separate from the frame header's) so the stats
/// schema can evolve without a protocol bump.
pub const STATS_VERSION: u8 = 1;
/// Cap on time-series points carried by one `HistoryReply` frame.
pub const MAX_POINTS: usize = 512;
/// Cap on per-op rows within one history point.
pub const MAX_POINT_OPS: usize = 256;
/// Cap on slow-request entries carried by one `SlowLogReply` frame.
pub const MAX_SLOW: usize = 256;
/// `HistoryReply` body schema version (own byte, like `STATS_VERSION`).
pub const HISTORY_VERSION: u8 = 1;
/// `SlowLogReply` body schema version (own byte, like `STATS_VERSION`).
pub const SLOWLOG_VERSION: u8 = 1;
/// Cap on an artifact path carried by a `LoadModel` frame.
pub const MAX_PATH: usize = 4096;
/// Cap on model rows in one `ModelList` frame (and on evicted names in a
/// `ModelLoaded` frame). Mirrors [`crate::registry::MAX_MODELS`].
pub const MAX_MODELS: usize = 256;
/// Body schema version shared by all six model-fleet admin bodies
/// (`LoadModel`/`ModelLoaded`/`UnloadModel`/`ModelUnloaded`/`ListModels`/
/// `ModelList`) — each body leads with this byte, like `STATS_VERSION`.
pub const MODEL_VERSION: u8 = 1;

/// Why a request was refused (the wire image of
/// [`crate::ServeError`], plus `Malformed` for protocol errors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// The server's bounded queue is full — retry later.
    Busy,
    /// The server is draining and no longer accepts requests.
    ShuttingDown,
    /// The named op is not registered.
    UnknownOp,
    /// The payload's row count disagrees with the op's input size.
    ShapeMismatch,
    /// The server dropped the request without answering.
    Canceled,
    /// The frame itself was invalid; the connection closes after this.
    Malformed,
    /// An admin verb (model load/unload) was refused — bad artifact,
    /// name/op collision, memory budget, or in-flight protection. The
    /// connection stays open; `req_id` is 0 (admin verbs carry none).
    Refused,
}

impl RejectCode {
    fn to_u8(self) -> u8 {
        match self {
            RejectCode::Busy => 1,
            RejectCode::ShuttingDown => 2,
            RejectCode::UnknownOp => 3,
            RejectCode::ShapeMismatch => 4,
            RejectCode::Canceled => 5,
            RejectCode::Malformed => 6,
            RejectCode::Refused => 7,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => RejectCode::Busy,
            2 => RejectCode::ShuttingDown,
            3 => RejectCode::UnknownOp,
            4 => RejectCode::ShapeMismatch,
            5 => RejectCode::Canceled,
            6 => RejectCode::Malformed,
            7 => RejectCode::Refused,
            other => return Err(malformed(format!("unknown reject code {other}"))),
        })
    }

    /// Stable lowercase name (reporting).
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::Busy => "busy",
            RejectCode::ShuttingDown => "shutting-down",
            RejectCode::UnknownOp => "unknown-op",
            RejectCode::ShapeMismatch => "shape-mismatch",
            RejectCode::Canceled => "canceled",
            RejectCode::Malformed => "malformed",
            RejectCode::Refused => "refused",
        }
    }
}

impl std::fmt::Display for RejectCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One op row in an [`Message::OpList`] frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpInfo {
    /// Registration name.
    pub name: String,
    /// Output rows `m`.
    pub m: u32,
    /// Input rows `n` (what a request payload must have).
    pub n: u32,
}

/// Every message the protocol carries, client→server and server→client.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// Client→server: run `op` on an `rows × cols` column-major fp32
    /// payload. `req_id` is echoed in the matching reply/reject and is the
    /// client's to choose (pipelining key).
    Request {
        /// Client-chosen correlation id.
        req_id: u64,
        /// Registered op name.
        op: String,
        /// Payload rows (the op's input size).
        rows: u32,
        /// Payload columns.
        cols: u16,
        /// Column-major fp32 payload, `rows × cols` values.
        data: Vec<f32>,
    },
    /// Server→client: the `m × cols` row-major result of a request.
    Reply {
        /// The request's correlation id.
        req_id: u64,
        /// Result rows (the op's output size `m`).
        rows: u32,
        /// Result columns (the request's column count).
        cols: u16,
        /// Row-major fp32 result, `rows × cols` values.
        data: Vec<f32>,
    },
    /// Server→client: the request was refused; `Busy` is the backpressure
    /// edge and is retryable.
    Reject {
        /// The request's correlation id (0 when no frame could be parsed).
        req_id: u64,
        /// Why.
        code: RejectCode,
        /// Human-readable detail.
        msg: String,
    },
    /// Client→server: ask for the op table.
    ListOps,
    /// Server→client: the registered ops, in registration order.
    OpList(Vec<OpInfo>),
    /// Client→server: ask for a live metrics snapshot (admin verb, empty
    /// body). Answered from counters the reader thread can reach — never
    /// by touching a worker.
    Stats,
    /// Server→client: the metric samples behind [`Message::Stats`].
    StatsReply(Vec<Sample>),
    /// Client→server: ask for the daemon's rolling per-interval
    /// time-series (admin verb). `max_points == 0` means "all retained".
    History {
        /// Newest points wanted (0 = every retained point).
        max_points: u16,
    },
    /// Server→client: the retained series points, oldest first.
    HistoryReply(Vec<SeriesPoint>),
    /// Client→server: ask for the slowest-request records (admin verb).
    /// `max == 0` means "the whole reservoir".
    SlowLog {
        /// Entries wanted (0 = the whole reservoir).
        max: u16,
    },
    /// Server→client: the slowest requests seen, slowest first, each with
    /// its full phase breakdown.
    SlowLogReply(Vec<SlowHit>),
    /// Client→server (admin verb): load the BIQM artifact at `path` (on
    /// the **daemon's** filesystem — the frame carries a path, never the
    /// artifact bytes) under `name`. An existing live `name` swaps to a
    /// new version and retires the old one (drain-on-retire). Refusals
    /// come back as `Reject(code = Refused, req_id = 0)`.
    LoadModel {
        /// Model name to load or swap.
        name: String,
        /// Artifact path, resolved daemon-side.
        path: String,
    },
    /// Server→client: the load succeeded.
    ModelLoaded {
        /// The loaded model's name (echoed).
        name: String,
        /// The version the load produced (1 for a new name, prev+1 for a
        /// swap).
        version: u32,
        /// Estimated resident bytes of the new version.
        mem_bytes: u64,
        /// Ops the artifact registered.
        ops: u32,
        /// `name@version` of models evicted to make room under the memory
        /// budget.
        evicted: Vec<String>,
    },
    /// Client→server (admin verb): retire a model version online.
    UnloadModel {
        /// Model name to unload.
        name: String,
        /// Version to retire; 0 means "the live version".
        version: u32,
    },
    /// Server→client: the unload succeeded.
    ModelUnloaded {
        /// The unloaded model's name (echoed).
        name: String,
        /// The version actually retired.
        version: u32,
        /// Ops the retirement removed from resolution.
        ops_retired: u32,
    },
    /// Client→server (admin verb): ask for the model table.
    ListModels,
    /// Server→client: every model version the registry knows, live first.
    ModelList(Vec<ModelInfo>),
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Request { .. } => 1,
            Message::Reply { .. } => 2,
            Message::Reject { .. } => 3,
            Message::ListOps => 4,
            Message::OpList(_) => 5,
            Message::Stats => 6,
            Message::StatsReply(_) => 7,
            Message::History { .. } => 8,
            Message::HistoryReply(_) => 9,
            Message::SlowLog { .. } => 10,
            Message::SlowLogReply(_) => 11,
            Message::LoadModel { .. } => 12,
            Message::ModelLoaded { .. } => 13,
            Message::UnloadModel { .. } => 14,
            Message::ModelUnloaded { .. } => 15,
            Message::ListModels => 16,
            Message::ModelList(_) => 17,
        }
    }
}

/// Decode/IO errors of the wire layer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The bytes violate the protocol; the connection must close.
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl WireError {
    /// True when the failure was specifically a body-checksum mismatch —
    /// the one malformed-frame class that indicates corruption in transit
    /// rather than a broken peer, so the net layer counts it separately.
    pub fn is_checksum_mismatch(&self) -> bool {
        matches!(self, WireError::Malformed(m) if m == "checksum mismatch")
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

fn malformed(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// `fnv1a64` folded to the header's 32-bit checksum field.
pub fn fold_checksum(body: &[u8]) -> u32 {
    let h = fnv1a64(body);
    (h >> 32) as u32 ^ h as u32
}

// ---------------------------------------------------------------- encoding

struct Writer<'a> {
    buf: &'a mut Vec<u8>,
}

impl Writer<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    fn f32s(&mut self, vs: &[f32]) {
        for v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Writes the 16-byte placeholder header; [`seal_frame`] patches it once
/// the body length and checksum are known.
fn start_frame(frame: &mut Vec<u8>, kind: u8) {
    frame.clear();
    frame.extend_from_slice(&MAGIC);
    frame.push(WIRE_VERSION);
    frame.push(kind);
    frame.extend_from_slice(&0u16.to_le_bytes());
    frame.extend_from_slice(&[0u8; 8]); // body_len + checksum, patched later
}

fn seal_frame(frame: &mut [u8]) {
    let body_len = frame.len() - HEADER_LEN;
    assert!(body_len <= MAX_BODY, "body over cap");
    let sum = fold_checksum(&frame[HEADER_LEN..]);
    frame[8..12].copy_from_slice(&(body_len as u32).to_le_bytes());
    frame[12..16].copy_from_slice(&sum.to_le_bytes());
}

/// Encodes one message as a complete frame (header + body).
///
/// # Panics
/// Panics when the message violates its own caps (name/msg/payload too
/// large, `data.len() != rows·cols`) — encoders construct messages, so a
/// violation is a local bug, not remote input.
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_into(&mut frame, msg);
    frame
}

/// [`encode`] into a caller-owned scratch buffer: the frame replaces the
/// buffer's contents and its capacity is reused, so a steady-state encode
/// loop allocates nothing once the buffer has grown to its working set.
pub fn encode_into(frame: &mut Vec<u8>, msg: &Message) {
    start_frame(frame, msg.kind());
    let mut w = Writer { buf: frame };
    match msg {
        Message::Request { req_id, op, rows, cols, data } => {
            assert!(op.len() <= MAX_NAME, "op name over cap");
            assert!((*rows as usize) <= MAX_ROWS && (*cols as usize) <= MAX_COLS);
            assert_eq!(data.len(), *rows as usize * *cols as usize, "payload shape");
            w.u64(*req_id);
            w.u16(op.len() as u16);
            w.bytes(op.as_bytes());
            w.u32(*rows);
            w.u16(*cols);
            w.f32s(data);
        }
        Message::Reply { req_id, rows, cols, data } => {
            assert!((*rows as usize) <= MAX_ROWS && (*cols as usize) <= MAX_COLS);
            assert_eq!(data.len(), *rows as usize * *cols as usize, "payload shape");
            w.u64(*req_id);
            w.u32(*rows);
            w.u16(*cols);
            w.f32s(data);
        }
        Message::Reject { req_id, code, msg } => {
            assert!(msg.len() <= MAX_MSG, "reject message over cap");
            w.u64(*req_id);
            w.u8(code.to_u8());
            w.u16(msg.len() as u16);
            w.bytes(msg.as_bytes());
        }
        Message::ListOps => {}
        Message::OpList(ops) => {
            assert!(ops.len() <= MAX_OPS, "op list over cap");
            w.u16(ops.len() as u16);
            for op in ops {
                assert!(op.name.len() <= MAX_NAME, "op name over cap");
                w.u16(op.name.len() as u16);
                w.bytes(op.name.as_bytes());
                w.u32(op.m);
                w.u32(op.n);
            }
        }
        Message::Stats => {}
        Message::StatsReply(samples) => {
            assert!(samples.len() <= MAX_SAMPLES, "sample list over cap");
            w.u8(STATS_VERSION);
            w.u16(samples.len() as u16);
            for s in samples {
                assert!(s.name.len() <= MAX_METRIC_NAME, "metric name over cap");
                assert!(s.labels.len() <= MAX_LABELS, "label list over cap");
                w.u8(match s.value {
                    MetricValue::Counter(_) => 1,
                    MetricValue::Gauge(_) => 2,
                    MetricValue::Histogram(_) => 3,
                });
                w.u16(s.name.len() as u16);
                w.bytes(s.name.as_bytes());
                w.u8(s.labels.len() as u8);
                for (k, v) in &s.labels {
                    assert!(k.len() <= MAX_LABEL_KEY, "label key over cap");
                    assert!(v.len() <= MAX_LABEL_VALUE, "label value over cap");
                    w.u8(k.len() as u8);
                    w.bytes(k.as_bytes());
                    w.u8(v.len() as u8);
                    w.bytes(v.as_bytes());
                }
                match &s.value {
                    MetricValue::Counter(v) => w.u64(*v),
                    MetricValue::Gauge(v) => w.u64(*v as u64),
                    MetricValue::Histogram(h) => {
                        for b in h.buckets {
                            w.u64(b);
                        }
                        w.u64(h.sum);
                    }
                }
            }
        }
        Message::History { max_points } => {
            w.u16(*max_points);
        }
        Message::HistoryReply(points) => {
            assert!(points.len() <= MAX_POINTS, "point list over cap");
            w.u8(HISTORY_VERSION);
            w.u16(points.len() as u16);
            for p in points {
                assert!(p.ops.len() <= MAX_POINT_OPS, "op rows over cap");
                w.u64(p.t_ms);
                w.u64(p.interval_ns);
                w.u16(p.ops.len() as u16);
                for op in &p.ops {
                    assert!(op.op.len() <= MAX_NAME, "op name over cap");
                    w.u16(op.op.len() as u16);
                    w.bytes(op.op.as_bytes());
                    w.u64(op.submitted);
                    w.u64(op.completed);
                    w.u64(op.rejected);
                    w.u64(op.queue_depth);
                    w.u64(op.batches);
                    w.u64(op.batch_cols_x100);
                    w.u64(op.p50_us);
                    w.u64(op.p99_us);
                }
            }
        }
        Message::SlowLog { max } => {
            w.u16(*max);
        }
        Message::SlowLogReply(hits) => {
            assert!(hits.len() <= MAX_SLOW, "slow list over cap");
            w.u8(SLOWLOG_VERSION);
            w.u16(hits.len() as u16);
            for hit in hits {
                assert!(hit.op.len() <= MAX_NAME, "op name over cap");
                w.u16(hit.op.len() as u16);
                w.bytes(hit.op.as_bytes());
                let r = &hit.rec;
                w.u64(r.req_id);
                w.u32(r.op);
                w.u32(r.cols);
                w.u64(r.start_ns);
                w.u64(r.total_ns);
                w.u64(r.queue_ns);
                w.u64(r.window_ns);
                w.u64(r.exec_ns);
                w.u64(r.ticket_ns);
                w.u64(r.write_ns);
            }
        }
        Message::LoadModel { name, path } => {
            assert!(name.len() <= MAX_NAME, "model name over cap");
            assert!(path.len() <= MAX_PATH, "artifact path over cap");
            w.u8(MODEL_VERSION);
            w.u16(name.len() as u16);
            w.bytes(name.as_bytes());
            w.u16(path.len() as u16);
            w.bytes(path.as_bytes());
        }
        Message::ModelLoaded { name, version, mem_bytes, ops, evicted } => {
            assert!(name.len() <= MAX_NAME, "model name over cap");
            assert!(evicted.len() <= MAX_MODELS, "evicted list over cap");
            w.u8(MODEL_VERSION);
            w.u16(name.len() as u16);
            w.bytes(name.as_bytes());
            w.u32(*version);
            w.u64(*mem_bytes);
            w.u32(*ops);
            w.u16(evicted.len() as u16);
            for e in evicted {
                assert!(e.len() <= MAX_NAME, "evicted name over cap");
                w.u16(e.len() as u16);
                w.bytes(e.as_bytes());
            }
        }
        Message::UnloadModel { name, version } => {
            assert!(name.len() <= MAX_NAME, "model name over cap");
            w.u8(MODEL_VERSION);
            w.u16(name.len() as u16);
            w.bytes(name.as_bytes());
            w.u32(*version);
        }
        Message::ModelUnloaded { name, version, ops_retired } => {
            assert!(name.len() <= MAX_NAME, "model name over cap");
            w.u8(MODEL_VERSION);
            w.u16(name.len() as u16);
            w.bytes(name.as_bytes());
            w.u32(*version);
            w.u32(*ops_retired);
        }
        Message::ListModels => {
            w.u8(MODEL_VERSION);
        }
        Message::ModelList(models) => {
            assert!(models.len() <= MAX_MODELS, "model list over cap");
            w.u8(MODEL_VERSION);
            w.u16(models.len() as u16);
            for m in models {
                assert!(m.name.len() <= MAX_NAME, "model name over cap");
                w.u16(m.name.len() as u16);
                w.bytes(m.name.as_bytes());
                w.u32(m.version);
                w.u8(if m.live { 1 } else { 2 });
                w.u64(m.mem_bytes);
                // Counts travel as u32 and saturate rather than wrap.
                w.u32(u32::try_from(m.ops).unwrap_or(u32::MAX));
                w.u32(u32::try_from(m.inflight).unwrap_or(u32::MAX));
                w.u64(m.completed);
            }
        }
    }
    seal_frame(frame);
}

/// Encodes a [`Message::Request`] frame straight from borrowed parts —
/// byte-identical to `encode_into(frame, &Message::Request { .. })`
/// without materialising the owned `String`/`Vec<f32>` the `Message`
/// variant demands. The client's pipelined send path reuses one scratch
/// buffer and allocates nothing at steady state.
///
/// # Panics
/// Panics on cap violations, like [`encode`].
pub fn encode_request_into(
    frame: &mut Vec<u8>,
    req_id: u64,
    op: &str,
    rows: u32,
    cols: u16,
    data: &[f32],
) {
    assert!(op.len() <= MAX_NAME, "op name over cap");
    assert!((rows as usize) <= MAX_ROWS && (cols as usize) <= MAX_COLS);
    assert_eq!(data.len(), rows as usize * cols as usize, "payload shape");
    start_frame(frame, 1);
    let mut w = Writer { buf: frame };
    w.u64(req_id);
    w.u16(op.len() as u16);
    w.bytes(op.as_bytes());
    w.u32(rows);
    w.u16(cols);
    w.f32s(data);
    seal_frame(frame);
}

/// Encodes a `Reply` frame straight from its parts into `frame`
/// (cleared first), skipping the intermediate [`Message`] — the server's
/// hot reply path borrows the answer's storage instead of cloning it.
///
/// # Panics
/// Panics on cap violations, like [`encode`].
pub fn encode_reply_into(frame: &mut Vec<u8>, req_id: u64, rows: u32, cols: u16, data: &[f32]) {
    assert!((rows as usize) <= MAX_ROWS && (cols as usize) <= MAX_COLS);
    assert_eq!(data.len(), rows as usize * cols as usize, "payload shape");
    start_frame(frame, 2);
    let mut w = Writer { buf: frame };
    w.u64(req_id);
    w.u32(rows);
    w.u16(cols);
    w.f32s(data);
    seal_frame(frame);
}

// ---------------------------------------------------------------- decoding

/// A bounds-checked cursor over a frame body.
struct Reader<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or_else(|| malformed(format!("{what}: overflow")))?;
        if end > self.body.len() {
            return Err(malformed(format!(
                "{what}: needs {n} bytes, {} remain",
                self.body.len() - self.at
            )));
        }
        let s = &self.body[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }
    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }
    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn string(&mut self, len: usize, cap: usize, what: &str) -> Result<String, WireError> {
        if len > cap {
            return Err(malformed(format!("{what}: length {len} over cap {cap}")));
        }
        let raw = self.take(len, what)?;
        String::from_utf8(raw.to_vec()).map_err(|_| malformed(format!("{what}: not utf-8")))
    }

    /// `count` f32 values; the count is validated against the remaining
    /// body length **before** allocating.
    fn f32s(&mut self, count: usize, what: &str) -> Result<Vec<f32>, WireError> {
        let bytes =
            count.checked_mul(4).ok_or_else(|| malformed(format!("{what}: count overflow")))?;
        if self.at + bytes > self.body.len() {
            return Err(malformed(format!(
                "{what}: {count} values need {bytes} bytes, {} remain",
                self.body.len() - self.at
            )));
        }
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.at != self.body.len() {
            return Err(malformed(format!(
                "{what}: {} trailing body bytes",
                self.body.len() - self.at
            )));
        }
        Ok(())
    }
}

/// Validates a 16-byte header; returns `(kind, body_len, checksum)`.
fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize, u32), WireError> {
    if h[0..4] != MAGIC {
        return Err(malformed("bad magic"));
    }
    if h[4] != WIRE_VERSION {
        return Err(malformed(format!("unsupported version {}", h[4])));
    }
    let kind = h[5];
    if h[6] != 0 || h[7] != 0 {
        return Err(malformed("nonzero reserved field"));
    }
    let body_len = u32::from_le_bytes(h[8..12].try_into().expect("4 bytes")) as usize;
    if body_len > MAX_BODY {
        return Err(malformed(format!("body length {body_len} over cap {MAX_BODY}")));
    }
    let checksum = u32::from_le_bytes(h[12..16].try_into().expect("4 bytes"));
    Ok((kind, body_len, checksum))
}

/// Parses a checksum-verified body of the given kind.
fn parse_body(kind: u8, body: &[u8]) -> Result<Message, WireError> {
    let mut r = Reader { body, at: 0 };
    let msg = match kind {
        1 => {
            let req_id = r.u64("request id")?;
            let name_len = r.u16("op name length")? as usize;
            let op = r.string(name_len, MAX_NAME, "op name")?;
            let rows = r.u32("rows")?;
            let cols = r.u16("cols")?;
            if rows as usize > MAX_ROWS {
                return Err(malformed(format!("rows {rows} over cap {MAX_ROWS}")));
            }
            if cols as usize > MAX_COLS {
                return Err(malformed(format!("cols {cols} over cap {MAX_COLS}")));
            }
            let data = r.f32s(rows as usize * cols as usize, "request payload")?;
            Message::Request { req_id, op, rows, cols, data }
        }
        2 => {
            let req_id = r.u64("reply id")?;
            let rows = r.u32("rows")?;
            let cols = r.u16("cols")?;
            if rows as usize > MAX_ROWS {
                return Err(malformed(format!("rows {rows} over cap {MAX_ROWS}")));
            }
            if cols as usize > MAX_COLS {
                return Err(malformed(format!("cols {cols} over cap {MAX_COLS}")));
            }
            let data = r.f32s(rows as usize * cols as usize, "reply payload")?;
            Message::Reply { req_id, rows, cols, data }
        }
        3 => {
            let req_id = r.u64("reject id")?;
            let code = RejectCode::from_u8(r.u8("reject code")?)?;
            let msg_len = r.u16("reject message length")? as usize;
            let msg = r.string(msg_len, MAX_MSG, "reject message")?;
            Message::Reject { req_id, code, msg }
        }
        4 => Message::ListOps,
        5 => {
            let count = r.u16("op count")? as usize;
            if count > MAX_OPS {
                return Err(malformed(format!("op count {count} over cap {MAX_OPS}")));
            }
            // Each entry is ≥ 10 bytes; cap the allocation by what the body
            // can actually hold before reserving.
            if count * 10 > body.len() {
                return Err(malformed(format!("op count {count} exceeds body")));
            }
            let mut ops = Vec::with_capacity(count);
            for _ in 0..count {
                let name_len = r.u16("op name length")? as usize;
                let name = r.string(name_len, MAX_NAME, "op name")?;
                let m = r.u32("op m")?;
                let n = r.u32("op n")?;
                ops.push(OpInfo { name, m, n });
            }
            Message::OpList(ops)
        }
        6 => Message::Stats,
        7 => {
            let version = r.u8("stats version")?;
            if version != STATS_VERSION {
                return Err(malformed(format!("unsupported stats version {version}")));
            }
            let count = r.u16("sample count")? as usize;
            if count > MAX_SAMPLES {
                return Err(malformed(format!("sample count {count} over cap {MAX_SAMPLES}")));
            }
            // Each sample is ≥ 12 bytes (kind + name length + label count +
            // an 8-byte value); cap the allocation by what the body can
            // actually hold before reserving.
            if count * 12 > body.len() {
                return Err(malformed(format!("sample count {count} exceeds body")));
            }
            let mut samples = Vec::with_capacity(count);
            for _ in 0..count {
                let sample_kind = r.u8("sample kind")?;
                let name_len = r.u16("metric name length")? as usize;
                let name = r.string(name_len, MAX_METRIC_NAME, "metric name")?;
                let label_count = r.u8("label count")? as usize;
                if label_count > MAX_LABELS {
                    return Err(malformed(format!(
                        "label count {label_count} over cap {MAX_LABELS}"
                    )));
                }
                let mut labels = Vec::with_capacity(label_count);
                for _ in 0..label_count {
                    let klen = r.u8("label key length")? as usize;
                    let key = r.string(klen, MAX_LABEL_KEY, "label key")?;
                    let vlen = r.u8("label value length")? as usize;
                    let value = r.string(vlen, MAX_LABEL_VALUE, "label value")?;
                    labels.push((key, value));
                }
                let value = match sample_kind {
                    1 => MetricValue::Counter(r.u64("counter value")?),
                    2 => MetricValue::Gauge(r.u64("gauge value")? as i64),
                    3 => {
                        let mut buckets = [0u64; BUCKETS];
                        for b in buckets.iter_mut() {
                            *b = r.u64("histogram bucket")?;
                        }
                        let sum = r.u64("histogram sum")?;
                        MetricValue::Histogram(HistogramSnapshot { buckets, sum })
                    }
                    other => return Err(malformed(format!("unknown sample kind {other}"))),
                };
                samples.push(Sample { name, labels, value });
            }
            Message::StatsReply(samples)
        }
        8 => Message::History { max_points: r.u16("history max")? },
        9 => {
            let version = r.u8("history version")?;
            if version != HISTORY_VERSION {
                return Err(malformed(format!("unsupported history version {version}")));
            }
            let count = r.u16("point count")? as usize;
            if count > MAX_POINTS {
                return Err(malformed(format!("point count {count} over cap {MAX_POINTS}")));
            }
            // Each point is ≥ 18 bytes (two u64 stamps + an op count); cap
            // the allocation by what the body can actually hold.
            if count * 18 > body.len() {
                return Err(malformed(format!("point count {count} exceeds body")));
            }
            let mut points = Vec::with_capacity(count);
            for _ in 0..count {
                let t_ms = r.u64("point time")?;
                let interval_ns = r.u64("point interval")?;
                let op_count = r.u16("op row count")? as usize;
                if op_count > MAX_POINT_OPS {
                    return Err(malformed(format!(
                        "op row count {op_count} over cap {MAX_POINT_OPS}"
                    )));
                }
                // Each op row is ≥ 66 bytes (name length + eight u64s);
                // validate against the bytes actually left.
                if op_count * 66 > body.len() - r.at {
                    return Err(malformed(format!("op row count {op_count} exceeds body")));
                }
                let mut ops = Vec::with_capacity(op_count);
                for _ in 0..op_count {
                    let name_len = r.u16("op name length")? as usize;
                    let op = r.string(name_len, MAX_NAME, "op name")?;
                    ops.push(OpPoint {
                        op,
                        submitted: r.u64("submitted")?,
                        completed: r.u64("completed")?,
                        rejected: r.u64("rejected")?,
                        queue_depth: r.u64("queue depth")?,
                        batches: r.u64("batches")?,
                        batch_cols_x100: r.u64("batch cols")?,
                        p50_us: r.u64("p50")?,
                        p99_us: r.u64("p99")?,
                    });
                }
                points.push(SeriesPoint { t_ms, interval_ns, ops });
            }
            Message::HistoryReply(points)
        }
        10 => Message::SlowLog { max: r.u16("slowlog max")? },
        11 => {
            let version = r.u8("slowlog version")?;
            if version != SLOWLOG_VERSION {
                return Err(malformed(format!("unsupported slowlog version {version}")));
            }
            let count = r.u16("slow entry count")? as usize;
            if count > MAX_SLOW {
                return Err(malformed(format!("slow entry count {count} over cap {MAX_SLOW}")));
            }
            // Each entry is ≥ 74 bytes (name length + the fixed record);
            // cap the allocation by what the body can actually hold.
            if count * 74 > body.len() {
                return Err(malformed(format!("slow entry count {count} exceeds body")));
            }
            let mut hits = Vec::with_capacity(count);
            for _ in 0..count {
                let name_len = r.u16("op name length")? as usize;
                let op_name = r.string(name_len, MAX_NAME, "op name")?;
                hits.push(SlowHit {
                    op: op_name,
                    rec: RequestRecord {
                        req_id: r.u64("req id")?,
                        op: r.u32("op index")?,
                        cols: r.u32("cols")?,
                        start_ns: r.u64("start")?,
                        total_ns: r.u64("total")?,
                        queue_ns: r.u64("queue phase")?,
                        window_ns: r.u64("window phase")?,
                        exec_ns: r.u64("exec phase")?,
                        ticket_ns: r.u64("ticket phase")?,
                        write_ns: r.u64("write phase")?,
                    },
                });
            }
            Message::SlowLogReply(hits)
        }
        12 => {
            let version = r.u8("model body version")?;
            if version != MODEL_VERSION {
                return Err(malformed(format!("unsupported model body version {version}")));
            }
            let name_len = r.u16("model name length")? as usize;
            let name = r.string(name_len, MAX_NAME, "model name")?;
            let path_len = r.u16("artifact path length")? as usize;
            let path = r.string(path_len, MAX_PATH, "artifact path")?;
            Message::LoadModel { name, path }
        }
        13 => {
            let version = r.u8("model body version")?;
            if version != MODEL_VERSION {
                return Err(malformed(format!("unsupported model body version {version}")));
            }
            let name_len = r.u16("model name length")? as usize;
            let name = r.string(name_len, MAX_NAME, "model name")?;
            let model_version = r.u32("model version")?;
            let mem_bytes = r.u64("model bytes")?;
            let ops = r.u32("op count")?;
            let count = r.u16("evicted count")? as usize;
            if count > MAX_MODELS {
                return Err(malformed(format!("evicted count {count} over cap {MAX_MODELS}")));
            }
            // Each evicted name is ≥ 2 bytes (its length prefix); cap the
            // allocation by the bytes actually left.
            if count * 2 > body.len() - r.at {
                return Err(malformed(format!("evicted count {count} exceeds body")));
            }
            let mut evicted = Vec::with_capacity(count);
            for _ in 0..count {
                let len = r.u16("evicted name length")? as usize;
                evicted.push(r.string(len, MAX_NAME, "evicted name")?);
            }
            Message::ModelLoaded { name, version: model_version, mem_bytes, ops, evicted }
        }
        14 => {
            let version = r.u8("model body version")?;
            if version != MODEL_VERSION {
                return Err(malformed(format!("unsupported model body version {version}")));
            }
            let name_len = r.u16("model name length")? as usize;
            let name = r.string(name_len, MAX_NAME, "model name")?;
            let model_version = r.u32("model version")?;
            Message::UnloadModel { name, version: model_version }
        }
        15 => {
            let version = r.u8("model body version")?;
            if version != MODEL_VERSION {
                return Err(malformed(format!("unsupported model body version {version}")));
            }
            let name_len = r.u16("model name length")? as usize;
            let name = r.string(name_len, MAX_NAME, "model name")?;
            let model_version = r.u32("model version")?;
            let ops_retired = r.u32("ops retired")?;
            Message::ModelUnloaded { name, version: model_version, ops_retired }
        }
        16 => {
            let version = r.u8("model body version")?;
            if version != MODEL_VERSION {
                return Err(malformed(format!("unsupported model body version {version}")));
            }
            Message::ListModels
        }
        17 => {
            let version = r.u8("model body version")?;
            if version != MODEL_VERSION {
                return Err(malformed(format!("unsupported model body version {version}")));
            }
            let count = r.u16("model count")? as usize;
            if count > MAX_MODELS {
                return Err(malformed(format!("model count {count} over cap {MAX_MODELS}")));
            }
            // Each row is ≥ 31 bytes (name length + the fixed fields); cap
            // the allocation by what the body can actually hold.
            if count * 31 > body.len() - r.at {
                return Err(malformed(format!("model count {count} exceeds body")));
            }
            let mut models = Vec::with_capacity(count);
            for _ in 0..count {
                let name_len = r.u16("model name length")? as usize;
                let name = r.string(name_len, MAX_NAME, "model name")?;
                let model_version = r.u32("model version")?;
                let live = match r.u8("model state")? {
                    1 => true,
                    2 => false,
                    other => return Err(malformed(format!("unknown model state {other}"))),
                };
                models.push(ModelInfo {
                    name,
                    version: model_version,
                    live,
                    mem_bytes: r.u64("model bytes")?,
                    ops: r.u32("op count")? as usize,
                    inflight: r.u32("inflight")?.into(),
                    completed: r.u64("completed")?,
                });
            }
            Message::ModelList(models)
        }
        other => return Err(malformed(format!("unknown frame kind {other}"))),
    };
    r.finish("frame body")?;
    Ok(msg)
}

/// Decodes one frame from a byte buffer; returns the message and the bytes
/// consumed. Pure — this is what the hostile-input proptests hammer.
pub fn decode(bytes: &[u8]) -> Result<(Message, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(malformed(format!("{} header bytes, need {HEADER_LEN}", bytes.len())));
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("16 bytes");
    let (kind, body_len, checksum) = parse_header(header)?;
    if bytes.len() < HEADER_LEN + body_len {
        return Err(malformed(format!(
            "body needs {body_len} bytes, {} remain",
            bytes.len() - HEADER_LEN
        )));
    }
    let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
    if fold_checksum(body) != checksum {
        return Err(malformed("checksum mismatch"));
    }
    Ok((parse_body(kind, body)?, HEADER_LEN + body_len))
}

/// What [`decode_frame`] found at the front of a partial buffer.
#[derive(Debug)]
pub enum FrameStatus {
    /// The buffer holds a frame prefix; at least this many more bytes are
    /// needed before the frame can complete.
    NeedMore(usize),
    /// A complete frame: the decoded message and the bytes it consumed
    /// (drain exactly `used` from the buffer's front).
    Frame {
        /// The decoded message.
        msg: Message,
        /// Bytes consumed from the buffer's front.
        used: usize,
    },
}

/// Incremental sibling of [`decode`] for nonblocking readers: decodes the
/// frame at the front of a possibly-partial buffer. The header is
/// validated as soon as 16 bytes are present — garbage fails fast instead
/// of waiting for a body that will never arrive — and the same cap/
/// checksum/tiling discipline as [`decode`] applies once the body is
/// complete.
pub fn decode_frame(bytes: &[u8]) -> Result<FrameStatus, WireError> {
    if bytes.len() < HEADER_LEN {
        return Ok(FrameStatus::NeedMore(HEADER_LEN - bytes.len()));
    }
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("16 bytes");
    let (kind, body_len, checksum) = parse_header(header)?;
    if bytes.len() < HEADER_LEN + body_len {
        return Ok(FrameStatus::NeedMore(HEADER_LEN + body_len - bytes.len()));
    }
    let body = &bytes[HEADER_LEN..HEADER_LEN + body_len];
    if fold_checksum(body) != checksum {
        return Err(malformed("checksum mismatch"));
    }
    Ok(FrameStatus::Frame { msg: parse_body(kind, body)?, used: HEADER_LEN + body_len })
}

/// Reads exactly one frame from a stream. A clean EOF **at a frame
/// boundary** is [`WireError::Closed`]; EOF mid-frame is `Malformed`. The
/// body buffer is only allocated after the header's cap check.
pub fn read_message(r: &mut impl Read) -> Result<Message, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(WireError::Closed),
            Ok(0) => return Err(malformed(format!("eof after {got} header bytes"))),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let (kind, body_len, checksum) = parse_header(&header)?;
    let mut body = vec![0u8; body_len];
    r.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            malformed("eof inside frame body")
        } else {
            WireError::Io(e)
        }
    })?;
    if fold_checksum(&body) != checksum {
        return Err(malformed("checksum mismatch"));
    }
    parse_body(kind, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> Message {
        Message::Request {
            req_id: 7,
            op: "linear".into(),
            rows: 3,
            cols: 2,
            data: vec![1.0, -2.5, 0.0, 4.0, 5.5, -6.25],
        }
    }

    #[test]
    fn every_message_kind_round_trips() {
        let msgs = [
            sample_request(),
            Message::Reply { req_id: 9, rows: 2, cols: 1, data: vec![0.5, -0.5] },
            Message::Reject { req_id: 3, code: RejectCode::Busy, msg: "queue full".into() },
            Message::ListOps,
            Message::OpList(vec![
                OpInfo { name: "a".into(), m: 4, n: 8 },
                OpInfo { name: "b.c".into(), m: 16, n: 2 },
            ]),
            Message::Stats,
            Message::StatsReply(vec![
                Sample {
                    name: "biq_serve_completed_total".into(),
                    labels: vec![("op".into(), "linear".into())],
                    value: MetricValue::Counter(42),
                },
                Sample {
                    name: "biq_serve_queue_depth".into(),
                    labels: vec![("op".into(), "linear".into())],
                    value: MetricValue::Gauge(-3),
                },
                Sample {
                    name: "biq_serve_latency_us".into(),
                    labels: Vec::new(),
                    value: MetricValue::Histogram({
                        let mut h = HistogramSnapshot::default();
                        h.buckets[0] = 1;
                        h.buckets[31] = 7;
                        h.sum = u64::MAX;
                        h
                    }),
                },
            ]),
            Message::History { max_points: 60 },
            Message::HistoryReply(vec![
                SeriesPoint { t_ms: 1_000, interval_ns: 1_000_000_000, ops: Vec::new() },
                SeriesPoint {
                    t_ms: 2_000,
                    interval_ns: 999_555_000,
                    ops: vec![OpPoint {
                        op: "linear".into(),
                        submitted: 41,
                        completed: 40,
                        rejected: 1,
                        queue_depth: 3,
                        batches: 10,
                        batch_cols_x100: 412,
                        p50_us: 120,
                        p99_us: 900,
                    }],
                },
            ]),
            Message::SlowLog { max: 8 },
            Message::SlowLogReply(vec![SlowHit {
                op: "linear".into(),
                rec: RequestRecord::from_timeline(
                    17, 0, 2, 1_000, 2_000, 300_000, 5_000_000, 5_100_000, 5_301_000,
                ),
            }]),
            Message::LoadModel { name: "bert".into(), path: "/models/bert.biqm".into() },
            Message::ModelLoaded {
                name: "bert".into(),
                version: 3,
                mem_bytes: 123_456,
                ops: 6,
                evicted: vec!["gpt@1".into(), "t5@4".into()],
            },
            Message::UnloadModel { name: "bert".into(), version: 0 },
            Message::ModelUnloaded { name: "bert".into(), version: 3, ops_retired: 6 },
            Message::ListModels,
            Message::ModelList(vec![
                ModelInfo {
                    name: "bert".into(),
                    version: 3,
                    live: true,
                    mem_bytes: 123_456,
                    ops: 6,
                    inflight: 2,
                    completed: 9_000,
                },
                ModelInfo {
                    name: "bert".into(),
                    version: 2,
                    live: false,
                    mem_bytes: 0,
                    ops: 6,
                    inflight: 0,
                    completed: 41,
                },
            ]),
        ];
        for msg in msgs {
            let frame = encode(&msg);
            let (back, used) = decode(&frame).unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, frame.len());
            // Stream path agrees with the buffer path.
            let mut cursor = std::io::Cursor::new(frame);
            assert_eq!(read_message(&mut cursor).unwrap(), msg);
        }
    }

    #[test]
    fn encode_into_and_reply_into_match_encode_bytes() {
        let mut scratch = Vec::new();
        let reply = Message::Reply { req_id: 11, rows: 3, cols: 2, data: vec![0.5f32; 6] };
        for msg in [sample_request(), reply.clone(), Message::Stats] {
            encode_into(&mut scratch, &msg);
            assert_eq!(scratch, encode(&msg), "scratch encode must be byte-identical");
        }
        // The direct reply encoder agrees with the Message path and reuses
        // capacity (second call must not grow the buffer).
        encode_reply_into(&mut scratch, 11, 3, 2, &[0.5f32; 6]);
        assert_eq!(scratch, encode(&reply));
        let cap = scratch.capacity();
        encode_reply_into(&mut scratch, 11, 3, 2, &[0.5f32; 6]);
        assert_eq!(scratch.capacity(), cap, "steady-state encode must reuse the buffer");
    }

    #[test]
    fn decode_frame_streams_partial_input() {
        let frame = encode(&sample_request());
        // Every prefix short of the full frame asks for more; header
        // prefixes ask for the rest of the header first.
        for cut in 0..frame.len() {
            match decode_frame(&frame[..cut]).unwrap() {
                FrameStatus::NeedMore(n) => {
                    assert!(n > 0 && cut + n <= frame.len(), "cut {cut} wants {n}");
                    if cut < HEADER_LEN {
                        assert_eq!(n, HEADER_LEN - cut, "header completes first");
                    } else {
                        assert_eq!(cut + n, frame.len(), "body asks for exactly the rest");
                    }
                }
                other => panic!("prefix {cut} decoded: {other:?}"),
            }
        }
        // The full frame (plus pipelined trailing bytes) decodes the front.
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        match decode_frame(&two).unwrap() {
            FrameStatus::Frame { msg, used } => {
                assert_eq!(msg, sample_request());
                assert_eq!(used, frame.len());
            }
            other => panic!("full frame: {other:?}"),
        }
    }

    #[test]
    fn decode_frame_fails_garbage_at_the_header() {
        // A bad header must fail as soon as 16 bytes exist — an attacker
        // cannot park a connection on a body that never comes.
        let garbage = [0x5au8; HEADER_LEN];
        assert!(matches!(decode_frame(&garbage), Err(WireError::Malformed(_))));
        // Checksum corruption is detected once the body is complete.
        let mut frame = encode(&sample_request());
        let at = HEADER_LEN + 3;
        frame[at] ^= 0x40;
        match decode_frame(&frame) {
            Err(e) => assert!(e.is_checksum_mismatch(), "{e}"),
            other => panic!("flip decoded: {other:?}"),
        }
    }

    #[test]
    fn clean_eof_is_closed_mid_frame_is_malformed() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_message(&mut empty), Err(WireError::Closed)));
        let frame = encode(&sample_request());
        let mut cut = std::io::Cursor::new(frame[..10].to_vec());
        assert!(matches!(read_message(&mut cut), Err(WireError::Malformed(_))));
    }

    #[test]
    fn body_flip_fails_the_checksum() {
        let mut frame = encode(&sample_request());
        let at = HEADER_LEN + 3;
        frame[at] ^= 0x40;
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("flip decoded: {other:?}"),
        }
    }

    #[test]
    fn oversized_header_length_errors_before_allocating() {
        let mut frame = encode(&Message::ListOps);
        frame[8..12].copy_from_slice(&(MAX_BODY as u32 + 1).to_le_bytes());
        assert!(matches!(decode(&frame), Err(WireError::Malformed(_))));
    }

    /// Re-stamps a frame's checksum after the body was edited so only the
    /// body validation under test can object.
    fn restamp(frame: &mut [u8]) {
        let sum = fold_checksum(&frame[HEADER_LEN..]);
        frame[12..16].copy_from_slice(&sum.to_le_bytes());
    }

    #[test]
    fn stats_reply_rejects_bad_version_and_inflated_counts() {
        let msg = Message::StatsReply(vec![Sample {
            name: "x".into(),
            labels: Vec::new(),
            value: MetricValue::Counter(1),
        }]);
        // Unknown stats schema version.
        let mut frame = encode(&msg);
        frame[HEADER_LEN] = 9;
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("stats version"), "{m}"),
            other => panic!("bad version decoded: {other:?}"),
        }
        // A sample count the body cannot hold must fail before allocating.
        let mut frame = encode(&msg);
        frame[HEADER_LEN + 1..HEADER_LEN + 3].copy_from_slice(&2000u16.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("sample count"), "{m}"),
            other => panic!("inflated count decoded: {other:?}"),
        }
        // Trailing garbage after the last sample is an error.
        let mut frame = encode(&msg);
        frame.push(0);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[8..12].copy_from_slice(&len.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("trailing"), "{m}"),
            other => panic!("trailing bytes decoded: {other:?}"),
        }
    }

    #[test]
    fn history_reply_rejects_bad_version_and_inflated_counts() {
        let msg = Message::HistoryReply(vec![SeriesPoint {
            t_ms: 5,
            interval_ns: 7,
            ops: vec![OpPoint { op: "x".into(), completed: 1, ..OpPoint::default() }],
        }]);
        // Unknown history schema version.
        let mut frame = encode(&msg);
        frame[HEADER_LEN] = 9;
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("history version"), "{m}"),
            other => panic!("bad version decoded: {other:?}"),
        }
        // A point count the body cannot hold must fail before allocating.
        let mut frame = encode(&msg);
        frame[HEADER_LEN + 1..HEADER_LEN + 3].copy_from_slice(&500u16.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("point count"), "{m}"),
            other => panic!("inflated point count decoded: {other:?}"),
        }
        // Same for the nested per-point op-row count.
        let mut frame = encode(&msg);
        let ops_at = HEADER_LEN + 3 + 16; // version + count + t_ms + interval_ns
        frame[ops_at..ops_at + 2].copy_from_slice(&200u16.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("op row count"), "{m}"),
            other => panic!("inflated op count decoded: {other:?}"),
        }
        // Trailing garbage after the last point is an error.
        let mut frame = encode(&msg);
        frame.push(0);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[8..12].copy_from_slice(&len.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("trailing"), "{m}"),
            other => panic!("trailing bytes decoded: {other:?}"),
        }
    }

    #[test]
    fn slowlog_reply_rejects_bad_version_and_inflated_counts() {
        let msg = Message::SlowLogReply(vec![SlowHit {
            op: "x".into(),
            rec: RequestRecord::from_timeline(1, 0, 1, 0, 1, 2, 3, 4, 5),
        }]);
        // Unknown slowlog schema version.
        let mut frame = encode(&msg);
        frame[HEADER_LEN] = 9;
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("slowlog version"), "{m}"),
            other => panic!("bad version decoded: {other:?}"),
        }
        // An entry count the body cannot hold must fail before allocating.
        let mut frame = encode(&msg);
        frame[HEADER_LEN + 1..HEADER_LEN + 3].copy_from_slice(&200u16.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("slow entry count"), "{m}"),
            other => panic!("inflated count decoded: {other:?}"),
        }
        // Trailing garbage after the last entry is an error.
        let mut frame = encode(&msg);
        frame.push(0);
        let len = (frame.len() - HEADER_LEN) as u32;
        frame[8..12].copy_from_slice(&len.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("trailing"), "{m}"),
            other => panic!("trailing bytes decoded: {other:?}"),
        }
    }

    #[test]
    fn model_verbs_reject_bad_version_and_inflated_counts() {
        // Every model-fleet body leads with MODEL_VERSION; a bumped byte
        // must refuse on all six kinds, request and reply alike.
        for msg in [
            Message::LoadModel { name: "m".into(), path: "/p".into() },
            Message::ModelLoaded {
                name: "m".into(),
                version: 1,
                mem_bytes: 8,
                ops: 1,
                evicted: vec![],
            },
            Message::UnloadModel { name: "m".into(), version: 0 },
            Message::ModelUnloaded { name: "m".into(), version: 1, ops_retired: 1 },
            Message::ListModels,
            Message::ModelList(vec![]),
        ] {
            let mut frame = encode(&msg);
            frame[HEADER_LEN] = 9;
            restamp(&mut frame);
            match decode(&frame) {
                Err(WireError::Malformed(m)) => assert!(m.contains("model body version"), "{m}"),
                other => panic!("bad version decoded: {other:?}"),
            }
        }
        // An evicted-name count the body cannot hold fails before
        // allocating (count lives after name + version + mem + ops).
        let loaded = Message::ModelLoaded {
            name: "m".into(),
            version: 1,
            mem_bytes: 8,
            ops: 1,
            evicted: vec!["x@1".into()],
        };
        let mut frame = encode(&loaded);
        let count_at = HEADER_LEN + 1 + 2 + 1 + 4 + 8 + 4;
        frame[count_at..count_at + 2].copy_from_slice(&200u16.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("evicted count"), "{m}"),
            other => panic!("inflated evicted count decoded: {other:?}"),
        }
        // Same for the model-row count in a ModelList.
        let list = Message::ModelList(vec![ModelInfo {
            name: "m".into(),
            version: 1,
            live: true,
            mem_bytes: 8,
            ops: 1,
            inflight: 0,
            completed: 0,
        }]);
        let mut frame = encode(&list);
        frame[HEADER_LEN + 1..HEADER_LEN + 3].copy_from_slice(&200u16.to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("model count"), "{m}"),
            other => panic!("inflated model count decoded: {other:?}"),
        }
        // An unknown model-state byte is an error, not a default.
        let mut frame = encode(&list);
        let state_at = HEADER_LEN + 1 + 2 + 2 + 1 + 4; // ver + count + name_len + "m" + version
        frame[state_at] = 7;
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("model state"), "{m}"),
            other => panic!("bad state decoded: {other:?}"),
        }
        // Trailing garbage after the last row is an error on each kind.
        for msg in [loaded, list, Message::ListModels] {
            let mut frame = encode(&msg);
            frame.push(0);
            let len = (frame.len() - HEADER_LEN) as u32;
            frame[8..12].copy_from_slice(&len.to_le_bytes());
            restamp(&mut frame);
            match decode(&frame) {
                Err(WireError::Malformed(m)) => assert!(m.contains("trailing"), "{m}"),
                other => panic!("trailing bytes decoded: {other:?}"),
            }
        }
        // A LoadModel path over MAX_PATH refuses before allocating.
        let mut frame = encode(&Message::LoadModel { name: "m".into(), path: "/p".into() });
        let path_len_at = HEADER_LEN + 1 + 2 + 1; // ver + name_len + "m"
        frame[path_len_at..path_len_at + 2].copy_from_slice(&((MAX_PATH + 1) as u16).to_le_bytes());
        restamp(&mut frame);
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("artifact path"), "{m}"),
            other => panic!("oversized path decoded: {other:?}"),
        }
    }

    #[test]
    fn payload_count_must_tile_the_body_exactly() {
        // Hand-build a request body whose rows·cols disagrees with the
        // payload bytes actually present.
        let msg = sample_request();
        let mut frame = encode(&msg);
        // rows lives right after req_id(8) + name_len(2) + "linear"(6).
        let rows_at = HEADER_LEN + 16;
        frame[rows_at..rows_at + 4].copy_from_slice(&100u32.to_le_bytes());
        // Re-stamp the checksum so only the count validation can object.
        let body_len = frame.len() - HEADER_LEN;
        let sum = fold_checksum(&frame[HEADER_LEN..HEADER_LEN + body_len]);
        frame[12..16].copy_from_slice(&sum.to_le_bytes());
        match decode(&frame) {
            Err(WireError::Malformed(m)) => assert!(m.contains("payload"), "{m}"),
            other => panic!("bad count decoded: {other:?}"),
        }
    }
}
