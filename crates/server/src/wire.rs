//! The versioned, checksummed frame protocol and its message types.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"RVLO"
//! 4       2     protocol version (LE u16), see [`PROTOCOL_VERSION`]
//! 6       4     payload length (LE u32)
//! 10      4     CRC-32 (IEEE) of the payload (LE u32)
//! 14      len   payload
//! ```
//!
//! The header is fixed-size and validated *before* the payload is read, so
//! a peer speaking the wrong protocol (or garbage) is rejected after 14
//! bytes and never triggers a large allocation: the declared length is
//! checked against the configured maximum first. The checksum catches
//! corruption that TCP's own checksum misses (proxies, truncated writes
//! replayed from buggy peers).
//!
//! A payload is one tag byte naming the [`Request`] / [`Response`] variant,
//! followed by the variant's fields. Every message struct states its byte
//! layout once, as a [`Codec`] impl over the shared primitives of
//! [`revelio_core::wire`] — the same codec the store's log records use, so
//! a stored explanation summary and a `ListExplanations` entry are one
//! type with one layout. The layouts are byte-identical to every earlier
//! build speaking protocol v9. Every enum tag and length is validated on
//! decode, so a malformed payload is a typed [`WireError`] — never a panic
//! or an unbounded allocation.

use std::io::{Read, Write};

use revelio_core::wire::{put_str, put_u32, Codec, ControlSpec, WireDecodeError, WireReader};
use revelio_core::{wire_enum, wire_struct, Degradation, Objective};
use revelio_eval::Effort;
use revelio_gnn::GnnConfig;
use revelio_graph::{CsrMatrix, Graph, Target};
use revelio_runtime::prometheus::escape_label;
use revelio_runtime::{Derived, HistogramSnapshot, MetricsSnapshot, Sections};
use revelio_trace::{AssembledTrace, TraceContext};

pub use revelio_core::wire::crc32;
pub use revelio_store::{ExplanationSummary as WireExplanationSummary, MaskKey};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"RVLO";

/// Wire protocol version; bumped on any incompatible layout change (the
/// version history is in DESIGN.md §9).
pub const PROTOCOL_VERSION: u16 = 9;

/// Frame header length in bytes (magic + version + length + checksum).
pub const HEADER_LEN: usize = 14;

/// Upper bound on the node count a wire graph may declare.
///
/// Each node costs four bytes of row offset in the CSR feature block, so a
/// frame carries well under 2^24 nodes. The cap refuses a larger
/// declaration from the three header counts alone, before the edge list is
/// read, so no frame can force billions of per-node allocations
/// downstream of the decoder.
pub const MAX_WIRE_NODES: usize = 1 << 24;

/// Upper bound on the dense shape `num_nodes × feat_dim` of a wire graph:
/// what a dense feature matrix in one frame could carry
/// (`MAX_FRAME_LEN / 4` values).
///
/// CSR bytes scale with the non-zero entries only, so a tiny frame could
/// otherwise declare a huge matrix that the explainers' dense copy
/// (`Instance::x`) would then allocate.
pub const MAX_WIRE_FEATURE_ENTRIES: usize = MAX_FRAME_LEN / 4;

/// Cap on one frame's payload (32 MiB), on both ends of every connection —
/// enough for a model registration with millions of parameters, small
/// enough that a hostile length field cannot exhaust memory.
pub const MAX_FRAME_LEN: usize = 32 * 1024 * 1024;

/// Budget for writing one frame to a peer, on both ends of a connection.
pub(crate) const WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Everything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum WireError {
    /// Socket-level failure (includes mid-frame EOF as `UnexpectedEof`).
    Io(std::io::Error),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    UnsupportedVersion {
        /// Version announced by the peer.
        got: u16,
        /// The version this build speaks.
        expected: u16,
    },
    /// The announced payload length exceeds the configured cap.
    FrameTooLarge {
        /// Announced length.
        len: usize,
        /// Configured cap.
        max: usize,
    },
    /// The payload did not hash to the checksum in the header.
    ChecksumMismatch {
        /// Checksum announced in the header.
        expected: u32,
        /// Checksum of the bytes actually received.
        got: u32,
    },
    /// The payload parsed as no known message.
    Decode(WireDecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion { got, expected } => {
                write!(
                    f,
                    "unsupported protocol version {got} (expected {expected})"
                )
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "payload checksum {got:08x} != header checksum {expected:08x}"
                )
            }
            WireError::Decode(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireDecodeError> for WireError {
    fn from(e: WireDecodeError) -> Self {
        WireError::Decode(e)
    }
}

impl WireError {
    /// Whether retrying the request on a fresh connection could succeed
    /// (transport-level failures, not protocol disagreements).
    pub fn is_transient(&self) -> bool {
        match self {
            WireError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::ConnectionAborted
                    | std::io::ErrorKind::BrokenPipe
                    | std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
                    | std::io::ErrorKind::Interrupted
            ),
            _ => false,
        }
    }
}

// ---------------------------------------------------------------------------
// Frame I/O.
// ---------------------------------------------------------------------------

/// Encodes `payload` as one complete frame (header + payload).
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] when the payload exceeds `max_len`.
pub fn encode_frame(payload: &[u8], max_len: usize) -> Result<Vec<u8>, WireError> {
    if payload.len() > max_len {
        return Err(WireError::FrameTooLarge {
            len: payload.len(),
            max: max_len,
        });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Writes one frame; returns the bytes put on the wire.
pub fn write_frame<W: Write>(
    w: &mut W,
    payload: &[u8],
    max_len: usize,
) -> Result<usize, WireError> {
    let frame = encode_frame(payload, max_len)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Parses and validates a frame header; returns the declared payload
/// length and checksum.
pub fn parse_header(header: &[u8; HEADER_LEN], max_len: usize) -> Result<(usize, u32), WireError> {
    if header[0..4] != MAGIC {
        return Err(WireError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = u16::from_le_bytes([header[4], header[5]]);
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnsupportedVersion {
            got: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    let crc = u32::from_le_bytes([header[10], header[11], header[12], header[13]]);
    Ok((len, crc))
}

/// Reads one complete frame (blocking), returning its payload and the
/// total bytes consumed. A clean EOF *before the first header byte*
/// returns `Ok(None)`; EOF anywhere later is [`WireError::Io`] with
/// `UnexpectedEof` (a truncated frame).
pub fn read_frame<R: Read>(
    r: &mut R,
    max_len: usize,
) -> Result<Option<(Vec<u8>, usize)>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // First byte decides "clean EOF" vs "truncated frame".
    match r.read(&mut header[..1])? {
        0 => return Ok(None),
        _ => r.read_exact(&mut header[1..])?,
    }
    let (len, expected_crc) = parse_header(&header, max_len)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    check_payload(&payload, expected_crc)?;
    Ok(Some((payload, HEADER_LEN + len)))
}

/// Verifies a received payload against the checksum its header announced.
pub(crate) fn check_payload(payload: &[u8], expected: u32) -> Result<(), WireError> {
    let got = crc32(payload);
    if got != expected {
        return Err(WireError::ChecksumMismatch { expected, got });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Message types.
// ---------------------------------------------------------------------------

/// One explanation request as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainRequest {
    /// Model id returned by a prior `RegisterModel`.
    pub model: u32,
    /// Caller-assigned content id for `graph` (the artifact-cache key;
    /// requests sharing a `graph_id` must carry identical graphs).
    pub graph_id: u64,
    /// Method name as in the paper's tables (`"REVELIO"`, `"FlowX"`, …).
    pub method: String,
    /// Factual or counterfactual variant.
    pub objective: Objective,
    /// Compute budget for learning-based methods.
    pub effort: Effort,
    /// What to explain.
    pub target: Target,
    /// Deadline / flow-budget controls.
    pub control: ControlSpec,
    /// The instance graph.
    pub graph: Graph,
    /// Distributed-tracing context inherited from an upstream hop (the
    /// gateway's routing span), or `None` when the caller is the trace
    /// origin or tracing is off. When `Some` with `sampled`, the server
    /// journals its fragment under the context's `trace_lo` so it can be
    /// fetched back by global trace id.
    pub context: Option<TraceContext>,
}

/// Cheapest possible wire graph: three counts, a zero entry count, the
/// one row offset of a node-less matrix, and two absent labels.
const GRAPH_MIN_LEN: usize = 3 * 4 + 4 + 4 + 1 + 1;

impl Codec for ExplainRequest {
    const MIN_LEN: usize =
        4 + 8 + 2 + 1 + 1 + Target::MIN_LEN + ControlSpec::MIN_LEN + GRAPH_MIN_LEN + 1;
    fn encode(&self, out: &mut Vec<u8>) {
        self.model.encode(out);
        self.graph_id.encode(out);
        self.method.encode(out);
        self.objective.encode(out);
        self.effort.encode(out);
        self.target.encode(out);
        self.control.encode(out);
        encode_graph(out, &self.graph);
        self.context.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        Ok(ExplainRequest {
            model: u32::decode(r)?,
            graph_id: u64::decode(r)?,
            method: String::decode(r)?,
            objective: Objective::decode(r)?,
            effort: Effort::decode(r)?,
            target: Target::decode(r)?,
            control: ControlSpec::decode(r)?,
            graph: decode_graph(r)?,
            context: Option::decode(r)?,
        })
    }
}

/// A client → server message.
pub enum Request {
    /// Liveness + version check.
    Ping,
    /// Ship a model (architecture + weights) for serving; answered with
    /// `ModelRegistered`.
    RegisterModel {
        /// Architecture hyperparameters.
        config: GnnConfig,
        /// Per-parameter flattened weights, as from `Gnn::state_dict`.
        state: Vec<Vec<f32>>,
    },
    /// Explain one instance.
    Explain(ExplainRequest),
    /// Fetch the unified wire + runtime metrics report.
    Stats,
    /// Begin graceful shutdown: the server acks, stops accepting, drains
    /// in-flight work, then exits.
    Shutdown,
    /// Fetch a persisted explanation from the server's store by runtime
    /// job id (ids survive restarts; see `ListExplanations` to discover
    /// them). Answered with `Explanation`.
    FetchExplanation(u64),
    /// List every explanation the server's store holds, newest last.
    /// Answered with `ExplanationList`.
    ListExplanations,
    /// Fetch an assembled trace: `Some([hi, lo])` names the 128-bit trace
    /// id (`[0, id]` for the `trace_id` echoed on an `Explained`
    /// response), `None` asks for the newest trace the peer retains.
    /// Answered with `Assembled` or an `UnknownTrace` error.
    AssembledTrace(Option<[u64; 2]>),
}

/// Why the server refused or failed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request named a model id that was never registered.
    UnknownModel,
    /// The request named a method outside the registry.
    UnknownMethod,
    /// The method trains over instance *groups* (PGExplainer, GraphMask)
    /// and cannot be served per-request.
    GroupLevelMethod,
    /// The request decoded but its contents were rejected (bad graph,
    /// inconsistent lengths, …).
    Malformed,
    /// The explainer failed server-side (panic, lost worker).
    Internal,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The request needs the persistent store and this server runs
    /// without one (`revelio-serve` started without `--store`).
    NoStore,
    /// The cited trace id resolves to nothing: never sampled, expired
    /// from retention, or plain wrong. Distinguishable from transport
    /// failures so callers don't retry a miss.
    UnknownTrace,
}

wire_enum!(ErrorKind, "error kind tag" {
    ErrorKind::UnknownModel = 0,
    ErrorKind::UnknownMethod = 1,
    ErrorKind::GroupLevelMethod = 2,
    ErrorKind::Malformed = 3,
    ErrorKind::Internal = 4,
    ErrorKind::ShuttingDown = 5,
    ErrorKind::NoStore = 6,
    ErrorKind::UnknownTrace = 7,
});

/// Per-request wall-clock timing, echoed back to the client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTiming {
    /// Submission → picked up by a worker (µs).
    pub queue_us: u64,
    /// Artifact preparation (µs).
    pub prep_us: u64,
    /// The explainer call itself (µs).
    pub explain_us: u64,
    /// Decode → response encode, as measured by the server (µs).
    pub total_us: u64,
}

wire_struct!(WireTiming {
    queue_us: u64,
    prep_us: u64,
    explain_us: u64,
    total_us: u64,
});

/// A served explanation as it crosses the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedExplanation {
    /// Importance per original edge of the instance graph.
    pub edge_scores: Vec<f32>,
    /// Per-layer scores over layer edges, when the method distinguishes
    /// layers.
    pub layer_edge_scores: Option<Vec<Vec<f32>>>,
    /// Per-flow scores, for flow-based methods (aligned with the server's
    /// deterministic flow enumeration order).
    pub flow_scores: Option<Vec<f32>>,
    /// What, if anything, was cut to meet the budget.
    pub degradation: Degradation,
    /// Server-side timing breakdown.
    pub timing: WireTiming,
    /// Set when the request was traced: the id to cite in a follow-up
    /// [`Request::AssembledTrace`].
    pub trace_id: Option<u64>,
}

wire_struct!(ServedExplanation {
    edge_scores: Vec<f32>,
    layer_edge_scores: Option<Vec<Vec<f32>>>,
    flow_scores: Option<Vec<f32>>,
    degradation: Degradation,
    timing: WireTiming,
    trace_id: Option<u64>,
});

/// A persisted explanation as it crosses the wire: the stored answer plus
/// the key it was recorded under. Converged-mask parameters stay
/// server-side (they only seed warm starts); `has_mask` reports whether
/// the record carries one.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStoredExplanation {
    /// Runtime job id the record is addressed by (stable across restarts).
    pub job_id: u64,
    /// Wire model id the job ran against.
    pub model: u32,
    /// Caller-assigned graph id.
    pub graph_id: u64,
    /// What was explained.
    pub target: Target,
    /// GNN layer count `L` of the serving model.
    pub layers: u32,
    /// Importance per original edge of the instance graph.
    pub edge_scores: Vec<f32>,
    /// Per-layer scores over layer edges, when the method distinguishes
    /// layers.
    pub layer_edge_scores: Option<Vec<Vec<f32>>>,
    /// Per-flow scores, for flow-based methods.
    pub flow_scores: Option<Vec<f32>>,
    /// What, if anything, was cut to meet the budget.
    pub degradation: Degradation,
    /// Microseconds the job spent queued.
    pub queue_us: u64,
    /// Microseconds spent preparing artifacts.
    pub prep_us: u64,
    /// Microseconds inside the explainer.
    pub explain_us: u64,
    /// Whether the record carries a converged mask (i.e. can seed a
    /// warm start).
    pub has_mask: bool,
}

wire_struct!(WireStoredExplanation {
    job_id: u64,
    model: u32,
    graph_id: u64,
    target: Target,
    layers: u32,
    edge_scores: Vec<f32>,
    layer_edge_scores: Option<Vec<Vec<f32>>>,
    flow_scores: Option<Vec<f32>>,
    degradation: Degradation,
    queue_us: u64,
    prep_us: u64,
    explain_us: u64,
    has_mask: bool,
});

revelio_runtime::metric_table! {
    /// Wire-level counters, updated by a front end's handler threads (the
    /// backend's sampling decisions and shed requests included).
    #[derive(Default)]
    pub struct WireCounters;

    /// One point-in-time unified metrics report: wire-level counters folded
    /// together with the runtime's registry.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServerStats("server metrics") {
        connections_accepted: u64 = Counter(
            "revelio_server_connections_accepted_total", "conns accepted",
            "Connections accepted since start.");
        connections_active: u64 = Gauge("revelio_server_connections_active", "conns active",
            "Connections currently open.");
        bytes_in: u64 = Counter("revelio_server_bytes_in_total", "wire bytes_in",
            "Header + payload bytes received.");
        bytes_out: u64 = Counter("revelio_server_bytes_out_total", "wire bytes_out",
            "Header + payload bytes sent.");
        requests: u64 = Counter("revelio_server_requests_total", "requests answered",
            "Requests answered (including errors).");
        shed: u64 = Counter("revelio_server_shed_total", "requests shed",
            "Explain requests shed with Busy.");
        /// The connection is closed after each.
        protocol_errors: u64 = Counter(
            "revelio_server_protocol_errors_total", "wire protocol_errors",
            "Frames that failed to parse.");
        request_latency: HistogramSnapshot = Histogram(
            "revelio_server_request_latency_seconds", "latency",
            "End-to-end per-request latency (decode to response write).");
        /// The serving runtime's own registry snapshot.
        runtime: MetricsSnapshot;
        trace_sampled: u64 = Counter("revelio_trace_sampled_total", "tracing sampled",
            "Explain requests traced end to end (head-sampled or inherited).");
        trace_dropped: u64 = Counter("revelio_trace_dropped_total", "tracing dropped",
            "Explain requests considered for tracing but not sampled.");
    }
}

impl Derived for ServerStats {}

/// The gateway's view of one backend shard: health-state machine output
/// plus forwarding counters, with the cache/job counters lifted from the
/// backend's most recent health poll.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GatewayBackendStats {
    /// The backend's address as configured on the gateway CLI.
    pub addr: String,
    /// Whether the ring currently routes to this backend.
    pub healthy: bool,
    /// Consecutive failed health checks / forwards; reaching the
    /// gateway's threshold marks the backend dead.
    pub consecutive_failures: u32,
    /// Requests forwarded to this backend (the per-backend routing
    /// histogram: comparing these counters across backends shows how the
    /// ring spreads keys).
    pub forwarded: u64,
    /// Transport or protocol failures talking to this backend.
    pub errors: u64,
    /// `Busy` answers this backend returned (propagated to callers).
    pub busy: u64,
    /// Successful `Stats` health polls.
    pub health_checks: u64,
    /// Artifact-cache hits at the last health poll.
    pub cache_hits: u64,
    /// Artifact-cache misses at the last health poll.
    pub cache_misses: u64,
    /// Jobs the backend completed, at the last health poll.
    pub jobs_completed: u64,
}

wire_struct!(GatewayBackendStats {
    addr: String,
    healthy: bool,
    consecutive_failures: u32,
    forwarded: u64,
    errors: u64,
    busy: u64,
    health_checks: u64,
    cache_hits: u64,
    cache_misses: u64,
    jobs_completed: u64,
});

revelio_runtime::metric_table! {
    /// The gateway's own counters, updated by its connection threads.
    #[derive(Default)]
    pub struct GatewayCounters;

    /// Gateway-level counters, carried by the `Stats` response when the
    /// answering process is a gateway. Plain `revelio-serve` never attaches
    /// them.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct GatewayStats("gateway") {
        routed: u64 = Counter("revelio_gateway_routed_total", "routing routed",
            "Explain requests routed to their owning shard.");
        fanout: u64 = Counter("revelio_gateway_fanout_total", "routing fanout",
            "Registrations replicated to the healthy fleet.");
        rerouted: u64 = Counter("revelio_gateway_rerouted_total", "routing rerouted",
            "Forwards retried on a successor shard after a failure.");
        scatter: u64 = Counter("revelio_gateway_scatter_total", "routing scatter",
            "Scatter-gather reads sent to the whole fleet.");
        /// Per-backend health + counters, in configured shard order.
        backends: Vec<GatewayBackendStats>;
    }
}

impl GatewayStats {
    /// Backends the ring currently routes to.
    pub fn healthy_backends(&self) -> usize {
        self.backends.iter().filter(|b| b.healthy).count()
    }

    /// Fleet-wide artifact-cache hit rate in `[0, 1]` from the summed
    /// per-backend counters (0 when the fleet was never probed).
    pub fn fleet_cache_hit_rate(&self) -> f64 {
        let hits: f64 = self.backends.iter().map(|b| b.cache_hits as f64).sum();
        let misses: f64 = self.backends.iter().map(|b| b.cache_misses as f64).sum();
        if hits + misses == 0.0 {
            0.0
        } else {
            hits / (hits + misses)
        }
    }
}

/// The fleet gauges and the per-backend families, one labelled sample per
/// backend, are computed from `backends` rather than recorded.
impl Derived for GatewayStats {
    fn derived_families(&self, out: &mut Sections) {
        for (name, help, value) in [
            (
                "revelio_gateway_backends_healthy",
                "Backends the ring currently routes to.",
                self.healthy_backends() as f64,
            ),
            (
                "revelio_gateway_fleet_cache_hit_rate",
                "Fleet-wide artifact-cache hit rate in [0, 1].",
                self.fleet_cache_hit_rate(),
            ),
        ] {
            out.family(name, "gauge", help)
                .push_str(&format!("\n{name} {value}"));
        }
        let mut labelled =
            |name: &str, ty: &str, help: &str, value: fn(&GatewayBackendStats) -> f64| {
                let family = out.family(name, ty, help);
                for b in &self.backends {
                    let addr = escape_label(&b.addr);
                    family.push_str(&format!("\n{name}{{backend=\"{addr}\"}} {}", value(b)));
                }
            };
        labelled(
            "revelio_gateway_backend_up",
            "gauge",
            "Whether the ring routes to this backend (1 = healthy).",
            |b| if b.healthy { 1.0 } else { 0.0 },
        );
        labelled(
            "revelio_gateway_backend_forwarded_total",
            "counter",
            "Requests forwarded to this backend.",
            |b| b.forwarded as f64,
        );
        labelled(
            "revelio_gateway_backend_errors_total",
            "counter",
            "Transport or protocol failures against this backend.",
            |b| b.errors as f64,
        );
        labelled(
            "revelio_gateway_backend_busy_total",
            "counter",
            "Busy answers this backend returned.",
            |b| b.busy as f64,
        );
        labelled(
            "revelio_gateway_backend_health_checks_total",
            "counter",
            "Successful Stats health polls of this backend.",
            |b| b.health_checks as f64,
        );
    }

    fn derived_report(&self, out: &mut Sections) {
        out.value("fleet backends", self.backends.len());
        out.value("fleet healthy", self.healthy_backends());
        let rate = 100.0 * self.fleet_cache_hit_rate();
        out.value("fleet cache_hit_rate", format!("{rate:.1}%"));
        for (i, b) in self.backends.iter().enumerate() {
            let up = if b.healthy { "up" } else { "DOWN" };
            // Escaped: an address from a peer must not start a line.
            let addr = b.addr.escape_debug();
            out.get(&format!("backend {i}"), String::new)
                .push_str(&format!(
                    "  backend   {addr} {up} fails={} fwd={} err={} busy={} polls={}",
                    b.consecutive_failures, b.forwarded, b.errors, b.busy, b.health_checks,
                ));
        }
    }
}

/// A server → client message.
pub enum Response {
    /// Answer to `Ping`.
    Pong {
        /// The server's protocol version.
        version: u16,
    },
    /// Answer to `RegisterModel`: the id to cite in `Explain` requests.
    ModelRegistered {
        /// Server-assigned model id.
        model: u32,
    },
    /// A served explanation.
    Explained(ServedExplanation),
    /// Load shed: the request was *not* queued; retry with backoff.
    Busy {
        /// Jobs in flight when the request was refused.
        in_flight: u32,
        /// The admission limit.
        limit: u32,
    },
    /// The request was understood but refused or failed.
    Error {
        /// Machine-readable category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// Answer to `Stats`: the unified wire + runtime report, plus the
    /// gateway's counters when the answering process is a
    /// `revelio-gateway` (plain `revelio-serve` always answers `None`).
    Stats(Box<ServerStats>, Option<Box<GatewayStats>>),
    /// Answer to `Shutdown`; the connection closes after this frame.
    ShutdownAck,
    /// Answer to `AssembledTrace`: the stitched cross-process trace. A
    /// miss is a typed `Error { kind: UnknownTrace, .. }`, never an empty
    /// trace.
    Assembled(Box<AssembledTrace>),
    /// Answer to `FetchExplanation`: the stored record, or `None` if the
    /// store holds no explanation under that job id.
    Explanation(Option<Box<WireStoredExplanation>>),
    /// Answer to `ListExplanations`: every stored explanation, ascending
    /// by job id.
    ExplanationList(Vec<WireExplanationSummary>),
}

// ---------------------------------------------------------------------------
// Graph codec.
// ---------------------------------------------------------------------------

/// Appends a graph: node, feature and edge counts, the edge list, the CSR
/// feature matrix, then the optional node labels (`Option<Vec<u32>>`) and
/// graph label (`Option<u64>`).
///
/// The feature block is the entry count `nnz` (`u32`), `num_nodes + 1`
/// row offsets (`u32`, from 0 up to `nnz`), then `nnz` column indices
/// (`u32`, strictly ascending within a row) and `nnz` values (`f32`, never
/// zero).
fn encode_graph(out: &mut Vec<u8>, g: &Graph) {
    let f = g.features();
    out.reserve(16 + 8 * g.num_edges() + 4 * f.row_ptr().len() + 8 * f.nnz());
    for n in [g.num_nodes(), g.feat_dim(), g.num_edges()] {
        put_u32(out, n as u32);
    }
    for &(s, d) in g.edges() {
        put_u32(out, s);
        put_u32(out, d);
    }
    put_u32(out, f.nnz() as u32);
    for &o in f.row_ptr() {
        put_u32(out, o as u32);
    }
    for &c in f.col_idx() {
        put_u32(out, c);
    }
    for &v in f.values() {
        put_u32(out, v.to_bits());
    }
    let labels = g
        .node_labels()
        .map(|l| l.iter().map(|&v| v as u32).collect::<Vec<_>>());
    labels.encode(out);
    g.graph_label().map(|l| l as u64).encode(out);
}

fn decode_graph(r: &mut WireReader<'_>) -> Result<Graph, WireDecodeError> {
    let num_nodes = r.u32()? as usize;
    let feat_dim = r.u32()? as usize;
    let num_edges = r.u32()? as usize;
    if num_nodes > MAX_WIRE_NODES {
        return Err(WireDecodeError::Invalid("node count exceeds wire limit"));
    }
    // CSR bytes do not bound the dense shape, so it is capped
    // outright: a tiny frame must not declare a matrix that a later dense
    // materialisation (`Instance::x`, training) would have to allocate.
    if num_nodes.saturating_mul(feat_dim) > MAX_WIRE_FEATURE_ENTRIES {
        return Err(WireDecodeError::Invalid(
            "feature matrix exceeds wire limit",
        ));
    }
    // Every declared quantity must still be present in the payload: each
    // edge costs 8 bytes, and the `nnz` count and `num_nodes + 1` row
    // offsets follow the edge list. Checking *before* `Graph::builder`
    // keeps a ~30-byte frame from forcing per-node allocations.
    r.require(
        num_edges
            .saturating_mul(8)
            .saturating_add(num_nodes.saturating_add(2).saturating_mul(4)),
    )?;
    let mut b = Graph::builder(num_nodes, feat_dim);
    for _ in 0..num_edges {
        let s = r.u32()? as usize;
        let d = r.u32()? as usize;
        if s >= num_nodes || d >= num_nodes {
            return Err(WireDecodeError::Invalid("edge endpoint out of range"));
        }
        if s == d {
            return Err(WireDecodeError::Invalid("self-loop edge"));
        }
        if b.has_edge(s, d) {
            return Err(WireDecodeError::Invalid("duplicate edge"));
        }
        b.edge(s, d);
    }
    let nnz = r.u32()? as usize;
    if nnz > num_nodes * feat_dim {
        return Err(WireDecodeError::Invalid(
            "feature entry count exceeds the matrix",
        ));
    }
    r.require((num_nodes + 1) * 4 + nnz * 8)?;
    let row_ptr = (0..=num_nodes)
        .map(|_| r.u32().map(|o| o as usize))
        .collect::<Result<Vec<_>, _>>()?;
    let col_idx = (0..nnz).map(|_| r.u32()).collect::<Result<Vec<_>, _>>()?;
    let values = (0..nnz).map(|_| r.f32()).collect::<Result<Vec<_>, _>>()?;
    let features = CsrMatrix::try_from_parts(num_nodes, feat_dim, row_ptr, col_idx, values)
        .map_err(|e| WireDecodeError::Invalid(e.as_str()))?;
    if let Some(labels) = Option::<Vec<u32>>::decode(r)? {
        if labels.len() != num_nodes {
            return Err(WireDecodeError::Invalid("node label count mismatch"));
        }
        b.node_labels(labels.into_iter().map(|l| l as usize).collect());
    }
    if let Some(l) = Option::<u64>::decode(r)? {
        b.graph_label(l as usize);
    }
    Ok(b.build().with_sparse_features(features))
}

// ---------------------------------------------------------------------------
// Request / Response: a tag byte, then the variant's fields.
// ---------------------------------------------------------------------------

const REQ_PING: u8 = 0;
const REQ_REGISTER_MODEL: u8 = 1;
const REQ_EXPLAIN: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_SHUTDOWN: u8 = 4;
// Tag 5, the job-id trace fetch of protocol v6, stays unassigned.
const REQ_FETCH_EXPLANATION: u8 = 6;
const REQ_LIST_EXPLANATIONS: u8 = 7;
const REQ_ASSEMBLED_TRACE: u8 = 8;

impl Request {
    /// Encodes the request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.tag()];
        match self {
            Request::RegisterModel { config, state } => {
                config.encode(&mut out);
                state.encode(&mut out);
            }
            Request::Explain(e) => e.encode(&mut out),
            Request::FetchExplanation(id) => id.encode(&mut out),
            Request::AssembledTrace(id) => id.encode(&mut out),
            Request::Ping | Request::Stats | Request::Shutdown | Request::ListExplanations => {}
        }
        out
    }

    fn tag(&self) -> u8 {
        match self {
            Request::Ping => REQ_PING,
            Request::RegisterModel { .. } => REQ_REGISTER_MODEL,
            Request::Explain(_) => REQ_EXPLAIN,
            Request::Stats => REQ_STATS,
            Request::Shutdown => REQ_SHUTDOWN,
            Request::FetchExplanation(_) => REQ_FETCH_EXPLANATION,
            Request::ListExplanations => REQ_LIST_EXPLANATIONS,
            Request::AssembledTrace(_) => REQ_ASSEMBLED_TRACE,
        }
    }

    /// Decodes a frame payload into a request, requiring full consumption.
    pub fn decode(payload: &[u8]) -> Result<Request, WireDecodeError> {
        let mut r = WireReader::new(payload);
        let r = &mut r;
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_REGISTER_MODEL => Request::RegisterModel {
                config: GnnConfig::decode(r)?,
                state: Vec::decode(r)?,
            },
            REQ_EXPLAIN => Request::Explain(ExplainRequest::decode(r)?),
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_FETCH_EXPLANATION => Request::FetchExplanation(r.u64()?),
            REQ_LIST_EXPLANATIONS => Request::ListExplanations,
            REQ_ASSEMBLED_TRACE => Request::AssembledTrace(Option::decode(r)?),
            _ => return Err(WireDecodeError::Invalid("request tag")),
        };
        r.expect_end()?;
        Ok(req)
    }
}

const RESP_PONG: u8 = 0;
const RESP_MODEL_REGISTERED: u8 = 1;
const RESP_EXPLAINED: u8 = 2;
const RESP_BUSY: u8 = 3;
const RESP_ERROR: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_SHUTDOWN_ACK: u8 = 6;
// Tag 7, the job-id trace answer of protocol v6, stays unassigned.
const RESP_EXPLANATION: u8 = 8;
const RESP_EXPLANATION_LIST: u8 = 9;
const RESP_ASSEMBLED: u8 = 10;

impl Response {
    /// Encodes the response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.tag()];
        match self {
            Response::Pong { version } => version.encode(&mut out),
            Response::ModelRegistered { model } => model.encode(&mut out),
            Response::Explained(e) => e.encode(&mut out),
            Response::Busy { in_flight, limit } => {
                in_flight.encode(&mut out);
                limit.encode(&mut out);
            }
            Response::Error { kind, message } => {
                kind.encode(&mut out);
                // Error detail is bounded so a pathological panic message
                // cannot blow the frame cap.
                let msg: String = message.chars().take(512).collect();
                put_str(&mut out, &msg);
            }
            Response::Stats(s, gateway) => {
                s.encode(&mut out);
                gateway.encode(&mut out);
            }
            Response::ShutdownAck => {}
            Response::Assembled(t) => t.encode(&mut out),
            Response::Explanation(e) => e.encode(&mut out),
            Response::ExplanationList(list) => list.encode(&mut out),
        }
        out
    }

    fn tag(&self) -> u8 {
        match self {
            Response::Pong { .. } => RESP_PONG,
            Response::ModelRegistered { .. } => RESP_MODEL_REGISTERED,
            Response::Explained(_) => RESP_EXPLAINED,
            Response::Busy { .. } => RESP_BUSY,
            Response::Error { .. } => RESP_ERROR,
            Response::Stats(..) => RESP_STATS,
            Response::ShutdownAck => RESP_SHUTDOWN_ACK,
            Response::Explanation(_) => RESP_EXPLANATION,
            Response::ExplanationList(_) => RESP_EXPLANATION_LIST,
            Response::Assembled(_) => RESP_ASSEMBLED,
        }
    }

    /// Decodes a frame payload into a response, requiring full consumption.
    pub fn decode(payload: &[u8]) -> Result<Response, WireDecodeError> {
        let mut r = WireReader::new(payload);
        let r = &mut r;
        let resp = match r.u8()? {
            RESP_PONG => Response::Pong { version: r.u16()? },
            RESP_MODEL_REGISTERED => Response::ModelRegistered { model: r.u32()? },
            RESP_EXPLAINED => Response::Explained(ServedExplanation::decode(r)?),
            RESP_BUSY => Response::Busy {
                in_flight: r.u32()?,
                limit: r.u32()?,
            },
            RESP_ERROR => Response::Error {
                kind: ErrorKind::decode(r)?,
                message: r.str()?,
            },
            RESP_STATS => Response::Stats(Box::decode(r)?, Option::decode(r)?),
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            RESP_ASSEMBLED => Response::Assembled(Box::decode(r)?),
            RESP_EXPLANATION => Response::Explanation(Option::decode(r)?),
            RESP_EXPLANATION_LIST => Response::ExplanationList(Vec::decode(r)?),
            _ => return Err(WireDecodeError::Invalid("response tag")),
        };
        r.expect_end()?;
        Ok(resp)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_core::wire::put_u64;
    use revelio_trace::{AssembledEvent, AssembledSpan, PointKind};

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trip() {
        let payload = b"hello revelio".to_vec();
        let frame = encode_frame(&payload, 1024).unwrap();
        assert_eq!(frame.len(), HEADER_LEN + payload.len());
        let mut cursor = std::io::Cursor::new(frame);
        let (back, consumed) = read_frame(&mut cursor, 1024).unwrap().unwrap();
        assert_eq!(back, payload);
        assert_eq!(consumed, HEADER_LEN + payload.len());
    }

    #[test]
    fn clean_eof_is_none() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_rejected_at_both_ends() {
        let payload = vec![0u8; 100];
        assert!(matches!(
            encode_frame(&payload, 50),
            Err(WireError::FrameTooLarge { len: 100, max: 50 })
        ));
        // A header announcing more than the cap is rejected before the
        // payload is read.
        let frame = encode_frame(&payload, 1024).unwrap();
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, 50),
            Err(WireError::FrameTooLarge { len: 100, max: 50 })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut frame = encode_frame(b"x", 1024).unwrap();
        frame[4] = 0xFF;
        frame[5] = 0xFF;
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(WireError::UnsupportedVersion {
                got: 0xFFFF,
                expected: PROTOCOL_VERSION
            })
        ));
    }

    #[test]
    fn old_protocol_version_rejected() {
        // Well-formed frames from earlier protocols must be refused: v3
        // extended ControlSpec and the Stats payload, v4 appended the
        // batch counters, v5 appended the gateway tail, v6 appended the
        // trace context / sampling counters, v7 replaced the job-id
        // trace fetch with point events on the assembled trace, v8 ships
        // graph features in CSR form, and v9 moved the trace counters of
        // the `Stats` answer ahead of the gateway's stats, so decoding an
        // older payload with current codecs would misinterpret bytes.
        for old in [1u16, 2, 3, 4, 5, 6, 7, 8] {
            let mut frame = encode_frame(b"x", 1024).unwrap();
            frame[4..6].copy_from_slice(&old.to_le_bytes());
            let mut cursor = std::io::Cursor::new(frame);
            match read_frame(&mut cursor, 1024) {
                Err(WireError::UnsupportedVersion { got, expected }) => {
                    assert_eq!(got, old);
                    assert_eq!(expected, 9);
                }
                other => panic!("v{old} frame was not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut frame = encode_frame(b"x", 1024).unwrap();
        frame[0] = b'X';
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut frame = encode_frame(b"important scores", 1024).unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(WireError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let frame = encode_frame(b"0123456789", 1024).unwrap();
        let mut cursor = std::io::Cursor::new(frame[..frame.len() - 3].to_vec());
        match read_frame(&mut cursor, 1024) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn graph_round_trips_with_labels() {
        let mut b = Graph::builder(4, 2);
        b.edge(0, 1).edge(1, 2).edge(2, 3).edge(3, 0);
        b.node_features(0, &[1.0, -2.0]);
        b.node_features(3, &[0.25, f32::MIN_POSITIVE]);
        b.node_labels(vec![0, 1, 1, 0]);
        b.graph_label(1);
        let g = b.build();
        let mut buf = Vec::new();
        encode_graph(&mut buf, &g);
        let mut r = WireReader::new(&buf);
        let back = decode_graph(&mut r).unwrap();
        r.expect_end().unwrap();
        assert_eq!(back.num_nodes(), g.num_nodes());
        assert_eq!(back.feat_dim(), g.feat_dim());
        assert_eq!(back.edges(), g.edges());
        assert_eq!(back.features(), g.features());
        assert_eq!(back.node_labels(), g.node_labels());
        assert_eq!(back.graph_label(), g.graph_label());
    }

    #[test]
    fn hostile_graph_payloads_are_typed_errors() {
        // Edge endpoint out of range.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2); // nodes
        put_u32(&mut buf, 1); // feat_dim
        put_u32(&mut buf, 1); // edges
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 7); // dst out of range
        let mut r = WireReader::new(&buf);
        assert!(decode_graph(&mut r).is_err());

        // Self-loop.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 1);
        let mut r = WireReader::new(&buf);
        assert!(decode_graph(&mut r).is_err());

        // Edge count larger than the buffer can hold: fails before
        // allocating.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            decode_graph(&mut r),
            Err(WireDecodeError::Truncated { .. })
        ));

        // A tiny frame declaring a 2^20 x 2^12 feature matrix: above the
        // dense-shape cap, refused from the counts alone (its dense copy
        // would be a 16 GB allocation).
        let mut buf = Vec::new();
        put_u32(&mut buf, 1 << 20); // nodes (within the node cap)
        put_u32(&mut buf, 1 << 12); // feat_dim
        put_u32(&mut buf, 0); // edges
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            decode_graph(&mut r),
            Err(WireDecodeError::Invalid(
                "feature matrix exceeds wire limit"
            ))
        ));

        // Within the cap, the 2^20 + 1 row offsets must be present before
        // the builder allocates per node.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1 << 20);
        put_u32(&mut buf, 4);
        put_u32(&mut buf, 0);
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            decode_graph(&mut r),
            Err(WireDecodeError::Truncated { .. })
        ));

        // A featureless frame declaring billions of nodes: rejected by the
        // node cap even though zero features and edges would "fit".
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // nodes
        put_u32(&mut buf, 0); // feat_dim
        put_u32(&mut buf, 0); // edges
        let mut r = WireReader::new(&buf);
        assert!(matches!(
            decode_graph(&mut r),
            Err(WireDecodeError::Invalid(_))
        ));
    }

    #[test]
    fn explain_request_round_trips() {
        let mut b = Graph::builder(3, 1);
        b.undirected_edge(0, 1).edge(1, 2);
        b.node_features(1, &[0.5]);
        let req = Request::Explain(ExplainRequest {
            model: 3,
            graph_id: 99,
            method: "REVELIO".to_owned(),
            objective: Objective::Counterfactual,
            effort: Effort::Paper,
            target: Target::Node(2),
            control: ControlSpec {
                deadline_ms: Some(750),
                max_flows: 12_345,
                shrink_on_overflow: true,
                trace: true,
                warm_start: true,
            },
            graph: b.build(),
            context: Some(TraceContext {
                trace_hi: 0xdead_beef_0000_0001,
                trace_lo: 0x1234_5678_9abc_def0,
                parent_span: 42,
                sampled: true,
            }),
        });
        let payload = req.encode();
        match Request::decode(&payload).unwrap() {
            Request::Explain(e) => {
                assert_eq!(e.model, 3);
                assert_eq!(e.graph_id, 99);
                assert_eq!(e.method, "REVELIO");
                assert_eq!(e.objective, Objective::Counterfactual);
                assert_eq!(e.effort, Effort::Paper);
                assert_eq!(e.target, Target::Node(2));
                assert_eq!(e.control.deadline_ms, Some(750));
                assert!(e.control.trace);
                assert!(e.control.warm_start);
                assert_eq!(e.graph.num_edges(), 3);
                assert_eq!(e.graph.feature_row(1), &[0.5]);
                let ctx = e.context.expect("context must survive the wire");
                assert_eq!(ctx.trace_hi, 0xdead_beef_0000_0001);
                assert_eq!(ctx.trace_lo, 0x1234_5678_9abc_def0);
                assert_eq!(ctx.parent_span, 42);
                assert!(ctx.sampled);
            }
            _ => panic!("decoded the wrong variant"),
        }
    }

    #[test]
    fn trailing_bytes_after_request_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(matches!(
            Request::decode(&payload),
            Err(WireDecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn stats_response_round_trips() {
        let mut s = ServerStats {
            connections_accepted: 4,
            bytes_in: 1000,
            shed: 2,
            trace_sampled: 6,
            trace_dropped: 94,
            ..Default::default()
        };
        s.runtime.jobs_completed = 17;
        s.runtime.jobs_rejected = 2;
        s.runtime.epochs_total = 340;
        s.runtime.phase_optimize.count = 17;
        s.runtime.phase_optimize.buckets[2] = 17;
        s.runtime.phase_optimize.total = 85_000;
        s.runtime.phase_optimize.max = 9_000;
        s.runtime.store_hits = 5;
        s.runtime.store_misses = 3;
        let payload = Response::Stats(Box::new(s), None).encode();
        match Response::decode(&payload).unwrap() {
            Response::Stats(back, gateway) => {
                assert_eq!(*back, s);
                assert!(gateway.is_none());
                assert!(back.report().contains("shed=2"));
                assert!(back.report().contains("total=340"));
                assert!(back.report().contains("hits=5 misses=3"));
                assert!(back.report().contains("sampled=6 dropped=94"));
            }
            _ => panic!("decoded the wrong variant"),
        }
    }

    #[test]
    fn gateway_stats_tail_round_trips() {
        let g = GatewayStats {
            routed: 120,
            fanout: 3,
            rerouted: 7,
            scatter: 2,
            backends: vec![
                GatewayBackendStats {
                    addr: "127.0.0.1:7141".to_owned(),
                    healthy: true,
                    consecutive_failures: 0,
                    forwarded: 80,
                    errors: 0,
                    busy: 1,
                    health_checks: 12,
                    cache_hits: 60,
                    cache_misses: 20,
                    jobs_completed: 80,
                },
                GatewayBackendStats {
                    addr: "127.0.0.1:7142".to_owned(),
                    healthy: false,
                    consecutive_failures: 4,
                    forwarded: 40,
                    errors: 4,
                    busy: 0,
                    health_checks: 6,
                    cache_hits: 30,
                    cache_misses: 10,
                    jobs_completed: 40,
                },
            ],
        };
        let s = ServerStats {
            requests: 123,
            ..Default::default()
        };
        let payload = Response::Stats(Box::new(s), Some(Box::new(g.clone()))).encode();
        match Response::decode(&payload).unwrap() {
            Response::Stats(back, Some(gw)) => {
                assert_eq!(*back, s);
                assert_eq!(*gw, g);
                assert_eq!(gw.healthy_backends(), 1);
                assert!((gw.fleet_cache_hit_rate() - 0.75).abs() < 1e-9);
                assert!(gw.report().contains("127.0.0.1:7142 DOWN"));
            }
            _ => panic!("decoded the wrong variant"),
        }
    }

    #[test]
    fn gateway_stats_prometheus_exposition_is_valid() {
        let g = GatewayStats {
            routed: 9,
            fanout: 1,
            rerouted: 2,
            scatter: 0,
            backends: vec![GatewayBackendStats {
                addr: "127.0.0.1:7141".to_owned(),
                healthy: true,
                forwarded: 9,
                health_checks: 3,
                cache_hits: 5,
                cache_misses: 5,
                ..Default::default()
            }],
        };
        let text = g.prometheus();
        let exp = revelio_runtime::prometheus::parse_exposition(&text).expect("valid exposition");
        for family in [
            "revelio_gateway_routed_total",
            "revelio_gateway_fanout_total",
            "revelio_gateway_rerouted_total",
            "revelio_gateway_backends_healthy",
            "revelio_gateway_fleet_cache_hit_rate",
            "revelio_gateway_backend_up",
            "revelio_gateway_backend_forwarded_total",
            "revelio_gateway_backend_errors_total",
            "revelio_gateway_backend_busy_total",
        ] {
            assert!(exp.families.contains_key(family), "missing family {family}");
        }
        // Backend samples carry the backend label.
        assert!(text.contains("revelio_gateway_backend_up{backend=\"127.0.0.1:7141\"} 1"));
    }

    #[test]
    fn backend_label_values_are_escaped() {
        let hostile = "evil\\\"} 1\nrevelio_gateway_backend_up{backend=\"x";
        let g = GatewayStats {
            backends: vec![
                GatewayBackendStats {
                    addr: hostile.to_owned(),
                    healthy: true,
                    ..Default::default()
                },
                GatewayBackendStats {
                    addr: "127.0.0.1:7142".to_owned(),
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let text = g.prometheus();
        let exp = revelio_runtime::prometheus::parse_exposition(&text).expect("valid exposition");
        assert_eq!(exp.samples_of("revelio_gateway_backend_up").len(), 2);
        assert!(
            text.contains(r#"{backend="evil\\\"} 1\nrevelio_gateway_backend_up{backend=\"x"} 1"#)
        );
    }

    #[test]
    fn hostile_gateway_backend_count_fails_before_allocation() {
        let mut payload = Response::Stats(Box::<ServerStats>::default(), None).encode();
        // The gateway stats' option tag is the last byte: flip it to
        // "present" and append a hostile count.
        let last = payload.len() - 1;
        payload[last] = 1;
        put_u64(&mut payload, 0); // routed
        put_u64(&mut payload, 0); // fanout
        put_u64(&mut payload, 0); // rerouted
        put_u64(&mut payload, 0); // scatter
        put_u32(&mut payload, u32::MAX); // backend count with no entries
        assert!(matches!(
            Response::decode(&payload),
            Err(WireDecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn stats_prometheus_exposition_is_valid() {
        let mut s = ServerStats {
            requests: 9,
            shed: 1,
            ..Default::default()
        };
        s.request_latency.count = 9;
        s.request_latency.buckets[1] = 9;
        s.request_latency.total = 4_500;
        s.request_latency.max = 900;
        s.runtime.epochs_total = 120;
        let text = s.prometheus();
        let exp = revelio_runtime::prometheus::parse_exposition(&text).expect("valid exposition");
        for family in [
            "revelio_jobs_completed_total",
            "revelio_epochs_total",
            "revelio_latency_seconds_optimize",
            "revelio_store_hits_total",
            "revelio_store_misses_total",
            "revelio_server_requests_total",
            "revelio_server_request_latency_seconds",
            "revelio_trace_sampled_total",
            "revelio_trace_dropped_total",
        ] {
            assert!(exp.families.contains_key(family), "missing family {family}");
        }
    }

    #[test]
    fn stored_explanation_round_trips() {
        let payload = Request::FetchExplanation(77).encode();
        match Request::decode(&payload).unwrap() {
            Request::FetchExplanation(id) => assert_eq!(id, 77),
            _ => panic!("decoded the wrong variant"),
        }

        let stored = WireStoredExplanation {
            job_id: 77,
            model: 2,
            graph_id: 9,
            target: Target::Node(4),
            layers: 3,
            edge_scores: vec![0.5, 0.25, -0.1],
            layer_edge_scores: Some(vec![vec![0.1], vec![0.2], vec![0.3]]),
            flow_scores: Some(vec![0.9, 0.8]),
            degradation: Degradation {
                deadline_hit: true,
                epochs_run: 12,
                epochs_planned: 150,
                flows_dropped: 4,
            },
            queue_us: 10,
            prep_us: 20,
            explain_us: 30,
            has_mask: true,
        };
        let payload = Response::Explanation(Some(Box::new(stored.clone()))).encode();
        match Response::decode(&payload).unwrap() {
            Response::Explanation(Some(back)) => assert_eq!(*back, stored),
            _ => panic!("decoded the wrong variant"),
        }

        let payload = Response::Explanation(None).encode();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Explanation(None)
        ));
    }

    #[test]
    fn explanation_list_round_trips() {
        let payload = Request::ListExplanations.encode();
        assert!(matches!(
            Request::decode(&payload).unwrap(),
            Request::ListExplanations
        ));

        let list = vec![
            WireExplanationSummary {
                job_id: 1,
                key: MaskKey {
                    model_id: 0,
                    graph_id: 7,
                    target: Target::Graph,
                    layers: 2,
                },
                degraded: false,
                has_mask: true,
            },
            WireExplanationSummary {
                job_id: 9,
                key: MaskKey {
                    model_id: 1,
                    graph_id: 8,
                    target: Target::Node(3),
                    layers: 3,
                },
                degraded: true,
                has_mask: false,
            },
        ];
        let payload = Response::ExplanationList(list.clone()).encode();
        match Response::decode(&payload).unwrap() {
            Response::ExplanationList(back) => assert_eq!(back, list),
            _ => panic!("decoded the wrong variant"),
        }
    }

    #[test]
    fn hostile_summary_count_fails_before_allocation() {
        let mut payload = vec![RESP_EXPLANATION_LIST];
        put_u32(&mut payload, u32::MAX); // summary count with no entries
        assert!(matches!(
            Response::decode(&payload),
            Err(WireDecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn assembled_trace_round_trips() {
        // The newest form and a job-id 0 lookup are distinct requests.
        for id in [None, Some([0, 0]), Some([0xfeed, 7])] {
            match Request::decode(&Request::AssembledTrace(id).encode()).unwrap() {
                Request::AssembledTrace(back) => assert_eq!(back, id),
                _ => panic!("decoded the wrong variant"),
            }
        }

        let t = AssembledTrace {
            trace_hi: 0xfeed,
            trace_lo: 0xf00d,
            lanes: vec!["gateway".to_owned(), "shard-1 (127.0.0.1:7152)".to_owned()],
            spans: vec![
                AssembledSpan {
                    lane: 0,
                    name: "route".to_owned(),
                    start_us: 0,
                    dur_us: 3000,
                },
                AssembledSpan {
                    lane: 1,
                    name: "optimize".to_owned(),
                    start_us: 500,
                    dur_us: 2000,
                },
            ],
            events: vec![AssembledEvent {
                lane: 1,
                at_us: 900,
                kind: PointKind::Epoch {
                    index: 4,
                    loss: f32::from_bits(0x7FC0_0001),
                    grad_norm: 0.5,
                },
            }],
            dropped: 2,
        };
        let payload = Response::Assembled(Box::new(t.clone())).encode();
        match Response::decode(&payload).unwrap() {
            // NaN != NaN, so compare the loss bits and the rest apart.
            Response::Assembled(back) => {
                assert_eq!(back.to_bytes(), t.to_bytes());
                assert_eq!(back.spans, t.spans);
                match back.events[0].kind {
                    PointKind::Epoch { loss, .. } => assert_eq!(loss.to_bits(), 0x7FC0_0001),
                    ref other => panic!("decoded {other:?}"),
                }
            }
            _ => panic!("decoded the wrong variant"),
        }
    }

    #[test]
    fn retired_trace_tags_are_typed_errors() {
        // Request tag 5 and response tag 7 were the job-id trace fetch.
        let v6_request = [5, 42, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            Request::decode(&v6_request).err(),
            Some(WireDecodeError::Invalid("request tag"))
        );
        assert_eq!(
            Response::decode(&[7, 0]).err(),
            Some(WireDecodeError::Invalid("response tag"))
        );
    }

    #[test]
    fn hostile_assembled_counts_fail_before_allocation() {
        // Hostile lane count.
        let mut payload = vec![RESP_ASSEMBLED];
        put_u64(&mut payload, 0); // hi
        put_u64(&mut payload, 0); // lo
        put_u64(&mut payload, 0); // dropped
        put_u32(&mut payload, u32::MAX); // lane count with no lanes
        assert!(matches!(
            Response::decode(&payload),
            Err(WireDecodeError::Truncated { .. })
        ));

        // Hostile span count.
        let mut payload = vec![RESP_ASSEMBLED];
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 1);
        put_str(&mut payload, "gateway");
        put_u32(&mut payload, u32::MAX); // span count with no spans
        assert!(matches!(
            Response::decode(&payload),
            Err(WireDecodeError::Truncated { .. })
        ));

        // Span pointing at a lane that does not exist.
        let mut payload = vec![RESP_ASSEMBLED];
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 1);
        put_str(&mut payload, "gateway");
        put_u32(&mut payload, 1);
        put_u32(&mut payload, 9); // lane index out of range
        put_str(&mut payload, "route");
        put_u64(&mut payload, 0);
        put_u64(&mut payload, 0);
        put_u32(&mut payload, 0); // no point events
        assert!(matches!(
            Response::decode(&payload),
            Err(WireDecodeError::Invalid(_))
        ));

        // Hostile point-event count, then a point event on a missing lane.
        let one_lane_no_spans = |events: u32| {
            let mut payload = vec![RESP_ASSEMBLED];
            [0u64, 0, 0].encode(&mut payload);
            vec!["backend".to_owned()].encode(&mut payload);
            put_u32(&mut payload, 0);
            put_u32(&mut payload, events);
            payload
        };
        assert!(matches!(
            Response::decode(&one_lane_no_spans(u32::MAX)),
            Err(WireDecodeError::Truncated { .. })
        ));
        let mut payload = one_lane_no_spans(1);
        AssembledEvent {
            lane: 1, // lane index out of range
            at_us: 0,
            kind: PointKind::CacheProbe { hit: true },
        }
        .encode(&mut payload);
        assert_eq!(
            Response::decode(&payload).err(),
            Some(WireDecodeError::Invalid("lane index out of range"))
        );
    }

    #[test]
    fn unknown_trace_error_kind_round_trips() {
        let payload = Response::Error {
            kind: ErrorKind::UnknownTrace,
            message: "trace 00ab is not retained".to_owned(),
        }
        .encode();
        match Response::decode(&payload).unwrap() {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::UnknownTrace);
                assert!(message.contains("00ab"));
            }
            _ => panic!("decoded the wrong variant"),
        }
    }
}
