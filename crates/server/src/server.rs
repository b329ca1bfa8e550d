//! The explanation server: the runtime's worker pool behind the
//! [`FrontEnd`].
//!
//! Concurrency model: the front end gives each connection its own handler
//! thread, which dispatches decoded requests here; an `Explain` is
//! submitted to the shared [`Runtime`] worker pool and its handler blocks
//! on the ticket. Parallelism of the *explanations* is bounded by the
//! pool's worker count, not the connection count, and admission control
//! bounds the number of jobs in flight: an `Explain` arriving past
//! [`ServerConfig::max_in_flight`] is answered with [`Response::Busy`]
//! instead of queued (the connection stays usable).
//!
//! Shutdown is graceful: the stop flag halts the acceptor and the
//! handlers *between frames*, in-flight jobs run to completion, and
//! [`Server::shutdown`] joins every thread — the handlers, the acceptor,
//! then the runtime's workers — before returning the final stats.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use revelio_eval::{
    is_flow_based, is_group_level, method_factory, revelio_batch_config, ALL_METHODS,
};
use revelio_gnn::{Gnn, GnnConfig};
use revelio_graph::Target;
use revelio_runtime::{
    ExplainJob, JobError, ModelHandle, Runtime, RuntimeBootError, RuntimeConfig,
    RuntimeConfigError, TraceMiss,
};
use revelio_store::{ExplanationRecord, LogStore, StoreError};
use revelio_trace::{hex_trace_id, AssembledTrace, Sampler};

use crate::front::FrontEnd;
use crate::wire::{
    ErrorKind, ExplainRequest, Request, Response, ServedExplanation, ServerStats, WireCounters,
    WireStoredExplanation, WireTiming, MAX_FRAME_LEN, PROTOCOL_VERSION,
};

/// How the server binds and sheds load.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker pool configuration (validated at startup).
    pub runtime: RuntimeConfig,
    /// Admission limit: `Explain` requests arriving while this many jobs
    /// are queued or running are answered with `Busy` instead of queued.
    pub max_in_flight: usize,
    /// Path of the persistent store log. `Some` attaches a [`LogStore`]:
    /// registrations and finished explanations are persisted write-behind,
    /// an existing file is recovered at startup (models keep their wire
    /// ids, pre-restart explanations stay fetchable), and `Explain`
    /// requests may ask for store-seeded warm starts.
    pub store: Option<std::path::PathBuf>,
    /// Head-based sampling rate in `[0, 1]` for `Explain` requests that
    /// carry no explicit trace request: each such request is traced with
    /// this probability (deterministically, from a counter). Requests
    /// arriving with a propagated trace context honour the upstream
    /// decision instead; `0.0` (the default) never samples locally.
    pub trace_sample_rate: f64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            runtime: RuntimeConfig::default(),
            max_in_flight: 64,
            store: None,
            trace_sample_rate: 0.0,
        }
    }
}

struct Shared {
    runtime: Runtime,
    /// Wire model id → runtime handle.
    models: Mutex<Vec<ModelHandle>>,
    /// The same store the runtime writes behind, for serving
    /// `FetchExplanation` / `ListExplanations` reads.
    store: Option<Arc<LogStore>>,
    max_in_flight: usize,
    /// Head-based sampler for `Explain` requests without an upstream
    /// trace-context; off (`rate 0`) it is one branch per request.
    sampler: Sampler,
}

impl Shared {
    fn stats(&self, wire: &WireCounters) -> ServerStats {
        ServerStats {
            runtime: self.runtime.metrics(),
            ..wire.load()
        }
    }
}

/// A running server; dropping it without calling [`Server::shutdown`]
/// still stops and joins every thread.
pub struct Server {
    // Declared first so it drops first: the handlers and the acceptor are
    // joined before the last `Shared` (and with it the runtime's workers)
    // goes.
    front: FrontEnd,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns
    /// immediately; the server is accepting once this returns.
    ///
    /// # Errors
    ///
    /// I/O errors from binding, an invalid [`RuntimeConfig`], or an
    /// unrecoverable store file.
    pub fn start(cfg: ServerConfig) -> Result<Server, ServerStartError> {
        let (runtime, store) = match &cfg.store {
            Some(path) => {
                let store = Arc::new(LogStore::open(path)?);
                let runtime =
                    Runtime::try_with_config_and_store(cfg.runtime.clone(), Arc::clone(&store))
                        .map_err(|e| match e {
                            RuntimeBootError::Config(e) => ServerStartError::Runtime(e),
                            RuntimeBootError::Store(e) => ServerStartError::Store(e),
                        })?;
                (runtime, Some(store))
            }
            None => (Runtime::try_with_config(cfg.runtime.clone())?, None),
        };
        // Recovery re-registers stored models in ascending wire-id order
        // and the runtime assigns handles sequentially, so handle index ==
        // wire id; an empty or absent store yields an empty map.
        let models = runtime.model_handles();
        let shared = Arc::new(Shared {
            runtime,
            models: Mutex::new(models),
            store,
            max_in_flight: cfg.max_in_flight,
            sampler: Sampler::new(cfg.trace_sample_rate, 0x7265_7665_6c69_6f21),
        });
        let front = {
            let shared = Arc::clone(&shared);
            FrontEnd::start(&cfg.addr, "revelio", move |request, t0, wire| {
                serve_request(request, &shared, t0, wire)
            })?
        };
        Ok(Server { front, shared })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Whether a shutdown has been requested (by [`Server::stop`] or a
    /// `Shutdown` request over the wire).
    pub fn stopping(&self) -> bool {
        self.front.stopping()
    }

    /// Requests shutdown without blocking: stops accepting and tells
    /// handlers to exit at the next frame boundary.
    pub fn stop(&self) {
        self.front.stop();
    }

    /// Current unified wire + runtime stats.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats(self.front.counters())
    }

    /// Graceful shutdown: stop accepting, let every in-flight job finish,
    /// join all threads, and return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.front.shutdown();
        self.stats()
    }

    /// Blocks until the server stops on its own (a `Shutdown` request over
    /// the wire) and all threads are joined; returns the final stats.
    pub fn wait(mut self) -> ServerStats {
        self.front.wait();
        self.stats()
    }
}

/// Why [`Server::start`] failed.
#[derive(Debug)]
pub enum ServerStartError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The embedded [`RuntimeConfig`] was rejected.
    Runtime(RuntimeConfigError),
    /// The store file could not be opened or recovered.
    Store(StoreError),
}

impl std::fmt::Display for ServerStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerStartError::Io(e) => write!(f, "bind failed: {e}"),
            ServerStartError::Runtime(e) => write!(f, "runtime config: {e}"),
            ServerStartError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for ServerStartError {}

impl From<std::io::Error> for ServerStartError {
    fn from(e: std::io::Error) -> Self {
        ServerStartError::Io(e)
    }
}

impl From<RuntimeConfigError> for ServerStartError {
    fn from(e: RuntimeConfigError) -> Self {
        ServerStartError::Runtime(e)
    }
}

impl From<StoreError> for ServerStartError {
    fn from(e: StoreError) -> Self {
        ServerStartError::Store(e)
    }
}

/// Serves one decoded request. The front end answers everything but
/// read-only requests with `ShuttingDown` once stop is raised, and stops
/// on the `ShutdownAck`.
fn serve_request(request: Request, shared: &Shared, t0: Instant, wire: &WireCounters) -> Response {
    match request {
        Request::Ping => Response::Pong {
            version: PROTOCOL_VERSION,
        },
        Request::RegisterModel { config, state } => register_model(shared, config, &state),
        Request::Explain(req) => serve_explain(shared, req, t0, wire),
        Request::Stats => Response::Stats(Box::new(shared.stats(wire)), None),
        Request::AssembledTrace(id) => serve_assembled(shared, id),
        Request::Shutdown => Response::ShutdownAck,
        Request::FetchExplanation(job_id) => fetch_explanation(shared, job_id),
        Request::ListExplanations => list_explanations(shared),
    }
}

/// Serves `AssembledTrace` on a backend: a single-lane assembly of the
/// retained fragment (the gateway stitches multi-lane traces; asking a
/// backend directly still yields a loadable chrome trace). The fragment
/// is journaled under the low half alone: a propagated context's
/// `trace_lo`, or the job id of a directly traced request.
fn serve_assembled(shared: &Shared, id: Option<[u64; 2]>) -> Response {
    let [hi, lo] = id.unwrap_or_default();
    let fetched = match id {
        Some(_) => shared.runtime.fetch_trace(lo),
        None => shared.runtime.newest_trace().ok_or(TraceMiss::Unknown),
    };
    match fetched {
        Ok(t) => Response::Assembled(Box::new(AssembledTrace::from_fragment(
            hi, t.id.0, "backend", 0, &t,
        ))),
        Err(miss) => Response::Error {
            kind: ErrorKind::UnknownTrace,
            message: format!("trace {}: {miss}", hex_trace_id(hi, lo)),
        },
    }
}

fn no_store_response() -> Response {
    Response::Error {
        kind: ErrorKind::NoStore,
        message: "this server runs without a persistent store".to_owned(),
    }
}

fn store_read_error(e: &StoreError) -> Response {
    Response::Error {
        kind: ErrorKind::Internal,
        message: format!("store read failed: {e}"),
    }
}

fn fetch_explanation(shared: &Shared, job_id: u64) -> Response {
    let Some(store) = shared.store.as_ref() else {
        return no_store_response();
    };
    match store.explanation(job_id) {
        Ok(rec) => Response::Explanation(rec.map(|r| Box::new(wire_stored(r)))),
        Err(e) => store_read_error(&e),
    }
}

fn list_explanations(shared: &Shared) -> Response {
    let Some(store) = shared.store.as_ref() else {
        return no_store_response();
    };
    match store.list_explanations() {
        Ok(list) => Response::ExplanationList(list),
        Err(e) => store_read_error(&e),
    }
}

fn wire_stored(r: ExplanationRecord) -> WireStoredExplanation {
    WireStoredExplanation {
        job_id: r.job_id,
        model: r.key.model_id,
        graph_id: r.key.graph_id,
        target: r.key.target,
        layers: r.key.layers,
        edge_scores: r.edge_scores,
        layer_edge_scores: r.layer_edge_scores,
        flow_scores: r.flow_scores,
        degradation: r.degradation,
        queue_us: r.phases.queue_us,
        prep_us: r.phases.prep_us,
        explain_us: r.phases.explain_us,
        has_mask: r.mask.is_some(),
    }
}

fn register_model(shared: &Shared, config: GnnConfig, state: &[Vec<f32>]) -> Response {
    if let Err(msg) = validate_gnn_config(&config) {
        return Response::Error {
            kind: ErrorKind::Malformed,
            message: msg.to_owned(),
        };
    }
    // `Gnn::load_state` panics on shape mismatch, so the shapes are checked
    // against a freshly initialised model first.
    let model = Gnn::new(config);
    let reference = model.state_dict();
    if reference.len() != state.len() {
        return Response::Error {
            kind: ErrorKind::Malformed,
            message: format!(
                "state dict has {} parameter buffers, the architecture needs {}",
                state.len(),
                reference.len()
            ),
        };
    }
    for (i, (r, s)) in reference.iter().zip(state).enumerate() {
        if r.len() != s.len() {
            return Response::Error {
                kind: ErrorKind::Malformed,
                message: format!(
                    "parameter {i} has {} values, the architecture needs {}",
                    s.len(),
                    r.len()
                ),
            };
        }
        if let Some(bad) = s.iter().find(|v| !v.is_finite()) {
            return Response::Error {
                kind: ErrorKind::Malformed,
                message: format!("parameter {i} contains a non-finite weight {bad}"),
            };
        }
    }
    model.load_state(state);
    let handle = shared.runtime.register_model(&model);
    let mut models = match shared.models.lock() {
        Ok(m) => m,
        Err(p) => p.into_inner(),
    };
    models.push(handle);
    Response::ModelRegistered {
        model: (models.len() - 1) as u32,
    }
}

fn validate_gnn_config(c: &GnnConfig) -> Result<(), &'static str> {
    if c.in_dim == 0 || c.hidden_dim == 0 || c.num_classes == 0 {
        return Err("model dimensions must be at least 1");
    }
    if c.num_layers == 0 || c.num_layers > 16 {
        return Err("num_layers must be in 1..=16");
    }
    if c.heads == 0 || c.heads > 64 {
        return Err("heads must be in 1..=64");
    }
    // `Gnn::new` materialises every weight matrix, so the parameter
    // footprint must be bounded *before* construction — a small frame
    // declaring `in_dim`/`hidden_dim` near `u32::MAX` would otherwise
    // force an exabyte-scale allocation. The estimate below over-counts
    // the real parameter total by at most ~2x (it prices every layer at
    // the widest fan-in/fan-out), so any architecture it rejects could
    // never have shipped its weights inside one `MAX_FRAME_LEN` frame —
    // the state-length check after `Gnn::new` would refuse it anyway.
    let fan_out = c
        .hidden_dim
        .max(c.num_classes)
        .saturating_mul(c.heads.max(1));
    let first = c.in_dim.saturating_mul(fan_out);
    let rest = c
        .hidden_dim
        .saturating_mul(fan_out)
        .saturating_mul(c.num_layers.saturating_sub(1));
    let readout = c.hidden_dim.saturating_mul(c.num_classes);
    let elems = first.saturating_add(rest).saturating_add(readout);
    // `elems` f32s at 4 bytes each, allowing the 2x over-count slack.
    if elems.saturating_mul(2) > MAX_FRAME_LEN {
        return Err("model dimensions exceed the serving parameter limit");
    }
    Ok(())
}

fn serve_explain(
    shared: &Shared,
    req: ExplainRequest,
    t0: Instant,
    wire: &WireCounters,
) -> Response {
    let handle = {
        let models = match shared.models.lock() {
            Ok(m) => m,
            Err(p) => p.into_inner(),
        };
        match models.get(req.model as usize) {
            Some(&h) => h,
            None => {
                return Response::Error {
                    kind: ErrorKind::UnknownModel,
                    message: format!("model id {} was never registered", req.model),
                }
            }
        }
    };
    // The registry hands factories a `&'static str`, so the wire string is
    // mapped back onto the canonical method table.
    let method: &'static str = match ALL_METHODS.iter().find(|m| **m == req.method) {
        Some(m) => m,
        None => {
            return Response::Error {
                kind: ErrorKind::UnknownMethod,
                message: format!("unknown method {:?}", req.method),
            }
        }
    };
    if is_group_level(method) {
        return Response::Error {
            kind: ErrorKind::GroupLevelMethod,
            message: format!(
                "{method} trains over instance groups and cannot be served per-request"
            ),
        };
    }
    // A graph the model cannot read is refused here, before it is queued.
    let in_dim = shared.runtime.model_config(handle).map_or(0, |c| c.in_dim);
    if req.graph.feat_dim() != in_dim {
        return Response::Error {
            kind: ErrorKind::Malformed,
            message: format!(
                "graph has {} features per node, model {} reads {in_dim}",
                req.graph.feat_dim(),
                req.model,
            ),
        };
    }
    if let Target::Node(n) = req.target {
        if n >= req.graph.num_nodes() {
            return Response::Error {
                kind: ErrorKind::Malformed,
                message: format!(
                    "target node {n} out of range for a {}-node graph",
                    req.graph.num_nodes()
                ),
            };
        }
    }
    // Head-based sampling: a propagated context carries the upstream
    // decision (the gateway already sampled); a context-free request asks
    // the local sampler, so direct clients can opt whole deployments into
    // `--trace-sample-rate` without touching call sites. An explicit
    // `control.trace` always wins.
    let traced = req.control.trace
        || req
            .context
            .map_or_else(|| shared.sampler.sample(), |c| c.sampled);
    if traced {
        wire.trace_sampled.fetch_add(1, Ordering::Relaxed);
    } else {
        wire.trace_dropped.fetch_add(1, Ordering::Relaxed);
    }
    let job = ExplainJob {
        graph: req.graph,
        target: req.target,
        graph_id: req.graph_id,
        make_explainer: method_factory(method, req.objective, req.effort),
        needs_flows: is_flow_based(method),
        max_flows: usize::try_from(req.control.max_flows).unwrap_or(usize::MAX),
        shrink_on_overflow: req.control.shrink_on_overflow,
        deadline: req.control.deadline_ms.map(Duration::from_millis),
        trace: traced,
        // Journal the fragment under the global trace id's low half so the
        // gateway (or any peer) can fetch it fleet-wide.
        trace_key: if traced {
            req.context.map(|c| c.trace_lo)
        } else {
            None
        },
        warm_start: req.control.warm_start,
        batch_spec: None,
    };
    // REVELIO requests advertise their config so the runtime can fuse
    // compatible queued jobs into one optimize pass; the spec installs the
    // job's explainer too, so REVELIO's config is stated once.
    let job = if method == "REVELIO" {
        job.with_batch_spec(revelio_batch_config(req.objective, req.effort))
    } else {
        job
    };
    let ticket = match shared.runtime.try_submit(handle, job, shared.max_in_flight) {
        Ok(t) => t,
        Err(_rejected) => {
            wire.shed.fetch_add(1, Ordering::Relaxed);
            return Response::Busy {
                in_flight: shared.runtime.in_flight() as u32,
                limit: shared.max_in_flight as u32,
            };
        }
    };
    match ticket.wait() {
        Ok(out) => {
            let timing = WireTiming {
                queue_us: as_us(out.timing.queue_wait),
                prep_us: as_us(out.timing.prep),
                explain_us: as_us(out.timing.explain),
                total_us: as_us(t0.elapsed()),
            };
            Response::Explained(ServedExplanation {
                edge_scores: out.explanation.edge_scores,
                layer_edge_scores: out.explanation.layer_edge_scores,
                flow_scores: out.explanation.flows.map(|f| f.scores),
                degradation: out.degradation,
                timing,
                trace_id: out.trace.as_ref().map(|t| t.id.0),
            })
        }
        Err(e) => {
            let kind = match &e {
                JobError::UnknownModel => ErrorKind::UnknownModel,
                JobError::Cancelled => ErrorKind::ShuttingDown,
                JobError::TooManyFlows { .. } => ErrorKind::Malformed,
                JobError::Panicked(_) | JobError::Lost => ErrorKind::Internal,
            };
            Response::Error {
                kind,
                message: e.to_string(),
            }
        }
    }
}

fn as_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnKind, Task};

    #[test]
    fn validate_gnn_config_accepts_paper_scale_models() {
        // Cora-sized input with the paper's standard widths must pass.
        let c = GnnConfig::standard(GnnKind::Gat, Task::NodeClassification, 1433, 7, 0);
        assert!(validate_gnn_config(&c).is_ok());
    }

    #[test]
    fn validate_gnn_config_rejects_hostile_dimensions() {
        // A ~40-byte RegisterModel frame can declare dimensions whose
        // weight matrices would be exabytes; the bound must fire before
        // `Gnn::new` ever sees them.
        let base = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 4, 2, 0);
        for hostile in [
            GnnConfig {
                in_dim: u32::MAX as usize,
                hidden_dim: u32::MAX as usize,
                ..base.clone()
            },
            GnnConfig {
                hidden_dim: u32::MAX as usize,
                ..base.clone()
            },
            GnnConfig {
                in_dim: u32::MAX as usize,
                num_classes: u32::MAX as usize,
                ..base.clone()
            },
        ] {
            assert!(
                validate_gnn_config(&hostile).is_err(),
                "accepted in={} hidden={} classes={}",
                hostile.in_dim,
                hostile.hidden_dim,
                hostile.num_classes
            );
        }
    }
}
