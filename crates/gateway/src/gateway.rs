//! The gateway process: request dispatch, backend pool, and the
//! health-check/failover state machine.
//!
//! The gateway speaks the same wire protocol as `revelio-serve` on both
//! sides, and serves clients through the same [`FrontEnd`]: its listener,
//! connection loop, shutdown gate, stop order and wire counters are the
//! backend's. Requests are dispatched by kind:
//!
//! - `Explain` is **routed**: the ring hashes `(model, graph_id, target)`
//!   to one owning shard, preserving artifact-cache and warm-start
//!   locality. Transport failures re-route to the next live shard
//!   (bounded attempts, each failed backend excluded), while `Busy` and
//!   typed server errors propagate to the caller verbatim — the gateway
//!   never hides backpressure.
//! - `RegisterModel` **fans out**: every healthy shard gets a replica, so
//!   any owner can serve any key. The gateway assigns the caller-visible
//!   model id (its registration-log index) and keeps a per-backend id
//!   map, so a backend whose own id space diverged (e.g. it was replayed
//!   after a restart) is still addressed correctly.
//! - `FetchExplanation` / `ListExplanations` **scatter**: job ids are
//!   shard-local, so the gateway asks every healthy shard and merges
//!   (first hit for point reads, id-sorted union for lists).
//! - `AssembledTrace` **assembles**: the gateway's own routing spans plus
//!   the owning shard's fragment; an id the gateway never routed scatters
//!   like a point read.
//! - `Stats` **aggregates**: live per-backend stats and the gateway's own
//!   front-end counters merge into one fleet-wide [`ServerStats`], sent
//!   with the [`GatewayStats`].
//! - `Shutdown` fans out to every healthy backend, then stops the
//!   gateway itself.
//!
//! Health: a poller issues `Stats` to every backend each interval. After
//! [`GatewayConfig::fail_after`] consecutive errors (polls or forwards) a
//! backend is marked dead and the ring walks past its points; a
//! successful poll on a dead backend triggers a full registration replay
//! and then re-admits it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use revelio_gnn::GnnConfig;
use revelio_server::wire::{
    ErrorKind, ExplainRequest, GatewayBackendStats, GatewayCounters, GatewayStats, Request,
    Response, ServerStats, WireCounters, WireExplanationSummary, PROTOCOL_VERSION,
};
use revelio_server::{Client, ClientConfig, ClientError, FrontEnd};
use revelio_trace::{AssembledSpan, AssembledTrace, Sampler, TraceContext};

use crate::ring::{route_key, Ring};

/// Gateway configuration; [`GatewayConfig::validate`] is called by
/// [`Gateway::start`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks a free port (see [`Gateway::local_addr`]).
    pub addr: String,
    /// Backend addresses (`host:port`), one per shard, in ring order.
    pub shards: Vec<String>,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Health-poll period.
    pub health_interval: Duration,
    /// Consecutive errors (health polls or forwards) before a backend is
    /// marked dead and its ring segments re-route.
    pub fail_after: u32,
    /// Distinct backends tried for one routed request before giving up.
    pub forward_attempts: u32,
    /// Head-based sampling rate in `[0, 1]`: each routed `Explain`
    /// without an inherited trace context is traced fleet-wide with this
    /// probability. `0.0` (the default) traces only on explicit request.
    pub trace_sample_rate: f64,
}

impl Default for GatewayConfig {
    fn default() -> GatewayConfig {
        GatewayConfig {
            addr: "127.0.0.1:0".to_owned(),
            shards: Vec::new(),
            vnodes: 64,
            health_interval: Duration::from_millis(500),
            fail_after: 3,
            forward_attempts: 3,
            trace_sample_rate: 0.0,
        }
    }
}

/// Why a [`GatewayConfig`] was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GatewayConfigError {
    /// `--shards` was empty.
    NoShards,
    /// `vnodes` was zero.
    ZeroVnodes,
    /// `fail_after` was zero (every backend would be born dead).
    ZeroFailAfter,
    /// `forward_attempts` was zero (no request could ever be forwarded).
    ZeroForwardAttempts,
    /// `trace_sample_rate` was not a number in `[0, 1]`.
    BadSampleRate,
}

impl std::fmt::Display for GatewayConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayConfigError::NoShards => write!(f, "at least one shard address is required"),
            GatewayConfigError::ZeroVnodes => write!(f, "vnodes must be at least 1"),
            GatewayConfigError::ZeroFailAfter => write!(f, "fail-after must be at least 1"),
            GatewayConfigError::ZeroForwardAttempts => {
                write!(f, "forward-attempts must be at least 1")
            }
            GatewayConfigError::BadSampleRate => {
                write!(f, "trace-sample-rate must be a number in 0..=1")
            }
        }
    }
}

impl std::error::Error for GatewayConfigError {}

impl GatewayConfig {
    /// Checks the configuration for values that could never serve.
    pub fn validate(&self) -> Result<(), GatewayConfigError> {
        if self.shards.is_empty() {
            return Err(GatewayConfigError::NoShards);
        }
        if self.vnodes == 0 {
            return Err(GatewayConfigError::ZeroVnodes);
        }
        if self.fail_after == 0 {
            return Err(GatewayConfigError::ZeroFailAfter);
        }
        if self.forward_attempts == 0 {
            return Err(GatewayConfigError::ZeroForwardAttempts);
        }
        if !(0.0..=1.0).contains(&self.trace_sample_rate) {
            return Err(GatewayConfigError::BadSampleRate);
        }
        Ok(())
    }
}

/// Why [`Gateway::start`] failed.
#[derive(Debug)]
pub enum GatewayStartError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
    /// The configuration was rejected.
    Config(GatewayConfigError),
}

impl std::fmt::Display for GatewayStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GatewayStartError::Io(e) => write!(f, "bind failed: {e}"),
            GatewayStartError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for GatewayStartError {}

impl From<std::io::Error> for GatewayStartError {
    fn from(e: std::io::Error) -> Self {
        GatewayStartError::Io(e)
    }
}

impl From<GatewayConfigError> for GatewayStartError {
    fn from(e: GatewayConfigError) -> Self {
        GatewayStartError::Config(e)
    }
}

/// Idle connections kept per backend.
const POOL_CAPACITY: usize = 4;

/// Budget for a forwarded request's response (explanations can
/// legitimately take a while).
const BACKEND_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// Budget for one health poll (and the `Stats` and `Shutdown` fan-outs);
/// short, so a hung backend is detected within a few intervals rather than
/// a full request timeout.
const HEALTH_TIMEOUT: Duration = Duration::from_secs(2);

/// Locks a mutex, recovering the inner value from a poisoned guard (the
/// gateway's shared state stays usable even if a handler panicked).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// One backend shard: connection pool, health state, and counters.
struct Backend {
    addr: String,
    /// Idle pooled connections; checkout pops, successful calls check
    /// back in (up to [`POOL_CAPACITY`]).
    pool: Mutex<Vec<Client>>,
    healthy: AtomicBool,
    consecutive_failures: AtomicU32,
    /// Gateway model id (registration-log index) → this backend's own
    /// model id; `None` while a registration hasn't reached it yet.
    model_ids: Mutex<Vec<Option<u32>>>,
    forwarded: AtomicU64,
    errors: AtomicU64,
    busy: AtomicU64,
    health_checks: AtomicU64,
    // Cache/job counters lifted from the most recent stats poll.
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    jobs_completed: AtomicU64,
}

impl Backend {
    fn new(addr: String) -> Backend {
        Backend {
            addr,
            pool: Mutex::new(Vec::new()),
            healthy: AtomicBool::new(true),
            consecutive_failures: AtomicU32::new(0),
            model_ids: Mutex::new(Vec::new()),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            busy: AtomicU64::new(0),
            health_checks: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
        }
    }

    fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Acquire)
    }

    fn model_id(&self, gateway_id: usize) -> Option<u32> {
        lock(&self.model_ids).get(gateway_id).copied().flatten()
    }

    fn set_model_id(&self, gateway_id: usize, backend_id: u32) {
        let mut ids = lock(&self.model_ids);
        if ids.len() <= gateway_id {
            ids.resize(gateway_id + 1, None);
        }
        ids[gateway_id] = Some(backend_id);
    }

    fn snapshot(&self) -> GatewayBackendStats {
        GatewayBackendStats {
            addr: self.addr.clone(),
            healthy: self.is_healthy(),
            consecutive_failures: self.consecutive_failures.load(Ordering::Relaxed),
            forwarded: self.forwarded.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            busy: self.busy.load(Ordering::Relaxed),
            health_checks: self.health_checks.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
        }
    }
}

/// How many assembled-trace records the gateway retains (drop-oldest),
/// mirroring the backend's own trace retention window.
const ASSEMBLY_RETENTION: usize = 128;

/// Seed for gateway-minted trace ids and sampling decisions; fixed, so a
/// replayed workload produces the same ids (the repo-wide determinism
/// stance).
const TRACE_SEED: u64 = 0x6761_7465_7761_7921;

/// The gateway half of one traced request, buffered until a client asks
/// for the assembled trace.
#[derive(Clone)]
struct TraceRecord {
    /// The gateway lane alone: route, checkouts, forwards, failover hops.
    trace: AssembledTrace,
    /// Index of the backend that served the explain.
    owner: usize,
    /// µs offset of the successful forward on the route timeline; the
    /// backend fragment is grafted anchored here, so its spans land
    /// inside the forward span instead of at the origin.
    anchor_us: u64,
}

/// An assembled trace holding only the gateway's lane.
fn gateway_lane(hi: u64, lo: u64, spans: Vec<AssembledSpan>) -> AssembledTrace {
    AssembledTrace {
        trace_hi: hi,
        trace_lo: lo,
        lanes: vec!["gateway".to_owned()],
        spans,
        ..AssembledTrace::default()
    }
}

/// State shared between the connection handlers and the health poller.
struct Shared {
    cfg: GatewayConfig,
    ring: Ring,
    backends: Vec<Backend>,
    /// Every accepted registration in arrival order; a backend's gateway
    /// model ids are indices into this log. Held across fan-out and
    /// replay so registrations reach every backend in the same order.
    registrations: Mutex<Vec<(GnnConfig, Vec<Vec<f32>>)>>,
    counters: GatewayCounters,
    /// Head-based sampler for routed `Explain`s without an inherited
    /// context; off (`rate 0`) it costs one branch per request.
    sampler: Sampler,
    /// Counter feeding [`TraceContext::generate`] so minted ids are
    /// distinct and deterministic.
    trace_counter: AtomicU64,
    /// Bounded drop-oldest buffer of gateway trace halves, keyed by the
    /// global trace id; the assembly layer stitches these with the owning
    /// shard's fragment on demand.
    assembled: Mutex<std::collections::VecDeque<TraceRecord>>,
}

impl Shared {
    /// One request/response exchange with a backend, through the pool.
    ///
    /// A pooled connection that fails in transport is dropped and the
    /// call retried once on a fresh connection (the backend may simply
    /// have restarted since the connection was pooled); a fresh
    /// connection's failure is the backend's failure.
    fn call(
        &self,
        b: &Backend,
        req: &Request,
        read_timeout: Duration,
    ) -> Result<Response, ClientError> {
        self.call_timed(b, req, read_timeout).0
    }

    /// [`Shared::call`] that also reports how long obtaining a usable
    /// connection took (pool pop, or a fresh connect when the pool was
    /// empty or the pooled stream was stale) — the "pool checkout" span
    /// of a traced route.
    fn call_timed(
        &self,
        b: &Backend,
        req: &Request,
        read_timeout: Duration,
    ) -> (Result<Response, ClientError>, Duration) {
        let t0 = Instant::now();
        // Note: pop via a scoped guard — an `if let` on `lock(..).pop()`
        // would hold the pool mutex across the request and deadlock
        // against `checkin`.
        let pooled = lock(&b.pool).pop();
        if let Some(mut c) = pooled {
            let checkout = t0.elapsed();
            match c.request(req) {
                Ok(resp) => {
                    self.checkin(b, c);
                    return (Ok(resp), checkout);
                }
                Err(e) if e.is_transport() => { /* stale pooled stream; retry fresh */ }
                Err(e) => return (Err(e), checkout),
            }
        }
        let cfg = ClientConfig {
            read_timeout,
            // The gateway does its own bounded re-routing; the underlying
            // client must not retry on its behalf.
            max_attempts: 1,
            ..ClientConfig::default()
        };
        let mut c = match Client::connect_with(&b.addr, cfg) {
            Ok(c) => c,
            Err(e) => return (Err(e), t0.elapsed()),
        };
        let checkout = t0.elapsed();
        match c.request(req) {
            Ok(resp) => {
                self.checkin(b, c);
                (Ok(resp), checkout)
            }
            Err(e) => (Err(e), checkout),
        }
    }

    fn checkin(&self, b: &Backend, c: Client) {
        let mut pool = lock(&b.pool);
        if pool.len() < POOL_CAPACITY {
            pool.push(c);
        }
    }

    fn record_failure(&self, b: &Backend) {
        b.errors.fetch_add(1, Ordering::Relaxed);
        let fails = b.consecutive_failures.fetch_add(1, Ordering::Relaxed) + 1;
        if fails >= self.cfg.fail_after {
            b.healthy.store(false, Ordering::Release);
            // Pooled connections to a dead backend are stale by
            // definition; drop them so recovery starts clean.
            lock(&b.pool).clear();
        }
    }

    fn record_success(&self, b: &Backend) {
        b.consecutive_failures.store(0, Ordering::Relaxed);
    }

    fn gateway_stats(&self) -> GatewayStats {
        GatewayStats {
            backends: self.backends.iter().map(Backend::snapshot).collect(),
            ..self.counters.load()
        }
    }

    // ------------------------------------------------------------------
    // Dispatch.

    fn dispatch(&self, req: Request, wire: &WireCounters) -> Response {
        match req {
            Request::Ping => Response::Pong {
                version: PROTOCOL_VERSION,
            },
            Request::RegisterModel { config, state } => self.register(config, state),
            Request::Explain(req) => self.route_explain(req),
            Request::Stats => self.aggregate_stats(wire),
            Request::AssembledTrace(id) => self.assemble_trace(id),
            Request::FetchExplanation(id) => self.scatter_fetch(id),
            Request::ListExplanations => self.scatter_list(),
            Request::Shutdown => {
                // Stop the fleet first (best-effort); the ack then stops
                // the gateway's front end and closes the connection.
                for b in &self.backends {
                    if b.is_healthy() {
                        let _ = self.call(b, &Request::Shutdown, HEALTH_TIMEOUT);
                    }
                }
                Response::ShutdownAck
            }
        }
    }

    /// Replicates a registration to every healthy backend. The
    /// caller-visible id is the registration-log index; per-backend ids
    /// are recorded in each backend's map.
    fn register(&self, config: GnnConfig, state: Vec<Vec<f32>>) -> Response {
        let mut log = lock(&self.registrations);
        let gateway_id = log.len() as u32;
        let mut accepted = 0usize;
        for b in &self.backends {
            if !b.is_healthy() {
                continue; // will be replayed on re-admission
            }
            let req = Request::RegisterModel {
                config: config.clone(),
                state: state.clone(),
            };
            match self.call(b, &req, BACKEND_READ_TIMEOUT) {
                Ok(Response::ModelRegistered { model }) => {
                    b.set_model_id(gateway_id as usize, model);
                    self.record_success(b);
                    self.counters.fanout.fetch_add(1, Ordering::Relaxed);
                    accepted += 1;
                }
                Ok(Response::Error { kind, message }) => {
                    // Validation is deterministic: every backend would
                    // refuse the same model, so refuse without logging it.
                    return Response::Error { kind, message };
                }
                Ok(_) => {
                    return Response::Error {
                        kind: ErrorKind::Internal,
                        message: format!("backend {} answered out of protocol", b.addr),
                    };
                }
                Err(e) => {
                    // The backend misses this registration for now; the
                    // health poller replays the log when it recovers.
                    self.record_failure(b);
                    let _ = e;
                }
            }
        }
        if accepted == 0 {
            return Response::Error {
                kind: ErrorKind::Internal,
                message: "no healthy backend accepted the registration".to_owned(),
            };
        }
        log.push((config, state));
        Response::ModelRegistered { model: gateway_id }
    }

    /// Routes one explanation to the ring owner of its key, re-routing
    /// past backends that fail in transport. `Busy` and typed errors from
    /// a backend are answers, not failures: they propagate verbatim.
    ///
    /// Traced requests (inherited context, explicit `control.trace`, or a
    /// local sampler hit) additionally record the gateway's own spans —
    /// route, per-attempt pool checkout and forward, failover hops — into
    /// the assembly buffer under the global trace id. The sampling
    /// decision travels with the forward and is counted once, by the
    /// backend that serves it.
    fn route_explain(&self, req: ExplainRequest) -> Response {
        let gateway_model = req.model as usize;
        if gateway_model >= lock(&self.registrations).len() {
            return Response::Error {
                kind: ErrorKind::UnknownModel,
                message: format!("model {} was never registered via this gateway", req.model),
            };
        }
        self.counters.routed.fetch_add(1, Ordering::Relaxed);
        // Head-based sampling: an inherited context carries the upstream
        // decision; otherwise flip the coin here, once, and mint a fresh
        // 128-bit id. Downstream hops never re-decide.
        let (ctx, traced) = match req.context {
            Some(c) => (c, c.sampled || req.control.trace),
            None => {
                let sampled = self.sampler.sample() || req.control.trace;
                if sampled {
                    let n = self.trace_counter.fetch_add(1, Ordering::Relaxed);
                    (TraceContext::generate(TRACE_SEED, n), true)
                } else {
                    (
                        TraceContext {
                            trace_hi: 0,
                            trace_lo: 0,
                            parent_span: 0,
                            sampled: false,
                        },
                        false,
                    )
                }
            }
        };
        let route_start = Instant::now();
        let mut spans: Vec<AssembledSpan> = Vec::new();
        let mut outcome: Option<(Response, usize, u64)> = None;
        let key = route_key(req.model, req.graph_id, req.target);
        let mut excluded = vec![false; self.backends.len()];
        for attempt in 0..self.cfg.forward_attempts {
            let owner = self.ring.owner_where(key, |s| {
                !excluded[s]
                    && self.backends[s].is_healthy()
                    && self.backends[s].model_id(gateway_model).is_some()
            });
            let Some(owner) = owner else { break };
            let b = &self.backends[owner];
            let Some(backend_model) = b.model_id(gateway_model) else {
                excluded[owner] = true;
                continue;
            };
            if attempt > 0 {
                self.counters.rerouted.fetch_add(1, Ordering::Relaxed);
            }
            let mut fwd = req.clone();
            fwd.model = backend_model;
            if traced {
                // The backend parents under the routing span and journals
                // its fragment under the global id's low half.
                fwd.context = Some(TraceContext {
                    parent_span: 1,
                    sampled: true,
                    ..ctx
                });
            }
            let attempt_start = us(route_start.elapsed());
            let (result, checkout) =
                self.call_timed(b, &Request::Explain(fwd), BACKEND_READ_TIMEOUT);
            let forward_start = attempt_start + us(checkout);
            if traced {
                spans.push(AssembledSpan {
                    lane: 0,
                    name: format!("checkout shard-{owner}"),
                    start_us: attempt_start,
                    dur_us: us(checkout),
                });
            }
            match result {
                Ok(resp @ Response::Busy { .. }) => {
                    // Backpressure is the backend's answer; hiding it
                    // behind gateway-side retries would defeat admission
                    // control. The caller owns the backoff policy.
                    b.busy.fetch_add(1, Ordering::Relaxed);
                    self.record_success(b);
                    outcome = Some((resp, owner, forward_start));
                    break;
                }
                Ok(resp) => {
                    b.forwarded.fetch_add(1, Ordering::Relaxed);
                    self.record_success(b);
                    if traced {
                        spans.push(AssembledSpan {
                            lane: 0,
                            name: format!("forward shard-{owner}"),
                            start_us: forward_start,
                            dur_us: us(route_start.elapsed()).saturating_sub(forward_start),
                        });
                    }
                    outcome = Some((resp, owner, forward_start));
                    break;
                }
                Err(e) => {
                    debug_assert!(e.is_transport(), "Client::request only fails in transport");
                    self.record_failure(b);
                    excluded[owner] = true;
                    if traced {
                        spans.push(AssembledSpan {
                            lane: 0,
                            name: format!("failover-hop shard-{owner}"),
                            start_us: attempt_start,
                            dur_us: us(route_start.elapsed()).saturating_sub(attempt_start),
                        });
                    }
                }
            }
        }
        let Some((resp, owner, anchor_us)) = outcome else {
            return Response::Error {
                kind: ErrorKind::Internal,
                message: "no live shard could serve this key".to_owned(),
            };
        };
        if traced {
            spans.insert(
                0,
                AssembledSpan {
                    lane: 0,
                    name: "route".to_owned(),
                    start_us: 0,
                    dur_us: us(route_start.elapsed()),
                },
            );
            self.remember_trace(TraceRecord {
                trace: gateway_lane(ctx.trace_hi, ctx.trace_lo, spans),
                owner,
                anchor_us,
            });
        }
        resp
    }

    /// Buffers the gateway half of a traced route (bounded, drop-oldest;
    /// a re-used id replaces its previous record).
    fn remember_trace(&self, rec: TraceRecord) {
        let mut buf = lock(&self.assembled);
        let id = |r: &TraceRecord| (r.trace.trace_hi, r.trace.trace_lo);
        buf.retain(|r| id(r) != id(&rec));
        while buf.len() >= ASSEMBLY_RETENTION {
            buf.pop_front();
        }
        buf.push_back(rec);
    }

    /// Resolves a trace id (`None` = the newest) against the assembly
    /// buffer and stitches one cross-process trace: lane 0 is the
    /// gateway, lane 1 the first healthy shard that retains the fragment
    /// (the owner first), its spans and point events anchored at the
    /// forward offset. An id the gateway never routed (a request traced
    /// straight at a shard) is asked of every healthy shard, and a miss
    /// everywhere is a typed [`ErrorKind::UnknownTrace`]; a routed trace
    /// whose fragment aged out still yields the gateway lane.
    fn assemble_trace(&self, id: Option<[u64; 2]>) -> Response {
        self.counters.scatter.fetch_add(1, Ordering::Relaxed);
        let record = {
            let buf = lock(&self.assembled);
            match id {
                None => buf.back().cloned(),
                // `hi == 0` matches on the low half alone — all a caller
                // has when they only saw the `trace_id` echoed on an
                // Explained response.
                Some([hi, lo]) => buf
                    .iter()
                    .rev()
                    .find(|r| r.trace.trace_lo == lo && (hi == 0 || r.trace.trace_hi == hi))
                    .cloned(),
            }
        };
        let (mut out, owner, anchor_us) = match (record, id) {
            (Some(r), _) => (r.trace, Some(r.owner), r.anchor_us),
            (None, Some([hi, lo])) => (gateway_lane(hi, lo, Vec::new()), None, 0),
            (None, None) => {
                return Response::Error {
                    kind: ErrorKind::UnknownTrace,
                    message: "the gateway's assembly window is empty".to_owned(),
                }
            }
        };
        let req = Request::AssembledTrace(Some([out.trace_hi, out.trace_lo]));
        let others = (0..self.backends.len()).filter(|&i| Some(i) != owner);
        for i in owner.into_iter().chain(others) {
            let b = &self.backends[i];
            if !b.is_healthy() {
                continue;
            }
            match self.call(b, &req, BACKEND_READ_TIMEOUT) {
                Ok(Response::Assembled(mut frag)) => {
                    self.record_success(b);
                    frag.lanes.fill(format!("shard-{i} ({})", b.addr));
                    out.graft(*frag, anchor_us);
                    return Response::Assembled(Box::new(out));
                }
                Ok(_) => self.record_success(b),
                Err(_) => self.record_failure(b),
            }
        }
        if owner.is_some() {
            return Response::Assembled(Box::new(out));
        }
        Response::Error {
            kind: ErrorKind::UnknownTrace,
            message: format!("no shard retains trace {}", out.hex_id()),
        }
    }

    /// Merges live stats from every healthy backend with the gateway's own
    /// front-end counters and attaches the gateway's stats.
    fn aggregate_stats(&self, wire: &WireCounters) -> Response {
        let mut merged = ServerStats::default();
        for b in &self.backends {
            if !b.is_healthy() {
                continue;
            }
            match self.call(b, &Request::Stats, HEALTH_TIMEOUT) {
                Ok(Response::Stats(s, _)) => {
                    self.record_success(b);
                    self.update_poll_counters(b, &s);
                    merged.merge(&s);
                }
                Ok(_) => {}
                Err(_) => self.record_failure(b),
            }
        }
        // The gateway's own listener is one more hop of every request.
        merged.merge(&wire.load());
        Response::Stats(Box::new(merged), Some(Box::new(self.gateway_stats())))
    }

    fn update_poll_counters(&self, b: &Backend, s: &ServerStats) {
        b.cache_hits.store(s.runtime.cache_hits, Ordering::Relaxed);
        b.cache_misses
            .store(s.runtime.cache_misses, Ordering::Relaxed);
        b.jobs_completed
            .store(s.runtime.jobs_completed, Ordering::Relaxed);
    }

    fn scatter_fetch(&self, id: u64) -> Response {
        self.counters.scatter.fetch_add(1, Ordering::Relaxed);
        let mut last_error: Option<Response> = None;
        let mut any_negative = false;
        for b in &self.backends {
            if !b.is_healthy() {
                continue;
            }
            match self.call(b, &Request::FetchExplanation(id), BACKEND_READ_TIMEOUT) {
                Ok(Response::Explanation(Some(e))) => {
                    self.record_success(b);
                    return Response::Explanation(Some(e));
                }
                Ok(Response::Explanation(None)) => {
                    self.record_success(b);
                    any_negative = true;
                }
                Ok(resp @ Response::Error { .. }) => {
                    self.record_success(b);
                    last_error = Some(resp);
                }
                Ok(_) => {}
                Err(_) => self.record_failure(b),
            }
        }
        match (any_negative, last_error) {
            // Some shard could have held it and answered "no" — not found.
            (true, _) => Response::Explanation(None),
            // Every reachable shard refused (e.g. the whole fleet runs
            // storeless): surface the refusal rather than a silent None.
            (false, Some(err)) => err,
            (false, None) => Response::Explanation(None),
        }
    }

    /// List scattered to the fleet; the union is sorted by job id. Job
    /// ids from different shards may collide (each backend numbers its
    /// own jobs), so entries are *not* deduplicated.
    fn scatter_list(&self) -> Response {
        self.counters.scatter.fetch_add(1, Ordering::Relaxed);
        let mut all: Vec<WireExplanationSummary> = Vec::new();
        let mut last_error: Option<Response> = None;
        let mut any_ok = false;
        for b in &self.backends {
            if !b.is_healthy() {
                continue;
            }
            match self.call(b, &Request::ListExplanations, BACKEND_READ_TIMEOUT) {
                Ok(Response::ExplanationList(list)) => {
                    self.record_success(b);
                    all.extend(list);
                    any_ok = true;
                }
                Ok(resp @ Response::Error { .. }) => {
                    self.record_success(b);
                    last_error = Some(resp);
                }
                Ok(_) => {}
                Err(_) => self.record_failure(b),
            }
        }
        if !any_ok {
            if let Some(err) = last_error {
                return err;
            }
        }
        all.sort_by_key(|s| s.job_id);
        Response::ExplanationList(all)
    }

    // ------------------------------------------------------------------
    // Health.

    /// One health pass over the fleet: poll `Stats` everywhere, demote
    /// repeat offenders, replay-and-re-admit recovered backends.
    fn health_pass(&self) {
        for b in &self.backends {
            match self.call(b, &Request::Stats, HEALTH_TIMEOUT) {
                Ok(Response::Stats(s, _)) => {
                    b.health_checks.fetch_add(1, Ordering::Relaxed);
                    self.update_poll_counters(b, &s);
                    if b.is_healthy() {
                        self.record_success(b);
                    } else {
                        self.try_readmit(b);
                    }
                }
                Ok(_) | Err(_) => self.record_failure(b),
            }
        }
    }

    /// Replays the registration log to a recovered backend and re-admits
    /// it. Holding the log lock serializes replay against new
    /// registrations, so the backend sees the same order as everyone
    /// else. A backend that only lost connectivity (no restart) receives
    /// duplicate registrations — its old ids stay valid and the id map is
    /// rebuilt against the fresh ones, so correctness only costs memory.
    fn try_readmit(&self, b: &Backend) {
        let log = lock(&self.registrations);
        let mut fresh_ids: Vec<Option<u32>> = Vec::with_capacity(log.len());
        for (config, state) in log.iter() {
            let req = Request::RegisterModel {
                config: config.clone(),
                state: state.clone(),
            };
            match self.call(b, &req, BACKEND_READ_TIMEOUT) {
                Ok(Response::ModelRegistered { model }) => fresh_ids.push(Some(model)),
                _ => {
                    // Relapsed mid-replay; stay dead and try again on the
                    // next pass.
                    self.record_failure(b);
                    return;
                }
            }
        }
        *lock(&b.model_ids) = fresh_ids;
        b.consecutive_failures.store(0, Ordering::Relaxed);
        b.healthy.store(true, Ordering::Release);
    }
}

/// A running gateway; dropping it stops and joins every thread.
pub struct Gateway {
    front: FrontEnd,
    shared: Arc<Shared>,
    /// The health poller and the sender whose drop stops it.
    health: Option<(mpsc::Sender<()>, thread::JoinHandle<()>)>,
}

impl Gateway {
    /// Binds, spawns the acceptor and the health poller, and returns
    /// immediately; the gateway is accepting once this returns. Backends
    /// start presumed-healthy and the first poll corrects the optimism.
    ///
    /// # Errors
    ///
    /// I/O errors from binding, or an invalid [`GatewayConfig`].
    pub fn start(cfg: GatewayConfig) -> Result<Gateway, GatewayStartError> {
        cfg.validate()?;
        let shared = Arc::new(Shared {
            ring: Ring::new(cfg.shards.len(), cfg.vnodes),
            backends: cfg.shards.iter().cloned().map(Backend::new).collect(),
            registrations: Mutex::new(Vec::new()),
            counters: GatewayCounters::default(),
            sampler: Sampler::new(cfg.trace_sample_rate, TRACE_SEED),
            trace_counter: AtomicU64::new(0),
            assembled: Mutex::new(std::collections::VecDeque::new()),
            cfg,
        });
        let front = {
            let dispatch = Arc::clone(&shared);
            FrontEnd::start(&shared.cfg.addr, "gateway", move |request, _t0, wire| {
                dispatch.dispatch(request, wire)
            })?
        };
        let (tx, rx) = mpsc::channel();
        let health = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("gateway-health".to_owned())
                .spawn(move || health_loop(&shared, &rx))?
        };
        Ok(Gateway {
            front,
            shared,
            health: Some((tx, health)),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// Whether a shutdown has been requested.
    pub fn stopping(&self) -> bool {
        self.front.stopping()
    }

    /// Requests shutdown without blocking.
    pub fn stop(&self) {
        self.front.stop();
    }

    /// Current gateway counters and per-backend health.
    pub fn gateway_stats(&self) -> GatewayStats {
        self.shared.gateway_stats()
    }

    /// Stops and joins all threads, returning the final gateway stats.
    pub fn shutdown(mut self) -> GatewayStats {
        self.join_threads();
        self.shared.gateway_stats()
    }

    /// Blocks until the gateway stops (a `Shutdown` request over the
    /// wire) and all threads are joined; returns the final stats.
    pub fn wait(mut self) -> GatewayStats {
        self.front.wait();
        self.join_threads();
        self.shared.gateway_stats()
    }

    /// Joins the front end (its handlers, then its acceptor), then the
    /// health poller.
    fn join_threads(&mut self) {
        self.front.shutdown();
        if let Some((stop, health)) = self.health.take() {
            drop(stop);
            let _ = health.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.join_threads();
    }
}

/// Polls the fleet every [`GatewayConfig::health_interval`], the first
/// time at once, until the sender of `stop` is dropped.
fn health_loop(shared: &Shared, stop: &mpsc::Receiver<()>) {
    loop {
        shared.health_pass();
        if stop.recv_timeout(shared.cfg.health_interval) != Err(RecvTimeoutError::Timeout) {
            return;
        }
    }
}
