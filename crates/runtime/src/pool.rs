//! The explanation-serving worker pool.
//!
//! A [`Runtime`] owns a fixed set of `std::thread` workers fed from one
//! mpsc queue. Because the tensor engine's autograd tape is `Rc`-based,
//! nothing tensor-shaped ever crosses a thread boundary: jobs carry plain
//! graph data, each worker materialises registered models locally from
//! their [`ModelSpec`], and results come back as plain score vectors.
//!
//! Determinism: every job's explainer is seeded from
//! `mix(runtime seed, job id)`, where the job id is the *submission* order.
//! Scheduling decides only *where* and *when* a job runs — never its
//! answer — so any worker count produces bit-identical scores.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

// The cancel flag stays on `std`'s `AtomicBool`: it is handed across the
// facade boundary to `revelio-core`'s `Deadline::with_cancel`. A sticky
// store/load flag has no interleaving the checker could narrow anyway.
use std::sync::atomic::AtomicBool;

use revelio_check::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use revelio_check::sync::{mpsc, thread, Arc, Mutex, MutexGuard};
use revelio_core::{
    BatchedOptimizer, ControlledExplanation, ControlledItem, Deadline, ExplainControl, ExplainError,
};
use revelio_gnn::{Gnn, GnnConfig, Instance};
use revelio_graph::FlowIndex;
use revelio_store::{
    ExplanationRecord, FlowsRecord, LogStore, MaskKey, ModelRecord, PhaseSummary, StoreError,
};
use revelio_trace::{Collector, EventKind, Phase, RingCollector, Tee, Trace, TraceHandle, TraceId};

use crate::cache::{ArtifactCache, CachedFlows};
use crate::job::{
    ExplainJob, ExplainerFactory, JobError, JobOutput, JobResult, JobTiming, ModelHandle,
    ModelSpec, Ticket,
};
use crate::metrics::{Metrics, MetricsCollector, MetricsSnapshot};
use crate::pool_core::PoolCore;
use crate::trace_store::{TraceMiss, TraceStore};

/// Ring-journal capacity for traced jobs: 4096 events holds the spans plus
/// ~4000 epochs of per-epoch detail before drop-oldest kicks in.
const TRACE_RING_CAPACITY: usize = 4096;

/// Finished traces retained for [`Runtime::fetch_trace`] retrieval.
const TRACE_RETENTION: usize = 128;

/// Runtime construction parameters; [`RuntimeConfig::default`] matches
/// `Runtime::new(1)` except for the worker count.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker threads (at least 1).
    pub workers: usize,
    /// Base seed mixed into every job's explainer seed.
    pub seed: u64,
    /// Total artifact-cache entries per artifact kind.
    pub cache_capacity: usize,
    /// Artifact-cache shards (lock-contention granularity).
    pub cache_shards: usize,
    /// Deadline applied to jobs that don't set their own (`None` =
    /// unbounded).
    pub default_deadline: Option<Duration>,
    /// Maximum jobs fused into one batched optimize pass. `1` (the
    /// default) disables fusing; with a larger value a worker
    /// opportunistically drains queued jobs that share the first job's
    /// model and [`ExplainJob::batch_spec`] into one
    /// [`BatchedOptimizer`] run. Fused answers match a batch of one
    /// within [`BATCH_TOLERANCE`].
    ///
    /// [`BatchedOptimizer`]: revelio_core::BatchedOptimizer
    /// [`BATCH_TOLERANCE`]: revelio_core::BATCH_TOLERANCE
    pub max_batch: usize,
    /// How long a worker holding a single spec-carrying job waits for a
    /// compatible peer to arrive before running it alone. Only consulted
    /// when `max_batch > 1` and the queue is momentarily empty.
    pub batch_linger: Duration,
}

/// A [`RuntimeConfig`] value the runtime refuses to run with.
///
/// Zero-sized resources used to be silently clamped up to 1, which made a
/// misconfigured deployment look like a deliberately tiny one; they are now
/// typed errors surfaced at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeConfigError {
    /// `workers == 0`: a runtime with no workers can never serve a job.
    ZeroWorkers,
    /// `cache_capacity == 0`: every artifact would be evicted before reuse.
    ZeroCacheCapacity,
    /// `cache_shards == 0`: the cache needs at least one shard.
    ZeroCacheShards,
    /// `max_batch == 0`: a zero-wide batch can never serve a job; use 1 to
    /// disable batching.
    ZeroMaxBatch,
}

impl std::fmt::Display for RuntimeConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeConfigError::ZeroWorkers => write!(f, "workers must be at least 1"),
            RuntimeConfigError::ZeroCacheCapacity => {
                write!(f, "cache_capacity must be at least 1")
            }
            RuntimeConfigError::ZeroCacheShards => write!(f, "cache_shards must be at least 1"),
            RuntimeConfigError::ZeroMaxBatch => {
                write!(f, "max_batch must be at least 1 (1 disables batching)")
            }
        }
    }
}

impl std::error::Error for RuntimeConfigError {}

/// Why [`Runtime::try_with_config_and_store`] could not boot.
#[derive(Debug)]
pub enum RuntimeBootError {
    /// The configuration itself is unusable.
    Config(RuntimeConfigError),
    /// The store could not be read during recovery.
    Store(StoreError),
}

impl std::fmt::Display for RuntimeBootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeBootError::Config(e) => write!(f, "invalid runtime config: {e}"),
            RuntimeBootError::Store(e) => write!(f, "store recovery failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeBootError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeBootError::Config(e) => Some(e),
            RuntimeBootError::Store(e) => Some(e),
        }
    }
}

impl From<RuntimeConfigError> for RuntimeBootError {
    fn from(e: RuntimeConfigError) -> Self {
        RuntimeBootError::Config(e)
    }
}

impl From<StoreError> for RuntimeBootError {
    fn from(e: StoreError) -> Self {
        RuntimeBootError::Store(e)
    }
}

impl RuntimeConfig {
    /// Checks the configuration for values the runtime cannot honour.
    pub fn validate(&self) -> Result<(), RuntimeConfigError> {
        if self.workers == 0 {
            return Err(RuntimeConfigError::ZeroWorkers);
        }
        if self.cache_capacity == 0 {
            return Err(RuntimeConfigError::ZeroCacheCapacity);
        }
        if self.cache_shards == 0 {
            return Err(RuntimeConfigError::ZeroCacheShards);
        }
        if self.max_batch == 0 {
            return Err(RuntimeConfigError::ZeroMaxBatch);
        }
        Ok(())
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 1,
            seed: 0,
            cache_capacity: 256,
            cache_shards: 8,
            default_deadline: None,
            max_batch: 1,
            batch_linger: Duration::from_micros(500),
        }
    }
}

/// State shared between the runtime handle and every worker.
struct Shared {
    models: Mutex<Vec<Arc<ModelSpec>>>,
    cache: ArtifactCache,
    metrics: Arc<Metrics>,
    /// The always-on trace→metrics bridge every job's handle forwards to.
    bridge: Arc<MetricsCollector>,
    /// Finished traces of traced jobs, bounded drop-oldest.
    traces: TraceStore,
    cancel: Arc<AtomicBool>,
    alive_workers: AtomicUsize,
    /// Jobs accepted but not yet answered (queued + running); the
    /// admission-control signal read by [`Runtime::try_submit`].
    in_flight: AtomicUsize,
    base_seed: u64,
    /// Write-behind persistence: registrations, flow tables, and finished
    /// explanations are appended here. `None` = in-memory-only runtime.
    store: Option<Arc<LogStore>>,
    /// Maximum fused-batch width (`1` = batching off).
    max_batch: usize,
    /// Wait for a batch peer when the queue is momentarily empty.
    batch_linger: Duration,
}

/// Decrements the in-flight gauge exactly once per accepted job, however
/// the job leaves the runtime (answered, failed, cancelled, or dropped by a
/// panicking worker mid-explain).
struct InFlightGuard<'a>(&'a AtomicUsize);

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// One queued request, as it travels to a worker.
struct QueuedJob {
    job_id: u64,
    handle: ModelHandle,
    job: ExplainJob,
    submitted: Instant,
    /// The job's budget (from submission) plus the runtime's cancel flag.
    deadline: Deadline,
    result_tx: mpsc::Sender<JobResult>,
}

/// The concurrent explanation-serving runtime.
///
/// Dropping the runtime closes the queue, lets the workers drain any
/// remaining jobs, and joins every thread. Call [`Runtime::cancel_all`]
/// first to abandon queued work instead of draining it.
pub struct Runtime {
    core: PoolCore<QueuedJob>,
    shared: Arc<Shared>,
    next_job_id: AtomicU64,
    default_deadline: Option<Duration>,
}

impl Runtime {
    /// A runtime with `workers` threads and default cache/deadline settings.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0` (see [`Runtime::try_with_config`] for the
    /// non-panicking constructor).
    pub fn new(workers: usize) -> Runtime {
        Runtime::with_config(RuntimeConfig {
            workers,
            ..Default::default()
        })
    }

    /// Builds a runtime, or reports *why* the configuration is unusable
    /// (zero workers, zero cache capacity/shards) as a typed error.
    pub fn try_with_config(cfg: RuntimeConfig) -> Result<Runtime, RuntimeConfigError> {
        Runtime::build(cfg, None)
    }

    /// Builds a runtime with write-behind persistence, recovering the
    /// store's prior state first:
    ///
    /// * registered models are restored in id order (so recovered
    ///   [`ModelHandle`]s are the pre-restart ones),
    /// * persisted flow tables pre-warm the artifact cache (the incidence
    ///   matrices are rebuilt, not stored),
    /// * job-id assignment resumes past the highest stored job id, so
    ///   old explanations stay addressable and new ones never collide.
    ///
    /// # Errors
    ///
    /// [`RuntimeBootError::Config`] for an unusable configuration,
    /// [`RuntimeBootError::Store`] when the store cannot be read.
    pub fn try_with_config_and_store(
        cfg: RuntimeConfig,
        store: Arc<LogStore>,
    ) -> Result<Runtime, RuntimeBootError> {
        let rt = Runtime::build(cfg, Some(Arc::clone(&store)))?;

        // Models, in ascending id order. Each goes straight into the
        // registry (not through `register_model`, which would re-append
        // what we just read).
        let recovered = store.models()?;
        {
            let mut models = lock(&rt.shared.models);
            for rec in recovered {
                models.push(Arc::new(ModelSpec::from_parts(rec.config, rec.state)));
            }
        }

        // Flow tables pre-warm the artifact cache; a table the rebuilt
        // index rejects (it was persisted by a different build) is skipped,
        // and the next job simply re-enumerates.
        for rec in store.flows()? {
            let Ok(index) = FlowIndex::from_parts(
                rec.layers as usize,
                rec.layer_edge_count as usize,
                rec.flow_edges,
            ) else {
                continue;
            };
            rt.shared.cache.insert_flow_index(
                (
                    rec.graph_id,
                    rec.target,
                    rec.layers as usize,
                    rec.max_flows as usize,
                ),
                CachedFlows {
                    index: Arc::new(index),
                    dropped: rec.dropped,
                },
            );
        }

        // Resume job-id assignment past everything already persisted.
        let max_job = store
            .list_explanations()?
            .iter()
            .map(|s| s.job_id)
            .max()
            .map_or(0, |m| m + 1);
        rt.next_job_id.fetch_max(max_job, Ordering::Relaxed);

        Ok(rt)
    }

    fn build(
        cfg: RuntimeConfig,
        store: Option<Arc<LogStore>>,
    ) -> Result<Runtime, RuntimeConfigError> {
        cfg.validate()?;
        let workers = cfg.workers;
        let metrics = Arc::new(Metrics::default());
        let shared = Arc::new(Shared {
            models: Mutex::new(Vec::new()),
            cache: ArtifactCache::new(cfg.cache_shards, cfg.cache_capacity),
            bridge: Arc::new(MetricsCollector::new(Arc::clone(&metrics))),
            metrics,
            traces: TraceStore::new(TRACE_RETENTION),
            cancel: Arc::new(AtomicBool::new(false)),
            alive_workers: AtomicUsize::new(workers),
            in_flight: AtomicUsize::new(0),
            base_seed: cfg.seed,
            store,
            max_batch: cfg.max_batch,
            batch_linger: cfg.batch_linger,
        });
        let core = {
            let shared_init = Arc::clone(&shared);
            let shared_serve = Arc::clone(&shared);
            PoolCore::spawn_draining(
                "revelio-worker",
                workers,
                // Per-worker state is built on the worker thread: `Gnn`s
                // hold `Rc`-based tensors and must never cross threads.
                move |_i| WorkerState {
                    local_models: HashMap::new(),
                    _alive: AliveGuard(Arc::clone(&shared_init)),
                },
                move |state, q, drain| serve_entry(state, &shared_serve, q, drain),
            )
            .unwrap_or_else(|e| panic!("failed to spawn workers: {e}"))
        };
        Ok(Runtime {
            core,
            shared,
            next_job_id: AtomicU64::new(0),
            default_deadline: cfg.default_deadline,
        })
    }

    /// [`Runtime::try_with_config`], panicking on an invalid configuration.
    ///
    /// # Panics
    ///
    /// Panics with the [`RuntimeConfigError`] message when `cfg` fails
    /// [`RuntimeConfig::validate`].
    pub fn with_config(cfg: RuntimeConfig) -> Runtime {
        Runtime::try_with_config(cfg).unwrap_or_else(|e| panic!("invalid RuntimeConfig: {e}"))
    }

    /// Registers a model for serving; the returned handle is what jobs
    /// reference. The model's weights are captured *now* — later training
    /// on the original does not affect registered jobs.
    pub fn register_model(&self, model: &Gnn) -> ModelHandle {
        let spec = Arc::new(ModelSpec::of(model));
        let mut models = lock(&self.shared.models);
        models.push(Arc::clone(&spec));
        let handle = ModelHandle(models.len() - 1);
        drop(models);
        if let Some(store) = &self.shared.store {
            // Write-behind: persistence failure must not fail the (already
            // completed) in-memory registration.
            let _ = store.put_model(&ModelRecord {
                model_id: handle.0 as u32,
                fingerprint: spec.fingerprint(),
                config: spec.config().clone(),
                state: spec.state().to_vec(),
            });
        }
        handle
    }

    /// The architecture of the model behind `handle`, or `None` for a
    /// handle this runtime never issued.
    pub fn model_config(&self, handle: ModelHandle) -> Option<GnnConfig> {
        lock(&self.shared.models)
            .get(handle.0)
            .map(|spec| spec.config().clone())
    }

    /// Handles for every registered model, in registration (= recovery)
    /// order. After [`Runtime::try_with_config_and_store`] these are the
    /// pre-restart handles.
    pub fn model_handles(&self) -> Vec<ModelHandle> {
        (0..lock(&self.shared.models).len())
            .map(ModelHandle)
            .collect()
    }

    /// Enqueues one job if the runtime has room, or hands the job back.
    ///
    /// Admission control for callers that must bound latency: when
    /// [`Runtime::in_flight`] (queued + running jobs) is already at
    /// `max_in_flight`, the job is *not* queued — it is returned unchanged
    /// so the caller can shed it (e.g. answer `Busy` over the network) —
    /// and the rejection is counted in
    /// [`MetricsSnapshot::jobs_rejected`].
    ///
    /// The check and the enqueue are not atomic with respect to other
    /// submitters, so the bound is approximate under concurrent submission
    /// (off by at most the number of simultaneous submitters) — fine for
    /// load shedding, where the limit is a watermark rather than an exact
    /// capacity.
    ///
    /// [`MetricsSnapshot::jobs_rejected`]: crate::MetricsSnapshot
    // The large Err variant is the point: the rejected job goes back to
    // the caller intact so nothing about it is lost in the shed path.
    #[allow(clippy::result_large_err)]
    pub fn try_submit(
        &self,
        handle: ModelHandle,
        job: ExplainJob,
        max_in_flight: usize,
    ) -> Result<Ticket, ExplainJob> {
        if self.in_flight() >= max_in_flight {
            self.shared
                .metrics
                .jobs_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(job);
        }
        Ok(self.submit(handle, job))
    }

    /// Enqueues one job; returns immediately with a [`Ticket`] for its
    /// result.
    ///
    /// `submit` never blocks and never refuses: the queue is unbounded.
    /// Servers that must shed load instead of queueing use
    /// [`Runtime::try_submit`].
    pub fn submit(&self, handle: ModelHandle, job: ExplainJob) -> Ticket {
        let job_id = self.next_job_id.fetch_add(1, Ordering::Relaxed);
        let (result_tx, result_rx) = mpsc::channel();
        let budget = job.deadline.or(self.default_deadline);
        let queued = QueuedJob {
            job_id,
            handle,
            job,
            submitted: Instant::now(),
            deadline: budget
                .map_or_else(Deadline::none, Deadline::within)
                .with_cancel(Arc::clone(&self.shared.cancel)),
            result_tx,
        };
        self.shared
            .metrics
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .metrics
            .queue_depth
            .fetch_add(1, Ordering::Relaxed);
        self.shared.in_flight.fetch_add(1, Ordering::Relaxed);
        if let Err(q) = self.core.submit(queued) {
            // Every worker exited (cannot normally happen while the
            // runtime is alive); fail the job rather than hang.
            self.shared
                .metrics
                .queue_depth
                .fetch_sub(1, Ordering::Relaxed);
            self.shared.in_flight.fetch_sub(1, Ordering::Relaxed);
            self.shared
                .metrics
                .jobs_failed
                .fetch_add(1, Ordering::Relaxed);
            let _ = q.result_tx.send(Err(JobError::Lost));
        }
        Ticket {
            job_id,
            rx: result_rx,
        }
    }

    /// Submits every job and blocks until all results are in, returned in
    /// submission order.
    pub fn explain_batch(&self, handle: ModelHandle, jobs: Vec<ExplainJob>) -> Vec<JobResult> {
        let tickets: Vec<Ticket> = jobs.into_iter().map(|j| self.submit(handle, j)).collect();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// Abandons queued (and in-flight, at the next deadline poll) work:
    /// queued jobs fail with [`JobError::Cancelled`], running optimisation
    /// loops stop at their next epoch and report a degraded answer.
    ///
    /// Semantics in detail:
    ///
    /// * Cancellation is **sticky and runtime-wide** — there is no per-job
    ///   cancel and no un-cancel; jobs submitted after the call also fail
    ///   with [`JobError::Cancelled`].
    /// * Jobs a worker has already started are **not** killed: their
    ///   deadline polls observe the cancel flag at the next optimisation
    ///   epoch, so they return their best-so-far answer with
    ///   `degradation.deadline_hit == true` (non-iterative explainers run
    ///   to completion).
    /// * Every outstanding [`Ticket`] still resolves — cancellation never
    ///   strands a waiter.
    ///
    /// The typical shutdown sequence is `cancel_all()` followed by dropping
    /// the runtime; dropping *without* cancelling instead drains the queue
    /// completely.
    pub fn cancel_all(&self) {
        self.shared.cancel.store(true, Ordering::Relaxed);
    }

    /// Jobs submitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.shared.metrics.queue_depth.load(Ordering::Relaxed)
    }

    /// Jobs accepted and not yet answered (queued **plus** running) — the
    /// signal [`Runtime::try_submit`] sheds on.
    ///
    /// The gauge is released an instant *after* a job's result is
    /// delivered (the worker's accounting guard drops at the end of the
    /// iteration), so a caller that just observed a ticket resolve may
    /// still see the slot occupied for a moment.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::Relaxed)
    }

    /// Point-in-time metrics (counters, histograms, cache hit rate).
    pub fn metrics(&self) -> MetricsSnapshot {
        let (hits, misses) = self.shared.cache.stats();
        self.shared.metrics.snapshot(hits, misses)
    }

    /// The shared artifact cache (also usable directly, e.g. by the eval
    /// harness on its serial path).
    pub fn cache(&self) -> &ArtifactCache {
        &self.shared.cache
    }

    /// The retained trace of a finished traced job ([`ExplainJob::trace`]),
    /// keyed by its job id (or its [`ExplainJob::trace_key`]). A miss says
    /// *why*: evicted from the bounded retention window, or never
    /// retained under that id (untraced, unfinished, or unknown).
    pub fn fetch_trace(&self, trace_id: u64) -> Result<Trace, TraceMiss> {
        self.shared.traces.fetch(TraceId(trace_id))
    }

    /// The most recently retained trace, if any traced job has finished
    /// (the `revelio-top --trace newest` path).
    pub fn newest_trace(&self) -> Option<Trace> {
        self.shared.traces.newest()
    }

    /// Workers currently alive; drops to 0 only after the runtime is
    /// dropped (exposed for leak tests).
    pub fn alive_workers(&self) -> usize {
        self.shared.alive_workers.load(Ordering::Relaxed)
    }

    /// A clone of the shared worker-liveness counter, for observing the
    /// drain *after* the runtime is dropped.
    pub fn worker_probe(&self) -> WorkerProbe {
        WorkerProbe {
            shared: Arc::clone(&self.shared),
        }
    }
}

// No `Drop` impl: dropping `core` closes the queue, drains it, and joins
// every worker — the runtime's graceful shutdown is `PoolCore`'s.

/// Observes worker liveness independently of the [`Runtime`]'s lifetime.
pub struct WorkerProbe {
    shared: Arc<Shared>,
}

impl WorkerProbe {
    /// Workers still running.
    pub fn alive_workers(&self) -> usize {
        self.shared.alive_workers.load(Ordering::Relaxed)
    }
}

/// Locks a mutex, riding through poisoning (a panicked job cannot corrupt
/// the registry or cache: panics are caught per job, and the data is
/// only ever appended/replaced atomically).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// SplitMix64-style mix of the runtime seed and the job's submission id.
/// Job ids are assigned at submission, so the derived seed — and therefore
/// the explainer's answer — is independent of scheduling.
fn derive_seed(base: u64, job_id: u64) -> u64 {
    let mut z = base ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decrements the liveness counter when the worker exits, however it exits.
struct AliveGuard(Arc<Shared>);

impl Drop for AliveGuard {
    fn drop(&mut self) {
        self.0.alive_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-worker state, built by [`PoolCore`]'s `init` on the worker thread.
struct WorkerState {
    /// Models this worker has already materialised, keyed by handle index.
    local_models: HashMap<usize, Gnn>,
    _alive: AliveGuard,
}

/// [`PoolCore`]'s handler: serves the dequeued job as a group. When
/// batching is enabled ([`RuntimeConfig::max_batch`] `> 1`) and the job
/// carries an [`ExplainJob::batch_spec`], queued jobs with the same model
/// handle and an equal spec are drained into its group first.
fn serve_entry(
    state: &mut WorkerState,
    shared: &Shared,
    first: QueuedJob,
    drain: &mut dyn FnMut() -> Option<QueuedJob>,
) {
    let mut group = vec![first];
    // A drained job that cannot join the group is served (as a group of
    // one) right after it — never re-queued, so intra-model submission
    // order is preserved per worker.
    let mut follower: Option<QueuedJob> = None;
    let mut lingered = false;
    while group[0].job.batch_spec.is_some() && group.len() < shared.max_batch {
        match drain() {
            Some(q)
                if q.handle == group[0].handle && q.job.batch_spec == group[0].job.batch_spec =>
            {
                group.push(q);
            }
            Some(q) => {
                follower = Some(q);
                break;
            }
            None if !lingered && !shared.batch_linger.is_zero() => {
                // Give an in-flight burst one chance to land a peer.
                thread::sleep(shared.batch_linger);
                lingered = true;
            }
            None => break,
        }
    }
    serve_group(state, shared, group);
    if let Some(q) = follower {
        serve_group(state, shared, vec![q]);
    }
}

/// One job of a group after its prep stage: everything the explain call
/// and the finish step need.
struct PreppedJob {
    job_id: u64,
    queue_wait: Duration,
    prep: Duration,
    result_tx: mpsc::Sender<JobResult>,
    make_explainer: ExplainerFactory,
    instance: Instance,
    ctl: ExplainControl,
    /// Flows the shared cache's capped build dropped.
    cache_flows_dropped: u64,
    /// The store key for this job's converged mask: warm-start lookups and
    /// the write-behind explanation record share it.
    mask_key: MaskKey,
    ring: Option<Arc<RingCollector>>,
}

/// Serves a group of jobs sharing one model handle (and, when larger than
/// one, one batch spec): per-job prep, one explain call, per-job finish.
/// Jobs with a spec go through one [`BatchedOptimizer`] pass (fused when
/// the group holds several); a job without one is a group of one served by
/// its `make_explainer`.
fn serve_group(state: &mut WorkerState, shared: &Shared, group: Vec<QueuedJob>) {
    let metrics = &shared.metrics;
    // One in-flight decrement per job, however the group ends.
    let _guards: Vec<InFlightGuard<'_>> = group
        .iter()
        .map(|_| InFlightGuard(&shared.in_flight))
        .collect();
    for q in &group {
        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        metrics.jobs_started.fetch_add(1, Ordering::Relaxed);
        metrics.queue_wait.observe(q.submitted.elapsed());
    }
    let fail = |tx: &mpsc::Sender<JobResult>, err: JobError| {
        metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
        let _ = tx.send(Err(err));
    };

    if shared.cancel.load(Ordering::Relaxed) {
        for q in &group {
            fail(&q.result_tx, JobError::Cancelled);
        }
        return;
    }
    let handle = group[0].handle;
    let batch_spec = group[0].job.batch_spec;
    let spec = lock(&shared.models).get(handle.0).map(Arc::clone);
    let Some(spec) = spec else {
        for q in &group {
            fail(&q.result_tx, JobError::UnknownModel);
        }
        return;
    };
    let model = state
        .local_models
        .entry(handle.0)
        .or_insert_with(|| spec.materialize());

    // Prep runs under `catch_unwind` like the explain call: a panic there
    // (say, a graph the model cannot read) fails only its own job and
    // leaves the worker serving.
    let prepped: Vec<PreppedJob> = group
        .into_iter()
        .filter_map(|q| {
            let tx = q.result_tx.clone();
            catch_unwind(AssertUnwindSafe(|| prep_job(shared, &spec, model, q))).unwrap_or_else(
                |payload| {
                    fail(&tx, JobError::Panicked(panic_message(payload.as_ref())));
                    None
                },
            )
        })
        .collect();
    if prepped.is_empty() {
        return;
    }

    let n = prepped.len();
    let explain_start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| match batch_spec {
        Some(cfg) => {
            let items: Vec<ControlledItem<'_>> = prepped
                .iter()
                .map(|p| ControlledItem {
                    instance: &p.instance,
                    seed: derive_seed(shared.base_seed, p.job_id),
                    ctl: &p.ctl,
                })
                .collect();
            BatchedOptimizer::new(cfg).explain_controlled(model, &items)
        }
        None => Ok(prepped
            .iter()
            .map(|p| {
                let explainer = (p.make_explainer)(derive_seed(shared.base_seed, p.job_id));
                explainer.explain_controlled(model, &p.instance, &p.ctl)
            })
            .collect()),
    }));
    let explain_share = explain_start.elapsed() / n as u32;
    if batch_spec.is_some() && n > 1 {
        metrics.batches.fetch_add(1, Ordering::Relaxed);
        metrics.batched_jobs.fetch_add(n as u64, Ordering::Relaxed);
        metrics.batch_size.observe(n as u64);
    }

    let failure = match outcome {
        Ok(Ok(answers)) => {
            for (p, controlled) in prepped.into_iter().zip(answers) {
                finish_job(shared, &spec, p, controlled, explain_share);
            }
            return;
        }
        Ok(Err(ExplainError::TooManyFlows(e))) => JobError::TooManyFlows {
            dropped: e.found.saturating_sub(e.max as u64),
        },
        Err(payload) => JobError::Panicked(panic_message(payload.as_ref())),
    };
    for p in prepped {
        fail(&p.result_tx, failure.clone());
    }
}

/// The message a caught panic carried.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_owned())
}

/// A job's prep stage: instance forward pass, flow artifacts (cache probe,
/// write-behind flow table), flow-cap rejection, warm-start lookup, and its
/// trace handle. `None` when the job was rejected (and already answered).
fn prep_job(shared: &Shared, spec: &ModelSpec, model: &Gnn, q: QueuedJob) -> Option<PreppedJob> {
    let metrics = &shared.metrics;
    let queue_wait = q.submitted.elapsed();
    let job = q.job;
    // Every job gets a trace handle: untraced jobs forward only to the
    // metrics bridge (phase histograms), traced jobs additionally
    // journal into a per-job ring drained after the explainer returns.
    let ring = job
        .trace
        .then(|| Arc::new(RingCollector::new(TRACE_RING_CAPACITY)));
    let bridge = Arc::clone(&shared.bridge) as Arc<dyn Collector>;
    let collector: Arc<dyn Collector> = match &ring {
        Some(r) => Arc::new(Tee(Arc::clone(r) as Arc<dyn Collector>, bridge)),
        None => bridge,
    };
    // Distributed callers key the trace under the global trace id's low
    // half so the fragment is fetchable fleet-wide; local jobs keep the
    // job-id keying.
    let tr = TraceHandle::new(TraceId(job.trace_key.unwrap_or(q.job_id)), collector);

    let prep_start = Instant::now();
    let extraction_span = tr.span(Phase::Extraction);
    let instance = Instance::for_prediction(model, job.graph, job.target);
    drop(extraction_span);
    let (flow_index, cache_flows_dropped) = if job.needs_flows {
        let flow_span = tr.span(Phase::FlowIndex);
        let (cached, hit) = shared.cache.flow_index_probed(
            job.graph_id,
            &instance.mp,
            model.num_layers(),
            instance.target,
            job.max_flows,
        );
        drop(flow_span);
        tr.event(EventKind::CacheProbe { hit });
        if !hit {
            if let Some(store) = &shared.store {
                // Persist freshly enumerated flow tables (write-behind, so
                // a failed append costs only a re-enumeration after
                // restart, never the job).
                let _ = store.put_flows(&FlowsRecord {
                    graph_id: job.graph_id,
                    target: instance.target,
                    layers: model.num_layers() as u32,
                    max_flows: job.max_flows as u64,
                    layer_edge_count: instance.mp.layer_edge_count() as u32,
                    flow_edges: cached.index.flow_edges().to_vec(),
                    dropped: cached.dropped,
                });
            }
        }
        (Some(cached.index), cached.dropped)
    } else {
        (None, 0)
    };

    if !job.shrink_on_overflow && cache_flows_dropped > 0 {
        // The job asked for an exact answer and the instance is over
        // budget: fail it instead of serving a silent prefix.
        metrics.prep_latency.observe(prep_start.elapsed());
        metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
        let _ = q.result_tx.send(Err(JobError::TooManyFlows {
            dropped: cache_flows_dropped,
        }));
        return None;
    }

    let mask_key = MaskKey {
        model_id: q.handle.0 as u32,
        graph_id: job.graph_id,
        target: instance.target,
        layers: model.num_layers() as u32,
    };
    let warm_start = if job.warm_start {
        let hit = shared
            .store
            .as_ref()
            .and_then(|store| store.newest_mask(&mask_key).ok().flatten())
            // Staleness guard: the mask must have been learned against the
            // exact weights this runtime serves.
            .filter(|hit| hit.model_fingerprint == spec.fingerprint());
        let counter = match hit {
            Some(_) => &metrics.store_hits,
            None => &metrics.store_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit.map(|hit| Arc::new(hit.mask))
    } else {
        None
    };

    let prep = prep_start.elapsed();
    metrics.prep_latency.observe(prep);
    Some(PreppedJob {
        job_id: q.job_id,
        queue_wait,
        prep,
        result_tx: q.result_tx,
        make_explainer: job.make_explainer,
        instance,
        ctl: ExplainControl {
            deadline: q.deadline,
            flow_index,
            shrink_on_overflow: job.shrink_on_overflow,
            trace: Some(tr),
            warm_start,
        },
        cache_flows_dropped,
        mask_key,
        ring,
    })
}

/// A job's finish step: metrics, trace drain, write-behind explanation
/// record (with the converged mask a later warm start reads), and the
/// answer.
fn finish_job(
    shared: &Shared,
    spec: &ModelSpec,
    p: PreppedJob,
    mut controlled: ControlledExplanation,
    explain: Duration,
) {
    let metrics = &shared.metrics;
    metrics.explain_latency.observe(explain);
    // Flows dropped by the shared cache's capped build degrade the answer
    // just like an explainer-side shrink.
    controlled.degradation.flows_dropped += p.cache_flows_dropped;
    metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
    metrics
        .epochs_total
        .fetch_add(controlled.degradation.epochs_run as u64, Ordering::Relaxed);
    if controlled.degradation.is_degraded() {
        metrics.jobs_degraded.fetch_add(1, Ordering::Relaxed);
    }
    // Drain the journal into a plain trace: once into the bounded
    // retention store (for Runtime::fetch_trace / the wire AssembledTrace request) and
    // once alongside the result.
    let trace = p.ring.zip(p.ctl.trace).map(|(r, tr)| r.drain(tr.id()));
    if let Some(t) = &trace {
        shared.traces.push(t.clone());
    }
    if let Some(store) = &shared.store {
        let us = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let explanation = &controlled.explanation;
        let _ = store.put_explanation(&ExplanationRecord {
            job_id: p.job_id,
            key: p.mask_key,
            model_fingerprint: spec.fingerprint(),
            edge_scores: explanation.edge_scores.clone(),
            layer_edge_scores: explanation.layer_edge_scores.clone(),
            flow_scores: explanation.flows.as_ref().map(|f| f.scores.clone()),
            degradation: controlled.degradation,
            phases: PhaseSummary {
                queue_us: us(p.queue_wait),
                prep_us: us(p.prep),
                explain_us: us(explain),
            },
            mask: controlled.converged_mask,
        });
    }
    let _ = p.result_tx.send(Ok(JobOutput {
        job_id: p.job_id,
        explanation: controlled.explanation,
        degradation: controlled.degradation,
        timing: JobTiming {
            queue_wait: p.queue_wait,
            prep: p.prep,
            explain,
        },
        trace,
    }));
}
