//! Job, model-spec, and result types for the serving runtime.
//!
//! The tensor engine is single-threaded (`Rc`-based autograd tapes), so a
//! `Gnn` cannot cross threads. Jobs therefore carry only plain data — the
//! (sub)graph, the target, and a *factory* that builds the explainer on the
//! worker — and models are registered once as a [`ModelSpec`] (config +
//! weights) that each worker materialises locally.

use std::time::Duration;

use revelio_check::sync::mpsc;

use revelio_core::{Degradation, Explainer, Explanation, Revelio, RevelioConfig};
use revelio_gnn::{Gnn, GnnConfig};
use revelio_graph::{Graph, Target};
use revelio_trace::Trace;

/// Builds the job's explainer *on the worker thread*, from the job's
/// deterministic seed. Taking the seed through the factory (rather than
/// baking it in at submission) is what makes results independent of which
/// worker runs the job.
pub type ExplainerFactory = Box<dyn Fn(u64) -> Box<dyn Explainer> + Send>;

/// A registered model: everything needed to rebuild the `Gnn` on any
/// thread.
pub struct ModelSpec {
    config: GnnConfig,
    state: Vec<Vec<f32>>,
    /// Content fingerprint over config and weights, computed once at
    /// registration; the store's staleness guard for warm-start masks.
    fingerprint: u64,
}

impl ModelSpec {
    /// Captures `model`'s architecture and weights.
    pub fn of(model: &Gnn) -> ModelSpec {
        ModelSpec::from_parts(model.config().clone(), model.state_dict())
    }

    /// Rebuilds a spec from persisted parts (store recovery).
    pub fn from_parts(config: GnnConfig, state: Vec<Vec<f32>>) -> ModelSpec {
        let fingerprint = revelio_store::fingerprint_model(&config, &state);
        ModelSpec {
            config,
            state,
            fingerprint,
        }
    }

    /// Rebuilds the model (fresh tensors, identical weights), frozen for
    /// explaining ([`Gnn::freeze`]).
    pub fn materialize(&self) -> Gnn {
        let model = Gnn::new(self.config.clone());
        model.load_state(&self.state);
        model.freeze();
        model
    }

    /// The captured architecture.
    pub fn config(&self) -> &GnnConfig {
        &self.config
    }

    /// The captured weights, in `Gnn::state_dict` order.
    pub fn state(&self) -> &[Vec<f32>] {
        &self.state
    }

    /// Content fingerprint over config and weights.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

/// Handle returned by [`Runtime::register_model`]; cheap to copy into every
/// job that targets the model.
///
/// [`Runtime::register_model`]: crate::Runtime::register_model
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelHandle(pub(crate) usize);

/// One explanation request.
///
/// The graph should already be the computation subgraph the caller wants
/// explained (for node classification, the `L`-hop subgraph with `target`
/// remapped to its local id — see [`ArtifactCache::subgraph`]).
///
/// [`ArtifactCache::subgraph`]: crate::ArtifactCache::subgraph
pub struct ExplainJob {
    /// The instance graph (moved into the job; plain data, crosses threads).
    pub graph: Graph,
    /// What to explain.
    pub target: Target,
    /// Caller-assigned content id for `graph`, used as the artifact-cache
    /// key. Jobs with the same `graph_id` must carry identical graphs.
    pub graph_id: u64,
    /// Builds the explainer on the worker from the job's derived seed.
    pub make_explainer: ExplainerFactory,
    /// Pre-build (or fetch from cache) the flow index and hand it to the
    /// explainer. Set for flow-based methods (REVELIO, GNN-LRP, FlowX);
    /// edge-mask methods skip the enumeration entirely.
    pub needs_flows: bool,
    /// Flow cap for `needs_flows` preparation; oversized instances are
    /// shrunk to this cap (reported via [`Degradation::flows_dropped`])
    /// rather than rejected.
    pub max_flows: usize,
    /// When the instance exceeds `max_flows`: `true` degrades the answer to
    /// a deterministic flow prefix, `false` fails the job with
    /// [`JobError::TooManyFlows`] instead (for callers that would rather
    /// retry against a bigger budget than act on a partial answer).
    pub shrink_on_overflow: bool,
    /// Per-job latency budget, measured from *submission* (queue wait
    /// counts). `None` falls back to the runtime's default deadline.
    pub deadline: Option<Duration>,
    /// Capture a structured execution trace: the worker attaches a
    /// ring-buffer collector, stores the finished [`Trace`] in
    /// [`JobOutput::trace`], and retains it for later retrieval via
    /// [`Runtime::fetch_trace`]. Untraced jobs still feed the always-on
    /// phase histograms.
    ///
    /// [`Runtime::fetch_trace`]: crate::Runtime::fetch_trace
    pub trace: bool,
    /// Overrides the id the captured trace is journaled and retained
    /// under. Distributed callers set this to the low half of a global
    /// 128-bit trace id so the fragment can be fetched fleet-wide by that
    /// id instead of the shard-local `job_id`; `None` keeps the job-id
    /// keying. Ignored for untraced jobs.
    pub trace_key: Option<u64>,
    /// Ask the runtime's persistent store (when one is attached) for the
    /// newest converged mask matching this job's `(model, graph_id,
    /// target, layers)` key and seed the optimisation from it. A stale or
    /// missing mask silently falls back to the cold path; lookups are
    /// counted in [`MetricsSnapshot::store_hits`] / `store_misses`.
    ///
    /// [`MetricsSnapshot::store_hits`]: crate::MetricsSnapshot
    pub warm_start: bool,
    /// Declares this job as a REVELIO mask optimisation with this config
    /// (its `seed` is ignored — the job keeps its derived seed). The runtime
    /// then serves it through [`BatchedOptimizer`] instead of
    /// `make_explainer`: as a batch of one, or — when
    /// [`RuntimeConfig::max_batch`] `> 1` — fused with queued jobs sharing
    /// the same model handle and an equal spec, whatever their deadlines,
    /// tracing or warm starts. Fused results match a batch of one within
    /// [`BATCH_TOLERANCE`].
    ///
    /// [`RuntimeConfig::max_batch`]: crate::RuntimeConfig
    /// [`BatchedOptimizer`]: revelio_core::BatchedOptimizer
    /// [`BATCH_TOLERANCE`]: revelio_core::BATCH_TOLERANCE
    ///
    /// Set it through [`ExplainJob::with_batch_spec`], which installs the
    /// matching explainer as well.
    pub batch_spec: Option<RevelioConfig>,
}

impl ExplainJob {
    /// A job with flow preparation enabled and the runtime's default
    /// deadline.
    pub fn flow_based(
        graph: Graph,
        target: Target,
        graph_id: u64,
        max_flows: usize,
        make_explainer: ExplainerFactory,
    ) -> ExplainJob {
        ExplainJob {
            graph,
            target,
            graph_id,
            make_explainer,
            needs_flows: true,
            max_flows,
            shrink_on_overflow: true,
            deadline: None,
            trace: false,
            trace_key: None,
            warm_start: false,
            batch_spec: None,
        }
    }

    /// A job for an edge-mask method (no flow enumeration).
    pub fn edge_based(
        graph: Graph,
        target: Target,
        graph_id: u64,
        make_explainer: ExplainerFactory,
    ) -> ExplainJob {
        ExplainJob {
            needs_flows: false,
            ..ExplainJob::flow_based(graph, target, graph_id, usize::MAX, make_explainer)
        }
    }

    /// Sets a per-job deadline.
    #[must_use]
    pub fn with_deadline(mut self, budget: Duration) -> ExplainJob {
        self.deadline = Some(budget);
        self
    }

    /// Enables structured trace capture for this job.
    #[must_use]
    pub fn with_trace(mut self) -> ExplainJob {
        self.trace = true;
        self
    }

    /// Sets whether the job asks for a store-seeded warm start.
    #[must_use]
    pub fn with_warm_start(mut self, warm: bool) -> ExplainJob {
        self.warm_start = warm;
        self
    }

    /// Marks the job as a batchable REVELIO optimisation with the given
    /// config (see [`ExplainJob::batch_spec`]) and replaces
    /// `make_explainer` with a [`Revelio`] of that same config (seeded by
    /// the job), so the spec and the factory cannot disagree.
    #[must_use]
    pub fn with_batch_spec(mut self, cfg: RevelioConfig) -> ExplainJob {
        self.batch_spec = Some(cfg);
        self.make_explainer =
            Box::new(move |seed| Box::new(Revelio::new(RevelioConfig { seed, ..cfg })));
        self
    }
}

/// Per-stage wall-clock timing of a completed job.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobTiming {
    /// Submission → picked up by a worker.
    pub queue_wait: Duration,
    /// Model materialisation + instance forward pass + flow preparation.
    pub prep: Duration,
    /// The explainer call itself.
    pub explain: Duration,
}

/// A successfully served explanation.
pub struct JobOutput {
    /// Submission-order id (also the determinism seed input).
    pub job_id: u64,
    pub explanation: Explanation,
    /// What, if anything, was cut to meet the budget.
    pub degradation: Degradation,
    pub timing: JobTiming,
    /// The captured execution trace, when the job asked for one
    /// ([`ExplainJob::trace`]); `None` for untraced jobs.
    pub trace: Option<Trace>,
}

impl JobOutput {
    /// Whether the answer was degraded to meet its budget.
    pub fn degraded(&self) -> bool {
        self.degradation.is_degraded()
    }
}

/// Why a job produced no explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The explainer panicked; the payload is the panic message. The worker
    /// survives and keeps serving.
    Panicked(String),
    /// The runtime was shut down before the job ran.
    Cancelled,
    /// The job referenced a model handle that was never registered.
    UnknownModel,
    /// The instance exceeded the job's flow cap and the job opted out of
    /// shrinking (`shrink_on_overflow == false`); carries how many flows
    /// were over budget.
    TooManyFlows {
        /// Flows beyond the cap.
        dropped: u64,
    },
    /// The worker disappeared without reporting a result (a runtime bug;
    /// surfaced instead of hanging the caller).
    Lost,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(msg) => write!(f, "explainer panicked: {msg}"),
            JobError::Cancelled => write!(f, "job cancelled at shutdown"),
            JobError::UnknownModel => write!(f, "unknown model handle"),
            JobError::TooManyFlows { dropped } => write!(
                f,
                "instance exceeds the flow cap by {dropped} flows and shrinking was disabled"
            ),
            JobError::Lost => write!(f, "worker dropped the job without a result"),
        }
    }
}

impl std::error::Error for JobError {}

/// The outcome of one job.
pub type JobResult = Result<JobOutput, JobError>;

/// A claim on one submitted job's result.
///
/// Semantics:
///
/// * A ticket **always resolves** — completion, [`JobError::Panicked`],
///   [`JobError::Cancelled`] after [`Runtime::cancel_all`], or
///   [`JobError::Lost`] if the runtime disappears — so `wait` cannot hang
///   on a healthy runtime.
/// * Dropping a ticket does **not** cancel the job; the worker still runs
///   it (and its side effects, like cache warming, still happen). The
///   result is discarded on arrival.
/// * Tickets are single-use claims: [`Ticket::wait`] consumes the ticket,
///   and [`Ticket::try_wait`] hands it back until the result is in.
/// * Waiting does not require the [`Runtime`] to stay alive: dropping the
///   runtime drains the queue first, so queued tickets resolve before the
///   last worker exits.
///
/// [`Runtime`]: crate::Runtime
/// [`Runtime::cancel_all`]: crate::Runtime::cancel_all
pub struct Ticket {
    pub(crate) job_id: u64,
    pub(crate) rx: mpsc::Receiver<JobResult>,
}

impl Ticket {
    /// The job's submission-order id.
    pub fn job_id(&self) -> u64 {
        self.job_id
    }

    /// Blocks until the job finishes.
    pub fn wait(self) -> JobResult {
        self.rx.recv().unwrap_or(Err(JobError::Lost))
    }

    /// Returns the result if the job already finished, `Err(self)`
    /// otherwise (so the caller can keep waiting).
    pub fn try_wait(self) -> Result<JobResult, Ticket> {
        match self.rx.try_recv() {
            Ok(result) => Ok(result),
            Err(mpsc::TryRecvError::Empty) => Err(self),
            Err(mpsc::TryRecvError::Disconnected) => Ok(Err(JobError::Lost)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_baselines::GradCam;
    use revelio_gnn::{GnnKind, Instance, Task};

    #[test]
    fn batch_spec_installs_a_revelio_of_that_config() {
        let mut b = Graph::builder(4, 2);
        b.undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(2, 3);
        b.node_features(1, &[1.0, 0.5]);
        let graph = b.build();
        let spec = RevelioConfig {
            epochs: 7,
            ..Default::default()
        };
        // A factory that disagrees with the spec is replaced, not kept.
        let job = ExplainJob::flow_based(
            graph.clone(),
            Target::Node(1),
            0,
            1000,
            Box::new(|_| Box::new(GradCam)),
        )
        .with_batch_spec(spec);
        let explainer = (job.make_explainer)(11);
        assert_eq!(explainer.name(), "REVELIO");

        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            2,
            2,
            3,
        ));
        let instance = Instance::for_prediction(&model, graph, Target::Node(1));
        let reference = Revelio::new(RevelioConfig { seed: 11, ..spec }).explain(&model, &instance);
        assert_eq!(
            explainer.explain(&model, &instance).edge_scores,
            reference.edge_scores
        );
    }
}
