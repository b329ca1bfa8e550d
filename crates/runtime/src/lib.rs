//! `revelio-runtime` — a concurrent explanation-serving runtime.
//!
//! The research crates answer *"is this explanation faithful?"*; this crate
//! answers *"can we serve it?"*. It wraps any [`Explainer`] in a
//! production-shaped serving loop:
//!
//! * **Worker pool** — a fixed set of `std::thread` workers fed from one
//!   mpsc queue ([`Runtime::new`]). The tensor engine is single-threaded by
//!   design, so jobs carry plain graph data and every worker materialises
//!   registered models locally from a [`ModelSpec`].
//! * **Determinism** — each job's explainer seed is derived from the
//!   runtime seed and the job's *submission* id, never from scheduling:
//!   the same jobs through 1 or 8 workers give bit-identical scores.
//! * **Artifact cache** — a sharded LRU ([`ArtifactCache`]) shares the
//!   pure per-instance artifacts (`L`-hop subgraphs, enumerated flows and
//!   their incidence matrices) across jobs and explainers.
//! * **Deadlines & graceful degradation** — per-job budgets are enforced
//!   cooperatively (explainers poll between epochs and return their best
//!   mask so far, flagged via [`Degradation`]); oversized instances shrink
//!   to a deterministic flow-prefix instead of failing.
//! * **Metrics** — an always-on atomic registry ([`MetricsSnapshot`]):
//!   queue depth, job counts, cache hit rate, per-stage latency. Every
//!   metric is one row of a [`metric_table!`], which also serves the
//!   server's and the gateway's counters.
//!
//! ```no_run
//! use revelio_runtime::{ExplainJob, Runtime};
//! # fn demo(model: &revelio_gnn::Gnn, graph: revelio_graph::Graph) {
//! let rt = Runtime::new(4);
//! let handle = rt.register_model(model);
//! let job = ExplainJob::flow_based(
//!     graph,
//!     revelio_graph::Target::Node(0),
//!     /* graph_id = */ 7,
//!     /* max_flows = */ 100_000,
//!     Box::new(|seed| {
//!         Box::new(revelio_core::Revelio::new(revelio_core::RevelioConfig {
//!             seed,
//!             ..Default::default()
//!         }))
//!     }),
//! );
//! let output = rt.submit(handle, job).wait().expect("served");
//! println!("degraded: {}", output.degraded());
//! println!("{}", rt.metrics().report());
//! # }
//! ```
//!
//! [`Explainer`]: revelio_core::Explainer
//! [`Degradation`]: revelio_core::Degradation

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod cache;
mod job;
mod metrics;
mod pool;
mod pool_core;
pub mod prometheus;
mod table;
mod trace_store;

pub use cache::{ArtifactCache, CachedFlows, FlowKey, ShardedLru, SubgraphKey};
pub use job::{
    ExplainJob, ExplainerFactory, JobError, JobOutput, JobResult, JobTiming, ModelHandle,
    ModelSpec, Ticket,
};
pub use metrics::{
    BatchWidth, Histogram, HistogramSnapshot, Latency, Metrics, MetricsCollector, MetricsSnapshot,
    Scale, Unit, BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_US,
};
pub use pool::{Runtime, RuntimeBootError, RuntimeConfig, RuntimeConfigError, WorkerProbe};
pub use pool_core::PoolCore;
#[doc(hidden)]
pub use table::__wire;
pub use table::{Derived, Kind, Metric, MetricDef, Recorded, Sections};
pub use trace_store::TraceMiss;
