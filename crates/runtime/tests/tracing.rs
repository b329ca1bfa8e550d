//! Tracing through the runtime: a traced job carries a per-phase trace
//! that agrees with the metrics registry, untraced jobs pay nothing, and
//! finished traces stay retrievable from the runtime's retention window.

use revelio_core::{Objective, Revelio, RevelioConfig};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::{ExplainJob, Runtime, RuntimeConfig};
use revelio_trace::Phase;

/// A small trained model and a couple of path graphs to explain.
fn trained_model() -> (Gnn, Vec<Graph>) {
    let graphs: Vec<Graph> = (0..2)
        .map(|variant| {
            let mut b = Graph::builder(5, 2);
            b.undirected_edge(0, 1)
                .undirected_edge(1, 2)
                .undirected_edge(2, 3)
                .undirected_edge(3, 4);
            for v in 0..5 {
                b.node_features(v, &[1.0, (v + variant) as f32 * 0.3]);
            }
            b.node_labels((0..5).map(|v| (v + variant) % 2).collect());
            b.build()
        })
        .collect();
    let model = Gnn::new(GnnConfig {
        kind: GnnKind::Gcn,
        task: Task::NodeClassification,
        in_dim: 2,
        hidden_dim: 8,
        num_classes: 2,
        num_layers: 2,
        heads: 1,
        seed: 7,
    });
    revelio_gnn::train_node_classifier(
        &model,
        &graphs[0],
        &[0, 1, 2, 3, 4],
        &TrainConfig {
            epochs: 20,
            ..Default::default()
        },
    );
    (model, graphs)
}

fn job_for(graph: &Graph, graph_id: u64, epochs: usize) -> ExplainJob {
    ExplainJob::flow_based(
        graph.clone(),
        Target::Node(2),
        graph_id,
        100_000,
        Box::new(move |seed| {
            Box::new(Revelio::new(RevelioConfig {
                epochs,
                objective: Objective::Factual,
                seed,
                ..Default::default()
            }))
        }),
    )
}

/// A traced job returns a trace with a completed span for every phase,
/// whose epoch events agree with both the degradation report and the
/// metrics registry's epoch counter delta.
#[test]
fn traced_job_carries_consistent_per_phase_trace() {
    let (model, graphs) = trained_model();
    let rt = Runtime::with_config(RuntimeConfig {
        workers: 1,
        seed: 9,
        ..Default::default()
    });
    let handle = rt.register_model(&model);

    let before = rt.metrics();
    let out = rt
        .submit(handle, job_for(&graphs[0], 0, 12).with_trace())
        .wait()
        .expect("traced job served");
    let after = rt.metrics();
    let trace = out.trace.as_ref().expect("traced job carries its trace");

    for phase in [
        Phase::Extraction,
        Phase::FlowIndex,
        Phase::Optimize,
        Phase::Readout,
    ] {
        assert!(
            trace.phase_ns(phase) > 0,
            "phase {} has no completed span",
            phase.name()
        );
    }
    assert_eq!(trace.dropped, 0, "ring overflowed on a small job");
    assert_eq!(
        trace.epoch_count(),
        out.degradation.epochs_run,
        "epoch events disagree with the degradation report"
    );
    assert_eq!(
        trace.epoch_count() as u64,
        after.epochs_total - before.epochs_total,
        "epoch events disagree with the metrics counter delta"
    );
    assert!(
        trace.losses().iter().all(|l| l.is_finite()),
        "non-finite loss recorded"
    );

    // The finished trace is retained for later retrieval by id.
    let stored = rt
        .fetch_trace(trace.id.0)
        .expect("trace retained after the job");
    assert_eq!(stored.events.len(), trace.events.len());
    assert_eq!(stored.id, trace.id);
}

/// Untraced jobs return no trace and leave nothing behind to retrieve,
/// while the always-on metrics bridge still sees their phase latencies.
#[test]
fn untraced_jobs_leave_no_trace_but_still_feed_metrics() {
    let (model, graphs) = trained_model();
    let rt = Runtime::with_config(RuntimeConfig {
        workers: 1,
        seed: 11,
        ..Default::default()
    });
    let handle = rt.register_model(&model);
    let out = rt
        .submit(handle, job_for(&graphs[1], 1, 8))
        .wait()
        .expect("untraced job served");
    assert!(out.trace.is_none(), "untraced job grew a trace");

    let m = rt.metrics();
    assert_eq!(m.epochs_total, out.degradation.epochs_run as u64);
    for (name, h) in [
        ("extraction", &m.phase_extraction),
        ("flow_index", &m.phase_flow_index),
        ("optimize", &m.phase_optimize),
        ("readout", &m.phase_readout),
    ] {
        assert_eq!(h.count, 1, "phase histogram {name} missed the untraced job");
    }
}
