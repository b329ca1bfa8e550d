//! A fused batch is exactly a set of batch-of-one runs: every item of a
//! `BatchedOptimizer` batch — cold, warm-seeded, deadline-expired,
//! preselected, or graph-classification, under the factual or the
//! counterfactual objective — gets the scores, degradation record and
//! converged mask its own `Revelio::try_explain_controlled` call gives,
//! bit for bit.

use std::sync::Arc;
use std::time::Duration;

use revelio_core::{
    BatchedOptimizer, ControlledExplanation, ControlledItem, Deadline, ExplainControl, Objective,
    Revelio, RevelioConfig,
};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Instance, Task};
use revelio_graph::{Graph, Target};

/// A ring of `n ≥ 5` nodes with two-step chords from every third node and
/// varied features.
fn graph(n: usize, salt: usize) -> Graph {
    let mut b = Graph::builder(n, 3);
    for v in 0..n {
        b.undirected_edge(v, (v + 1) % n);
        if (v + salt).is_multiple_of(3) {
            b.undirected_edge(v, (v + 2) % n);
        }
        let f = ((v * 7 + salt) % 5) as f32 * 0.2;
        b.node_features(v, &[v as f32 * 0.1, 1.0 - f, f]);
    }
    b.build()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same(what: &str, fused: &ControlledExplanation, alone: &ControlledExplanation) {
    let (f, a) = (&fused.explanation, &alone.explanation);
    assert_eq!(
        bits(&f.edge_scores),
        bits(&a.edge_scores),
        "{what}: edge scores"
    );
    let layers = |e: &revelio_core::Explanation| {
        e.layer_edge_scores
            .as_ref()
            .expect("layer-edge scores")
            .iter()
            .map(|l| bits(l))
            .collect::<Vec<_>>()
    };
    assert_eq!(layers(f), layers(a), "{what}: layer-edge scores");
    let flows = |e: &revelio_core::Explanation| bits(&e.flows.as_ref().expect("flows").scores);
    assert_eq!(flows(f), flows(a), "{what}: flow scores");
    assert_eq!(fused.degradation, alone.degradation, "{what}: degradation");
    let (fm, am) = (
        fused.converged_mask.as_ref().expect("fused mask"),
        alone.converged_mask.as_ref().expect("lone mask"),
    );
    assert_eq!(bits(&fm.mask_params), bits(&am.mask_params), "{what}: mask");
    assert_eq!(fm.layer_weights.len(), am.layer_weights.len());
    for (x, y) in fm.layer_weights.iter().zip(&am.layer_weights) {
        assert_eq!(bits(x), bits(y), "{what}: layer weights");
    }
    assert_eq!(fm.selected, am.selected, "{what}: selection");
}

/// Runs `instances` as one fused batch and each as its own batch of one,
/// checking they agree item by item; returns the fused answers.
fn check(
    model: &Gnn,
    cfg: RevelioConfig,
    instances: &[Instance],
    ctls: &[ExplainControl],
) -> Vec<ControlledExplanation> {
    let items: Vec<ControlledItem<'_>> = instances
        .iter()
        .zip(ctls)
        .enumerate()
        .map(|(j, (instance, ctl))| ControlledItem {
            instance,
            seed: 100 + j as u64,
            ctl,
        })
        .collect();
    let fused = BatchedOptimizer::new(cfg)
        .explain_controlled(model, &items)
        .expect("fused batch");
    assert_eq!(fused.len(), items.len());
    for (j, (it, f)) in items.iter().zip(&fused).enumerate() {
        let alone = Revelio::new(RevelioConfig {
            seed: it.seed,
            ..cfg
        })
        .try_explain_controlled(model, it.instance, it.ctl)
        .expect("batch of one");
        assert_same(&format!("item {j}"), f, &alone);
    }
    fused
}

#[test]
fn fused_cold_warm_and_expired_items_match_their_lone_runs() {
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        3,
        2,
        5,
    ));
    let cfg = RevelioConfig {
        epochs: 300,
        ..Default::default()
    };
    let instances: Vec<Instance> = [(9, 0), (7, 1), (8, 2)]
        .iter()
        .map(|&(n, salt)| Instance::for_prediction(&model, graph(n, salt), Target::Node(2)))
        .collect();
    // The warm item's seed: its own converged cold run.
    let seed = Revelio::new(RevelioConfig { seed: 101, ..cfg })
        .try_explain_controlled(&model, &instances[1], &ExplainControl::default())
        .expect("cold run")
        .converged_mask
        .expect("converged mask");
    let ctls = [
        ExplainControl::default(),
        ExplainControl {
            warm_start: Some(Arc::new(seed)),
            ..Default::default()
        },
        ExplainControl::with_deadline(Deadline::within(Duration::ZERO)),
    ];
    let out = check(&model, cfg, &instances, &ctls);
    // The three items really took three different exits.
    assert_eq!(out[0].degradation.epochs_run, 300);
    assert!(
        out[1].degradation.epochs_run < 300,
        "warm item never plateaued"
    );
    assert!(out[2].degradation.deadline_hit);
    assert_eq!(out[2].degradation.epochs_run, 0);
}

#[test]
fn fused_preselected_items_match_their_lone_runs() {
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gin,
        Task::NodeClassification,
        3,
        2,
        6,
    ));
    let cfg = RevelioConfig {
        epochs: 40,
        preselect: Some(6),
        ..Default::default()
    };
    let instances: Vec<Instance> = [(9, 0), (6, 1), (10, 2)]
        .iter()
        .map(|&(n, salt)| Instance::for_prediction(&model, graph(n, salt), Target::Node(1)))
        .collect();
    let ctls = vec![ExplainControl::default(); instances.len()];
    check(&model, cfg, &instances, &ctls);
}

#[test]
fn fused_graph_classification_items_match_their_lone_runs() {
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gin,
        Task::GraphClassification,
        3,
        2,
        7,
    ));
    let cfg = RevelioConfig {
        epochs: 40,
        ..Default::default()
    };
    let instances: Vec<Instance> = [(8, 0), (6, 1), (7, 2)]
        .iter()
        .map(|&(n, salt)| Instance::for_prediction(&model, graph(n, salt), Target::Graph))
        .collect();
    let ctls = vec![ExplainControl::default(); instances.len()];
    check(&model, cfg, &instances, &ctls);
}

#[test]
fn fused_counterfactual_node_items_match_their_lone_runs() {
    // GAT: every mask feeds one message pass per attention head, so each
    // mask gradient sums several terms besides the sparsity penalty.
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gat,
        Task::NodeClassification,
        3,
        2,
        8,
    ));
    let cfg = RevelioConfig {
        epochs: 40,
        objective: Objective::Counterfactual,
        ..Default::default()
    };
    let instances: Vec<Instance> = [(9, 0), (6, 1), (8, 2)]
        .iter()
        .map(|&(n, salt)| Instance::for_prediction(&model, graph(n, salt), Target::Node(3)))
        .collect();
    let ctls = vec![ExplainControl::default(); instances.len()];
    check(&model, cfg, &instances, &ctls);
}

#[test]
fn fused_counterfactual_graph_items_match_their_lone_runs() {
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gin,
        Task::GraphClassification,
        3,
        2,
        9,
    ));
    let cfg = RevelioConfig {
        epochs: 40,
        objective: Objective::Counterfactual,
        ..Default::default()
    };
    let instances: Vec<Instance> = [(7, 0), (9, 1), (6, 2)]
        .iter()
        .map(|&(n, salt)| Instance::for_prediction(&model, graph(n, salt), Target::Graph))
        .collect();
    let ctls = vec![ExplainControl::default(); instances.len()];
    check(&model, cfg, &instances, &ctls);
}
