//! Explaining against a frozen model: the scores are bit-identical to the
//! same model left trainable, and no explainer leaves a gradient on the
//! model it explains.

use revelio::core::{BatchItem, BatchedOptimizer};
use revelio::eval::{make_method, Effort, ALL_METHODS};
use revelio::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

fn explanation_bits(e: &Explanation) -> Vec<Vec<u32>> {
    let mut out = vec![bits(&e.edge_scores)];
    out.extend(e.layer_edge_scores.iter().flatten().map(|s| bits(s)));
    out.extend(e.flows.iter().map(|f| bits(&f.scores)));
    out
}

/// Two small graphs with distinct structure and features.
fn graphs() -> Vec<Graph> {
    let mut a = Graph::builder(5, 3);
    a.undirected_edge(0, 1)
        .undirected_edge(1, 2)
        .undirected_edge(2, 3)
        .undirected_edge(3, 4)
        .undirected_edge(1, 3);
    let mut b = Graph::builder(4, 3);
    b.undirected_edge(0, 1)
        .undirected_edge(1, 2)
        .undirected_edge(2, 0)
        .undirected_edge(2, 3);
    for (builder, phase) in [(&mut a, 0.0f32), (&mut b, 1.3)] {
        for v in 0..4 {
            let f: Vec<f32> = (0..3)
                .map(|j| ((v * 3 + j) as f32 * 0.7 + phase).sin())
                .collect();
            builder.node_features(v, &f);
        }
    }
    vec![a.build(), b.build()]
}

fn instances(model: &Gnn, task: Task) -> Vec<Instance> {
    graphs()
        .into_iter()
        .map(|g| {
            let target = match task {
                Task::NodeClassification => Target::Node(1),
                Task::GraphClassification => Target::Graph,
            };
            Instance::for_prediction(model, g, target)
        })
        .collect()
}

fn fused(model: &Gnn, insts: &[Instance], cfg: RevelioConfig) -> Vec<Vec<Vec<u32>>> {
    let items: Vec<BatchItem<'_>> = insts
        .iter()
        .enumerate()
        .map(|(j, instance)| BatchItem {
            instance,
            seed: 20 + j as u64,
            flow_index: None,
        })
        .collect();
    BatchedOptimizer::new(cfg)
        .explain_batch(model, &items)
        .expect("small instances stay under the flow cap")
        .iter()
        .map(explanation_bits)
        .collect()
}

#[test]
fn revelio_scores_on_a_frozen_model_equal_those_on_a_trainable_one() {
    let cfg = RevelioConfig {
        epochs: 15,
        seed: 3,
        ..Default::default()
    };
    for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat] {
        for task in [Task::NodeClassification, Task::GraphClassification] {
            let config = GnnConfig::standard(kind, task, 3, 2, 9);
            let trainable = Gnn::new(config.clone());
            let frozen = Gnn::new(config);
            frozen.freeze();
            let (ti, fi) = (instances(&trainable, task), instances(&frozen, task));

            let explain = |model: &Gnn, inst: &Instance| {
                Revelio::new(cfg)
                    .try_explain(model, inst)
                    .expect("small instances stay under the flow cap")
            };
            let (t, f) = (explain(&trainable, &ti[0]), explain(&frozen, &fi[0]));
            assert_eq!(
                explanation_bits(&t),
                explanation_bits(&f),
                "{kind:?}/{task:?}: batch of one"
            );

            // A fused batch propagates from one transform of the union
            // features.
            assert_eq!(
                fused(&trainable, &ti, cfg),
                fused(&frozen, &fi, cfg),
                "{kind:?}/{task:?}: fused batch"
            );
            assert!(frozen.params().iter().all(|p| !p.has_grad()));
        }
    }
}

fn trained_node_setup() -> (Gnn, Instance) {
    let data = revelio::datasets::tree_cycles(0);
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        data.graph.feat_dim(),
        data.num_classes,
        0,
    ));
    train_node_classifier(
        &model,
        &data.graph,
        &data.split.train,
        &TrainConfig {
            epochs: 20,
            ..Default::default()
        },
    );
    let sub = khop_subgraph(&data.graph, 511, 3);
    let inst = Instance::for_prediction(&model, sub.graph.clone(), Target::Node(sub.target));
    (model, inst)
}

fn trained_graph_setup() -> (Gnn, Instance) {
    let data = revelio::datasets::mutag_sim(0);
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gin,
        Task::GraphClassification,
        7,
        2,
        0,
    ));
    let train: Vec<usize> = data.split.train.iter().copied().take(24).collect();
    train_graph_classifier(
        &model,
        &data.graphs,
        &train,
        &TrainConfig {
            epochs: 4,
            batch_size: 8,
            ..Default::default()
        },
    );
    let inst = Instance::for_prediction(&model, data.graphs[0].clone(), Target::Graph);
    (model, inst)
}

#[test]
fn no_explainer_leaves_a_gradient_on_a_trained_model() {
    for (model, inst) in [trained_node_setup(), trained_graph_setup()] {
        for name in ALL_METHODS {
            let explainer = make_method(name, Objective::Factual, Effort::Quick, 1);
            explainer.fit(&model, &[&inst]);
            let _ = explainer.explain(&model, &inst);
            for (i, p) in model.params().iter().enumerate() {
                assert!(
                    !p.has_grad(),
                    "{name}: parameter {i} of the trained model holds a gradient"
                );
            }
            assert!(
                !inst.x.has_grad(),
                "{name}: the instance features hold a gradient"
            );
        }
    }
}
