//! The split layer forward (`transform` then `propagate`) and the frozen
//! model an explainer runs against.
//!
//! Mask-learning loops compute the first layer's `x · W` once and
//! propagate from it every epoch; that must be the same computation,
//! bit for bit, as the one-call forward. Training leaves the model frozen,
//! and training again re-flags it.

use revelio_gnn::{train_node_classifier, Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, MpGraph, Target};
use revelio_tensor::Tensor;

const KINDS: [GnnKind; 3] = [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat];
const TASKS: [Task; 2] = [Task::NodeClassification, Task::GraphClassification];

fn fixture() -> Graph {
    let mut b = Graph::builder(6, 5);
    b.edge(0, 1)
        .edge(1, 2)
        .edge(2, 3)
        .edge(3, 4)
        .edge(4, 5)
        .edge(5, 0)
        .edge(1, 4);
    for v in 0..6 {
        let feats: Vec<f32> = (0..5).map(|j| ((v * 5 + j) as f32 * 0.9).sin()).collect();
        b.node_features(v, &feats);
    }
    b.node_labels(vec![0, 1, 0, 1, 0, 1]);
    b.build()
}

fn masks(ne: usize, layers: usize, phase: f32) -> Vec<Tensor> {
    (0..layers)
        .map(|l| {
            let vals = (0..ne)
                .map(|e| 0.5 + 0.45 * ((l * ne + e) as f32 * 0.41 + phase).sin())
                .collect();
            Tensor::from_vec(vals, ne, 1)
        })
        .collect()
}

fn model(kind: GnnKind, task: Task, seed: u64) -> Gnn {
    Gnn::new(GnnConfig {
        hidden_dim: 8,
        heads: 2,
        ..GnnConfig::standard(kind, task, 5, 2, seed)
    })
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.to_vec().iter().map(|f| f.to_bits()).collect()
}

fn target(task: Task) -> Target {
    match task {
        Task::NodeClassification => Target::Node(2),
        Task::GraphClassification => Target::Graph,
    }
}

#[test]
fn forward_layers_equals_propagating_from_a_precomputed_transform() {
    let g = fixture();
    let mp = MpGraph::new(&g);
    let x = Gnn::features_tensor(&g);
    for kind in KINDS {
        for task in TASKS {
            let m = model(kind, task, 3);
            let ms = masks(mp.layer_edge_count(), m.num_layers(), 0.0);
            let xw = m.input_transform(&x);
            let direct = m.forward_layers(&mp, &x, Some(&ms));
            let hoisted = m.forward_layers_from(&mp, &xw, Some(&ms));
            assert_eq!(direct.len(), hoisted.len());
            for (a, b) in direct.iter().zip(&hoisted) {
                assert_eq!(bits(a), bits(b), "{kind:?}/{task:?}: layer outputs differ");
            }
            // The one-call layer forward, chained by hand, is the same
            // computation as well.
            let norm = Tensor::from_vec(mp.gcn_norm(), mp.layer_edge_count(), 1);
            let mut h = x.clone();
            for (l, layer) in m.layers().iter().enumerate() {
                let raw = l + 1 == m.num_layers() && task == Task::NodeClassification;
                h = layer.forward_fused(
                    mp.layer_edges(),
                    &h,
                    Some(&ms[l]),
                    &norm,
                    (!raw).then_some(0.01),
                );
                assert_eq!(bits(&h), bits(&direct[l]), "{kind:?}/{task:?}: layer {l}");
            }
        }
    }
}

#[test]
fn one_transform_serves_every_epoch() {
    let g = fixture();
    let mp = MpGraph::new(&g);
    let x = Gnn::features_tensor(&g);
    for kind in KINDS {
        for task in TASKS {
            let m = model(kind, task, 5);
            let xw = m.input_transform(&x);
            for epoch in 0..3 {
                let ms = masks(mp.layer_edge_count(), m.num_layers(), epoch as f32);
                let fresh = m.target_logits(&mp, &x, Some(&ms), target(task));
                let reused = m.target_logits_from(&mp, &xw, Some(&ms), target(task));
                assert_eq!(
                    bits(&fresh),
                    bits(&reused),
                    "{kind:?}/{task:?} epoch {epoch}"
                );
            }
        }
    }
}

#[test]
fn training_freezes_the_model_and_training_again_thaws_it() {
    let g = fixture();
    let m = model(GnnKind::Gcn, Task::NodeClassification, 7);
    assert!(m.params().iter().all(Tensor::requires_grad_flag));
    let cfg = TrainConfig {
        epochs: 5,
        ..Default::default()
    };
    train_node_classifier(&m, &g, &[0, 1, 2, 3], &cfg);
    for p in m.params() {
        assert!(!p.requires_grad_flag() && !p.has_grad());
    }
    let before = m.state_dict();
    train_node_classifier(&m, &g, &[0, 1, 2, 3], &cfg);
    assert_ne!(
        before,
        m.state_dict(),
        "a second training run must still learn"
    );
    assert!(m.params().iter().all(|p| !p.requires_grad_flag()));

    // A backward pass through the frozen model reaches only the mask.
    let mp = MpGraph::new(&g);
    let ms: Vec<Tensor> = masks(mp.layer_edge_count(), m.num_layers(), 0.0)
        .into_iter()
        .map(Tensor::requires_grad)
        .collect();
    let x = Gnn::features_tensor(&g);
    m.target_logits(&mp, &x, Some(&ms), Target::Node(1))
        .sum_all()
        .backward();
    assert!(ms.iter().all(Tensor::has_grad));
    assert!(m.params().iter().all(|p| !p.has_grad()));
    assert!(!x.has_grad());
}
