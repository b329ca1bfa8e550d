//! End-to-end finite-difference gradient checks for every GNN layer kind.
//!
//! For each of GCN / GIN / GAT, a small two-layer model runs a full
//! forward pass (node logits → log-softmax → NLL) on a fixed graph, and the
//! reverse-mode gradients of **all** model parameters and of a per-layer
//! edge mask are compared against central differences. This exercises the
//! complete layer stack — linear transforms, message passing
//! (the fused `message_pass` with GCN normalisation), GAT attention
//! (`segment_softmax`), mask gating, and the inter-layer activation.

#![allow(clippy::unwrap_used)]

use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task};
use revelio_graph::{Graph, MpGraph};
use revelio_tensor::{grad_check, Tensor};

/// A fixed 6-node graph with two classes' worth of structure and smooth
/// deterministic features (no kinks, no randomness).
fn fixture() -> Graph {
    let feat_dim = 4;
    let mut b = Graph::builder(6, feat_dim);
    b.edge(0, 1)
        .edge(1, 2)
        .edge(2, 3)
        .edge(3, 4)
        .edge(4, 5)
        .edge(5, 0)
        .edge(1, 4);
    for v in 0..6 {
        let feats: Vec<f32> = (0..feat_dim)
            .map(|j| 0.4 * ((v * feat_dim + j) as f32 * 0.7).sin())
            .collect();
        b.node_features(v, &feats);
    }
    b.build()
}

/// Strictly interior mask values (away from the sigmoid-like saturation
/// ends) so the loss stays smooth in every perturbed direction.
fn layer_masks(ne: usize, layers: usize) -> Vec<Tensor> {
    (0..layers)
        .map(|l| {
            let vals: Vec<f32> = (0..ne)
                .map(|e| 0.35 + 0.5 * ((l * ne + e) as f32 * 0.37).sin().abs().min(0.6))
                .collect();
            Tensor::from_vec(vals, ne, 1).requires_grad()
        })
        .collect()
}

fn check_kind(kind: GnnKind, seed: u64) {
    let g = fixture();
    let mp = MpGraph::new(&g);
    let x = Gnn::features_tensor(&g);
    let model = Gnn::new(GnnConfig {
        kind,
        task: Task::NodeClassification,
        in_dim: g.feat_dim(),
        hidden_dim: 6,
        num_classes: 2,
        num_layers: 2,
        heads: 2,
        seed,
    });
    let masks = layer_masks(mp.layer_edge_count(), model.num_layers());
    let labels = [0usize, 1, 0, 1, 0, 1];

    let mut leaves = model.params();
    leaves.extend(masks.iter().cloned());

    let report = grad_check(
        || {
            model
                .node_logits(&mp, &x, Some(&masks))
                .log_softmax_rows()
                .nll_loss(&labels)
        },
        &leaves,
        // eps 3e-3: wide enough for f32 central differences on an O(1)
        // loss, narrow enough that hidden ReLU preactivations are unlikely
        // to sit within one step of their kink.
        3e-3,
        1e-2,
    )
    .unwrap();
    assert!(
        report.checked > leaves.len(),
        "{kind:?}: expected to perturb every parameter element, checked {}",
        report.checked
    );
}

#[test]
fn gcn_end_to_end_gradients_match_finite_differences() {
    check_kind(GnnKind::Gcn, 0);
}

#[test]
fn gin_end_to_end_gradients_match_finite_differences() {
    // Seed-sensitive: GIN's internal ReLU MLP makes it likely that some
    // hidden preactivation sits within eps of the kink, where central
    // differences and the subgradient legitimately disagree. Seed 2 keeps
    // every preactivation clear of the kink on this fixture.
    check_kind(GnnKind::Gin, 2);
}

#[test]
fn gat_end_to_end_gradients_match_finite_differences() {
    check_kind(GnnKind::Gat, 0);
}
