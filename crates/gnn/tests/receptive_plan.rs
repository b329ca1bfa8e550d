//! A forward pass over a receptive-field plan is the full forward, cut to
//! what reaches the targets.
//!
//! [`Plan::trimmed`] keeps, per layer, only the rows and layer edges within
//! reach of the targets. On random graphs wider than the model's reach, and
//! on disjoint unions with one target per part, the planned forward must
//! give every target row the full forward's bits, and the mask gradients
//! must match bit for bit on every kept edge; on a dropped edge the full
//! forward's gradient must be zero, so dropping it loses nothing.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Plan, Task};
use revelio_graph::{Graph, MpGraph};
use revelio_tensor::Tensor;

const FEAT: usize = 3;

/// One part of a test graph: `n` nodes, directed edges, row-major
/// `[n, FEAT]` features.
struct Part {
    n: usize,
    edges: Vec<(usize, usize)>,
    x: Vec<f32>,
}

/// A chain `0 → 1 → … → n-1` (so the far end lies beyond any model's
/// reach from node `n-1`) plus random extra edges, with random features.
fn part(n: usize, pairs: &[(usize, usize)], feats: &[f32]) -> Part {
    let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (v - 1, v)).collect();
    for &(u, v) in pairs {
        let (u, v) = (u % n, v % n);
        if u != v && !edges.contains(&(u, v)) {
            edges.push((u, v));
        }
    }
    let x = (0..n * FEAT).map(|i| feats[i % feats.len()]).collect();
    Part { n, edges, x }
}

/// The disjoint union of `parts`, node ids shifted by the earlier parts,
/// with each part's node offset.
fn union(parts: &[Part]) -> (Graph, Vec<usize>) {
    let total: usize = parts.iter().map(|p| p.n).sum();
    let mut b = Graph::builder(total, FEAT);
    let mut off = 0;
    let mut offsets = Vec::new();
    for p in parts {
        for &(u, v) in &p.edges {
            b.edge(off + u, off + v);
        }
        for v in 0..p.n {
            b.node_features(off + v, &p.x[v * FEAT..(v + 1) * FEAT]);
        }
        offsets.push(off);
        off += p.n;
    }
    (b.build(), offsets)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// One mask leaf per layer over all layer edges, values in `(0.05, 0.95)`.
fn full_masks(ne: usize, layers: usize, phase: f32) -> Vec<Tensor> {
    (0..layers)
        .map(|l| {
            let vals = (0..ne)
                .map(|e| 0.5 + 0.45 * ((l * ne + e) as f32 * 0.37 + phase).sin())
                .collect();
            Tensor::from_vec(vals, ne, 1).requires_grad()
        })
        .collect()
}

/// Checks the planned forward and its mask gradients against the full one.
fn check(kind: GnnKind, g: &Graph, targets: &[usize], seed: u64) {
    let model = Gnn::new(GnnConfig {
        hidden_dim: 6,
        heads: 2,
        ..GnnConfig::standard(kind, Task::NodeClassification, FEAT, 3, seed)
    });
    let layers = model.num_layers();
    let mp = MpGraph::new(g);
    let xw = model.input_transform_sparse(g.features());
    let full = full_masks(mp.layer_edge_count(), layers, seed as f32);
    let plan = Plan::trimmed(&mp, targets, layers);
    let kept: Vec<Tensor> = full
        .iter()
        .zip(plan.layers())
        .map(|(m, le)| {
            let vals = m.data();
            let col: Vec<f32> = le.ids().iter().map(|&e| vals[e]).collect();
            Tensor::from_vec(col, le.ids().len(), 1).requires_grad()
        })
        .collect();

    let mut rows = targets.to_vec();
    rows.sort_unstable();
    rows.dedup();
    let whole = model
        .forward_layers_from(&mp, &xw, Some(&full))
        .pop()
        .unwrap()
        .gather_rows(&rows);
    let planned = model
        .forward_planned(&plan, &xw, Some(&kept))
        .pop()
        .unwrap();
    assert_eq!(planned.shape(), whole.shape());
    assert_eq!(
        bits(&planned.to_vec()),
        bits(&whole.to_vec()),
        "{:?} target rows",
        kind
    );

    // The same weighted loss over the target rows on both sides.
    let (r, c) = whole.shape();
    let w = Tensor::from_vec((0..r * c).map(|i| 0.3 - 0.17 * i as f32).collect(), r, c);
    whole.mul(&w).sum_all().backward();
    planned.mul(&w).sum_all().backward();
    for (l, ((fm, km), le)) in full.iter().zip(&kept).zip(plan.layers()).enumerate() {
        let (fg, kg) = (fm.grad_vec(), km.grad_vec());
        let on_kept: Vec<f32> = le.ids().iter().map(|&e| fg[e]).collect();
        assert_eq!(
            bits(&kg),
            bits(&on_kept),
            "{:?} layer {} kept-edge gradients",
            kind,
            l
        );
        for e in (0..fg.len()).filter(|e| le.ids().binary_search(e).is_err()) {
            assert_eq!(fg[e], 0.0, "{:?} layer {} dropped edge {}", kind, l, e);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn one_target_beyond_the_reach(
        n in 2usize..11,
        pairs in prop::collection::vec((0usize..11, 0usize..11), 0..14),
        feats in prop::collection::vec(-2.0f32..2.0, 4..16),
        pick in 0usize..11,
        seed in 0u64..1000,
    ) {
        let (g, _) = union(&[part(n, &pairs, &feats)]);
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat] {
            check(kind, &g, &[n - 1], seed);
            check(kind, &g, &[pick % n], seed);
        }
    }

    #[test]
    fn one_target_per_part_of_a_disjoint_union(
        sizes in prop::collection::vec(2usize..8, 2..4),
        pairs in prop::collection::vec((0usize..8, 0usize..8), 0..10),
        feats in prop::collection::vec(-2.0f32..2.0, 4..16),
        picks in prop::collection::vec(0usize..8, 3),
        seed in 0u64..1000,
    ) {
        let parts: Vec<_> = sizes.iter().map(|&n| part(n, &pairs, &feats)).collect();
        let (g, offsets) = union(&parts);
        let targets: Vec<usize> = offsets
            .iter()
            .zip(&sizes)
            .zip(&picks)
            .map(|((&off, &n), &p)| off + p % n)
            .collect();
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat] {
            check(kind, &g, &targets, seed);
        }
    }
}
