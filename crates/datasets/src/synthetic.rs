//! The three synthetic benchmarks, generated per their defining papers:
//!
//! * **BA-Shapes** (Ying et al., 2019): a 300-node Barabási–Albert base graph
//!   with 80 five-node "house" motifs attached, plus random noise edges;
//!   node labels encode motif position (base / middle / bottom / top).
//! * **Tree-Cycles** (Ying et al., 2019): a depth-8 balanced binary tree with
//!   60 six-node cycles attached; binary node labels (tree / cycle).
//! * **BA-2motifs** (Luo et al., 2020): 1000 graphs, each a 20-node BA base
//!   with either a house or a five-node cycle attached; the motif type is
//!   the graph label.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use revelio_graph::{Graph, GraphBuilder};

use crate::split::{graph_split, node_split};
use crate::{GraphDataset, NodeDataset};

/// Node labels within a house motif, following GNNExplainer's convention.
const LABEL_BASE: usize = 0;
const LABEL_MIDDLE: usize = 1;
const LABEL_BOTTOM: usize = 2;
const LABEL_TOP: usize = 3;

/// Generates an undirected Barabási–Albert graph edge list on nodes
/// `0..n`: each new node attaches to `m` distinct existing nodes chosen by
/// preferential attachment.
fn ba_edges(n: usize, m: usize, rng: &mut SmallRng) -> Vec<(usize, usize)> {
    assert!(n > m && m >= 1, "BA requires n > m >= 1");
    let mut edges = Vec::with_capacity(m * (n - m));
    // `targets` holds one entry per edge endpoint, so sampling uniformly
    // from it realises preferential attachment.
    let mut endpoint_pool: Vec<usize> = (0..m).collect();
    for v in m..n {
        let mut chosen = Vec::with_capacity(m);
        while chosen.len() < m {
            let candidate = endpoint_pool[rng.gen_range(0..endpoint_pool.len())];
            if !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
        for &u in &chosen {
            edges.push((u, v));
            endpoint_pool.push(u);
            endpoint_pool.push(v);
        }
    }
    edges
}

/// Adds the six undirected house-motif edges over nodes
/// `[top, mid1, mid2, bot1, bot2]`, recording the directed edge ids.
fn add_house(
    b: &mut GraphBuilder,
    nodes: [usize; 5],
    edge_count: &mut usize,
    motif_edge_ids: &mut Vec<usize>,
) {
    let [t, m1, m2, b1, b2] = nodes;
    for (u, v) in [(m1, m2), (m1, t), (m2, t), (m1, b1), (m2, b2), (b1, b2)] {
        b.undirected_edge(u, v);
        motif_edge_ids.push(*edge_count);
        motif_edge_ids.push(*edge_count + 1);
        *edge_count += 2;
    }
}

/// Adds an undirected cycle over `nodes`, recording the directed edge ids.
fn add_cycle(
    b: &mut GraphBuilder,
    nodes: &[usize],
    edge_count: &mut usize,
    motif_edge_ids: &mut Vec<usize>,
) {
    for i in 0..nodes.len() {
        let (u, v) = (nodes[i], nodes[(i + 1) % nodes.len()]);
        b.undirected_edge(u, v);
        motif_edge_ids.push(*edge_count);
        motif_edge_ids.push(*edge_count + 1);
        *edge_count += 2;
    }
}

fn add_plain_undirected(b: &mut GraphBuilder, u: usize, v: usize, edge_count: &mut usize) {
    b.undirected_edge(u, v);
    *edge_count += 2;
}

/// Constant features with two degree-derived channels.
///
/// The original synthetic benchmarks pair constant features with GNNs that
/// use sum aggregation and layer-concatenated classifier heads; with the
/// standard GCN/GIN/GAT architectures evaluated in the paper, constant
/// features starve the models of structural signal. Two degree channels
/// (a widely used equivalent input encoding) restore learnability while the
/// planted motif remains the explanatory signal.
fn degree_augmented(g: Graph) -> Graph {
    let n = g.num_nodes();
    let f = g.feat_dim();
    assert!(f >= 3, "degree augmentation needs at least 3 feature dims");
    let mut feats = g.features().to_dense();
    let mut deg = vec![0.0f32; n];
    for &(s, _) in g.edges() {
        deg[s as usize] += 1.0;
    }
    let maxd = deg.iter().copied().fold(1.0, f32::max);
    for v in 0..n {
        let d = deg[v] / maxd;
        feats[v * f + 1] = d;
        feats[v * f + 2] = d * d;
    }
    g.with_features(feats)
}

/// BA-Shapes: 700 nodes, 4 classes, house motifs on a BA base.
pub fn ba_shapes(seed: u64) -> NodeDataset {
    const BASE: usize = 300;
    const MOTIFS: usize = 80;
    const FEAT: usize = 10;
    const EXTRA_RANDOM_EDGES: usize = 20;
    let n = BASE + 5 * MOTIFS; // 700

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = Graph::builder(n, FEAT);
    let mut labels = vec![LABEL_BASE; n];
    let mut node_motif: Vec<Option<usize>> = vec![None; n];
    let mut motif_edges: Vec<Vec<usize>> = Vec::with_capacity(MOTIFS);
    let mut edge_count = 0usize;

    for (u, v) in ba_edges(BASE, 5, &mut rng) {
        add_plain_undirected(&mut b, u, v, &mut edge_count);
    }

    for motif in 0..MOTIFS {
        let base_id = BASE + 5 * motif;
        let nodes = [base_id, base_id + 1, base_id + 2, base_id + 3, base_id + 4];
        let mut ids = Vec::with_capacity(12);
        add_house(&mut b, nodes, &mut edge_count, &mut ids);
        motif_edges.push(ids);
        labels[nodes[0]] = LABEL_TOP;
        labels[nodes[1]] = LABEL_MIDDLE;
        labels[nodes[2]] = LABEL_MIDDLE;
        labels[nodes[3]] = LABEL_BOTTOM;
        labels[nodes[4]] = LABEL_BOTTOM;
        for v in nodes {
            node_motif[v] = Some(motif);
        }
        // Attach the motif's bottom-left node to a random base node.
        let anchor = rng.gen_range(0..BASE);
        add_plain_undirected(&mut b, nodes[3], anchor, &mut edge_count);
    }

    let mut added = 0;
    while added < EXTRA_RANDOM_EDGES {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && !b.has_edge(u, v) {
            add_plain_undirected(&mut b, u, v, &mut edge_count);
            added += 1;
        }
    }

    b.all_features(vec![1.0; n * FEAT]);
    b.node_labels(labels);

    NodeDataset {
        name: "BA-Shapes",
        graph: degree_augmented(b.build()),
        num_classes: 4,
        split: node_split(n, 0.8, 0.1, seed ^ 0x51),
        node_motif: Some(node_motif),
        motif_edges: Some(motif_edges),
    }
}

/// Tree-Cycles: 871 nodes, 2 classes, hexagon motifs on a binary tree.
pub fn tree_cycles(seed: u64) -> NodeDataset {
    const DEPTH: u32 = 8;
    const MOTIFS: usize = 60;
    const FEAT: usize = 10;
    const EXTRA_RANDOM_EDGES: usize = 41;
    let tree_n = (1usize << (DEPTH + 1)) - 1; // 511
    let n = tree_n + 6 * MOTIFS; // 871

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = Graph::builder(n, FEAT);
    let mut labels = vec![0usize; n];
    let mut node_motif: Vec<Option<usize>> = vec![None; n];
    let mut motif_edges: Vec<Vec<usize>> = Vec::with_capacity(MOTIFS);
    let mut edge_count = 0usize;

    // Balanced binary tree: node v has children 2v+1 and 2v+2.
    for v in 0..tree_n {
        for child in [2 * v + 1, 2 * v + 2] {
            if child < tree_n {
                add_plain_undirected(&mut b, v, child, &mut edge_count);
            }
        }
    }

    for motif in 0..MOTIFS {
        let base_id = tree_n + 6 * motif;
        let nodes: Vec<usize> = (base_id..base_id + 6).collect();
        let mut ids = Vec::with_capacity(12);
        add_cycle(&mut b, &nodes, &mut edge_count, &mut ids);
        motif_edges.push(ids);
        for &v in &nodes {
            labels[v] = 1;
            node_motif[v] = Some(motif);
        }
        let anchor = rng.gen_range(0..tree_n);
        add_plain_undirected(&mut b, nodes[0], anchor, &mut edge_count);
    }

    let mut added = 0;
    while added < EXTRA_RANDOM_EDGES {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v && !b.has_edge(u, v) {
            add_plain_undirected(&mut b, u, v, &mut edge_count);
            added += 1;
        }
    }

    b.all_features(vec![1.0; n * FEAT]);
    b.node_labels(labels);

    NodeDataset {
        name: "Tree-Cycles",
        graph: degree_augmented(b.build()),
        num_classes: 2,
        split: node_split(n, 0.8, 0.1, seed ^ 0x7c1),
        node_motif: Some(node_motif),
        motif_edges: Some(motif_edges),
    }
}

/// BA-2motifs: 1000 graphs of 25 nodes; label 0 = house motif, 1 = pentagon.
pub fn ba_2motifs(seed: u64) -> GraphDataset {
    const GRAPHS: usize = 1000;
    const BASE: usize = 20;
    const FEAT: usize = 10;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graphs = Vec::with_capacity(GRAPHS);
    let mut motif_edges = Vec::with_capacity(GRAPHS);
    // Balanced, shuffled class assignment.
    let mut classes: Vec<usize> = (0..GRAPHS).map(|i| i % 2).collect();
    classes.shuffle(&mut rng);

    for &class in &classes {
        let n = BASE + 5;
        let mut b = Graph::builder(n, FEAT);
        let mut edge_count = 0usize;
        let mut ids = Vec::new();
        for (u, v) in ba_edges(BASE, 1, &mut rng) {
            add_plain_undirected(&mut b, u, v, &mut edge_count);
        }
        let motif_nodes: Vec<usize> = (BASE..BASE + 5).collect();
        if class == 0 {
            add_house(
                &mut b,
                [
                    motif_nodes[0],
                    motif_nodes[1],
                    motif_nodes[2],
                    motif_nodes[3],
                    motif_nodes[4],
                ],
                &mut edge_count,
                &mut ids,
            );
        } else {
            add_cycle(&mut b, &motif_nodes, &mut edge_count, &mut ids);
        }
        let anchor = rng.gen_range(0..BASE);
        add_plain_undirected(&mut b, motif_nodes[0], anchor, &mut edge_count);

        b.all_features(vec![1.0; n * FEAT]);
        b.graph_label(class);
        graphs.push(degree_augmented(b.build()));
        motif_edges.push(ids);
    }

    GraphDataset {
        name: "BA-2motifs",
        graphs,
        num_classes: 2,
        split: graph_split(GRAPHS, 0.8, 0.1, seed ^ 0xba2),
        motif_edges: Some(motif_edges),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn ba_shapes_matches_table_iii() {
        let d = ba_shapes(0);
        assert_eq!(d.graph.num_nodes(), 700);
        assert_eq!(d.graph.num_edges(), 4110);
        assert_eq!(d.num_classes, 4);
        assert_eq!(d.graph.feat_dim(), 10);
        // 80 motifs with 12 directed edges each.
        let me = d.motif_edges.as_ref().unwrap();
        assert_eq!(me.len(), 80);
        assert!(me.iter().all(|m| m.len() == 12));
        // Labels: 300 base + 80 top + 160 middle + 160 bottom.
        let labels = d.graph.node_labels().unwrap();
        assert_eq!(labels.iter().filter(|&&l| l == LABEL_BASE).count(), 300);
        assert_eq!(labels.iter().filter(|&&l| l == LABEL_TOP).count(), 80);
        assert_eq!(labels.iter().filter(|&&l| l == LABEL_MIDDLE).count(), 160);
        assert_eq!(labels.iter().filter(|&&l| l == LABEL_BOTTOM).count(), 160);
    }

    #[test]
    fn tree_cycles_matches_table_iii() {
        let d = tree_cycles(0);
        assert_eq!(d.graph.num_nodes(), 871);
        assert_eq!(d.graph.num_edges(), 1942);
        assert_eq!(d.num_classes, 2);
        let labels = d.graph.node_labels().unwrap();
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 360);
    }

    #[test]
    fn ba_2motifs_matches_table_iii() {
        let d = ba_2motifs(0);
        assert_eq!(d.graphs.len(), 1000);
        assert_eq!(d.num_classes, 2);
        assert!((d.avg_nodes() - 25.0).abs() < 1e-9);
        // House graphs: 38 + 12 + 2 = 52 edges; pentagon: 38 + 10 + 2 = 50.
        let avg = d.avg_edges();
        assert!((50.9..=51.1).contains(&avg), "avg edges {avg}");
        // Labels balanced.
        let ones = d
            .graphs
            .iter()
            .filter(|g| g.graph_label() == Some(1))
            .count();
        assert_eq!(ones, 500);
    }

    #[test]
    fn motif_edges_are_within_motif_nodes() {
        let d = ba_shapes(1);
        let g = &d.graph;
        let nm = d.node_motif.as_ref().unwrap();
        for (motif, edges) in d.motif_edges.as_ref().unwrap().iter().enumerate() {
            for &e in edges {
                let (s, t) = g.edges()[e];
                assert_eq!(nm[s as usize], Some(motif));
                assert_eq!(nm[t as usize], Some(motif));
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = ba_shapes(9);
        let b = ba_shapes(9);
        assert_eq!(a.graph.edges(), b.graph.edges());
        let c = tree_cycles(9);
        let d = tree_cycles(9);
        assert_eq!(c.graph.edges(), d.graph.edges());
    }

    #[test]
    fn ba_generator_degree_and_count() {
        let mut rng = SmallRng::seed_from_u64(3);
        let edges = ba_edges(50, 3, &mut rng);
        assert_eq!(edges.len(), 3 * 47);
        // No duplicate undirected edges.
        let mut seen = std::collections::HashSet::new();
        for &(u, v) in &edges {
            assert!(u != v);
            assert!(seen.insert((u.min(v), u.max(v))));
        }
    }

    #[test]
    fn ground_truth_for_motif_node() {
        let d = tree_cycles(2);
        // First motif node id: 511.
        let gt = d.ground_truth_for(511).unwrap();
        assert_eq!(gt.len(), 12);
        assert!(d.ground_truth_for(0).is_none());
    }
}
