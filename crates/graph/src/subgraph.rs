//! `L`-hop computation-subgraph extraction.
//!
//! In an `L`-layer GNN the prediction at a node depends only on nodes with a
//! directed path of length ≤ `L` to it. Explaining a node-classification
//! prediction therefore runs on this subgraph — exactly what PyG's
//! `k_hop_subgraph` does for the Python baselines.

use crate::graph::Graph;

/// The result of [`khop_subgraph`]: the induced subgraph plus the mappings
/// back to the original graph.
#[derive(Debug, Clone)]
pub struct KhopSubgraph {
    /// The induced subgraph (features and node labels carried over).
    pub graph: Graph,
    /// `nodes[new_id] = old_id`.
    pub nodes: Vec<usize>,
    /// `edge_origin[new_edge_id] = old_edge_id`.
    pub edge_origin: Vec<usize>,
    /// The target node's id within `graph`.
    pub target: usize,
}

impl KhopSubgraph {
    /// Maps a subgraph node id back to the original graph.
    pub fn original_node(&self, new_id: usize) -> usize {
        self.nodes[new_id]
    }

    /// Maps a subgraph edge id back to the original graph.
    pub fn original_edge(&self, new_edge_id: usize) -> usize {
        self.edge_origin[new_edge_id]
    }
}

/// Extracts the `hops`-hop in-neighbourhood of `target` as an induced
/// subgraph.
///
/// Nodes kept: every node with a directed path of length ≤ `hops` **to** the
/// target (information flows along edge direction). Edges kept: all stored
/// edges between kept nodes.
///
/// # Panics
///
/// Panics if `target` is out of range.
pub fn khop_subgraph(g: &Graph, target: usize, hops: usize) -> KhopSubgraph {
    assert!(target < g.num_nodes(), "khop_subgraph: target out of range");

    // Reverse adjacency: for each node, its in-neighbours.
    let mut in_nbrs: Vec<Vec<usize>> = vec![Vec::new(); g.num_nodes()];
    for &(s, d) in g.edges() {
        in_nbrs[d as usize].push(s as usize);
    }

    let mut dist = vec![usize::MAX; g.num_nodes()];
    dist[target] = 0;
    let mut frontier = vec![target];
    for d in 1..=hops {
        let mut next = Vec::new();
        for &v in &frontier {
            for &u in &in_nbrs[v] {
                if dist[u] == usize::MAX {
                    dist[u] = d;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }

    let nodes: Vec<usize> = (0..g.num_nodes())
        .filter(|&v| dist[v] != usize::MAX)
        .collect();
    let mut new_id = vec![usize::MAX; g.num_nodes()];
    for (i, &v) in nodes.iter().enumerate() {
        new_id[v] = i;
    }

    let mut b = Graph::builder(nodes.len(), g.feat_dim());
    let mut edge_origin = Vec::new();
    for (eid, &(s, d)) in g.edges().iter().enumerate() {
        let (s, d) = (s as usize, d as usize);
        if new_id[s] != usize::MAX && new_id[d] != usize::MAX {
            b.edge(new_id[s], new_id[d]);
            edge_origin.push(eid);
        }
    }
    if let Some(labels) = g.node_labels() {
        b.node_labels(nodes.iter().map(|&v| labels[v]).collect());
    }
    if let Some(gl) = g.graph_label() {
        b.graph_label(gl);
    }

    KhopSubgraph {
        graph: b
            .build()
            .with_sparse_features(g.features().select_rows(&nodes)),
        target: new_id[target],
        nodes,
        edge_origin,
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// Chain 0 -> 1 -> 2 -> 3 -> 4 with an isolated node 5.
    fn chain() -> Graph {
        let mut b = Graph::builder(6, 2);
        for i in 0..4 {
            b.edge(i, i + 1);
        }
        for v in 0..6 {
            b.node_features(v, &[v as f32, 0.0]);
        }
        b.node_labels(vec![0, 1, 0, 1, 0, 1]);
        b.build()
    }

    #[test]
    fn two_hop_around_middle() {
        let sub = khop_subgraph(&chain(), 3, 2);
        // Nodes with directed path of length <= 2 to node 3: {1, 2, 3}.
        assert_eq!(sub.nodes, vec![1, 2, 3]);
        assert_eq!(sub.graph.num_nodes(), 3);
        assert_eq!(sub.graph.num_edges(), 2);
        assert_eq!(sub.original_node(sub.target), 3);
        // Features and labels carried over.
        assert_eq!(sub.graph.feature_row(0), &[1.0, 0.0]);
        assert_eq!(sub.graph.node_labels().unwrap(), &[1, 0, 1]);
    }

    #[test]
    fn edge_origin_maps_back() {
        let g = chain();
        let sub = khop_subgraph(&g, 3, 2);
        for (new_e, &(s, d)) in sub.graph.edges().iter().enumerate() {
            let old = g.edges()[sub.original_edge(new_e)];
            assert_eq!(old.0 as usize, sub.original_node(s as usize));
            assert_eq!(old.1 as usize, sub.original_node(d as usize));
        }
    }

    #[test]
    fn hop_zero_is_just_the_target() {
        let sub = khop_subgraph(&chain(), 2, 0);
        assert_eq!(sub.graph.num_nodes(), 1);
        assert_eq!(sub.graph.num_edges(), 0);
        assert_eq!(sub.target, 0);
    }

    #[test]
    fn isolated_nodes_are_dropped() {
        let sub = khop_subgraph(&chain(), 4, 5);
        assert!(!sub.nodes.contains(&5));
        assert_eq!(sub.nodes.len(), 5);
    }
}
