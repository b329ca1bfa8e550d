//! The message-passing view of a graph: the self-loop-augmented layer-edge
//! set shared by all layers of an `L`-layer GNN, and the per-layer edge
//! plans trimmed to a target's receptive field.

use std::collections::VecDeque;
use std::sync::Arc;

use revelio_tensor::EdgeIndex;

use crate::graph::Graph;

/// The layer edges one GNN layer runs over, as an [`EdgeIndex`] from the
/// layer's input rows to its output rows.
///
/// [`MpGraph::layer_edges`] is the full index: every node is both an input
/// and an output row and `ids` is `0..|E|`. A plan from [`MpGraph::plan`]
/// keeps only the rows and edges that can reach its targets.
#[derive(Debug, Clone)]
pub struct LayerEdges {
    edges: Arc<EdgeIndex>,
    ids: Vec<usize>,
    dst_in: Vec<usize>,
}

impl LayerEdges {
    /// Kept edge `k` is layer edge `ids[k]`, sending input row
    /// `edges.src()[k]` to output row `edges.dst()[k]`; its destination
    /// node is input row `dst_in[k]`.
    ///
    /// # Panics
    ///
    /// Panics if `ids` or `dst_in` has a length other than `edges.len()`,
    /// `ids` is not strictly ascending, or an entry of `dst_in` is not an
    /// input row.
    pub fn new(edges: Arc<EdgeIndex>, ids: Vec<usize>, dst_in: Vec<usize>) -> LayerEdges {
        assert!(
            ids.len() == edges.len() && dst_in.len() == edges.len(),
            "LayerEdges: {} ids and {} destination rows for {} edges",
            ids.len(),
            dst_in.len(),
            edges.len()
        );
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "LayerEdges: ids must be strictly ascending"
        );
        if let Some(r) = dst_in.iter().find(|&&r| r >= edges.n_in()) {
            panic!(
                "LayerEdges: destination row {r} out of bounds for {} input rows",
                edges.n_in()
            );
        }
        LayerEdges { edges, ids, dst_in }
    }

    /// The kept edges, from the layer's input rows to its output rows.
    pub fn edges(&self) -> &Arc<EdgeIndex> {
        &self.edges
    }

    /// The layer-edge id of each kept edge, strictly ascending: row `k` of
    /// a mask over these edges is layer edge `ids()[k]`.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The input row of each kept edge's destination node (attention reads
    /// the destination's features there).
    pub fn dst_in(&self) -> &[usize] {
        &self.dst_in
    }
}

/// Gather/scatter-ready layer-edge arrays for message passing.
///
/// Layer edges are the stored directed edges of the [`Graph`] followed by one
/// self-loop per node, so `layer_edge_count() == graph.num_edges() + n`.
/// Edge `e < num_orig_edges` corresponds to original edge id `e`; edge
/// `num_orig_edges + v` is the self-loop of node `v`. All GNN layers share
/// this edge set — a *layer edge* `e_ij^l` of the paper is `(l, e)`.
#[derive(Debug, Clone)]
pub struct MpGraph {
    num_nodes: usize,
    num_orig_edges: usize,
    /// The full index: node `v` is row `v` on both sides.
    full: LayerEdges,
}

impl MpGraph {
    /// Builds the message-passing view of `g`, appending one self-loop per
    /// node after the original edges.
    pub fn new(g: &Graph) -> Self {
        let n = g.num_nodes();
        let m = g.num_edges();
        let total = m + n;
        let mut src = Vec::with_capacity(total);
        let mut dst = Vec::with_capacity(total);
        for &(s, d) in g.edges() {
            src.push(s as usize);
            dst.push(d as usize);
        }
        for v in 0..n {
            src.push(v);
            dst.push(v);
        }
        let dst_in = dst.clone();
        MpGraph {
            num_nodes: n,
            num_orig_edges: m,
            full: LayerEdges::new(
                Arc::new(EdgeIndex::new(n, n, src, dst)),
                (0..total).collect(),
                dst_in,
            ),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of original (stored) edges, i.e. self-loops excluded.
    pub fn num_orig_edges(&self) -> usize {
        self.num_orig_edges
    }

    /// Total layer edges: original edges plus one self-loop per node.
    pub fn layer_edge_count(&self) -> usize {
        self.full.ids.len()
    }

    /// The full index every layer runs over when nothing is trimmed.
    pub fn layer_edges(&self) -> &LayerEdges {
        &self.full
    }

    /// Source node of each layer edge.
    pub fn src(&self) -> &[usize] {
        self.full.edges.src()
    }

    /// Destination node of each layer edge.
    pub fn dst(&self) -> &[usize] {
        self.full.edges.dst()
    }

    /// Whether layer edge `e` is a self-loop.
    pub fn is_self_loop(&self, e: usize) -> bool {
        e >= self.num_orig_edges
    }

    /// The original edge id of layer edge `e`, or `None` for self-loops.
    pub fn orig_edge_id(&self, e: usize) -> Option<usize> {
        (e < self.num_orig_edges).then_some(e)
    }

    /// The self-loop layer-edge id of node `v`.
    pub fn self_loop_edge(&self, v: usize) -> usize {
        self.num_orig_edges + v
    }

    /// Layer-edge ids entering node `v`, ascending.
    pub fn in_edges(&self, v: usize) -> &[u32] {
        self.full.edges.in_edges(v)
    }

    /// Layer-edge ids leaving node `v`, ascending.
    pub fn out_edges(&self, v: usize) -> &[u32] {
        self.full.edges.out_edges(v)
    }

    /// In-degree of `v` counting the self-loop.
    pub fn in_degree(&self, v: usize) -> usize {
        self.in_edges(v).len()
    }

    /// GCN symmetric normalisation `1 / sqrt(deg_in(i) * deg_in(j))` per
    /// layer edge, with degrees counted on the self-loop-augmented graph
    /// (matching Kipf & Welling's `D^{-1/2} (A+I) D^{-1/2}` for undirected
    /// inputs).
    pub fn gcn_norm(&self) -> Vec<f32> {
        let deg: Vec<f32> = (0..self.num_nodes)
            .map(|v| self.in_degree(v) as f32)
            .collect();
        self.src()
            .iter()
            .zip(self.dst())
            .map(|(&s, &d)| 1.0 / (deg[s] * deg[d]).sqrt())
            .collect()
    }

    /// Per-layer edge plans of an `layers`-layer GNN trimmed to what can
    /// reach `targets` (node ids, in any order, repeats allowed).
    ///
    /// Layer `l` (0-based) outputs the nodes within `layers - 1 - l` hops
    /// of a target (over in-edges), in ascending node id, and keeps the
    /// layer edges into them, in ascending id. Layer 0 reads every node;
    /// layer `l > 0` reads layer `l - 1`'s outputs, which hold every source
    /// of a kept edge. The last layer therefore outputs exactly the
    /// distinct targets, ascending. Every message flow ending at a target
    /// crosses only kept edges, and each kept output row sums the same
    /// messages in the same order as over [`MpGraph::layer_edges`].
    ///
    /// # Panics
    ///
    /// Panics if a target is not a node.
    pub fn plan(&self, targets: &[usize], layers: usize) -> Vec<LayerEdges> {
        let n = self.num_nodes;
        // Multi-source BFS against the edge direction: hops[v] is v's
        // distance to the nearest target, capped at the deepest layer.
        let reach = layers.saturating_sub(1);
        let mut hops = vec![usize::MAX; n];
        let mut queue = VecDeque::new();
        for &t in targets {
            assert!(
                t < n,
                "MpGraph::plan: target {t} out of bounds for {n} nodes"
            );
            if hops[t] == usize::MAX {
                hops[t] = 0;
                queue.push_back(t);
            }
        }
        while let Some(v) = queue.pop_front() {
            if hops[v] == reach {
                continue;
            }
            for &e in self.in_edges(v) {
                let u = self.src()[e as usize];
                if hops[u] == usize::MAX {
                    hops[u] = hops[v] + 1;
                    queue.push_back(u);
                }
            }
        }

        let (src, dst) = (self.src(), self.dst());
        // Row of each node among the current layer's inputs (`usize::MAX`
        // when absent); layer 0 reads every node.
        let mut in_row: Vec<usize> = (0..n).collect();
        let mut n_in = n;
        (0..layers)
            .map(|l| {
                let radius = layers - 1 - l;
                let mut out_row = vec![usize::MAX; n];
                let mut n_out = 0;
                for v in (0..n).filter(|&v| hops[v] <= radius) {
                    out_row[v] = n_out;
                    n_out += 1;
                }
                let ids: Vec<usize> = (0..self.layer_edge_count())
                    .filter(|&e| out_row[dst[e]] != usize::MAX)
                    .collect();
                let local_src = ids.iter().map(|&e| in_row[src[e]]).collect();
                let local_dst = ids.iter().map(|&e| out_row[dst[e]]).collect();
                let dst_in = ids.iter().map(|&e| in_row[dst[e]]).collect();
                let edges = Arc::new(EdgeIndex::new(n_in, n_out, local_src, local_dst));
                in_row = out_row;
                n_in = n_out;
                LayerEdges::new(edges, ids, dst_in)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> Graph {
        // 0 -> 1 -> 2
        let mut b = Graph::builder(3, 1);
        b.edge(0, 1).edge(1, 2);
        b.build()
    }

    #[test]
    fn appends_self_loops() {
        let mp = MpGraph::new(&path_graph());
        assert_eq!(mp.layer_edge_count(), 5);
        assert_eq!(mp.num_orig_edges(), 2);
        assert!(mp.is_self_loop(2));
        assert_eq!(mp.self_loop_edge(1), 3);
        assert_eq!(mp.orig_edge_id(0), Some(0));
        assert_eq!(mp.orig_edge_id(4), None);
    }

    #[test]
    fn in_out_edges() {
        let mp = MpGraph::new(&path_graph());
        // node 1: in = edge 0 (0->1) + self-loop 3
        let mut ins: Vec<u32> = mp.in_edges(1).to_vec();
        ins.sort_unstable();
        assert_eq!(ins, vec![0, 3]);
        let mut outs: Vec<u32> = mp.out_edges(1).to_vec();
        outs.sort_unstable();
        assert_eq!(outs, vec![1, 3]);
        assert_eq!(mp.in_degree(0), 1);
        assert_eq!(mp.in_degree(2), 2);
    }

    /// A path 0 → 1 → … → 6 into target 6, a branch 7 → 3, and a
    /// disconnected pair 8 ⇄ 9: nodes up to six hops out, wider than any
    /// plan below reaches.
    fn wide_graph() -> Graph {
        let mut b = Graph::builder(10, 1);
        for v in 0..6 {
            b.edge(v, v + 1);
        }
        b.edge(7, 3).undirected_edge(8, 9);
        b.build()
    }

    /// Nodes within `radius` in-edge hops of some target, by brute force.
    fn within(mp: &MpGraph, targets: &[usize], radius: usize) -> Vec<usize> {
        let mut near: Vec<usize> = targets.to_vec();
        for _ in 0..radius {
            let mut next = near.clone();
            for (&s, &d) in mp.src().iter().zip(mp.dst()) {
                if near.contains(&d) {
                    next.push(s);
                }
            }
            near = next;
        }
        near.sort_unstable();
        near.dedup();
        near
    }

    /// Checks `plan` against the brute-force hop sets: each layer's output
    /// rows, its kept ids (ascending, exactly the edges into an output
    /// node), and every local endpoint.
    fn check_plan(mp: &MpGraph, targets: &[usize], layers: usize) {
        let plan = mp.plan(targets, layers);
        assert_eq!(plan.len(), layers);
        let mut inputs: Vec<usize> = (0..mp.num_nodes()).collect();
        for (l, le) in plan.iter().enumerate() {
            let outputs = within(mp, targets, layers - 1 - l);
            let row = |nodes: &[usize], v| nodes.binary_search(&v).expect("node is a row");
            assert_eq!(le.edges().n_in(), inputs.len(), "layer {l} inputs");
            assert_eq!(le.edges().n_out(), outputs.len(), "layer {l} outputs");
            let expect: Vec<usize> = (0..mp.layer_edge_count())
                .filter(|&e| outputs.contains(&mp.dst()[e]))
                .collect();
            assert_eq!(le.ids(), expect, "layer {l} ids");
            for (k, &e) in le.ids().iter().enumerate() {
                assert_eq!(le.edges().src()[k], row(&inputs, mp.src()[e]));
                assert_eq!(le.edges().dst()[k], row(&outputs, mp.dst()[e]));
                assert_eq!(le.dst_in()[k], row(&inputs, mp.dst()[e]));
            }
            inputs = outputs;
        }
        let mut last = targets.to_vec();
        last.sort_unstable();
        last.dedup();
        assert_eq!(inputs, last, "the last layer outputs the distinct targets");
    }

    #[test]
    fn plan_layers_output_the_hop_sets() {
        let mp = MpGraph::new(&wide_graph());
        check_plan(&mp, &[6], 3);
        check_plan(&mp, &[6], 1);
        check_plan(&mp, &[3, 9, 3], 2);
        check_plan(&mp, &[9, 6], 4);
        let plan = mp.plan(&[6], 3);
        // Within 2 hops of 6: {4, 5, 6}; within 1 hop: {5, 6}; then 6.
        let outs: Vec<usize> = plan.iter().map(|le| le.edges().n_out()).collect();
        assert_eq!(outs, vec![3, 2, 1]);
    }

    #[test]
    fn plan_keeps_every_flow_carrying_edge() {
        use crate::flows::{FlowIndex, Target};
        let mp = MpGraph::new(&wide_graph());
        for (targets, layers) in [(vec![6], 3), (vec![3], 3), (vec![6, 9], 2), (vec![4], 4)] {
            let plan = mp.plan(&targets, layers);
            for &t in &targets {
                let index = FlowIndex::build(&mp, layers, Target::Node(t), 100_000)
                    .expect("small graph fits the cap");
                assert!(index.num_flows() > 0);
                for (l, le) in plan.iter().enumerate() {
                    let inc = index.incidence(l);
                    for e in (0..inc.rows()).filter(|&e| !inc.row(e).is_empty()) {
                        assert!(
                            le.ids().binary_search(&e).is_ok(),
                            "layer {l} drops flow edge {e} into target {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_layer_edges_read_and_write_every_node() {
        let mp = MpGraph::new(&wide_graph());
        let full = mp.layer_edges();
        assert_eq!((full.edges().n_in(), full.edges().n_out()), (10, 10));
        assert_eq!(full.ids(), (0..mp.layer_edge_count()).collect::<Vec<_>>());
        assert_eq!(full.dst_in(), mp.dst());
    }

    #[test]
    #[should_panic(expected = "ids must be strictly ascending")]
    fn layer_edges_reject_unordered_ids() {
        let edges = Arc::new(EdgeIndex::new(2, 2, vec![0, 1], vec![1, 1]));
        let _ = LayerEdges::new(edges, vec![4, 2], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "destination row 2 out of bounds for 2 input rows")]
    fn layer_edges_reject_a_destination_outside_the_inputs() {
        let edges = Arc::new(EdgeIndex::new(2, 2, vec![0, 1], vec![1, 1]));
        let _ = LayerEdges::new(edges, vec![2, 4], vec![1, 2]);
    }

    #[test]
    fn gcn_norm_symmetric() {
        let mp = MpGraph::new(&path_graph());
        let norm = mp.gcn_norm();
        // deg_in with self loops: [1, 2, 2]
        let expect0 = 1.0 / (1.0f32 * 2.0).sqrt(); // edge 0->1
        assert!((norm[0] - expect0).abs() < 1e-6);
        let self0 = 1.0 / (1.0f32 * 1.0).sqrt();
        assert!((norm[2] - self0).abs() < 1e-6);
    }
}
