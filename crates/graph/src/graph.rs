//! The [`Graph`] container: directed edges, node features, labels.

use std::collections::HashSet;

use revelio_tensor::CsrMatrix;

/// A directed graph with sparse node features.
///
/// Features are held in one CSR form ([`CsrMatrix`], `[num_nodes,
/// feat_dim]`) that stores only non-zero entries: the bag-of-words rows of
/// the citation datasets are ~1.3% non-zero. The builder still takes dense
/// rows; `features().to_dense()` materialises the dense matrix for the
/// callers that need one (training, perturbation baselines).
///
/// Edges are directed and self-loops are *not* stored here — the
/// message-passing view ([`crate::MpGraph`]) adds them, matching the paper's
/// convention ("edges are considered as directed without self-loops",
/// Table III) while GNN layers still aggregate each node's own state.
///
/// Undirected datasets store both edge directions explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    num_nodes: usize,
    edges: Vec<(u32, u32)>,
    features: CsrMatrix,
    node_labels: Option<Vec<usize>>,
    graph_label: Option<usize>,
}

impl Graph {
    /// Starts building a graph with `num_nodes` nodes and `feat_dim`
    /// features per node (initialised to zero).
    pub fn builder(num_nodes: usize, feat_dim: usize) -> GraphBuilder {
        GraphBuilder {
            num_nodes,
            feat_dim,
            edges: Vec::new(),
            seen: HashSet::new(),
            rows: vec![Vec::new(); num_nodes],
            node_labels: None,
            graph_label: None,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of directed edges (excluding self-loops, which are never stored).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Feature dimensionality.
    pub fn feat_dim(&self) -> usize {
        self.features.cols()
    }

    /// The directed edge list; index into it is the *original edge id* used
    /// by explanations and fidelity evaluation.
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// The `[num_nodes, feat_dim]` feature matrix in CSR form.
    pub fn features(&self) -> &CsrMatrix {
        &self.features
    }

    /// The feature row of one node, materialised dense.
    pub fn feature_row(&self, node: usize) -> Vec<f32> {
        self.features.dense_row(node)
    }

    /// Per-node labels, if this is a node-classification graph.
    pub fn node_labels(&self) -> Option<&[usize]> {
        self.node_labels.as_deref()
    }

    /// The graph-level label, if this is a graph-classification instance.
    pub fn graph_label(&self) -> Option<usize> {
        self.graph_label
    }

    /// Whether the directed edge `src -> dst` exists.
    pub fn has_edge(&self, src: usize, dst: usize) -> bool {
        self.edges
            .iter()
            .any(|&(s, d)| s as usize == src && d as usize == dst)
    }

    /// In-degree of `node` (number of stored edges ending at it).
    pub fn in_degree(&self, node: usize) -> usize {
        self.edges
            .iter()
            .filter(|&&(_, d)| d as usize == node)
            .count()
    }

    /// Out-degree of `node`.
    pub fn out_degree(&self, node: usize) -> usize {
        self.edges
            .iter()
            .filter(|&&(s, _)| s as usize == node)
            .count()
    }

    /// Returns a copy of this graph restricted to the edges whose ids appear
    /// in `keep` (node set, features and labels are unchanged).
    ///
    /// This is the perturbation primitive for Fidelity evaluation: removing
    /// "unimportant" (Fidelity−) or "important" (Fidelity+) edges.
    pub fn with_edges(&self, keep: &[usize]) -> Graph {
        let mut edges = Vec::with_capacity(keep.len());
        for &e in keep {
            assert!(e < self.edges.len(), "with_edges: edge id {e} out of range");
            edges.push(self.edges[e]);
        }
        Graph {
            num_nodes: self.num_nodes,
            edges,
            features: self.features.clone(),
            node_labels: self.node_labels.clone(),
            graph_label: self.graph_label,
        }
    }

    /// This graph with its feature matrix replaced by `features`, already
    /// in CSR form (the wire decoder, subgraph extraction).
    ///
    /// # Panics
    ///
    /// Panics if `features` is not `[num_nodes, feat_dim]`.
    pub fn with_sparse_features(mut self, features: CsrMatrix) -> Graph {
        assert_eq!(
            (features.rows(), features.cols()),
            (self.num_nodes, self.feat_dim()),
            "with_sparse_features: shape mismatch"
        );
        self.features = features;
        self
    }

    /// Replaces the feature matrix with a row-major dense one (used by
    /// perturbation-based baselines).
    ///
    /// # Panics
    ///
    /// Panics if the new matrix has the wrong length.
    pub fn with_features(&self, features: Vec<f32>) -> Graph {
        assert_eq!(
            features.len(),
            self.num_nodes * self.feat_dim(),
            "with_features: length mismatch"
        );
        Graph {
            num_nodes: self.num_nodes,
            edges: self.edges.clone(),
            features: CsrMatrix::from_dense(&features, self.num_nodes, self.feat_dim()),
            node_labels: self.node_labels.clone(),
            graph_label: self.graph_label,
        }
    }
}

/// Incremental builder for [`Graph`].
pub struct GraphBuilder {
    num_nodes: usize,
    feat_dim: usize,
    edges: Vec<(u32, u32)>,
    seen: HashSet<(u32, u32)>,
    /// Per node, the non-zero `(column, value)` entries in ascending column
    /// order; empty rows allocate nothing.
    rows: Vec<Vec<(u32, f32)>>,
    node_labels: Option<Vec<usize>>,
    graph_label: Option<usize>,
}

impl GraphBuilder {
    /// Adds a directed edge `src -> dst`. Duplicate edges and self-loops are
    /// rejected.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or duplicates.
    pub fn edge(&mut self, src: usize, dst: usize) -> &mut Self {
        assert!(
            src < self.num_nodes && dst < self.num_nodes,
            "edge endpoint out of range"
        );
        assert_ne!(
            src, dst,
            "self-loops are added by the message-passing view, not stored"
        );
        let key = (src as u32, dst as u32);
        assert!(self.seen.insert(key), "duplicate edge {src}->{dst}");
        self.edges.push(key);
        self
    }

    /// Adds both directions of an undirected edge.
    pub fn undirected_edge(&mut self, a: usize, b: usize) -> &mut Self {
        self.edge(a, b).edge(b, a)
    }

    /// Whether an edge was already added.
    pub fn has_edge(&self, src: usize, dst: usize) -> bool {
        self.seen.contains(&(src as u32, dst as u32))
    }

    /// Sets one node's feature row, given densely; only its non-zero
    /// entries are kept.
    pub fn node_features(&mut self, node: usize, feats: &[f32]) -> &mut Self {
        assert_eq!(feats.len(), self.feat_dim, "feature row length mismatch");
        self.rows[node] = feats
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(c, &v)| (c as u32, v))
            .collect();
        self
    }

    /// Sets the full row-major feature matrix at once.
    pub fn all_features(&mut self, feats: Vec<f32>) -> &mut Self {
        assert_eq!(
            feats.len(),
            self.num_nodes * self.feat_dim,
            "feature matrix length mismatch"
        );
        for (v, row) in feats.chunks_exact(self.feat_dim.max(1)).enumerate() {
            self.node_features(v, row);
        }
        self
    }

    /// Sets per-node labels (node classification).
    pub fn node_labels(&mut self, labels: Vec<usize>) -> &mut Self {
        assert_eq!(labels.len(), self.num_nodes, "one label per node required");
        self.node_labels = Some(labels);
        self
    }

    /// Sets the graph-level label (graph classification).
    pub fn graph_label(&mut self, label: usize) -> &mut Self {
        self.graph_label = Some(label);
        self
    }

    /// Finalises the graph.
    pub fn build(&mut self) -> Graph {
        let nnz = self.rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(self.num_nodes + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in std::mem::take(&mut self.rows) {
            for (c, v) in row {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        let features =
            CsrMatrix::try_from_parts(self.num_nodes, self.feat_dim, row_ptr, col_idx, values)
                .expect("builder rows are ascending, in range and non-zero");
        self.rows = vec![Vec::new(); self.num_nodes];
        Graph {
            num_nodes: self.num_nodes,
            edges: std::mem::take(&mut self.edges),
            features,
            node_labels: self.node_labels.take(),
            graph_label: self.graph_label,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(0, 2);
        b.node_features(0, &[1.0, 0.0]);
        b.node_labels(vec![0, 1, 0]);
        b.build()
    }

    #[test]
    fn builder_produces_expected_graph() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 6);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.out_degree(1), 2);
        assert_eq!(g.feature_row(0), &[1.0, 0.0]);
        assert_eq!(g.node_labels().unwrap(), &[0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut b = Graph::builder(2, 1);
        b.edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate() {
        let mut b = Graph::builder(2, 1);
        b.edge(0, 1).edge(0, 1);
    }

    #[test]
    fn with_edges_subsets() {
        let g = triangle();
        let sub = g.with_edges(&[0, 1]);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.edges()[0], g.edges()[0]);
    }

    #[test]
    fn with_features_replaces_matrix() {
        let g = triangle();
        let g2 = g.with_features(vec![9.0; 6]);
        assert_eq!(g2.feature_row(2), &[9.0, 9.0]);
        assert_eq!(g.feature_row(0), &[1.0, 0.0]);
    }
}
