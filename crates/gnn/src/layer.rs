//! Individual GNN layers with mask-aware message passing.
//!
//! Each layer implements the three steps of §III — message calculation,
//! aggregation, update — with an optional `[|E|, 1]` layer-edge mask
//! multiplied into the message step (Eq. 6). Layer edges are those of
//! [`MpGraph`](revelio_graph::MpGraph): the stored directed edges plus one
//! self-loop per node. A layer runs over a [`LayerEdges`] — the full index
//! or a plan trimmed to a target's receptive field — from its input rows to
//! its output rows.

use revelio_graph::LayerEdges;
use revelio_tensor::{glorot_uniform, CsrMatrix, Tensor};

/// A single GNN layer.
pub enum Layer {
    /// Kipf & Welling graph convolution with symmetric normalisation.
    Gcn { weight: Tensor, bias: Tensor },
    /// Graph Isomorphism Network layer; the `(1+ε)·h_v` self term is carried
    /// by the self-loop edge so flow masks gate it uniformly, and the update
    /// is a two-layer MLP.
    Gin {
        w1: Tensor,
        b1: Tensor,
        w2: Tensor,
        b2: Tensor,
    },
    /// Graph attention layer with `heads` attention heads. Hidden layers
    /// concatenate head outputs; the final layer averages them.
    Gat {
        weight: Tensor,
        bias: Tensor,
        /// Per head: `[head_dim, 1]` source attention vector.
        att_src: Vec<Tensor>,
        /// Per head: `[head_dim, 1]` destination attention vector.
        att_dst: Vec<Tensor>,
        heads: usize,
        /// Average head outputs instead of concatenating (final layer).
        average_heads: bool,
    },
}

impl Layer {
    /// Creates a GCN layer.
    pub fn gcn(in_dim: usize, out_dim: usize, seed: u64) -> Layer {
        Layer::Gcn {
            weight: glorot_uniform(in_dim, out_dim, seed).requires_grad(),
            bias: Tensor::zeros(1, out_dim).requires_grad(),
        }
    }

    /// Creates a GIN layer with a 2-layer MLP update.
    pub fn gin(in_dim: usize, out_dim: usize, seed: u64) -> Layer {
        Layer::Gin {
            w1: glorot_uniform(in_dim, out_dim, seed).requires_grad(),
            b1: Tensor::zeros(1, out_dim).requires_grad(),
            w2: glorot_uniform(out_dim, out_dim, seed ^ 0x9e37_79b9).requires_grad(),
            b2: Tensor::zeros(1, out_dim).requires_grad(),
        }
    }

    /// Creates a GAT layer.
    ///
    /// When concatenating (`average_heads == false`), `out_dim` must be a
    /// multiple of `heads`; when averaging, every head has dimension
    /// `out_dim`.
    pub fn gat(
        in_dim: usize,
        out_dim: usize,
        heads: usize,
        average_heads: bool,
        seed: u64,
    ) -> Layer {
        let head_dim = if average_heads {
            out_dim
        } else {
            assert_eq!(out_dim % heads, 0, "GAT: out_dim must divide into heads");
            out_dim / heads
        };
        let total = head_dim * heads;
        let att_src = (0..heads)
            .map(|h| glorot_uniform(head_dim, 1, seed ^ (0xa11 + h as u64)).requires_grad())
            .collect();
        let att_dst = (0..heads)
            .map(|h| glorot_uniform(head_dim, 1, seed ^ (0xb22 + h as u64)).requires_grad())
            .collect();
        Layer::Gat {
            weight: glorot_uniform(in_dim, total, seed).requires_grad(),
            bias: Tensor::zeros(1, if average_heads { head_dim } else { total }).requires_grad(),
            att_src,
            att_dst,
            heads,
            average_heads,
        }
    }

    /// All trainable parameters of the layer.
    pub fn params(&self) -> Vec<Tensor> {
        match self {
            Layer::Gcn { weight, bias } => vec![weight.clone(), bias.clone()],
            Layer::Gin { w1, b1, w2, b2 } => {
                vec![w1.clone(), b1.clone(), w2.clone(), b2.clone()]
            }
            Layer::Gat {
                weight,
                bias,
                att_src,
                att_dst,
                ..
            } => {
                let mut p = vec![weight.clone(), bias.clone()];
                p.extend(att_src.iter().cloned());
                p.extend(att_dst.iter().cloned());
                p
            }
        }
    }

    /// Output dimensionality given the layer parameters.
    pub fn out_dim(&self) -> usize {
        match self {
            Layer::Gcn { weight, .. } => weight.cols(),
            Layer::Gin { w2, .. } => w2.cols(),
            Layer::Gat {
                weight,
                heads,
                average_heads,
                ..
            } => {
                if *average_heads {
                    weight.cols() / heads
                } else {
                    weight.cols()
                }
            }
        }
    }

    /// Forward pass over `edges`: `h` is `[edges.n_in(), in_dim]`, `mask`
    /// (if given) is `[|edges|, 1]` over the kept layer edges, `gcn_norm`
    /// is the GCN normalisation of those edges (ignored by the other
    /// architectures). The result has `edges.n_out()` rows.
    pub fn forward(
        &self,
        edges: &LayerEdges,
        h: &Tensor,
        mask: Option<&Tensor>,
        gcn_norm: &Tensor,
    ) -> Tensor {
        self.forward_fused(edges, h, mask, gcn_norm, None)
    }

    /// [`Layer::forward`] with an optional trailing activation fused into
    /// the final bias add: with `trailing_slope = Some(s)` the result is
    /// bit-identical to `forward(..).leaky_relu(s)` but saves the extra
    /// full-matrix passes per epoch of mask optimization.
    pub fn forward_fused(
        &self,
        edges: &LayerEdges,
        h: &Tensor,
        mask: Option<&Tensor>,
        gcn_norm: &Tensor,
        trailing_slope: Option<f32>,
    ) -> Tensor {
        self.propagate(edges, &self.transform(h), mask, gcn_norm, trailing_slope)
    }

    /// The layer's first step, `h · W` (`W₁` for GIN): every architecture
    /// transforms node features before gathering messages, and the result
    /// depends on neither the graph nor the mask. Mask-learning loops
    /// compute it once for the first layer and [`Layer::propagate`] from it
    /// every epoch.
    pub fn transform(&self, h: &Tensor) -> Tensor {
        match self {
            Layer::Gcn { weight, .. } | Layer::Gat { weight, .. } => h.matmul(weight),
            Layer::Gin { w1, .. } => h.matmul(w1),
        }
    }

    /// [`Layer::transform`] of sparse features: `x · W` by
    /// [`Tensor::csr_matmul`], bit-identical to `transform` of the dense
    /// `x`.
    pub fn transform_sparse(&self, x: &CsrMatrix) -> Tensor {
        match self {
            Layer::Gcn { weight, .. } | Layer::Gat { weight, .. } => Tensor::csr_matmul(x, weight),
            Layer::Gin { w1, .. } => Tensor::csr_matmul(x, w1),
        }
    }

    /// Everything of [`Layer::forward_fused`] after [`Layer::transform`]:
    /// `hw` is `transform(h)`, and `forward_fused(edges, h, ..)` is exactly
    /// `propagate(edges, &transform(h), ..)`.
    pub fn propagate(
        &self,
        edges: &LayerEdges,
        hw: &Tensor,
        mask: Option<&Tensor>,
        gcn_norm: &Tensor,
        trailing_slope: Option<f32>,
    ) -> Tensor {
        if let Some(m) = mask {
            assert_eq!(
                m.shape(),
                (edges.ids().len(), 1),
                "layer-edge mask has wrong shape"
            );
        }
        let finish = |t: Tensor, bias: &Tensor| match trailing_slope {
            Some(s) => t.bias_leaky_relu(bias, s),
            None => t.add_row_broadcast(bias),
        };
        // Gather, edge scaling (GCN norm or GAT attention, then the mask)
        // and sum aggregation, fused: no `[|E|, d]` message matrix.
        let pass = |h: &Tensor, coef: Option<&Tensor>| h.message_pass(edges.edges(), coef, mask);
        match self {
            Layer::Gcn { bias, .. } => finish(pass(hw, Some(gcn_norm)), bias),
            Layer::Gin { b1, w2, b2, .. } => {
                // The first MLP matmul commutes with the (linear) sum
                // aggregation, so `transform` applies it before gathering:
                // messages are then `out_dim` wide instead of `in_dim` wide
                // — a large saving on high-dimensional inputs (e.g.
                // Citeseer's 3703).
                let agg = pass(hw, None);
                // Leaky slope avoids whole-layer dying-ReLU collapse, which
                // full-batch training on constant-feature graphs provokes
                // (the original uses batch norm for the same reason).
                finish(agg.bias_leaky_relu(b1, 0.01).matmul(w2), b2)
            }
            Layer::Gat {
                bias,
                att_src,
                att_dst,
                heads,
                average_heads,
                ..
            } => {
                let head_dim = hw.cols() / heads;
                let mut head_outs: Option<Tensor> = None;
                for k in 0..*heads {
                    let hw_k = hw.slice_cols(k * head_dim, (k + 1) * head_dim);
                    let a_src = hw_k.matmul(&att_src[k]);
                    let a_dst = hw_k.matmul(&att_dst[k]);
                    // Both endpoints are input rows; the softmax groups
                    // each output row's in-edges.
                    let logits = a_src
                        .gather_rows(edges.edges().src())
                        .add(&a_dst.gather_rows(edges.dst_in()))
                        .leaky_relu(0.2);
                    let att = logits.segment_softmax(edges.edges().dst());
                    let agg = pass(&hw_k, Some(&att));
                    head_outs = Some(match head_outs {
                        None => agg,
                        Some(prev) => {
                            if *average_heads {
                                prev.add(&agg)
                            } else {
                                prev.concat_cols(&agg)
                            }
                        }
                    });
                }
                let out = head_outs.expect("at least one head");
                let out = if *average_heads {
                    out.mul_scalar(1.0 / *heads as f32)
                } else {
                    out
                };
                finish(out, bias)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_graph::{Graph, MpGraph};

    fn tiny() -> (MpGraph, Tensor) {
        let mut b = Graph::builder(3, 4);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        let g = b.build();
        let mp = MpGraph::new(&g);
        let x = Tensor::from_vec((0..12).map(|i| i as f32 * 0.1).collect(), 3, 4);
        (mp, x)
    }

    fn norm_tensor(mp: &MpGraph) -> Tensor {
        Tensor::from_vec(mp.gcn_norm(), mp.layer_edge_count(), 1)
    }

    #[test]
    fn gcn_forward_shape_and_grad() {
        let (mp, x) = tiny();
        let layer = Layer::gcn(4, 8, 0);
        let norm = norm_tensor(&mp);
        let out = layer.forward(mp.layer_edges(), &x, None, &norm);
        assert_eq!(out.shape(), (3, 8));
        out.sum_all().backward();
        for p in layer.params() {
            assert!(p.has_grad());
        }
    }

    #[test]
    fn gin_forward_shape() {
        let (mp, x) = tiny();
        let layer = Layer::gin(4, 6, 1);
        let norm = norm_tensor(&mp);
        assert_eq!(
            layer.forward(mp.layer_edges(), &x, None, &norm).shape(),
            (3, 6)
        );
        assert_eq!(layer.out_dim(), 6);
    }

    #[test]
    fn gat_concat_and_average_shapes() {
        let (mp, x) = tiny();
        let norm = norm_tensor(&mp);
        let cat = Layer::gat(4, 8, 4, false, 2);
        assert_eq!(
            cat.forward(mp.layer_edges(), &x, None, &norm).shape(),
            (3, 8)
        );
        assert_eq!(cat.out_dim(), 8);
        let avg = Layer::gat(4, 5, 4, true, 3);
        assert_eq!(
            avg.forward(mp.layer_edges(), &x, None, &norm).shape(),
            (3, 5)
        );
        assert_eq!(avg.out_dim(), 5);
        // 2 params + 2 * heads attention vectors.
        assert_eq!(avg.params().len(), 2 + 8);
    }

    #[test]
    fn zero_mask_blocks_all_messages() {
        let (mp, x) = tiny();
        let norm = norm_tensor(&mp);
        let layer = Layer::gcn(4, 4, 4);
        let zero_mask = Tensor::zeros(mp.layer_edge_count(), 1);
        let out = layer.forward(mp.layer_edges(), &x, Some(&zero_mask), &norm);
        // With all messages blocked only the bias (zero-init) remains.
        assert!(out.to_vec().iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn ones_mask_is_identity() {
        let (mp, x) = tiny();
        let norm = norm_tensor(&mp);
        let layer = Layer::gin(4, 4, 5);
        let unmasked = layer.forward(mp.layer_edges(), &x, None, &norm).to_vec();
        let ones = Tensor::ones(mp.layer_edge_count(), 1);
        let masked = layer
            .forward(mp.layer_edges(), &x, Some(&ones), &norm)
            .to_vec();
        for (a, b) in unmasked.iter().zip(&masked) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn masking_one_edge_changes_only_reachable_nodes() {
        let (mp, x) = tiny();
        let norm = norm_tensor(&mp);
        let layer = Layer::gcn(4, 4, 6);
        let base = layer.forward(mp.layer_edges(), &x, None, &norm).to_vec();
        // Block edge 0 (0 -> 1): only node 1's output may change.
        let mut mask = vec![1.0f32; mp.layer_edge_count()];
        mask[0] = 0.0;
        let m = Tensor::from_vec(mask, mp.layer_edge_count(), 1);
        let out = layer
            .forward(mp.layer_edges(), &x, Some(&m), &norm)
            .to_vec();
        for j in 0..4 {
            assert!((base[j] - out[j]).abs() < 1e-6, "node 0 changed");
            assert!((base[8 + j] - out[8 + j]).abs() < 1e-6, "node 2 changed");
        }
        let node1_changed = (0..4).any(|j| (base[4 + j] - out[4 + j]).abs() > 1e-6);
        assert!(node1_changed);
    }
}
