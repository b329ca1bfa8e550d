//! [`Plan`]: the edges each layer of one forward pass runs over.

use revelio_graph::{LayerEdges, MpGraph};
use revelio_tensor::Tensor;

/// One [`LayerEdges`] per GNN layer plus the GCN normalisation column of
/// its kept edges, built once so a mask-learning loop reuses it every
/// epoch.
///
/// [`Plan::full`] runs every layer over the whole graph;
/// [`Plan::trimmed`] keeps, per layer, only the rows and edges that reach
/// the targets, and its last layer outputs one row per distinct target in
/// ascending node id.
pub struct Plan {
    layers: Vec<LayerEdges>,
    norms: Vec<Tensor>,
}

impl Plan {
    /// Every one of `layers` layers over the full index of `mp`.
    pub fn full(mp: &MpGraph, layers: usize) -> Plan {
        let norm = Tensor::from_vec(mp.gcn_norm(), mp.layer_edge_count(), 1);
        Plan {
            layers: vec![mp.layer_edges().clone(); layers],
            norms: vec![norm; layers],
        }
    }

    /// The receptive-field plan of [`MpGraph::plan`] for `targets`.
    pub fn trimmed(mp: &MpGraph, targets: &[usize], layers: usize) -> Plan {
        let norm = mp.gcn_norm();
        let plan = mp.plan(targets, layers);
        let norms = plan
            .iter()
            .map(|le| {
                let col: Vec<f32> = le.ids().iter().map(|&e| norm[e]).collect();
                Tensor::from_vec(col, le.ids().len(), 1)
            })
            .collect();
        Plan {
            layers: plan,
            norms,
        }
    }

    /// The per-layer edges, layer 0 first.
    pub fn layers(&self) -> &[LayerEdges] {
        &self.layers
    }

    /// Layer `l`'s GCN normalisation over its kept edges, `[|edges|, 1]`.
    pub fn norm(&self, l: usize) -> &Tensor {
        &self.norms[l]
    }
}
