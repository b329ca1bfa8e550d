//! The unit of explanation: one graph, one prediction target.

use revelio_graph::{Graph, MpGraph, Target};
use revelio_tensor::Tensor;

use crate::model::Gnn;

/// An explanation instance: the (sub)graph an explainer operates on, the
/// prediction target, and the class to explain.
///
/// For node classification this is typically the `L`-hop computation
/// subgraph around the target (see [`revelio_graph::khop_subgraph`]); for
/// graph classification it is the whole input graph.
pub struct Instance {
    /// The graph being explained.
    pub graph: Graph,
    /// Cached message-passing view of `graph`.
    pub mp: MpGraph,
    /// Feature tensor of `graph`, materialised dense from its CSR form for
    /// the explainers that perturb or differentiate the input. The
    /// first-layer transform runs from the CSR form instead
    /// ([`Instance::input_transform`]).
    pub x: Tensor,
    /// What is being predicted.
    pub target: Target,
    /// The class under explanation (usually the model's prediction).
    pub class: usize,
    /// The model's class probabilities on the unperturbed instance.
    pub orig_probs: Vec<f32>,
}

impl Instance {
    /// Builds an instance explaining the model's own prediction on
    /// `(graph, target)`.
    ///
    /// # Panics
    ///
    /// Panics if the graph's feature width is not the model's input width.
    pub fn for_prediction(model: &Gnn, graph: Graph, target: Target) -> Instance {
        let mp = MpGraph::new(&graph);
        let probs = model.predict_probs_on(&mp, &graph, target);
        let class = crate::model::argmax(&probs);
        Self::with_mp(graph, mp, target, class, probs)
    }

    /// Builds an instance explaining a specific class, with precomputed
    /// original probabilities.
    pub fn for_class(graph: Graph, target: Target, class: usize, orig_probs: Vec<f32>) -> Instance {
        let mp = MpGraph::new(&graph);
        Self::with_mp(graph, mp, target, class, orig_probs)
    }

    fn with_mp(
        graph: Graph,
        mp: MpGraph,
        target: Target,
        class: usize,
        orig_probs: Vec<f32>,
    ) -> Instance {
        let x = Gnn::features_tensor(&graph);
        Instance {
            graph,
            mp,
            x,
            target,
            class,
            orig_probs,
        }
    }

    /// The first layer's `x · W` of this instance, computed from the CSR
    /// features ([`Gnn::input_transform_sparse`]); bit-identical to
    /// `model.input_transform(&self.x)`.
    pub fn input_transform(&self, model: &Gnn) -> Tensor {
        model.input_transform_sparse(self.graph.features())
    }

    /// The model's probability of the explained class on the original graph.
    pub fn orig_prob(&self) -> f32 {
        self.orig_probs[self.class]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{GnnConfig, GnnKind, Task};

    #[test]
    fn for_prediction_picks_argmax_class() {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        b.node_features(0, &[1.0, 0.0]);
        let g = b.build();
        let m = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            2,
            3,
            7,
        ));
        let inst = Instance::for_prediction(&m, g, Target::Node(1));
        let best = inst
            .orig_probs
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(inst.orig_prob(), best);
        assert_eq!(inst.mp.num_nodes(), 3);
    }
}
