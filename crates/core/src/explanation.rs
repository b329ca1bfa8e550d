//! The [`Explainer`] trait and [`Explanation`] output type shared by
//! REVELIO and every baseline.

use std::sync::Arc;

use revelio_gnn::{Gnn, Instance};
use revelio_graph::{FlowIndex, MpGraph};

use crate::control::{ControlledExplanation, ExplainControl};

/// The explanation objective lives beside the loss op that evaluates it.
pub use revelio_tensor::Objective;

/// Flow-level scores attached to an explanation by flow-based methods
/// (REVELIO, GNN-LRP, FlowX).
pub struct FlowScores {
    /// The enumerated flows this explanation scored, shared via `Arc` so a
    /// cache-resident index is referenced rather than copied.
    pub index: Arc<FlowIndex>,
    /// One importance score per flow, aligned with `index`.
    pub scores: Vec<f32>,
}

impl FlowScores {
    /// Flow ids sorted by descending score (IEEE total order, so a `NaN`
    /// score from a diverged run sorts deterministically instead of
    /// panicking; ties broken by id).
    pub fn ranking(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.scores.len()).collect();
        ids.sort_by(|&a, &b| self.scores[b].total_cmp(&self.scores[a]).then(a.cmp(&b)));
        ids
    }

    /// The `k` highest-scoring flows as `(flow_id, score)` pairs.
    pub fn top_k(&self, k: usize) -> Vec<(usize, f32)> {
        self.ranking()
            .into_iter()
            .take(k)
            .map(|f| (f, self.scores[f]))
            .collect()
    }
}

/// The output of an explainer on one instance.
pub struct Explanation {
    /// Importance of each *original* (stored) edge of the instance graph,
    /// aggregated across GNN layers; higher = more important. Length equals
    /// `graph.num_edges()`.
    pub edge_scores: Vec<f32>,
    /// Per-layer scores over *layer edges* (original edges followed by
    /// self-loops), when the method distinguishes layers.
    pub layer_edge_scores: Option<Vec<Vec<f32>>>,
    /// Flow-level scores, for flow-based methods.
    pub flows: Option<FlowScores>,
}

impl Explanation {
    /// Builds an edge-only explanation.
    pub fn from_edge_scores(edge_scores: Vec<f32>) -> Explanation {
        Explanation {
            edge_scores,
            layer_edge_scores: None,
            flows: None,
        }
    }

    /// Edge ids sorted by descending importance (IEEE total order; ties
    /// broken by id for determinism).
    pub fn ranked_edges(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = (0..self.edge_scores.len()).collect();
        ids.sort_by(|&a, &b| {
            self.edge_scores[b]
                .total_cmp(&self.edge_scores[a])
                .then(a.cmp(&b))
        });
        ids
    }

    /// The `k` most important edge ids.
    pub fn top_edges(&self, k: usize) -> Vec<usize> {
        self.ranked_edges().into_iter().take(k).collect()
    }

    /// Layer-edge ids ranked within one GNN layer — the paper's
    /// "importance scores for edges within individual GNN layers"
    /// translation. Returns `None` when the method does not distinguish
    /// layers.
    pub fn layer_ranked_edges(&self, layer: usize) -> Option<Vec<usize>> {
        let scores = self.layer_edge_scores.as_ref()?.get(layer)?;
        let mut ids: Vec<usize> = (0..scores.len()).collect();
        ids.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]).then(a.cmp(&b)));
        Some(ids)
    }
}

/// A post-hoc instance-level GNN explainer.
pub trait Explainer {
    /// Method name as it appears in the paper's tables.
    fn name(&self) -> &'static str;

    /// Explains the model's prediction on one instance.
    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation;

    /// Group-level methods (PGExplainer, GraphMask) train a shared network
    /// over a set of instances before explaining; instance-level methods
    /// ignore this call.
    fn fit(&self, _model: &Gnn, _instances: &[&Instance]) {}

    /// Deadline- and budget-aware entry point used by the serving runtime.
    ///
    /// Implementations should (a) reuse `ctl.flow_index` when compatible
    /// instead of re-enumerating flows, (b) poll `ctl.deadline` between
    /// optimisation epochs and return the best answer seen so far once it
    /// expires, and (c) when `ctl.shrink_on_overflow` is set, degrade (shrink
    /// the flow set to the cap) rather than fail on oversized instances —
    /// reporting everything through [`Degradation`].
    ///
    /// The default implementation ignores the controls and wraps
    /// [`Explainer::explain`], which keeps every method servable; methods
    /// with per-instance optimisation loops override it.
    ///
    /// [`Degradation`]: crate::Degradation
    fn explain_controlled(
        &self,
        model: &Gnn,
        instance: &Instance,
        ctl: &ExplainControl,
    ) -> ControlledExplanation {
        let _ = ctl;
        ControlledExplanation::complete(self.explain(model, instance))
    }
}

/// Translates flow scores into layer-edge and original-edge scores.
///
/// The layer-edge score is the sum of the scores of the flows traversing
/// that layer edge (the aggregation of Eq. 3 with `f = Σ`); the
/// original-edge score is the mean of its per-layer scores — the paper's
/// "across the entire GNN" translation.
pub fn aggregate_flow_scores(
    mp: &MpGraph,
    index: &FlowIndex,
    scores: &[f32],
) -> (Vec<Vec<f32>>, Vec<f32>) {
    assert_eq!(scores.len(), index.num_flows(), "one score per flow");
    let layers = index.num_layers();
    let ne = mp.layer_edge_count();
    let mut layer_scores = vec![vec![0.0f32; ne]; layers];
    for (l, ls) in layer_scores.iter_mut().enumerate() {
        for (e, s) in ls.iter_mut().enumerate() {
            for &f in index.flows_through(l, e) {
                *s += scores[f as usize];
            }
        }
    }
    let mut edge_scores = vec![0.0f32; mp.num_orig_edges()];
    for (e, es) in edge_scores.iter_mut().enumerate() {
        let sum: f32 = layer_scores.iter().map(|ls| ls[e]).sum();
        *es = sum / layers as f32;
    }
    (layer_scores, edge_scores)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_graph::{Graph, Target};

    #[test]
    fn ranked_edges_descending_and_deterministic() {
        let e = Explanation::from_edge_scores(vec![0.1, 0.9, 0.5, 0.9]);
        assert_eq!(e.ranked_edges(), vec![1, 3, 2, 0]);
        assert_eq!(e.top_edges(2), vec![1, 3]);
    }

    #[test]
    fn layer_ranked_edges_per_layer() {
        let e = Explanation {
            edge_scores: vec![0.0, 0.0],
            layer_edge_scores: Some(vec![vec![0.1, 0.9, 0.5], vec![0.7, 0.2, 0.3]]),
            flows: None,
        };
        assert_eq!(e.layer_ranked_edges(0).unwrap(), vec![1, 2, 0]);
        assert_eq!(e.layer_ranked_edges(1).unwrap(), vec![0, 2, 1]);
        assert!(e.layer_ranked_edges(2).is_none());
        let plain = Explanation::from_edge_scores(vec![0.5]);
        assert!(plain.layer_ranked_edges(0).is_none());
    }

    #[test]
    fn flow_ranking() {
        let mut b = Graph::builder(2, 1);
        b.edge(0, 1);
        let mp = MpGraph::new(&b.build());
        let index = Arc::new(FlowIndex::build(&mp, 2, Target::Node(1), 100).unwrap());
        let scores: Vec<f32> = (0..index.num_flows()).map(|i| i as f32).collect();
        let fs = FlowScores { index, scores };
        let top = fs.top_k(2);
        assert_eq!(top[0].0, fs.index.num_flows() - 1);
    }

    #[test]
    fn aggregate_distributes_and_averages() {
        // 0 -> 1, 2-layer flows to node 1: 0→1→1, 0→0→1(?), 1→1→1 ...
        let mut b = Graph::builder(2, 1);
        b.edge(0, 1);
        let g = b.build();
        let mp = MpGraph::new(&g);
        let index = FlowIndex::build(&mp, 2, Target::Node(1), 100).unwrap();
        let scores = vec![1.0f32; index.num_flows()];
        let (layer_scores, edge_scores) = aggregate_flow_scores(&mp, &index, &scores);
        // Per layer, total mass = num_flows.
        for ls in &layer_scores {
            let total: f32 = ls.iter().sum();
            assert!((total - index.num_flows() as f32).abs() < 1e-5);
        }
        assert_eq!(edge_scores.len(), 1);
        assert!(edge_scores[0] > 0.0);
    }
}
