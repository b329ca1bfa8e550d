//! GNNExplainer (Ying et al., 2019): a learnable edge mask, shared across
//! GNN layers, optimised per instance.

use revelio_core::{
    ControlledExplanation, Degradation, ExplainControl, Explainer, Explanation, Objective,
};
use revelio_gnn::{Gnn, Instance};
use revelio_tensor::{uniform, Adam, Optimizer, Tensor};

/// GNNExplainer hyperparameters. Defaults follow the paper's setup
/// (§V-A: learning rate 1e-2, 500 epochs) and the original regularisers.
#[derive(Debug, Clone, Copy)]
pub struct GnnExplainerConfig {
    pub epochs: usize,
    pub lr: f32,
    /// Mask-size penalty coefficient.
    pub size_coeff: f32,
    /// Mask-entropy penalty coefficient (pushes masks towards 0/1).
    pub entropy_coeff: f32,
    pub objective: Objective,
    pub seed: u64,
}

impl Default for GnnExplainerConfig {
    fn default() -> Self {
        GnnExplainerConfig {
            epochs: 500,
            lr: 1e-2,
            size_coeff: 0.005,
            entropy_coeff: 0.1,
            objective: Objective::Factual,
            seed: 0,
        }
    }
}

/// The GNNExplainer baseline.
pub struct GnnExplainer {
    cfg: GnnExplainerConfig,
}

impl GnnExplainer {
    pub fn new(cfg: GnnExplainerConfig) -> GnnExplainer {
        GnnExplainer { cfg }
    }

    pub fn factual() -> GnnExplainer {
        Self::new(GnnExplainerConfig::default())
    }

    pub fn counterfactual() -> GnnExplainer {
        Self::new(GnnExplainerConfig {
            objective: Objective::Counterfactual,
            ..Default::default()
        })
    }
}

impl Explainer for GnnExplainer {
    fn name(&self) -> &'static str {
        "GNNExplainer"
    }

    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        self.explain_controlled(model, instance, &ExplainControl::default())
            .explanation
    }

    /// Deadline-aware entry point: stops the mask optimisation early when the
    /// deadline expires; the sigmoid mask at any epoch is a structurally
    /// valid (if less converged) explanation. Flow-index controls do not
    /// apply — this method never enumerates flows.
    fn explain_controlled(
        &self,
        model: &Gnn,
        instance: &Instance,
        ctl: &ExplainControl,
    ) -> ControlledExplanation {
        let cfg = &self.cfg;
        let ne = instance.mp.layer_edge_count();
        let layers = model.num_layers();
        let mut degradation = Degradation {
            epochs_planned: cfg.epochs,
            ..Default::default()
        };

        let mask_params = uniform(ne, 1, 0.1, cfg.seed).requires_grad();
        let mut opt = Adam::new(vec![mask_params.clone()], cfg.lr);
        // The first layer's `x · W` does not depend on the mask.
        let xw = instance.input_transform(model);

        for epoch in 0..cfg.epochs {
            if ctl.deadline.expired() {
                degradation.deadline_hit = true;
                break;
            }
            degradation.epochs_run = epoch + 1;
            opt.zero_grad();
            let mask = mask_params.sigmoid();
            let masks: Vec<Tensor> = (0..layers).map(|_| mask.clone()).collect();
            let logits = model.target_logits_from(&instance.mp, &xw, Some(&masks), instance.target);
            let lp_c = logits
                .log_softmax_rows()
                .slice_cols(instance.class, instance.class + 1);
            let objective = match cfg.objective {
                Objective::Factual => lp_c.neg(),
                Objective::Counterfactual => {
                    lp_c.exp().neg().add_scalar(1.0).clamp_min(1e-6).ln().neg()
                }
            };
            // Size: mean mask (or mean kept mass for counterfactual).
            let size = match cfg.objective {
                Objective::Factual => mask.mean_all(),
                Objective::Counterfactual => mask.neg().add_scalar(1.0).mean_all(),
            };
            // Element entropy: -m log m - (1-m) log(1-m).
            let m = mask.clamp_min(1e-6);
            let om = mask.neg().add_scalar(1.0).clamp_min(1e-6);
            let entropy = m.mul(&m.ln()).add(&om.mul(&om.ln())).neg().mean_all();
            let loss = objective
                .add(&size.mul_scalar(cfg.size_coeff))
                .add(&entropy.mul_scalar(cfg.entropy_coeff));
            loss.backward();
            opt.step();
        }

        let mask = mask_params.sigmoid().to_vec();
        let m = instance.mp.num_orig_edges();
        let edge_scores: Vec<f32> = match cfg.objective {
            Objective::Factual => mask[..m].to_vec(),
            Objective::Counterfactual => mask[..m].iter().map(|v| 1.0 - v).collect(),
        };
        ControlledExplanation {
            explanation: Explanation {
                edge_scores,
                layer_edge_scores: None,
                flows: None,
            },
            degradation,
            converged_mask: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind, Task, TrainConfig};
    use revelio_graph::{Graph, Target};

    #[test]
    fn learns_mask_in_range_and_right_length() {
        let mut b = Graph::builder(4, 2);
        b.undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(2, 3);
        b.node_labels(vec![0, 1, 0, 1]);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            2,
            2,
            41,
        ));
        revelio_gnn::train_node_classifier(
            &model,
            &g,
            &[0, 1, 2, 3],
            &TrainConfig {
                epochs: 30,
                ..Default::default()
            },
        );
        let inst = Instance::for_prediction(&model, g, Target::Node(1));
        let exp = GnnExplainer::new(GnnExplainerConfig {
            epochs: 50,
            ..Default::default()
        })
        .explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), 6);
        assert!(exp.edge_scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }
}
