//! FlowX (Gui et al., 2023): flow-level Shapley-style attribution via
//! marginal-contribution sampling, refined by a learning stage.
//!
//! Stage 1 samples random layer-edge removal patterns; each sample's
//! prediction drop is divided equally among the message flows the removal
//! destroyed (the paper's marginal-contribution estimator). Stage 2 seeds
//! learnable flow masks from those estimates and fine-tunes them against the
//! explanation objective — FlowX's "learning" step. Unlike REVELIO, the
//! masks use a plain `σ(I · M)` transform without the tanh squashing or
//! per-layer `exp(w)` weights.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use revelio_core::{
    ControlledExplanation, Deadline, Degradation, ExplainControl, Explainer, Explanation,
    FlowScores, Objective,
};
use revelio_gnn::{Gnn, Instance};
use revelio_graph::FlowIndex;
use revelio_tensor::{Adam, Optimizer, Tensor};

/// FlowX hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct FlowXConfig {
    /// Marginal-contribution sampling iterations (stage 1).
    pub samples: usize,
    /// Per-layer-edge removal probability during sampling.
    pub remove_prob: f64,
    /// Learning-refinement epochs (stage 2).
    pub epochs: usize,
    pub lr: f32,
    /// Sparsity strength in the refinement objective.
    pub alpha: f32,
    pub objective: Objective,
    pub max_flows: usize,
    pub seed: u64,
}

impl Default for FlowXConfig {
    fn default() -> Self {
        FlowXConfig {
            samples: 25,
            remove_prob: 0.15,
            epochs: 100,
            lr: 1e-2,
            alpha: 0.05,
            objective: Objective::Factual,
            max_flows: 2_000_000,
            seed: 0,
        }
    }
}

/// The FlowX baseline.
pub struct FlowX {
    cfg: FlowXConfig,
}

impl FlowX {
    pub fn new(cfg: FlowXConfig) -> FlowX {
        FlowX { cfg }
    }

    pub fn factual() -> FlowX {
        Self::new(FlowXConfig::default())
    }

    pub fn counterfactual() -> FlowX {
        Self::new(FlowXConfig {
            objective: Objective::Counterfactual,
            ..Default::default()
        })
    }

    /// Stage 1: Shapley-style marginal-contribution estimates per flow,
    /// each sample propagated from `xw`, the instance's
    /// [`Instance::input_transform`]. Stops sampling early (keeping the
    /// estimates accumulated so far) once `deadline` expires.
    fn sample_marginals(
        &self,
        model: &Gnn,
        instance: &Instance,
        index: &FlowIndex,
        xw: &Tensor,
        deadline: &Deadline,
    ) -> Vec<f32> {
        let cfg = &self.cfg;
        let layers = index.num_layers();
        let ne = instance.mp.layer_edge_count();
        let nf = index.num_flows();
        let base = instance.orig_prob();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        let mut marginal = vec![0.0f64; nf];
        let mut count = vec![0u32; nf];
        let mut removed_flags = vec![false; nf];
        for _ in 0..cfg.samples {
            if deadline.expired() {
                break;
            }
            // Random removal pattern over layer edges, independent per layer.
            let removed: Vec<Vec<bool>> = (0..layers)
                .map(|_| (0..ne).map(|_| rng.gen_bool(cfg.remove_prob)).collect())
                .collect();
            // Which flows lose at least one of their layer edges.
            removed_flags.fill(false);
            let mut n_removed = 0usize;
            for (f, flag) in removed_flags.iter_mut().enumerate() {
                let edges = index.flow(f);
                if edges
                    .iter()
                    .enumerate()
                    .any(|(l, &e)| removed[l][e as usize])
                {
                    *flag = true;
                    n_removed += 1;
                }
            }
            if n_removed == 0 {
                continue;
            }
            let masks: Vec<Tensor> = removed
                .iter()
                .map(|layer_removed| {
                    Tensor::from_vec(
                        layer_removed
                            .iter()
                            .map(|&r| if r { 0.0 } else { 1.0 })
                            .collect(),
                        ne,
                        1,
                    )
                })
                .collect();
            let prob = model
                .target_logits_from(&instance.mp, xw, Some(&masks), instance.target)
                .log_softmax_rows()
                .get(0, instance.class)
                .exp();
            let delta = (base - prob) as f64 / n_removed as f64;
            for (f, &flag) in removed_flags.iter().enumerate() {
                if flag {
                    marginal[f] += delta;
                    count[f] += 1;
                }
            }
        }
        marginal
            .iter()
            .zip(&count)
            .map(|(&m, &c)| if c > 0 { (m / c as f64) as f32 } else { 0.0 })
            .collect()
    }
}

impl Explainer for FlowX {
    fn name(&self) -> &'static str {
        "FlowX"
    }

    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        self.explain_controlled(model, instance, &ExplainControl::default())
            .explanation
    }

    /// Budget-aware entry point: reuses a cache-shared flow index, shrinks
    /// oversized flow sets instead of failing when `shrink_on_overflow` is
    /// set, and polls the deadline in both the sampling and the refinement
    /// stage, returning the masks learned so far on expiry.
    fn explain_controlled(
        &self,
        model: &Gnn,
        instance: &Instance,
        ctl: &ExplainControl,
    ) -> ControlledExplanation {
        let cfg = &self.cfg;
        let layers = model.num_layers();
        let mut degradation = Degradation {
            epochs_planned: cfg.epochs,
            ..Default::default()
        };
        let index: Arc<FlowIndex> = match &ctl.flow_index {
            Some(idx) if idx.num_layers() == layers => Arc::clone(idx),
            _ if ctl.shrink_on_overflow => {
                let capped =
                    FlowIndex::build_capped(&instance.mp, layers, instance.target, cfg.max_flows);
                degradation.flows_dropped = capped.dropped;
                Arc::new(capped.index)
            }
            _ => Arc::new(
                FlowIndex::build(&instance.mp, layers, instance.target, cfg.max_flows)
                    .unwrap_or_else(|e| panic!("FlowX: {e}")),
            ),
        };
        let ne = instance.mp.layer_edge_count();

        // The first layer's `x · W` does not depend on the masks: one
        // product serves every sample and every refinement epoch.
        let xw = instance.input_transform(model);
        let shapley = self.sample_marginals(model, instance, &index, &xw, &ctl.deadline);

        // Stage 2: learning refinement, masks seeded from the estimates.
        let max_abs = shapley
            .iter()
            .fold(0.0f32, |a, &s| a.max(s.abs()))
            .max(1e-6);
        let init: Vec<f32> = shapley.iter().map(|&s| 3.0 * s / max_abs).collect();
        let mask_params = Tensor::from_vec(init, index.num_flows(), 1).requires_grad();
        let mut opt = Adam::new(vec![mask_params.clone()], cfg.lr);

        for epoch in 0..cfg.epochs {
            if ctl.deadline.expired() {
                degradation.deadline_hit = true;
                break;
            }
            degradation.epochs_run = epoch + 1;
            opt.zero_grad();
            let masks: Vec<Tensor> = (0..layers)
                .map(|l| mask_params.sp_matvec(index.incidence(l)).sigmoid())
                .collect();
            let lp_c = model
                .target_logits_from(&instance.mp, &xw, Some(&masks), instance.target)
                .log_softmax_rows()
                .slice_cols(instance.class, instance.class + 1);
            let objective = match cfg.objective {
                Objective::Factual => lp_c.neg(),
                Objective::Counterfactual => {
                    lp_c.exp().neg().add_scalar(1.0).clamp_min(1e-6).ln().neg()
                }
            };
            // Fold the per-layer regulariser terms straight into the loss so
            // the sum needs no non-empty witness (layers ≥ 1 holds, but
            // nothing here depends on it).
            let scale = cfg.alpha / layers as f32;
            let mut loss = objective;
            for mask in &masks {
                let term = match cfg.objective {
                    Objective::Factual => mask.mean_all(),
                    Objective::Counterfactual => mask.neg().add_scalar(1.0).mean_all(),
                };
                loss = loss.add(&term.mul_scalar(scale));
            }
            loss.backward();
            opt.step();
        }

        // Refined masks drive the edge ranking; the reported flow scores are
        // the stage-1 Shapley estimates (matching the paper's Table VI/VII
        // magnitudes), sign-flipped for counterfactual mode.
        let final_masks: Vec<Vec<f32>> = (0..layers)
            .map(|l| {
                let m = mask_params.sp_matvec(index.incidence(l)).sigmoid().to_vec();
                match cfg.objective {
                    Objective::Factual => m,
                    Objective::Counterfactual => m.iter().map(|v| 1.0 - v).collect(),
                }
            })
            .collect();
        let m = instance.mp.num_orig_edges();
        let edge_scores: Vec<f32> = (0..m)
            .map(|e| final_masks.iter().map(|ls| ls[e]).sum::<f32>() / layers as f32)
            .collect();
        let _ = ne;
        let flow_scores = match cfg.objective {
            Objective::Factual => shapley,
            Objective::Counterfactual => shapley.iter().map(|s| -s).collect(),
        };

        ControlledExplanation {
            explanation: Explanation {
                edge_scores,
                layer_edge_scores: Some(final_masks),
                flows: Some(FlowScores {
                    index,
                    scores: flow_scores,
                }),
            },
            degradation,
            converged_mask: None,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind, Task};
    use revelio_graph::{Graph, Target};

    fn setup() -> (Gnn, Instance) {
        let mut b = Graph::builder(4, 2);
        b.undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(2, 3);
        for v in 0..4 {
            b.node_features(v, &[1.0, v as f32 * 0.2]);
        }
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            2,
            2,
            101,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Node(2));
        (model, inst)
    }

    #[test]
    fn produces_flow_and_edge_scores() {
        let (model, inst) = setup();
        let exp = FlowX::new(FlowXConfig {
            samples: 8,
            epochs: 10,
            ..Default::default()
        })
        .explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), 6);
        let flows = exp.flows.expect("flow scores");
        assert!(flows.scores.iter().all(|s| s.is_finite()));
        assert!(exp.edge_scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, inst) = setup();
        let cfg = FlowXConfig {
            samples: 5,
            epochs: 5,
            ..Default::default()
        };
        let a = FlowX::new(cfg).explain(&model, &inst);
        let b = FlowX::new(cfg).explain(&model, &inst);
        assert_eq!(a.edge_scores, b.edge_scores);
        assert_eq!(a.flows.unwrap().scores, b.flows.unwrap().scores);
    }
}
