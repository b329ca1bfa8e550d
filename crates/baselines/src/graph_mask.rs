//! GraphMask (Schlichtkrull et al., 2021): amortised per-layer edge gates
//! trained with an L0-style sparsity penalty.
//!
//! The variant here keeps GraphMask's two distinctive properties — one gate
//! network *per GNN layer* (so an edge can matter at layer 1 but not layer
//! 3) and amortised training over a group of instances — while realising the
//! hard-concrete gate as a plain sigmoid with an L0 surrogate penalty.

use std::cell::RefCell;

use revelio_core::{Explainer, Explanation, Objective};
use revelio_gnn::{Gnn, Instance};

use crate::NotFitted;
use revelio_tensor::{glorot_uniform, Adam, Optimizer, Tensor};

/// GraphMask hyperparameters (paper setup: learning rate 1e-2, 200 epochs).
#[derive(Debug, Clone, Copy)]
pub struct GraphMaskConfig {
    pub epochs: usize,
    pub lr: f32,
    pub hidden: usize,
    /// L0-surrogate penalty weight.
    pub l0_coeff: f32,
    pub objective: Objective,
    pub seed: u64,
}

impl Default for GraphMaskConfig {
    fn default() -> Self {
        GraphMaskConfig {
            epochs: 40,
            lr: 1e-2,
            hidden: 32,
            l0_coeff: 0.02,
            objective: Objective::Factual,
            seed: 0,
        }
    }
}

impl GraphMaskConfig {
    /// The paper's full budget (200 epochs).
    pub fn paper() -> Self {
        GraphMaskConfig {
            epochs: 200,
            ..Default::default()
        }
    }
}

struct GateNet {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
}

impl GateNet {
    fn new(in_dim: usize, hidden: usize, seed: u64) -> GateNet {
        GateNet {
            w1: glorot_uniform(in_dim, hidden, seed).requires_grad(),
            b1: Tensor::zeros(1, hidden).requires_grad(),
            w2: glorot_uniform(hidden, 1, seed ^ 0x6a7e).requires_grad(),
            // Bias towards open gates at initialisation.
            b2: Tensor::full(2.0, 1, 1).requires_grad(),
        }
    }

    fn params(&self) -> Vec<Tensor> {
        vec![
            self.w1.clone(),
            self.b1.clone(),
            self.w2.clone(),
            self.b2.clone(),
        ]
    }

    /// Gate values in (0,1) for every layer edge of `instance` given the
    /// layer's input embeddings `h`.
    fn gates(&self, instance: &Instance, h: &Tensor) -> Tensor {
        let src = h.gather_rows(instance.mp.src());
        let dst = h.gather_rows(instance.mp.dst());
        src.concat_cols(&dst)
            .matmul(&self.w1)
            .add_row_broadcast(&self.b1)
            .relu()
            .matmul(&self.w2)
            .add_row_broadcast(&self.b2)
            .sigmoid()
    }
}

/// The GraphMask baseline. Like [`crate::PgExplainer`], fit over a group of
/// instances first; an unfitted explainer self-fits on its single instance.
pub struct GraphMask {
    cfg: GraphMaskConfig,
    gates: RefCell<Option<Vec<GateNet>>>,
}

impl GraphMask {
    pub fn new(cfg: GraphMaskConfig) -> GraphMask {
        GraphMask {
            cfg,
            gates: RefCell::new(None),
        }
    }

    /// Whether [`GraphMask::fit`] has run.
    pub fn is_fitted(&self) -> bool {
        self.gates.borrow().is_some()
    }

    /// Per-layer input embeddings (detached): the features for layer 1, then
    /// each layer's output for the next.
    fn layer_inputs(model: &Gnn, instance: &Instance) -> Vec<Tensor> {
        let outs = model.forward_layers(&instance.mp, &instance.x, None);
        let mut inputs = Vec::with_capacity(model.num_layers());
        inputs.push(instance.x.detach());
        for out in outs.iter().take(model.num_layers() - 1) {
            inputs.push(out.detach());
        }
        inputs
    }

    fn masks_for(gates: &[GateNet], instance: &Instance, inputs: &[Tensor]) -> Vec<Tensor> {
        inputs
            .iter()
            .zip(gates)
            .map(|(h, g)| g.gates(instance, h))
            .collect()
    }

    /// Trains the per-layer gate networks over a group of instances.
    pub fn fit_group(&self, model: &Gnn, instances: &[&Instance]) {
        assert!(!instances.is_empty(), "GraphMask.fit needs instances");
        let cfg = &self.cfg;
        let layers = model.num_layers();
        let in_dim_first = 2 * model.config().in_dim;
        let in_dim_rest = 2 * model.config().hidden_dim;
        let gates: Vec<GateNet> = (0..layers)
            .map(|l| {
                let in_dim = if l == 0 { in_dim_first } else { in_dim_rest };
                GateNet::new(in_dim, cfg.hidden, cfg.seed ^ (l as u64 * 0x3f))
            })
            .collect();
        let mut params = Vec::new();
        for g in &gates {
            params.extend(g.params());
        }
        let mut opt = Adam::new(params, cfg.lr);

        // Per instance, everything the gates do not change: the layer
        // inputs the gate networks read, and the first layer's `x · W`.
        let prepared: Vec<(Vec<Tensor>, Tensor)> = instances
            .iter()
            .map(|inst| (Self::layer_inputs(model, inst), inst.input_transform(model)))
            .collect();

        for _ in 0..cfg.epochs {
            for (inst, (inputs, xw)) in instances.iter().zip(&prepared) {
                opt.zero_grad();
                let masks = Self::masks_for(&gates, inst, inputs);
                let out = model.target_logits_from(&inst.mp, xw, Some(&masks), inst.target);
                let lp_c = out
                    .log_softmax_rows()
                    .slice_cols(inst.class, inst.class + 1);
                let objective = match cfg.objective {
                    Objective::Factual => lp_c.neg(),
                    Objective::Counterfactual => {
                        lp_c.exp().neg().add_scalar(1.0).clamp_min(1e-6).ln().neg()
                    }
                };
                // Fold the per-layer penalty terms straight into the loss so
                // the sum needs no non-empty witness (layers ≥ 1 holds, but
                // nothing here depends on it).
                let scale = cfg.l0_coeff / layers as f32;
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
        }
        *self.gates.borrow_mut() = Some(gates);
    }

    /// Pure inference through the fitted gate networks; refuses with
    /// [`NotFitted`] instead of self-fitting, so callers that require the
    /// group-level semantics never silently degrade to instance-level.
    pub fn try_explain(&self, model: &Gnn, instance: &Instance) -> Result<Explanation, NotFitted> {
        let gates_ref = self.gates.borrow();
        let gates = gates_ref.as_ref().ok_or(NotFitted {
            method: "GraphMask",
        })?;
        let masks = Self::masks_for(gates, instance, &Self::layer_inputs(model, instance));
        let mut layer_edge_scores: Vec<Vec<f32>> = masks.iter().map(Tensor::to_vec).collect();
        if self.cfg.objective == Objective::Counterfactual {
            for ls in &mut layer_edge_scores {
                for v in ls.iter_mut() {
                    *v = 1.0 - *v;
                }
            }
        }
        let m = instance.mp.num_orig_edges();
        let layers = layer_edge_scores.len() as f32;
        let edge_scores: Vec<f32> = (0..m)
            .map(|e| layer_edge_scores.iter().map(|ls| ls[e]).sum::<f32>() / layers)
            .collect();
        Ok(Explanation {
            edge_scores,
            layer_edge_scores: Some(layer_edge_scores),
            flows: None,
        })
    }
}

impl Explainer for GraphMask {
    fn name(&self) -> &'static str {
        "GraphMask"
    }

    fn fit(&self, model: &Gnn, instances: &[&Instance]) {
        self.fit_group(model, instances);
    }

    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        match self.try_explain(model, instance) {
            Ok(exp) => exp,
            Err(NotFitted { .. }) => {
                self.fit_group(model, &[instance]);
                // fit_group unconditionally installs the gate networks.
                match self.try_explain(model, instance) {
                    Ok(exp) => exp,
                    Err(e) => unreachable!("{e}"),
                }
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind, Task};
    use revelio_graph::{Graph, Target};

    #[test]
    fn per_layer_scores_and_edge_aggregation() {
        let mut b = Graph::builder(4, 2);
        b.undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(2, 3);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            2,
            2,
            61,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Node(2));
        let gm = GraphMask::new(GraphMaskConfig {
            epochs: 4,
            ..Default::default()
        });
        let exp = gm.explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), 6);
        let ls = exp.layer_edge_scores.as_ref().unwrap();
        assert_eq!(ls.len(), 3);
        // Layer-edge vectors cover self-loops too.
        assert_eq!(ls[0].len(), inst.mp.layer_edge_count());
        assert!(exp.edge_scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }
}
