//! PGExplainer (Luo et al., 2020): a group-level explainer that trains a
//! shared MLP mapping endpoint embeddings to edge importance, with a
//! concrete (Gumbel-sigmoid) relaxation during training.

use std::cell::RefCell;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use revelio_core::{Explainer, Explanation, Objective};

use crate::NotFitted;
use revelio_gnn::{Gnn, Instance, Task};
use revelio_graph::Target;
use revelio_tensor::{glorot_uniform, Adam, Optimizer, Tensor};

/// PGExplainer hyperparameters. The paper's setup uses learning rate 3e-3
/// and 500 epochs; the default epoch count here is lower because training
/// iterates over the whole instance group per epoch (use
/// [`PgExplainerConfig::paper`] for the full budget).
#[derive(Debug, Clone, Copy)]
pub struct PgExplainerConfig {
    pub epochs: usize,
    pub lr: f32,
    pub hidden: usize,
    /// Concrete-distribution temperature annealed `temp_start → temp_end`.
    pub temp_start: f32,
    pub temp_end: f32,
    pub size_coeff: f32,
    pub objective: Objective,
    pub seed: u64,
}

impl Default for PgExplainerConfig {
    fn default() -> Self {
        PgExplainerConfig {
            epochs: 30,
            lr: 3e-3,
            hidden: 64,
            temp_start: 5.0,
            temp_end: 1.0,
            size_coeff: 0.01,
            objective: Objective::Factual,
            seed: 0,
        }
    }
}

impl PgExplainerConfig {
    /// The paper's full training budget (500 epochs).
    pub fn paper() -> Self {
        PgExplainerConfig {
            epochs: 500,
            ..Default::default()
        }
    }
}

struct Mlp {
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
}

impl Mlp {
    fn new(in_dim: usize, hidden: usize, seed: u64) -> Mlp {
        Mlp {
            w1: glorot_uniform(in_dim, hidden, seed).requires_grad(),
            b1: Tensor::zeros(1, hidden).requires_grad(),
            w2: glorot_uniform(hidden, 1, seed ^ 0xfeed).requires_grad(),
            b2: Tensor::zeros(1, 1).requires_grad(),
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

    fn forward(&self, x: &Tensor) -> Tensor {
        x.matmul(&self.w1)
            .add_row_broadcast(&self.b1)
            .relu()
            .matmul(&self.w2)
            .add_row_broadcast(&self.b2)
    }
}

/// The PGExplainer baseline. Call [`PgExplainer::fit`] on a group of
/// instances before explaining; an unfitted explainer fits itself on the
/// single instance it is asked to explain (degrading to instance-level).
pub struct PgExplainer {
    cfg: PgExplainerConfig,
    mlp: RefCell<Option<Mlp>>,
}

impl PgExplainer {
    pub fn new(cfg: PgExplainerConfig) -> PgExplainer {
        PgExplainer {
            cfg,
            mlp: RefCell::new(None),
        }
    }

    /// Whether [`PgExplainer::fit`] has run.
    pub fn is_fitted(&self) -> bool {
        self.mlp.borrow().is_some()
    }

    /// Node embeddings used as MLP inputs: the last hidden layer for node
    /// tasks, the final layer for graph tasks — detached from the model's
    /// autodiff graph.
    fn embeddings(model: &Gnn, instance: &Instance) -> Tensor {
        let outs = model.forward_layers(&instance.mp, &instance.x, None);
        let idx = match model.config().task {
            Task::NodeClassification => model.num_layers().saturating_sub(2),
            Task::GraphClassification => model.num_layers() - 1,
        };
        outs[idx].detach()
    }

    /// Per-layer-edge MLP input rows: `[z_u ; z_v]`, plus `z_target` for
    /// node tasks (following the original).
    fn edge_inputs(instance: &Instance, z: &Tensor) -> Tensor {
        let src = z.gather_rows(instance.mp.src());
        let dst = z.gather_rows(instance.mp.dst());
        let cat = src.concat_cols(&dst);
        match instance.target {
            Target::Node(v) => {
                let zt = z.gather_rows(&vec![v; instance.mp.layer_edge_count()]);
                cat.concat_cols(&zt)
            }
            Target::Graph => cat,
        }
    }

    fn input_dim(model: &Gnn, task_is_node: bool) -> usize {
        let h = match model.config().task {
            Task::NodeClassification => model.config().hidden_dim,
            Task::GraphClassification => model.config().hidden_dim,
        };
        if task_is_node {
            3 * h
        } else {
            2 * h
        }
    }

    /// Trains the shared edge-scoring MLP over a group of instances.
    pub fn fit_group(&self, model: &Gnn, instances: &[&Instance]) {
        assert!(!instances.is_empty(), "PGExplainer.fit needs instances");
        let cfg = &self.cfg;
        let is_node = model.config().task == Task::NodeClassification;
        let mlp = Mlp::new(Self::input_dim(model, is_node), cfg.hidden, cfg.seed);
        let mut opt = Adam::new(mlp.params(), cfg.lr);
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x96);

        // Precompute embeddings and edge inputs per instance, and the first
        // layer's mask-invariant `x · W`.
        let prepared: Vec<(Tensor, Tensor)> = instances
            .iter()
            .map(|inst| {
                let z = Self::embeddings(model, inst);
                (Self::edge_inputs(inst, &z), inst.input_transform(model))
            })
            .collect();

        for epoch in 0..cfg.epochs {
            let t = epoch as f32 / cfg.epochs.max(1) as f32;
            let temp = cfg.temp_start * (cfg.temp_end / cfg.temp_start).powf(t);
            for (inst, (inputs, xw)) in instances.iter().zip(&prepared) {
                opt.zero_grad();
                let logits = mlp.forward(inputs);
                // Concrete relaxation: σ((logit + ln u − ln(1−u)) / τ).
                let noise: Vec<f32> = (0..logits.rows())
                    .map(|_| {
                        let u: f32 = rng.gen_range(1e-6..1.0 - 1e-6);
                        u.ln() - (1.0 - u).ln()
                    })
                    .collect();
                let noise_t = Tensor::from_vec(noise, logits.rows(), 1);
                let gate = logits.add(&noise_t).mul_scalar(1.0 / temp).sigmoid();
                let masks: Vec<Tensor> = (0..model.num_layers()).map(|_| gate.clone()).collect();
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
                let size = match cfg.objective {
                    Objective::Factual => gate.mean_all(),
                    Objective::Counterfactual => gate.neg().add_scalar(1.0).mean_all(),
                };
                objective.add(&size.mul_scalar(cfg.size_coeff)).backward();
                opt.step();
            }
        }
        *self.mlp.borrow_mut() = Some(mlp);
    }

    /// Pure inference through the fitted MLP; refuses with [`NotFitted`]
    /// instead of self-fitting, so callers that require the group-level
    /// semantics never silently degrade to instance-level.
    pub fn try_explain(&self, model: &Gnn, instance: &Instance) -> Result<Explanation, NotFitted> {
        let mlp_ref = self.mlp.borrow();
        let mlp = mlp_ref.as_ref().ok_or(NotFitted {
            method: "PGExplainer",
        })?;
        let z = Self::embeddings(model, instance);
        let inputs = Self::edge_inputs(instance, &z);
        let gate = mlp.forward(&inputs).sigmoid().to_vec();
        let m = instance.mp.num_orig_edges();
        let edge_scores = match self.cfg.objective {
            Objective::Factual => gate[..m].to_vec(),
            Objective::Counterfactual => gate[..m].iter().map(|v| 1.0 - v).collect(),
        };
        Ok(Explanation::from_edge_scores(edge_scores))
    }
}

impl Explainer for PgExplainer {
    fn name(&self) -> &'static str {
        "PGExplainer"
    }

    fn fit(&self, model: &Gnn, instances: &[&Instance]) {
        self.fit_group(model, instances);
    }

    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        match self.try_explain(model, instance) {
            Ok(exp) => exp,
            Err(NotFitted { .. }) => {
                self.fit_group(model, &[instance]);
                // fit_group unconditionally installs the MLP.
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
    use revelio_gnn::{GnnConfig, GnnKind};
    use revelio_graph::Graph;

    #[test]
    fn fit_then_explain_is_deterministic_inference() {
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
            51,
        ));
        let i1 = Instance::for_prediction(&model, g.clone(), Target::Node(1));
        let i2 = Instance::for_prediction(&model, g, Target::Node(2));
        let pg = PgExplainer::new(PgExplainerConfig {
            epochs: 5,
            ..Default::default()
        });
        pg.fit_group(&model, &[&i1, &i2]);
        assert!(pg.is_fitted());
        let a = pg.explain(&model, &i1);
        let b2 = pg.explain(&model, &i1);
        assert_eq!(a.edge_scores, b2.edge_scores);
        assert_eq!(a.edge_scores.len(), 6);
    }

    #[test]
    fn try_explain_refuses_before_fit() {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            2,
            2,
            53,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Node(1));
        let pg = PgExplainer::new(PgExplainerConfig {
            epochs: 2,
            ..Default::default()
        });
        match pg.try_explain(&model, &inst) {
            Err(err) => assert_eq!(err.method, "PGExplainer"),
            Ok(_) => panic!("unfitted try_explain must refuse"),
        }
        assert!(!pg.is_fitted());
        pg.fit_group(&model, &[&inst]);
        assert!(pg.try_explain(&model, &inst).is_ok());
    }

    #[test]
    fn unfitted_explainer_self_fits() {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gin,
            Task::NodeClassification,
            2,
            2,
            52,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Node(0));
        let pg = PgExplainer::new(PgExplainerConfig {
            epochs: 3,
            ..Default::default()
        });
        let exp = pg.explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), 4);
        assert!(pg.is_fitted());
    }
}
