//! The REVELIO algorithm (§IV of the paper).

use std::fmt;

use revelio_gnn::{Gnn, Instance};
use revelio_graph::TooManyFlows;

use crate::batch::{BatchedOptimizer, ControlledItem};
use crate::control::{ControlledExplanation, ExplainControl};
use crate::explanation::{Explainer, Explanation, Objective};

/// How flow-mask parameters are squashed into flow scores (Eq. 4).
///
/// The paper chooses `tanh` so that scores can be negative, preventing
/// "excessive accumulation" on layer edges that carry many unimportant flows;
/// `Sigmoid` is provided for the ablation of that choice (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaskSquash {
    #[default]
    Tanh,
    Sigmoid,
}

/// Activation applied to the per-layer weight `w_l` (Eq. 5).
///
/// The paper selects `exp` after comparing candidates with positive outputs,
/// low gradient on `(0, 1)` and high gradient on `(1, ∞)`; `Softplus` is the
/// runner-up candidate it names, and `None` drops the per-layer weighting
/// entirely — both provided for ablations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayerWeight {
    #[default]
    Exp,
    Softplus,
    None,
}

/// REVELIO hyperparameters. Defaults follow §V-A: learning rate `1e-2`,
/// 500 learning epochs, dataset-tuned sparsity strength `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RevelioConfig {
    /// Learning epochs per instance (the paper uses 500).
    pub epochs: usize,
    /// Adam learning rate (the paper uses 1e-2).
    pub lr: f32,
    /// Sparsity-constraint strength `α` of Eqs. 8–9.
    pub alpha: f32,
    /// Factual (Eq. 1) or counterfactual (Eq. 2) objective.
    pub objective: Objective,
    /// Flow-enumeration cap; exceeding it panics with a clear message
    /// rather than silently truncating.
    pub max_flows: usize,
    /// Mask-initialisation seed.
    pub seed: u64,
    /// Flow-score squashing (Eq. 4); `Tanh` is the paper's choice.
    pub squash: MaskSquash,
    /// Per-layer weight activation (Eq. 5); `Exp` is the paper's choice.
    pub layer_weight: LayerWeight,
    /// The paper's future-work optimisation (§VI): when `Some(k)` and the
    /// instance has more than `k` flows, a one-shot gradient-saliency pass
    /// preselects the `k` most promising flows and only their masks are
    /// learned (unselected flows keep a neutral zero score). Cuts memory
    /// and per-epoch time on flow-heavy instances.
    pub preselect: Option<usize>,
}

impl Default for RevelioConfig {
    fn default() -> Self {
        RevelioConfig {
            epochs: 500,
            lr: 1e-2,
            alpha: 0.05,
            objective: Objective::Factual,
            max_flows: 2_000_000,
            seed: 0,
            squash: MaskSquash::Tanh,
            layer_weight: LayerWeight::Exp,
            preselect: None,
        }
    }
}

/// Why [`Revelio::try_explain`] could not produce an explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExplainError {
    /// Flow enumeration exceeded [`RevelioConfig::max_flows`].
    TooManyFlows(TooManyFlows),
}

impl fmt::Display for ExplainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExplainError::TooManyFlows(e) => {
                write!(
                    f,
                    "{e}; extract a smaller computation subgraph or raise max_flows"
                )
            }
        }
    }
}

impl std::error::Error for ExplainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExplainError::TooManyFlows(e) => Some(e),
        }
    }
}

/// The REVELIO explainer.
pub struct Revelio {
    cfg: RevelioConfig,
}

impl Revelio {
    /// Creates an explainer with the given configuration.
    pub fn new(cfg: RevelioConfig) -> Revelio {
        Revelio { cfg }
    }

    /// Paper-default factual explainer.
    pub fn factual() -> Revelio {
        Revelio::new(RevelioConfig::default())
    }

    /// Paper-default counterfactual explainer.
    pub fn counterfactual() -> Revelio {
        Revelio::new(RevelioConfig {
            objective: Objective::Counterfactual,
            ..Default::default()
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &RevelioConfig {
        &self.cfg
    }

    /// Learns flow masks for `instance` and returns flow, layer-edge, and
    /// edge scores.
    ///
    /// # Errors
    ///
    /// Returns [`ExplainError::TooManyFlows`] when the instance has more
    /// than [`RevelioConfig::max_flows`] message flows.
    pub fn try_explain(
        &self,
        model: &Gnn,
        instance: &Instance,
    ) -> Result<Explanation, ExplainError> {
        self.try_explain_controlled(model, instance, &ExplainControl::default())
            .map(|c| c.explanation)
    }

    /// Deadline- and budget-aware variant of [`Revelio::try_explain`]:
    /// a batch of one through [`BatchedOptimizer::explain_controlled`].
    ///
    /// * Reuses `ctl.flow_index` when its layer count matches the model,
    ///   skipping flow enumeration entirely.
    /// * When `ctl.shrink_on_overflow` is set, an instance over
    ///   [`RevelioConfig::max_flows`] is explained over the deterministic
    ///   enumeration prefix of `max_flows` flows instead of failing
    ///   (`flows_dropped` records the cut).
    /// * Polls `ctl.deadline` each learning epoch; on expiry the best
    ///   (lowest-loss) mask seen so far is returned with
    ///   `deadline_hit = true`.
    /// * When `ctl.warm_start` carries a converged mask whose flow
    ///   selection exactly matches this run's, the optimisation starts
    ///   from it instead of the cold random init and may stop once the
    ///   loss plateaus (relative change below `1e-3` for 8 consecutive
    ///   epochs). The warm answer is the seed *refined*, not replayed —
    ///   scores drift from a cold run as optimisation continues — but a
    ///   mismatched selection or parameter shape rejects the seed,
    ///   leaving the run bit-identical to a cold one.
    ///
    /// # Errors
    ///
    /// Returns [`ExplainError::TooManyFlows`] only when the cap trips and
    /// `ctl.shrink_on_overflow` is off.
    pub fn try_explain_controlled(
        &self,
        model: &Gnn,
        instance: &Instance,
        ctl: &ExplainControl,
    ) -> Result<ControlledExplanation, ExplainError> {
        let item = ControlledItem {
            instance,
            seed: self.cfg.seed,
            ctl,
        };
        let mut out = BatchedOptimizer::new(self.cfg).explain_controlled(model, &[item])?;
        Ok(out.pop().expect("one result per item"))
    }
}

impl Explainer for Revelio {
    fn name(&self) -> &'static str {
        "REVELIO"
    }

    /// Infallible trait entry point, delegating to [`Revelio::try_explain`].
    ///
    /// # Panics
    ///
    /// Panics if the instance has more than `max_flows` message flows; call
    /// [`Revelio::try_explain`] to handle that case as a value.
    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        self.try_explain(model, instance)
            .unwrap_or_else(|e| panic!("REVELIO: {e}"))
    }

    /// Budget-aware entry point (see [`Revelio::try_explain_controlled`]).
    ///
    /// # Panics
    ///
    /// Panics on [`ExplainError::TooManyFlows`], which can only occur when
    /// `ctl.shrink_on_overflow` is off.
    fn explain_controlled(
        &self,
        model: &Gnn,
        instance: &Instance,
        ctl: &ExplainControl,
    ) -> ControlledExplanation {
        self.try_explain_controlled(model, instance, ctl)
            .unwrap_or_else(|e| panic!("REVELIO: {e}"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind, Task, TrainConfig};
    use revelio_graph::{FlowIndex, Graph, Target};
    use std::sync::Arc;

    /// Builds a node-classification toy where node 0's class is decided by
    /// its neighbour 1's feature (and node 2 is noise), then checks REVELIO
    /// scores the informative edge above the noise edge.
    fn informative_neighbour_setup() -> (Gnn, Graph) {
        // Star: 1 -> 0, 2 -> 0 (directed toward the target).
        // Training set: many stars where the label of the centre equals the
        // feature of node of type A; realised as one graph with several
        // disjoint stars.
        let stars = 30;
        let mut b = Graph::builder(3 * stars, 3);
        let mut labels = vec![0usize; 3 * stars];
        for s in 0..stars {
            let (c, a, n) = (3 * s, 3 * s + 1, 3 * s + 2);
            b.edge(a, c).edge(n, c);
            let class = s % 2;
            // Node a's feature encodes the class; node n is random-ish noise.
            b.node_features(a, &[1.0 - class as f32, class as f32, 0.0]);
            b.node_features(n, &[0.3, 0.3, (s % 3) as f32 * 0.2]);
            b.node_features(c, &[0.0, 0.0, 1.0]);
            labels[c] = class;
            labels[a] = class;
            labels[n] = class;
        }
        b.node_labels(labels);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            3,
            2,
            21,
        ));
        let centres: Vec<usize> = (0..stars).map(|s| 3 * s).collect();
        revelio_gnn::train_node_classifier(
            &model,
            &g,
            &centres,
            &TrainConfig {
                epochs: 150,
                weight_decay: 0.0,
                ..Default::default()
            },
        );
        (model, g)
    }

    fn instance_for(model: &Gnn, g: &Graph) -> (Instance, revelio_graph::KhopSubgraph) {
        let sub = revelio_graph::khop_subgraph(g, 0, 3);
        let inst = Instance::for_prediction(model, sub.graph.clone(), Target::Node(sub.target));
        (inst, sub)
    }

    #[test]
    fn factual_scores_informative_edge_higher() {
        let (model, g) = informative_neighbour_setup();
        let acc = revelio_gnn::evaluate_node_accuracy(
            &model,
            &g,
            &(0..10).map(|s| 3 * s).collect::<Vec<_>>(),
        );
        assert!(acc > 0.9, "model failed to learn the toy task: {acc}");

        let (inst, sub) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 150,
            alpha: 0.01,
            ..Default::default()
        });
        let exp = r.explain(&model, &inst);

        // Edge from node a (old id 1) should outrank edge from noise node
        // (old id 2).
        let mut score_a = f32::NAN;
        let mut score_n = f32::NAN;
        for (eid, &(s, _)) in inst.graph.edges().iter().enumerate() {
            match sub.original_node(s as usize) {
                1 => score_a = exp.edge_scores[eid],
                2 => score_n = exp.edge_scores[eid],
                _ => {}
            }
        }
        assert!(
            score_a > score_n,
            "informative edge ({score_a}) should beat noise edge ({score_n})"
        );

        // Structure invariants.
        let flows = exp.flows.as_ref().unwrap();
        assert!(flows.scores.iter().all(|s| (-1.0..=1.0).contains(s)));
        let ls = exp.layer_edge_scores.as_ref().unwrap();
        assert_eq!(ls.len(), 3);
        assert!(ls.iter().all(|l| l.iter().all(|v| (0.0..=1.0).contains(v))));
    }

    #[test]
    fn counterfactual_scores_are_negated_flows() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 30,
            objective: Objective::Counterfactual,
            ..Default::default()
        });
        let exp = r.explain(&model, &inst);
        let ls = exp.layer_edge_scores.as_ref().unwrap();
        // ω'[e] = 1 − σ(...) stays in (0, 1).
        assert!(ls.iter().all(|l| l.iter().all(|v| (0.0..=1.0).contains(v))));
    }

    #[test]
    #[should_panic(expected = "REVELIO:")]
    fn flow_cap_panics_with_context() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            max_flows: 1,
            ..Default::default()
        });
        let _ = r.explain(&model, &inst);
    }

    #[test]
    fn flow_cap_surfaces_typed_error() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            max_flows: 1,
            ..Default::default()
        });
        let err = r.try_explain(&model, &inst).err().expect("cap must trip");
        let ExplainError::TooManyFlows(inner) = &err;
        assert_eq!(inner.max, 1);
        assert!(err.to_string().contains("smaller computation subgraph"));
    }

    #[test]
    fn higher_alpha_yields_sparser_masks() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let mean_mask = |alpha: f32| {
            let r = Revelio::new(RevelioConfig {
                epochs: 120,
                alpha,
                ..Default::default()
            });
            let exp = r.explain(&model, &inst);
            let ls = exp.layer_edge_scores.unwrap();
            let total: f32 = ls.iter().flatten().sum();
            total / ls.iter().map(|l| l.len()).sum::<usize>() as f32
        };
        let loose = mean_mask(0.0);
        let tight = mean_mask(2.0);
        assert!(
            tight < loose,
            "alpha=2 mean mask {tight} should be below alpha=0 mean mask {loose}"
        );
    }

    #[test]
    fn ablation_variants_run_and_score_all_flows() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        for squash in [MaskSquash::Tanh, MaskSquash::Sigmoid] {
            for lw in [LayerWeight::Exp, LayerWeight::Softplus, LayerWeight::None] {
                let r = Revelio::new(RevelioConfig {
                    epochs: 20,
                    squash,
                    layer_weight: lw,
                    ..Default::default()
                });
                let exp = r.explain(&model, &inst);
                let flows = exp.flows.expect("flow scores");
                assert_eq!(flows.scores.len(), flows.index.num_flows());
                if squash == MaskSquash::Sigmoid {
                    assert!(flows.scores.iter().all(|s| (0.0..=1.0).contains(s)));
                }
            }
        }
    }

    #[test]
    fn expired_deadline_degrades_but_masks_stay_valid() {
        use crate::control::Deadline;
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 200,
            ..Default::default()
        });
        let ctl = ExplainControl::with_deadline(Deadline::within(std::time::Duration::ZERO));
        let out = r.try_explain_controlled(&model, &inst, &ctl).unwrap();
        assert!(out.degraded());
        assert!(out.degradation.deadline_hit);
        assert!(out.degradation.epochs_run < 200);
        assert_eq!(out.degradation.epochs_planned, 200);
        // Degraded results are still structurally valid explanations.
        let exp = &out.explanation;
        let flows = exp.flows.as_ref().unwrap();
        assert_eq!(flows.scores.len(), flows.index.num_flows());
        assert!(flows.scores.iter().all(|s| (-1.0..=1.0).contains(s)));
        assert!(exp.edge_scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn shrink_on_overflow_degrades_instead_of_failing() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 10,
            max_flows: 2,
            ..Default::default()
        });
        // Without shrink the cap trips...
        assert!(r.try_explain(&model, &inst).is_err());
        // ...with shrink the job degrades to the 2-flow prefix instead.
        let ctl = ExplainControl {
            shrink_on_overflow: true,
            ..Default::default()
        };
        let out = r.try_explain_controlled(&model, &inst, &ctl).unwrap();
        assert!(out.degraded());
        assert!(out.degradation.flows_dropped > 0);
        let flows = out.explanation.flows.as_ref().unwrap();
        assert_eq!(flows.index.num_flows(), 2);
    }

    #[test]
    fn prebuilt_flow_index_is_reused_and_matches_fresh_run() {
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let cfg = RevelioConfig {
            epochs: 25,
            ..Default::default()
        };
        let r = Revelio::new(cfg);
        let index = Arc::new(
            FlowIndex::build(&inst.mp, model.num_layers(), inst.target, cfg.max_flows).unwrap(),
        );
        let ctl = ExplainControl {
            flow_index: Some(Arc::clone(&index)),
            ..Default::default()
        };
        let cached = r.try_explain_controlled(&model, &inst, &ctl).unwrap();
        assert!(!cached.degraded());
        // The explanation references the caller's index, not a rebuild.
        let flows = cached.explanation.flows.as_ref().unwrap();
        assert!(Arc::ptr_eq(&flows.index, &index));
        // Scores are bit-identical to a from-scratch run (same seed).
        let fresh = r.try_explain(&model, &inst).unwrap();
        assert_eq!(
            cached.explanation.edge_scores, fresh.edge_scores,
            "cache-shared index must not change results"
        );
    }

    #[test]
    fn warm_start_seeds_and_early_stops_while_rejection_stays_cold() {
        use crate::control::ConvergedMask;
        let (model, g) = informative_neighbour_setup();
        let (inst, _) = instance_for(&model, &g);
        let r = Revelio::new(RevelioConfig {
            epochs: 500,
            ..Default::default()
        });
        let cold = r
            .try_explain_controlled(&model, &inst, &ExplainControl::default())
            .unwrap();
        assert_eq!(cold.degradation.epochs_run, 500);
        let mask = cold.converged_mask.clone().expect("REVELIO exports a mask");

        // Seeding from the converged state plateaus well before the budget,
        // without being reported as degraded.
        let warm = r
            .try_explain_controlled(
                &model,
                &inst,
                &ExplainControl {
                    warm_start: Some(Arc::new(mask.clone())),
                    ..Default::default()
                },
            )
            .unwrap();
        assert!(
            warm.degradation.epochs_run < 500,
            "warm start ran all {} epochs",
            warm.degradation.epochs_run
        );
        assert!(!warm.degraded(), "early stop is not a degradation");
        // The warm answer is the seed refined, not replayed: scores stay
        // within the documented drift tolerance and preserve the ranking
        // the cold run found.
        for (w, c) in warm
            .explanation
            .edge_scores
            .iter()
            .zip(&cold.explanation.edge_scores)
        {
            assert!((w - c).abs() < 0.35, "warm score drifted: {w} vs {c}");
        }
        let top = |scores: &[f32]| {
            scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
        };
        assert_eq!(
            top(&warm.explanation.edge_scores),
            top(&cold.explanation.edge_scores),
            "warm start changed the top-ranked edge"
        );

        // A stale selection is rejected: the run is bit-identical to cold.
        let stale = ConvergedMask {
            mask_params: vec![3.0],
            layer_weights: mask.layer_weights.clone(),
            selected: vec![0],
        };
        let rejected = r
            .try_explain_controlled(
                &model,
                &inst,
                &ExplainControl {
                    warm_start: Some(Arc::new(stale)),
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            rejected.explanation.edge_scores, cold.explanation.edge_scores,
            "rejected warm start must not perturb the cold path"
        );
        assert_eq!(rejected.degradation.epochs_run, 500);
    }

    #[test]
    fn preselection_limits_learned_flows_and_still_ranks_informative_edge() {
        let (model, g) = informative_neighbour_setup();
        let (inst, sub) = instance_for(&model, &g);
        let full_flows = {
            let r = Revelio::new(RevelioConfig {
                epochs: 1,
                ..Default::default()
            });
            r.explain(&model, &inst)
                .flows
                .expect("flows")
                .index
                .num_flows()
        };
        assert!(full_flows > 4, "toy instance should have several flows");

        let r = Revelio::new(RevelioConfig {
            epochs: 150,
            alpha: 0.01,
            preselect: Some(4),
            ..Default::default()
        });
        let exp = r.explain(&model, &inst);
        let flows = exp.flows.as_ref().expect("flows");
        // Exactly 4 flows carry non-zero learned scores.
        let nonzero = flows.scores.iter().filter(|s| **s != 0.0).count();
        assert!(
            nonzero <= 4,
            "preselection must cap learned flows: {nonzero}"
        );

        // The informative edge still wins.
        let mut score_a = f32::NAN;
        let mut score_n = f32::NAN;
        for (eid, &(s, _)) in inst.graph.edges().iter().enumerate() {
            match sub.original_node(s as usize) {
                1 => score_a = exp.edge_scores[eid],
                2 => score_n = exp.edge_scores[eid],
                _ => {}
            }
        }
        assert!(score_a > score_n, "preselected REVELIO lost the signal");
    }
}
