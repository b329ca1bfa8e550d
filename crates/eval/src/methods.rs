//! The explanation-method registry used by every harness binary.

use revelio_baselines::{
    DeepLift, FlowX, FlowXConfig, GnnExplainer, GnnExplainerConfig, GnnLrp, GradCam, GraphMask,
    GraphMaskConfig, PgExplainer, PgExplainerConfig, PgmExplainer, PgmExplainerConfig, SubgraphX,
    SubgraphXConfig,
};
use revelio_core::{Explainer, Objective, Revelio, RevelioConfig};

/// Compute budget for learning-based methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Reduced epochs / samples for fast CI-style runs.
    Quick,
    /// The paper's settings (500 epochs for GNNExplainer / PGExplainer /
    /// REVELIO, 200 for GraphMask, full sampling for FlowX).
    Paper,
}

revelio_core::wire_enum!(Effort, "effort tag" {
    Effort::Quick = 0,
    Effort::Paper = 1,
});

/// Every method of §V-A, in the paper's table order.
pub const ALL_METHODS: [&str; 10] = [
    "GradCAM",
    "DeepLIFT",
    "GNNExplainer",
    "PGExplainer",
    "GraphMask",
    "PGMExplainer",
    "SubgraphX",
    "GNN-LRP",
    "FlowX",
    "REVELIO",
];

/// The flow-based methods (Tables VI–VII).
pub const FLOW_METHODS: [&str; 3] = ["GNN-LRP", "FlowX", "REVELIO"];

/// Methods that train a shared network over the whole instance set via
/// [`Explainer::fit`]. Their fit state lives in `RefCell`s, so they cannot
/// cross threads: the harness serves them on its serial path instead of the
/// worker pool.
pub const GROUP_LEVEL_METHODS: [&str; 2] = ["PGExplainer", "GraphMask"];

/// Whether `name` is a group-level method (see [`GROUP_LEVEL_METHODS`]).
pub fn is_group_level(name: &str) -> bool {
    GROUP_LEVEL_METHODS.contains(&name)
}

/// Whether `name` enumerates message flows (and so benefits from the
/// runtime's shared flow-index cache).
pub fn is_flow_based(name: &str) -> bool {
    FLOW_METHODS.contains(&name)
}

/// The flow cap shared by instance sampling and runtime flow-index
/// preparation. Using one value keeps the artifact-cache keys aligned, so
/// an index warmed at sampling time is a hit at explain time.
pub fn flow_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 60_000,
        Effort::Paper => 300_000,
    }
}

/// A `Send` explainer factory for the serving runtime: the worker thread
/// builds the method from the job's derived seed, which is what makes
/// results independent of scheduling.
pub fn method_factory(
    name: &'static str,
    objective: Objective,
    effort: Effort,
) -> Box<dyn Fn(u64) -> Box<dyn Explainer> + Send> {
    Box::new(move |seed| make_method(name, objective, effort, seed))
}

/// Instantiates a method by its paper name.
///
/// `objective` selects the factual or counterfactual variant for the
/// learning-based methods; methods without a counterfactual mode (GradCAM,
/// DeepLIFT, PGMExplainer, SubgraphX, GNN-LRP) reuse their original
/// explanations, exactly as in the paper's Fig. 4 protocol.
///
/// # Panics
///
/// Panics on an unknown method name.
pub fn make_method(
    name: &str,
    objective: Objective,
    effort: Effort,
    seed: u64,
) -> Box<dyn Explainer> {
    let quick = effort == Effort::Quick;
    match name {
        "GradCAM" => Box::new(GradCam),
        "DeepLIFT" => Box::new(DeepLift),
        "GNNExplainer" => Box::new(GnnExplainer::new(GnnExplainerConfig {
            epochs: if quick { 100 } else { 500 },
            objective,
            seed,
            ..Default::default()
        })),
        "PGExplainer" => Box::new(PgExplainer::new(PgExplainerConfig {
            epochs: if quick { 10 } else { 500 },
            objective,
            seed,
            ..Default::default()
        })),
        "GraphMask" => Box::new(GraphMask::new(GraphMaskConfig {
            epochs: if quick { 10 } else { 200 },
            objective,
            seed,
            ..Default::default()
        })),
        "PGMExplainer" => Box::new(PgmExplainer::new(PgmExplainerConfig {
            samples: if quick { 40 } else { 100 },
            seed,
            ..Default::default()
        })),
        "SubgraphX" => Box::new(SubgraphX::new(SubgraphXConfig {
            rollouts: if quick { 10 } else { 30 },
            seed,
            ..Default::default()
        })),
        "GNN-LRP" => Box::new(GnnLrp::default()),
        "FlowX" => Box::new(FlowX::new(FlowXConfig {
            samples: if quick { 10 } else { 25 },
            epochs: if quick { 30 } else { 100 },
            objective,
            seed,
            ..Default::default()
        })),
        "REVELIO" => Box::new(Revelio::new(RevelioConfig {
            seed,
            ..revelio_batch_config(objective, effort)
        })),
        other => panic!("unknown method {other:?} (expected one of {ALL_METHODS:?})"),
    }
}

/// The REVELIO config [`make_method`] serves, with `seed` left at its
/// default. Runtime callers hand this to `ExplainJob::with_batch_spec` so
/// queued REVELIO jobs can fuse into one optimize pass; sharing one
/// constructor guarantees the batch spec and the serial factory agree.
pub fn revelio_batch_config(objective: Objective, effort: Effort) -> RevelioConfig {
    RevelioConfig {
        epochs: if effort == Effort::Quick { 100 } else { 500 },
        objective,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_method_instantiates() {
        for name in ALL_METHODS {
            let m = make_method(name, Objective::Factual, Effort::Quick, 0);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    fn counterfactual_variants_instantiate() {
        for name in ALL_METHODS {
            let m = make_method(name, Objective::Counterfactual, Effort::Quick, 0);
            assert_eq!(m.name(), name);
        }
    }

    #[test]
    #[should_panic(expected = "unknown method")]
    fn unknown_method_panics() {
        let _ = make_method("Oracle", Objective::Factual, Effort::Quick, 0);
    }

    #[test]
    fn method_classifications_are_consistent() {
        for name in GROUP_LEVEL_METHODS {
            assert!(ALL_METHODS.contains(&name));
            assert!(is_group_level(name));
            assert!(!is_flow_based(name), "group-level methods are edge-mask");
        }
        for name in FLOW_METHODS {
            assert!(is_flow_based(name));
            assert!(!is_group_level(name));
        }
        assert!(flow_cap(Effort::Quick) < flow_cap(Effort::Paper));
    }

    #[test]
    fn factory_builds_the_named_method_with_the_given_seed() {
        let factory = method_factory("REVELIO", Objective::Factual, Effort::Quick);
        let m = factory(123);
        assert_eq!(m.name(), "REVELIO");
    }
}
