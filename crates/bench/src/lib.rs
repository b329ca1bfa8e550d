//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! Every binary accepts:
//!
//! * `--full` — the paper's scale (50 instances, 500 learning epochs);
//!   without it a reduced "quick" budget runs (8 instances, ~100 epochs);
//! * `--datasets A,B,...` — restrict to the named Table III datasets;
//! * `--models gcn,gin,gat` — restrict architectures;
//! * `--methods M1,M2,...` — restrict explanation methods;
//! * `--instances N` — override the per-dataset instance count;
//! * `--seed N` — the global seed.

#![deny(clippy::print_stdout, clippy::print_stderr)]

use std::time::Instant;

use revelio_core::Objective;
use revelio_datasets::{by_name, Dataset, ALL_DATASETS};
use revelio_eval::{
    fidelity_minus, fidelity_plus, flow_cap, is_flow_based, is_group_level, make_method,
    method_factory, sample_instances, sample_instances_cached, trained_model, Effort, EvalInstance,
    SamplingConfig, ALL_METHODS,
};
use revelio_gnn::{Gnn, GnnKind, ModelZoo};
use revelio_runtime::{ExplainJob, Runtime, RuntimeConfig};

/// Parsed command-line options shared by all harness binaries.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    pub effort: Effort,
    pub seed: u64,
    pub datasets: Vec<&'static str>,
    pub models: Vec<GnnKind>,
    pub methods: Vec<&'static str>,
    pub instances: usize,
    pub sparsities: Vec<f64>,
}

impl HarnessArgs {
    /// Parses `std::env::args`, panicking with a usage message on errors.
    pub fn parse() -> HarnessArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&argv)
    }

    /// Parses an explicit argument list (exposed for tests).
    pub fn parse_from(argv: &[String]) -> HarnessArgs {
        let mut effort = Effort::Quick;
        let mut seed = 0u64;
        let mut datasets: Vec<&'static str> = ALL_DATASETS.to_vec();
        let mut models = vec![GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat];
        let mut methods: Vec<&'static str> = ALL_METHODS.to_vec();
        let mut instances: Option<usize> = None;

        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--full" => effort = Effort::Paper,
                "--quick" => effort = Effort::Quick,
                "--seed" => {
                    i += 1;
                    seed = argv[i].parse().expect("--seed takes an integer");
                }
                "--instances" => {
                    i += 1;
                    instances = Some(argv[i].parse().expect("--instances takes an integer"));
                }
                "--datasets" => {
                    i += 1;
                    datasets = argv[i]
                        .split(',')
                        .map(|d| {
                            *ALL_DATASETS
                                .iter()
                                .find(|n| n.eq_ignore_ascii_case(d))
                                .unwrap_or_else(|| panic!("unknown dataset {d:?}"))
                        })
                        .collect();
                }
                "--models" => {
                    i += 1;
                    models = argv[i]
                        .split(',')
                        .map(|m| match m.to_lowercase().as_str() {
                            "gcn" => GnnKind::Gcn,
                            "gin" => GnnKind::Gin,
                            "gat" => GnnKind::Gat,
                            other => panic!("unknown model {other:?}"),
                        })
                        .collect();
                }
                "--methods" => {
                    i += 1;
                    methods = argv[i]
                        .split(',')
                        .map(|m| {
                            *ALL_METHODS
                                .iter()
                                .find(|n| n.eq_ignore_ascii_case(m))
                                .unwrap_or_else(|| panic!("unknown method {m:?}"))
                        })
                        .collect();
                }
                other => panic!("unknown flag {other:?}"),
            }
            i += 1;
        }

        let default_instances = match effort {
            Effort::Quick => 8,
            Effort::Paper => 50,
        };
        HarnessArgs {
            effort,
            seed,
            datasets,
            models,
            methods,
            instances: instances.unwrap_or(default_instances),
            sparsities: match effort {
                Effort::Quick => vec![0.5, 0.7, 0.9],
                Effort::Paper => vec![0.5, 0.6, 0.7, 0.8, 0.9],
            },
        }
    }

    /// The sampling configuration matching these arguments. The flow cap is
    /// [`flow_cap`], the same value the runtime's artifact-prep stage uses,
    /// so cache keys align between sampling and serving.
    pub fn sampling(&self, only_motif_correct: bool) -> SamplingConfig {
        SamplingConfig {
            count: self.instances,
            max_flows: flow_cap(self.effort) as u64,
            only_motif_correct,
            seed: self.seed ^ 0x1257,
        }
    }

    /// The serving runtime for a harness run: one worker per available
    /// core, seeded from the harness seed.
    pub fn runtime(&self) -> Runtime {
        Runtime::with_config(RuntimeConfig {
            workers: available_workers(),
            seed: self.seed,
            ..Default::default()
        })
    }
}

/// Worker threads to use by default: one per available core.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The synthetic serving workload that the `loadgen` smoke client drives:
/// a family of `n` small labelled graph variants and a model trained to
/// classify their nodes. Variants differ in one chord so jobs
/// with distinct `graph_id`s genuinely enumerate distinct flow sets.
pub fn serving_workload(n: usize) -> (Gnn, Vec<revelio_graph::Graph>) {
    let graphs: Vec<revelio_graph::Graph> = (0..n)
        .map(|variant| {
            let mut b = revelio_graph::Graph::builder(6, 2);
            b.undirected_edge(0, 1)
                .undirected_edge(1, 2)
                .undirected_edge(2, 3)
                .undirected_edge(3, 4)
                .undirected_edge(4, 5);
            if variant % 3 == 1 {
                b.undirected_edge(0, 2);
            }
            if variant % 3 == 2 {
                b.undirected_edge(1, 3);
            }
            for v in 0..6 {
                b.node_features(v, &[1.0, (v + variant) as f32 * 0.25]);
            }
            b.node_labels((0..6).map(|v| (v + variant) % 2).collect());
            b.build()
        })
        .collect();
    let model = Gnn::new(revelio_gnn::GnnConfig {
        kind: GnnKind::Gcn,
        task: revelio_gnn::Task::NodeClassification,
        in_dim: 2,
        hidden_dim: 8,
        num_classes: 2,
        num_layers: 2,
        heads: 1,
        seed: 7,
    });
    revelio_gnn::train_node_classifier(
        &model,
        &graphs[0],
        &[0, 1, 2, 3, 4, 5],
        &revelio_gnn::TrainConfig {
            epochs: 20,
            ..Default::default()
        },
    );
    (model, graphs)
}

/// The synthetic datasets on which the paper does not run GAT.
pub fn is_synthetic(dataset: &str) -> bool {
    matches!(dataset, "BA-Shapes" | "Tree-Cycles" | "BA-2motifs")
}

/// Whether a (method, model, dataset) combination runs in the paper:
/// GAT is skipped on synthetic datasets, and GNN-LRP is incompatible with
/// GAT (§V-B "Specification").
pub fn combination_applicable(method: &str, kind: GnnKind, dataset: &str) -> bool {
    if kind == GnnKind::Gat && is_synthetic(dataset) {
        return false;
    }
    if method == "GNN-LRP" && kind == GnnKind::Gat {
        return false;
    }
    true
}

/// Loads (or generates) a dataset by name with the harness seed.
pub fn load_dataset(name: &str, seed: u64) -> Dataset {
    by_name(name, seed)
}

/// Trains or loads the cached model for a (dataset, architecture) pair.
pub fn model_for(zoo: &ModelZoo, dataset: &Dataset, kind: GnnKind, args: &HarnessArgs) -> Gnn {
    trained_model(zoo, dataset, kind, args.effort, args.seed)
}

/// Result rows of a fidelity experiment: `(method, sparsity, mean fidelity)`.
pub struct FidelityResult {
    pub method: &'static str,
    pub rows: Vec<(f64, f32)>,
    /// Mean wall-clock seconds per instance explanation.
    pub seconds_per_instance: f64,
}

/// Runs one (dataset, model) fidelity experiment across methods, returning
/// per-method mean Fidelity−/Fidelity+ at each sparsity, plus timings
/// (shared by Figs. 3–4 and Table V).
///
/// Instance-level methods are served through `rt`'s worker pool: each
/// instance is one deadline-capable job, flow enumerations are shared via
/// the runtime's artifact cache across methods, and results are
/// deterministic for a given runtime seed regardless of worker count.
/// Group-level methods (PGExplainer, GraphMask) train shared state that
/// cannot cross threads, so they run on the serial path against the same
/// instances.
#[allow(clippy::too_many_arguments)] // mirrors the experiment grid's axes
pub fn run_fidelity(
    rt: &Runtime,
    model: &Gnn,
    eval_instances: &[EvalInstance],
    methods: &[&'static str],
    objective: Objective,
    sparsities: &[f64],
    effort: Effort,
    seed: u64,
) -> Vec<FidelityResult> {
    let handle = rt.register_model(model);
    let mut out = Vec::new();
    for &method in methods {
        let start = Instant::now();
        let explanations: Vec<revelio_core::Explanation> = if is_group_level(method) {
            let explainer = make_method(method, objective, effort, seed);
            let refs: Vec<&revelio_gnn::Instance> =
                eval_instances.iter().map(|e| &e.instance).collect();
            explainer.fit(model, &refs);
            eval_instances
                .iter()
                .map(|e| explainer.explain(model, &e.instance))
                .collect()
        } else {
            let jobs: Vec<ExplainJob> = eval_instances
                .iter()
                .map(|e| ExplainJob {
                    graph: e.instance.graph.clone(),
                    target: e.instance.target,
                    graph_id: e.graph_id,
                    make_explainer: method_factory(method, objective, effort),
                    needs_flows: is_flow_based(method),
                    max_flows: flow_cap(effort),
                    shrink_on_overflow: true,
                    deadline: None,
                    trace: false,
                    trace_key: None,
                    warm_start: false,
                    batch_spec: None,
                })
                .collect();
            rt.explain_batch(handle, jobs)
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|e| panic!("{method}: job failed: {e}"))
                        .explanation
                })
                .collect()
        };
        let seconds_per_instance =
            start.elapsed().as_secs_f64() / eval_instances.len().max(1) as f64;

        let rows = sparsities
            .iter()
            .map(|&s| {
                let mean: f32 = eval_instances
                    .iter()
                    .zip(&explanations)
                    .map(|(e, exp)| match objective {
                        Objective::Factual => fidelity_minus(model, &e.instance, exp, s),
                        Objective::Counterfactual => fidelity_plus(model, &e.instance, exp, s),
                    })
                    .sum::<f32>()
                    / eval_instances.len().max(1) as f32;
                (s, mean)
            })
            .collect();
        out.push(FidelityResult {
            method,
            rows,
            seconds_per_instance,
        });
    }
    out
}

/// Samples the evaluation instances for a (dataset, model) pair.
pub fn instances_for(
    dataset: &Dataset,
    model: &Gnn,
    args: &HarnessArgs,
    only_motif_correct: bool,
) -> Vec<EvalInstance> {
    sample_instances(dataset, model, &args.sampling(only_motif_correct))
}

/// [`instances_for`], warming the runtime's artifact cache: subgraph
/// extraction goes through the cache and each accepted instance's flow
/// index is pre-built, so the first explainer already hits.
pub fn instances_for_runtime(
    dataset: &Dataset,
    model: &Gnn,
    args: &HarnessArgs,
    only_motif_correct: bool,
    rt: &Runtime,
) -> Vec<EvalInstance> {
    sample_instances_cached(
        dataset,
        model,
        &args.sampling(only_motif_correct),
        rt.cache(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicability_matrix_matches_paper() {
        assert!(!combination_applicable(
            "REVELIO",
            GnnKind::Gat,
            "BA-Shapes"
        ));
        assert!(!combination_applicable("GNN-LRP", GnnKind::Gat, "Cora"));
        assert!(combination_applicable("GNN-LRP", GnnKind::Gcn, "Cora"));
        assert!(combination_applicable("REVELIO", GnnKind::Gat, "MUTAG"));
        assert!(combination_applicable("FlowX", GnnKind::Gin, "BA-2motifs"));
    }

    fn parse(args: &[&str]) -> HarnessArgs {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        HarnessArgs::parse_from(&argv)
    }

    #[test]
    fn default_args_cover_everything() {
        let a = parse(&[]);
        assert_eq!(a.effort, Effort::Quick);
        assert_eq!(a.datasets.len(), 8);
        assert_eq!(a.models.len(), 3);
        assert_eq!(a.methods.len(), 10);
        assert_eq!(a.instances, 8);
    }

    #[test]
    fn full_flag_switches_budgets() {
        let a = parse(&["--full"]);
        assert_eq!(a.effort, Effort::Paper);
        assert_eq!(a.instances, 50);
        assert_eq!(a.sparsities.len(), 5);
    }

    #[test]
    fn filters_parse_case_insensitively() {
        let a = parse(&[
            "--datasets",
            "ba-shapes,MUTAG",
            "--models",
            "GCN",
            "--methods",
            "revelio,FlowX",
            "--instances",
            "3",
            "--seed",
            "9",
        ]);
        assert_eq!(a.datasets, vec!["BA-Shapes", "MUTAG"]);
        assert_eq!(a.models, vec![GnnKind::Gcn]);
        assert_eq!(a.methods, vec!["REVELIO", "FlowX"]);
        assert_eq!(a.instances, 3);
        assert_eq!(a.seed, 9);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = parse(&["--datasets", "Reddit"]);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse(&["--explode"]);
    }

    #[test]
    fn run_fidelity_serves_instance_methods_through_the_runtime() {
        use revelio_datasets::tree_cycles;
        use revelio_gnn::{GnnConfig, Task};

        let d = tree_cycles(2);
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            d.graph.feat_dim(),
            d.num_classes,
            5,
        ));
        let ds = Dataset::Node(d);
        let cfg = SamplingConfig {
            count: 2,
            max_flows: flow_cap(Effort::Quick) as u64,
            ..Default::default()
        };
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 2,
            seed: 11,
            ..Default::default()
        });
        let instances = sample_instances_cached(&ds, &model, &cfg, rt.cache());
        assert_eq!(instances.len(), 2);
        let (_, misses_after_sampling) = rt.cache().stats();

        let results = run_fidelity(
            &rt,
            &model,
            &instances,
            &["GNN-LRP", "GradCAM"],
            Objective::Factual,
            &[0.5, 0.7],
            Effort::Quick,
            11,
        );
        assert_eq!(results.len(), 2);
        for r in &results {
            assert_eq!(r.rows.len(), 2);
            for &(_, f) in &r.rows {
                assert!(f.is_finite());
            }
        }
        // Sampling already warmed every instance's flow index, so the
        // flow-based method's jobs are pure cache hits.
        let (hits, misses) = rt.cache().stats();
        assert_eq!(
            misses, misses_after_sampling,
            "run_fidelity must not rebuild any warmed artifact"
        );
        assert!(hits >= instances.len() as u64);
        assert_eq!(rt.metrics().jobs_failed, 0);
    }

    #[test]
    fn synthetic_classification() {
        assert!(is_synthetic("BA-Shapes"));
        assert!(is_synthetic("Tree-Cycles"));
        assert!(is_synthetic("BA-2motifs"));
        assert!(!is_synthetic("Cora"));
        assert!(!is_synthetic("MUTAG"));
    }
}
