//! Reproduces **Table IV**: explanation ROC-AUC on the synthetic datasets
//! (BA-Shapes, Tree-Cycles, BA-2motifs) with GCN and GIN, using the planted
//! motif edges as ground truth. Instances are restricted to motif members
//! with correct predictions, per the paper's protocol.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin table4_auc [--full] ...
//! ```

use revelio_bench::{combination_applicable, instances_for, load_dataset, model_for, HarnessArgs};
use revelio_core::Objective;
use revelio_eval::{experiments_dir, make_method, try_roc_auc, ModelZoo, Table};
use revelio_gnn::{GnnKind, Instance};

fn main() {
    let args = HarnessArgs::parse();
    let zoo = ModelZoo::default_location();
    let datasets: Vec<&str> = args
        .datasets
        .iter()
        .copied()
        .filter(|d| revelio_bench::is_synthetic(d))
        .collect();
    let kinds: Vec<GnnKind> = args
        .models
        .iter()
        .copied()
        .filter(|k| *k != GnnKind::Gat)
        .collect();

    let mut table = Table::new(
        "Table IV: explanation AUC on synthetic datasets",
        &["Dataset", "Model", "Method", "Objective", "AUC"],
    );

    for name in &datasets {
        let dataset = load_dataset(name, args.seed);
        for &kind in &kinds {
            let model = model_for(&zoo, &dataset, kind, &args);
            let instances = instances_for(&dataset, &model, &args, true);
            let with_gt: Vec<_> = instances
                .iter()
                .filter(|e| e.ground_truth.is_some())
                .collect();
            if with_gt.is_empty() {
                eprintln!("skipping {name}/{}: no motif instances", kind.name());
                continue;
            }
            let refs: Vec<&Instance> = with_gt.iter().map(|e| &e.instance).collect();

            for objective in [Objective::Factual, Objective::Counterfactual] {
                for &method in &args.methods {
                    if !combination_applicable(method, kind, name) {
                        continue;
                    }
                    // The paper's Table IV reports the general methods once
                    // (original explanations) and the learnable ones per
                    // objective.
                    let learnable = matches!(
                        method,
                        "GNNExplainer" | "PGExplainer" | "GraphMask" | "FlowX" | "REVELIO"
                    );
                    if objective == Objective::Counterfactual && !learnable {
                        continue;
                    }
                    let explainer = make_method(method, objective, args.effort, args.seed);
                    explainer.fit(&model, &refs);
                    let mut aucs = Vec::new();
                    for e in &with_gt {
                        let exp = explainer.explain(&model, &e.instance);
                        let gt = e.ground_truth.as_ref().expect("filtered");
                        // A diverged explainer (NaN/inf scores) is reported
                        // and dropped rather than silently ranked.
                        match try_roc_auc(&exp.edge_scores, gt) {
                            Ok(Some(a)) => aucs.push(a),
                            Ok(None) => {}
                            Err(err) => eprintln!(
                                "{name}/{}/{method}: instance {} skipped ({err})",
                                kind.name(),
                                e.dataset_index
                            ),
                        }
                    }
                    if aucs.is_empty() {
                        continue;
                    }
                    let mean = aucs.iter().sum::<f64>() / aucs.len() as f64;
                    let obj_name = match objective {
                        Objective::Factual => "factual",
                        Objective::Counterfactual => "counterfactual",
                    };
                    table.row(vec![
                        name.to_string(),
                        kind.name().to_string(),
                        method.to_string(),
                        obj_name.to_string(),
                        format!("{mean:.3}"),
                    ]);
                    eprintln!("{name}/{}/{method}/{obj_name}: AUC {mean:.3}", kind.name());
                }
            }
        }
    }

    table.print();
    table.write_csv(experiments_dir().join("table4_auc.csv"));
    println!("\nCSV written to target/experiments/table4_auc.csv");
}
