//! Reproduces **Fig. 5**: sensitivity of REVELIO's Fidelity± to the
//! sparsity-constraint strength `α` (Eqs. 8–9) on PubMed and MUTAG.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin fig5_sensitivity [--full]
//! ```

use revelio_bench::{instances_for, load_dataset, model_for, HarnessArgs};
use revelio_core::{Objective, Revelio, RevelioConfig};
use revelio_eval::{experiments_dir, fidelity_minus, fidelity_plus, Effort, ModelZoo, Table};
use revelio_gnn::GnnKind;

fn main() {
    let mut args = HarnessArgs::parse();
    // Fig. 5 uses PubMed (GCN) and MUTAG (GCN); restrict unless overridden.
    if args.datasets.len() == 8 {
        args.datasets = vec!["PubMed", "MUTAG"];
    }
    let alphas = [0.0f32, 0.01, 0.1, 0.5, 1.0];
    let zoo = ModelZoo::default_location();

    let mut table = Table::new(
        "Fig. 5: Fidelity± vs sparsity for different alpha (REVELIO)",
        &["Dataset", "Alpha", "Sparsity", "Fidelity-", "Fidelity+"],
    );

    for name in &args.datasets {
        let dataset = load_dataset(name, args.seed);
        let model = model_for(&zoo, &dataset, GnnKind::Gcn, &args);
        let instances = instances_for(&dataset, &model, &args, false);
        if instances.is_empty() {
            eprintln!("skipping {name}: no instances sampled");
            continue;
        }
        let epochs = match args.effort {
            Effort::Quick => 100,
            Effort::Paper => 500,
        };

        for &alpha in &alphas {
            let factual = Revelio::new(RevelioConfig {
                epochs,
                alpha,
                objective: Objective::Factual,
                seed: args.seed,
                ..Default::default()
            });
            let counterfactual = Revelio::new(RevelioConfig {
                epochs,
                alpha,
                objective: Objective::Counterfactual,
                seed: args.seed,
                ..Default::default()
            });
            use revelio_core::Explainer;
            let f_exps: Vec<_> = instances
                .iter()
                .map(|e| factual.explain(&model, &e.instance))
                .collect();
            let c_exps: Vec<_> = instances
                .iter()
                .map(|e| counterfactual.explain(&model, &e.instance))
                .collect();

            for &s in &args.sparsities {
                let fm: f32 = instances
                    .iter()
                    .zip(&f_exps)
                    .map(|(e, exp)| fidelity_minus(&model, &e.instance, exp, s))
                    .sum::<f32>()
                    / instances.len() as f32;
                let fp: f32 = instances
                    .iter()
                    .zip(&c_exps)
                    .map(|(e, exp)| fidelity_plus(&model, &e.instance, exp, s))
                    .sum::<f32>()
                    / instances.len() as f32;
                table.row(vec![
                    name.to_string(),
                    format!("{alpha}"),
                    format!("{s:.1}"),
                    format!("{fm:.4}"),
                    format!("{fp:.4}"),
                ]);
            }
            eprintln!("done: {name} alpha={alpha}");
        }
    }

    table.print();
    table.write_csv(experiments_dir().join("fig5_sensitivity.csv"));
    println!("\nCSV written to target/experiments/fig5_sensitivity.csv");
}
