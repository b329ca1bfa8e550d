//! Reproduces **Fig. 4**: Fidelity+ (counterfactual explanation) versus
//! sparsity. Learning-based methods (GNNExplainer, PGExplainer, GraphMask,
//! FlowX, REVELIO) retrain with the counterfactual objective (Eqs. 2 & 9);
//! the remaining methods reuse their original explanations, as in the paper.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin fig4_fidelity_plus [--full] ...
//! ```

use revelio_bench::{
    combination_applicable, instances_for_runtime, load_dataset, model_for, run_fidelity,
    HarnessArgs,
};
use revelio_core::Objective;
use revelio_eval::{experiments_dir, ModelZoo, Table};

fn main() {
    let args = HarnessArgs::parse();
    let rt = args.runtime();
    let zoo = ModelZoo::default_location();
    let mut table = Table::new(
        "Fig. 4: Fidelity+ vs sparsity (counterfactual explanation; higher is better)",
        &["Dataset", "Model", "Method", "Sparsity", "Fidelity+"],
    );

    for name in &args.datasets {
        let dataset = load_dataset(name, args.seed);
        for &kind in &args.models {
            if !combination_applicable("REVELIO", kind, name) {
                continue;
            }
            let model = model_for(&zoo, &dataset, kind, &args);
            let instances = instances_for_runtime(&dataset, &model, &args, false, &rt);
            if instances.is_empty() {
                eprintln!("skipping {name}/{}: no instances sampled", kind.name());
                continue;
            }
            let methods: Vec<&'static str> = args
                .methods
                .iter()
                .copied()
                .filter(|m| combination_applicable(m, kind, name))
                .collect();
            let results = run_fidelity(
                &rt,
                &model,
                &instances,
                &methods,
                Objective::Counterfactual,
                &args.sparsities,
                args.effort,
                args.seed,
            );
            for r in &results {
                for &(s, f) in &r.rows {
                    table.row(vec![
                        name.to_string(),
                        kind.name().to_string(),
                        r.method.to_string(),
                        format!("{s:.1}"),
                        format!("{f:.4}"),
                    ]);
                }
            }
            eprintln!(
                "done: {name}/{} ({} instances)",
                kind.name(),
                instances.len()
            );
        }
    }

    eprintln!("\n{}", rt.metrics().report());
    table.print();
    table.write_csv(experiments_dir().join("fig4_fidelity_plus.csv"));
    println!("\nCSV written to target/experiments/fig4_fidelity_plus.csv");
}
