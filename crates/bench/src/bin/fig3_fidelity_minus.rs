//! Reproduces **Fig. 3**: Fidelity− (factual explanation) versus sparsity
//! for every method × dataset × model combination.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin fig3_fidelity_minus \
//!     [--full] [--datasets BA-Shapes,MUTAG] [--models gcn] [--methods REVELIO,FlowX]
//! ```

use revelio_bench::{
    combination_applicable, instances_for_runtime, load_dataset, model_for, run_fidelity,
    HarnessArgs,
};
use revelio_core::Objective;
use revelio_eval::{experiments_dir, Table};
use revelio_gnn::ModelZoo;

fn main() {
    let args = HarnessArgs::parse();
    let rt = args.runtime();
    let zoo = ModelZoo::default_location();
    let mut table = Table::new(
        "Fig. 3: Fidelity- vs sparsity (factual explanation; lower is better)",
        &["Dataset", "Model", "Method", "Sparsity", "Fidelity-"],
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
                Objective::Factual,
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
    table.write_csv(experiments_dir().join("fig3_fidelity_minus.csv"));
    println!("\nCSV written to target/experiments/fig3_fidelity_minus.csv");
}
