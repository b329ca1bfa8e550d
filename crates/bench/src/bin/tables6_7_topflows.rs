//! Reproduces **Figs. 7–8 / Tables VI–VII**: the top-10 message flows with
//! scores from each flow-based method (GNN-LRP, FlowX, REVELIO) on the
//! Fig. 6 instances (BA-Shapes with GCN, BA-2motifs with GIN).
//!
//! ```text
//! cargo run -p revelio-bench --release --bin tables6_7_topflows [--full]
//! ```

use revelio_bench::{instances_for, load_dataset, model_for, HarnessArgs};
use revelio_core::Objective;
use revelio_eval::{experiments_dir, make_method, ModelZoo, Table, FLOW_METHODS};
use revelio_gnn::GnnKind;

fn main() {
    let args = HarnessArgs::parse();
    let zoo = ModelZoo::default_location();

    let mut table = Table::new(
        "Tables VI-VII: top-10 message flows by flow-based methods",
        &[
            "Dataset",
            "Model",
            "Method",
            "Rank",
            "Message Flow",
            "Score",
        ],
    );

    for (name, kind, label) in [
        ("BA-Shapes", GnnKind::Gcn, "Table VI"),
        ("BA-2motifs", GnnKind::Gin, "Table VII"),
    ] {
        if !args.datasets.contains(&name) {
            continue;
        }
        let dataset = load_dataset(name, args.seed);
        let model = model_for(&zoo, &dataset, kind, &args);
        let instances = instances_for(&dataset, &model, &args, true);
        let Some(e) = instances.iter().find(|e| e.ground_truth.is_some()) else {
            eprintln!("no motif instance found for {name}");
            continue;
        };
        println!("\n{label}: instance from {name} ({} target)", kind.name());

        for method in FLOW_METHODS {
            let explainer = make_method(method, Objective::Factual, args.effort, args.seed);
            let exp = explainer.explain(&model, &e.instance);
            let Some(flows) = exp.flows else {
                eprintln!("{method} returned no flow scores");
                continue;
            };
            for (rank, (f, score)) in flows.top_k(10).into_iter().enumerate() {
                let path = flows.index.flow_string(&e.instance.mp, f);
                table.row(vec![
                    name.to_string(),
                    kind.name().to_string(),
                    method.to_string(),
                    (rank + 1).to_string(),
                    path,
                    format!("{score:.4}"),
                ]);
            }
        }
    }

    table.print();
    table.write_csv(experiments_dir().join("tables6_7_topflows.csv"));
    println!("\nCSV written to target/experiments/tables6_7_topflows.csv");
}
