//! Reproduces **Table III**: dataset statistics and the test accuracy of
//! 3-layer GCN / GIN / GAT on each of the eight datasets.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin table3_datasets [--full]
//! ```

use revelio_bench::{is_synthetic, load_dataset, model_for, HarnessArgs};
use revelio_datasets::Dataset;
use revelio_eval::{experiments_dir, model_accuracy, ModelZoo, Table};
use revelio_gnn::GnnKind;

fn main() {
    let args = HarnessArgs::parse();
    let zoo = ModelZoo::default_location();
    let mut table = Table::new(
        "Table III: dataset statistics and model accuracy",
        &[
            "Dataset",
            "#graphs",
            "#nodes",
            "#edges",
            "#features",
            "#classes",
            "GCN Acc.",
            "GIN Acc.",
            "GAT Acc.",
        ],
    );

    for name in &args.datasets {
        let dataset = load_dataset(name, args.seed);
        let (n_graphs, n_nodes, n_edges, n_feat, n_classes) = match &dataset {
            Dataset::Node(d) => (
                1.0,
                d.graph.num_nodes() as f64,
                d.graph.num_edges() as f64,
                d.graph.feat_dim(),
                d.num_classes,
            ),
            Dataset::Graph(d) => (
                d.graphs.len() as f64,
                d.avg_nodes(),
                d.avg_edges(),
                d.graphs[0].feat_dim(),
                d.num_classes,
            ),
        };

        let mut accs = Vec::new();
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat] {
            if !args.models.contains(&kind) {
                accs.push("-".to_string());
                continue;
            }
            if kind == GnnKind::Gat && is_synthetic(name) {
                accs.push("N/A".to_string());
                continue;
            }
            let model = model_for(&zoo, &dataset, kind, &args);
            let acc = model_accuracy(&model, &dataset);
            accs.push(format!("{:.1}%", acc * 100.0));
        }

        table.row(vec![
            name.to_string(),
            format!("{n_graphs:.0}"),
            format!("{n_nodes:.1}"),
            format!("{n_edges:.1}"),
            n_feat.to_string(),
            n_classes.to_string(),
            accs[0].clone(),
            accs[1].clone(),
            accs[2].clone(),
        ]);
    }

    table.print();
    table.write_csv(experiments_dir().join("table3_datasets.csv"));
    println!("\nCSV written to target/experiments/table3_datasets.csv");
}
