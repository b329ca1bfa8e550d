//! Reproduces **Fig. 6**: explanatory-subgraph visualisations for a
//! BA-Shapes instance (GCN) and a BA-2motifs instance (GIN).
//!
//! For each method, a Graphviz DOT file is written with motif nodes
//! coloured, explanatory edges bold, and missed ground-truth edges dashed
//! red — the visual vocabulary of the paper's figure. A ground-truth
//! hit-rate summary line is printed per method.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin fig6_visualization [--full]
//! ```

use std::collections::HashSet;
use std::fs;

use revelio_bench::{combination_applicable, instances_for, load_dataset, model_for, HarnessArgs};
use revelio_core::Objective;
use revelio_eval::{
    experiments_dir, explanation_dot, make_method, DotOptions, EvalInstance, ModelZoo,
};
use revelio_gnn::{Gnn, GnnKind};

fn visualize(name: &str, kind: GnnKind, model: &Gnn, e: &EvalInstance, args: &HarnessArgs) {
    let dir = experiments_dir().join("fig6");
    fs::create_dir_all(&dir).expect("create fig6 dir");
    let gt_ids: Vec<usize> = e
        .ground_truth
        .as_ref()
        .map(|v| {
            v.iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i)
                .collect()
        })
        .unwrap_or_default();
    // Top-k: ground-truth size plus a small margin ("we report additional
    // explanatory edges", §V-E).
    let k = gt_ids.len().max(8) + 4;

    for &method in &args.methods {
        if !combination_applicable(method, kind, name) {
            continue;
        }
        let explainer = make_method(method, Objective::Factual, args.effort, args.seed);
        let exp = explainer.explain(model, &e.instance);
        let top = exp.top_edges(k);
        let title = format!("{name} / {} / {method}", kind.name());
        let body = explanation_dot(
            &e.instance.graph,
            &DotOptions {
                title: &title,
                explanatory: &top,
                ground_truth: (!gt_ids.is_empty()).then_some(gt_ids.as_slice()),
                target: e.instance.target,
            },
        );
        let file = dir.join(format!(
            "{}_{}_{}.dot",
            name.to_lowercase().replace('-', "_"),
            kind.name().to_lowercase(),
            method.to_lowercase().replace('-', "_")
        ));
        fs::write(&file, body).expect("write dot file");
        if !gt_ids.is_empty() {
            let gt_set: HashSet<usize> = gt_ids.iter().copied().collect();
            let hits = top.iter().filter(|t| gt_set.contains(t)).count();
            println!(
                "{title}: {hits}/{} ground-truth edges in top-{k} -> {}",
                gt_set.len(),
                file.display()
            );
        }
    }
}

fn main() {
    let args = HarnessArgs::parse();
    let zoo = ModelZoo::default_location();

    for (name, kind) in [("BA-Shapes", GnnKind::Gcn), ("BA-2motifs", GnnKind::Gin)] {
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
        visualize(name, kind, &model, e, &args);
    }
    println!("DOT files written under target/experiments/fig6/");
}
