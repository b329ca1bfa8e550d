//! Reproduces **Table V**: the average running time (seconds) of each
//! explanation method per dataset.
//!
//! Times are per-instance explanation wall-clock (group-level training for
//! PGExplainer / GraphMask is timed separately and reported in parentheses,
//! matching the paper's "training (inference)" format for PGExplainer).
//!
//! ```text
//! cargo run -p revelio-bench --release --bin table5_runtime [--full] ...
//! ```

use std::time::Instant;

use revelio_bench::{
    combination_applicable, instances_for_runtime, load_dataset, model_for, HarnessArgs,
};
use revelio_core::Objective;
use revelio_eval::{
    experiments_dir, flow_cap, is_flow_based, is_group_level, make_method, method_factory, Table,
};
use revelio_gnn::{GnnKind, Instance, ModelZoo};
use revelio_runtime::ExplainJob;

fn main() {
    let args = HarnessArgs::parse();
    let rt = args.runtime();
    let zoo = ModelZoo::default_location();
    // Table V uses GCNs and GINs; GAT timings are similar and omitted in the
    // paper's layout.
    let kinds: Vec<GnnKind> = args
        .models
        .iter()
        .copied()
        .filter(|k| *k != GnnKind::Gat)
        .collect();

    let mut table = Table::new(
        "Table V: average explanation running time (seconds per instance)",
        &["Dataset", "Model", "Method", "Seconds", "Fit-seconds"],
    );

    for name in &args.datasets {
        let dataset = load_dataset(name, args.seed);
        for &kind in &kinds {
            if !combination_applicable("REVELIO", kind, name) {
                continue;
            }
            let model = model_for(&zoo, &dataset, kind, &args);
            let instances = instances_for_runtime(&dataset, &model, &args, false, &rt);
            if instances.is_empty() {
                continue;
            }
            let handle = rt.register_model(&model);
            let refs: Vec<&Instance> = instances.iter().map(|e| &e.instance).collect();
            for &method in &args.methods {
                if !combination_applicable(method, kind, name) {
                    continue;
                }
                // Group-level methods train shared (thread-bound) state, so
                // they fit + explain serially; instance-level methods are
                // served through the runtime's worker pool.
                let (secs, fit_secs) = if is_group_level(method) {
                    let explainer = make_method(method, Objective::Factual, args.effort, args.seed);
                    let fit_start = Instant::now();
                    explainer.fit(&model, &refs);
                    let fit_secs = fit_start.elapsed().as_secs_f64();
                    let start = Instant::now();
                    for e in &instances {
                        let _ = explainer.explain(&model, &e.instance);
                    }
                    (
                        start.elapsed().as_secs_f64() / instances.len() as f64,
                        fit_secs,
                    )
                } else {
                    let jobs: Vec<ExplainJob> = instances
                        .iter()
                        .map(|e| ExplainJob {
                            graph: e.instance.graph.clone(),
                            target: e.instance.target,
                            graph_id: e.graph_id,
                            make_explainer: method_factory(method, Objective::Factual, args.effort),
                            needs_flows: is_flow_based(method),
                            max_flows: flow_cap(args.effort),
                            shrink_on_overflow: true,
                            deadline: None,
                            trace: false,
                            trace_key: None,
                            warm_start: false,
                            batch_spec: None,
                        })
                        .collect();
                    let start = Instant::now();
                    for r in rt.explain_batch(handle, jobs) {
                        let _ = r.unwrap_or_else(|e| panic!("{method}: job failed: {e}"));
                    }
                    (start.elapsed().as_secs_f64() / instances.len() as f64, 0.0)
                };
                table.row(vec![
                    name.to_string(),
                    kind.name().to_string(),
                    method.to_string(),
                    format!("{secs:.3}"),
                    format!("{fit_secs:.3}"),
                ]);
                eprintln!("{name}/{}/{method}: {secs:.3}s per instance", kind.name());
            }
        }
    }

    eprintln!("\n{}", rt.metrics().report());
    table.print();
    table.write_csv(experiments_dir().join("table5_runtime.csv"));
    println!("\nCSV written to target/experiments/table5_runtime.csv");
}
