//! Ablation of REVELIO's design choices (§IV-B of the paper):
//!
//! * **Mask squashing** (Eq. 4): the paper argues for `tanh` over `sigmoid`
//!   because negative scores prevent "excessive accumulation" on layer edges
//!   carrying many flows — the sigmoid ablation tests that claim.
//! * **Per-layer weight activation** (Eq. 5): the paper picks `exp` over
//!   `softplus` empirically, and explains why dropping the weight entirely
//!   ("None") misaligns the accumulated scores across layers.
//! * **Top-k flow preselection** (§VI future work): learn masks only for the
//!   k most salient flows — the memory/runtime optimisation the paper leaves
//!   open — and measure the fidelity cost.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin ablation_masks [--full]
//! ```

use std::time::Instant;

use revelio_bench::{instances_for, load_dataset, model_for, HarnessArgs};
use revelio_core::{Explainer, LayerWeight, MaskSquash, Objective, Revelio, RevelioConfig};
use revelio_eval::{experiments_dir, fidelity_minus, Effort, ModelZoo, Table};
use revelio_gnn::GnnKind;

struct Variant {
    name: &'static str,
    squash: MaskSquash,
    layer_weight: LayerWeight,
    preselect: Option<usize>,
}

fn main() {
    let mut args = HarnessArgs::parse();
    if args.datasets.len() == 8 {
        args.datasets = vec!["BA-Shapes", "Tree-Cycles"];
    }
    let zoo = ModelZoo::default_location();
    let epochs = match args.effort {
        Effort::Quick => 120,
        Effort::Paper => 500,
    };

    let variants = [
        Variant {
            name: "paper (tanh + exp)",
            squash: MaskSquash::Tanh,
            layer_weight: LayerWeight::Exp,
            preselect: None,
        },
        Variant {
            name: "sigmoid squash",
            squash: MaskSquash::Sigmoid,
            layer_weight: LayerWeight::Exp,
            preselect: None,
        },
        Variant {
            name: "softplus weights",
            squash: MaskSquash::Tanh,
            layer_weight: LayerWeight::Softplus,
            preselect: None,
        },
        Variant {
            name: "no layer weights",
            squash: MaskSquash::Tanh,
            layer_weight: LayerWeight::None,
            preselect: None,
        },
        Variant {
            name: "preselect top-256",
            squash: MaskSquash::Tanh,
            layer_weight: LayerWeight::Exp,
            preselect: Some(256),
        },
        Variant {
            name: "preselect top-64",
            squash: MaskSquash::Tanh,
            layer_weight: LayerWeight::Exp,
            preselect: Some(64),
        },
    ];

    let mut table = Table::new(
        "Ablation: REVELIO mask-transform design choices (Fidelity-, lower is better)",
        &["Dataset", "Variant", "Sparsity", "Fidelity-", "Sec/inst"],
    );

    for name in &args.datasets {
        let dataset = load_dataset(name, args.seed);
        let model = model_for(&zoo, &dataset, GnnKind::Gcn, &args);
        let instances = instances_for(&dataset, &model, &args, false);
        if instances.is_empty() {
            eprintln!("skipping {name}: no instances");
            continue;
        }
        for v in &variants {
            let r = Revelio::new(RevelioConfig {
                epochs,
                squash: v.squash,
                layer_weight: v.layer_weight,
                preselect: v.preselect,
                objective: Objective::Factual,
                seed: args.seed,
                ..Default::default()
            });
            let start = Instant::now();
            let explanations: Vec<_> = instances
                .iter()
                .map(|e| r.explain(&model, &e.instance))
                .collect();
            let secs = start.elapsed().as_secs_f64() / instances.len() as f64;
            for &s in &args.sparsities {
                let fm: f32 = instances
                    .iter()
                    .zip(&explanations)
                    .map(|(e, exp)| fidelity_minus(&model, &e.instance, exp, s))
                    .sum::<f32>()
                    / instances.len() as f32;
                table.row(vec![
                    name.to_string(),
                    v.name.to_string(),
                    format!("{s:.1}"),
                    format!("{fm:.4}"),
                    format!("{secs:.3}"),
                ]);
            }
            eprintln!("done: {name} / {}", v.name);
        }
    }

    table.print();
    table.write_csv(experiments_dir().join("ablation_masks.csv"));
    println!("\nCSV written to target/experiments/ablation_masks.csv");
}
