//! Failure-injection and edge-case tests: corrupt caches, degenerate
//! graphs, and boundary inputs must fail loudly or degrade gracefully.

#![allow(clippy::unwrap_used)]

use revelio::prelude::*;

#[test]
fn corrupt_model_zoo_entry_triggers_retrain() {
    let dir = std::env::temp_dir().join(format!("revelio_corrupt_zoo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = ModelZoo::open(&dir);
    let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 2, 2, 0);

    // Write garbage where the cache entry lives.
    std::fs::write(dir.join("broken.model"), b"\x07not a model record").unwrap();
    assert!(zoo.load("broken", &cfg).is_none());

    // get_or_train recovers by retraining.
    let mut trained = false;
    let _ = zoo.get_or_train("broken", cfg.clone(), |_| trained = true);
    assert!(trained, "corrupt cache entry must trigger retraining");
    assert!(zoo.load("broken", &cfg).is_some(), "recovered entry loads");
}

#[test]
fn truncated_state_dict_is_rejected() {
    let dir = std::env::temp_dir().join(format!("revelio_trunc_zoo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let zoo = ModelZoo::open(&dir);
    let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 2, 2, 0);
    let model = Gnn::new(cfg.clone());
    zoo.save("m", &model);

    // Corrupt: cut the entry short, inside the last parameter buffer. The
    // config at the front is intact; the state dict no longer is.
    let path = dir.join("m.model");
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
    assert!(
        zoo.load("m", &cfg).is_none(),
        "short state dict must not load"
    );
}

#[test]
fn isolated_target_node_still_explainable() {
    // A graph where the target has no in-edges at all: the message-passing
    // view still has its self-loop, so flows exist and REVELIO runs.
    let mut b = Graph::builder(3, 2);
    b.edge(1, 2); // unrelated edge; node 0 isolated
    for v in 0..3 {
        b.node_features(v, &[1.0, v as f32]);
    }
    let g = b.build();
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        2,
        2,
        1,
    ));
    let inst = Instance::for_prediction(&model, g, Target::Node(0));
    let exp = Revelio::new(RevelioConfig {
        epochs: 10,
        ..Default::default()
    })
    .explain(&model, &inst);
    let flows = exp.flows.expect("self-loop flows exist");
    // Only the 0→0→0→0 self-loop chain reaches the isolated target.
    assert_eq!(flows.index.num_flows(), 1);
    assert_eq!(exp.edge_scores.len(), 1);
}

#[test]
fn single_node_graph_classification() {
    let mut b = Graph::builder(1, 2);
    b.node_features(0, &[1.0, 0.5]);
    b.graph_label(0);
    let g = b.build();
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gin,
        Task::GraphClassification,
        2,
        2,
        2,
    ));
    let probs = model.predict_probs(&g, Target::Graph);
    assert_eq!(probs.len(), 2);
    assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
}

#[test]
#[should_panic(expected = "out of range")]
fn with_edges_rejects_bad_edge_id() {
    let mut b = Graph::builder(2, 1);
    b.edge(0, 1);
    let g = b.build();
    let _ = g.with_edges(&[7]);
}

#[test]
fn zero_sparsity_perturbation_is_identity() {
    use revelio::eval::perturbed_probability;
    let mut b = Graph::builder(3, 2);
    b.undirected_edge(0, 1).undirected_edge(1, 2);
    for v in 0..3 {
        b.node_features(v, &[1.0, v as f32]);
    }
    let g = b.build();
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        2,
        2,
        3,
    ));
    let inst = Instance::for_prediction(&model, g, Target::Node(1));
    let all: Vec<usize> = (0..inst.graph.num_edges()).collect();
    let p = perturbed_probability(&model, &inst, &all);
    assert!((p - inst.orig_prob()).abs() < 1e-6);
}

#[test]
fn explainers_handle_two_node_graphs() {
    use revelio::eval::{make_method, Effort, ALL_METHODS};
    let mut b = Graph::builder(2, 2);
    b.undirected_edge(0, 1);
    b.node_features(0, &[1.0, 0.0]);
    b.node_features(1, &[0.0, 1.0]);
    let g = b.build();
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        2,
        2,
        4,
    ));
    let inst = Instance::for_prediction(&model, g, Target::Node(0));
    for name in ALL_METHODS {
        let e = make_method(name, Objective::Factual, Effort::Quick, 0);
        e.fit(&model, &[&inst]);
        let exp = e.explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), 2, "{name}");
    }
}
