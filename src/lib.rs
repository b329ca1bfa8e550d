//! # revelio
//!
//! A from-scratch Rust reproduction of **REVELIO: Revealing Important
//! Message Flows in Graph Neural Networks** (He, King & Huang, ICDE 2025).
//!
//! REVELIO explains a GNN prediction at the granularity of **message
//! flows** — the length-`L` layer-edge paths along which information travels
//! in an `L`-layer GNN — by learning one mask per flow and transforming the
//! flow masks into per-layer edge masks applied to the message-passing step.
//!
//! This crate re-exports the whole workspace:
//!
//! * [`tensor`] — reverse-mode autodiff engine (dense f32 matrices);
//! * [`graph`] — graph containers, flow enumeration, incidence index;
//! * [`datasets`] — the eight Table III benchmark generators;
//! * [`gnn`] — GCN / GIN / GAT with mask-aware message passing + training;
//! * [`core`] — the REVELIO explainer itself;
//! * [`baselines`] — the nine baseline explainers of the evaluation;
//! * [`eval`] — Fidelity± / AUC metrics and the experiment harness.
//!
//! ## Quickstart
//!
//! ```
//! use revelio::prelude::*;
//!
//! // A toy node-classification graph: two cliques with telltale features.
//! let mut b = Graph::builder(8, 2);
//! for c in 0..2 {
//!     let base = c * 4;
//!     for i in 0..4 {
//!         for j in (i + 1)..4 {
//!             b.undirected_edge(base + i, base + j);
//!         }
//!         b.node_features(base + i, &[1.0 - c as f32, c as f32]);
//!     }
//! }
//! b.node_labels(vec![0, 0, 0, 0, 1, 1, 1, 1]);
//! let g = b.build();
//!
//! // Train a 3-layer GCN.
//! let model = Gnn::new(GnnConfig::standard(
//!     GnnKind::Gcn, Task::NodeClassification, 2, 2, 0,
//! ));
//! let all: Vec<usize> = (0..8).collect();
//! train_node_classifier(&model, &g, &all, &TrainConfig { epochs: 60, ..Default::default() });
//!
//! // Explain the prediction at node 0 with REVELIO.
//! let sub = khop_subgraph(&g, 0, 3);
//! let instance = Instance::for_prediction(&model, sub.graph.clone(), Target::Node(sub.target));
//! let revelio = Revelio::new(RevelioConfig { epochs: 50, ..Default::default() });
//! let explanation = revelio.explain(&model, &instance);
//!
//! let flows = explanation.flows.expect("REVELIO scores message flows");
//! let (best_flow, score) = flows.top_k(1)[0];
//! println!("most important flow: {} (score {score:.3})",
//!          flows.index.flow_string(&instance.mp, best_flow));
//! ```

pub use revelio_baselines as baselines;
pub use revelio_core as core;
pub use revelio_datasets as datasets;
pub use revelio_eval as eval;
pub use revelio_gnn as gnn;
pub use revelio_graph as graph;
pub use revelio_runtime as runtime;
pub use revelio_tensor as tensor;

/// The most common imports in one place.
pub mod prelude {
    pub use revelio_baselines::{
        DeepLift, FlowX, GnnExplainer, GnnLrp, GradCam, GraphMask, PgExplainer, PgmExplainer,
        SubgraphX,
    };
    pub use revelio_core::{Explainer, Explanation, FlowScores, Objective, Revelio, RevelioConfig};
    pub use revelio_datasets::{by_name, Dataset, GraphDataset, NodeDataset};
    pub use revelio_eval::ModelZoo;
    pub use revelio_gnn::{
        train_graph_classifier, train_node_classifier, Gnn, GnnConfig, GnnKind, Instance, Task,
        TrainConfig,
    };
    pub use revelio_graph::{khop_subgraph, FlowIndex, Graph, MpGraph, Target};
    pub use revelio_runtime::{ExplainJob, Runtime, RuntimeConfig};
    pub use revelio_tensor::Tensor;
}
