//! GNN models (GCN / GIN / GAT) and training loops for the REVELIO
//! reproduction.
//!
//! All three architectures share the message-passing skeleton of §III of the
//! paper — message calculation, aggregation, node update — realised with the
//! tensor engine's gather/scatter primitives. Every layer accepts an
//! optional per-layer-edge mask which multiplies the message step (Eq. 6),
//! the hook through which REVELIO and the perturbation-based baselines
//! operate.
//!
//! Models follow the paper's evaluation setup: three layers, GAT with eight
//! attention heads, node-classification logits straight from the last layer,
//! graph-classification via mean-pool readout plus a linear head.

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod instance;
mod layer;
mod model;
mod plan;
mod train;

pub use instance::Instance;
pub use layer::Layer;
pub use model::{Gnn, GnnConfig, GnnKind, Task};
pub use plan::Plan;
pub use train::{
    evaluate_graph_accuracy, evaluate_node_accuracy, train_graph_classifier, train_node_classifier,
    TrainConfig,
};
