//! Graph containers and message-flow machinery for the REVELIO reproduction.
//!
//! This crate provides:
//!
//! * [`Graph`] — a directed graph with node features and (node or graph)
//!   labels, the input representation for every dataset in the paper;
//! * [`MpGraph`] — the *message-passing view* of a graph: the self-loop
//!   augmented layer-edge set shared by all GNN layers, with gather/scatter
//!   index arrays ready for the tensor engine, and [`MpGraph::plan`], the
//!   per-layer [`LayerEdges`] trimmed to a target's receptive field;
//! * [`FlowIndex`] — enumeration of all **message flows** (length-`L`
//!   layer-edge paths, §III of the paper) together with the sparse
//!   flow-incidence matrices `I` of Eq. 7;
//! * [`khop_subgraph`] — extraction of the `L`-hop computation subgraph
//!   around a target node, on which node-classification explanations run.

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod flows;
mod graph;
mod mp;
mod subgraph;

pub use flows::{count_flows, CappedFlows, FlowIndex, FlowPartsError, Target, TooManyFlows};
pub use graph::{Graph, GraphBuilder};
pub use mp::{LayerEdges, MpGraph};
/// The CSR form [`Graph`] holds its node features in.
pub use revelio_tensor::CsrMatrix;
pub use subgraph::{khop_subgraph, KhopSubgraph};
