//! A minimal reverse-mode automatic-differentiation engine for dense `f32`
//! matrices, purpose-built for the REVELIO reproduction.
//!
//! The engine supports exactly the operator set needed to (a) train the
//! paper's GNN models (GCN / GIN / GAT) and (b) learn explanation masks
//! (REVELIO flow masks, GNNExplainer / PGExplainer / GraphMask edge masks,
//! FlowX refinement):
//!
//! * dense matmul, elementwise arithmetic, row/column broadcasts,
//! * ReLU / LeakyReLU / tanh / sigmoid / exp / ln / softplus activations,
//! * row-wise log-softmax and NLL loss,
//! * `flow_loss`: REVELIO's factual or counterfactual objective plus the
//!   used-edge sparsity penalty for a whole batch of explanations in one
//!   op, bit-identical to the chain of the primitives above it replaces,
//! * `message_pass`: gather, per-edge scaling (normalisation or attention,
//!   then the Eq. 6 edge mask) and sum aggregation fused into one op over a
//!   shared, once-checked [`EdgeIndex`], bit-identical to the
//!   `gather_rows` → `mul_col_broadcast` → `scatter_add_rows` chain, which
//!   stays public as its reference,
//! * `segment_softmax` (GAT attention normalised per destination node),
//! * sparse-binary × dense matvec (the flow-incidence transform of Eq. 7),
//! * sum / mean (whole or per row segment) reductions and column slicing /
//!   concatenation.
//!
//! Tensors are 2-D (`rows × cols`) and reference-counted; calling
//! [`Tensor::backward`] on a scalar output accumulates gradients into every
//! reachable tensor created with `requires_grad = true`.
//!
//! # Example
//!
//! ```
//! use revelio_tensor::Tensor;
//!
//! let w = Tensor::from_vec(vec![2.0, -1.0], 1, 2).requires_grad();
//! let x = Tensor::from_vec(vec![3.0, 4.0], 2, 1);
//! let y = w.matmul(&x); // 2*3 + (-1)*4 = 2
//! y.backward();
//! assert_eq!(y.item(), 2.0);
//! assert_eq!(w.grad_vec(), vec![3.0, 4.0]);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod edges;
mod flow_loss;
mod gradcheck;
mod init;
pub mod kernels;
mod ops;
mod optim;
mod sparse;
mod tensor;

pub use edges::EdgeIndex;
pub use flow_loss::{FlowLossSpec, Objective};
pub use gradcheck::{grad_check, GradCheckFailure, GradCheckReport};
pub use init::{glorot_uniform, uniform};
pub use ops::Op;
pub use optim::{clip_grad_norm, Adam, AdamConfig, Optimizer, Sgd};
pub use sparse::{BinCsr, CsrError, CsrMatrix};
pub use tensor::Tensor;
