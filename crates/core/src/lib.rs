//! REVELIO — the paper's primary contribution.
//!
//! Given a pretrained GNN and an instance (graph + prediction target),
//! REVELIO learns an importance score for every **message flow** — each
//! length-`L` layer-edge path — by:
//!
//! 1. allocating one learnable mask per flow (`M ∈ ℝ^{|F|}`),
//! 2. squashing them to scores `ω[F] = tanh(M)` (Eq. 4),
//! 3. distributing the scores onto layer edges through the sparse incidence
//!    matrices and per-layer learned weights,
//!    `ω[E] = σ(I · ω[F] ⊙ exp(w))` (Eqs. 5 & 7),
//! 4. multiplying the layer-edge masks into the GNN's message step (Eq. 6),
//! 5. optimising the factual (Eq. 1) or counterfactual (Eq. 2) objective with
//!    a sparsity regulariser (Eqs. 8–9).
//!
//! This crate also defines the [`Explainer`] trait and [`Explanation`] type
//! shared with every baseline in `revelio-baselines`.

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod batch;
mod control;
mod explanation;
mod revelio;
pub mod wire;

pub use batch::{BatchItem, BatchedOptimizer, ControlledItem, BATCH_TOLERANCE};
pub use control::{ControlledExplanation, ConvergedMask, Deadline, Degradation, ExplainControl};
pub use explanation::{aggregate_flow_scores, Explainer, Explanation, FlowScores, Objective};
pub use revelio::{ExplainError, LayerWeight, MaskSquash, Revelio, RevelioConfig};
pub use wire::{Codec, ControlSpec, WireDecodeError, WireReader};
