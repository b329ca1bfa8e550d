//! Finite-difference gradient checks for every public differentiable op.
//!
//! Each test perturbs every element of every leaf with central differences
//! (`eps = 1e-2`) and requires the analytic gradient to agree within a
//! relative error of `1e-2`. Inputs are chosen away from kinks (`relu`,
//! `leaky_relu`, `clamp_min`) and away from singularities (`div`, `ln`).

#![allow(clippy::unwrap_used)]

use std::rc::Rc;
use std::sync::Arc;

use revelio_tensor::{grad_check, BinCsr, EdgeIndex, FlowLossSpec, Objective, Tensor};

const EPS: f32 = 1e-2;
const TOL: f32 = 1e-2;

/// A 2×3 leaf with values clear of all activation kinks.
fn leaf_a() -> Tensor {
    Tensor::from_vec(vec![0.6, -0.9, 1.4, -0.3, 0.8, -1.2], 2, 3).requires_grad()
}

/// A strictly positive 2×3 leaf (safe denominator / `ln` argument).
fn leaf_pos() -> Tensor {
    Tensor::from_vec(vec![1.3, 0.7, 2.1, 0.9, 1.8, 0.5], 2, 3).requires_grad()
}

/// Weights the elements of `t` with a deterministic ramp and sums, so the
/// upstream gradient is distinct per element (a plain `sum_all` would feed
/// an all-ones gradient and miss transposition/permutation bugs).
fn weighted_sum(t: &Tensor) -> Tensor {
    let (m, n) = t.shape();
    let w: Vec<f32> = (0..m * n).map(|i| 0.3 + 0.17 * i as f32).collect();
    t.mul(&Tensor::from_vec(w, m, n)).sum_all()
}

fn check(f: impl FnMut() -> Tensor, leaves: &[Tensor]) {
    let report = grad_check(f, leaves, EPS, TOL).unwrap();
    assert!(report.checked > 0);
}

// ---------------- elementwise binary ----------------

#[test]
fn grad_add() {
    let (a, b) = (leaf_a(), leaf_pos());
    check(|| weighted_sum(&a.add(&b)), &[a.clone(), b.clone()]);
}

#[test]
fn grad_mul() {
    let (a, b) = (leaf_a(), leaf_pos());
    check(|| weighted_sum(&a.mul(&b)), &[a.clone(), b.clone()]);
}

#[test]
fn grad_div() {
    let (a, b) = (leaf_a(), leaf_pos());
    check(|| weighted_sum(&a.div(&b)), &[a.clone(), b.clone()]);
}

// ---------------- elementwise unary ----------------

#[test]
fn grad_neg() {
    let a = leaf_a();
    check(|| weighted_sum(&a.neg()), std::slice::from_ref(&a));
}

#[test]
fn grad_relu() {
    let a = leaf_a(); // all elements ≥ 0.3 from the kink at 0
    check(|| weighted_sum(&a.relu()), std::slice::from_ref(&a));
}

#[test]
fn grad_leaky_relu() {
    let a = leaf_a();
    check(
        || weighted_sum(&a.leaky_relu(0.01)),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_tanh() {
    let a = leaf_a();
    check(|| weighted_sum(&a.tanh_t()), std::slice::from_ref(&a));
}

#[test]
fn grad_sigmoid() {
    let a = leaf_a();
    check(|| weighted_sum(&a.sigmoid()), std::slice::from_ref(&a));
}

#[test]
fn grad_exp() {
    let a = leaf_a();
    check(|| weighted_sum(&a.exp()), std::slice::from_ref(&a));
}

#[test]
fn grad_ln() {
    let a = leaf_pos();
    check(|| weighted_sum(&a.ln()), std::slice::from_ref(&a));
}

#[test]
fn grad_softplus() {
    let a = leaf_a();
    check(|| weighted_sum(&a.softplus()), std::slice::from_ref(&a));
}

#[test]
fn grad_add_scalar() {
    let a = leaf_a();
    check(
        || weighted_sum(&a.add_scalar(0.75)),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_mul_scalar() {
    let a = leaf_a();
    check(
        || weighted_sum(&a.mul_scalar(-1.5)),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_clamp_min() {
    let a = leaf_a(); // closest element to the clamp at -1.5 is -1.2
    check(
        || weighted_sum(&a.clamp_min(-1.5)),
        std::slice::from_ref(&a),
    );
}

// ---------------- linear algebra & broadcasts ----------------

#[test]
fn grad_matmul() {
    let a = leaf_a();
    let b = Tensor::from_vec(vec![0.4, -0.6, 1.1, 0.2, -0.8, 0.9], 3, 2).requires_grad();
    check(|| weighted_sum(&a.matmul(&b)), &[a.clone(), b.clone()]);
}

#[test]
fn grad_add_row_broadcast() {
    let a = leaf_a();
    let bias = Tensor::from_vec(vec![0.3, -0.2, 0.5], 1, 3).requires_grad();
    check(
        || weighted_sum(&a.add_row_broadcast(&bias)),
        &[a.clone(), bias.clone()],
    );
}

#[test]
fn grad_mul_col_broadcast() {
    let a = leaf_a();
    let scale = Tensor::from_vec(vec![0.7, -1.3], 2, 1).requires_grad();
    check(
        || weighted_sum(&a.mul_col_broadcast(&scale)),
        &[a.clone(), scale.clone()],
    );
}

// ---------------- reductions ----------------

#[test]
fn grad_sum_all() {
    let a = leaf_a();
    check(|| a.sum_all(), std::slice::from_ref(&a));
}

#[test]
fn grad_mean_all() {
    let a = leaf_a();
    check(|| a.mean_all(), std::slice::from_ref(&a));
}

#[test]
fn grad_mean_rows() {
    let a = leaf_a();
    check(|| weighted_sum(&a.mean_rows()), std::slice::from_ref(&a));
}

#[test]
fn grad_segment_mean_rows() {
    let a =
        Tensor::from_vec((0..12).map(|i| (i as f32 * 0.45).sin()).collect(), 4, 3).requires_grad();
    check(
        || weighted_sum(&a.segment_mean_rows(&[0, 1, 4])),
        std::slice::from_ref(&a),
    );
}

// ---------------- softmax / loss ----------------

#[test]
fn grad_log_softmax_rows() {
    let a = leaf_a();
    check(
        || weighted_sum(&a.log_softmax_rows()),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_nll_loss() {
    let a = leaf_a();
    check(
        || a.log_softmax_rows().nll_loss(&[2, 0]),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_softmax_xent() {
    let a = leaf_a();
    check(|| a.softmax_xent(&[2, 0]), std::slice::from_ref(&a));
}

// ---------------- fused ops ----------------

#[test]
fn grad_sigmoid_scale_scalar_weight() {
    let a = leaf_a();
    let w = Tensor::from_vec(vec![1.7], 1, 1).requires_grad();
    check(
        || weighted_sum(&a.sigmoid_scale(&w)),
        &[a.clone(), w.clone()],
    );
}

#[test]
fn grad_sigmoid_scale_elementwise_weight() {
    let (a, w) = (leaf_a(), leaf_pos());
    check(
        || weighted_sum(&a.sigmoid_scale(&w)),
        &[a.clone(), w.clone()],
    );
}

#[test]
fn grad_bias_leaky_relu() {
    let a = leaf_a(); // elements clear of the kink once the bias shifts them
    let bias = Tensor::from_vec(vec![0.21, -0.17, 0.33], 1, 3).requires_grad();
    check(
        || weighted_sum(&a.bias_leaky_relu(&bias, 0.01)),
        &[a.clone(), bias.clone()],
    );
}

#[test]
fn grad_segment_softmax() {
    // Two segments of different sizes, two columns.
    let a = Tensor::from_vec(vec![0.5, -0.8, 1.2, 0.3, -0.4, 0.9, 0.1, -1.1], 4, 2).requires_grad();
    check(
        || weighted_sum(&a.segment_softmax(&[0, 0, 0, 1])),
        std::slice::from_ref(&a),
    );
}

// ---------------- indexing / shaping ----------------

#[test]
fn grad_gather_rows() {
    let a = leaf_a();
    // Row 0 gathered twice: its gradient must accumulate.
    check(
        || weighted_sum(&a.gather_rows(&[1, 0, 0])),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_message_pass() {
    let x = leaf_a();
    // Four edges from two input rows into four output rows: a repeated
    // source row, two edges into output row 2 and none into row 3.
    let edges = Arc::new(EdgeIndex::new(2, 4, vec![1, 0, 0, 1], vec![0, 2, 2, 1]));
    let coef = Tensor::from_vec(vec![0.7, -1.3, 0.4, 1.1], 4, 1).requires_grad();
    let scale = Tensor::from_vec(vec![0.9, 0.35, -0.6, 1.5], 4, 1).requires_grad();
    check(
        || weighted_sum(&x.message_pass(&edges, Some(&coef), Some(&scale))),
        &[x.clone(), coef.clone(), scale.clone()],
    );
}

#[test]
fn grad_scatter_add_rows() {
    let a = leaf_a();
    // Both rows collide in output row 1; output row 0 stays empty.
    check(
        || weighted_sum(&a.scatter_add_rows(&[1, 1], 3)),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_slice_cols() {
    let a = leaf_a();
    check(
        || weighted_sum(&a.slice_cols(1, 3)),
        std::slice::from_ref(&a),
    );
}

#[test]
fn grad_concat_cols() {
    let (a, b) = (leaf_a(), leaf_pos());
    check(|| weighted_sum(&a.concat_cols(&b)), &[a.clone(), b.clone()]);
}

// ---------------- sparse ----------------

#[test]
fn grad_sp_matvec() {
    // 3×4 incidence-like matrix with an empty row and a shared column.
    let mat = Arc::new(BinCsr::from_rows(
        3,
        4,
        &[vec![0, 2], vec![], vec![1, 2, 3]],
    ));
    let x = Tensor::from_vec(vec![0.6, -0.9, 1.4, -0.3], 4, 1).requires_grad();
    check(
        || weighted_sum(&x.sp_matvec(&mat)),
        std::slice::from_ref(&x),
    );
}

// ---------------- REVELIO batch loss ----------------

/// `flow_loss` over `b` items (1 or 3), three classes and two layers of
/// five mask rows, differentiated w.r.t. the logits and both masks.
///
/// Item 0 uses rows {0, 3} of layer 0 and nothing of layer 1 (an empty
/// used set on one layer). With three items, item 1 uses no edge at all
/// (its loss is the prediction term alone) and item 2 uses rows {1, 4} of
/// layer 0 and {0, 2, 3} of layer 1.
fn check_flow_loss(objective: Objective, b: usize) {
    let logits: Vec<f32> = (0..b * 3).map(|i| (i as f32 * 0.7 + 0.2).sin()).collect();
    let logits = Tensor::from_vec(logits, b, 3).requires_grad();
    let masks = [
        Tensor::from_vec(vec![0.2, 0.7, 0.4, 0.9, 0.55], 5, 1).requires_grad(),
        Tensor::from_vec(vec![0.6, 0.3, 0.8, 0.15, 0.45], 5, 1).requires_grad(),
    ];
    let used = if b == 1 {
        vec![(vec![0, 2], vec![0, 3]), (vec![0, 0], vec![])]
    } else {
        vec![
            (vec![0, 2, 2, 4], vec![0, 3, 1, 4]),
            (vec![0, 0, 0, 3], vec![0, 2, 3]),
        ]
    };
    let classes = (0..b).map(|j| (j + 1) % 3).collect();
    let spec = Rc::new(FlowLossSpec::new(objective, 0.7, classes, used));
    let mut leaves = vec![logits.clone()];
    leaves.extend(masks.iter().cloned());
    check(
        || logits.log_softmax_rows().flow_loss(&masks, &spec).0,
        &leaves,
    );
}

#[test]
fn grad_flow_loss_factual_single_item() {
    check_flow_loss(Objective::Factual, 1);
}

#[test]
fn grad_flow_loss_factual_batch() {
    check_flow_loss(Objective::Factual, 3);
}

#[test]
fn grad_flow_loss_counterfactual_single_item() {
    check_flow_loss(Objective::Counterfactual, 1);
}

#[test]
fn grad_flow_loss_counterfactual_batch() {
    check_flow_loss(Objective::Counterfactual, 3);
}
