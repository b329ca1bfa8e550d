//! Edge-case and contract tests for tensor operators: empty inputs,
//! boundary values, and shape-mismatch panics.

use std::rc::Rc;
use std::sync::Arc;

use revelio_tensor::{Adam, BinCsr, EdgeIndex, FlowLossSpec, Objective, Optimizer, Sgd, Tensor};

#[test]
#[should_panic(expected = "incompatible shapes")]
fn matmul_shape_mismatch_panics() {
    let a = Tensor::zeros(2, 3);
    let b = Tensor::zeros(2, 3);
    let _ = a.matmul(&b);
}

#[test]
#[should_panic(expected = "shape mismatch")]
fn elementwise_shape_mismatch_panics() {
    let a = Tensor::zeros(2, 3);
    let b = Tensor::zeros(3, 2);
    let _ = a.add(&b);
}

#[test]
#[should_panic(expected = "invalid range")]
fn slice_cols_invalid_range_panics() {
    let a = Tensor::zeros(2, 3);
    let _ = a.slice_cols(2, 2);
}

#[test]
#[should_panic(expected = "message_pass: 3 rows but the edge index reads 2")]
fn message_pass_rejects_a_row_count_other_than_the_index_inputs() {
    // Two input rows feed three output rows; `x` has three rows.
    let edges = Arc::new(EdgeIndex::new(2, 3, vec![0, 1], vec![2, 2]));
    let _ = Tensor::zeros(3, 4).message_pass(&edges, None, None);
}

#[test]
#[should_panic(expected = "message_pass: scale must be [2,1]")]
fn message_pass_rejects_a_scale_of_the_wrong_length() {
    let edges = Arc::new(EdgeIndex::new(2, 3, vec![0, 1], vec![2, 2]));
    let _ = Tensor::zeros(2, 4).message_pass(&edges, None, Some(&Tensor::ones(3, 1)));
}

#[test]
fn message_pass_into_more_rows_than_it_reads_leaves_unfed_rows_zero() {
    let edges = Arc::new(EdgeIndex::new(1, 3, vec![0, 0], vec![2, 0]));
    let x = Tensor::from_vec(vec![1.5, -2.0], 1, 2);
    let out = x.message_pass(&edges, Some(&Tensor::from_vec(vec![2.0, 0.5], 2, 1)), None);
    assert_eq!(out.shape(), (3, 2));
    assert_eq!(out.to_vec(), vec![0.75, -1.0, 0.0, 0.0, 3.0, -4.0]);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn gather_rows_out_of_bounds_panics() {
    let a = Tensor::zeros(2, 3);
    let _ = a.gather_rows(&[2]);
}

#[test]
fn gather_rows_empty_index_gives_empty_tensor() {
    let a = Tensor::from_vec(vec![1.0, 2.0], 1, 2);
    let g = a.gather_rows(&[]);
    assert_eq!(g.shape(), (0, 2));
    assert!(g.is_empty());
}

#[test]
fn gather_rows_repeats_rows() {
    let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2);
    let g = a.gather_rows(&[1, 1, 0]);
    assert_eq!(g.to_vec(), vec![3.0, 4.0, 3.0, 4.0, 1.0, 2.0]);
}

#[test]
fn scatter_add_collision_sums() {
    let a = Tensor::from_vec(vec![1.0, 10.0, 100.0], 3, 1);
    let s = a.scatter_add_rows(&[0, 0, 0], 2);
    assert_eq!(s.to_vec(), vec![111.0, 0.0]);
}

#[test]
fn log_softmax_extreme_values_stay_finite() {
    let x = Tensor::from_vec(vec![1000.0, -1000.0, 0.0], 1, 3);
    let ls = x.log_softmax_rows();
    assert!(ls.to_vec().iter().all(|v| v.is_finite()));
    assert!((ls.get(0, 0) - 0.0).abs() < 1e-4); // dominant logit ≈ log 1
}

#[test]
fn exp_ln_roundtrip() {
    let x = Tensor::from_vec(vec![0.5, 1.0, 2.0], 1, 3);
    let y = x.ln().exp();
    for (a, b) in x.to_vec().iter().zip(y.to_vec()) {
        assert!((a - b).abs() < 1e-5);
    }
}

#[test]
fn sp_matvec_empty_rows_produce_zeros() {
    let m = Arc::new(BinCsr::from_rows(3, 2, &[vec![], vec![0, 1], vec![]]));
    let x = Tensor::from_vec(vec![2.0, 3.0], 2, 1);
    assert_eq!(x.sp_matvec(&m).to_vec(), vec![0.0, 5.0, 0.0]);
}

#[test]
fn backward_through_shared_subexpression_counts_both_paths() {
    // y = x*x + x → dy/dx = 2x + 1.
    let x = Tensor::scalar(3.0).requires_grad();
    let y = x.mul(&x).add(&x);
    y.backward();
    assert_eq!(x.grad_vec(), vec![7.0]);
}

#[test]
fn backward_on_diamond_graph() {
    // a → b, c; d = b + c. dd/da = 2 (both paths).
    let a = Tensor::scalar(5.0).requires_grad();
    let b = a.mul_scalar(1.0);
    let c = a.add_scalar(0.0);
    let d = b.add(&c);
    d.backward();
    assert_eq!(a.grad_vec(), vec![2.0]);
}

#[test]
fn deep_chain_backward_does_not_overflow_stack() {
    // 20k chained ops exercise the iterative DFS in backward().
    let x = Tensor::scalar(1.0).requires_grad();
    let mut y = x.clone();
    for _ in 0..20_000 {
        y = y.add_scalar(1.0);
    }
    y.backward();
    assert_eq!(x.grad_vec(), vec![1.0]);
}

#[test]
fn optimizer_handles_mixed_grad_presence() {
    let a = Tensor::scalar(1.0).requires_grad();
    let b = Tensor::scalar(2.0).requires_grad();
    let mut opt = Adam::new(vec![a.clone(), b.clone()], 0.1);
    // Only `a` participates in the loss.
    a.mul_scalar(2.0).backward();
    opt.step();
    assert_ne!(a.item(), 1.0);
    assert_eq!(b.item(), 2.0);
}

#[test]
fn sgd_weight_decay_pulls_towards_zero_under_zero_gradient() {
    let w = Tensor::scalar(4.0).requires_grad();
    let mut opt = Sgd::new(vec![w.clone()], 0.5).with_weight_decay(0.1);
    for _ in 0..3 {
        opt.zero_grad();
        w.mul_scalar(0.0).backward(); // zero gradient, decay only
        opt.step();
    }
    assert!(w.item() < 4.0 && w.item() > 0.0);
}

#[test]
fn segment_softmax_single_element_segments_are_one() {
    let x = Tensor::from_vec(vec![-5.0, 100.0, 0.0], 3, 1);
    let sm = x.segment_softmax(&[0, 1, 2]);
    for v in sm.to_vec() {
        assert!((v - 1.0).abs() < 1e-6);
    }
}

#[test]
fn mean_rows_single_row_is_identity() {
    let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], 1, 3);
    assert_eq!(x.mean_rows().to_vec(), x.to_vec());
}

#[test]
fn concat_cols_empty_rows() {
    let a = Tensor::zeros(0, 2);
    let b = Tensor::zeros(0, 3);
    assert_eq!(a.concat_cols(&b).shape(), (0, 5));
}

/// Two items over two layers of three mask rows: item 0 uses row 0 of
/// layer 0, item 1 rows 1 and 2 of layer 1.
fn two_item_spec() -> Rc<FlowLossSpec> {
    Rc::new(FlowLossSpec::new(
        Objective::Factual,
        0.5,
        vec![0, 2],
        vec![(vec![0, 1, 1], vec![0]), (vec![0, 0, 2], vec![1, 2])],
    ))
}

#[test]
fn flow_loss_fits_its_spec() {
    let masks = [Tensor::zeros(3, 1), Tensor::zeros(3, 1)];
    let (total, losses) = Tensor::zeros(2, 3).flow_loss(&masks, &two_item_spec());
    assert_eq!(total.shape(), (1, 1));
    assert_eq!(losses.len(), 2);
}

#[test]
#[should_panic(expected = "segment offsets [0, 2, 1] are ragged")]
fn flow_loss_rejects_ragged_segment_offsets() {
    let _ = FlowLossSpec::new(
        Objective::Factual,
        0.5,
        vec![0, 1],
        vec![(vec![0, 2, 1], vec![0, 1])],
    );
}

#[test]
#[should_panic(expected = "used row 2 beyond layer 1's 2 mask rows")]
fn flow_loss_rejects_a_used_row_beyond_the_mask() {
    let masks = [Tensor::zeros(3, 1), Tensor::zeros(2, 1)];
    let _ = Tensor::zeros(2, 3).flow_loss(&masks, &two_item_spec());
}

#[test]
#[should_panic(expected = "item 1's class 2 out of range for 2 classes")]
fn flow_loss_rejects_a_class_beyond_the_columns() {
    let masks = [Tensor::zeros(3, 1), Tensor::zeros(3, 1)];
    let _ = Tensor::zeros(2, 2).flow_loss(&masks, &two_item_spec());
}

#[test]
#[should_panic(expected = "1 masks for 2 layers")]
fn flow_loss_rejects_a_mask_count_other_than_the_layer_count() {
    let _ = Tensor::zeros(2, 3).flow_loss(&[Tensor::zeros(3, 1)], &two_item_spec());
}

#[test]
#[should_panic(expected = "3 log-prob rows for 2 items")]
fn flow_loss_rejects_a_row_count_other_than_the_item_count() {
    let masks = [Tensor::zeros(3, 1), Tensor::zeros(3, 1)];
    let _ = Tensor::zeros(3, 3).flow_loss(&masks, &two_item_spec());
}

#[test]
#[should_panic(expected = "layer 0's mask must be a column, got [3,2]")]
fn flow_loss_rejects_a_mask_that_is_not_a_column() {
    let masks = [Tensor::zeros(3, 2), Tensor::zeros(3, 1)];
    let _ = Tensor::zeros(2, 3).flow_loss(&masks, &two_item_spec());
}

#[test]
#[should_panic(expected = "do not split 3 rows into non-empty segments")]
fn segment_mean_rows_rejects_an_empty_segment() {
    let _ = Tensor::zeros(3, 2).segment_mean_rows(&[0, 2, 2, 3]);
}
