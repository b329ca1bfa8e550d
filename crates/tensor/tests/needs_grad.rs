//! Backward differentiates only what leads to a flagged tensor: unflagged
//! leaves get no gradient, and the flagged ones get exactly the gradient a
//! fully differentiated graph gives them.

use std::rc::Rc;
use std::sync::Arc;

use revelio_tensor::{EdgeIndex, FlowLossSpec, Objective, Tensor};

/// A small masked-message-passing tape: `x · w`, gathered, scaled by
/// `σ(m)` per row, tanh, summed — a constant input, a weight and a mask
/// meeting in two-operand ops (matmul, column broadcast).
fn loss(x: &Tensor, w: &Tensor, m: &Tensor) -> Tensor {
    x.matmul(w)
        .gather_rows(&[0, 2, 1, 2])
        .mul_col_broadcast(&m.sigmoid())
        .tanh_t()
        .sum_all()
}

fn leaves(flag_x: bool, flag_w: bool) -> (Tensor, Tensor, Tensor) {
    let x = Tensor::from_vec((0..12).map(|i| (i as f32 * 0.37).sin()).collect(), 3, 4);
    let w = Tensor::from_vec((0..8).map(|i| (i as f32 * 0.61).cos()).collect(), 4, 2);
    let m = Tensor::from_vec(vec![0.3, -0.8, 1.1, 0.05], 4, 1).requires_grad();
    let x = if flag_x { x.requires_grad() } else { x };
    let w = if flag_w { w.requires_grad() } else { w };
    (x, w, m)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

#[test]
fn unflagged_leaves_get_no_gradient_and_the_flagged_one_is_bit_identical() {
    let (x, w, m) = leaves(false, false);
    loss(&x, &w, &m).backward();
    assert!(!x.has_grad(), "a constant input must not be differentiated");
    assert!(!w.has_grad(), "a frozen weight must not be differentiated");
    assert!(m.has_grad());

    let (fx, fw, fm) = leaves(true, true);
    loss(&fx, &fw, &fm).backward();
    assert!(fx.has_grad() && fw.has_grad());
    assert_eq!(bits(&m.grad_vec()), bits(&fm.grad_vec()));
}

#[test]
fn each_operand_of_a_matmul_is_differentiated_on_its_own() {
    let (full_x, full_w, full_m) = leaves(true, true);
    loss(&full_x, &full_w, &full_m).backward();
    for (flag_x, flag_w) in [(true, false), (false, true)] {
        let (x, w, m) = leaves(flag_x, flag_w);
        loss(&x, &w, &m).backward();
        assert_eq!(x.has_grad(), flag_x);
        assert_eq!(w.has_grad(), flag_w);
        let (flagged, reference) = if flag_x { (&x, &full_x) } else { (&w, &full_w) };
        assert_eq!(bits(&flagged.grad_vec()), bits(&reference.grad_vec()));
        assert_eq!(bits(&m.grad_vec()), bits(&full_m.grad_vec()));
    }
}

#[test]
fn an_intermediate_flagged_after_it_was_built_still_gets_its_gradient() {
    // GradCAM's pattern: the tape exists before the feature map is flagged,
    // and nothing upstream of the feature map is flagged at all.
    let (x, w, _) = leaves(false, false);
    let features = x.matmul(&w).relu();
    let retained = features.clone().requires_grad();
    features.mul_scalar(2.0).sum_all().backward();
    assert_eq!(retained.grad_vec(), vec![2.0; 6]);
    assert!(!x.has_grad() && !w.has_grad());
}

#[test]
fn nothing_flagged_means_nothing_differentiated() {
    let (x, w, _) = leaves(false, false);
    let out = x.matmul(&w).sum_all();
    out.backward();
    assert!(!out.has_grad() && !x.has_grad() && !w.has_grad());
}

#[test]
fn unflagged_intermediates_keep_no_gradient_after_the_pass() {
    let (x, w, m) = leaves(false, false);
    let hidden = x
        .matmul(&w)
        .mul_col_broadcast(&m.sigmoid().gather_rows(&[0, 1, 2]));
    hidden.sum_all().backward();
    assert!(!hidden.has_grad());
    assert!(m.has_grad());
}

#[test]
fn a_flag_reached_only_through_the_third_operand_is_differentiated() {
    // Message passing reads `x`, `coef` and `scale`; here only the mask
    // behind `scale` is flagged.
    let (x, _, m) = leaves(false, false);
    let coef = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25], 4, 1);
    let edges = Arc::new(EdgeIndex::new(3, 3, vec![0, 2, 1, 2], vec![1, 1, 0, 2]));
    let pass = |x: &Tensor, coef: &Tensor, m: &Tensor| {
        x.message_pass(&edges, Some(coef), Some(&m.sigmoid()))
            .tanh_t()
            .sum_all()
    };
    pass(&x, &coef, &m).backward();
    assert!(
        m.has_grad(),
        "the mask behind the third operand needs its gradient"
    );
    assert!(
        !coef.has_grad(),
        "an unflagged coef must not be differentiated"
    );
    assert!(!x.has_grad());

    let (fx, _, fm) = leaves(true, false);
    let fcoef = coef.detach().requires_grad();
    pass(&fx, &fcoef, &fm).backward();
    assert!(fx.has_grad() && fcoef.has_grad());
    assert_eq!(bits(&m.grad_vec()), bits(&fm.grad_vec()));
}

#[test]
fn a_flag_reached_only_past_the_third_operand_is_differentiated() {
    // The batch loss reads the log-probs and then one mask per layer: with
    // three layers the last mask is its fourth operand, and here only the
    // leaf behind it is flagged.
    let spec = Rc::new(FlowLossSpec::new(
        Objective::Factual,
        0.5,
        vec![1],
        vec![
            (vec![0, 1], vec![0]),
            (vec![0, 1], vec![1]),
            (vec![0, 2], vec![0, 2]),
        ],
    ));
    let logp = Tensor::from_vec(vec![0.3, -0.4], 1, 2).log_softmax_rows();
    let constant = Tensor::from_vec(vec![0.5, 0.25, 0.75], 3, 1);
    let m = Tensor::from_vec(vec![0.3, -0.8, 1.1], 3, 1).requires_grad();
    let masks = [constant.clone(), constant.clone(), m.sigmoid()];
    logp.flow_loss(&masks, &spec).0.backward();
    assert!(
        m.has_grad(),
        "the mask behind the fourth operand needs its gradient"
    );
    assert!(!constant.has_grad());
    // Two used rows out of four: each gets alpha / 4 through the sigmoid.
    let g = m.grad_vec();
    assert_eq!(g[1], 0.0);
    for i in [0, 2] {
        let s = masks[2].to_vec()[i];
        assert!((g[i] - 0.125 * s * (1.0 - s)).abs() < 1e-7, "{g:?}");
    }
}
