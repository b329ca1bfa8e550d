//! Edge-case behaviour the explainers rely on: degenerate segment softmax
//! groups, empty sparse matrices, and fallible row gathering.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use revelio_tensor::{BinCsr, Tensor};

// ---------------- segment_softmax ----------------

#[test]
fn segment_softmax_skips_empty_segments() {
    // Segment 1 has no rows: ids are non-contiguous {0, 2}. The present
    // segments must still normalise to 1.
    let x = Tensor::from_vec(vec![1.0, 3.0, -2.0], 3, 1).requires_grad();
    let p = x.segment_softmax(&[0, 0, 2]);
    let v = p.to_vec();
    assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
    assert!((v[2] - 1.0).abs() < 1e-6, "singleton segment is exactly 1");
    assert!(v.iter().all(|p| p.is_finite()));

    // Backward through the degenerate grouping must stay finite.
    p.sum_all().backward();
    assert!(x.grad_vec().iter().all(|g| g.is_finite()));
}

#[test]
fn segment_softmax_on_zero_rows_is_empty() {
    let x = Tensor::from_vec(vec![], 0, 1);
    let p = x.segment_softmax(&[]);
    assert_eq!(p.shape(), (0, 1));
    assert!(p.to_vec().is_empty());
}

#[test]
fn segment_softmax_singleton_groups_are_saturated() {
    // Every row its own group: softmax of a single logit is 1 regardless
    // of magnitude (no overflow thanks to the internal max shift).
    let x = Tensor::from_vec(vec![500.0, -500.0], 2, 1);
    let v = x.segment_softmax(&[0, 1]).to_vec();
    assert_eq!(v, vec![1.0, 1.0]);
}

// ---------------- BinCsr degenerate shapes ----------------

#[test]
fn bin_csr_zero_rows_and_cols() {
    let m = BinCsr::from_rows(0, 0, &[]);
    assert_eq!(m.rows(), 0);
    assert_eq!(m.cols(), 0);
    assert_eq!(m.nnz(), 0);
    assert_eq!(m.iter().count(), 0);
}

#[test]
fn bin_csr_zero_cols_with_empty_rows() {
    let m = BinCsr::from_rows(3, 0, &[vec![], vec![], vec![]]);
    assert_eq!(m.rows(), 3);
    assert_eq!(m.cols(), 0);
    assert_eq!(m.nnz(), 0);
    for r in 0..3 {
        assert!(m.row(r).is_empty());
    }
}

#[test]
fn sp_matvec_with_zero_column_matrix() {
    // 2×0 matrix times a [0,1] vector: a defined, all-zero [2,1] result.
    let m = Arc::new(BinCsr::from_rows(2, 0, &[vec![], vec![]]));
    let x = Tensor::from_vec(vec![], 0, 1).requires_grad();
    let y = x.sp_matvec(&m);
    assert_eq!(y.shape(), (2, 1));
    assert_eq!(y.to_vec(), vec![0.0, 0.0]);
    y.sum_all().backward();
    assert!(x.grad_vec().is_empty());
}

#[test]
#[should_panic(expected = "out of bounds")]
fn gather_rows_panic_message_names_the_bound() {
    let t = Tensor::from_vec(vec![1.0], 1, 1);
    let _ = t.gather_rows(&[1]);
}
