//! Equivalence suite for the blocked kernels and fused ops.
//!
//! The blocked `matmul_nn/nt/tn` kernels claim bit-identity with the naive
//! reference loops; the fused ops (`sigmoid_scale`, `bias_leaky_relu`,
//! `softmax_xent`, `message_pass`, `flow_loss`) claim bit-identity with
//! their unfused chains in both the forward value and the gradient. Proptest drives
//! shapes through every blocking remainder case (rows % 4, cols % 8) with
//! coefficient grids that include exact zeros, so the zero-skip paths are
//! covered too. Values come from a quarter-integer grid in `[-4, 4]`: finite,
//! no `-0.0`, and no products that underflow — the regime the kernels'
//! bit-identity contract is stated for.

#![allow(clippy::unwrap_used)]

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;
use revelio_tensor::kernels::{
    matmul_csr, matmul_nn, matmul_nn_naive, matmul_nt, matmul_nt_naive, matmul_tn, matmul_tn_naive,
};
use revelio_tensor::{CsrMatrix, EdgeIndex, FlowLossSpec, Objective, Tensor};

/// Maps raw integer draws onto the quarter-integer grid `[-4, 4]`, turning
/// sentinel draws into exact `+0.0` so the zero-skip paths get exercised.
fn grid(qs: &[i32]) -> Vec<f32> {
    qs.iter()
        .map(|&q| {
            if q % 6 == 0 {
                0.0
            } else {
                (q % 17 - 8) as f32 * 0.25
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The per-item chain `flow_loss` replaces, as the mask optimiser used to
/// record it: item `j` reads row `j` of `logp` and rows `used[j][l]` of
/// mask `l`. Returns the summed loss and every item's loss.
fn flow_loss_chain(
    logp: &Tensor,
    masks: &[Tensor],
    classes: &[usize],
    used: &[Vec<Vec<usize>>],
    objective: Objective,
    alpha: f32,
) -> (Tensor, Vec<Tensor>) {
    let b = classes.len();
    let losses: Vec<Tensor> = (0..b)
        .map(|j| {
            let row = if b == 1 {
                logp.clone()
            } else {
                logp.gather_rows(&[j])
            };
            let lp_c = row.slice_cols(classes[j], classes[j] + 1);
            let prediction = match objective {
                Objective::Factual => lp_c.neg(),
                Objective::Counterfactual => {
                    lp_c.exp().neg().add_scalar(1.0).clamp_min(1e-6).ln().neg()
                }
            };
            let mut reg: Option<Tensor> = None;
            let mut used_count = 0usize;
            for (mask, used_l) in masks.iter().zip(&used[j]) {
                if used_l.is_empty() {
                    continue;
                }
                let vals = mask.gather_rows(used_l);
                let term = match objective {
                    Objective::Factual => vals.sum_all(),
                    Objective::Counterfactual => vals.neg().add_scalar(1.0).sum_all(),
                };
                used_count += used_l.len();
                reg = Some(match reg {
                    None => term,
                    Some(r) => r.add(&term),
                });
            }
            match reg {
                Some(r) => prediction.add(&r.mul_scalar(alpha / used_count as f32)),
                None => prediction,
            }
        })
        .collect();
    let total = losses[1..]
        .iter()
        .fold(losses[0].clone(), |t, loss| t.add(loss));
    (total, losses)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_nn_bit_identical_to_naive(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..80,
        qa in prop::collection::vec(0i32..1000, 40 * 24),
        qb in prop::collection::vec(0i32..1000, 24 * 80),
    ) {
        let a = grid(&qa[..m * k]);
        let b = grid(&qb[..k * n]);
        prop_assert_eq!(
            bits(&matmul_nn(&a, m, k, &b, n)),
            bits(&matmul_nn_naive(&a, m, k, &b, n))
        );
    }

    #[test]
    fn blocked_nt_bit_identical_to_naive(
        m in 1usize..40,
        n in 1usize..24,
        k in 1usize..40,
        qa in prop::collection::vec(0i32..1000, 40 * 24),
        qb in prop::collection::vec(0i32..1000, 40 * 24),
    ) {
        let a = grid(&qa[..m * n]);
        let b = grid(&qb[..k * n]);
        prop_assert_eq!(
            bits(&matmul_nt(&a, m, n, &b, k)),
            bits(&matmul_nt_naive(&a, m, n, &b, k))
        );
    }

    #[test]
    fn blocked_tn_bit_identical_to_naive(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..80,
        qa in prop::collection::vec(0i32..1000, 40 * 24),
        qb in prop::collection::vec(0i32..1000, 40 * 80),
    ) {
        let a = grid(&qa[..m * k]);
        let b = grid(&qb[..m * n]);
        prop_assert_eq!(
            bits(&matmul_tn(&a, m, k, &b, n)),
            bits(&matmul_tn_naive(&a, m, k, &b, n))
        );
    }

    #[test]
    fn csr_product_bit_identical_to_dense_kernels(
        m in 1usize..40,
        k in 1usize..24,
        n in 1usize..80,
        keep in 1i32..8,
        qa in prop::collection::vec(0i32..1000, 40 * 24),
        qb in prop::collection::vec(0i32..1000, 24 * 80),
    ) {
        // Thin `a` out to roughly `keep / 8` of its grid entries, so rows
        // range from empty to fully dense.
        let a: Vec<f32> = grid(&qa[..m * k])
            .iter()
            .zip(&qa)
            .map(|(&v, &q)| if q % 8 < keep { v } else { 0.0 })
            .collect();
        let b = grid(&qb[..k * n]);
        let csr = CsrMatrix::from_dense(&a, m, k);
        let sparse = bits(&matmul_csr(&csr, &b, n));
        prop_assert_eq!(&sparse, &bits(&matmul_nn_naive(&a, m, k, &b, n)));
        prop_assert_eq!(&sparse, &bits(&matmul_nn(&a, m, k, &b, n)));
        // The tensor op agrees with the dense matmul on a frozen weight and
        // on a trainable one (which takes the dense path).
        let x = Tensor::from_vec(a.clone(), m, k);
        for w in [Tensor::from_vec(b.clone(), k, n), Tensor::from_vec(b.clone(), k, n).requires_grad()] {
            prop_assert_eq!(
                bits(&Tensor::csr_matmul(&csr, &w).to_vec()),
                bits(&x.matmul(&w).to_vec())
            );
        }
    }

    #[test]
    fn sigmoid_scale_matches_unfused_mask_chain(
        rows in 1usize..40,
        qs in prop::collection::vec(0i32..1000, 40 + 1),
    ) {
        // The mask-model shape: a [rows,1] column scaled by a scalar weight
        // broadcast through gather_rows — exactly the chain layer_masks ran
        // before the fusion.
        let vals = grid(&qs);
        let x = vals[..rows].to_vec();
        let wv = vals[rows];

        let a = Tensor::from_vec(x.clone(), rows, 1).requires_grad();
        let w = Tensor::from_vec(vec![wv], 1, 1).requires_grad();
        let fused = a.sigmoid_scale(&w);

        let a2 = Tensor::from_vec(x, rows, 1).requires_grad();
        let w2 = Tensor::from_vec(vec![wv], 1, 1).requires_grad();
        let expanded = a2.mul(&w2.gather_rows(&vec![0usize; rows])).sigmoid();

        prop_assert_eq!(bits(&fused.to_vec()), bits(&expanded.to_vec()));

        fused.sum_all().backward();
        expanded.sum_all().backward();
        prop_assert_eq!(bits(&a.grad_vec()), bits(&a2.grad_vec()));
        prop_assert_eq!(bits(&w.grad_vec()), bits(&w2.grad_vec()));
    }

    #[test]
    fn sigmoid_scale_elementwise_matches_unfused_chain(
        rows in 1usize..10,
        cols in 1usize..10,
        qs in prop::collection::vec(0i32..1000, 10 * 10 * 2),
    ) {
        let vals = grid(&qs);
        let x = vals[..rows * cols].to_vec();
        let wv = vals[rows * cols..2 * rows * cols].to_vec();

        let a = Tensor::from_vec(x.clone(), rows, cols).requires_grad();
        let w = Tensor::from_vec(wv.clone(), rows, cols).requires_grad();
        let fused = a.sigmoid_scale(&w);

        let a2 = Tensor::from_vec(x, rows, cols).requires_grad();
        let w2 = Tensor::from_vec(wv, rows, cols).requires_grad();
        let unfused = a2.mul(&w2).sigmoid();

        prop_assert_eq!(bits(&fused.to_vec()), bits(&unfused.to_vec()));

        fused.sum_all().backward();
        unfused.sum_all().backward();
        prop_assert_eq!(bits(&a.grad_vec()), bits(&a2.grad_vec()));
        prop_assert_eq!(bits(&w.grad_vec()), bits(&w2.grad_vec()));
    }

    #[test]
    fn bias_leaky_relu_matches_unfused_chain(
        rows in 1usize..10,
        cols in 1usize..10,
        qs in prop::collection::vec(0i32..1000, 10 * 10 + 10),
    ) {
        let vals = grid(&qs);
        let x = vals[..rows * cols].to_vec();
        let b = vals[rows * cols..rows * cols + cols].to_vec();

        let a = Tensor::from_vec(x.clone(), rows, cols).requires_grad();
        let bias = Tensor::from_vec(b.clone(), 1, cols).requires_grad();
        let fused = a.bias_leaky_relu(&bias, 0.01);

        let a2 = Tensor::from_vec(x, rows, cols).requires_grad();
        let bias2 = Tensor::from_vec(b, 1, cols).requires_grad();
        let unfused = a2.add_row_broadcast(&bias2).leaky_relu(0.01);

        prop_assert_eq!(bits(&fused.to_vec()), bits(&unfused.to_vec()));

        fused.sum_all().backward();
        unfused.sum_all().backward();
        prop_assert_eq!(bits(&a.grad_vec()), bits(&a2.grad_vec()));
        prop_assert_eq!(bits(&bias.grad_vec()), bits(&bias2.grad_vec()));
    }

    #[test]
    fn softmax_xent_matches_unfused_chain(
        rows in 1usize..8,
        cols in 2usize..8,
        qs in prop::collection::vec(0i32..1000, 8 * 8),
        tsel in prop::collection::vec(0usize..8, 8),
    ) {
        let vals = grid(&qs);
        let x = vals[..rows * cols].to_vec();
        let targets: Vec<usize> = (0..rows).map(|i| tsel[i] % cols).collect();

        let a = Tensor::from_vec(x.clone(), rows, cols).requires_grad();
        let fused = a.softmax_xent(&targets);

        let a2 = Tensor::from_vec(x, rows, cols).requires_grad();
        let unfused = a2.log_softmax_rows().nll_loss(&targets);

        prop_assert_eq!(fused.item().to_bits(), unfused.item().to_bits());

        fused.backward();
        unfused.backward();
        prop_assert_eq!(bits(&a.grad_vec()), bits(&a2.grad_vec()));
    }

    #[test]
    fn flow_loss_matches_unfused_chain(
        b in 1usize..5,
        c in 2usize..5,
        layers in 1usize..4,
        flag in 0u8..2,
        qs in prop::collection::vec(0i32..1000, 4 * 4 + 3 * 6),
        owners in prop::collection::vec(0usize..7, 3 * 6),
    ) {
        const ROWS: usize = 6;
        let objective = if flag == 1 {
            Objective::Counterfactual
        } else {
            Objective::Factual
        };
        let vals = grid(&qs);
        let classes: Vec<usize> = (0..b).map(|j| (j * 7 + 1) % c).collect();
        // Row `r` of layer `l` is used by item `owners[..]` when that is
        // below `b`, by no item otherwise — so some items use no row of a
        // layer, or none at all.
        let used: Vec<Vec<Vec<usize>>> = (0..b)
            .map(|j| {
                (0..layers)
                    .map(|l| (0..ROWS).filter(|&r| owners[l * ROWS + r] == j).collect())
                    .collect()
            })
            .collect();
        let flat = (0..layers)
            .map(|l| {
                let mut offsets = vec![0];
                let mut positions = Vec::new();
                for item in &used {
                    positions.extend(&item[l]);
                    offsets.push(positions.len());
                }
                (offsets, positions)
            })
            .collect();
        let spec = Rc::new(FlowLossSpec::new(objective, 0.3, classes.clone(), flat));
        let leaves = || {
            let x = Tensor::from_vec(vals[..b * c].to_vec(), b, c).requires_grad();
            let ps: Vec<Tensor> = (0..layers)
                .map(|l| {
                    let p = vals[16 + l * ROWS..16 + (l + 1) * ROWS].to_vec();
                    Tensor::from_vec(p, ROWS, 1).requires_grad()
                })
                .collect();
            (x, ps)
        };

        let (x, ps) = leaves();
        let masks: Vec<Tensor> = ps.iter().map(Tensor::sigmoid).collect();
        let (fused, fused_losses) = x.log_softmax_rows().flow_loss(&masks, &spec);

        let (x2, ps2) = leaves();
        let masks2: Vec<Tensor> = ps2.iter().map(Tensor::sigmoid).collect();
        let (chain, chain_losses) =
            flow_loss_chain(&x2.log_softmax_rows(), &masks2, &classes, &used, objective, 0.3);

        prop_assert_eq!(fused.item().to_bits(), chain.item().to_bits());
        let chain_losses: Vec<f32> = chain_losses.iter().map(Tensor::item).collect();
        prop_assert_eq!(bits(&fused_losses), bits(&chain_losses));

        fused.backward();
        chain.backward();
        prop_assert_eq!(bits(&x.grad_vec()), bits(&x2.grad_vec()));
        for (p, p2) in ps.iter().zip(&ps2) {
            prop_assert_eq!(bits(&p.grad_vec()), bits(&p2.grad_vec()));
        }
    }

    #[test]
    fn message_pass_matches_unfused_chain(
        x_rows in 1usize..7,
        d in 0usize..6,
        n_out in 1usize..7,
        edges in 0usize..12,
        ends in prop::collection::vec((0usize..7, 0usize..7), 12),
        qs in prop::collection::vec(0i32..1000, 7 * 6 + 12 * 2 + 7 * 6),
    ) {
        // Random endpoints repeat edges and leave output rows without
        // in-edges; `edges == 0` is in range.
        let src: Vec<usize> = ends[..edges].iter().map(|&(s, _)| s % x_rows).collect();
        let dst: Vec<usize> = ends[..edges].iter().map(|&(_, t)| t % n_out).collect();
        // Bipartite: `x_rows` input rows feed `n_out` output rows.
        let index = Arc::new(EdgeIndex::new(x_rows, n_out, src.clone(), dst.clone()));
        // Fused and unfused run the same float operations, so any finite
        // values must match; off-grid values make every product round, so
        // a reassociated product shows up in the bits.
        let vals: Vec<f32> = grid(&qs)
            .iter()
            .zip(&qs)
            .map(|(&v, &q)| v * (q as f32 * 0.731).sin())
            .collect();
        let (xv, rest) = vals.split_at(x_rows * d);
        let (cv, rest) = rest.split_at(edges);
        let (sv, rest) = rest.split_at(edges);
        let upstream = Tensor::from_vec(rest[..n_out * d].to_vec(), n_out, d);

        // Every presence combination of `coef`/`scale` under every
        // needs-grad combination of the operands that are present.
        for (has_coef, has_scale) in [(false, false), (true, false), (false, true), (true, true)] {
            for flags in 0..8u8 {
                let leaves = || {
                    let leaf = |v: &[f32], rows, cols, bit: u8| {
                        let t = Tensor::from_vec(v.to_vec(), rows, cols);
                        if flags & bit != 0 { t.requires_grad() } else { t }
                    };
                    (leaf(xv, x_rows, d, 1), leaf(cv, edges, 1, 2), leaf(sv, edges, 1, 4))
                };
                let (x, c, s) = leaves();
                let coef = has_coef.then_some(&c);
                let scale = has_scale.then_some(&s);
                let fused = x.message_pass(&index, coef, scale);

                let (x2, c2, s2) = leaves();
                let mut msgs = x2.gather_rows(&src);
                if has_coef {
                    msgs = msgs.mul_col_broadcast(&c2);
                }
                if has_scale {
                    msgs = msgs.mul_col_broadcast(&s2);
                }
                let unfused = msgs.scatter_add_rows(&dst, n_out);

                prop_assert_eq!(bits(&fused.to_vec()), bits(&unfused.to_vec()));

                fused.mul(&upstream).sum_all().backward();
                unfused.mul(&upstream).sum_all().backward();
                for (a, b) in [(&x, &x2), (&c, &c2), (&s, &s2)] {
                    prop_assert_eq!(a.has_grad(), b.has_grad());
                    prop_assert_eq!(bits(&a.grad_vec()), bits(&b.grad_vec()));
                }
                prop_assert_eq!(x.has_grad(), flags & 1 != 0);
            }
        }
    }
}

/// The CSR product on hand-built row shapes: empty rows, one-column rows
/// and fully dense rows in one matrix, and the first-layer shape of a
/// Cora-sim request (61 nodes × 1433 bag-of-words columns at ~1.3%
/// density into 32 hidden units).
#[test]
fn csr_product_matches_on_edge_rows_and_the_cora_input_shape() {
    let check = |a: &[f32], m: usize, k: usize, n: usize| {
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i % 29) as f32 - 14.0) * 0.125)
            .collect();
        let csr = CsrMatrix::from_dense(a, m, k);
        let sparse = bits(&matmul_csr(&csr, &b, n));
        assert_eq!(
            sparse,
            bits(&matmul_nn_naive(a, m, k, &b, n)),
            "{m}x{k}x{n} vs naive"
        );
        assert_eq!(
            sparse,
            bits(&matmul_nn(a, m, k, &b, n)),
            "{m}x{k}x{n} vs blocked"
        );
        csr
    };

    // Rows: empty, one column (first, middle, last), fully dense, empty.
    let k = 9;
    let mut a = vec![0.0f32; 6 * k];
    a[k] = 1.5;
    a[2 * k + 4] = -2.25;
    a[3 * k + k - 1] = 0.75;
    for (c, v) in a[4 * k..5 * k].iter_mut().enumerate() {
        *v = c as f32 - 3.5;
    }
    let csr = check(&a, 6, k, 13);
    let lens: Vec<usize> = csr.row_ptr().windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(lens, vec![0, 1, 1, 1, k, 0]);

    // All-zero and all-dense matrices, and an `n` below one lane.
    check(&[0.0; 12], 3, 4, 5);
    check(&[0.5; 5 * 7], 5, 7, 3);

    // Cora-sim input: 18 words per node, as `cora_sim` draws them.
    let (m, k, n) = (61, 1433, 32);
    let mut a = vec![0.0f32; m * k];
    for i in 0..m {
        for w in 0..18 {
            a[i * k + (i * 131 + w * 79) % k] = 1.0;
        }
    }
    let csr = check(&a, m, k, n);
    assert_eq!(csr.nnz(), m * 18);
}
