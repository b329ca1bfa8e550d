//! Dense matmul kernels: naive references and cache-blocked, SIMD-friendly
//! replacements.
//!
//! Three row-major products back the autograd engine: `nn` (`A·B`, the
//! forward), `nt` (`A·Bᵀ`, the left backward), and `tn` (`Aᵀ·B`, the right
//! backward). Each exists in two forms:
//!
//! * `*_naive` — the original triple loops, kept as the semantic reference
//!   for the equivalence suite and the `kernels` microbench.
//! * the blocked kernel (same name, no suffix) — what [`crate::Tensor`]
//!   actually calls.
//!
//! **Bit-identity contract.** For finite inputs the blocked kernels produce
//! the same bits as the naive ones, element for element. That holds because
//! every output element keeps a *single* accumulator updated in the same
//! ascending reduction order as the reference — blocking only changes which
//! elements advance together, never the per-element summation chain:
//!
//! * `nn`/`tn` hold a `ROW_BLOCK × LANES` register tile of accumulators and
//!   stream the shared operand through it, so each output element is written
//!   to memory exactly once instead of once per reduction step. The tile
//!   accumulates `0.0 * b` terms the naive kernels' zero-skip branch would
//!   elide, which cannot change the bits of a finite accumulator: the
//!   product is `±0.0` (inputs are finite), and a running sum seeded with
//!   `+0.0` over finite terms is `-0.0` only when every term so far was
//!   `-0.0` — impossible here because the equivalence suite and all
//!   production tensors exclude `-0.0` coefficients and underflowing
//!   products. Adding `±0.0` to anything else is the identity.
//! * `nt` is `nn` on a transposed `b`: `a · bᵀ` transposes the `k×n` right
//!   operand (in the engine a weight matrix of a few thousand floats at
//!   most) and runs the `nn` register tile. Element `(i, j)` is then the
//!   dot product of `a`'s row `i` with `b`'s row `j` in one ascending
//!   accumulator, exactly the reference chain.
//!
//! [`matmul_csr`] is the sparse-times-dense form of `nn` for a left
//! operand held as a [`CsrMatrix`] (node features). It walks each row's
//! stored columns in ascending order, and the CSR form stores exactly the
//! entries the naive loop does not skip (`!= 0.0`). So it runs the naive
//! reduction chain term for term and is bit-identical to
//! [`matmul_nn_naive`], hence to [`matmul_nn`], on the dense form.
//!
//! The inner loops run over fixed-size arrays and fixed-width slices so
//! LLVM can prove the trip count and emit vector code without `unsafe`
//! (the workspace forbids it).

use crate::sparse::CsrMatrix;

/// Register-tile height for the `nn`/`tn` kernels: accumulator rows that
/// stay live across the whole reduction.
pub const ROW_BLOCK: usize = 4;

/// Register-tile width for the `nn`/`tn` kernels: 8 f32 = one 256-bit
/// vector lane group, so a `ROW_BLOCK × LANES` tile is four vector
/// registers of accumulators.
pub const LANES: usize = 8;

/// Reference `a (m×k) · b (k×n)`, all row-major, ikj loop order.
pub fn matmul_nn_naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Reference `a (m×n) · bᵀ` where `b` is `(k×n)` row-major; result is `m×k`.
pub fn matmul_nt_naive(a: &[f32], m: usize, n: usize, b: &[f32], k: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * k];
    for i in 0..m {
        let arow = &a[i * n..(i + 1) * n];
        for j in 0..k {
            let brow = &b[j * n..(j + 1) * n];
            let mut acc = 0.0f32;
            for (av, bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            out[i * k + j] = acc;
        }
    }
    out
}

/// Reference `aᵀ · b` where `a` is `(m×k)` and `b` is `(m×n)` row-major;
/// result `k×n`.
pub fn matmul_tn_naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; k * n];
    for i in 0..m {
        let brow = &b[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[p * n..(p + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Blocked `a (m×k) · b (k×n)`: a `ROW_BLOCK × LANES` register tile of
/// accumulators per output block; `b` streams through the tile and each
/// output element is stored exactly once.
///
/// Per output element the reduction is the reference one — `p` ascends and
/// the element itself is the only accumulator — so results are bit-identical
/// to [`matmul_nn_naive`] for finite inputs (see the module contract).
pub fn matmul_nn(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    let m4 = m - m % ROW_BLOCK;
    let n8 = n - n % LANES;
    for i in (0..m4).step_by(ROW_BLOCK) {
        let arows: [&[f32]; ROW_BLOCK] = core::array::from_fn(|r| &a[(i + r) * k..(i + r + 1) * k]);
        for j in (0..n8).step_by(LANES) {
            let mut acc = [[0.0f32; LANES]; ROW_BLOCK];
            for p in 0..k {
                let bv = &b[p * n + j..p * n + j + LANES];
                for r in 0..ROW_BLOCK {
                    let av = arows[r][p];
                    for t in 0..LANES {
                        acc[r][t] += av * bv[t];
                    }
                }
            }
            for r in 0..ROW_BLOCK {
                out[(i + r) * n + j..(i + r) * n + j + LANES].copy_from_slice(&acc[r]);
            }
        }
        // Tail columns (`n % LANES`): one streaming pass per column with a
        // scalar accumulator per row, same ascending `p` order.
        for j in n8..n {
            let mut acc = [0.0f32; ROW_BLOCK];
            for p in 0..k {
                let bv = b[p * n + j];
                for r in 0..ROW_BLOCK {
                    acc[r] += arows[r][p] * bv;
                }
            }
            for (r, &v) in acc.iter().enumerate() {
                out[(i + r) * n + j] = v;
            }
        }
    }
    // Remainder rows: the reference loop verbatim.
    for i in m4..m {
        for p in 0..k {
            let av = a[i * k + p];
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// `a (m×k, CSR) · b (k×n, row-major)`: for each row, the rows of `b`
/// named by its stored columns, scaled and summed in ascending column
/// order. Bit-identical to [`matmul_nn_naive`] on `a.to_dense()` (see the
/// module contract); the cost is `nnz · n` instead of `m · k · n`.
///
/// # Panics
///
/// Panics if `b.len() != a.cols() * n`.
pub fn matmul_csr(a: &CsrMatrix, b: &[f32], n: usize) -> Vec<f32> {
    assert_eq!(b.len(), a.cols() * n, "matmul_csr: right operand shape");
    let mut out = vec![0.0f32; a.rows() * n];
    if n == 0 {
        return out;
    }
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        let (cols, vals) = a.row(i);
        for (&p, &av) in cols.iter().zip(vals) {
            let p = p as usize;
            let brow = &b[p * n..(p + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Blocked `a (m×n) · bᵀ` (`b` is `k×n`): transposes `b` to `n×k` and
/// runs [`matmul_nn`]. Every output element keeps one accumulator over
/// ascending `p`, so the result is bit-identical to [`matmul_nt_naive`] for
/// finite inputs.
pub fn matmul_nt(a: &[f32], m: usize, n: usize, b: &[f32], k: usize) -> Vec<f32> {
    let mut bt = vec![0.0f32; n * k];
    for (j, brow) in b.chunks_exact(n.max(1)).enumerate() {
        for (p, &v) in brow.iter().enumerate() {
            bt[p * k + j] = v;
        }
    }
    matmul_nn(a, m, n, &bt, k)
}

/// Blocked `aᵀ · b` (`a` is `m×k`, `b` is `m×n`): a `ROW_BLOCK × LANES`
/// register tile of output accumulators; both operands stream through it
/// over `i` and each output element is stored exactly once (the naive
/// kernel rewrites every output row `m` times).
///
/// Per output element the reduction over `i` ascends with a single
/// accumulator, so the result is bit-identical to [`matmul_tn_naive`] for
/// finite inputs.
pub fn matmul_tn(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; k * n];
    let k4 = k - k % ROW_BLOCK;
    let n8 = n - n % LANES;
    for p in (0..k4).step_by(ROW_BLOCK) {
        for j in (0..n8).step_by(LANES) {
            let mut acc = [[0.0f32; LANES]; ROW_BLOCK];
            for i in 0..m {
                let av = &a[i * k + p..i * k + p + ROW_BLOCK];
                let bv = &b[i * n + j..i * n + j + LANES];
                for r in 0..ROW_BLOCK {
                    for t in 0..LANES {
                        acc[r][t] += av[r] * bv[t];
                    }
                }
            }
            for r in 0..ROW_BLOCK {
                out[(p + r) * n + j..(p + r) * n + j + LANES].copy_from_slice(&acc[r]);
            }
        }
        // Tail columns: one streaming pass per column with a scalar
        // accumulator per row, ascending `i`.
        for j in n8..n {
            let mut acc = [0.0f32; ROW_BLOCK];
            for i in 0..m {
                let av = &a[i * k + p..i * k + p + ROW_BLOCK];
                let bv = b[i * n + j];
                for r in 0..ROW_BLOCK {
                    acc[r] += av[r] * bv;
                }
            }
            for (r, &v) in acc.iter().enumerate() {
                out[(p + r) * n + j] = v;
            }
        }
    }
    // Remainder output rows (`k % ROW_BLOCK`): the reference loop shape.
    for p in k4..k {
        for j in 0..n {
            let mut acc = 0.0f32;
            for i in 0..m {
                acc += a[i * k + p] * b[i * n + j];
            }
            out[p * n + j] = acc;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, seed: u32) -> Vec<f32> {
        // Deterministic non-trivial values with exact zeros sprinkled in so
        // the zero-skip paths are exercised.
        (0..len)
            .map(|i| {
                let v = ((i as u32).wrapping_mul(2654435761).wrapping_add(seed) >> 8) % 17;
                if v == 0 {
                    0.0
                } else {
                    (v as f32 - 8.0) * 0.25
                }
            })
            .collect()
    }

    fn check_shape(m: usize, k: usize, n: usize) {
        let a = pattern(m * k, 1);
        let b = pattern(k * n, 2);
        let nn = matmul_nn(&a, m, k, &b, n);
        let nn_ref = matmul_nn_naive(&a, m, k, &b, n);
        assert_eq!(
            nn.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            nn_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "nn mismatch at {m}x{k}x{n}"
        );
        // nt: a is m×n here against b k×n.
        let a2 = pattern(m * n, 3);
        let b2 = pattern(k * n, 4);
        let nt = matmul_nt(&a2, m, n, &b2, k);
        let nt_ref = matmul_nt_naive(&a2, m, n, &b2, k);
        assert_eq!(
            nt.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            nt_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "nt mismatch at {m}x{k}x{n}"
        );
        let a3 = pattern(m * k, 5);
        let b3 = pattern(m * n, 6);
        let tn = matmul_tn(&a3, m, k, &b3, n);
        let tn_ref = matmul_tn_naive(&a3, m, k, &b3, n);
        assert_eq!(
            tn.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            tn_ref.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "tn mismatch at {m}x{k}x{n}"
        );
    }

    #[test]
    fn blocked_kernels_match_naive_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (2, 3, 1),
            (3, 1, 2),
            (4, 4, 8),
            (5, 7, 9),
            (6, 16, 16),
            (7, 8, 65),
            (13, 5, 67),
            (16, 33, 64),
            (17, 2, 130),
        ] {
            check_shape(m, k, n);
        }
    }

    #[test]
    fn zero_rows_and_columns_skip_identically() {
        // An `a` that is entirely zero except one coefficient per row block.
        let (m, k, n) = (8, 8, 24);
        let mut a = vec![0.0f32; m * k];
        a[3] = 1.5;
        a[k + 1] = -2.0;
        let b = pattern(k * n, 9);
        assert_eq!(matmul_nn(&a, m, k, &b, n), matmul_nn_naive(&a, m, k, &b, n));
        assert_eq!(matmul_tn(&a, m, k, &b, n), matmul_tn_naive(&a, m, k, &b, n));
    }
}
