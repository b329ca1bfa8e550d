//! Differentiable operators.
//!
//! Each method on [`Tensor`] performs the forward computation eagerly and
//! records an [`Op`] describing how to route gradients during
//! [`Tensor::backward`]. Each op's shape rule is written once, as
//! [`Op::output_shape`]: every method records through one checked entry
//! that runs the rule before the forward computes and panics with the
//! rule's message, and `revelio-analysis` runs the same rule over a
//! recorded tape.

use std::rc::Rc;
use std::sync::Arc;

use crate::edges::EdgeIndex;
use crate::flow_loss::{self, FlowLossSpec};
use crate::kernels;
use crate::sparse::{BinCsr, CsrMatrix};
use crate::tensor::Tensor;

/// The operation that produced a tensor, holding its parents and any saved
/// context required by the backward pass.
pub enum Op {
    Add(Tensor, Tensor),
    Mul(Tensor, Tensor),
    Div(Tensor, Tensor),
    Neg(Tensor),
    AddScalar(Tensor, f32),
    MulScalar(Tensor, f32),
    MatMul(Tensor, Tensor),
    /// `[m,n] + [1,n]` (bias add).
    AddRowBroadcast(Tensor, Tensor),
    /// `[m,n] * [m,1]` (per-row scaling; used for edge masks, Eq. 6).
    MulColBroadcast(Tensor, Tensor),
    Relu(Tensor),
    LeakyRelu(Tensor, f32),
    Tanh(Tensor),
    Sigmoid(Tensor),
    Exp(Tensor),
    Ln(Tensor),
    Softplus(Tensor),
    ClampMin(Tensor, f32),
    SumAll(Tensor),
    MeanAll(Tensor),
    /// Mean over row segments: `[m,n] -> [S,n]`, output row `s` the mean
    /// of rows `offsets[s]..offsets[s + 1]` (graph readout).
    MeanRows(Tensor, Rc<Vec<usize>>),
    LogSoftmaxRows(Tensor),
    /// Mean negative log-likelihood given per-row target classes.
    NllLoss(Tensor, Rc<Vec<usize>>),
    GatherRows(Tensor, Rc<Vec<usize>>),
    /// `out[idx[i], :] += in[i, :]`, output has `n_out` rows.
    ScatterAddRows(Tensor, Rc<Vec<usize>>, usize),
    /// Fused message passing over `edges`: `out[dst[e], :] += (x[src[e],
    /// :] · coef[e]) · scale[e]` over ascending `e`, output
    /// `[edges.n_out(), cols]`; a missing `coef` or `scale` is a factor of
    /// one.
    MessagePass {
        x: Tensor,
        coef: Option<Tensor>,
        scale: Option<Tensor>,
        edges: Arc<EdgeIndex>,
    },
    SliceCols(Tensor, usize, usize),
    ConcatCols(Tensor, Tensor),
    /// Column-independent softmax within row segments (GAT attention).
    SegmentSoftmax(Tensor, Rc<Vec<usize>>),
    /// Sparse binary matrix (`R × C`) times dense `[C,1]` vector (Eq. 7).
    SpMatVec(Arc<BinCsr>, Tensor),
    /// Fused `σ(x ⊙ w)`; `w` is `[1,1]` (broadcast) or shaped like `x`.
    SigmoidScale(Tensor, Tensor),
    /// Fused `leaky_relu(x + bias, slope)`; bias is `[1,n]`, slope `>= 0`.
    BiasLeakyRelu(Tensor, Tensor, f32),
    /// Fused mean cross-entropy: `nll_loss(log_softmax_rows(x), targets)`.
    SoftmaxXent(Tensor, Rc<Vec<usize>>),
    /// REVELIO's summed batch loss ([`Tensor::flow_loss`]): a `[B,C]`
    /// log-probability matrix and one mask per layer in, `[1,1]` out.
    FlowLoss {
        logp: Tensor,
        masks: Vec<Tensor>,
        spec: Rc<FlowLossSpec>,
    },
}

impl Op {
    /// The operator name, for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Add(..) => "add",
            Op::Mul(..) => "mul",
            Op::Div(..) => "div",
            Op::Neg(..) => "neg",
            Op::AddScalar(..) => "add_scalar",
            Op::MulScalar(..) => "mul_scalar",
            Op::MatMul(..) => "matmul",
            Op::AddRowBroadcast(..) => "add_row_broadcast",
            Op::MulColBroadcast(..) => "mul_col_broadcast",
            Op::Relu(..) => "relu",
            Op::LeakyRelu(..) => "leaky_relu",
            Op::Tanh(..) => "tanh",
            Op::Sigmoid(..) => "sigmoid",
            Op::Exp(..) => "exp",
            Op::Ln(..) => "ln",
            Op::Softplus(..) => "softplus",
            Op::ClampMin(..) => "clamp_min",
            Op::SumAll(..) => "sum_all",
            Op::MeanAll(..) => "mean_all",
            Op::MeanRows(..) => "mean_rows",
            Op::LogSoftmaxRows(..) => "log_softmax_rows",
            Op::NllLoss(..) => "nll_loss",
            Op::GatherRows(..) => "gather_rows",
            Op::ScatterAddRows(..) => "scatter_add_rows",
            Op::MessagePass { .. } => "message_pass",
            Op::SliceCols(..) => "slice_cols",
            Op::ConcatCols(..) => "concat_cols",
            Op::SegmentSoftmax(..) => "segment_softmax",
            Op::SpMatVec(..) => "sp_matvec",
            Op::SigmoidScale(..) => "sigmoid_scale",
            Op::BiasLeakyRelu(..) => "bias_leaky_relu",
            Op::SoftmaxXent(..) => "softmax_xent",
            Op::FlowLoss { .. } => "flow_loss",
        }
    }

    /// The operands in order: up to three fixed slots (binary ops fill the
    /// second, message passing its optional `coef` and `scale`), then
    /// [`Op::FlowLoss`]'s masks. Allocates nothing: a backward pass calls
    /// it for every tensor it visits, and static tape analysis walks the
    /// op graph through it.
    pub fn operands(&self) -> impl Iterator<Item = &Tensor> {
        let (fixed, rest): ([Option<&Tensor>; 3], &[Tensor]) = match self {
            Op::Add(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::MatMul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::MulColBroadcast(a, b)
            | Op::ConcatCols(a, b)
            | Op::SigmoidScale(a, b)
            | Op::BiasLeakyRelu(a, b, _) => ([Some(a), Some(b), None], &[]),
            Op::MessagePass { x, coef, scale, .. } => {
                ([Some(x), coef.as_ref(), scale.as_ref()], &[])
            }
            Op::FlowLoss { logp, masks, .. } => ([Some(logp), None, None], masks),
            Op::Neg(a)
            | Op::AddScalar(a, _)
            | Op::MulScalar(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Softplus(a)
            | Op::ClampMin(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::MeanRows(a, _)
            | Op::LogSoftmaxRows(a)
            | Op::NllLoss(a, _)
            | Op::GatherRows(a, _)
            | Op::ScatterAddRows(a, _, _)
            | Op::SliceCols(a, _, _)
            | Op::SegmentSoftmax(a, _)
            | Op::SpMatVec(_, a)
            | Op::SoftmaxXent(a, _) => ([Some(a), None, None], &[]),
        };
        fixed.into_iter().flatten().chain(rest)
    }

    /// The output shape this op's operands and saved context imply: the
    /// op's one shape rule. Every op method runs it before computing, and
    /// the tape auditor in `revelio-analysis` re-runs it over recorded
    /// ops, so both report a defect in the same words.
    ///
    /// # Errors
    ///
    /// Describes the first misfit between the operands, starting with the
    /// op name.
    pub fn output_shape(&self) -> Result<(usize, usize), String> {
        let name = self.name();
        match self {
            Op::Add(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
                if a.shape() != b.shape() {
                    return Err(format!(
                        "{name}: shape mismatch {} vs {}",
                        dims(a.shape()),
                        dims(b.shape())
                    ));
                }
                Ok(a.shape())
            }
            Op::Neg(a)
            | Op::AddScalar(a, _)
            | Op::MulScalar(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Tanh(a)
            | Op::Sigmoid(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Softplus(a)
            | Op::ClampMin(a, _)
            | Op::LogSoftmaxRows(a) => Ok(a.shape()),
            Op::SumAll(_) | Op::MeanAll(_) => Ok((1, 1)),
            Op::MatMul(a, b) => matmul_shape(a.shape(), b.shape()),
            Op::AddRowBroadcast(a, bias) => row_bias(name, a, bias),
            Op::BiasLeakyRelu(a, bias, slope) => {
                if *slope < 0.0 {
                    return Err(format!("{name}: slope must be non-negative, got {slope}"));
                }
                row_bias(name, a, bias)
            }
            Op::MulColBroadcast(a, scale) => {
                let (m, n) = a.shape();
                if scale.shape() != (m, 1) {
                    return Err(format!(
                        "{name}: scale must be [{m},1] for a [{m},{n}] operand, got {}",
                        dims(scale.shape())
                    ));
                }
                Ok((m, n))
            }
            Op::SigmoidScale(a, w) => {
                let (m, n) = a.shape();
                if w.shape() != (1, 1) && w.shape() != (m, n) {
                    return Err(format!(
                        "{name}: weight must be [1,1] or [{m},{n}], got {}",
                        dims(w.shape())
                    ));
                }
                Ok((m, n))
            }
            Op::NllLoss(a, targets) | Op::SoftmaxXent(a, targets) => {
                let (m, n) = a.shape();
                if targets.len() != m {
                    return Err(format!("{name}: {} targets for {m} rows", targets.len()));
                }
                if let Some(t) = targets.iter().find(|&&t| t >= n) {
                    return Err(format!("{name}: target {t} out of range for {n} classes"));
                }
                Ok((1, 1))
            }
            Op::MeanRows(a, offsets) => {
                let (m, n) = a.shape();
                if offsets.first() != Some(&0)
                    || offsets.last() != Some(&m)
                    || offsets.windows(2).any(|w| w[0] >= w[1])
                {
                    return Err(format!(
                        "{name}: offsets {offsets:?} do not split {m} rows into non-empty segments"
                    ));
                }
                Ok((offsets.len() - 1, n))
            }
            Op::GatherRows(a, idx) => {
                let (m, n) = a.shape();
                if let Some(i) = idx.iter().find(|&&i| i >= m) {
                    return Err(format!("{name}: index {i} out of bounds for {m} rows"));
                }
                Ok((idx.len(), n))
            }
            Op::ScatterAddRows(a, idx, n_out) => {
                let (m, n) = a.shape();
                if idx.len() != m {
                    return Err(format!("{name}: {} indices for {m} rows", idx.len()));
                }
                if let Some(i) = idx.iter().find(|&&i| i >= *n_out) {
                    return Err(format!(
                        "{name}: index {i} out of bounds for {n_out} output rows"
                    ));
                }
                Ok((*n_out, n))
            }
            Op::MessagePass {
                x,
                coef,
                scale,
                edges,
            } => {
                // The index checked its endpoints when it was built; what is
                // left is that the operands fit it.
                let (m, n) = x.shape();
                if m != edges.n_in() {
                    return Err(format!(
                        "{name}: {m} rows but the edge index reads {} input rows",
                        edges.n_in()
                    ));
                }
                let ne = edges.len();
                for (col_name, col) in [("coef", coef), ("scale", scale)] {
                    if let Some(col) = col.as_ref().filter(|c| c.shape() != (ne, 1)) {
                        return Err(format!(
                            "{name}: {col_name} must be [{ne},1] for {ne} edges, got {}",
                            dims(col.shape())
                        ));
                    }
                }
                Ok((edges.n_out(), n))
            }
            Op::SliceCols(a, c0, c1) => {
                let (m, n) = a.shape();
                if !(c0 < c1 && *c1 <= n) {
                    return Err(format!("{name}: invalid range {c0}..{c1} for {n} cols"));
                }
                Ok((m, c1 - c0))
            }
            Op::ConcatCols(a, b) => {
                let ((m, na), (m2, nb)) = (a.shape(), b.shape());
                if m != m2 {
                    return Err(format!("{name}: row counts differ: {m} vs {m2}"));
                }
                Ok((m, na + nb))
            }
            Op::SegmentSoftmax(a, segments) => {
                let (m, n) = a.shape();
                if segments.len() != m {
                    return Err(format!(
                        "{name}: {} segment ids for {m} rows",
                        segments.len()
                    ));
                }
                Ok((m, n))
            }
            Op::SpMatVec(mat, x) => {
                let (r, c) = (mat.rows(), mat.cols());
                if x.shape() != (c, 1) {
                    return Err(format!(
                        "{name}: vector must be [{c},1] for a {r}×{c} matrix, got {}",
                        dims(x.shape())
                    ));
                }
                Ok((r, 1))
            }
            Op::FlowLoss { logp, masks, spec } => spec.check(logp.shape(), masks).map(|()| (1, 1)),
        }
    }

    /// Routes `grad_out` (the gradient w.r.t. `out`) to the parents that
    /// need one (see [`Tensor::backward`]); a parent that needs none is
    /// neither computed for nor written to. Every computed gradient is the
    /// same sum in the same order whichever parents are skipped.
    pub(crate) fn backward(&self, out: &Tensor, grad_out: &[f32]) {
        match self {
            Op::Add(a, b) => {
                for p in [a, b] {
                    if p.needs_grad() {
                        p.accumulate_grad(grad_out);
                    }
                }
            }
            Op::Mul(a, b) => {
                if a.needs_grad() {
                    let ga = grad_out
                        .iter()
                        .zip(b.data().iter())
                        .map(|(g, b)| g * b)
                        .collect();
                    a.accumulate_grad_vec(ga);
                }
                if b.needs_grad() {
                    let gb = grad_out
                        .iter()
                        .zip(a.data().iter())
                        .map(|(g, a)| g * a)
                        .collect();
                    b.accumulate_grad_vec(gb);
                }
            }
            Op::Div(a, b) => {
                if a.needs_grad() {
                    let ga = grad_out
                        .iter()
                        .zip(b.data().iter())
                        .map(|(g, b)| g / b)
                        .collect();
                    a.accumulate_grad_vec(ga);
                }
                if b.needs_grad() {
                    let gb = grad_out
                        .iter()
                        .zip(a.data().iter().zip(b.data().iter()))
                        .map(|(g, (a, b))| -g * a / (b * b))
                        .collect();
                    b.accumulate_grad_vec(gb);
                }
            }
            Op::Neg(a) => a.accumulate_grad_vec(grad_out.iter().map(|g| -g).collect()),
            Op::AddScalar(a, _) => a.accumulate_grad(grad_out),
            Op::MulScalar(a, s) => a.accumulate_grad_vec(grad_out.iter().map(|g| g * s).collect()),
            Op::MatMul(a, b) => {
                let (m, k) = a.shape();
                let (_, n) = b.shape();
                if a.needs_grad() {
                    // ga = g . b^T  (m x n) . (n x k)
                    let ga = kernels::matmul_nt(grad_out, m, n, &b.data(), k);
                    a.accumulate_grad_vec(ga);
                }
                if b.needs_grad() {
                    // gb = a^T . g  (k x m) . (m x n)
                    let gb = kernels::matmul_tn(&a.data(), m, k, grad_out, n);
                    b.accumulate_grad_vec(gb);
                }
            }
            Op::AddRowBroadcast(a, b) => {
                if a.needs_grad() {
                    a.accumulate_grad(grad_out);
                }
                if b.needs_grad() {
                    b.accumulate_grad_vec(column_sums(grad_out, a.cols()));
                }
            }
            Op::MulColBroadcast(a, b) => {
                let (m, n) = a.shape();
                if a.needs_grad() {
                    let bd = b.data();
                    let mut ga = vec![0.0f32; m * n];
                    for i in 0..m {
                        let s = bd[i];
                        for j in 0..n {
                            ga[i * n + j] = grad_out[i * n + j] * s;
                        }
                    }
                    drop(bd);
                    a.accumulate_grad_vec(ga);
                }
                if b.needs_grad() {
                    let ad = a.data();
                    let mut gb = vec![0.0f32; m];
                    for i in 0..m {
                        for j in 0..n {
                            gb[i] += grad_out[i * n + j] * ad[i * n + j];
                        }
                    }
                    drop(ad);
                    b.accumulate_grad_vec(gb);
                }
            }
            Op::Relu(a) => {
                let g = grad_out
                    .iter()
                    .zip(a.data().iter())
                    .map(|(g, x)| if *x > 0.0 { *g } else { 0.0 })
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::LeakyRelu(a, slope) => {
                let g = grad_out
                    .iter()
                    .zip(a.data().iter())
                    .map(|(g, x)| if *x > 0.0 { *g } else { g * slope })
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::Tanh(a) => {
                let g = grad_out
                    .iter()
                    .zip(out.data().iter())
                    .map(|(g, y)| g * (1.0 - y * y))
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::Sigmoid(a) => {
                let g = grad_out
                    .iter()
                    .zip(out.data().iter())
                    .map(|(g, y)| g * y * (1.0 - y))
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::Exp(a) => {
                let g = grad_out
                    .iter()
                    .zip(out.data().iter())
                    .map(|(g, y)| g * y)
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::Ln(a) => {
                let g = grad_out
                    .iter()
                    .zip(a.data().iter())
                    .map(|(g, x)| g / x)
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::Softplus(a) => {
                let g = grad_out
                    .iter()
                    .zip(a.data().iter())
                    .map(|(g, x)| g * sigmoid_scalar(*x))
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::ClampMin(a, min) => {
                let g = grad_out
                    .iter()
                    .zip(a.data().iter())
                    .map(|(g, x)| if *x >= *min { *g } else { 0.0 })
                    .collect();
                a.accumulate_grad_vec(g);
            }
            Op::SumAll(a) => a.accumulate_grad_vec(vec![grad_out[0]; a.len()]),
            Op::MeanAll(a) => a.accumulate_grad_vec(vec![grad_out[0] / a.len() as f32; a.len()]),
            Op::MeanRows(a, offsets) => {
                let n = a.cols();
                let mut g = vec![0.0f32; a.len()];
                for (s, w) in offsets.windows(2).enumerate() {
                    let inv = 1.0 / (w[1] - w[0]) as f32;
                    let gs = &grad_out[s * n..(s + 1) * n];
                    for row in g[w[0] * n..w[1] * n].chunks_exact_mut(n.max(1)) {
                        for (o, gv) in row.iter_mut().zip(gs) {
                            *o = gv * inv;
                        }
                    }
                }
                a.accumulate_grad_vec(g);
            }
            Op::LogSoftmaxRows(a) => {
                // d x = g - softmax(x) * sum_row(g); softmax = exp(out).
                let (m, n) = a.shape();
                let od = out.data();
                let mut g = vec![0.0f32; m * n];
                for i in 0..m {
                    let row_sum: f32 = grad_out[i * n..(i + 1) * n].iter().sum();
                    for j in 0..n {
                        let s = od[i * n + j].exp();
                        g[i * n + j] = grad_out[i * n + j] - s * row_sum;
                    }
                }
                drop(od);
                a.accumulate_grad_vec(g);
            }
            Op::NllLoss(a, targets) => {
                let (m, n) = a.shape();
                let scale = grad_out[0] / m as f32;
                let mut g = vec![0.0f32; m * n];
                for (i, &t) in targets.iter().enumerate() {
                    g[i * n + t] = -scale;
                }
                a.accumulate_grad_vec(g);
            }
            Op::GatherRows(a, idx) => {
                let n = a.cols();
                let mut g = vec![0.0f32; a.len()];
                for (i, &src) in idx.iter().enumerate() {
                    for j in 0..n {
                        g[src * n + j] += grad_out[i * n + j];
                    }
                }
                a.accumulate_grad_vec(g);
            }
            Op::MessagePass {
                x,
                coef,
                scale,
                edges,
            } => {
                // Each gradient rounds as the unfused gather → coef → scale
                // → scatter chain does: `scale`'s dots the upstream row with
                // the coef-scaled message, `coef`'s dots the scale-weighted
                // upstream row with the gathered one (both over ascending
                // columns), and `x`'s sums `(g·scale)·coef` from zero over
                // each source row's edges in ascending edge order — the
                // order the chain's scatter adds them in.
                let d = x.cols();
                let xd = x.data();
                let cd = coef.as_ref().map(Tensor::data);
                let sd = scale.as_ref().map(Tensor::data);
                let (cs, ss) = (cd.as_deref(), sd.as_deref());
                if let Some(scale) = scale.as_ref().filter(|t| t.needs_grad()) {
                    let gs = edge_dots(
                        &xd,
                        grad_out,
                        d,
                        edges,
                        |e| factor(cs, e),
                        |g, x, c| g * (x * c),
                    );
                    scale.accumulate_grad_vec(gs);
                }
                if let Some(coef) = coef.as_ref().filter(|t| t.needs_grad()) {
                    let gc = edge_dots(
                        &xd,
                        grad_out,
                        d,
                        edges,
                        |e| factor(ss, e),
                        |g, x, s| (g * s) * x,
                    );
                    coef.accumulate_grad_vec(gc);
                }
                if x.needs_grad() {
                    let dst = edges.dst();
                    let mut gx = vec![0.0f32; x.len()];
                    for (s, row) in gx.chunks_exact_mut(d.max(1)).enumerate() {
                        for &e in edges.out_edges(s) {
                            let e = e as usize;
                            let (w, c) = (factor(ss, e), factor(cs, e));
                            let gr = &grad_out[dst[e] * d..(dst[e] + 1) * d];
                            for (o, g) in row.iter_mut().zip(gr) {
                                *o += (g * w) * c;
                            }
                        }
                    }
                    x.accumulate_grad_vec(gx);
                }
            }
            Op::ScatterAddRows(a, idx, _) => {
                let n = a.cols();
                let mut g = vec![0.0f32; a.len()];
                for (i, &dst) in idx.iter().enumerate() {
                    for j in 0..n {
                        g[i * n + j] = grad_out[dst * n + j];
                    }
                }
                a.accumulate_grad_vec(g);
            }
            Op::SliceCols(a, c0, _c1) => {
                let (m, n) = a.shape();
                let w = out.cols();
                let mut g = vec![0.0f32; m * n];
                for i in 0..m {
                    for j in 0..w {
                        g[i * n + c0 + j] = grad_out[i * w + j];
                    }
                }
                a.accumulate_grad_vec(g);
            }
            Op::ConcatCols(a, b) => {
                let m = a.rows();
                let (na, nb) = (a.cols(), b.cols());
                let n = na + nb;
                if a.needs_grad() {
                    let mut ga = vec![0.0f32; m * na];
                    for i in 0..m {
                        ga[i * na..(i + 1) * na].copy_from_slice(&grad_out[i * n..i * n + na]);
                    }
                    a.accumulate_grad_vec(ga);
                }
                if b.needs_grad() {
                    let mut gb = vec![0.0f32; m * nb];
                    for i in 0..m {
                        gb[i * nb..(i + 1) * nb]
                            .copy_from_slice(&grad_out[i * n + na..(i + 1) * n]);
                    }
                    b.accumulate_grad_vec(gb);
                }
            }
            Op::SegmentSoftmax(a, segs) => {
                // Per column c and segment S: ds_i = s_i * (g_i - sum_{j in S} s_j g_j).
                let (m, n) = a.shape();
                let od = out.data();
                let n_segs = segs.iter().copied().max().map_or(0, |s| s + 1);
                let mut seg_dot = vec![0.0f32; n_segs * n];
                for i in 0..m {
                    let s = segs[i];
                    for j in 0..n {
                        seg_dot[s * n + j] += od[i * n + j] * grad_out[i * n + j];
                    }
                }
                let mut g = vec![0.0f32; m * n];
                for i in 0..m {
                    let s = segs[i];
                    for j in 0..n {
                        g[i * n + j] = od[i * n + j] * (grad_out[i * n + j] - seg_dot[s * n + j]);
                    }
                }
                drop(od);
                a.accumulate_grad_vec(g);
            }
            Op::SpMatVec(mat, x) => {
                let mut g = vec![0.0f32; x.len()];
                for (r, &gr) in grad_out.iter().enumerate().take(mat.rows()) {
                    if gr != 0.0 {
                        for &c in mat.row(r) {
                            g[c as usize] += gr;
                        }
                    }
                }
                x.accumulate_grad_vec(g);
            }
            Op::SigmoidScale(a, w) => {
                // y = σ(a ⊙ w): dy/da = y(1-y)·w, dy/dw = y(1-y)·a, with the
                // broadcast weight gradient summed in ascending element order
                // (matching gather_rows' backward on the unfused chain).
                let od = out.data();
                let dy = |i: usize| grad_out[i] * od[i] * (1.0 - od[i]);
                let broadcast = w.len() == 1;
                if a.needs_grad() {
                    let wd = w.data();
                    let ga = (0..a.len())
                        .map(|i| dy(i) * if broadcast { wd[0] } else { wd[i] })
                        .collect();
                    drop(wd);
                    a.accumulate_grad_vec(ga);
                }
                if w.needs_grad() {
                    let ad = a.data();
                    let gw = if broadcast {
                        let mut gw = 0.0f32;
                        for i in 0..a.len() {
                            gw += dy(i) * ad[i];
                        }
                        vec![gw]
                    } else {
                        (0..a.len()).map(|i| dy(i) * ad[i]).collect()
                    };
                    drop(ad);
                    w.accumulate_grad_vec(gw);
                }
            }
            Op::BiasLeakyRelu(a, bias, slope) => {
                // With slope >= 0, `out > 0` iff the pre-activation was > 0,
                // so the stored output doubles as the gradient gate.
                let od = out.data();
                let gated: Vec<f32> = grad_out
                    .iter()
                    .zip(od.iter())
                    .map(|(g, y)| if *y > 0.0 { *g } else { g * slope })
                    .collect();
                drop(od);
                if bias.needs_grad() {
                    bias.accumulate_grad_vec(column_sums(&gated, a.cols()));
                }
                if a.needs_grad() {
                    a.accumulate_grad_vec(gated);
                }
            }
            Op::SoftmaxXent(a, targets) => {
                // gx = scale·(softmax − onehot), written exactly as the
                // unfused NllLoss→LogSoftmaxRows chain computes it so the
                // bits match: gt - softmax · row_sum with row_sum = -scale.
                let (m, n) = a.shape();
                let ad = a.data();
                let scale = grad_out[0] / m as f32;
                let row_sum = -scale;
                let mut g = vec![0.0f32; m * n];
                for (i, &t) in targets.iter().enumerate() {
                    let row = &ad[i * n..(i + 1) * n];
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let lse = row.iter().map(|x| (x - max).exp()).sum::<f32>().ln() + max;
                    for j in 0..n {
                        let gt = if j == t { -scale } else { 0.0 };
                        let s = (row[j] - lse).exp();
                        g[i * n + j] = gt - s * row_sum;
                    }
                }
                drop(ad);
                a.accumulate_grad_vec(g);
            }
            Op::FlowLoss { logp, masks, spec } => flow_loss::backward(logp, masks, spec, grad_out),
        }
    }
}

/// A shape as the rule messages print it: `[rows,cols]`.
fn dims((r, c): (usize, usize)) -> String {
    format!("[{r},{c}]")
}

/// `[m,k] · [k,n] -> [m,n]`: the shape rule of [`Op::MatMul`], which
/// [`Tensor::csr_matmul`]'s sparse product shares.
fn matmul_shape(a: (usize, usize), b: (usize, usize)) -> Result<(usize, usize), String> {
    if a.1 != b.0 {
        return Err(format!(
            "matmul: incompatible shapes {} and {}",
            dims(a),
            dims(b)
        ));
    }
    Ok((a.0, b.1))
}

/// `[m,n] + [1,n]`: the bias rule of the row broadcasts.
fn row_bias(name: &str, a: &Tensor, bias: &Tensor) -> Result<(usize, usize), String> {
    let (m, n) = a.shape();
    if bias.shape() != (1, n) {
        return Err(format!(
            "{name}: bias must be [1,{n}] for a [{m},{n}] operand, got {}",
            dims(bias.shape())
        ));
    }
    Ok((m, n))
}

#[inline]
fn sigmoid_scalar(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Edge `e`'s factor from an optional `[|E|, 1]` column; a missing one is
/// `1.0`, and multiplying by `1.0` is exact, so an absent `coef` or
/// `scale` rounds exactly as the chain without that step.
#[inline]
fn factor(col: Option<&Vec<f32>>, e: usize) -> f32 {
    col.map_or(1.0, |v| v[e])
}

/// Per-edge dot products `Σ_j term(g[dst[e], j], x[src[e], j], factor(e))`,
/// each one accumulator from `0.0` over ascending `j`.
fn edge_dots(
    x: &[f32],
    g: &[f32],
    d: usize,
    edges: &EdgeIndex,
    factor: impl Fn(usize) -> f32,
    term: impl Fn(f32, f32, f32) -> f32,
) -> Vec<f32> {
    edges
        .src()
        .iter()
        .zip(edges.dst())
        .enumerate()
        .map(|(e, (&s, &t))| {
            let f = factor(e);
            let mut acc = 0.0f32;
            for (&gv, &xv) in g[t * d..(t + 1) * d].iter().zip(&x[s * d..(s + 1) * d]) {
                acc += term(gv, xv, f);
            }
            acc
        })
        .collect()
}

/// `f(x, b)` over a row-major `[m, n]` matrix and a `[1, n]` row, walking
/// row chunks so no element pays an index division.
fn map_row_broadcast(d: &[f32], row: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let mut out = Vec::with_capacity(d.len());
    // A zero-width matrix is empty; `max(1)` keeps the chunk size legal.
    for chunk in d.chunks_exact(row.len().max(1)) {
        out.extend(chunk.iter().zip(row).map(|(&x, &b)| f(x, b)));
    }
    out
}

/// Column sums of a row-major `[m, n]` matrix, each summed over ascending
/// rows from `0.0`.
fn column_sums(d: &[f32], n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; n];
    for chunk in d.chunks_exact(n.max(1)) {
        for (o, v) in out.iter_mut().zip(chunk) {
            *o += v;
        }
    }
    out
}

macro_rules! elementwise_binary {
    ($name:ident, $op_variant:ident, $f:expr) => {
        /// Elementwise binary operation; both operands must share a shape.
        pub fn $name(&self, other: &Tensor) -> Tensor {
            let f = $f;
            Tensor::record(Op::$op_variant(self.clone(), other.clone()), || {
                self.data()
                    .iter()
                    .zip(other.data().iter())
                    .map(|(a, b)| f(*a, *b))
                    .collect()
            })
        }
    };
}

macro_rules! elementwise_unary {
    ($name:ident, $op_variant:ident, $f:expr) => {
        /// Elementwise unary operation.
        pub fn $name(&self) -> Tensor {
            let f = $f;
            Tensor::record(Op::$op_variant(self.clone()), || {
                self.data().iter().map(|x| f(*x)).collect()
            })
        }
    };
}

impl Tensor {
    elementwise_binary!(add, Add, |a: f32, b: f32| a + b);
    elementwise_binary!(mul, Mul, |a: f32, b: f32| a * b);
    elementwise_binary!(div, Div, |a: f32, b: f32| a / b);

    elementwise_unary!(neg, Neg, |x: f32| -x);
    elementwise_unary!(relu, Relu, |x: f32| x.max(0.0));
    elementwise_unary!(tanh_t, Tanh, |x: f32| x.tanh());
    elementwise_unary!(sigmoid, Sigmoid, sigmoid_scalar);
    elementwise_unary!(exp, Exp, |x: f32| x.exp());
    elementwise_unary!(ln, Ln, |x: f32| x.ln());
    elementwise_unary!(softplus, Softplus, |x: f32| {
        // Numerically stable log(1 + e^x).
        if x > 20.0 {
            x
        } else {
            x.exp().ln_1p()
        }
    });

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        Tensor::record(Op::AddScalar(self.clone(), s), || {
            self.data().iter().map(|x| x + s).collect()
        })
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        Tensor::record(Op::MulScalar(self.clone(), s), || {
            self.data().iter().map(|x| x * s).collect()
        })
    }

    /// Elementwise `max(x, min)`; gradient is blocked where clamping occurs.
    pub fn clamp_min(&self, min: f32) -> Tensor {
        Tensor::record(Op::ClampMin(self.clone(), min), || {
            self.data().iter().map(|x| x.max(min)).collect()
        })
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, slope: f32) -> Tensor {
        Tensor::record(Op::LeakyRelu(self.clone(), slope), || {
            self.data()
                .iter()
                .map(|x| if *x > 0.0 { *x } else { x * slope })
                .collect()
        })
    }

    /// Dense matrix multiplication `self (m×k) · other (k×n)`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        Tensor::record(Op::MatMul(self.clone(), other.clone()), || {
            let (m, k) = self.shape();
            kernels::matmul_nn(&self.data(), m, k, &other.data(), other.cols())
        })
    }

    /// `x (m×k) · w (k×n)` with `x` a constant sparse matrix (node
    /// features): [`kernels::matmul_csr`], bit-identical to
    /// `Tensor::from_vec(x.to_dense(), m, k).matmul(w)`.
    ///
    /// When `w` is a constant (a frozen weight: neither flagged nor the
    /// output of an op), the result is a constant too and the dense `x` is
    /// never built. Otherwise `w` may need a gradient, so the product is
    /// recorded as a dense [`Op::MatMul`] on the materialised `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != w.rows()`, with [`Op::MatMul`]'s message.
    pub fn csr_matmul(x: &CsrMatrix, w: &Tensor) -> Tensor {
        let (m, n) = match matmul_shape((x.rows(), x.cols()), w.shape()) {
            Ok(shape) => shape,
            Err(e) => panic!("{e}"),
        };
        if w.requires_grad_flag() || w.op().is_some() {
            return Tensor::from_vec(x.to_dense(), x.rows(), x.cols()).matmul(w);
        }
        Tensor::from_vec(kernels::matmul_csr(x, &w.data(), n), m, n)
    }

    /// Fused `σ(self ⊙ w)`: multiply by a weight (scalar `[1,1]` broadcast
    /// or elementwise) and squash through a sigmoid in one pass.
    ///
    /// Forward values and gradients are bit-identical to the unfused
    /// `self.mul(&w_expanded).sigmoid()` chain; the fusion only removes the
    /// intermediate materialisations the optimize loop pays per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `w` is neither `[1,1]` nor shaped like `self`.
    pub fn sigmoid_scale(&self, w: &Tensor) -> Tensor {
        Tensor::record(Op::SigmoidScale(self.clone(), w.clone()), || {
            let wd = w.data();
            if w.len() == 1 {
                let wv = wd[0];
                self.data().iter().map(|x| sigmoid_scalar(x * wv)).collect()
            } else {
                self.data()
                    .iter()
                    .zip(wd.iter())
                    .map(|(x, wv)| sigmoid_scalar(x * wv))
                    .collect()
            }
        })
    }

    /// Fused `leaky_relu(self + bias, slope)`: bias add and activation in
    /// one pass over the matrix.
    ///
    /// Bit-identical to `self.add_row_broadcast(&bias).leaky_relu(slope)`.
    /// Note that `slope = 0.0` is *not* bit-identical to `relu` on negative
    /// inputs (`0.0 * x` preserves the sign of zero where `max(x, 0.0)`
    /// yields `+0.0`); production layers always use a positive slope.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `[1,n]` or `slope` is negative.
    pub fn bias_leaky_relu(&self, bias: &Tensor, slope: f32) -> Tensor {
        Tensor::record(Op::BiasLeakyRelu(self.clone(), bias.clone(), slope), || {
            map_row_broadcast(&self.data(), &bias.data(), |x, b| {
                let v = x + b;
                if v > 0.0 {
                    v
                } else {
                    v * slope
                }
            })
        })
    }

    /// Fused mean cross-entropy: `log_softmax_rows` + `nll_loss` in a single
    /// pass that never materialises the `[m,n]` log-probability matrix.
    ///
    /// Bit-identical to `self.log_softmax_rows().nll_loss(targets)` in both
    /// the forward value and the gradient.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows or a target
    /// class index is out of range.
    pub fn softmax_xent(&self, targets: &[usize]) -> Tensor {
        let op = Op::SoftmaxXent(self.clone(), Rc::new(targets.to_vec()));
        Tensor::record(op, || {
            let n = self.cols();
            let d = self.data();
            let mut acc = 0.0f32;
            for (i, &t) in targets.iter().enumerate() {
                let row = &d[i * n..(i + 1) * n];
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse = row.iter().map(|x| (x - max).exp()).sum::<f32>().ln() + max;
                acc -= row[t] - lse;
            }
            vec![acc / self.rows() as f32]
        })
    }

    /// `self [m,n] + bias [1,n]`, broadcasting the bias across rows.
    pub fn add_row_broadcast(&self, bias: &Tensor) -> Tensor {
        Tensor::record(Op::AddRowBroadcast(self.clone(), bias.clone()), || {
            map_row_broadcast(&self.data(), &bias.data(), |x, b| x + b)
        })
    }

    /// `self [m,n] * scale [m,1]`, broadcasting the scale across columns.
    ///
    /// This is the mask-application primitive of Eq. 6: each edge message row
    /// is scaled by its layer-edge importance.
    pub fn mul_col_broadcast(&self, scale: &Tensor) -> Tensor {
        Tensor::record(Op::MulColBroadcast(self.clone(), scale.clone()), || {
            let (m, n) = self.shape();
            let sd = scale.data();
            let mut data = self.to_vec();
            for i in 0..m {
                let s = sd[i];
                for v in &mut data[i * n..(i + 1) * n] {
                    *v *= s;
                }
            }
            data
        })
    }

    /// Sum of all elements as a `1 × 1` tensor.
    pub fn sum_all(&self) -> Tensor {
        Tensor::record(Op::SumAll(self.clone()), || {
            vec![self.data().iter().sum::<f32>()]
        })
    }

    /// Mean of all elements as a `1 × 1` tensor.
    pub fn mean_all(&self) -> Tensor {
        Tensor::record(Op::MeanAll(self.clone()), || {
            let s: f32 = self.data().iter().sum();
            vec![s / self.len() as f32]
        })
    }

    /// Mean over rows: `[m,n] -> [1,n]` (mean-pool graph readout).
    pub fn mean_rows(&self) -> Tensor {
        self.segment_mean_rows(&[0, self.rows()])
    }

    /// Mean over each row segment: `[m,n] -> [S,n]`, output row `s` the
    /// mean of rows `offsets[s]..offsets[s + 1]` (the per-graph readout of
    /// a disjoint union). Each segment is exactly [`Tensor::mean_rows`] of
    /// its rows.
    ///
    /// # Panics
    ///
    /// Panics unless `offsets` ascend strictly from 0 to `m` (no segment
    /// is empty).
    pub fn segment_mean_rows(&self, offsets: &[usize]) -> Tensor {
        Tensor::record(
            Op::MeanRows(self.clone(), Rc::new(offsets.to_vec())),
            || {
                let n = self.cols();
                let d = self.data();
                let mut out = Vec::with_capacity((offsets.len() - 1) * n);
                for w in offsets.windows(2) {
                    let mut sums = column_sums(&d[w[0] * n..w[1] * n], n);
                    let inv = 1.0 / (w[1] - w[0]) as f32;
                    for v in &mut sums {
                        *v *= inv;
                    }
                    out.extend(sums);
                }
                out
            },
        )
    }

    /// Row-wise log-softmax (numerically stabilised).
    pub fn log_softmax_rows(&self) -> Tensor {
        Tensor::record(Op::LogSoftmaxRows(self.clone()), || {
            let (m, n) = self.shape();
            let d = self.data();
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                let row = &d[i * n..(i + 1) * n];
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse = row.iter().map(|x| (x - max).exp()).sum::<f32>().ln() + max;
                for j in 0..n {
                    out[i * n + j] = row[j] - lse;
                }
            }
            out
        })
    }

    /// Mean negative log-likelihood of `targets` under row-wise log-probs.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows or a target
    /// class index is out of range.
    pub fn nll_loss(&self, targets: &[usize]) -> Tensor {
        Tensor::record(Op::NllLoss(self.clone(), Rc::new(targets.to_vec())), || {
            let n = self.cols();
            let d = self.data();
            let mut acc = 0.0f32;
            for (i, &t) in targets.iter().enumerate() {
                acc -= d[i * n + t];
            }
            vec![acc / self.rows() as f32]
        })
    }

    /// Gathers rows: `out[i, :] = self[idx[i], :]`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        Tensor::record(Op::GatherRows(self.clone(), Rc::new(idx.to_vec())), || {
            let n = self.cols();
            let d = self.data();
            let mut out = Vec::with_capacity(idx.len() * n);
            for &i in idx {
                out.extend_from_slice(&d[i * n..(i + 1) * n]);
            }
            out
        })
    }

    /// Scatter-add rows into a fresh `[n_out, cols]` tensor:
    /// `out[idx[i], :] += self[i, :]`.
    ///
    /// This is the message-aggregation primitive (sum aggregation).
    ///
    /// # Panics
    ///
    /// Panics if `idx.len()` differs from the number of rows or any index is
    /// `>= n_out`.
    pub fn scatter_add_rows(&self, idx: &[usize], n_out: usize) -> Tensor {
        let op = Op::ScatterAddRows(self.clone(), Rc::new(idx.to_vec()), n_out);
        Tensor::record(op, || {
            let n = self.cols();
            let d = self.data();
            let mut out = vec![0.0f32; n_out * n];
            for (i, &dst) in idx.iter().enumerate() {
                for j in 0..n {
                    out[dst * n + j] += d[i * n + j];
                }
            }
            out
        })
    }

    /// Fused message passing over the `|E|` edges of `edges` into a fresh
    /// `[edges.n_out(), cols]` tensor: `out[dst[e], :] += (self[src[e], :] ·
    /// coef[e]) · scale[e]` in ascending `e`, with no `[|E|, cols]`
    /// intermediate. `coef` (GCN normalisation, GAT attention) and `scale`
    /// (the layer-edge mask of Eq. 6) are `[|E|, 1]`; a missing one is a
    /// factor of one. Each output row is gathered over its in-edges
    /// (ascending, so every element is the same sum a scatter makes), and
    /// the shared index is neither copied nor re-checked.
    ///
    /// Forward value and every gradient are bit-identical to the unfused
    /// chain `gather_rows(src)`, `mul_col_broadcast(coef)`,
    /// `mul_col_broadcast(scale)`, `scatter_add_rows(dst, n_out)`.
    ///
    /// # Panics
    ///
    /// Panics if `self` does not have `edges.n_in()` rows or `coef`/`scale`
    /// is not `[|E|, 1]` (endpoints were checked by [`EdgeIndex::new`]).
    pub fn message_pass(
        &self,
        edges: &Arc<EdgeIndex>,
        coef: Option<&Tensor>,
        scale: Option<&Tensor>,
    ) -> Tensor {
        let op = Op::MessagePass {
            x: self.clone(),
            coef: coef.cloned(),
            scale: scale.cloned(),
            edges: Arc::clone(edges),
        };
        Tensor::record(op, || {
            let d = self.cols();
            let xd = self.data();
            let cd = coef.map(Tensor::data);
            let sd = scale.map(Tensor::data);
            let (cs, ss) = (cd.as_deref(), sd.as_deref());
            let src = edges.src();
            let mut out = vec![0.0f32; edges.n_out() * d];
            for (t, row) in out.chunks_exact_mut(d.max(1)).enumerate() {
                for &e in edges.in_edges(t) {
                    let e = e as usize;
                    let (c, w) = (factor(cs, e), factor(ss, e));
                    for (o, x) in row.iter_mut().zip(&xd[src[e] * d..(src[e] + 1) * d]) {
                        *o += (x * c) * w;
                    }
                }
            }
            out
        })
    }

    /// Slices columns `[c0, c1)`.
    pub fn slice_cols(&self, c0: usize, c1: usize) -> Tensor {
        Tensor::record(Op::SliceCols(self.clone(), c0, c1), || {
            let (m, n) = self.shape();
            let d = self.data();
            let mut out = Vec::with_capacity(m * (c1 - c0));
            for i in 0..m {
                out.extend_from_slice(&d[i * n + c0..i * n + c1]);
            }
            out
        })
    }

    /// Concatenates two tensors along columns.
    pub fn concat_cols(&self, other: &Tensor) -> Tensor {
        Tensor::record(Op::ConcatCols(self.clone(), other.clone()), || {
            let (m, na) = self.shape();
            let nb = other.cols();
            let (a, b) = (self.data(), other.data());
            let mut out = Vec::with_capacity(m * (na + nb));
            for i in 0..m {
                out.extend_from_slice(&a[i * na..(i + 1) * na]);
                out.extend_from_slice(&b[i * nb..(i + 1) * nb]);
            }
            out
        })
    }

    /// Softmax computed independently per column over row segments.
    ///
    /// Rows sharing a segment id form one softmax group — for GAT this
    /// normalises edge attention logits over each destination node's in-edges.
    ///
    /// # Panics
    ///
    /// Panics if `segments.len()` differs from the number of rows.
    pub fn segment_softmax(&self, segments: &[usize]) -> Tensor {
        let op = Op::SegmentSoftmax(self.clone(), Rc::new(segments.to_vec()));
        Tensor::record(op, || {
            let (m, n) = self.shape();
            let n_segs = segments.iter().copied().max().map_or(0, |s| s + 1);
            let d = self.data();
            let mut seg_max = vec![f32::NEG_INFINITY; n_segs * n];
            for i in 0..m {
                let s = segments[i];
                for j in 0..n {
                    let v = d[i * n + j];
                    if v > seg_max[s * n + j] {
                        seg_max[s * n + j] = v;
                    }
                }
            }
            let mut seg_sum = vec![0.0f32; n_segs * n];
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                let s = segments[i];
                for j in 0..n {
                    let e = (d[i * n + j] - seg_max[s * n + j]).exp();
                    out[i * n + j] = e;
                    seg_sum[s * n + j] += e;
                }
            }
            for i in 0..m {
                let s = segments[i];
                for j in 0..n {
                    out[i * n + j] /= seg_sum[s * n + j];
                }
            }
            out
        })
    }

    /// Sparse binary matrix (`R × C`) times this dense `[C,1]` vector.
    ///
    /// Implements the flow-incidence transform of Eq. 7:
    /// `out[r] = Σ_{c ∈ row r} self[c]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not a `[C,1]` column vector matching the matrix.
    pub fn sp_matvec(&self, mat: &Arc<BinCsr>) -> Tensor {
        Tensor::record(Op::SpMatVec(Arc::clone(mat), self.clone()), || {
            let d = self.data();
            (0..mat.rows())
                .map(|r| {
                    let mut acc = 0.0f32;
                    for &c in mat.row(r) {
                        acc += d[c as usize];
                    }
                    acc
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f32, b: f32) {
        assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }

    #[test]
    fn matmul_forward_and_backward() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], 2, 2).requires_grad();
        let c = a.matmul(&b);
        assert_eq!(c.to_vec(), vec![19.0, 22.0, 43.0, 50.0]);
        c.sum_all().backward();
        // dC/dA = 1 . B^T
        assert_eq!(a.grad_vec(), vec![11.0, 15.0, 11.0, 15.0]);
        assert_eq!(b.grad_vec(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn log_softmax_rows_sums_to_one() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], 2, 3);
        let ls = x.log_softmax_rows();
        for i in 0..2 {
            let s: f32 = (0..3).map(|j| ls.get(i, j).exp()).sum();
            assert_close(s, 1.0);
        }
    }

    #[test]
    fn nll_loss_gradient_matches_softmax_minus_onehot() {
        let x = Tensor::from_vec(vec![0.2, -0.4, 0.9], 1, 3).requires_grad();
        let loss = x.log_softmax_rows().nll_loss(&[2]);
        loss.backward();
        let g = x.grad_vec();
        let probs: Vec<f32> = {
            let m = 0.9f32;
            let e: Vec<f32> = [0.2, -0.4, 0.9]
                .iter()
                .map(|v: &f32| (v - m).exp())
                .collect();
            let s: f32 = e.iter().sum();
            e.iter().map(|v| v / s).collect()
        };
        assert_close(g[0], probs[0]);
        assert_close(g[1], probs[1]);
        assert_close(g[2], probs[2] - 1.0);
    }

    #[test]
    fn gather_scatter_roundtrip_gradients() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], 3, 1).requires_grad();
        let gathered = x.gather_rows(&[0, 0, 2]);
        let scattered = gathered.scatter_add_rows(&[1, 1, 0], 2);
        assert_eq!(scattered.to_vec(), vec![3.0, 2.0]);
        scattered.sum_all().backward();
        assert_eq!(x.grad_vec(), vec![2.0, 0.0, 1.0]);
    }

    #[test]
    fn mul_col_broadcast_masks_messages() {
        let msgs = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0], 2, 2).requires_grad();
        let mask = Tensor::from_vec(vec![0.5, 0.0], 2, 1).requires_grad();
        let out = msgs.mul_col_broadcast(&mask);
        assert_eq!(out.to_vec(), vec![0.5, 0.5, 0.0, 0.0]);
        out.sum_all().backward();
        assert_eq!(mask.grad_vec(), vec![2.0, 4.0]);
        assert_eq!(msgs.grad_vec(), vec![0.5, 0.5, 0.0, 0.0]);
    }

    #[test]
    fn segment_softmax_normalises_within_segments() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0], 4, 1);
        let sm = x.segment_softmax(&[0, 0, 1, 1]);
        let d = sm.to_vec();
        assert_close(d[0] + d[1], 1.0);
        assert_close(d[2] + d[3], 1.0);
        assert!(d[3] > d[2]);
    }

    #[test]
    fn segment_softmax_gradient_sums_to_zero() {
        let x = Tensor::from_vec(vec![0.3, -0.2, 0.8], 3, 1).requires_grad();
        let sm = x.segment_softmax(&[0, 0, 0]);
        // A weighted sum with distinct weights makes the gradient non-trivial.
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0], 3, 1);
        sm.mul(&w).sum_all().backward();
        let g = x.grad_vec();
        let s: f32 = g.iter().sum();
        assert_close(s, 0.0);
    }

    #[test]
    fn sp_matvec_forward_backward() {
        // rows: {0,2}, {1}
        let m = Arc::new(BinCsr::from_rows(2, 3, &[vec![0, 2], vec![1]]));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], 3, 1).requires_grad();
        let y = x.sp_matvec(&m);
        assert_eq!(y.to_vec(), vec![4.0, 2.0]);
        let w = Tensor::from_vec(vec![10.0, 100.0], 2, 1);
        y.mul(&w).sum_all().backward();
        assert_eq!(x.grad_vec(), vec![10.0, 100.0, 10.0]);
    }

    #[test]
    fn chained_activations_numerical_gradient() {
        // f(x) = sigmoid(tanh(x) * 2 + 0.5) summed.
        let f = |v: f32| {
            let t = v.tanh() * 2.0 + 0.5;
            1.0 / (1.0 + (-t).exp())
        };
        let x0 = 0.37f32;
        let x = Tensor::scalar(x0).requires_grad();
        let y = x
            .tanh_t()
            .mul_scalar(2.0)
            .add_scalar(0.5)
            .sigmoid()
            .sum_all();
        y.backward();
        let eps = 1e-3;
        let num = (f(x0 + eps) - f(x0 - eps)) / (2.0 * eps);
        assert!((x.grad_vec()[0] - num).abs() < 1e-3);
    }

    #[test]
    fn div_gradient() {
        let a = Tensor::scalar(6.0).requires_grad();
        let b = Tensor::scalar(2.0).requires_grad();
        a.div(&b).backward();
        assert_close(a.grad_vec()[0], 0.5);
        assert_close(b.grad_vec()[0], -1.5);
    }

    #[test]
    fn concat_and_slice_are_inverse() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2).requires_grad();
        let b = Tensor::from_vec(vec![5.0, 6.0], 2, 1).requires_grad();
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (2, 3));
        let back = c.slice_cols(0, 2);
        assert_eq!(back.to_vec(), a.to_vec());
        c.slice_cols(2, 3).sum_all().backward();
        assert_eq!(b.grad_vec(), vec![1.0, 1.0]);
        assert_eq!(a.grad_vec(), vec![0.0; 4]);
    }

    #[test]
    fn mean_rows_readout() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], 2, 2).requires_grad();
        let m = x.mean_rows();
        assert_eq!(m.to_vec(), vec![3.0, 5.0]);
        m.sum_all().backward();
        assert_eq!(x.grad_vec(), vec![0.5; 4]);
    }

    #[test]
    fn clamp_min_blocks_gradient_below_threshold() {
        let x = Tensor::from_vec(vec![-1.0, 2.0], 1, 2).requires_grad();
        x.clamp_min(0.0).sum_all().backward();
        assert_eq!(x.grad_vec(), vec![0.0, 1.0]);
    }

    #[test]
    fn softplus_matches_reference() {
        let x = Tensor::from_vec(vec![-30.0, 0.0, 30.0], 1, 3);
        let y = x.softplus();
        assert!(y.get(0, 0).abs() < 1e-6);
        assert_close(y.get(0, 1), std::f32::consts::LN_2);
        assert_close(y.get(0, 2), 30.0);
    }
}
