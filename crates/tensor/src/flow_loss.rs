//! REVELIO's mask-learning objective (Eqs. 1–2 plus the Eqs. 8–9
//! sparsity penalty) for a whole batch of explanations as one recorded op.
//!
//! [`Tensor::flow_loss`] replaces a chain of primitive ops per item —
//! `slice_cols` → `neg` (or the Eq. 2 `exp` → `neg` → `add_scalar` →
//! `clamp_min` → `ln` → `neg` steps), per layer `gather_rows` → `sum_all`
//! (counterfactual: through `neg` → `add_scalar` first), an `add` across
//! layers, `mul_scalar`, `add`, and a left fold of `add` over items. Every
//! forward value and every gradient is computed with the same f32
//! operations in the same order as that chain, so swapping one for the
//! other changes no bit of any loss or of any gradient element that
//! receives a single penalty contribution.

use std::rc::Rc;

use crate::ops::Op;
use crate::tensor::Tensor;

/// Explanation objective (§IV-A).
///
/// * [`Objective::Factual`] — find components *sufficient* for the
///   prediction (Eq. 1); evaluated by Fidelity− (Eq. 10).
/// * [`Objective::Counterfactual`] — find components *necessary* for the
///   prediction (Eq. 2); evaluated by Fidelity+ (Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    #[default]
    Factual,
    Counterfactual,
}

/// Floor of `1 - P(Y = c)` in the counterfactual term, keeping its `ln`
/// finite.
const CF_FLOOR: f32 = 1e-6;

/// The epoch-invariant inputs of [`Tensor::flow_loss`] for a batch of `B`
/// items over `L` layers: the objective, each item's class, `alpha`, and
/// per layer each item's used mask rows ("skip layer edges unused by GNN
/// layers", Eq. 8) as segment offsets into one flat list.
#[derive(Debug)]
pub struct FlowLossSpec {
    objective: Objective,
    classes: Vec<usize>,
    /// Per item, `alpha / used_count`; `None` for an item that uses no
    /// layer edge (its loss is the prediction term alone).
    scale: Vec<Option<f32>>,
    /// Per layer, `B + 1` ascending offsets into that layer's `positions`.
    offsets: Vec<Vec<usize>>,
    /// Per layer, every item's used mask rows, item after item.
    positions: Vec<Vec<usize>>,
}

impl FlowLossSpec {
    /// Item `j` of `classes` uses rows `positions[offsets[j]..offsets[j +
    /// 1]]` of layer `l`'s mask, where `(offsets, positions) = used[l]`.
    ///
    /// # Panics
    ///
    /// Panics if a layer's offsets are ragged: not `classes.len() + 1`
    /// entries ascending from 0 to that layer's position count.
    pub fn new(
        objective: Objective,
        alpha: f32,
        classes: Vec<usize>,
        used: Vec<(Vec<usize>, Vec<usize>)>,
    ) -> FlowLossSpec {
        let b = classes.len();
        for (l, (off, pos)) in used.iter().enumerate() {
            assert!(
                off.len() == b + 1
                    && off[0] == 0
                    && off[b] == pos.len()
                    && off.windows(2).all(|w| w[0] <= w[1]),
                "flow_loss: layer {l}'s segment offsets {off:?} are ragged for {b} items \
                 over {} positions",
                pos.len()
            );
        }
        let (offsets, positions): (Vec<_>, Vec<_>) = used.into_iter().unzip();
        let scale = (0..b)
            .map(|j| {
                let count: usize = offsets.iter().map(|off| off[j + 1] - off[j]).sum();
                (count > 0).then(|| alpha / count as f32)
            })
            .collect();
        FlowLossSpec {
            objective,
            classes,
            scale,
            offsets,
            positions,
        }
    }

    /// The number of items `B`.
    fn items(&self) -> usize {
        self.classes.len()
    }

    /// The number of layers `L` (one mask each).
    fn layers(&self) -> usize {
        self.offsets.len()
    }

    /// Item `j`'s used rows of layer `l`'s mask, ascending.
    fn used(&self, l: usize, j: usize) -> &[usize] {
        &self.positions[l][self.offsets[l][j]..self.offsets[l][j + 1]]
    }

    /// Why a `[rows, cols]` log-probability matrix and `masks` do not fit
    /// this spec, or `Ok` when they do (the op's output is then `[1, 1]`).
    ///
    /// # Errors
    ///
    /// Describes the first misfit: a row count other than the item count,
    /// a class `>= cols`, a mask count other than the layer count, a mask
    /// that is not a column, or a used row beyond its mask's rows.
    pub fn check(&self, logp: (usize, usize), masks: &[Tensor]) -> Result<(), String> {
        let (rows, cols) = logp;
        if rows != self.items() {
            return Err(format!(
                "flow_loss: {rows} log-prob rows for {} items",
                self.items()
            ));
        }
        if let Some(j) = self.classes.iter().position(|&k| k >= cols) {
            return Err(format!(
                "flow_loss: item {j}'s class {} out of range for {cols} classes",
                self.classes[j]
            ));
        }
        if masks.len() != self.layers() {
            return Err(format!(
                "flow_loss: {} masks for {} layers",
                masks.len(),
                self.layers()
            ));
        }
        for (l, (mask, pos)) in masks.iter().zip(&self.positions).enumerate() {
            let (m, n) = mask.shape();
            if n != 1 {
                return Err(format!(
                    "flow_loss: layer {l}'s mask must be a column, got [{m},{n}]"
                ));
            }
            if let Some(p) = pos.iter().find(|&&p| p >= m) {
                return Err(format!(
                    "flow_loss: used row {p} beyond layer {l}'s {m} mask rows"
                ));
            }
        }
        Ok(())
    }
}

/// One item's prediction term on its class log-probability `lp`: Eq. 1's
/// `-lp` or Eq. 2's `-ln(max(1 - exp(lp), 1e-6))`, step by step.
fn prediction(objective: Objective, lp: f32) -> f32 {
    match objective {
        Objective::Factual => -lp,
        Objective::Counterfactual => -(-lp.exp() + 1.0).max(CF_FLOOR).ln(),
    }
}

impl Tensor {
    /// REVELIO's batch loss over `self`, a `[B, C]` log-probability matrix
    /// whose row `j` is item `j`'s, and one `[|E_l|, 1]` mask per layer:
    /// the `[1, 1]` sum of the item losses (what [`Tensor::backward`]
    /// starts from) and each item's loss.
    ///
    /// Item `j`'s loss is its prediction term on `self[j, class_j]` plus,
    /// when it uses any layer edge, `alpha / used_count` times the sum
    /// over layers of its used mask values (counterfactual: of one minus
    /// them). See the module docs for the bit-identity with the op chain
    /// this replaces.
    ///
    /// # Panics
    ///
    /// Panics if `self` or `masks` do not fit `spec` (see
    /// [`FlowLossSpec::check`], [`Op::FlowLoss`]'s shape rule).
    pub fn flow_loss(&self, masks: &[Tensor], spec: &Rc<FlowLossSpec>) -> (Tensor, Vec<f32>) {
        let op = Op::FlowLoss {
            logp: self.clone(),
            masks: masks.to_vec(),
            spec: Rc::clone(spec),
        };
        let mut losses = Vec::new();
        let out = Tensor::record(op, || {
            let c = self.cols();
            let lp = self.data();
            losses = spec
                .classes
                .iter()
                .enumerate()
                .map(|(j, &k)| prediction(spec.objective, lp[j * c + k]))
                .collect();
            drop(lp);
            // Eqs. 8–9: each item's used masks summed per layer, the layer
            // sums added in layer order (layers it does not use skipped).
            let mut reg: Vec<Option<f32>> = vec![None; spec.items()];
            for (l, mask) in masks.iter().enumerate() {
                let md = mask.data();
                for (j, r) in reg.iter_mut().enumerate() {
                    let used = spec.used(l, j);
                    if used.is_empty() {
                        continue;
                    }
                    let term: f32 = match spec.objective {
                        Objective::Factual => used.iter().map(|&p| md[p]).sum(),
                        Objective::Counterfactual => used.iter().map(|&p| -md[p] + 1.0).sum(),
                    };
                    *r = Some(r.map_or(term, |r| r + term));
                }
            }
            for ((loss, r), s) in losses.iter_mut().zip(reg).zip(&spec.scale) {
                if let (Some(r), Some(s)) = (r, s) {
                    *loss += r * s;
                }
            }
            vec![losses.iter().copied().reduce(|t, l| t + l).unwrap_or(0.0)]
        });
        (out, losses)
    }
}

/// [`Op::FlowLoss`]'s backward: replays the replaced chain's gradient
/// products. Every item's loss receives the upstream `g` unchanged (the
/// chain's adds copy it), so its class log-probability gets `-g`
/// (factual) or the Eq. 2 chain's product, and each used mask row
/// `g · (alpha / used_count)` (counterfactual: its negation), written into
/// a zeroed buffer per layer as `gather_rows`' backward does.
pub(crate) fn backward(logp: &Tensor, masks: &[Tensor], spec: &FlowLossSpec, grad_out: &[f32]) {
    let g = grad_out[0];
    if logp.needs_grad() {
        let c = logp.cols();
        let mut gl = vec![0.0f32; logp.len()];
        let lp = logp.data();
        for (j, &k) in spec.classes.iter().enumerate() {
            let i = j * c + k;
            gl[i] = match spec.objective {
                Objective::Factual => -g,
                Objective::Counterfactual => {
                    // neg → ln → clamp_min → add_scalar → neg → exp.
                    let e = lp[i].exp();
                    let x = -e + 1.0;
                    let gx = if x >= CF_FLOOR {
                        -g / x.max(CF_FLOOR)
                    } else {
                        0.0
                    };
                    -gx * e
                }
            };
        }
        drop(lp);
        logp.accumulate_grad_vec(gl);
    }
    for (l, mask) in masks.iter().enumerate() {
        if !mask.needs_grad() || spec.positions[l].is_empty() {
            continue;
        }
        let mut gm = vec![0.0f32; mask.len()];
        for (j, s) in spec.scale.iter().enumerate() {
            let Some(s) = s else { continue };
            let gs = g * s;
            let v = match spec.objective {
                Objective::Factual => gs,
                Objective::Counterfactual => -gs,
            };
            for &p in spec.used(l, j) {
                gm[p] += v;
            }
        }
        mask.accumulate_grad_vec(gm);
    }
}
