//! REVELIO's mask optimisation (§IV, Eqs. 4–9) for one explanation or a
//! fused batch of many.
//!
//! [`BatchedOptimizer`] runs the only REVELIO epoch loop in the crate:
//! [`Revelio::try_explain_controlled`] is a batch of one. A batch of one
//! optimises over the instance's own message-passing graph, features and
//! incidence matrices. A larger batch (every item against one model) is
//! fused: the optimizer builds the **disjoint union** of the item graphs
//! (block-diagonal incidence, node/edge/flow offsets) and learns every
//! item's masks in one stacked parameter set driven by a single summed
//! loss, so each epoch runs one forward/backward over a matrix with
//! `Σ nodes` rows instead of `B` separate passes, and records every
//! item's loss in one [`Tensor::flow_loss`] op whatever `B` is.
//!
//! Every item keeps its own [`ExplainControl`]: flow-index reuse or
//! shrink, preselection (the saliency probe runs per item, before
//! fusing), warm-start seeds, deadline and cancel polling with best-loss
//! tracking, plateau early stop, and tracing. An item that stops early is
//! frozen by restoring its parameter segment after every later Adam step.
//! Node- and graph-classification batches both fuse; graph items are
//! sum-pooled over their own node segments in one readout.
//!
//! # Equivalence
//!
//! The union graph is disjoint, the item losses are summed (so each item's
//! loss receives the same upstream gradient `1.0` it gets when optimised
//! alone), segments are disjoint and Adam is elementwise — the
//! batched trajectory is designed to match per-item runs exactly, and on
//! every test shape it does bitwise. The *documented contract* is weaker:
//! batched scores match batch-of-one scores within [`BATCH_TOLERANCE`]
//! (`1e-6` absolute), which the equivalence suite enforces. Rely on the
//! tolerance, not on bitwise equality.
//!
//! [`Revelio::try_explain_controlled`]: crate::Revelio::try_explain_controlled

use std::ops::Range;
use std::rc::Rc;
use std::sync::Arc;

use revelio_gnn::{Gnn, Instance, Plan, Task};
use revelio_graph::{FlowIndex, Graph, MpGraph, Target};
use revelio_tensor::{uniform, Adam, BinCsr, CsrMatrix, FlowLossSpec, Optimizer, Tensor};
use revelio_trace::{EventKind, Phase, Span, TraceHandle};

use crate::control::{ControlledExplanation, ConvergedMask, Degradation, ExplainControl};
use crate::explanation::{Explanation, FlowScores, Objective};
use crate::revelio::{ExplainError, LayerWeight, MaskSquash, RevelioConfig};

/// Maximum absolute divergence of batched from batch-of-one scores (see
/// the module docs: empirically bitwise, contractually `1e-6`).
pub const BATCH_TOLERANCE: f32 = 1e-6;

/// Warm-started items stop once the loss plateaus: a relative change below
/// `WARM_PLATEAU_TOL` for `WARM_PLATEAU_EPOCHS` consecutive epochs. Cold
/// items never evaluate this (extra `loss.item()` reads included), keeping
/// them bit-identical to a warm-start-free build.
const WARM_PLATEAU_TOL: f32 = 1e-3;
const WARM_PLATEAU_EPOCHS: usize = 8;

/// One job of a batch: the instance plus its mask-initialisation seed
/// (which overrides [`RevelioConfig::seed`] for that job).
pub struct BatchItem<'a> {
    /// The instance to explain.
    pub instance: &'a Instance,
    /// Per-job mask-initialisation seed.
    pub seed: u64,
    /// A pre-built flow index for this instance (e.g. from the serving
    /// runtime's artifact cache). Used when its layer count matches the
    /// model; otherwise the optimizer enumerates flows itself.
    pub flow_index: Option<Arc<FlowIndex>>,
}

/// One job of a controlled batch: the instance, its mask-initialisation
/// seed, and its own controls (deadline, flow index, warm start, trace).
pub struct ControlledItem<'a> {
    /// The instance to explain.
    pub instance: &'a Instance,
    /// Per-job mask-initialisation seed.
    pub seed: u64,
    /// Per-job controls, honoured exactly as a batch of one honours them.
    pub ctl: &'a ExplainControl,
}

/// Learns REVELIO flow masks for a batch of jobs against one model, fusing
/// their optimisation into one forward/backward pass per epoch.
pub struct BatchedOptimizer {
    cfg: RevelioConfig,
}

/// The learnable state: one stacked `[Σk, 1]` mask leaf (item `j` owns
/// rows `flow_off[j]..flow_off[j + 1]`) and one `[B, 1]` weight leaf per
/// layer (item `j` owns row `j`; empty when [`LayerWeight::None`]).
struct Params {
    mask: Tensor,
    layer_weights: Vec<Tensor>,
    flow_off: Vec<usize>,
}

impl Params {
    fn fresh(
        mask: Tensor,
        layer_weight: LayerWeight,
        layers: usize,
        flow_off: Vec<usize>,
    ) -> Params {
        let rows = flow_off.len() - 1;
        let layer_weights = match layer_weight {
            LayerWeight::None => Vec::new(),
            // Softplus(0.54) ≈ 1, exp(0) = 1: start as identity weighting.
            LayerWeight::Exp => (0..layers)
                .map(|_| Tensor::zeros(rows, 1).requires_grad())
                .collect(),
            LayerWeight::Softplus => (0..layers)
                .map(|_| Tensor::full(0.5413, rows, 1).requires_grad())
                .collect(),
        };
        Params {
            mask: mask.requires_grad(),
            layer_weights,
            flow_off,
        }
    }

    fn all(&self) -> Vec<Tensor> {
        let mut p = vec![self.mask.clone()];
        p.extend(self.layer_weights.iter().cloned());
        p
    }

    fn flow_scores(&self, squash: MaskSquash) -> Tensor {
        match squash {
            MaskSquash::Tanh => self.mask.tanh_t(),
            MaskSquash::Sigmoid => self.mask.sigmoid(),
        }
    }

    /// `ω[E] = σ(I · squash(M) ⊙ act(w))` (Eqs. 4, 5, 7), one mask per
    /// layer over the rows of that layer's incidence. `edge_item[l]` names
    /// the item owning each of layer `l`'s rows so every edge is scaled by
    /// its own item's weight; `None` applies the lone `[1, 1]` weight to
    /// all.
    fn layer_masks(
        &self,
        cfg: &RevelioConfig,
        incidence: &[Arc<BinCsr>],
        edge_item: Option<&[Vec<usize>]>,
    ) -> Vec<Tensor> {
        let omega_f = self.flow_scores(cfg.squash);
        incidence
            .iter()
            .enumerate()
            .map(|(l, inc)| {
                let s = omega_f.sp_matvec(inc);
                let scale = match cfg.layer_weight {
                    LayerWeight::Exp => self.layer_weights[l].exp(),
                    LayerWeight::Softplus => self.layer_weights[l].softplus(),
                    LayerWeight::None => return s.sigmoid(),
                };
                // Fused scale + sigmoid: bit-identical to the unfused
                // `s.mul(..).sigmoid()` chain but one pass over the edges.
                match edge_item {
                    Some(rows) => s.sigmoid_scale(&scale.gather_rows(&rows[l])),
                    None => s.sigmoid_scale(&scale),
                }
            })
            .collect()
    }

    fn range(&self, j: usize) -> Range<usize> {
        self.flow_off[j]..self.flow_off[j + 1]
    }

    /// Item `j`'s slice of the parameters — its mask segment and its row
    /// of every layer weight — in the exported layout (`selected` is left
    /// empty; the item's flow selection is not part of the parameters).
    fn segment(&self, j: usize) -> ConvergedMask {
        ConvergedMask {
            mask_params: self.mask.data()[self.range(j)].to_vec(),
            layer_weights: self
                .layer_weights
                .iter()
                .map(|w| vec![w.data()[j]])
                .collect(),
            selected: Vec::new(),
        }
    }

    /// Writes `seg` (in [`Params::segment`]'s layout) back into item `j`'s
    /// slice.
    fn restore(&self, j: usize, seg: &ConvergedMask) {
        self.mask
            .update_data(|d| d[self.range(j)].copy_from_slice(&seg.mask_params));
        for (w, v) in self.layer_weights.iter().zip(&seg.layer_weights) {
            w.update_data(|d| d[j] = v[0]);
        }
    }
}

/// One item's flow set and optimisation-loop state.
struct Item<'a> {
    tr: &'a TraceHandle,
    index: Arc<FlowIndex>,
    /// Selected flow ids (identity when no preselection ran).
    selected: Vec<u32>,
    /// Per layer, `|E| × k` incidence over the selected flows.
    incidence: Vec<Arc<BinCsr>>,
    degradation: Degradation,
    warm: bool,
    best: Option<(f32, ConvergedMask)>,
    prev_loss: Option<f32>,
    plateau: usize,
    /// The parameters a stopped item is frozen at; `None` while it learns.
    frozen: Option<ConvergedMask>,
    optimize: Option<Span<'a>>,
}

impl Item<'_> {
    fn stop(&mut self, at: ConvergedMask) {
        self.frozen = Some(at);
        self.optimize = None;
    }
}

impl BatchedOptimizer {
    /// Creates a batched optimizer; all jobs of a batch share `cfg` (their
    /// seeds come from the items).
    pub fn new(cfg: RevelioConfig) -> BatchedOptimizer {
        BatchedOptimizer { cfg }
    }

    /// Explains every item with default controls (apart from the item's
    /// flow index).
    ///
    /// # Errors
    ///
    /// Returns [`ExplainError::TooManyFlows`] when any item exceeds
    /// [`RevelioConfig::max_flows`]; no partial results are returned.
    pub fn explain_batch(
        &self,
        model: &Gnn,
        items: &[BatchItem<'_>],
    ) -> Result<Vec<Explanation>, ExplainError> {
        let ctls: Vec<ExplainControl> = items
            .iter()
            .map(|it| ExplainControl {
                flow_index: it.flow_index.clone(),
                ..Default::default()
            })
            .collect();
        let controlled: Vec<ControlledItem<'_>> = items
            .iter()
            .zip(&ctls)
            .map(|(it, ctl)| ControlledItem {
                instance: it.instance,
                seed: it.seed,
                ctl,
            })
            .collect();
        Ok(self
            .explain_controlled(model, &controlled)?
            .into_iter()
            .map(|c| c.explanation)
            .collect())
    }

    /// Explains every item under its own controls (see
    /// [`Revelio::try_explain_controlled`] for what each control does),
    /// returning one result per item in item order.
    ///
    /// # Errors
    ///
    /// Returns [`ExplainError::TooManyFlows`] when an item without
    /// `shrink_on_overflow` exceeds [`RevelioConfig::max_flows`]; no
    /// partial results are returned.
    ///
    /// # Panics
    ///
    /// Panics if an item's target does not match the model's task, or if
    /// the items' feature widths differ.
    ///
    /// [`Revelio::try_explain_controlled`]: crate::Revelio::try_explain_controlled
    pub fn explain_controlled(
        &self,
        model: &Gnn,
        items: &[ControlledItem<'_>],
    ) -> Result<Vec<ControlledExplanation>, ExplainError> {
        let cfg = &self.cfg;
        let b = items.len();
        if b == 0 {
            return Ok(Vec::new());
        }
        // Tracing: emit through each item's handle, or the shared noop
        // handle (disabled collector — every emit below is one branch).
        let noop = TraceHandle::noop();
        let mut runs = items
            .iter()
            .map(|it| self.prepare(model, it, it.ctl.trace.as_ref().unwrap_or(&noop)))
            .collect::<Result<Vec<Item<'_>>, ExplainError>>()?;
        let fused = Fused::new(cfg, model, items, &mut runs);
        let params = &fused.params;

        // Debug builds statically audit the first recorded loss tape before
        // any training step: shape consistency, numeric-stability patterns,
        // and that every mask parameter is reachable from the loss.
        #[cfg(debug_assertions)]
        {
            let diags = revelio_analysis::audit_tape_with_params(&fused.loss(cfg).0, &params.all());
            assert!(
                diags.is_empty(),
                "REVELIO: static tape audit found {} defect(s):\n{}",
                diags.len(),
                diags
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }

        let mut opt = Adam::new(params.all(), cfg.lr);
        for run in &mut runs {
            run.optimize = Some(run.tr.span(Phase::Optimize));
        }
        for epoch in 0..cfg.epochs {
            for (j, run) in runs.iter_mut().enumerate() {
                if run.frozen.is_none() && items[j].ctl.deadline.expired() {
                    run.degradation.deadline_hit = true;
                    run.tr.event(EventKind::DeadlineHit {
                        epoch: epoch as u32,
                    });
                    run.stop(params.segment(j));
                }
            }
            if runs.iter().all(|r| r.frozen.is_some()) {
                break;
            }
            opt.zero_grad();
            let (total, losses) = fused.loss(cfg);
            total.backward();
            for (j, run) in runs.iter_mut().enumerate() {
                // Deadline-bounded items track the best (lowest-loss)
                // parameters so an early stop returns the best mask seen,
                // not the latest one. Per-epoch loss/grad-norm emission reads
                // tensors the untraced loop never materialises, so it is
                // gated on `verbose` (a ring collector), not merely `enabled`
                // (which an always-on metrics bridge sets).
                let track_best = items[j].ctl.deadline.is_set();
                let trace_epochs = run.tr.verbose();
                if run.frozen.is_some() || !(track_best || trace_epochs || run.warm) {
                    continue;
                }
                // The loss corresponds to the parameters *before* the step.
                let l = losses[j];
                if track_best && l.is_finite() && run.best.as_ref().is_none_or(|(b, _)| l < *b) {
                    run.best = Some((l, params.segment(j)));
                }
                if trace_epochs {
                    let g = params.mask.grad_vec();
                    let grad_norm = g[params.range(j)].iter().map(|v| v * v).sum::<f32>().sqrt();
                    run.tr.event(EventKind::Epoch {
                        index: epoch as u32,
                        loss: l,
                        grad_norm,
                    });
                }
                if run.warm {
                    if let Some(p) = run.prev_loss {
                        let rel = (p - l).abs() / p.abs().max(1e-8);
                        run.plateau = if rel < WARM_PLATEAU_TOL {
                            run.plateau + 1
                        } else {
                            0
                        };
                    }
                    run.prev_loss = Some(l);
                    if l.is_finite() && run.plateau >= WARM_PLATEAU_EPOCHS {
                        // The parameters already match this loss (the step
                        // below would move past it), so the item stops here.
                        run.degradation.epochs_run = epoch + 1;
                        run.tr.event(EventKind::Note("warm-start-early-stop"));
                        run.stop(params.segment(j));
                    }
                }
            }
            if runs.iter().all(|r| r.frozen.is_some()) {
                break;
            }
            opt.step();
            for (j, run) in runs.iter_mut().enumerate() {
                match &run.frozen {
                    Some(seg) => params.restore(j, seg),
                    None => run.degradation.epochs_run = epoch + 1,
                }
            }
        }
        for (j, run) in runs.iter_mut().enumerate() {
            run.optimize = None;
            if run.degradation.deadline_hit {
                if let Some((_, best)) = &run.best {
                    params.restore(j, best);
                }
            }
        }

        // Final scores. Counterfactual: ω'[F] = -ω[F] and
        // ω'[e] = 1 - ω[e], so higher always means more important.
        let readouts: Vec<Span<'_>> = runs.iter().map(|r| r.tr.span(Phase::Readout)).collect();
        // Layer-edge scores cover every layer edge: the full incidence.
        let learned = params.flow_scores(cfg.squash).to_vec();
        let mask_vals: Vec<Vec<f32>> = params
            .layer_masks(cfg, &fused.incidence, fused.edge_item.as_deref())
            .iter()
            .map(Tensor::to_vec)
            .collect();
        let at = |j, e| union_edge(&fused.node_off, &fused.edge_off, j, e);
        let mut out = Vec::with_capacity(b);
        for (j, run) in runs.into_iter().enumerate() {
            let instance = items[j].instance;
            // Scatter learned scores back over the full flow set
            // (unselected flows keep the neutral score 0).
            let mut flow_scores = vec![0.0f32; run.index.num_flows()];
            for (s, &fid) in learned[params.range(j)].iter().zip(&run.selected) {
                flow_scores[fid as usize] = *s;
            }
            let e_j = instance.mp.layer_edge_count();
            let mut layer_edge_scores: Vec<Vec<f32>> = mask_vals
                .iter()
                .map(|vals| (0..e_j).map(|e| vals[at(j, e)]).collect())
                .collect();
            if cfg.objective == Objective::Counterfactual {
                for s in &mut flow_scores {
                    *s = -*s;
                }
                for ls in &mut layer_edge_scores {
                    for v in ls.iter_mut() {
                        *v = 1.0 - *v;
                    }
                }
            }
            let edge_scores = edge_scores(&run.index, instance.mp.num_orig_edges(), &flow_scores);

            out.push(ControlledExplanation {
                explanation: Explanation {
                    edge_scores,
                    layer_edge_scores: Some(layer_edge_scores),
                    flows: Some(FlowScores {
                        index: run.index,
                        scores: flow_scores,
                    }),
                },
                degradation: run.degradation,
                // Export the converged state so a persistence layer can seed
                // the next run on the same instance through `ctl.warm_start`.
                converged_mask: Some(ConvergedMask {
                    selected: run.selected,
                    ..params.segment(j)
                }),
            });
        }
        drop(readouts);
        Ok(out)
    }

    /// Resolves an item's flow index — reusing `ctl.flow_index`, shrinking
    /// to the cap, or enumerating — then optionally preselects the top-k
    /// flows via a one-shot gradient-saliency pass (§VI future work).
    fn prepare<'a>(
        &self,
        model: &Gnn,
        it: &ControlledItem<'_>,
        tr: &'a TraceHandle,
    ) -> Result<Item<'a>, ExplainError> {
        let cfg = &self.cfg;
        let layers = model.num_layers();
        let instance = it.instance;
        let mut flows_dropped = 0;
        let index: Arc<FlowIndex> = match &it.ctl.flow_index {
            Some(idx) if idx.num_layers() == layers => {
                tr.event(EventKind::Note("flow-index-reused"));
                Arc::clone(idx)
            }
            _ if it.ctl.shrink_on_overflow => {
                let _span = tr.span(Phase::FlowIndex);
                let capped =
                    FlowIndex::build_capped(&instance.mp, layers, instance.target, cfg.max_flows);
                flows_dropped = capped.dropped;
                Arc::new(capped.index)
            }
            _ => {
                let _span = tr.span(Phase::FlowIndex);
                Arc::new(
                    FlowIndex::build(&instance.mp, layers, instance.target, cfg.max_flows)
                        .map_err(ExplainError::TooManyFlows)?,
                )
            }
        };
        let nf = index.num_flows();
        let full: Vec<Arc<BinCsr>> = (0..layers)
            .map(|l| Arc::clone(index.incidence(l)))
            .collect();

        let selected: Vec<u32> = match cfg.preselect {
            Some(k) if nf > k => {
                // Saliency pass: gradient of the factual objective w.r.t.
                // the flow masks at the neutral point, each layer run over
                // the target's receptive field as every epoch runs it.
                let task = model.config().task;
                let plan = epoch_plan(&instance.mp, task, &[instance.target], &[0], layers);
                let probe =
                    Params::fresh(Tensor::zeros(nf, 1), cfg.layer_weight, layers, vec![0, nf]);
                let masks = probe.layer_masks(cfg, &restrict(&full, &plan), None);
                let xw = instance.input_transform(model);
                let h = model.forward_planned(&plan, &xw, Some(&masks)).pop();
                let h = h.expect("at least one layer");
                let logits = match task {
                    Task::NodeClassification => h,
                    Task::GraphClassification => model.readout_logits(&h, &[0, h.rows()]),
                };
                let lp = logits.log_softmax_rows();
                lp.slice_cols(instance.class, instance.class + 1)
                    .neg()
                    .backward();
                let grad = probe.mask.grad_vec();
                let mut order: Vec<u32> = (0..nf as u32).collect();
                order.sort_by(|&a, &b| grad[b as usize].abs().total_cmp(&grad[a as usize].abs()));
                let mut sel: Vec<u32> = order.into_iter().take(k).collect();
                sel.sort_unstable();
                sel
            }
            _ => (0..nf as u32).collect(),
        };

        // Incidence restricted to the selected flows (columns renumbered).
        let incidence = if selected.len() == nf {
            full
        } else {
            let ne = instance.mp.layer_edge_count();
            (0..layers)
                .map(|l| {
                    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); ne];
                    for (new_id, &f) in selected.iter().enumerate() {
                        rows[index.flow(f as usize)[l] as usize].push(new_id as u32);
                    }
                    Arc::new(BinCsr::from_rows(ne, selected.len(), &rows))
                })
                .collect()
        };
        Ok(Item {
            tr,
            index,
            selected,
            incidence,
            degradation: Degradation {
                epochs_planned: cfg.epochs,
                flows_dropped,
                ..Default::default()
            },
            warm: false,
            best: None,
            prev_loss: None,
            plateau: 0,
            frozen: None,
            optimize: None,
        })
    }
}

/// A batch fused for optimisation: where each item sits in the (union)
/// graph, the epoch plan and loss inputs, and the stacked parameters.
struct Fused<'m> {
    model: &'m Gnn,
    params: Params,
    /// Item `j`'s nodes and stored edges start at `node_off[j]` and
    /// `edge_off[j]` of the union (each list ends with the total).
    node_off: Vec<usize>,
    edge_off: Vec<usize>,
    /// Per layer, the Eq. 7 incidence over every layer edge and each
    /// edge's item (`None` for a batch of one: one weight scales all).
    incidence: Vec<Arc<BinCsr>>,
    edge_item: Option<Vec<Vec<usize>>>,
    plan: Plan,
    xw: Tensor,
    /// `incidence` and `edge_item` over the plan's kept edges.
    epoch_incidence: Vec<Arc<BinCsr>>,
    epoch_edge_item: Option<Vec<Vec<usize>>>,
    spec: Rc<FlowLossSpec>,
}

impl<'m> Fused<'m> {
    /// Fuses `items`, prepared as `runs`: a batch of one optimises over its
    /// instance's own graph, features and incidence, a larger batch over
    /// their disjoint union with block-diagonal incidence. Each item's mask
    /// segment starts from its own seed, or from its warm start when that
    /// is aligned with the item.
    fn new(
        cfg: &RevelioConfig,
        model: &'m Gnn,
        items: &[ControlledItem<'_>],
        runs: &mut [Item<'_>],
    ) -> Fused<'m> {
        let layers = model.num_layers();
        let b = items.len();
        let node_off = prefix_sums(items.iter().map(|it| it.instance.mp.num_nodes()));
        let edge_off = prefix_sums(items.iter().map(|it| it.instance.mp.num_orig_edges()));
        let flow_off = prefix_sums(runs.iter().map(|r| r.selected.len()));
        let union = (b > 1).then(|| union_graph(items, &node_off));
        let (mp, x) = match &union {
            Some((mp, x)) => (mp, x),
            None => (&items[0].instance.mp, items[0].instance.graph.features()),
        };
        // The first layer's `x · W` does not depend on the masks: computed
        // once here from the CSR features, propagated from every epoch.
        let xw = model.input_transform_sparse(x);
        let e_total = mp.layer_edge_count();
        let (incidence, edge_item) = if b == 1 {
            (runs[0].incidence.clone(), None)
        } else {
            let mut edge_item = vec![0usize; e_total];
            for (j, it) in items.iter().enumerate() {
                for e in 0..it.instance.mp.layer_edge_count() {
                    edge_item[union_edge(&node_off, &edge_off, j, e)] = j;
                }
            }
            // Block-diagonal: union row `union_edge(.., j, e)` is item `j`'s
            // row `e` with flow columns shifted by `flow_off[j]`.
            let incidence = (0..layers)
                .map(|l| {
                    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); e_total];
                    for (j, (it, r)) in items.iter().zip(runs.iter()).enumerate() {
                        for e in 0..it.instance.mp.layer_edge_count() {
                            rows[union_edge(&node_off, &edge_off, j, e)] = r.incidence[l]
                                .row(e)
                                .iter()
                                .map(|&c| (flow_off[j] + c as usize) as u32)
                                .collect();
                        }
                    }
                    Arc::new(BinCsr::from_rows(e_total, flow_off[b], &rows))
                })
                .collect();
            (incidence, Some(vec![edge_item; layers]))
        };

        let task = model.config().task;
        let targets: Vec<Target> = items.iter().map(|it| it.instance.target).collect();
        let plan = epoch_plan(mp, task, &targets, &node_off, layers);
        let epoch_incidence = restrict(&incidence, &plan);
        let epoch_edge_item: Option<Vec<Vec<usize>>> = edge_item.as_ref().map(|owner| {
            (plan.layers().iter().zip(owner))
                .map(|(le, owner)| le.ids().iter().map(|&e| owner[e]).collect())
                .collect()
        });

        // "Skip layer edges unused by GNN layers" (Eq. 8): per layer, each
        // item's kept edges that carry one of its selected flows, ascending.
        let used = (epoch_incidence.iter().enumerate())
            .map(|(l, inc)| {
                let mut per_item = vec![Vec::new(); b];
                for p in (0..inc.rows()).filter(|&p| !inc.row(p).is_empty()) {
                    per_item[epoch_edge_item.as_ref().map_or(0, |o| o[l][p])].push(p);
                }
                let offsets = prefix_sums(per_item.iter().map(Vec::len));
                (offsets, per_item.concat())
            })
            .collect();
        let classes = items.iter().map(|it| it.instance.class).collect();
        let spec = FlowLossSpec::new(cfg.objective, cfg.alpha, classes, used);

        // Stacked parameters: each item's mask segment is initialised from
        // its own seed, exactly like a cold batch of one.
        let mut init = Vec::with_capacity(flow_off[b]);
        for (it, r) in items.iter().zip(runs.iter()) {
            init.extend(uniform(r.selected.len(), 1, 0.1, it.seed).to_vec());
        }
        let params = Params::fresh(
            Tensor::from_vec(init, flow_off[b], 1),
            cfg.layer_weight,
            layers,
            flow_off,
        );

        // Warm start: seed an item from a previously converged mask, but
        // only when it is aligned with the item's exact flow selection and
        // parameter shapes — anything else is silently stale (a changed
        // cap, a different preselection, another layer-weight mode) and is
        // rejected so the item stays bit-identical to a cold one.
        for (j, (it, run)) in items.iter().zip(runs.iter_mut()).enumerate() {
            if let Some(ws) = &it.ctl.warm_start {
                if ws.selected == run.selected
                    && ws.mask_params.len() == run.selected.len()
                    && ws.layer_weights.len() == params.layer_weights.len()
                    && ws.layer_weights.iter().all(|w| w.len() == 1)
                {
                    params.restore(j, ws);
                    run.warm = true;
                    run.tr.event(EventKind::Note("warm-start"));
                } else {
                    run.tr.event(EventKind::Note("warm-start-rejected"));
                }
            }
        }
        Fused {
            model,
            params,
            node_off,
            edge_off,
            incidence,
            edge_item,
            plan,
            xw,
            epoch_incidence,
            epoch_edge_item,
            spec: Rc::new(spec),
        }
    }

    /// Records one epoch's tape — the masked forward over the plan, then
    /// every item's loss in one [`Tensor::flow_loss`] — returning the
    /// summed loss and each item's own.
    fn loss(&self, cfg: &RevelioConfig) -> (Tensor, Vec<f32>) {
        let masks =
            (self.params).layer_masks(cfg, &self.epoch_incidence, self.epoch_edge_item.as_deref());
        let h = self
            .model
            .forward_planned(&self.plan, &self.xw, Some(&masks))
            .pop()
            .expect("at least one layer");
        // A node plan's last layer outputs exactly the target rows; a graph
        // task pools each item's node segment.
        let logits = match self.model.config().task {
            Task::NodeClassification => h,
            Task::GraphClassification => self.model.readout_logits(&h, &self.node_off),
        };
        logits.log_softmax_rows().flow_loss(&masks, &self.spec)
    }
}

/// Item `j`'s layer edge `e` in the disjoint union: the stored edges of
/// every item in item order, then the self-loops of every node in item
/// order (MpGraph's stored-then-self-loop layout applied to the union). A
/// batch of one has zero offsets.
fn union_edge(node_off: &[usize], edge_off: &[usize], j: usize, e: usize) -> usize {
    let m_j = edge_off[j + 1] - edge_off[j];
    if e < m_j {
        edge_off[j] + e
    } else {
        edge_off[edge_off.len() - 1] + node_off[j] + (e - m_j)
    }
}

/// The layer edges an epoch runs for `targets` (item `j`'s graph starting
/// at node `node_off[j]`): node tasks only the rows and edges that reach a
/// target row, the last layer outputting them in ascending order — item
/// order; graph tasks, whose readout pools every node, the full graph.
///
/// # Panics
///
/// Panics if a target does not match the task.
fn epoch_plan(
    mp: &MpGraph,
    task: Task,
    targets: &[Target],
    node_off: &[usize],
    layers: usize,
) -> Plan {
    let rows: Vec<usize> = (targets.iter().zip(node_off))
        .filter_map(|(&target, off)| match (task, target) {
            (Task::NodeClassification, Target::Node(v)) => Some(off + v),
            (Task::GraphClassification, Target::Graph) => None,
            (task, target) => panic!("target {target:?} does not match task {task:?}"),
        })
        .collect();
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]));
    match task {
        Task::NodeClassification => Plan::trimmed(mp, &rows, layers),
        Task::GraphClassification => Plan::full(mp, layers),
    }
}

/// Each layer's Eq. 7 incidence restricted to the plan's kept edges.
/// Every flow-carrying edge is kept, so a dropped row is empty and its
/// mask could not reach the loss.
fn restrict(incidence: &[Arc<BinCsr>], plan: &Plan) -> Vec<Arc<BinCsr>> {
    incidence
        .iter()
        .zip(plan.layers())
        .map(|(inc, le)| {
            if le.ids().len() == inc.rows() {
                Arc::clone(inc)
            } else {
                Arc::new(inc.select_rows(le.ids()))
            }
        })
        .collect()
}

/// The disjoint union of every item's graph: its message-passing view and
/// its CSR features, the items' rows stacked in item order. Per-item
/// node/edge ids shift by their offsets; degrees (hence the GCN
/// normalisation) are unchanged.
///
/// # Panics
///
/// Panics if the items' feature widths differ.
fn union_graph(items: &[ControlledItem<'_>], node_off: &[usize]) -> (MpGraph, CsrMatrix) {
    let feat_dim = items[0].instance.graph.feat_dim();
    let mut gb = Graph::builder(node_off[items.len()], feat_dim);
    let mut feats = Vec::with_capacity(items.len());
    for (it, &off) in items.iter().zip(node_off) {
        let g = &it.instance.graph;
        assert_eq!(
            g.feat_dim(),
            feat_dim,
            "REVELIO: batched instances must share one feature width"
        );
        for &(s, d) in g.edges() {
            gb.edge(off + s as usize, off + d as usize);
        }
        feats.push(g.features());
    }
    (MpGraph::new(&gb.build()), CsrMatrix::vstack(&feats))
}

/// Edge scores: Eq. 3 with `f = max` — an edge is as important as the
/// strongest flow it carries. Sum/mask aggregation suffers the "excessive
/// accumulation" problem of §IV-B (an edge crossed by many weakly-negative
/// flows outranks a motif edge), which empirically inverts motif rankings;
/// max does not. Edges carrying no flow cannot influence the target at all
/// and rank strictly lowest.
fn edge_scores(index: &FlowIndex, num_edges: usize, flow_scores: &[f32]) -> Vec<f32> {
    let mut edge_scores = vec![f32::NEG_INFINITY; num_edges];
    for l in 0..index.num_layers() {
        for (e, es) in edge_scores.iter_mut().enumerate() {
            for &f in index.flows_through(l, e) {
                *es = es.max(flow_scores[f as usize]);
            }
        }
    }
    // Map from the squash range (-1, 1) into (0, 1), flowless edges to 0.
    for es in &mut edge_scores {
        *es = if es.is_finite() {
            (1.0 + *es) / 2.0
        } else {
            0.0
        };
    }
    edge_scores
}

/// `[0, x0, x0+x1, ...]` — offsets plus a trailing total.
fn prefix_sums(xs: impl Iterator<Item = usize>) -> Vec<usize> {
    let sums = xs.scan(0, |acc, x| {
        *acc += x;
        Some(*acc)
    });
    std::iter::once(0).chain(sums).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::revelio::Revelio;
    use revelio_gnn::{GnnConfig, GnnKind};

    fn model(kind: GnnKind, seed: u64) -> Gnn {
        Gnn::new(GnnConfig::standard(
            kind,
            Task::NodeClassification,
            3,
            2,
            seed,
        ))
    }

    /// Three structurally different small instances against one model.
    fn instances(model: &Gnn) -> Vec<Instance> {
        let mut b1 = Graph::builder(3, 3);
        b1.edge(0, 1).edge(1, 2).edge(2, 0);
        b1.node_features(0, &[1.0, 0.0, 0.2]);
        b1.node_features(1, &[0.0, 1.0, 0.1]);
        let g1 = b1.build();

        let mut b2 = Graph::builder(4, 3);
        b2.edge(1, 0).edge(2, 0).edge(3, 0);
        b2.node_features(0, &[0.3, 0.3, 1.0]);
        b2.node_features(3, &[0.9, 0.1, 0.0]);
        let g2 = b2.build();

        let mut b3 = Graph::builder(3, 3);
        b3.undirected_edge(0, 1).undirected_edge(1, 2);
        b3.node_features(2, &[0.5, 0.5, 0.5]);
        let g3 = b3.build();

        vec![
            Instance::for_prediction(model, g1, Target::Node(1)),
            Instance::for_prediction(model, g2, Target::Node(0)),
            Instance::for_prediction(model, g3, Target::Node(2)),
        ]
    }

    fn assert_close(a: &[f32], b: &[f32], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= BATCH_TOLERANCE,
                "{what}[{i}]: batched {x} vs serial {y} exceeds tolerance"
            );
        }
    }

    fn check_equivalence(kind: GnnKind, cfg: RevelioConfig) {
        let m = model(kind, 11);
        let insts = instances(&m);
        let items: Vec<BatchItem<'_>> = insts
            .iter()
            .enumerate()
            .map(|(j, instance)| BatchItem {
                instance,
                seed: 40 + j as u64,
                flow_index: None,
            })
            .collect();
        let opt = BatchedOptimizer::new(cfg);
        let batched = opt.explain_batch(&m, &items).unwrap();

        for (j, inst) in insts.iter().enumerate() {
            let serial = Revelio::new(RevelioConfig {
                seed: 40 + j as u64,
                ..cfg
            })
            .try_explain(&m, inst)
            .unwrap();
            assert_close(&batched[j].edge_scores, &serial.edge_scores, "edge_scores");
            assert_close(
                &batched[j].flows.as_ref().unwrap().scores,
                &serial.flows.as_ref().unwrap().scores,
                "flow_scores",
            );
            let bl = batched[j].layer_edge_scores.as_ref().unwrap();
            let sl = serial.layer_edge_scores.as_ref().unwrap();
            assert_eq!(bl.len(), sl.len());
            for (lb, ls) in bl.iter().zip(sl) {
                assert_close(lb, ls, "layer_edge_scores");
            }
        }
    }

    #[test]
    fn batched_gcn_matches_serial_within_tolerance() {
        check_equivalence(
            GnnKind::Gcn,
            RevelioConfig {
                epochs: 40,
                ..Default::default()
            },
        );
    }

    #[test]
    fn batched_gat_matches_serial_within_tolerance() {
        check_equivalence(
            GnnKind::Gat,
            RevelioConfig {
                epochs: 20,
                ..Default::default()
            },
        );
    }

    #[test]
    fn batched_counterfactual_matches_serial() {
        check_equivalence(
            GnnKind::Gin,
            RevelioConfig {
                epochs: 20,
                objective: Objective::Counterfactual,
                ..Default::default()
            },
        );
    }

    #[test]
    fn single_item_batch_is_bit_identical_to_serial() {
        let m = model(GnnKind::Gcn, 7);
        let insts = instances(&m);
        let cfg = RevelioConfig {
            epochs: 25,
            seed: 5,
            ..Default::default()
        };
        let opt = BatchedOptimizer::new(cfg);
        let items = [BatchItem {
            instance: &insts[0],
            seed: 5,
            flow_index: None,
        }];
        let batched = opt.explain_batch(&m, &items).unwrap();
        let serial = Revelio::new(cfg).try_explain(&m, &insts[0]).unwrap();
        assert_eq!(batched[0].edge_scores, serial.edge_scores);
        assert_eq!(
            batched[0].flows.as_ref().unwrap().scores,
            serial.flows.as_ref().unwrap().scores
        );
    }

    /// A ring of `n` nodes with chords from every third node.
    fn ring(n: usize, salt: usize) -> Graph {
        let mut b = Graph::builder(n, 3);
        for v in 0..n {
            b.undirected_edge(v, (v + 1) % n);
            if (v + salt).is_multiple_of(3) {
                b.undirected_edge(v, (v + 2) % n);
            }
            b.node_features(v, &[v as f32 * 0.1, ((v + salt) % 4) as f32 * 0.25, 1.0]);
        }
        b.build()
    }

    /// The ops on the first loss tape of `instances` fused as one batch,
    /// walked through the public `Tensor::op` and `Op::parents`.
    fn tape_ops(m: &Gnn, instances: &[Instance], cfg: RevelioConfig) -> usize {
        let ctl = ExplainControl::default();
        let items: Vec<ControlledItem<'_>> = instances
            .iter()
            .map(|instance| ControlledItem {
                instance,
                seed: 3,
                ctl: &ctl,
            })
            .collect();
        let opt = BatchedOptimizer::new(cfg);
        let noop = TraceHandle::noop();
        let mut runs: Vec<Item<'_>> = items
            .iter()
            .map(|it| opt.prepare(m, it, &noop).unwrap())
            .collect();
        let (total, _) = Fused::new(&cfg, m, &items, &mut runs).loss(&cfg);
        let mut seen = std::collections::HashSet::new();
        let (mut stack, mut ops) = (vec![total], 0);
        while let Some(t) = stack.pop() {
            if let (true, Some(op)) = (seen.insert(t.id()), t.op()) {
                ops += 1;
                stack.extend(op.operands().cloned());
            }
        }
        ops
    }

    #[test]
    fn the_loss_tape_records_the_same_ops_for_every_batch_size() {
        for (task, target) in [
            (Task::NodeClassification, Target::Node(1)),
            (Task::GraphClassification, Target::Graph),
        ] {
            let m = Gnn::new(GnnConfig::standard(GnnKind::Gin, task, 3, 2, 9));
            let insts: Vec<Instance> = (0..8)
                .map(|j| Instance::for_prediction(&m, ring(5 + j, j), target))
                .collect();
            for layer_weight in [LayerWeight::None, LayerWeight::Exp] {
                let cfg = RevelioConfig {
                    layer_weight,
                    ..Default::default()
                };
                let ops: Vec<usize> = [1, 3, 8]
                    .iter()
                    .map(|&b| tape_ops(&m, &insts[..b], cfg))
                    .collect();
                // A batch of one scales its edges by its lone layer weight;
                // a larger one first gathers each edge's item weight (one
                // op per layer). Nothing else depends on the batch size.
                let gathers = match layer_weight {
                    LayerWeight::None => 0,
                    _ => m.num_layers(),
                };
                assert_eq!(ops[0] + gathers, ops[1], "{task:?}, {layer_weight:?}");
                assert_eq!(ops[1], ops[2], "{task:?}, {layer_weight:?}");
            }
        }
    }

    /// The preselection probe as it ran before each layer was trimmed to
    /// the target's receptive field: the full graph, then the target row.
    fn full_graph_saliency(cfg: &RevelioConfig, m: &Gnn, inst: &Instance) -> Vec<f32> {
        let layers = m.num_layers();
        let index = FlowIndex::build(&inst.mp, layers, inst.target, cfg.max_flows).unwrap();
        let nf = index.num_flows();
        let full: Vec<Arc<BinCsr>> = (0..layers)
            .map(|l| Arc::clone(index.incidence(l)))
            .collect();
        let probe = Params::fresh(Tensor::zeros(nf, 1), cfg.layer_weight, layers, vec![0, nf]);
        let masks = probe.layer_masks(cfg, &full, None);
        m.target_logits_from(
            &inst.mp,
            &inst.input_transform(m),
            Some(&masks),
            inst.target,
        )
        .log_softmax_rows()
        .slice_cols(inst.class, inst.class + 1)
        .neg()
        .backward();
        probe.mask.grad_vec()
    }

    #[test]
    fn the_trimmed_preselection_probe_selects_what_the_full_graph_one_does() {
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat] {
            let m = model(kind, 13);
            let k = 5;
            let cfg = RevelioConfig {
                epochs: 15,
                preselect: Some(k),
                ..Default::default()
            };
            let insts = instances(&m);
            let items: Vec<BatchItem<'_>> = insts
                .iter()
                .map(|instance| BatchItem {
                    instance,
                    seed: 21,
                    flow_index: None,
                })
                .collect();
            let fused = BatchedOptimizer::new(cfg)
                .explain_batch(&m, &items)
                .unwrap();
            for (inst, out) in insts.iter().zip(&fused) {
                let grad = full_graph_saliency(&cfg, &m, inst);
                assert!(grad.len() > k, "{kind:?}: preselection must run");
                let mut order: Vec<u32> = (0..grad.len() as u32).collect();
                order.sort_by(|&a, &b| grad[b as usize].abs().total_cmp(&grad[a as usize].abs()));
                let mut expected: Vec<u32> = order.into_iter().take(k).collect();
                expected.sort_unstable();
                let lone = Revelio::new(RevelioConfig { seed: 21, ..cfg })
                    .try_explain_controlled(&m, inst, &ExplainControl::default())
                    .unwrap();
                let selected = &lone.converged_mask.as_ref().unwrap().selected;
                assert_eq!(selected, &expected, "{kind:?}: selection");
                // Every flow outside the selection keeps the neutral score.
                let scores = &lone.explanation.flows.as_ref().unwrap().scores;
                for (f, s) in scores.iter().enumerate() {
                    if !expected.contains(&(f as u32)) {
                        assert_eq!(*s, 0.0, "{kind:?}: unselected flow {f}");
                    }
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(scores),
                    bits(&out.flows.as_ref().unwrap().scores),
                    "{kind:?}: fused vs lone flow scores"
                );
            }
        }
    }
}
