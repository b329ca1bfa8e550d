//! The [`Gnn`] model: a stack of message-passing layers with task heads.

use revelio_graph::{Graph, MpGraph, Target};
use revelio_tensor::{glorot_uniform, CsrMatrix, Tensor};

use crate::layer::Layer;
use crate::plan::Plan;

/// Architecture family, matching the paper's evaluation (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GnnKind {
    Gcn,
    Gin,
    Gat,
}

impl GnnKind {
    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            GnnKind::Gcn => "GCN",
            GnnKind::Gin => "GIN",
            GnnKind::Gat => "GAT",
        }
    }
}

/// Prediction task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    NodeClassification,
    GraphClassification,
}

/// Model hyperparameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GnnConfig {
    pub kind: GnnKind,
    pub task: Task,
    pub in_dim: usize,
    pub hidden_dim: usize,
    pub num_classes: usize,
    /// The paper uses three layers everywhere.
    pub num_layers: usize,
    /// GAT attention heads (the paper uses eight).
    pub heads: usize,
    pub seed: u64,
}

impl GnnConfig {
    /// The paper's standard configuration: three layers, hidden width 32,
    /// eight GAT heads.
    pub fn standard(
        kind: GnnKind,
        task: Task,
        in_dim: usize,
        num_classes: usize,
        seed: u64,
    ) -> Self {
        GnnConfig {
            kind,
            task,
            in_dim,
            hidden_dim: 32,
            num_classes,
            num_layers: 3,
            heads: 8,
            seed,
        }
    }
}

/// A trained (or trainable) GNN.
pub struct Gnn {
    cfg: GnnConfig,
    layers: Vec<Layer>,
    /// Graph-classification readout: `hidden -> classes` linear head.
    readout: Option<(Tensor, Tensor)>,
}

impl Gnn {
    /// Builds a model with freshly initialised weights.
    pub fn new(cfg: GnnConfig) -> Self {
        assert!(cfg.num_layers >= 1);
        let mut layers = Vec::with_capacity(cfg.num_layers);
        // For node classification the last GNN layer maps to classes; for
        // graph classification all layers map to hidden and a linear readout
        // follows the mean-pool.
        let last_is_logits = cfg.task == Task::NodeClassification;
        for l in 0..cfg.num_layers {
            let in_dim = if l == 0 { cfg.in_dim } else { cfg.hidden_dim };
            let is_last = l + 1 == cfg.num_layers;
            let out_dim = if is_last && last_is_logits {
                cfg.num_classes
            } else {
                cfg.hidden_dim
            };
            let seed = cfg.seed ^ ((l as u64 + 1) * 0x51_7c_c1);
            let layer = match cfg.kind {
                GnnKind::Gcn => Layer::gcn(in_dim, out_dim, seed),
                GnnKind::Gin => Layer::gin(in_dim, out_dim, seed),
                GnnKind::Gat => {
                    let average = is_last && last_is_logits;
                    Layer::gat(in_dim, out_dim, cfg.heads, average, seed)
                }
            };
            layers.push(layer);
        }
        let readout = (cfg.task == Task::GraphClassification).then(|| {
            (
                glorot_uniform(cfg.hidden_dim, cfg.num_classes, cfg.seed ^ 0x0ead).requires_grad(),
                Tensor::zeros(1, cfg.num_classes).requires_grad(),
            )
        });
        Gnn {
            cfg,
            layers,
            readout,
        }
    }

    /// Model configuration.
    pub fn config(&self) -> &GnnConfig {
        &self.cfg
    }

    /// Number of message-passing layers `L`.
    pub fn num_layers(&self) -> usize {
        self.cfg.num_layers
    }

    /// The message-passing layers (used by decomposition-based explainers
    /// such as GNN-LRP that must inspect per-layer weights and messages).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// The graph-classification readout head `(weight, bias)`, if any.
    pub fn readout(&self) -> Option<(&Tensor, &Tensor)> {
        self.readout.as_ref().map(|(w, b)| (w, b))
    }

    /// All trainable parameters.
    pub fn params(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.layers.iter().flat_map(Layer::params).collect();
        if let Some((w, b)) = &self.readout {
            p.push(w.clone());
            p.push(b.clone());
        }
        p
    }

    /// Freezes the model for explaining: clears `requires_grad` on every
    /// parameter and drops any accumulated gradient. A backward pass through
    /// a frozen model differentiates only what the explainer learns (its
    /// masks), never the weights. Training re-flags the parameters on entry
    /// and freezes them again on exit.
    pub fn freeze(&self) {
        for p in self.params() {
            p.set_requires_grad(false);
            p.zero_grad();
        }
    }

    /// Flags every parameter for gradient accumulation again (what
    /// [`Gnn::new`] starts with).
    pub(crate) fn unfreeze(&self) {
        for p in self.params() {
            p.set_requires_grad(true);
        }
    }

    /// The node feature matrix of `g` as a dense tensor (materialised from
    /// the graph's CSR form).
    pub fn features_tensor(g: &Graph) -> Tensor {
        Tensor::from_vec(g.features().to_dense(), g.num_nodes(), g.feat_dim())
    }

    /// Runs all message-passing layers, returning every layer's
    /// post-activation output (`hidden` for intermediate layers; the last
    /// entry is raw logits for node classification or the final hidden
    /// representation for graph classification).
    ///
    /// `masks`, if given, supplies one `[|E|, 1]` mask per layer (Eq. 6).
    pub fn forward_layers(
        &self,
        mp: &MpGraph,
        x: &Tensor,
        masks: Option<&[Tensor]>,
    ) -> Vec<Tensor> {
        self.forward_layers_from(mp, &self.input_transform(x), masks)
    }

    /// The first layer's [`Layer::transform`] of the features `x`: the
    /// mask-invariant `x · W` that [`Gnn::forward_layers_from`] and
    /// [`Gnn::target_logits_from`] start from. A mask-learning loop computes
    /// it once and propagates from it every epoch.
    pub fn input_transform(&self, x: &Tensor) -> Tensor {
        self.layers[0].transform(x)
    }

    /// [`Gnn::input_transform`] of features held sparse: the CSR product
    /// of [`Layer::transform_sparse`], bit-identical to the dense
    /// `input_transform` of `x.to_dense()`. Explainers start from it so the
    /// dense feature matrix is never multiplied.
    pub fn input_transform_sparse(&self, x: &CsrMatrix) -> Tensor {
        self.layers[0].transform_sparse(x)
    }

    /// [`Gnn::forward_layers`] from the first layer's transformed input
    /// `xw = input_transform(x)`; every later layer transforms its own
    /// input. This is [`Gnn::forward_planned`] over [`Plan::full`].
    pub fn forward_layers_from(
        &self,
        mp: &MpGraph,
        xw: &Tensor,
        masks: Option<&[Tensor]>,
    ) -> Vec<Tensor> {
        self.forward_planned(&Plan::full(mp, self.cfg.num_layers), xw, masks)
    }

    /// Runs layer `l` over `plan.layers()[l]` from the first layer's
    /// transformed input `xw` (`[layers()[0].edges.n_in(), ·]`), returning
    /// every layer's post-activation output; layer `l`'s has one row per
    /// output row of its edges.
    ///
    /// `masks`, if given, supplies one `[|edges|, 1]` mask per layer over
    /// that layer's kept edges (Eq. 6). Over a [`Plan::trimmed`] plan,
    /// each output row is bit-identical to the same node's row of the full
    /// forward under the masks' full-graph extension.
    pub fn forward_planned(
        &self,
        plan: &Plan,
        xw: &Tensor,
        masks: Option<&[Tensor]>,
    ) -> Vec<Tensor> {
        let layers = self.cfg.num_layers;
        assert_eq!(
            plan.layers().len(),
            layers,
            "one edge plan per layer required"
        );
        if let Some(ms) = masks {
            assert_eq!(ms.len(), layers, "one mask per layer required");
        }
        let mut outs: Vec<Tensor> = Vec::with_capacity(layers);
        for (l, (layer, edges)) in self.layers.iter().zip(plan.layers()).enumerate() {
            let hw = match outs.last() {
                None => xw.clone(),
                Some(h) => layer.transform(h),
            };
            let mask = masks.map(|ms| &ms[l]);
            let is_last = l + 1 == layers;
            let keep_raw = is_last && self.cfg.task == Task::NodeClassification;
            // Leaky activation between layers: plain ReLU can kill every
            // unit at once under full-batch training (dying-ReLU), freezing
            // the model at the class prior. It is fused into the layer's
            // final bias add — bit-identical to `forward(..).leaky_relu(0.01)`
            // but one pass over the matrix.
            let slope = (!keep_raw).then_some(0.01);
            outs.push(layer.propagate(edges, &hw, mask, plan.norm(l), slope));
        }
        outs
    }

    /// Node-classification logits `[n, C]`.
    pub fn node_logits(&self, mp: &MpGraph, x: &Tensor, masks: Option<&[Tensor]>) -> Tensor {
        assert_eq!(self.cfg.task, Task::NodeClassification);
        self.forward_layers(mp, x, masks)
            .pop()
            .expect("at least one layer")
    }

    /// Graph-classification logits `[1, C]` (mean-pool readout).
    pub fn graph_logits(&self, mp: &MpGraph, x: &Tensor, masks: Option<&[Tensor]>) -> Tensor {
        assert_eq!(self.cfg.task, Task::GraphClassification);
        let h = self
            .forward_layers(mp, x, masks)
            .pop()
            .expect("at least one layer");
        self.readout_logits(&h, &[0, h.rows()])
    }

    /// The readout head over the final node representations `h` of `S`
    /// graphs stacked in row segments (graph `s` owns rows `segments[s]..
    /// segments[s + 1]`, one graph is `[0, n]`), giving their `[S, C]`
    /// logits in one pass. Row `s` is bit-identical to the logits of
    /// graph `s`'s rows alone (the matmul's rows are independent), so a
    /// batched explainer pools every graph of a disjoint-union forward
    /// pass at once.
    ///
    /// # Panics
    ///
    /// Panics if the model has no readout (node classification) or the
    /// segments do not split `h` into non-empty runs of rows.
    pub fn readout_logits(&self, h: &Tensor, segments: &[usize]) -> Tensor {
        let (w, b) = self.readout.as_ref().expect("graph task has a readout");
        // Sum pooling (realised as mean × n): standard for GIN-style graph
        // classification and markedly easier to optimise than mean pooling
        // when the discriminative motif covers few nodes.
        let sizes: Vec<f32> = segments.windows(2).map(|s| (s[1] - s[0]) as f32).collect();
        let n = Tensor::from_vec(sizes, segments.len().saturating_sub(1), 1);
        h.segment_mean_rows(segments)
            .mul_col_broadcast(&n)
            .matmul(w)
            .add_row_broadcast(b)
    }

    /// Logits for an explanation target: `[1, C]` — the target node's row,
    /// or the pooled graph logits.
    pub fn target_logits(
        &self,
        mp: &MpGraph,
        x: &Tensor,
        masks: Option<&[Tensor]>,
        target: Target,
    ) -> Tensor {
        self.target_logits_from(mp, &self.input_transform(x), masks, target)
    }

    /// [`Gnn::target_logits`] from the first layer's transformed input
    /// `xw = input_transform(x)`.
    pub fn target_logits_from(
        &self,
        mp: &MpGraph,
        xw: &Tensor,
        masks: Option<&[Tensor]>,
        target: Target,
    ) -> Tensor {
        let last = || {
            self.forward_layers_from(mp, xw, masks)
                .pop()
                .expect("at least one layer")
        };
        match (self.cfg.task, target) {
            (Task::NodeClassification, Target::Node(v)) => last().gather_rows(&[v]),
            (Task::GraphClassification, Target::Graph) => {
                let h = last();
                self.readout_logits(&h, &[0, h.rows()])
            }
            (task, target) => panic!("target {target:?} does not match task {task:?}"),
        }
    }

    /// Class probabilities for an explanation target.
    pub fn predict_probs(&self, g: &Graph, target: Target) -> Vec<f32> {
        self.predict_probs_on(&MpGraph::new(g), g, target)
    }

    /// [`Gnn::predict_probs`] on `g` with its message-passing view `mp`
    /// already built. The first layer runs from the CSR features.
    pub(crate) fn predict_probs_on(&self, mp: &MpGraph, g: &Graph, target: Target) -> Vec<f32> {
        let xw = self.input_transform_sparse(g.features());
        self.target_logits_from(mp, &xw, None, target)
            .log_softmax_rows()
            .to_vec()
            .iter()
            .map(|lp| lp.exp())
            .collect()
    }

    /// The predicted class for an explanation target.
    pub fn predict_class(&self, g: &Graph, target: Target) -> usize {
        argmax(&self.predict_probs(g, target))
    }

    // ------------------------------------------------------------------
    // Parameter state (wire registration, store records, model zoo)
    // ------------------------------------------------------------------

    /// Copies all parameter buffers out, in [`Gnn::params`] order.
    pub fn state_dict(&self) -> Vec<Vec<f32>> {
        self.params().iter().map(Tensor::to_vec).collect()
    }

    /// Checks that `state` fits this architecture before it is loaded:
    /// one buffer per [`Gnn::params`] entry, each of that parameter's
    /// length, and every weight finite. The error says which check failed.
    pub fn check_state(&self, state: &[Vec<f32>]) -> Result<(), String> {
        let params = self.params();
        if params.len() != state.len() {
            return Err(format!(
                "state dict has {} parameter buffers, the architecture needs {}",
                state.len(),
                params.len()
            ));
        }
        for (i, (p, s)) in params.iter().zip(state).enumerate() {
            if p.len() != s.len() {
                return Err(format!(
                    "parameter {i} has {} values, the architecture needs {}",
                    s.len(),
                    p.len()
                ));
            }
            if let Some(bad) = s.iter().find(|v| !v.is_finite()) {
                return Err(format!("parameter {i} contains a non-finite weight {bad}"));
            }
        }
        Ok(())
    }

    /// Loads parameter buffers saved by [`Gnn::state_dict`].
    ///
    /// # Panics
    ///
    /// Panics if the number or shapes of buffers do not match.
    pub fn load_state(&self, state: &[Vec<f32>]) {
        let params = self.params();
        assert_eq!(params.len(), state.len(), "state dict length mismatch");
        for (p, s) in params.iter().zip(state) {
            p.set_data(s);
        }
    }
}

/// Index of the maximum element (first on ties).
pub(crate) fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star_graph() -> Graph {
        let mut b = Graph::builder(5, 3);
        for v in 1..5 {
            b.undirected_edge(0, v);
            b.node_features(v, &[v as f32, 1.0, 0.0]);
        }
        b.node_features(0, &[0.0, 0.0, 1.0]);
        b.build()
    }

    #[test]
    fn node_model_shapes() {
        let g = star_graph();
        let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 3, 4, 0);
        let m = Gnn::new(cfg);
        let mp = MpGraph::new(&g);
        let x = Gnn::features_tensor(&g);
        let logits = m.node_logits(&mp, &x, None);
        assert_eq!(logits.shape(), (5, 4));
        let probs = m.predict_probs(&g, Target::Node(0));
        assert_eq!(probs.len(), 4);
        let s: f32 = probs.iter().sum();
        assert!((s - 1.0).abs() < 1e-4);
    }

    #[test]
    fn graph_model_shapes() {
        let g = star_graph();
        for kind in [GnnKind::Gcn, GnnKind::Gin, GnnKind::Gat] {
            let cfg = GnnConfig::standard(kind, Task::GraphClassification, 3, 2, 1);
            let m = Gnn::new(cfg);
            let mp = MpGraph::new(&g);
            let x = Gnn::features_tensor(&g);
            assert_eq!(m.graph_logits(&mp, &x, None).shape(), (1, 2));
            assert!(m.predict_class(&g, Target::Graph) < 2);
        }
    }

    #[test]
    fn gat_node_model_runs() {
        let g = star_graph();
        let cfg = GnnConfig::standard(GnnKind::Gat, Task::NodeClassification, 3, 4, 2);
        let m = Gnn::new(cfg);
        let probs = m.predict_probs(&g, Target::Node(3));
        assert_eq!(probs.len(), 4);
    }

    #[test]
    fn state_dict_roundtrip_preserves_outputs() {
        let g = star_graph();
        let cfg = GnnConfig::standard(GnnKind::Gin, Task::NodeClassification, 3, 4, 3);
        let a = Gnn::new(cfg.clone());
        let b = Gnn::new(GnnConfig { seed: 99, ..cfg });
        let before = b.predict_probs(&g, Target::Node(1));
        b.load_state(&a.state_dict());
        let after = b.predict_probs(&g, Target::Node(1));
        let reference = a.predict_probs(&g, Target::Node(1));
        assert_ne!(before, after);
        assert_eq!(after, reference);
    }

    #[test]
    fn masks_change_predictions() {
        let g = star_graph();
        let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 3, 4, 4);
        let m = Gnn::new(cfg);
        let mp = MpGraph::new(&g);
        let x = Gnn::features_tensor(&g);
        let full = m.target_logits(&mp, &x, None, Target::Node(0)).to_vec();
        let half_masks: Vec<Tensor> = (0..3)
            .map(|_| Tensor::full(0.5, mp.layer_edge_count(), 1))
            .collect();
        let masked = m
            .target_logits(&mp, &x, Some(&half_masks), Target::Node(0))
            .to_vec();
        assert_ne!(full, masked);
    }

    #[test]
    #[should_panic(expected = "does not match task")]
    fn mismatched_target_panics() {
        let g = star_graph();
        let cfg = GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 3, 4, 5);
        let m = Gnn::new(cfg);
        let mp = MpGraph::new(&g);
        let x = Gnn::features_tensor(&g);
        let _ = m.target_logits(&mp, &x, None, Target::Graph);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[0.1, 0.5, 0.5]), 1);
    }
}
