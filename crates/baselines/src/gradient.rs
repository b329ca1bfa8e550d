//! Gradient-based baselines: GradCAM and DeepLIFT.

use revelio_core::{Explainer, Explanation};
use revelio_gnn::{Gnn, Instance, Task};
use revelio_graph::Target;
use revelio_tensor::Tensor;

/// GradCAM adapted to GNNs (Pope et al., 2019).
///
/// Channel weights are the mean gradient of the explained class score with
/// respect to the last *hidden* layer's node embeddings; the node heat is the
/// ReLU of the weighted embedding sum, and an edge scores the mean of its
/// endpoint heats.
pub struct GradCam;

/// DeepLIFT with the rescale rule collapsed to gradient × (input − baseline)
/// with a zero baseline (the approximation used by the DIG library's
/// implementation for piecewise-linear networks).
///
/// Per-node attribution is the sum of its feature attributions; an edge
/// scores the mean of its endpoint attributions (absolute value).
pub struct DeepLift;

/// The explained class score (`1 × 1`), from a forward pass on the
/// features `x`.
fn class_score(model: &Gnn, instance: &Instance, x: &Tensor) -> Tensor {
    let logits = match (model.config().task, instance.target) {
        (Task::NodeClassification, Target::Node(v)) => {
            model.node_logits(&instance.mp, x, None).gather_rows(&[v])
        }
        (Task::GraphClassification, Target::Graph) => model.graph_logits(&instance.mp, x, None),
        (task, target) => panic!("target {target:?} does not match task {task:?}"),
    };
    logits.slice_cols(instance.class, instance.class + 1)
}

/// The gradient of the explained class score w.r.t. the features `x`,
/// which must be flagged with `requires_grad` or no gradient reaches it.
fn class_gradient(model: &Gnn, instance: &Instance, x: &Tensor) -> Vec<f32> {
    let score = class_score(model, instance, x);
    x.zero_grad();
    score.backward();
    x.grad_vec()
}

fn node_heat_to_edge_scores(instance: &Instance, heat: &[f32]) -> Vec<f32> {
    instance
        .graph
        .edges()
        .iter()
        .map(|&(s, d)| 0.5 * (heat[s as usize] + heat[d as usize]))
        .collect()
}

impl Explainer for GradCam {
    fn name(&self) -> &'static str {
        "GradCAM"
    }

    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        let layers = model.num_layers();
        assert!(layers >= 2, "GradCAM needs a hidden layer before the head");
        // Flag the last convolutional feature map so its gradient is
        // retained: the layer before the logits head for node tasks, the
        // final layer (pre-readout) for graph tasks.
        let outs = model.forward_layers(&instance.mp, &instance.x, None);
        let fm_idx = match model.config().task {
            Task::NodeClassification => layers - 2,
            Task::GraphClassification => layers - 1,
        };
        let feature_map = outs[fm_idx].clone().requires_grad();
        // Recompute from the retained tensor: cheaper to just backprop the
        // full graph — the tensors in `outs` are the live graph nodes.
        let logits = outs.last().expect("layers").clone();
        let score = match (model.config().task, instance.target) {
            (Task::NodeClassification, Target::Node(v)) => logits
                .gather_rows(&[v])
                .slice_cols(instance.class, instance.class + 1),
            (Task::GraphClassification, Target::Graph) => {
                let (w, b) = model.readout().expect("graph task readout");
                logits
                    .mean_rows()
                    .matmul(w)
                    .add_row_broadcast(b)
                    .slice_cols(instance.class, instance.class + 1)
            }
            (task, target) => panic!("target {target:?} does not match task {task:?}"),
        };
        feature_map.zero_grad();
        score.backward();
        let grad = feature_map.grad_vec();

        let (n, d) = feature_map.shape();
        // alpha_k = mean over nodes of dL/dF[:, k].
        let mut alpha = vec![0.0f32; d];
        for v in 0..n {
            for k in 0..d {
                alpha[k] += grad[v * d + k];
            }
        }
        for a in &mut alpha {
            *a /= n as f32;
        }
        let fm = feature_map.data();
        let heat: Vec<f32> = (0..n)
            .map(|v| {
                let s: f32 = (0..d).map(|k| alpha[k] * fm[v * d + k]).sum();
                s.max(0.0)
            })
            .collect();
        drop(fm);

        Explanation::from_edge_scores(node_heat_to_edge_scores(instance, &heat))
    }
}

impl Explainer for DeepLift {
    fn name(&self) -> &'static str {
        "DeepLIFT"
    }

    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        // Differentiate w.r.t. a flagged copy of the features: flagging the
        // instance's own `x` would make every later explainer of the
        // instance pay for its gradient too.
        let x = instance.x.detach().requires_grad();
        let grad = class_gradient(model, instance, &x);
        let x = x.data();
        let (n, f) = instance.x.shape();
        // Rescale rule with zero baseline: contribution = grad * (x - 0).
        let heat: Vec<f32> = (0..n)
            .map(|v| {
                (0..f)
                    .map(|j| grad[v * f + j] * x[v * f + j])
                    .sum::<f32>()
                    .abs()
            })
            .collect();
        drop(x);
        Explanation::from_edge_scores(node_heat_to_edge_scores(instance, &heat))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind};
    use revelio_graph::Graph;

    fn setup() -> (Gnn, Instance) {
        let mut b = Graph::builder(4, 3);
        b.undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(2, 3);
        for v in 0..4 {
            b.node_features(v, &[v as f32 * 0.5, 1.0, 0.2]);
        }
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            3,
            2,
            31,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Node(1));
        (model, inst)
    }

    #[test]
    fn gradcam_produces_finite_scores_per_edge() {
        let (model, inst) = setup();
        let exp = GradCam.explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), inst.graph.num_edges());
        assert!(exp.edge_scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn deeplift_produces_finite_scores_per_edge() {
        let (model, inst) = setup();
        let exp = DeepLift.explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), inst.graph.num_edges());
        assert!(exp.edge_scores.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    /// [`setup`]'s model frozen, as explainers receive trained models.
    fn frozen_setup() -> (Gnn, Instance) {
        let (model, inst) = setup();
        model.freeze();
        (model, inst)
    }

    #[test]
    fn deeplift_gradient_matches_finite_differences() {
        let (model, inst) = frozen_setup();
        let x = inst.x.detach().requires_grad();
        let grad = class_gradient(&model, &inst, &x);
        assert!(grad.iter().any(|g| *g != 0.0), "input gradient is all zero");
        revelio_tensor::grad_check(
            || class_score(&model, &inst, &x),
            std::slice::from_ref(&x),
            1e-2,
            2e-2,
        )
        .expect("the class score's input gradient matches finite differences");
        // The vector DeepLIFT consumes is that same gradient: compare it
        // with central differences element by element.
        let base = x.to_vec();
        let eps = 1e-2;
        for (i, &g) in grad.iter().enumerate() {
            let mut probe = base.clone();
            probe[i] = base[i] + eps;
            x.set_data(&probe);
            let plus = class_score(&model, &inst, &x).item();
            probe[i] = base[i] - eps;
            x.set_data(&probe);
            let minus = class_score(&model, &inst, &x).item();
            let numeric = (plus - minus) / (2.0 * eps);
            let rel = (g - numeric).abs() / g.abs().max(numeric.abs()).max(1.0);
            assert!(rel < 2e-2, "element {i}: analytic {g} vs numeric {numeric}");
        }
        x.set_data(&base);
    }

    #[test]
    fn deeplift_scores_are_not_all_zero() {
        let (model, inst) = frozen_setup();
        let exp = DeepLift.explain(&model, &inst);
        assert!(exp.edge_scores.iter().any(|s| *s > 0.0));
        assert!(
            !inst.x.has_grad(),
            "the shared features must stay unflagged"
        );
    }

    #[test]
    fn gradcam_scores_are_not_all_zero() {
        let (model, inst) = frozen_setup();
        let exp = GradCam.explain(&model, &inst);
        assert!(exp.edge_scores.iter().any(|s| *s > 0.0));
    }

    #[test]
    fn gradient_methods_work_on_graph_task() {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        b.graph_label(1);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gin,
            Task::GraphClassification,
            2,
            2,
            32,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Graph);
        assert_eq!(GradCam.explain(&model, &inst).edge_scores.len(), 4);
        assert_eq!(DeepLift.explain(&model, &inst).edge_scores.len(), 4);
    }
}
