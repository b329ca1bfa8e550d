//! The traced run's replay: after a timed request, the same instance goes
//! once more through each layer's public functions, each call in a span.

use std::hint::black_box;
use std::sync::Arc;

use revelio_core::{
    BatchItem, BatchedOptimizer, ConvergedMask, ExplainControl, Objective, Revelio, RevelioConfig,
};
use revelio_eval::{flow_cap, revelio_batch_config, Effort};
use revelio_gnn::{Gnn, Instance};
use revelio_graph::{khop_subgraph, FlowIndex, Graph};
use revelio_tensor::{kernels, Tensor};

use crate::fixtures::Picked;
use crate::spans::Spans;

/// The REVELIO configuration the server derives for a factual Quick
/// request, with the given initialisation seed.
pub fn served_config(seed: u64) -> RevelioConfig {
    RevelioConfig {
        seed,
        ..revelio_batch_config(Objective::Factual, Effort::Quick)
    }
}

/// What one replay measured (µs unless named otherwise).
pub struct Replayed {
    pub khop_us: f64,
    /// `Instance::for_prediction`: the runtime's extraction step.
    pub instance_us: f64,
    pub flow_index_us: f64,
    pub flows: usize,
    pub layer_edges: usize,
    pub eq7_us: f64,
    pub forward_us: f64,
    pub backward_us: f64,
    /// First-layer dense matmul rate (GFLOP/s, counted from the shapes).
    pub matmul_gflops: f64,
    pub optimize_us: f64,
    pub epochs_run: usize,
    pub converged: Option<ConvergedMask>,
    pub instance: Instance,
    pub index: Arc<FlowIndex>,
}

/// Replays `pick` through graph → gnn → tensor → core. `warm` seeds the
/// optimisation the way a store-held mask does on the serving path.
pub fn replay(
    spans: &mut Spans,
    request: u64,
    model: &Gnn,
    full: &Graph,
    pick: &Picked,
    seed: u64,
    warm: Option<Arc<ConvergedMask>>,
) -> Replayed {
    let layers = model.num_layers();
    let parent = spans.open("bench.replay", request);

    let (sub, khop_us) = spans.time("graph.khop", request, || {
        khop_subgraph(full, pick.node, layers)
    });
    black_box(sub);
    let graph = pick.graph.clone();
    let (instance, instance_us) = spans.time("gnn.instance", request, || {
        Instance::for_prediction(model, graph, pick.target)
    });
    let (capped, flow_index_us) = spans.time("graph.flow_index", request, || {
        FlowIndex::build_capped(
            &instance.mp,
            layers,
            instance.target,
            flow_cap(Effort::Quick),
        )
    });
    let index = Arc::new(capped.index);

    // Eq. 7: flow masks onto each layer's edges through the incidence.
    let flow_mask = Tensor::full(0.1, index.num_flows(), 1).requires_grad();
    let (masks, eq7_us) = spans.time("tensor.eq7", request, || {
        (0..layers)
            .map(|l| flow_mask.sp_matvec(index.incidence(l)))
            .collect::<Vec<Tensor>>()
    });
    let masks: Vec<Tensor> = masks.iter().map(Tensor::sigmoid).collect();
    let (logits, forward_us) = spans.time("gnn.forward", request, || {
        model.target_logits(&instance.mp, &instance.x, Some(&masks), instance.target)
    });
    let loss = logits
        .log_softmax_rows()
        .slice_cols(instance.class, instance.class + 1)
        .mul_scalar(-1.0);
    let ((), backward_us) = spans.time("gnn.backward", request, || loss.backward());

    let matmul_gflops = matmul_rate(spans, request, model, &instance);

    let ctl = ExplainControl {
        flow_index: Some(Arc::clone(&index)),
        shrink_on_overflow: true,
        warm_start: warm,
        ..Default::default()
    };
    let explainer = Revelio::new(served_config(seed));
    let (out, optimize_us) = spans.time("core.optimize", request, || {
        explainer.try_explain_controlled(model, &instance, &ctl)
    });
    let out = out.expect("capped flow index never overflows");
    spans.close(parent);
    Replayed {
        khop_us,
        instance_us,
        flow_index_us,
        flows: index.num_flows(),
        layer_edges: instance.mp.layer_edge_count(),
        eq7_us,
        forward_us,
        backward_us,
        matmul_gflops,
        optimize_us,
        epochs_run: out.degradation.epochs_run,
        converged: out.converged_mask,
        instance,
        index,
    }
}

/// `kernels::matmul_nn` at the instance's first-layer shape
/// (nodes × in_dim times in_dim × hidden), repeated to at least ~0.2 ms.
fn matmul_rate(spans: &mut Spans, request: u64, model: &Gnn, instance: &Instance) -> f64 {
    let (m, k) = instance.x.shape();
    let n = model.config().hidden_dim;
    let a = instance.x.to_vec();
    let b: Vec<f32> = (0..k * n).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    let flops_per_call = 2.0 * (m * k * n) as f64;
    let reps = ((2e5 / flops_per_call).ceil() as usize).max(1);
    let ((), us) = spans.time("tensor.matmul", request, || {
        for _ in 0..reps {
            black_box(kernels::matmul_nn(black_box(&a), m, k, black_box(&b), n));
        }
    });
    flops_per_call * reps as f64 / (us * 1e3)
}

/// One fused `BatchedOptimizer` pass over replayed instances.
pub fn fused_batch(
    spans: &mut Spans,
    request: u64,
    model: &Gnn,
    replayed: &[Replayed],
    seed: u64,
) -> f64 {
    let items: Vec<BatchItem<'_>> = replayed
        .iter()
        .enumerate()
        .map(|(i, r)| BatchItem {
            instance: &r.instance,
            seed: seed.wrapping_add(i as u64),
            flow_index: Some(Arc::clone(&r.index)),
        })
        .collect();
    let optimizer = BatchedOptimizer::new(served_config(seed));
    let (out, us) = spans.time("core.fused_batch", request, || {
        optimizer.explain_batch(model, &items)
    });
    black_box(out.expect("capped flow indexes never overflow"));
    us
}
