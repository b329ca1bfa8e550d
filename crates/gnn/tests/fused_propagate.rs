//! `Layer::propagate` runs each layer's message step as one fused
//! `message_pass`. These tests rebuild every layer kind by hand from the
//! same parameters with the unfused `gather_rows → mul_col_broadcast →
//! scatter_add_rows` chain and require the same bits: the output, and the
//! gradients of the mask, the transformed input and every parameter.

use revelio_gnn::Layer;
use revelio_graph::{Graph, MpGraph};
use revelio_tensor::Tensor;

/// Six nodes, a cycle plus a chord, so in-degrees differ.
fn graph() -> MpGraph {
    let mut b = Graph::builder(6, 1);
    b.edge(0, 1)
        .edge(1, 2)
        .edge(2, 3)
        .edge(3, 4)
        .edge(4, 5)
        .edge(5, 0)
        .edge(1, 4)
        .edge(4, 1);
    MpGraph::new(&b.build())
}

fn leaf(rows: usize, cols: usize, phase: f32) -> Tensor {
    let vals = (0..rows * cols)
        .map(|i| 0.6 * (i as f32 * 0.73 + phase).sin())
        .collect();
    Tensor::from_vec(vals, rows, cols).requires_grad()
}

/// The pre-fusion `propagate`, op for op.
fn unfused(
    layer: &Layer,
    mp: &MpGraph,
    hw: &Tensor,
    mask: Option<&Tensor>,
    norm: &Tensor,
    slope: Option<f32>,
) -> Tensor {
    let n = mp.num_nodes();
    let aggregate = |msgs: Tensor| {
        let msgs = match mask {
            Some(m) => msgs.mul_col_broadcast(m),
            None => msgs,
        };
        msgs.scatter_add_rows(mp.dst(), n)
    };
    let finish = |t: Tensor, bias: &Tensor| match slope {
        Some(s) => t.bias_leaky_relu(bias, s),
        None => t.add_row_broadcast(bias),
    };
    match layer {
        Layer::Gcn { bias, .. } => finish(
            aggregate(hw.gather_rows(mp.src()).mul_col_broadcast(norm)),
            bias,
        ),
        Layer::Gin { b1, w2, b2, .. } => {
            let agg = aggregate(hw.gather_rows(mp.src()));
            finish(agg.bias_leaky_relu(b1, 0.01).matmul(w2), b2)
        }
        Layer::Gat {
            bias,
            att_src,
            att_dst,
            heads,
            average_heads,
            ..
        } => {
            let head_dim = hw.cols() / heads;
            let mut out: Option<Tensor> = None;
            for k in 0..*heads {
                let hw_k = hw.slice_cols(k * head_dim, (k + 1) * head_dim);
                let a_src = hw_k.matmul(&att_src[k]);
                let a_dst = hw_k.matmul(&att_dst[k]);
                let att = a_src
                    .gather_rows(mp.src())
                    .add(&a_dst.gather_rows(mp.dst()))
                    .leaky_relu(0.2)
                    .segment_softmax(mp.dst());
                let agg = aggregate(hw_k.gather_rows(mp.src()).mul_col_broadcast(&att));
                out = Some(match out {
                    None => agg,
                    Some(prev) if *average_heads => prev.add(&agg),
                    Some(prev) => prev.concat_cols(&agg),
                });
            }
            let out = out.expect("at least one head");
            let out = if *average_heads {
                out.mul_scalar(1.0 / *heads as f32)
            } else {
                out
            };
            finish(out, bias)
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Output bits, then the gradient bits of every tensor in `watched`,
/// after a weighted-sum backward; gradients are cleared afterwards.
fn run(out: &Tensor, watched: &[Tensor]) -> Vec<Vec<u32>> {
    let (m, n) = out.shape();
    let w = Tensor::from_vec((0..m * n).map(|i| 0.3 + 0.11 * i as f32).collect(), m, n);
    out.mul(&w).sum_all().backward();
    let mut seen = vec![bits(&out.to_vec())];
    for t in watched {
        seen.push(bits(&t.grad_vec()));
        t.zero_grad();
    }
    seen
}

fn check(layer: &Layer, label: &str) {
    let mp = graph();
    let ne = mp.layer_edge_count();
    let norm = Tensor::from_vec(mp.gcn_norm(), ne, 1);
    let hw_cols = match layer {
        Layer::Gcn { weight, .. } | Layer::Gat { weight, .. } => weight.cols(),
        Layer::Gin { w1, .. } => w1.cols(),
    };
    let hw = leaf(mp.num_nodes(), hw_cols, 0.2);
    let mask = Tensor::from_vec(
        (0..ne)
            .map(|e| 0.5 + 0.4 * (e as f32 * 1.3).cos())
            .collect(),
        ne,
        1,
    )
    .requires_grad();
    let mut watched = vec![hw.clone(), mask.clone()];
    watched.extend(layer.params());
    for masked in [false, true] {
        for slope in [None, Some(0.01)] {
            let m = masked.then_some(&mask);
            let fused = run(
                &layer.propagate(mp.layer_edges(), &hw, m, &norm, slope),
                &watched,
            );
            let reference = run(&unfused(layer, &mp, &hw, m, &norm, slope), &watched);
            assert_eq!(
                fused, reference,
                "{label}: masked={masked} slope={slope:?} differs from the unfused chain"
            );
        }
    }
}

#[test]
fn gcn_propagate_matches_the_unfused_chain() {
    check(&Layer::gcn(4, 5, 11), "gcn");
}

#[test]
fn gin_propagate_matches_the_unfused_chain() {
    check(&Layer::gin(4, 5, 12), "gin");
}

#[test]
fn gat_propagate_matches_the_unfused_chain() {
    check(&Layer::gat(4, 6, 3, false, 13), "gat concat");
    check(&Layer::gat(4, 5, 2, true, 14), "gat average");
}
