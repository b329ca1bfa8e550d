//! Microbenchmarks of the tensor kernels underpinning training and mask
//! learning: dense matmul, fused message passing, and the sparse
//! flow-incidence matvec of Eq. 7.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use revelio_tensor::{BinCsr, EdgeIndex, Tensor};

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[32usize, 128] {
        let a = Tensor::full(0.5, n, n);
        let b = Tensor::full(0.25, n, n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_message_pass(c: &mut Criterion) {
    // The masked GCN layer's message step: gather, norm and mask scaling,
    // and sum aggregation in one fused op.
    let mut group = c.benchmark_group("message_pass");
    for &edges in &[1_000usize, 10_000] {
        let nodes = edges / 4;
        let h = Tensor::full(1.0, nodes, 32);
        let src: Vec<usize> = (0..edges).map(|e| e % nodes).collect();
        let dst: Vec<usize> = (0..edges).map(|e| (e * 7) % nodes).collect();
        let index = Arc::new(EdgeIndex::new(nodes, nodes, src, dst));
        let norm = Tensor::full(0.25, edges, 1);
        let mask = Tensor::full(0.5, edges, 1);
        group.bench_with_input(BenchmarkId::from_parameter(edges), &edges, |bench, _| {
            bench.iter(|| black_box(h.message_pass(&index, Some(&norm), Some(&mask))));
        });
    }
    group.finish();
}

fn bench_sp_matvec(c: &mut Criterion) {
    let mut group = c.benchmark_group("sp_matvec_eq7");
    for &flows in &[10_000usize, 100_000] {
        let edges = 200;
        // Each flow hits one random-ish edge, like one layer of an
        // incidence matrix.
        let pairs: Vec<(u32, u32)> = (0..flows).map(|f| ((f % edges) as u32, f as u32)).collect();
        let mat = Arc::new(BinCsr::from_pairs(edges, flows, &pairs));
        let x = Tensor::full(0.1, flows, 1);
        group.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |bench, _| {
            bench.iter(|| black_box(x.sp_matvec(&mat)));
        });
    }
    group.finish();
}

fn bench_backward(c: &mut Criterion) {
    c.bench_function("backward_through_mlp", |bench| {
        let w1 = Tensor::full(0.1, 64, 64).requires_grad();
        let w2 = Tensor::full(0.1, 64, 8).requires_grad();
        let x = Tensor::full(1.0, 32, 64);
        bench.iter(|| {
            w1.zero_grad();
            w2.zero_grad();
            let loss = x
                .matmul(&w1)
                .relu()
                .matmul(&w2)
                .log_softmax_rows()
                .nll_loss(&vec![0usize; 32]);
            loss.backward();
            black_box(loss.item())
        });
    });
}

criterion_group!(
    benches,
    bench_matmul,
    bench_message_pass,
    bench_sp_matvec,
    bench_backward
);
criterion_main!(benches);
