//! Kernel microbench: naive triple-loop matmuls vs the cache-blocked
//! SIMD-friendly kernels that back the autograd engine, across the matrix
//! shapes the GCN/GIN/GAT optimize loops actually hit, printed as a table
//! on stderr.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin kernels [--smoke] [--reps N]
//! ```
//!
//! `--smoke` shrinks repetitions for CI wiring checks. In every mode the
//! process exits non-zero if any blocked kernel (`nn`, `nt` or `tn`) is
//! slower than its naive reference on the GCN hidden-layer shape by more
//! than a noise margin — this is the CI guard against a blocking-scheme
//! regression. A last row, `cora_input`, times the CSR first-layer product
//! (`matmul_csr`) against the dense blocked `matmul_nn` on a Cora-sim
//! request's features (1.3% non-zero), and the process also exits non-zero
//! unless the CSR product wins by at least `CSR_MIN_SPEEDUP`.
//! Timings are best-of-N minimums, so scheduler noise only ever inflates
//! a time, never deflates it, and each compared pair is timed in
//! alternation, so a burst of load lands on both sides.

use std::hint::black_box;
use std::time::Instant;

use revelio_tensor::kernels::{
    matmul_csr, matmul_nn, matmul_nn_naive, matmul_nt, matmul_nt_naive, matmul_tn, matmul_tn_naive,
};
use revelio_tensor::CsrMatrix;

/// Noise margin for the CI check: blocked must not be slower than
/// `naive * MARGIN` on the reference shape.
const MARGIN: f64 = 1.05;

/// The shape the CI check gates all three kernels on: a GCN hidden layer
/// on BA-Shapes (700 nodes, hidden 20), where each blocked kernel beats
/// its naive loop by 1.5x or more. The gate leaves the other shapes
/// alone: on `gcn_input` (`k` = 10) blocked `tn` only ties naive (0.99x
/// on 2 vCPUs), so gating it would fail on noise, not on a regression.
const REFERENCE_SHAPE: &str = "gcn_hidden";

/// The CSR gate: on `cora_input` the sparse product must beat the dense
/// blocked kernel by at least this factor. At 1.3% density it does ~75x
/// less arithmetic, so a CSR path that fell back to dense work trips it.
const CSR_MIN_SPEEDUP: f64 = 5.0;

/// Timed repetitions per kernel: `--reps N`, or 5 under `--smoke`.
fn parse_reps() -> usize {
    let mut reps = 25;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--reps" => {
                reps = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--reps needs a number");
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    if smoke {
        5
    } else {
        reps
    }
}

/// A logical `(m × k) · (k × n)` product; the three kernel variants are
/// derived from it the way autograd does: `nn` is the forward, `nt` the
/// left backward (`grad · Bᵀ`), `tn` the right backward (`Aᵀ · grad`).
struct Shape {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// Shapes from the models the repo trains: BA-Shapes-scale node counts
/// (700), the paper's GCN/GIN/GAT widths, and a batched-optimize stack
/// (mask rows = flows pooled across a fused batch).
const SHAPES: &[Shape] = &[
    // GCN layer 1: features (700x10) x weights (10x20)
    Shape {
        name: "gcn_input",
        m: 700,
        k: 10,
        n: 20,
    },
    // GCN layer 2: hidden (700x20) x weights (20x20)
    Shape {
        name: "gcn_hidden",
        m: 700,
        k: 20,
        n: 20,
    },
    // GIN MLP: hidden (700x64) x weights (64x64)
    Shape {
        name: "gin_mlp",
        m: 700,
        k: 64,
        n: 64,
    },
    // GAT multi-head: hidden (700x8) x concat heads (8x64)
    Shape {
        name: "gat_heads",
        m: 700,
        k: 8,
        n: 64,
    },
    // batched optimize: stacked flow messages (4096x20) x weights (20x20)
    Shape {
        name: "batched_mask",
        m: 4096,
        k: 20,
        n: 20,
    },
];

/// Deterministic fill in (0, 1]: SplitMix64 stream mapped to f32. Strictly
/// positive values keep the naive kernels' zero-skip branch out of the
/// measurement and avoid `-0.0` (excluded by the bit-identity contract).
fn fill(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 40) as f32 + 1.0) / 16_777_216.0
        })
        .collect()
}

/// Wall time of one call of `f`, in seconds.
fn time<F: FnMut() -> Vec<f32>>(f: &mut F) -> f64 {
    let start = Instant::now();
    let out = f();
    let dt = start.elapsed().as_secs_f64();
    black_box(out);
    dt
}

/// Best-of-N minimum wall times of `a` and `b`, in seconds. Minimums
/// because noise is one-sided: nothing makes a run faster than the kernel
/// allows. The two are timed in alternation (`a b`, then `b a`), so a
/// burst of load from another process slows both sides instead of
/// whichever happened to run during it.
fn best_of_pair<A, B>(reps: usize, mut a: A, mut b: B) -> (f64, f64)
where
    A: FnMut() -> Vec<f32>,
    B: FnMut() -> Vec<f32>,
{
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        if rep % 2 == 0 {
            best_a = best_a.min(time(&mut a));
            best_b = best_b.min(time(&mut b));
        } else {
            best_b = best_b.min(time(&mut b));
            best_a = best_a.min(time(&mut a));
        }
    }
    (best_a, best_b)
}

struct Row {
    shape: &'static str,
    m: usize,
    k: usize,
    n: usize,
    kernel: &'static str,
    naive_us: f64,
    blocked_us: f64,
    speedup: f64,
}

fn bench_shape(s: &Shape, reps: usize) -> Vec<Row> {
    let a = fill(s.m * s.k, 1);
    let b = fill(s.k * s.n, 2);
    let grad = fill(s.m * s.n, 3);
    let (m, k, n) = (s.m, s.k, s.n);

    // Correctness gate before timing: the blocked kernels' bit-identity
    // contract, checked on the real benchmark inputs.
    assert_eq!(
        matmul_nn(&a, m, k, &b, n),
        matmul_nn_naive(&a, m, k, &b, n),
        "{}: blocked nn diverged from naive",
        s.name
    );
    assert_eq!(
        matmul_nt(&grad, m, n, &b, k),
        matmul_nt_naive(&grad, m, n, &b, k),
        "{}: blocked nt diverged from naive",
        s.name
    );
    assert_eq!(
        matmul_tn(&a, m, k, &grad, n),
        matmul_tn_naive(&a, m, k, &grad, n),
        "{}: blocked tn diverged from naive",
        s.name
    );

    let pairs: [(&'static str, (f64, f64)); 3] = [
        (
            "nn",
            best_of_pair(
                reps,
                || matmul_nn_naive(&a, m, k, &b, n),
                || matmul_nn(&a, m, k, &b, n),
            ),
        ),
        (
            "nt",
            best_of_pair(
                reps,
                || matmul_nt_naive(&grad, m, n, &b, k),
                || matmul_nt(&grad, m, n, &b, k),
            ),
        ),
        (
            "tn",
            best_of_pair(
                reps,
                || matmul_tn_naive(&a, m, k, &grad, n),
                || matmul_tn(&a, m, k, &grad, n),
            ),
        ),
    ];
    pairs
        .into_iter()
        .map(|(kernel, (naive, blocked))| Row {
            shape: s.name,
            m,
            k,
            n,
            kernel,
            naive_us: naive * 1e6,
            blocked_us: blocked * 1e6,
            speedup: naive / blocked.max(1e-12),
        })
        .collect()
}

/// The first-layer product of a Cora-sim request: 61 nodes × 1433
/// bag-of-words columns (18 words per node, ~1.3% non-zero) times the
/// 1433 × 32 input weight, as CSR × dense against the dense blocked
/// kernel, after asserting the two agree bit for bit.
fn bench_cora_input(reps: usize) -> Row {
    let (m, k, n, words) = (61, 1433, 32, 18);
    let mut a = vec![0.0f32; m * k];
    let picks = fill(m * words, 4);
    for (i, row) in a.chunks_exact_mut(k).enumerate() {
        for w in 0..words {
            row[(picks[i * words + w] * k as f32) as usize % k] = 1.0;
        }
    }
    let b = fill(k * n, 5);
    let csr = CsrMatrix::from_dense(&a, m, k);
    assert_eq!(
        matmul_csr(&csr, &b, n),
        matmul_nn(&a, m, k, &b, n),
        "cora_input: CSR product diverged from the blocked kernel"
    );
    let (dense, sparse) = best_of_pair(
        reps,
        || matmul_nn(&a, m, k, &b, n),
        || matmul_csr(&csr, &b, n),
    );
    Row {
        shape: "cora_input",
        m,
        k,
        n,
        kernel: "csr",
        naive_us: dense * 1e6,
        blocked_us: sparse * 1e6,
        speedup: dense / sparse.max(1e-12),
    }
}

fn main() {
    let reps = parse_reps();

    let mut rows = Vec::new();
    for s in SHAPES {
        for row in bench_shape(s, reps) {
            eprintln!(
                "{:>13} {:>2}  {:4}x{:<2}x{:<2}  naive {:>9.1}us  blocked {:>9.1}us  x{:.2}",
                row.shape,
                row.kernel,
                row.m,
                row.k,
                row.n,
                row.naive_us,
                row.blocked_us,
                row.speedup
            );
            rows.push(row);
        }
    }

    let csr = bench_cora_input(reps);
    eprintln!(
        "{:>13} {:>2}  {:4}x{:<4}x{:<2}  dense {:>9.1}us  csr {:>9.1}us  x{:.2}",
        csr.shape, csr.kernel, csr.m, csr.k, csr.n, csr.naive_us, csr.blocked_us, csr.speedup
    );

    // CI gate: no blocked kernel may lose to its naive one on the
    // reference shape. Best-of-N minimums plus the margin absorb scheduler
    // noise; a real blocking regression still trips it.
    let gated: Vec<&Row> = rows.iter().filter(|r| r.shape == REFERENCE_SHAPE).collect();
    assert_eq!(gated.len(), 3, "reference shape benched for nn, nt and tn");
    let mut failed = false;
    for r in gated {
        if r.blocked_us > r.naive_us * MARGIN {
            eprintln!(
                "FAIL: blocked {} on {REFERENCE_SHAPE} ({:.1}us) slower than naive \
                 ({:.1}us) beyond the x{MARGIN} margin",
                r.kernel, r.blocked_us, r.naive_us
            );
            failed = true;
        } else {
            eprintln!(
                "check ok: blocked {} on {REFERENCE_SHAPE} is x{:.2} vs naive",
                r.kernel, r.speedup
            );
        }
    }
    if csr.speedup < CSR_MIN_SPEEDUP {
        eprintln!(
            "FAIL: CSR product on cora_input is x{:.2} vs dense blocked, below \
             the x{CSR_MIN_SPEEDUP} floor",
            csr.speedup
        );
        failed = true;
    } else {
        eprintln!(
            "check ok: CSR product on cora_input is x{:.2} vs dense blocked",
            csr.speedup
        );
    }
    if failed {
        std::process::exit(1);
    }
}
