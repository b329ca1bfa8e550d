//! `audit` — runs every static analysis over a real REVELIO workload, then
//! over five deliberately seeded defects.
//!
//! ```text
//! cargo run -p revelio-analysis --bin audit
//! ```
//!
//! Part 1 mirrors the quickstart example: train a GCN on Tree-Cycles,
//! extract the 3-hop computation subgraph of a motif node, build the flow
//! index and the target's receptive-field plan, and record one
//! mask-learning loss tape (Eqs. 4/5/7 + factual objective). Every audit
//! must come back clean.
//!
//! Part 2 seeds the five defect classes the analyzer exists to catch — a
//! matmul shape mismatch, a detached mask parameter, an unstabilised
//! hand-rolled softmax, a corrupted flow-incidence matrix, and a plan that
//! drops a flow-carrying layer edge — and checks each is reported as its
//! distinct [`DiagnosticKind`].
//!
//! Part 3 lints the serving stack's concurrency discipline: the sources of
//! the facade crates (`revelio-trace`, `revelio-runtime`) are embedded at
//! compile time and must come back clean (pure-counter `Relaxed` only, no
//! `std::sync`/`std::thread` bypassing `revelio_check::sync`), the
//! `Relaxed`-discipline rule also sweeps the server/bench/core sources,
//! and two seeded source defects — a relaxed publication store and a
//! facade bypass — must each be flagged.
//!
//! Exits non-zero if a healthy audit reports anything or a seeded defect
//! goes undetected, so CI can run it as a gate.

use std::process::ExitCode;
use std::sync::Arc;

use revelio_analysis::{
    audit_flow_index, audit_incidence, audit_mp_graph, audit_plan, audit_tape,
    audit_tape_with_params, lint_concurrency, ConcurrencyCheck, Diagnostic, DiagnosticKind,
    IncidenceCheck, StabilityPattern, WORKSPACE_CONCURRENCY_ALLOWANCES,
};
use revelio_datasets::tree_cycles;
use revelio_gnn::{train_node_classifier, Gnn, GnnConfig, GnnKind, Instance, Task, TrainConfig};
use revelio_graph::{khop_subgraph, FlowIndex, LayerEdges, Target};
use revelio_tensor::{BinCsr, EdgeIndex, Op, Tensor};

fn report(label: &str, ok: bool, diags: &[Diagnostic], failures: &mut u32) {
    if ok {
        println!("  ok   {label}");
    } else {
        *failures += 1;
        println!("  FAIL {label}");
    }
    for d in diags {
        println!("         {d}");
    }
}

/// A healthy run must produce no diagnostics.
fn expect_clean(label: &str, diags: Vec<Diagnostic>, failures: &mut u32) {
    report(label, diags.is_empty(), &diags, failures);
}

/// A seeded defect must be reported with the expected kind.
fn expect_kind(label: &str, diags: Vec<Diagnostic>, kind: DiagnosticKind, failures: &mut u32) {
    let ok = diags.iter().any(|d| d.kind == kind);
    report(label, ok, &diags, failures);
}

fn main() -> ExitCode {
    let mut failures = 0u32;

    // ---- Part 1: audits over the quickstart workload --------------------
    println!("auditing the Tree-Cycles / GCN quickstart workload:");
    let data = tree_cycles(0);
    let model = Gnn::new(GnnConfig::standard(
        GnnKind::Gcn,
        Task::NodeClassification,
        data.graph.feat_dim(),
        data.num_classes,
        0,
    ));
    train_node_classifier(
        &model,
        &data.graph,
        &data.split.train,
        &TrainConfig {
            epochs: 30,
            ..Default::default()
        },
    );

    let target = 511; // first cycle-motif node, as in the quickstart
    let sub = khop_subgraph(&data.graph, target, model.num_layers());
    let instance = Instance::for_prediction(&model, sub.graph.clone(), Target::Node(sub.target));
    expect_clean(
        "message-passing view invariants",
        audit_mp_graph(&instance.mp),
        &mut failures,
    );

    let index = FlowIndex::build(&instance.mp, model.num_layers(), instance.target, 1_000_000)
        .expect("quickstart subgraph fits the flow cap");
    expect_clean(
        "flow-incidence invariants (Eq. 7)",
        audit_flow_index(&instance.mp, &index),
        &mut failures,
    );
    // The plan every epoch of this explanation runs over.
    let plan = instance.mp.plan(&[sub.target], model.num_layers());
    expect_clean(
        "receptive-field plan keeps every flow-carrying edge",
        audit_plan(&instance.mp, &index, &plan),
        &mut failures,
    );

    // One REVELIO mask-learning step, recorded but never executed further:
    // ω[E] = σ(I_l · tanh(M) ⊙ exp(w_l)), factual NLL on the masked logits.
    let nf = index.num_flows();
    let ne = instance.mp.layer_edge_count();
    let mask = Tensor::from_vec(vec![0.1; nf], nf, 1).requires_grad();
    let weights: Vec<Tensor> = (0..model.num_layers())
        .map(|_| Tensor::from_vec(vec![0.0], 1, 1).requires_grad())
        .collect();
    let all_rows = vec![0usize; ne];
    let masks: Vec<Tensor> = (0..model.num_layers())
        .map(|l| {
            mask.tanh_t()
                .sp_matvec(index.incidence(l))
                .mul(&weights[l].exp().gather_rows(&all_rows))
                .sigmoid()
        })
        .collect();
    let loss = model
        .target_logits(&instance.mp, &instance.x, Some(&masks), instance.target)
        .log_softmax_rows()
        .nll_loss(&[instance.class]);
    let mut params = vec![mask.clone()];
    params.extend(weights.iter().cloned());
    expect_clean(
        "mask-learning loss tape (shapes, stability, gradient reach)",
        audit_tape_with_params(&loss, &params),
        &mut failures,
    );

    // ---- Part 2: seeded defects must each be caught ---------------------
    println!("seeding the five defect classes:");

    // 1. Shape mismatch: a recorded matmul whose inner dimensions disagree.
    let bad_matmul = Tensor::from_op_unchecked(
        vec![0.0; 4],
        2,
        2,
        Op::MatMul(Tensor::zeros(2, 3), Tensor::zeros(2, 2)),
    );
    expect_kind(
        "matmul inner-dimension mismatch",
        audit_tape(&bad_matmul.sum_all()),
        DiagnosticKind::ShapeMismatch,
        &mut failures,
    );

    // 2. Detached-gradient mask: history severed by detach(), so the mask
    //    parameter can never train.
    let detached_loss = mask.detach().tanh_t().sum_all();
    expect_kind(
        "detached mask parameter",
        audit_tape_with_params(&detached_loss, std::slice::from_ref(&mask)),
        DiagnosticKind::DetachedGradient,
        &mut failures,
    );

    // 3. Unstable pattern: softmax hand-rolled from an unshifted exp.
    let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0], 3, 1).requires_grad();
    let e = logits.exp();
    let denom = e.scatter_add_rows(&[0, 0, 0], 1).gather_rows(&[0, 0, 0]);
    expect_kind(
        "softmax without max shift",
        audit_tape(&e.div(&denom).sum_all()),
        DiagnosticKind::UnstablePattern(StabilityPattern::SoftmaxWithoutShift),
        &mut failures,
    );

    // 4. Corrupted flow incidence: one flow crosses two layer edges, one
    //    crosses none — both violate Eq. 7's unit column sums.
    let healthy = index.incidence(0);
    let mut rows: Vec<Vec<u32>> = (0..healthy.rows())
        .map(|r| healthy.row(r).to_vec())
        .collect();
    let moved = rows
        .iter()
        .position(|r| !r.is_empty())
        .expect("incidence has at least one entry");
    let f = rows[moved][0];
    rows[moved].retain(|&c| c != f);
    let dup_row = (moved + 1) % rows.len();
    rows[dup_row] = {
        let mut r = rows[dup_row].clone();
        r.push(f);
        r.push(f); // duplicate entry also breaks strict ordering
        r.sort_unstable();
        r
    };
    let corrupted = BinCsr::from_rows(healthy.rows(), healthy.cols(), &rows);
    expect_kind(
        "corrupted incidence column sums",
        audit_incidence(&corrupted),
        DiagnosticKind::IncidenceViolation(IncidenceCheck::ColumnSum),
        &mut failures,
    );

    // 5. A plan that drops one flow-carrying layer edge: that flow's mask
    //    would never see the layer, and the explanation would silently lose
    //    it.
    let last = plan.len() - 1;
    let le = &plan[last];
    let k = le
        .ids()
        .binary_search(&(index.flow(0)[last] as usize))
        .expect("the healthy plan keeps every flow-carrying edge");
    let without_k = |v: &[usize]| -> Vec<usize> {
        v.iter()
            .enumerate()
            .filter(|&(i, _)| i != k)
            .map(|(_, &x)| x)
            .collect()
    };
    let mut cut = plan.clone();
    cut[last] = LayerEdges::new(
        Arc::new(EdgeIndex::new(
            le.edges().n_in(),
            le.edges().n_out(),
            without_k(le.edges().src()),
            without_k(le.edges().dst()),
        )),
        without_k(le.ids()),
        without_k(le.dst_in()),
    );
    expect_kind(
        "plan dropping a flow-carrying layer edge",
        audit_plan(&instance.mp, &index, &cut),
        DiagnosticKind::IncidenceViolation(IncidenceCheck::PlanCoverage),
        &mut failures,
    );

    // ---- Part 3: concurrency-discipline lint over the real sources ------
    println!("linting concurrency discipline (facade crates must be clean):");

    // Facade crates: both rules (counter-only `Relaxed`, no std bypass).
    let facade_sources: [(&str, &str); 9] = [
        (
            "crates/trace/src/lib.rs",
            include_str!("../../../trace/src/lib.rs"),
        ),
        (
            "crates/runtime/src/lib.rs",
            include_str!("../../../runtime/src/lib.rs"),
        ),
        (
            "crates/runtime/src/pool.rs",
            include_str!("../../../runtime/src/pool.rs"),
        ),
        (
            "crates/runtime/src/pool_core.rs",
            include_str!("../../../runtime/src/pool_core.rs"),
        ),
        (
            "crates/runtime/src/cache.rs",
            include_str!("../../../runtime/src/cache.rs"),
        ),
        (
            "crates/runtime/src/metrics.rs",
            include_str!("../../../runtime/src/metrics.rs"),
        ),
        (
            "crates/runtime/src/trace_store.rs",
            include_str!("../../../runtime/src/trace_store.rs"),
        ),
        (
            "crates/runtime/src/job.rs",
            include_str!("../../../runtime/src/job.rs"),
        ),
        (
            "crates/runtime/src/prometheus.rs",
            include_str!("../../../runtime/src/prometheus.rs"),
        ),
    ];
    for (path, source) in facade_sources {
        expect_clean(
            &format!("facade discipline: {path}"),
            lint_concurrency(path, source, true, WORKSPACE_CONCURRENCY_ALLOWANCES),
            &mut failures,
        );
    }

    // Non-facade concurrent crates: only the `Relaxed` discipline applies
    // (their threads and locks legitimately speak `std`).
    let counter_only_sources: [(&str, &str); 4] = [
        (
            "crates/core/src/control.rs",
            include_str!("../../../core/src/control.rs"),
        ),
        (
            "crates/server/src/front.rs",
            include_str!("../../../server/src/front.rs"),
        ),
        (
            "crates/server/src/server.rs",
            include_str!("../../../server/src/server.rs"),
        ),
        (
            "crates/bench/src/bin/loadgen.rs",
            include_str!("../../../bench/src/bin/loadgen.rs"),
        ),
    ];
    for (path, source) in counter_only_sources {
        expect_clean(
            &format!("relaxed discipline: {path}"),
            lint_concurrency(path, source, false, WORKSPACE_CONCURRENCY_ALLOWANCES),
            &mut failures,
        );
    }

    // Seeded source defects: each rule must fire on its textbook instance.
    let seeded_relaxed_store = "
fn publish(&self, bucket: u64) {
    self.bucket.store(bucket, Ordering::Relaxed);
    self.ready.store(1, Ordering::Relaxed);
}
";
    expect_kind(
        "seeded relaxed publication store",
        lint_concurrency("seeded/relaxed.rs", seeded_relaxed_store, false, &[]),
        DiagnosticKind::ConcurrencyLint(ConcurrencyCheck::RelaxedPublication),
        &mut failures,
    );
    let seeded_facade_bypass = "
use std::sync::atomic::AtomicU64;
fn fire_and_forget() {
    std::thread::spawn(|| {});
}
";
    expect_kind(
        "seeded facade bypass",
        lint_concurrency("seeded/bypass.rs", seeded_facade_bypass, true, &[]),
        DiagnosticKind::ConcurrencyLint(ConcurrencyCheck::FacadeBypass),
        &mut failures,
    );

    if failures == 0 {
        println!("audit passed: healthy workload clean, all seeded defects detected");
        ExitCode::SUCCESS
    } else {
        println!("audit FAILED: {failures} check(s) did not behave as expected");
        ExitCode::FAILURE
    }
}
