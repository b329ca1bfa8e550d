//! Static analysis over the autodiff tape and the graph containers.
//!
//! The autodiff engine in `revelio-tensor` records an [`Op`] graph while the
//! forward pass runs. This crate walks that recorded tape **without executing
//! anything** and reports typed [`Diagnostic`]s:
//!
//! * **Shape audit** ([`audit_tape`]) — runs every recorded op's own shape
//!   rule ([`Op::output_shape`], the same rule its constructor enforces)
//!   and reports broadcast/matmul mismatches, bad gather/scatter/
//!   message-passing indices, malformed reductions, and recorded shapes
//!   other than the ones the operands imply.
//! * **Dead-gradient detection** ([`audit_tape_with_params`]) — finds
//!   `requires_grad` leaves that are unreachable from the loss, i.e.
//!   parameters that will silently never train (a detached mask is the
//!   classic REVELIO failure mode).
//! * **Numeric-stability lints** — structural pattern matches over the tape:
//!   `ln(sigmoid(x))` instead of `softplus`, unstabilised `exp` chains
//!   (`exp ∘ exp`), and hand-rolled softmax built from an unshifted `exp`.
//! * **Flow-incidence / CSR invariant audits** ([`audit_flow_index`],
//!   [`audit_incidence`], [`audit_mp_graph`], [`audit_plan`]) — Eq. 7
//!   requires every column of each per-layer incidence matrix
//!   `I_l ∈ {0,1}^{|E|×|F|}` to sum to exactly 1 (each flow crosses one
//!   layer edge per layer); the message-passing view requires sorted
//!   in-edge lists and exactly one self-loop per node; a receptive-field
//!   plan must keep every layer edge a flow crosses at that layer.
//! * **Concurrency-discipline lint** ([`lint_concurrency`]) — line-level
//!   source checks backing the `revelio-check` model checker: flags
//!   `Ordering::Relaxed` outside the pure-counter idiom (a relaxed store
//!   is the classic missing-`Release` publication bug) and direct
//!   `std::sync`/`std::thread` primitives in crates that must speak the
//!   `revelio_check::sync` facade to stay checkable.
//!
//! `revelio-core` calls [`audit_tape_with_params`] on the first mask-learning
//! epoch in debug builds; the `audit` binary runs every audit over an example
//! workload and a suite of deliberately seeded defects.

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod concurrency;

pub use concurrency::{lint_concurrency, ConcurrencyAllowance, WORKSPACE_CONCURRENCY_ALLOWANCES};

use std::collections::HashSet;
use std::fmt;

use revelio_graph::{FlowIndex, LayerEdges, MpGraph};
use revelio_tensor::{BinCsr, Op, Tensor};

/// What a diagnostic is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    /// A tape node whose shape is inconsistent with its operands.
    ShapeMismatch,
    /// A `requires_grad` leaf unreachable from the audited root: its
    /// gradient will always be zero.
    DetachedGradient,
    /// A numerically fragile op pattern matched structurally on the tape.
    UnstablePattern(StabilityPattern),
    /// A violated invariant of a flow-incidence matrix or graph container.
    IncidenceViolation(IncidenceCheck),
    /// A source-level concurrency-discipline violation (see
    /// [`lint_concurrency`]).
    ConcurrencyLint(ConcurrencyCheck),
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosticKind::ShapeMismatch => write!(f, "shape-mismatch"),
            DiagnosticKind::DetachedGradient => write!(f, "detached-gradient"),
            DiagnosticKind::UnstablePattern(p) => write!(f, "unstable-pattern/{p}"),
            DiagnosticKind::IncidenceViolation(c) => write!(f, "incidence-violation/{c}"),
            DiagnosticKind::ConcurrencyLint(c) => write!(f, "concurrency-lint/{c}"),
        }
    }
}

/// Concurrency-discipline rules checked at the source level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConcurrencyCheck {
    /// `Ordering::Relaxed` on an operation outside the pure-counter idiom
    /// (relaxed RMW accumulators and relaxed loads): a relaxed store,
    /// swap, or CAS is how a missing `Release`/`Acquire` publication
    /// fence is usually written.
    RelaxedPublication,
    /// A direct `std::sync` / `std::thread` primitive in a crate ported
    /// onto the `revelio_check::sync` facade — invisible to the model
    /// checker, so it needs a reviewed [`ConcurrencyAllowance`] or a port.
    FacadeBypass,
}

impl fmt::Display for ConcurrencyCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcurrencyCheck::RelaxedPublication => write!(f, "relaxed-publication"),
            ConcurrencyCheck::FacadeBypass => write!(f, "facade-bypass"),
        }
    }
}

/// Numerically fragile patterns matched on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StabilityPattern {
    /// `ln(sigmoid(x))`: overflows to `-inf` for moderately negative `x`;
    /// `-softplus(-x)` is the stable identity.
    LnOfSigmoid,
    /// `exp` applied (possibly through scalar-affine ops) to the output of
    /// another `exp`: doubly exponential growth overflows `f32` almost
    /// immediately.
    ExpOfExp,
    /// A softmax hand-rolled as `exp(x) / Σ exp(x)` without subtracting the
    /// row maximum first (`segment_softmax` / `log_softmax_rows` shift
    /// internally).
    SoftmaxWithoutShift,
}

impl fmt::Display for StabilityPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabilityPattern::LnOfSigmoid => write!(f, "ln-of-sigmoid"),
            StabilityPattern::ExpOfExp => write!(f, "exp-of-exp"),
            StabilityPattern::SoftmaxWithoutShift => write!(f, "softmax-without-shift"),
        }
    }
}

/// Invariants checked on incidence matrices and the message-passing view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IncidenceCheck {
    /// Eq. 7: every column of `I_l` must sum to exactly 1.
    ColumnSum,
    /// CSR rows must hold strictly ascending column indices.
    UnsortedRow,
    /// A stored column index is outside the matrix bounds.
    ColumnBounds,
    /// Incidence dimensions disagree with the layer-edge/flow counts, or an
    /// incidence entry contradicts the flow's recorded path.
    FlowConsistency,
    /// A node does not have exactly one self-loop layer edge.
    SelfLoopUniqueness,
    /// A per-node in/out-edge list is unsorted or inconsistent with the
    /// edge endpoint arrays.
    AdjacencyConsistency,
    /// A per-layer edge plan drops a layer edge some flow crosses at that
    /// layer, keeps an id outside the layer-edge range, or has a layer
    /// count other than the flow index's.
    PlanCoverage,
}

impl fmt::Display for IncidenceCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IncidenceCheck::ColumnSum => write!(f, "column-sum"),
            IncidenceCheck::UnsortedRow => write!(f, "unsorted-row"),
            IncidenceCheck::ColumnBounds => write!(f, "column-bounds"),
            IncidenceCheck::FlowConsistency => write!(f, "flow-consistency"),
            IncidenceCheck::SelfLoopUniqueness => write!(f, "self-loop-uniqueness"),
            IncidenceCheck::AdjacencyConsistency => write!(f, "adjacency-consistency"),
            IncidenceCheck::PlanCoverage => write!(f, "plan-coverage"),
        }
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// What was found.
    pub kind: DiagnosticKind,
    /// The tensor id of the tape node the finding anchors to, when the
    /// finding is about a tape node.
    pub tensor: Option<u64>,
    /// The op name at that node, when applicable.
    pub op: Option<&'static str>,
    /// Human-readable description with the concrete values involved.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.kind)?;
        if let Some(op) = self.op {
            write!(f, " {op}")?;
        }
        if let Some(id) = self.tensor {
            write!(f, " (tensor #{id})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl Diagnostic {
    fn tape(kind: DiagnosticKind, node: &Tensor, message: String) -> Diagnostic {
        Diagnostic {
            kind,
            tensor: Some(node.id()),
            op: node.op().map(Op::name),
            message,
        }
    }

    fn container(kind: DiagnosticKind, message: String) -> Diagnostic {
        Diagnostic {
            kind,
            tensor: None,
            op: None,
            message,
        }
    }
}

// ---------------------------------------------------------------------------
// Tape walking
// ---------------------------------------------------------------------------

/// Every distinct tensor reachable from `root` through recorded ops
/// (iterative DFS; the audits below are per-node, so order is irrelevant).
fn tape_nodes(root: &Tensor) -> Vec<Tensor> {
    let mut nodes = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack = vec![root.clone()];
    while let Some(t) = stack.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        if let Some(op) = t.op() {
            stack.extend(op.operands().cloned());
        }
        nodes.push(t);
    }
    nodes
}

/// Statically audits the tape below `root`: every op's own shape rule
/// ([`Op::output_shape`], the one its constructor enforces) plus the
/// numeric-stability lints. A rule's error is reported verbatim; a node
/// whose recorded shape differs from the one its operands imply is flagged
/// too. Nothing is executed; only recorded metadata (shapes, op kinds,
/// saved indices) is inspected.
pub fn audit_tape(root: &Tensor) -> Vec<Diagnostic> {
    let nodes = tape_nodes(root);
    let mut diags = Vec::new();
    for node in &nodes {
        if let Some(op) = node.op() {
            match op.output_shape() {
                Ok(expected) if expected != node.shape() => {
                    diags.push(Diagnostic::tape(
                        DiagnosticKind::ShapeMismatch,
                        node,
                        format!(
                            "recorded output shape {:?} but operands imply {:?}",
                            node.shape(),
                            expected
                        ),
                    ));
                }
                Ok(_) => {}
                Err(msg) => {
                    diags.push(Diagnostic::tape(DiagnosticKind::ShapeMismatch, node, msg));
                }
            }
            diags.extend(stability_lints(node, op));
        }
    }
    diags
}

/// [`audit_tape`] plus dead-gradient detection: every tensor in `params`
/// that is flagged `requires_grad` must be reachable from `root`, otherwise
/// its gradient is identically zero and it will never train.
pub fn audit_tape_with_params(root: &Tensor, params: &[Tensor]) -> Vec<Diagnostic> {
    let mut diags = audit_tape(root);
    let reachable: HashSet<u64> = tape_nodes(root).iter().map(Tensor::id).collect();
    for (i, p) in params.iter().enumerate() {
        if p.requires_grad_flag() && !reachable.contains(&p.id()) {
            diags.push(Diagnostic {
                kind: DiagnosticKind::DetachedGradient,
                tensor: Some(p.id()),
                op: None,
                message: format!(
                    "parameter {i} (shape {:?}) requires a gradient but is unreachable \
                     from the loss; it will never receive updates",
                    p.shape()
                ),
            });
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Numeric-stability lints
// ---------------------------------------------------------------------------

/// Follows a chain of scalar-affine ops (`neg`, `add_scalar`, `mul_scalar`)
/// upward to the first structurally interesting producer.
fn through_affine(t: &Tensor) -> Tensor {
    let mut cur = t.clone();
    loop {
        let next = match cur.op() {
            Some(Op::Neg(a) | Op::AddScalar(a, _) | Op::MulScalar(a, _)) => a.clone(),
            _ => return cur,
        };
        cur = next;
    }
}

fn stability_lints(node: &Tensor, op: &Op) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    match op {
        // ln(sigmoid(x)) → use -softplus(-x).
        Op::Ln(a) => {
            if matches!(through_affine(a).op(), Some(Op::Sigmoid(_))) {
                diags.push(Diagnostic::tape(
                    DiagnosticKind::UnstablePattern(StabilityPattern::LnOfSigmoid),
                    node,
                    "ln(sigmoid(x)) underflows to -inf for moderately negative x; \
                     rewrite as -softplus(-x)"
                        .to_string(),
                ));
            }
        }
        // exp(exp(x)) — possibly through scalar-affine ops.
        Op::Exp(a) => {
            if matches!(through_affine(a).op(), Some(Op::Exp(_))) {
                diags.push(Diagnostic::tape(
                    DiagnosticKind::UnstablePattern(StabilityPattern::ExpOfExp),
                    node,
                    "exp applied to the output of another exp overflows f32 for inputs \
                     above ~4.6; restructure the chain or work in log space"
                        .to_string(),
                ));
            }
        }
        // exp(x) / (something aggregating that same exp(x)) — a softmax
        // hand-rolled without the max shift. The tell-tale is the numerator
        // tensor itself appearing in the denominator's ancestry.
        Op::Div(a, b) => {
            let numerator = through_affine(a);
            if matches!(numerator.op(), Some(Op::Exp(_)))
                && tape_nodes(b).iter().any(|t| t.id() == numerator.id())
            {
                diags.push(Diagnostic::tape(
                    DiagnosticKind::UnstablePattern(StabilityPattern::SoftmaxWithoutShift),
                    node,
                    "softmax built from an unshifted exp: subtract the per-group maximum \
                     before exponentiating, or use segment_softmax / log_softmax_rows"
                        .to_string(),
                ));
            }
        }
        _ => {}
    }
    diags
}

// ---------------------------------------------------------------------------
// Incidence / graph-container audits
// ---------------------------------------------------------------------------

/// Structural CSR checks shared by every [`BinCsr`] audit: column indices in
/// bounds and strictly ascending within each row (the builders emit sorted
/// rows; downstream code relies on that for deterministic iteration).
pub fn audit_bin_csr(mat: &BinCsr) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for r in 0..mat.rows() {
        let row = mat.row(r);
        if let Some(&c) = row.iter().find(|&&c| (c as usize) >= mat.cols()) {
            diags.push(Diagnostic::container(
                DiagnosticKind::IncidenceViolation(IncidenceCheck::ColumnBounds),
                format!(
                    "row {r} stores column {c}, out of bounds for {} columns",
                    mat.cols()
                ),
            ));
        }
        if row.windows(2).any(|w| w[0] >= w[1]) {
            diags.push(Diagnostic::container(
                DiagnosticKind::IncidenceViolation(IncidenceCheck::UnsortedRow),
                format!("row {r} is not strictly ascending: {row:?}"),
            ));
        }
    }
    diags
}

/// Audits one per-layer flow-incidence matrix `I_l` against Eq. 7: on top of
/// the CSR checks, every column (flow) must appear in exactly one row (layer
/// edge) — each flow crosses exactly one edge per layer.
pub fn audit_incidence(mat: &BinCsr) -> Vec<Diagnostic> {
    let mut diags = audit_bin_csr(mat);
    let mut col_counts = vec![0usize; mat.cols()];
    for (_, c) in mat.iter() {
        if let Some(slot) = col_counts.get_mut(c as usize) {
            *slot += 1;
        }
    }
    for (f, &count) in col_counts.iter().enumerate() {
        if count != 1 {
            diags.push(Diagnostic::container(
                DiagnosticKind::IncidenceViolation(IncidenceCheck::ColumnSum),
                format!("flow {f} has column sum {count}, Eq. 7 requires exactly 1"),
            ));
        }
    }
    diags
}

/// Audits a complete [`FlowIndex`] against its graph: per-layer incidence
/// dimensions, Eq. 7 column sums, and agreement between each incidence entry
/// and the flow's recorded layer-edge path.
pub fn audit_flow_index(mp: &MpGraph, index: &FlowIndex) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for l in 0..index.num_layers() {
        let inc = index.incidence(l);
        if inc.rows() != mp.layer_edge_count() || inc.cols() != index.num_flows() {
            diags.push(Diagnostic::container(
                DiagnosticKind::IncidenceViolation(IncidenceCheck::FlowConsistency),
                format!(
                    "layer {l} incidence is {}×{}, expected {}×{}",
                    inc.rows(),
                    inc.cols(),
                    mp.layer_edge_count(),
                    index.num_flows()
                ),
            ));
            continue;
        }
        diags.extend(audit_incidence(inc));
        for e in 0..inc.rows() {
            for &f in inc.row(e) {
                let path = index.flow(f as usize);
                if path.get(l) != Some(&(e as u32)) {
                    diags.push(Diagnostic::container(
                        DiagnosticKind::IncidenceViolation(IncidenceCheck::FlowConsistency),
                        format!(
                            "layer {l} incidence places flow {f} on edge {e}, but the flow's \
                             recorded path uses edge {:?} there",
                            path.get(l)
                        ),
                    ));
                }
            }
        }
    }
    diags
}

/// Audits the message-passing view: edge endpoints in range, exactly one
/// self-loop per node (at the id [`MpGraph::self_loop_edge`] reports), and
/// per-node in/out-edge lists sorted and consistent with the endpoint
/// arrays.
pub fn audit_mp_graph(mp: &MpGraph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let n = mp.num_nodes();

    for (e, (&s, &d)) in mp.src().iter().zip(mp.dst()).enumerate() {
        if s >= n || d >= n {
            diags.push(Diagnostic::container(
                DiagnosticKind::IncidenceViolation(IncidenceCheck::AdjacencyConsistency),
                format!("layer edge {e} has endpoints ({s}, {d}) outside {n} nodes"),
            ));
        }
    }

    for v in 0..n {
        let loops: Vec<usize> = (0..mp.layer_edge_count())
            .filter(|&e| mp.src()[e] == v && mp.dst()[e] == v)
            .collect();
        if loops != [mp.self_loop_edge(v)] {
            diags.push(Diagnostic::container(
                DiagnosticKind::IncidenceViolation(IncidenceCheck::SelfLoopUniqueness),
                format!(
                    "node {v} has self-loop edges {loops:?}, expected exactly [{}]",
                    mp.self_loop_edge(v)
                ),
            ));
        }

        for (label, edges, key) in [
            ("in", mp.in_edges(v), mp.dst()),
            ("out", mp.out_edges(v), mp.src()),
        ] {
            if edges.windows(2).any(|w| w[0] >= w[1]) {
                diags.push(Diagnostic::container(
                    DiagnosticKind::IncidenceViolation(IncidenceCheck::AdjacencyConsistency),
                    format!("node {v} {label}-edge list is not strictly ascending: {edges:?}"),
                ));
            }
            let expected = key.iter().filter(|&&k| k == v).count();
            let endpoint_ok = edges.iter().all(|&e| key.get(e as usize) == Some(&v));
            if edges.len() != expected || !endpoint_ok {
                diags.push(Diagnostic::container(
                    DiagnosticKind::IncidenceViolation(IncidenceCheck::AdjacencyConsistency),
                    format!(
                        "node {v} {label}-edge list {edges:?} disagrees with the endpoint \
                         arrays ({expected} edges expected)"
                    ),
                ));
            }
        }
    }
    diags
}

/// Audits a per-layer edge plan (see [`MpGraph::plan`]) against the flows
/// it must carry: one plan per layer, each layer's kept ids layer edges of
/// `mp`, and every layer edge a flow of `index` crosses at layer `l` kept
/// by layer `l`'s plan — a dropped one would cut that flow out of the
/// explanation. ([`LayerEdges::new`] already holds each layer to
/// ascending ids and consistent lengths.)
pub fn audit_plan(mp: &MpGraph, index: &FlowIndex, plan: &[LayerEdges]) -> Vec<Diagnostic> {
    let diag = |message| {
        Diagnostic::container(
            DiagnosticKind::IncidenceViolation(IncidenceCheck::PlanCoverage),
            message,
        )
    };
    if plan.len() != index.num_layers() {
        return vec![diag(format!(
            "plan has {} layers for a {}-layer flow index",
            plan.len(),
            index.num_layers()
        ))];
    }
    let ne = mp.layer_edge_count();
    let mut diags = Vec::new();
    for (l, le) in plan.iter().enumerate() {
        if let Some(&e) = le.ids().last().filter(|&&e| e >= ne) {
            diags.push(diag(format!(
                "layer {l} keeps layer edge {e}, out of range for {ne} layer edges"
            )));
        }
        let mut dropped: Vec<usize> = (0..index.num_flows())
            .map(|f| index.flow(f)[l] as usize)
            .filter(|e| le.ids().binary_search(e).is_err())
            .collect();
        dropped.sort_unstable();
        dropped.dedup();
        if !dropped.is_empty() {
            diags.push(diag(format!(
                "layer {l} plan drops flow-carrying layer edges {dropped:?}"
            )));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_graph::{Graph, Target};
    use revelio_tensor::EdgeIndex;

    fn kinds(diags: &[Diagnostic]) -> Vec<DiagnosticKind> {
        diags.iter().map(|d| d.kind).collect()
    }

    // ---------------- tape: clean ----------------

    #[test]
    fn healthy_tape_is_clean() {
        let w = Tensor::from_vec(vec![0.2, -0.4, 0.6, 0.1, 0.5, -0.2], 2, 3).requires_grad();
        let x = Tensor::from_vec(vec![1.0, 2.0, 0.5, -1.0, 0.0, 1.5], 3, 2);
        let b = Tensor::from_vec(vec![0.1, -0.1], 1, 2).requires_grad();
        let loss = w
            .matmul(&x)
            .add_row_broadcast(&b)
            .tanh_t()
            .log_softmax_rows()
            .nll_loss(&[0, 1]);
        assert!(audit_tape(&loss).is_empty());
        assert!(audit_tape_with_params(&loss, &[w, b]).is_empty());
    }

    // ---------------- tape: shape mismatch ----------------

    #[test]
    fn detects_matmul_shape_mismatch() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 2); // inner dims 3 vs 2 disagree
        let bad = Tensor::from_op_unchecked(vec![0.0; 4], 2, 2, Op::MatMul(a, b));
        let diags = audit_tape(&bad.sum_all());
        assert_eq!(kinds(&diags), vec![DiagnosticKind::ShapeMismatch]);
        assert!(diags[0]
            .message
            .contains("matmul: incompatible shapes [2,3] and [2,2]"));
    }

    #[test]
    fn detects_wrong_recorded_output_shape() {
        let a = Tensor::zeros(2, 2);
        let b = Tensor::zeros(2, 2);
        // Valid matmul but the recorded output claims the wrong shape.
        let bad = Tensor::from_op_unchecked(vec![0.0; 4], 1, 4, Op::MatMul(a, b));
        let diags = audit_tape(&bad);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::ShapeMismatch]);
        assert!(diags[0].message.contains("operands imply"));
    }

    #[test]
    fn detects_broadcast_and_index_defects() {
        let a = Tensor::zeros(3, 2);
        let bias = Tensor::zeros(1, 3); // should be [1,2]
        let bad = Tensor::from_op_unchecked(vec![0.0; 6], 3, 2, Op::AddRowBroadcast(a, bias));
        assert_eq!(
            kinds(&audit_tape(&bad)),
            vec![DiagnosticKind::ShapeMismatch]
        );

        let src = Tensor::zeros(2, 1);
        let bad_gather = Tensor::from_op_unchecked(
            vec![0.0; 2],
            2,
            1,
            Op::GatherRows(src, std::rc::Rc::new(vec![0, 5])),
        );
        let diags = audit_tape(&bad_gather);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::ShapeMismatch]);
        assert!(diags[0]
            .message
            .contains("gather_rows: index 5 out of bounds for 2 rows"));
    }

    #[test]
    fn detects_message_pass_defects() {
        use std::sync::Arc;
        // Two input rows feed four output rows over two edges.
        let edges = Arc::new(EdgeIndex::new(2, 4, vec![0, 1], vec![3, 0]));
        let pass = |x: Tensor, coef: Option<Tensor>, out_rows: usize| {
            let op = Op::MessagePass {
                x,
                coef,
                scale: Some(Tensor::zeros(2, 1)),
                edges: Arc::clone(&edges),
            };
            audit_tape(&Tensor::from_op_unchecked(
                vec![0.0; out_rows * 3],
                out_rows,
                3,
                op,
            ))
        };
        assert!(pass(Tensor::zeros(2, 3), None, 4).is_empty());
        for (diags, needle) in [
            (
                pass(Tensor::zeros(3, 3), None, 4),
                "message_pass: 3 rows but the edge index reads 2 input rows",
            ),
            (
                pass(Tensor::zeros(2, 3), Some(Tensor::zeros(1, 2)), 4),
                "coef must be [2,1]",
            ),
            (pass(Tensor::zeros(2, 3), None, 2), "operands imply (4, 3)"),
        ] {
            assert_eq!(kinds(&diags), vec![DiagnosticKind::ShapeMismatch]);
            assert!(diags[0].message.contains(needle), "{}", diags[0].message);
        }
    }

    #[test]
    fn detects_flow_loss_defects() {
        use revelio_tensor::{FlowLossSpec, Objective};
        use std::rc::Rc;
        // Two items over two layers; item 1 uses row 2 of layer 1's mask.
        let spec = Rc::new(FlowLossSpec::new(
            Objective::Factual,
            0.1,
            vec![0, 1],
            vec![(vec![0, 1, 1], vec![0]), (vec![0, 1, 2], vec![1, 2])],
        ));
        let loss = |rows: usize, mask_rows: usize| {
            let op = Op::FlowLoss {
                logp: Tensor::zeros(rows, 2),
                masks: vec![Tensor::zeros(2, 1), Tensor::zeros(mask_rows, 1)],
                spec: Rc::clone(&spec),
            };
            audit_tape(&Tensor::from_op_unchecked(vec![0.0], 1, 1, op))
        };
        assert!(loss(2, 3).is_empty());
        for (diags, needle) in [
            (loss(2, 2), "used row 2 beyond layer 1's 2 mask rows"),
            (loss(3, 3), "3 log-prob rows for 2 items"),
        ] {
            assert_eq!(kinds(&diags), vec![DiagnosticKind::ShapeMismatch]);
            assert!(diags[0].message.contains(needle), "{}", diags[0].message);
        }
    }

    #[test]
    fn detects_an_empty_readout_segment() {
        let bad = Tensor::from_op_unchecked(
            vec![0.0; 4],
            2,
            2,
            Op::MeanRows(Tensor::zeros(3, 2), std::rc::Rc::new(vec![0, 3, 3])),
        );
        let diags = audit_tape(&bad);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::ShapeMismatch]);
        assert!(diags[0]
            .message
            .contains("mean_rows: offsets [0, 3, 3] do not split 3 rows into non-empty segments"));
    }

    // ---------------- tape: dead gradients ----------------

    #[test]
    fn a_mask_reached_through_the_third_operand_is_live() {
        // Message passing's mask is its third operand, after `x` and `coef`.
        let mask = Tensor::from_vec(vec![0.5, 0.5, 0.5], 3, 1).requires_grad();
        let x = Tensor::from_vec(vec![1.0, 2.0], 2, 1);
        let coef = Tensor::from_vec(vec![0.1, 0.2, 0.3], 3, 1);
        let edges = std::sync::Arc::new(EdgeIndex::new(2, 2, vec![0, 1, 1], vec![1, 0, 1]));
        let loss = x.message_pass(&edges, Some(&coef), Some(&mask)).sum_all();
        assert!(audit_tape_with_params(&loss, std::slice::from_ref(&mask)).is_empty());
        let detached = x
            .message_pass(&edges, Some(&coef), Some(&mask.detach()))
            .sum_all();
        assert_eq!(
            kinds(&audit_tape_with_params(&detached, &[mask])),
            vec![DiagnosticKind::DetachedGradient]
        );
    }

    #[test]
    fn detects_detached_parameter() {
        let used = Tensor::scalar(1.0).requires_grad();
        let detached = Tensor::scalar(2.0).requires_grad();
        let loss = used.mul_scalar(3.0).sum_all();
        let diags = audit_tape_with_params(&loss, &[used, detached.clone()]);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::DetachedGradient]);
        assert_eq!(diags[0].tensor, Some(detached.id()));
    }

    #[test]
    fn detach_call_is_flagged() {
        // The realistic bug: a mask whose history was severed by detach().
        let mask = Tensor::from_vec(vec![0.5, 0.5], 2, 1).requires_grad();
        let loss = mask.detach().sigmoid().sum_all();
        let diags = audit_tape_with_params(&loss, &[mask]);
        assert_eq!(kinds(&diags), vec![DiagnosticKind::DetachedGradient]);
    }

    // ---------------- tape: stability lints ----------------

    #[test]
    fn detects_ln_of_sigmoid() {
        let x = Tensor::from_vec(vec![-3.0, 0.5], 2, 1).requires_grad();
        let loss = x.sigmoid().ln().neg().sum_all();
        let diags = audit_tape(&loss);
        assert_eq!(
            kinds(&diags),
            vec![DiagnosticKind::UnstablePattern(
                StabilityPattern::LnOfSigmoid
            )]
        );
        // The stable rewrite passes.
        let stable = x.neg().softplus().sum_all();
        assert!(audit_tape(&stable).is_empty());
    }

    #[test]
    fn detects_exp_of_exp_through_affine_ops() {
        let x = Tensor::scalar(1.0).requires_grad();
        let loss = x.exp().mul_scalar(0.5).exp().sum_all();
        let diags = audit_tape(&loss);
        assert_eq!(
            kinds(&diags),
            vec![DiagnosticKind::UnstablePattern(StabilityPattern::ExpOfExp)]
        );
    }

    #[test]
    fn detects_softmax_without_shift() {
        // Hand-rolled segment softmax sharing the unshifted exp between
        // numerator and denominator.
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], 3, 1).requires_grad();
        let e = x.exp();
        let denom = e.scatter_add_rows(&[0, 0, 0], 1).gather_rows(&[0, 0, 0]);
        let p = e.div(&denom);
        let diags = audit_tape(&p.sum_all());
        assert_eq!(
            kinds(&diags),
            vec![DiagnosticKind::UnstablePattern(
                StabilityPattern::SoftmaxWithoutShift
            )]
        );
        // The built-in (shifted) segment softmax is clean.
        let clean = x.segment_softmax(&[0, 0, 0]).sum_all();
        assert!(audit_tape(&clean).is_empty());
    }

    // ---------------- incidence / containers ----------------

    #[test]
    fn healthy_flow_index_is_clean() {
        let mut b = Graph::builder(4, 1);
        b.edge(0, 1).edge(1, 2).edge(2, 3).edge(0, 2);
        let mp = MpGraph::new(&b.build());
        assert!(audit_mp_graph(&mp).is_empty());
        let index =
            FlowIndex::build(&mp, 3, Target::Node(3), 100_000).expect("small graph fits cap");
        assert!(audit_flow_index(&mp, &index).is_empty());
    }

    #[test]
    fn plan_dropping_a_flow_edge_is_flagged() {
        // 0 -> 1 -> 2 -> 3 plus a node 4 -> 0 beyond the 2-layer reach.
        let mut b = Graph::builder(5, 1);
        b.edge(0, 1).edge(1, 2).edge(2, 3).edge(4, 0);
        let mp = MpGraph::new(&b.build());
        let index =
            FlowIndex::build(&mp, 2, Target::Node(3), 100_000).expect("small graph fits cap");
        let plan = mp.plan(&[3], 2);
        assert!(audit_plan(&mp, &index, &plan).is_empty());

        // A plan built for node 2 instead keeps no edge into node 3 at the
        // last layer, which every flow into 3 crosses.
        let diags = audit_plan(&mp, &index, &mp.plan(&[2], 2));
        assert!(diags
            .iter()
            .all(|d| d.kind == DiagnosticKind::IncidenceViolation(IncidenceCheck::PlanCoverage)));
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("layer 1 plan drops")),
            "{diags:?}"
        );
        assert!(!audit_plan(&mp, &index, &plan[..1]).is_empty());
    }

    #[test]
    fn detects_corrupted_incidence_column_sums() {
        // 3 edges × 4 flows: flow 1 appears twice, flow 3 never.
        let mat = BinCsr::from_rows(3, 4, &[vec![0, 1], vec![1, 2], vec![]]);
        let diags = audit_incidence(&mat);
        let ks = kinds(&diags);
        assert_eq!(
            ks,
            vec![
                DiagnosticKind::IncidenceViolation(IncidenceCheck::ColumnSum),
                DiagnosticKind::IncidenceViolation(IncidenceCheck::ColumnSum),
            ]
        );
        assert!(diags[0].message.contains("flow 1"));
        assert!(diags[1].message.contains("flow 3"));
    }

    #[test]
    fn detects_unsorted_incidence_row() {
        let mat = BinCsr::from_rows(1, 2, &[vec![1, 0]]);
        let ks = kinds(&audit_bin_csr(&mat));
        assert_eq!(
            ks,
            vec![DiagnosticKind::IncidenceViolation(
                IncidenceCheck::UnsortedRow
            )]
        );
    }

    #[test]
    fn empty_bin_csr_is_clean() {
        let mat = BinCsr::from_rows(0, 0, &[]);
        assert!(audit_bin_csr(&mat).is_empty());
        assert!(audit_incidence(&mat).is_empty());
    }
}
