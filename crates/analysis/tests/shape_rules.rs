//! The tensor constructors and the tape auditor check one shape rule per
//! op ([`Op::output_shape`]). For every rule-bearing op, a defective
//! operand set must make the checked constructor panic with exactly the
//! message `audit_tape` reports for the same op recorded unchecked.

use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

use revelio_analysis::{audit_tape, DiagnosticKind};
use revelio_tensor::{BinCsr, CsrMatrix, EdgeIndex, FlowLossSpec, Objective, Op, Tensor};

/// The panic payload of `checked`, which must panic.
fn panic_message(case: &str, checked: &dyn Fn() -> Tensor) -> String {
    let payload = match panic::catch_unwind(AssertUnwindSafe(checked)) {
        Ok(_) => panic!("{case}: the checked constructor accepted defective operands"),
        Err(payload) => payload,
    };
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => panic!("{case}: the panic payload is not a message"),
        },
    }
}

#[test]
fn every_constructor_panics_with_the_message_the_auditor_reports() {
    let (a23, a32, a22) = (
        Tensor::zeros(2, 3),
        Tensor::zeros(3, 2),
        Tensor::zeros(2, 2),
    );
    let row3 = Tensor::zeros(1, 3);
    let col3 = Tensor::zeros(3, 1);
    // Two input rows feed three output rows over two edges.
    let edges = Arc::new(EdgeIndex::new(2, 3, vec![0, 1], vec![2, 2]));
    let mat = Arc::new(BinCsr::from_rows(2, 3, &[vec![0, 2], vec![1]]));
    let csr = CsrMatrix::from_dense(&[0.0; 6], 2, 3);
    // Two items over two layers; item 1 uses row 2 of layer 1's mask.
    let spec = Rc::new(FlowLossSpec::new(
        Objective::Factual,
        0.1,
        vec![0, 1],
        vec![(vec![0, 1, 1], vec![0]), (vec![0, 1, 2], vec![1, 2])],
    ));
    let masks = vec![Tensor::zeros(2, 1), Tensor::zeros(2, 1)];
    let idx = |v: &[usize]| Rc::new(v.to_vec());
    let pass = |x: &Tensor, coef: Option<&Tensor>, scale: Option<&Tensor>| Op::MessagePass {
        x: x.clone(),
        coef: coef.cloned(),
        scale: scale.cloned(),
        edges: Arc::clone(&edges),
    };

    let table: [(&str, &dyn Fn() -> Tensor, Op); 26] = [
        ("add", &|| a23.add(&a32), Op::Add(a23.clone(), a32.clone())),
        ("mul", &|| a23.mul(&a32), Op::Mul(a23.clone(), a32.clone())),
        ("div", &|| a23.div(&a32), Op::Div(a23.clone(), a32.clone())),
        (
            "matmul",
            &|| a23.matmul(&a23),
            Op::MatMul(a23.clone(), a23.clone()),
        ),
        (
            "csr_matmul",
            &|| Tensor::csr_matmul(&csr, &a23),
            Op::MatMul(a23.clone(), a23.clone()),
        ),
        (
            "add_row_broadcast",
            &|| a32.add_row_broadcast(&row3),
            Op::AddRowBroadcast(a32.clone(), row3.clone()),
        ),
        (
            "mul_col_broadcast",
            &|| a23.mul_col_broadcast(&col3),
            Op::MulColBroadcast(a23.clone(), col3.clone()),
        ),
        (
            "sigmoid_scale",
            &|| a23.sigmoid_scale(&a32),
            Op::SigmoidScale(a23.clone(), a32.clone()),
        ),
        (
            "bias_leaky_relu bias",
            &|| a32.bias_leaky_relu(&row3, 0.1),
            Op::BiasLeakyRelu(a32.clone(), row3.clone(), 0.1),
        ),
        (
            "bias_leaky_relu slope",
            &|| a23.bias_leaky_relu(&row3, -0.1),
            Op::BiasLeakyRelu(a23.clone(), row3.clone(), -0.1),
        ),
        (
            "softmax_xent targets",
            &|| a23.softmax_xent(&[0]),
            Op::SoftmaxXent(a23.clone(), idx(&[0])),
        ),
        (
            "softmax_xent class",
            &|| a23.softmax_xent(&[0, 3]),
            Op::SoftmaxXent(a23.clone(), idx(&[0, 3])),
        ),
        (
            "nll_loss targets",
            &|| a23.nll_loss(&[0, 1, 2]),
            Op::NllLoss(a23.clone(), idx(&[0, 1, 2])),
        ),
        (
            "nll_loss class",
            &|| a23.nll_loss(&[4, 0]),
            Op::NllLoss(a23.clone(), idx(&[4, 0])),
        ),
        (
            "mean_rows",
            &|| a32.segment_mean_rows(&[0, 3, 3]),
            Op::MeanRows(a32.clone(), idx(&[0, 3, 3])),
        ),
        (
            "gather_rows",
            &|| a23.gather_rows(&[0, 5]),
            Op::GatherRows(a23.clone(), idx(&[0, 5])),
        ),
        (
            "scatter_add_rows count",
            &|| a23.scatter_add_rows(&[0], 2),
            Op::ScatterAddRows(a23.clone(), idx(&[0]), 2),
        ),
        (
            "scatter_add_rows bound",
            &|| a23.scatter_add_rows(&[0, 2], 2),
            Op::ScatterAddRows(a23.clone(), idx(&[0, 2]), 2),
        ),
        (
            "message_pass rows",
            &|| a32.message_pass(&edges, None, None),
            pass(&a32, None, None),
        ),
        (
            "message_pass coef",
            &|| a23.message_pass(&edges, Some(&col3), None),
            pass(&a23, Some(&col3), None),
        ),
        (
            "message_pass scale",
            &|| a23.message_pass(&edges, None, Some(&row3)),
            pass(&a23, None, Some(&row3)),
        ),
        (
            "slice_cols",
            &|| a23.slice_cols(2, 4),
            Op::SliceCols(a23.clone(), 2, 4),
        ),
        (
            "concat_cols",
            &|| a23.concat_cols(&a32),
            Op::ConcatCols(a23.clone(), a32.clone()),
        ),
        (
            "segment_softmax",
            &|| a23.segment_softmax(&[0, 0, 1]),
            Op::SegmentSoftmax(a23.clone(), idx(&[0, 0, 1])),
        ),
        (
            "sp_matvec",
            &|| a22.sp_matvec(&mat),
            Op::SpMatVec(Arc::clone(&mat), a22.clone()),
        ),
        (
            "flow_loss",
            &|| a22.flow_loss(&masks, &spec).0,
            Op::FlowLoss {
                logp: a22.clone(),
                masks: masks.clone(),
                spec: Rc::clone(&spec),
            },
        ),
    ];

    for (case, checked, op) in table {
        let message = panic_message(case, checked);
        let name = op.name();
        assert!(
            message.starts_with(&format!("{name}: ")),
            "{case}: {message:?} does not start with the op name"
        );
        let diags = audit_tape(&Tensor::from_op_unchecked(vec![], 0, 0, op));
        assert_eq!(diags.len(), 1, "{case}: {diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::ShapeMismatch, "{case}");
        assert_eq!(diags[0].message, message, "{case}");
    }
}
