//! Golden byte layouts: every network frame payload and every store record
//! must encode to exactly the bytes protocol v8 / store format v1 define.
//!
//! The corpus below covers every `Request` and `Response` variant (the
//! `Stats` answer with and without the gateway's counters) and the three
//! store records (the explanation record with and without its optional
//! fields), plus one complete frame, one complete store log file, one
//! model fingerprint (the warm-start staleness guard), and the sorted
//! lines of the Prometheus exposition of the `Stats` fixtures. Each
//! encoding is hashed with FNV-1a 64 and compared against `GOLDEN`, a table
//! recorded from the hand-written encoders that predate the shared
//! `Codec`. A mismatch means peers or on-disk logs would no longer
//! understand this build; the failure message prints the corpus's current
//! hashes in table form.

#![allow(clippy::unwrap_used)]

use revelio_core::wire::ControlSpec;
use revelio_core::{Degradation, Objective};
use revelio_eval::Effort;
use revelio_gnn::{GnnConfig, GnnKind, Task};
use revelio_graph::{Graph, Target};
use revelio_runtime::{BatchWidth, HistogramSnapshot, MetricsSnapshot};
use revelio_server::wire::{
    encode_frame, ErrorKind, ExplainRequest, GatewayBackendStats, GatewayStats, Request, Response,
    ServedExplanation, ServerStats, WireExplanationSummary, WireStoredExplanation, WireTiming,
};
use revelio_store::{
    fingerprint_model, ExplanationRecord, FlowsRecord, LogStore, MaskKey, ModelRecord,
    PhaseSummary, StoredMask,
};
use revelio_trace::{AssembledEvent, AssembledSpan, AssembledTrace, PointKind, TraceContext};

/// FNV-1a 64 of every corpus entry, recorded from the pre-`Codec` encoders.
/// Entries a protocol bump changed were recomputed from bytes laid out by
/// hand from the documented layouts, and agree with this build: v7's
/// `request.assembled_trace` and `response.assembled`, and v8's explain
/// requests (CSR graph features) and `request.fetch_explanation` (no trace
/// context), and v9's `response.pong` and `frame.ping`. v9's two `Stats`
/// answers, which moved the trace counters ahead of the gateway's stats,
/// agree with the v8 hashes once those 16 bytes are moved back. The
/// `exposition.*` entries were recorded from the hand-written renderers
/// that predate the metric tables.
const GOLDEN: &[(&str, u64)] = &[
    ("request.ping", 0xaf63bd4c8601b7df),
    ("request.register_model", 0xc788d661031e44ba),
    ("request.explain_full", 0xb759a7f7e810d8ee),
    ("request.explain_bare", 0x2fee4385e05a7fc2),
    ("request.stats", 0xaf63be4c8601b992),
    ("request.shutdown", 0xaf63b94c8601b113),
    ("request.fetch_explanation", 0x6598320f08db42b4),
    ("request.list_explanations", 0xaf63ba4c8601b2c6),
    ("request.assembled_trace", 0xc82c3cb3519f02ec),
    ("response.pong", 0xd92e7c186bf53346),
    ("response.model_registered", 0xb7fd70c7aa7db49f),
    ("response.explained_full", 0x30008c617e97e810),
    ("response.explained_bare", 0x862eb083800cc045),
    ("response.busy", 0x397597c4e78e83d2),
    ("response.stats", 0x30645c283b35629f),
    ("response.stats_with_gateway", 0x63d6ceda20eb88d9),
    ("response.shutdown_ack", 0xaf63bb4c8601b479),
    ("response.assembled", 0xec42d1cdbec734e3),
    ("response.explanation_full", 0xc7b76caa484891d0),
    ("response.explanation_bare", 0xc3cb0ef405fe0581),
    ("response.explanation_missing", 0x084db807b5028935),
    ("response.explanation_list", 0x8edbf13841c1cb15),
    ("response.explanation_list_empty", 0x3d8486029257d204),
    ("response.error.unknown_model", 0x8b67ce2b7a2770ca),
    ("response.error.unknown_method", 0xc1afbb7ab24b995e),
    ("response.error.group_level_method", 0xef569755865a0b63),
    ("response.error.malformed", 0xf571bb110321aece),
    ("response.error.internal", 0xa8b5d592bbef5fe0),
    ("response.error.shutting_down", 0xb375f4d0bf2abdb0),
    ("response.error.no_store", 0x4e0923f069624538),
    ("response.error.unknown_trace", 0x1c5bbc22867db265),
    ("frame.ping", 0x7d27423d53782a5c),
    ("record.model", 0xf9fcd83c573508b4),
    ("record.flows", 0x08a92cfdcd920c16),
    ("record.explanation_full", 0x9fc7154cbeb91c08),
    ("record.explanation_bare", 0x0ba986a428e9e229),
    ("store.log_file", 0x59a71c437c54e3e3),
    ("store.model_fingerprint", 0x4e850ca8521d320d),
    // 0x08da399fb312f7ea before histograms with more bucket entries than
    // `count` (most of this fixture's) exposed their bucket total as
    // `+Inf` and `_count`; the old lines were not cumulative. Then
    // 0xef4d25440cede1c4 and 0x0fc174f1f5089474 until quantile estimates
    // were capped at each histogram's `max`: only the
    // `revelio_latency_quantile_seconds` lines differ.
    ("exposition.server_stats", 0xaa210dad6e25ab13),
    ("exposition.server_stats_consistent", 0xe795c923d524f37d),
    ("exposition.gateway_stats", 0x6a38949782fa98b1),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn context() -> TraceContext {
    TraceContext {
        trace_hi: 0xdead_beef_0000_0001,
        trace_lo: 0x1234_5678_9abc_def0,
        parent_span: 42,
        sampled: true,
    }
}

fn config() -> GnnConfig {
    GnnConfig {
        kind: GnnKind::Gat,
        task: Task::GraphClassification,
        in_dim: 7,
        hidden_dim: 16,
        num_classes: 3,
        num_layers: 2,
        heads: 4,
        seed: 0x0123_4567_89ab_cdef,
    }
}

fn labelled_graph() -> Graph {
    let mut b = Graph::builder(4, 2);
    b.edge(0, 1).edge(1, 2).edge(2, 3).edge(3, 0).edge(1, 3);
    b.node_features(0, &[1.0, -2.0]);
    b.node_features(3, &[0.25, f32::MIN_POSITIVE]);
    b.node_labels(vec![0, 1, 1, 2]);
    b.graph_label(1);
    b.build()
}

fn bare_graph() -> Graph {
    let mut b = Graph::builder(2, 0);
    b.edge(1, 0);
    b.build()
}

fn degradation() -> Degradation {
    Degradation {
        deadline_hit: true,
        epochs_run: 12,
        epochs_planned: 150,
        flows_dropped: 4,
    }
}

fn summary(
    job_id: u64,
    key: (u32, u64, Target, u32),
    degraded: bool,
    has_mask: bool,
) -> WireExplanationSummary {
    WireExplanationSummary {
        job_id,
        key: MaskKey {
            model_id: key.0,
            graph_id: key.1,
            target: key.2,
            layers: key.3,
        },
        degraded,
        has_mask,
    }
}

fn histogram(seed: u64) -> HistogramSnapshot {
    let mut h: HistogramSnapshot = Default::default();
    for (i, b) in h.buckets.iter_mut().enumerate() {
        *b = seed * 10 + i as u64;
    }
    h.count = seed + 100;
    h.total = seed * 1_000 + 7;
    h.max = seed * 99;
    h
}

fn server_stats() -> ServerStats {
    let mut batch_size: HistogramSnapshot<BatchWidth> = Default::default();
    for (i, b) in batch_size.buckets.iter_mut().enumerate() {
        *b = 3 * i as u64 + 1;
    }
    batch_size.count = 40;
    batch_size.total = 120;
    batch_size.max = 8;
    ServerStats {
        connections_accepted: 4,
        connections_active: 2,
        bytes_in: 1000,
        bytes_out: 2000,
        requests: 123,
        shed: 2,
        protocol_errors: 1,
        request_latency: histogram(1),
        trace_sampled: 6,
        trace_dropped: 94,
        runtime: MetricsSnapshot {
            jobs_submitted: 21,
            jobs_started: 20,
            jobs_completed: 17,
            jobs_degraded: 3,
            jobs_failed: 1,
            jobs_rejected: 2,
            queue_depth: 5,
            cache_hits: 60,
            cache_misses: 20,
            queue_wait: histogram(2),
            prep_latency: histogram(3),
            explain_latency: histogram(4),
            phase_extraction: histogram(5),
            phase_flow_index: histogram(6),
            phase_optimize: histogram(7),
            phase_readout: histogram(8),
            epochs_total: 340,
            store_hits: 5,
            store_misses: 3,
            batches: 9,
            batched_jobs: 33,
            batch_size,
        },
    }
}

fn gateway_stats() -> GatewayStats {
    GatewayStats {
        routed: 120,
        fanout: 3,
        rerouted: 7,
        scatter: 2,
        backends: vec![
            GatewayBackendStats {
                addr: "127.0.0.1:7141".to_owned(),
                healthy: true,
                consecutive_failures: 0,
                forwarded: 80,
                errors: 0,
                busy: 1,
                health_checks: 12,
                cache_hits: 60,
                cache_misses: 20,
                jobs_completed: 80,
            },
            GatewayBackendStats {
                addr: "[::1]:7142".to_owned(),
                healthy: false,
                consecutive_failures: 4,
                forwarded: 40,
                errors: 4,
                busy: 0,
                health_checks: 6,
                cache_hits: 30,
                cache_misses: 10,
                jobs_completed: 40,
            },
        ],
    }
}

fn assembled() -> AssembledTrace {
    AssembledTrace {
        trace_hi: 0xfeed,
        trace_lo: 0xf00d,
        lanes: vec!["gateway".to_owned(), "shard-1 (127.0.0.1:7152)".to_owned()],
        spans: vec![
            AssembledSpan {
                lane: 0,
                name: "route".to_owned(),
                start_us: 0,
                dur_us: 3000,
            },
            AssembledSpan {
                lane: 1,
                name: "optimize".to_owned(),
                start_us: 500,
                dur_us: 2000,
            },
        ],
        events: [
            PointKind::CacheProbe { hit: false },
            PointKind::Epoch {
                index: 3,
                loss: 0.5,
                grad_norm: -1.25,
            },
            PointKind::DeadlineHit { epoch: 9 },
            PointKind::Note("flow-index-reused".to_owned()),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, kind)| AssembledEvent {
            lane: 1,
            at_us: 600 + 10 * i as u64,
            kind,
        })
        .collect(),
        dropped: 2,
    }
}

fn stored(full: bool) -> WireStoredExplanation {
    WireStoredExplanation {
        job_id: 77,
        model: 2,
        graph_id: 9,
        target: if full { Target::Node(4) } else { Target::Graph },
        layers: 3,
        edge_scores: vec![0.5, 0.25, -0.1],
        layer_edge_scores: full.then(|| vec![vec![0.1], vec![], vec![0.3, 0.4]]),
        flow_scores: full.then(|| vec![0.9, 0.8]),
        degradation: if full {
            degradation()
        } else {
            Degradation::default()
        },
        queue_us: 10,
        prep_us: 20,
        explain_us: 30,
        has_mask: full,
    }
}

fn explanation_record(full: bool) -> ExplanationRecord {
    ExplanationRecord {
        job_id: 41,
        key: MaskKey {
            model_id: 1,
            graph_id: 7,
            target: if full { Target::Node(2) } else { Target::Graph },
            layers: 2,
        },
        model_fingerprint: 0xDEAD_BEEF,
        edge_scores: vec![0.25, 0.75],
        layer_edge_scores: full.then(|| vec![vec![0.1, 0.2], vec![0.3, 0.4]]),
        flow_scores: full.then(|| vec![0.9, 0.1, 0.5]),
        degradation: if full {
            degradation()
        } else {
            Degradation::default()
        },
        phases: PhaseSummary {
            queue_us: 5,
            prep_us: 14,
            explain_us: 2000,
        },
        mask: full.then(|| StoredMask {
            mask_params: vec![0.4, -0.1, 2.0],
            layer_weights: vec![vec![0.5], vec![]],
            selected: vec![0, 1, 5],
        }),
    }
}

fn model_record() -> ModelRecord {
    ModelRecord {
        model_id: 2,
        fingerprint: 0x0BAD_F00D,
        config: config(),
        state: vec![vec![1.0, -2.5], vec![], vec![f32::MIN_POSITIVE]],
    }
}

fn flows_record() -> FlowsRecord {
    FlowsRecord {
        graph_id: 9,
        target: Target::Node(2),
        layers: 2,
        max_flows: 100,
        layer_edge_count: 5,
        flow_edges: vec![0, 1, 4, 2],
        dropped: 3,
    }
}

fn requests() -> Vec<(&'static str, Request)> {
    let explain_full = ExplainRequest {
        model: 3,
        graph_id: 99,
        method: "REVELIO".to_owned(),
        objective: Objective::Counterfactual,
        effort: Effort::Paper,
        target: Target::Node(2),
        control: ControlSpec {
            deadline_ms: Some(750),
            max_flows: 12_345,
            shrink_on_overflow: true,
            trace: true,
            warm_start: true,
        },
        graph: labelled_graph(),
        context: Some(context()),
    };
    let explain_bare = ExplainRequest {
        model: 0,
        graph_id: 1,
        method: "GradCAM".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target: Target::Graph,
        control: ControlSpec::default(),
        graph: bare_graph(),
        context: None,
    };
    vec![
        ("request.ping", Request::Ping),
        (
            "request.register_model",
            Request::RegisterModel {
                config: config(),
                state: model_record().state,
            },
        ),
        ("request.explain_full", Request::Explain(explain_full)),
        ("request.explain_bare", Request::Explain(explain_bare)),
        ("request.stats", Request::Stats),
        ("request.shutdown", Request::Shutdown),
        ("request.fetch_explanation", Request::FetchExplanation(77)),
        ("request.list_explanations", Request::ListExplanations),
        (
            "request.assembled_trace",
            Request::AssembledTrace(Some([0xfeed, 0xf00d])),
        ),
    ]
}

fn responses() -> Vec<(&'static str, Response)> {
    let mut out = vec![
        ("response.pong", Response::Pong { version: 9 }),
        (
            "response.model_registered",
            Response::ModelRegistered { model: 3 },
        ),
        (
            "response.explained_full",
            Response::Explained(ServedExplanation {
                edge_scores: vec![0.5, f32::from_bits(0x7FC0_0001), -0.0],
                layer_edge_scores: Some(vec![vec![0.1, 0.2], vec![]]),
                flow_scores: Some(vec![0.9, 0.8, 0.7]),
                degradation: degradation(),
                timing: WireTiming {
                    queue_us: 1,
                    prep_us: 2,
                    explain_us: 3,
                    total_us: 4,
                },
                trace_id: Some(0x1234),
            }),
        ),
        (
            "response.explained_bare",
            Response::Explained(ServedExplanation {
                edge_scores: vec![],
                layer_edge_scores: None,
                flow_scores: None,
                degradation: Degradation::default(),
                timing: WireTiming::default(),
                trace_id: None,
            }),
        ),
        (
            "response.busy",
            Response::Busy {
                in_flight: 64,
                limit: 64,
            },
        ),
        (
            "response.stats",
            Response::Stats(Box::new(server_stats()), None),
        ),
        (
            "response.stats_with_gateway",
            Response::Stats(Box::new(server_stats()), Some(Box::new(gateway_stats()))),
        ),
        ("response.shutdown_ack", Response::ShutdownAck),
        (
            "response.assembled",
            Response::Assembled(Box::new(assembled())),
        ),
        (
            "response.explanation_full",
            Response::Explanation(Some(Box::new(stored(true)))),
        ),
        (
            "response.explanation_bare",
            Response::Explanation(Some(Box::new(stored(false)))),
        ),
        ("response.explanation_missing", Response::Explanation(None)),
        (
            "response.explanation_list",
            Response::ExplanationList(vec![
                summary(1, (0, 7, Target::Graph, 2), false, true),
                summary(9, (1, 8, Target::Node(3), 3), true, false),
            ]),
        ),
        (
            "response.explanation_list_empty",
            Response::ExplanationList(vec![]),
        ),
    ];
    for (name, kind) in [
        ("response.error.unknown_model", ErrorKind::UnknownModel),
        ("response.error.unknown_method", ErrorKind::UnknownMethod),
        (
            "response.error.group_level_method",
            ErrorKind::GroupLevelMethod,
        ),
        ("response.error.malformed", ErrorKind::Malformed),
        ("response.error.internal", ErrorKind::Internal),
        ("response.error.shutting_down", ErrorKind::ShuttingDown),
        ("response.error.no_store", ErrorKind::NoStore),
        ("response.error.unknown_trace", ErrorKind::UnknownTrace),
    ] {
        out.push((
            name,
            Response::Error {
                kind,
                message: format!("{kind:?}: détail ✓"),
            },
        ));
    }
    out
}

/// A fresh store log holding one record of each kind, read back as bytes.
fn log_file() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("revelio-wire-layout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.log");
    let _ = std::fs::remove_file(&path);
    {
        let store = LogStore::open(&path).unwrap();
        store.put_model(&model_record()).unwrap();
        store.put_flows(&flows_record()).unwrap();
        store.put_explanation(&explanation_record(true)).unwrap();
        store.put_explanation(&explanation_record(false)).unwrap();
    }
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let mut out: Vec<(&'static str, Vec<u8>)> = Vec::new();
    for (name, req) in requests() {
        out.push((name, req.encode()));
    }
    for (name, resp) in responses() {
        out.push((name, resp.encode()));
    }
    out.push((
        "frame.ping",
        encode_frame(&Request::Ping.encode(), 1024).unwrap(),
    ));
    let record = |encode: &dyn Fn(&mut Vec<u8>)| {
        let mut buf = Vec::new();
        encode(&mut buf);
        buf
    };
    out.push(("record.model", record(&|b| model_record().encode(b))));
    out.push(("record.flows", record(&|b| flows_record().encode(b))));
    out.push((
        "record.explanation_full",
        record(&|b| explanation_record(true).encode(b)),
    ));
    out.push((
        "record.explanation_bare",
        record(&|b| explanation_record(false).encode(b)),
    ));
    out.push(("store.log_file", log_file()));
    // Stored masks are guarded by this fingerprint: a changed hash would
    // turn every warm start against an existing log into a miss.
    let fingerprint = fingerprint_model(&config(), &model_record().state);
    out.push((
        "store.model_fingerprint",
        fingerprint.to_le_bytes().to_vec(),
    ));
    // The text surfaces: family order carries no meaning in the exposition
    // format, so the sorted lines are hashed.
    out.push((
        "exposition.server_stats",
        sorted_lines(&server_stats().prometheus()),
    ));
    out.push((
        "exposition.server_stats_consistent",
        sorted_lines(&consistent(server_stats()).prometheus()),
    ));
    out.push((
        "exposition.gateway_stats",
        sorted_lines(&gateway_stats().prometheus()),
    ));
    out
}

fn sorted_lines(text: &str) -> Vec<u8> {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.sort_unstable();
    lines.join("\n").into_bytes()
}

/// `server_stats()` with every histogram's count equal to its bucket sum,
/// as a registry snapshot taken at rest has it. The fixture itself has
/// more bucket entries than observations in most histograms.
fn consistent(mut s: ServerStats) -> ServerStats {
    fn fix(buckets: &[u64], count: &mut u64) {
        *count = buckets.iter().sum();
    }
    let rt = &mut s.runtime;
    for h in [
        &mut s.request_latency,
        &mut rt.queue_wait,
        &mut rt.prep_latency,
        &mut rt.explain_latency,
        &mut rt.phase_extraction,
        &mut rt.phase_flow_index,
        &mut rt.phase_optimize,
        &mut rt.phase_readout,
    ] {
        fix(&h.buckets, &mut h.count);
    }
    fix(&rt.batch_size.buckets, &mut rt.batch_size.count);
    s
}

#[test]
fn every_encoding_matches_the_golden_layout() {
    let corpus = corpus();
    let current: Vec<String> = corpus
        .iter()
        .map(|(name, bytes)| format!("    (\"{name}\", 0x{:016x}),", fnv1a64(bytes)))
        .collect();
    let drifted: Vec<&str> = corpus
        .iter()
        .filter(|(name, bytes)| {
            GOLDEN.iter().find(|(g, _)| g == name).map(|&(_, h)| h) != Some(fnv1a64(bytes))
        })
        .map(|(name, _)| *name)
        .collect();
    assert!(
        drifted.is_empty() && corpus.len() == GOLDEN.len(),
        "layouts drifted for {drifted:?} ({} corpus entries, {} golden); current hashes:\n{}",
        corpus.len(),
        GOLDEN.len(),
        current.join("\n")
    );
}
