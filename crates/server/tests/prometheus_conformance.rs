//! Prometheus exposition conformance for both scrape surfaces: the
//! backend's `ServerStats::prometheus()` and the gateway tail's
//! `GatewayStats::prometheus()` (the two blocks `revelio-top
//! --prometheus` concatenates).
//!
//! [`parse_exposition`] already enforces the structural invariants —
//! every sample belongs to a `# TYPE`-declared family, histogram
//! families carry `_sum`, `_count`, and a cumulative bucket ladder
//! ending in `le="+Inf"` equal to `_count`. This test adds the ordering
//! rule the parser skips (`# HELP` *and* `# TYPE` must precede every
//! family's first sample), pins the family inventory both surfaces
//! promise, and checks that every row of the three metric tables reaches
//! a live backend's and a live gateway's scrape with its declared type.

#![allow(clippy::unwrap_used)]

use std::collections::BTreeSet;

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::Effort;
use revelio_gateway::{Gateway, GatewayConfig};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::prometheus::{parse_exposition, FamilyType};
use revelio_runtime::{MetricDef, MetricsSnapshot, RuntimeConfig};
use revelio_server::wire::{GatewayBackendStats, GatewayStats};
use revelio_server::{Client, ExplainRequest, Server, ServerConfig, ServerStats};

/// Walks the exposition line by line and fails if any sample appears
/// before its family's `# HELP` or `# TYPE` declaration.
fn assert_help_and_type_precede_samples(text: &str) {
    let mut helped = BTreeSet::new();
    let mut typed = BTreeSet::new();
    let mut histograms = BTreeSet::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            helped.insert(rest.split_whitespace().next().unwrap().to_owned());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap().to_owned();
            if it.next() == Some("histogram") {
                histograms.insert(name.clone());
            }
            typed.insert(name);
        } else if !line.trim().is_empty() && !line.starts_with('#') {
            let name = line.split(['{', ' ']).next().unwrap();
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suf| {
                    name.strip_suffix(suf)
                        .filter(|base| histograms.contains(*base))
                })
                .unwrap_or(name);
            assert!(
                typed.contains(family),
                "sample {name} rendered before its # TYPE"
            );
            assert!(
                helped.contains(family),
                "sample {name} rendered before its # HELP"
            );
        }
    }
}

/// A tiny trained model so the server surface carries live histogram
/// observations, not just zeroed families.
fn trained_model() -> (Gnn, Graph) {
    let mut b = Graph::builder(5, 2);
    b.undirected_edge(0, 1)
        .undirected_edge(1, 2)
        .undirected_edge(2, 3)
        .undirected_edge(3, 4);
    for v in 0..5 {
        b.node_features(v, &[1.0, v as f32 * 0.3]);
    }
    b.node_labels((0..5).map(|v| v % 2).collect());
    let graph = b.build();
    let model = Gnn::new(GnnConfig {
        kind: GnnKind::Gcn,
        task: Task::NodeClassification,
        in_dim: 2,
        hidden_dim: 8,
        num_classes: 2,
        num_layers: 2,
        heads: 1,
        seed: 7,
    });
    revelio_gnn::train_node_classifier(
        &model,
        &graph,
        &[0, 1, 2, 3, 4],
        &TrainConfig {
            epochs: 10,
            ..Default::default()
        },
    );
    (model, graph)
}

fn explain_request(model: u32, graph: &Graph, graph_id: u64) -> ExplainRequest {
    ExplainRequest {
        model,
        graph_id,
        method: "REVELIO".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target: Target::Node(2),
        control: ControlSpec::default(),
        graph: graph.clone(),
        context: None,
    }
}

/// Fails unless every row in `tables` is a family of `text` with the row's
/// declared type.
fn assert_declares(text: &str, tables: &[&[MetricDef]]) {
    let exp = parse_exposition(text).expect("exposition parses");
    assert_help_and_type_precede_samples(text);
    for def in tables.iter().flat_map(|t| t.iter()) {
        let ty = match exp.families.get(def.name) {
            Some(FamilyType::Counter) => "counter",
            Some(FamilyType::Gauge) => "gauge",
            Some(FamilyType::Histogram) => "histogram",
            other => panic!("{} is declared but exposed as {other:?}", def.name),
        };
        assert_eq!(ty, def.kind.prometheus_type(), "{} mistyped", def.name);
    }
}

#[test]
fn every_declared_family_reaches_a_live_scrape() {
    let (model, graph) = trained_model();
    let server = Server::start(ServerConfig::default()).unwrap();
    let gateway = Gateway::start(GatewayConfig {
        shards: vec![server.local_addr().to_string()],
        ..GatewayConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let id = client.register_model(&model).unwrap();
    client.explain(&explain_request(id, &graph, 0)).unwrap();

    let backend = Client::connect(server.local_addr())
        .unwrap()
        .stats()
        .unwrap();
    assert_declares(
        &backend.prometheus(),
        &[MetricsSnapshot::METRICS, ServerStats::METRICS],
    );
    let (fleet, tail) = client.stats_full().unwrap();
    let tail = tail.expect("a gateway attaches its counters");
    assert_declares(
        &format!("{}{}", fleet.prometheus(), tail.prometheus()),
        &[
            MetricsSnapshot::METRICS,
            ServerStats::METRICS,
            GatewayStats::METRICS,
        ],
    );
    drop(client);
    gateway.shutdown();
    server.shutdown();
}

#[test]
fn backend_exposition_conforms_with_live_observations() {
    let (model, graph) = trained_model();
    let server = Server::start(ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            seed: 42,
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = client.register_model(&model).unwrap();
    for gid in 0..2 {
        client.explain(&explain_request(id, &graph, gid)).unwrap();
    }
    let stats = client.stats().unwrap();
    server.shutdown();

    let text = stats.prometheus();
    let exp = parse_exposition(&text).expect("backend exposition parses");
    assert_help_and_type_precede_samples(&text);

    // The wire surface promises these families — including the tracing
    // counters every deployment exports even with sampling off.
    for counter in [
        "revelio_server_requests_total",
        "revelio_server_bytes_in_total",
        "revelio_server_bytes_out_total",
        "revelio_trace_sampled_total",
        "revelio_trace_dropped_total",
    ] {
        assert_eq!(
            exp.families.get(counter),
            Some(&FamilyType::Counter),
            "{counter} missing or mistyped"
        );
    }
    assert_eq!(
        exp.families.get("revelio_server_request_latency_seconds"),
        Some(&FamilyType::Histogram)
    );
    // Live traffic landed in the request-latency histogram: _count > 0
    // (the parser already proved +Inf == _count and _sum exists).
    let count = exp
        .samples
        .iter()
        .find(|(n, _, _)| n == "revelio_server_request_latency_seconds_count")
        .expect("request latency _count")
        .2;
    assert!(count > 0.0, "live requests should be observed");
    // Every histogram family survived the parser's _sum/_count/+Inf
    // checks; make the inventory explicit so removals fail loudly.
    let histograms: Vec<&String> = exp
        .families
        .iter()
        .filter(|(_, t)| **t == FamilyType::Histogram)
        .map(|(n, _)| n)
        .collect();
    assert!(
        histograms.len() >= 5,
        "expected the runtime stage histograms plus request latency, got {histograms:?}"
    );
}

#[test]
fn gateway_exposition_conforms() {
    let g = GatewayStats {
        routed: 7,
        fanout: 2,
        rerouted: 1,
        scatter: 3,
        backends: vec![
            GatewayBackendStats {
                addr: "127.0.0.1:7201".to_owned(),
                healthy: true,
                forwarded: 5,
                ..Default::default()
            },
            GatewayBackendStats {
                addr: "127.0.0.1:7202".to_owned(),
                healthy: false,
                errors: 2,
                ..Default::default()
            },
        ],
    };
    let text = g.prometheus();
    let exp = parse_exposition(&text).expect("gateway exposition parses");
    assert_help_and_type_precede_samples(&text);

    for counter in [
        "revelio_gateway_routed_total",
        "revelio_gateway_rerouted_total",
        "revelio_gateway_scatter_total",
        "revelio_gateway_backend_forwarded_total",
    ] {
        assert_eq!(
            exp.families.get(counter),
            Some(&FamilyType::Counter),
            "{counter} missing or mistyped"
        );
    }
    assert_eq!(
        exp.families.get("revelio_gateway_backends_healthy"),
        Some(&FamilyType::Gauge)
    );
    // Per-backend families carry one labelled sample per shard.
    assert_eq!(exp.samples_of("revelio_gateway_backend_up").len(), 2);

    // The combined scrape `revelio-top --prometheus` emits (backend
    // families then the gateway tail) must also parse as one document.
    let combined = format!(
        "{}\n{text}",
        revelio_server::ServerStats::default().prometheus()
    );
    parse_exposition(&combined).expect("combined scrape parses");
    assert_help_and_type_precede_samples(&combined);
}
