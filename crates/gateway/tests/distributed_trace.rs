//! Distributed-tracing acceptance: a traced `Explain` through the
//! gateway over three real in-process shards — including one forced
//! failover re-route — assembles into a single cross-process trace.
//!
//! The acceptance properties from ISSUE 10:
//!
//! * the assembled trace holds the gateway's routing spans *and* the
//!   serving backend's extraction/optimize spans under one trace id,
//!   with the failover hop visible as its own span;
//! * the Chrome trace-event export round-trips a JSON parser check;
//! * the backend lane carries the shard's per-epoch losses, a trace
//!   recorded by a shard the gateway never routed to is still found by
//!   its job id, and an id nobody retains is a typed `UnknownTrace`
//!   error.

#![allow(clippy::unwrap_used)]

use std::time::Duration;

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::Effort;
use revelio_gateway::{route_key, Gateway, GatewayConfig, Ring};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::RuntimeConfig;
use revelio_server::wire::ErrorKind;
use revelio_server::{Client, ClientError, ExplainRequest, Server, ServerConfig};
use revelio_trace::validate_json;

fn trained_model() -> (Gnn, Vec<Graph>) {
    let graphs: Vec<Graph> = (0..4)
        .map(|variant| {
            let mut b = Graph::builder(5, 2);
            b.undirected_edge(0, 1)
                .undirected_edge(1, 2)
                .undirected_edge(2, 3)
                .undirected_edge(3, 4);
            for v in 0..5 {
                b.node_features(v, &[1.0, (v + variant) as f32 * 0.3]);
            }
            b.node_labels((0..5).map(|v| (v + variant) % 2).collect());
            b.build()
        })
        .collect();
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
        &graphs[0],
        &[0, 1, 2, 3, 4],
        &TrainConfig {
            epochs: 20,
            ..Default::default()
        },
    );
    (model, graphs)
}

fn start_backend() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        runtime: RuntimeConfig {
            workers: 1,
            seed: 42,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("backend starts")
}

fn explain_request(model: u32, graph: &Graph, graph_id: u64, target: Target) -> ExplainRequest {
    ExplainRequest {
        model,
        graph_id,
        method: "REVELIO".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target,
        control: ControlSpec::default(),
        graph: graph.clone(),
        context: None,
    }
}

/// The full acceptance path: 3 shards, sampling on, kill the owner of a
/// chosen key so the traced request re-routes mid-flight, then assemble.
#[test]
fn traced_explain_with_failover_assembles_one_cross_process_trace() {
    let (model, graphs) = trained_model();

    let mut servers: Vec<Option<Server>> = (0..3).map(|_| Some(start_backend())).collect();
    let shards: Vec<String> = servers
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr().to_string())
        .collect();
    // Sampling on for every request; health polling slowed to a crawl so
    // a freshly killed shard still *looks* healthy and the re-route
    // happens inside the traced forward loop, not via the health mask.
    let cfg = GatewayConfig {
        shards,
        trace_sample_rate: 1.0,
        health_interval: Duration::from_secs(3600),
        fail_after: 1000,
        ..GatewayConfig::default()
    };
    let vnodes = cfg.vnodes;
    let gateway = Gateway::start(cfg).expect("gateway starts");
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let id = client.register_model(&model).unwrap();

    // Predict routing with an identical ring and kill the owner of the
    // key we are about to explain.
    let ring = Ring::new(3, vnodes);
    let (gid, target) = (0, Target::Node(2));
    let victim = ring
        .owner(route_key(id, gid, target), &[true, true, true])
        .unwrap();
    let successor = ring
        .owner(route_key(id, gid, target), &{
            let mut alive = [true, true, true];
            alive[victim] = false;
            alive
        })
        .unwrap();
    servers[victim].take().unwrap().shutdown();

    // The traced request: first attempt hits the dead owner, fails at the
    // transport, and re-routes to the ring successor.
    let req = explain_request(id, &graphs[gid as usize], gid, target);
    let served = client
        .explain_with_retry(&req)
        .expect("explain survives failover");
    let trace_lo = served
        .trace_id
        .expect("sampled explain echoes its trace id");

    // Fetch the assembled trace by the echoed id through the gateway.
    let assembled = client
        .assembled_trace(Some([0, trace_lo]))
        .expect("gateway assembles the trace");
    assert_eq!(assembled.trace_lo, trace_lo, "assembly keyed by trace id");
    assert!(assembled.trace_hi != 0, "gateway minted a 128-bit id");

    // Lane 0 is the gateway, lane 1 the shard that actually served it.
    assert!(
        assembled.lanes.len() >= 2,
        "expected gateway + backend lanes, got {:?}",
        assembled.lanes
    );
    assert_eq!(assembled.lanes[0], "gateway");
    assert!(
        assembled.lanes[1].starts_with(&format!("shard-{successor}")),
        "backend lane should be the ring successor: {:?}",
        assembled.lanes
    );

    let names: Vec<&str> = assembled.spans.iter().map(|s| s.name.as_str()).collect();
    // Gateway routing spans.
    assert!(names.contains(&"route"), "missing route span: {names:?}");
    let failover = format!("failover-hop shard-{victim}");
    assert!(
        names.iter().any(|n| *n == failover),
        "missing {failover:?}: {names:?}"
    );
    assert!(
        names
            .iter()
            .any(|n| *n == format!("forward shard-{successor}")),
        "missing forward span: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("checkout shard-")),
        "missing checkout span: {names:?}"
    );
    // Backend phase spans, in the backend lane.
    let backend_lane = 1u32;
    for phase in ["extraction", "optimize"] {
        assert!(
            assembled
                .spans
                .iter()
                .any(|s| s.lane == backend_lane && s.name == phase),
            "missing backend {phase} span: {names:?}"
        );
    }

    // The Chrome export is valid JSON and mentions every lane.
    let chrome = assembled.chrome_trace_json();
    if let Err(e) = validate_json(&chrome) {
        panic!("chrome trace JSON failed the parser check ({e}):\n{chrome}");
    }
    assert!(chrome.contains(&assembled.hex_id()));
    for lane in &assembled.lanes {
        assert!(chrome.contains(lane.as_str()), "lane {lane} not exported");
    }

    // The owning shard's per-epoch losses ride on its lane, and only
    // there; the export plots them as a counter track.
    let losses = assembled.losses(backend_lane);
    assert_eq!(losses.len(), served.degradation.epochs_run);
    assert!(losses.iter().all(|l| l.is_finite()), "{losses:?}");
    assert!(assembled.losses(0).is_empty(), "the gateway runs no epochs");
    assert!(chrome.contains("\"ph\":\"C\""), "no loss counter exported");

    for s in servers.iter_mut().filter_map(Option::take) {
        s.stop();
    }
    gateway.shutdown();
}

/// An id nobody retains is a typed `UnknownTrace` — after the gateway
/// window misses and every shard misses too — and so is "newest" while
/// the gateway has routed no traced request.
#[test]
fn unknown_trace_ids_are_typed_errors() {
    let (model, _graphs) = trained_model();
    let servers: Vec<Server> = (0..2).map(|_| start_backend()).collect();
    let gateway = Gateway::start(GatewayConfig {
        shards: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    client.register_model(&model).unwrap();

    for id in [Some([0, 0xdead_beef]), None] {
        match client.assembled_trace(id) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownTrace),
            other => panic!("expected UnknownTrace for {id:?}, got {other:?}"),
        }
    }

    for s in &servers {
        s.stop();
    }
    gateway.shutdown();
}

/// A request traced straight at one shard never passes the gateway, so
/// its trace is journaled under the shard's job id and is absent from the
/// gateway's window. Fetched through the gateway by that echoed id, the
/// trace still comes back: the window miss falls back to asking the
/// healthy shards.
#[test]
fn shard_local_trace_is_fetched_through_the_gateway_by_job_id() {
    let (model, graphs) = trained_model();
    let servers: Vec<Server> = (0..3).map(|_| start_backend()).collect();
    let gateway = Gateway::start(GatewayConfig {
        shards: servers.iter().map(|s| s.local_addr().to_string()).collect(),
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    client.register_model(&model).unwrap();

    // Shard 1, not the first one the fallback asks, serves the request.
    let mut direct = Client::connect(servers[1].local_addr()).unwrap();
    let local_model = direct.register_model(&model).unwrap();
    let mut req = explain_request(local_model, &graphs[0], 0, Target::Node(2));
    req.control = ControlSpec {
        trace: true,
        ..ControlSpec::default()
    };
    let served = direct.explain(&req).expect("direct traced explain");
    let job_id = served.trace_id.expect("traced explain echoes its job id");

    let assembled = client
        .assembled_trace(Some([0, job_id]))
        .expect("gateway finds the shard-local trace");
    assert_eq!(assembled.trace_lo, job_id);
    assert_eq!(assembled.lanes[0], "gateway");
    assert_eq!(assembled.lanes.len(), 2, "{:?}", assembled.lanes);
    assert!(
        assembled.lanes[1].starts_with("shard-1 "),
        "the lane of the shard that ran it: {:?}",
        assembled.lanes
    );
    assert!(assembled.spans.iter().all(|s| s.lane == 1));
    assert!(assembled.spans.iter().any(|s| s.name == "optimize"));
    let losses = assembled.losses(1);
    assert_eq!(losses.len(), served.degradation.epochs_run);
    assert!(
        !losses.is_empty(),
        "the shard lane carries its epoch events"
    );

    for s in &servers {
        s.stop();
    }
    gateway.shutdown();
}
