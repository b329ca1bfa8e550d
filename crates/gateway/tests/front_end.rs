//! The gateway serves through the backend's front end: protocol errors are
//! counted into the fleet rollup, only read-only requests are answered
//! once it is stopping, and each routed explain's trace decision is
//! counted once, by the backend that serves it.

#![allow(clippy::unwrap_used)]

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::Effort;
use revelio_gateway::{Gateway, GatewayConfig};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task};
use revelio_graph::{Graph, Target};
use revelio_runtime::RuntimeConfig;
use revelio_server::wire::{encode_frame, read_frame};
use revelio_server::{
    Client, ErrorKind, ExplainRequest, Request, Response, Server, ServerConfig, MAX_FRAME_LEN,
};

fn model() -> Gnn {
    Gnn::new(GnnConfig {
        kind: GnnKind::Gcn,
        task: Task::NodeClassification,
        in_dim: 2,
        hidden_dim: 8,
        num_classes: 2,
        num_layers: 2,
        heads: 1,
        seed: 7,
    })
}

fn path_graph() -> Graph {
    let mut b = Graph::builder(4, 2);
    b.undirected_edge(0, 1)
        .undirected_edge(1, 2)
        .undirected_edge(2, 3);
    for v in 0..4 {
        b.node_features(v, &[1.0, v as f32 * 0.25]);
    }
    b.build()
}

fn explain_request(model: u32, target: usize) -> ExplainRequest {
    ExplainRequest {
        model,
        graph_id: 1,
        method: "REVELIO".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target: Target::Node(target),
        control: ControlSpec::default(),
        graph: path_graph(),
        context: None,
    }
}

/// Two backends behind a gateway, with the model registered through it.
fn fleet() -> (Vec<Server>, Gateway, u32) {
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::start(ServerConfig {
                runtime: RuntimeConfig {
                    workers: 1,
                    ..Default::default()
                },
                ..Default::default()
            })
            .expect("backend starts")
        })
        .collect();
    let gateway = Gateway::start(GatewayConfig {
        shards: backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect(),
        ..GatewayConfig::default()
    })
    .expect("gateway starts");
    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    let model = client.register_model(&model()).expect("register");
    (backends, gateway, model)
}

fn teardown(backends: Vec<Server>, gateway: Gateway) {
    gateway.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// Sends the first bytes of each request's frame, stops the gateway, then
/// sends the rest: the gateway reads a frame that has begun arriving to its
/// end, so each request reaches the shutdown gate with stop already raised.
fn split_across_stop(gateway: &Gateway, requests: &[Request]) -> Vec<Response> {
    let mut socks: Vec<(TcpStream, Vec<u8>)> = requests
        .iter()
        .map(|req| {
            let mut sock = TcpStream::connect(gateway.local_addr()).expect("raw connect");
            let frame = encode_frame(&req.encode(), MAX_FRAME_LEN).expect("encode");
            sock.write_all(&frame[..7]).expect("first half");
            sock.flush().expect("flush");
            (sock, frame)
        })
        .collect();
    // Let the handlers consume the half-frames so they are committed.
    std::thread::sleep(Duration::from_millis(300));
    gateway.stop();
    socks
        .iter_mut()
        .map(|(sock, frame)| {
            sock.write_all(&frame[7..]).expect("second half");
            sock.flush().expect("flush");
            let (payload, _) = read_frame(sock, MAX_FRAME_LEN)
                .expect("response frame")
                .expect("response before close");
            Response::decode(&payload).expect("decode")
        })
        .collect()
}

#[test]
fn each_routed_explain_counts_one_trace_decision() {
    let (backends, gateway, model) = fleet();
    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    const N: u64 = 6;
    for target in 0..N as usize {
        client
            .explain(&explain_request(model, target % 4))
            .expect("explain");
    }
    let (stats, gw) = client.stats_full().expect("stats");
    let gw = gw.expect("a gateway attaches its stats");
    assert_eq!(gw.routed, N);
    assert_eq!(
        stats.trace_sampled + stats.trace_dropped,
        N,
        "sampled={} dropped={}",
        stats.trace_sampled,
        stats.trace_dropped
    );
    drop(client);
    teardown(backends, gateway);
}

#[test]
fn malformed_frame_is_refused_closed_and_counted() {
    let (backends, gateway, _) = fleet();
    let mut sock = TcpStream::connect(gateway.local_addr()).expect("raw connect");
    sock.write_all(b"NOPE\x09\x00\x01\x00\x00\x00\x00\x00\x00\x00")
        .expect("a header with a bad magic");
    sock.flush().expect("flush");
    let (payload, _) = read_frame(&mut sock, MAX_FRAME_LEN)
        .expect("response frame")
        .expect("an answer before the close");
    match Response::decode(&payload).expect("decode") {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Malformed),
        other => panic!(
            "expected Malformed, got {:?}",
            std::mem::discriminant(&other)
        ),
    }
    // The gateway closed the connection after its answer.
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(matches!(read_frame(&mut sock, MAX_FRAME_LEN), Ok(None)));

    let mut client = Client::connect(gateway.local_addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(stats.protocol_errors >= 1, "rollup: {stats:?}");
    drop(client);
    teardown(backends, gateway);
}

#[test]
fn stopping_gateway_refuses_explains_but_answers_stats() {
    let (backends, gateway, model) = fleet();
    let answers = split_across_stop(
        &gateway,
        &[Request::Explain(explain_request(model, 1)), Request::Stats],
    );
    match &answers[0] {
        Response::Error { kind, .. } => assert_eq!(*kind, ErrorKind::ShuttingDown),
        other => panic!(
            "expected ShuttingDown for an explain, got {:?}",
            std::mem::discriminant(other)
        ),
    }
    assert!(
        matches!(&answers[1], Response::Stats(_, Some(_))),
        "a stopping gateway still answers Stats"
    );
    teardown(backends, gateway);
}
