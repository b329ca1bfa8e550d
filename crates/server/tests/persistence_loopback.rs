//! End-to-end persistence tests: a real TCP server over a real store file.
//!
//! The acceptance property from the store design: restarting the server
//! against an existing store restores the model registry (wire ids keep
//! working without re-registration) and keeps pre-restart explanations
//! fetchable by job id over the v3 `FetchExplanation` frame.

#![allow(clippy::unwrap_used)]

use std::sync::atomic::{AtomicU64, Ordering};

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::Effort;
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::RuntimeConfig;
use revelio_server::{Client, ClientError, ErrorKind, ExplainRequest, Server, ServerConfig};

/// A fresh store path per call: unique within the process run and across
/// concurrently running test binaries.
fn temp_store() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "revelio-server-persist-{}-{}.log",
        std::process::id(),
        n
    ))
}

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
    let g = b.build();
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
        &g,
        &[0, 1, 2, 3, 4],
        &TrainConfig {
            epochs: 20,
            ..Default::default()
        },
    );
    (model, g)
}

fn start_server(store: &std::path::Path) -> Server {
    Server::start(ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            seed: 42,
            ..Default::default()
        },
        store: Some(store.to_path_buf()),
        ..Default::default()
    })
    .expect("server starts")
}

fn explain_request(graph: &Graph, warm_start: bool) -> ExplainRequest {
    ExplainRequest {
        model: 0,
        graph_id: 1,
        method: "REVELIO".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target: Target::Node(2),
        control: ControlSpec {
            deadline_ms: Some(60_000),
            warm_start,
            ..Default::default()
        },
        graph: graph.clone(),
        context: None,
    }
}

#[test]
fn restart_restores_models_and_serves_pre_restart_explanations() {
    let path = temp_store();
    let (model, g) = trained_model();

    // First life: register, explain, discover the job id via the listing.
    let (job_id, served_scores) = {
        let server = start_server(&path);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(client.register_model(&model).expect("register"), 0);
        let served = client
            .explain(&explain_request(&g, false))
            .expect("explain");
        let list = client.list_explanations().expect("list");
        assert_eq!(list.len(), 1, "one stored explanation: {list:?}");
        assert_eq!(list[0].key.model_id, 0);
        assert_eq!(list[0].key.graph_id, 1);
        assert_eq!(list[0].key.target, Target::Node(2));
        assert!(list[0].has_mask, "REVELIO records a converged mask");
        let fetched = client
            .fetch_explanation(list[0].job_id)
            .expect("fetch")
            .expect("stored record");
        assert_eq!(fetched.edge_scores, served.edge_scores);
        server.shutdown();
        (list[0].job_id, served.edge_scores)
    };

    // Second life against the same file: the model registry is restored,
    // so model id 0 serves without re-registration, and the pre-restart
    // explanation is still addressable by its job id.
    let server = start_server(&path);
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let fetched = client
        .fetch_explanation(job_id)
        .expect("fetch after restart")
        .expect("record survived the restart");
    assert_eq!(fetched.edge_scores, served_scores);
    assert_eq!(fetched.job_id, job_id);

    // A warm-started request against the recovered registry hits the
    // stored mask (the store counters cross the wire in `Stats`).
    let warm = client
        .explain(&explain_request(&g, true))
        .expect("warm explain");
    assert_eq!(warm.edge_scores.len(), served_scores.len());
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.runtime.store_hits, 1,
        "warm lookup should hit the recovered store: {stats:?}"
    );
    assert_eq!(stats.runtime.store_misses, 0);

    // The new job's id resumed past the stored one.
    let list = client.list_explanations().expect("list after restart");
    assert_eq!(list.len(), 2);
    assert!(list.iter().any(|s| s.job_id > job_id));

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn storeless_server_answers_store_requests_with_a_typed_error() {
    let server = Server::start(ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    match client.fetch_explanation(1) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::NoStore),
        other => panic!("expected a NoStore error, got {other:?}"),
    }
    match client.list_explanations() {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::NoStore),
        other => panic!("expected a NoStore error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn store_reads_stay_answerable_during_shutdown() {
    use std::io::Write;

    let path = temp_store();
    let (model, g) = trained_model();
    let server = start_server(&path);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.register_model(&model).expect("register");
    client
        .explain(&explain_request(&g, false))
        .expect("explain");
    let list = client.list_explanations().expect("list");

    // A handler closes its connection at the next frame *boundary* after
    // stop, but a frame that has begun arriving is always read to
    // completion — so splitting the fetch around the stop guarantees
    // serve_request sees the stop flag with a store read in hand, which is
    // exactly the gate under test (read-only frames answer like
    // Stats/Trace instead of `ShuttingDown`).
    let mut sock = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    let frame = revelio_server::wire::encode_frame(
        &revelio_server::Request::FetchExplanation(list[0].job_id).encode(),
        revelio_server::MAX_FRAME_LEN,
    )
    .expect("encode");
    sock.write_all(&frame[..7]).expect("first half");
    sock.flush().expect("flush");
    // Let the handler consume the half-frame so it is committed to it.
    std::thread::sleep(std::time::Duration::from_millis(300));
    server.stop();
    sock.write_all(&frame[7..]).expect("second half");
    sock.flush().expect("flush");
    let (payload, _) = revelio_server::wire::read_frame(&mut sock, revelio_server::MAX_FRAME_LEN)
        .expect("response frame")
        .expect("response before close");
    match revelio_server::Response::decode(&payload).expect("decode") {
        revelio_server::Response::Explanation(Some(rec)) => {
            assert_eq!(rec.job_id, list[0].job_id);
        }
        other => panic!(
            "expected the stored explanation during shutdown, got {:?}",
            std::mem::discriminant(&other)
        ),
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn unknown_job_id_fetches_none() {
    let path = temp_store();
    let server = start_server(&path);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client.fetch_explanation(10_000).expect("fetch").is_none());
    assert!(client.list_explanations().expect("list").is_empty());
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn protocol_version_is_v9() {
    let path = temp_store();
    let server = start_server(&path);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.ping().expect("ping"), 9);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
