//! End-to-end loopback tests: a real TCP server over the real runtime.
//!
//! The acceptance properties from the serving design:
//!
//! * scores served over the wire are bit-identical to an in-process
//!   runtime fed the same job stream with the same seed;
//! * a request past the admission limit is answered `Busy`, not queued;
//! * deadline-degraded answers carry their [`Degradation`] flags across
//!   the wire;
//! * graceful shutdown drains in-flight jobs (the blocked client still
//!   gets its complete answer) and joins every thread.

#![allow(clippy::unwrap_used)]

use std::io::{Read, Write};
use std::time::Duration;

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::{method_factory, Effort};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::prometheus::parse_exposition;
use revelio_runtime::{ExplainJob, Runtime, RuntimeConfig};
use revelio_server::{
    Client, ClientConfig, ClientError, ErrorKind, ExplainRequest, Server, ServerConfig,
};
use revelio_trace::Phase;

/// A small trained model and a family of path graphs to explain.
fn trained_model() -> (Gnn, Vec<Graph>) {
    let graphs: Vec<Graph> = (0..4)
        .map(|variant| {
            let mut b = Graph::builder(5, 2);
            b.undirected_edge(0, 1)
                .undirected_edge(1, 2)
                .undirected_edge(2, 3)
                .undirected_edge(3, 4);
            if variant % 2 == 1 {
                b.undirected_edge(0, 2);
            }
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

fn start_server(workers: usize, seed: u64, max_in_flight: usize) -> Server {
    Server::start(ServerConfig {
        runtime: RuntimeConfig {
            workers,
            seed,
            ..Default::default()
        },
        max_in_flight,
        ..Default::default()
    })
    .expect("server starts")
}

fn explain_request(
    model: u32,
    graph: &Graph,
    graph_id: u64,
    control: ControlSpec,
) -> ExplainRequest {
    ExplainRequest {
        model,
        graph_id,
        method: "REVELIO".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target: Target::Node(2),
        control,
        graph: graph.clone(),
        context: None,
    }
}

/// Scores served over loopback TCP are bit-identical to an in-process
/// runtime fed the same submission stream with the same base seed.
#[test]
fn wire_scores_match_in_process_bit_for_bit() {
    let (model, graphs) = trained_model();

    // In-process reference: same seed, same submission order.
    let local = Runtime::with_config(RuntimeConfig {
        workers: 1,
        seed: 42,
        ..Default::default()
    });
    let handle = local.register_model(&model);
    let jobs: Vec<ExplainJob> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            ExplainJob::flow_based(
                g.clone(),
                Target::Node(2),
                i as u64,
                100_000,
                method_factory("REVELIO", Objective::Factual, Effort::Quick),
            )
        })
        .collect();
    let reference: Vec<(Vec<f32>, Option<Vec<f32>>)> = local
        .explain_batch(handle, jobs)
        .into_iter()
        .map(|r| {
            let out = r.expect("local job served");
            (
                out.explanation.edge_scores,
                out.explanation.flows.map(|f| f.scores),
            )
        })
        .collect();

    // Served over the wire: model shipped by RegisterModel, jobs submitted
    // sequentially on one connection (submission ids 0..n, like the local
    // batch).
    let server = start_server(2, 42, 64);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client.ping().expect("ping"),
        revelio_server::PROTOCOL_VERSION
    );
    let model_id = client.register_model(&model).expect("register");
    for (i, g) in graphs.iter().enumerate() {
        let served = client
            .explain(&explain_request(
                model_id,
                g,
                i as u64,
                ControlSpec::default(),
            ))
            .expect("explain over wire");
        let (ref_edges, ref_flows) = &reference[i];
        let served_bits: Vec<u32> = served.edge_scores.iter().map(|v| v.to_bits()).collect();
        let ref_bits: Vec<u32> = ref_edges.iter().map(|v| v.to_bits()).collect();
        assert_eq!(served_bits, ref_bits, "edge scores diverged on graph {i}");
        let served_flow_bits: Option<Vec<u32>> = served
            .flow_scores
            .map(|s| s.iter().map(|v| v.to_bits()).collect());
        let ref_flow_bits: Option<Vec<u32>> = ref_flows
            .as_ref()
            .map(|s| s.iter().map(|v| v.to_bits()).collect());
        assert_eq!(
            served_flow_bits, ref_flow_bits,
            "flow scores diverged on graph {i}"
        );
        assert!(!served.degradation.is_degraded(), "unexpected degradation");
    }

    let stats = server.shutdown();
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.runtime.jobs_completed, graphs.len() as u64);
}

/// A degenerate admission limit of zero sheds every explanation —
/// deterministic proof of the `Busy` path and the shed counters.
#[test]
fn zero_admission_limit_sheds_everything() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 1, 0);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Registration is not an explanation; it is admitted regardless.
    let model_id = client.register_model(&model).expect("register");
    match client.explain(&explain_request(
        model_id,
        &graphs[0],
        0,
        ControlSpec::default(),
    )) {
        Err(ClientError::Busy { limit, .. }) => assert_eq!(limit, 0),
        other => panic!("expected Busy, got {other:?}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.runtime.jobs_rejected, 1);
    assert_eq!(
        stats.runtime.jobs_submitted, 0,
        "a shed job must never queue"
    );
}

/// A request arriving while the only slot is held is answered `Busy`
/// without queueing, and the retrying helper eventually gets through.
#[test]
fn admission_limit_answers_busy() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 1, 1);
    let addr = server.local_addr();

    let mut slow_client = Client::connect(addr).expect("connect");
    let model_id = slow_client.register_model(&model).expect("register");

    // Occupy the single worker with a stream of back-to-back Paper-effort
    // jobs: the worker stays busy for the whole stream (minus loopback
    // round-trip gaps), giving the probe a wide overlap window. The
    // occupier itself retries, because the probe can win a gap and make
    // *it* see Busy.
    let slow_graph = graphs[0].clone();
    let slow = std::thread::spawn(move || {
        for i in 0..20u64 {
            let mut req = explain_request(
                model_id,
                &slow_graph,
                i,
                ControlSpec {
                    deadline_ms: Some(1_000),
                    ..Default::default()
                },
            );
            req.effort = Effort::Paper;
            slow_client.explain_with_retry(&req)?;
        }
        Ok::<(), ClientError>(())
    });

    // Hammer from a second connection: with max_in_flight == 1, any
    // overlap with the occupier's stream is a Busy.
    let mut probe = Client::connect(addr).expect("connect probe");
    let mut saw_busy = false;
    for _ in 0..2_000 {
        if slow.is_finished() {
            break;
        }
        match probe.explain(&explain_request(
            model_id,
            &graphs[1],
            100,
            ControlSpec::default(),
        )) {
            Err(ClientError::Busy { limit, .. }) => {
                assert_eq!(limit, 1);
                saw_busy = true;
                break;
            }
            Ok(_) => {}
            Err(other) => panic!("probe hit a non-Busy failure: {other}"),
        }
    }
    slow.join()
        .expect("slow thread")
        .expect("occupier stream served");
    assert!(saw_busy, "no Busy observed while jobs held the only slot");

    // The retry helper rides out transient Busy answers.
    let served = probe
        .explain_with_retry(&explain_request(
            model_id,
            &graphs[2],
            2,
            ControlSpec::default(),
        ))
        .expect("retry eventually succeeds");
    assert_eq!(served.edge_scores.len(), graphs[2].num_edges());

    let stats = server.shutdown();
    assert!(stats.shed >= 1, "shed counter did not move: {}", stats.shed);
    assert!(stats.runtime.jobs_rejected >= 1);
}

/// A deadline that trips mid-optimisation yields a degraded answer whose
/// flags survive the trip across the wire.
#[test]
fn deadline_degradation_crosses_the_wire() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 5, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");

    let mut req = explain_request(
        model_id,
        &graphs[0],
        0,
        ControlSpec {
            deadline_ms: Some(1),
            ..Default::default()
        },
    );
    // Paper effort plans 500 epochs; a 1 ms budget cannot finish them.
    req.effort = Effort::Paper;
    let served = client.explain(&req).expect("explain");
    assert!(served.degradation.deadline_hit, "deadline flag lost");
    assert!(
        served.degradation.epochs_run < served.degradation.epochs_planned,
        "ran {} of {} epochs yet claims a deadline hit",
        served.degradation.epochs_run,
        served.degradation.epochs_planned
    );
    assert_eq!(served.degradation.epochs_planned, 500);
    assert_eq!(served.edge_scores.len(), graphs[0].num_edges());

    let stats = server.shutdown();
    assert_eq!(stats.runtime.jobs_degraded, 1);
}

/// Shutdown requested while a job is running: the blocked client still
/// receives its complete answer (drain), then every thread joins.
#[test]
fn graceful_shutdown_drains_in_flight_jobs() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 3, 8);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    let model_id = client.register_model(&model).expect("register");

    let graph = graphs[0].clone();
    let in_flight = std::thread::spawn(move || {
        client.explain(&explain_request(
            model_id,
            &graph,
            0,
            ControlSpec {
                deadline_ms: Some(1_000),
                ..Default::default()
            },
        ))
    });

    // Wait until the job is actually on a worker, then ask for shutdown
    // from a second connection.
    for _ in 0..200 {
        if server.stats().runtime.jobs_started >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        server.stats().runtime.jobs_started >= 1,
        "job never started"
    );
    let mut admin = Client::connect(addr).expect("connect admin");
    admin.shutdown().expect("shutdown ack");

    let served = in_flight
        .join()
        .expect("client thread")
        .expect("in-flight job drained to completion");
    assert_eq!(served.edge_scores.len(), graphs[0].num_edges());

    // `shutdown` on the handle joins acceptor + handlers; afterwards the
    // port no longer accepts.
    let stats = server.shutdown();
    assert_eq!(stats.runtime.jobs_completed, 1);
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
            || std::net::TcpStream::connect(addr)
                .and_then(|mut s| {
                    // A listener backlog can still accept; but nothing
                    // serves it: the read must see EOF, not a response.
                    s.write_all(
                        &revelio_server::wire::encode_frame(
                            &revelio_server::Request::Ping.encode(),
                            1024,
                        )
                        .unwrap(),
                    )?;
                    let mut buf = [0u8; 1];
                    let n = s.read(&mut buf)?;
                    Ok(n == 0)
                })
                .unwrap_or(true)
    );
}

/// Requests after the stop flag is set are refused with `ShuttingDown`.
#[test]
fn requests_after_stop_are_refused() {
    let (model, _graphs) = trained_model();
    let server = start_server(1, 11, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");
    server.stop();
    match client.register_model(&model) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::ShuttingDown),
        // The handler may already have exited between frames, surfacing as
        // EOF instead of a refusal — also a correct way to stop serving.
        Err(ClientError::Wire(_)) => {}
        Err(other) => panic!("unexpected failure mode: {other}"),
        Ok(_) => panic!("request served after stop"),
    }
    let _ = model_id;
    server.shutdown();
}

/// Garbage on the socket is counted, answered with a typed error, and the
/// connection is closed — the server survives.
#[test]
fn protocol_garbage_is_survivable() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 13, 8);
    let addr = server.local_addr();

    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    let mut buf = Vec::new();
    let _ = raw.read_to_end(&mut buf); // server answers an error frame and closes
    drop(raw);

    // The server still serves real clients afterwards.
    let mut client = Client::connect(addr).expect("connect");
    let model_id = client.register_model(&model).expect("register");
    let served = client
        .explain(&explain_request(
            model_id,
            &graphs[0],
            0,
            ControlSpec::default(),
        ))
        .expect("explain after garbage");
    assert_eq!(served.edge_scores.len(), graphs[0].num_edges());

    let stats = server.shutdown();
    assert!(stats.protocol_errors >= 1);
}

/// Typed refusals: unknown model, unknown method, group-level method,
/// malformed target.
#[test]
fn typed_refusals() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 17, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");

    let kind_of = |r: Result<revelio_server::ServedExplanation, ClientError>| match r {
        Err(ClientError::Server { kind, .. }) => kind,
        other => panic!("expected a server error, got {other:?}"),
    };

    let bad_model = explain_request(model_id + 99, &graphs[0], 0, ControlSpec::default());
    assert_eq!(kind_of(client.explain(&bad_model)), ErrorKind::UnknownModel);

    let mut bad_method = explain_request(model_id, &graphs[0], 0, ControlSpec::default());
    bad_method.method = "Oracle".to_owned();
    assert_eq!(
        kind_of(client.explain(&bad_method)),
        ErrorKind::UnknownMethod
    );

    let mut group = explain_request(model_id, &graphs[0], 0, ControlSpec::default());
    group.method = "PGExplainer".to_owned();
    assert_eq!(kind_of(client.explain(&group)), ErrorKind::GroupLevelMethod);

    let mut bad_target = explain_request(model_id, &graphs[0], 0, ControlSpec::default());
    bad_target.target = Target::Node(999);
    assert_eq!(kind_of(client.explain(&bad_target)), ErrorKind::Malformed);

    // The connection is still healthy after four refusals.
    let served = client
        .explain(&explain_request(
            model_id,
            &graphs[0],
            0,
            ControlSpec::default(),
        ))
        .expect("explain after refusals");
    assert_eq!(served.edge_scores.len(), graphs[0].num_edges());
    server.shutdown();
}

/// A graph whose feature width is not the model's input width is refused
/// as `Malformed` before it is queued, and the server goes on explaining.
#[test]
fn wrong_feature_width_is_refused_and_serving_continues() {
    let (model, graphs) = trained_model();
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");

    let mut b = Graph::builder(5, 3);
    b.undirected_edge(0, 1)
        .undirected_edge(1, 2)
        .undirected_edge(2, 3);
    b.node_features(2, &[1.0, 0.0, 0.5]);
    let wide = b.build();
    match client.explain(&explain_request(model_id, &wide, 9, ControlSpec::default())) {
        Err(ClientError::Server { kind, message }) => {
            assert_eq!(kind, ErrorKind::Malformed);
            assert!(message.contains("3 features per node"), "{message}");
        }
        other => panic!("expected a Malformed refusal, got {other:?}"),
    }

    for (i, g) in graphs.iter().enumerate().take(2) {
        let served = client
            .explain(&explain_request(
                model_id,
                g,
                i as u64,
                ControlSpec::default(),
            ))
            .expect("a valid request after the refusal");
        assert_eq!(served.edge_scores.len(), g.num_edges());
    }
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.runtime.jobs_submitted, 2,
        "the refusal was never queued"
    );
    assert_eq!(stats.runtime.jobs_completed, 2);
    assert_eq!(stats.runtime.jobs_failed, 0);
    server.shutdown();
}

/// `Stats` over the wire reflects the work done and folds wire counters
/// together with the runtime registry.
#[test]
fn wire_stats_are_unified() {
    let (model, graphs) = trained_model();
    let server = start_server(2, 23, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");
    for (i, g) in graphs.iter().enumerate().take(2) {
        client
            .explain(&explain_request(
                model_id,
                g,
                i as u64,
                ControlSpec::default(),
            ))
            .expect("explain");
    }
    let stats = client.stats().expect("stats over wire");
    assert_eq!(stats.runtime.jobs_completed, 2);
    assert!(stats.requests >= 3); // register + 2 explains
    assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    assert_eq!(stats.connections_active, 1);
    let report = stats.report();
    assert!(report.contains("server metrics"));
    assert!(report.contains("runtime metrics"));
    server.shutdown();
}

/// A traced explain over loopback TCP returns a retrievable assembled
/// trace whose per-phase spans are all present and whose epoch events
/// agree with both the degradation report and the runtime's epoch counter
/// delta.
#[test]
fn traced_explain_returns_per_phase_spans() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 29, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");

    let before = client.stats().expect("stats before");
    let served = client
        .explain(&explain_request(
            model_id,
            &graphs[0],
            0,
            ControlSpec {
                trace: true,
                ..Default::default()
            },
        ))
        .expect("traced explain");
    let trace_id = served.trace_id.expect("traced request echoes a trace id");
    let after = client.stats().expect("stats after");

    let trace = client
        .assembled_trace(Some([0, trace_id]))
        .expect("trace retained on the server");
    assert_eq!(trace.trace_lo, trace_id);
    assert_eq!(trace.lanes.len(), 1, "a backend answers with its own lane");
    for phase in [
        Phase::Extraction,
        Phase::FlowIndex,
        Phase::Optimize,
        Phase::Readout,
    ] {
        assert!(
            trace.spans.iter().any(|s| s.name == phase.name()),
            "phase {} has no completed span",
            phase.name()
        );
    }
    let losses = trace.losses(0);
    assert_eq!(
        losses.len(),
        served.degradation.epochs_run,
        "trace epoch events disagree with the degradation report"
    );
    assert_eq!(
        losses.len() as u64,
        after.runtime.epochs_total - before.runtime.epochs_total,
        "trace epoch events disagree with the runtime counter delta"
    );
    assert!(
        losses.iter().all(|l| l.is_finite()),
        "non-finite loss in trace"
    );

    // Untraced requests pay nothing and echo no id.
    let untraced = client
        .explain(&explain_request(
            model_id,
            &graphs[1],
            1,
            ControlSpec::default(),
        ))
        .expect("untraced explain");
    assert!(untraced.trace_id.is_none());

    // An unknown id is a typed miss, not an empty trace.
    match client.assembled_trace(Some([0, trace_id + 999])) {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, ErrorKind::UnknownTrace),
        other => panic!("expected UnknownTrace, got {other:?}"),
    }
    server.shutdown();
}

/// A fresh server's first traced job has job id 0, and the trace id it
/// echoes is that id. Fetching by it must return that job's trace even
/// while a newer trace is retained: an id is never read as "newest",
/// which has its own request form.
#[test]
fn first_traced_job_is_fetchable_by_its_echoed_id() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 37, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");
    let traced = ControlSpec {
        trace: true,
        ..Default::default()
    };
    let mut served = Vec::new();
    for (i, g) in graphs.iter().enumerate().take(2) {
        let ex = explain_request(model_id, g, i as u64, traced);
        served.push(client.explain(&ex).expect("traced explain"));
    }
    let first = served[0].trace_id.expect("first traced job echoes an id");
    let newest = served[1].trace_id.expect("second traced job echoes an id");
    assert_eq!(first, 0, "a fresh server's first job is job 0");

    let by_id = client
        .assembled_trace(Some([0, first]))
        .expect("first trace retained");
    assert_eq!(
        by_id.trace_lo, first,
        "fetched the trace named, not the newest"
    );
    assert_eq!(by_id.losses(0).len(), served[0].degradation.epochs_run);

    let latest = client.assembled_trace(None).expect("newest trace");
    assert_eq!(latest.trace_lo, newest);
    assert_eq!(latest.losses(0).len(), served[1].degradation.epochs_run);
    server.shutdown();
}

/// `Stats` fetched over the wire renders a Prometheus exposition that the
/// crate's own parser accepts, with the required metric families present.
#[test]
fn wire_stats_render_valid_prometheus() {
    let (model, graphs) = trained_model();
    let server = start_server(1, 31, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let model_id = client.register_model(&model).expect("register");
    client
        .explain(&explain_request(
            model_id,
            &graphs[0],
            0,
            ControlSpec::default(),
        ))
        .expect("explain");

    let stats = client.stats().expect("stats over wire");
    let text = stats.prometheus();
    let exposition = parse_exposition(&text).expect("exposition parses");
    for family in [
        "revelio_jobs_completed_total",
        "revelio_epochs_total",
        "revelio_latency_seconds_explain",
        "revelio_latency_seconds_optimize",
        "revelio_server_requests_total",
        "revelio_server_request_latency_seconds",
    ] {
        assert!(
            exposition.families.contains_key(family),
            "family {family} missing from exposition"
        );
    }
    let completed = exposition.samples_of("revelio_jobs_completed_total");
    assert_eq!(completed.len(), 1);
    assert!(completed[0].2 >= 1.0, "no completed job in exposition");
    server.shutdown();
}

/// The client's connect retry covers the racy "server still binding" window
/// in scripts that start both halves back to back.
#[test]
fn connect_with_retry_reaches_a_late_server() {
    let addr = {
        // Reserve a port, then free it so the server can bind it shortly.
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(120));
        Server::start(ServerConfig {
            addr: addr.to_string(),
            runtime: RuntimeConfig {
                workers: 1,
                ..Default::default()
            },
            ..Default::default()
        })
        .expect("late server starts")
    });
    let mut client = Client::connect_with_retry(
        addr,
        ClientConfig {
            max_attempts: 10,
            backoff_base: Duration::from_millis(30),
            ..Default::default()
        },
    )
    .expect("retrying connect reaches the late server");
    client.ping().expect("ping");
    server_thread.join().expect("server thread").shutdown();
}

/// An idle server's acceptor blocks in `accept`; `shutdown` must wake it
/// and join every thread within a second, also when the listener is bound
/// to the unspecified address (the wake-up then connects over loopback).
#[test]
fn idle_server_shuts_down_within_a_second() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(ServerConfig {
            addr: addr.to_owned(),
            ..Default::default()
        })
        .expect("server starts");
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(1))
            .unwrap_or_else(|_| panic!("idle server on {addr} did not shut down within 1 s"));
    }
}
