//! End-to-end gateway tests over real in-process backends: locality
//! parity, failover, and recovery with registration replay.
//!
//! The acceptance properties from ISSUE 9:
//!
//! * artifact-cache hit-rate under gateway routing is within 5% of
//!   single-backend routing for a repeated-key workload;
//! * after one shard dies, all subsequent requests succeed and the dead
//!   shard's keys are served by exactly its deterministic ring successor;
//! * a recovered shard is re-admitted with the registration log replayed.

#![allow(clippy::unwrap_used)]

use std::time::{Duration, Instant};

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::Effort;
use revelio_gateway::{route_key, Gateway, GatewayConfig, Ring};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::RuntimeConfig;
use revelio_server::{Client, ExplainRequest, Server, ServerConfig};

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

fn start_backend(addr: &str) -> Server {
    Server::start(ServerConfig {
        addr: addr.to_owned(),
        runtime: RuntimeConfig {
            workers: 1,
            seed: 42,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("backend starts")
}

fn start_gateway(shards: Vec<String>) -> Gateway {
    Gateway::start(GatewayConfig {
        shards,
        health_interval: Duration::from_millis(100),
        fail_after: 2,
        ..GatewayConfig::default()
    })
    .expect("gateway starts")
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

/// The repeated-key workload: every `(graph_id, target)` pair.
fn workload_keys(graphs: &[Graph]) -> Vec<(u64, Target)> {
    let mut keys = Vec::new();
    for gid in 0..graphs.len() as u64 {
        for v in 0..5 {
            keys.push((gid, Target::Node(v)));
        }
    }
    keys
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Consistent-hash routing preserves the artifact-cache hit rate a single
/// backend would see: every repeat of a key lands on the shard that
/// already holds its artifacts.
#[test]
fn gateway_cache_hit_rate_matches_single_backend_within_5_percent() {
    let (model, graphs) = trained_model();
    let keys = workload_keys(&graphs);
    const REPEATS: usize = 3;

    // Direct: one backend, no gateway.
    let direct_rate = {
        let server = start_backend("127.0.0.1:0");
        let mut client = Client::connect(server.local_addr()).unwrap();
        let id = client.register_model(&model).unwrap();
        for _ in 0..REPEATS {
            for &(gid, target) in &keys {
                let req = explain_request(id, &graphs[gid as usize], gid, target);
                client.explain_with_retry(&req).unwrap();
            }
        }
        let stats = client.stats().unwrap();
        server.shutdown();
        hit_rate(stats.runtime.cache_hits, stats.runtime.cache_misses)
    };

    // Gateway over three shards, same workload.
    let (gateway_rate, fleet_rate) = {
        let servers: Vec<Server> = (0..3).map(|_| start_backend("127.0.0.1:0")).collect();
        let shards: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
        let gateway = start_gateway(shards);
        let mut client = Client::connect(gateway.local_addr()).unwrap();
        let id = client.register_model(&model).unwrap();
        for _ in 0..REPEATS {
            for &(gid, target) in &keys {
                let req = explain_request(id, &graphs[gid as usize], gid, target);
                client.explain_with_retry(&req).unwrap();
            }
        }
        let (merged, tail) = client.stats_full().unwrap();
        let tail = tail.expect("gateway stats tail");
        for s in &servers {
            s.stop();
        }
        gateway.shutdown();
        (
            hit_rate(merged.runtime.cache_hits, merged.runtime.cache_misses),
            tail.fleet_cache_hit_rate(),
        )
    };

    assert!(
        direct_rate > 0.5,
        "repeated-key workload should mostly hit ({direct_rate})"
    );
    assert!(
        (direct_rate - gateway_rate).abs() <= 0.05,
        "gateway hit rate {gateway_rate} strays from direct {direct_rate}"
    );
    // The tail's rollup (computed from health-poll counters) agrees with
    // the live merged snapshot.
    assert!(
        (fleet_rate - gateway_rate).abs() <= 0.05,
        "fleet rollup {fleet_rate} strays from merged {gateway_rate}"
    );
}

/// Kill one shard mid-workload: every subsequent request still succeeds,
/// the dead shard's keys are served by exactly the ring successor, live
/// shards' keys never move, and the gateway marks the victim down.
#[test]
fn failover_reroutes_dead_shards_keys_to_the_ring_successor() {
    let (model, graphs) = trained_model();
    let keys = workload_keys(&graphs);

    let mut servers: Vec<Option<Server>> =
        (0..3).map(|_| Some(start_backend("127.0.0.1:0"))).collect();
    let shards: Vec<String> = servers
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr().to_string())
        .collect();
    let cfg_vnodes = GatewayConfig::default().vnodes;
    let gateway = start_gateway(shards);
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let id = client.register_model(&model).unwrap();

    // The test computes routing with its own ring — identical inputs,
    // identical ring — to predict where every key lands.
    let ring = Ring::new(3, cfg_vnodes);
    let all_alive = [true, true, true];
    let owner_of = |gid: u64, target: Target, alive: &[bool]| {
        ring.owner(route_key(id, gid, target), alive).unwrap()
    };

    // Pass 1: every key once; forwarded counters must match the ring.
    for &(gid, target) in &keys {
        let req = explain_request(id, &graphs[gid as usize], gid, target);
        client.explain_with_retry(&req).unwrap();
    }
    let mut expected_pass1 = [0u64; 3];
    for &(gid, target) in &keys {
        expected_pass1[owner_of(gid, target, &all_alive)] += 1;
    }
    let after_pass1 = gateway.gateway_stats();
    for (shard, b) in after_pass1.backends.iter().enumerate() {
        assert_eq!(
            b.forwarded, expected_pass1[shard],
            "pass 1: shard {shard} served an unexpected number of keys"
        );
    }

    // Kill the shard that owns the most keys (certainly at least one).
    let victim = (0..3).max_by_key(|&s| expected_pass1[s]).unwrap();
    assert!(expected_pass1[victim] >= 2, "victim owns too few keys");
    servers[victim].take().unwrap().shutdown();
    let mut alive_after = [true, true, true];
    alive_after[victim] = false;

    // Pass 2: every key again; all must succeed despite the dead shard.
    for &(gid, target) in &keys {
        let req = explain_request(id, &graphs[gid as usize], gid, target);
        client
            .explain_with_retry(&req)
            .expect("request lost during failover");
    }

    // The victim served nothing new; every key's pass-2 owner is the
    // deterministic ring choice with the victim excluded, so per-shard
    // forwarded deltas equal the recomputed distribution exactly (the
    // moved keys land on exactly one successor each).
    let mut expected_pass2 = [0u64; 3];
    for &(gid, target) in &keys {
        expected_pass2[owner_of(gid, target, &alive_after)] += 1;
    }
    assert_eq!(expected_pass2[victim], 0);
    let after_pass2 = gateway.gateway_stats();
    for (shard, b) in after_pass2.backends.iter().enumerate() {
        assert_eq!(
            b.forwarded - after_pass1.backends[shard].forwarded,
            expected_pass2[shard],
            "pass 2: shard {shard} served an unexpected number of keys"
        );
    }
    // Sanity: some keys actually moved (the victim owned the most).
    assert!(expected_pass1[victim] > 0);

    // The victim accumulated consecutive transport failures and is
    // marked down (fail_after = 2, and it owned >= 2 keys).
    assert!(
        !after_pass2.backends[victim].healthy,
        "victim should be marked unhealthy after repeated failures"
    );
    assert_eq!(after_pass2.healthy_backends(), 2);

    for s in servers.iter_mut().filter_map(Option::take) {
        s.stop();
    }
    gateway.shutdown();
}

/// A shard that comes back is re-admitted: the gateway replays the
/// registration log into the fresh process and routes its keys home
/// again.
#[test]
fn recovered_shard_is_readmitted_with_registrations_replayed() {
    let (model, graphs) = trained_model();

    let mut servers: Vec<Option<Server>> =
        (0..2).map(|_| Some(start_backend("127.0.0.1:0"))).collect();
    let shards: Vec<String> = servers
        .iter()
        .map(|s| s.as_ref().unwrap().local_addr().to_string())
        .collect();
    let cfg_vnodes = GatewayConfig::default().vnodes;
    let gateway = start_gateway(shards.clone());
    let mut client = Client::connect(gateway.local_addr()).unwrap();
    let id = client.register_model(&model).unwrap();

    // Find a key owned by shard 0.
    let ring = Ring::new(2, cfg_vnodes);
    let (gid, target) = (0..graphs.len() as u64)
        .flat_map(|g| (0..5).map(move |v| (g, Target::Node(v))))
        .find(|&(g, t)| ring.owner(route_key(id, g, t), &[true, true]) == Some(0))
        .expect("some key lands on shard 0");
    let req = explain_request(id, &graphs[gid as usize], gid, target);
    let baseline = client.explain_with_retry(&req).unwrap();

    // Kill shard 0 and wait until the gateway notices (health polls every
    // 100ms; fail_after is 2).
    servers[0].take().unwrap().shutdown();
    let deadline = Instant::now() + Duration::from_secs(10);
    while gateway.gateway_stats().backends[0].healthy {
        assert!(
            Instant::now() < deadline,
            "gateway never marked shard 0 down"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Its keys are served by the survivor meanwhile.
    client.explain_with_retry(&req).unwrap();

    // Restart a fresh, empty backend on the same port. The old process
    // may leave the port in TIME_WAIT briefly; retry the bind.
    let restarted = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match Server::start(ServerConfig {
                addr: shards[0].clone(),
                runtime: RuntimeConfig {
                    workers: 1,
                    seed: 42,
                    ..Default::default()
                },
                ..Default::default()
            }) {
                Ok(s) => break s,
                Err(e) => {
                    assert!(
                        Instant::now() < deadline,
                        "could not rebind shard 0's port: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
    };

    // The gateway re-admits it after a successful poll + replay.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !gateway.gateway_stats().backends[0].healthy {
        assert!(Instant::now() < deadline, "shard 0 was never re-admitted");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Its keys route home again — which only works if the registration
    // was replayed into the fresh process — and the answer matches the
    // pre-failure one bit for bit (same seed, same submission stream
    // shape: first explain of this key on a cold runtime).
    let before = gateway.gateway_stats().backends[0].forwarded;
    let again = client.explain_with_retry(&req).unwrap();
    let after = gateway.gateway_stats().backends[0].forwarded;
    assert_eq!(after, before + 1, "key did not route back to shard 0");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&again.edge_scores), bits(&baseline.edge_scores));

    restarted.stop();
    for s in servers.iter_mut().filter_map(Option::take) {
        s.stop();
    }
    gateway.shutdown();
}

/// An idle gateway's acceptor blocks in `accept`; `shutdown` must wake it
/// and join the acceptor, the health poller and every handler within a
/// second.
#[test]
fn idle_gateway_shuts_down_within_a_second() {
    let backend = start_backend("127.0.0.1:0");
    let gateway = start_gateway(vec![backend.local_addr().to_string()]);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        gateway.shutdown();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(1))
        .expect("idle gateway did not shut down within 1 s");
    backend.shutdown();
}
