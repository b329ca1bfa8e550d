//! `hot-repeat`: one client drives `revelio-gateway` in front of two
//! in-process shards (1 worker each, each with its own fresh store log).
//! The measured phase makes repeated passes over 64 Tree-Cycles GCN keys
//! with warm start on, after a cold pass during set-up.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use revelio_core::ConvergedMask;
use revelio_gateway::{route_key, Gateway, GatewayConfig, Ring};
use revelio_gnn::GnnKind;
use revelio_runtime::RuntimeConfig;
use revelio_server::{Client, ExplainRequest, Server, ServerConfig, ServerStats};

use crate::fixtures::{self, Fixture};
use crate::harness::{
    check_served, hit_rate, request, set_replay_layers, sufficiency, Args, RunStats, ServedTimes,
};
use crate::layers;
use crate::reference::RefPool;
use crate::report::{mean, median, Digest, Tally};
use crate::spans::Spans;
use crate::sys;

/// Distinct keys. With 32, the median request landed on a different
/// warm-start regime depending on which keys a seed drew.
const KEYS: usize = 64;
const SHARDS: usize = 2;
/// At least this many passes (128 requests), so ten lie beyond p90.
const MIN_PASSES: usize = 2;
/// Nominal pass time at reference speed; sets the pass count.
const NOMINAL_PASS_S: f64 = 0.15;
const SETUPS: usize = 5;
const TRACED_PASSES: usize = 4;
/// Passes over the keys that measure the gateway hop (traced run).
const HOP_ROUNDS: usize = 2;

struct Fleet {
    shards: Vec<Server>,
    gateway: Gateway,
    client: Client,
    model: u32,
    logs: Vec<PathBuf>,
}

impl Fleet {
    fn shard_stats(&self) -> ServerStats {
        let mut total = self.shards[0].stats();
        for s in &self.shards[1..] {
            total.merge(&s.stats());
        }
        total
    }

    fn teardown(self) -> (ServerStats, u64) {
        drop(self.client);
        let gw = self.gateway.shutdown();
        let mut shards = self.shards.into_iter().map(Server::shutdown);
        let mut total = shards.next().expect("at least one shard");
        for s in shards {
            total.merge(&s);
        }
        for log in &self.logs {
            let _ = std::fs::remove_file(log);
        }
        (total, gw.rerouted)
    }
}

fn requests(fx: &Fixture, model: u32) -> Vec<ExplainRequest> {
    fx.picks
        .iter()
        .enumerate()
        .map(|(k, pick)| request(model, k as u64, pick, true))
        .collect()
}

/// Shards with fresh stores → gateway → connect → register → one cold
/// pass over every key. Returns the fleet, the cold pass's digest and
/// the connect time (ms).
fn setup(
    fx: &Fixture,
    seed: u64,
    dir: &Path,
    warmup: &mut Tally,
) -> Result<(Fleet, Digest, f64), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("store dir: {e}"))?;
    let logs: Vec<PathBuf> = (0..SHARDS)
        .map(|k| dir.join(format!("store-{}-{k}.log", std::process::id())))
        .collect();
    let mut shards = Vec::new();
    for log in &logs {
        let _ = std::fs::remove_file(log);
        shards.push(
            Server::start(ServerConfig {
                runtime: RuntimeConfig {
                    workers: 1,
                    seed,
                    ..RuntimeConfig::default()
                },
                store: Some(log.clone()),
                ..ServerConfig::default()
            })
            .map_err(|e| format!("shard start: {e}"))?,
        );
    }
    let gateway = Gateway::start(GatewayConfig {
        shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
        ..GatewayConfig::default()
    })
    .map_err(|e| format!("gateway start: {e}"))?;
    let t = Instant::now();
    let mut client = Client::connect(gateway.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    let connect_ms = t.elapsed().as_secs_f64() * 1e3;
    let model = client
        .register_model(&fx.model)
        .map_err(|e| format!("register: {e}"))?;
    let mut digest = Digest::default();
    for (req, pick) in requests(fx, model).iter().zip(&fx.picks) {
        let answer = check_served(client.explain_with_retry(req), pick);
        warmup.record(&answer);
        digest.scores(&answer?.edge_scores);
    }
    Ok((
        Fleet {
            shards,
            gateway,
            client,
            model,
            logs,
        },
        digest,
        connect_ms,
    ))
}

/// One pass over every key; per-request raw seconds and answers.
fn pass(
    client: &mut Client,
    reqs: &[ExplainRequest],
    mut spans: Option<(&mut Spans, u64)>,
) -> Vec<(
    f64,
    Result<revelio_server::ServedExplanation, revelio_server::ClientError>,
)> {
    reqs.iter()
        .enumerate()
        .map(|(k, req)| {
            let id = spans
                .as_mut()
                .map(|(s, base)| s.open("bench.request", *base + k as u64));
            let t = Instant::now();
            let answer = client.explain_with_retry(req);
            let raw = t.elapsed().as_secs_f64();
            if let (Some((s, _)), Some(id)) = (spans.as_mut(), id) {
                s.close(id);
            }
            (raw, answer)
        })
        .collect()
}

pub fn run(args: &Args, pool: &mut RefPool, stats: &mut RunStats) -> Result<(), String> {
    let fx = fixtures::tree_cycles(args.seed, GnnKind::Gcn, KEYS);
    stats.layers.set("datasets.generate_s", fx.generate_s);
    stats.layers.set("gnn.train_s", fx.train_s);
    stats.layers.set("eval.sample_s", fx.sample_s);
    sys::reset_peak_rss();
    let dir = crate::out_dir();

    let mut live: Option<Fleet> = None;
    let mut warm_digest: Option<String> = None;
    let mut connect_ms = Vec::new();
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            old.teardown();
        }
        pool.invalidate();
        let (res, raw, f) = pool.unit(|| setup(&fx, args.seed, &dir, &mut stats.warmup));
        let (fleet, digest, ms) = res?;
        stats.setup(raw, f);
        connect_ms.push(ms);
        stats.same_as_first_setup(&mut warm_digest, &digest);
        live = Some(fleet);
    }
    let mut fleet = live.ok_or("no set-up ran")?;
    stats.layers.set("server.connect_ms", mean(&connect_ms));

    let reqs = requests(&fx, fleet.model);
    let passes = MIN_PASSES.max((args.seconds as f64 / NOMINAL_PASS_S).ceil() as usize);
    let before = fleet.shard_stats();
    let cpu0 = sys::cpu_seconds_excluding(&pool.tids());
    let mut served_times = ServedTimes::default();
    let mut last_pass = Vec::new();
    for p in 0..passes {
        let (answers, raw, f) = pool.unit(|| pass(&mut fleet.client, &reqs, None));
        stats.measured.unit(0, raw, f, KEYS as u64);
        last_pass.clear();
        for (k, ((rtt, answer), pick)) in answers.into_iter().zip(&fx.picks).enumerate() {
            stats.measured.latency(rtt, f);
            let answer = check_served(answer, pick);
            stats.tally.record(&answer);
            match answer {
                Ok(served) => {
                    served_times.add(rtt, f, &served);
                    stats.digest.scores(&served.edge_scores);
                    last_pass.push((k, served.edge_scores));
                }
                Err(e) => stats.problem(format!("pass {p} key {k}: {e}")),
            }
        }
    }
    stats.measured.cpu_s = sys::cpu_seconds_excluding(&pool.tids()) - cpu0;
    stats.peak_rss_mb = sys::peak_rss_mb();
    let after = fleet.shard_stats();
    served_times.set_layers(&mut stats.layers);
    let requests = (after.requests - before.requests).max(1) as f64;
    let bytes = (after.bytes_in + after.bytes_out - before.bytes_in - before.bytes_out) as f64;
    stats.layers.set("server.bytes_per_req", bytes / requests);
    let (rt0, rt1) = (&before.runtime, &after.runtime);
    stats.layers.set(
        "runtime.cache_hit_rate",
        hit_rate(
            rt1.cache_hits - rt0.cache_hits,
            rt1.cache_misses - rt0.cache_misses,
        ),
    );
    stats.layers.set(
        "store.hit_rate",
        hit_rate(
            rt1.store_hits - rt0.store_hits,
            rt1.store_misses - rt0.store_misses,
        ),
    );
    let log_bytes: u64 = fleet
        .logs
        .iter()
        .filter_map(|l| std::fs::metadata(l).ok())
        .map(|m| m.len())
        .sum();
    stats.layers.set(
        "store.log_bytes_per_expl",
        log_bytes as f64 / rt1.jobs_completed.max(1) as f64,
    );
    stats.layers.set("runtime.batch_size_mean", 1.0);

    pool.invalidate();
    for (k, scores) in &last_pass {
        stats
            .sufficiency
            .push(sufficiency(&fx.model, &fx.picks[*k], scores));
    }

    if args.trace {
        traced(args, pool, stats, &fx, &mut fleet, &reqs);
    }
    let gw = fleet.gateway.gateway_stats();
    if gw.healthy_backends() != SHARDS {
        stats.problem(format!(
            "{} of {SHARDS} shards healthy",
            gw.healthy_backends()
        ));
    }
    let (last, rerouted) = fleet.teardown();
    stats.layers.set("gateway.rerouted", rerouted as f64);
    if rerouted > 0 {
        stats.problem(format!("gateway rerouted {rerouted} requests"));
    }
    if last.protocol_errors > 0 {
        stats.problem(format!("{} protocol errors", last.protocol_errors));
    }
    Ok(())
}

/// Traced passes, each next to an untraced one in alternating order, with
/// a replay of every key after each pair (warm-started from the previous
/// replay's converged mask, as the store seeds the serving path); then
/// the gateway hop: the same keys through the gateway and directly to
/// the shard the ring assigns them.
fn traced(
    args: &Args,
    pool: &mut RefPool,
    stats: &mut RunStats,
    fx: &Fixture,
    fleet: &mut Fleet,
    reqs: &[ExplainRequest],
) {
    let mut spans = Spans::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut replays, mut replay_factors) = (Vec::new(), Vec::new());
    let mut masks: HashMap<usize, Arc<ConvergedMask>> = HashMap::new();
    pool.invalidate();
    for p in 0..TRACED_PASSES {
        let base = (p * KEYS) as u64;
        for traced in [p % 2 == 0, p % 2 == 1] {
            let span_base = traced.then_some((&mut spans, base));
            let (answers, raw, f) = pool.unit(|| pass(&mut fleet.client, reqs, span_base));
            *if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            } += raw * f;
            for ((_, answer), pick) in answers.into_iter().zip(&fx.picks) {
                let answer = check_served(answer, pick);
                stats.traced.record(&answer);
                if let Err(e) = answer {
                    stats.problem(format!("traced pass {p}: {e}"));
                }
            }
        }
        let (pass_replays, _, rf) = pool.unit(|| {
            fx.picks
                .iter()
                .enumerate()
                .map(|(k, pick)| {
                    let warm = masks.get(&k).cloned().or_else(|| {
                        // First sight of a key: the cold run the set-up made.
                        let mut scratch = Spans::default();
                        layers::replay(&mut scratch, 0, &fx.model, &fx.full, pick, args.seed, None)
                            .converged
                            .map(Arc::new)
                    });
                    let r = layers::replay(
                        &mut spans,
                        base + k as u64,
                        &fx.model,
                        &fx.full,
                        pick,
                        args.seed,
                        warm,
                    );
                    if let Some(m) = &r.converged {
                        masks.insert(k, Arc::new(m.clone()));
                    }
                    r
                })
                .collect::<Vec<_>>()
        });
        replays.extend(pass_replays);
        replay_factors.push(rf);
    }
    set_replay_layers(&mut stats.layers, &replays, mean(&replay_factors));
    stats.layers.set(
        "bench.trace_overhead_pct",
        crate::harness::trace_overhead_pct(untraced_s, traced_s),
    );

    // Gateway hop: time outside the serving shard (RTT minus the shard's
    // own total) through the gateway, minus the same direct to the owner.
    let ring = Ring::new(SHARDS, GatewayConfig::default().vnodes);
    let mut direct: Vec<Client> = Vec::new();
    for s in &fleet.shards {
        match Client::connect(s.local_addr()) {
            Ok(c) => direct.push(c),
            Err(e) => {
                stats.problem(format!("direct connect: {e}"));
                return;
            }
        }
    }
    let (mut via, mut straight) = (Vec::new(), Vec::new());
    for round in 0..HOP_ROUNDS {
        for (k, (req, pick)) in reqs.iter().zip(&fx.picks).enumerate() {
            let key = route_key(req.model, req.graph_id, req.target);
            let Some(owner) = ring.owner(key, &[true; SHARDS]) else {
                stats.problem("ring has no owner".to_owned());
                return;
            };
            for through_gateway in [(round + k) % 2 == 0, (round + k) % 2 == 1] {
                let client = if through_gateway {
                    &mut fleet.client
                } else {
                    &mut direct[owner]
                };
                let (answer, raw, f) = pool.unit(|| client.explain_with_retry(req));
                let answer = check_served(answer, pick);
                stats.traced.record(&answer);
                match answer {
                    Ok(s) => {
                        let outside_ms = (raw * 1e3 - s.timing.total_us as f64 * 1e-3) * f;
                        if through_gateway {
                            via.push(outside_ms);
                        } else {
                            straight.push(outside_ms);
                        }
                    }
                    Err(e) => stats.problem(format!("gateway hop request: {e}")),
                }
            }
        }
    }
    stats
        .layers
        .set("gateway.hop_ms", median(&via) - median(&straight));
    crate::write_spans(&spans, args);
}
