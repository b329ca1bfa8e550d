//! `cora-cold`: one client, one in-process server (1 worker, no batching,
//! no store), REVELIO factual at the Quick effort over a fixed sequence
//! of Cora-sim 3-hop GCN instances, a fresh `graph_id` per request.

use std::time::Instant;

use revelio_runtime::RuntimeConfig;
use revelio_server::{Client, Server, ServerConfig};

use crate::fixtures::{self, Fixture, Picked};
use crate::harness::{
    check_served, hit_rate, replay_agrees, request, set_replay_layers, sufficiency, Args, RunStats,
    ServedTimes,
};
use crate::layers;
use crate::reference::RefPool;
use crate::report::{mean, Digest, Tally};
use crate::spans::Spans;
use crate::sys;

/// Distinct instances in the request sequence; each is requested the
/// same number of times, and throughput uses each one's median time.
const DISTINCT: usize = 34;
/// At least this many measured requests, so ten lie beyond p90.
const MIN_REQUESTS: usize = 100;
/// Nominal request time at reference speed; sets the request count.
const NOMINAL_REQUEST_S: f64 = 0.25;
const SETUPS: usize = 5;
const WARMUP_REQUESTS: usize = 2;
/// Requests replayed through the layer functions in the traced run.
const TRACED_REQUESTS: usize = 16;
/// Warm-up graph ids sit apart from the measured ones.
const WARMUP_GRAPH_BASE: u64 = 1 << 40;

struct Live {
    server: Server,
    client: Client,
    model: u32,
}

/// Start → connect → register → warm up. Returns the live stack, the
/// warm-up answers' digest, and the connect time (ms).
fn setup(fx: &Fixture, seed: u64, warmup: &mut Tally) -> Result<(Live, Digest, f64), String> {
    let server = Server::start(ServerConfig {
        runtime: RuntimeConfig {
            workers: 1,
            max_batch: 1,
            seed,
            ..RuntimeConfig::default()
        },
        ..ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let t = Instant::now();
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client.ping().map_err(|e| format!("ping: {e}"))?;
    let connect_ms = t.elapsed().as_secs_f64() * 1e3;
    let model = client
        .register_model(&fx.model)
        .map_err(|e| format!("register: {e}"))?;
    let mut digest = Digest::default();
    // The median-size instances: set-up then costs the same for every
    // seed, whichever sizes the shuffled sequence starts with.
    let mut by_size: Vec<&Picked> = fx.picks.iter().collect();
    by_size.sort_by_key(|p| (p.graph.num_nodes(), p.graph.num_edges()));
    let middle = (by_size.len() - WARMUP_REQUESTS) / 2;
    for (k, pick) in by_size[middle..middle + WARMUP_REQUESTS].iter().enumerate() {
        let req = request(model, WARMUP_GRAPH_BASE + k as u64, pick, false);
        let answer = check_served(client.explain_with_retry(&req), pick);
        warmup.record(&answer);
        digest.scores(&answer?.edge_scores);
    }
    Ok((
        Live {
            server,
            client,
            model,
        },
        digest,
        connect_ms,
    ))
}

pub fn run(args: &Args, pool: &mut RefPool, stats: &mut RunStats) -> Result<(), String> {
    let fx = fixtures::cora(args.seed, DISTINCT);
    stats.layers.set("datasets.generate_s", fx.generate_s);
    stats.layers.set("gnn.train_s", fx.train_s);
    stats.layers.set("eval.sample_s", fx.sample_s);
    sys::reset_peak_rss();

    let mut live: Option<Live> = None;
    let mut warm_digest: Option<String> = None;
    let mut connect_ms = Vec::new();
    for _ in 0..SETUPS {
        if let Some(old) = live.take() {
            drop(old.client);
            old.server.shutdown();
        }
        pool.invalidate();
        let (res, raw, f) = pool.unit(|| setup(&fx, args.seed, &mut stats.warmup));
        let (l, digest, ms) = res?;
        stats.setup(raw, f);
        connect_ms.push(ms);
        stats.same_as_first_setup(&mut warm_digest, &digest);
        live = Some(l);
    }
    let Live {
        server,
        mut client,
        model,
    } = live.ok_or("no set-up ran")?;
    stats.layers.set("server.connect_ms", mean(&connect_ms));

    let wanted = MIN_REQUESTS.max((args.seconds as f64 / NOMINAL_REQUEST_S).ceil() as usize);
    let units = wanted.div_ceil(DISTINCT) * DISTINCT;
    let before = server.stats();
    let cpu0 = sys::cpu_seconds_excluding(&pool.tids());
    let mut served_times = ServedTimes::default();
    let mut answers = Vec::with_capacity(units);
    for i in 0..units {
        let pick = &fx.picks[i % fx.picks.len()];
        let req = request(model, i as u64, pick, false);
        let (answer, raw, f) = pool.unit(|| client.explain_with_retry(&req));
        stats.measured.unit(i % fx.picks.len(), raw, f, 1);
        stats.measured.latency(raw, f);
        let answer = check_served(answer, pick);
        stats.tally.record(&answer);
        match answer {
            Ok(served) => {
                served_times.add(raw, f, &served);
                stats.digest.scores(&served.edge_scores);
                answers.push((i, served.edge_scores));
            }
            Err(e) => stats.problem(format!("request {i}: {e}")),
        }
    }
    stats.measured.cpu_s = sys::cpu_seconds_excluding(&pool.tids()) - cpu0;
    stats.peak_rss_mb = sys::peak_rss_mb();
    let after = server.stats();
    served_times.set_layers(&mut stats.layers);
    let requests = (after.requests - before.requests).max(1) as f64;
    let bytes = (after.bytes_in + after.bytes_out - before.bytes_in - before.bytes_out) as f64;
    stats.layers.set("server.bytes_per_req", bytes / requests);
    let (hits, misses) = (
        after.runtime.cache_hits - before.runtime.cache_hits,
        after.runtime.cache_misses - before.runtime.cache_misses,
    );
    stats
        .layers
        .set("runtime.cache_hit_rate", hit_rate(hits, misses));
    stats.layers.set("runtime.batch_size_mean", 1.0);
    if after.protocol_errors > 0 {
        stats.problem(format!("{} protocol errors", after.protocol_errors));
    }

    pool.invalidate();
    for (i, scores) in &answers {
        let pick = &fx.picks[i % fx.picks.len()];
        stats.sufficiency.push(sufficiency(&fx.model, pick, scores));
    }

    if args.trace {
        traced(args, pool, stats, &fx, &mut client, model, units);
    }
    drop(client);
    let last = server.shutdown();
    if last.protocol_errors > 0 {
        stats.problem(format!("{} protocol errors", last.protocol_errors));
    }
    Ok(())
}

/// The traced pass: the first requests of the sequence again, each
/// followed by a replay through the layer functions.
fn traced(
    args: &Args,
    pool: &mut RefPool,
    stats: &mut RunStats,
    fx: &Fixture,
    client: &mut Client,
    model: u32,
    first_graph_id: usize,
) {
    let mut spans = Spans::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut replays, mut replay_factors) = (Vec::new(), Vec::new());
    let (mut served_sum, mut replay_sum) = (0.0, 0.0);
    pool.invalidate();
    for j in 0..TRACED_REQUESTS {
        let pick = &fx.picks[j % fx.picks.len()];
        // Request j of the measured phase again, untraced and traced in
        // alternating order, under fresh graph ids.
        let mut served = None;
        for traced in [j % 2 == 0, j % 2 == 1] {
            let graph_id = first_graph_id + 2 * j + usize::from(traced);
            let req = request(model, graph_id as u64, pick, false);
            let (answer, raw, f) = pool.unit(|| {
                if traced {
                    spans
                        .time("bench.request", j as u64, || {
                            client.explain_with_retry(&req)
                        })
                        .0
                } else {
                    client.explain_with_retry(&req)
                }
            });
            *if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            } += raw * f;
            let answer = check_served(answer, pick);
            stats.traced.record(&answer);
            match answer {
                Ok(s) if traced => served = Some((s, f)),
                Ok(_) => {}
                Err(e) => stats.problem(format!("traced request {j}: {e}")),
            }
        }
        let Some((served, f)) = served else { continue };
        let (r, _, rf) = pool.unit(|| {
            layers::replay(
                &mut spans, j as u64, &fx.model, &fx.full, pick, args.seed, None,
            )
        });
        served_sum += (served.timing.prep_us + served.timing.explain_us) as f64 * f;
        replay_sum += (r.instance_us + r.flow_index_us + r.optimize_us) * rf;
        replays.push(r);
        replay_factors.push(rf);
    }
    set_replay_layers(&mut stats.layers, &replays, mean(&replay_factors));
    if !replay_agrees(replay_sum, served_sum) {
        stats.problem(format!(
            "replayed prep+optimize {:.1} ms vs served prep+explain {:.1} ms",
            replay_sum * 1e-3,
            served_sum * 1e-3
        ));
    }
    println!(
        "replay check: replayed instance+flow_index+optimize {:.1} ms, served prep+explain {:.1} ms (ratio {:.3})",
        replay_sum * 1e-3,
        served_sum * 1e-3,
        replay_sum / served_sum
    );
    stats.layers.set(
        "bench.trace_overhead_pct",
        crate::harness::trace_overhead_pct(untraced_s, traced_s),
    );
    crate::write_spans(&spans, args);
}
