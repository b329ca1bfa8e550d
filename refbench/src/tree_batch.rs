//! `tree-batch`: an in-process runtime (2 workers, batches of up to 8)
//! explains rounds of 16 Tree-Cycles GIN node instances through
//! `Runtime::explain_batch`, every job carrying REVELIO's batch spec so
//! the workers fuse them — the paper's offline evaluation protocol.

use revelio_core::Objective;
use revelio_eval::{flow_cap, method_factory, revelio_batch_config, Effort};
use revelio_gnn::GnnKind;
use revelio_runtime::{ExplainJob, JobResult, ModelHandle, Runtime, RuntimeConfig};

use crate::fixtures::{self, Fixture, Picked};
use crate::harness::{hit_rate, replay_agrees, set_replay_layers, sufficiency, Args, RunStats};
use crate::layers;
use crate::reference::RefPool;
use crate::report::{check_scores, mean, Digest, Tally};
use crate::spans::Spans;
use crate::sys;

const DISTINCT: usize = 128;
const ROUND: usize = 16;
/// Rounds cycle over the instances: round r does the work of round r % GROUPS.
const GROUPS: usize = DISTINCT / ROUND;
const MAX_BATCH: usize = 8;
/// At least this many rounds, so ten round latencies lie beyond p90.
const MIN_ROUNDS: usize = 100;
/// Nominal round time at reference speed; sets the round count.
const NOMINAL_ROUND_S: f64 = 0.075;
const SETUPS: usize = 9;
const TRACED_ROUNDS: usize = 8;
const WARMUP_GRAPH_BASE: u64 = 1 << 40;

fn round_picks(fx: &Fixture, round: usize) -> impl Iterator<Item = &Picked> {
    (0..ROUND).map(move |k| &fx.picks[(round * ROUND + k) % fx.picks.len()])
}

/// The jobs of one round; every job gets a fresh graph id, as each
/// instance of an offline evaluation is explained once.
fn round_jobs(fx: &Fixture, round: usize, graph_base: u64) -> Vec<ExplainJob> {
    round_picks(fx, round)
        .enumerate()
        .map(|(k, pick)| {
            ExplainJob::flow_based(
                pick.graph.clone(),
                pick.target,
                graph_base + (round * ROUND + k) as u64,
                flow_cap(Effort::Quick),
                method_factory("REVELIO", Objective::Factual, Effort::Quick),
            )
            .with_batch_spec(revelio_batch_config(Objective::Factual, Effort::Quick))
        })
        .collect()
}

/// Checks a round's results; returns each job's scores (or the failure).
fn check_round(
    fx: &Fixture,
    round: usize,
    results: Vec<JobResult>,
    tally: &mut Tally,
) -> Vec<Result<revelio_runtime::JobOutput, String>> {
    results
        .into_iter()
        .zip(round_picks(fx, round))
        .map(|(r, pick)| {
            let checked = r.map_err(|e| e.to_string()).and_then(|out| {
                check_scores(
                    &out.explanation.edge_scores,
                    pick.graph.num_edges(),
                    out.degraded(),
                )
                .map(|()| out)
            });
            tally.record(&checked);
            checked
        })
        .collect()
}

fn setup(
    fx: &Fixture,
    seed: u64,
    warmup: &mut Tally,
) -> Result<(Runtime, ModelHandle, Digest), String> {
    let rt = Runtime::try_with_config(RuntimeConfig {
        workers: 2,
        max_batch: MAX_BATCH,
        seed,
        ..RuntimeConfig::default()
    })
    .map_err(|e| format!("runtime: {e}"))?;
    let handle = rt.register_model(&fx.model);
    let results = rt.explain_batch(handle, round_jobs(fx, 0, WARMUP_GRAPH_BASE));
    let mut digest = Digest::default();
    for r in check_round(fx, 0, results, warmup) {
        digest.scores(&r?.explanation.edge_scores);
    }
    Ok((rt, handle, digest))
}

pub fn run(args: &Args, pool: &mut RefPool, stats: &mut RunStats) -> Result<(), String> {
    let fx = fixtures::tree_cycles(args.seed, GnnKind::Gin, DISTINCT);
    stats.layers.set("datasets.generate_s", fx.generate_s);
    stats.layers.set("gnn.train_s", fx.train_s);
    stats.layers.set("eval.sample_s", fx.sample_s);
    sys::reset_peak_rss();

    let mut live: Option<(Runtime, ModelHandle)> = None;
    let mut warm_digest: Option<String> = None;
    for _ in 0..SETUPS {
        drop(live.take());
        pool.invalidate();
        let (res, raw, f) = pool.unit(|| setup(&fx, args.seed, &mut stats.warmup));
        let (rt, handle, digest) = res?;
        stats.setup(raw, f);
        stats.same_as_first_setup(&mut warm_digest, &digest);
        live = Some((rt, handle));
    }
    let (rt, handle) = live.ok_or("no set-up ran")?;

    let rounds = MIN_ROUNDS.max((args.seconds as f64 / NOMINAL_ROUND_S).ceil() as usize);
    let before = rt.metrics();
    let cpu0 = sys::cpu_seconds_excluding(&pool.tids());
    let (mut queue, mut prep, mut explain, mut epochs) = (vec![], vec![], vec![], vec![]);
    // Answers of the last round of each group: every instance once.
    let mut last_answers: Vec<Vec<(usize, Vec<f32>)>> = vec![Vec::new(); GROUPS];
    for r in 0..rounds {
        let jobs = round_jobs(&fx, r, 0);
        let (results, raw, f) = pool.unit(|| rt.explain_batch(handle, jobs));
        stats.measured.unit(r % GROUPS, raw, f, ROUND as u64);
        stats.measured.latency(raw, f);
        let checked = check_round(&fx, r, results, &mut stats.tally);
        last_answers[r % GROUPS].clear();
        for (k, out) in checked.into_iter().enumerate() {
            match out {
                Ok(out) => {
                    let t = &out.timing;
                    queue.push(t.queue_wait.as_secs_f64() * 1e3 * f);
                    prep.push(t.prep.as_secs_f64() * 1e3 * f);
                    explain.push(t.explain.as_secs_f64() * 1e3 * f);
                    epochs.push(out.degradation.epochs_run as f64);
                    stats.digest.scores(&out.explanation.edge_scores);
                    last_answers[r % GROUPS].push((k, out.explanation.edge_scores));
                }
                Err(e) => stats.problem(format!("round {r} job {k}: {e}")),
            }
        }
    }
    stats.measured.cpu_s = sys::cpu_seconds_excluding(&pool.tids()) - cpu0;
    stats.peak_rss_mb = sys::peak_rss_mb();
    let after = rt.metrics();
    stats.layers.set("runtime.queue_ms", mean(&queue));
    stats.layers.set("runtime.prep_ms", mean(&prep));
    stats.layers.set("runtime.explain_ms", mean(&explain));
    stats.layers.set("core.epochs_run", mean(&epochs));
    let batches = after.batches - before.batches;
    let batched = after.batched_jobs - before.batched_jobs;
    let jobs = after.jobs_completed - before.jobs_completed;
    // Jobs served outside a fused batch ran as batches of one.
    let passes = batches + (jobs - batched);
    stats.layers.set(
        "runtime.batch_size_mean",
        jobs as f64 / passes.max(1) as f64,
    );
    let (hits, misses) = (
        after.cache_hits - before.cache_hits,
        after.cache_misses - before.cache_misses,
    );
    stats
        .layers
        .set("runtime.cache_hit_rate", hit_rate(hits, misses));

    pool.invalidate();
    for (group, answers) in last_answers.iter().enumerate() {
        let picks: Vec<&Picked> = round_picks(&fx, group).collect();
        for (k, scores) in answers {
            stats
                .sufficiency
                .push(sufficiency(&fx.model, picks[*k], scores));
        }
    }

    if args.trace {
        traced(args, pool, stats, &fx, &rt, handle, rounds);
    }
    drop(rt);
    Ok(())
}

fn traced(
    args: &Args,
    pool: &mut RefPool,
    stats: &mut RunStats,
    fx: &Fixture,
    rt: &Runtime,
    handle: ModelHandle,
    first_round: usize,
) {
    let mut spans = Spans::default();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut replays, mut replay_factors) = (Vec::new(), Vec::new());
    let (mut served_sum, mut replay_sum, mut fused) = (0.0, 0.0, Vec::new());
    pool.invalidate();
    for j in 0..TRACED_ROUNDS {
        // Round j of the measured phase again, untraced and traced in
        // alternating order, under fresh graph ids.
        for traced in [j % 2 == 0, j % 2 == 1] {
            let base = (first_round + 3 * j + usize::from(traced)) * ROUND;
            let jobs = round_jobs(fx, j, base as u64);
            let (results, raw, f) = pool.unit(|| {
                if traced {
                    spans
                        .time("bench.round", j as u64, || rt.explain_batch(handle, jobs))
                        .0
                } else {
                    rt.explain_batch(handle, jobs)
                }
            });
            *if traced {
                &mut traced_s
            } else {
                &mut untraced_s
            } += raw * f;
            for out in check_round(fx, j, results, &mut stats.traced) {
                match out {
                    Ok(out) if traced => {
                        served_sum +=
                            (out.timing.prep + out.timing.explain).as_secs_f64() * 1e6 * f;
                    }
                    Ok(_) => {}
                    Err(e) => stats.problem(format!("traced round {j}: {e}")),
                }
            }
        }
        let picks: Vec<&Picked> = round_picks(fx, j).collect();
        let ((round_replays, fused_us), _, rf) = pool.unit(|| {
            let rs: Vec<layers::Replayed> = picks
                .iter()
                .enumerate()
                .map(|(k, p)| {
                    layers::replay(
                        &mut spans,
                        (j * ROUND + k) as u64,
                        &fx.model,
                        &fx.full,
                        p,
                        args.seed,
                        None,
                    )
                })
                .collect();
            let fused_us: Vec<f64> = rs
                .chunks(MAX_BATCH)
                .map(|chunk| layers::fused_batch(&mut spans, j as u64, &fx.model, chunk, args.seed))
                .collect();
            (rs, fused_us)
        });
        replay_sum += (round_replays
            .iter()
            .map(|r| r.instance_us + r.flow_index_us)
            .sum::<f64>()
            + fused_us.iter().sum::<f64>())
            * rf;
        fused.extend(fused_us.iter().map(|us| us * 1e-3 * rf));
        replays.extend(round_replays);
        replay_factors.push(rf);
    }
    set_replay_layers(&mut stats.layers, &replays, mean(&replay_factors));
    stats.layers.set("core.fused_batch_ms", mean(&fused));
    if !replay_agrees(replay_sum, served_sum) {
        stats.problem(format!(
            "replayed prep+fused optimize {:.1} ms vs served prep+explain {:.1} ms",
            replay_sum * 1e-3,
            served_sum * 1e-3
        ));
    }
    println!(
        "replay check: replayed instance+flow_index+fused batches {:.1} ms, served prep+explain {:.1} ms (ratio {:.3})",
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
