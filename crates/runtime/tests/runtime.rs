//! Integration tests for the serving runtime: scheduling-independent
//! determinism, deadline-induced degradation, worker drain on drop, panic
//! isolation, and artifact-cache sharing across jobs.

use std::time::Duration;

use revelio_core::{Explainer, Objective, Revelio, RevelioConfig};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::{ExplainJob, JobError, Runtime, RuntimeConfig};
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

fn revelio_factory(epochs: usize) -> impl Fn(u64) -> Box<dyn revelio_core::Explainer> + Send {
    move |seed| {
        Box::new(Revelio::new(RevelioConfig {
            epochs,
            objective: Objective::Factual,
            seed,
            ..Default::default()
        }))
    }
}

fn jobs_for(graphs: &[Graph], epochs: usize) -> Vec<ExplainJob> {
    graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            ExplainJob::flow_based(
                g.clone(),
                Target::Node(2),
                i as u64,
                100_000,
                Box::new(revelio_factory(epochs)),
            )
        })
        .collect()
}

/// The acceptance property: the same job stream produces bit-identical
/// edge scores at any worker count, because seeds derive from submission
/// order rather than scheduling.
#[test]
fn scores_are_bit_identical_across_worker_counts() {
    let (model, graphs) = trained_model();
    let mut per_count: Vec<Vec<Vec<f32>>> = Vec::new();
    for workers in [1usize, 2, 4] {
        let rt = Runtime::with_config(RuntimeConfig {
            workers,
            seed: 42,
            ..Default::default()
        });
        let handle = rt.register_model(&model);
        let results = rt.explain_batch(handle, jobs_for(&graphs, 12));
        let scores: Vec<Vec<f32>> = results
            .into_iter()
            .map(|r| r.expect("job served").explanation.edge_scores)
            .collect();
        per_count.push(scores);
    }
    assert_eq!(per_count[0], per_count[1], "1 vs 2 workers diverged");
    assert_eq!(per_count[0], per_count[2], "1 vs 4 workers diverged");
}

/// Rebuilt models answer exactly like the original: a runtime with one
/// worker matches a direct (no-runtime) explain call seeded the same way.
#[test]
fn runtime_matches_direct_explainer_call() {
    let (model, graphs) = trained_model();
    let rt = Runtime::with_config(RuntimeConfig {
        workers: 2,
        seed: 9,
        ..Default::default()
    });
    let handle = rt.register_model(&model);
    let ticket = rt.submit(
        handle,
        ExplainJob::flow_based(
            graphs[0].clone(),
            Target::Node(2),
            0,
            100_000,
            Box::new(revelio_factory(8)),
        ),
    );
    let output = ticket.wait().expect("served");
    // Reproduce the job inline: same derived seed, same instance.
    let seed = output_seed(9, output.job_id);
    let direct = Revelio::new(RevelioConfig {
        epochs: 8,
        objective: Objective::Factual,
        seed,
        ..Default::default()
    })
    .explain(
        &model,
        &revelio_gnn::Instance::for_prediction(&model, graphs[0].clone(), Target::Node(2)),
    );
    assert_eq!(output.explanation.edge_scores, direct.edge_scores);
}

/// Mirror of the runtime's seed derivation (kept in lockstep by this test:
/// if the mix ever changes, `runtime_matches_direct_explainer_call` fails).
fn output_seed(base: u64, job_id: u64) -> u64 {
    let mut z = base ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An already-expired deadline still yields a structurally valid mask,
/// flagged as degraded, rather than an error.
#[test]
fn expired_deadline_degrades_gracefully() {
    let (model, graphs) = trained_model();
    let rt = Runtime::new(2);
    let handle = rt.register_model(&model);
    let job = ExplainJob::flow_based(
        graphs[0].clone(),
        Target::Node(2),
        0,
        100_000,
        Box::new(revelio_factory(400)),
    )
    .with_deadline(Duration::ZERO);
    let output = rt.submit(handle, job).wait().expect("degraded, not failed");
    assert!(output.degraded(), "zero budget must degrade");
    assert!(output.degradation.deadline_hit);
    assert!(output.degradation.epochs_run < 400);
    assert!(!output.explanation.edge_scores.is_empty());
    assert!(
        output
            .explanation
            .edge_scores
            .iter()
            .all(|s| s.is_finite() && (0.0..=1.0).contains(s)),
        "degraded mask must still be a valid sigmoid mask"
    );
    let m = rt.metrics();
    assert_eq!(m.jobs_degraded, 1);
    assert_eq!(m.jobs_completed, 1);
}

/// Dropping the runtime drains the queue and joins every worker — no
/// leaked threads, and every submitted job still gets an answer.
#[test]
fn drop_drains_queue_and_joins_workers() {
    let (model, graphs) = trained_model();
    let rt = Runtime::new(3);
    let probe = rt.worker_probe();
    assert_eq!(rt.alive_workers(), 3);
    let handle = rt.register_model(&model);
    let tickets: Vec<_> = jobs_for(&graphs, 4)
        .into_iter()
        .map(|j| rt.submit(handle, j))
        .collect();
    drop(rt); // closes the queue; workers drain then exit
    assert_eq!(probe.alive_workers(), 0, "worker thread leaked past drop");
    for t in tickets {
        assert!(t.wait().is_ok(), "queued job dropped without an answer");
    }
}

/// `cancel_all` fails queued jobs instead of running them.
#[test]
fn cancel_all_abandons_queued_work() {
    let (model, graphs) = trained_model();
    let rt = Runtime::new(1);
    let handle = rt.register_model(&model);
    rt.cancel_all();
    let results = rt.explain_batch(handle, jobs_for(&graphs, 50));
    for r in results {
        assert_eq!(r.err(), Some(JobError::Cancelled));
    }
    assert_eq!(rt.metrics().jobs_failed, 4);
}

/// A panicking explainer fails its own job; the worker survives and keeps
/// serving later jobs.
#[test]
fn panicking_job_does_not_kill_worker() {
    struct Bomb;
    impl revelio_core::Explainer for Bomb {
        fn name(&self) -> &'static str {
            "Bomb"
        }
        fn explain(&self, _: &Gnn, _: &revelio_gnn::Instance) -> revelio_core::Explanation {
            panic!("boom");
        }
    }
    let (model, graphs) = trained_model();
    let rt = Runtime::new(1);
    let handle = rt.register_model(&model);
    let bomb = ExplainJob::edge_based(
        graphs[0].clone(),
        Target::Node(2),
        0,
        Box::new(|_seed| Box::new(Bomb) as Box<dyn revelio_core::Explainer>),
    );
    let err = match rt.submit(handle, bomb).wait() {
        Ok(_) => panic!("bomb job must fail"),
        Err(e) => e,
    };
    match err {
        JobError::Panicked(msg) => assert!(msg.contains("boom")),
        other => panic!("expected panic error, got {other:?}"),
    }
    // The same (sole) worker still serves real jobs.
    let ok = rt.submit(
        handle,
        ExplainJob::flow_based(
            graphs[1].clone(),
            Target::Node(2),
            1,
            100_000,
            Box::new(revelio_factory(3)),
        ),
    );
    assert!(ok.wait().is_ok());
    assert_eq!(rt.alive_workers(), 1);
    let m = rt.metrics();
    assert_eq!(m.jobs_failed, 1);
    assert_eq!(m.jobs_completed, 1);
}

/// A panic in a job's prep stage (here: a graph the model cannot read)
/// fails that job alone; the sole worker lives on and serves the next one.
#[test]
fn panicking_prep_fails_only_its_job() {
    let (model, graphs) = trained_model();
    let rt = Runtime::new(1);
    let handle = rt.register_model(&model);
    let mut b = Graph::builder(3, 5);
    b.undirected_edge(0, 1).undirected_edge(1, 2);
    b.node_features(1, &[1.0, 0.0, 0.0, 2.0, 0.0]);
    let too_wide = ExplainJob::flow_based(
        b.build(),
        Target::Node(1),
        0,
        100_000,
        Box::new(revelio_factory(3)),
    );
    match rt.submit(handle, too_wide).wait() {
        Err(JobError::Panicked(msg)) => assert!(
            msg.contains("matmul: incompatible shapes [3,5] and [2,8]"),
            "{msg}"
        ),
        other => panic!("expected a prep panic, got {:?}", other.map(|_| ())),
    }
    let ok = rt.submit(
        handle,
        ExplainJob::flow_based(
            graphs[1].clone(),
            Target::Node(2),
            1,
            100_000,
            Box::new(revelio_factory(3)),
        ),
    );
    assert!(ok.wait().is_ok());
    assert_eq!(rt.alive_workers(), 1);
    let m = rt.metrics();
    assert_eq!(m.jobs_failed, 1);
    assert_eq!(m.jobs_completed, 1);
}

/// Two jobs against the same `(graph_id, target, L)` share one cached flow
/// index: the second job is a cache hit.
#[test]
fn repeated_instance_hits_flow_cache() {
    let (model, graphs) = trained_model();
    let rt = Runtime::new(1);
    let handle = rt.register_model(&model);
    let job = |seed_offset: usize| {
        ExplainJob::flow_based(
            graphs[0].clone(),
            Target::Node(2),
            0,
            100_000,
            Box::new(revelio_factory(3 + seed_offset)),
        )
    };
    let first = rt.submit(handle, job(0)).wait().expect("served");
    let second = rt.submit(handle, job(1)).wait().expect("served");
    let (hits, misses) = (rt.metrics().cache_hits, rt.metrics().cache_misses);
    assert_eq!(misses, 1, "first job misses once (flow index build)");
    assert_eq!(hits, 1, "second job must hit the shared flow index");
    let (a, b) = (
        first.explanation.flows.expect("flows"),
        second.explanation.flows.expect("flows"),
    );
    assert!(
        std::sync::Arc::ptr_eq(&a.index, &b.index),
        "both jobs must reference the same cached index"
    );
}

/// Metrics snapshot totals line up with the jobs actually pushed through.
#[test]
fn metrics_account_for_every_job() {
    let (model, graphs) = trained_model();
    let rt = Runtime::new(2);
    let handle = rt.register_model(&model);
    let results = rt.explain_batch(handle, jobs_for(&graphs, 5));
    assert_eq!(results.len(), 4);
    let m = rt.metrics();
    assert_eq!(m.jobs_submitted, 4);
    assert_eq!(m.jobs_started, 4);
    assert_eq!(m.jobs_completed, 4);
    assert_eq!(m.jobs_failed, 0);
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.explain_latency.count, 4);
    let report = m.report();
    assert!(report.contains("submitted=4"));
}

/// Zero-sized resources are typed construction errors, not silent clamps.
#[test]
fn invalid_configs_are_rejected_with_typed_errors() {
    use revelio_runtime::RuntimeConfigError;
    let cases = [
        (
            RuntimeConfig {
                workers: 0,
                ..Default::default()
            },
            RuntimeConfigError::ZeroWorkers,
        ),
        (
            RuntimeConfig {
                cache_capacity: 0,
                ..Default::default()
            },
            RuntimeConfigError::ZeroCacheCapacity,
        ),
        (
            RuntimeConfig {
                cache_shards: 0,
                ..Default::default()
            },
            RuntimeConfigError::ZeroCacheShards,
        ),
        (
            RuntimeConfig {
                max_batch: 0,
                ..Default::default()
            },
            RuntimeConfigError::ZeroMaxBatch,
        ),
    ];
    for (cfg, expected) in cases {
        match Runtime::try_with_config(cfg) {
            Err(e) => assert_eq!(e, expected),
            Ok(_) => panic!("invalid config accepted (expected {expected:?})"),
        }
    }
    // The error messages say what to fix, not just what broke.
    assert!(RuntimeConfigError::ZeroWorkers
        .to_string()
        .contains("worker"));
}

/// `with_config` keeps its panicking contract for invalid configs.
#[test]
#[should_panic(expected = "invalid RuntimeConfig")]
fn with_config_panics_on_invalid() {
    let _ = Runtime::with_config(RuntimeConfig {
        workers: 0,
        ..Default::default()
    });
}

/// `try_submit` sheds at the admission watermark, hands the job back
/// unchanged, and counts the rejection without counting a submission.
#[test]
fn try_submit_sheds_at_the_watermark() {
    let (model, graphs) = trained_model();
    let rt = Runtime::new(1);
    let handle = rt.register_model(&model);

    // Watermark 0: everything is shed, nothing queues.
    let job = jobs_for(&graphs, 3).remove(0);
    let returned = match rt.try_submit(handle, job, 0) {
        Err(j) => j,
        Ok(_) => panic!("watermark 0 admitted a job"),
    };
    assert_eq!(returned.graph.num_edges(), graphs[0].num_edges());
    let m = rt.metrics();
    assert_eq!(m.jobs_rejected, 1);
    assert_eq!(m.jobs_submitted, 0);

    // A sane watermark admits the returned job; the gauge drains to zero
    // once it completes.
    let ticket = match rt.try_submit(handle, returned, 8) {
        Ok(t) => t,
        Err(_) => panic!("watermark 8 shed an only job"),
    };
    ticket.wait().expect("served");
    // The gauge releases just after result delivery; give it a beat.
    for _ in 0..200 {
        if rt.in_flight() == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(rt.in_flight(), 0, "gauge did not drain after completion");
    let m = rt.metrics();
    assert_eq!(m.jobs_rejected, 1);
    assert_eq!(m.jobs_submitted, 1);
    assert_eq!(m.jobs_completed, 1);
    let report = m.report();
    assert!(report.contains("rejected=1"));
}

/// Batched serving (`max_batch > 1`) answers every job with scores that
/// match the unbatched runtime within the documented tolerance, and the
/// batch metrics record the fused passes.
#[test]
fn batched_serving_matches_serial_within_tolerance() {
    let (model, graphs) = trained_model();
    let spec = RevelioConfig {
        epochs: 12,
        objective: Objective::Factual,
        ..Default::default()
    };
    let run = |max_batch: usize| {
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 1,
            seed: 42,
            max_batch,
            // Generous linger so the whole submitted burst lands in one
            // fused pass regardless of scheduling.
            batch_linger: Duration::from_millis(50),
            ..Default::default()
        });
        let handle = rt.register_model(&model);
        let jobs: Vec<ExplainJob> = jobs_for(&graphs, 12)
            .into_iter()
            .map(|j| j.with_batch_spec(spec))
            .collect();
        let scores: Vec<Vec<f32>> = rt
            .explain_batch(handle, jobs)
            .into_iter()
            .map(|r| r.expect("job served").explanation.edge_scores)
            .collect();
        (scores, rt.metrics())
    };
    let (serial, m1) = run(1);
    let (batched, m4) = run(4);
    assert_eq!(m1.batches, 0, "max_batch = 1 must never fuse");
    assert!(m4.batches >= 1, "no fused pass ran");
    assert!(m4.batched_jobs >= 2, "fused pass covered < 2 jobs");
    assert_eq!(m4.jobs_completed, 4);
    assert_eq!(m4.batch_size.count, m4.batches);
    for (j, (b, s)) in batched.iter().zip(&serial).enumerate() {
        assert_eq!(b.len(), s.len());
        for (i, (x, y)) in b.iter().zip(s).enumerate() {
            assert!(
                (x - y).abs() <= revelio_core::BATCH_TOLERANCE,
                "job {j} edge {i}: batched {x} vs serial {y}"
            );
        }
    }
}

/// A batchable job with no compatible peer runs as a batch of one
/// (bit-identical to a runtime without batching), and mixed streams —
/// batchable and non-batchable jobs interleaved — all complete.
#[test]
fn lone_and_mixed_jobs_survive_batching_mode() {
    let (model, graphs) = trained_model();
    let spec = RevelioConfig {
        epochs: 8,
        objective: Objective::Factual,
        ..Default::default()
    };
    let rt = Runtime::with_config(RuntimeConfig {
        workers: 1,
        seed: 9,
        max_batch: 4,
        batch_linger: Duration::from_millis(1),
        ..Default::default()
    });
    let handle = rt.register_model(&model);
    // Lone batchable job: no peer arrives, so it must serve serially.
    let lone = rt
        .submit(
            handle,
            ExplainJob::flow_based(
                graphs[0].clone(),
                Target::Node(2),
                0,
                100_000,
                Box::new(revelio_factory(8)),
            )
            .with_batch_spec(spec),
        )
        .wait()
        .expect("lone job served");
    let plain = Runtime::with_config(RuntimeConfig {
        workers: 1,
        seed: 9,
        ..Default::default()
    });
    let handle2 = plain.register_model(&model);
    let reference = plain
        .submit(
            handle2,
            ExplainJob::flow_based(
                graphs[0].clone(),
                Target::Node(2),
                0,
                100_000,
                Box::new(revelio_factory(8)),
            ),
        )
        .wait()
        .expect("reference job served");
    assert_eq!(
        lone.explanation.edge_scores, reference.explanation.edge_scores,
        "a lone batchable job must stay bit-identical to the serial path"
    );
    // Mixed stream: spec-carrying jobs interleaved with spec-less,
    // deadline-carrying ones (which never join a batch).
    let mixed: Vec<ExplainJob> = graphs
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let job = ExplainJob::flow_based(
                g.clone(),
                Target::Node(2),
                i as u64,
                100_000,
                Box::new(revelio_factory(6)),
            );
            if i % 2 == 0 {
                job.with_batch_spec(RevelioConfig {
                    epochs: 6,
                    ..Default::default()
                })
            } else {
                job.with_deadline(Duration::from_secs(60))
            }
        })
        .collect();
    for r in rt.explain_batch(handle, mixed) {
        assert!(r.is_ok(), "mixed-stream job failed: {:?}", r.err());
    }
}

/// Deadlines and tracing no longer keep a job out of a batch: a burst of
/// four spec-carrying jobs, one traced and one with a deadline, fuses into
/// one pass whose answers equal the unbatched runtime's bit for bit.
#[test]
fn traced_and_deadline_jobs_fuse_bit_identically() {
    let (model, graphs) = trained_model();
    let spec = RevelioConfig {
        epochs: 12,
        objective: Objective::Factual,
        ..Default::default()
    };
    let run = |max_batch: usize| {
        let rt = Runtime::with_config(RuntimeConfig {
            workers: 1,
            seed: 42,
            max_batch,
            batch_linger: Duration::from_millis(50),
            ..Default::default()
        });
        let handle = rt.register_model(&model);
        let jobs: Vec<ExplainJob> = jobs_for(&graphs, 12)
            .into_iter()
            .enumerate()
            .map(|(i, j)| {
                let j = j.with_batch_spec(spec);
                match i {
                    1 => j.with_trace(),
                    2 => j.with_deadline(Duration::from_secs(60)),
                    _ => j,
                }
            })
            .collect();
        let outs: Vec<_> = rt
            .explain_batch(handle, jobs)
            .into_iter()
            .map(|r| r.expect("job served"))
            .collect();
        (outs, rt.metrics())
    };
    let (serial, m1) = run(1);
    let (fused, m4) = run(4);
    assert_eq!(m1.batches, 0, "max_batch = 1 must never fuse");
    assert_eq!(m4.batches, 1, "the burst should fuse into one pass: {m4:?}");
    assert_eq!(m4.batched_jobs, 4);

    let trace = fused[1].trace.as_ref().expect("traced job returns a trace");
    for phase in [
        Phase::Extraction,
        Phase::FlowIndex,
        Phase::Optimize,
        Phase::Readout,
    ] {
        assert!(trace.has_span(phase), "fused trace lacks {phase:?}");
    }
    for (j, (f, s)) in fused.iter().zip(&serial).enumerate() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        assert_eq!(
            bits(&f.explanation.edge_scores),
            bits(&s.explanation.edge_scores),
            "job {j}: fused scores differ from max_batch = 1"
        );
        assert_eq!(f.degradation, s.degradation, "job {j}");
    }
}
