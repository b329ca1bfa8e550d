//! Integration tests for the runtime's write-behind persistence: crash
//! recovery (models, flow cache, job ids) and store-seeded warm starts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use revelio_core::{Objective, Revelio, RevelioConfig};
use revelio_gnn::{Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{Graph, Target};
use revelio_runtime::{ExplainJob, Runtime, RuntimeConfig};
use revelio_store::LogStore;

/// A fresh store path per call: unique within the process run and across
/// concurrently running test binaries.
fn temp_store() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "revelio-runtime-persist-{}-{}.log",
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

fn job(g: &Graph, epochs: usize) -> ExplainJob {
    ExplainJob::flow_based(
        g.clone(),
        Target::Node(2),
        1,
        100_000,
        Box::new(move |seed| {
            Box::new(Revelio::new(RevelioConfig {
                epochs,
                objective: Objective::Factual,
                seed,
                ..Default::default()
            }))
        }),
    )
    .with_deadline(Duration::from_secs(3600))
}

fn config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        seed: 42,
        ..Default::default()
    }
}

#[test]
fn restart_recovers_models_cache_and_job_ids() {
    let path = temp_store();
    let (model, g) = trained_model();

    // First life: register, serve one job.
    let (cold_scores, cold_job_id) = {
        let store = Arc::new(LogStore::open(&path).expect("open store"));
        let rt = Runtime::try_with_config_and_store(config(), store).expect("boot");
        let handle = rt.register_model(&model);
        let out = rt.submit(handle, job(&g, 20)).wait().expect("served");
        (out.explanation.edge_scores.clone(), out.job_id)
    };

    // Second life against the same file.
    let store = Arc::new(LogStore::open(&path).expect("reopen store"));
    let rt = Runtime::try_with_config_and_store(config(), Arc::clone(&store)).expect("recovery");

    // The model registry is restored: the pre-restart handle works
    // without re-registration.
    let handles = rt.model_handles();
    assert_eq!(handles.len(), 1, "recovered model registry");

    // The pre-restart explanation is still addressable by its job id.
    let rec = store
        .explanation(cold_job_id)
        .expect("read")
        .expect("stored explanation survived restart");
    assert_eq!(rec.edge_scores, cold_scores);

    // A new job reuses the recovered flow cache (hit, not a rebuild) and
    // gets a job id past everything persisted.
    let out = rt.submit(handles[0], job(&g, 20)).wait().expect("served");
    assert!(out.job_id > cold_job_id, "job ids must resume, not collide");
    let m = rt.metrics();
    assert!(
        m.cache_hits >= 1,
        "recovered flow table should pre-warm the cache: {m:?}"
    );

    // Same runtime seed + same job-id stream would give bit-identical
    // scores; the id resumed past the stored one, so scores may differ —
    // but the answer must still be structurally sound.
    assert_eq!(out.explanation.edge_scores.len(), cold_scores.len());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn warm_start_jobs_hit_the_store_and_cut_epochs() {
    let path = temp_store();
    let (model, g) = trained_model();
    let store = Arc::new(LogStore::open(&path).expect("open store"));
    let rt = Runtime::try_with_config_and_store(config(), store).expect("boot");
    let handle = rt.register_model(&model);

    // Cold job persists its converged mask.
    let cold = rt.submit(handle, job(&g, 500)).wait().expect("cold");
    assert_eq!(cold.degradation.epochs_run, 500);

    // Warm job: store hit, early stop, honest epoch accounting.
    let warm = rt
        .submit(handle, job(&g, 500).with_warm_start(true))
        .wait()
        .expect("warm");
    assert!(
        warm.degradation.epochs_run < 500,
        "warm start should stop early, ran {}",
        warm.degradation.epochs_run
    );
    assert!(!warm.degraded(), "early stop is not a degradation");

    let m = rt.metrics();
    assert_eq!(m.store_hits, 1, "one warm lookup hit: {m:?}");
    assert_eq!(m.store_misses, 0);

    // A warm job for a model the store has never seen under this key
    // counts a miss and falls back to the cold path.
    let other = Gnn::new(GnnConfig {
        kind: GnnKind::Gcn,
        task: Task::NodeClassification,
        in_dim: 2,
        hidden_dim: 8,
        num_classes: 2,
        num_layers: 2,
        heads: 1,
        seed: 8,
    });
    let other_handle = rt.register_model(&other);
    let miss = rt
        .submit(other_handle, job(&g, 20).with_warm_start(true))
        .wait()
        .expect("miss job");
    assert_eq!(miss.degradation.epochs_run, 20);
    assert_eq!(rt.metrics().store_misses, 1);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn runtime_without_store_counts_warm_lookups_as_misses() {
    let (model, g) = trained_model();
    let rt = Runtime::with_config(config());
    let handle = rt.register_model(&model);
    let out = rt
        .submit(handle, job(&g, 10).with_warm_start(true))
        .wait()
        .expect("served");
    assert_eq!(out.degradation.epochs_run, 10);
    let m = rt.metrics();
    assert_eq!(m.store_hits, 0);
    assert_eq!(m.store_misses, 1);
}

/// Fused-batch jobs persist their converged masks like any other job, so a
/// later warm start on one of their keys hits the store and stops early.
#[test]
fn fused_batch_jobs_persist_masks_for_warm_start() {
    let path = temp_store();
    let (model, g) = trained_model();
    let store = Arc::new(LogStore::open(&path).expect("open store"));
    let rt = Runtime::try_with_config_and_store(
        RuntimeConfig {
            max_batch: 4,
            batch_linger: Duration::from_millis(50),
            ..config()
        },
        store,
    )
    .expect("boot");
    let handle = rt.register_model(&model);
    let spec = RevelioConfig {
        epochs: 500,
        objective: Objective::Factual,
        ..Default::default()
    };
    let keyed = |graph_id: u64| {
        let mut j = job(&g, 500).with_batch_spec(spec);
        j.graph_id = graph_id;
        j
    };

    let burst: Vec<ExplainJob> = (10..14).map(keyed).collect();
    for r in rt.explain_batch(handle, burst) {
        assert_eq!(r.expect("fused job served").degradation.epochs_run, 500);
    }
    let m = rt.metrics();
    assert_eq!(m.batched_jobs, 4, "the burst should fuse: {m:?}");

    let warm = rt
        .submit(handle, keyed(12).with_warm_start(true))
        .wait()
        .expect("warm");
    assert_eq!(rt.metrics().store_hits, 1, "fused job left no mask");
    assert!(
        warm.degradation.epochs_run < warm.degradation.epochs_planned,
        "warm start should stop early, ran {}",
        warm.degradation.epochs_run
    );

    let _ = std::fs::remove_file(&path);
}
