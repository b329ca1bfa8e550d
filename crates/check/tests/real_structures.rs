//! Check-mode exploration of the *real* workspace structures.
//!
//! These tests only exist under `--features check`: the whole dependency
//! graph (including `revelio-trace` and `revelio-runtime`, built here as
//! dev-dependencies) is then compiled against the shim facade, so the
//! structures explored below are the production types themselves — the
//! actual ring journal, metrics registry, cache shard, and worker pool —
//! not models of them.
//!
//! The newest-sequence-wins fix to `RingCollector::record` (a stalled
//! writer from an earlier lap must not clobber a later lap's event) is
//! additionally pinned by a deterministic single-threaded regression in
//! `revelio-trace`'s unit suite; here the checker sweeps the genuinely
//! concurrent interleavings around it.

#![cfg(feature = "check")]

use revelio_check::shim::spawn;
use revelio_check::sync::atomic::Ordering;
use revelio_check::sync::Arc;
use revelio_check::{explore, Config};
use revelio_core::Degradation;
use revelio_graph::Target;
use revelio_runtime::{Metrics, PoolCore, ShardedLru};
use revelio_store::{ExplanationRecord, LogStore, MaskKey, PhaseSummary, StoredMask};
use revelio_trace::{Collector, Event, EventKind, RingCollector, TraceId};

fn join<T>(handle: revelio_check::shim::JoinHandle<T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(_) => panic!("model thread panicked"),
    }
}

fn note(n: u64, text: &'static str) -> Event {
    Event {
        trace: TraceId(0),
        at_ns: n,
        kind: EventKind::Note(text),
    }
}

/// Two writers race into a capacity-1 ring. In *every* interleaving the
/// drained journal must hold exactly one event with exact drop accounting
/// — and the checker must see no deadlock or race inside the real
/// `RingCollector` (facade atomics + slot mutexes).
#[test]
fn ring_journal_overwrite_race_keeps_exact_accounting() {
    let report = explore(&Config::exhaustive(), || {
        let ring = Arc::new(RingCollector::new(1));
        let r2 = Arc::clone(&ring);
        let t = spawn(move || r2.record(note(1, "child")));
        ring.record(note(2, "main"));
        join(t);
        let trace = ring.drain(TraceId(7));
        assert_eq!(ring.total(), 2);
        assert_eq!(trace.dropped, 1, "dropped must be exact: total - capacity");
        assert_eq!(trace.events.len(), 1, "capacity-1 ring keeps one event");
    });
    report.assert_ok();
    assert!(report.complete, "two-writer ring must be fully explorable");
    assert!(report.executions > 1, "schedules must actually branch");
}

/// A quiesced ring (writers joined before the drain) is an exact journal
/// tail, not a sample: with capacity >= total, nothing may be dropped and
/// every recorded event must be present in sequence order.
#[test]
fn ring_journal_quiescent_drain_is_exact() {
    let report = explore(&Config::exhaustive(), || {
        let ring = Arc::new(RingCollector::new(4));
        let r2 = Arc::clone(&ring);
        let t = spawn(move || {
            r2.record(note(1, "child-a"));
            r2.record(note(2, "child-b"));
        });
        ring.record(note(3, "main"));
        join(t);
        let trace = ring.drain(TraceId(7));
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.events.len(), 3);
    });
    report.assert_ok();
    assert!(report.complete);
}

/// The metrics registry's relaxed counters are pure accumulators: after
/// the workers quiesce, the snapshot is exact in every interleaving (no
/// lost update — the seeded-defect suite shows what the checker says when
/// this is done with a load + store instead of `fetch_add`).
#[test]
fn metrics_snapshot_is_exact_after_quiescence() {
    let report = explore(&Config::exhaustive(), || {
        let metrics = Arc::new(Metrics::default());
        let m2 = Arc::clone(&metrics);
        let t = spawn(move || {
            m2.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            m2.explain_latency
                .observe(std::time::Duration::from_micros(300));
        });
        metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        metrics
            .explain_latency
            .observe(std::time::Duration::from_micros(500));
        join(t);
        let snap = metrics.snapshot(0, 0);
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.explain_latency.count, 2);
        assert_eq!(snap.explain_latency.total, 800);
        assert_eq!(snap.explain_latency.max, 500);
    });
    report.assert_ok();
    assert!(report.complete);
}

/// Concurrent get/insert on one LRU shard: hit/miss accounting must match
/// the gets that actually ran, a get may only return a value some insert
/// put there, and no interleaving deadlocks the shard mutex.
#[test]
fn cache_shard_get_insert_interleavings_stay_coherent() {
    let report = explore(&Config::exhaustive(), || {
        let cache: Arc<ShardedLru<u32, u64>> = Arc::new(ShardedLru::new(1, 2));
        let c2 = Arc::clone(&cache);
        let t = spawn(move || {
            c2.insert(1, 10);
            c2.get(&1)
        });
        let seen = cache.get(&1);
        let child_seen = join(t);
        assert_eq!(
            child_seen,
            Some(10),
            "a shard read after its own insert must hit"
        );
        assert!(
            seen.is_none() || seen == Some(10),
            "a get may only observe an inserted value"
        );
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 2, "every get is either a hit or a miss");
        let expected_hits = 1 + u64::from(seen.is_some());
        assert_eq!(hits, expected_hits);
    });
    report.assert_ok();
    assert!(report.complete);
}

/// Eviction under concurrency: a capacity-1 shard holding two competing
/// keys ends every interleaving with exactly one resident entry.
#[test]
fn cache_shard_eviction_keeps_capacity_invariant() {
    let report = explore(&Config::exhaustive(), || {
        let cache: Arc<ShardedLru<u32, u64>> = Arc::new(ShardedLru::new(1, 1));
        let c2 = Arc::clone(&cache);
        let t = spawn(move || c2.insert(1, 10));
        cache.insert(2, 20);
        join(t);
        assert_eq!(cache.len(), 1, "capacity bound must hold post-quiescence");
        let survivors = [cache.get(&1), cache.get(&2)];
        assert_eq!(
            survivors.iter().flatten().count(),
            1,
            "exactly one of the two inserts survives"
        );
    });
    report.assert_ok();
    assert!(report.complete);
}

fn mask_key() -> MaskKey {
    MaskKey {
        model_id: 0,
        graph_id: 1,
        target: Target::Node(2),
        layers: 2,
    }
}

fn stored(job_id: u64, flow: u32) -> ExplanationRecord {
    ExplanationRecord {
        job_id,
        key: mask_key(),
        model_fingerprint: 0xFEED,
        edge_scores: vec![0.5, 0.25],
        layer_edge_scores: None,
        flow_scores: None,
        degradation: Degradation::default(),
        phases: PhaseSummary::default(),
        mask: Some(StoredMask {
            mask_params: vec![flow as f32],
            layer_weights: vec![vec![1.0]],
            selected: vec![flow],
        }),
    }
}

/// Two threads race explanation appends into one `LogStore` while the main
/// thread also reads mid-flight. The store's facade mutex must serialize
/// the file in every interleaving: a concurrent listing is always a clean
/// prefix of completed appends (never a torn entry), and after quiescence
/// both records are durable with the newest mask winning the shared key.
#[test]
fn log_store_concurrent_append_and_read_stay_serialized() {
    // Distinct backing file per explored execution (std atomics on
    // purpose: the counter is test bookkeeping, not explored state).
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    let report = explore(&Config::exhaustive(), || {
        let path = std::env::temp_dir().join(format!(
            "revelio-check-store-{}-{}.log",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let store = Arc::new(LogStore::open(&path).expect("open store"));
        let s2 = Arc::clone(&store);
        let t = spawn(move || s2.put_explanation(&stored(1, 7)).expect("child append"));
        store.put_explanation(&stored(2, 9)).expect("main append");
        let mid = store.list_explanations().expect("concurrent list");
        assert!(mid.len() <= 2, "at most the two appends can be visible");
        for s in &mid {
            assert!(
                (s.job_id == 1 || s.job_id == 2) && s.has_mask,
                "a listed entry must be a completed append, never torn"
            );
        }
        join(t);
        let done = store.list_explanations().expect("quiescent list");
        assert_eq!(done.len(), 2, "both appends are durable after the join");
        let hit = store
            .newest_mask(&mask_key())
            .expect("mask lookup")
            .expect("a mask was stored");
        // Both writers share the key; which append lands second — and so
        // supersedes — depends on the schedule, but it is always one of
        // them, intact.
        assert_eq!(hit.mask.selected.len(), 1);
        assert!(
            (hit.job_id == 1 && hit.mask.selected == [7])
                || (hit.job_id == 2 && hit.mask.selected == [9]),
            "newest mask must be one writer's record, intact"
        );
        let full = store.explanation(1).expect("read").expect("record 1");
        assert_eq!(full.edge_scores, vec![0.5, 0.25]);
        drop(store);
        let _ = std::fs::remove_file(&path);
    });
    report.assert_ok();
    assert!(report.complete, "two-writer store must be fully explorable");
    assert!(report.executions > 1, "schedules must actually branch");
}

/// `PoolCore` shutdown drains: every job submitted before the drop is
/// handled in every interleaving — the queue closes, the worker finishes
/// the backlog, and the join never deadlocks.
#[test]
fn pool_core_drop_drains_every_submitted_job() {
    let report = explore(&Config::default(), || {
        let sum = Arc::new(revelio_check::shim::AtomicU64::new(0));
        let pool = {
            let sum = Arc::clone(&sum);
            PoolCore::spawn(
                "model-pool",
                1,
                |_i| (),
                move |(), job: u64| {
                    sum.fetch_add(job, Ordering::Relaxed);
                },
            )
            .expect("spawn")
        };
        pool.submit(1).expect("submit");
        pool.submit(2).expect("submit");
        drop(pool); // close + drain + join
        assert_eq!(sum.load(Ordering::Relaxed), 3, "a submitted job was lost");
    });
    report.assert_ok();
}

/// An idle pool (no jobs) shuts down cleanly from every schedule: the
/// worker may still be blocked on its first `recv` when the drop closes
/// the channel.
#[test]
fn pool_core_idle_shutdown_never_hangs() {
    let report = explore(&Config::default(), || {
        let pool: PoolCore<u64> =
            PoolCore::spawn("model-pool-idle", 2, |_i| (), |(), _job| {}).expect("spawn");
        assert_eq!(pool.workers(), 2);
        drop(pool);
    });
    report.assert_ok();
}
