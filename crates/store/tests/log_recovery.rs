//! Crash-recovery and compaction tests for the append-only log backend.
//!
//! The central scenario is satellite-grade: kill the process mid-append
//! (simulated by truncating the file inside the last record), reopen, and
//! assert the store recovers to the last *complete* record with the torn
//! tail ignored and physically dropped.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use revelio_core::Degradation;
use revelio_gnn::{GnnConfig, GnnKind, Task};
use revelio_graph::Target;
use revelio_store::{
    fingerprint_model, ExplanationRecord, FlowsRecord, LogStore, MaskKey, ModelRecord,
    PhaseSummary, StoreError, StoredMask, HEADER_LEN, RECORD_HEADER_LEN,
};

static NEXT_FILE: AtomicU64 = AtomicU64::new(0);

/// A unique throwaway log path per test invocation.
fn temp_log(tag: &str) -> PathBuf {
    let n = NEXT_FILE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "revelio-store-{}-{tag}-{n}.log",
        std::process::id()
    ))
}

fn config() -> GnnConfig {
    GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 4, 3, 7)
}

fn model_record(model_id: u32, state: Vec<Vec<f32>>) -> ModelRecord {
    ModelRecord {
        model_id,
        fingerprint: fingerprint_model(&config(), &state),
        config: config(),
        state,
    }
}

fn explanation_record(job_id: u64, graph_id: u64) -> ExplanationRecord {
    ExplanationRecord {
        job_id,
        key: MaskKey {
            model_id: 0,
            graph_id,
            target: Target::Node(2),
            layers: 2,
        },
        model_fingerprint: 99,
        edge_scores: vec![0.5, 0.25, 0.125],
        layer_edge_scores: None,
        flow_scores: Some(vec![0.9, 0.1]),
        degradation: Degradation::default(),
        phases: PhaseSummary {
            queue_us: 1,
            prep_us: 2,
            explain_us: 3,
        },
        mask: Some(StoredMask {
            mask_params: vec![0.4, -0.2],
            layer_weights: vec![vec![0.0]],
            selected: vec![0, 1],
        }),
    }
}

#[test]
fn reopen_rebuilds_the_index() {
    let path = temp_log("reopen");
    {
        let store = LogStore::open(&path).unwrap();
        store
            .put_model(&model_record(0, vec![vec![1.0, 2.0]]))
            .unwrap();
        store.put_explanation(&explanation_record(5, 77)).unwrap();
        store
            .put_flows(&FlowsRecord {
                graph_id: 77,
                target: Target::Node(2),
                layers: 2,
                max_flows: 1000,
                layer_edge_count: 4,
                flow_edges: vec![0, 1, 2, 3],
                dropped: 0,
            })
            .unwrap();
    }
    let store = LogStore::open(&path).unwrap();
    assert_eq!(store.recovery().records, 3);
    assert_eq!(store.recovery().truncated_bytes, 0);
    let models = store.models().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0], model_record(0, vec![vec![1.0, 2.0]]));
    assert_eq!(store.flows().unwrap().len(), 1);
    let back = store.explanation(5).unwrap().unwrap();
    assert_eq!(back, explanation_record(5, 77));
    assert!(store.explanation(6).unwrap().is_none());
    let hit = store
        .newest_mask(&explanation_record(5, 77).key)
        .unwrap()
        .unwrap();
    assert_eq!(hit.job_id, 5);
    assert_eq!(hit.model_fingerprint, 99);
    assert_eq!(hit.mask.selected, vec![0, 1]);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn torn_tail_is_ignored_and_truncated() {
    let path = temp_log("torn");
    let intact_len;
    {
        let store = LogStore::open(&path).unwrap();
        store.put_explanation(&explanation_record(1, 10)).unwrap();
        intact_len = std::fs::metadata(&path).unwrap().len();
        store.put_explanation(&explanation_record(2, 11)).unwrap();
    }
    // Simulate a crash mid-append of record 2: keep its record header and
    // part of its payload.
    let full_len = std::fs::metadata(&path).unwrap().len();
    let torn_len = intact_len + (full_len - intact_len) / 2;
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(torn_len).unwrap();
    drop(file);

    let store = LogStore::open(&path).unwrap();
    let report = store.recovery();
    assert_eq!(report.records, 1, "only the complete record survives");
    assert_eq!(report.truncated_bytes, torn_len - intact_len);
    assert!(store.explanation(1).unwrap().is_some());
    assert!(store.explanation(2).unwrap().is_none(), "torn tail ignored");
    // The torn bytes are physically dropped so new appends extend a clean
    // prefix.
    assert_eq!(std::fs::metadata(&path).unwrap().len(), intact_len);
    store.put_explanation(&explanation_record(3, 12)).unwrap();
    drop(store);
    let store = LogStore::open(&path).unwrap();
    assert_eq!(store.recovery().records, 2);
    assert!(store.explanation(3).unwrap().is_some());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn tail_truncated_inside_the_record_header_recovers() {
    let path = temp_log("torn-header");
    let intact_len;
    {
        let store = LogStore::open(&path).unwrap();
        store.put_explanation(&explanation_record(1, 10)).unwrap();
        intact_len = std::fs::metadata(&path).unwrap().len();
        store.put_explanation(&explanation_record(2, 11)).unwrap();
    }
    // Crash after writing only 3 bytes of the next record header.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(intact_len + 3).unwrap();
    drop(file);
    let store = LogStore::open(&path).unwrap();
    assert_eq!(store.recovery().records, 1);
    assert_eq!(store.recovery().truncated_bytes, 3);
    assert!(store.explanation(1).unwrap().is_some());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn corrupt_mid_file_record_stops_replay_at_the_last_good_prefix() {
    let path = temp_log("corrupt-mid");
    let first_end;
    {
        let store = LogStore::open(&path).unwrap();
        store.put_explanation(&explanation_record(1, 10)).unwrap();
        first_end = std::fs::metadata(&path).unwrap().len();
        store.put_explanation(&explanation_record(2, 11)).unwrap();
        store.put_explanation(&explanation_record(3, 12)).unwrap();
    }
    // Flip one payload byte of record 2 (mid-file, not the tail).
    let mut bytes = std::fs::read(&path).unwrap();
    let target = first_end as usize + 9 + 4; // past record 2's header
    bytes[target] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();

    let store = LogStore::open(&path).unwrap();
    assert_eq!(store.recovery().records, 1, "replay stops at the bad CRC");
    assert!(store.recovery().truncated_bytes > 0);
    assert!(store.explanation(1).unwrap().is_some());
    assert!(store.explanation(2).unwrap().is_none());
    assert!(store.explanation(3).unwrap().is_none());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn non_store_file_is_a_typed_error_not_a_clobber() {
    let path = temp_log("foreign");
    std::fs::write(
        &path,
        b"definitely not a store log, much longer than a header",
    )
    .unwrap();
    match LogStore::open(&path) {
        Err(StoreError::Corrupt { what, .. }) => assert_eq!(what, "bad store magic"),
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    // The foreign file must be untouched.
    assert!(std::fs::read(&path).unwrap().starts_with(b"definitely"));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn supersede_keeps_only_the_newest_record_per_key() {
    let path = temp_log("supersede");
    let store = LogStore::open(&path).unwrap();
    store.put_model(&model_record(0, vec![vec![1.0]])).unwrap();
    store.put_model(&model_record(0, vec![vec![2.0]])).unwrap();
    let models = store.models().unwrap();
    assert_eq!(models.len(), 1);
    assert_eq!(models[0].state, vec![vec![2.0]]);

    // Two explanations under the same mask key: the newer mask wins.
    let mut a = explanation_record(1, 10);
    a.mask.as_mut().unwrap().mask_params = vec![1.0, 1.0];
    let mut b = explanation_record(2, 10);
    b.mask.as_mut().unwrap().mask_params = vec![2.0, 2.0];
    store.put_explanation(&a).unwrap();
    store.put_explanation(&b).unwrap();
    let hit = store.newest_mask(&a.key).unwrap().unwrap();
    assert_eq!(hit.job_id, 2);
    assert_eq!(hit.mask.mask_params, vec![2.0, 2.0]);
    // Both full records remain fetchable.
    assert_eq!(store.list_explanations().unwrap().len(), 2);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compaction_drops_superseded_records_and_bumps_the_generation() {
    let path = temp_log("compact");
    let store = LogStore::open(&path).unwrap();
    for i in 0..4 {
        store
            .put_model(&model_record(0, vec![vec![i as f32]]))
            .unwrap();
    }
    store.put_explanation(&explanation_record(1, 10)).unwrap();
    assert_eq!(store.recovery().generation, 1);
    let bytes_before = std::fs::metadata(&path).unwrap().len();

    let stats = store.compact().unwrap();
    assert_eq!(stats.generation, 2);
    assert_eq!(stats.records_before, 5);
    assert_eq!(stats.records_after, 2, "three superseded models dropped");
    assert!(stats.bytes_after < stats.bytes_before);
    assert!(std::fs::metadata(&path).unwrap().len() < bytes_before);

    // The surviving state is the newest, both live and across reopen.
    assert_eq!(store.models().unwrap()[0].state, vec![vec![3.0]]);
    assert!(store.explanation(1).unwrap().is_some());
    drop(store);
    let store = LogStore::open(&path).unwrap();
    assert_eq!(store.recovery().generation, 2);
    assert_eq!(store.recovery().records, 2);
    assert_eq!(store.models().unwrap()[0].state, vec![vec![3.0]]);
    assert_eq!(
        store.explanation(1).unwrap().unwrap(),
        explanation_record(1, 10)
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn compaction_is_idempotent_on_a_live_only_log() {
    let path = temp_log("compact-idem");
    let store = LogStore::open(&path).unwrap();
    store.put_model(&model_record(0, vec![vec![1.0]])).unwrap();
    store.put_explanation(&explanation_record(1, 10)).unwrap();
    let first = store.compact().unwrap();
    assert_eq!(first.records_before, 2);
    assert_eq!(first.records_after, 2);
    let second = store.compact().unwrap();
    assert_eq!(second.generation, 3);
    assert_eq!(second.bytes_after, first.bytes_after);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn appends_after_recovery_and_compaction_stay_readable() {
    let path = temp_log("mixed");
    {
        let store = LogStore::open(&path).unwrap();
        store.put_model(&model_record(0, vec![vec![1.0]])).unwrap();
        store.put_explanation(&explanation_record(1, 10)).unwrap();
        store.compact().unwrap();
        store.put_explanation(&explanation_record(2, 11)).unwrap();
    }
    let store = LogStore::open(&path).unwrap();
    let jobs: Vec<u64> = store
        .list_explanations()
        .unwrap()
        .iter()
        .map(|s| s.job_id)
        .collect();
    assert_eq!(jobs, vec![1, 2]);
    assert_eq!(store.recovery().generation, 2);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn empty_store_lists_nothing() {
    let path = temp_log("empty");
    let store = LogStore::open(&path).unwrap();
    assert!(store.models().unwrap().is_empty());
    assert!(store.flows().unwrap().is_empty());
    assert!(store.list_explanations().unwrap().is_empty());
    assert!(store
        .newest_mask(&MaskKey {
            model_id: 0,
            graph_id: 0,
            target: Target::Graph,
            layers: 1,
        })
        .unwrap()
        .is_none());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), HEADER_LEN);
    std::fs::remove_file(&path).unwrap();
}

/// What a reopened store holds, in the order the sweep's log commits it:
/// the model, the flows, then explanations 1 and 2.
fn recovered_prefix(store: &LogStore) -> usize {
    let held = [
        !store.models().unwrap().is_empty(),
        !store.flows().unwrap().is_empty(),
        store.explanation(1).unwrap().is_some(),
        store.explanation(2).unwrap().is_some(),
    ];
    let prefix = held.iter().take_while(|h| **h).count();
    assert!(
        held[prefix..].iter().all(|h| !h),
        "recovered {held:?}, not a prefix of the committed records"
    );
    prefix
}

/// Crash-point sweep: a 4-record log cut at every record boundary and at
/// every byte of its final record, and separately with every payload byte
/// of the final record flipped. Each damaged copy must reopen to exactly
/// the committed records that are still whole, with equal contents, and
/// the dropped tail physically removed.
///
/// Header bytes are not swept: the record CRC covers only the payload, so
/// a flipped `kind` byte is not caught as a torn record.
#[test]
fn crash_point_sweep_recovers_exactly_a_prefix() {
    let flows = FlowsRecord {
        graph_id: 77,
        target: Target::Node(2),
        layers: 2,
        max_flows: 1000,
        layer_edge_count: 4,
        flow_edges: vec![0, 1, 2, 3],
        dropped: 0,
    };
    let model = model_record(0, vec![vec![1.0, 2.0]]);
    let path = temp_log("sweep-source");
    // `ends[k]` is the file length once `k` records are committed.
    let mut ends = Vec::new();
    {
        let store = LogStore::open(&path).unwrap();
        let len = || std::fs::metadata(&path).unwrap().len() as usize;
        ends.push(len());
        store.put_model(&model).unwrap();
        ends.push(len());
        store.put_flows(&flows).unwrap();
        ends.push(len());
        store.put_explanation(&explanation_record(1, 10)).unwrap();
        ends.push(len());
        store.put_explanation(&explanation_record(2, 11)).unwrap();
        ends.push(len());
    }
    let log = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(ends[0], HEADER_LEN as usize);
    assert_eq!(*ends.last().unwrap(), log.len());

    let reopen = |bytes: &[u8], what: &str| {
        let path = temp_log("sweep");
        std::fs::write(&path, bytes).unwrap();
        let store = LogStore::open(&path).unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
        let k = recovered_prefix(&store);
        let report = store.recovery();
        assert_eq!(report.records, k as u64, "{what}");
        assert_eq!(
            report.truncated_bytes,
            (bytes.len() - ends[k]) as u64,
            "{what}"
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            ends[k],
            "{what}"
        );
        if k >= 1 {
            assert_eq!(store.models().unwrap(), vec![model.clone()], "{what}");
        }
        if k >= 2 {
            assert_eq!(store.flows().unwrap(), vec![flows.clone()], "{what}");
        }
        for (job, graph) in [(1, 10), (2, 11)].into_iter().take(k.saturating_sub(2)) {
            let back = store.explanation(job).unwrap();
            assert_eq!(back, Some(explanation_record(job, graph)), "{what}");
        }
        drop(store);
        std::fs::remove_file(&path).unwrap();
        k
    };

    let final_start = ends[3];
    let cuts = ends.iter().copied().chain(final_start + 1..log.len());
    for cut in cuts {
        let expected = ends.iter().rposition(|&e| e <= cut).unwrap();
        let got = reopen(&log[..cut], &format!("cut at byte {cut}"));
        assert_eq!(got, expected, "cut at byte {cut}");
    }
    let payload_start = final_start + RECORD_HEADER_LEN as usize;
    assert!(payload_start < log.len());
    for at in payload_start..log.len() {
        let mut bytes = log.clone();
        bytes[at] ^= 0xFF;
        let got = reopen(&bytes, &format!("flip at byte {at}"));
        assert_eq!(
            got, 3,
            "flip at byte {at}: the final record must be dropped"
        );
    }
}
