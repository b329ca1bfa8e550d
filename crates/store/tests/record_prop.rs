//! Property tests for the store record codecs, mirroring the wire-codec
//! suite: round-trips on arbitrary records, and rejection (never a panic,
//! never silent corruption) for truncated, corrupted, and
//! hostile-length payloads. Every generated record (and every layout
//! nested in one) also runs through [`check_codec`], the property every
//! `Codec` holds.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use revelio_core::wire::{check_codec, put_u32, Codec};
use revelio_core::Degradation;
use revelio_gnn::{GnnConfig, GnnKind, Task};
use revelio_graph::Target;
use revelio_store::{
    fingerprint_model, ExplanationRecord, FlowsRecord, MaskKey, ModelRecord, PhaseSummary,
    StoredMask,
};

fn config_from(bits: u64) -> GnnConfig {
    GnnConfig {
        kind: match bits % 3 {
            0 => GnnKind::Gcn,
            1 => GnnKind::Gin,
            _ => GnnKind::Gat,
        },
        task: if bits & 4 == 0 {
            Task::NodeClassification
        } else {
            Task::GraphClassification
        },
        in_dim: (bits % 7 + 1) as usize,
        hidden_dim: (bits % 13 + 1) as usize,
        num_classes: (bits % 5 + 2) as usize,
        num_layers: (bits % 3 + 1) as usize,
        heads: (bits % 4 + 1) as usize,
        seed: bits,
    }
}

/// Fails the case when `value` breaks the shared codec property.
fn holds<T: Codec + PartialEq + std::fmt::Debug>(value: &T) {
    if let Err(violation) = check_codec(value) {
        panic!("{violation}");
    }
}

fn target_from(bits: u64) -> Target {
    if bits & 1 == 0 {
        Target::Graph
    } else {
        Target::Node((bits >> 1) as usize)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn model_record_round_trips_bit_exact(
        bits in 0u64..u64::MAX,
        model_id in 0u32..u32::MAX,
        state in prop::collection::vec(
            prop::collection::vec(-1.0e20f32..1.0e20, 0..12), 0..5),
    ) {
        let rec = ModelRecord {
            model_id,
            fingerprint: fingerprint_model(&config_from(bits), &state),
            config: config_from(bits),
            state: state.clone(),
        };
        holds(&rec);
        holds(&rec.config);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let back = ModelRecord::decode(&buf).unwrap();
        prop_assert_eq!(&back.config, &rec.config);
        prop_assert_eq!(back.model_id, rec.model_id);
        prop_assert_eq!(back.fingerprint, rec.fingerprint);
        let bits_of = |s: &[Vec<f32>]| s
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>())
            .collect::<Vec<_>>();
        prop_assert_eq!(bits_of(&back.state), bits_of(&rec.state));
    }

    #[test]
    fn flows_record_round_trips(
        graph_id in 0u64..u64::MAX,
        tbits in 0u64..1_000,
        layers in 1u32..4,
        max_flows in 1u64..1_000_000,
        dropped in 0u64..1_000,
        raw_edges in prop::collection::vec(0u32..6, 0..24),
        layer_edge_count in 6u32..32,
    ) {
        // Trim the table to a whole number of flows so it is valid.
        let keep = raw_edges.len() / layers as usize * layers as usize;
        let rec = FlowsRecord {
            graph_id,
            target: target_from(tbits),
            layers,
            max_flows,
            layer_edge_count,
            flow_edges: raw_edges[..keep].to_vec(),
            dropped,
        };
        holds(&rec);
        holds(&rec.target);
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        prop_assert_eq!(FlowsRecord::decode(&buf).unwrap(), rec);
    }

    #[test]
    fn explanation_record_round_trips(
        job_id in 0u64..u64::MAX,
        kbits in (0u32..100, 0u64..u64::MAX, 0u64..1_000, 1u32..4),
        edge_scores in prop::collection::vec(-1.0f32..1.0, 0..20),
        mask_params in prop::collection::vec(-4.0f32..4.0, 0..10),
        flags in 0u8..8,
        times in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let (model_id, graph_id, tbits, layers) = kbits;
        let rec = ExplanationRecord {
            job_id,
            key: MaskKey {
                model_id,
                graph_id,
                target: target_from(tbits),
                layers,
            },
            model_fingerprint: graph_id ^ 0x5555,
            edge_scores: edge_scores.clone(),
            layer_edge_scores: if flags & 1 == 0 {
                None
            } else {
                Some(vec![edge_scores.clone(), edge_scores.clone()])
            },
            flow_scores: if flags & 2 == 0 { None } else { Some(edge_scores) },
            degradation: Degradation {
                deadline_hit: flags & 4 == 4,
                epochs_run: (job_id % 600) as usize,
                epochs_planned: 600,
                flows_dropped: tbits,
            },
            phases: PhaseSummary {
                queue_us: times.0,
                prep_us: times.1,
                explain_us: times.2,
            },
            mask: Some(StoredMask {
                selected: (0..mask_params.len() as u32).collect(),
                mask_params,
                layer_weights: vec![vec![0.54]],
            }),
        };
        holds(&rec);
        holds(&rec.key);
        holds(&rec.phases);
        holds(&rec.degradation);
        holds(rec.mask.as_ref().unwrap());
        holds(&rec.summary());
        holds(&ExplanationRecord { mask: None, ..rec.clone() });
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        prop_assert_eq!(ExplanationRecord::decode(&buf).unwrap(), rec);
    }

    #[test]
    fn every_proper_prefix_of_a_record_is_rejected(
        job_id in 0u64..1_000,
        cut in 0usize..10_000,
    ) {
        let rec = ExplanationRecord {
            job_id,
            key: MaskKey {
                model_id: 1,
                graph_id: 2,
                target: Target::Node(3),
                layers: 2,
            },
            model_fingerprint: 4,
            edge_scores: vec![0.5; 6],
            layer_edge_scores: Some(vec![vec![0.1; 4], vec![0.2; 4]]),
            flow_scores: Some(vec![0.9; 3]),
            degradation: Degradation::default(),
            phases: PhaseSummary::default(),
            mask: Some(StoredMask {
                mask_params: vec![0.1, 0.2],
                layer_weights: vec![vec![0.0]],
                selected: vec![0, 1],
            }),
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let cut = cut % buf.len(); // strict prefix
        prop_assert!(ExplanationRecord::decode(&buf[..cut]).is_err());
    }

    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(0u8..=255, 0..200),
    ) {
        let _ = ModelRecord::decode(&bytes);
        let _ = FlowsRecord::decode(&bytes);
        let _ = ExplanationRecord::decode(&bytes);
    }

    #[test]
    fn single_byte_corruption_never_grows_the_decoded_record(
        pos in 0usize..10_000,
        xor in 1u8..=255,
    ) {
        // Codec-level corruption (the log's CRC normally screens this out):
        // a flipped byte may shift field boundaries, but decode must either
        // error or return a record — never panic or over-allocate.
        let rec = FlowsRecord {
            graph_id: 7,
            target: Target::Node(2),
            layers: 2,
            max_flows: 100,
            layer_edge_count: 5,
            flow_edges: vec![0, 1, 2, 3],
            dropped: 0,
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let pos = pos % buf.len();
        buf[pos] ^= xor;
        if let Ok(back) = FlowsRecord::decode(&buf) {
            // A successful decode can only come from flips in value fields;
            // the structure must still be internally consistent.
            prop_assert!((back.flow_edges.len() as u32).is_multiple_of(back.layers));
            prop_assert!(back
                .flow_edges
                .iter()
                .all(|&e| e < back.layer_edge_count));
        }
    }
}

#[test]
fn config_tags_hold_the_codec_property() {
    for b in 0..=u8::MAX {
        if let Ok(kind) = GnnKind::from_bytes(&[b]) {
            assert_eq!(kind.to_bytes(), vec![b]);
            holds(&kind);
        }
        if let Ok(task) = Task::from_bytes(&[b]) {
            assert_eq!(task.to_bytes(), vec![b]);
            holds(&task);
        }
    }
    assert!(GnnKind::from_bytes(&[3]).is_err() && Task::from_bytes(&[2]).is_err());
}

#[test]
fn hostile_length_prefixes_fail_before_allocation() {
    // A mask whose selection claims 2^30 entries but carries none: the
    // decoder must refuse from the prefix alone (Truncated), not allocate.
    let rec = ExplanationRecord {
        job_id: 1,
        key: MaskKey {
            model_id: 0,
            graph_id: 0,
            target: Target::Graph,
            layers: 1,
        },
        model_fingerprint: 0,
        edge_scores: vec![],
        layer_edge_scores: None,
        flow_scores: None,
        degradation: Degradation::default(),
        phases: PhaseSummary::default(),
        mask: None,
    };
    let mut buf = Vec::new();
    rec.encode(&mut buf);
    // Rewrite the trailing "no mask" flag into "mask present" followed by a
    // hostile mask_params length.
    buf.pop();
    buf.push(1);
    put_u32(&mut buf, 1 << 30);
    assert!(ExplanationRecord::decode(&buf).is_err());
}
