//! Record vocabulary and layouts for the persistent store.
//!
//! Three record kinds flow through the log: model registrations
//! ([`ModelRecord`]), capped flow enumerations ([`FlowsRecord`]), and
//! finished explanations ([`ExplanationRecord`] — scores, degradation, the
//! phase summary, and the converged mask that seeds warm-started
//! re-optimisation). Each record states its byte layout once, as a
//! [`wire_struct!`](revelio_core::wire_struct) field list over the same
//! [`Codec`] the network frames use, so a record and the wire message
//! that carries it (an [`ExplanationSummary`] is also a `ListExplanations`
//! entry) cannot drift apart. The layouts are byte-identical to format v1
//! logs written before the shared codec existed. Length prefixes are
//! validated against the bytes actually present *before* any allocation,
//! and a record decode must consume its whole payload.

use revelio_core::wire::{Codec, Fnv1a, WireDecodeError};
use revelio_core::{wire_struct, ConvergedMask, Degradation};
use revelio_gnn::GnnConfig;
use revelio_graph::Target;

/// A registered model: wire-assigned id, content fingerprint, and the full
/// architecture + parameter state needed to re-materialise it on recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Registration index (the wire protocol's model id). Re-registering
    /// the same id supersedes the earlier record.
    pub model_id: u32,
    /// [`fingerprint_model`] of `(config, state)`; warm-start lookups
    /// reject masks recorded under a different fingerprint.
    pub fingerprint: u64,
    /// Architecture hyperparameters.
    pub config: GnnConfig,
    /// Flattened parameter tensors, in the model's canonical order.
    pub state: Vec<Vec<f32>>,
}

/// A capped flow enumeration, persisted as its deterministic layer-edge
/// table. The incidence matrices are *not* stored — they are a pure
/// function of the table and are rebuilt on recovery via
/// [`FlowIndex::from_parts`](revelio_graph::FlowIndex::from_parts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowsRecord {
    /// Caller-assigned graph (content) id.
    pub graph_id: u64,
    /// Explained target.
    pub target: Target,
    /// GNN layer count `L` the enumeration was built for.
    pub layers: u32,
    /// The enumeration cap the index was built under (part of the cache
    /// key: different caps are different artifacts).
    pub max_flows: u64,
    /// Layer-edge count `|E|` of the message-passing view — the incidence
    /// row dimension.
    pub layer_edge_count: u32,
    /// Flattened `[num_flows, layers]` layer-edge table.
    pub flow_edges: Vec<u32>,
    /// Flows dropped by the cap (`0` = complete enumeration).
    pub dropped: u64,
}

/// The key a converged mask is stored (and warm-start looked up) under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskKey {
    /// Wire model id.
    pub model_id: u32,
    /// Caller-assigned graph id.
    pub graph_id: u64,
    /// Explained target.
    pub target: Target,
    /// GNN layer count `L`.
    pub layers: u32,
}

/// A converged mask state: everything needed to re-seed Eq. 7's edge-mask
/// training from where a previous run finished — stored exactly as the
/// explainer exports it.
pub type StoredMask = ConvergedMask;

/// Wall-clock phase summary of the job that produced an explanation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseSummary {
    /// Microseconds spent queued before a worker picked the job up.
    pub queue_us: u64,
    /// Microseconds spent in preparation (model materialisation, flow
    /// enumeration / cache probe).
    pub prep_us: u64,
    /// Microseconds inside the explainer itself.
    pub explain_us: u64,
}

/// A finished explanation: scores, degradation record, phase summary, and
/// (for mask-learning methods) the converged mask.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationRecord {
    /// Runtime job id — unique across restarts because the runtime resumes
    /// numbering above the largest stored id.
    pub job_id: u64,
    /// The warm-start key this record answers for.
    pub key: MaskKey,
    /// Fingerprint of the model the job ran against (staleness guard: a
    /// re-registered model with different weights invalidates the mask).
    pub model_fingerprint: u64,
    /// Per-original-edge importance scores.
    pub edge_scores: Vec<f32>,
    /// Per-layer scores over layer edges, when the method distinguishes
    /// layers.
    pub layer_edge_scores: Option<Vec<Vec<f32>>>,
    /// Flow-level scores, for flow-based methods.
    pub flow_scores: Option<Vec<f32>>,
    /// Budget-driven degradation the job reported.
    pub degradation: Degradation,
    /// Phase timing summary.
    pub phases: PhaseSummary,
    /// Converged mask state, when the explainer exposes one.
    pub mask: Option<StoredMask>,
}

/// The in-memory listing entry for one stored explanation (no score
/// payloads — those stay on disk until fetched).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExplanationSummary {
    /// Job id the full record is fetched by.
    pub job_id: u64,
    /// The record's warm-start key.
    pub key: MaskKey,
    /// Whether the stored answer was degraded.
    pub degraded: bool,
    /// Whether the record carries a converged mask.
    pub has_mask: bool,
}

/// A successful [`newest_mask`](crate::LogStore::newest_mask) lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct MaskHit {
    /// The job that recorded the mask.
    pub job_id: u64,
    /// Fingerprint of the model that job ran against.
    pub model_fingerprint: u64,
    /// The converged mask state.
    pub mask: StoredMask,
}

/// FNV-1a 64 content fingerprint of a model's architecture and parameters.
///
/// Both registration (when persisting) and warm-start lookup (when
/// guarding) hash the same canonical byte stream: the config's integer
/// fields followed by every parameter's IEEE-754 bits in state order.
pub fn fingerprint_model(config: &GnnConfig, state: &[Vec<f32>]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&config.kind.to_bytes());
    h.write(&config.task.to_bytes());
    for v in [
        config.in_dim as u64,
        config.hidden_dim as u64,
        config.num_classes as u64,
        config.num_layers as u64,
        config.heads as u64,
        config.seed,
    ] {
        h.write(&v.to_le_bytes());
    }
    for tensor in state {
        h.write(&(tensor.len() as u64).to_le_bytes());
        for &x in tensor {
            h.write(&x.to_bits().to_le_bytes());
        }
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// Record layouts.
// ---------------------------------------------------------------------------

wire_struct!(ModelRecord {
    model_id: u32,
    fingerprint: u64,
    config: GnnConfig,
    state: Vec<Vec<f32>>,
});

wire_struct!(MaskKey {
    model_id: u32,
    graph_id: u64,
    target: Target,
    layers: u32,
});

wire_struct!(FlowsRecord {
    graph_id: u64,
    target: Target,
    layers: u32,
    max_flows: u64,
    layer_edge_count: u32,
    flow_edges: Vec<u32>,
    dropped: u64,
} check FlowsRecord::check);

wire_struct!(PhaseSummary {
    queue_us: u64,
    prep_us: u64,
    explain_us: u64,
});

wire_struct!(ExplanationRecord {
    job_id: u64,
    key: MaskKey,
    model_fingerprint: u64,
    edge_scores: Vec<f32>,
    layer_edge_scores: Option<Vec<Vec<f32>>>,
    flow_scores: Option<Vec<f32>>,
    degradation: Degradation,
    phases: PhaseSummary,
    mask: Option<StoredMask>,
});

wire_struct!(ExplanationSummary {
    job_id: u64,
    key: MaskKey,
    degraded: bool,
    has_mask: bool,
});

/// Whole-payload entry points: a log record holds exactly one record.
macro_rules! record_payload {
    ($($ty:ident),+) => {$(
        impl $ty {
            /// Appends the record payload to `out`.
            pub fn encode(&self, out: &mut Vec<u8>) {
                Codec::encode(self, out);
            }

            /// Decodes a payload written by `encode`, consuming the whole
            /// buffer.
            pub fn decode(bytes: &[u8]) -> Result<$ty, WireDecodeError> {
                Codec::from_bytes(bytes)
            }
        }
    )+};
}

record_payload!(ModelRecord, FlowsRecord, ExplanationRecord);

impl FlowsRecord {
    /// The layer-edge table must divide evenly into `layers` and reference
    /// only edges below `layer_edge_count`.
    fn check(&self) -> Result<(), WireDecodeError> {
        if self.layers == 0 {
            return Err(WireDecodeError::Invalid("flow record with zero layers"));
        }
        if !self.flow_edges.len().is_multiple_of(self.layers as usize) {
            return Err(WireDecodeError::Invalid(
                "flow edge table not a multiple of the layer count",
            ));
        }
        if self.flow_edges.iter().any(|&e| e >= self.layer_edge_count) {
            return Err(WireDecodeError::Invalid(
                "flow edge id out of incidence range",
            ));
        }
        Ok(())
    }
}

impl ExplanationRecord {
    /// The in-memory listing entry for this record.
    pub fn summary(&self) -> ExplanationSummary {
        ExplanationSummary {
            job_id: self.job_id,
            key: self.key,
            degraded: self.degradation.is_degraded(),
            has_mask: self.mask.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_core::wire::{put_u32, put_u64};
    use revelio_gnn::{GnnKind, Task};

    fn config() -> GnnConfig {
        GnnConfig::standard(GnnKind::Gcn, Task::NodeClassification, 4, 3, 11)
    }

    #[test]
    fn model_record_round_trips() {
        let rec = ModelRecord {
            model_id: 2,
            fingerprint: fingerprint_model(&config(), &[vec![1.0, -2.5]]),
            config: config(),
            state: vec![vec![1.0, -2.5], vec![]],
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(ModelRecord::decode(&buf), Ok(rec));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let base = fingerprint_model(&config(), &[vec![1.0, 2.0]]);
        assert_eq!(base, fingerprint_model(&config(), &[vec![1.0, 2.0]]));
        assert_ne!(base, fingerprint_model(&config(), &[vec![1.0, 2.5]]));
        let mut other = config();
        other.seed = 12;
        assert_ne!(base, fingerprint_model(&other, &[vec![1.0, 2.0]]));
        // Tensor boundaries are part of the stream: [1,2] != [1],[2].
        assert_ne!(base, fingerprint_model(&config(), &[vec![1.0], vec![2.0]]));
    }

    #[test]
    fn flows_record_round_trips_and_validates() {
        let rec = FlowsRecord {
            graph_id: 9,
            target: Target::Node(2),
            layers: 2,
            max_flows: 100,
            layer_edge_count: 5,
            flow_edges: vec![0, 1, 4, 2],
            dropped: 3,
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(FlowsRecord::decode(&buf), Ok(rec.clone()));

        let mut ragged = rec.clone();
        ragged.flow_edges = vec![0, 1, 2];
        let mut buf = Vec::new();
        ragged.encode(&mut buf);
        assert!(FlowsRecord::decode(&buf).is_err());

        let mut out_of_range = rec;
        out_of_range.flow_edges = vec![0, 5];
        let mut buf = Vec::new();
        out_of_range.encode(&mut buf);
        assert!(FlowsRecord::decode(&buf).is_err());
    }

    #[test]
    fn explanation_record_round_trips() {
        let rec = ExplanationRecord {
            job_id: 41,
            key: MaskKey {
                model_id: 0,
                graph_id: 7,
                target: Target::Node(2),
                layers: 2,
            },
            model_fingerprint: 0xDEAD_BEEF,
            edge_scores: vec![0.25, 0.75],
            layer_edge_scores: Some(vec![vec![0.1, 0.2], vec![0.3, 0.4]]),
            flow_scores: Some(vec![0.9, 0.1, 0.5]),
            degradation: Degradation {
                deadline_hit: false,
                epochs_run: 30,
                epochs_planned: 30,
                flows_dropped: 0,
            },
            phases: PhaseSummary {
                queue_us: 5,
                prep_us: 14,
                explain_us: 2000,
            },
            mask: Some(StoredMask {
                mask_params: vec![0.4, -0.1, 2.0],
                layer_weights: vec![vec![0.5]],
                selected: vec![0, 1, 2],
            }),
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(ExplanationRecord::decode(&buf), Ok(rec.clone()));
        let s = rec.summary();
        assert_eq!(s.job_id, 41);
        assert!(s.has_mask);
        assert!(!s.degraded);
    }

    #[test]
    fn misaligned_mask_is_rejected() {
        let mut buf = Vec::new();
        ExplanationRecord {
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
            mask: Some(StoredMask {
                mask_params: vec![0.1],
                layer_weights: vec![],
                selected: vec![0, 1],
            }),
        }
        .encode(&mut buf);
        assert_eq!(
            ExplanationRecord::decode(&buf),
            Err(WireDecodeError::Invalid(
                "mask parameters misaligned with selection"
            ))
        );
    }

    #[test]
    fn hostile_list_count_fails_before_allocating() {
        // A model record whose state claims 2^31 tensors but carries none.
        let mut buf = Vec::new();
        put_u32(&mut buf, 3);
        put_u64(&mut buf, 0);
        config().encode(&mut buf);
        put_u32(&mut buf, u32::MAX / 2);
        assert!(matches!(
            ModelRecord::decode(&buf),
            Err(WireDecodeError::Truncated { .. })
        ));
    }
}
