//! Record vocabulary and codecs for the persistent store.
//!
//! Three record kinds flow through the log: model registrations
//! ([`ModelRecord`]), capped flow enumerations ([`FlowsRecord`]), and
//! finished explanations ([`ExplanationRecord`] — scores, degradation, the
//! phase summary, and the converged mask that seeds warm-started
//! re-optimisation). Every codec is built on the same hand-rolled
//! little-endian primitives as the network wire format
//! ([`revelio_core::wire`]): length prefixes are validated against the
//! bytes actually present *before* any allocation, and every decode ends
//! with an [`expect_end`](WireReader::expect_end) tripwire at the record
//! boundary.

use revelio_core::wire::{
    put_bool, put_f32s, put_u32, put_u32s, put_u64, put_u8, WireDecodeError, WireReader,
};
use revelio_core::{ConvergedMask, Degradation};
use revelio_gnn::{GnnConfig, GnnKind, Task};
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

/// A successful [`newest_mask`](crate::Store::newest_mask) lookup.
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
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(&[kind_tag(config.kind), task_tag(config.task)]);
    for v in [
        config.in_dim as u64,
        config.hidden_dim as u64,
        config.num_classes as u64,
        config.num_layers as u64,
        config.heads as u64,
        config.seed,
    ] {
        eat(&v.to_le_bytes());
    }
    for tensor in state {
        eat(&(tensor.len() as u64).to_le_bytes());
        for &x in tensor {
            eat(&x.to_bits().to_le_bytes());
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Shared sub-codecs.
// ---------------------------------------------------------------------------

fn kind_tag(kind: GnnKind) -> u8 {
    match kind {
        GnnKind::Gcn => 0,
        GnnKind::Gin => 1,
        GnnKind::Gat => 2,
    }
}

fn task_tag(task: Task) -> u8 {
    match task {
        Task::NodeClassification => 0,
        Task::GraphClassification => 1,
    }
}

fn put_target(out: &mut Vec<u8>, target: Target) {
    match target {
        Target::Graph => put_u8(out, 0),
        Target::Node(n) => {
            put_u8(out, 1);
            put_u64(out, n as u64);
        }
    }
}

fn read_target(r: &mut WireReader<'_>) -> Result<Target, WireDecodeError> {
    match r.u8()? {
        0 => Ok(Target::Graph),
        1 => Ok(Target::Node(r.u64()? as usize)),
        _ => Err(WireDecodeError::Invalid("target tag")),
    }
}

fn put_config(out: &mut Vec<u8>, config: &GnnConfig) {
    put_u8(out, kind_tag(config.kind));
    put_u8(out, task_tag(config.task));
    put_u32(out, config.in_dim as u32);
    put_u32(out, config.hidden_dim as u32);
    put_u32(out, config.num_classes as u32);
    put_u32(out, config.num_layers as u32);
    put_u32(out, config.heads as u32);
    put_u64(out, config.seed);
}

fn read_config(r: &mut WireReader<'_>) -> Result<GnnConfig, WireDecodeError> {
    let kind = match r.u8()? {
        0 => GnnKind::Gcn,
        1 => GnnKind::Gin,
        2 => GnnKind::Gat,
        _ => return Err(WireDecodeError::Invalid("gnn kind tag")),
    };
    let task = match r.u8()? {
        0 => Task::NodeClassification,
        1 => Task::GraphClassification,
        _ => return Err(WireDecodeError::Invalid("task tag")),
    };
    Ok(GnnConfig {
        kind,
        task,
        in_dim: r.u32()? as usize,
        hidden_dim: r.u32()? as usize,
        num_classes: r.u32()? as usize,
        num_layers: r.u32()? as usize,
        heads: r.u32()? as usize,
        seed: r.u64()?,
    })
}

fn put_f32_lists(out: &mut Vec<u8>, lists: &[Vec<f32>]) {
    put_u32(out, lists.len() as u32);
    for list in lists {
        put_f32s(out, list);
    }
}

/// Reads a `u32`-counted sequence of `f32` vectors, bounding the count by
/// the bytes actually present (each vector needs at least its own 4-byte
/// length prefix) before any allocation.
fn read_f32_lists(r: &mut WireReader<'_>) -> Result<Vec<Vec<f32>>, WireDecodeError> {
    let n = r.u32()? as usize;
    let floor = n
        .checked_mul(4)
        .ok_or(WireDecodeError::Invalid("list count overflows usize"))?;
    if r.remaining() < floor {
        return Err(WireDecodeError::Truncated {
            needed: floor,
            remaining: r.remaining(),
        });
    }
    let mut lists = Vec::with_capacity(n);
    for _ in 0..n {
        lists.push(r.f32s()?);
    }
    Ok(lists)
}

fn put_opt_f32s(out: &mut Vec<u8>, vs: Option<&[f32]>) {
    match vs {
        Some(vs) => {
            put_bool(out, true);
            put_f32s(out, vs);
        }
        None => put_bool(out, false),
    }
}

fn read_opt_f32s(r: &mut WireReader<'_>) -> Result<Option<Vec<f32>>, WireDecodeError> {
    Ok(if r.bool()? { Some(r.f32s()?) } else { None })
}

// ---------------------------------------------------------------------------
// Record codecs.
// ---------------------------------------------------------------------------

impl ModelRecord {
    /// Appends the record payload to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.model_id);
        put_u64(out, self.fingerprint);
        put_config(out, &self.config);
        put_f32_lists(out, &self.state);
    }

    /// Decodes a payload written by [`ModelRecord::encode`], consuming the
    /// whole buffer.
    pub fn decode(bytes: &[u8]) -> Result<ModelRecord, WireDecodeError> {
        let mut r = WireReader::new(bytes);
        let rec = ModelRecord {
            model_id: r.u32()?,
            fingerprint: r.u64()?,
            config: read_config(&mut r)?,
            state: read_f32_lists(&mut r)?,
        };
        r.expect_end()?;
        Ok(rec)
    }
}

impl MaskKey {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.model_id);
        put_u64(out, self.graph_id);
        put_target(out, self.target);
        put_u32(out, self.layers);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<MaskKey, WireDecodeError> {
        Ok(MaskKey {
            model_id: r.u32()?,
            graph_id: r.u64()?,
            target: read_target(r)?,
            layers: r.u32()?,
        })
    }
}

impl FlowsRecord {
    /// Appends the record payload to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.graph_id);
        put_target(out, self.target);
        put_u32(out, self.layers);
        put_u64(out, self.max_flows);
        put_u32(out, self.layer_edge_count);
        put_u32s(out, &self.flow_edges);
        put_u64(out, self.dropped);
    }

    /// Decodes a payload written by [`FlowsRecord::encode`], consuming the
    /// whole buffer. The layer-edge table must divide evenly into `layers`
    /// and reference only edges below `layer_edge_count`.
    pub fn decode(bytes: &[u8]) -> Result<FlowsRecord, WireDecodeError> {
        let mut r = WireReader::new(bytes);
        let rec = FlowsRecord {
            graph_id: r.u64()?,
            target: read_target(&mut r)?,
            layers: r.u32()?,
            max_flows: r.u64()?,
            layer_edge_count: r.u32()?,
            flow_edges: r.u32s()?,
            dropped: r.u64()?,
        };
        r.expect_end()?;
        if rec.layers == 0 {
            return Err(WireDecodeError::Invalid("flow record with zero layers"));
        }
        if !rec.flow_edges.len().is_multiple_of(rec.layers as usize) {
            return Err(WireDecodeError::Invalid(
                "flow edge table not a multiple of the layer count",
            ));
        }
        if rec.flow_edges.iter().any(|&e| e >= rec.layer_edge_count) {
            return Err(WireDecodeError::Invalid(
                "flow edge id out of incidence range",
            ));
        }
        Ok(rec)
    }
}

fn encode_mask(mask: &StoredMask, out: &mut Vec<u8>) {
    put_f32s(out, &mask.mask_params);
    put_f32_lists(out, &mask.layer_weights);
    put_u32s(out, &mask.selected);
}

fn decode_mask(r: &mut WireReader<'_>) -> Result<StoredMask, WireDecodeError> {
    Ok(StoredMask {
        mask_params: r.f32s()?,
        layer_weights: read_f32_lists(r)?,
        selected: r.u32s()?,
    })
}

impl ExplanationRecord {
    /// Appends the record payload to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.job_id);
        self.key.encode(out);
        put_u64(out, self.model_fingerprint);
        put_f32s(out, &self.edge_scores);
        match &self.layer_edge_scores {
            Some(lists) => {
                put_bool(out, true);
                put_f32_lists(out, lists);
            }
            None => put_bool(out, false),
        }
        put_opt_f32s(out, self.flow_scores.as_deref());
        self.degradation.encode(out);
        put_u64(out, self.phases.queue_us);
        put_u64(out, self.phases.prep_us);
        put_u64(out, self.phases.explain_us);
        match &self.mask {
            Some(mask) => {
                put_bool(out, true);
                encode_mask(mask, out);
            }
            None => put_bool(out, false),
        }
    }

    /// Decodes a payload written by [`ExplanationRecord::encode`],
    /// consuming the whole buffer. A present mask must align with its own
    /// selection (one parameter per selected flow).
    pub fn decode(bytes: &[u8]) -> Result<ExplanationRecord, WireDecodeError> {
        let mut r = WireReader::new(bytes);
        let job_id = r.u64()?;
        let key = MaskKey::decode(&mut r)?;
        let model_fingerprint = r.u64()?;
        let edge_scores = r.f32s()?;
        let layer_edge_scores = if r.bool()? {
            Some(read_f32_lists(&mut r)?)
        } else {
            None
        };
        let flow_scores = read_opt_f32s(&mut r)?;
        let degradation = Degradation::decode(&mut r)?;
        let phases = PhaseSummary {
            queue_us: r.u64()?,
            prep_us: r.u64()?,
            explain_us: r.u64()?,
        };
        let mask = if r.bool()? {
            Some(decode_mask(&mut r)?)
        } else {
            None
        };
        r.expect_end()?;
        if let Some(m) = &mask {
            if m.mask_params.len() != m.selected.len() {
                return Err(WireDecodeError::Invalid(
                    "mask parameters misaligned with selection",
                ));
            }
        }
        Ok(ExplanationRecord {
            job_id,
            key,
            model_fingerprint,
            edge_scores,
            layer_edge_scores,
            flow_scores,
            degradation,
            phases,
            mask,
        })
    }

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
        put_config(&mut buf, &config());
        put_u32(&mut buf, u32::MAX / 2);
        assert!(matches!(
            ModelRecord::decode(&buf),
            Err(WireDecodeError::Truncated { .. })
        ));
    }
}
