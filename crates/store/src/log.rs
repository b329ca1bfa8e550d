//! The append-only single-file log backend.
//!
//! ## On-disk format
//!
//! ```text
//! file   := header record*
//! header := magic "RVST" (4) | format version u16 LE | reserved u16 |
//!           generation u64 LE                                  (16 bytes)
//! record := kind u8 | payload len u32 LE | CRC-32 u32 LE | payload
//! ```
//!
//! Records are only ever appended; a key written twice is *superseded* (the
//! in-memory index points at the newest span) and the dead bytes are
//! reclaimed by [`LogStore::compact`], which rewrites the live set into a
//! fresh file under `generation + 1` and atomically renames it over the
//! log.
//!
//! ## Recovery invariants
//!
//! [`LogStore::open`] replays the whole file to rebuild the index. Replay
//! stops at the first frame that cannot be a complete record — short
//! header, length past end-of-file, CRC mismatch, or an oversized length —
//! and *truncates* the file there: a crash mid-append loses at most the
//! record being written, never anything before it. Unknown record kinds
//! with valid CRCs are skipped (forward compatibility), counted in
//! [`RecoveryReport::skipped`].

use std::collections::{BTreeMap, HashMap};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use revelio_check::sync::Mutex;
use revelio_core::wire::crc32;
use revelio_graph::Target;

use crate::records::{
    ExplanationRecord, ExplanationSummary, FlowsRecord, MaskHit, MaskKey, ModelRecord,
};
use crate::StoreError;

/// First four bytes of every store file.
pub const FILE_MAGIC: [u8; 4] = *b"RVST";

/// On-disk format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// File header length in bytes.
pub const HEADER_LEN: u64 = 16;

/// Record header length in bytes (kind + length + CRC).
pub const RECORD_HEADER_LEN: u64 = 9;

/// Upper bound on a single record payload; a longer declared length is
/// treated as a torn tail rather than an allocation request.
pub const MAX_RECORD_LEN: u32 = 64 << 20;

const REC_MODEL: u8 = 1;
const REC_FLOWS: u8 = 2;
const REC_EXPLANATION: u8 = 3;

/// What [`LogStore::open`] found while replaying the log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Complete records replayed into the index (including superseded
    /// ones).
    pub records: u64,
    /// Valid records of unknown kind that were skipped.
    pub skipped: u64,
    /// Torn-tail bytes dropped by truncation (`0` on a clean open).
    pub truncated_bytes: u64,
    /// Compaction generation the file carries.
    pub generation: u64,
}

/// What [`LogStore::compact`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Generation of the compacted file (`old + 1`).
    pub generation: u64,
    /// Physical records before / after.
    pub records_before: u64,
    /// Live records rewritten.
    pub records_after: u64,
    /// File bytes before / after.
    pub bytes_before: u64,
    /// File bytes after compaction.
    pub bytes_after: u64,
}

/// Byte span of one record payload inside the log file.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Payload offset (past the record header).
    offset: u64,
    len: u32,
    crc: u32,
    kind: u8,
}

/// The in-memory index, rebuilt on open: newest span per key, plus the
/// listing summaries and the newest-mask map that answers warm-start
/// lookups without touching the file.
#[derive(Default)]
struct Index {
    models: BTreeMap<u32, Span>,
    flows: HashMap<(u64, Target, u32, u64), Span>,
    explanations: BTreeMap<u64, Span>,
    summaries: BTreeMap<u64, ExplanationSummary>,
    /// `MaskKey` → job id of the newest mask-bearing record.
    masks: HashMap<MaskKey, u64>,
}

struct Inner {
    path: PathBuf,
    file: File,
    /// Offset one past the last complete record — where the next append
    /// goes.
    end: u64,
    generation: u64,
    /// Physical records in the file (live + superseded).
    physical_records: u64,
    recovery: RecoveryReport,
    index: Index,
}

/// The persistent store: one append-only log file with an in-memory
/// index. All methods take `&self`: the store is internally synchronised
/// and shared across worker threads behind an `Arc`.
pub struct LogStore {
    inner: Mutex<Inner>,
}

impl LogStore {
    /// Opens (or creates) the log at `path`, replaying it into a fresh
    /// in-memory index and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// I/O failures surface as [`StoreError::Io`]; a file that is not a
    /// store log (bad magic, unsupported format version, undecodable
    /// CRC-valid record) as [`StoreError::Corrupt`].
    pub fn open(path: impl AsRef<Path>) -> Result<LogStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let len = file.metadata()?.len();
        let inner = if len == 0 {
            write_header(&mut file, 1)?;
            Inner {
                path,
                file,
                end: HEADER_LEN,
                generation: 1,
                physical_records: 0,
                recovery: RecoveryReport {
                    generation: 1,
                    ..RecoveryReport::default()
                },
                index: Index::default(),
            }
        } else {
            replay(path, file)?
        };
        Ok(LogStore {
            inner: Mutex::new(inner),
        })
    }

    /// What the open-time replay found (truncated a torn tail, skipped
    /// unknown kinds, …). Reflects the most recent open or compaction.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock().recovery
    }

    /// Compacts the log: rewrites only the live (newest-per-key) records
    /// into a `generation + 1` file and atomically renames it over the
    /// log.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the rewrite fails; the original file
    /// is untouched until the final rename.
    pub fn compact(&self) -> Result<CompactionStats, StoreError> {
        let mut inner = self.lock();
        let before_records = inner.physical_records;
        let before_bytes = inner.end;
        let generation = inner.generation + 1;

        // Collect the live spans in a deterministic order: models by id,
        // flow indexes by key, explanations by job id.
        let mut live: Vec<Span> = Vec::new();
        live.extend(inner.index.models.values().copied());
        let mut flow_keys: Vec<_> = inner.index.flows.keys().copied().collect();
        flow_keys.sort_unstable_by_key(|&(g, t, l, m)| (g, target_order(t), l, m));
        live.extend(flow_keys.iter().map(|k| inner.index.flows[k]));
        live.extend(inner.index.explanations.values().copied());

        let tmp_path = compact_path(&inner.path);
        let mut tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        write_header(&mut tmp, generation)?;
        let records_after = live.len() as u64;
        for span in live {
            let payload = read_span(&mut inner.file, span)?;
            tmp.write_all(&record_frame(span.kind, span.crc, &payload))?;
        }
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, &inner.path)?;

        // Reopen and replay the compacted file so spans point into it.
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&inner.path)?;
        *inner = replay(inner.path.clone(), file)?;
        Ok(CompactionStats {
            generation,
            records_before: before_records,
            records_after,
            bytes_before: before_bytes,
            bytes_after: inner.end,
        })
    }

    fn lock(&self) -> revelio_check::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// `.compact` sibling of the log file, used as the rewrite target.
fn compact_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("store"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".compact");
    path.with_file_name(name)
}

/// Deterministic sort key for [`Target`] (compaction rewrites in a stable
/// order so byte-identical stores compact identically).
fn target_order(t: Target) -> (u8, u64) {
    match t {
        Target::Graph => (0, 0),
        Target::Node(n) => (1, n as u64),
    }
}

fn write_header(file: &mut File, generation: u64) -> Result<(), StoreError> {
    let mut header = Vec::with_capacity(HEADER_LEN as usize);
    header.extend_from_slice(&FILE_MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes());
    header.extend_from_slice(&generation.to_le_bytes());
    file.seek(SeekFrom::Start(0))?;
    file.write_all(&header)?;
    Ok(())
}

fn read_span(file: &mut File, span: Span) -> Result<Vec<u8>, StoreError> {
    file.seek(SeekFrom::Start(span.offset))?;
    let mut payload = vec![0u8; span.len as usize];
    file.read_exact(&mut payload)?;
    if crc32(&payload) != span.crc {
        return Err(StoreError::Corrupt {
            offset: span.offset,
            what: "record payload no longer matches its checksum",
        });
    }
    Ok(payload)
}

/// Replays `file` into a fresh [`Inner`], truncating any torn tail.
fn replay(path: PathBuf, mut file: File) -> Result<Inner, StoreError> {
    file.seek(SeekFrom::Start(0))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize {
        return Err(StoreError::Corrupt {
            offset: 0,
            what: "file shorter than the store header",
        });
    }
    if bytes[..4] != FILE_MAGIC {
        return Err(StoreError::Corrupt {
            offset: 0,
            what: "bad store magic",
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::Corrupt {
            offset: 4,
            what: "unsupported store format version",
        });
    }
    let generation =
        u64::from_le_bytes(bytes[8..16].try_into().map_err(|_| StoreError::Corrupt {
            offset: 8,
            what: "short generation field",
        })?);

    let mut index = Index::default();
    let mut offset = HEADER_LEN as usize;
    let mut records = 0u64;
    let mut skipped = 0u64;
    loop {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_HEADER_LEN as usize {
            break; // torn or absent header: end of the valid prefix
        }
        let kind = bytes[offset];
        let len = u32::from_le_bytes(bytes[offset + 1..offset + 5].try_into().unwrap_or([0; 4]));
        let crc = u32::from_le_bytes(bytes[offset + 5..offset + 9].try_into().unwrap_or([0; 4]));
        if len > MAX_RECORD_LEN {
            break; // implausible length: torn tail
        }
        let payload_at = offset + RECORD_HEADER_LEN as usize;
        if remaining < RECORD_HEADER_LEN as usize + len as usize {
            break; // payload past end-of-file: torn tail
        }
        let payload = &bytes[payload_at..payload_at + len as usize];
        if crc32(payload) != crc {
            break; // partially written payload: torn tail
        }
        let span = Span {
            offset: payload_at as u64,
            len,
            crc,
            kind,
        };
        match kind {
            REC_MODEL => {
                let rec = ModelRecord::decode(payload).map_err(|_| StoreError::Corrupt {
                    offset: payload_at as u64,
                    what: "CRC-valid model record does not decode",
                })?;
                index.models.insert(rec.model_id, span);
            }
            REC_FLOWS => {
                let rec = FlowsRecord::decode(payload).map_err(|_| StoreError::Corrupt {
                    offset: payload_at as u64,
                    what: "CRC-valid flow record does not decode",
                })?;
                index
                    .flows
                    .insert((rec.graph_id, rec.target, rec.layers, rec.max_flows), span);
            }
            REC_EXPLANATION => {
                let rec = ExplanationRecord::decode(payload).map_err(|_| StoreError::Corrupt {
                    offset: payload_at as u64,
                    what: "CRC-valid explanation record does not decode",
                })?;
                index.summaries.insert(rec.job_id, rec.summary());
                if rec.mask.is_some() {
                    index.masks.insert(rec.key, rec.job_id);
                }
                index.explanations.insert(rec.job_id, span);
            }
            _ => skipped += 1, // future record kind: ignore, keep replaying
        }
        records += 1;
        offset = payload_at + len as usize;
    }

    let truncated = (bytes.len() - offset) as u64;
    if truncated > 0 {
        file.set_len(offset as u64)?;
    }
    Ok(Inner {
        path,
        file,
        end: offset as u64,
        generation,
        physical_records: records,
        recovery: RecoveryReport {
            records,
            skipped,
            truncated_bytes: truncated,
            generation,
        },
        index,
    })
}

/// One on-disk record: kind, payload length, CRC, payload.
fn record_frame(kind: u8, crc: u32, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
    frame.push(kind);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc.to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn append(inner: &mut Inner, kind: u8, payload: &[u8]) -> Result<Span, StoreError> {
    debug_assert!(payload.len() <= MAX_RECORD_LEN as usize);
    let crc = crc32(payload);
    let len = payload.len() as u32;
    let frame = record_frame(kind, crc, payload);
    inner.file.seek(SeekFrom::Start(inner.end))?;
    inner.file.write_all(&frame)?;
    let span = Span {
        offset: inner.end + RECORD_HEADER_LEN,
        len,
        crc,
        kind,
    };
    inner.end += frame.len() as u64;
    inner.physical_records += 1;
    Ok(span)
}

impl LogStore {
    /// Persists (or supersedes) a model registration.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the record cannot be made durable.
    pub fn put_model(&self, rec: &ModelRecord) -> Result<(), StoreError> {
        let mut payload = Vec::new();
        rec.encode(&mut payload);
        let mut inner = self.lock();
        let span = append(&mut inner, REC_MODEL, &payload)?;
        inner.index.models.insert(rec.model_id, span);
        Ok(())
    }

    /// All live model records, in ascending `model_id` order — the order
    /// recovery re-registers them in.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a stored record cannot be read back.
    pub fn models(&self) -> Result<Vec<ModelRecord>, StoreError> {
        let mut inner = self.lock();
        let spans: Vec<Span> = inner.index.models.values().copied().collect();
        let mut out = Vec::with_capacity(spans.len());
        for span in spans {
            let payload = read_span(&mut inner.file, span)?;
            out.push(ModelRecord::decode(&payload).map_err(StoreError::Decode)?);
        }
        Ok(out)
    }

    /// Persists (or supersedes) a capped flow enumeration.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the record cannot be made durable.
    pub fn put_flows(&self, rec: &FlowsRecord) -> Result<(), StoreError> {
        let mut payload = Vec::new();
        rec.encode(&mut payload);
        let mut inner = self.lock();
        let span = append(&mut inner, REC_FLOWS, &payload)?;
        inner
            .index
            .flows
            .insert((rec.graph_id, rec.target, rec.layers, rec.max_flows), span);
        Ok(())
    }

    /// All live flow records, in a deterministic key order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a stored record cannot be read back.
    pub fn flows(&self) -> Result<Vec<FlowsRecord>, StoreError> {
        let mut inner = self.lock();
        let mut keys: Vec<_> = inner.index.flows.keys().copied().collect();
        keys.sort_unstable_by_key(|&(g, t, l, m)| (g, target_order(t), l, m));
        let mut out = Vec::with_capacity(keys.len());
        for key in keys {
            let span = inner.index.flows[&key];
            let payload = read_span(&mut inner.file, span)?;
            out.push(FlowsRecord::decode(&payload).map_err(StoreError::Decode)?);
        }
        Ok(out)
    }

    /// Persists a finished explanation.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the record cannot be made durable.
    pub fn put_explanation(&self, rec: &ExplanationRecord) -> Result<(), StoreError> {
        let mut payload = Vec::new();
        rec.encode(&mut payload);
        let mut inner = self.lock();
        let span = append(&mut inner, REC_EXPLANATION, &payload)?;
        inner.index.summaries.insert(rec.job_id, rec.summary());
        if rec.mask.is_some() {
            inner.index.masks.insert(rec.key, rec.job_id);
        }
        inner.index.explanations.insert(rec.job_id, span);
        Ok(())
    }

    /// The stored explanation for `job_id`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the stored record cannot be read back.
    pub fn explanation(&self, job_id: u64) -> Result<Option<ExplanationRecord>, StoreError> {
        let mut inner = self.lock();
        let Some(span) = inner.index.explanations.get(&job_id).copied() else {
            return Ok(None);
        };
        let payload = read_span(&mut inner.file, span)?;
        Ok(Some(
            ExplanationRecord::decode(&payload).map_err(StoreError::Decode)?,
        ))
    }

    /// Summaries of every stored explanation, in ascending job-id order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the index cannot be consulted.
    pub fn list_explanations(&self) -> Result<Vec<ExplanationSummary>, StoreError> {
        Ok(self.lock().index.summaries.values().copied().collect())
    }

    /// The newest stored converged mask for `key`, with the fingerprint of
    /// the model it converged against (the caller's staleness guard).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the stored record cannot be read back.
    pub fn newest_mask(&self, key: &MaskKey) -> Result<Option<MaskHit>, StoreError> {
        let mut inner = self.lock();
        let Some(job_id) = inner.index.masks.get(key).copied() else {
            return Ok(None);
        };
        let Some(span) = inner.index.explanations.get(&job_id).copied() else {
            return Ok(None);
        };
        let payload = read_span(&mut inner.file, span)?;
        let rec = ExplanationRecord::decode(&payload).map_err(StoreError::Decode)?;
        Ok(rec.mask.map(|mask| MaskHit {
            job_id: rec.job_id,
            model_fingerprint: rec.model_fingerprint,
            mask,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn compact_path_appends_suffix() {
        assert_eq!(
            compact_path(Path::new("/tmp/x/store.log")),
            Path::new("/tmp/x/store.log.compact")
        );
    }
}
