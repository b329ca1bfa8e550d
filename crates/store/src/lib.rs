//! `revelio-store` — a persistent explanation store with crash recovery.
//!
//! Everything the serving stack knows — registered models, capped flow
//! enumerations, finished explanations with their converged masks — used
//! to die with the process. This crate persists it: a trait-abstracted
//! [`Store`] over an append-only single-file log backend ([`LogStore`])
//! with CRC-checked length-prefixed records, generation-numbered
//! compaction, and an in-memory index rebuilt on open.
//!
//! The payoff is twofold:
//!
//! * **Crash-restart recovery** — the runtime re-registers stored models
//!   in their original order (wire ids stay stable), pre-warms its
//!   artifact cache from stored flow enumerations, and resumes job-id
//!   numbering above the largest stored id, so pre-restart explanations
//!   stay fetchable.
//! * **Warm-started mask optimisation** — Eq. 7's edge-mask training is
//!   seeded from the newest stored converged mask for the same
//!   `(model, graph, target, L)` key, guarded by a model fingerprint and
//!   an exact flow-selection match, shrinking the dominant `optimize`
//!   phase on repeat traffic.
//!
//! Interior mutability rides the [`revelio_check::sync`] facade, so the
//! store is explorable by the workspace's deterministic model checker
//! under `--features check` like every other concurrent structure here.
//!
//! ```no_run
//! use revelio_store::{LogStore, Store};
//!
//! let store = LogStore::open("/var/lib/revelio/store.log").unwrap();
//! for summary in store.list_explanations().unwrap() {
//!     println!("job {} degraded={}", summary.job_id, summary.degraded);
//! }
//! # let _ = store.compact();
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

mod log;
mod records;

use std::fmt;

pub use crate::log::{
    CompactionStats, LogStore, RecoveryReport, FILE_MAGIC, FORMAT_VERSION, HEADER_LEN,
    MAX_RECORD_LEN, RECORD_HEADER_LEN,
};
pub use crate::records::{
    fingerprint_model, ExplanationRecord, ExplanationSummary, FlowsRecord, MaskHit, MaskKey,
    ModelRecord, PhaseSummary, StoredMask,
};
pub use revelio_core::wire::crc32;

/// Error raised by store operations.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file is not (or is no longer) a valid store log. Unlike a torn
    /// tail — which recovery silently truncates — this means bytes that
    /// *claim* to be valid do not hold up: bad magic, an unsupported
    /// format version, or a CRC-valid record that does not decode.
    Corrupt {
        /// Byte offset of the offending region.
        offset: u64,
        /// What failed to hold.
        what: &'static str,
    },
    /// An indexed record failed to decode on read-back.
    Decode(revelio_core::WireDecodeError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt { offset, what } => {
                write!(f, "corrupt store at byte {offset}: {what}")
            }
            StoreError::Decode(e) => write!(f, "stored record failed to decode: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt { .. } => None,
            StoreError::Decode(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The persistence abstraction the runtime writes behind and recovers
/// from. All methods take `&self`: implementations are internally
/// synchronised and shared across worker threads behind an `Arc`.
pub trait Store: Send + Sync {
    /// Persists (or supersedes) a model registration.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the record cannot be made durable.
    fn put_model(&self, rec: &ModelRecord) -> Result<(), StoreError>;

    /// All live model records, in ascending `model_id` order — the order
    /// recovery re-registers them in.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a stored record cannot be read back.
    fn models(&self) -> Result<Vec<ModelRecord>, StoreError>;

    /// Persists (or supersedes) a capped flow enumeration.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the record cannot be made durable.
    fn put_flows(&self, rec: &FlowsRecord) -> Result<(), StoreError>;

    /// All live flow records, in a deterministic key order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if a stored record cannot be read back.
    fn flows(&self) -> Result<Vec<FlowsRecord>, StoreError>;

    /// Persists a finished explanation.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the record cannot be made durable.
    fn put_explanation(&self, rec: &ExplanationRecord) -> Result<(), StoreError>;

    /// The stored explanation for `job_id`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the stored record cannot be read back.
    fn explanation(&self, job_id: u64) -> Result<Option<ExplanationRecord>, StoreError>;

    /// Summaries of every stored explanation, in ascending job-id order.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the index cannot be consulted.
    fn list_explanations(&self) -> Result<Vec<ExplanationSummary>, StoreError>;

    /// The newest stored converged mask for `key`, with the fingerprint of
    /// the model it converged against (the caller's staleness guard).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the stored record cannot be read back.
    fn newest_mask(&self, key: &MaskKey) -> Result<Option<MaskHit>, StoreError>;
}
