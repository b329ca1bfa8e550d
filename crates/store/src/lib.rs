//! `revelio-store` — a persistent explanation store with crash recovery.
//!
//! Everything the serving stack knows — registered models, capped flow
//! enumerations, finished explanations with their converged masks — used
//! to die with the process. This crate persists it: [`LogStore`], an
//! append-only single-file log with CRC-checked length-prefixed records,
//! generation-numbered compaction, and an in-memory index rebuilt on open.
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
//! use revelio_store::LogStore;
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
