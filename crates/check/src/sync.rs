//! The swappable sync facade.
//!
//! Crates that want to be model-checkable import their entire sync
//! vocabulary from here instead of `std::sync` / `std::thread`:
//!
//! ```rust
//! use revelio_check::sync::atomic::{AtomicU64, Ordering};
//! use revelio_check::sync::{mpsc, thread, Arc, Mutex};
//! ```
//!
//! * **Default build** (no features): every name is a re-export of the
//!   `std` item itself — not a wrapper, the *same type* — so the facade
//!   costs literally nothing. `tests/facade_std.rs` proves this at
//!   compile time with type-identity coercions.
//! * **`--features check`**: the same names resolve to the
//!   scheduler-routed [`shim`](crate::shim) types. Code that runs inside
//!   [`explore`](crate::explore) gets deterministic interleaving control
//!   and happens-before tracking; code outside a model falls back to
//!   plain `std` behaviour, so unrelated tests in a unified feature graph
//!   keep working.
//!
//! [`RaceCell`] is exported in both modes (as a plain mutex-backed cell
//! when unchecked) so model-only helpers compile unconditionally.

pub use std::sync::Arc;

pub use crate::shim::RaceCell;

#[cfg(not(feature = "check"))]
pub use std::sync::{mpsc, Condvar, Mutex, MutexGuard};

#[cfg(feature = "check")]
pub use crate::shim::{mpsc, Condvar, Mutex, MutexGuard};

/// Atomic types (facade-switched) and `Ordering` (always `std`'s — the
/// shims interpret the caller's ordering via vector clocks).
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(feature = "check"))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

    #[cfg(feature = "check")]
    pub use crate::shim::{AtomicBool, AtomicU64, AtomicUsize};
}

/// Thread spawn/join/yield (facade-switched).
pub mod thread {
    #[cfg(not(feature = "check"))]
    pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle};

    #[cfg(feature = "check")]
    pub use crate::shim::{sleep, spawn, yield_now, Builder, JoinHandle};
}
