//! Bounded retention of finished request traces.
//!
//! Traced jobs drain their ring-buffer journal into a [`Trace`] when they
//! finish; the runtime keeps the most recent few so a client (or
//! `revelio-top`) can fetch one by id *after* the response went out. The
//! store is a fixed-capacity FIFO — drop-oldest, like the journal itself —
//! so a long-running server's memory is bounded no matter how many traced
//! requests it serves.

use std::collections::VecDeque;

use revelio_check::sync::{Mutex, MutexGuard};
use revelio_trace::{Trace, TraceId};

/// Why [`Runtime::fetch_trace`](crate::Runtime::fetch_trace) found no
/// trace: distinguishes "this id was retained once but fell out of the
/// bounded window" from "this id was never here", so callers can surface a
/// precise error instead of an empty result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMiss {
    /// The trace existed but was evicted by newer traces (or replaced by a
    /// re-used id).
    Evicted,
    /// No trace was ever retained under this id (unknown, still running,
    /// or untraced).
    Unknown,
}

impl std::fmt::Display for TraceMiss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceMiss::Evicted => write!(f, "trace evicted from the retention window"),
            TraceMiss::Unknown => write!(f, "unknown trace id"),
        }
    }
}

/// How many evicted ids the store remembers for [`TraceMiss::Evicted`]
/// classification; a multiple of the retention window so the answer stays
/// useful well past eviction without unbounded growth.
const EVICTED_ID_MEMORY: usize = 8;

/// A fixed-capacity, drop-oldest store of finished traces.
pub(crate) struct TraceStore {
    traces: Mutex<Inner>,
    capacity: usize,
}

struct Inner {
    traces: VecDeque<Trace>,
    /// Ids that were retained and then evicted, bounded at
    /// `EVICTED_ID_MEMORY ×` the trace capacity (drop-oldest, like the
    /// traces themselves).
    evicted: VecDeque<TraceId>,
}

impl TraceStore {
    /// A store retaining at most `capacity` traces (rounded up to 1).
    pub(crate) fn new(capacity: usize) -> TraceStore {
        TraceStore {
            traces: Mutex::new(Inner {
                traces: VecDeque::new(),
                evicted: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Retains `trace`, evicting the oldest retained trace when full. A
    /// re-used id replaces the previous trace under that id.
    pub(crate) fn push(&self, trace: Trace) {
        let mut inner = lock(&self.traces);
        inner.traces.retain(|t| t.id != trace.id);
        while inner.traces.len() >= self.capacity {
            if let Some(old) = inner.traces.pop_front() {
                remember_evicted(&mut inner, self.capacity, old.id);
            }
        }
        // The id is back: a stale eviction record would misclassify a
        // future miss after it gets evicted again, so drop it now.
        inner.evicted.retain(|id| *id != trace.id);
        inner.traces.push_back(trace);
    }

    /// The retained trace with the given id; a miss says *why*: evicted
    /// from the bounded window, or never retained at all.
    pub(crate) fn fetch(&self, id: TraceId) -> Result<Trace, TraceMiss> {
        let inner = lock(&self.traces);
        if let Some(t) = inner.traces.iter().find(|t| t.id == id) {
            return Ok(t.clone());
        }
        if inner.evicted.contains(&id) {
            Err(TraceMiss::Evicted)
        } else {
            Err(TraceMiss::Unknown)
        }
    }

    /// The most recently retained trace, if any.
    pub(crate) fn newest(&self) -> Option<Trace> {
        lock(&self.traces).traces.back().cloned()
    }
}

fn remember_evicted(inner: &mut Inner, capacity: usize, id: TraceId) {
    while inner.evicted.len() >= capacity.saturating_mul(EVICTED_ID_MEMORY) {
        inner.evicted.pop_front();
    }
    inner.evicted.push_back(id);
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> Trace {
        Trace {
            id: TraceId(id),
            events: Vec::new(),
            dropped: 0,
        }
    }

    #[test]
    fn bounded_drop_oldest_retention() {
        let store = TraceStore::new(2);
        store.push(trace(1));
        store.push(trace(2));
        store.push(trace(3));
        assert!(store.fetch(TraceId(1)).is_err());
        assert!(store.fetch(TraceId(2)).is_ok());
        assert!(store.fetch(TraceId(3)).is_ok());
        assert!(store.fetch(TraceId(9)).is_err());
    }

    #[test]
    fn reused_id_replaces_previous_trace() {
        let store = TraceStore::new(4);
        store.push(trace(1));
        store.push(Trace {
            dropped: 5,
            ..trace(1)
        });
        let got = store.fetch(TraceId(1)).expect("retained");
        assert_eq!(got.dropped, 5);
    }

    #[test]
    fn retention_stays_bounded_under_churn() {
        let store = TraceStore::new(3);
        for id in 0..1_000 {
            store.push(trace(id));
        }
        let retained: Vec<u64> = (0..1_000)
            .filter(|id| store.fetch(TraceId(*id)).is_ok())
            .collect();
        assert_eq!(retained, vec![997, 998, 999]);
    }

    #[test]
    fn eviction_is_oldest_first() {
        let store = TraceStore::new(3);
        for id in 1..=3 {
            store.push(trace(id));
        }
        // Re-pushing 1 moves it to the back; the next overflow must now
        // evict 2 (the oldest retained), not 1.
        store.push(trace(1));
        store.push(trace(4));
        assert_eq!(store.fetch(TraceId(2)), Err(TraceMiss::Evicted));
        assert!(store.fetch(TraceId(1)).is_ok());
        assert!(store.fetch(TraceId(3)).is_ok());
        assert!(store.fetch(TraceId(4)).is_ok());
    }

    #[test]
    fn fetch_distinguishes_evicted_from_unknown() {
        let store = TraceStore::new(2);
        store.push(trace(1));
        store.push(trace(2));
        store.push(trace(3));
        assert_eq!(store.fetch(TraceId(1)), Err(TraceMiss::Evicted));
        assert_eq!(store.fetch(TraceId(9)), Err(TraceMiss::Unknown));
        assert_eq!(store.fetch(TraceId(3)).map(|t| t.id), Ok(TraceId(3)));
        // A returning id clears its eviction record…
        store.push(trace(1));
        assert!(store.fetch(TraceId(1)).is_ok());
        // …and the eviction memory itself is bounded.
        for id in 100..2_000 {
            store.push(trace(id));
        }
        assert_eq!(store.fetch(TraceId(100)), Err(TraceMiss::Unknown));
        assert_eq!(store.fetch(TraceId(1_990)), Err(TraceMiss::Evicted));
    }

    #[test]
    fn newest_tracks_the_last_push() {
        let store = TraceStore::new(2);
        assert!(store.newest().is_none());
        store.push(trace(7));
        store.push(trace(8));
        assert_eq!(store.newest().map(|t| t.id), Some(TraceId(8)));
    }
}
