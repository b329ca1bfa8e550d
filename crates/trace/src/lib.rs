//! `revelio-trace` — structured tracing for the explanation stack.
//!
//! The serving runtime's metrics (queue depth, latency histograms) say how
//! long a job took; this crate says *where the time went* and *how the
//! optimisation converged*, per request. The vocabulary is deliberately
//! small:
//!
//! * A [`Phase`] names one stage of serving an explanation (subgraph
//!   extraction, flow-index build, the optimisation epoch loop, score
//!   readout).
//! * An [`Event`] is one timestamped observation: a span boundary, one
//!   optimisation epoch with its loss and gradient norm, a cache probe, a
//!   deadline trip.
//! * A [`Collector`] receives events. [`NoopCollector`] is the zero-cost
//!   default (its `enabled()` gate lets emitters skip even building the
//!   event); [`RingCollector`] journals into a bounded drop-oldest ring;
//!   [`Tee`] fans out to two collectors (e.g. a per-request ring plus the
//!   always-on metrics bridge).
//! * A [`TraceHandle`] is what instrumented code holds: a trace id, a
//!   collector, and the monotonic epoch all timestamps are relative to.
//! * A [`Trace`] is the finished, drained journal: plain data the runtime
//!   can store, ship over a wire, or assert on in tests.
//!
//! The crate is std-only and allocation-free on the emit path (events are
//! `Copy`; the ring pre-allocates its slots).
//!
//! # Ring-buffer semantics
//!
//! The workspace forbids `unsafe`, so the ring is not a classic
//! `UnsafeCell` seqlock; instead each writer claims a slot index with one
//! `fetch_add` on an atomic sequence counter and stores the event into
//! `slots[seq % capacity]` behind a per-slot mutex (newest sequence wins,
//! so a stalled writer can never clobber an event that lapped it). Writers
//! therefore never wait for readers and never wait for writers working on
//! *other* slots; two writers only contend when they land on the same
//! slot, which requires the ring to have wrapped a full lap between them.
//! The oldest events are overwritten first (drop-oldest), and the number
//! of dropped events is exact by construction:
//! `max(0, total_claimed - capacity)`.
//!
//! # Concurrency checking
//!
//! All synchronisation goes through the `revelio_check::sync` facade: in
//! normal builds those names *are* the `std` types (zero overhead); built
//! with `revelio-check/check`, the ring becomes deterministically model
//! checkable (see `crates/check` and DESIGN §11).

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod distributed;

pub use distributed::{
    hex_trace_id, validate_json, AssembledEvent, AssembledSpan, AssembledTrace, PointKind, Sampler,
    TraceContext,
};

use revelio_check::sync::atomic::{AtomicU64, Ordering};
use revelio_check::sync::{Arc, Mutex};
use std::sync::OnceLock;
use std::time::Instant;

/// Identifies one traced request end to end (the runtime uses the job's
/// submission id, so a trace can be joined back to its job and seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace-{}", self.0)
    }
}

/// One stage of serving an explanation. The taxonomy is fixed so phase
/// timings aggregate cleanly into named metrics histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Model materialisation + instance forward pass (the `L`-hop
    /// computation subgraph is assumed already extracted by the caller;
    /// this phase covers turning it into a scored instance).
    Extraction,
    /// Flow enumeration / `FlowIndex` construction (or its cache fetch).
    FlowIndex,
    /// The mask-optimisation epoch loop.
    Optimize,
    /// Score readout: scattering learned mask values into flow / layer-edge
    /// / edge scores.
    Readout,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 4] = [
        Phase::Extraction,
        Phase::FlowIndex,
        Phase::Optimize,
        Phase::Readout,
    ];

    /// Stable lowercase name (used for metric names and wire rendering).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Extraction => "extraction",
            Phase::FlowIndex => "flow_index",
            Phase::Optimize => "optimize",
            Phase::Readout => "readout",
        }
    }
}

/// What one [`Event`] observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A phase began.
    SpanStart {
        /// The phase being timed.
        phase: Phase,
    },
    /// A phase ended; `dur_ns` is its wall-clock duration.
    SpanEnd {
        /// The phase that finished.
        phase: Phase,
        /// Duration of the span in nanoseconds.
        dur_ns: u64,
    },
    /// One optimisation epoch completed (emitted only by verbose
    /// collectors: computing the loss value and gradient norm costs real
    /// work on otherwise-unbounded runs).
    Epoch {
        /// Zero-based epoch index.
        index: u32,
        /// Loss *before* this epoch's parameter step.
        loss: f32,
        /// L2 norm of the flow-mask gradient after backward.
        grad_norm: f32,
    },
    /// An artifact-cache probe (the flow-index fetch), annotated hit/miss.
    CacheProbe {
        /// Whether the artifact was already resident.
        hit: bool,
    },
    /// A deadline poll tripped: the optimisation loop stopped before the
    /// planned epoch count.
    DeadlineHit {
        /// The epoch at which the poll fired (== epochs actually run).
        epoch: u32,
    },
    /// A free-form static annotation (e.g. `"flow-index-reused"`).
    Note(&'static str),
}

/// One timestamped observation inside a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// The trace this event belongs to.
    pub trace: TraceId,
    /// Nanoseconds since the owning [`TraceHandle`]'s epoch (monotonic).
    pub at_ns: u64,
    /// What was observed.
    pub kind: EventKind,
}

/// Receives events from instrumented code.
///
/// Implementations must be cheap and non-blocking: emitters sit inside the
/// optimisation hot loop. The two gates let emitters skip work entirely:
/// when [`Collector::enabled`] is `false` nothing is recorded, and
/// per-epoch loss/grad-norm computation is gated behind
/// [`Collector::verbose`] so the always-on metrics bridge never forces
/// extra tensor reads.
pub trait Collector: Send + Sync {
    /// Whether events should be recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether per-epoch diagnostics (loss value, gradient norm) are worth
    /// computing for this collector.
    fn verbose(&self) -> bool {
        false
    }

    /// Records one event. Must not block on readers.
    fn record(&self, event: Event);
}

/// The zero-cost default collector: `enabled()` is `false`, so emitters
/// skip event construction entirely and `record` is unreachable in
/// practice (it is a no-op regardless).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopCollector;

impl Collector for NoopCollector {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

/// A bounded drop-oldest event journal.
///
/// Writers claim a sequence number with one atomic `fetch_add` and store
/// into `slots[seq % capacity]`; the oldest events are overwritten first.
/// [`RingCollector::dropped`] is exact: `max(0, total - capacity)`. See the
/// crate docs for why the slots are mutexes rather than `UnsafeCell`s
/// (the workspace forbids `unsafe`), and why that still never makes a
/// writer wait on a reader.
pub struct RingCollector {
    slots: Vec<Mutex<Option<(u64, Event)>>>,
    next: AtomicU64,
}

impl RingCollector {
    /// A ring holding at most `capacity` events (rounded up to 1).
    pub fn new(capacity: usize) -> RingCollector {
        let capacity = capacity.max(1);
        RingCollector {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded since construction (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Events lost to overwriting: exactly `max(0, total - capacity)`.
    pub fn dropped(&self) -> u64 {
        self.total().saturating_sub(self.slots.len() as u64)
    }

    /// Snapshot of the resident events in record order (oldest first),
    /// with the drop counter, as a finished [`Trace`].
    ///
    /// Taken while writers are still active the snapshot is a consistent
    /// *sample* (each slot is read atomically under its lock; the set may
    /// interleave laps); taken after writers quiesce — the runtime drains
    /// only after the job completes — it is the exact journal tail.
    pub fn drain(&self, id: TraceId) -> Trace {
        let mut seen: Vec<(u64, Event)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let got = match slot.lock() {
                Ok(g) => *g,
                Err(poisoned) => *poisoned.into_inner(),
            };
            if let Some(entry) = got {
                seen.push(entry);
            }
        }
        seen.sort_unstable_by_key(|(seq, _)| *seq);
        Trace {
            id,
            events: seen.into_iter().map(|(_, e)| e).collect(),
            dropped: self.dropped(),
        }
    }
}

impl Collector for RingCollector {
    fn verbose(&self) -> bool {
        true
    }

    fn record(&self, event: Event) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = match slot.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        // Newest sequence wins: a writer that claimed `seq` and then
        // stalled must not clobber an event from a later lap — that would
        // drop the *newest* event while `dropped()` claims drop-oldest.
        if guard.is_none_or(|(stored, _)| stored < seq) {
            *guard = Some((seq, event));
        }
    }
}

/// Fans events out to two collectors; enabled/verbose when either side is.
/// Each event is forwarded only to the sides that want it.
pub struct Tee(pub Arc<dyn Collector>, pub Arc<dyn Collector>);

impl Collector for Tee {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn verbose(&self) -> bool {
        self.0.verbose() || self.1.verbose()
    }

    fn record(&self, event: Event) {
        if self.0.enabled() {
            self.0.record(event);
        }
        if self.1.enabled() {
            self.1.record(event);
        }
    }
}

/// What instrumented code holds: a trace id, a collector, and the
/// monotonic instant all of this trace's timestamps are measured from.
///
/// Cloning shares the collector (the runtime clones the handle into
/// `ExplainControl` while keeping its own reference for the final drain).
#[derive(Clone)]
pub struct TraceHandle {
    id: TraceId,
    collector: Arc<dyn Collector>,
    epoch: Instant,
}

impl TraceHandle {
    /// A handle emitting into `collector` under `id`; timestamps are
    /// relative to *now*.
    pub fn new(id: TraceId, collector: Arc<dyn Collector>) -> TraceHandle {
        TraceHandle {
            id,
            collector,
            epoch: Instant::now(),
        }
    }

    /// The shared do-nothing handle (its [`NoopCollector`] is a static
    /// singleton, so this is one `Arc` clone — no allocation).
    pub fn noop() -> TraceHandle {
        static NOOP: OnceLock<Arc<NoopCollector>> = OnceLock::new();
        let collector =
            Arc::clone(NOOP.get_or_init(|| Arc::new(NoopCollector))) as Arc<dyn Collector>;
        TraceHandle::new(TraceId(0), collector)
    }

    /// This trace's id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Whether emitting is worthwhile at all (gate event construction on
    /// this).
    pub fn enabled(&self) -> bool {
        self.collector.enabled()
    }

    /// Whether per-epoch diagnostics (loss, grad norm) should be computed.
    pub fn verbose(&self) -> bool {
        self.collector.enabled() && self.collector.verbose()
    }

    /// Emits one event (no-op when the collector is disabled).
    pub fn event(&self, kind: EventKind) {
        if self.collector.enabled() {
            self.collector.record(Event {
                trace: self.id,
                at_ns: u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
                kind,
            });
        }
    }

    /// Starts a phase span; the returned guard emits `SpanEnd` (with the
    /// measured duration) when dropped.
    pub fn span(&self, phase: Phase) -> Span<'_> {
        self.event(EventKind::SpanStart { phase });
        Span {
            handle: self,
            phase,
            start: Instant::now(),
        }
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("id", &self.id)
            .field("enabled", &self.enabled())
            .finish_non_exhaustive()
    }
}

/// RAII guard for one phase: emits `SpanEnd { dur_ns }` on drop.
pub struct Span<'a> {
    handle: &'a TraceHandle,
    phase: Phase,
    start: Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.handle.event(EventKind::SpanEnd {
            phase: self.phase,
            dur_ns: u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        });
    }
}

/// A finished, drained trace: plain data, safe to store, clone, or ship.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The trace's id (== the runtime job id for served requests).
    pub id: TraceId,
    /// Resident events, oldest first.
    pub events: Vec<Event>,
    /// Events lost to ring overwriting (0 when the journal fit).
    pub dropped: u64,
}

impl Trace {
    /// Number of `Epoch` events in the journal.
    pub fn epoch_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Epoch { .. }))
            .count()
    }

    /// Loss values of the recorded epochs, in epoch order.
    pub fn losses(&self) -> Vec<f32> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Epoch { loss, .. } => Some(loss),
                _ => None,
            })
            .collect()
    }

    /// Total nanoseconds spent in `phase` (sum over its `SpanEnd` events).
    pub fn phase_ns(&self, phase: Phase) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::SpanEnd { phase: p, dur_ns } if p == phase => Some(dur_ns),
                _ => None,
            })
            .sum()
    }

    /// Whether the journal holds a completed span for `phase`.
    pub fn has_span(&self, phase: Phase) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SpanEnd { phase: p, .. } if p == phase))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_handle(capacity: usize) -> (Arc<RingCollector>, TraceHandle) {
        let ring = Arc::new(RingCollector::new(capacity));
        let handle = TraceHandle::new(TraceId(7), Arc::clone(&ring) as Arc<dyn Collector>);
        (ring, handle)
    }

    #[test]
    fn noop_is_disabled_and_records_nothing() {
        let h = TraceHandle::noop();
        assert!(!h.enabled());
        assert!(!h.verbose());
        h.event(EventKind::Note("ignored"));
        drop(h.span(Phase::Optimize));
    }

    #[test]
    fn span_guard_emits_start_and_end() {
        let (ring, h) = ring_handle(16);
        {
            let _s = h.span(Phase::FlowIndex);
        }
        let trace = ring.drain(h.id());
        assert_eq!(trace.events.len(), 2);
        assert!(matches!(
            trace.events[0].kind,
            EventKind::SpanStart {
                phase: Phase::FlowIndex
            }
        ));
        assert!(trace.has_span(Phase::FlowIndex));
        assert!(!trace.has_span(Phase::Optimize));
        assert!(trace.events[1].at_ns >= trace.events[0].at_ns);
    }

    #[test]
    fn ring_drops_oldest_and_counts_exactly() {
        let (ring, h) = ring_handle(4);
        for i in 0..10u32 {
            h.event(EventKind::Epoch {
                index: i,
                loss: i as f32,
                grad_norm: 0.0,
            });
        }
        assert_eq!(ring.total(), 10);
        assert_eq!(ring.dropped(), 6);
        let trace = ring.drain(h.id());
        assert_eq!(trace.dropped, 6);
        // The four *newest* events survive, in order.
        let kept: Vec<u32> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Epoch { index, .. } => Some(index),
                _ => None,
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn stalled_writer_cannot_clobber_a_newer_event() {
        // Regression: writer A claims seq 0 and stalls; writers lap the
        // ring and store seq 2 into the same slot; A finally stores.
        // Drop-oldest demands the slot keep seq 2. Simulated by rolling
        // the claim counter back to replay the stalled claim. The full
        // interleaving is model-checked in crates/check
        // tests/real_structures.rs (ring_journal_*).
        let (ring, h) = ring_handle(1);
        let event = |i: u32| EventKind::Epoch {
            index: i,
            loss: 0.0,
            grad_norm: 0.0,
        };
        for i in 0..3u32 {
            h.event(event(i));
        }
        ring.next.store(1, Ordering::Relaxed);
        h.event(event(99)); // replays claim seq=1: older than stored seq=2
        let trace = ring.drain(h.id());
        let kept: Vec<u32> = trace
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Epoch { index, .. } => Some(index),
                _ => None,
            })
            .collect();
        assert_eq!(
            kept,
            vec![2],
            "older stalled write must lose to the newer lap"
        );
    }

    #[test]
    fn trace_helpers_summarise_epochs_and_phases() {
        let (ring, h) = ring_handle(32);
        {
            let _s = h.span(Phase::Optimize);
            for i in 0..3u32 {
                h.event(EventKind::Epoch {
                    index: i,
                    loss: 1.0 / (i + 1) as f32,
                    grad_norm: 0.5,
                });
            }
        }
        h.event(EventKind::DeadlineHit { epoch: 3 });
        let trace = ring.drain(h.id());
        assert_eq!(trace.epoch_count(), 3);
        assert_eq!(trace.losses().len(), 3);
        assert!(trace.losses()[0] > trace.losses()[2]);
        assert!(trace.phase_ns(Phase::Optimize) > 0);
        assert_eq!(trace.phase_ns(Phase::Readout), 0);
    }

    #[test]
    fn tee_forwards_to_both_and_is_verbose_if_either_is() {
        let ring_a = Arc::new(RingCollector::new(8));
        let ring_b = Arc::new(RingCollector::new(8));
        let tee = Tee(
            Arc::clone(&ring_a) as Arc<dyn Collector>,
            Arc::clone(&ring_b) as Arc<dyn Collector>,
        );
        assert!(tee.enabled());
        assert!(tee.verbose());
        let h = TraceHandle::new(TraceId(1), Arc::new(tee));
        h.event(EventKind::CacheProbe { hit: true });
        assert_eq!(ring_a.total(), 1);
        assert_eq!(ring_b.total(), 1);

        let quiet = Tee(
            Arc::new(NoopCollector) as Arc<dyn Collector>,
            Arc::new(NoopCollector) as Arc<dyn Collector>,
        );
        assert!(!quiet.enabled());
    }
}
