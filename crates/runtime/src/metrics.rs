//! Always-on runtime metrics: lock-free counters and latency histograms.
//!
//! Every counter is a relaxed atomic, so recording costs a few nanoseconds
//! and the registry can stay enabled in production. [`Metrics::snapshot`]
//! reads a consistent-enough point-in-time copy (individual counters are
//! exact; cross-counter skew is bounded by in-flight jobs), and
//! [`MetricsSnapshot::report`] renders it for humans.

use revelio_check::sync::atomic::{AtomicU64, Ordering};
use revelio_check::sync::Arc;
use std::time::Duration;

use revelio_trace::{Collector, Event, EventKind, Phase};

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// unbounded. Spans 100µs … 10s, which covers both cache-hit flow prep and
/// full REVELIO optimisation runs.
pub const LATENCY_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

const NUM_BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// A fixed-bucket latency histogram with atomic counters.
#[derive(Default)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Records one duration.
    ///
    /// The four counters are updated with *independent* relaxed atomics, so
    /// a concurrent [`Histogram::snapshot`] can observe them mutually
    /// skewed: `max_us` may already reflect an observation whose `count` /
    /// `total_us` increments have not landed yet (and vice versa), which
    /// momentarily makes `max_us > total_us` or `mean_us() > max_us`
    /// possible. Each counter is individually exact once writers quiesce;
    /// consumers must not assume cross-field invariants mid-flight.
    pub fn observe(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = LATENCY_BUCKETS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(NUM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters (relaxed loads; buckets may be
    /// mutually slightly stale under concurrent `observe`).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            total_us: self.total_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `(LATENCY_BUCKETS_US[i-1],
    /// LATENCY_BUCKETS_US[i]]` µs, the last bucket is unbounded above.
    pub buckets: [u64; NUM_BUCKETS],
    pub count: u64,
    pub total_us: u64,
    pub max_us: u64,
}

revelio_core::wire_struct!(HistogramSnapshot {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    total_us: u64,
    max_us: u64,
});

impl HistogramSnapshot {
    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) in microseconds by linear
    /// interpolation within the covering bucket. Bucket `i` spans
    /// `(LATENCY_BUCKETS_US[i-1], LATENCY_BUCKETS_US[i]]`; the unbounded
    /// overflow bucket is capped at the observed `max_us`, so the estimate
    /// never exceeds a value that actually occurred. Returns 0 when empty.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64) >= target {
                let lo = if i == 0 { 0 } else { LATENCY_BUCKETS_US[i - 1] };
                let hi = match LATENCY_BUCKETS_US.get(i) {
                    Some(&b) => b,
                    // Overflow bucket: cap at the observed maximum.
                    None => self.max_us.max(lo),
                };
                let frac = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            cum = next;
        }
        self.max_us
    }

    /// Median latency estimate in microseconds.
    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    /// 90th-percentile latency estimate in microseconds.
    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    /// 99th-percentile latency estimate in microseconds.
    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// Folds `other` into `self`: per-bucket sums, summed counts/totals,
    /// max of maxima. Bucket bounds are compile-time constants shared by
    /// every histogram, so snapshots from different processes (e.g. a
    /// gateway rolling up its backend fleet) merge exactly.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// Upper bounds of the batch-size histogram buckets (number of jobs fused
/// into one optimize pass); the last bucket is unbounded.
pub const BATCH_SIZE_BUCKETS: [u64; 5] = [1, 2, 4, 8, 16];

const NUM_SIZE_BUCKETS: usize = BATCH_SIZE_BUCKETS.len() + 1;

/// A fixed-bucket histogram over small integer sizes (batch widths), with
/// the same relaxed-atomic caveats as [`Histogram`].
#[derive(Default)]
pub struct SizeHistogram {
    buckets: [AtomicU64; NUM_SIZE_BUCKETS],
    count: AtomicU64,
    total: AtomicU64,
    max: AtomicU64,
}

impl SizeHistogram {
    /// Records one size observation.
    pub fn observe(&self, size: u64) {
        let idx = BATCH_SIZE_BUCKETS
            .iter()
            .position(|&b| size <= b)
            .unwrap_or(NUM_SIZE_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(size, Ordering::Relaxed);
        self.max.fetch_max(size, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> SizeHistogramSnapshot {
        SizeHistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one [`SizeHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeHistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `(BATCH_SIZE_BUCKETS[i-1],
    /// BATCH_SIZE_BUCKETS[i]]`, the last bucket is unbounded above.
    pub buckets: [u64; NUM_SIZE_BUCKETS],
    pub count: u64,
    pub total: u64,
    pub max: u64,
}

revelio_core::wire_struct!(SizeHistogramSnapshot {
    buckets: [u64; NUM_SIZE_BUCKETS],
    count: u64,
    total: u64,
    max: u64,
});

impl SizeHistogramSnapshot {
    /// Mean observed size ×1000 (fixed-point, 0 when empty) — keeps the
    /// snapshot `Eq`/`Copy` without a float field.
    pub fn mean_milli(&self) -> u64 {
        (self.total * 1000).checked_div(self.count).unwrap_or(0)
    }

    /// Folds `other` into `self`; see [`HistogramSnapshot::merge`].
    pub fn merge(&mut self, other: &SizeHistogramSnapshot) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }
}

/// The runtime's metrics registry. One instance per [`Runtime`], shared by
/// every worker.
///
/// [`Runtime`]: crate::Runtime
#[derive(Default)]
pub struct Metrics {
    pub jobs_submitted: AtomicU64,
    pub jobs_started: AtomicU64,
    pub jobs_completed: AtomicU64,
    /// Completed jobs whose answer was degraded (deadline hit or flow cap
    /// shrink); a subset of `jobs_completed`.
    pub jobs_degraded: AtomicU64,
    /// Jobs that panicked or were cancelled before producing an answer.
    pub jobs_failed: AtomicU64,
    /// Jobs shed by [`Runtime::try_submit`] admission control (never
    /// queued; not counted in `jobs_submitted`).
    ///
    /// [`Runtime::try_submit`]: crate::Runtime::try_submit
    pub jobs_rejected: AtomicU64,
    /// Jobs submitted but not yet picked up by a worker.
    pub queue_depth: AtomicU64,
    pub queue_wait: Histogram,
    /// Artifact-preparation stage (subgraph/flow enumeration or cache hit).
    pub prep_latency: Histogram,
    /// Explainer stage proper (mask optimisation / decomposition).
    pub explain_latency: Histogram,
    /// Named-phase breakdowns fed by the tracing bridge: subgraph/model
    /// materialisation.
    pub phase_extraction: Histogram,
    /// Named-phase breakdown: flow-index build (cache misses only; hits
    /// never enter the span).
    pub phase_flow_index: Histogram,
    /// Named-phase breakdown: mask-optimisation epoch loop.
    pub phase_optimize: Histogram,
    /// Named-phase breakdown: score readout / aggregation.
    pub phase_readout: Histogram,
    /// Total optimisation epochs run across all completed jobs.
    pub epochs_total: AtomicU64,
    /// Warm-start lookups that found a usable converged mask in the
    /// persistent store (matching key *and* model fingerprint).
    pub store_hits: AtomicU64,
    /// Warm-start lookups that found nothing usable (no store attached,
    /// no record for the key, stale fingerprint, or a read error).
    pub store_misses: AtomicU64,
    /// Fused multi-job optimize passes executed (each covers ≥2 jobs).
    pub batches: AtomicU64,
    /// Jobs served through a fused batch; a subset of `jobs_completed` +
    /// `jobs_failed`.
    pub batched_jobs: AtomicU64,
    /// Distribution of fused-batch widths (jobs per optimize pass).
    pub batch_size: SizeHistogram,
}

impl Metrics {
    pub fn snapshot(&self, cache_hits: u64, cache_misses: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_started: self.jobs_started.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_degraded: self.jobs_degraded.load(Ordering::Relaxed),
            jobs_failed: self.jobs_failed.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            cache_hits,
            cache_misses,
            queue_wait: self.queue_wait.snapshot(),
            prep_latency: self.prep_latency.snapshot(),
            explain_latency: self.explain_latency.snapshot(),
            phase_extraction: self.phase_extraction.snapshot(),
            phase_flow_index: self.phase_flow_index.snapshot(),
            phase_optimize: self.phase_optimize.snapshot(),
            phase_readout: self.phase_readout.snapshot(),
            epochs_total: self.epochs_total.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_misses: self.store_misses.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_jobs: self.batched_jobs.load(Ordering::Relaxed),
            batch_size: self.batch_size.snapshot(),
        }
    }
}

/// Bridges structured-trace span ends into the named-phase histograms.
///
/// Workers attach this collector to *every* job (traced or not) through a
/// [`TraceHandle`], so the per-phase breakdowns in [`MetricsSnapshot`] are
/// always populated. It is deliberately not [`Collector::verbose`]:
/// per-epoch loss/grad-norm events require extra tensor reads that an
/// always-on bridge must never force.
///
/// [`TraceHandle`]: revelio_trace::TraceHandle
pub struct MetricsCollector {
    metrics: Arc<Metrics>,
}

impl MetricsCollector {
    /// A bridge feeding `metrics`.
    pub fn new(metrics: Arc<Metrics>) -> MetricsCollector {
        MetricsCollector { metrics }
    }
}

impl Collector for MetricsCollector {
    fn record(&self, event: Event) {
        if let EventKind::SpanEnd { phase, dur_ns } = event.kind {
            let h = match phase {
                Phase::Extraction => &self.metrics.phase_extraction,
                Phase::FlowIndex => &self.metrics.phase_flow_index,
                Phase::Optimize => &self.metrics.phase_optimize,
                Phase::Readout => &self.metrics.phase_readout,
            };
            h.observe(Duration::from_nanos(dur_ns));
        }
    }
}

/// Point-in-time copy of every runtime metric; plain data, safe to ship
/// across threads or serialise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub jobs_submitted: u64,
    pub jobs_started: u64,
    pub jobs_completed: u64,
    pub jobs_degraded: u64,
    pub jobs_failed: u64,
    /// Jobs shed by admission control before queueing.
    pub jobs_rejected: u64,
    pub queue_depth: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub queue_wait: HistogramSnapshot,
    pub prep_latency: HistogramSnapshot,
    pub explain_latency: HistogramSnapshot,
    /// Named-phase breakdown: subgraph/model materialisation.
    pub phase_extraction: HistogramSnapshot,
    /// Named-phase breakdown: flow-index build (cache misses only).
    pub phase_flow_index: HistogramSnapshot,
    /// Named-phase breakdown: mask-optimisation epoch loop.
    pub phase_optimize: HistogramSnapshot,
    /// Named-phase breakdown: score readout / aggregation.
    pub phase_readout: HistogramSnapshot,
    /// Total optimisation epochs run across all completed jobs.
    pub epochs_total: u64,
    /// Warm-start store lookups that produced a usable mask.
    pub store_hits: u64,
    /// Warm-start store lookups that produced nothing usable.
    pub store_misses: u64,
    /// Fused multi-job optimize passes executed.
    pub batches: u64,
    /// Jobs served through a fused batch.
    pub batched_jobs: u64,
    /// Distribution of fused-batch widths.
    pub batch_size: SizeHistogramSnapshot,
}

// The wire order predates the struct's field grouping: the counters come
// first, then the histograms, then the store and batch counters.
revelio_core::wire_struct!(MetricsSnapshot {
    jobs_submitted: u64,
    jobs_started: u64,
    jobs_completed: u64,
    jobs_degraded: u64,
    jobs_failed: u64,
    jobs_rejected: u64,
    queue_depth: u64,
    cache_hits: u64,
    cache_misses: u64,
    epochs_total: u64,
    queue_wait: HistogramSnapshot,
    prep_latency: HistogramSnapshot,
    explain_latency: HistogramSnapshot,
    phase_extraction: HistogramSnapshot,
    phase_flow_index: HistogramSnapshot,
    phase_optimize: HistogramSnapshot,
    phase_readout: HistogramSnapshot,
    store_hits: u64,
    store_misses: u64,
    batches: u64,
    batched_jobs: u64,
    batch_size: SizeHistogramSnapshot,
});

impl MetricsSnapshot {
    /// Cache hit rate in `[0, 1]` (0 when the cache was never probed).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Folds `other` into `self`: counters and queue depth sum, histograms
    /// merge bucket-wise. This is the fleet-rollup primitive — a gateway
    /// aggregates the snapshots of every backend it fronts into one
    /// fleet-level view (total cache hit rate, fleet latency distribution)
    /// without losing per-bucket resolution.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.jobs_submitted = self.jobs_submitted.saturating_add(other.jobs_submitted);
        self.jobs_started = self.jobs_started.saturating_add(other.jobs_started);
        self.jobs_completed = self.jobs_completed.saturating_add(other.jobs_completed);
        self.jobs_degraded = self.jobs_degraded.saturating_add(other.jobs_degraded);
        self.jobs_failed = self.jobs_failed.saturating_add(other.jobs_failed);
        self.jobs_rejected = self.jobs_rejected.saturating_add(other.jobs_rejected);
        self.queue_depth = self.queue_depth.saturating_add(other.queue_depth);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cache_misses = self.cache_misses.saturating_add(other.cache_misses);
        self.epochs_total = self.epochs_total.saturating_add(other.epochs_total);
        self.store_hits = self.store_hits.saturating_add(other.store_hits);
        self.store_misses = self.store_misses.saturating_add(other.store_misses);
        self.batches = self.batches.saturating_add(other.batches);
        self.batched_jobs = self.batched_jobs.saturating_add(other.batched_jobs);
        self.queue_wait.merge(&other.queue_wait);
        self.prep_latency.merge(&other.prep_latency);
        self.explain_latency.merge(&other.explain_latency);
        self.phase_extraction.merge(&other.phase_extraction);
        self.phase_flow_index.merge(&other.phase_flow_index);
        self.phase_optimize.merge(&other.phase_optimize);
        self.phase_readout.merge(&other.phase_readout);
        self.batch_size.merge(&other.batch_size);
    }

    /// Renders the snapshot as an aligned human-readable report.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str("runtime metrics\n");
        out.push_str(&format!(
            "  jobs      submitted={} started={} completed={} degraded={} failed={} rejected={}\n",
            self.jobs_submitted,
            self.jobs_started,
            self.jobs_completed,
            self.jobs_degraded,
            self.jobs_failed,
            self.jobs_rejected,
        ));
        out.push_str(&format!(
            "  queue     depth={} wait mean={}us max={}us\n",
            self.queue_depth,
            self.queue_wait.mean_us(),
            self.queue_wait.max_us,
        ));
        out.push_str(&format!(
            "  cache     hits={} misses={} hit_rate={:.1}%\n",
            self.cache_hits,
            self.cache_misses,
            100.0 * self.cache_hit_rate(),
        ));
        out.push_str(&format!("  epochs    total={}\n", self.epochs_total));
        out.push_str(&format!(
            "  store     hits={} misses={}\n",
            self.store_hits, self.store_misses,
        ));
        out.push_str(&format!(
            "  batch     batches={} jobs={} mean_size={}.{:03} max_size={}\n",
            self.batches,
            self.batched_jobs,
            self.batch_size.mean_milli() / 1000,
            self.batch_size.mean_milli() % 1000,
            self.batch_size.max,
        ));
        for (name, h) in [
            ("prep", &self.prep_latency),
            ("explain", &self.explain_latency),
            ("extract", &self.phase_extraction),
            ("flowindex", &self.phase_flow_index),
            ("optimize", &self.phase_optimize),
            ("readout", &self.phase_readout),
        ] {
            out.push_str(&format!(
                "  {name:<9} n={} mean={}us p50={}us p90={}us p99={}us max={}us buckets",
                h.count,
                h.mean_us(),
                h.p50_us(),
                h.p90_us(),
                h.p99_us(),
                h.max_us,
            ));
            for (i, b) in h.buckets.iter().enumerate() {
                let label = match LATENCY_BUCKETS_US.get(i) {
                    Some(&us) if us < 1_000 => format!("<={us}us"),
                    Some(&us) if us < 1_000_000 => format!("<={}ms", us / 1_000),
                    Some(&us) => format!("<={}s", us / 1_000_000),
                    None => "inf".to_owned(),
                };
                out.push_str(&format!(" {label}:{b}"));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // bucket 0 (<=100us)
        h.observe(Duration::from_micros(500)); // bucket 1 (<=1ms)
        h.observe(Duration::from_secs(20)); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[NUM_BUCKETS - 1], 1);
        assert_eq!(s.max_us, 20_000_000);
        assert_eq!(s.mean_us(), (50 + 500 + 20_000_000) / 3);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::default();
        // 100 observations at ~500us: all land in bucket 1, (100, 1000]us.
        for _ in 0..100 {
            h.observe(Duration::from_micros(500));
        }
        let s = h.snapshot();
        // Linear interpolation inside (100, 1000]: p50 = 100 + 0.5*900.
        assert_eq!(s.p50_us(), 550);
        assert_eq!(s.p90_us(), 910);
        assert_eq!(s.p99_us(), 991);
        // Quantiles are monotone and bounded by the bucket's upper edge.
        assert!(s.quantile_us(1.0) <= 1000);
        assert_eq!(HistogramSnapshot::default().p99_us(), 0);
    }

    #[test]
    fn overflow_bucket_quantile_capped_at_max() {
        let h = Histogram::default();
        h.observe(Duration::from_secs(20)); // overflow bucket
        h.observe(Duration::from_secs(30)); // overflow bucket
        let s = h.snapshot();
        // The unbounded bucket's upper edge is the observed max, so the
        // estimate can never exceed a latency that actually happened.
        assert!(s.p99_us() <= 30_000_000);
        assert!(s.p50_us() >= 10_000_000);
    }

    #[test]
    fn snapshot_and_report() {
        let m = Metrics::default();
        m.jobs_submitted.fetch_add(4, Ordering::Relaxed);
        m.jobs_completed.fetch_add(3, Ordering::Relaxed);
        m.jobs_degraded.fetch_add(1, Ordering::Relaxed);
        m.explain_latency.observe(Duration::from_millis(5));
        let s = m.snapshot(3, 1);
        assert_eq!(s.jobs_submitted, 4);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-9);
        let report = s.report();
        assert!(report.contains("submitted=4"));
        assert!(report.contains("hit_rate=75.0%"));
        assert!(report.contains("explain"));
    }

    #[test]
    fn metrics_collector_routes_span_ends_to_phase_histograms() {
        use revelio_trace::{TraceHandle, TraceId};
        let metrics = Arc::new(Metrics::default());
        let bridge = Arc::new(MetricsCollector::new(Arc::clone(&metrics)));
        let tr = TraceHandle::new(TraceId(7), bridge);
        assert!(tr.enabled());
        assert!(!tr.verbose()); // never forces per-epoch tensor reads
        drop(tr.span(Phase::Optimize));
        tr.event(EventKind::CacheProbe { hit: true }); // ignored by bridge
        let s = metrics.snapshot(0, 0);
        assert_eq!(s.phase_optimize.count, 1);
        assert_eq!(s.phase_extraction.count, 0);
    }

    #[test]
    fn size_histogram_buckets_and_mean() {
        let h = SizeHistogram::default();
        h.observe(1); // bucket 0 (<=1)
        h.observe(3); // bucket 2 (<=4)
        h.observe(40); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[NUM_SIZE_BUCKETS - 1], 1);
        assert_eq!(s.max, 40);
        assert_eq!(s.mean_milli(), (1 + 3 + 40) * 1000 / 3);
        assert_eq!(SizeHistogramSnapshot::default().mean_milli(), 0);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Metrics::default().snapshot(0, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.queue_wait.mean_us(), 0);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_buckets() {
        let a = Metrics::default();
        a.jobs_completed.fetch_add(3, Ordering::Relaxed);
        a.explain_latency.observe(Duration::from_micros(50));
        a.batch_size.observe(2);
        let b = Metrics::default();
        b.jobs_completed.fetch_add(5, Ordering::Relaxed);
        b.explain_latency.observe(Duration::from_secs(20));
        b.batch_size.observe(7);

        let mut merged = a.snapshot(4, 1);
        merged.merge(&b.snapshot(1, 4));
        assert_eq!(merged.jobs_completed, 8);
        assert_eq!(merged.cache_hits, 5);
        assert_eq!(merged.cache_misses, 5);
        assert!((merged.cache_hit_rate() - 0.5).abs() < 1e-9);
        // Histograms merge bucket-wise: one fast + one slow observation.
        assert_eq!(merged.explain_latency.count, 2);
        assert_eq!(merged.explain_latency.buckets[0], 1);
        assert_eq!(merged.explain_latency.buckets[NUM_BUCKETS - 1], 1);
        assert_eq!(merged.explain_latency.max_us, 20_000_000);
        assert_eq!(merged.batch_size.count, 2);
        assert_eq!(merged.batch_size.max, 7);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let m = Metrics::default();
        m.jobs_submitted.fetch_add(2, Ordering::Relaxed);
        m.phase_optimize.observe(Duration::from_millis(3));
        let base = m.snapshot(1, 2);
        let mut merged = base;
        merged.merge(&MetricsSnapshot::default());
        assert_eq!(merged, base);
        let mut from_empty = MetricsSnapshot::default();
        from_empty.merge(&base);
        assert_eq!(from_empty, base);
    }
}
