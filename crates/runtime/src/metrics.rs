//! Always-on runtime metrics: lock-free counters and histograms.
//!
//! Every counter is a relaxed atomic, so recording costs a few nanoseconds
//! and the registry can stay enabled in production. The runtime's metrics
//! are one [`metric_table!`](crate::metric_table) whose rows generate
//! [`Metrics`] and [`MetricsSnapshot`]. [`Metrics::snapshot`] reads a
//! consistent-enough point-in-time copy (individual counters are exact;
//! cross-counter skew is bounded by in-flight jobs).

use revelio_check::sync::atomic::{AtomicU64, Ordering};
use revelio_check::sync::Arc;
use std::time::Duration;

use revelio_core::wire::{Codec, WireDecodeError, WireReader};
use revelio_trace::{Collector, Event, EventKind, Phase};

use crate::table::{Derived, Kind, Metric, MetricDef, Recorded, Sections};

/// Upper bounds (µs) of the latency histogram buckets; the last bucket is
/// unbounded. Spans 100µs … 10s, which covers both cache-hit flow prep and
/// full REVELIO optimisation runs.
pub const LATENCY_BUCKETS_US: [u64; 6] = [100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// Upper bounds of the batch-size histogram buckets (number of jobs fused
/// into one optimize pass); the last bucket is unbounded.
pub const BATCH_SIZE_BUCKETS: [u64; 5] = [1, 2, 4, 8, 16];

/// The unit of a histogram's raw integer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Microseconds, exposed to Prometheus in seconds (its base unit).
    Micros,
    /// Plain counts, exposed as they are.
    Count,
}

impl Unit {
    /// A raw value as Prometheus reads it.
    fn exposed(self, raw: u64) -> String {
        match self {
            Unit::Micros => (raw as f64 / 1e6).to_string(),
            Unit::Count => raw.to_string(),
        }
    }

    /// The report's suffix after a raw value.
    fn suffix(self) -> &'static str {
        match self {
            Unit::Micros => "us",
            Unit::Count => "",
        }
    }

    /// The report's label of the bucket bounded by `bound` (`None`: the
    /// unbounded last bucket).
    fn bucket_label(self, bound: Option<u64>) -> String {
        match (self, bound) {
            (_, None) => "inf".to_owned(),
            (Unit::Count, Some(b)) => format!("<={b}"),
            (Unit::Micros, Some(us)) if us < 1_000 => format!("<={us}us"),
            (Unit::Micros, Some(us)) if us < 1_000_000 => format!("<={}ms", us / 1_000),
            (Unit::Micros, Some(us)) => format!("<={}s", us / 1_000_000),
        }
    }
}

/// A histogram's bucket table and unit.
pub trait Scale: Copy + Default + Eq + std::fmt::Debug + 'static {
    /// What [`Histogram::observe`] takes.
    type Value;
    /// Per-bucket counts: one per bound, then the unbounded bucket.
    type Counts: Copy + Default + Eq + std::fmt::Debug + AsRef<[u64]> + AsMut<[u64]> + Codec;
    /// The registry's atomic cells, one per bucket.
    type Cells: Default + AsRef<[AtomicU64]>;
    /// Inclusive upper bounds of the bounded buckets, ascending.
    const BOUNDS: &'static [u64];
    const UNIT: Unit;
    /// The raw integer recorded for `value`.
    fn raw(value: Self::Value) -> u64;
}

/// Latencies in µs over [`LATENCY_BUCKETS_US`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Latency;

impl Scale for Latency {
    type Value = Duration;
    type Counts = [u64; LATENCY_BUCKETS_US.len() + 1];
    type Cells = [AtomicU64; LATENCY_BUCKETS_US.len() + 1];
    const BOUNDS: &'static [u64] = &LATENCY_BUCKETS_US;
    const UNIT: Unit = Unit::Micros;
    fn raw(value: Duration) -> u64 {
        u64::try_from(value.as_micros()).unwrap_or(u64::MAX)
    }
}

/// Fused-batch widths over [`BATCH_SIZE_BUCKETS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchWidth;

impl Scale for BatchWidth {
    type Value = u64;
    type Counts = [u64; BATCH_SIZE_BUCKETS.len() + 1];
    type Cells = [AtomicU64; BATCH_SIZE_BUCKETS.len() + 1];
    const BOUNDS: &'static [u64] = &BATCH_SIZE_BUCKETS;
    const UNIT: Unit = Unit::Count;
    fn raw(value: u64) -> u64 {
        value
    }
}

/// A fixed-bucket histogram with atomic counters.
#[derive(Default)]
pub struct Histogram<S: Scale = Latency> {
    buckets: S::Cells,
    count: AtomicU64,
    total: AtomicU64,
    max: AtomicU64,
}

impl<S: Scale> Histogram<S> {
    /// Records one observation.
    ///
    /// The four counters are updated with *independent* relaxed atomics, so
    /// a concurrent [`Histogram::snapshot`] can observe them mutually
    /// skewed: `max` may already reflect an observation whose `count` /
    /// `total` increments have not landed yet (and vice versa). Each
    /// counter is individually exact once writers quiesce; consumers must
    /// not assume cross-field invariants mid-flight.
    pub fn observe(&self, value: S::Value) {
        let raw = S::raw(value);
        let idx = S::BOUNDS.iter().position(|&b| raw <= b);
        let cells = self.buckets.as_ref();
        if let Some(cell) = idx.map_or(cells.last(), |i| cells.get(i)) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(raw, Ordering::Relaxed);
        self.max.fetch_max(raw, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters (relaxed loads; buckets may be
    /// mutually slightly stale under concurrent `observe`).
    pub fn snapshot(&self) -> HistogramSnapshot<S> {
        let mut buckets = S::Counts::default();
        for (b, cell) in buckets.as_mut().iter_mut().zip(self.buckets.as_ref()) {
            *b = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of one histogram, in the scale's raw unit (µs for
/// [`Latency`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot<S: Scale = Latency> {
    /// Per-bucket counts; bucket `i` covers `(BOUNDS[i-1], BOUNDS[i]]`,
    /// the last bucket is unbounded above.
    pub buckets: S::Counts,
    pub count: u64,
    pub total: u64,
    pub max: u64,
}

impl<S: Scale> Codec for HistogramSnapshot<S> {
    const MIN_LEN: usize = S::Counts::MIN_LEN + 3 * 8;
    fn encode(&self, out: &mut Vec<u8>) {
        self.buckets.encode(out);
        [self.count, self.total, self.max].encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireDecodeError> {
        let buckets = S::Counts::decode(r)?;
        let [count, total, max] = <[u64; 3]>::decode(r)?;
        Ok(HistogramSnapshot {
            buckets,
            count,
            total,
            max,
        })
    }
}

impl<S: Scale> HistogramSnapshot<S> {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0 < q <= 1`) by linear interpolation
    /// within the covering bucket. Every bucket's upper edge is capped at
    /// the observed `max`, so the estimate never exceeds a value that
    /// actually occurred. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.as_ref().iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum.saturating_add(n);
            if (next as f64) >= target {
                let lo = if i == 0 { 0 } else { S::BOUNDS[i - 1] };
                let bound = S::BOUNDS.get(i).copied().unwrap_or(u64::MAX);
                let hi = bound.min(self.max).max(lo);
                let frac = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                return lo + ((hi - lo) as f64 * frac).round() as u64;
            }
            cum = next;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// The shared gauge family of [`Kind::Stage`] quantile estimates.
const QUANTILES: &str = "revelio_latency_quantile_seconds";

impl<S: Scale> Recorded for HistogramSnapshot<S> {
    type Cell = Histogram<S>;
    fn load(cell: &Histogram<S>) -> Self {
        cell.snapshot()
    }
}

impl<S: Scale> Metric for HistogramSnapshot<S> {
    /// Per-bucket sums, summed counts and totals, max of maxima. Bucket
    /// bounds are compile-time constants of the scale, so snapshots from
    /// different processes (a gateway rolling up its fleet) merge exactly.
    fn merge(&mut self, other: &Self) {
        for (b, o) in self.buckets.as_mut().iter_mut().zip(other.buckets.as_ref()) {
            *b = b.saturating_add(*o);
        }
        self.count = self.count.saturating_add(other.count);
        self.total = self.total.saturating_add(other.total);
        self.max = self.max.max(other.max);
    }

    /// Cumulative `_bucket` series ending in `le="+Inf"`, `_sum`, `_count`.
    /// A snapshot can hold more bucket entries than `count` (a peer's, or
    /// one read mid-`observe`); `+Inf` and `_count` are then the bucket
    /// total, so the series stays cumulative.
    fn expose(&self, def: &MetricDef, out: &mut Sections) {
        let (name, unit) = (def.name, S::UNIT);
        let family = out.family(name, "histogram", def.help);
        let mut cum = 0u64;
        for (&bound, &n) in S::BOUNDS.iter().zip(self.buckets.as_ref()) {
            cum = cum.saturating_add(n);
            let le = unit.exposed(bound);
            family.push_str(&format!("\n{name}_bucket{{le=\"{le}\"}} {cum}"));
        }
        let all = self
            .buckets
            .as_ref()
            .iter()
            .fold(0u64, |a, &n| a.saturating_add(n));
        let count = self.count.max(all);
        let sum = unit.exposed(self.total);
        family.push_str(&format!(
            "\n{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}"
        ));
        if def.kind == Kind::Stage {
            let family = out.family(
                QUANTILES,
                "gauge",
                "Latency quantile estimates (linear interpolation within bucket).",
            );
            for (q, v) in [
                ("0.5", self.p50()),
                ("0.9", self.p90()),
                ("0.99", self.p99()),
            ] {
                let (stage, v) = (def.label, unit.exposed(v));
                family.push_str(&format!(
                    "\n{QUANTILES}{{stage=\"{stage}\",quantile=\"{q}\"}} {v}"
                ));
            }
        }
    }

    fn render(&self, def: &MetricDef, out: &mut Sections) {
        let (unit, u) = (S::UNIT, S::UNIT.suffix());
        let line = out.line(def.label);
        line.push_str(&format!(
            " n={} mean={:.1}{u} p50={}{u} p90={}{u} p99={}{u} max={}{u} buckets",
            self.count,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max,
        ));
        for (i, n) in self.buckets.as_ref().iter().enumerate() {
            let label = unit.bucket_label(S::BOUNDS.get(i).copied());
            line.push_str(&format!(" {label}:{n}"));
        }
    }
}

crate::metric_table! {
    /// The runtime's metrics registry. One instance per [`Runtime`], shared
    /// by every worker.
    ///
    /// [`Runtime`]: crate::Runtime
    #[derive(Default)]
    pub struct Metrics;

    /// Point-in-time copy of every runtime metric; plain data, safe to ship
    /// across threads or serialise.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MetricsSnapshot("runtime metrics") {
        jobs_submitted: u64 = Counter("revelio_jobs_submitted_total", "jobs submitted",
            "Jobs accepted into the queue.");
        jobs_started: u64 = Counter("revelio_jobs_started_total", "jobs started",
            "Jobs picked up by a worker.");
        jobs_completed: u64 = Counter("revelio_jobs_completed_total", "jobs completed",
            "Jobs that produced an explanation.");
        /// A subset of `jobs_completed`: deadline hit or flow cap shrink.
        jobs_degraded: u64 = Counter("revelio_jobs_degraded_total", "jobs degraded",
            "Completed jobs with a degraded answer.");
        jobs_failed: u64 = Counter("revelio_jobs_failed_total", "jobs failed",
            "Jobs that panicked or were cancelled.");
        /// Never queued, so not counted in `jobs_submitted`.
        jobs_rejected: u64 = Counter("revelio_jobs_rejected_total", "jobs rejected",
            "Jobs shed by admission control.");
        queue_depth: u64 = Gauge("revelio_queue_depth", "queue depth",
            "Jobs submitted but not yet picked up by a worker.");
        cache_hits: u64 = External("revelio_cache_hits_total", "cache hits",
            "Artifact-cache hits.");
        cache_misses: u64 = External("revelio_cache_misses_total", "cache misses",
            "Artifact-cache misses.");
        epochs_total: u64 = Counter("revelio_epochs_total", "epochs total",
            "Optimisation epochs run across all completed jobs.");
        queue_wait: HistogramSnapshot = Stage("revelio_latency_seconds_queue_wait", "queue_wait",
            "Latency of the queue_wait stage in seconds.");
        /// Artifact preparation: subgraph and flow enumeration, or a cache hit.
        prep_latency: HistogramSnapshot = Stage("revelio_latency_seconds_prep", "prep",
            "Latency of the prep stage in seconds.");
        /// The explainer proper: mask optimisation or decomposition.
        explain_latency: HistogramSnapshot = Stage("revelio_latency_seconds_explain", "explain",
            "Latency of the explain stage in seconds.");
        /// Fed by the tracing bridge: subgraph and model materialisation.
        phase_extraction: HistogramSnapshot = Stage(
            "revelio_latency_seconds_extraction", "extraction",
            "Latency of the extraction stage in seconds.");
        /// Fed by the tracing bridge: flow-index builds (cache misses only).
        phase_flow_index: HistogramSnapshot = Stage(
            "revelio_latency_seconds_flow_index", "flow_index",
            "Latency of the flow_index stage in seconds.");
        /// Fed by the tracing bridge: the mask-optimisation epoch loop.
        phase_optimize: HistogramSnapshot = Stage("revelio_latency_seconds_optimize", "optimize",
            "Latency of the optimize stage in seconds.");
        /// Fed by the tracing bridge: score readout and aggregation.
        phase_readout: HistogramSnapshot = Stage("revelio_latency_seconds_readout", "readout",
            "Latency of the readout stage in seconds.");
        /// A usable converged mask: matching key and model fingerprint.
        store_hits: u64 = Counter("revelio_store_hits_total", "store hits",
            "Warm-start lookups answered from the persistent store.");
        store_misses: u64 = Counter("revelio_store_misses_total", "store misses",
            "Warm-start lookups the store could not answer.");
        /// Each covers at least two jobs.
        batches: u64 = Counter("revelio_batches_total", "batch batches",
            "Fused multi-job optimize passes executed.");
        /// A subset of `jobs_completed` + `jobs_failed`.
        batched_jobs: u64 = Counter("revelio_batched_jobs_total", "batch jobs",
            "Jobs served through a fused batch.");
        batch_size: HistogramSnapshot<BatchWidth> = Histogram("revelio_batch_size", "batch_size",
            "Jobs fused per batched optimize pass.");
    }
}

impl Metrics {
    /// The registry's snapshot, completed with the artifact cache's
    /// counters (the cache keeps those itself).
    pub fn snapshot(&self, cache_hits: u64, cache_misses: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            cache_hits,
            cache_misses,
            ..self.load()
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

impl MetricsSnapshot {
    /// Cache hit rate in `[0, 1]` (0 when the cache was never probed).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits as f64 + self.cache_misses as f64;
        if total == 0.0 {
            0.0
        } else {
            self.cache_hits as f64 / total
        }
    }
}

impl Derived for MetricsSnapshot {
    fn derived_report(&self, out: &mut Sections) {
        out.value(
            "cache hit_rate",
            format!("{:.1}%", 100.0 * self.cache_hit_rate()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::<Latency>::default();
        h.observe(Duration::from_micros(50)); // bucket 0 (<=100us)
        h.observe(Duration::from_micros(500)); // bucket 1 (<=1ms)
        h.observe(Duration::from_secs(20)); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[LATENCY_BUCKETS_US.len()], 1);
        assert_eq!(s.max, 20_000_000);
        assert_eq!(s.mean(), (50 + 500 + 20_000_000) as f64 / 3.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::<Latency>::default();
        // 100 observations at ~500us: all land in bucket 1, (100, 1000]us.
        for _ in 0..100 {
            h.observe(Duration::from_micros(500));
        }
        let s = h.snapshot();
        // Linear interpolation inside (100, 1000]us with the upper edge
        // capped at the observed max: p50 = 100 + 0.5*(500 - 100).
        assert_eq!(s.p50(), 300);
        assert_eq!(s.p90(), 460);
        assert_eq!(s.p99(), 496);
        // Quantiles are monotone and bounded by the observed max.
        assert_eq!(s.quantile(1.0), 500);
        assert_eq!(HistogramSnapshot::<Latency>::default().p99(), 0);
    }

    #[test]
    fn overflow_bucket_quantile_capped_at_max() {
        let h = Histogram::<Latency>::default();
        h.observe(Duration::from_secs(20)); // overflow bucket
        h.observe(Duration::from_secs(30)); // overflow bucket
        let s = h.snapshot();
        // The unbounded bucket's upper edge is the observed max, so the
        // estimate can never exceed a latency that actually happened.
        assert!(s.p99() <= 30_000_000);
        assert!(s.p50() >= 10_000_000);
    }

    /// A fleet rollup of twelve explains between 1 and 3.3 ms once
    /// reported `p50=5500us p90=9100us p99=9910us max=3243us`: every
    /// estimate above the slowest explain, interpolated up to the bucket's
    /// 10 ms edge.
    #[test]
    fn bounded_bucket_quantiles_capped_at_max() {
        let h = Histogram::<Latency>::default();
        for us in [
            1_210, 1_388, 1_502, 1_655, 1_790, 1_904, 2_116, 2_287, 2_450, 2_731, 2_988, 3_243,
        ] {
            h.observe(Duration::from_micros(us));
        }
        let s = h.snapshot();
        assert_eq!(s.max, 3_243);
        // All twelve land in (1000, 10000]us: p50 = 1000 + 0.5*(3243 - 1000).
        assert_eq!(s.p50(), 2_122);
        assert_eq!(s.p90(), 3_019);
        assert_eq!(s.p99(), 3_221);
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert!(s.quantile(q) <= s.max, "q={q}");
        }
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
        let h = Histogram::<BatchWidth>::default();
        h.observe(1); // bucket 0 (<=1)
        h.observe(3); // bucket 2 (<=4)
        h.observe(40); // overflow bucket
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[BATCH_SIZE_BUCKETS.len()], 1);
        assert_eq!(s.max, 40);
        assert_eq!(s.mean(), (1 + 3 + 40) as f64 / 3.0);
        assert_eq!(HistogramSnapshot::<BatchWidth>::default().mean(), 0.0);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = Metrics::default().snapshot(0, 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        assert_eq!(s.queue_wait.mean(), 0.0);
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
        assert_eq!(merged.explain_latency.buckets[LATENCY_BUCKETS_US.len()], 1);
        assert_eq!(merged.explain_latency.max, 20_000_000);
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
