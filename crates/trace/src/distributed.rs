//! Cross-process tracing: propagated context, head-based sampling, and
//! assembled (multi-lane) traces with a Chrome trace-event exporter.
//!
//! A single process records into a [`crate::RingCollector`]; a *fleet*
//! needs three more pieces, all here:
//!
//! * [`TraceContext`] — the fields that cross the wire with a request: a
//!   128-bit trace id, the parent span id, and the head-based sampling
//!   decision. The originator (gateway or client) makes the decision
//!   once; every downstream hop honours it.
//! * [`Sampler`] — the head-based coin flip. Deliberately branch-cheap
//!   when the rate is `0.0` so an untraced fleet pays (almost) nothing.
//! * [`AssembledTrace`] — a cross-process trace stitched from the
//!   gateway's own spans plus backend fragments, organised into per-shard
//!   *lanes*. Renders as a latency tree ([`AssembledTrace::render_tree`])
//!   or as Chrome trace-event JSON
//!   ([`AssembledTrace::chrome_trace_json`]) loadable in
//!   `chrome://tracing` / Perfetto, where each lane becomes a process.
//!
//! Timestamps inside an assembled trace are microseconds relative to the
//! *assembler's* clock (the gateway anchors each backend fragment at the
//! instant it forwarded the request), so lanes from machines with skewed
//! clocks still line up.

use crate::{EventKind, Trace};
use revelio_check::sync::atomic::{AtomicU64, Ordering};

/// The trace fields that travel with a request across process boundaries.
///
/// The 128-bit id is split into two `u64` halves for the wire codec
/// (`trace_hi`/`trace_lo`); `trace_lo` doubles as the key under which the
/// backend journals its fragment, so a fragment can be fetched back by
/// global id alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// High 64 bits of the 128-bit trace id.
    pub trace_hi: u64,
    /// Low 64 bits of the 128-bit trace id (also the backend journal key).
    pub trace_lo: u64,
    /// Id of the span this request parents under (the originator's
    /// routing span).
    pub parent_span: u64,
    /// The head-based sampling decision. `false` means "propagate the id
    /// but record nothing" — downstream hops must not re-flip the coin.
    pub sampled: bool,
}

/// SplitMix64 finaliser: a cheap, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl TraceContext {
    /// Generates a fresh sampled context from a process seed and a
    /// per-process counter (two decorrelated SplitMix64 streams, so ids
    /// from different processes collide with negligible probability).
    pub fn generate(seed: u64, counter: u64) -> TraceContext {
        let hi = splitmix64(seed ^ splitmix64(counter));
        let lo = splitmix64(hi ^ counter.wrapping_add(0x6a09_e667_f3bc_c909));
        TraceContext {
            trace_hi: hi,
            // `trace_lo` keys the backend's journal; zero is reserved as
            // the untraced id, so nudge it off zero.
            trace_lo: lo.max(1),
            parent_span: 0,
            sampled: true,
        }
    }

    /// The canonical 32-hex-digit rendering of the 128-bit id.
    pub fn hex_id(&self) -> String {
        format!("{:016x}{:016x}", self.trace_hi, self.trace_lo)
    }
}

/// Renders a 128-bit trace id (two halves) as 32 hex digits.
pub fn hex_trace_id(hi: u64, lo: u64) -> String {
    format!("{hi:016x}{lo:016x}")
}

/// Head-based sampler: decides *once*, at the first hop, whether a
/// request is traced.
///
/// The decision is a deterministic hash of (seed, request counter)
/// compared against `rate * u64::MAX`, so a fixed seed yields a
/// reproducible sampled subset — tests and benchmarks rely on that.
/// `rate <= 0` never samples and short-circuits before touching the
/// counter: the off path is one field load and one branch, which is what
/// keeps the measured sampling-off overhead inside the noop budget.
pub struct Sampler {
    /// Sample when `splitmix64(seed ^ n) < threshold`.
    threshold: u64,
    seed: u64,
    counter: AtomicU64,
}

impl Sampler {
    /// A sampler firing at `rate` (clamped to `[0, 1]`; NaN means off).
    pub fn new(rate: f64, seed: u64) -> Sampler {
        let threshold = if rate.is_nan() || rate <= 0.0 {
            // NaN or <= 0: never sample.
            0
        } else if rate >= 1.0 {
            u64::MAX
        } else {
            // `rate * 2^64`, computed in f64 then saturated.
            let scaled = rate * (u64::MAX as f64);
            if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled as u64
            }
        };
        Sampler {
            threshold,
            seed,
            counter: AtomicU64::new(0),
        }
    }

    /// Whether this sampler can ever fire.
    pub fn enabled(&self) -> bool {
        self.threshold != 0
    }

    /// One head decision. Cheap when off (no atomic traffic at all).
    pub fn sample(&self) -> bool {
        if self.threshold == 0 {
            return false;
        }
        if self.threshold == u64::MAX {
            self.counter.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.seed ^ n) < self.threshold
    }

    /// Decisions made so far (only counted while enabled).
    pub fn decisions(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }
}

/// One slice of an [`AssembledTrace`]: a named interval on one lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembledSpan {
    /// Index into [`AssembledTrace::lanes`].
    pub lane: u32,
    /// Human-readable slice name (`"route"`, `"forward shard-1"`,
    /// `"optimize"`, ...).
    pub name: String,
    /// Start, microseconds from the assembled trace's origin.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// What an [`AssembledEvent`] observed: a fragment's point events (its
/// completed spans become [`AssembledSpan`]s).
#[derive(Debug, Clone, PartialEq)]
pub enum PointKind {
    /// One optimisation epoch, as [`EventKind::Epoch`].
    Epoch {
        index: u32,
        loss: f32,
        grad_norm: f32,
    },
    /// A flow-index cache probe: was the artifact resident?
    CacheProbe { hit: bool },
    /// The deadline stopped the epoch loop after `epoch` epochs.
    DeadlineHit { epoch: u32 },
    /// A free-form annotation.
    Note(String),
}

/// One instant of an [`AssembledTrace`]: a point event on one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct AssembledEvent {
    /// Index into [`AssembledTrace::lanes`].
    pub lane: u32,
    /// Microseconds from the assembled trace's origin.
    pub at_us: u64,
    /// What was observed.
    pub kind: PointKind,
}

/// A cross-process trace: per-shard lanes of named, aligned spans and
/// point events.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AssembledTrace {
    /// High half of the global 128-bit trace id.
    pub trace_hi: u64,
    /// Low half of the global 128-bit trace id.
    pub trace_lo: u64,
    /// Lane names, e.g. `["gateway", "shard-2 (127.0.0.1:7152)"]`. Lane 0
    /// is the assembling process itself.
    pub lanes: Vec<String>,
    /// All spans across all lanes (not necessarily sorted).
    pub spans: Vec<AssembledSpan>,
    /// All point events across all lanes, in journal order per lane.
    pub events: Vec<AssembledEvent>,
    /// Events lost to ring overwriting across the stitched fragments.
    pub dropped: u64,
}

impl AssembledTrace {
    /// The canonical 32-hex-digit id.
    pub fn hex_id(&self) -> String {
        hex_trace_id(self.trace_hi, self.trace_lo)
    }

    /// Builds a single-lane assembled trace from one process-local
    /// [`Trace`] fragment: every completed span (`SpanEnd`) becomes a
    /// slice whose start is reconstructed as `at_ns - dur_ns`, and every
    /// other event but `SpanStart` a point event, all shifted by
    /// `anchor_us` onto the assembler's clock.
    pub fn from_fragment(hi: u64, lo: u64, lane: &str, anchor_us: u64, frag: &Trace) -> Self {
        let mut out = AssembledTrace {
            trace_hi: hi,
            trace_lo: lo,
            lanes: vec![lane.to_owned()],
            dropped: frag.dropped,
            ..AssembledTrace::default()
        };
        for e in &frag.events {
            let kind = match e.kind {
                EventKind::SpanStart { .. } => continue,
                EventKind::SpanEnd { phase, dur_ns } => {
                    out.spans.push(AssembledSpan {
                        lane: 0,
                        name: phase.name().to_owned(),
                        start_us: anchor_us + e.at_ns.saturating_sub(dur_ns) / 1_000,
                        dur_us: dur_ns / 1_000,
                    });
                    continue;
                }
                EventKind::Epoch {
                    index,
                    loss,
                    grad_norm,
                } => PointKind::Epoch {
                    index,
                    loss,
                    grad_norm,
                },
                EventKind::CacheProbe { hit } => PointKind::CacheProbe { hit },
                EventKind::DeadlineHit { epoch } => PointKind::DeadlineHit { epoch },
                EventKind::Note(s) => PointKind::Note(s.to_owned()),
            };
            out.events.push(AssembledEvent {
                lane: 0,
                at_us: anchor_us + e.at_ns / 1_000,
                kind,
            });
        }
        out
    }

    /// Appends every lane of `frag` (an assembly from another process)
    /// after this trace's lanes, shifting its times by `anchor_us`.
    pub fn graft(&mut self, frag: AssembledTrace, anchor_us: u64) {
        let base = self.lanes.len() as u32;
        self.lanes.extend(frag.lanes);
        self.spans
            .extend(frag.spans.into_iter().map(|s| AssembledSpan {
                lane: base + s.lane,
                start_us: s.start_us.saturating_add(anchor_us),
                ..s
            }));
        self.events
            .extend(frag.events.into_iter().map(|e| AssembledEvent {
                lane: base + e.lane,
                at_us: e.at_us.saturating_add(anchor_us),
                ..e
            }));
        self.dropped += frag.dropped;
    }

    /// The per-epoch losses recorded on `lane`, in journal order.
    pub fn losses(&self, lane: u32) -> Vec<f32> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                PointKind::Epoch { loss, .. } if e.lane == lane => Some(loss),
                _ => None,
            })
            .collect()
    }

    /// Pretty-prints the trace as a per-lane tree with per-hop latencies.
    /// Each lane's line carries its epoch count and final loss; nesting
    /// follows interval containment within a lane.
    pub fn render_tree(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace {} · {} lane(s), {} span(s){}",
            self.hex_id(),
            self.lanes.len(),
            self.spans.len(),
            if self.dropped > 0 {
                format!(", {} event(s) dropped", self.dropped)
            } else {
                String::new()
            }
        );
        for (li, lane) in self.lanes.iter().enumerate() {
            let mut spans: Vec<&AssembledSpan> = self
                .spans
                .iter()
                .filter(|s| s.lane as usize == li)
                .collect();
            spans.sort_by_key(|s| (s.start_us, std::cmp::Reverse(s.dur_us)));
            let losses = self.losses(li as u32);
            let last = losses.last().map_or("-".to_owned(), f32::to_string);
            let _ = writeln!(out, "{lane} · {} epoch(s), final loss {last}", losses.len());
            // Containment stack: a span nests under the nearest earlier
            // span (same lane) whose interval covers it.
            let mut stack: Vec<(u64, u64)> = Vec::new();
            for s in spans {
                let end = s.start_us + s.dur_us;
                while let Some(&(_, parent_end)) = stack.last() {
                    if s.start_us >= parent_end {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                let indent = "  ".repeat(stack.len() + 1);
                let _ = writeln!(
                    out,
                    "{indent}{:<24} {:>8} µs  @ +{} µs",
                    s.name, s.dur_us, s.start_us
                );
                stack.push((s.start_us, end));
            }
        }
        out
    }

    /// Renders the trace in the Chrome trace-event JSON format (an object
    /// with a `traceEvents` array), loadable in `chrome://tracing` and
    /// Perfetto. Each lane becomes a process (`pid` = lane index, named
    /// via a `process_name` metadata event); spans are complete (`"X"`)
    /// slices with microsecond `ts`/`dur`, tagged with the hex trace id
    /// in `args.trace`. Epoch losses form a `loss` counter (`"C"`) track
    /// per lane; every other point event is an instant (`"i"`). A
    /// non-finite loss or gradient norm is written as a string (`"NaN"`,
    /// `"inf"`), since JSON has no such numbers.
    pub fn chrome_trace_json(&self) -> String {
        let id = self.hex_id();
        let mut items: Vec<String> = self
            .lanes
            .iter()
            .enumerate()
            .map(|(li, lane)| {
                format!(
                    "{{\"ph\":\"M\",\"pid\":{li},\"tid\":0,\"name\":\"process_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json_string(lane)
                )
            })
            .collect();
        items.extend(self.spans.iter().map(|s| {
            format!(
                "{{\"ph\":\"X\",\"pid\":{},\"tid\":0,\"name\":{},\"ts\":{},\"dur\":{},\
                 \"args\":{{\"trace\":\"{id}\"}}}}",
                s.lane,
                json_string(&s.name),
                s.start_us,
                s.dur_us
            )
        }));
        for e in &self.events {
            let (name, args) = match &e.kind {
                PointKind::Epoch {
                    index,
                    loss,
                    grad_norm,
                } => {
                    items.push(format!(
                        "{{\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":{},\"name\":\"loss\",\
                         \"args\":{{\"loss\":{}}}}}",
                        e.lane,
                        e.at_us,
                        json_f32(*loss)
                    ));
                    let grad_norm = json_f32(*grad_norm);
                    (
                        "epoch",
                        format!("{{\"index\":{index},\"grad_norm\":{grad_norm}}}"),
                    )
                }
                PointKind::CacheProbe { hit } => ("cache probe", format!("{{\"hit\":{hit}}}")),
                PointKind::DeadlineHit { epoch } => {
                    ("deadline hit", format!("{{\"epoch\":{epoch}}}"))
                }
                PointKind::Note(note) => (note.as_str(), "{}".to_owned()),
            };
            items.push(format!(
                "{{\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":0,\"ts\":{},\"name\":{},\
                 \"args\":{args}}}",
                e.lane,
                e.at_us,
                json_string(name)
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            items.join(",")
        )
    }
}

/// A JSON value for `v`: the number when finite, else its name as a
/// string.
fn json_f32(v: f32) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        json_string(&v.to_string())
    }
}

/// Escapes `s` as a JSON string literal (with surrounding quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Checks that `s` is one complete, well-formed JSON value.
///
/// A minimal recursive-descent validator (objects, arrays, strings,
/// numbers, literals) used by the exporter's tests and by integration
/// tests as the "round-trips through a parser" check without pulling in a
/// JSON dependency.
pub fn validate_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    skip_ws(b, &mut i);
    parse_value(b, &mut i, 0)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at offset {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn parse_value(b: &[u8], i: &mut usize, depth: u32) -> Result<(), String> {
    if depth > 128 {
        return Err("nesting too deep".to_owned());
    }
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                parse_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at offset {i}"));
                }
                *i += 1;
                skip_ws(b, i);
                parse_value(b, i, depth + 1)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {i}")),
                }
            }
        }
        Some(b'[') => {
            *i += 1;
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, i);
                parse_value(b, i, depth + 1)?;
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {i}")),
                }
            }
        }
        Some(b'"') => parse_string(b, i),
        Some(b't') => parse_lit(b, i, "true"),
        Some(b'f') => parse_lit(b, i, "false"),
        Some(b'n') => parse_lit(b, i, "null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => parse_number(b, i),
        _ => Err(format!("expected a value at offset {i}")),
    }
}

fn parse_lit(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at offset {i}"))
    }
}

fn parse_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected '\"' at offset {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        if b.len() < *i + 5 || !b[*i + 1..*i + 5].iter().all(u8::is_ascii_hexdigit)
                        {
                            return Err(format!("bad \\u escape at offset {i}"));
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at offset {i}")),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at offset {i}")),
            _ => *i += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn parse_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let mut digits = 0;
    while b.get(*i).is_some_and(u8::is_ascii_digit) {
        *i += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at offset {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return Err(format!("bad fraction at offset {i}"));
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !b.get(*i).is_some_and(u8::is_ascii_digit) {
            return Err(format!("bad exponent at offset {i}"));
        }
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::{Collector, Event, Phase, TraceId};

    #[test]
    fn generated_contexts_are_distinct_and_sampled() {
        let a = TraceContext::generate(7, 0);
        let b = TraceContext::generate(7, 1);
        let c = TraceContext::generate(8, 0);
        assert!(a.sampled && b.sampled && c.sampled);
        assert_ne!((a.trace_hi, a.trace_lo), (b.trace_hi, b.trace_lo));
        assert_ne!((a.trace_hi, a.trace_lo), (c.trace_hi, c.trace_lo));
        assert_ne!(a.trace_lo, 0, "trace_lo 0 is reserved for untraced");
        assert_eq!(a.hex_id().len(), 32);
    }

    #[test]
    fn sampler_edges_are_deterministic() {
        let off = Sampler::new(0.0, 1);
        let on = Sampler::new(1.0, 1);
        for _ in 0..100 {
            assert!(!off.sample());
            assert!(on.sample());
        }
        assert_eq!(off.decisions(), 0, "off path must not touch the counter");
        assert_eq!(on.decisions(), 100);
        assert!(!Sampler::new(f64::NAN, 1).sample());
        assert!(!Sampler::new(-0.5, 1).sample());
        assert!(Sampler::new(2.0, 1).sample());
    }

    #[test]
    fn sampler_rate_is_roughly_honoured_and_reproducible() {
        let s1 = Sampler::new(0.25, 42);
        let s2 = Sampler::new(0.25, 42);
        let hits1: Vec<bool> = (0..4000).map(|_| s1.sample()).collect();
        let hits2: Vec<bool> = (0..4000).map(|_| s2.sample()).collect();
        assert_eq!(hits1, hits2, "same seed must give the same subset");
        let n = hits1.iter().filter(|h| **h).count();
        assert!((600..1400).contains(&n), "0.25 of 4000 ≈ 1000, got {n}");
    }

    fn fragment() -> Trace {
        // A hand-built fragment: extraction 100µs at t=50µs, optimize
        // 2000µs at t=200µs with two epochs inside, a cache probe and a
        // deadline trip.
        let event = |at_us: u64, kind| Event {
            trace: TraceId(9),
            at_ns: at_us * 1_000,
            kind,
        };
        let span = |phase, at_us: u64, dur_us: u64| {
            event(
                at_us,
                EventKind::SpanEnd {
                    phase,
                    dur_ns: dur_us * 1_000,
                },
            )
        };
        let epoch = |index, loss| EventKind::Epoch {
            index,
            loss,
            grad_norm: 0.5,
        };
        Trace {
            id: TraceId(9),
            events: vec![
                event(50, EventKind::CacheProbe { hit: false }),
                span(Phase::Extraction, 150, 100),
                event(
                    200,
                    EventKind::SpanStart {
                        phase: Phase::Optimize,
                    },
                ),
                event(300, epoch(0, 0.75)),
                event(900, epoch(1, 0.25)),
                event(2100, EventKind::DeadlineHit { epoch: 2 }),
                event(2150, EventKind::Note("flow-index-reused")),
                span(Phase::Optimize, 2200, 2000),
            ],
            dropped: 1,
        }
    }

    #[test]
    fn fragment_spans_are_anchored_onto_the_assembler_clock() {
        let t = AssembledTrace::from_fragment(1, 2, "shard-0", 1000, &fragment());
        assert_eq!(t.lanes, vec!["shard-0".to_owned()]);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].name, "extraction");
        assert_eq!(t.spans[0].start_us, 1050); // anchor + (150 - 100)
        assert_eq!(t.spans[0].dur_us, 100);
        assert_eq!(t.spans[1].start_us, 1200);
    }

    #[test]
    fn fragment_point_events_ride_on_their_lane() {
        let t = AssembledTrace::from_fragment(1, 2, "shard-0", 1000, &fragment());
        let kinds: Vec<&PointKind> = t.events.iter().map(|e| &e.kind).collect();
        assert_eq!(
            kinds,
            [
                &PointKind::CacheProbe { hit: false },
                &PointKind::Epoch {
                    index: 0,
                    loss: 0.75,
                    grad_norm: 0.5
                },
                &PointKind::Epoch {
                    index: 1,
                    loss: 0.25,
                    grad_norm: 0.5
                },
                &PointKind::DeadlineHit { epoch: 2 },
                &PointKind::Note("flow-index-reused".to_owned()),
            ],
            "every event but the spans, in journal order"
        );
        assert!(t.events.iter().all(|e| e.lane == 0));
        assert_eq!(t.events[1].at_us, 1300);
        assert_eq!(t.losses(0), vec![0.75, 0.25]);
        assert!(t.losses(1).is_empty());
    }

    #[test]
    fn graft_shifts_lanes_and_times() {
        let mut t = AssembledTrace {
            lanes: vec!["gateway".to_owned()],
            ..AssembledTrace::default()
        };
        let frag = AssembledTrace::from_fragment(1, 2, "shard-0", 0, &fragment());
        t.graft(frag.clone(), 40);
        assert_eq!(t.lanes, vec!["gateway".to_owned(), "shard-0".to_owned()]);
        assert_eq!(t.dropped, 1);
        assert!(t.spans.iter().all(|s| s.lane == 1));
        assert_eq!(t.spans[0].start_us, frag.spans[0].start_us + 40);
        assert!(t.events.iter().all(|e| e.lane == 1));
        assert_eq!(t.events[1].at_us, frag.events[1].at_us + 40);
        assert_eq!(t.losses(1), frag.losses(0));
    }

    #[test]
    fn chrome_export_is_valid_json_with_lane_processes() {
        let mut t = AssembledTrace {
            trace_hi: 0xabcd,
            trace_lo: 0x1234,
            lanes: vec!["gateway".to_owned()],
            spans: vec![AssembledSpan {
                lane: 0,
                name: "route".to_owned(),
                start_us: 0,
                dur_us: 2500,
            }],
            ..AssembledTrace::default()
        };
        t.graft(
            AssembledTrace::from_fragment(0, 0, "shard \"1\"\n", 40, &fragment()),
            0,
        );
        let json = t.chrome_trace_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains(&t.hex_id()));
        assert!(json.contains("\"pid\":1"));
        assert!(json.contains("shard \\\"1\\\"\\n"));
        assert_eq!(
            json.matches("\"ph\":\"C\"").count(),
            2,
            "one loss sample per epoch"
        );
        assert!(json.contains("\"name\":\"loss\",\"args\":{\"loss\":0.75}"));
        for instant in [
            "\"epoch\"",
            "\"cache probe\"",
            "\"deadline hit\"",
            "\"flow-index-reused\"",
        ] {
            assert!(json.contains(instant), "missing instant {instant}");
        }
    }

    #[test]
    fn chrome_export_stays_valid_json_on_non_finite_numbers() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let t = AssembledTrace {
                lanes: vec!["backend".to_owned()],
                events: vec![AssembledEvent {
                    lane: 0,
                    at_us: 7,
                    kind: PointKind::Epoch {
                        index: 0,
                        loss: bad,
                        grad_norm: bad,
                    },
                }],
                ..AssembledTrace::default()
            };
            let json = t.chrome_trace_json();
            if let Err(e) = validate_json(&json) {
                panic!("{bad} loss broke the export ({e}):\n{json}");
            }
            assert!(json.contains(&format!("\"loss\":\"{bad}\"")), "{json}");
        }
    }

    #[test]
    fn render_tree_nests_by_containment() {
        let t = AssembledTrace {
            trace_hi: 0,
            trace_lo: 5,
            lanes: vec!["gateway".to_owned()],
            spans: vec![
                AssembledSpan {
                    lane: 0,
                    name: "route".to_owned(),
                    start_us: 0,
                    dur_us: 1000,
                },
                AssembledSpan {
                    lane: 0,
                    name: "forward shard-1".to_owned(),
                    start_us: 100,
                    dur_us: 800,
                },
            ],
            ..AssembledTrace::default()
        };
        let tree = t.render_tree();
        let route_line = tree.lines().find(|l| l.contains("route")).unwrap();
        let fwd_line = tree
            .lines()
            .find(|l| l.contains("forward shard-1"))
            .unwrap();
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(fwd_line) > indent(route_line));
        assert!(tree.contains("1000"));
    }

    #[test]
    fn render_tree_prints_each_lane_with_its_epochs_and_final_loss() {
        let mut t = AssembledTrace {
            lanes: vec!["gateway".to_owned()],
            ..AssembledTrace::default()
        };
        t.graft(
            AssembledTrace::from_fragment(0, 9, "shard-0", 0, &fragment()),
            0,
        );
        let tree = t.render_tree();
        let lane_lines: Vec<&str> = tree.lines().filter(|l| l.contains("epoch(s)")).collect();
        assert_eq!(
            lane_lines,
            vec![
                "gateway · 0 epoch(s), final loss -",
                "shard-0 · 2 epoch(s), final loss 0.25"
            ],
            "{tree}"
        );
    }

    #[test]
    fn validate_json_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e+3",
            "\"a\\u00e9b\"",
            "{\"a\":[1,2,{\"b\":false}]}",
            " { \"x\" : \"y\" } ",
        ] {
            assert!(validate_json(good).is_ok(), "rejected {good:?}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "\"unterminated",
            "01x",
            "{}{}",
            "\"bad\\q\"",
        ] {
            assert!(validate_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn sampler_off_does_not_inhibit_noop_collectors() {
        // The combined "tracing compiled in but off" path: sampler off +
        // noop handle. Nothing may be recorded.
        let s = Sampler::new(0.0, 3);
        let h = crate::TraceHandle::noop();
        assert!(!s.sample());
        assert!(!h.enabled());
        h.event(EventKind::Note("ignored"));
        let _ = NoopSink.enabled();
    }

    struct NoopSink;
    impl Collector for NoopSink {
        fn enabled(&self) -> bool {
            false
        }
        fn record(&self, _e: Event) {}
    }
}
