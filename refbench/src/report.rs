//! The benchmark's own arithmetic: percentiles, failure counting, score
//! digests, and the one-line JSON result (writer and parser).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `0..=1`) of `sorted`, or `None` when
/// fewer than [`TAIL_SAMPLES`] samples lie beyond it: a tail percentile is
/// only reported when it rests on at least ten observations.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    // 1-based nearest rank; the samples beyond it are n - rank.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= TAIL_SAMPLES || p <= 0.5).then(|| sorted[rank - 1])
}

/// Requests per block of [`block_percentile`]: enough that ten lie
/// beyond p90.
pub const BLOCK: usize = 128;

/// Percentile `p` of each block of [`BLOCK`] consecutive samples (a short
/// last block joins the one before it), then the median over blocks. A
/// slow stretch of the run moves the percentile of its own blocks only.
/// `None` when even one block leaves fewer than ten samples beyond `p`.
pub fn block_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let blocks = (samples.len() / BLOCK).max(1);
    let mut per_block = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let end = if b + 1 == blocks {
            samples.len()
        } else {
            (b + 1) * BLOCK
        };
        let mut v = samples[b * BLOCK..end].to_vec();
        v.sort_by(f64::total_cmp);
        per_block.push(percentile(&v, p)?);
    }
    Some(median(&per_block))
}

/// Median of an unsorted sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Requests sent, succeeded and failed in one phase of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one request: `Ok` is a served, checked answer; any error
    /// (transport, typed, `Busy` after retries, a degraded or malformed
    /// answer) is a failure.
    pub fn record<T, E>(&mut self, outcome: &Result<T, E>) {
        self.sent += 1;
        match outcome {
            Ok(_) => self.ok += 1,
            Err(_) => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.failed as f64 / self.sent as f64
        }
    }
}

/// Checks one answer: not degraded, one finite score per graph edge.
pub fn check_scores(scores: &[f32], num_edges: usize, degraded: bool) -> Result<(), String> {
    if degraded {
        return Err("degraded answer".to_owned());
    }
    if scores.len() != num_edges {
        return Err(format!(
            "{} edge scores for a {num_edges}-edge graph",
            scores.len()
        ));
    }
    if let Some(i) = scores.iter().position(|s| !s.is_finite()) {
        return Err(format!("non-finite score at edge {i}"));
    }
    Ok(())
}

/// FNV-1a over the bit patterns of every score, in request order. Equal
/// digests for one seed mean bit-identical answers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn scores(&mut self, scores: &[f32]) {
        for s in scores {
            for b in s.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        }
    }
}

/// The result line the benchmark prints last.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// One JSON object on one line. Values keep all their digits (Rust's
    /// shortest round-trip formatting); a non-finite value is written as
    /// `null`, which no reader can mistake for a measurement.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            let _ = write!(
                s,
                "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                if i > 0 { ", " } else { "" },
                m.name,
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Parses a line written by [`Outcome::to_json`].
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let mut p = Parser {
            bytes: line.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at {}", p.at));
        }
        let Json::Object(top) = value else {
            return Err("top level is not an object".to_owned());
        };
        let field = |k: &str| top.get(k).ok_or_else(|| format!("missing {k:?}"));
        let Json::Bool(correct) = field("correct")? else {
            return Err("correct is not a bool".to_owned());
        };
        let count = |k: &str| match field(k)? {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            _ => Err(format!("{k} is not a whole number")),
        };
        let (attempted, failed) = (count("attempted")?, count("failed")?);
        let Json::Object(ms) = field("metrics")? else {
            return Err("metrics is not an object".to_owned());
        };
        let mut metrics = Vec::new();
        for (name, m) in ms {
            let Json::Object(m) = m else {
                return Err(format!("metric {name} is not an object"));
            };
            let (Some(Json::Number(value)), Some(Json::Str(unit))) =
                (m.get("value"), m.get("unit"))
            else {
                return Err(format!("metric {name} needs a numeric value and a unit"));
            };
            metrics.push(Metric::new(name, *value, unit));
        }
        Ok(Outcome {
            correct: *correct,
            attempted,
            failed,
            metrics,
        })
    }
}

/// The JSON subset the result line uses.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Number(f64),
    Str(String),
    Object(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", b as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.bytes[self.at..].starts_with(b"true") => {
                self.at += 4;
                Ok(Json::Bool(true))
            }
            Some(b'f') if self.bytes[self.at..].starts_with(b"false") => {
                self.at += 5;
                Ok(Json::Bool(false))
            }
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            let v = self.value()?;
            if map.insert(key.clone(), v).is_some() {
                return Err(format!("duplicate key {key:?}"));
            }
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let start = self.at;
        while let Some(&b) = self.bytes.get(self.at) {
            match b {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.at])
                        .map_err(|e| e.to_string())?;
                    self.at += 1;
                    return Ok(s.to_owned());
                }
                b'\\' => return Err("escapes are not used by the result line".to_owned()),
                _ => self.at += 1,
            }
        }
        Err("unterminated string".to_owned())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("bad number {text:?} at {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ninety_nine, 0.9), None);
        // p99 of 1000 samples has exactly ten beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 0.99), Some(990.0));
        assert_eq!(percentile(&hundred, 0.99), None);
    }

    #[test]
    fn block_percentile_takes_the_median_over_blocks() {
        // Three blocks of 128; the middle one is twice as slow.
        let mut v: Vec<f64> = Vec::new();
        for scale in [1.0, 2.0, 1.0] {
            v.extend((1..=128u32).map(|i| f64::from(i) * scale));
        }
        assert_eq!(block_percentile(&v, 0.5), Some(64.0));
        assert_eq!(block_percentile(&v, 0.9), Some(116.0));
        // A short tail joins the last block, moving its median to 74.
        v.extend([1e9; 20]);
        assert_eq!(block_percentile(&v, 0.5), Some(74.0));
        // Fewer than 100 samples in total: no p90.
        assert_eq!(block_percentile(&v[..99], 0.9), None);
        assert!(block_percentile(&v[..99], 0.5).is_some());
    }

    #[test]
    fn median_is_always_reported() {
        assert_eq!(percentile(&[3.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn error_rate_counts_every_failure_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.error_rate(), 0.0);
        for i in 0..8 {
            let r: Result<(), &str> = if i % 4 == 0 { Err("busy") } else { Ok(()) };
            t.record(&r);
        }
        assert_eq!((t.sent, t.ok, t.failed), (8, 6, 2));
        assert_eq!(t.error_rate(), 0.25);
        let mut total = Tally::default();
        total.add(t);
        total.add(Tally {
            sent: 2,
            ok: 0,
            failed: 2,
        });
        assert_eq!(total.error_rate(), 0.4);
    }

    #[test]
    fn bad_answers_are_failures() {
        assert!(check_scores(&[0.1, 0.2], 2, false).is_ok());
        assert!(check_scores(&[0.1, 0.2], 2, true).is_err());
        assert!(check_scores(&[0.1], 2, false).is_err());
        assert!(check_scores(&[0.1, f32::NAN], 2, false).is_err());
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let out = Outcome {
            correct: true,
            attempted: 1234,
            failed: 0,
            metrics: vec![
                Metric::new("latency_p50_ms", 1.234_567_890_123, "ms"),
                Metric::new("setup_s", 0.000_812_7, "s"),
                Metric::new("throughput_eps", 1e-7 / 3.0, "expl/s"),
                Metric::new("raw.peak", 12_345_678.5, "MB"),
            ],
        };
        let line = out.to_json();
        assert!(!line.contains('\n'));
        let back = Outcome::parse(&line).expect("parses");
        assert_eq!(back.correct, out.correct);
        assert_eq!((back.attempted, back.failed), (1234, 0));
        for m in &out.metrics {
            let got = back
                .metrics
                .iter()
                .find(|b| b.name == m.name)
                .expect("metric present");
            assert_eq!(got.value.to_bits(), m.value.to_bits(), "{}", m.name);
            assert_eq!(got.unit, m.unit);
        }
        assert!(Outcome::parse("{\"correct\": true}").is_err());
        assert!(Outcome::parse(&format!("{line} x")).is_err());
    }

    #[test]
    fn non_finite_values_never_parse_as_numbers() {
        let out = Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Metric::new("x", f64::NAN, "ms")],
        };
        assert!(Outcome::parse(&out.to_json()).is_err());
    }

    #[test]
    fn digest_tracks_every_bit() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.scores(&[0.5, 0.25]);
        b.scores(&[0.5, f32::from_bits(0.25f32.to_bits() + 1)]);
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.scores(&[0.5, 0.25]);
        assert_eq!(a.hex(), c.hex());
    }
}
