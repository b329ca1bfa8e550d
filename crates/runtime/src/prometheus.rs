//! Prometheus text-format exposition of runtime metrics.
//!
//! Each metric table renders itself in the [text exposition format] a
//! Prometheus server scrapes (`prometheus()` on [`MetricsSnapshot`] and the
//! server's tables): `# HELP` / `# TYPE` headers, cumulative
//! `_bucket{le="…"}` series ending in `+Inf`, and `_sum` / `_count` pairs.
//! Durations are converted to **seconds** (the Prometheus base unit); the
//! internal µs histograms map directly because bucket upper bounds are
//! fixed. This module holds what the tables share: label escaping and a
//! small structural parser ([`parse_exposition`]) that backs the
//! round-trip tests and lets `revelio-top` sanity-check what a server
//! emits.
//!
//! [`MetricsSnapshot`]: crate::MetricsSnapshot
//!
//! [text exposition format]:
//!     https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::BTreeMap;

/// Escapes a label value as the text format specifies: backslash, double
/// quote and newline become `\\`, `\"` and `\n`, so a value from a peer
/// cannot end its label or its line.
pub fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// What a parsed exposition declares about one metric family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyType {
    Counter,
    Gauge,
    Histogram,
    Untyped,
}

/// A structurally parsed exposition: declared families and their samples.
#[derive(Debug, Default)]
pub struct Exposition {
    /// `# TYPE` declarations, in order of appearance.
    pub families: BTreeMap<String, FamilyType>,
    /// Every sample line: full sample name (with suffix), labels text
    /// (empty when unlabelled), and value.
    pub samples: Vec<(String, String, f64)>,
}

impl Exposition {
    /// Samples belonging to family `name` (counting `_bucket`/`_sum`/
    /// `_count` suffixes for histograms).
    pub fn samples_of(&self, name: &str) -> Vec<&(String, String, f64)> {
        self.samples
            .iter()
            .filter(|(n, _, _)| {
                n == name
                    || (n.starts_with(name)
                        && matches!(&n[name.len()..], "_bucket" | "_sum" | "_count"))
            })
            .collect()
    }
}

/// Parses and structurally validates Prometheus text exposition:
///
/// * every sample belongs to a `# TYPE`-declared family;
/// * histogram families carry `_bucket` (cumulative, non-decreasing,
///   ending in `le="+Inf"`), `_sum`, and `_count`, with the `+Inf` bucket
///   equal to `_count`.
///
/// Returns the parsed structure, or a description of the first violation.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("# HELP") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().ok_or(format!("line {lineno}: bare TYPE"))?;
            let ty = match it.next() {
                Some("counter") => FamilyType::Counter,
                Some("gauge") => FamilyType::Gauge,
                Some("histogram") => FamilyType::Histogram,
                Some("untyped") => FamilyType::Untyped,
                other => return Err(format!("line {lineno}: bad TYPE {other:?}")),
            };
            exp.families.insert(name.to_owned(), ty);
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: unknown comment form"));
        }
        // Sample: name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {lineno}: no value"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: bad value {value:?}"))?;
        let (name, labels) = match name_labels.split_once('{') {
            Some((n, l)) => {
                let l = l
                    .strip_suffix('}')
                    .ok_or(format!("line {lineno}: unterminated labels"))?;
                (n, l)
            }
            None => (name_labels, ""),
        };
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suf| {
                name.strip_suffix(suf)
                    .filter(|base| exp.families.get(*base) == Some(&FamilyType::Histogram))
            })
            .unwrap_or(name);
        if !exp.families.contains_key(family) {
            return Err(format!("line {lineno}: sample {name} has no TYPE"));
        }
        exp.samples
            .push((name.to_owned(), labels.to_owned(), value));
    }
    // Histogram invariants.
    for (family, ty) in &exp.families {
        if *ty != FamilyType::Histogram {
            continue;
        }
        let buckets: Vec<&(String, String, f64)> = exp
            .samples
            .iter()
            .filter(|(n, _, _)| *n == format!("{family}_bucket"))
            .collect();
        if buckets.is_empty() {
            return Err(format!("histogram {family} has no buckets"));
        }
        let mut prev = 0.0f64;
        for (_, labels, v) in &buckets {
            if !labels.contains("le=") {
                return Err(format!("histogram {family} bucket without le"));
            }
            if *v < prev {
                return Err(format!("histogram {family} buckets not cumulative"));
            }
            prev = *v;
        }
        let (_, last_labels, last_v) = buckets[buckets.len() - 1];
        if !last_labels.contains("le=\"+Inf\"") {
            return Err(format!("histogram {family} does not end in +Inf"));
        }
        let count = exp
            .samples
            .iter()
            .find(|(n, _, _)| *n == format!("{family}_count"))
            .ok_or(format!("histogram {family} has no _count"))?
            .2;
        if exp
            .samples
            .iter()
            .all(|(n, _, _)| *n != format!("{family}_sum"))
        {
            return Err(format!("histogram {family} has no _sum"));
        }
        if (count - last_v).abs() > f64::EPSILON {
            return Err(format!(
                "histogram {family}: +Inf bucket {last_v} != count {count}"
            ));
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metrics;
    use std::time::Duration;

    #[test]
    fn render_parses_and_round_trips_counts() {
        let m = Metrics::default();
        m.jobs_submitted
            .fetch_add(3, revelio_check::sync::atomic::Ordering::Relaxed);
        m.explain_latency.observe(Duration::from_millis(5));
        m.explain_latency.observe(Duration::from_secs(2));
        m.phase_optimize.observe(Duration::from_millis(40));
        let text = m.snapshot(2, 1).prometheus();
        let exp = parse_exposition(&text).expect("valid exposition");
        assert_eq!(
            exp.families.get("revelio_jobs_submitted_total"),
            Some(&FamilyType::Counter)
        );
        assert_eq!(
            exp.families.get("revelio_latency_seconds_explain"),
            Some(&FamilyType::Histogram)
        );
        let count = exp
            .samples
            .iter()
            .find(|(n, _, _)| n == "revelio_latency_seconds_explain_count")
            .expect("count sample");
        assert_eq!(count.2, 2.0);
        // Quantile gauges carry stage labels.
        assert!(text.contains("stage=\"optimize\",quantile=\"0.99\""));
    }

    #[test]
    fn parser_rejects_structural_violations() {
        // Sample without a TYPE declaration.
        assert!(parse_exposition("orphan 1\n").is_err());
        // Histogram without +Inf.
        let bad = "# TYPE h histogram\nh_bucket{le=\"0.1\"} 1\nh_sum 0.1\nh_count 1\n";
        assert!(parse_exposition(bad).is_err());
        // Non-cumulative buckets.
        let bad = "# TYPE h histogram\nh_bucket{le=\"0.1\"} 2\n\
                   h_bucket{le=\"+Inf\"} 1\nh_sum 0.1\nh_count 1\n";
        assert!(parse_exposition(bad).is_err());
        // +Inf disagrees with _count.
        let bad = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_sum 0.1\nh_count 2\n";
        assert!(parse_exposition(bad).is_err());
    }

    #[test]
    fn empty_snapshot_renders_validly() {
        let text = Metrics::default().snapshot(0, 0).prometheus();
        let exp = parse_exposition(&text).expect("valid exposition");
        // Seven stage histograms plus the batch-size histogram are
        // declared even when empty.
        let histos = exp
            .families
            .values()
            .filter(|t| **t == FamilyType::Histogram)
            .count();
        assert_eq!(histos, 8);
    }

    #[test]
    fn batch_metrics_appear_in_exposition() {
        let m = Metrics::default();
        m.batches
            .fetch_add(2, revelio_check::sync::atomic::Ordering::Relaxed);
        m.batched_jobs
            .fetch_add(5, revelio_check::sync::atomic::Ordering::Relaxed);
        m.batch_size.observe(2);
        m.batch_size.observe(3);
        let text = m.snapshot(0, 0).prometheus();
        let exp = parse_exposition(&text).expect("valid exposition");
        assert_eq!(
            exp.families.get("revelio_batched_jobs_total"),
            Some(&FamilyType::Counter)
        );
        let sum = exp
            .samples
            .iter()
            .find(|(n, _, _)| n == "revelio_batch_size_sum")
            .expect("sum sample");
        assert_eq!(sum.2, 5.0);
    }
}
