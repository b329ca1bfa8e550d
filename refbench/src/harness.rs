//! What every workload collects, and how it becomes the printed metrics.

use std::collections::BTreeMap;

use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::{flow_cap, perturbed_probability, Effort};
use revelio_gnn::{Gnn, Instance};
use revelio_server::ExplainRequest;

use crate::fixtures::Picked;
use crate::report::{block_percentile, check_scores, mean, median, Digest, Metric, Tally};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Share of a graph's edges kept for `expl_sufficiency`.
pub const KEEP_SHARE: f64 = 0.3;

/// Timings of the measured phase. `*_norm` values are at reference speed.
#[derive(Default)]
pub struct Measured {
    pub explanations: u64,
    pub raw_s: f64,
    pub norm_s: f64,
    /// Per unit: (work group, explanations, raw s, reference-speed s).
    /// Units of one group do identical work.
    units: Vec<(usize, u64, f64, f64)>,
    pub lat_raw_ms: Vec<f64>,
    pub lat_norm_ms: Vec<f64>,
    /// Process CPU over the phase, reference threads excluded (raw s).
    pub cpu_s: f64,
}

impl Measured {
    /// One measured unit of work group `group` that completed
    /// `explanations` explanations.
    pub fn unit(&mut self, group: usize, raw_s: f64, factor: f64, explanations: u64) {
        self.explanations += explanations;
        self.raw_s += raw_s;
        self.norm_s += raw_s * factor;
        self.units
            .push((group, explanations, raw_s, raw_s * factor));
    }

    /// One client-visible request time.
    pub fn latency(&mut self, raw_s: f64, factor: f64) {
        self.lat_raw_ms.push(raw_s * 1e3);
        self.lat_norm_ms.push(raw_s * factor * 1e3);
    }

    /// Mean reference-speed factor over the phase, weighted by time.
    pub fn factor(&self) -> f64 {
        self.norm_s / self.raw_s
    }

    /// Explanations per second from the median unit time of each work
    /// group: one group's worth of every group's work, over the sum of
    /// their median times. A unit that a burst of interference hit
    /// between two reference samples moves a median, not a sum.
    pub fn throughput(&self, normalised: bool) -> f64 {
        let mut groups: BTreeMap<usize, (u64, Vec<f64>)> = BTreeMap::new();
        for &(g, n, raw, norm) in &self.units {
            let entry = groups.entry(g).or_insert((n, Vec::new()));
            entry.1.push(if normalised { norm } else { raw });
        }
        let work: u64 = groups.values().map(|(n, _)| n).sum();
        let time: f64 = groups.values().map(|(_, t)| median(t)).sum();
        work as f64 / time
    }
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct RunStats {
    pub setup_raw_s: Vec<f64>,
    pub setup_norm_s: Vec<f64>,
    pub measured: Measured,
    pub peak_rss_mb: f64,
    pub sufficiency: Vec<f64>,
    pub warmup: Tally,
    pub tally: Tally,
    /// Requests of the traced pass (traced runs only).
    pub traced: Tally,
    pub digest: Digest,
    /// Checks that failed; any entry makes the run incorrect.
    pub problems: Vec<String>,
    pub layers: Layers,
}

impl RunStats {
    pub fn setup(&mut self, raw_s: f64, factor: f64) {
        self.setup_raw_s.push(raw_s);
        self.setup_norm_s.push(raw_s * factor);
    }

    /// Every set-up serves the same warm-up jobs, so their answers must be
    /// bit-identical: compares `digest` with the first set-up's.
    pub fn same_as_first_setup(&mut self, first: &mut Option<String>, digest: &Digest) {
        match first {
            None => *first = Some(digest.hex()),
            Some(d) if *d != digest.hex() => {
                self.problem("warm-up answers differ between set-ups".to_owned());
            }
            Some(_) => {}
        }
    }

    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// The end-to-end metrics, then their raw counterparts.
    pub fn end_to_end(&mut self) -> (Vec<Metric>, Vec<Metric>) {
        let m = &self.measured;
        let (norm, raw) = (&m.lat_norm_ms, &m.lat_raw_ms);
        let p = |v: &[f64], q: f64| block_percentile(v, q).unwrap_or(f64::NAN);
        if block_percentile(norm, 0.9).is_none() {
            self.problems.push(format!(
                "{} latency samples leave fewer than ten beyond p90",
                norm.len()
            ));
        }
        let per_expl = 1e3 / m.explanations.max(1) as f64;
        let e2e = vec![
            Metric::new("setup_s", median(&self.setup_norm_s), "s"),
            Metric::new("throughput_eps", m.throughput(true), "expl/s"),
            Metric::new("latency_p50_ms", p(norm, 0.5), "ms"),
            Metric::new("latency_p90_ms", p(norm, 0.9), "ms"),
            Metric::new("cpu_ms_per_expl", m.cpu_s * m.factor() * per_expl, "ms"),
            Metric::new("peak_rss_mb", self.peak_rss_mb, "MB"),
            Metric::new("expl_sufficiency", mean(&self.sufficiency), "prob"),
        ];
        let raw = vec![
            Metric::new("raw.setup_s", median(&self.setup_raw_s), "s"),
            Metric::new("raw.throughput_eps", m.throughput(false), "expl/s"),
            Metric::new("raw.latency_p50_ms", p(raw, 0.5), "ms"),
            Metric::new("raw.latency_p90_ms", p(raw, 0.9), "ms"),
            Metric::new("raw.cpu_ms_per_expl", m.cpu_s * per_expl, "ms"),
        ];
        (e2e, raw)
    }
}

/// Every per-layer metric with its unit, in print order. Metrics of a
/// layer a workload does not touch are printed as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.eq7_us", "us"),
    ("graph.khop_us", "us"),
    ("graph.flow_index_us", "us"),
    ("graph.flows", "count"),
    ("graph.layer_edges", "count"),
    ("gnn.forward_ms", "ms"),
    ("gnn.backward_ms", "ms"),
    ("gnn.train_s", "s"),
    ("core.optimize_ms", "ms"),
    ("core.epoch_us", "us"),
    ("core.epochs_run", "count"),
    ("core.fused_batch_ms", "ms"),
    ("runtime.queue_ms", "ms"),
    ("runtime.prep_ms", "ms"),
    ("runtime.explain_ms", "ms"),
    ("runtime.batch_size_mean", "count"),
    ("runtime.cache_hit_rate", "fraction"),
    ("runtime.cpu_util", "fraction"),
    ("store.hit_rate", "fraction"),
    ("store.log_bytes_per_expl", "bytes"),
    ("server.wire_ms", "ms"),
    ("server.handler_ms", "ms"),
    ("server.bytes_per_req", "bytes"),
    ("server.connect_ms", "ms"),
    ("gateway.hop_ms", "ms"),
    ("gateway.rerouted", "count"),
    ("bench.ref_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("datasets.generate_s", "s"),
    ("eval.sample_s", "s"),
    ("error_rate", "fraction"),
    ("raw.setup_s", "s"),
    ("raw.throughput_eps", "expl/s"),
    ("raw.latency_p50_ms", "ms"),
    ("raw.latency_p90_ms", "ms"),
    ("raw.cpu_ms_per_expl", "ms"),
];

/// Per-layer values by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric::new(name, self.0.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// Server-reported timings of served answers, at reference speed (ms).
#[derive(Default)]
pub struct ServedTimes {
    queue: Vec<f64>,
    prep: Vec<f64>,
    explain: Vec<f64>,
    wire: Vec<f64>,
    handler: Vec<f64>,
    epochs: Vec<f64>,
}

impl ServedTimes {
    /// One answer that took `rtt_s` (raw) at the client.
    pub fn add(&mut self, rtt_s: f64, factor: f64, served: &revelio_server::ServedExplanation) {
        let t = &served.timing;
        let ms = |us: u64| us as f64 * 1e-3 * factor;
        self.queue.push(ms(t.queue_us));
        self.prep.push(ms(t.prep_us));
        self.explain.push(ms(t.explain_us));
        self.wire.push(rtt_s * 1e3 * factor - ms(t.total_us));
        let inner = t.queue_us + t.prep_us + t.explain_us;
        self.handler.push(ms(t.total_us.saturating_sub(inner)));
        self.epochs.push(served.degradation.epochs_run as f64);
    }

    pub fn set_layers(&self, layers: &mut Layers) {
        layers.set("runtime.queue_ms", mean(&self.queue));
        layers.set("runtime.prep_ms", mean(&self.prep));
        layers.set("runtime.explain_ms", mean(&self.explain));
        layers.set("server.wire_ms", mean(&self.wire));
        layers.set("server.handler_ms", mean(&self.handler));
        layers.set("core.epochs_run", mean(&self.epochs));
    }
}

/// Sets the per-layer metrics of replays run at reference-speed factor
/// `factor` (mean over the replay units).
pub fn set_replay_layers(layers: &mut Layers, replays: &[crate::layers::Replayed], factor: f64) {
    let avg = |f: &dyn Fn(&crate::layers::Replayed) -> f64| {
        mean(&replays.iter().map(f).collect::<Vec<f64>>())
    };
    layers.set("graph.khop_us", avg(&|r| r.khop_us) * factor);
    layers.set("graph.flow_index_us", avg(&|r| r.flow_index_us) * factor);
    layers.set("graph.flows", avg(&|r| r.flows as f64));
    layers.set("graph.layer_edges", avg(&|r| r.layer_edges as f64));
    layers.set("tensor.eq7_us", avg(&|r| r.eq7_us) * factor);
    layers.set("tensor.matmul_gflops", avg(&|r| r.matmul_gflops) / factor);
    layers.set("gnn.forward_ms", avg(&|r| r.forward_us) * 1e-3 * factor);
    layers.set("gnn.backward_ms", avg(&|r| r.backward_us) * 1e-3 * factor);
    layers.set("core.optimize_ms", avg(&|r| r.optimize_us) * 1e-3 * factor);
    layers.set(
        "core.epoch_us",
        avg(&|r| r.optimize_us / r.epochs_run.max(1) as f64) * factor,
    );
}

/// Hits over lookups (0 when there were none).
pub fn hit_rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// A factual REVELIO request at the Quick effort, capped at the flow
/// budget the instances were sampled under (so no answer is degraded).
pub fn request(model: u32, graph_id: u64, pick: &Picked, warm_start: bool) -> ExplainRequest {
    ExplainRequest {
        model,
        graph_id,
        method: "REVELIO".to_owned(),
        objective: Objective::Factual,
        effort: Effort::Quick,
        target: pick.target,
        control: ControlSpec {
            max_flows: flow_cap(Effort::Quick) as u64,
            warm_start,
            ..ControlSpec::default()
        },
        graph: pick.graph.clone(),
        context: None,
    }
}

/// Checks a served answer against the instance it explains.
pub fn check_served(
    answer: Result<revelio_server::ServedExplanation, revelio_server::ClientError>,
    pick: &Picked,
) -> Result<revelio_server::ServedExplanation, String> {
    let served = answer.map_err(|e| e.to_string())?;
    check_scores(
        &served.edge_scores,
        pick.graph.num_edges(),
        served.degradation.is_degraded(),
    )?;
    Ok(served)
}

/// Probability of the explained class when only the top [`KEEP_SHARE`]
/// of edges by score are kept (computed outside any timing).
pub fn sufficiency(model: &Gnn, pick: &Picked, scores: &[f32]) -> f64 {
    let instance = Instance::for_prediction(model, pick.graph.clone(), pick.target);
    let ranked = revelio_core::Explanation::from_edge_scores(scores.to_vec()).ranked_edges();
    let keep = ((ranked.len() as f64) * KEEP_SHARE).ceil() as usize;
    f64::from(perturbed_probability(model, &instance, &ranked[..keep]))
}

/// Whether the replayed prep + optimize agrees with what the serving
/// path reported for the same requests: their ratio must lie within
/// `1 ± REPLAY_TOLERANCE`.
pub const REPLAY_TOLERANCE: f64 = 0.25;

/// Throughput lost to tracing, in percent: the same work took
/// `untraced_s` without spans and `traced_s` with them.
pub fn trace_overhead_pct(untraced_s: f64, traced_s: f64) -> f64 {
    (1.0 - untraced_s / traced_s) * 100.0
}

pub fn replay_agrees(replayed: f64, served: f64) -> bool {
    let ratio = replayed / served;
    ratio.is_finite() && (ratio - 1.0).abs() <= REPLAY_TOLERANCE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_scale_to_reference_speed() {
        let mut s = RunStats::default();
        for i in 0..120u32 {
            // Every unit ran at half reference speed (factor 0.5).
            s.measured.unit(i as usize % 3, 0.010, 0.5, 1);
            s.measured.latency(0.010 + f64::from(i) * 1e-5, 0.5);
        }
        s.measured.cpu_s = 1.2;
        s.setup(2.0, 0.5);
        let (e2e, raw) = s.end_to_end();
        let get = |v: &[Metric], n: &str| v.iter().find(|m| m.name == n).map(|m| m.value);
        assert!((get(&e2e, "throughput_eps").unwrap() - 200.0).abs() < 1e-9);
        assert!((get(&raw, "raw.throughput_eps").unwrap() - 100.0).abs() < 1e-9);
        assert!((get(&e2e, "setup_s").unwrap() - 1.0).abs() < 1e-12);
        assert!((get(&e2e, "cpu_ms_per_expl").unwrap() - 5.0).abs() < 1e-9);
        assert!(get(&e2e, "latency_p90_ms").unwrap().is_finite());
        assert!(s.problems.is_empty());
    }

    #[test]
    fn throughput_uses_each_groups_median_unit() {
        let mut m = Measured::default();
        // Group 0: 4 explanations in 0.1 s, one unit hit by a stall.
        for t in [0.1, 0.1, 0.1, 5.0] {
            m.unit(0, t, 1.0, 4);
        }
        // Group 1: 2 explanations in 0.3 s.
        for _ in 0..3 {
            m.unit(1, 0.3, 1.0, 2);
        }
        assert!((m.throughput(false) - 6.0 / 0.4).abs() < 1e-9);
        assert!((m.throughput(true) - m.throughput(false)).abs() < 1e-9);
    }

    #[test]
    fn too_few_requests_for_p90_is_a_problem() {
        let mut s = RunStats::default();
        for _ in 0..50 {
            s.measured.unit(0, 0.01, 1.0, 1);
            s.measured.latency(0.01, 1.0);
        }
        let (e2e, _) = s.end_to_end();
        assert!(!s.problems.is_empty());
        assert!(e2e
            .iter()
            .any(|m| m.name == "latency_p90_ms" && m.value.is_nan()));
    }

    #[test]
    fn replay_tolerance_is_symmetric_in_ratio() {
        assert!(replay_agrees(1.2, 1.0));
        assert!(!replay_agrees(1.3, 1.0));
        assert!(!replay_agrees(1.0, 0.0));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut s = RunStats::default();
        s.measured.unit(0, 1.0, 1.0, 1);
        let (e2e, _) = s.end_to_end();
        for name in e2e
            .iter()
            .map(|m| m.name.as_str())
            .chain(PER_LAYER.iter().map(|(n, _)| *n))
        {
            assert!(
                text.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
        let declared = text.matches("\"name\": \"").count();
        // Workload names are declared the same way.
        assert_eq!(declared, e2e.len() + PER_LAYER.len() + 3);
    }
}
