//! PGM-Explainer (Vu & Thai, 2020): a black-box probabilistic method that
//! perturbs node features and measures statistical dependence between each
//! node's perturbation indicator and the prediction change.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use revelio_core::{Explainer, Explanation};
use revelio_gnn::{Gnn, Instance};

/// PGM-Explainer hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct PgmExplainerConfig {
    /// Number of random perturbation samples.
    pub samples: usize,
    /// Probability that a node's features are perturbed in one sample.
    pub perturb_prob: f64,
    /// Prediction-probability drop that counts as "changed".
    pub change_threshold: f32,
    pub seed: u64,
}

impl Default for PgmExplainerConfig {
    fn default() -> Self {
        PgmExplainerConfig {
            samples: 100,
            perturb_prob: 0.3,
            change_threshold: 0.05,
            seed: 0,
        }
    }
}

/// The PGM-Explainer baseline.
pub struct PgmExplainer {
    cfg: PgmExplainerConfig,
}

impl PgmExplainer {
    pub fn new(cfg: PgmExplainerConfig) -> PgmExplainer {
        PgmExplainer { cfg }
    }
}

impl Default for PgmExplainer {
    fn default() -> Self {
        PgmExplainer::new(PgmExplainerConfig::default())
    }
}

/// Chi-square statistic of a 2×2 contingency table (with 0.5 continuity
/// padding to avoid division by zero).
fn chi_square_2x2(a: f64, b: f64, c: f64, d: f64) -> f64 {
    let (a, b, c, d) = (a + 0.5, b + 0.5, c + 0.5, d + 0.5);
    let n = a + b + c + d;
    let num = n * (a * d - b * c).powi(2);
    let den = (a + b) * (c + d) * (a + c) * (b + d);
    num / den
}

impl Explainer for PgmExplainer {
    fn name(&self) -> &'static str {
        "PGMExplainer"
    }

    fn explain(&self, model: &Gnn, instance: &Instance) -> Explanation {
        let cfg = &self.cfg;
        let n = instance.graph.num_nodes();
        let f = instance.graph.feat_dim();
        let base_prob = instance.orig_prob();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // Per-feature column means, the perturbation fill value.
        let feats = instance.graph.features().to_dense();
        let mut mean = vec![0.0f32; f];
        for v in 0..n {
            for j in 0..f {
                mean[j] += feats[v * f + j];
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }

        // Contingency counts per node: [perturbed & changed, perturbed &
        // unchanged, untouched & changed, untouched & unchanged].
        let mut table = vec![[0u32; 4]; n];
        for _ in 0..cfg.samples {
            let perturbed: Vec<bool> = (0..n).map(|_| rng.gen_bool(cfg.perturb_prob)).collect();
            if !perturbed.iter().any(|&p| p) {
                continue;
            }
            let mut new_feats = feats.clone();
            for (v, &p) in perturbed.iter().enumerate() {
                if p {
                    new_feats[v * f..(v + 1) * f].copy_from_slice(&mean);
                }
            }
            let g2 = instance.graph.with_features(new_feats);
            let prob = model.predict_probs(&g2, instance.target)[instance.class];
            let changed = base_prob - prob > cfg.change_threshold;
            for (v, &p) in perturbed.iter().enumerate() {
                let idx = match (p, changed) {
                    (true, true) => 0,
                    (true, false) => 1,
                    (false, true) => 2,
                    (false, false) => 3,
                };
                table[v][idx] += 1;
            }
        }

        let node_scores: Vec<f32> = table
            .iter()
            .map(|t| {
                let chi = chi_square_2x2(t[0] as f64, t[1] as f64, t[2] as f64, t[3] as f64);
                // Direction: only count dependence where perturbation
                // associates with change.
                let assoc = (t[0] as f64) * (t[3] as f64) - (t[1] as f64) * (t[2] as f64);
                if assoc > 0.0 {
                    chi as f32
                } else {
                    0.0
                }
            })
            .collect();

        let edge_scores = instance
            .graph
            .edges()
            .iter()
            .map(|&(s, d)| 0.5 * (node_scores[s as usize] + node_scores[d as usize]))
            .collect();
        Explanation::from_edge_scores(edge_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use revelio_gnn::{GnnConfig, GnnKind, Task};
    use revelio_graph::{Graph, Target};

    #[test]
    fn chi_square_detects_dependence() {
        // Strong dependence vs none.
        let dep = chi_square_2x2(40.0, 10.0, 10.0, 40.0);
        let indep = chi_square_2x2(25.0, 25.0, 25.0, 25.0);
        assert!(dep > indep);
        assert!(indep < 1e-9);
    }

    #[test]
    fn produces_nonnegative_edge_scores() {
        let mut b = Graph::builder(4, 3);
        b.undirected_edge(0, 1)
            .undirected_edge(1, 2)
            .undirected_edge(2, 3);
        for v in 0..4 {
            b.node_features(v, &[v as f32, 1.0, 0.5]);
        }
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gcn,
            Task::NodeClassification,
            3,
            2,
            71,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Node(1));
        let exp = PgmExplainer::new(PgmExplainerConfig {
            samples: 30,
            ..Default::default()
        })
        .explain(&model, &inst);
        assert_eq!(exp.edge_scores.len(), 6);
        assert!(exp.edge_scores.iter().all(|s| *s >= 0.0 && s.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut b = Graph::builder(3, 2);
        b.undirected_edge(0, 1).undirected_edge(1, 2);
        let g = b.build();
        let model = Gnn::new(GnnConfig::standard(
            GnnKind::Gin,
            Task::NodeClassification,
            2,
            2,
            72,
        ));
        let inst = Instance::for_prediction(&model, g, Target::Node(1));
        let e1 = PgmExplainer::default().explain(&model, &inst);
        let e2 = PgmExplainer::default().explain(&model, &inst);
        assert_eq!(e1.edge_scores, e2.edge_scores);
    }
}
