//! Simulated analogues of the citation benchmarks (Cora, Citeseer, PubMed).
//!
//! The real datasets are not available offline, so each is replaced by a
//! degree-corrected planted-partition graph with class-conditional sparse
//! binary "bag-of-words" features, matched to Table III's node count, edge
//! count, feature dimensionality and class count (see `DESIGN.md` §3).
//! Homophily and feature-noise levels are tuned per dataset so a 3-layer GCN
//! lands near the paper's reported accuracy.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use revelio_graph::Graph;
use std::collections::HashSet;

use crate::split::node_split;
use crate::NodeDataset;

struct CitationSpec {
    name: &'static str,
    nodes: usize,
    /// Undirected edge count; the stored graph has twice as many directed
    /// edges, matching Table III.
    undirected_edges: usize,
    feat_dim: usize,
    classes: usize,
    /// Probability that an edge endpoint pair is sampled within one class.
    homophily: f64,
    /// Active feature words per node.
    words_per_node: usize,
    /// Probability that a word is drawn from the node's class topic
    /// (vs. uniformly at random).
    topic_fidelity: f64,
    /// Topic vocabulary size per class.
    topic_words: usize,
}

fn generate(spec: &CitationSpec, seed: u64) -> NodeDataset {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = spec.nodes;

    // Roughly balanced class assignment.
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..spec.classes)).collect();
    let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); spec.classes];
    for (v, &c) in labels.iter().enumerate() {
        by_class[c].push(v);
    }

    // Degree-corrected sampling: heavier nodes attract more edges
    // (approximate power law via inverse-uniform weights, capped).
    let weights: Vec<f64> = (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-3..1.0);
            u.powf(-0.5).min(30.0)
        })
        .collect();
    let cum = cumulative(&weights);
    let cum_by_class: Vec<Vec<f64>> = by_class
        .iter()
        .map(|members| cumulative(&members.iter().map(|&v| weights[v]).collect::<Vec<_>>()))
        .collect();

    let mut b = Graph::builder(n, spec.feat_dim);
    let mut seen: HashSet<(usize, usize)> = HashSet::new();
    let mut added = 0usize;
    while added < spec.undirected_edges {
        let u = sample_cum(&cum, &mut rng);
        let v = if rng.gen_bool(spec.homophily) {
            let c = labels[u];
            by_class[c][sample_cum(&cum_by_class[c], &mut rng)]
        } else {
            sample_cum(&cum, &mut rng)
        };
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            b.undirected_edge(u, v);
            added += 1;
        }
    }

    // Class topic vocabularies (may overlap across classes, like real
    // bags-of-words do).
    let topics: Vec<Vec<usize>> = (0..spec.classes)
        .map(|_| {
            let mut words = HashSet::new();
            while words.len() < spec.topic_words {
                words.insert(rng.gen_range(0..spec.feat_dim));
            }
            let mut words: Vec<usize> = words.into_iter().collect();
            // HashSet iteration order differs between instances; sort so the
            // generator is deterministic given its seed.
            words.sort_unstable();
            words
        })
        .collect();

    // One dense row at a time: the graph keeps only its non-zeros.
    let mut row = vec![0.0f32; spec.feat_dim];
    for v in 0..n {
        let topic = &topics[labels[v]];
        row.fill(0.0);
        for _ in 0..spec.words_per_node {
            let w = if rng.gen_bool(spec.topic_fidelity) {
                topic[rng.gen_range(0..topic.len())]
            } else {
                rng.gen_range(0..spec.feat_dim)
            };
            row[w] = 1.0;
        }
        b.node_features(v, &row);
    }
    b.node_labels(labels);

    NodeDataset {
        name: spec.name,
        graph: b.build(),
        num_classes: spec.classes,
        split: node_split(n, 0.6, 0.2, seed ^ 0xc17a),
        node_motif: None,
        motif_edges: None,
    }
}

fn cumulative(w: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    w.iter()
        .map(|x| {
            acc += x;
            acc
        })
        .collect()
}

/// Samples an index proportionally to the weight increments behind `cum`.
/// Total over its inputs: an empty table yields index 0 (callers always
/// pass non-empty weights, but nothing here depends on it).
fn sample_cum(cum: &[f64], rng: &mut SmallRng) -> usize {
    let Some(&total) = cum.last() else { return 0 };
    let t = rng.gen_range(0.0..total);
    cum.partition_point(|&c| c <= t).min(cum.len() - 1)
}

/// Simulated Cora: 2708 nodes, 10 556 directed edges, 1433 features, 7
/// classes.
pub fn cora_sim(seed: u64) -> NodeDataset {
    generate(
        &CitationSpec {
            name: "Cora",
            nodes: 2708,
            undirected_edges: 5278,
            feat_dim: 1433,
            classes: 7,
            homophily: 0.82,
            words_per_node: 18,
            topic_fidelity: 0.82,
            topic_words: 90,
        },
        seed,
    )
}

/// Simulated Citeseer: 3327 nodes, 9104 directed edges, 3703 features, 6
/// classes (noisier features and weaker homophily, mirroring its lower
/// accuracy in Table III).
pub fn citeseer_sim(seed: u64) -> NodeDataset {
    generate(
        &CitationSpec {
            name: "Citeseer",
            nodes: 3327,
            undirected_edges: 4552,
            feat_dim: 3703,
            classes: 6,
            homophily: 0.72,
            words_per_node: 14,
            topic_fidelity: 0.68,
            topic_words: 140,
        },
        seed,
    )
}

/// Simulated PubMed: 19 717 nodes, 88 648 directed edges, 500 features, 3
/// classes.
pub fn pubmed_sim(seed: u64) -> NodeDataset {
    generate(
        &CitationSpec {
            name: "PubMed",
            nodes: 19_717,
            undirected_edges: 44_324,
            feat_dim: 500,
            classes: 3,
            homophily: 0.80,
            words_per_node: 22,
            topic_fidelity: 0.80,
            topic_words: 60,
        },
        seed,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn cora_matches_table_iii() {
        let d = cora_sim(0);
        assert_eq!(d.graph.num_nodes(), 2708);
        assert_eq!(d.graph.num_edges(), 10_556);
        assert_eq!(d.graph.feat_dim(), 1433);
        assert_eq!(d.num_classes, 7);
    }

    #[test]
    fn citeseer_matches_table_iii() {
        let d = citeseer_sim(0);
        assert_eq!(d.graph.num_nodes(), 3327);
        assert_eq!(d.graph.num_edges(), 9104);
        assert_eq!(d.graph.feat_dim(), 3703);
        assert_eq!(d.num_classes, 6);
    }

    #[test]
    fn homophily_is_realised() {
        let d = cora_sim(1);
        let labels = d.graph.node_labels().unwrap();
        let intra = d
            .graph
            .edges()
            .iter()
            .filter(|&&(u, v)| labels[u as usize] == labels[v as usize])
            .count();
        let frac = intra as f64 / d.graph.num_edges() as f64;
        assert!(frac > 0.7, "homophily too low: {frac}");
    }

    #[test]
    fn features_are_sparse_binary_and_class_informative() {
        let d = cora_sim(2);
        let f = d.graph.features().to_dense();
        assert!(f.iter().all(|&x| x == 0.0 || x == 1.0));
        let nnz = f.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nnz, d.graph.features().nnz());
        let per_node = nnz as f64 / d.graph.num_nodes() as f64;
        assert!(per_node > 5.0 && per_node < 25.0, "nnz/node = {per_node}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = citeseer_sim(5);
        let b = citeseer_sim(5);
        assert_eq!(a.graph.edges(), b.graph.edges());
        assert!(a.graph.features() == b.graph.features(), "features differ");
    }
}
