//! Simulated analogues of the molecular benchmarks (MUTAG, BBBP).
//!
//! The real datasets are not available offline; both are replaced by
//! molecule-like random graphs whose class signal is a small planted
//! substructure — exactly the property that makes the originals useful for
//! explainability evaluation (see `DESIGN.md` §3):
//!
//! * **MUTAG-sim**: ring-and-chain carbon skeletons over 7 atom types; the
//!   positive ("mutagenic") class contains a planted NO₂ group (a nitrogen
//!   bonded to two oxygens and a ring carbon).
//! * **BBBP-sim**: larger skeletons over 9 atom types; the positive class
//!   contains a planted six-ring of "aromatic" type-8 atoms.
//!
//! A small fraction of labels is flipped so model accuracies land near
//! Table III rather than saturating.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use revelio_graph::{Graph, GraphBuilder};

use crate::split::graph_split;
use crate::GraphDataset;

const CARBON: usize = 0;
const NITROGEN: usize = 1;
const OXYGEN: usize = 2;

struct MoleculeBuilder {
    builder: GraphBuilder,
    next_node: usize,
    edge_count: usize,
    types: Vec<usize>,
}

impl MoleculeBuilder {
    fn new(max_nodes: usize, feat_dim: usize) -> Self {
        MoleculeBuilder {
            builder: Graph::builder(max_nodes, feat_dim),
            next_node: 0,
            edge_count: 0,
            types: Vec::with_capacity(max_nodes),
        }
    }

    fn atom(&mut self, ty: usize) -> usize {
        let id = self.next_node;
        self.next_node += 1;
        self.types.push(ty);
        id
    }

    /// Adds an undirected bond, returning the two directed edge ids.
    fn bond(&mut self, u: usize, v: usize) -> (usize, usize) {
        self.builder.undirected_edge(u, v);
        let ids = (self.edge_count, self.edge_count + 1);
        self.edge_count += 2;
        ids
    }

    fn ring(&mut self, ty: usize, len: usize) -> (Vec<usize>, Vec<usize>) {
        let nodes: Vec<usize> = (0..len).map(|_| self.atom(ty)).collect();
        let mut edge_ids = Vec::with_capacity(2 * len);
        for i in 0..len {
            let (a, b) = self.bond(nodes[i], nodes[(i + 1) % len]);
            edge_ids.push(a);
            edge_ids.push(b);
        }
        (nodes, edge_ids)
    }

    /// Grows a chain off `attach_to`, returning the new atoms and the tip
    /// (the last chain atom, or `attach_to` itself when `len == 0`) so
    /// callers can extend from the end without a non-emptiness witness.
    fn chain(&mut self, ty: usize, len: usize, attach_to: usize) -> (Vec<usize>, usize) {
        let mut prev = attach_to;
        let mut nodes = Vec::with_capacity(len);
        for _ in 0..len {
            let v = self.atom(ty);
            self.bond(prev, v);
            nodes.push(v);
            prev = v;
        }
        (nodes, prev)
    }

    fn finish(mut self, feat_dim: usize, label: usize) -> Graph {
        // The builder was sized for `max_nodes`; trim by rebuilding with the
        // actual count. Cheaper: build features on actual nodes only — we
        // sized exactly, so assert.
        let n = self.next_node;
        let mut features = vec![0.0f32; n * feat_dim];
        for (v, &ty) in self.types.iter().enumerate() {
            features[v * feat_dim + ty] = 1.0;
        }
        // Rebuild into an exact-size graph.
        let mut b = Graph::builder(n, feat_dim);
        b.all_features(features);
        let built = self.builder.build();
        for &(u, v) in built.edges() {
            b.edge(u as usize, v as usize);
        }
        b.graph_label(label);
        b.build()
    }
}

/// Simulated MUTAG: 188 graphs, 7 atom features, 2 classes; positives carry
/// a planted NO₂ motif.
pub fn mutag_sim(seed: u64) -> GraphDataset {
    const GRAPHS: usize = 188;
    const FEAT: usize = 7;
    const LABEL_NOISE: f64 = 0.08;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graphs = Vec::with_capacity(GRAPHS);
    let mut motif_edges = Vec::with_capacity(GRAPHS);

    for i in 0..GRAPHS {
        // ~2/3 positive, matching the real MUTAG imbalance (125 / 63).
        let positive = i % 3 != 2;
        let mut m = MoleculeBuilder::new(40, FEAT);

        // Skeleton: one aromatic-like carbon ring, optionally a second ring
        // joined by a short chain, plus a dangling chain.
        let (ring1, _) = m.ring(CARBON, 6);
        let mut skeleton: Vec<usize> = ring1.clone();
        if rng.gen_bool(0.55) {
            let (bridge, tip) = m.chain(CARBON, rng.gen_range(1..=2), ring1[0]);
            let (ring2, _) = m.ring(CARBON, rng.gen_range(5..=6));
            m.bond(tip, ring2[0]);
            skeleton.extend(bridge);
            skeleton.extend(ring2);
        }
        let tail_len = rng.gen_range(0..=3);
        if tail_len > 0 {
            let anchor = skeleton[rng.gen_range(0..skeleton.len())];
            let (tail, _) = m.chain(CARBON, tail_len, anchor);
            skeleton.extend(tail);
        }

        let mut gt = Vec::new();
        if positive {
            // NO2 group: skeleton carbon — N — (O, O).
            for _ in 0..rng.gen_range(1..=2) {
                let anchor = skeleton[rng.gen_range(0..skeleton.len())];
                let n = m.atom(NITROGEN);
                let (e1, e2) = m.bond(anchor, n);
                let o1 = m.atom(OXYGEN);
                let (e3, e4) = m.bond(n, o1);
                let o2 = m.atom(OXYGEN);
                let (e5, e6) = m.bond(n, o2);
                gt.extend([e1, e2, e3, e4, e5, e6]);
            }
        } else {
            // Red herrings: lone oxygens / nitrogens, never the N(O,O) motif.
            for _ in 0..rng.gen_range(1..=3) {
                let anchor = skeleton[rng.gen_range(0..skeleton.len())];
                let ty = if rng.gen_bool(0.5) { OXYGEN } else { NITROGEN };
                let d = m.atom(ty);
                m.bond(anchor, d);
            }
        }
        // Occasional halogen decoration (types 3..7) in either class.
        if rng.gen_bool(0.4) {
            let anchor = skeleton[rng.gen_range(0..skeleton.len())];
            let halo = m.atom(rng.gen_range(3..FEAT));
            m.bond(anchor, halo);
        }

        let mut label = usize::from(positive);
        if rng.gen_bool(LABEL_NOISE) {
            label = 1 - label;
        }
        graphs.push(m.finish(FEAT, label));
        motif_edges.push(gt);
    }

    GraphDataset {
        name: "MUTAG",
        graphs,
        num_classes: 2,
        split: graph_split(GRAPHS, 0.8, 0.1, seed ^ 0x307a6),
        motif_edges: Some(motif_edges),
    }
}

/// Simulated BBBP: 2039 graphs, 9 atom features, 2 classes; positives carry
/// a planted six-ring of type-8 atoms.
pub fn bbbp_sim(seed: u64) -> GraphDataset {
    const GRAPHS: usize = 2039;
    const FEAT: usize = 9;
    const AROMATIC: usize = 8;
    const LABEL_NOISE: f64 = 0.10;

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut graphs = Vec::with_capacity(GRAPHS);
    let mut motif_edges = Vec::with_capacity(GRAPHS);

    for i in 0..GRAPHS {
        let positive = i % 2 == 0;
        let mut m = MoleculeBuilder::new(48, FEAT);

        let (ring1, _) = m.ring(CARBON, 6);
        let mut skeleton = ring1.clone();
        let (bridge, bridge_tip) = m.chain(CARBON, rng.gen_range(2..=4), ring1[2]);
        skeleton.extend(bridge);
        if rng.gen_bool(0.5) {
            let (ring2, _) = m.ring(CARBON, rng.gen_range(5..=6));
            m.bond(bridge_tip, ring2[0]);
            skeleton.extend(ring2);
        }
        // Random heteroatom decorations in both classes.
        for _ in 0..rng.gen_range(2..=4) {
            let anchor = skeleton[rng.gen_range(0..skeleton.len())];
            let d = m.atom(rng.gen_range(1..8));
            m.bond(anchor, d);
        }

        let mut gt = Vec::new();
        if positive {
            let (ring, ids) = m.ring(AROMATIC, 6);
            let anchor = skeleton[rng.gen_range(0..skeleton.len())];
            m.bond(anchor, ring[0]);
            gt = ids;
        } else {
            // Open chain of the aromatic type: same atom counts, no ring.
            let anchor = skeleton[rng.gen_range(0..skeleton.len())];
            m.chain(AROMATIC, rng.gen_range(2..=4), anchor);
        }

        let mut label = usize::from(positive);
        if rng.gen_bool(LABEL_NOISE) {
            label = 1 - label;
        }
        graphs.push(m.finish(FEAT, label));
        motif_edges.push(gt);
    }

    GraphDataset {
        name: "BBBP",
        graphs,
        num_classes: 2,
        split: graph_split(GRAPHS, 0.8, 0.1, seed ^ 0xbbb9),
        motif_edges: Some(motif_edges),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn mutag_stats_near_table_iii() {
        let d = mutag_sim(0);
        assert_eq!(d.graphs.len(), 188);
        assert_eq!(d.num_classes, 2);
        assert_eq!(d.graphs[0].feat_dim(), 7);
        let avg_n = d.avg_nodes();
        let avg_e = d.avg_edges();
        assert!((12.0..=24.0).contains(&avg_n), "avg nodes {avg_n}");
        assert!((28.0..=52.0).contains(&avg_e), "avg edges {avg_e}");
    }

    #[test]
    fn bbbp_stats_near_table_iii() {
        let d = bbbp_sim(0);
        assert_eq!(d.graphs.len(), 2039);
        assert_eq!(d.graphs[0].feat_dim(), 9);
        let avg_n = d.avg_nodes();
        assert!((18.0..=30.0).contains(&avg_n), "avg nodes {avg_n}");
    }

    #[test]
    fn positive_mutag_graphs_contain_no2_motif() {
        let d = mutag_sim(1);
        let me = d.motif_edges.as_ref().unwrap();
        for (g, gt) in d.graphs.iter().zip(me) {
            if gt.is_empty() {
                continue;
            }
            // Every ground-truth edge id must be valid and touch an N or O.
            for &e in gt {
                let (u, v) = g.edges()[e];
                let tu = g.feature_row(u as usize);
                let tv = g.feature_row(v as usize);
                let is_no = |row: &[f32]| row[NITROGEN] == 1.0 || row[OXYGEN] == 1.0;
                assert!(is_no(&tu) || is_no(&tv));
            }
        }
    }

    #[test]
    fn labels_mostly_match_motif_presence() {
        let d = bbbp_sim(2);
        let me = d.motif_edges.as_ref().unwrap();
        let agree = d
            .graphs
            .iter()
            .zip(me)
            .filter(|(g, gt)| (g.graph_label() == Some(1)) != gt.is_empty())
            .count();
        let frac = agree as f64 / d.graphs.len() as f64;
        assert!(frac > 0.85, "label/motif agreement {frac}");
    }

    #[test]
    fn atom_features_are_one_hot() {
        let d = mutag_sim(3);
        for g in &d.graphs[..10] {
            for v in 0..g.num_nodes() {
                let row = g.feature_row(v);
                assert_eq!(row.iter().filter(|&&x| x == 1.0).count(), 1);
                assert!(row.iter().all(|&x| x == 0.0 || x == 1.0));
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = mutag_sim(7);
        let b = mutag_sim(7);
        assert_eq!(a.graphs[5].edges(), b.graphs[5].edges());
    }
}
