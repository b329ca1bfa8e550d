//! Inputs: a dataset, a trained model, and a fixed sequence of
//! explanation instances. Fixture time is reported per layer and kept out
//! of set-up time.
//!
//! The dataset and the model come from [`DATA_SEED`]; the run's seed
//! picks the instances and their order. A seeded dataset would also change
//! the trained model, and with it explanation quality and per-instance
//! cost, so runs with different seeds would not measure the same program
//! on comparable work.

use std::time::Instant;

use revelio_datasets::NodeDataset;
use revelio_eval::{flow_cap, Effort};
use revelio_gnn::{train_node_classifier, Gnn, GnnConfig, GnnKind, Task, TrainConfig};
use revelio_graph::{count_flows, khop_subgraph, Graph, MpGraph, Target};

/// Seed of dataset generation, model initialisation and training.
pub const DATA_SEED: u64 = 0;

/// One instance the benchmark asks the program to explain.
pub struct Picked {
    /// The target's L-hop subgraph, as sent to the server.
    pub graph: Graph,
    /// The target inside `graph`.
    pub target: Target,
    /// The target's node id in the dataset graph.
    pub node: usize,
}

pub struct Fixture {
    pub model: Gnn,
    /// The whole dataset graph (for replaying subgraph extraction).
    pub full: Graph,
    pub picks: Vec<Picked>,
    pub generate_s: f64,
    pub train_s: f64,
    pub sample_s: f64,
}

/// Cora-sim with a 3-layer GCN. Training uses a fixed small epoch budget
/// (the simulated features separate the classes within a few dozen
/// epochs). Instances are drawn from subgraphs of 40 to 80 nodes: a run
/// of a hundred requests fits in the run's time, and the median request
/// does not hinge on which sizes a seed drew.
pub fn cora(seed: u64, count: usize) -> Fixture {
    let generate = || revelio_datasets::cora_sim(DATA_SEED);
    build(generate, GnnKind::Gcn, 30, seed, count, 40..=80, 10)
}

/// Tree-Cycles with the given architecture, trained at the Quick schedule.
pub fn tree_cycles(seed: u64, kind: GnnKind, count: usize) -> Fixture {
    let generate = || revelio_datasets::tree_cycles(DATA_SEED);
    build(generate, kind, 300, seed, count, 1..=usize::MAX, 3)
}

fn build(
    generate: impl FnOnce() -> NodeDataset,
    kind: GnnKind,
    epochs: usize,
    seed: u64,
    count: usize,
    nodes: std::ops::RangeInclusive<usize>,
    pool_factor: usize,
) -> Fixture {
    let t = Instant::now();
    let ds = generate();
    let generate_s = t.elapsed().as_secs_f64();
    let model = Gnn::new(GnnConfig::standard(
        kind,
        Task::NodeClassification,
        ds.graph.feat_dim(),
        ds.num_classes,
        DATA_SEED,
    ));
    let t = Instant::now();
    train_node_classifier(
        &model,
        &ds.graph,
        &ds.split.train,
        &TrainConfig {
            epochs,
            lr: 1e-2,
            weight_decay: 5e-4,
            seed: DATA_SEED,
            ..Default::default()
        },
    );
    let train_s = t.elapsed().as_secs_f64();

    // Stratified sampling: walk the nodes in a seeded order, keep the
    // first `pool_factor * count` whose L-hop subgraph has a size in `nodes` and a
    // flow count within the Quick cap, then take evenly spaced ranks by
    // size. Every seed gets the same size profile, so runs with different
    // seeds do comparable work. Only sizes are kept while scanning, so the
    // scan leaves no feature-sized garbage behind.
    let t = Instant::now();
    let layers = model.num_layers();
    let full = ds.graph;
    let mut order: Vec<usize> = (0..full.num_nodes()).collect();
    shuffle(&mut order, seed ^ 0x5eed);
    let mut pool: Vec<(usize, usize, usize)> = Vec::new();
    for &v in &order {
        let sub = khop_subgraph(&full, v, layers);
        let size = (sub.graph.num_nodes(), sub.graph.num_edges(), v);
        if nodes.contains(&size.0)
            && count_flows(&MpGraph::new(&sub.graph), layers, Target::Node(sub.target))
                <= flow_cap(Effort::Quick) as u64
        {
            pool.push(size);
            if pool.len() == pool_factor * count {
                break;
            }
        }
    }
    assert!(!pool.is_empty(), "no instance of the requested size");
    pool.sort_unstable();
    let mut picks: Vec<Picked> = (0..count)
        .map(|i| {
            let (_, _, node) = pool[i * pool.len() / count];
            let sub = khop_subgraph(&full, node, layers);
            Picked {
                graph: sub.graph,
                target: Target::Node(sub.target),
                node,
            }
        })
        .collect();
    shuffle(&mut picks, seed);
    let sample_s = t.elapsed().as_secs_f64();
    Fixture {
        model,
        full,
        picks,
        generate_s,
        train_s,
        sample_s,
    }
}

/// SplitMix64 step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates: a fixed request order per seed.
fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed ^ 0x0a11_ce5e;
    for i in (1..v.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}
