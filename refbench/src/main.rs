//! End-to-end benchmark of the REVELIO serving stack, every timing
//! reported at reference speed (see `reference.rs` and the README).
//!
//! ```text
//! cargo run --release --manifest-path refbench/Cargo.toml -- \
//!     --workload cora-cold|tree-batch|hot-repeat --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod cora_cold;
mod fixtures;
mod harness;
mod hot_repeat;
mod layers;
mod reference;
mod report;
mod spans;
mod sys;
mod tree_batch;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Args, RunStats};
use reference::RefPool;
use report::{median, Outcome, Tally};

const USAGE: &str =
    "usage: revelio-refbench --workload cora-cold|tree-batch|hot-repeat --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["cora-cold", "tree-batch", "hot-repeat"].contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Where the benchmark writes spans and store logs: inside its own
/// directory of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_spans(spans: &spans::Spans, args: &Args) {
    let path = out_dir().join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    match spans.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

fn print_tally(phase: &str, t: Tally) {
    println!(
        "{phase}: sent={} succeeded={} failed={}",
        t.sent, t.ok, t.failed
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut pool = RefPool::new(cores);
    let mut stats = RunStats::default();
    let run = match args.workload.as_str() {
        "cora-cold" => cora_cold::run(&args, &mut pool, &mut stats),
        "tree-batch" => tree_batch::run(&args, &mut pool, &mut stats),
        _ => hot_repeat::run(&args, &mut pool, &mut stats),
    };
    if let Err(e) = run {
        eprintln!("{}: {e}", args.workload);
        return ExitCode::FAILURE;
    }

    let (e2e, raw) = stats.end_to_end();
    stats.layers.set("bench.ref_ms", median(&pool.samples));
    stats.layers.set("error_rate", stats.tally.error_rate());
    stats.layers.set(
        "runtime.cpu_util",
        stats.measured.cpu_s / (stats.measured.raw_s * cores as f64),
    );
    for m in &raw {
        let name = harness::PER_LAYER
            .iter()
            .find(|(n, _)| *n == m.name)
            .map(|(n, _)| *n)
            .expect("raw metrics are declared per layer");
        stats.layers.set(name, m.value);
    }
    drop(pool);

    println!(
        "workload={} seed={} seconds={} trace={} cores={cores}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    print_tally("warm-up", stats.warmup);
    print_tally("measured", stats.tally);
    if args.trace {
        print_tally("traced", stats.traced);
    }
    println!("scores_digest={}", stats.digest.hex());
    println!("error_rate={}", stats.tally.error_rate());
    for m in e2e.iter().chain(&raw) {
        println!("{:<24} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for p in &stats.problems {
        println!("problem: {p}");
    }

    let mut all = Tally::default();
    for t in [stats.warmup, stats.tally, stats.traced] {
        all.add(t);
    }
    let correct = stats.problems.is_empty() && all.failed == 0;
    let outcome = Outcome {
        correct,
        attempted: all.sent.max(1),
        failed: all.failed,
        metrics: if args.trace {
            stats.layers.metrics()
        } else {
            e2e
        },
    };
    let line = outcome.to_json();
    // The line must read back as what was measured.
    let reread = Outcome::parse(&line).is_ok_and(|o| o.metrics.len() == outcome.metrics.len());
    if !reread {
        eprintln!("result line does not parse back: {line}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
