//! Cross-process smoke client for `revelio-serve` and `revelio-gateway`.
//!
//! ```text
//! cargo run -p revelio-bench --release --bin loadgen -- \
//!     --addr HOST:PORT [--shutdown] [--fetch-newest]
//! ```
//!
//! Connects to an already-running server (or gateway), pings it,
//! registers the [`serving_workload`] model and drives
//! [`REQUESTS_PER_CLIENT`] explanations per client at each of
//! [`CLIENT_LEVELS`] concurrent clients, retrying on `Busy`. It exits
//! non-zero if any request ultimately fails or the server reports
//! protocol errors, and prints one result line otherwise. This measures
//! nothing: serving speed is `refbench`'s job.
//!
//! `--fetch-newest` replaces the load with a store check: list the
//! server's persisted explanations, fetch the newest by job id, and fail
//! if the store is absent or empty or the record does not come back.
//! Run against a *restarted* `revelio-serve --store`, it proves crash
//! recovery end to end.
//!
//! `--shutdown` asks the server to shut down once the run is over, even
//! if the run failed, so a CI `wait` on the server never hangs.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use revelio_bench::serving_workload;
use revelio_core::wire::ControlSpec;
use revelio_core::Objective;
use revelio_eval::Effort;
use revelio_graph::{Graph, Target};
use revelio_server::{Client, ClientConfig, ExplainRequest};

const USAGE: &str = "usage: loadgen --addr HOST:PORT [--shutdown] [--fetch-newest]";

/// Explanations each client requests per level.
const REQUESTS_PER_CLIENT: usize = 4;

/// Concurrent client counts, driven in turn.
const CLIENT_LEVELS: [usize; 2] = [1, 2];

struct Args {
    addr: SocketAddr,
    shutdown: bool,
    fetch_newest: bool,
}

/// `None` on any flag outside the three, or a missing or unparsable
/// `--addr`.
fn parse_args(mut argv: impl Iterator<Item = String>) -> Option<Args> {
    let (mut addr, mut shutdown, mut fetch_newest) = (None, false, false);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--addr" => addr = Some(argv.next()?.parse().ok()?),
            "--shutdown" => shutdown = true,
            "--fetch-newest" => fetch_newest = true,
            _ => return None,
        }
    }
    Some(Args {
        addr: addr?,
        shutdown,
        fetch_newest,
    })
}

/// Drives one client's share of a level; returns its failed requests.
fn drive_client(addr: SocketAddr, model: u32, graphs: &[Graph], client_ix: usize) -> usize {
    let cfg = ClientConfig {
        max_attempts: 12,
        backoff_base: Duration::from_millis(5),
        ..Default::default()
    };
    let Ok(mut client) = Client::connect_with_retry(addr, cfg) else {
        return REQUESTS_PER_CLIENT;
    };
    (0..REQUESTS_PER_CLIENT)
        .filter(|r| {
            // Distinct graphs and ids per (client, request): the server
            // must enumerate flows per job rather than ride one cache entry.
            let ix = (client_ix * REQUESTS_PER_CLIENT + r) % graphs.len();
            let req = ExplainRequest {
                model,
                graph_id: ix as u64,
                method: "REVELIO".to_owned(),
                objective: Objective::Factual,
                effort: Effort::Quick,
                target: Target::Node(2),
                control: ControlSpec::default(),
                graph: graphs[ix].clone(),
                context: None,
            };
            client.explain_with_retry(&req).is_err()
        })
        .count()
}

/// Pings, registers the model, drives every level and checks the
/// server's protocol-error counter.
fn smoke(admin: &mut Client, addr: SocketAddr) -> Result<String, String> {
    // One graph per request of the widest level.
    let (model, graphs) = serving_workload(2 * REQUESTS_PER_CLIENT);
    admin.ping().map_err(|e| format!("ping: {e}"))?;
    let model = admin
        .register_model(&model)
        .map_err(|e| format!("register model: {e}"))?;
    let mut failures = 0;
    for clients in CLIENT_LEVELS {
        failures += std::thread::scope(|scope| {
            let graphs = &graphs;
            let handles: Vec<_> = (0..clients)
                .map(|c| scope.spawn(move || drive_client(addr, model, graphs, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(REQUESTS_PER_CLIENT))
                .sum::<usize>()
        });
    }
    if failures > 0 {
        return Err(format!("{failures} requests ultimately failed"));
    }
    let stats = admin.stats().map_err(|e| format!("stats: {e}"))?;
    if stats.protocol_errors > 0 {
        return Err(format!(
            "server reported {} protocol errors",
            stats.protocol_errors
        ));
    }
    let served: usize = CLIENT_LEVELS.iter().map(|c| c * REQUESTS_PER_CLIENT).sum();
    Ok(format!(
        "all {served} requests served at {CLIENT_LEVELS:?} clients, {} shed, zero protocol errors",
        stats.shed
    ))
}

/// Fetches the newest persisted explanation and checks it carries scores.
fn fetch_newest(admin: &mut Client) -> Result<String, String> {
    let list = admin
        .list_explanations()
        .map_err(|e| format!("list explanations: {e}"))?;
    let newest = list
        .iter()
        .map(|s| s.job_id)
        .max()
        .ok_or("the server's store holds no explanations")?;
    let rec = admin
        .fetch_explanation(newest)
        .map_err(|e| format!("fetch job {newest}: {e}"))?
        .ok_or_else(|| format!("listed job {newest} does not fetch"))?;
    if rec.edge_scores.is_empty() {
        return Err(format!("job {newest} came back without edge scores"));
    }
    Ok(format!(
        "newest stored job {} (model {}, graph {}) fetched with {} edge scores, has_mask={}",
        rec.job_id,
        rec.model,
        rec.graph_id,
        rec.edge_scores.len(),
        rec.has_mask
    ))
}

fn main() -> ExitCode {
    let Some(args) = parse_args(std::env::args().skip(1)) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let cfg = ClientConfig {
        max_attempts: 20,
        backoff_base: Duration::from_millis(25),
        ..Default::default()
    };
    let mut admin = match Client::connect_with_retry(args.addr, cfg) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: connect to {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let mut outcome = if args.fetch_newest {
        fetch_newest(&mut admin)
    } else {
        smoke(&mut admin, args.addr)
    };
    if args.shutdown {
        if let Err(e) = admin.shutdown() {
            outcome = outcome.and(Err(format!("shutdown: {e}")));
        }
    }
    match outcome {
        Ok(line) => {
            println!("loadgen: {line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("loadgen: {e}");
            ExitCode::FAILURE
        }
    }
}
