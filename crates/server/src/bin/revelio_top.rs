//! `revelio-top`: a live stats view over a running `revelio-serve`.
//!
//! ```text
//! revelio-top [--addr HOST:PORT] [--interval-ms MS] [--once] [--prometheus]
//!             [--trace ID|newest [--chrome PATH]]
//! ```
//!
//! Polls the server's `Stats` request and re-renders the unified wire +
//! runtime report every `--interval-ms` (default 1000). `--once` prints a
//! single snapshot and exits — useful in scripts; `--prometheus` switches
//! the output to the Prometheus text exposition (implies machine
//! consumption, so it never clears the screen).
//!
//! `--trace` fetches one *assembled* distributed trace instead of stats:
//! `ID` is the 32-hex-digit global trace id, the decimal low half echoed
//! as `trace_id` on a traced explain, or `newest` for the most recent
//! assembled trace the peer retains. The tree with per-hop latencies
//! prints to stdout; `--chrome PATH` additionally writes Chrome
//! trace-event JSON loadable in `chrome://tracing` / Perfetto.

use std::process::ExitCode;
use std::time::Duration;

use revelio_server::{Client, ClientConfig};

struct Args {
    addr: String,
    interval: Duration,
    once: bool,
    prometheus: bool,
    /// The assembled trace to fetch: `Some(None)` = newest.
    trace: Option<Option<[u64; 2]>>,
    chrome: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: revelio-top [--addr HOST:PORT] [--interval-ms MS] [--once] \
[--prometheus] [--trace ID|newest [--chrome PATH]]";

/// Parses `--trace`'s argument: `newest`, a 32-hex-digit global id, or a
/// decimal low half.
fn parse_trace_id(s: &str) -> Result<Option<[u64; 2]>, String> {
    if s.eq_ignore_ascii_case("newest") {
        return Ok(None);
    }
    if s.len() == 32 {
        let hi = u64::from_str_radix(&s[..16], 16);
        let lo = u64::from_str_radix(&s[16..], 16);
        if let (Ok(hi), Ok(lo)) = (hi, lo) {
            return Ok(Some([hi, lo]));
        }
    }
    s.parse::<u64>()
        .map(|lo| Some([0, lo]))
        .map_err(|_| format!("--trace: {s:?} is neither `newest`, 32 hex digits, nor decimal"))
}

fn value(argv: &[String], i: &mut usize, name: &str) -> Result<String, String> {
    *i += 1;
    argv.get(*i)
        .cloned()
        .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7137".to_owned(),
        interval: Duration::from_millis(1000),
        once: false,
        prometheus: false,
        trace: None,
        chrome: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--addr" => args.addr = value(&argv, &mut i, "--addr")?,
            "--interval-ms" => {
                let ms: u64 = value(&argv, &mut i, "--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?;
                args.interval = Duration::from_millis(ms.max(100));
            }
            "--once" => args.once = true,
            "--prometheus" => args.prometheus = true,
            "--trace" => {
                args.trace = Some(parse_trace_id(&value(&argv, &mut i, "--trace")?)?);
            }
            "--chrome" => {
                args.chrome = Some(value(&argv, &mut i, "--chrome")?.into());
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
        i += 1;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.chrome.is_some() && args.trace.is_none() {
        eprintln!("--chrome only applies with --trace\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let mut client = match Client::connect_with(&args.addr, ClientConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("revelio-top: cannot connect to {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(id) = args.trace {
        let assembled = match client.assembled_trace(id) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("revelio-top: trace fetch failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", assembled.render_tree());
        if let Some(path) = &args.chrome {
            if let Err(e) = std::fs::write(path, assembled.chrome_trace_json()) {
                eprintln!("revelio-top: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("chrome trace written to {}", path.display());
        }
        return ExitCode::SUCCESS;
    }
    loop {
        let (stats, gateway) = match client.stats_full() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("revelio-top: stats request failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if args.prometheus {
            println!("{}", stats.prometheus());
            // A gateway answers Stats with a fleet-rollup tail; append its
            // families so one scrape covers routing + backend health too.
            if let Some(g) = &gateway {
                println!("{}", g.prometheus());
            }
        } else {
            if !args.once {
                // ANSI clear + home, like top(1); harmless when redirected.
                print!("\x1b[2J\x1b[H");
            }
            println!("revelio-top — {}", args.addr);
            println!("{}", stats.report());
            if let Some(g) = &gateway {
                println!("{}", g.report());
            }
        }
        if args.once {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(args.interval);
    }
}
