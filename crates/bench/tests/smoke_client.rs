//! The `loadgen` smoke client's exit codes, against in-process servers.
//!
//! CI's cross-process smokes trust `loadgen`'s exit status, so its failure
//! paths are pinned here as well as its success path.

#![allow(clippy::unwrap_used)]

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use revelio_runtime::RuntimeConfig;
use revelio_server::{Server, ServerConfig};

/// A fresh store path per call: unique within the process run and across
/// concurrently running test binaries.
fn temp_store() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "revelio-smoke-client-{}-{}.log",
        std::process::id(),
        n
    ))
}

fn server(store: Option<PathBuf>) -> Server {
    Server::start(ServerConfig {
        runtime: RuntimeConfig {
            workers: 2,
            seed: 7,
            ..Default::default()
        },
        store,
        ..Default::default()
    })
    .unwrap()
}

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(args)
        .output()
        .unwrap()
}

fn loadgen_at(server: &Server, flags: &[&str]) -> Output {
    let addr = server.local_addr().to_string();
    let mut args = vec!["--addr", addr.as_str()];
    args.extend_from_slice(flags);
    loadgen(&args)
}

#[test]
fn fetch_newest_fails_on_a_storeless_server() {
    let s = server(None);
    let out = loadgen_at(&s, &["--fetch-newest"]);
    assert!(!out.status.success(), "{out:?}");
    s.shutdown();
}

#[test]
fn fetch_newest_fails_on_an_empty_store() {
    let path = temp_store();
    let s = server(Some(path.clone()));
    let out = loadgen_at(&s, &["--fetch-newest"]);
    assert!(!out.status.success(), "{out:?}");
    s.shutdown();
    let _ = std::fs::remove_file(path);
}

#[test]
fn smoke_then_fetch_newest_succeeds_and_shuts_the_server_down() {
    let path = temp_store();
    let s = server(Some(path.clone()));
    let out = loadgen_at(&s, &[]);
    assert!(out.status.success(), "{out:?}");
    assert!(
        !s.stopping(),
        "a run without --shutdown must leave the server up"
    );
    let out = loadgen_at(&s, &["--fetch-newest", "--shutdown"]);
    assert!(out.status.success(), "{out:?}");
    // The server raises its stop flag before it acknowledges Shutdown.
    assert!(s.stopping(), "--shutdown was acknowledged but not applied");
    s.wait();
    let _ = std::fs::remove_file(path);
}

#[test]
fn unknown_or_missing_flags_print_the_usage_line() {
    for args in [
        &[][..],
        &["--smoke", "--addr", "127.0.0.1:1"][..],
        &["--addr", "not-an-address"][..],
        &["--addr"][..],
    ] {
        let out = loadgen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("usage: loadgen"), "{args:?}: {stderr}");
    }
}
