//! Network serving layer over the explanation runtime.
//!
//! The crate is the paper's explanation engine turned into a service:
//! a versioned binary wire protocol ([`wire`]), the one blocking TCP front
//! end that `revelio-serve` and `revelio-gateway` both serve through
//! ([`front`]), a server that funnels decoded requests into the
//! [`revelio_runtime::Runtime`] worker pool ([`server`]), and a small
//! client library with retry/backoff ([`client`]). Everything is `std`-only — the transport is plain TCP,
//! the codec the workspace's one [`revelio_core::wire::Codec`], the
//! concurrency model thread-per-connection over the runtime's fixed worker
//! pool.
//!
//! ```no_run
//! use revelio_server::{Client, Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! // ... in another process or thread:
//! let mut client = Client::connect(addr).unwrap();
//! client.ping().unwrap();
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
pub mod front;
pub mod server;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError};
pub use front::FrontEnd;
pub use server::{Server, ServerConfig, ServerStartError};
pub use wire::{
    ErrorKind, ExplainRequest, GatewayBackendStats, GatewayStats, MaskKey, Request, Response,
    ServedExplanation, ServerStats, WireError, WireExplanationSummary, WireStoredExplanation,
    WireTiming, MAGIC, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
