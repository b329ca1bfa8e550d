//! Consistent-hash sharding gateway over a fleet of `revelio-serve`
//! backends.
//!
//! One backend process caps out at one machine; this crate scales the
//! serving layer out while keeping the property that made one machine
//! fast: *locality*. Every explanation is keyed by
//! `(model, graph_id, target)` — the same key the backend's artifact
//! cache and warm-start store use — and the gateway consistent-hashes
//! that key across shards ([`ring::Ring`]), so repeat traffic for an
//! instance always lands where its subgraph, flow index, and converged
//! mask already live. Random load balancing would destroy exactly that.
//!
//! Registrations replicate to every shard (any owner can serve any key),
//! backends are health-checked and failed over with deterministic
//! successor selection, and the gateway speaks the ordinary wire protocol
//! on both sides — clients cannot tell it from a single big backend,
//! except that `Stats` answers carry a fleet-rollup
//! [`revelio_server::GatewayStats`] tail.
//!
//! ```no_run
//! use revelio_gateway::{Gateway, GatewayConfig};
//!
//! let gw = Gateway::start(GatewayConfig {
//!     shards: vec!["127.0.0.1:7141".into(), "127.0.0.1:7142".into()],
//!     ..GatewayConfig::default()
//! })
//! .unwrap();
//! // Clients connect to gw.local_addr() exactly as to revelio-serve.
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod gateway;
pub mod ring;

pub use gateway::{Gateway, GatewayConfig, GatewayConfigError, GatewayStartError};
pub use ring::{route_key, Ring};
