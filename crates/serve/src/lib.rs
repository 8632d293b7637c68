//! gbtl-serve: a concurrent graph-analytics query server over the
//! GraphBLAS frontend.
//!
//! A dependency-free TCP server speaking newline-delimited JSON. Clients
//! `load` named graphs into an immutable, `Arc`-shared catalog, then `query`
//! them with any [`gbtl-algorithms`](gbtl_algorithms) routine (BFS, SSSP,
//! PageRank, triangle count, connected components, MIS) on a per-request
//! backend choice — sequential CPU, work-stealing parallel CPU, or the
//! simulated GPU.
//!
//! The server is built from four pieces, each its own module:
//!
//! * [`catalog`] — named, epoch-stamped resident graphs;
//! * [`protocol`] — the wire grammar (requests, params, error codes);
//! * [`cache`] — the LRU result cache keyed by `(graph, epoch, params)`;
//! * [`engine`] + [`pool`] — per-worker backend contexts behind a bounded
//!   job queue with admission control, deadlines, and graceful shutdown,
//!   packaged as an [`EnginePool`] that implements the formal
//!   [`gbtl_net::Engine`] contract;
//! * [`server`] — the connection front-ends: the blocking
//!   thread-per-connection listener and the `gbtl-net` evented `poll(2)`
//!   loop (`GBTL_SERVE_MODE`), both driving the same pool through the same
//!   trait with bit-identical responses — and the flag table the server
//!   binaries share ([`ServerConfig::parse_flags`]);
//! * [`snapshot`] — versioned `.gbsnap` snapshot files (`GBTL_SNAPSHOT_DIR`)
//!   behind the `snapshot`/`restore` ops, restoring a catalog with two bulk
//!   binary reads and a transpose prewarm instead of a re-parse;
//! * [`scatter`] — scatter-gather for catalog-wide `query_all` requests,
//!   shared between the single pool (scatters to itself) and gbtl-shard's
//!   router (scatters to owning shards).
//!
//! [`client`] has the matching client and the closed-loop load generator
//! the integration tests drive.
//!
//! ## A one-minute session
//!
//! ```text
//! → {"op":"load","graph":"karate","spec":"karate"}
//! ← {"ok":true,"graph":"karate","epoch":1,"n":34,"nnz":156,"spec":"karate"}
//! → {"op":"query","graph":"karate","algo":"bfs","source":0,"backend":"par"}
//! ← {"ok":true,"graph":"karate","epoch":1,"algo":"bfs","backend":"par",
//!    "cached":false,"micros":412,"result":{"reached":34,"max_level":2,...}}
//! ```
//!
//! Start one in-process with [`server::start`] (the integration tests do),
//! or run the `gbtl-serve` binary and talk to it with [`Client`].

#![warn(missing_docs)]

pub mod cache;
pub mod catalog;
pub mod client;
pub mod engine;
pub mod pool;
pub mod protocol;
pub mod scatter;
pub mod server;
pub mod snapshot;

pub use client::{run_loadgen, Client, LoadgenOptions, LoadgenReport};
pub use pool::{EnginePool, ShardSnapshot};
pub use server::{
    serve_threaded, start, start_frontend, Frontend, FrontendMode, ServerConfig, ServerHandle,
};
