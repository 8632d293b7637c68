//! # gbtl-net — event-driven connection layer
//!
//! A dependency-free evented front-end for NDJSON request/response
//! protocols, built for `gbtl-serve` but coupled to it only through the
//! [`Engine`] trait. One poller thread drives every connection with
//! non-blocking `std::net` sockets and a minimal in-crate `poll(2)`
//! binding ([`sys`]) — no async runtime, no crates.io dependencies.
//!
//! What the event loop provides (see [`server`] for the mechanics):
//!
//! * **Scalable idle connections** — a connected-but-quiet client costs
//!   one fd and a few hundred bytes of state, not a parked thread.
//! * **Pipelining with in-order responses** — clients may batch requests
//!   without waiting; responses come back in request order per connection
//!   even when the engine completes them out of order.
//! * **Bounded everything** — request lines ([`LineFramer`]), outbound
//!   buffers (write backpressure), and connection lifetimes (idle/
//!   slow-loris timeouts) are all capped, so memory stays flat under
//!   hostile or bursty clients.
//!
//! The compute side implements [`Engine`]; the contract (what crosses the
//! boundary, deadline and drain semantics, diagnostics obligations) is
//! specified in [`engine`]'s module docs and is deliberately front-end
//! agnostic: `gbtl-serve` runs its blocking thread-per-connection
//! listener and this event loop against the *same* engine, both framing
//! through [`LineFramer::requests`], and the responses are bit-identical.

#![cfg(unix)]
#![warn(missing_docs)]

pub mod engine;
pub mod framer;
pub mod server;
pub mod sys;

pub use engine::{Engine, Reply, Submission};
pub use framer::{Frame, LineFramer};
pub use server::{serve, EventedConfig, EventedHandle, NetStats};
pub use sys::raise_nofile_limit;
