#![warn(missing_docs)]

//! Shared dependency-free utilities for GBTL-RS.
//!
//! Small pieces every layer of the workspace needs but none should
//! own:
//!
//! * [`json`] — the minimal JSON reader (plus string escaping for writers).
//!   One implementation backs both the `gbtl-trace` JSON-lines reporter and
//!   the `gbtl-serve` wire protocol; `gbtl-trace` re-exports it as
//!   `gbtl_trace::json` for backward compatibility.
//! * [`env`] — environment-variable parsing with the workspace-wide
//!   contract: an unset knob silently takes its default, a *set but
//!   invalid* knob warns once on stderr and then takes its default
//!   (`GBTL_NUM_THREADS`, `GBTL_TRACE`, the `GBTL_SERVE_*` family).
//! * [`hash`] — byte-wise FNV-1a 64, the one definition behind wire
//!   result checksums, shard ring placement and the loadgen's skew keys.
//! * [`stats`] — the nearest-rank percentile definition shared by the
//!   loadgen latency report and the `gbtl-trace` histogram snapshots, so
//!   client-side and server-side percentiles are comparable by
//!   construction.
//! * [`sync`] — the one poison-tolerant mutex [`sync::lock`].
//! * [`workspace`] — thread-local reusable kernel scratch (dense
//!   accumulators, presence words, flag arrays) shared by all three
//!   backends, with process-wide reuse counters.
//! * [`time`] — the process-wide monotonic nanosecond clock every
//!   span-stamping layer shares ([`time::now_ns`]), so cross-layer trace
//!   intervals are comparable by construction.
//!
//! The crate is std-only, consistent with the offline-shim dependency
//! policy (DESIGN.md).

pub mod env;
pub mod hash;
pub mod json;
pub mod stats;
pub mod sync;
pub mod time;
pub mod workspace;
