//! The metrics sink: atomic counters, gauges and log₂-bucketed latency
//! histograms behind a labeled [`Registry`], a bounded top-K [`SlowLog`],
//! and one snapshot rendered as JSON and as Prometheus text ([`expose`]).
//!
//! [`HistogramSnapshot`] percentiles are nearest-rank, the definition
//! [`gbtl_util::stats`] gives client-side latency reports, so server and
//! client percentiles are comparable by construction.
//!
//! Counters and gauges are one relaxed atomic op; a histogram `observe` is
//! three relaxed adds and an atomic max — no lock, no allocation. Registry
//! lookups (`counter` / `gauge` / `histogram`) take a mutex and may
//! allocate; hot paths hold the returned `Arc` handles. The per-stage
//! latency histogram is fed by [`crate::emit`] alone ([`Stage`]).

pub mod expose;
mod histogram;
mod registry;
mod slowlog;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricKey, Registry, RegistrySnapshot, Stage};
pub use slowlog::SlowLog;
