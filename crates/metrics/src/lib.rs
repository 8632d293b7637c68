//! Temporary re-export shim: the metrics registry lives in
//! [`gbtl_trace::metrics`] now. `perfbench/` still names `gbtl_metrics`,
//! and only a `benchmark` PR may edit it; that PR repoints it and deletes
//! this crate.

pub use gbtl_trace::metrics::*;
