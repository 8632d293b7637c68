//! Temporary re-export shim: the span-tree store lives in
//! [`gbtl_trace::tree`] now. `perfbench/` still names `gbtl_xray`, and only
//! a `benchmark` PR may edit it; that PR repoints it and deletes this crate.

pub use gbtl_trace::chrome;
pub use gbtl_trace::tree::{
    begin_request, finish_request, store, Span, Trace, TraceContext, TraceSummary, XrayStore,
};
