//! Chrome trace-event export.
//!
//! Renders a completed [`Trace`] as the Trace Event Format's JSON array
//! flavor — loadable in `chrome://tracing` and [Perfetto]. Every span
//! becomes one complete event (`"ph":"X"`) on a single pid/tid; the viewers
//! stack same-thread events by interval containment, so the nesting the
//! store validates ([`Trace::validate`]) renders as the flame graph.
//! Timestamps are microseconds with fractional precision, offset from the
//! trace root so timelines start near zero.
//!
//! [Perfetto]: https://ui.perfetto.dev

use std::fmt::Write as _;

use gbtl_util::json::escape;

use crate::tree::Trace;

/// Microseconds with three decimals (Trace Event Format `ts`/`dur` unit).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render `trace` as a Chrome trace-event JSON array. Span names become
/// event names, the layer prefix (`net`, `router`, `fuse`, `pool`, `op`)
/// becomes the category, and span/parent ids plus attrs land in `args` so
/// the causal structure survives the export.
pub fn trace_to_chrome(trace: &Trace) -> String {
    let origin = trace.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let mut out = String::from("[");
    for (i, span) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let cat = span.name.split('.').next().unwrap_or("gbtl");
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1,\"args\":{{\"trace_id\":{},\"span_id\":{},\"parent\":{}",
            escape(&span.name),
            escape(cat),
            us(span.start_ns - origin),
            us(span.duration_ns()),
            span.trace_id,
            span.span_id,
            span.parent
        );
        for (k, v) in &span.attrs {
            let _ = write!(out, ",\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::Span;

    fn span(id: u64, parent: u64, start: u64, end: u64, name: &str) -> Span {
        Span {
            trace_id: 3,
            span_id: id,
            parent,
            name: name.into(),
            start_ns: start,
            end_ns: end,
            attrs: if parent == 0 {
                vec![("frontend".into(), "evented".into())]
            } else {
                vec![]
            },
        }
    }

    #[test]
    fn export_is_valid_json_with_complete_events() {
        let trace = Trace {
            trace_id: 3,
            spans: vec![
                span(1, 0, 1_000_500, 9_000_500, "net.connection"),
                span(2, 1, 2_000_500, 8_000_000, "pool.execute"),
                span(3, 2, 2_500_000, 3_500_000, "op.mxv"),
            ],
        };
        let json = trace_to_chrome(&trace);
        let v = gbtl_util::json::parse(&json).expect("chrome export parses");
        let events = v.as_arr().expect("top level is an array");
        assert_eq!(events.len(), 3);
        for ev in events {
            assert_eq!(ev.str_field("ph"), Some("X"));
            assert_eq!(ev.u64_field("pid"), Some(1));
            assert!(ev.f64_field("ts").is_some());
            assert!(ev.f64_field("dur").is_some());
        }
        // root starts at the timeline origin; categories come from the
        // layer prefix
        assert_eq!(events[0].f64_field("ts"), Some(0.0));
        assert_eq!(events[0].str_field("cat"), Some("net"));
        assert_eq!(events[2].str_field("cat"), Some("op"));
        assert_eq!(
            events[0].get("args").unwrap().str_field("frontend"),
            Some("evented")
        );
        assert_eq!(events[1].get("args").unwrap().u64_field("parent"), Some(1));
        // µs conversion keeps sub-microsecond precision
        assert_eq!(events[1].f64_field("dur"), Some(5999.5));
    }

    #[test]
    fn empty_trace_exports_an_empty_array() {
        let trace = Trace {
            trace_id: 1,
            spans: vec![],
        };
        assert_eq!(trace_to_chrome(&trace), "[]");
    }
}
