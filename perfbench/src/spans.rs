//! Harness-side tracing: a span around every call the harness makes into
//! the stack, kept in memory and written out as Chrome trace-event JSON
//! when the run ends. Spans are recorded from the benchmark's own files,
//! from outside the program; spans inside the crates are a later change.
//!
//! Timestamps come from `gbtl_util::time::now_ns`, the clock gbtl-xray
//! stamps with, so a harness trace and an x-ray trace of the same process
//! share one timeline.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gbtl_util::time::now_ns;

/// One recorded span. `parent` indexes the same span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called (a static label such as `alg.bfs` or `request`).
    pub name: &'static str,
    /// Start, ns on the shared process clock.
    pub start_ns: u64,
    /// End, ns on the shared process clock.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Request / operation id shared by the spans of one request.
    pub req: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Recorder::enter`]; `None` while recording is off.
pub type SpanId = Option<u32>;

/// The run's span recorder (requests a second generator thread sends are
/// recorded after its join, from their send and receive stamps). Disabled
/// — the end-to-end runs — it costs one branch per call and reads no clock.
#[derive(Debug, Default)]
pub struct Recorder {
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A disabled recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Turn recording on or off (between rounds, never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `enter` returned (spans close innermost-first).
    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        }
    }

    /// Record an already-finished interval under the innermost open span —
    /// how pipelined requests, which overlap one another, are recorded.
    #[inline]
    pub fn record(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().copied(),
                req,
            });
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children may overlap one another — the
/// pipelined requests of one round do — so the covered part is the union
/// of the child intervals, clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, timestamps in µs.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut s = String::from("[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "\n{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":1,\"args\":{{\"span\":{i},\"parent\":{parent},\"req\":{}}}}}",
            sp.name,
            sp.start_ns as f64 / 1e3,
            sp.duration_ns() as f64 / 1e3,
            sp.req
        );
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("request", 10, 40, Some(0)),
            span("request", 30, 60, Some(0)),  // overlaps the first
            span("request", 80, 120, Some(0)), // sticks out past the parent
            span("parse", 12, 20, Some(1)),
        ];
        let st = self_times(&spans);
        // children cover [10,60) and [80,100): 70 of the round's 100
        assert_eq!(st[0], 30);
        assert_eq!(st[1], 30 - 8);
        assert_eq!(st[2], 30);
        assert_eq!(st[3], 40);
        assert_eq!(st[4], 8);
        let by = self_time_by_name(&spans);
        assert_eq!(by["request"], 22 + 30 + 40);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_enabled_nests() {
        let mut r = Recorder::new();
        let id = r.enter("round", 1);
        assert_eq!(id, None);
        r.exit(id);
        assert!(r.spans().is_empty());

        r.set_enabled(true);
        let round = r.enter("round", 1);
        let call = r.enter("alg.bfs", 2);
        r.exit(call);
        r.record("request", 9, 5, 6);
        r.exit(round);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }

    #[test]
    fn chrome_export_parses() {
        let mut r = Recorder::new();
        r.set_enabled(true);
        let y = r.enter("round", 0);
        let z = r.enter("request", 7);
        r.exit(z);
        r.exit(y);
        let doc = gbtl_util::json::parse(&chrome_json(r.spans())).expect("valid JSON");
        let events = doc.as_arr().expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].str_field("ph"), Some("X"));
        assert_eq!(
            events[1].get("args").and_then(|a| a.u64_field("req")),
            Some(7)
        );
    }
}
