//! Reporters: render a [`TraceReport`] as an aligned text table or as
//! JSON lines (one object per op aggregate, span, and backend section).

use std::fmt::Write;

use crate::json::escape as esc;
use crate::{Section, SpanRecord, TraceReport};

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render the per-op aggregate table plus backend sections.
pub fn format_table(report: &TraceReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "trace: backend={} spans={} (retained {}, dropped {})",
        report.backend,
        report.total_spans,
        report.spans.len(),
        report.dropped_spans
    );
    let total = report.total_ns();
    let _ = writeln!(
        s,
        "{:<16} {:>7} {:>10} {:>10} {:>10} {:>12} {:>12} {:>9} {:>7}",
        "op", "calls", "total", "mean", "max", "nnz in", "nnz out", "Mnnz/s", "share"
    );
    for o in &report.ops {
        let _ = writeln!(
            s,
            "{:<16} {:>7} {:>10} {:>10} {:>10} {:>12} {:>12} {:>9.1} {:>6.1}%",
            o.op,
            o.calls,
            fmt_ns(o.total_ns),
            fmt_ns(o.mean_ns()),
            fmt_ns(o.max_ns),
            o.nnz_in,
            o.nnz_out,
            o.mnnz_per_s(),
            if total > 0 {
                o.total_ns as f64 / total as f64 * 100.0
            } else {
                0.0
            }
        );
    }
    for sec in &report.sections {
        let _ = writeln!(s, "-- {}", sec.title);
        for (k, v) in &sec.entries {
            let _ = writeln!(s, "   {k:<28} {v}");
        }
    }
    s
}

fn span_line(r: &SpanRecord) -> String {
    let f = &r.fields;
    let request_part = r
        .request_id
        .map(|id| format!("\"request_id\":{id},"))
        .unwrap_or_default();
    format!(
        "{{\"type\":\"span\",\"seq\":{},\"backend\":\"{}\",{request_part}\"op\":\"{}\",\
         \"label\":\"{}\",\"dims\":\"{}\",\"nnz_in\":{},\"nnz_out\":{},\"masked\":{},\
         \"complemented\":{},\"accum\":{},\"start_ns\":{},\"duration_ns\":{}}}",
        r.seq,
        esc(r.backend),
        esc(f.op),
        esc(&f.op_label),
        esc(&f.dims),
        f.nnz_in,
        f.nnz_out,
        f.masked,
        f.complemented,
        f.accum,
        r.start_ns,
        r.duration_ns
    )
}

fn section_line(backend: &str, sec: &Section) -> String {
    format!(
        "{{\"type\":\"section\",\"backend\":\"{}\",\"title\":\"{}\",\"entries\":{}}}",
        esc(backend),
        esc(&sec.title),
        gbtl_util::json::string_map(&sec.entries)
    )
}

/// Render as JSON lines: one `op_summary` object per aggregate, one `span`
/// object per retained span, one `section` object per backend section.
/// Every line parses with [`crate::json::parse`].
pub fn format_jsonl(report: &TraceReport) -> String {
    let mut s = String::new();
    for o in &report.ops {
        let _ = writeln!(
            s,
            "{{\"type\":\"op_summary\",\"backend\":\"{}\",\"op\":\"{}\",\"calls\":{},\
             \"total_ns\":{},\"mean_ns\":{},\"max_ns\":{},\"nnz_in\":{},\"nnz_out\":{}}}",
            esc(report.backend),
            esc(o.op),
            o.calls,
            o.total_ns,
            o.mean_ns(),
            o.max_ns,
            o.nnz_in,
            o.nnz_out
        );
    }
    for r in &report.spans {
        let _ = writeln!(s, "{}", span_line(r));
    }
    for sec in &report.sections {
        let _ = writeln!(s, "{}", section_line(report.backend, sec));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, Kind, SpanFields, TraceMode, Tracer};

    fn sample_report() -> TraceReport {
        let t = Tracer::with_mode("sequential", TraceMode::Summary);
        for op in ["mxm", "mxm", "vxm"] {
            let s = t.start();
            t.finish(s, || {
                Kind::Op(SpanFields {
                    op,
                    op_label: "PlusTimes<f64>".into(),
                    dims: "8x8*8x8".into(),
                    nnz_in: 12,
                    nnz_out: 20,
                    masked: op == "vxm",
                    complemented: false,
                    accum: false,
                })
            });
        }
        t.report(vec![Section {
            title: "demo section".into(),
            entries: vec![("kernels".into(), "7".into())],
        }])
    }

    #[test]
    fn table_lists_ops_and_sections() {
        let text = format_table(&sample_report());
        assert!(text.contains("backend=sequential"));
        assert!(text.contains("mxm"));
        assert!(text.contains("vxm"));
        assert!(text.contains("demo section"));
        assert!(text.contains("kernels"));
        assert!(text.contains('%'));
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let out = format_jsonl(&sample_report());
        let lines: Vec<&str> = out.lines().collect();
        // 2 aggregates + 3 spans + 1 section
        assert_eq!(lines.len(), 6);
        let mut spans = 0;
        for line in lines {
            let v = json::parse(line).expect("line parses");
            let ty = v.get("type").and_then(|t| t.as_str()).unwrap();
            match ty {
                "span" => {
                    spans += 1;
                    assert_eq!(v.get("backend").unwrap().as_str(), Some("sequential"));
                    assert!(v.get("duration_ns").unwrap().as_f64().is_some());
                    assert!(v.get("masked").unwrap().as_bool().is_some());
                }
                "op_summary" => {
                    assert!(v.get("calls").unwrap().as_f64().unwrap() >= 1.0);
                }
                "section" => {
                    let entries = v.get("entries").unwrap();
                    assert_eq!(entries.get("kernels").and_then(|e| e.as_str()), Some("7"));
                }
                other => panic!("unexpected line type {other}"),
            }
        }
        assert_eq!(spans, 3);
    }

    #[test]
    fn jsonl_stamps_request_id_on_stamped_spans() {
        let t = Tracer::with_mode("sequential", TraceMode::Summary);
        let emit = |rid: Option<u64>, op: &'static str| {
            t.set_request(rid, None);
            let s = t.start();
            t.finish(s, || {
                Kind::Op(SpanFields {
                    op,
                    op_label: String::new(),
                    dims: "4x4".into(),
                    nnz_in: 1,
                    nnz_out: 1,
                    masked: false,
                    complemented: false,
                    accum: false,
                })
            });
        };
        emit(None, "build");
        emit(Some(7), "mxv");
        emit(Some(7), "apply_vec");
        emit(Some(9), "mxv");
        emit(Some(7), "reduce_vec"); // request 7 resumes on the same context
        let out = format_jsonl(&t.report(Vec::new()));
        let mut stamped = 0;
        for line in out.lines() {
            let v = json::parse(line).unwrap();
            if v.get("type").and_then(|t| t.as_str()) == Some("span") {
                if let Some(id) = v.get("request_id").and_then(|r| r.as_f64()) {
                    stamped += 1;
                    assert!(id == 7.0 || id == 9.0);
                }
            }
        }
        assert_eq!(stamped, 4);
    }

    #[test]
    fn escaping_survives_round_trip() {
        let t = Tracer::with_mode("q\"b\\c", TraceMode::Summary);
        let s = t.start();
        t.finish(s, || {
            Kind::Op(SpanFields {
                op: "mxm",
                op_label: "weird \"label\"\nnewline".into(),
                dims: "1x1".into(),
                nnz_in: 0,
                nnz_out: 0,
                masked: false,
                complemented: false,
                accum: false,
            })
        });
        let out = format_jsonl(&t.report(Vec::new()));
        for line in out.lines() {
            let v = json::parse(line).expect("escaped line parses");
            if v.get("type").and_then(|t| t.as_str()) == Some("span") {
                assert_eq!(
                    v.get("label").and_then(|l| l.as_str()),
                    Some("weird \"label\"\nnewline")
                );
            }
        }
    }
}
