//! Render a [`RegistrySnapshot`] as JSON or Prometheus-style text.
//!
//! The two renderers consume the same snapshot, so the `{"op":"metrics"}`
//! response in gbtl-serve can carry both forms of one consistent
//! point-in-time view.

use std::fmt::Write;

use gbtl_util::json::{escape, string_map};

use super::histogram::HistogramSnapshot;
use super::registry::{MetricKey, RegistrySnapshot};

/// Escape a label value for Prometheus text exposition (`\\`, `\"`, `\n`).
fn label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Render `{label="value",...}`; empty string for unlabeled metrics.
/// `extra` appends one more pair (used for the histogram `le` label).
fn label_block(key: &MetricKey, extra: Option<(&str, &str)>) -> String {
    if key.labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut s = String::from("{");
    let mut first = true;
    for (k, v) in &key.labels {
        if !first {
            s.push(',');
        }
        first = false;
        let _ = write!(s, "{k}=\"{}\"", label_escape(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", label_escape(v));
    }
    s.push('}');
    s
}

/// Emit `# TYPE` the first time each metric name appears.
fn type_line(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        last.clear();
        last.push_str(name);
    }
}

/// Render the snapshot as Prometheus-style text exposition: counters and
/// gauges as single samples, histograms as cumulative `*_bucket{le="…"}`
/// series plus `*_sum` and `*_count`.
pub fn render_prometheus(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    let mut last = String::new();
    for (key, value) in &snap.counters {
        type_line(&mut out, &mut last, &key.name, "counter");
        let _ = writeln!(out, "{}{} {value}", key.name, label_block(key, None));
    }
    for (key, value) in &snap.gauges {
        type_line(&mut out, &mut last, &key.name, "gauge");
        let _ = writeln!(out, "{}{} {value}", key.name, label_block(key, None));
    }
    for (key, h) in &snap.histograms {
        type_line(&mut out, &mut last, &key.name, "histogram");
        let mut cumulative = 0u64;
        for (le, n) in h.nonzero_buckets() {
            cumulative += n;
            let _ = writeln!(
                out,
                "{}_bucket{} {cumulative}",
                key.name,
                label_block(key, Some(("le", &le.to_string())))
            );
        }
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            key.name,
            label_block(key, Some(("le", "+Inf"))),
            h.count
        );
        let _ = writeln!(out, "{}_sum{} {}", key.name, label_block(key, None), h.sum);
        let _ = writeln!(
            out,
            "{}_count{} {}",
            key.name,
            label_block(key, None),
            h.count
        );
    }
    out
}

/// Render one histogram snapshot as a JSON object body (no surrounding
/// name/labels — the callers add their own framing).
pub fn histogram_json(h: &HistogramSnapshot) -> String {
    let mut s = format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[",
        h.count,
        h.sum,
        h.max,
        h.mean(),
        h.percentile(50.0),
        h.percentile(95.0),
        h.percentile(99.0)
    );
    for (i, (le, n, exemplar)) in h.nonzero_buckets_with_exemplars().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // exemplar: one representative x-ray trace id that landed in this
        // bucket — fetch it with {"op":"xray","trace_id":N}
        if *exemplar != 0 {
            let _ = write!(s, "{{\"le\":{le},\"count\":{n},\"trace_id\":{exemplar}}}");
        } else {
            let _ = write!(s, "{{\"le\":{le},\"count\":{n}}}");
        }
    }
    s.push_str("]}");
    s
}

/// Render the whole snapshot as one JSON object:
/// `{"counters":[…],"gauges":[…],"histograms":[…]}`. Every array element
/// carries `name` and `labels`; histogram elements embed
/// [`histogram_json`] fields.
pub fn render_json(snap: &RegistrySnapshot) -> String {
    let mut s = String::from("{\"counters\":[");
    for (i, (key, value)) in snap.counters.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
            escape(&key.name),
            string_map(&key.labels)
        );
    }
    s.push_str("],\"gauges\":[");
    for (i, (key, value)) in snap.gauges.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"labels\":{},\"value\":{value}}}",
            escape(&key.name),
            string_map(&key.labels)
        );
    }
    s.push_str("],\"histograms\":[");
    for (i, (key, h)) in snap.histograms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let body = histogram_json(h);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"labels\":{},{}",
            escape(&key.name),
            string_map(&key.labels),
            &body[1..] // splice the histogram fields into this object
        );
    }
    s.push_str("]}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    fn sample() -> RegistrySnapshot {
        let r = Registry::new(true);
        r.counter("gbtl_requests_total", &[("algo", "bfs"), ("cache", "miss")])
            .add(3);
        r.counter("gbtl_requests_total", &[("algo", "cc"), ("cache", "hit")])
            .inc();
        r.gauge("gbtl_queue_depth", &[]).set(2);
        let h = r.histogram("gbtl_request_latency_us", &[("algo", "bfs")]);
        for v in [3u64, 5, 90, 1500] {
            h.observe(v);
        }
        r.snapshot()
    }

    #[test]
    fn prometheus_text_shape() {
        let text = render_prometheus(&sample());
        assert!(text.contains("# TYPE gbtl_requests_total counter"));
        assert!(text.contains("gbtl_requests_total{algo=\"bfs\",cache=\"miss\"} 3"));
        assert!(text.contains("# TYPE gbtl_queue_depth gauge"));
        assert!(text.contains("gbtl_queue_depth 2"));
        assert!(text.contains("# TYPE gbtl_request_latency_us histogram"));
        // cumulative buckets: 3 → le=3, 5 → le=7, 90 → le=127, 1500 → le=2047
        assert!(text.contains("gbtl_request_latency_us_bucket{algo=\"bfs\",le=\"3\"} 1"));
        assert!(text.contains("gbtl_request_latency_us_bucket{algo=\"bfs\",le=\"7\"} 2"));
        assert!(text.contains("gbtl_request_latency_us_bucket{algo=\"bfs\",le=\"127\"} 3"));
        assert!(text.contains("gbtl_request_latency_us_bucket{algo=\"bfs\",le=\"2047\"} 4"));
        assert!(text.contains("gbtl_request_latency_us_bucket{algo=\"bfs\",le=\"+Inf\"} 4"));
        assert!(text.contains("gbtl_request_latency_us_sum{algo=\"bfs\"} 1598"));
        assert!(text.contains("gbtl_request_latency_us_count{algo=\"bfs\"} 4"));
        // one TYPE line per metric name
        assert_eq!(text.matches("# TYPE gbtl_requests_total").count(), 1);
        // every non-comment line is "series value"
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("space-separated sample");
            assert!(!series.is_empty());
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value {value:?}"
            );
        }
    }

    #[test]
    fn json_form_parses_and_matches() {
        let json = render_json(&sample());
        let v = gbtl_util::json::parse(&json).expect("metrics JSON parses");
        let counters = v.get("counters").unwrap().as_arr().unwrap();
        assert_eq!(counters.len(), 2);
        assert_eq!(counters[0].str_field("name"), Some("gbtl_requests_total"));
        assert_eq!(
            counters[0].get("labels").unwrap().str_field("algo"),
            Some("bfs")
        );
        assert_eq!(counters[0].u64_field("value"), Some(3));
        let hists = v.get("histograms").unwrap().as_arr().unwrap();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].u64_field("count"), Some(4));
        assert_eq!(hists[0].u64_field("sum"), Some(1598));
        assert_eq!(hists[0].u64_field("max"), Some(1500));
        assert!(hists[0].u64_field("p50").unwrap() >= 5);
        let buckets = hists[0].get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets.len(), 4);
        assert_eq!(buckets[0].u64_field("le"), Some(3));
        assert_eq!(buckets[0].u64_field("count"), Some(1));
        // untraced observations carry no exemplar field
        assert_eq!(buckets[0].u64_field("trace_id"), None);
    }

    #[test]
    fn json_buckets_carry_exemplar_trace_ids() {
        let r = Registry::new(true);
        let h = r.histogram("gbtl_request_latency_us", &[("algo", "bfs")]);
        h.observe_with_exemplar(90, 7);
        h.observe(1500);
        let json = render_json(&r.snapshot());
        let v = gbtl_util::json::parse(&json).expect("metrics JSON parses");
        let hists = v.get("histograms").unwrap().as_arr().unwrap();
        let buckets = hists[0].get("buckets").unwrap().as_arr().unwrap();
        assert_eq!(buckets[0].u64_field("le"), Some(127));
        assert_eq!(buckets[0].u64_field("trace_id"), Some(7));
        assert_eq!(buckets[1].u64_field("trace_id"), None);
        // exemplars never leak into the Prometheus text form (its line
        // shape is "series value" and stays that way)
        let text = render_prometheus(&r.snapshot());
        assert!(!text.contains("trace_id"));
    }

    #[test]
    fn label_escaping() {
        assert_eq!(label_escape("plain"), "plain");
        assert_eq!(label_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let r = Registry::new(true);
        r.counter("c", &[("k", "v\"w")]).inc();
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("c{k=\"v\\\"w\"} 1"));
    }

    #[test]
    fn empty_snapshot_renders_cleanly() {
        let empty = RegistrySnapshot::default();
        assert_eq!(render_prometheus(&empty), "");
        let v = gbtl_util::json::parse(&render_json(&empty)).unwrap();
        assert_eq!(v.get("counters").unwrap().as_arr().unwrap().len(), 0);
    }
}
