//! The span-tree sink end to end (`gbtl_trace::tree`): causal tracing.
//!
//! A query marked `"xray":true` must come back with a trace id whose
//! stored span tree roots at the front-end's `net.connection` span and
//! nests one child interval per layer it actually crossed — fusion window,
//! pool queue/execute/serialize, kernel ops — with the structural
//! invariants the store enforces re-checked here from the *wire* side. A
//! scatter-gather `query_all` must fan out one `router.scatter` child per
//! shard; concurrent fused members must each see a `fuse.batch` span
//! linking every sampled member. And the whole apparatus must be inert:
//! a differential proptest pins traced and untraced `result` payloads
//! byte-identical across all three backends and both front-end modes.

use std::collections::HashMap;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

use gbtl::util::json::{parse, Value};
use gbtl_serve::{start, Client, FrontendMode, ServerConfig, ServerHandle};
use gbtl_shard::{start_sharded, ShardConfig};
use proptest::prelude::*;

fn test_config(mode: FrontendMode, fuse_on: bool) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(), // ephemeral port
        mode,
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
        default_deadline_ms: 30_000,
        par_threads: 2,
        preload: vec![("karate".into(), "karate".into())],
        ..ServerConfig::default()
    };
    config.fuse.enabled = fuse_on;
    // wide enough that a barrier-released pair always lands in one window
    config.fuse.window = Duration::from_millis(150);
    config.fuse.max_batch = 64;
    config
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect to test server")
}

/// Fetch a completed trace over the wire and return the parsed response.
fn fetch_trace(client: &mut Client, trace_id: u64) -> Value {
    client
        .request_json(&format!("{{\"op\":\"xray\",\"trace_id\":{trace_id}}}"))
        .expect("xray fetch")
}

fn spans_of(xray_response: &Value) -> &[Value] {
    xray_response
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(|s| s.as_arr())
        .expect("trace.spans array")
}

fn names_of(spans: &[Value]) -> Vec<&str> {
    spans.iter().filter_map(|s| s.str_field("name")).collect()
}

fn attr<'a>(span: &'a Value, key: &str) -> Option<&'a str> {
    span.get("attrs").and_then(|a| a.str_field(key))
}

/// Re-check the store's structural invariants from the client side: one
/// root named `net.connection`, unique non-zero span ids, every parent
/// resolving to an earlier-or-later sibling in the same tree, every child
/// interval nested inside its parent's, spans sorted by start time.
fn assert_well_formed_tree(spans: &[Value]) {
    assert!(!spans.is_empty(), "trace must have spans");
    let ids: Vec<u64> = spans
        .iter()
        .map(|s| s.u64_field("span_id").expect("span_id"))
        .collect();
    let mut unique = ids.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), ids.len(), "span ids must be unique");
    assert!(ids.iter().all(|&i| i != 0), "span ids are non-zero");

    let roots: Vec<&Value> = spans
        .iter()
        .filter(|s| s.u64_field("parent") == Some(0))
        .collect();
    assert_eq!(roots.len(), 1, "exactly one root span");
    assert_eq!(roots[0].str_field("name"), Some("net.connection"));

    let interval = |s: &Value| {
        (
            s.u64_field("start_ns").expect("start_ns"),
            s.u64_field("end_ns").expect("end_ns"),
        )
    };
    let mut prev_start = 0;
    for s in spans {
        let (start, end) = interval(s);
        assert!(start <= end, "span interval is ordered");
        assert!(start >= prev_start, "spans sorted by start time");
        prev_start = start;
        let parent = s.u64_field("parent").unwrap();
        if parent != 0 {
            let p = spans
                .iter()
                .find(|c| c.u64_field("span_id") == Some(parent))
                .unwrap_or_else(|| panic!("parent {parent} resolves"));
            let (ps, pe) = interval(p);
            assert!(
                start >= ps && end <= pe,
                "child [{start},{end}] nests in parent [{ps},{pe}] ({:?} in {:?})",
                s.str_field("name"),
                p.str_field("name")
            );
        }
    }
}

/// A stage's span and its histogram sample are the same two stamps: the
/// slow-log entry of a sampled, executed query repeats the durations of its
/// `pool.queue`, `pool.execute` (`fuse.batch` for a batch member) and
/// `pool.serialize` spans to the microsecond.
fn assert_slow_log_repeats_the_spans(client: &mut Client, trace_id: u64, spans: &[Value]) {
    let metrics = client.request_json("{\"op\":\"metrics\"}").unwrap();
    let slow = metrics
        .get("metrics")
        .and_then(|m| m.get("slow_queries"))
        .and_then(|s| s.as_arr())
        .expect("slow_queries array");
    let entry = slow
        .iter()
        .find(|e| e.u64_field("trace_id") == Some(trace_id))
        .expect("a sampled query that executed is in the slow log");
    let span_us = |names: &[&str]| {
        let span = spans
            .iter()
            .find(|s| names.contains(&s.str_field("name").unwrap()))
            .unwrap_or_else(|| panic!("a {names:?} span"));
        (span.u64_field("end_ns").unwrap() - span.u64_field("start_ns").unwrap()) / 1_000
    };
    for (field, names) in [
        ("queue_us", &["pool.queue"][..]),
        ("execute_us", &["pool.execute", "fuse.batch"]),
        ("serialize_us", &["pool.serialize"]),
    ] {
        assert_eq!(entry.u64_field(field), Some(span_us(names)), "{field}");
    }
}

/// The raw `{...}` bytes of the response's `result` field (the last field
/// of a query response, traced or not — the x-ray trace id rides *before*
/// it, so byte-comparing this fragment is the bit-identity check).
fn result_fragment(raw: &str) -> &str {
    let raw = raw.trim_end();
    let (_, rest) = raw.split_once("\"result\":").expect("result field");
    &rest[..rest.len() - 1]
}

/// One traced query through an evented, fusion-on server produces the full
/// causal tree — front-end root, fusion window, queue wait, execute with
/// kernel op spans nested inside, serialize — and a parallel Chrome export
/// with one complete event per span.
#[test]
fn evented_fused_query_yields_full_causal_tree() {
    let handle = start(test_config(FrontendMode::Evented, true)).unwrap();
    let mut c = connect(&handle);

    let v = c
        .request_json(
            "{\"op\":\"query\",\"id\":1,\"graph\":\"karate\",\"algo\":\"bfs\",\
             \"backend\":\"par\",\"source\":0,\"xray\":true}",
        )
        .unwrap();
    assert_eq!(v.bool_field("ok"), Some(true));
    let trace_id = v
        .u64_field("trace_id")
        .expect("traced response carries its trace id");
    assert_ne!(trace_id, 0);

    let fetched = fetch_trace(&mut c, trace_id);
    assert_eq!(fetched.bool_field("ok"), Some(true));
    let spans = spans_of(&fetched);
    assert_well_formed_tree(spans);

    // a lone request releases from the window as a batch of one, which
    // executes on the solo path — pool spans, no fuse spans (the fused
    // pair below exercises those); its window wait is inside pool.queue
    let names = names_of(spans);
    for expected in ["pool.queue", "pool.execute", "pool.serialize"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    assert!(
        names.iter().any(|n| n.starts_with("op.")),
        "kernel op spans must nest under the execute span: {names:?}"
    );
    assert_slow_log_repeats_the_spans(&mut c, trace_id, spans);
    let root = &spans[0];
    assert_eq!(attr(root, "frontend"), Some("evented"));
    assert!(
        fetched
            .get("trace")
            .and_then(|t| t.u64_field("depth"))
            .unwrap_or(0)
            >= 3,
        "kernel ops sit at least three levels below the root"
    );

    // the Chrome export carries one complete event per span
    let chrome = fetched
        .get("chrome")
        .and_then(|c| c.as_arr())
        .expect("chrome trace-event array");
    assert_eq!(chrome.len(), spans.len());
    for event in chrome {
        assert_eq!(event.str_field("ph"), Some("X"));
        assert!(event.str_field("name").is_some());
        assert!(event.f64_field("ts").is_some() && event.f64_field("dur").is_some());
        assert_eq!(
            event.get("args").and_then(|a| a.u64_field("trace_id")),
            Some(trace_id)
        );
    }

    handle.shutdown_and_join();
}

/// A traced `query_all` against a two-shard router fans out exactly one
/// `router.scatter` child per shard, each with the owning shard's
/// `router.forward` (and the pool spans below it) nested inside.
#[test]
fn scatter_fans_out_one_span_per_shard() {
    let mut pins = HashMap::new();
    pins.insert("g0".to_string(), 0);
    pins.insert("g1".to_string(), 1);
    let mut base = test_config(FrontendMode::Evented, false);
    base.preload = vec![
        ("g0".into(), "rmat:6:4:0".into()),
        ("g1".into(), "rmat:6:4:1".into()),
    ];
    let handle = start_sharded(ShardConfig {
        shards: 2,
        pins,
        base,
    })
    .unwrap();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();

    let merged = c
        .request_json("{\"op\":\"query_all\",\"id\":7,\"algo\":\"bfs\",\"source\":0,\"xray\":true}")
        .unwrap();
    assert_eq!(merged.bool_field("ok"), Some(true));
    assert_eq!(merged.u64_field("answered"), Some(2));
    // every sub-response carries the same trace id: one trace spans the fan-out
    let results = merged.get("results").and_then(|r| r.as_arr()).unwrap();
    let sub_ids: Vec<u64> = results
        .iter()
        .map(|r| {
            r.get("response")
                .and_then(|v| v.u64_field("trace_id"))
                .expect("sub-response trace id")
        })
        .collect();
    assert_eq!(sub_ids.len(), 2);
    assert_eq!(sub_ids[0], sub_ids[1]);
    let trace_id = sub_ids[0];

    let fetched = fetch_trace(&mut c, trace_id);
    assert_eq!(fetched.bool_field("ok"), Some(true));
    let spans = spans_of(&fetched);
    assert_well_formed_tree(spans);

    let scatters: Vec<&Value> = spans
        .iter()
        .filter(|s| s.str_field("name") == Some("router.scatter"))
        .collect();
    assert_eq!(scatters.len(), 2, "one fan-out span per shard");
    let mut shards: Vec<&str> = scatters.iter().map(|s| attr(s, "shard").unwrap()).collect();
    shards.sort_unstable();
    assert_eq!(shards, ["0", "1"]);
    // each fan-out branch contains the owning shard's forward span
    for scatter in &scatters {
        let sid = scatter.u64_field("span_id").unwrap();
        assert!(
            spans.iter().any(|s| {
                s.str_field("name") == Some("router.forward") && s.u64_field("parent") == Some(sid)
            }),
            "router.forward nests under each router.scatter"
        );
    }

    handle.shutdown_and_join();
}

/// Two sampled queries coalesced into one fusion batch each get their own
/// `fuse.batch` span, and those spans cross-link every sampled member of
/// the batch — the causal record that *these* requests shared a kernel.
#[test]
fn fused_batch_spans_link_every_sampled_member() {
    let handle = start(test_config(FrontendMode::Threaded, true)).unwrap();
    let addr = handle.addr().to_string();

    let barrier = Arc::new(Barrier::new(2));
    let mut joins = Vec::new();
    for source in 0..2u64 {
        let addr = addr.clone();
        let barrier = barrier.clone();
        joins.push(std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            let line = format!(
                "{{\"op\":\"query\",\"id\":{source},\"graph\":\"karate\",\"algo\":\"bfs\",\
                 \"backend\":\"par\",\"source\":{source},\"xray\":true}}"
            );
            barrier.wait();
            c.request_json(&line).unwrap()
        }));
    }
    let responses: Vec<Value> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    let trace_ids: Vec<u64> = responses
        .iter()
        .map(|v| {
            assert_eq!(v.bool_field("ok"), Some(true));
            v.u64_field("trace_id").expect("traced")
        })
        .collect();
    assert_ne!(
        trace_ids[0], trace_ids[1],
        "distinct requests, distinct traces"
    );

    let mut c = Client::connect(&addr).unwrap();
    let mut op_span_trees = 0;
    for &trace_id in &trace_ids {
        let fetched = fetch_trace(&mut c, trace_id);
        assert_eq!(fetched.bool_field("ok"), Some(true));
        let spans = spans_of(&fetched);
        assert_well_formed_tree(spans);
        let batch = spans
            .iter()
            .find(|s| s.str_field("name") == Some("fuse.batch"))
            .expect("every sampled member records a fuse.batch span");
        assert_eq!(attr(batch, "batch_size"), Some("2"), "the pair fused");
        assert_slow_log_repeats_the_spans(&mut c, trace_id, spans);
        let members = attr(batch, "members").unwrap();
        for &other in &trace_ids {
            assert!(
                members.split(',').any(|m| m == other.to_string()),
                "members {members:?} must list trace {other}"
            );
        }
        if names_of(spans).iter().any(|n| n.starts_with("op.")) {
            op_span_trees += 1;
        }
    }
    // the shared kernel's op spans attach to exactly one member's tree
    // (the first sampled one), not duplicated into every member
    assert_eq!(op_span_trees, 1);

    handle.shutdown_and_join();
}

/// Differential servers for the proptest below, started once and shared:
/// both front-end modes, result cache off so traced and untraced requests
/// each execute for real.
fn diff_servers() -> &'static Vec<(FrontendMode, ServerHandle)> {
    static SERVERS: OnceLock<Vec<(FrontendMode, ServerHandle)>> = OnceLock::new();
    SERVERS.get_or_init(|| {
        [FrontendMode::Threaded, FrontendMode::Evented]
            .into_iter()
            .map(|mode| {
                let mut config = test_config(mode, false);
                config.cache_capacity = 0;
                (mode, start(config).unwrap())
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing is inert: the same query traced and untraced returns
    /// byte-identical `result` payloads, on every backend, through both
    /// front-end modes. (The traced response differs only by its
    /// `trace_id` field, which rides outside `result`.)
    #[test]
    fn traced_and_untraced_results_are_byte_identical(
        algo_idx in 0usize..gbtl_serve::protocol::Algo::ALL.len(),
        backend_idx in 0usize..3,
        source in 0u64..34,
    ) {
        let algo = gbtl_serve::protocol::Algo::ALL[algo_idx].as_str();
        let backend = ["seq", "par", "cuda"][backend_idx];
        for (mode, handle) in diff_servers() {
            let mut c = connect(handle);
            let plain = c.request(&format!(
                "{{\"op\":\"query\",\"id\":1,\"graph\":\"karate\",\"algo\":\"{algo}\",\
                 \"backend\":\"{backend}\",\"source\":{source}}}"
            )).unwrap();
            let traced = c.request(&format!(
                "{{\"op\":\"query\",\"id\":1,\"graph\":\"karate\",\"algo\":\"{algo}\",\
                 \"backend\":\"{backend}\",\"source\":{source},\"xray\":true}}"
            )).unwrap();
            let pv = parse(&plain).unwrap();
            let tv = parse(&traced).unwrap();
            prop_assert_eq!(pv.bool_field("ok"), Some(true), "{}", &plain);
            prop_assert_eq!(tv.bool_field("ok"), Some(true), "{}", &traced);
            prop_assert!(pv.u64_field("trace_id").is_none(),
                "untraced response must not carry a trace id: {}", &plain);
            prop_assert!(tv.u64_field("trace_id").is_some(),
                "traced response must carry a trace id: {}", &traced);
            prop_assert_eq!(
                result_fragment(&plain),
                result_fragment(&traced),
                "mode {:?} algo {} backend {} source {}",
                mode, algo, backend, source
            );
        }
    }
}
