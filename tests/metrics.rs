//! The metrics sink through gbtl-serve: request histograms whose counts
//! match the requests actually served (in both the JSON and Prometheus
//! expositions), request ids stamped onto backend trace spans, the
//! stats endpoint's cumulative/point-in-time contract, per-query series
//! that exist exactly for the (algo, backend, cache) triples served, and
//! the slow-query log's top-K retention with stage breakdowns.

use gbtl_serve::{start, Client, ServerConfig, ServerHandle};

use gbtl::metrics::SlowLog;
use gbtl::util::json::Value;

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 64,
        default_deadline_ms: 30_000,
        par_threads: 2,
        preload: vec![("karate".into(), "karate".into())],
        ..ServerConfig::default()
    }
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr().to_string()).expect("connect to test server")
}

fn query(client: &mut Client, body: &str) -> Value {
    client
        .request_json(&format!("{{\"op\":\"query\",{body}}}"))
        .expect("query round-trip")
}

fn metrics(client: &mut Client) -> Value {
    client
        .request_json("{\"op\":\"metrics\"}")
        .expect("metrics round-trip")
}

/// Sum a named metric over every label set in the JSON registry section.
fn sum_over_labels(metrics_response: &Value, section: &str, name: &str, field: &str) -> u64 {
    metrics_response
        .get("metrics")
        .and_then(|m| m.get("registry"))
        .and_then(|r| r.get(section))
        .and_then(|s| s.as_arr())
        .expect("registry section")
        .iter()
        .filter(|e| e.str_field("name") == Some(name))
        .map(|e| e.u64_field(field).unwrap_or(0))
        .sum()
}

/// The `(algo, backend, cache[, stage])` label values of every series
/// named `name` in a registry section, with each series' count.
fn series(m: &Value, section: &str, name: &str, field: &str) -> Vec<(String, u64)> {
    let entries = m
        .get("metrics")
        .and_then(|m| m.get("registry"))
        .and_then(|r| r.get(section))
        .and_then(|s| s.as_arr())
        .expect("registry section");
    let mut found: Vec<(String, u64)> = entries
        .iter()
        .filter(|e| e.str_field("name") == Some(name))
        .map(|e| {
            let labels = e.get("labels").expect("labels");
            let label = |k| labels.str_field(k).unwrap_or("");
            let mut triple = format!("{}/{}/{}", label("algo"), label("backend"), label("cache"));
            if let Some(stage) = labels.str_field("stage") {
                triple = format!("{triple}/{stage}");
            }
            (triple, e.u64_field(field).unwrap_or(0))
        })
        .collect();
    found.sort();
    found
}

#[test]
fn request_histogram_counts_match_requests_served_in_both_expositions() {
    let mut config = test_config();
    config.fuse.enabled = false;
    let handle = start(config).unwrap();
    let mut c = connect(&handle);

    // five distinct (algo, backend) queries — all misses, covering two
    // algos x two backends — then two repeats, served from the cache
    let misses = ["bfs/cuda", "bfs/seq", "cc/cuda", "cc/par", "cc/seq"];
    let hits = ["bfs/seq", "cc/cuda"];
    for pair in misses.iter().chain(&hits) {
        let (algo, backend) = pair.split_once('/').unwrap();
        let v = query(
            &mut c,
            &format!("\"graph\":\"karate\",\"algo\":\"{algo}\",\"backend\":\"{backend}\""),
        );
        assert_eq!(v.bool_field("ok"), Some(true), "{pair}");
        assert!(
            v.u64_field("request_id").unwrap_or(0) > 0,
            "request ids start at 1"
        );
    }
    let served = (misses.len() + hits.len()) as u64;
    // a sleep feeds its execute stage only, no request series
    let slept = c.request_json("{\"op\":\"sleep\",\"ms\":1}").unwrap();
    assert_eq!(slept.bool_field("ok"), Some(true));

    let m = metrics(&mut c);
    assert_eq!(m.bool_field("ok"), Some(true));
    let inner = m.get("metrics").expect("metrics object");
    assert_eq!(inner.bool_field("enabled"), Some(true));

    // the all-labels aggregate counts exactly the queries served
    let overall = inner.get("overall").expect("overall histogram");
    assert_eq!(overall.u64_field("count"), Some(served));
    assert!(overall.u64_field("max").unwrap() >= overall.u64_field("p50").unwrap());

    // JSON exposition: one request series per (algo, backend, cache)
    // triple served, none for a triple never asked, summing to the same
    let triples = |pairs: &[&str], cache: &str, suffix: &str| -> Vec<(String, u64)> {
        pairs
            .iter()
            .map(|p| (format!("{p}/{cache}{suffix}"), 1))
            .collect()
    };
    let mut used = triples(&hits, "hit", "");
    used.extend(triples(&misses, "miss", ""));
    used.sort();
    let requests = series(&m, "counters", "gbtl_requests_total", "value");
    assert_eq!(requests, used);
    assert_eq!(requests.iter().map(|(_, n)| n).sum::<u64>(), served);
    assert_eq!(
        series(&m, "histograms", "gbtl_request_latency_us", "count"),
        used
    );
    assert_eq!(
        sum_over_labels(&m, "histograms", "gbtl_request_latency_us", "count"),
        served
    );

    // a hit times its serialize stage only; a miss its queue, execute and
    // serialize (no window: fusion is off); the sleep its execute
    let mut stages = triples(&hits, "hit", "/serialize");
    for stage in ["execute", "queue", "serialize"] {
        stages.extend(triples(&misses, "miss", &format!("/{stage}")));
    }
    stages.push(("sleep/none/miss/execute".to_string(), 1));
    stages.sort();
    assert_eq!(
        series(&m, "histograms", "gbtl_stage_latency_us", "count"),
        stages
    );

    // Prometheus exposition: the same request series, and the _count
    // samples of the latency histogram also sum to the queries served
    let text = m.str_field("exposition").expect("exposition text");
    assert!(text.contains("# TYPE gbtl_request_latency_us histogram"));
    assert!(text.contains("le=\"+Inf\""));
    let request_lines = text
        .lines()
        .filter(|l| l.starts_with("gbtl_requests_total{"))
        .count();
    assert_eq!(request_lines, used.len());
    let prom_count: u64 = text
        .lines()
        .filter(|l| l.starts_with("gbtl_request_latency_us_count{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|n| n.parse::<u64>().ok())
                .expect("count sample value")
        })
        .sum();
    assert_eq!(prom_count, served);

    handle.shutdown_and_join();
}

#[test]
fn json_traces_carry_the_request_id_end_to_end() {
    let handle = start(test_config()).unwrap();
    let mut c = connect(&handle);

    let v = query(
        &mut c,
        "\"graph\":\"karate\",\"algo\":\"bfs\",\"backend\":\"seq\",\"trace\":true",
    );
    assert_eq!(v.bool_field("ok"), Some(true));
    assert_eq!(v.bool_field("cached"), Some(false));
    let request_id = v.u64_field("request_id").expect("request id in response");
    let spans = v
        .get("trace")
        .and_then(|t| t.as_arr())
        .expect("trace spans");
    assert!(!spans.is_empty());
    for sp in spans {
        assert_eq!(
            sp.u64_field("request_id"),
            Some(request_id),
            "every span the query dispatched is stamped with its request id"
        );
    }

    // a second traced query gets a different (larger) id
    let v2 = query(
        &mut c,
        "\"graph\":\"karate\",\"algo\":\"cc\",\"backend\":\"seq\",\"trace\":true",
    );
    assert!(v2.u64_field("request_id").unwrap() > request_id);

    // a traced query answered from the result cache dispatched no op, so
    // its trace is present and empty — whether the cached run was traced
    // or not
    let untraced = "\"graph\":\"karate\",\"algo\":\"pagerank\",\"backend\":\"seq\"";
    assert_eq!(query(&mut c, untraced).bool_field("cached"), Some(false));
    let hit = query(&mut c, &format!("{untraced},\"trace\":true"));
    assert_eq!(hit.bool_field("cached"), Some(true));
    let spans = hit.get("trace").and_then(|t| t.as_arr());
    assert_eq!(spans.map(|s| s.len()), Some(0), "traced hit: {hit:?}");

    handle.shutdown_and_join();
}

#[test]
fn stats_counts_cache_hits_as_completed_and_keeps_rates_cumulative() {
    let handle = start(test_config()).unwrap();
    let mut c = connect(&handle);

    let ping = c.request_json("{\"op\":\"ping\"}").unwrap();
    assert_eq!(ping.bool_field("ok"), Some(true));
    let q = "\"graph\":\"karate\",\"algo\":\"triangle_count\",\"backend\":\"par\"";
    assert_eq!(query(&mut c, q).bool_field("cached"), Some(false));
    assert_eq!(query(&mut c, q).bool_field("cached"), Some(true));

    let v = c.request_json("{\"op\":\"stats\"}").unwrap();
    let stats = v.get("stats").expect("stats object");
    let requests = stats.get("requests").expect("requests block");
    // ping + miss + hit all completed; the stats request itself is counted
    // after its response is rendered, so it is not in this snapshot
    assert_eq!(requests.u64_field("received"), Some(4));
    assert_eq!(requests.u64_field("completed"), Some(3));

    let cache = stats.get("cache").expect("cache block");
    assert_eq!(cache.u64_field("hits"), Some(1));
    assert_eq!(cache.u64_field("misses"), Some(1));
    // lifetime ratio, not derived from current occupancy
    assert!((cache.f64_field("hit_rate").unwrap() - 0.5).abs() < 1e-9);
    assert_eq!(
        cache.u64_field("entries"),
        Some(1),
        "point-in-time occupancy"
    );

    // per-algo execute aggregates come from the same registry histograms
    let algos = stats.get("algos").and_then(|a| a.as_arr()).expect("algos");
    let tc = algos
        .iter()
        .find(|a| a.str_field("algo") == Some("triangle_count"))
        .expect("triangle_count aggregate");
    assert_eq!(tc.u64_field("count"), Some(1), "only the miss executed");
    assert!(tc.u64_field("max_us").unwrap() >= tc.u64_field("mean_us").unwrap());

    handle.shutdown_and_join();
}

#[test]
fn slow_query_log_reports_stage_breakdowns_over_the_wire() {
    let mut config = test_config();
    config.cache_capacity = 0; // every query executes and is offered
    let handle = start(config).unwrap();
    let mut c = connect(&handle);

    for algo in ["bfs", "cc", "pagerank"] {
        let v = query(
            &mut c,
            &format!("\"graph\":\"karate\",\"algo\":\"{algo}\",\"backend\":\"seq\""),
        );
        assert_eq!(v.bool_field("ok"), Some(true));
    }

    let m = metrics(&mut c);
    let slow = m
        .get("metrics")
        .and_then(|mm| mm.get("slow_queries"))
        .and_then(|s| s.as_arr())
        .expect("slow_queries array");
    assert_eq!(slow.len(), 3, "all executed queries fit in the log");
    let mut last_total = u64::MAX;
    for entry in slow {
        assert!(entry.u64_field("request_id").unwrap() > 0);
        assert!(entry.str_field("params").unwrap().starts_with("algo="));
        let total = entry.u64_field("total_us").unwrap();
        let parts = entry.u64_field("queue_us").unwrap()
            + entry.u64_field("execute_us").unwrap()
            + entry.u64_field("serialize_us").unwrap();
        assert_eq!(total, parts, "total is exactly the sum of the stages");
        assert!(total <= last_total, "entries come back slowest first");
        last_total = total;
    }

    handle.shutdown_and_join();
}

#[test]
fn slow_log_eviction_keeps_exactly_the_top_k_payloads() {
    // the serve payload shape (request id + stage breakdown), exercised
    // past capacity at the SlowLog level where latencies are controllable
    #[derive(Debug, Clone, PartialEq)]
    struct Entry {
        request_id: u64,
        queue_us: u64,
        execute_us: u64,
    }
    let k = 5;
    let log = SlowLog::new(k);
    // 20 offers with distinct totals in a scrambled order
    for i in [
        11u64, 3, 17, 8, 1, 19, 5, 14, 2, 20, 7, 12, 4, 16, 9, 18, 6, 13, 10, 15,
    ] {
        log.offer(i * 100, || Entry {
            request_id: i,
            queue_us: i * 40,
            execute_us: i * 60,
        });
    }
    let kept = log.entries();
    assert_eq!(kept.len(), k);
    // exactly the five largest totals survive, in descending order,
    // payloads (request id + stage breakdown) intact
    for (rank, (total, entry)) in kept.iter().enumerate() {
        let expect = 20 - rank as u64;
        assert_eq!(*total, expect * 100);
        assert_eq!(
            *entry,
            Entry {
                request_id: expect,
                queue_us: expect * 40,
                execute_us: expect * 60,
            }
        );
    }
}
