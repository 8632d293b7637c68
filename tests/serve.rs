//! gbtl-serve integration: a real server on an ephemeral port, concurrent
//! clients, cache hits that execute zero backend ops (verified through the
//! trace counters), clean overload rejection, deadlines, and graceful
//! shutdown that drains in-flight work. That every backend answers the
//! same bytes is `tests/served_matrix.rs`'s job.

use std::time::Duration;

use gbtl_serve::{run_loadgen, start, Client, LoadgenOptions, ServerConfig, ServerHandle};

use gbtl::util::json::Value;

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(), // ephemeral port
        workers: 4,
        queue_capacity: 32,
        cache_capacity: 64,
        default_deadline_ms: 30_000,
        par_threads: 2,
        preload: vec![
            ("karate".into(), "karate".into()),
            ("rmat".into(), "rmat:7:6:42".into()),
        ],
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

/// `stats.backend_ops.total` — the number of GraphBLAS ops any backend has
/// executed since the server started.
fn backend_ops(client: &mut Client) -> u64 {
    let v = client
        .request_json("{\"op\":\"stats\"}")
        .expect("stats round-trip");
    v.get("stats")
        .and_then(|s| s.get("backend_ops"))
        .and_then(|b| b.u64_field("total"))
        .expect("stats.backend_ops.total")
}

#[test]
fn basic_session_ping_list_query() {
    let handle = start(test_config()).unwrap();
    let mut c = connect(&handle);

    let pong = c.request_json("{\"op\":\"ping\"}").unwrap();
    assert_eq!(pong.bool_field("ok"), Some(true));
    assert_eq!(pong.bool_field("pong"), Some(true));

    let list = c.request_json("{\"op\":\"list\"}").unwrap();
    let graphs = list.get("graphs").and_then(|g| g.as_arr()).unwrap();
    assert_eq!(graphs.len(), 2);
    assert_eq!(graphs[0].str_field("name"), Some("karate"));
    assert_eq!(graphs[0].u64_field("n"), Some(34));

    let v = query(
        &mut c,
        "\"id\":7,\"graph\":\"karate\",\"algo\":\"bfs\",\"source\":0",
    );
    assert_eq!(v.bool_field("ok"), Some(true));
    assert_eq!(v.u64_field("id"), Some(7));
    assert_eq!(v.str_field("algo"), Some("bfs"));
    let result = v.get("result").unwrap();
    assert_eq!(result.u64_field("reached"), Some(34));

    // unknown graph and bad request come back as clean errors
    let missing = query(&mut c, "\"graph\":\"nope\",\"algo\":\"bfs\"");
    assert_eq!(missing.bool_field("ok"), Some(false));
    assert_eq!(missing.str_field("code"), Some("not_found"));
    let garbage = c.request_json("{\"op\":\"sing\"}").unwrap();
    assert_eq!(garbage.str_field("code"), Some("bad_request"));

    handle.shutdown_and_join();
}

#[test]
fn repeated_query_is_a_cache_hit_with_zero_backend_ops() {
    let handle = start(test_config()).unwrap();
    let mut c = connect(&handle);

    let body = "\"graph\":\"karate\",\"algo\":\"pagerank\",\"backend\":\"par\"";
    let first = query(&mut c, body);
    assert_eq!(first.bool_field("cached"), Some(false));
    let ops_after_miss = backend_ops(&mut c);
    assert!(ops_after_miss > 0, "the miss executed backend ops");

    let second = query(&mut c, body);
    assert_eq!(second.bool_field("cached"), Some(true));
    assert_eq!(
        second.get("result").unwrap().str_field("checksum"),
        first.get("result").unwrap().str_field("checksum"),
        "cached result is the original result"
    );
    assert_eq!(
        backend_ops(&mut c),
        ops_after_miss,
        "the hit executed zero new backend ops"
    );

    // a different param is a different key…
    let other = query(
        &mut c,
        "\"graph\":\"karate\",\"algo\":\"pagerank\",\"backend\":\"seq\"",
    );
    assert_eq!(other.bool_field("cached"), Some(false));

    // …and reloading the graph bumps the epoch, so the old entry can never
    // be served again
    let reload = c
        .request_json("{\"op\":\"load\",\"graph\":\"karate\",\"spec\":\"karate\"}")
        .unwrap();
    assert_eq!(reload.u64_field("epoch"), Some(2));
    let after_reload = query(&mut c, body);
    assert_eq!(after_reload.bool_field("cached"), Some(false));
    assert_eq!(after_reload.u64_field("epoch"), Some(2));

    handle.shutdown_and_join();
}

#[test]
fn concurrent_clients_all_served_unscathed() {
    let handle = start(test_config()).unwrap();
    let opts = LoadgenOptions {
        addr: handle.addr().to_string(),
        clients: 8,
        requests_per_client: 30,
        graph: "karate".into(),
        backend: "par".into(),
        source_count: 4,
        ..Default::default()
    };
    let report = run_loadgen(&opts).unwrap();
    assert_eq!(report.corrupted, 0, "no dropped or corrupted responses");
    assert!(
        report.errors.is_empty(),
        "no rejections: {:?}",
        report.errors
    );
    assert_eq!(report.ok, 8 * 30, "every request answered");
    assert!(
        report.cached > 0,
        "identical queries from different clients hit the cache"
    );
    handle.shutdown_and_join();
}

#[test]
fn overload_and_queue_deadline_reject_cleanly() {
    let mut config = test_config();
    config.workers = 1;
    config.queue_capacity = 1;
    let handle = start(config).unwrap();
    let addr = handle.addr().to_string();

    // occupy the single worker…
    let a = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_json("{\"op\":\"sleep\",\"ms\":600,\"id\":1}")
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    // …fill the queue…
    let b = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_json("{\"op\":\"sleep\",\"ms\":100,\"id\":2}")
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(150));

    // …and the next request bounces immediately with a clean rejection
    let mut c = connect(&handle);
    let rejected = c
        .request_json("{\"op\":\"sleep\",\"ms\":100,\"id\":3}")
        .unwrap();
    assert_eq!(rejected.bool_field("ok"), Some(false));
    assert_eq!(rejected.str_field("code"), Some("overloaded"));
    assert_eq!(rejected.u64_field("id"), Some(3));

    // the occupied/queued requests still complete normally
    assert_eq!(a.join().unwrap().bool_field("ok"), Some(true));
    assert_eq!(b.join().unwrap().bool_field("ok"), Some(true));

    // a queued job whose deadline passes before a worker frees up is
    // dropped with a deadline error, not silently: re-occupy the (now
    // idle) worker so the queue has room but nothing drains it in time
    let d = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_json("{\"op\":\"sleep\",\"ms\":400,\"id\":4}")
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(150));
    let expired = c
        .request_json("{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"bfs\",\"deadline_ms\":1}")
        .unwrap();
    assert_eq!(expired.bool_field("ok"), Some(false));
    assert_eq!(expired.str_field("code"), Some("deadline"));
    assert_eq!(d.join().unwrap().bool_field("ok"), Some(true));

    let stats = c.request_json("{\"op\":\"stats\"}").unwrap();
    let requests = stats.get("stats").and_then(|s| s.get("requests")).unwrap();
    assert!(requests.u64_field("rejected_overloaded") >= Some(1));
    assert!(requests.u64_field("deadline_expired") >= Some(1));

    handle.shutdown_and_join();
}

#[test]
fn shutdown_drains_in_flight_work() {
    let mut config = test_config();
    config.workers = 1;
    let handle = start(config).unwrap();
    let addr = handle.addr().to_string();

    // a slow job is mid-flight when shutdown begins
    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_json("{\"op\":\"sleep\",\"ms\":400,\"id\":9}")
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let mut c = connect(&handle);
    let ack = c.request_json("{\"op\":\"shutdown\"}").unwrap();
    assert_eq!(ack.bool_field("ok"), Some(true));

    // new compute work is turned away while the server drains
    let refused = c
        .request_json("{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"bfs\"}")
        .unwrap();
    assert_eq!(refused.str_field("code"), Some("shutting_down"));

    // …but the admitted job completes with a real answer
    let done = inflight.join().unwrap();
    assert_eq!(done.bool_field("ok"), Some(true));
    assert_eq!(done.u64_field("slept_ms"), Some(400));

    handle.join(); // listener and workers exit promptly
}
