//! gbtl-shard integration (ISSUE 7 tentpole): a sharded catalog behind the
//! same wire protocol as a single pool. A one-shard router must answer
//! single-graph requests byte-for-byte like a direct `EnginePool` server
//! (both front-end modes); a four-shard router must route by placement,
//! merge `stats`/`metrics` in exact agreement with the per-shard
//! snapshots, scatter `query_all` with labeled partial results instead of
//! hangs, and round-trip the catalog through `snapshot`/`restore`.

use std::collections::HashMap;
use std::time::Duration;

use gbtl_net::{Engine, Reply};
use gbtl_serve::{start, Client, FrontendMode, ServerConfig};
use gbtl_shard::{start_sharded, ShardConfig, ShardHandle};

use gbtl::util::json::Value;

fn base_config(mode: FrontendMode, preload: Vec<(String, String)>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        mode,
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 16,
        default_deadline_ms: 30_000,
        par_threads: 2,
        preload,
        ..ServerConfig::default()
    }
}

fn eight_graphs() -> Vec<(String, String)> {
    (0..8)
        .map(|i| (format!("g{i}"), format!("rmat:6:4:{i}")))
        .collect()
}

fn sharded(shards: usize, mode: FrontendMode, preload: Vec<(String, String)>) -> ShardHandle {
    start_sharded(ShardConfig {
        shards,
        pins: HashMap::new(),
        base: base_config(mode, preload),
    })
    .unwrap()
}

fn connect(addr: &std::net::SocketAddr) -> Client {
    Client::connect(&addr.to_string()).expect("connect")
}

/// Blank out the wall-clock `"micros":N` timing field — the only part of
/// a query response that legitimately differs between two servers.
fn normalize(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\"micros\":") {
        let digits_from = at + "\"micros\":".len();
        out.push_str(&rest[..digits_from]);
        out.push('0');
        rest = rest[digits_from..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// The request sequence both servers answer; responses must match
/// byte-for-byte after timing normalization.
const SCRIPT: &[&str] = &[
    "{\"op\":\"ping\"}",
    "{\"op\":\"list\"}",
    "{\"op\":\"query\",\"id\":1,\"graph\":\"karate\",\"algo\":\"bfs\",\"source\":0}",
    "{\"op\":\"query\",\"id\":2,\"graph\":\"karate\",\"algo\":\"sssp\",\"backend\":\"seq\",\"source\":3}",
    "{\"op\":\"query\",\"id\":3,\"graph\":\"rmat\",\"algo\":\"pagerank\",\"backend\":\"cuda\"}",
    "{\"op\":\"query\",\"id\":4,\"graph\":\"rmat\",\"algo\":\"cc\",\"backend\":\"par\"}",
    // cache hit: identical params to id 1
    "{\"op\":\"query\",\"id\":5,\"graph\":\"karate\",\"algo\":\"bfs\",\"source\":0}",
    // error paths render identically too
    "{\"op\":\"query\",\"id\":6,\"graph\":\"nope\",\"algo\":\"bfs\"}",
    "{\"op\":\"query\",\"id\":7,\"graph\":\"karate\",\"algo\":\"zzz\"}",
    "{\"not\":\"json\"}",
    "{\"op\":\"query_all\",\"id\":8,\"algo\":\"bfs\",\"source\":0}",
];

#[test]
fn one_shard_router_matches_direct_pool_byte_for_byte() {
    let preload = vec![
        ("karate".to_string(), "karate".to_string()),
        ("rmat".to_string(), "rmat:7:6:42".to_string()),
    ];
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let direct = start(base_config(mode, preload.clone())).unwrap();
        let routed = sharded(1, mode, preload.clone());
        let mut dc = connect(&direct.addr());
        let mut rc = connect(&routed.addr());
        for line in SCRIPT {
            let d = dc.request(line).unwrap();
            let r = rc.request(line).unwrap();
            assert_eq!(
                normalize(&d),
                normalize(&r),
                "response drift ({mode:?}) for {line}"
            );
        }
        direct.shutdown_and_join();
        routed.shutdown_and_join();
    }
}

#[test]
fn four_shards_route_by_placement_and_merge_stats_exactly() {
    let handle = sharded(4, FrontendMode::Threaded, eight_graphs());
    let mut c = connect(&handle.addr());

    // every graph answers through the router, from its placement shard
    for i in 0..8 {
        let v = c
            .request_json(&format!(
                "{{\"op\":\"query\",\"graph\":\"g{i}\",\"algo\":\"bfs\",\"source\":0}}"
            ))
            .unwrap();
        assert_eq!(v.bool_field("ok"), Some(true), "g{i}: {v:?}");
    }
    // one bad request for the router's own counters
    let bad = c
        .request_json("{\"op\":\"query\",\"graph\":\"g0\"}")
        .unwrap();
    assert_eq!(bad.bool_field("ok"), Some(false));

    let v = c.request_json("{\"op\":\"stats\"}").unwrap();
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.u64_field("shards"), Some(4));
    assert_eq!(stats.u64_field("graphs"), Some(8));
    assert_eq!(stats.bool_field("partial"), Some(false));

    let per_shard = stats.get("per_shard").and_then(|p| p.as_arr()).unwrap();
    assert_eq!(per_shard.len(), 4);
    let totals = stats.get("requests").unwrap();
    // exact agreement: totals are the sum of the per-shard snapshots
    for field in [
        "received",
        "completed",
        "bad",
        "rejected_overloaded",
        "rejected_shutdown",
        "deadline_expired",
    ] {
        let sum: u64 = per_shard.iter().map(|s| s.u64_field(field).unwrap()).sum();
        assert_eq!(
            totals.u64_field(field),
            Some(sum),
            "stats.requests.{field} != sum(per_shard)"
        );
    }
    let graph_sum: u64 = per_shard
        .iter()
        .map(|s| s.u64_field("graphs").unwrap())
        .sum();
    assert_eq!(graph_sum, 8, "placement must cover all graphs exactly once");
    for (i, s) in per_shard.iter().enumerate() {
        assert_eq!(s.u64_field("shard"), Some(i as u64));
        assert!(s.get("occupancy").is_some(), "shard {i} missing occupancy");
        assert_eq!(s.bool_field("draining"), Some(false));
    }

    let router = stats.get("router").unwrap();
    // the malformed query died at the router's parser, so only the 8
    // well-formed queries were forwarded
    assert_eq!(router.u64_field("forwarded"), Some(8));
    assert!(router.u64_field("bad").unwrap() >= 1);
    assert!(router.u64_field("received").unwrap() >= 10);

    handle.shutdown_and_join();
}

#[test]
fn metrics_merge_carries_per_shard_labels() {
    let handle = sharded(4, FrontendMode::Evented, eight_graphs());
    let mut c = connect(&handle.addr());
    for i in 0..8 {
        c.request(&format!(
            "{{\"op\":\"query\",\"graph\":\"g{i}\",\"algo\":\"bfs\",\"source\":0}}"
        ))
        .unwrap();
    }
    let raw = c.request("{\"op\":\"metrics\"}").unwrap();
    for shard in ["0", "1", "2", "3", "router"] {
        // the JSON registry labels every series...
        let json_label = format!("\"shard\":\"{shard}\"");
        assert!(raw.contains(&json_label), "registry missing {json_label}");
        // ...and the Prometheus exposition (an escaped JSON string here)
        // carries the same label on the wire
        let prom_label = format!("shard=\\\"{shard}\\\"");
        assert!(raw.contains(&prom_label), "exposition missing {prom_label}");
    }
    // evented front-end: net gauges ride in the router registry
    assert!(raw.contains("gbtl_net_open_connections"));
    assert!(raw.contains("gbtl_router_forwarded_total"));

    let v: Value = c.request_json("{\"op\":\"metrics\"}").unwrap();
    let overall = v.get("metrics").and_then(|m| m.get("overall")).unwrap();
    assert!(overall.u64_field("count").unwrap() >= 8);
    handle.shutdown_and_join();
}

#[test]
fn query_all_scatters_and_labels_partial_results() {
    let handle = sharded(4, FrontendMode::Threaded, eight_graphs());
    let mut c = connect(&handle.addr());

    let v = c
        .request_json("{\"op\":\"query_all\",\"algo\":\"pagerank\",\"backend\":\"par\"}")
        .unwrap();
    assert_eq!(v.bool_field("ok"), Some(true), "{v:?}");
    assert_eq!(v.u64_field("graphs"), Some(8));
    assert_eq!(v.u64_field("answered"), Some(8));
    assert_eq!(v.bool_field("partial"), Some(false));
    let results = v.get("results").and_then(|r| r.as_arr()).unwrap();
    assert_eq!(results.len(), 8);
    let placement = handle.router().placement();
    for r in results {
        let name = r.str_field("graph").unwrap();
        assert_eq!(
            r.u64_field("shard"),
            Some(placement.shard_for(name) as u64),
            "result labeled with the wrong shard"
        );
        assert_eq!(
            r.get("response").and_then(|x| x.bool_field("ok")),
            Some(true)
        );
    }

    // jam one shard: occupy both its workers and fill its queue with
    // sleeps, then scatter with a short deadline — its graphs must come
    // back as labeled `missing`, the rest as answers; never a hang
    let victim = placement.shard_for("g0");
    let pool = &handle.router().pools()[victim];
    for _ in 0..10 {
        let _ = pool.submit("{\"op\":\"sleep\",\"ms\":1500}", Reply::new(|_| {}), None);
    }
    let v = c
        .request_json("{\"op\":\"query_all\",\"algo\":\"bfs\",\"source\":1,\"deadline_ms\":300}")
        .unwrap();
    assert_eq!(v.bool_field("ok"), Some(true), "{v:?}");
    assert_eq!(v.bool_field("partial"), Some(true), "{v:?}");
    let missing = v.get("missing").and_then(|m| m.as_arr()).unwrap();
    assert!(!missing.is_empty());
    for m in missing {
        assert_eq!(m.u64_field("shard"), Some(victim as u64));
        assert_eq!(
            placement.shard_for(m.str_field("graph").unwrap()),
            victim,
            "only the jammed shard's graphs may go missing"
        );
    }
    assert_eq!(
        v.u64_field("answered").unwrap() + missing.len() as u64,
        8,
        "answered + missing must cover the catalog"
    );

    // the router counted the partial scatter
    std::thread::sleep(Duration::from_millis(50));
    let stats = c.request_json("{\"op\":\"stats\"}").unwrap();
    let router = stats.get("stats").and_then(|s| s.get("router")).unwrap();
    assert_eq!(router.u64_field("scattered"), Some(2));
    assert_eq!(router.u64_field("partials"), Some(1));

    handle.shutdown_and_join();
}

#[test]
fn draining_one_shard_marks_stats_partial() {
    let handle = sharded(2, FrontendMode::Threaded, eight_graphs());
    let mut c = connect(&handle.addr());
    handle.router().pools()[1].drain();
    let v = c.request_json("{\"op\":\"stats\"}").unwrap();
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.bool_field("partial"), Some(true));
    let per_shard = stats.get("per_shard").and_then(|p| p.as_arr()).unwrap();
    assert_eq!(per_shard[0].bool_field("draining"), Some(false));
    assert_eq!(per_shard[1].bool_field("draining"), Some(true));
    handle.shutdown_and_join();
}

#[test]
fn a_deeply_nested_line_costs_the_router_one_request() {
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let handle = sharded(2, mode, eight_graphs());
        let max_line = ServerConfig::default().max_line;
        let mut c = connect(&handle.addr());
        // the router parses a line before it forwards it: a line of
        // openings as long as the bound allows is one bad request there
        for unit in ["[", "{\"a\":"] {
            let response = c.request(&unit.repeat(max_line / unit.len())).unwrap();
            assert!(
                response.contains("\"code\":\"bad_request\""),
                "{}: {response}",
                mode.as_str()
            );
            let pong = c.request("{\"op\":\"ping\"}").unwrap();
            assert!(pong.contains("\"pong\":true"), "{}: {pong}", mode.as_str());
        }
        handle.shutdown_and_join();
    }
}

/// Loads far past the machine — 10¹⁰ grid vertices, a 70 TB rmat, an
/// 80 GB Erdős–Rényi draw, a Matrix Market file whose size line claims
/// 10¹² rows — are each one `bad_request`, on both front-ends, direct and
/// through the router; the server answers the next ping and shuts down.
#[test]
fn an_oversized_load_costs_one_request_not_the_process() {
    let dir = std::env::temp_dir().join(format!("gbtl_huge_mtx_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("huge.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate pattern general\n1000000000000 1000000000000 1\n1 2\n",
    )
    .unwrap();
    let specs = [
        "grid:100000".to_string(),
        "rmat:40:8:1".into(),
        "er:10000000000:10:1".into(),
        format!("mtx:{}", mtx.display()),
    ];
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let direct = start(base_config(mode, Vec::new())).unwrap();
        let routed = sharded(2, mode, Vec::new());
        for addr in [direct.addr(), routed.addr()] {
            let mut c = connect(&addr);
            for spec in &specs {
                let line = format!("{{\"op\":\"load\",\"name\":\"huge\",\"spec\":\"{spec}\"}}");
                let v = c.request_json(&line).unwrap();
                assert_eq!(
                    v.str_field("code"),
                    Some("bad_request"),
                    "{mode:?} {spec}: {v:?}"
                );
                let pong = c.request("{\"op\":\"ping\"}").unwrap();
                assert!(pong.contains("\"pong\":true"), "{mode:?} {spec}: {pong}");
            }
        }
        direct.shutdown_and_join();
        routed.shutdown_and_join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_restore_round_trips_through_the_router() {
    let dir = std::env::temp_dir().join(format!("gbtl_shard_snap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut base = base_config(FrontendMode::Threaded, eight_graphs());
    base.snapshot_dir = Some(dir.display().to_string());

    let handle = start_sharded(ShardConfig {
        shards: 4,
        pins: HashMap::new(),
        base: base.clone(),
    })
    .unwrap();
    let mut c = connect(&handle.addr());
    let mut checksums = Vec::new();
    for i in 0..8 {
        let v = c
            .request_json(&format!(
                "{{\"op\":\"query\",\"graph\":\"g{i}\",\"algo\":\"bfs\",\"source\":0}}"
            ))
            .unwrap();
        checksums.push(
            v.get("result")
                .and_then(|r| r.str_field("checksum"))
                .unwrap()
                .to_string(),
        );
    }
    let snap = c.request_json("{\"op\":\"snapshot\"}").unwrap();
    assert_eq!(snap.bool_field("ok"), Some(true), "{snap:?}");
    assert_eq!(snap.bool_field("partial"), Some(false));
    assert_eq!(
        snap.get("snapshots")
            .and_then(|s| s.as_arr())
            .unwrap()
            .len(),
        8
    );
    handle.shutdown_and_join();

    // fresh sharded server, empty catalog, same snapshot dir
    base.preload = Vec::new();
    let handle = start_sharded(ShardConfig {
        shards: 4,
        pins: HashMap::new(),
        base,
    })
    .unwrap();
    let mut c = connect(&handle.addr());
    let rest = c.request_json("{\"op\":\"restore\"}").unwrap();
    assert_eq!(rest.bool_field("ok"), Some(true), "{rest:?}");
    assert_eq!(
        rest.get("restored").and_then(|r| r.as_arr()).unwrap().len(),
        8
    );
    // every graph is back on its placement shard with identical answers
    let stats = c.request_json("{\"op\":\"stats\"}").unwrap();
    assert_eq!(
        stats.get("stats").and_then(|s| s.u64_field("graphs")),
        Some(8)
    );
    for (i, want) in checksums.iter().enumerate() {
        let v = c
            .request_json(&format!(
                "{{\"op\":\"query\",\"graph\":\"g{i}\",\"algo\":\"bfs\",\"source\":0}}"
            ))
            .unwrap();
        assert_eq!(
            v.get("result").and_then(|r| r.str_field("checksum")),
            Some(want.as_str()),
            "g{i} checksum drift after sharded restore"
        );
    }
    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
