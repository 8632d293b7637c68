//! The paper-style experiment harness: prints one table/series per
//! reconstructed experiment (see DESIGN.md / EXPERIMENTS.md).
//!
//! ```text
//! cargo run -p gbtl-bench --release --bin experiments            # all
//! cargo run -p gbtl-bench --release --bin experiments -- t1 f1  # subset
//! cargo run -p gbtl-bench --release --bin experiments -- --trace f1
//! ```

use std::time::Duration;

use gbtl_algebra::{PlusMonoid, PlusTimes};
use gbtl_algorithms::{
    bfs_levels, pagerank::PageRankOptions, sssp, sssp_with_direction, triangle_count, Direction,
};
use gbtl_bench::{
    cuda_ctx, er_graph, grid_graph, host_threads, par_ctx, print_header, print_row, print_title,
    rmat_graph, seq_ctx, time_best, time_cuda, typed, weighted, Row,
};
use gbtl_core::trace::report::format_table;
use gbtl_core::{no_accum, Backend, Context, Descriptor, Matrix, SpmvKernel, TraceMode, Vector};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--trace` turns op tracing on for every context the experiments
    // create (they all read `GBTL_TRACE` at construction) and appends a
    // three-backend traced report after the selected experiments finish.
    let traced = if let Some(i) = args.iter().position(|a| a == "--trace") {
        args.remove(i);
        std::env::set_var("GBTL_TRACE", "summary");
        println!("op tracing: on (GBTL_TRACE=summary)");
        true
    } else {
        false
    };
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |k: &str| all || args.iter().any(|a| a == k);

    println!("GBTL-RS reconstructed evaluation (see EXPERIMENTS.md)");
    println!("device model: Tesla K40-class (15 SMs, 288 GB/s, PCIe 12 GB/s)");

    if want("t1") {
        t1_primitives();
    }
    if want("f1") {
        f1_bfs();
    }
    if want("f2") {
        f2_sssp();
    }
    if want("f3") {
        f3_pr_tc();
    }
    if want("f4") {
        f4_mxm_sweep();
    }
    if want("a1") {
        a1_spmv_kernels();
    }
    if want("a2") {
        a2_mask_direction();
    }
    if want("a3") {
        a3_transfers();
    }
    if want("a4") {
        a4_device_sweep();
    }
    if want("p1") {
        p1_par_threads();
    }
    if want("tr") {
        tr_trace_overhead();
    }
    if want("sv") {
        sv_serve();
    }
    if want("mx") {
        mx_metrics_overhead();
    }
    if want("ws") {
        ws_operand_resolution();
    }
    if want("nt") {
        nt_evented();
    }
    if want("sh") {
        sh_sharding();
    }
    if want("f8") {
        f8_fusion();
    }
    if want("xr") {
        xr_xray_overhead();
    }
    if want("d10") {
        d10_direction();
    }

    if traced {
        println!("\n== traced appendix: BFS + triangles (rmat12), per-op report per backend");
        let a = rmat_graph(12, 16, 7);
        report_for(&a, seq_ctx());
        report_for(&a, par_ctx(host_threads()));
        report_for(&a, cuda_ctx());
    }
}

/// R-S3: gbtl-serve under closed-loop load — throughput and latency
/// percentiles vs worker count, with the result cache on and off
/// (EXPERIMENTS.md).
fn sv_serve() {
    use gbtl_serve::protocol::Algo;
    use gbtl_serve::{run_loadgen, start, LoadgenOptions, ServerConfig};

    print_title(
        "R-S3: query-server throughput/latency vs workers and cache (rmat10, 8 clients)",
        "qps rises with workers until the host cores saturate; with the cache on, \
         the 8-source working set collapses onto 48 distinct keys, so most \
         requests are hits and both throughput and tail latency improve sharply",
    );
    println!("host physical parallelism: {} core(s)", host_threads());
    println!(
        "{:<9} {:>7} {:>6} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workers", "cache", "ok", "cached", "qps", "p50 us", "p95 us", "p99 us", "rejected"
    );
    for &workers in &[1usize, 2, 4, 8] {
        for &cache in &[0usize, 256] {
            let config = ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers,
                queue_capacity: 256,
                cache_capacity: cache,
                default_deadline_ms: 60_000,
                par_threads: 2,
                metrics: true,
                slow_log_capacity: 16,
                preload: vec![("rmat".into(), "rmat:10:8:7".into())],
                ..ServerConfig::default()
            };
            let handle = start(config).expect("start experiment server");
            let opts = LoadgenOptions {
                addr: handle.addr().to_string(),
                clients: 8,
                requests_per_client: 40,
                graph: "rmat".into(),
                algos: vec![Algo::Bfs, Algo::Pagerank, Algo::TriangleCount],
                backend: "par".into(),
                source_count: 8,
                ..LoadgenOptions::default()
            };
            let report = run_loadgen(&opts).expect("run loadgen");
            assert_eq!(report.corrupted, 0, "corrupted responses under load");
            println!(
                "{:<9} {:>7} {:>6} {:>7} {:>9.1} {:>9} {:>9} {:>9} {:>9}",
                workers,
                if cache > 0 { "on" } else { "off" },
                report.ok,
                report.cached,
                report.qps(),
                report.percentile_us(50.0),
                report.percentile_us(95.0),
                report.percentile_us(99.0),
                report.errors.iter().map(|(_, n)| n).sum::<u64>(),
            );
            handle.shutdown_and_join();
        }
    }
}

/// R-F8: multi-source query fusion — k concurrent same-graph traversals
/// coalesced by the batching window into one k-row frontier `mxm` per
/// level (EXPERIMENTS.md).
fn f8_fusion() {
    use gbtl_serve::protocol::Algo;
    use gbtl_serve::{run_loadgen, start, Client, LoadgenOptions, ServerConfig};
    use std::sync::{Arc, Barrier};

    print_title(
        "R-F8: query fusion — concurrent same-graph BFS, fused vs solo (rmat10)",
        "with fusion on, a volley of k traversals coalesces inside the batching \
         window and runs as one k-row frontier mxm per level; per-op dispatch \
         and per-level host passes amortize across the batch, so throughput \
         rises with k while every per-request answer stays byte-identical to \
         the fusion-off path",
    );
    println!("host physical parallelism: {} core(s)", host_threads());

    let mk_config = |fuse_on: bool, max_batch: usize| {
        let mut config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 256,
            cache_capacity: 0, // every request executes: fusion earns its keep or not
            default_deadline_ms: 60_000,
            par_threads: 2,
            metrics: true,
            slow_log_capacity: 16,
            preload: vec![("rmat".into(), "rmat:10:8:7".into())],
            ..ServerConfig::default()
        };
        config.fuse.enabled = fuse_on;
        config.fuse.window = Duration::from_micros(3000);
        config.fuse.max_batch = max_batch;
        config
    };

    // -- part 1: response identity under fusion ---------------------------
    // a 32-client barrier-released volley against fusion-on must hash
    // per-request identically to a sequential fusion-off run
    println!("\npart 1: response identity (FNV-1a 64 over the result object, 32 roots)");
    let solo = start(mk_config(false, 32)).expect("start solo server");
    let mut c = Client::connect(&solo.addr().to_string()).expect("connect solo");
    let reference: Vec<u64> = (0..32)
        .map(|s| {
            let raw = c
                .request(&format!(
                    "{{\"op\":\"query\",\"graph\":\"rmat\",\"algo\":\"bfs\",\
                     \"backend\":\"par\",\"source\":{s}}}"
                ))
                .expect("solo round-trip");
            fnv1a64(result_span(&raw).as_bytes())
        })
        .collect();
    drop(c);
    solo.shutdown_and_join();

    let fused = start(mk_config(true, 32)).expect("start fused server");
    let barrier = Arc::new(Barrier::new(32));
    let volley: Vec<_> = (0..32)
        .map(|s| {
            let addr = fused.addr().to_string();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect fused");
                barrier.wait();
                let raw = c
                    .request(&format!(
                        "{{\"op\":\"query\",\"graph\":\"rmat\",\"algo\":\"bfs\",\
                         \"backend\":\"par\",\"source\":{s}}}"
                    ))
                    .expect("fused round-trip");
                fnv1a64(result_span(&raw).as_bytes())
            })
        })
        .collect();
    let mut identical = 0usize;
    for (s, t) in volley.into_iter().enumerate() {
        if t.join().expect("volley thread") == reference[s] {
            identical += 1;
        }
    }
    fused.shutdown_and_join();
    println!("fused vs solo checksums identical: {identical}/32");
    assert_eq!(identical, 32, "fusion changed some response payload");

    // -- part 2: throughput, fusion off vs on -----------------------------
    println!(
        "\npart 2: same-graph volleys, 24 rounds per client count (cache off, distinct roots)"
    );
    println!(
        "{:<9} {:>6} {:>6} {:>9} {:>9} {:>9} {:>11}",
        "clients", "fuse", "ok", "qps", "p50 us", "p95 us", "batch p50"
    );
    for &clients in &[8usize, 16, 32] {
        let mut qps = [0.0f64; 2];
        for (i, fuse_on) in [false, true].into_iter().enumerate() {
            let handle = start(mk_config(fuse_on, clients)).expect("start experiment server");
            let opts = LoadgenOptions {
                addr: handle.addr().to_string(),
                clients,
                requests_per_client: 24,
                graph: "rmat".into(),
                algos: vec![Algo::Bfs],
                backend: "par".into(),
                source_count: 1024, // every request a distinct root: no cache crutch
                same_graph: true,
                ..LoadgenOptions::default()
            };
            let report = run_loadgen(&opts).expect("run loadgen");
            assert_eq!(report.corrupted, 0, "corrupted responses under load");
            assert!(report.errors.is_empty(), "rejections: {:?}", report.errors);
            qps[i] = report.qps();
            println!(
                "{:<9} {:>6} {:>6} {:>9.1} {:>9} {:>9} {:>11}",
                clients,
                if fuse_on { "on" } else { "off" },
                report.ok,
                report.qps(),
                report.percentile_us(50.0),
                report.percentile_us(95.0),
                report.batch_percentile_us(50.0),
            );
            handle.shutdown_and_join();
        }
        println!(
            "fusion speedup at {clients} clients: {:.2}x (acceptance: >= 1.5x at 32)",
            qps[1] / qps[0].max(1e-9)
        );
    }
}

/// R-O4: gbtl-metrics overhead and the queue-wait vs execute breakdown
/// (EXPERIMENTS.md).
fn mx_metrics_overhead() {
    use gbtl_serve::protocol::Algo;
    use gbtl_serve::{run_loadgen, start, Client, LoadgenOptions, LoadgenReport, ServerConfig};

    print_title(
        "R-O4: metrics overhead and queue-wait breakdown (gbtl-serve)",
        "with metrics off a request pays one extra branch and counter add, so \
         throughput should sit within 2% of the instrumented server; with \
         metrics on, the per-stage histograms show queue wait overtaking \
         execute time as offered load outgrows the worker pool",
    );

    let mk_config = |workers: usize, metrics: bool| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: 512,
        cache_capacity: 0, // every request executes: worst case for overhead
        default_deadline_ms: 60_000,
        par_threads: 1,
        metrics,
        slow_log_capacity: 16,
        preload: vec![("g".into(), "rmat:9:8:7".into())],
        ..ServerConfig::default()
    };
    let mk_opts = |addr: String, clients: usize| LoadgenOptions {
        addr,
        clients,
        requests_per_client: 60,
        graph: "g".into(),
        algos: vec![Algo::Bfs, Algo::TriangleCount],
        backend: "par".into(),
        source_count: 8,
        ..LoadgenOptions::default()
    };

    println!(
        "part 1: metrics off vs on (rmat9, cache off, 2 workers, \
         4 clients x 60 requests, best of 3 runs)"
    );
    println!(
        "{:<9} {:>6} {:>9} {:>9} {:>9}",
        "metrics", "ok", "best qps", "p50 us", "p95 us"
    );
    let mut qps = [0.0f64; 2];
    for (i, metrics) in [false, true].into_iter().enumerate() {
        // best of 3: closed-loop qps is noisy on a shared host
        let mut best: Option<LoadgenReport> = None;
        for _ in 0..3 {
            let handle = start(mk_config(2, metrics)).expect("start experiment server");
            let report = run_loadgen(&mk_opts(handle.addr().to_string(), 4)).expect("loadgen");
            assert_eq!(report.corrupted, 0, "corrupted responses under load");
            handle.shutdown_and_join();
            if best.as_ref().is_none_or(|b| report.qps() > b.qps()) {
                best = Some(report);
            }
        }
        let best = best.unwrap();
        qps[i] = best.qps();
        println!(
            "{:<9} {:>6} {:>9.1} {:>9} {:>9}",
            if metrics { "on" } else { "off" },
            best.ok,
            best.qps(),
            best.percentile_us(50.0),
            best.percentile_us(95.0),
        );
    }
    let overhead = (qps[0] - qps[1]) / qps[0].max(1e-9) * 100.0;
    println!("metrics-on throughput cost vs off: {overhead:+.2}% (target < 2%)");

    println!("\npart 2: queue wait vs execute as offered load outgrows the pool (metrics on)");
    println!(
        "{:<9} {:>9} {:>9} {:>14} {:>14} {:>12}",
        "workers", "clients", "qps", "queue mean us", "exec mean us", "queue share"
    );
    for &(workers, clients) in &[(4usize, 1usize), (4, 8), (2, 8), (1, 8)] {
        let handle = start(mk_config(workers, true)).expect("start experiment server");
        let report = run_loadgen(&mk_opts(handle.addr().to_string(), clients)).expect("loadgen");
        let mut c = Client::connect(&handle.addr().to_string()).expect("connect for metrics");
        let v = c.request_json("{\"op\":\"metrics\"}").expect("metrics op");
        handle.shutdown_and_join();
        // sum the per-(algo,backend) stage histograms into queue vs execute
        let (mut sums, mut counts) = ([0u64; 2], [0u64; 2]);
        let hists = v
            .get("metrics")
            .and_then(|m| m.get("registry"))
            .and_then(|r| r.get("histograms"))
            .and_then(|h| h.as_arr())
            .expect("registry histograms in metrics response");
        for h in hists {
            if h.str_field("name") != Some("gbtl_stage_latency_us") {
                continue;
            }
            let idx = match h.get("labels").and_then(|l| l.str_field("stage")) {
                Some("queue") => 0,
                Some("execute") => 1,
                _ => continue,
            };
            sums[idx] += h.u64_field("sum").unwrap_or(0);
            counts[idx] += h.u64_field("count").unwrap_or(0);
        }
        let mean = |i: usize| sums[i].checked_div(counts[i]).unwrap_or(0);
        let share = sums[0] as f64 / ((sums[0] + sums[1]).max(1)) as f64 * 100.0;
        println!(
            "{:<9} {:>9} {:>9.1} {:>14} {:>14} {:>11.1}%",
            workers,
            clients,
            report.qps(),
            mean(0),
            mean(1),
            share
        );
    }
}

/// R-X9: x-ray tracing overhead (EXPERIMENTS.md) — the per-request cost of
/// the causal-tracing subsystem at each sampling posture, mirroring the
/// R-T2/R-O4 methodology (same binary, toggle the knob, best of 3).
fn xr_xray_overhead() {
    use gbtl_serve::protocol::Algo;
    use gbtl_serve::{run_loadgen, start, LoadgenOptions, LoadgenReport, ServerConfig};

    print_title(
        "R-X9: x-ray tracing overhead (gbtl-serve)",
        "with GBTL_XRAY=off a request pays one atomic load before tracing \
         bails, so throughput must sit within 2% of the enabled-but-unsampled \
         server (and vice versa — the two postures bound the cost of carrying \
         the subsystem at all); sampling every request adds span records on \
         the hot path and is measured, not gated",
    );

    let mk_config = || ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_capacity: 512,
        cache_capacity: 0, // every request executes: worst case for overhead
        default_deadline_ms: 60_000,
        par_threads: 1,
        metrics: true,
        slow_log_capacity: 16,
        preload: vec![("g".into(), "rmat:9:8:7".into())],
        ..ServerConfig::default()
    };
    let mk_opts = |addr: String| LoadgenOptions {
        addr,
        clients: 4,
        requests_per_client: 200,
        graph: "g".into(),
        algos: vec![Algo::Bfs, Algo::TriangleCount],
        backend: "par".into(),
        source_count: 8,
        ..LoadgenOptions::default()
    };

    println!(
        "rmat9, cache off, 2 workers, 4 clients x 200 requests, best of 5 runs \
         (loadgen and server share the process, so the store toggles apply)"
    );
    println!(
        "{:<16} {:>6} {:>9} {:>9} {:>9}",
        "xray", "ok", "best qps", "p50 us", "p95 us"
    );
    let store = gbtl_xray::store();
    let (was_enabled, was_every) = (store.enabled(), store.sample_every());
    let postures = [
        ("off", false, 0u64),
        ("on, unsampled", true, 0),
        ("on, every req", true, 1),
    ];
    let one_run = |enabled: bool, every: u64| -> LoadgenReport {
        store.set_enabled(enabled);
        store.set_sample_every(every);
        let handle = start(mk_config()).expect("start experiment server");
        let report = run_loadgen(&mk_opts(handle.addr().to_string())).expect("loadgen");
        assert_eq!(report.corrupted, 0, "corrupted responses under load");
        handle.shutdown_and_join();
        report
    };
    // one unmeasured warm-up run, then the postures interleave round-robin
    // so allocator/page-cache drift spreads evenly instead of taxing
    // whichever posture runs first
    let _ = one_run(false, 0);
    let mut best: [Option<LoadgenReport>; 3] = [None, None, None];
    for _ in 0..5 {
        for (i, &(_, enabled, every)) in postures.iter().enumerate() {
            let report = one_run(enabled, every);
            if best[i].as_ref().is_none_or(|b| report.qps() > b.qps()) {
                best[i] = Some(report);
            }
        }
    }
    store.set_enabled(was_enabled);
    store.set_sample_every(was_every);
    let mut qps = [0.0f64; 3];
    for (i, (label, ..)) in postures.into_iter().enumerate() {
        let b = best[i].as_ref().unwrap();
        qps[i] = b.qps();
        println!(
            "{:<16} {:>6} {:>9.1} {:>9} {:>9}",
            label,
            b.ok,
            b.qps(),
            b.percentile_us(50.0),
            b.percentile_us(95.0),
        );
    }
    let unsampled = (qps[0] - qps[1]) / qps[0].max(1e-9) * 100.0;
    let sampled = (qps[0] - qps[2]) / qps[0].max(1e-9) * 100.0;
    println!(
        "off-mode throughput delta vs enabled-but-unsampled: {unsampled:+.2}% (gate: within 2%)"
    );
    println!("sample-every-request throughput cost vs off: {sampled:+.2}%");
}

/// R-N6: the evented front-end — idle-connection scalability with flat
/// memory, pipelined throughput vs the threaded closed-loop baseline, and
/// cross-front-end response identity (EXPERIMENTS.md).
fn nt_evented() {
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    use gbtl_serve::protocol::Algo;
    use gbtl_serve::{
        raise_nofile_limit, run_loadgen, start, Client, FrontendMode, LoadgenOptions, ServerConfig,
    };

    print_title(
        "R-N6: evented front-end (gbtl-net) — idle flood, pipelining, identity",
        "a single poll(2) thread holds 1k+ silent connections for the cost of a \
         few hundred bytes each, where the threaded front-end would pin a stack \
         per socket; with requests pipelined the evented loop matches or beats \
         the threaded closed-loop qps; and both front-ends drive the same \
         EnginePool, so responses are byte-identical (FNV-1a over the result)",
    );

    let nofile = raise_nofile_limit();
    let mk_config = |mode: FrontendMode| ServerConfig {
        addr: "127.0.0.1:0".into(),
        mode,
        workers: 4,
        queue_capacity: 256,
        cache_capacity: 256,
        default_deadline_ms: 60_000,
        par_threads: 2,
        metrics: true,
        slow_log_capacity: 16,
        idle_timeout_ms: 0, // the idle flood must survive the sampling pauses
        preload: vec![("rmat".into(), "rmat:10:8:7".into())],
        ..ServerConfig::default()
    };

    // -- part 1: idle-connection flood ------------------------------------
    println!(
        "part 1: idle-connection flood (evented, RLIMIT_NOFILE {nofile}, \
         VmRSS of this process — it hosts both server and clients)"
    );
    println!(
        "{:<8} {:>12} {:>11} {:>14}",
        "conns", "open(gauge)", "VmRSS KiB", "KiB/conn(cum)"
    );
    let handle = start(mk_config(FrontendMode::Evented)).expect("start evented server");
    let addr = handle.addr().to_string();
    let mut stats_client = Client::connect(&addr).expect("stats connection");
    let mut idle: Vec<TcpStream> = Vec::new();
    let mut base_rss = 0u64;
    let mut last_rss = 0u64;
    for &target in &[0usize, 256, 512, 1024] {
        while idle.len() < target {
            idle.push(TcpStream::connect(&addr).expect("idle connect"));
        }
        // the poller accepts asynchronously: wait for the gauge to agree
        // (+1 for the stats connection itself)
        let open = wait_for_open_connections(&mut stats_client, (target + 1) as u64);
        let rss = vm_rss_kib();
        if target == 0 {
            base_rss = rss;
        }
        last_rss = rss;
        let per_conn = if target > 0 {
            format!("{:.2}", rss.saturating_sub(base_rss) as f64 / target as f64)
        } else {
            "-".into()
        };
        println!("{target:<8} {open:>12} {rss:>11} {per_conn:>14}");
    }
    let per_conn_kib = last_rss.saturating_sub(base_rss) as f64 / idle.len() as f64;
    assert!(
        per_conn_kib < 64.0,
        "idle connections are not flat in memory: {per_conn_kib:.1} KiB/conn"
    );
    // every idle connection is still alive: ping a stripe of them
    for (i, conn) in idle.iter_mut().enumerate().step_by(64) {
        conn.write_all(b"{\"op\":\"ping\"}\n")
            .expect("idle ping write");
        let mut byte = [0u8; 1];
        conn.read_exact(&mut byte)
            .unwrap_or_else(|e| panic!("idle conn {i} died: {e}"));
    }
    println!(
        "1024 idle connections held: {:.2} KiB/conn cumulative RSS growth, \
         sampled stripe still answers pings",
        per_conn_kib
    );
    drop(idle);
    drop(stats_client);
    handle.shutdown_and_join();

    // -- part 2: pipelined evented vs closed-loop threaded ----------------
    // The cache is pre-warmed (all 24 distinct keys) so the measurement is
    // front-end-bound — connection handling and framing, not graph compute:
    // cold, a depth-8 window piles 64 misses onto the 4 workers and the run
    // measures queue wait instead of the connection layer.
    println!("\npart 2: throughput (rmat10, par, 8 clients x 200, cache warm, best of 2)");
    println!(
        "{:<22} {:>6} {:>9} {:>9} {:>9}",
        "front-end", "ok", "qps", "p50 us", "p95 us"
    );
    let algos = [Algo::Bfs, Algo::Pagerank, Algo::TriangleCount];
    let mut qps = Vec::new();
    for &(label, mode, depth) in &[
        ("threaded closed-loop", FrontendMode::Threaded, 1usize),
        ("evented closed-loop", FrontendMode::Evented, 1),
        ("evented pipeline=8", FrontendMode::Evented, 8),
    ] {
        let mut best_qps = 0.0f64;
        let mut best = None;
        for _ in 0..2 {
            let handle = start(mk_config(mode)).expect("start experiment server");
            let mut warm = Client::connect(&handle.addr().to_string()).expect("warm connect");
            for algo in algos {
                for source in 0..8 {
                    let v = warm
                        .request_json(&format!(
                            "{{\"op\":\"query\",\"graph\":\"rmat\",\"algo\":\"{}\",\
                             \"backend\":\"par\",\"source\":{source}}}",
                            algo.as_str()
                        ))
                        .expect("warm query");
                    assert_eq!(v.bool_field("ok"), Some(true), "warm query failed");
                }
            }
            drop(warm);
            let opts = LoadgenOptions {
                addr: handle.addr().to_string(),
                clients: 8,
                requests_per_client: 200,
                graph: "rmat".into(),
                algos: algos.to_vec(),
                backend: "par".into(),
                source_count: 8,
                pipeline: depth,
                ..LoadgenOptions::default()
            };
            let report = run_loadgen(&opts).expect("run loadgen");
            assert_eq!(report.corrupted, 0, "{label}: corrupted responses");
            assert_eq!(report.ok, 8 * 200, "{label}: every request answered");
            handle.shutdown_and_join();
            if report.qps() > best_qps {
                best_qps = report.qps();
                best = Some(report);
            }
        }
        let best = best.unwrap();
        println!(
            "{label:<22} {:>6} {:>9.1} {:>9} {:>9}",
            best.ok,
            best.qps(),
            best.percentile_us(50.0),
            best.percentile_us(95.0),
        );
        qps.push(best_qps);
    }
    let ratio = qps[2] / qps[0].max(1e-9);
    println!("pipelined evented vs threaded closed-loop: {ratio:.2}x (target >= 1.0x)");
    assert!(
        ratio >= 1.0,
        "pipelined evented throughput fell below the threaded closed-loop baseline"
    );

    // -- part 3: cross-front-end response identity ------------------------
    println!("\npart 3: response identity (FNV-1a 64 over the result object, per algo)");
    println!(
        "{:<16} {:>18} {:>18} {:>6}",
        "algo", "threaded", "evented", "match"
    );
    let threaded = start(mk_config(FrontendMode::Threaded)).expect("start threaded server");
    let evented = start(mk_config(FrontendMode::Evented)).expect("start evented server");
    let mut ct = Client::connect(&threaded.addr().to_string()).expect("connect threaded");
    let mut ce = Client::connect(&evented.addr().to_string()).expect("connect evented");
    let mut all_match = true;
    for algo in Algo::ALL {
        let line = format!(
            "{{\"op\":\"query\",\"graph\":\"rmat\",\"algo\":\"{}\",\
             \"backend\":\"par\",\"source\":1}}",
            algo.as_str()
        );
        let rt = ct.request(&line).expect("threaded round-trip");
        let re = ce.request(&line).expect("evented round-trip");
        let (ht, he) = (
            fnv1a64(result_span(&rt).as_bytes()),
            fnv1a64(result_span(&re).as_bytes()),
        );
        let matched = ht == he;
        all_match &= matched;
        println!(
            "{:<16} {ht:>18x} {he:>18x} {:>6}",
            algo.as_str(),
            if matched { "yes" } else { "NO" }
        );
    }
    assert!(all_match, "front-ends disagree on some result payload");
    drop(ct);
    drop(ce);
    threaded.shutdown_and_join();
    evented.shutdown_and_join();
}

/// Poll the `stats` op until the evented front-end's open-connection gauge
/// reaches `want` (accepts happen on the poller thread, asynchronously).
fn wait_for_open_connections(c: &mut gbtl_serve::Client, want: u64) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let v = c.request_json("{\"op\":\"stats\"}").expect("stats op");
        let open = v
            .get("stats")
            .and_then(|s| s.get("net"))
            .and_then(|n| n.u64_field("open_connections"))
            .expect("stats.net.open_connections on the evented front-end");
        if open >= want || std::time::Instant::now() >= deadline {
            return open;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// `VmRSS` of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmRSS:")
                    .and_then(|r| r.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

/// The `"result":{...}` span of a raw response line — the deterministic
/// payload, excluding per-request fields like `micros`.
fn result_span(raw: &str) -> &str {
    let start = raw
        .find("\"result\":")
        .expect("response has a result object");
    let body = &raw[start..];
    let open = body.find('{').expect("result object opens");
    let mut depth = 0usize;
    for (i, b) in body.as_bytes().iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &body[..=i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated result object in {raw:?}");
}

/// FNV-1a 64 over a byte stream (the same fingerprint gbtl-serve embeds in
/// result checksums).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// R-W5: zero-copy operand resolution + versioned transpose cache +
/// workspace reuse on the hot dispatch path (EXPERIMENTS.md).
///
/// Pull-direction BFS re-derives Aᵀ every level; with the cache the build
/// happens once per (matrix, version) and every later level is a hit. The
/// reference run uses [`TransposeCache::disabled`] — results must be
/// bit-identical either way, on every backend.
fn ws_operand_resolution() {
    use gbtl_core::TransposeCache;

    print_title(
        "R-W5: transpose cache + workspace reuse (pull BFS, whole traversal)",
        "cache off rebuilds A^T once per BFS level; cache on builds it once and \
         serves every later level from the (id, version)-keyed store, so wall \
         time approaches the push-style floor. Results are asserted bit-identical \
         across cache on/off on all three backends",
    );
    println!(
        "{:<22} {:>8} {:>9} {:>11} {:>11} {:>9} {:>6} {:>7}",
        "workload", "n", "nnz", "cache off", "cache on", "speedup", "hits", "misses"
    );

    fn bench_backend<B: Backend>(label: &str, a: &Matrix<bool>, make: &dyn Fn() -> Context<B>) {
        // reference: memoization-free, fresh context per run
        let baseline = make().with_transpose_cache(TransposeCache::disabled());
        let expected = bfs_levels(&baseline, a, 0, Direction::Pull).unwrap();
        let off = time_best(2, || {
            let ctx = make().with_transpose_cache(TransposeCache::disabled());
            let _ = bfs_levels(&ctx, a, 0, Direction::Pull).unwrap();
        });
        // cached: one shared store across the timed repeats, like a resident
        // server; the first traversal builds A^T, later ones only hit
        let cached_ctx = make();
        let levels = bfs_levels(&cached_ctx, a, 0, Direction::Pull).unwrap();
        assert_eq!(levels, expected, "{label}: cache changed the result");
        let on = time_best(2, || {
            let _ = bfs_levels(&cached_ctx, a, 0, Direction::Pull).unwrap();
        });
        let cs = cached_ctx.transpose_cache_stats();
        println!(
            "{:<22} {:>8} {:>9} {:>11.3?} {:>11.3?} {:>8.2}x {:>6} {:>7}",
            label,
            a.nrows(),
            a.nnz(),
            off,
            on,
            off.as_secs_f64() / on.as_secs_f64().max(1e-12),
            cs.hits,
            cs.misses,
        );
    }

    for scale in [12u32, 14] {
        let a = rmat_graph(scale, 16, 7);
        bench_backend(&format!("rmat{scale} pull-bfs seq"), &a, &seq_ctx);
        bench_backend(&format!("rmat{scale} pull-bfs par"), &a, &|| {
            par_ctx(host_threads())
        });
        bench_backend(&format!("rmat{scale} pull-bfs cuda"), &a, &cuda_ctx);
    }

    // SpGEMM is the workspace-heavy op: the dense accumulator, touched-column
    // scratch (seq/par), and ESC staging buffers (cuda) all come from the
    // thread-local pools, so repeat products reuse instead of reallocating.
    println!("\nworkspace reuse: C = A*A (rmat12, f64), 3 consecutive products per backend");
    println!(
        "{:<12} {:>11} {:>8} {:>8} {:>8} {:>11}",
        "backend", "best time", "takes", "reuses", "allocs", "reuse rate"
    );
    fn mxm_runs<B: Backend>(label: &str, af: &Matrix<f64>, ctx: Context<B>) {
        let before = gbtl_core::workspace::stats();
        let t = time_best(3, || {
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.mxm(
                &mut c,
                None,
                no_accum(),
                PlusTimes::new(),
                af,
                af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let after = gbtl_core::workspace::stats();
        let (takes, reuses, allocs) = (
            after.takes - before.takes,
            after.reuses - before.reuses,
            after.allocs - before.allocs,
        );
        println!(
            "{:<12} {:>11.3?} {:>8} {:>8} {:>8} {:>10.1}%",
            label,
            t,
            takes,
            reuses,
            allocs,
            reuses as f64 / (takes as f64).max(1.0) * 100.0
        );
    }
    let af = typed(&rmat_graph(12, 16, 7), 1.0f64);
    mxm_runs("sequential", &af, seq_ctx());
    mxm_runs("parallel", &af, par_ctx(host_threads()));
    mxm_runs("cuda-sim", &af, cuda_ctx());

    let ws = gbtl_core::workspace::stats();
    println!(
        "\nkernel workspaces (process-wide): takes {}  reuses {}  allocs {}  reuse rate {:.1}%",
        ws.takes,
        ws.reuses,
        ws.allocs,
        ws.reuse_rate() * 100.0
    );
}

/// R-T2: overhead of the gbtl-trace instrumentation (EXPERIMENTS.md).
fn tr_trace_overhead() {
    print_title(
        "R-T2: op-trace overhead (BFS end to end, rmat14)",
        "off is a dead branch per op, indistinguishable from untraced; summary \
         mode records one span per GraphBLAS op and stays within a few percent",
    );
    let a = rmat_graph(14, 16, 7);
    println!(
        "{:<16} {:>12} {:>12} {:>9}",
        "backend", "trace off", "summary", "overhead"
    );
    overhead_row("sequential", &a, seq_ctx);
    overhead_row("parallel", &a, || par_ctx(host_threads()));
    overhead_row("cuda-sim", &a, cuda_ctx);

    println!("\nsample traced report (rmat10 BFS + triangles, all backends):");
    let small = rmat_graph(10, 16, 7);
    report_for(&small, seq_ctx());
    report_for(&small, par_ctx(host_threads()));
    report_for(&small, cuda_ctx());
}

fn overhead_row<B: Backend>(label: &str, a: &Matrix<bool>, make: impl Fn() -> Context<B>) {
    let off = time_best(3, || {
        let ctx = make().with_trace_mode(TraceMode::Off);
        let _ = bfs_levels(&ctx, a, 0, Direction::Push).unwrap();
    });
    let on = time_best(3, || {
        let ctx = make().with_trace_mode(TraceMode::Summary);
        let _ = bfs_levels(&ctx, a, 0, Direction::Push).unwrap();
    });
    let delta = on.as_secs_f64() - off.as_secs_f64();
    println!(
        "{label:<16} {off:>12.3?} {on:>12.3?} {:>8.1}%",
        delta / off.as_secs_f64().max(1e-12) * 100.0
    );
}

fn report_for<B: Backend>(a: &Matrix<bool>, ctx: Context<B>) {
    let ctx = ctx.with_trace_mode(TraceMode::Summary);
    let _ = bfs_levels(&ctx, a, 0, Direction::Push).unwrap();
    let _ = triangle_count(&ctx, a).unwrap();
    println!("{}", format_table(&ctx.trace()));
}

/// R-P1: work-stealing parallel CPU backend, thread sweep on the two core
/// primitives (SpMV and SpGEMM) plus BFS end to end.
fn p1_par_threads() {
    const THREADS: [usize; 4] = [1, 2, 4, 8];
    print_title(
        "R-P1: parallel CPU backend (work-stealing) thread sweep",
        "wall time falls with threads up to the host core count, then flattens; \
         nnz-balanced row splitting keeps RMAT's skew from serialising the sweep. \
         speedup = seq / best parallel time — bounded above by physical cores",
    );
    println!("host physical parallelism: {} core(s)", host_threads());
    println!(
        "{:<20} {:>8} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11} {:>9}",
        "workload", "n", "nnz", "seq", "par x1", "par x2", "par x4", "par x8", "speedup"
    );

    let print_sweep = |label: &str, n: usize, nnz: usize, seq: Duration, par: [Duration; 4]| {
        let best = par.iter().min().copied().unwrap_or(seq);
        println!(
            "{:<20} {:>8} {:>9} {:>11.3?} {:>11.3?} {:>11.3?} {:>11.3?} {:>11.3?} {:>8.2}x",
            label,
            n,
            nnz,
            seq,
            par[0],
            par[1],
            par[2],
            par[3],
            seq.as_secs_f64() / best.as_secs_f64().max(1e-12)
        );
    };

    // SpMV on RMAT (skewed rows — the load-balancing stress case).
    for scale in [14u32, 16] {
        let a = rmat_graph(scale, 16, 42);
        let af = typed(&a, 1.0f64);
        let u = Vector::filled(a.ncols(), 1.0f64);
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            let mut w = Vector::new(af.nrows());
            ctx.mxv(
                &mut w,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let par = THREADS.map(|t| {
            time_best(3, || {
                let ctx = par_ctx(t);
                let mut w = Vector::new(af.nrows());
                ctx.mxv(
                    &mut w,
                    None,
                    no_accum(),
                    PlusTimes::new(),
                    &af,
                    &u,
                    &Descriptor::new(),
                )
                .unwrap();
            })
        });
        print_sweep(&format!("rmat{scale} mxv"), a.nrows(), a.nnz(), seq, par);
    }

    // SpGEMM (C = A*A), skewed and uniform degree distributions.
    for (label, a) in [
        ("rmat12 mxm".to_string(), rmat_graph(12, 16, 42)),
        ("er14 mxm".into(), er_graph(14, 16, 42)),
    ] {
        let af = typed(&a, 1.0f64);
        let seq = time_best(1, || {
            let ctx = seq_ctx();
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.mxm(
                &mut c,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let par = THREADS.map(|t| {
            time_best(1, || {
                let ctx = par_ctx(t);
                let mut c = Matrix::new(af.nrows(), af.ncols());
                ctx.mxm(
                    &mut c,
                    None,
                    no_accum(),
                    PlusTimes::new(),
                    &af,
                    &af,
                    &Descriptor::new(),
                )
                .unwrap();
            })
        });
        print_sweep(&label, a.nrows(), a.nnz(), seq, par);
    }

    // An algorithm end to end: BFS rides the same kernels through the
    // frontend with zero algorithm changes.
    let a = rmat_graph(16, 16, 7);
    let seq = time_best(2, || {
        let _ = bfs_levels(&seq_ctx(), &a, 0, Direction::Push).unwrap();
    });
    let par = THREADS.map(|t| {
        time_best(2, || {
            let _ = bfs_levels(&par_ctx(t), &a, 0, Direction::Push).unwrap();
        })
    });
    print_sweep("rmat16 bfs", a.nrows(), a.nnz(), seq, par);
}

/// R-T1: primitive-operation timings, sequential vs simulated CUDA.
fn t1_primitives() {
    print_header(
        "R-T1: GraphBLAS primitive timings (RMAT ef=16)",
        "device wins the bandwidth-shaped ops (mxv, reduce, transpose, ewise) at scale; \
         mxm is closer (ESC pays sort traffic vs Gustavson)",
    );
    for scale in [12u32, 14] {
        let a = rmat_graph(scale, 16, 42);
        let af = typed(&a, 1.0f64);
        let u = Vector::filled(a.ncols(), 1.0f64);

        // mxv
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            let mut w = Vector::new(af.nrows());
            ctx.mxv(
                &mut w,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut w = Vector::new(af.nrows());
            ctx.mxv(
                &mut w,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &u,
                &Descriptor::new(),
            )
            .unwrap();
        });
        print_row(&row(format!("rmat{scale} mxv"), &a, seq, wall, model));

        // eWiseAdd (A + A)
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.ewise_add_mat(
                &mut c,
                None,
                no_accum(),
                gbtl_algebra::Plus::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.ewise_add_mat(
                &mut c,
                None,
                no_accum(),
                gbtl_algebra::Plus::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        print_row(&row(format!("rmat{scale} ewise_add"), &a, seq, wall, model));

        // reduce
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            std::hint::black_box(ctx.reduce_mat_scalar(PlusMonoid::<f64>::new(), &af));
        });
        let (wall, model) = time_cuda(|ctx| {
            std::hint::black_box(ctx.reduce_mat_scalar(PlusMonoid::<f64>::new(), &af));
        });
        print_row(&row(format!("rmat{scale} reduce"), &a, seq, wall, model));

        // transpose
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            let mut c = Matrix::new(af.ncols(), af.nrows());
            ctx.transpose(&mut c, None, no_accum(), &af, &Descriptor::new())
                .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut c = Matrix::new(af.ncols(), af.nrows());
            ctx.transpose(&mut c, None, no_accum(), &af, &Descriptor::new())
                .unwrap();
        });
        print_row(&row(format!("rmat{scale} transpose"), &a, seq, wall, model));

        // apply
        let seq = time_best(3, || {
            let ctx = seq_ctx();
            std::hint::black_box(
                ctx.apply_mat_new(gbtl_algebra::AdditiveInverse::<f64>::new(), &af),
            );
        });
        let (wall, model) = time_cuda(|ctx| {
            std::hint::black_box(
                ctx.apply_mat_new(gbtl_algebra::AdditiveInverse::<f64>::new(), &af),
            );
        });
        print_row(&row(format!("rmat{scale} apply"), &a, seq, wall, model));

        // mxm (smaller scale only; Gustavson flops grow fast on RMAT)
        if scale <= 12 {
            let seq = time_best(1, || {
                let ctx = seq_ctx();
                let mut c = Matrix::new(af.nrows(), af.ncols());
                ctx.mxm(
                    &mut c,
                    None,
                    no_accum(),
                    PlusTimes::new(),
                    &af,
                    &af,
                    &Descriptor::new(),
                )
                .unwrap();
            });
            let (wall, model) = time_cuda(|ctx| {
                let mut c = Matrix::new(af.nrows(), af.ncols());
                ctx.mxm(
                    &mut c,
                    None,
                    no_accum(),
                    PlusTimes::new(),
                    &af,
                    &af,
                    &Descriptor::new(),
                )
                .unwrap();
            });
            print_row(&row(format!("rmat{scale} mxm"), &a, seq, wall, model));
        }
    }
}

/// R-F1: BFS across scales (+ a grid), both backends.
fn f1_bfs() {
    print_header(
        "R-F1: BFS time vs graph scale",
        "device speedup grows with scale on RMAT (big frontiers); launch overhead \
         dominates on small graphs and on the high-diameter grid (many tiny kernels) — \
         crossover in between",
    );
    for scale in [10u32, 12, 14, 16] {
        let a = rmat_graph(scale, 16, 7);
        let seq = time_best(2, || {
            let _ = bfs_levels(&seq_ctx(), &a, 0, Direction::Push).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = bfs_levels(ctx, &a, 0, Direction::Push).unwrap();
        });
        print_row(&row(format!("rmat{scale} bfs"), &a, seq, wall, model));
    }
    for side in [64usize, 128] {
        let a = grid_graph(side);
        let seq = time_best(2, || {
            let _ = bfs_levels(&seq_ctx(), &a, 0, Direction::Push).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = bfs_levels(ctx, &a, 0, Direction::Push).unwrap();
        });
        print_row(&row(format!("grid{side}x{side} bfs"), &a, seq, wall, model));
    }
}

/// R-F2: SSSP (Bellman–Ford) across scales.
fn f2_sssp() {
    print_header(
        "R-F2: SSSP (delta Bellman-Ford, min-plus) vs scale",
        "same shape as BFS but more rounds and real weight traffic; grid is the \
         worst case for the device (thousands of tiny kernels)",
    );
    for scale in [10u32, 12, 14] {
        let a = weighted(&rmat_graph(scale, 16, 7), 13);
        let seq = time_best(2, || {
            let _ = sssp(&seq_ctx(), &a, 0).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = sssp(ctx, &a, 0).unwrap();
        });
        let label = format!("rmat{scale} sssp");
        print_row(&Row {
            label,
            n: a.nrows(),
            nnz: a.nnz(),
            seq,
            cuda_wall: wall,
            cuda_modeled: model,
        });
    }
    let a = weighted(&grid_graph(64), 13);
    let seq = time_best(2, || {
        let _ = sssp(&seq_ctx(), &a, 0).unwrap();
    });
    let (wall, model) = time_cuda(|ctx| {
        let _ = sssp(ctx, &a, 0).unwrap();
    });
    print_row(&Row {
        label: "grid64x64 sssp".into(),
        n: a.nrows(),
        nnz: a.nnz(),
        seq,
        cuda_wall: wall,
        cuda_modeled: model,
    });
}

/// Multiply-adds of the triangle count written as `C<L> = L·L` (`Σ up·down`),
/// `C<L> = L·Lᵀ` (`Σ up²`) and `C<U> = U·Uᵀ` (`Σ down²`), with `down(k)` /
/// `up(k)` the neighbours of `k` below / above it.
fn triangle_flops(a: &Matrix<bool>) -> [u64; 3] {
    let mut flops = [0u64; 3];
    for k in 0..a.nrows() {
        let cols = a.csr().row(k).0;
        let down = cols.partition_point(|&j| j < k) as u64;
        let up = cols.len() as u64 - down; // generated graphs: no self-loops
        flops[0] += up * down;
        flops[1] += up * up;
        flops[2] += down * down;
    }
    flops
}

/// R-F3: PageRank and triangle counting.
fn f3_pr_tc() {
    print_header(
        "R-F3: PageRank (20 iters) and triangle counting",
        "PageRank: dense mxv iterations, device wins at scale. Triangles: the \
         masked product L·L (printed: its multiply-adds beside the rejected L·Lᵀ \
         and U·Uᵀ); RMAT's wedge explosion makes it far heavier than the ER \
         graph of equal size on both backends",
    );
    let opts = PageRankOptions {
        damping: 0.85,
        tolerance: 0.0, // fixed 20 iterations for comparable work
        max_iters: 20,
    };
    for scale in [10u32, 12, 14] {
        let a = rmat_graph(scale, 16, 7);
        let seq = time_best(1, || {
            let _ = gbtl_algorithms::pagerank(&seq_ctx(), &a, opts).unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let _ = gbtl_algorithms::pagerank(ctx, &a, opts).unwrap();
        });
        print_row(&row(format!("rmat{scale} pagerank"), &a, seq, wall, model));
    }
    for scale in [10u32, 12] {
        for (family, a) in [
            ("rmat", rmat_graph(scale, 16, 7)),
            ("er", er_graph(scale, 16, 7)),
        ] {
            let seq = time_best(1, || {
                let _ = triangle_count(&seq_ctx(), &a).unwrap();
            });
            let (wall, model) = time_cuda(|ctx| {
                let _ = triangle_count(ctx, &a).unwrap();
            });
            print_row(&row(
                format!("{family}{scale} triangles"),
                &a,
                seq,
                wall,
                model,
            ));
            let [ll, llt, uut] = triangle_flops(&a);
            println!("    multiply-adds: L·L={ll} (run)  L·Lᵀ={llt}  U·Uᵀ={uut}");
        }
    }
}

/// R-F4: SpGEMM sparsity sweep — ESC vs Gustavson as density grows.
fn f4_mxm_sweep() {
    print_header(
        "R-F4: mxm (C = A*A) on ER n=4096, average degree sweep",
        "both costs scale with flops (= candidate volume ~ n*deg^2); the modeled \
         device speedup rises with density and saturates at the bandwidth-bound \
         ceiling once ESC's sort traffic dominates both sides",
    );
    for deg in [2usize, 4, 8, 16, 32] {
        let a = er_graph(12, deg, 11);
        let af = typed(&a, 1.0f64);
        let seq = time_best(1, || {
            let ctx = seq_ctx();
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.mxm(
                &mut c,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        let (wall, model) = time_cuda(|ctx| {
            let mut c = Matrix::new(af.nrows(), af.ncols());
            ctx.mxm(
                &mut c,
                None,
                no_accum(),
                PlusTimes::new(),
                &af,
                &af,
                &Descriptor::new(),
            )
            .unwrap();
        });
        print_row(&row(format!("er deg={deg} mxm"), &a, seq, wall, model));
    }
}

/// R-A1: scalar vs vector CSR SpMV kernels, skewed vs uniform degrees.
fn a1_spmv_kernels() {
    print_title(
        "R-A1 (ablation): CSR scalar / CSR vector / ELL / HYB SpMV kernels",
        "vector (warp-per-row) beats scalar (thread-per-row), more so on skewed \
         RMAT; ELL coalesces perfectly but pays max-degree padding (best on \
         uniform ER, catastrophic on RMAT); HYB's ELL+COO split tames ELL's \
         blowup but RMAT's heavy tail still routes most entries through the \
         atomic overflow kernel — the reason later systems moved to CSR \
         load-balancing",
    );
    println!(
        "{:<16} {:>9} {:>10} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8}",
        "workload",
        "n",
        "nnz",
        "scalar txns",
        "vector txns",
        "ell txns",
        "pad%",
        "hyb txns",
        "ovfl%"
    );
    for scale in [12u32, 14] {
        for (family, a) in [
            ("rmat", rmat_graph(scale, 16, 5)),
            ("er", er_graph(scale, 16, 5)),
        ] {
            let af = typed(&a, 1.0f64);
            let u = Vector::filled(a.ncols(), 1.0f64);
            let txns = |kernel: SpmvKernel| {
                let ctx = cuda_ctx().with_spmv_kernel(kernel);
                let mut w = Vector::new(af.nrows());
                ctx.mxv(
                    &mut w,
                    None,
                    no_accum(),
                    PlusTimes::new(),
                    &af,
                    &u,
                    &Descriptor::new(),
                )
                .unwrap();
                ctx.gpu_stats().mem_transactions
            };
            let s = txns(SpmvKernel::Scalar);
            let v = txns(SpmvKernel::Vector);
            // ELL through the backend directly (real systems pre-convert)
            let ell = gbtl_sparse::EllMatrix::from_csr(af.csr(), 0.0f64);
            let gpu = gbtl_gpu_sim::Gpu::new(gbtl_gpu_sim::GpuConfig::k40());
            let _ = gbtl_backend_cuda::mxv_ell(
                &gpu,
                &ell,
                &u.to_dense_repr(),
                PlusTimes::<f64>::new(),
                None,
            );
            let est = gpu.stats();
            // HYB with the CUSP heuristic width
            let hyb = gbtl_sparse::HybMatrix::from_csr(af.csr(), 0.0f64);
            let gpu_h = gbtl_gpu_sim::Gpu::new(gbtl_gpu_sim::GpuConfig::k40());
            let _ = gbtl_backend_cuda::mxv_hyb(
                &gpu_h,
                &hyb,
                &u.to_dense_repr(),
                PlusTimes::<f64>::new(),
                None,
            );
            let hst = gpu_h.stats();
            println!(
                "{:<16} {:>9} {:>10} {:>12} {:>12} {:>12} {:>7.1}% {:>12} {:>7.1}%",
                format!("{family}{scale}"),
                a.nrows(),
                a.nnz(),
                s,
                v,
                est.mem_transactions,
                ell.padding_ratio() * 100.0,
                hst.mem_transactions + hst.atomic_ops * 4, // effective txns incl. atomic penalty
                hyb.overflow_ratio() * 100.0
            );
        }
    }
}

/// R-A2: masked vs unmasked mxv, and push vs pull BFS.
fn a2_mask_direction() {
    print_title(
        "R-A2 (ablation): masking and direction",
        "pushing the mask into the kernel skips masked rows entirely, so modeled \
         traffic tracks the kept fraction; push beats pull on sparse frontiers and \
         loses on dense ones",
    );
    let a = rmat_graph(14, 16, 5);
    let af = typed(&a, 1.0f64);
    let u = Vector::filled(a.ncols(), 1.0f64);
    let n = a.nrows();

    println!(
        "{:<28} {:>14} {:>16}",
        "mask kept fraction", "mem txns", "modeled time"
    );
    for keep_every in [1usize, 4, 16, 64] {
        let mask = if keep_every == 1 {
            None
        } else {
            let mut m = Vector::new(n);
            for i in (0..n).step_by(keep_every) {
                m.set(i, true);
            }
            Some(m)
        };
        let ctx = cuda_ctx();
        let mut w = Vector::new(n);
        ctx.mxv(
            &mut w,
            mask.as_ref(),
            no_accum(),
            PlusTimes::new(),
            &af,
            &u,
            &Descriptor::new(),
        )
        .unwrap();
        let s = ctx.gpu_stats();
        println!(
            "{:<28} {:>14} {:>14.1} us",
            format!("1/{keep_every}"),
            s.mem_transactions,
            s.modeled_time_us()
        );
    }

    println!("\npush vs pull BFS (whole traversal, modeled device time):");
    println!("{:<20} {:>14} {:>14}", "graph", "push", "pull");
    for (label, g) in [
        ("rmat12".to_string(), rmat_graph(12, 16, 5)),
        ("grid64".into(), grid_graph(64)),
    ] {
        let t = |d: Direction| {
            let ctx = cuda_ctx();
            let _ = bfs_levels(&ctx, &g, 0, d).unwrap();
            Duration::from_secs_f64(ctx.gpu_stats().modeled_time_s)
        };
        println!(
            "{label:<20} {:>14.3?} {:>14.3?}",
            t(Direction::Push),
            t(Direction::Pull)
        );
    }
}

/// R-D10: adaptive push/pull direction optimization — the per-iteration
/// decision records on rmat14 (the push→pull→push crossover the edge-cost
/// rule takes by itself), whole-traversal time of auto against both forced
/// modes — and against the **best** of them — for BFS and SSSP on all
/// three backends, and bit-identity of the three modes' results
/// (EXPERIMENTS.md).
fn d10_direction() {
    print_title(
        "R-D10: adaptive push/pull direction (edge-cost rule, dual frontiers)",
        "auto pushes a sparse frontier, pulls the level whose frontier carries \
         more edges than the unvisited rows hold (bitmap frontier against the \
         cached Aᵀ), never pulls SSSP's unmasked rounds on the CPU backends, \
         and is no slower than the best forced mode; results bit-identical",
    );
    let a = rmat_graph(14, 16, 7);
    let w = weighted(&a, 13);
    let n = a.nrows();
    println!("graph rmat14: {n} vertices, {} edges", a.nnz());

    // Per-iteration trace: one context with op tracing on and Aᵀ prewarmed
    // (so the pull gate is open), then a single auto BFS — the level spans
    // are the decision records: what each level chose and from what.
    let ctx = par_ctx(host_threads()).with_trace_mode(TraceMode::Summary);
    ctx.prewarm_transpose(&a);
    let _ = bfs_levels(&ctx, &a, 0, Direction::Auto).unwrap();
    println!("\nper-iteration decisions (par backend, auto):");
    println!(
        "{:<8} {:>14} {:>12} {:>12} {:>6} {:>8} {:>12}",
        "level", "frontier_nnz", "push_edges", "pull_edges", "dir", "rep", "time"
    );
    let mut dirs: Vec<String> = Vec::new();
    for span in ctx.trace().spans.iter().filter(|s| s.fields.op == "level") {
        // "bfs dir=push rep=sparse push_edges=.. pull_edges=.. pull_ready=.."
        let field = |key: &str| -> &str {
            let rest = span.fields.op_label.split(key).nth(1).unwrap_or("?");
            rest.split(' ').next().unwrap_or("?")
        };
        dirs.push(field("dir=").to_string());
        println!(
            "{:<8} {:>14} {:>12} {:>12} {:>6} {:>8} {:>9.1} us",
            span.fields.dims.trim_start_matches("level="),
            span.fields.nnz_in,
            field("push_edges="),
            field("pull_edges="),
            field("dir="),
            field("rep="),
            span.duration_ns as f64 / 1000.0
        );
    }
    let crossover = dirs.iter().any(|d| d == "push") && dirs.iter().any(|d| d == "pull");
    println!(
        "crossover taken automatically: {}",
        if crossover {
            "yes (both push and pull levels present)"
        } else {
            "NO — trace never switched direction"
        }
    );

    // Whole-traversal comparison. One context per backend, Aᵀ prewarmed
    // once, so every mode sees the same warm cache; cuda reports the
    // cost-model's device time (wall time measures the simulator).
    let report = |label: &str, push: Duration, pull: Duration, auto: Duration| {
        let secs = |d: Duration| d.as_secs_f64().max(1e-12);
        println!(
            "{label:<10} {push:>12.3?} {pull:>12.3?} {auto:>12.3?} {:>13.2}x {:>12.2}x",
            secs(push.max(pull)) / secs(auto),
            secs(push.min(pull)) / secs(auto),
        );
    };
    fn modes(mut run: impl FnMut(Direction) -> Duration) -> (Duration, Duration, Duration) {
        (
            run(Direction::Push),
            run(Direction::Pull),
            run(Direction::Auto),
        )
    }
    fn wall<B: Backend>(
        ctx: &Context<B>,
        a: &Matrix<bool>,
        w: &Matrix<u32>,
    ) -> [(Duration, Duration, Duration); 2] {
        ctx.prewarm_transpose(a);
        ctx.prewarm_transpose(w);
        [
            modes(|d| {
                time_best(5, || {
                    let _ = bfs_levels(ctx, a, 0, d).unwrap();
                })
            }),
            modes(|d| {
                time_best(5, || {
                    let _ = sssp_with_direction(ctx, w, 0, d).unwrap();
                })
            }),
        ]
    }
    let cuda = cuda_ctx();
    cuda.prewarm_transpose(&a);
    cuda.prewarm_transpose(&w);
    let modeled = |run: &dyn Fn()| {
        let t0 = cuda.gpu_stats().modeled_time_s;
        run();
        Duration::from_secs_f64(cuda.gpu_stats().modeled_time_s - t0)
    };
    let cuda_times = [
        modes(|d| {
            modeled(&|| {
                let _ = bfs_levels(&cuda, &a, 0, d).unwrap();
            })
        }),
        modes(|d| {
            modeled(&|| {
                let _ = sssp_with_direction(&cuda, &w, 0, d).unwrap();
            })
        }),
    ];
    let seq_times = wall(&seq_ctx(), &a, &w);
    let par_times = wall(&par_ctx(host_threads()), &a, &w);
    for (k, algo) in ["BFS", "SSSP"].iter().enumerate() {
        println!("\nwhole-traversal {algo}, auto vs forced (best of 5; cuda = modeled):");
        println!(
            "{:<10} {:>12} {:>12} {:>12} {:>14} {:>13}",
            "backend", "push", "pull", "auto", "worse / auto", "best / auto"
        );
        for (label, t) in [
            ("seq", seq_times[k]),
            ("par", par_times[k]),
            ("cuda", cuda_times[k]),
        ] {
            report(label, t.0, t.1, t.2);
        }
    }
    println!(
        "gate: best / auto >= 0.9 on seq and par for both algorithms \
         (cuda-sim keeps its vertex-count rule)"
    );

    // Bit-identity: the direction is a schedule, never a semantic — the
    // three modes must produce the same level vector on every backend.
    fn identical<B: Backend>(label: &str, a: &Matrix<bool>, ctx: Context<B>) {
        ctx.prewarm_transpose(a);
        let auto = bfs_levels(&ctx, a, 0, Direction::Auto).unwrap();
        let push = bfs_levels(&ctx, a, 0, Direction::Push).unwrap();
        let pull = bfs_levels(&ctx, a, 0, Direction::Pull).unwrap();
        assert_eq!(auto, push, "{label}: auto differs from forced push");
        assert_eq!(auto, pull, "{label}: auto differs from forced pull");
        println!("  {label}: auto == push == pull");
    }
    println!("\nbit-identity of level vectors across modes:");
    identical("seq", &a, seq_ctx());
    identical("par", &a, par_ctx(host_threads()));
    identical("cuda", &a, cuda_ctx());
}

/// R-A3: transfer sensitivity — device-resident vs upload/download per run.
fn a3_transfers() {
    print_title(
        "R-A3 (ablation): PCIe transfer sensitivity of BFS",
        "a one-shot traversal reads each edge O(1) times at device bandwidth while \
         PCIe moves the same bytes ~24x slower, so once launch overheads amortise the \
         transfer share grows toward the bandwidth-ratio limit — end-to-end wins \
         require keeping operands device-resident across runs",
    );
    println!(
        "{:<12} {:>10} {:>16} {:>16} {:>12}",
        "graph", "nnz", "resident model", "with transfers", "xfer share"
    );
    for scale in [10u32, 12, 14, 16] {
        let a = rmat_graph(scale, 16, 7);
        // device-resident: kernels only
        let ctx = cuda_ctx();
        let levels = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        let resident = ctx.gpu_stats().modeled_time_s;
        // end-to-end: upload adjacency, run, download result
        let ctx = cuda_ctx();
        ctx.upload_matrix(&a);
        let levels2 = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        ctx.download_vector(&levels2);
        let total = ctx.gpu_stats().modeled_time_s;
        assert_eq!(levels, levels2);
        println!(
            "{:<12} {:>10} {:>13.1} us {:>13.1} us {:>11.1}%",
            format!("rmat{scale}"),
            a.nnz(),
            resident * 1e6,
            total * 1e6,
            (total - resident) / total * 100.0
        );
    }
}

/// R-A4: device-configuration sensitivity of the cost model.
fn a4_device_sweep() {
    print_title(
        "R-A4 (ablation): cost-model sensitivity to device parameters",
        "level-synchronous BFS launches many small kernels, so launch overhead \
         dominates (time moves linearly with it); the remainder is bandwidth-bound \
         (scales ~1/x with memory bandwidth) and SM count is nearly irrelevant",
    );
    let a = rmat_graph(14, 16, 7);
    let run = |cfg: gbtl_gpu_sim::GpuConfig| {
        let ctx = gbtl_core::Context::cuda(cfg);
        let _ = bfs_levels(&ctx, &a, 0, Direction::Push).unwrap();
        ctx.gpu_stats().modeled_time_s * 1e6
    };

    println!("{:<34} {:>14}", "configuration", "modeled time");
    for variant in 0..6u8 {
        let mut cfg = gbtl_gpu_sim::GpuConfig::k40();
        let label = match variant {
            0 => "baseline (K40)",
            1 => {
                cfg.mem_bandwidth_gbps *= 2.0;
                "2x memory bandwidth"
            }
            2 => {
                cfg.mem_bandwidth_gbps /= 2.0;
                "1/2 memory bandwidth"
            }
            3 => {
                cfg.sm_count *= 2;
                "2x SM count"
            }
            4 => {
                cfg.kernel_launch_us = 0.0;
                "zero launch overhead"
            }
            _ => {
                cfg.kernel_launch_us *= 4.0;
                "4x launch overhead"
            }
        };
        println!("{:<34} {:>11.1} us", label, run(cfg));
    }
}

fn row(label: String, a: &Matrix<bool>, seq: Duration, wall: Duration, model: Duration) -> Row {
    Row {
        label,
        n: a.nrows(),
        nnz: a.nnz(),
        seq,
        cuda_wall: wall,
        cuda_modeled: model,
    }
}

/// R-H7: sharded catalog — multi-graph qps scaling with shard count,
/// snapshot restore+prewarm vs a cold Matrix Market reload, and exact
/// scatter-gather stats agreement (EXPERIMENTS.md).
fn sh_sharding() {
    use std::collections::HashMap;
    use std::time::Instant;

    use gbtl_serve::protocol::Algo;
    use gbtl_serve::{run_loadgen, start, Client, LoadgenOptions, ServerConfig};
    use gbtl_shard::{start_sharded, ShardConfig};

    print_title(
        "R-H7: sharded catalog (gbtl-shard) — qps scaling, snapshot restore, merge",
        "a multi-graph zipf workload over 8 graphs scales with shard count \
         because every shard brings its own worker pool and queue; restoring a \
         binary .gbsnap (with the transpose cache prewarmed on load) beats \
         re-parsing the Matrix Market text of the same graph to first answer; \
         and the router's merged stats agree exactly with the sum of the \
         per-shard snapshots because both are rendered from one set of \
         snapshots",
    );

    // -- part 1: qps vs shard count ---------------------------------------
    // One worker per shard and par_threads 1; cache off so every request
    // executes; zipf 0.5 keeps the hottest graph from dominating entirely.
    // The win has two components: shard-level parallelism where the host
    // has cores for it, and queue separation everywhere — with one shared
    // queue, cheap BFS answers wait behind expensive triangle counts, and
    // a closed-loop client can only issue its next request once the
    // previous one drains the whole line.
    let graph_names: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
    let preload: Vec<(String, String)> = (0..8)
        .map(|i| (format!("g{i}"), format!("rmat:7:8:{i}")))
        .collect();
    println!(
        "part 1: throughput vs shards (8 x rmat7 graphs, zipf 0.5, 1 worker/shard, \
         16 clients x 50, cache off, best of 3)"
    );
    println!(
        "{:<8} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "shards", "ok", "best qps", "p50 us", "p95 us", "speedup"
    );
    let mut baseline_qps = 0.0f64;
    let mut last_speedup = 0.0f64;
    for &shards in &[1usize, 2, 4] {
        let mut best: Option<gbtl_serve::LoadgenReport> = None;
        for _ in 0..3 {
            let handle = start_sharded(ShardConfig {
                shards,
                pins: HashMap::new(),
                base: ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 1,
                    queue_capacity: 256,
                    cache_capacity: 0,
                    default_deadline_ms: 60_000,
                    par_threads: 1,
                    metrics: true,
                    slow_log_capacity: 16,
                    preload: preload.clone(),
                    ..ServerConfig::default()
                },
            })
            .expect("start sharded server");
            let report = run_loadgen(&LoadgenOptions {
                addr: handle.addr().to_string(),
                clients: 16,
                requests_per_client: 50,
                graphs: graph_names.clone(),
                zipf: 0.5,
                algos: vec![Algo::Bfs, Algo::Pagerank, Algo::TriangleCount],
                backend: "par".into(),
                source_count: 8,
                ..LoadgenOptions::default()
            })
            .expect("run loadgen");
            assert_eq!(report.corrupted, 0, "corrupted responses through router");
            if best.as_ref().is_none_or(|b| report.qps() > b.qps()) {
                best = Some(report);
            }
            handle.shutdown_and_join();
        }
        let best = best.unwrap();
        if shards == 1 {
            baseline_qps = best.qps();
        }
        last_speedup = best.qps() / baseline_qps;
        println!(
            "{:<8} {:>6} {:>9.1} {:>9} {:>9} {:>8.2}x",
            shards,
            best.ok,
            best.qps(),
            best.percentile_us(50.0),
            best.percentile_us(95.0),
            last_speedup,
        );
    }
    assert!(
        last_speedup >= 1.5,
        "4 shards should beat 1 shard by >= 1.5x on a multi-graph workload, \
         got {last_speedup:.2}x"
    );

    // -- part 2: snapshot restore vs cold Matrix Market reload ------------
    // The same rmat14 graph twice: once as Matrix Market text (the cold
    // path re-parses and re-symmetrizes it), once as a binary .gbsnap
    // (length-checked bulk CSR reads + transpose prewarm). Both timings
    // run load/restore plus the first BFS answer on a fresh server.
    println!("\npart 2: rmat14 to first BFS answer — .gbsnap restore vs mtx re-parse");
    let dir = std::env::temp_dir().join(format!("gbtl_rh7_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create experiment dir");
    let mtx_path = dir.join("big.mtx");
    {
        let a = rmat_graph(14, 32, 7);
        let (r, c, v) = a.extract_tuples();
        let coo = gbtl_sparse::CooMatrix::from_triples(a.nrows(), a.ncols(), r, c, v)
            .expect("valid matrix");
        gbtl_sparse::mmio::write_coo_file(&coo, &mtx_path).expect("write mtx");
        println!(
            "graph: n={}, nnz={}, mtx bytes={}",
            a.nrows(),
            a.nnz(),
            std::fs::metadata(&mtx_path).unwrap().len()
        );
    }
    let mk_config = |preload: Vec<(String, String)>| ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 0,
        default_deadline_ms: 60_000,
        par_threads: 2,
        snapshot_dir: Some(dir.display().to_string()),
        preload,
        ..ServerConfig::default()
    };
    // seed the .gbsnap from a server that parsed the mtx once
    {
        let handle = start(mk_config(vec![(
            "big".into(),
            format!("mtx:{}", mtx_path.display()),
        )]))
        .expect("start seeding server");
        let mut c = Client::connect(&handle.addr().to_string()).expect("connect");
        let v = c
            .request_json("{\"op\":\"snapshot\",\"graph\":\"big\"}")
            .expect("snapshot");
        assert_eq!(v.bool_field("ok"), Some(true), "{v:?}");
        handle.shutdown_and_join();
    }
    let first_query =
        "{\"op\":\"query\",\"graph\":\"big\",\"algo\":\"bfs\",\"backend\":\"seq\",\"source\":0}";
    let time_to_answer = |load_line: &str| -> (Duration, u64, u64) {
        let handle = start(mk_config(Vec::new())).expect("start measured server");
        let mut c = Client::connect(&handle.addr().to_string()).expect("connect");
        let t0 = Instant::now();
        let v = c.request_json(load_line).expect("load/restore");
        assert_eq!(v.bool_field("ok"), Some(true), "{v:?}");
        let load_us = v.u64_field("micros").unwrap_or(0);
        let v = c.request_json(first_query).expect("first query");
        assert_eq!(v.bool_field("ok"), Some(true), "{v:?}");
        let query_us = v.u64_field("micros").unwrap_or(0);
        let elapsed = t0.elapsed();
        handle.shutdown_and_join();
        (elapsed, load_us, query_us)
    };
    let load_line = format!(
        "{{\"op\":\"load\",\"name\":\"big\",\"spec\":\"mtx:{}\"}}",
        mtx_path.display()
    );
    let mut cold = (Duration::MAX, 0, 0);
    let mut warm = (Duration::MAX, 0, 0);
    for _ in 0..3 {
        let c = time_to_answer(&load_line);
        if c.0 < cold.0 {
            cold = c;
        }
        let w = time_to_answer("{\"op\":\"restore\",\"graph\":\"big\"}");
        if w.0 < warm.0 {
            warm = w;
        }
    }
    let ratio = cold.0.as_secs_f64() / warm.0.as_secs_f64();
    println!(
        "{:<28} {:>10.1} ms  (load {:.1} ms, query {:.1} ms)\n\
         {:<28} {:>10.1} ms  (restore {:.1} ms, query {:.1} ms)\n\
         {:<28} {:>9.1}x",
        "cold mtx parse + query",
        cold.0.as_secs_f64() * 1e3,
        cold.1 as f64 / 1e3,
        cold.2 as f64 / 1e3,
        ".gbsnap restore + query",
        warm.0.as_secs_f64() * 1e3,
        warm.1 as f64 / 1e3,
        warm.2 as f64 / 1e3,
        "restore speedup",
        ratio
    );
    assert!(
        ratio >= 10.0,
        "snapshot restore should be >= 10x faster to first answer, got {ratio:.1}x"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // -- part 3: scatter-gather merge agreement ---------------------------
    // After a mixed burst, the router's totals must equal the sum of its
    // per-shard sections field for field — no drift, no sampling.
    println!("\npart 3: merged stats vs sum of per-shard snapshots (4 shards, mixed burst)");
    let handle = start_sharded(ShardConfig {
        shards: 4,
        pins: HashMap::new(),
        base: ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 16,
            default_deadline_ms: 60_000,
            par_threads: 1,
            metrics: true,
            slow_log_capacity: 16,
            preload: preload.clone(),
            ..ServerConfig::default()
        },
    })
    .expect("start sharded server");
    run_loadgen(&LoadgenOptions {
        addr: handle.addr().to_string(),
        clients: 4,
        requests_per_client: 40,
        graphs: graph_names,
        zipf: 1.0,
        algos: vec![Algo::Bfs, Algo::TriangleCount],
        backend: "par".into(),
        source_count: 4,
        ..LoadgenOptions::default()
    })
    .expect("run loadgen");
    let mut c = Client::connect(&handle.addr().to_string()).expect("connect");
    let _ = c.request_json("{\"op\":\"query_all\",\"algo\":\"bfs\",\"source\":0}");
    let v = c.request_json("{\"op\":\"stats\"}").expect("stats");
    let stats = v.get("stats").expect("stats body");
    let per_shard = stats
        .get("per_shard")
        .and_then(|p| p.as_arr())
        .expect("per_shard");
    let totals = stats.get("requests").expect("requests totals");
    let mut checked = 0;
    for field in [
        "received",
        "completed",
        "bad",
        "rejected_overloaded",
        "rejected_shutdown",
        "deadline_expired",
    ] {
        let sum: u64 = per_shard
            .iter()
            .map(|s| s.u64_field(field).expect("per-shard field"))
            .sum();
        assert_eq!(
            totals.u64_field(field),
            Some(sum),
            "stats.requests.{field} drifted from sum(per_shard)"
        );
        checked += 1;
    }
    println!(
        "{checked} counter fields agree exactly across {} shards \
         (received total {})",
        per_shard.len(),
        totals.u64_field("received").unwrap()
    );
    handle.shutdown_and_join();
}
