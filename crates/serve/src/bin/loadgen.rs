//! The `loadgen` binary: drive a running gbtl-serve with concurrent
//! closed-loop clients and report throughput and latency percentiles.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--clients N] [--requests N] [--graph NAME]
//!         [--graphs a,b,c] [--zipf S]
//!         [--algos a,b,c] [--backend seq|par|cuda] [--sources N]
//!         [--direction push|pull|auto]
//!         [--pipeline DEPTH] [--idle N] [--same-graph] [--xray N]
//!         [--load NAME=SPEC]... [--wait-ms N] [--smoke] [--shutdown]
//! ```
//!
//! `--wait-ms` retries the initial connection until the server is up (for
//! scripts that just forked it). `--smoke` runs one query per algorithm and
//! exits non-zero unless every response is well-formed — the CI smoke step.
//! `--shutdown` sends `{"op":"shutdown"}` after the run.
//!
//! `--direction push|pull|auto` forces the traversal direction on every
//! bfs/sssp query (the server's per-request `"direction"` override);
//! `auto` — the default — leaves the choice to the server's per-level
//! heuristic and is omitted from the wire.
//!
//! `--pipeline DEPTH` keeps up to DEPTH requests in flight per connection
//! and verifies in-order responses (the evented front-end's specialty);
//! `--idle N` holds N silent extra connections through the run and fails
//! the run unless every one still answers a ping afterwards.
//!
//! `--graphs a,b,c` switches to the multi-graph workload: each request
//! picks its graph from the list with a zipf-skewed distribution
//! (`--zipf S`, weight `1/(rank+1)^S`, default 1.0; 0 = uniform). The
//! report prints the per-graph request counts actually issued — against a
//! sharded server (`gbtl-shard --shards N`) that shows how hard the hot
//! shard was hit relative to the rest.
//!
//! `--same-graph` switches to the query-fusion burst workload: all
//! `--clients N` clients traverse ONE graph (`--graph`) with the first
//! `--algos` entry, advancing in barrier-synchronized rounds so each
//! round's N requests — each from a distinct root when `--sources` ≥ N —
//! land concurrently. Against `gbtl-serve --fuse on` the rounds coalesce
//! into multi-source batches; the report adds the per-batch (round
//! wall-clock) latency split next to the usual per-request percentiles.
//!
//! `--xray N` marks the first N requests run-wide with `"xray":true` so
//! the server traces them end-to-end; after the run the slowest traced
//! request's span tree is fetched over `{"op":"xray","trace_id":...}` and
//! printed, with one line per span (name, duration, attributes) indented
//! by causal depth — the net → router → fuse → pool → kernel breakdown of
//! a real request from this very run.

use gbtl_serve::protocol::Algo;
use gbtl_serve::{fetch_server_latency, run_loadgen, Client, LoadgenOptions};
use gbtl_util::json::Value;

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--addr HOST:PORT] [--clients N] [--requests N] [--graph NAME]\n\
         \x20              [--graphs a,b,c] [--zipf S]\n\
         \x20              [--algos a,b,c] [--backend seq|par|cuda] [--sources N]\n\
         \x20              [--direction push|pull|auto]\n\
         \x20              [--pipeline DEPTH] [--idle N] [--same-graph] [--xray N]\n\
         \x20              [--load NAME=SPEC]... [--wait-ms N] [--smoke] [--shutdown]"
    );
    std::process::exit(2);
}

struct Cli {
    opts: LoadgenOptions,
    loads: Vec<(String, String)>,
    wait_ms: u64,
    smoke: bool,
    shutdown: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        opts: LoadgenOptions::default(),
        loads: Vec::new(),
        wait_ms: 0,
        smoke: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("loadgen: {arg} needs a {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => cli.opts.addr = value("HOST:PORT"),
            "--clients" => cli.opts.clients = parse_num(&value("count")),
            "--requests" => cli.opts.requests_per_client = parse_num(&value("count")),
            "--graph" => cli.opts.graph = value("NAME"),
            "--graphs" => {
                cli.opts.graphs = value("a,b,c")
                    .split(',')
                    .map(|g| g.trim().to_string())
                    .filter(|g| !g.is_empty())
                    .collect();
                if cli.opts.graphs.is_empty() {
                    eprintln!("loadgen: --graphs wants a non-empty list");
                    usage()
                }
            }
            "--zipf" => cli.opts.zipf = parse_num(&value("skew")),
            "--backend" => cli.opts.backend = value("name"),
            "--sources" => cli.opts.source_count = parse_num(&value("count")),
            "--direction" => {
                let d = value("push|pull|auto");
                if gbtl_core::Direction::parse(&d).is_none() {
                    eprintln!("loadgen: --direction wants push|pull|auto, got {d:?}");
                    usage()
                }
                cli.opts.direction = d;
            }
            "--pipeline" => cli.opts.pipeline = parse_num(&value("depth")),
            "--idle" => cli.opts.idle_conns = parse_num(&value("count")),
            "--same-graph" => cli.opts.same_graph = true,
            "--xray" => cli.opts.xray = parse_num(&value("count")),
            "--algos" => {
                let list = value("a,b,c");
                cli.opts.algos = list
                    .split(',')
                    .map(|a| {
                        Algo::parse(a.trim()).unwrap_or_else(|e| {
                            eprintln!("loadgen: {e}");
                            usage()
                        })
                    })
                    .collect();
            }
            "--load" => {
                let spec = value("NAME=SPEC");
                let Some((name, spec)) = spec.split_once('=') else {
                    eprintln!("loadgen: --load wants NAME=SPEC, got {spec:?}");
                    usage()
                };
                cli.loads.push((name.to_string(), spec.to_string()));
            }
            "--wait-ms" => cli.wait_ms = parse_num(&value("ms")),
            "--smoke" => cli.smoke = true,
            "--shutdown" => cli.shutdown = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("loadgen: unknown flag {other:?}");
                usage()
            }
        }
    }
    cli
}

fn parse_num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("loadgen: bad number {s:?}");
        usage()
    })
}

/// Connect, retrying until `wait_ms` has elapsed.
fn connect_patiently(addr: &str, wait_ms: u64) -> std::io::Result<Client> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_millis(wait_ms);
    loop {
        match Client::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if std::time::Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
}

/// One query per algorithm; every response must be well-formed `ok:true`.
/// Then one `load` of a graph past the catalog's bounds must be a
/// `bad_request` the next ping survives. Also exercises the per-request `"direction"` override: every forced
/// mode must answer a bfs query, and a bogus value must be rejected with
/// an error that names the knob.
fn smoke(client: &mut Client, graph: &str, backend: &str) -> Result<(), String> {
    for algo in Algo::ALL {
        let line = format!(
            "{{\"op\":\"query\",\"graph\":\"{graph}\",\"algo\":\"{}\",\
             \"backend\":\"{backend}\",\"source\":0}}",
            algo.as_str()
        );
        let v = client
            .request_json(&line)
            .map_err(|e| format!("{}: {e}", algo.as_str()))?;
        if v.bool_field("ok") != Some(true) {
            return Err(format!(
                "{}: server said {:?}",
                algo.as_str(),
                v.str_field("error").unwrap_or("not ok")
            ));
        }
        if v.str_field("algo") != Some(algo.as_str()) || v.get("result").is_none() {
            return Err(format!("{}: malformed response shape", algo.as_str()));
        }
        println!(
            "smoke {}: ok ({}us)",
            algo.as_str(),
            v.u64_field("micros").unwrap_or(0)
        );
    }
    // a graph far past the catalog's bounds costs one request, not the
    // process: the server refuses it and answers the next ping
    let v = client
        .request_json("{\"op\":\"load\",\"name\":\"huge\",\"spec\":\"grid:100000\"}")
        .map_err(|e| format!("oversized load: {e}"))?;
    if v.str_field("code") != Some("bad_request") {
        return Err(format!("oversized load: expected bad_request, got {v:?}"));
    }
    let pong = client
        .request_json("{\"op\":\"ping\"}")
        .map_err(|e| format!("ping after oversized load: {e}"))?;
    if pong.bool_field("pong") != Some(true) {
        return Err(format!("ping after oversized load: {pong:?}"));
    }
    println!("smoke oversized load: rejected, ping answered");
    for direction in ["push", "pull", "auto"] {
        let line = format!(
            "{{\"op\":\"query\",\"graph\":\"{graph}\",\"algo\":\"bfs\",\
             \"backend\":\"{backend}\",\"source\":0,\"direction\":\"{direction}\"}}"
        );
        let v = client
            .request_json(&line)
            .map_err(|e| format!("bfs direction={direction}: {e}"))?;
        if v.bool_field("ok") != Some(true) {
            return Err(format!(
                "bfs direction={direction}: server said {:?}",
                v.str_field("error").unwrap_or("not ok")
            ));
        }
        println!("smoke bfs direction={direction}: ok");
    }
    let bad = format!(
        "{{\"op\":\"query\",\"graph\":\"{graph}\",\"algo\":\"bfs\",\
         \"backend\":\"{backend}\",\"source\":0,\"direction\":\"sideways\"}}"
    );
    let v = client
        .request_json(&bad)
        .map_err(|e| format!("bad direction: {e}"))?;
    match v.str_field("error") {
        _ if v.bool_field("ok") == Some(true) => {
            return Err("bad direction: server accepted \"sideways\"".into())
        }
        Some(e) if e.contains("direction") => println!("smoke bad direction: rejected ({e})"),
        other => {
            return Err(format!(
                "bad direction: rejection should name the knob, said {other:?}"
            ))
        }
    }
    Ok(())
}

/// Fetch the span tree for `trace_id` over the control connection and
/// print it: one line per span (name, duration, attributes), indented by
/// causal depth, children in start-time order under their parent.
fn print_trace(control: &mut Client, us: u64, trace_id: u64) -> Result<(), String> {
    let v = control
        .request_json(&format!("{{\"op\":\"xray\",\"trace_id\":{trace_id}}}"))
        .map_err(|e| e.to_string())?;
    if v.bool_field("ok") != Some(true) {
        return Err(format!(
            "server said {:?} (trace evicted from the store?)",
            v.str_field("error").unwrap_or("not ok")
        ));
    }
    let trace = v.get("trace").ok_or("response missing trace")?;
    let spans = trace
        .get("spans")
        .and_then(|s| s.as_arr())
        .ok_or("response missing trace.spans")?;
    println!(
        "  x-ray: slowest traced request took {us}us — trace {trace_id}, {} spans, depth {}",
        spans.len(),
        trace.u64_field("depth").unwrap_or(0)
    );
    let ids: Vec<u64> = spans
        .iter()
        .map(|s| s.u64_field("span_id").unwrap_or(0))
        .collect();
    let parents: Vec<u64> = spans
        .iter()
        .map(|s| s.u64_field("parent").unwrap_or(0))
        .collect();
    // spans arrive sorted by start time, so a simple parent-filtered DFS
    // prints each span's children in causal order; the depth cap guards
    // against a malformed (cyclic) tree ever looping the printer
    fn walk(spans: &[Value], ids: &[u64], parents: &[u64], parent: u64, depth: usize) {
        if depth > 64 {
            return;
        }
        for (i, s) in spans.iter().enumerate() {
            if parents[i] != parent {
                continue;
            }
            let dur_ns = s
                .u64_field("end_ns")
                .unwrap_or(0)
                .saturating_sub(s.u64_field("start_ns").unwrap_or(0));
            let mut attrs = String::new();
            if let Some(Value::Obj(fields)) = s.get("attrs") {
                for (k, v) in fields {
                    let sep = if attrs.is_empty() { " [" } else { " " };
                    attrs.push_str(&format!("{sep}{k}={}", v.as_str().unwrap_or("?")));
                }
                if !attrs.is_empty() {
                    attrs.push(']');
                }
            }
            println!(
                "  {:indent$}{} {:.1}us{attrs}",
                "",
                s.str_field("name").unwrap_or("?"),
                dur_ns as f64 / 1000.0,
                indent = depth * 2 + 2
            );
            walk(spans, ids, parents, ids[i], depth + 1);
        }
    }
    walk(spans, &ids, &parents, 0, 0);
    Ok(())
}

fn main() {
    let cli = parse_cli();
    let mut control = match connect_patiently(&cli.opts.addr, cli.wait_ms) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: cannot reach {}: {e}", cli.opts.addr);
            std::process::exit(1);
        }
    };
    let mut failed = false;

    for (name, spec) in &cli.loads {
        let line = format!("{{\"op\":\"load\",\"graph\":\"{name}\",\"spec\":\"{spec}\"}}");
        match control.request_json(&line) {
            Ok(v) if v.bool_field("ok") == Some(true) => {
                println!(
                    "loaded {name} ({} vertices, {} edges)",
                    v.u64_field("n").unwrap_or(0),
                    v.u64_field("nnz").unwrap_or(0)
                );
            }
            Ok(v) => {
                eprintln!(
                    "loadgen: load {name} failed: {}",
                    v.str_field("error").unwrap_or("unknown error")
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("loadgen: load {name} failed: {e}");
                failed = true;
            }
        }
    }

    if cli.smoke {
        match smoke(&mut control, &cli.opts.graph, &cli.opts.backend) {
            Ok(()) => println!("smoke: all {} algorithms ok", Algo::ALL.len()),
            Err(e) => {
                eprintln!("loadgen: smoke failed: {e}");
                failed = true;
            }
        }
    } else if !failed {
        match run_loadgen(&cli.opts) {
            Ok(report) => {
                let workload = if cli.opts.graphs.is_empty() {
                    format!("{:?}", cli.opts.graph)
                } else {
                    format!("{} graphs (zipf {})", cli.opts.graphs.len(), cli.opts.zipf)
                };
                println!(
                    "{} clients x {} requests on {} [{}] against {}",
                    cli.opts.clients,
                    cli.opts.requests_per_client,
                    workload,
                    cli.opts
                        .algos
                        .iter()
                        .map(|a| a.as_str())
                        .collect::<Vec<_>>()
                        .join(","),
                    cli.opts.addr
                );
                println!(
                    "  ok {} (cached {}), corrupted {}, elapsed {:.3}s, {:.1} req/s",
                    report.ok,
                    report.cached,
                    report.corrupted,
                    report.elapsed.as_secs_f64(),
                    report.qps()
                );
                println!(
                    "  latency p50 {}us  p95 {}us  p99 {}us  max {}us",
                    report.percentile_us(50.0),
                    report.percentile_us(95.0),
                    report.percentile_us(99.0),
                    report.latencies_us.last().copied().unwrap_or(0)
                );
                // first query per client pays the cold path (graph + Aᵀ not
                // yet resident server-side); later requests are steady state
                println!(
                    "  first-query p50 {}us max {}us  |  steady-state p50 {}us p95 {}us",
                    report.first_percentile_us(50.0),
                    report.first_us.last().copied().unwrap_or(0),
                    report.steady_percentile_us(50.0),
                    report.steady_percentile_us(95.0)
                );
                for (code, n) in &report.errors {
                    println!("  rejected {code}: {n}");
                }
                if !report.graph_counts.is_empty() {
                    let total: u64 = report.graph_counts.iter().map(|(_, n)| n).sum();
                    let dist = report
                        .graph_counts
                        .iter()
                        .map(|(g, n)| {
                            format!("{g} {:.1}%", *n as f64 * 100.0 / total.max(1) as f64)
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    println!("  graph distribution: {dist}");
                }
                if !report.batch_us.is_empty() {
                    println!(
                        "  per-batch (round) p50 {}us  p95 {}us  max {}us over {} rounds",
                        report.batch_percentile_us(50.0),
                        report.batch_percentile_us(95.0),
                        report.batch_us.last().copied().unwrap_or(0),
                        report.batch_us.len()
                    );
                }
                if cli.opts.pipeline > 1 {
                    println!(
                        "  pipelined depth {} (responses verified in order)",
                        cli.opts.pipeline
                    );
                }
                if cli.opts.idle_conns > 0 {
                    println!(
                        "  idle flood: {}/{} connections alive after the run",
                        report.idle_alive, cli.opts.idle_conns
                    );
                    if report.idle_alive < cli.opts.idle_conns as u64 {
                        eprintln!(
                            "loadgen: {} idle connections died during the run",
                            cli.opts.idle_conns as u64 - report.idle_alive
                        );
                        failed = true;
                    }
                }
                if report.corrupted > 0 {
                    eprintln!("loadgen: {} corrupted responses", report.corrupted);
                    failed = true;
                }
                // cross-check against the server's own request histogram:
                // it must have recorded at least every query we got an
                // ok for (it may hold more from earlier traffic)
                match fetch_server_latency(&mut control) {
                    Ok(s) => {
                        println!(
                            "  server-side: count {}  p50 {}us  p95 {}us  p99 {}us  max {}us",
                            s.count, s.p50, s.p95, s.p99, s.max_us
                        );
                        if s.count < report.ok {
                            eprintln!(
                                "loadgen: server histogram count {} < {} ok responses",
                                s.count, report.ok
                            );
                            failed = true;
                        }
                    }
                    Err(e) => {
                        eprintln!("loadgen: metrics fetch failed: {e}");
                        failed = true;
                    }
                }
                if cli.opts.xray > 0 {
                    println!(
                        "  x-ray: {} of the first {} requests came back traced",
                        report.traced.len(),
                        cli.opts.xray
                    );
                    match report.traced.last() {
                        Some(&(us, trace_id)) => {
                            if let Err(e) = print_trace(&mut control, us, trace_id) {
                                eprintln!("loadgen: x-ray fetch failed: {e}");
                                failed = true;
                            }
                        }
                        None => {
                            eprintln!(
                                "loadgen: --xray {} but no response carried a trace id",
                                cli.opts.xray
                            );
                            failed = true;
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("loadgen: run failed: {e}");
                failed = true;
            }
        }
    }

    if cli.shutdown {
        match control.request_json("{\"op\":\"shutdown\"}") {
            Ok(v) if v.bool_field("ok") == Some(true) => println!("server shutting down"),
            Ok(_) | Err(_) => {
                eprintln!("loadgen: shutdown request failed");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
