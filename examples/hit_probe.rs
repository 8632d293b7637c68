//! Time an inline cache hit of `EnginePool::submit`, split into the
//! request parse, the cache key and the rest, and print the medians.
//!
//! ```text
//! cargo run --release --example hit_probe            # 21 rounds
//! cargo run --release --example hit_probe -- 51      # more rounds
//! ```
//!
//! The pool is `wire-hot`'s: one worker, the 128-entry result cache, the
//! `serve-cold` catalog (rmat:12:8:1, rmat:10:8:2, grid:48 as rmat12,
//! rmat10, grid48). Its 64 query lines have `wire-hot`'s shapes — BFS and
//! SSSP from a source, PageRank at 20 iterations with a damping, MIS with
//! a seed, on seq, par and cuda-sim — and are computed once before timing,
//! so every timed `submit` is a hit answered inline. A round times, per
//! line and in turn, `submit` (with the `Reply` a front-end would hand
//! it), `parse_request` alone and the line's cache key alone, each over
//! the 64 lines `REPS` times; it prints the median over rounds of each,
//! per call, and of `submit` minus the two (catalog lookup, cache get,
//! render, counters).
//!
//! To compare two versions, copy this file into both checkouts and run the
//! same command in each, alternating, pinned to one CPU (`taskset -c 0`).
//! A checkout older than `QueryParams::cache_key` builds the key as the
//! pool did there: `cache_key(&g.name, g.epoch, &q.cache_params())`.

use gbtl_net::{Engine as _, Reply, Submission};
use gbtl_serve::protocol::{parse_request, Request};
use gbtl_serve::{EnginePool, ServerConfig};
use std::hint::black_box;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const SPECS: [(&str, &str); 3] = [
    ("rmat12", "rmat:12:8:1"),
    ("rmat10", "rmat:10:8:2"),
    ("grid48", "grid:48"),
];
const BACKENDS: [&str; 3] = ["seq", "par", "cuda"];
/// Passes over the 64 lines per timed block.
const REPS: usize = 64;

/// `wire-hot`-shaped query lines: 64 distinct cache keys.
fn lines() -> Vec<String> {
    let mut out = Vec::new();
    for k in 0..16 {
        let (graph, _) = SPECS[k % 3];
        let backend = BACKENDS[k / 3 % 3];
        for (algo, param) in [
            ("bfs", format!("\"source\":{}", 3 + 7 * k)),
            ("sssp", format!("\"source\":{}", 5 + 11 * k)),
            (
                "pagerank",
                format!("\"damping\":0.{:03},\"max_iters\":20", 500 + 29 * k),
            ),
            ("mis", format!("\"seed\":{}", 13 + 31 * k)),
        ] {
            // MIS is served from the 1 k-vertex graph only, as in wire-hot
            let graph = if algo == "mis" { "rmat10" } else { graph };
            out.push(format!(
                "{{\"op\":\"query\",\"graph\":\"{graph}\",\"algo\":\"{algo}\",\
                 \"backend\":\"{backend}\",{param}}}"
            ));
        }
    }
    out
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let rounds: usize = match std::env::args().nth(1) {
        None => 21,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("usage: hit_probe [ROUNDS]");
            std::process::exit(2)
        }),
    };
    let pool = EnginePool::new(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        par_threads: 1,
        preload: SPECS
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect(),
        ..ServerConfig::default()
    })
    .expect("pool");
    let workers = pool.spawn_workers();
    let lines = lines();
    let graphs = pool.graphs();
    // compute every line once; each later submit is an inline hit
    let mut parsed = Vec::new();
    for line in &lines {
        let (tx, rx) = mpsc::channel();
        let reply = Reply::new(move |r: String| drop(tx.send(r)));
        if let Submission::Accepted = pool.submit(line, reply, None) {
            let r = rx.recv_timeout(Duration::from_secs(60)).expect("answer");
            assert!(r.starts_with("{\"ok\":true"), "{line}: {r}");
        }
        let Ok(Request::Query(q)) = parse_request(line) else {
            panic!("{line} is a query")
        };
        let g = graphs.iter().find(|g| g.name == q.graph).expect("loaded");
        parsed.push((q, g.clone()));
    }
    let per_call = |start: Instant| start.elapsed().as_nanos() as f64 / (REPS * lines.len()) as f64;
    // per round: [submit, parse, key] ns per call
    let mut samples: Vec<[f64; 3]> = Vec::new();
    // one untimed round first: page in the code and the cache entries
    for round in 0..=rounds {
        let start = Instant::now();
        for _ in 0..REPS {
            for line in &lines {
                match pool.submit(line, Reply::new(|_| {}), None) {
                    Submission::Inline(r) => drop(black_box(r)),
                    Submission::Accepted => panic!("{line} missed the cache"),
                }
            }
        }
        let submit = per_call(start);
        let start = Instant::now();
        for _ in 0..REPS {
            for line in &lines {
                drop(black_box(parse_request(black_box(line))));
            }
        }
        let parse = per_call(start);
        let start = Instant::now();
        for _ in 0..REPS {
            for (q, g) in &parsed {
                drop(black_box(black_box(q).cache_key(&g.name, g.epoch)));
            }
        }
        let key = per_call(start);
        if round > 0 {
            samples.push([submit, parse, key]);
        }
    }
    pool.drain();
    for w in workers {
        w.join().expect("worker");
    }
    let col = |f: &dyn Fn(&[f64; 3]) -> f64| median(&mut samples.iter().map(f).collect::<Vec<_>>());
    println!(
        "inline hit, {} lines x {REPS}, median of {rounds} rounds (ns per call)",
        lines.len()
    );
    println!("{:<10}{:>10}", "submit", format!("{:.0}", col(&|r| r[0])));
    println!("{:<10}{:>10}", "parse", format!("{:.0}", col(&|r| r[1])));
    println!("{:<10}{:>10}", "key", format!("{:.0}", col(&|r| r[2])));
    println!(
        "{:<10}{:>10}",
        "rest",
        format!("{:.0}", col(&|r| r[0] - r[1] - r[2]))
    );
}
