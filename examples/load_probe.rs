//! Time the catalog's load path in one process, per graph spec, and print
//! the medians and each load's peak-memory growth.
//!
//! ```text
//! cargo run --release --example load_probe                  # 21 rounds
//! cargo run --release --example load_probe -- 51            # more rounds
//! cargo run --release --example load_probe -- 21 rmat:15:16:3 grid:128
//! ```
//!
//! Per spec and round the probe times three steps of a `{"op":"load"}`:
//! *generate* (the generator's edge list alone, or the canned graph),
//! *build* (`GraphSpec::build_adjacency`, which generates again, minus
//! that round's generate time: the adjacency's construction) and
//! *weights* (one symmetric `u32` weight per stored entry, put over the
//! adjacency's own structure, shared, not copied, as `Catalog::load`
//! derives them: the step is the weight hashing and one value array). It
//! prints the median of each over the rounds, after one untimed round.
//!
//! *peak MB* is one load's `VmHWM` growth: a child process (this binary,
//! `--hwm SPEC`) reads `VmHWM` from `/proc/self/status`, runs
//! `Catalog::load` once and reads it again. A fresh process per spec keeps
//! an earlier, larger load's peak from hiding a later one's.
//!
//! The library column is what a library caller adds to the same graph:
//! *prewarm* is the median time of `Context::prewarm_transpose` on the
//! adjacency and on the weights in a fresh sequential context, and *lib
//! MB* that prewarm's `VmHWM` growth in a child (`--hwm-lib SPEC`), which
//! builds the adjacency and weights first. A symmetric graph is its own
//! transpose, so both read near zero where the cache shares the matrix's
//! buffer and count a full copy of both matrices where it builds one.
//!
//! To compare two versions, copy this file into both checkouts and run the
//! same command in each, alternating, pinned to one CPU (`taskset -c 0`).

use gbtl::core::{Context, Matrix};
use gbtl::graphgen::{erdos_renyi, grid_2d, karate_club, weights, Rmat};
use gbtl_serve::catalog::{Catalog, GraphSpec};
use std::hint::black_box;
use std::time::Instant;

/// The catalog specs the benchmark's server workloads load, and karate.
const SPECS: [&str; 6] = [
    "karate",
    "grid:64",
    "rmat:12:8:9",
    "rmat:13:8:11",
    "er:4096:32768:14",
    "rmat:14:16:1",
];

/// The spec's edge list, generated as `build_adjacency` generates it.
fn generate(spec: &GraphSpec) {
    match spec {
        GraphSpec::Karate => black_box(karate_club()),
        GraphSpec::Rmat {
            scale,
            edge_factor,
            seed,
        } => black_box(Rmat::new(*scale, *edge_factor).seed(*seed).generate()),
        GraphSpec::ErdosRenyi { n, edges, seed } => black_box(erdos_renyi(*n, *edges, *seed)),
        GraphSpec::Grid { side } => black_box(grid_2d(*side, *side)),
        GraphSpec::Mtx { .. } => panic!("the probe times generators, not files"),
    };
}

/// `Catalog::load`'s weighted view: the spec's seed, else the default.
fn derive_weights(spec: &GraphSpec, adj: &Matrix<bool>) -> Matrix<u32> {
    let seed = match spec {
        GraphSpec::Rmat { seed, .. } | GraphSpec::ErdosRenyi { seed, .. } => *seed,
        _ => 0x5eed,
    };
    let vals = weights::uniform_u32_symmetric_vals(adj.csr(), 1, 255, seed);
    Matrix::from_csr(adj.csr().with_same_structure(vals).expect("one per entry"))
}

/// This process's peak resident set, kB.
fn vm_hwm_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line")
}

/// The adjacency and weights, prewarmed in a fresh sequential context.
fn prewarm(adj: &Matrix<bool>, weights: &Matrix<u32>) -> Context<gbtl::core::SeqBackend> {
    let ctx = Context::sequential();
    ctx.prewarm_transpose(adj);
    ctx.prewarm_transpose(weights);
    ctx
}

/// A child's `VmHWM` growth in MB: `mode` is `--hwm` (one catalog load)
/// or `--hwm-lib` (one library prewarm).
fn peak_mb(mode: &str, spec: &str) -> f64 {
    let exe = std::env::current_exe().expect("own path");
    let out = std::process::Command::new(exe)
        .args([mode, spec])
        .output()
        .expect("run the child");
    assert!(out.status.success(), "child failed on {spec}");
    let kb: u64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("a kB count");
    kb as f64 / 1024.0
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--hwm") => {
            let spec = GraphSpec::parse(&args[1]).expect("a spec");
            let before = vm_hwm_kb();
            black_box(Catalog::new().load("g", &spec).expect("load"));
            println!("{}", vm_hwm_kb() - before);
            return;
        }
        Some("--hwm-lib") => {
            let spec = GraphSpec::parse(&args[1]).expect("a spec");
            let adj = spec.build_adjacency().expect("build");
            let weights = derive_weights(&spec, &adj);
            let before = vm_hwm_kb();
            let ctx = prewarm(&adj, &weights);
            println!("{}", vm_hwm_kb() - before);
            black_box((ctx, adj, weights));
            return;
        }
        _ => {}
    }
    let usage = || -> ! {
        eprintln!("usage: load_probe [ROUNDS [SPEC...]]");
        std::process::exit(2)
    };
    let rounds: usize = match args.first() {
        None => 21,
        Some(arg) => arg.parse().unwrap_or_else(|_| usage()),
    };
    let names: Vec<String> = match args.len() {
        0 | 1 => SPECS.iter().map(|s| s.to_string()).collect(),
        _ => args[1..].to_vec(),
    };
    let specs: Vec<GraphSpec> = names
        .iter()
        .map(|s| GraphSpec::parse(s).unwrap_or_else(|_| usage()))
        .collect();
    println!("catalog load path, median of {rounds} rounds (ms) and one load's VmHWM growth;");
    println!("then a library context's prewarm of the same graph, and its VmHWM growth");
    println!(
        "{:<18}{:>10}{:>10}{:>10}{:>10}{:>10}{:>10}",
        "spec", "generate", "build", "weights", "peak MB", "prewarm", "lib MB"
    );
    for (name, spec) in names.iter().zip(&specs) {
        let peak = peak_mb("--hwm", name);
        let lib_peak = peak_mb("--hwm-lib", name);
        let mut samples = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for round in 0..=rounds {
            let start = Instant::now();
            generate(spec);
            let gen = ms(start);
            let start = Instant::now();
            let adj = spec.build_adjacency().expect("build");
            let build = ms(start) - gen;
            let start = Instant::now();
            let w = black_box(derive_weights(spec, &adj));
            let weights = ms(start);
            let start = Instant::now();
            let _warmed = black_box(prewarm(&adj, &w));
            let warm = ms(start);
            if round > 0 {
                for (s, x) in samples.iter_mut().zip([gen, build, weights, warm]) {
                    s.push(x);
                }
            }
        }
        let [g, b, w, p] = samples.map(|mut s| median(&mut s));
        println!("{name:<18}{g:>10.3}{b:>10.3}{w:>10.3}{peak:>10.2}{p:>10.3}{lib_peak:>10.2}");
    }
}
