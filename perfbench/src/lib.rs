//! perfbench — the repo's benchmark: five named workloads, ten end-to-end
//! metrics, per-layer metrics with a ladder, and a traced run. README.md
//! is the catalogue; `BENCHMARK.json` at the repo root declares the names.
//!
//! Everything here measures the stack **from outside**: it calls the
//! crates' public functions and reads the counters they already expose.

#![warn(missing_docs)]

pub mod catalogue;
pub mod client;
pub mod diff;
pub mod graphs;
pub mod host;
pub mod ladder;
pub mod layers;
pub mod libwork;
pub mod requests;
pub mod rng;
pub mod run;
pub mod runner;
pub mod spans;
pub mod stack;
pub mod stats;
pub mod wirework;

use std::path::{Path, PathBuf};

/// The graph a reload (re)installs: `{"op":"load"}` of this spec on the
/// wire workloads that do not reload their own graphs, and the same
/// generate-build-prewarm sequence in the library workloads.
pub const RELOAD_GRAPH: graphs::GraphKind = graphs::GraphKind::Rmat {
    scale: 12,
    ef: 8,
    seed: 9,
};

/// Reloads between two rounds (where the round itself has none): enough
/// samples per run for a steady `reload_ms_p50`.
pub const RELOADS_PER_ROUND: usize = 3;

/// The repository root (the directory holding `BENCHMARK.json`).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits one level below the repo root")
        .to_path_buf()
}

/// `perfbench/out`, created on demand: results, traces and scratch files.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}
