//! The `gbtl-shard` binary: a sharded gbtl-serve — bind one listener,
//! preload graphs across N engine shards, serve until shutdown.
//!
//! ```text
//! gbtl-shard [--addr HOST:PORT] [--shards N] [--pin GRAPH=SHARD]...
//!            [--mode threaded|evented] [--workers N] [--queue N] [--cache N]
//!            [--deadline-ms N] [--max-line BYTES] [--idle-timeout-ms N]
//!            [--par-threads N]
//!            [--snapshot-dir PATH] [--load NAME=SPEC]...
//! ```
//!
//! Flags override the `GBTL_SERVE_*` / `GBTL_SHARDS` / `GBTL_SNAPSHOT_DIR`
//! environment knobs. `--workers`, `--queue`, `--cache`, and
//! `--par-threads` are **per shard**. `--pin` forces a graph onto a shard,
//! overriding the consistent-hash placement.

use std::io::Write;

use gbtl_serve::FrontendMode;
use gbtl_shard::{start_sharded, ShardConfig};

fn usage() -> ! {
    eprintln!(
        "usage: gbtl-shard [--addr HOST:PORT] [--shards N] [--pin GRAPH=SHARD]...\n\
         \x20                 [--mode threaded|evented] [--workers N] [--queue N] [--cache N]\n\
         \x20                 [--deadline-ms N] [--max-line BYTES] [--idle-timeout-ms N]\n\
         \x20                 [--par-threads N]\n\
         \x20                 [--snapshot-dir PATH] [--load NAME=SPEC]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ShardConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("gbtl-shard: {arg} needs a {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.base.addr = value("HOST:PORT"),
            "--shards" => config.shards = parse_num(&value("count")),
            "--pin" => {
                let spec = value("GRAPH=SHARD");
                let Some((graph, shard)) = spec.split_once('=') else {
                    eprintln!("gbtl-shard: --pin wants GRAPH=SHARD, got {spec:?}");
                    usage()
                };
                config.pins.insert(graph.to_string(), parse_num(shard));
            }
            "--mode" => {
                let raw = value("threaded|evented");
                config.base.mode = FrontendMode::parse(&raw).unwrap_or_else(|| {
                    eprintln!("gbtl-shard: --mode wants threaded|evented, got {raw:?}");
                    usage()
                })
            }
            "--workers" => config.base.workers = parse_num(&value("count")),
            "--queue" => config.base.queue_capacity = parse_num(&value("count")),
            "--cache" => config.base.cache_capacity = parse_num(&value("count")),
            "--deadline-ms" => config.base.default_deadline_ms = parse_num::<u64>(&value("ms")),
            "--max-line" => config.base.max_line = parse_num(&value("bytes")),
            "--idle-timeout-ms" => config.base.idle_timeout_ms = parse_num::<u64>(&value("ms")),
            "--par-threads" => config.base.par_threads = parse_num(&value("count")),
            "--snapshot-dir" => config.base.snapshot_dir = Some(value("PATH")),
            "--load" => {
                let spec = value("NAME=SPEC");
                let Some((name, spec)) = spec.split_once('=') else {
                    eprintln!("gbtl-shard: --load wants NAME=SPEC, got {spec:?}");
                    usage()
                };
                config
                    .base
                    .preload
                    .push((name.to_string(), spec.to_string()));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gbtl-shard: unknown flag {other:?}");
                usage()
            }
        }
    }

    let shards = config.shards;
    let mode = config.base.mode;
    let workers = config.base.workers;
    let preloaded = config.base.preload.len();
    let handle = match start_sharded(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gbtl-shard: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "gbtl-shard listening on {} ({} front-end, {} shards x {} workers, \
         {} graphs preloaded)",
        handle.addr(),
        mode.as_str(),
        shards,
        workers,
        preloaded
    );
    let _ = std::io::stdout().flush();

    // serve until a client sends {"op":"shutdown"}
    handle.join();
    println!("gbtl-shard: shutdown complete");
}

fn parse_num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("gbtl-shard: bad number {s:?}");
        usage()
    })
}
