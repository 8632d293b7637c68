//! The `gbtl-shard` binary: a sharded gbtl-serve — bind one listener,
//! preload graphs across N engine shards, serve until shutdown.
//!
//! ```text
//! gbtl-shard [--shards N] [--pin GRAPH=SHARD]... <every gbtl-serve flag>
//! ```
//!
//! Flags override the `GBTL_SERVE_*` / `GBTL_SHARDS` / `GBTL_SNAPSHOT_DIR`
//! environment knobs. Beyond gbtl-serve's flag table
//! ([`gbtl_serve::server::SERVER_FLAGS`]) it takes only `--shards` and
//! `--pin`, which forces a graph onto a shard, overriding the
//! consistent-hash placement. `--workers`, `--queue`, `--cache`, and
//! `--par-threads` are **per shard**.

use std::io::Write;

use gbtl_serve::server::{parse_num, SERVER_FLAGS};
use gbtl_shard::{start_sharded, ShardConfig};

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("gbtl-shard: {msg}");
    }
    let indent = "\n                  ";
    eprintln!(
        "usage: gbtl-shard [--shards N] [--pin GRAPH=SHARD]...{indent}{}",
        SERVER_FLAGS.replace('\n', indent)
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ShardConfig::from_env();
    let parsed = config
        .base
        .parse_flags(std::env::args().skip(1), |flag, value| match flag {
            "--shards" => {
                config.shards = parse_num(&value("count")?)?;
                Ok(true)
            }
            "--pin" => {
                let spec = value("GRAPH=SHARD")?;
                let (graph, shard) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--pin wants GRAPH=SHARD, got {spec:?}"))?;
                config.pins.insert(graph.to_string(), parse_num(shard)?);
                Ok(true)
            }
            _ => Ok(false),
        });
    if let Err(msg) = parsed {
        usage(&msg);
    }

    let addr = config.base.addr.clone();
    let shards = config.shards;
    let mode = config.base.mode;
    let workers = config.base.workers;
    let preloaded = config.base.preload.len();
    let handle = match start_sharded(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gbtl-shard: failed to start on {addr}: {e}");
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
