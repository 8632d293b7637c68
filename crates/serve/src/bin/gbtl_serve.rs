//! The `gbtl-serve` binary: bind, preload graphs, serve until shutdown.
//!
//! ```text
//! gbtl-serve [--addr HOST:PORT] [--mode threaded|evented] [--workers N]
//!            [--queue N] [--cache N] [--deadline-ms N] [--max-line BYTES]
//!            [--idle-timeout-ms N] [--par-threads N]
//!            [--snapshot-dir PATH] [--load NAME=SPEC]...
//!            [--fuse on|off] [--fuse-window-us N] [--fuse-max-batch N]
//! ```
//!
//! Flags ([`gbtl_serve::server::SERVER_FLAGS`], shared with `gbtl-shard`)
//! override the `GBTL_SERVE_*` environment knobs, which override the
//! built-in defaults. `--load` may repeat; specs use the compact grammar
//! (`karate`, `rmat:12:8:7`, `er:1000:8000:1`, `grid:32`, `mtx:PATH`).

use std::io::Write;

use gbtl_serve::server::SERVER_FLAGS;
use gbtl_serve::{start, ServerConfig};

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("gbtl-serve: {msg}");
    }
    let indent = "\n                  ";
    eprintln!("usage: gbtl-serve {}", SERVER_FLAGS.replace('\n', indent));
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::from_env();
    if let Err(msg) = config.parse_flags(std::env::args().skip(1), |_, _| Ok(false)) {
        usage(&msg);
    }

    let handle = match start(config.clone()) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("gbtl-serve: failed to start on {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "gbtl-serve listening on {} ({} front-end, {} workers, queue {}, cache {}, \
         {} graphs preloaded)",
        handle.addr(),
        config.mode.as_str(),
        config.workers,
        config.queue_capacity,
        config.cache_capacity,
        config.preload.len()
    );
    let _ = std::io::stdout().flush();

    // serve until a client sends {"op":"shutdown"}
    handle.join();
    println!("gbtl-serve: shutdown complete");
}
