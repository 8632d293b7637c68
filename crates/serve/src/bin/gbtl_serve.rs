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
//! Flags override the `GBTL_SERVE_*` environment knobs,
//! which override the built-in defaults. `--load` may repeat; specs use the
//! compact grammar (`karate`, `rmat:12:8:7`, `er:1000:8000:1`, `grid:32`,
//! `mtx:PATH`).

use std::io::Write;

use gbtl_serve::{start, FrontendMode, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: gbtl-serve [--addr HOST:PORT] [--mode threaded|evented] [--workers N]\n\
         \x20                 [--queue N] [--cache N] [--deadline-ms N] [--max-line BYTES]\n\
         \x20                 [--idle-timeout-ms N] [--par-threads N]\n\
         \x20                 [--snapshot-dir PATH] [--load NAME=SPEC]...\n\
         \x20                 [--fuse on|off] [--fuse-window-us N] [--fuse-max-batch N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut config = ServerConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("gbtl-serve: {arg} needs a {what}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("HOST:PORT"),
            "--mode" => {
                let raw = value("threaded|evented");
                config.mode = FrontendMode::parse(&raw).unwrap_or_else(|| {
                    eprintln!("gbtl-serve: --mode wants threaded|evented, got {raw:?}");
                    usage()
                })
            }
            "--workers" => config.workers = parse_num(&value("count")),
            "--queue" => config.queue_capacity = parse_num(&value("count")),
            "--cache" => config.cache_capacity = parse_num(&value("count")),
            "--deadline-ms" => config.default_deadline_ms = parse_num::<u64>(&value("ms")),
            "--max-line" => config.max_line = parse_num(&value("bytes")),
            "--idle-timeout-ms" => config.idle_timeout_ms = parse_num::<u64>(&value("ms")),
            "--par-threads" => config.par_threads = parse_num(&value("count")),
            "--fuse" => {
                config.fuse.enabled = match value("on|off").as_str() {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    other => {
                        eprintln!("gbtl-serve: --fuse wants on|off, got {other:?}");
                        usage()
                    }
                }
            }
            "--fuse-window-us" => {
                config.fuse.window =
                    std::time::Duration::from_micros(parse_num::<u64>(&value("us")).max(1))
            }
            "--fuse-max-batch" => {
                config.fuse.max_batch = parse_num::<usize>(&value("count")).max(1)
            }
            "--snapshot-dir" => config.snapshot_dir = Some(value("PATH")),
            "--load" => {
                let spec = value("NAME=SPEC");
                let Some((name, spec)) = spec.split_once('=') else {
                    eprintln!("gbtl-serve: --load wants NAME=SPEC, got {spec:?}");
                    usage()
                };
                config.preload.push((name.to_string(), spec.to_string()));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("gbtl-serve: unknown flag {other:?}");
                usage()
            }
        }
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

fn parse_num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("gbtl-serve: bad number {s:?}");
        usage()
    })
}
