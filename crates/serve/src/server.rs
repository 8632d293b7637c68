//! The connection front-ends and server lifecycle.
//!
//! Since the gbtl-net refactor this module owns only what faces the
//! network; everything that *answers* requests — catalog, cache, bounded
//! job queue, worker pool, metrics — lives in [`crate::pool::EnginePool`],
//! reached exclusively through the [`gbtl_net::Engine`] contract. Two
//! front-ends drive the same pool, selected by [`ServerConfig::mode`]
//! (`GBTL_SERVE_MODE`), and differ only in how they wait on sockets:
//!
//! * **threaded** (default) — blocking I/O, one thread per connection: a
//!   listener thread accepts, and each connection's thread reads chunks,
//!   frames them, submits one request at a time and blocks on its reply.
//! * **evented** — the [`gbtl_net`] `poll(2)` event loop: every connection
//!   multiplexed on one poller thread, request pipelining with in-order
//!   responses, write backpressure, and idle/slow-loris reaping. Thousands
//!   of idle connections cost fds, not threads.
//!
//! Everything else is one contract. Both frame with
//! [`gbtl_net::LineFramer::requests`] (the same line bound,
//! `GBTL_SERVE_MAX_LINE`, answered with the same engine-rendered error),
//! both wait on an accepted request's reply with no timeout of their own
//! (deadlines are the engine's), and both apply the idle timeout
//! (`GBTL_SERVE_IDLE_TIMEOUT`; the threaded listener as a per-read socket
//! timeout, the evented loop as a last-activity sweep). Responses are
//! bit-identical across modes — the integration tests prove it — because
//! no connection state ever crosses the Engine boundary.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use gbtl_net::{EventedConfig, EventedHandle, LineFramer, Reply, Submission};

use crate::pool::EnginePool;

/// Which connection front-end serves the socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontendMode {
    /// Thread per connection, blocking reads (the legacy default).
    Threaded,
    /// Single-threaded `poll(2)` event loop from [`gbtl_net`].
    Evented,
}

impl FrontendMode {
    /// The knob spelling (`threaded` / `evented`), case-insensitive.
    pub fn parse(s: &str) -> Option<FrontendMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "threaded" => Some(FrontendMode::Threaded),
            "evented" => Some(FrontendMode::Evented),
            _ => None,
        }
    }

    /// The canonical knob spelling, echoed by the stats endpoint.
    pub fn as_str(self) -> &'static str {
        match self {
            FrontendMode::Threaded => "threaded",
            FrontendMode::Evented => "evented",
        }
    }
}

/// Server configuration. [`ServerConfig::from_env`] reads the
/// `GBTL_SERVE_*` knobs (invalid values warn and fall back, like every
/// other `GBTL_*` variable); the field defaults are the documented ones.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`GBTL_SERVE_ADDR`); port 0 picks an ephemeral port.
    pub addr: String,
    /// Connection front-end (`GBTL_SERVE_MODE`, `threaded`/`evented`).
    pub mode: FrontendMode,
    /// Worker threads = max concurrent queries (`GBTL_SERVE_WORKERS`).
    pub workers: usize,
    /// Bounded job-queue capacity (`GBTL_SERVE_QUEUE`); pushes beyond it
    /// are rejected as `overloaded`.
    pub queue_capacity: usize,
    /// Result-cache capacity in entries (`GBTL_SERVE_CACHE`); 0 disables.
    pub cache_capacity: usize,
    /// Default per-request deadline, ms (`GBTL_SERVE_DEADLINE_MS`).
    pub default_deadline_ms: u64,
    /// Longest accepted request line in bytes (`GBTL_SERVE_MAX_LINE`);
    /// longer lines get a JSON `bad_request` error and are discarded to the
    /// next newline, in both front-ends.
    pub max_line: usize,
    /// Disconnect connections idle this long, ms
    /// (`GBTL_SERVE_IDLE_TIMEOUT`); 0 disables. Applied in both
    /// front-ends.
    pub idle_timeout_ms: u64,
    /// Threads inside each worker's parallel-backend context
    /// (`GBTL_SERVE_PAR_THREADS`).
    pub par_threads: usize,
    /// Directory for `.gbsnap` snapshot files (`GBTL_SNAPSHOT_DIR`);
    /// `None` disables the `snapshot`/`restore` ops with a `bad_request`
    /// that names the knob.
    pub snapshot_dir: Option<String>,
    /// Graphs to load before accepting connections (`name`, `spec`).
    pub preload: Vec<(String, String)>,
    /// Query-fusion window (`GBTL_FUSE`, `GBTL_FUSE_WINDOW_US`,
    /// `GBTL_FUSE_MAX_BATCH`): when enabled, compatible concurrent
    /// BFS/SSSP queries are held briefly and executed as one multi-source
    /// kernel. Off by default — fusion trades a bounded queueing delay for
    /// batch throughput, which only pays under concurrency.
    pub fuse: gbtl_fuse::FuseConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        ServerConfig {
            addr: "127.0.0.1:7411".into(),
            mode: FrontendMode::Threaded,
            workers: host.min(8),
            queue_capacity: 64,
            cache_capacity: 128,
            default_deadline_ms: 10_000,
            max_line: 65_536,
            idle_timeout_ms: 60_000,
            par_threads: host,
            snapshot_dir: None,
            preload: Vec::new(),
            fuse: gbtl_fuse::FuseConfig::default(),
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by the `GBTL_SERVE_*` environment knobs.
    pub fn from_env() -> Self {
        use gbtl_util::env;
        let d = ServerConfig::default();
        ServerConfig {
            addr: env::string_var("GBTL_SERVE_ADDR").unwrap_or(d.addr),
            mode: env::string_var("GBTL_SERVE_MODE")
                .and_then(|s| {
                    let m = FrontendMode::parse(&s);
                    if m.is_none() {
                        eprintln!(
                            "gbtl: ignoring invalid GBTL_SERVE_MODE={s:?}; \
                             falling back to the default"
                        );
                    }
                    m
                })
                .unwrap_or(d.mode),
            workers: env::usize_var("GBTL_SERVE_WORKERS", 1).unwrap_or(d.workers),
            queue_capacity: env::usize_var("GBTL_SERVE_QUEUE", 1).unwrap_or(d.queue_capacity),
            cache_capacity: env::usize_var("GBTL_SERVE_CACHE", 0).unwrap_or(d.cache_capacity),
            default_deadline_ms: env::u64_var("GBTL_SERVE_DEADLINE_MS", 1)
                .unwrap_or(d.default_deadline_ms),
            max_line: env::usize_var("GBTL_SERVE_MAX_LINE", 64).unwrap_or(d.max_line),
            idle_timeout_ms: env::duration_ms_var("GBTL_SERVE_IDLE_TIMEOUT")
                .map(|t| t.map_or(0, |t| t.as_millis() as u64))
                .unwrap_or(d.idle_timeout_ms),
            par_threads: env::usize_var("GBTL_SERVE_PAR_THREADS", 1).unwrap_or(d.par_threads),
            snapshot_dir: env::path_var("GBTL_SNAPSHOT_DIR").map(|p| p.display().to_string()),
            preload: Vec::new(),
            fuse: gbtl_fuse::FuseConfig::from_env(),
        }
    }

    /// The idle timeout as a duration; `None` when disabled (0).
    pub fn idle_timeout(&self) -> Option<Duration> {
        (self.idle_timeout_ms > 0).then(|| Duration::from_millis(self.idle_timeout_ms))
    }

    /// Override fields from command-line flags: the one flag table of the
    /// `gbtl-serve` and `gbtl-shard` binaries ([`SERVER_FLAGS`]). A flag
    /// outside the table goes to `extra(flag, value)`, where `value(what)`
    /// takes the flag's argument; `extra` answers `Ok(false)` for a flag it
    /// does not know either. `--help` and every bad flag are an `Err`
    /// carrying the message to print above the usage (empty for `--help`).
    pub fn parse_flags(
        &mut self,
        args: impl IntoIterator<Item = String>,
        mut extra: impl FnMut(
            &str,
            &mut dyn FnMut(&str) -> Result<String, String>,
        ) -> Result<bool, String>,
    ) -> Result<(), String> {
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let mut value =
                |what: &str| args.next().ok_or_else(|| format!("{flag} needs a {what}"));
            match flag.as_str() {
                "--addr" => self.addr = value("HOST:PORT")?,
                "--mode" => {
                    let raw = value("threaded|evented")?;
                    self.mode = FrontendMode::parse(&raw)
                        .ok_or_else(|| format!("--mode wants threaded|evented, got {raw:?}"))?;
                }
                "--workers" => self.workers = parse_num(&value("count")?)?,
                "--queue" => self.queue_capacity = parse_num(&value("count")?)?,
                "--cache" => self.cache_capacity = parse_num(&value("count")?)?,
                "--deadline-ms" => self.default_deadline_ms = parse_num(&value("ms")?)?,
                "--max-line" => self.max_line = parse_num(&value("bytes")?)?,
                "--idle-timeout-ms" => self.idle_timeout_ms = parse_num(&value("ms")?)?,
                "--par-threads" => self.par_threads = parse_num(&value("count")?)?,
                "--snapshot-dir" => self.snapshot_dir = Some(value("PATH")?),
                "--load" => {
                    let spec = value("NAME=SPEC")?;
                    let (name, spec) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("--load wants NAME=SPEC, got {spec:?}"))?;
                    self.preload.push((name.to_string(), spec.to_string()));
                }
                "--fuse" => {
                    self.fuse.enabled = match value("on|off")?.as_str() {
                        "on" | "true" | "1" => true,
                        "off" | "false" | "0" => false,
                        other => return Err(format!("--fuse wants on|off, got {other:?}")),
                    }
                }
                "--fuse-window-us" => {
                    let us: u64 = parse_num(&value("us")?)?;
                    self.fuse.window = Duration::from_micros(us.max(1));
                }
                "--fuse-max-batch" => {
                    self.fuse.max_batch = parse_num::<usize>(&value("count")?)?.max(1)
                }
                "--help" | "-h" => return Err(String::new()),
                other => {
                    if !extra(other, &mut value)? {
                        return Err(format!("unknown flag {other:?}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The flags [`ServerConfig::parse_flags`] takes, as usage lines.
pub const SERVER_FLAGS: &str = "[--addr HOST:PORT] [--mode threaded|evented] [--workers N]
[--queue N] [--cache N] [--deadline-ms N] [--max-line BYTES]
[--idle-timeout-ms N] [--par-threads N]
[--snapshot-dir PATH] [--load NAME=SPEC]...
[--fuse on|off] [--fuse-window-us N] [--fuse-max-batch N]";

/// Parse a numeric flag value.
pub fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}

/// A running front-end over `engine` plus the worker threads behind it.
/// Dropping the value does **not** stop the server; call
/// [`Frontend::shutdown_and_join`] (or send a `shutdown` request).
#[derive(Debug)]
pub struct Frontend<E: gbtl_net::Engine> {
    engine: Arc<E>,
    addr: SocketAddr,
    listener_thread: Option<std::thread::JoinHandle<()>>,
    evented: Option<EventedHandle>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

/// A running single-pool server.
pub type ServerHandle = Frontend<EnginePool>;

impl<E: gbtl_net::Engine> Frontend<E> {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine the front-end submits to.
    pub fn engine(&self) -> &Arc<E> {
        &self.engine
    }

    /// The evented loop's connection-layer counters (`None` when threaded).
    pub fn net_stats(&self) -> Option<Arc<gbtl_net::NetStats>> {
        self.evented.as_ref().map(EventedHandle::stats)
    }

    /// Begin a graceful shutdown: drain the engine (reject new compute
    /// work, finish admitted work) and stop the front-end accepting.
    /// Idempotent; returns immediately.
    pub fn begin_shutdown(&self) {
        self.engine.drain();
        if let Some(ev) = &self.evented {
            ev.begin_shutdown();
        }
    }

    /// Wait for the front-end and every worker to exit (workers drain all
    /// admitted jobs first; the evented loop flushes every pending
    /// response). Blocks until something initiates shutdown — a
    /// `{"op":"shutdown"}` request or [`Frontend::begin_shutdown`] —
    /// which is how the binaries serve until told to stop.
    pub fn join(mut self) {
        if let Some(t) = self.listener_thread.take() {
            let _ = t.join();
        }
        if let Some(ev) = self.evented.take() {
            ev.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// [`Frontend::begin_shutdown`] + [`Frontend::join`].
    pub fn shutdown_and_join(self) {
        self.begin_shutdown();
        self.join();
    }
}

/// Start the front-end `config.mode` selects on `listener`, submitting to
/// `engine`; `workers` are the engine's already-spawned worker threads,
/// joined with the front-end.
pub fn start_frontend<E: gbtl_net::Engine>(
    listener: TcpListener,
    engine: Arc<E>,
    config: &ServerConfig,
    workers: Vec<std::thread::JoinHandle<()>>,
) -> std::io::Result<Frontend<E>> {
    let addr = listener.local_addr()?;
    let (listener_thread, evented) = match config.mode {
        FrontendMode::Threaded => {
            let thread = serve_threaded(
                listener,
                engine.clone(),
                config.max_line,
                config.idle_timeout(),
            );
            (Some(thread), None)
        }
        FrontendMode::Evented => {
            let evented = gbtl_net::serve(
                listener,
                engine.clone(),
                EventedConfig {
                    max_line: config.max_line,
                    idle_timeout: config.idle_timeout(),
                    ..EventedConfig::default()
                },
            )?;
            (None, Some(evented))
        }
    };
    Ok(Frontend {
        engine,
        addr,
        listener_thread,
        evented,
        workers,
    })
}

/// Bind, preload, spawn the worker pool, and start the configured
/// front-end.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let pool = EnginePool::new(config)?;
    pool.set_listen_addr(listener.local_addr()?);
    let workers = pool.spawn_workers();
    let frontend = start_frontend(listener, pool.clone(), &pool.config, workers)?;
    if let Some(stats) = frontend.net_stats() {
        pool.set_net_stats(stats);
    }
    Ok(frontend)
}

/// Start the thread-per-connection front-end over any [`gbtl_net::Engine`]
/// — the single [`EnginePool`] here, or gbtl-shard's scatter-gather router.
/// Returns the listener thread; it exits once the engine reports draining
/// (poke the listener with a throwaway connection to wake a blocked
/// `accept()`, as [`gbtl_net::Engine::drain`] implementations do).
pub fn serve_threaded<E: gbtl_net::Engine + ?Sized>(
    listener: TcpListener,
    engine: Arc<E>,
    max_line: usize,
    idle_timeout: Option<Duration>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("gbtl-serve-listener".into())
        .spawn(move || listener_loop(listener, &engine, max_line, idle_timeout))
        .expect("spawn listener")
}

fn listener_loop<E: gbtl_net::Engine + ?Sized>(
    listener: TcpListener,
    engine: &Arc<E>,
    max_line: usize,
    idle_timeout: Option<Duration>,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if engine.is_draining() {
                    break;
                }
                engine.connection_opened();
                let engine = engine.clone();
                // connection threads are cheap (they block on I/O and the
                // reply channel); they exit when the client disconnects
                let _ = std::thread::Builder::new()
                    .name("gbtl-serve-conn".into())
                    .spawn(move || {
                        handle_connection(stream, &*engine, max_line, idle_timeout);
                        engine.connection_closed();
                    });
            }
            Err(_) => {
                if engine.is_draining() {
                    break;
                }
            }
        }
    }
}

fn handle_connection<E: gbtl_net::Engine + ?Sized>(
    stream: TcpStream,
    engine: &E,
    max_line: usize,
    idle_timeout: Option<Duration>,
) {
    // small request/response frames: without nodelay, Nagle + delayed ACK
    // costs tens of ms per round-trip
    let _ = stream.set_nodelay(true);
    // the idle timeout as a per-read socket timeout: a silent client is
    // disconnected, a dribbling one resets the clock with each byte —
    // matching the evented loop's last-activity semantics
    let _ = stream.set_read_timeout(idle_timeout);
    let mut framer = LineFramer::new(max_line);
    let mut buf = [0u8; 8 * 1024];
    loop {
        let n = match (&stream).read(&mut buf) {
            Ok(0) => return, // EOF
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            // WouldBlock/TimedOut = the idle read timeout expired
            Err(_) => return,
        };
        for frame in framer.requests(&buf[..n]) {
            let mut response = match frame {
                None => engine.oversized_line_response(max_line),
                Some(line) => match answer(engine, &line) {
                    Some(response) => response,
                    None => return, // the engine dropped an accepted Reply
                },
            };
            response.push('\n');
            if (&stream).write_all(response.as_bytes()).is_err() {
                return;
            }
        }
    }
}

/// Submit one request line and block until its response, however late
/// it is. `None` when the engine dropped an accepted request's [`Reply`]
/// unsent — a breach of the contract that closes the connection.
fn answer<E: gbtl_net::Engine + ?Sized>(engine: &E, line: &str) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    // open the request's x-ray root span (if this request is sampled) and
    // close it when the reply lands; inline answers bypass the reply
    // (finish is idempotent, so a both-paths race stays safe)
    let xray = gbtl_trace::begin_request(line, "threaded");
    let reply = Reply::new(move |response: String| {
        if let Some(ctx) = xray {
            gbtl_trace::finish_request(ctx);
        }
        let _ = tx.send(response);
    });
    match engine.submit(line, reply, xray) {
        Submission::Inline(response) => {
            if let Some(ctx) = xray {
                gbtl_trace::finish_request(ctx);
            }
            Some(response)
        }
        Submission::Accepted => rx.recv().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers >= 1);
        assert!(c.queue_capacity >= 1);
        assert!(c.default_deadline_ms >= 1);
        assert!(c.max_line >= 1024);
        assert_eq!(c.mode, FrontendMode::Threaded);
        // from_env with nothing set equals the defaults
        for k in [
            "GBTL_SERVE_ADDR",
            "GBTL_SERVE_MODE",
            "GBTL_SERVE_WORKERS",
            "GBTL_SERVE_QUEUE",
            "GBTL_SERVE_CACHE",
            "GBTL_SERVE_DEADLINE_MS",
            "GBTL_SERVE_MAX_LINE",
            "GBTL_SERVE_IDLE_TIMEOUT",
            "GBTL_SERVE_PAR_THREADS",
            "GBTL_SNAPSHOT_DIR",
        ] {
            std::env::remove_var(k);
        }
        let e = ServerConfig::from_env();
        assert_eq!(e.snapshot_dir, None);
        assert_eq!(e.addr, c.addr);
        assert_eq!(e.mode, c.mode);
        assert_eq!(e.workers, c.workers);
        assert_eq!(e.cache_capacity, c.cache_capacity);
        assert_eq!(e.max_line, c.max_line);
        assert_eq!(e.idle_timeout_ms, c.idle_timeout_ms);
    }

    #[test]
    fn frontend_mode_parses_the_documented_spellings() {
        assert_eq!(
            FrontendMode::parse("threaded"),
            Some(FrontendMode::Threaded)
        );
        assert_eq!(
            FrontendMode::parse(" Evented "),
            Some(FrontendMode::Evented)
        );
        assert_eq!(FrontendMode::parse("epoll"), None);
        assert_eq!(FrontendMode::Evented.as_str(), "evented");
    }

    #[test]
    fn one_flag_table_with_a_hook_for_the_rest() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let mut c = ServerConfig::default();
        let mut shards = 0usize;
        let parsed = c.parse_flags(
            args("--mode evented --fuse on --fuse-window-us 0 --load g=karate --shards 3"),
            |flag, value| match flag {
                "--shards" => {
                    shards = parse_num(&value("count")?)?;
                    Ok(true)
                }
                _ => Ok(false),
            },
        );
        assert_eq!(parsed, Ok(()));
        assert_eq!(c.mode, FrontendMode::Evented);
        assert!(c.fuse.enabled);
        assert_eq!(c.fuse.window, Duration::from_micros(1), "clamped to 1 µs");
        assert_eq!(c.preload, [("g".to_string(), "karate".to_string())]);
        assert_eq!(shards, 3);

        let no_extra = |_: &str, _: &mut dyn FnMut(&str) -> Result<String, String>| Ok(false);
        let mut c = ServerConfig::default();
        assert_eq!(c.parse_flags(args("--help"), no_extra), Err(String::new()));
        assert_eq!(
            c.parse_flags(args("--shards 3"), no_extra),
            Err("unknown flag \"--shards\"".into())
        );
        assert_eq!(
            c.parse_flags(args("--workers"), no_extra),
            Err("--workers needs a count".into())
        );
        assert_eq!(
            c.parse_flags(args("--queue x"), no_extra),
            Err("bad number \"x\"".into())
        );
    }
}
