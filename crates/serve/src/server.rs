//! The connection front-ends and server lifecycle.
//!
//! Since the gbtl-net refactor this module owns only what faces the
//! network; everything that *answers* requests — catalog, cache, bounded
//! job queue, worker pool, metrics — lives in [`crate::pool::EnginePool`],
//! reached exclusively through the [`gbtl_net::Engine`] contract. Two
//! front-ends drive the same pool, selected by [`ServerConfig::mode`]
//! (`GBTL_SERVE_MODE`):
//!
//! * **threaded** (default) — one listener thread accepts connections and
//!   gives each its own handler thread; handler threads read bounded
//!   request lines, call [`gbtl_net::Engine::submit`], and block on an
//!   mpsc channel for accepted (queued) work, enforcing the request
//!   deadline at the wait site. Simple, and still the best fit for a few
//!   long-lived trusted clients.
//! * **evented** — the [`gbtl_net`] `poll(2)` event loop: every connection
//!   multiplexed on one poller thread, request pipelining with in-order
//!   responses, write backpressure, and idle/slow-loris reaping. Thousands
//!   of idle connections cost fds, not threads.
//!
//! Both front-ends share the line-length bound (`GBTL_SERVE_MAX_LINE`,
//! answered with the same JSON error rendered by the engine) and the idle
//! timeout (`GBTL_SERVE_IDLE_TIMEOUT`; the threaded listener applies it as
//! a per-read socket timeout, the evented loop as a last-activity sweep).
//! Responses are bit-identical across modes — the integration tests prove
//! it with the result checksums — because no connection state ever crosses
//! the Engine boundary.

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gbtl_net::{EventedConfig, EventedHandle, Reply, Submission};

use crate::pool::EnginePool;

/// Extra wait past the deadline before a connection gives up on a worker
/// that is mid-computation (threaded front-end only; the evented loop
/// delivers late responses instead of synthesizing timeouts).
const DEADLINE_GRACE: Duration = Duration::from_millis(250);

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

/// One `next()` result from [`BoundedLineReader`].
enum ReadOutcome {
    /// A complete line, newline (and trailing `\r`) stripped, invalid
    /// UTF-8 lossily replaced — same normalization as the evented framer.
    Line(String),
    /// The line exceeded `max_line`; the remainder (through the next
    /// newline) is discarded on subsequent calls. Reported once per line.
    Oversized,
    /// EOF, idle timeout, or a read error: close the connection.
    Closed,
}

/// The threaded front-end's bounded line reader: the blocking counterpart
/// of [`gbtl_net::LineFramer`], with the same `max_line` semantics, so an
/// unterminated multi-gigabyte "line" can no longer grow an unbounded
/// `String` in a handler thread.
struct BoundedLineReader {
    reader: BufReader<TcpStream>,
    max_line: usize,
    discarding: bool,
}

impl BoundedLineReader {
    fn new(stream: TcpStream, max_line: usize) -> Self {
        BoundedLineReader {
            reader: BufReader::new(stream),
            max_line,
            discarding: false,
        }
    }

    fn next(&mut self) -> ReadOutcome {
        let mut line: Vec<u8> = Vec::new();
        loop {
            // (bytes to consume, what we decided) — computed while the
            // borrow of the internal buffer is live, applied after
            let (consume, decision) = {
                let chunk = match self.reader.fill_buf() {
                    Ok([]) => return ReadOutcome::Closed, // EOF
                    Ok(c) => c,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    // WouldBlock/TimedOut = the idle read timeout expired
                    Err(_) => return ReadOutcome::Closed,
                };
                match chunk.iter().position(|&b| b == b'\n') {
                    Some(i) => {
                        if self.discarding {
                            (i + 1, Some(None)) // finished skipping
                        } else if line.len() + i > self.max_line {
                            (i + 1, Some(Some(ReadOutcome::Oversized)))
                        } else {
                            line.extend_from_slice(&chunk[..i]);
                            (i + 1, Some(Some(ReadOutcome::Line(String::new()))))
                        }
                    }
                    None => {
                        let n = chunk.len();
                        if !self.discarding {
                            if line.len() + n > self.max_line {
                                line.clear();
                                self.discarding = true;
                                // report now; keep skipping on later calls
                                (n, Some(Some(ReadOutcome::Oversized)))
                            } else {
                                line.extend_from_slice(chunk);
                                (n, None)
                            }
                        } else {
                            (n, None)
                        }
                    }
                }
            };
            self.reader.consume(consume);
            match decision {
                None => continue, // need more bytes
                Some(None) => {
                    self.discarding = false; // newline ended the skip
                    continue;
                }
                Some(Some(ReadOutcome::Line(_))) => {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return ReadOutcome::Line(String::from_utf8_lossy(&line).into_owned());
                }
                Some(Some(outcome)) => return outcome,
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
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BoundedLineReader::new(stream, max_line);
    loop {
        let line = match reader.next() {
            ReadOutcome::Closed => return,
            ReadOutcome::Oversized => engine.oversized_line_response(max_line),
            ReadOutcome::Line(l) => {
                if l.trim().is_empty() {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                // open the request's x-ray root span (if this request is
                // sampled) and close it when the reply lands — including
                // the synthesized-timeout path, where the root must still
                // complete for the trace to become fetchable
                let xray = gbtl_trace::begin_request(l.trim(), "threaded");
                let reply = Reply::new(move |response: String| {
                    if let Some(ctx) = xray {
                        gbtl_trace::finish_request(ctx);
                    }
                    let _ = tx.send(response);
                });
                match engine.submit(l.trim(), reply, xray) {
                    Submission::Inline(response) => {
                        // inline answers bypass the reply (finish_root is
                        // idempotent, so a both-paths race stays safe)
                        if let Some(ctx) = xray {
                            gbtl_trace::finish_request(ctx);
                        }
                        response
                    }
                    Submission::Accepted {
                        deadline,
                        correlation,
                    } => {
                        let wait = deadline
                            .saturating_duration_since(Instant::now())
                            .saturating_add(DEADLINE_GRACE);
                        match rx.recv_timeout(wait) {
                            Ok(response) => response,
                            // a worker still mid-grind past the deadline:
                            // synthesize the timeout; the late real reply
                            // lands in a dropped channel (its send still
                            // finishes the x-ray root first)
                            Err(_) => engine.deadline_timeout_response(correlation),
                        }
                    }
                }
            }
        };
        let mut response = line;
        response.push('\n');
        if writer
            .write_all(response.as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            return;
        }
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
}
