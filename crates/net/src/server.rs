//! The event loop: every connection on one poller thread.
//!
//! ## Structure
//!
//! One thread owns the non-blocking listener, a self-pipe waker, and every
//! connection. Each iteration it rebuilds the `poll(2)` fd set (listener
//! while accepting, waker always, each connection for read and/or write
//! readiness), sleeps in the kernel until something is ready, then:
//!
//! 1. drains the waker and the completion queue (worker threads finishing
//!    accepted requests push here and wake the loop);
//! 2. accepts new connections until `EWOULDBLOCK`;
//! 3. reads ready connections, frames complete lines
//!    ([`crate::LineFramer`]), and submits each to the [`Engine`];
//! 4. flushes response bytes, strictly in request order per connection;
//! 5. sweeps idle timeouts and, when draining, retires finished
//!    connections until none remain.
//!
//! ## Pipelining and ordering
//!
//! A client may write any number of requests without reading. Each framed
//! line gets a **slot** in the connection's pending queue; inline
//! responses fill their slot immediately, accepted ones are filled by the
//! completion queue whenever the engine finishes — in any order. Bytes
//! leave the socket only from the queue's *head*, so responses always come
//! back in request order no matter how execution interleaved.
//!
//! ## Backpressure
//!
//! The outbound buffer is bounded by `outbound_limit`: while a connection
//! has more unsent response bytes than that, the loop stops polling it for
//! readability, so a client that pipelines faster than it reads is
//! throttled by its own TCP window instead of growing server memory
//! (counted in [`NetStats::backpressure_events`]). Partial writes register
//! the connection for writability and resume exactly where they stopped.
//!
//! ## Timeouts
//!
//! A connection with no pending work and no read activity for
//! `idle_timeout` is reaped (slow-loris clients hold an fd, not a thread,
//! and now not even the fd). Connections *waiting on accepted work* are
//! never reaped — the engine owes them a response.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::engine::{Engine, Reply, Submission};
use crate::framer::LineFramer;
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use gbtl_util::sync::lock;

/// How long one `poll(2)` sleep lasts at most — the granularity of idle
/// sweeps and drain checks. Readiness and wakes interrupt it immediately.
const POLL_TICK: Duration = Duration::from_millis(200);

/// Per-readiness read budget per connection, so one firehose client cannot
/// starve the rest of the loop (level-triggered polling re-reports leftover
/// data next iteration).
const READ_BUDGET: usize = 64 * 1024;

/// Tuning for [`serve`]. `Default` matches the documented knob defaults.
#[derive(Debug, Clone)]
pub struct EventedConfig {
    /// Longest accepted request line, bytes (`GBTL_SERVE_MAX_LINE`).
    pub max_line: usize,
    /// Reap connections idle this long; `None` disables
    /// (`GBTL_SERVE_IDLE_TIMEOUT`, milliseconds, 0 disables).
    pub idle_timeout: Option<Duration>,
    /// Unsent response bytes per connection beyond which reads are
    /// throttled.
    pub outbound_limit: usize,
}

impl Default for EventedConfig {
    fn default() -> Self {
        EventedConfig {
            max_line: 64 * 1024,
            idle_timeout: Some(Duration::from_secs(60)),
            outbound_limit: 256 * 1024,
        }
    }
}

/// Cumulative connection-layer counters, shared with whoever exposes
/// metrics (relaxed atomics; single writer for most, the poller thread).
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Connections closed (any reason, reaps included).
    pub closed: AtomicU64,
    /// Connections reaped by the idle timeout.
    pub idle_timeouts: AtomicU64,
    /// Oversized request lines rejected.
    pub oversized_lines: AtomicU64,
    /// Times a connection entered read-throttle (outbound over the limit).
    pub backpressure_events: AtomicU64,
    /// Asynchronous completions delivered through the queue.
    pub completions: AtomicU64,
    /// High-water mark of per-connection pipelined depth (pending
    /// responses on one connection).
    pub pipelined_depth_hwm: AtomicU64,
    /// Payload bytes read from clients.
    pub bytes_in: AtomicU64,
    /// Response bytes written to clients.
    pub bytes_out: AtomicU64,
}

impl NetStats {
    /// Connections currently open.
    pub fn open(&self) -> u64 {
        self.accepted
            .load(Ordering::Relaxed)
            .saturating_sub(self.closed.load(Ordering::Relaxed))
    }
}

/// The self-pipe: a nonblocking socketpair whose read end sits in the poll
/// set. Any thread can [`Waker::wake`] the loop by writing a byte.
#[derive(Debug)]
struct Waker {
    tx: Arc<UnixStream>,
    rx: UnixStream,
}

impl Waker {
    fn new() -> std::io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx: Arc::new(tx),
            rx,
        })
    }

    /// Drain pending wake bytes (level-triggered poll would otherwise spin).
    fn clear(&mut self) {
        let mut buf = [0u8; 64];
        while matches!(self.rx.read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Wake the loop owning the read end of `tx`. A full pipe already wakes,
/// so `WouldBlock` is success.
fn wake(tx: &UnixStream) {
    let _ = (&*tx).write(&[1u8]);
}

/// One queued asynchronous response: which connection, which slot, what to
/// send.
#[derive(Debug)]
struct Completion {
    conn: u64,
    seq: u64,
    response: String,
}

/// Where engine worker threads deliver accepted-request responses.
#[derive(Debug, Default)]
struct Completions {
    queue: Mutex<Vec<Completion>>,
}

/// One in-order response slot (see the module docs on pipelining).
#[derive(Debug)]
struct Slot {
    seq: u64,
    response: Option<String>,
}

/// Per-connection state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    pending: std::collections::VecDeque<Slot>,
    next_seq: u64,
    outbound: Vec<u8>,
    out_pos: usize,
    last_activity: Instant,
    throttled: bool,
}

impl Conn {
    fn new(stream: TcpStream, max_line: usize, now: Instant) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(max_line),
            pending: std::collections::VecDeque::new(),
            next_seq: 0,
            outbound: Vec::new(),
            out_pos: 0,
            last_activity: now,
            throttled: false,
        }
    }

    fn unsent(&self) -> usize {
        self.outbound.len() - self.out_pos
    }

    /// Move every completed head slot's bytes into the outbound buffer.
    fn promote(&mut self) {
        while matches!(self.pending.front(), Some(s) if s.response.is_some()) {
            let slot = self.pending.pop_front().unwrap();
            self.outbound.push_str_bytes(slot.response.unwrap());
        }
    }

    /// Write as much outbound as the socket accepts. `Ok(false)` means the
    /// peer is gone and the connection should close.
    fn flush(&mut self, stats: &NetStats) -> bool {
        while self.out_pos < self.outbound.len() {
            match self.stream.write(&self.outbound[self.out_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.out_pos += n;
                    stats.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.out_pos == self.outbound.len() {
            self.outbound.clear();
            self.out_pos = 0;
        } else if self.out_pos > 64 * 1024 {
            self.outbound.drain(..self.out_pos);
            self.out_pos = 0;
        }
        true
    }
}

/// `Vec<u8>` response append with the protocol's framing newline.
trait PushResponse {
    fn push_str_bytes(&mut self, s: String);
}

impl PushResponse for Vec<u8> {
    fn push_str_bytes(&mut self, s: String) {
        self.extend_from_slice(s.as_bytes());
        self.push(b'\n');
    }
}

/// A running evented front-end. Dropping the handle does **not** stop the
/// loop; call [`EventedHandle::begin_shutdown`] (or drain the engine) and
/// then [`EventedHandle::join`].
#[derive(Debug)]
pub struct EventedHandle {
    addr: SocketAddr,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
    waker_tx: Arc<UnixStream>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl EventedHandle {
    /// The bound address (port 0 resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The loop's connection-layer counters.
    pub fn stats(&self) -> Arc<NetStats> {
        self.stats.clone()
    }

    /// Ask the loop to drain the engine and exit once every pending
    /// response has been flushed. Idempotent, returns immediately.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake(&self.waker_tx);
    }

    /// Wait for the poller thread to exit.
    pub fn join(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Start the event loop on `listener`, answering with `engine`. One
/// thread, `gbtl-net-poller`, is spawned; see the module docs for its
/// behavior and the [`crate::engine`] docs for the contract `engine` must
/// uphold.
pub fn serve(
    listener: TcpListener,
    engine: Arc<dyn Engine>,
    config: EventedConfig,
) -> std::io::Result<EventedHandle> {
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let waker = Waker::new()?;
    let waker_tx = waker.tx.clone();
    let stats = Arc::new(NetStats::default());
    let shutdown = Arc::new(AtomicBool::new(false));
    let thread = {
        let (stats, shutdown) = (stats.clone(), shutdown.clone());
        std::thread::Builder::new()
            .name("gbtl-net-poller".into())
            .spawn(move || event_loop(listener, engine, config, waker, stats, shutdown))?
    };
    Ok(EventedHandle {
        addr,
        stats,
        shutdown,
        waker_tx,
        thread: Some(thread),
    })
}

fn event_loop(
    listener: TcpListener,
    engine: Arc<dyn Engine>,
    config: EventedConfig,
    mut waker: Waker,
    stats: Arc<NetStats>,
    shutdown: Arc<AtomicBool>,
) {
    let completions = Arc::new(Completions::default());
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn_id: u64 = 1;
    let mut drain_signalled = false;

    // Reused every iteration: the fd set and, parallel to it, which
    // connection each entry belongs to (0 = listener/waker sentinels).
    let mut fds: Vec<PollFd> = Vec::new();
    let mut owners: Vec<u64> = Vec::new();

    loop {
        if (shutdown.load(Ordering::SeqCst) || engine.is_draining()) && !drain_signalled {
            engine.drain(); // idempotent; covers the handle-initiated path
            drain_signalled = true;
        }
        let draining = drain_signalled;

        fds.clear();
        owners.clear();
        fds.push(PollFd::new(waker.rx.as_raw_fd(), POLLIN));
        owners.push(0);
        if !draining {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
            owners.push(0);
        }
        let listener_slot = if draining { None } else { Some(1usize) };
        for (&id, conn) in conns.iter() {
            let mut events = 0i16;
            if !conn.throttled {
                events |= POLLIN;
            }
            if conn.unsent() > 0 {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
            owners.push(id);
        }

        if poll_fds(&mut fds, POLL_TICK.as_millis() as i32).is_err() {
            // only unrecoverable poll faults land here (EINTR is retried
            // inside); back off instead of spinning
            std::thread::sleep(Duration::from_millis(10));
        }
        let now = Instant::now();
        waker.clear();

        // Connections whose state changed and need a promote/flush pass.
        let mut dirty: Vec<u64> = Vec::new();

        // 1. asynchronous completions → slots
        let finished = std::mem::take(&mut *lock(&completions.queue));
        for c in finished {
            stats.completions.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = conns.get_mut(&c.conn) {
                if let Some(slot) = conn.pending.iter_mut().find(|s| s.seq == c.seq) {
                    if slot.response.is_none() {
                        slot.response = Some(c.response);
                        dirty.push(c.conn);
                    }
                }
            } // connection already gone: the response has no reader — drop
        }

        // 2. accept
        if let Some(slot) = listener_slot {
            if fds[slot].readable() {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(true);
                            let _ = stream.set_nodelay(true);
                            stats.accepted.fetch_add(1, Ordering::Relaxed);
                            engine.connection_opened();
                            conns.insert(next_conn_id, Conn::new(stream, config.max_line, now));
                            next_conn_id += 1;
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        // EMFILE and friends: stop this round; the listener
                        // backlog holds the connection until fds free up
                        Err(_) => break,
                    }
                }
            }
        }

        // 3. per-connection readiness
        let mut closed: Vec<u64> = Vec::new();
        for (slot, &owner) in owners.iter().enumerate() {
            if owner == 0 {
                continue;
            }
            let Some(conn) = conns.get_mut(&owner) else {
                continue;
            };
            let mut alive = true;
            if fds[slot].readable() && !conn.throttled {
                alive = read_ready(
                    conn,
                    owner,
                    engine.as_ref(),
                    &completions,
                    &waker.tx,
                    &stats,
                    &config,
                    now,
                );
                dirty.push(owner);
            }
            if alive && fds[slot].writable() {
                alive = conn.flush(&stats);
                dirty.push(owner);
            }
            if !alive {
                closed.push(owner);
            }
        }

        // 4. promote + flush everything that changed, update throttling
        dirty.sort_unstable();
        dirty.dedup();
        for id in dirty {
            let Some(conn) = conns.get_mut(&id) else {
                continue;
            };
            conn.promote();
            if !conn.flush(&stats) {
                closed.push(id);
                continue;
            }
            let over = conn.unsent() > config.outbound_limit;
            if over && !conn.throttled {
                stats.backpressure_events.fetch_add(1, Ordering::Relaxed);
            }
            conn.throttled = over;
        }

        // 5. idle sweep + drain retirement
        for (&id, conn) in conns.iter() {
            let finished = conn.pending.is_empty() && conn.unsent() == 0;
            if draining && finished {
                closed.push(id);
                continue;
            }
            if let Some(idle) = config.idle_timeout {
                if finished && now.duration_since(conn.last_activity) >= idle {
                    stats.idle_timeouts.fetch_add(1, Ordering::Relaxed);
                    closed.push(id);
                }
            }
        }

        closed.sort_unstable();
        closed.dedup();
        for id in closed {
            if conns.remove(&id).is_some() {
                stats.closed.fetch_add(1, Ordering::Relaxed);
                engine.connection_closed();
            }
        }

        if draining && conns.is_empty() {
            return;
        }
    }
}

/// Read until `WouldBlock` (bounded by [`READ_BUDGET`]), frame, submit.
/// Returns false when the peer closed or errored and the connection should
/// be dropped.
#[allow(clippy::too_many_arguments)] // private: the loop's unpacked state
fn read_ready(
    conn: &mut Conn,
    conn_id: u64,
    engine: &dyn Engine,
    completions: &Arc<Completions>,
    waker_tx: &Arc<UnixStream>,
    stats: &NetStats,
    config: &EventedConfig,
    now: Instant,
) -> bool {
    let mut buf = [0u8; 8 * 1024];
    let mut taken = 0usize;
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => return false, // peer closed; undelivered work is moot
            Ok(n) => {
                taken += n;
                stats.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                conn.last_activity = now;
                for frame in conn.framer.requests(&buf[..n]) {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let response = match frame {
                        None => {
                            stats.oversized_lines.fetch_add(1, Ordering::Relaxed);
                            Some(engine.oversized_line_response(config.max_line))
                        }
                        Some(line) => {
                            // Head-sampling decision: a substring scan and
                            // a load when unsampled. A sampled request's root span
                            // closes when its response is handed to the
                            // completion queue (finish is idempotent, so
                            // the Inline arm closing it again is harmless).
                            let xray = gbtl_trace::begin_request(&line, "evented");
                            let reply = {
                                let completions = completions.clone();
                                let waker_tx = waker_tx.clone();
                                Reply::new(move |response| {
                                    if let Some(ctx) = xray {
                                        gbtl_trace::finish_request(ctx);
                                    }
                                    lock(&completions.queue).push(Completion {
                                        conn: conn_id,
                                        seq,
                                        response,
                                    });
                                    wake(&waker_tx);
                                })
                            };
                            match engine.submit(&line, reply, xray) {
                                Submission::Inline(r) => {
                                    if let Some(ctx) = xray {
                                        gbtl_trace::finish_request(ctx);
                                    }
                                    Some(r)
                                }
                                Submission::Accepted => None,
                            }
                        }
                    };
                    conn.pending.push_back(Slot { seq, response });
                    stats
                        .pipelined_depth_hwm
                        .fetch_max(conn.pending.len() as u64, Ordering::Relaxed);
                }
                if taken >= READ_BUDGET {
                    return true; // fairness: the rest stays in the kernel
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}
