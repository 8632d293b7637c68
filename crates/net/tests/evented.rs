//! Event-loop integration tests against a toy engine — no gbtl-serve
//! involved, so these pin down the *connection layer's* behavior alone:
//! pipelining order, framing under adversarial segmentation, oversized
//! lines, idle reaping, backpressure accounting, and drain.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gbtl_net::{serve, Engine, EventedConfig, EventedHandle, Reply, Submission};

/// Echoes `echo:<x>` inline, runs `defer:<ms>:<x>` on a worker thread
/// (completing after `ms`), so tests can force out-of-order completion.
struct EchoEngine {
    draining: AtomicBool,
    opened: AtomicU64,
    closed: AtomicU64,
    /// Replies parked until the test releases them (key = payload).
    parked: Mutex<Vec<(String, Reply)>>,
}

impl EchoEngine {
    fn new() -> Arc<EchoEngine> {
        Arc::new(EchoEngine {
            draining: AtomicBool::new(false),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            parked: Mutex::new(Vec::new()),
        })
    }

    fn release_parked(&self, payload: &str) {
        let mut parked = self.parked.lock().unwrap();
        if let Some(i) = parked.iter().position(|(p, _)| p == payload) {
            let (p, reply) = parked.remove(i);
            reply.send(format!("deferred:{p}"));
        }
    }
}

impl Engine for EchoEngine {
    fn submit(
        &self,
        line: &str,
        reply: Reply,
        _xray: Option<gbtl_trace::TraceContext>,
    ) -> Submission {
        if self.draining.load(Ordering::SeqCst) {
            return Submission::Inline("draining".into());
        }
        if let Some(rest) = line.strip_prefix("defer:") {
            let (ms, payload) = rest.split_once(':').unwrap_or(("0", rest));
            let ms: u64 = ms.parse().unwrap_or(0);
            let payload = payload.to_string();
            if ms == u64::MAX {
                unreachable!()
            } else if ms == 0 {
                // park until the test releases it explicitly
                self.parked.lock().unwrap().push((payload, reply));
            } else {
                let payload2 = payload;
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(ms));
                    reply.send(format!("deferred:{payload2}"));
                });
            }
            Submission::Accepted
        } else if let Some(rest) = line.strip_prefix("blow:") {
            // tiny request, huge response — for backpressure tests
            let (n, tag) = rest.split_once(':').unwrap_or(("0", rest));
            let n: usize = n.parse().unwrap_or(0);
            Submission::Inline(format!("blow:{tag}:{}", "B".repeat(n)))
        } else {
            Submission::Inline(format!("echo:{line}"))
        }
    }

    fn connection_opened(&self) {
        self.opened.fetch_add(1, Ordering::SeqCst);
    }

    fn connection_closed(&self) {
        self.closed.fetch_add(1, Ordering::SeqCst);
    }

    fn oversized_line_response(&self, max_line: usize) -> String {
        format!("oversized:{max_line}")
    }

    fn drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

fn start(config: EventedConfig) -> (Arc<EchoEngine>, EventedHandle) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let engine = EchoEngine::new();
    let handle = serve(listener, engine.clone(), config).unwrap();
    (engine, handle)
}

fn connect(handle: &EventedHandle) -> TcpStream {
    let s = TcpStream::connect(handle.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

#[test]
fn pipelined_requests_come_back_in_order() {
    let (_engine, handle) = start(EventedConfig::default());
    let mut s = connect(&handle);
    let mut batch = String::new();
    for i in 0..32 {
        batch.push_str(&format!("echo:{i}\n"));
    }
    s.write_all(batch.as_bytes()).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    for i in 0..32 {
        assert_eq!(read_line(&mut reader), format!("echo:echo:{i}"));
    }
    assert!(handle.stats().pipelined_depth_hwm.load(Ordering::Relaxed) >= 2);
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn out_of_order_completion_is_reordered_per_connection() {
    let (engine, handle) = start(EventedConfig::default());
    let mut s = connect(&handle);
    // first request parks until released; the rest answer immediately
    s.write_all(b"defer:0:slow\necho:a\necho:b\n").unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    // give the loop time to process the fast ones first
    std::thread::sleep(Duration::from_millis(100));
    engine.release_parked("slow");
    assert_eq!(read_line(&mut reader), "deferred:slow");
    assert_eq!(read_line(&mut reader), "echo:echo:a");
    assert_eq!(read_line(&mut reader), "echo:echo:b");
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn byte_dribble_and_split_segments_frame_correctly() {
    let (_engine, handle) = start(EventedConfig::default());
    let mut s = connect(&handle);
    for &b in b"dribble\n" {
        s.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    s.write_all(b"sp").unwrap();
    std::thread::sleep(Duration::from_millis(20));
    s.write_all(b"lit\nnext\n").unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    assert_eq!(read_line(&mut reader), "echo:dribble");
    assert_eq!(read_line(&mut reader), "echo:split");
    assert_eq!(read_line(&mut reader), "echo:next");
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn oversized_line_rejected_connection_stays_usable() {
    let (_engine, handle) = start(EventedConfig {
        max_line: 16,
        ..EventedConfig::default()
    });
    let mut s = connect(&handle);
    let long = "x".repeat(100);
    s.write_all(format!("{long}\nok\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(s.try_clone().unwrap());
    assert_eq!(read_line(&mut reader), "oversized:16");
    assert_eq!(read_line(&mut reader), "echo:ok");
    assert_eq!(handle.stats().oversized_lines.load(Ordering::Relaxed), 1);
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn close_mid_request_does_not_corrupt_other_clients() {
    let (_engine, handle) = start(EventedConfig::default());
    let mut victim = connect(&handle);
    let mut bystander = connect(&handle);
    // victim sends half a request then vanishes
    victim.write_all(b"echo:half-a-reque").unwrap();
    std::thread::sleep(Duration::from_millis(30));
    drop(victim);
    // a client that disconnects with work in flight is also fine
    let mut rude = connect(&handle);
    rude.write_all(b"defer:50:gone\n").unwrap();
    std::thread::sleep(Duration::from_millis(10));
    drop(rude);
    // bystander is unaffected, before and after the close
    bystander.write_all(b"echo:1\n").unwrap();
    let mut reader = BufReader::new(bystander.try_clone().unwrap());
    assert_eq!(read_line(&mut reader), "echo:echo:1");
    std::thread::sleep(Duration::from_millis(100)); // rude's reply lands, is dropped
    bystander.write_all(b"echo:2\n").unwrap();
    assert_eq!(read_line(&mut reader), "echo:echo:2");
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn idle_connections_are_reaped_active_ones_are_not() {
    let (engine, handle) = start(EventedConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..EventedConfig::default()
    });
    let idle = connect(&handle);
    let mut active = connect(&handle);
    let mut reader = BufReader::new(active.try_clone().unwrap());
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(900) {
        active.write_all(b"echo:beat\n").unwrap();
        assert_eq!(read_line(&mut reader), "echo:echo:beat");
        std::thread::sleep(Duration::from_millis(100));
    }
    // the idle connection was reaped: reading sees EOF
    let mut idle = idle;
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut byte = [0u8; 1];
    match idle.read(&mut byte) {
        Ok(0) => {}
        other => panic!("expected EOF on reaped connection, got {other:?}"),
    }
    assert_eq!(handle.stats().idle_timeouts.load(Ordering::Relaxed), 1);
    assert_eq!(engine.closed.load(Ordering::SeqCst), 1);
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn slow_reader_triggers_backpressure_but_loses_nothing() {
    let (_engine, handle) = start(EventedConfig {
        outbound_limit: 1024, // tiny, so the test trips it fast
        ..EventedConfig::default()
    });
    let mut s = connect(&handle);
    // tiny pipelined requests that expand to ~16 MiB of responses — far
    // more than the kernel's socket buffers can hide, so the outbound
    // buffer must cross the limit while the client refuses to read
    let size = 4096usize;
    let count = 4000usize;
    let mut batch = String::new();
    for i in 0..count {
        batch.push_str(&format!("blow:{size}:{i}\n"));
    }
    s.write_all(batch.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    // now read everything; every response must arrive, in order
    let expect_tail = "B".repeat(size);
    let mut reader = BufReader::new(s.try_clone().unwrap());
    for i in 0..count {
        assert_eq!(read_line(&mut reader), format!("blow:{i}:{expect_tail}"));
    }
    assert!(
        handle.stats().backpressure_events.load(Ordering::Relaxed) >= 1,
        "tiny outbound limit must have tripped at least once"
    );
    handle.begin_shutdown();
    handle.join();
}

#[test]
fn shutdown_flushes_pending_responses_then_closes() {
    let (_engine, handle) = start(EventedConfig::default());
    let mut s = connect(&handle);
    s.write_all(b"defer:150:work\n").unwrap();
    std::thread::sleep(Duration::from_millis(30));
    handle.begin_shutdown();
    // the in-flight deferred response still arrives, then EOF
    let mut reader = BufReader::new(s.try_clone().unwrap());
    assert_eq!(read_line(&mut reader), "deferred:work");
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "connection closes after the flush");
    let addr = handle.addr();
    handle.join();
    // new connections are refused once the loop exits
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s2) => {
            // the listener socket is closed; a connect that raced through
            // the backlog sees immediate EOF
            s2.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let mut b = [0u8; 1];
            match s2.read(&mut b) {
                Ok(0) => {}
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
                other => panic!("expected refused/EOF after shutdown, got {other:?}"),
            }
        }
    }
}

#[test]
fn many_idle_connections_hold_open_cheaply() {
    let (_engine, handle) = start(EventedConfig {
        idle_timeout: None,
        ..EventedConfig::default()
    });
    let conns: Vec<TcpStream> = (0..128).map(|_| connect(&handle)).collect();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(handle.stats().open(), 128);
    // every one of them still works
    for (i, mut s) in conns.into_iter().enumerate() {
        s.write_all(format!("echo:{i}\n").as_bytes()).unwrap();
        let mut reader = BufReader::new(s);
        assert_eq!(read_line(&mut reader), format!("echo:echo:{i}"));
    }
    handle.begin_shutdown();
    handle.join();
}
