//! gbtl-serve × gbtl-net integration: the front-ends on a real socket —
//! pipelining with in-order responses, framing edge cases (byte dribble,
//! split segments), the request-line length bound, a line nested past the
//! JSON reader's depth bound, idle timeout and late replies in **both**
//! front-ends, client-death isolation, graceful drain, an idle-connection
//! smoke, and the headline Engine-contract guarantee: both front-ends
//! return byte-identical result payloads.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use gbtl_serve::{run_loadgen, start, Client, FrontendMode, LoadgenOptions, ServerConfig};

fn config(mode: FrontendMode) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        mode,
        workers: 2,
        queue_capacity: 64,
        cache_capacity: 64,
        default_deadline_ms: 30_000,
        par_threads: 1,
        idle_timeout_ms: 0, // tests opt in explicitly
        preload: vec![("karate".into(), "karate".into())],
        ..ServerConfig::default()
    }
}

/// A raw NDJSON connection: no client-side helpers, so the bytes on the
/// wire are exactly what the test says they are.
struct Raw {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        Raw {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("write");
    }

    fn recv_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "peer closed while a response was expected");
        line.trim_end().to_string()
    }
}

fn query_line(id: u64) -> String {
    format!(
        "{{\"op\":\"query\",\"id\":{id},\"graph\":\"karate\",\
         \"algo\":\"bfs\",\"source\":{}}}\n",
        id % 34
    )
}

#[test]
fn evented_pipelined_burst_answers_in_request_order() {
    // the threaded front-end frames the same multi-line chunks and answers
    // them one at a time, so the order holds there too
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let handle = start(config(mode)).unwrap();
        let mut raw = Raw::connect(&handle.addr().to_string());

        // one giant write: 32 requests the server sees back to back, a mix
        // of worker-pool queries (miss then hits) and inline control ops
        let mut burst = String::new();
        for id in 0..32u64 {
            if id % 5 == 4 {
                burst.push_str("{\"op\":\"ping\"}\n");
            } else {
                burst.push_str(&query_line(id));
            }
        }
        raw.send(burst.as_bytes());

        for id in 0..32u64 {
            let response = raw.recv_line();
            let mode = mode.as_str();
            if id % 5 == 4 {
                assert!(
                    response.contains("\"pong\":true"),
                    "{mode} {id}: {response}"
                );
            } else {
                assert!(
                    response.contains(&format!("\"id\":{id},")),
                    "{mode}: response out of order at {id}: {response}"
                );
                assert!(
                    response.starts_with("{\"ok\":true"),
                    "{mode} {id}: {response}"
                );
            }
        }
        handle.shutdown_and_join();
    }
}

#[test]
fn evented_byte_dribble_and_split_segments_frame_correctly() {
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let handle = start(config(mode)).unwrap();
        let mut raw = Raw::connect(&handle.addr().to_string());

        // a request delivered one byte at a time still parses as one line
        for b in b"{\"op\":\"ping\",\"id\":1}\n" {
            raw.send(&[*b]);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            raw.recv_line().contains("\"pong\":true"),
            "{}",
            mode.as_str()
        );

        // one segment carrying a complete request plus the head of the
        // next, the tail arriving later — both answered, in order
        let a = query_line(7);
        let b = query_line(8);
        let (b_head, b_tail) = b.split_at(b.len() / 2);
        raw.send(format!("{a}{b_head}").as_bytes());
        std::thread::sleep(Duration::from_millis(30));
        raw.send(b_tail.as_bytes());
        assert!(raw.recv_line().contains("\"id\":7,"), "{}", mode.as_str());
        assert!(raw.recv_line().contains("\"id\":8,"), "{}", mode.as_str());

        // CRLF and blank lines are tolerated, not answered
        raw.send(b"\r\n\n{\"op\":\"ping\",\"id\":2}\r\n");
        assert!(
            raw.recv_line().contains("\"pong\":true"),
            "{}",
            mode.as_str()
        );

        handle.shutdown_and_join();
    }
}

#[test]
fn late_replies_are_delivered_on_both_front_ends() {
    // a deadline is the engine's: a request that is already executing when
    // it passes still answers with its real result, on either front-end,
    // and the connection goes on to the next request
    let mut answers = Vec::new();
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let handle = start(config(mode)).unwrap();
        let mut raw = Raw::connect(&handle.addr().to_string());
        raw.send(b"{\"op\":\"sleep\",\"ms\":600,\"deadline_ms\":100,\"id\":7}\n");
        let late = raw.recv_line();
        assert_eq!(
            late,
            "{\"ok\":true,\"id\":7,\"slept_ms\":600}",
            "{}",
            mode.as_str()
        );
        raw.send(b"{\"op\":\"ping\",\"id\":8}\n");
        assert!(
            raw.recv_line().contains("\"pong\":true"),
            "{}",
            mode.as_str()
        );
        answers.push(late);
        handle.shutdown_and_join();
    }
    assert_eq!(answers[0], answers[1], "the same bytes on both front-ends");
}

#[test]
fn oversized_line_rejected_with_the_knob_in_both_front_ends() {
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let mut cfg = config(mode);
        cfg.max_line = 256;
        let handle = start(cfg).unwrap();
        let mut raw = Raw::connect(&handle.addr().to_string());

        // far past the bound, no newline until the end — in chunks, so the
        // front-end must track the over-limit state across reads
        let junk = vec![b'x'; 2048];
        raw.send(&junk);
        raw.send(b"\n");
        let response = raw.recv_line();
        assert!(
            response.contains("\"code\":\"bad_request\""),
            "{}: {response}",
            mode.as_str()
        );
        assert!(
            response.contains("256") && response.contains("GBTL_SERVE_MAX_LINE"),
            "error names the bound and the knob: {response}"
        );

        // exactly one error per oversized line, and the connection is
        // fully usable afterwards
        raw.send(b"{\"op\":\"ping\",\"id\":3}\n");
        assert!(
            raw.recv_line().contains("\"pong\":true"),
            "{}",
            mode.as_str()
        );
        handle.shutdown_and_join();
    }
}

#[test]
fn a_deeply_nested_line_costs_one_request_in_both_front_ends() {
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let cfg = config(mode);
        let max_line = cfg.max_line;
        let handle = start(cfg).unwrap();
        let mut raw = Raw::connect(&handle.addr().to_string());
        raw.send(b"{\"op\":\"ping\",\"id\":1}\n");
        assert!(raw.recv_line().contains("\"pong\":true"));

        // a line as long as the bound allows, nothing but openings: the
        // reader recursed once per byte and overflowed the stack of the
        // thread that read it, which aborted the whole process
        for unit in ["[", "{\"a\":"] {
            let mut line = unit.repeat(max_line / unit.len()).into_bytes();
            line.push(b'\n');
            raw.send(&line);
            let response = raw.recv_line();
            assert!(
                response.contains("\"code\":\"bad_request\""),
                "{}: {response}",
                mode.as_str()
            );
            raw.send(b"{\"op\":\"ping\",\"id\":2}\n");
            assert!(
                raw.recv_line().contains("\"pong\":true"),
                "{}",
                mode.as_str()
            );
        }
        handle.shutdown_and_join();
    }
}

#[test]
fn idle_timeout_reaps_silent_connections_in_both_front_ends() {
    for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
        let mut cfg = config(mode);
        cfg.idle_timeout_ms = 300;
        let handle = start(cfg).unwrap();
        let addr = handle.addr().to_string();

        // a silent connection is closed: the blocking read sees EOF (or a
        // reset) well before the generous socket timeout
        let idle = TcpStream::connect(&addr).unwrap();
        idle.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut idle_reader = BufReader::new(idle);
        let mut buf = String::new();
        let reaped = match idle_reader.read_line(&mut buf) {
            Ok(0) => true,  // clean EOF
            Ok(_) => false, // the server sent data?!
            Err(e) => {
                e.kind() != std::io::ErrorKind::WouldBlock
                    && e.kind() != std::io::ErrorKind::TimedOut
            }
        };
        assert!(
            reaped,
            "{}: silent connection was not reaped",
            mode.as_str()
        );

        // a connection that keeps talking at sub-timeout intervals lives
        let mut active = Raw::connect(&addr);
        for _ in 0..4 {
            std::thread::sleep(Duration::from_millis(150));
            active.send(b"{\"op\":\"ping\"}\n");
            assert!(
                active.recv_line().contains("\"pong\":true"),
                "{}: active connection died",
                mode.as_str()
            );
        }
        handle.shutdown_and_join();
    }
}

#[test]
fn evented_client_death_mid_request_leaves_others_unharmed() {
    let handle = start(config(FrontendMode::Evented)).unwrap();
    let addr = handle.addr().to_string();

    // A sends half a request and vanishes
    {
        let mut dying = TcpStream::connect(&addr).unwrap();
        dying
            .write_all(b"{\"op\":\"query\",\"graph\":\"kar")
            .unwrap();
    } // dropped: RST or FIN mid-frame

    // B, connected the whole time, gets clean answers
    let mut b = Raw::connect(&addr);
    b.send(query_line(41).as_bytes());
    let response = b.recv_line();
    assert!(response.starts_with("{\"ok\":true"), "{response}");
    assert!(response.contains("\"id\":41,"));

    handle.shutdown_and_join();
}

#[test]
fn evented_graceful_shutdown_drains_admitted_work() {
    let handle = start(config(FrontendMode::Evented)).unwrap();
    let addr = handle.addr().to_string();

    // a slow job is admitted, then shutdown arrives from another client
    let inflight = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.request_json("{\"op\":\"sleep\",\"ms\":400,\"id\":9}")
                .unwrap()
        })
    };
    std::thread::sleep(Duration::from_millis(100));

    let mut c = Client::connect(&addr).unwrap();
    let ack = c.request_json("{\"op\":\"shutdown\"}").unwrap();
    assert_eq!(ack.bool_field("ok"), Some(true));

    // the admitted job still completes with a real answer
    let done = inflight.join().unwrap();
    assert_eq!(done.bool_field("ok"), Some(true));
    assert_eq!(done.u64_field("slept_ms"), Some(400));

    handle.join(); // poller and workers exit promptly
}

#[test]
fn evented_stats_expose_net_gauges_threaded_reports_null() {
    let handle = start(config(FrontendMode::Evented)).unwrap();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    let v = c.request_json("{\"op\":\"stats\"}").unwrap();
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.str_field("frontend"), Some("evented"));
    let net = stats.get("net").expect("net gauges present");
    assert!(net.u64_field("open_connections") >= Some(1));
    assert!(net.u64_field("accepted") >= Some(1));
    handle.shutdown_and_join();

    let handle = start(config(FrontendMode::Threaded)).unwrap();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    let v = c.request_json("{\"op\":\"stats\"}").unwrap();
    let stats = v.get("stats").unwrap();
    assert_eq!(stats.str_field("frontend"), Some("threaded"));
    assert!(
        stats
            .get("net")
            .is_none_or(|n| *n == gbtl::util::json::Value::Null),
        "threaded mode has no poller, so no net gauges"
    );
    handle.shutdown_and_join();
}

#[test]
fn front_ends_return_byte_identical_result_payloads() {
    let threaded = start(config(FrontendMode::Threaded)).unwrap();
    let evented = start(config(FrontendMode::Evented)).unwrap();
    let mut ct = Client::connect(&threaded.addr().to_string()).unwrap();
    let mut ce = Client::connect(&evented.addr().to_string()).unwrap();

    for algo in ["bfs", "sssp", "pagerank", "triangle_count", "cc", "mis"] {
        let line = format!(
            "{{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"{algo}\",\
             \"backend\":\"seq\",\"source\":1}}"
        );
        let rt = ct.request(&line).unwrap();
        let re = ce.request(&line).unwrap();
        assert_eq!(
            result_span(&rt),
            result_span(&re),
            "{algo}: front-ends disagree on the result payload"
        );
    }
    threaded.shutdown_and_join();
    evented.shutdown_and_join();
}

/// The `"result":{...}` span of a raw response — the deterministic
/// payload; surrounding per-request fields (`micros`) legitimately vary.
fn result_span(raw: &str) -> &str {
    let start = raw.find("\"result\":").expect("result object");
    let body = &raw[start..];
    let open = body.find('{').unwrap();
    let mut depth = 0usize;
    for (i, b) in body.as_bytes().iter().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return &body[..=i];
                }
            }
            _ => {}
        }
    }
    panic!("unterminated result object");
}

#[test]
fn evented_idle_flood_and_pipelined_loadgen_smoke() {
    let handle = start(config(FrontendMode::Evented)).unwrap();
    let opts = LoadgenOptions {
        addr: handle.addr().to_string(),
        clients: 4,
        requests_per_client: 25,
        graph: "karate".into(),
        backend: "seq".into(),
        source_count: 4,
        pipeline: 8,
        idle_conns: 200,
        ..LoadgenOptions::default()
    };
    let report = run_loadgen(&opts).unwrap();
    assert_eq!(report.corrupted, 0, "no corrupted responses");
    assert_eq!(report.ok, 4 * 25, "every pipelined request answered");
    assert_eq!(
        report.idle_alive, 200,
        "every idle connection survived the run and still answers"
    );
    handle.shutdown_and_join();
}
