//! Client-side helpers: a line-protocol client and a closed-loop load
//! generator (used by the integration suite).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gbtl_util::json::{parse, Value};
use gbtl_util::sync::lock;

use crate::protocol::Algo;

/// A blocking newline-delimited-JSON client for one connection.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (any `ToSocketAddrs` string like `127.0.0.1:7411`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // request/response ping-pong with small frames: Nagle + delayed ACK
        // would add tens of ms per round-trip
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line and read one response line (trailing newline
    /// stripped).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// [`Client::request`] + JSON parse.
    pub fn request_json(&mut self, line: &str) -> std::io::Result<Value> {
        let raw = self.request(line)?;
        parse(&raw).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response JSON ({e}): {raw}"),
            )
        })
    }
}

/// What the load generator should drive.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address.
    pub addr: String,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Requests each client issues.
    pub requests_per_client: usize,
    /// Catalog graph name to query.
    pub graph: String,
    /// Algorithms cycled round-robin per request.
    pub algos: Vec<Algo>,
    /// Backend name sent with every query (`seq`/`par`/`cuda`).
    pub backend: String,
    /// Number of distinct BFS/SSSP sources to cycle through (1 makes every
    /// request identical — the cache-friendly extreme).
    pub source_count: usize,
    /// Pipeline depth: with `> 1`, each client keeps up to this many
    /// requests in flight on one connection and verifies the responses come
    /// back **in request order**; `0`/`1` is the classic closed loop (one
    /// request, one response).
    pub pipeline: usize,
    /// Idle-connection flood: open this many extra connections *before*
    /// the query phase, hold them silent throughout, and ping each
    /// afterwards — [`LoadgenReport::idle_alive`] counts the survivors.
    pub idle_conns: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: "127.0.0.1:7411".into(),
            clients: 8,
            requests_per_client: 50,
            graph: "karate".into(),
            algos: vec![Algo::Bfs, Algo::Pagerank, Algo::TriangleCount],
            backend: "par".into(),
            source_count: 8,
            pipeline: 1,
            idle_conns: 0,
        }
    }
}

/// Aggregated outcome of a load-generation run.
#[derive(Debug, Default)]
pub struct LoadgenReport {
    /// Successful (`ok:true`) responses.
    pub ok: u64,
    /// Of those, how many were served from the result cache.
    pub cached: u64,
    /// Clean server-side rejections, by error code.
    pub errors: Vec<(String, u64)>,
    /// Responses that were missing, unparsable, or answered the wrong
    /// request id — must be zero on a healthy run.
    pub corrupted: u64,
    /// Of [`LoadgenOptions::idle_conns`] idle connections held through the
    /// run, how many still answered a ping afterwards.
    pub idle_alive: u64,
}

/// Shared tallies every client thread reports into.
#[derive(Debug, Default, Clone)]
struct Tallies {
    corrupted: Arc<AtomicU64>,
    cached: Arc<AtomicU64>,
    ok: Arc<AtomicU64>,
    errors: Arc<Mutex<std::collections::HashMap<String, u64>>>,
}

impl Tallies {
    /// Validate one raw response against the id it must answer.
    fn score(&self, raw: &str, expected_id: u64) {
        match parse(raw) {
            Ok(v) => {
                let id_ok = v.u64_field("id") == Some(expected_id);
                if v.bool_field("ok") == Some(true) && id_ok {
                    self.ok.fetch_add(1, Ordering::Relaxed);
                    if v.bool_field("cached") == Some(true) {
                        self.cached.fetch_add(1, Ordering::Relaxed);
                    }
                } else if v.bool_field("ok") == Some(false) && id_ok {
                    let code = v.str_field("code").unwrap_or("unknown").to_string();
                    *lock(&self.errors).entry(code).or_insert(0) += 1;
                } else {
                    self.corrupted.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.corrupted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Build client `c`'s `r`-th request line.
fn request_line(opts: &LoadgenOptions, c: usize, r: usize) -> (u64, String) {
    let algo = opts.algos[r % opts.algos.len().max(1)];
    let id = (c as u64) * 1_000_000 + r as u64;
    let source = (c * 31 + r * 17) % opts.source_count.max(1);
    let line = format!(
        "{{\"op\":\"query\",\"id\":{id},\"graph\":\"{}\",\"algo\":\"{}\",\
         \"backend\":\"{}\",\"source\":{source}}}",
        opts.graph,
        algo.as_str(),
        opts.backend
    );
    (id, line)
}

/// The classic closed loop: one request, wait for its response, repeat.
fn closed_loop_client(opts: &LoadgenOptions, c: usize, tallies: &Tallies) -> std::io::Result<()> {
    let mut client = Client::connect(&opts.addr)?;
    for r in 0..opts.requests_per_client {
        let (id, line) = request_line(opts, c, r);
        let Ok(raw) = client.request(&line) else {
            tallies.corrupted.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        tallies.score(&raw, id);
    }
    Ok(())
}

/// The pipelined loop: keep up to `depth` requests in flight on one
/// connection, and require the responses to come back **in request order**
/// (the wire contract both front-ends uphold) — an out-of-order or missing
/// response counts as corrupted.
fn pipelined_client(
    opts: &LoadgenOptions,
    c: usize,
    depth: usize,
    tallies: &Tallies,
) -> std::io::Result<()> {
    let stream = TcpStream::connect(&opts.addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    // ids, oldest first
    let mut inflight: std::collections::VecDeque<u64> =
        std::collections::VecDeque::with_capacity(depth);

    let mut read_one = |inflight: &mut std::collections::VecDeque<u64>| -> bool {
        let Some(id) = inflight.pop_front() else {
            return false;
        };
        let mut raw = String::new();
        match reader.read_line(&mut raw) {
            Ok(n) if n > 0 => {
                tallies.score(raw.trim_end(), id);
                true
            }
            _ => {
                // connection died: this and every other in-flight request is
                // unanswered
                tallies
                    .corrupted
                    .fetch_add(1 + inflight.len() as u64, Ordering::Relaxed);
                inflight.clear();
                false
            }
        }
    };

    for r in 0..opts.requests_per_client {
        let (id, mut line) = request_line(opts, c, r);
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() {
            tallies.corrupted.fetch_add(
                (opts.requests_per_client - r) as u64 + inflight.len() as u64,
                Ordering::Relaxed,
            );
            return Ok(());
        }
        inflight.push_back(id);
        while inflight.len() >= depth {
            if !read_one(&mut inflight) {
                return Ok(());
            }
        }
    }
    while !inflight.is_empty() {
        if !read_one(&mut inflight) {
            break;
        }
    }
    Ok(())
}

/// Drive `clients` concurrent clients — closed-loop or pipelined per
/// [`LoadgenOptions::pipeline`], optionally alongside an idle-connection
/// flood — and aggregate the result. Every response is validated: parsed,
/// `ok` checked, and matched back to its request id — anything else counts
/// as corrupted.
pub fn run_loadgen(opts: &LoadgenOptions) -> std::io::Result<LoadgenReport> {
    let tallies = Tallies::default();

    // the idle flood connects before the query phase and stays silent
    let mut idle: Vec<Client> = Vec::with_capacity(opts.idle_conns);
    for _ in 0..opts.idle_conns {
        idle.push(Client::connect(&opts.addr)?);
    }

    let mut handles = Vec::new();
    for c in 0..opts.clients {
        let opts = opts.clone();
        let tallies = tallies.clone();
        handles.push(std::thread::spawn(move || -> std::io::Result<()> {
            let depth = opts.pipeline.max(1);
            if depth > 1 {
                pipelined_client(&opts, c, depth, &tallies)
            } else {
                closed_loop_client(&opts, c, &tallies)
            }
        }));
    }
    for h in handles {
        match h.join() {
            Ok(Ok(())) => {}
            // a client that could not even connect counts all its requests
            // as corrupted
            Ok(Err(_)) | Err(_) => {
                tallies
                    .corrupted
                    .fetch_add(opts.requests_per_client as u64, Ordering::Relaxed);
            }
        }
    }

    // now that the query phase is over, every idle connection must still be
    // answering — the flood proves idle connections survive load untouched
    let mut idle_alive = 0u64;
    for c in idle.iter_mut() {
        let alive = c
            .request_json("{\"op\":\"ping\"}")
            .map(|v| v.bool_field("pong") == Some(true))
            .unwrap_or(false);
        if alive {
            idle_alive += 1;
        }
    }

    let mut errors: Vec<(String, u64)> = lock(&tallies.errors).drain().collect();
    errors.sort();
    Ok(LoadgenReport {
        ok: tallies.ok.load(Ordering::Relaxed),
        cached: tallies.cached.load(Ordering::Relaxed),
        errors,
        corrupted: tallies.corrupted.load(Ordering::Relaxed),
        idle_alive,
    })
}
