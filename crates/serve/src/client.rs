//! Client-side helpers: a line-protocol client and a closed-loop load
//! generator (used by the `loadgen` binary, the integration suite, and the
//! R-S3 experiment).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// Catalog graph name to query (single-graph mode).
    pub graph: String,
    /// Multi-graph mode: when non-empty, each request picks its graph from
    /// this list with a zipf-skewed distribution (see
    /// [`LoadgenOptions::zipf`]) instead of using [`LoadgenOptions::graph`]
    /// — the workload shape for exercising a sharded catalog, where a
    /// skewed pick hits a hot shard harder than the others.
    pub graphs: Vec<String>,
    /// Zipf skew exponent `s` for multi-graph mode: graph `k` (0-based,
    /// list order) is picked with weight `1/(k+1)^s`. `0` is uniform; `1`
    /// the classic zipf; larger is hotter. Picks are a deterministic hash
    /// of (client, request), so two runs issue identical workloads.
    pub zipf: f64,
    /// Algorithms cycled round-robin per request.
    pub algos: Vec<Algo>,
    /// Backend name sent with every query (`seq`/`par`/`cuda`).
    pub backend: String,
    /// Traversal direction sent with every bfs/sssp query
    /// (`push`/`pull`/`auto`). `auto` — the server default — is omitted
    /// from the wire so the common case exercises the defaulting path.
    pub direction: String,
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
    /// Same-graph burst mode (`--same-graph`): every client queries
    /// [`LoadgenOptions::graph`] with the *first* algorithm in
    /// [`LoadgenOptions::algos`], and the clients advance in barrier-
    /// synchronized rounds — all of round `r`'s requests hit the server
    /// within microseconds of each other, each from a distinct root (when
    /// [`LoadgenOptions::source_count`] ≥ clients). This is the query-
    /// fusion workload: a fused server should coalesce each round into a
    /// handful of multi-source batches. [`LoadgenReport::batch_us`] records
    /// each round's wall-clock alongside the usual per-request latencies.
    pub same_graph: bool,
    /// X-ray sampling: the first this-many requests issued **run-wide**
    /// (across all clients, first-come order) carry the `"xray":true`
    /// force-sample marker. The server answers each with its trace id,
    /// collected into [`LoadgenReport::traced`] so the slowest traced
    /// request's span tree can be fetched afterwards. `0` disables.
    pub xray: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: "127.0.0.1:7411".into(),
            clients: 8,
            requests_per_client: 50,
            graph: "karate".into(),
            graphs: Vec::new(),
            zipf: 1.0,
            algos: vec![Algo::Bfs, Algo::Pagerank, Algo::TriangleCount],
            backend: "par".into(),
            direction: "auto".into(),
            source_count: 8,
            pipeline: 1,
            idle_conns: 0,
            same_graph: false,
            xray: 0,
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
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
    /// Per-request client-observed latencies, sorted ascending, microseconds.
    pub latencies_us: Vec<u64>,
    /// Each client's *first*-request latency (the cold path: first touch of
    /// the result cache and, server-side, the transpose cache), sorted
    /// ascending, microseconds.
    pub first_us: Vec<u64>,
    /// Every subsequent request's latency (steady state), sorted ascending,
    /// microseconds.
    pub steady_us: Vec<u64>,
    /// Of [`LoadgenOptions::idle_conns`] idle connections held through the
    /// run, how many still answered a ping afterwards.
    pub idle_alive: u64,
    /// Multi-graph mode only: how many requests targeted each graph, in
    /// [`LoadgenOptions::graphs`] order (the zipf distribution actually
    /// issued — deterministic for given options). Empty in single-graph
    /// mode.
    pub graph_counts: Vec<(String, u64)>,
    /// Same-graph burst mode only: each round's wall-clock from barrier
    /// release to the last member's response, sorted ascending,
    /// microseconds — the per-batch half of the latency split (per-request
    /// latencies stay in [`LoadgenReport::latencies_us`]). Empty otherwise.
    pub batch_us: Vec<u64>,
    /// `--xray` mode only: `(latency_us, trace_id)` for every successful
    /// response that carried a server-assigned trace id, sorted by latency
    /// ascending — the last entry is the slowest traced request, whose span
    /// tree `{"op":"xray","trace_id":N}` retrieves. Empty otherwise.
    pub traced: Vec<(u64, u64)>,
}

impl LoadgenReport {
    /// Completed requests per second of wall-clock.
    pub fn qps(&self) -> f64 {
        let total = self.ok + self.errors.iter().map(|(_, n)| n).sum::<u64>();
        if self.elapsed.as_secs_f64() > 0.0 {
            total as f64 / self.elapsed.as_secs_f64()
        } else {
            0.0
        }
    }

    /// The `p`-th latency percentile in microseconds (nearest-rank, the
    /// shared [`gbtl_util::stats`] definition — the same one server-side
    /// histogram snapshots use, so the two sides are comparable).
    pub fn percentile_us(&self, p: f64) -> u64 {
        gbtl_util::stats::percentile_sorted(&self.latencies_us, p)
    }

    /// Percentile over the per-client first requests only (cold path).
    pub fn first_percentile_us(&self, p: f64) -> u64 {
        gbtl_util::stats::percentile_sorted(&self.first_us, p)
    }

    /// Percentile over every non-first request (steady state).
    pub fn steady_percentile_us(&self, p: f64) -> u64 {
        gbtl_util::stats::percentile_sorted(&self.steady_us, p)
    }

    /// Percentile over same-graph round wall-clocks (per-batch latency).
    pub fn batch_percentile_us(&self, p: f64) -> u64 {
        gbtl_util::stats::percentile_sorted(&self.batch_us, p)
    }
}

/// The server's merged request-latency histogram, fetched through the
/// `metrics` op — the server-side counterpart of [`LoadgenReport`]'s
/// client-observed percentiles. Server-side time covers queue wait +
/// execute + serialize, so for any request it is contained in the client's
/// round-trip interval; percentiles are nearest-rank over log₂ buckets
/// (reported as the bucket upper bound, clamped to the exact max), so they
/// can exceed the true value by at most 2x.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerLatencySummary {
    /// Requests in the histogram (all labels merged, since server start).
    pub count: u64,
    /// Nearest-rank p50, microseconds.
    pub p50: u64,
    /// Nearest-rank p95, microseconds.
    pub p95: u64,
    /// Nearest-rank p99, microseconds.
    pub p99: u64,
    /// Exact largest observation, microseconds.
    pub max_us: u64,
}

/// Fetch a [`ServerLatencySummary`] over an open client connection.
pub fn fetch_server_latency(client: &mut Client) -> std::io::Result<ServerLatencySummary> {
    let v = client.request_json("{\"op\":\"metrics\"}")?;
    let bad = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("metrics response missing {what}"),
        )
    };
    let m = v.get("metrics").ok_or_else(|| bad("metrics"))?;
    let overall = m.get("overall").ok_or_else(|| bad("metrics.overall"))?;
    Ok(ServerLatencySummary {
        count: overall.u64_field("count").unwrap_or(0),
        p50: overall.u64_field("p50").unwrap_or(0),
        p95: overall.u64_field("p95").unwrap_or(0),
        p99: overall.u64_field("p99").unwrap_or(0),
        max_us: overall.u64_field("max").unwrap_or(0),
    })
}

/// Shared tallies every client thread reports into.
#[derive(Debug, Default, Clone)]
struct Tallies {
    corrupted: Arc<AtomicU64>,
    cached: Arc<AtomicU64>,
    ok: Arc<AtomicU64>,
    errors: Arc<Mutex<std::collections::HashMap<String, u64>>>,
    latencies: Arc<Mutex<Vec<u64>>>,
    firsts: Arc<Mutex<Vec<u64>>>,
    steady: Arc<Mutex<Vec<u64>>>,
    traced: Arc<Mutex<Vec<(u64, u64)>>>,
    /// Run-wide count of requests issued so far, compared against
    /// [`LoadgenOptions::xray`] to mark the first N with `"xray":true`.
    xray_budget: Arc<AtomicU64>,
}

impl Tallies {
    /// Should the request being built right now carry the `"xray":true`
    /// force-sample marker? True for the first [`LoadgenOptions::xray`]
    /// requests run-wide, whichever clients get there first.
    fn take_xray_slot(&self, opts: &LoadgenOptions) -> bool {
        opts.xray > 0 && self.xray_budget.fetch_add(1, Ordering::Relaxed) < opts.xray as u64
    }

    /// Validate one raw response against the id it must answer; `first`
    /// marks a client's cold-path request.
    fn score(&self, raw: &str, expected_id: u64, us: u64, first: bool) {
        match parse(raw) {
            Ok(v) => {
                let id_ok = v.u64_field("id") == Some(expected_id);
                if v.bool_field("ok") == Some(true) && id_ok {
                    self.ok.fetch_add(1, Ordering::Relaxed);
                    if v.bool_field("cached") == Some(true) {
                        self.cached.fetch_add(1, Ordering::Relaxed);
                    }
                    lock(&self.latencies).push(us);
                    if first {
                        lock(&self.firsts).push(us);
                    } else {
                        lock(&self.steady).push(us);
                    }
                    if let Some(trace_id) = v.u64_field("trace_id") {
                        if trace_id != 0 {
                            lock(&self.traced).push((us, trace_id));
                        }
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

/// The zipf-skewed graph pick for client `c`'s `r`-th request: index `k`
/// with weight `1/(k+1)^s`, chosen by a deterministic FNV hash of `(c, r)`
/// mapped to [0, 1) — same options, same workload, every run.
fn zipf_pick(n: usize, s: f64, c: usize, r: usize) -> usize {
    debug_assert!(n > 0);
    let total: f64 = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).sum();
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&(c as u64).to_le_bytes());
    key[8..].copy_from_slice(&(r as u64).to_le_bytes());
    let u = gbtl_util::hash::fnv1a(&key) as f64 / (u64::MAX as f64 + 1.0);
    let mut acc = 0.0;
    for k in 0..n {
        acc += 1.0 / ((k + 1) as f64).powf(s) / total;
        if u < acc {
            return k;
        }
    }
    n - 1
}

/// Build client `c`'s `r`-th request line; `xray` appends the force-sample
/// marker.
fn request_line(opts: &LoadgenOptions, c: usize, r: usize, xray: bool) -> (u64, String) {
    let algo = opts.algos[r % opts.algos.len().max(1)];
    let id = (c as u64) * 1_000_000 + r as u64;
    let source = (c * 31 + r * 17) % opts.source_count.max(1);
    let graph = if opts.graphs.is_empty() {
        opts.graph.as_str()
    } else {
        &opts.graphs[zipf_pick(opts.graphs.len(), opts.zipf, c, r)]
    };
    let xray_part = if xray { ",\"xray\":true" } else { "" };
    let dir_part = direction_part(opts, algo);
    let line = format!(
        "{{\"op\":\"query\",\"id\":{id},\"graph\":\"{graph}\",\"algo\":\"{}\",\
         \"backend\":\"{}\",\"source\":{source}{dir_part}{xray_part}}}",
        algo.as_str(),
        opts.backend
    );
    (id, line)
}

/// The `"direction"` request fragment: present only for the traversal
/// algorithms and only when the run overrides the server's `auto` default.
fn direction_part(opts: &LoadgenOptions, algo: Algo) -> String {
    if algo.takes_source() && opts.direction != "auto" {
        format!(",\"direction\":\"{}\"", opts.direction)
    } else {
        String::new()
    }
}

/// One client of the same-graph burst workload: barrier-synchronized
/// rounds against a single graph, one distinct root per client per round
/// (root `r·clients + c` mod `source_count`, so consecutive rounds sweep
/// fresh roots — cache misses — until the root space wraps). After each
/// round the clients re-synchronize and the round leader records the
/// round's wall-clock as one per-batch latency sample.
fn same_graph_client(
    opts: &LoadgenOptions,
    c: usize,
    barrier: &std::sync::Barrier,
    tallies: &Tallies,
    batch_us: &Mutex<Vec<u64>>,
) -> std::io::Result<()> {
    // a client that cannot connect must still show up at every barrier, or
    // the remaining clients would wait on it forever; its requests are
    // charged as corrupted by the caller's join handler
    let mut client = match Client::connect(&opts.addr) {
        Ok(c) => c,
        Err(e) => {
            for _ in 0..opts.requests_per_client {
                barrier.wait();
                barrier.wait();
            }
            return Err(e);
        }
    };
    let algo = opts.algos.first().copied().unwrap_or(Algo::Bfs);
    for r in 0..opts.requests_per_client {
        let source = (r * opts.clients + c) % opts.source_count.max(1);
        let id = (c as u64) * 1_000_000 + r as u64;
        let xray_part = if tallies.take_xray_slot(opts) {
            ",\"xray\":true"
        } else {
            ""
        };
        let dir_part = direction_part(opts, algo);
        let line = format!(
            "{{\"op\":\"query\",\"id\":{id},\"graph\":\"{}\",\"algo\":\"{}\",\
             \"backend\":\"{}\",\"source\":{source}{dir_part}{xray_part}}}",
            opts.graph,
            algo.as_str(),
            opts.backend
        );
        barrier.wait();
        let q0 = Instant::now();
        let response = client.request(&line);
        let us = q0.elapsed().as_micros() as u64;
        match response {
            Ok(raw) => tallies.score(&raw, id, us, r == 0),
            Err(_) => {
                tallies.corrupted.fetch_add(1, Ordering::Relaxed);
            }
        }
        if barrier.wait().is_leader() {
            lock(batch_us).push(q0.elapsed().as_micros() as u64);
        }
    }
    Ok(())
}

/// The classic closed loop: one request, wait for its response, repeat.
fn closed_loop_client(opts: &LoadgenOptions, c: usize, tallies: &Tallies) -> std::io::Result<()> {
    let mut client = Client::connect(&opts.addr)?;
    for r in 0..opts.requests_per_client {
        let (id, line) = request_line(opts, c, r, tallies.take_xray_slot(opts));
        let q0 = Instant::now();
        let response = client.request(&line);
        let us = q0.elapsed().as_micros() as u64;
        let Ok(raw) = response else {
            tallies.corrupted.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        tallies.score(&raw, id, us, r == 0);
    }
    Ok(())
}

/// The pipelined loop: keep up to `depth` requests in flight on one
/// connection, and require the responses to come back **in request order**
/// (the wire contract both front-ends uphold) — an out-of-order or missing
/// response counts as corrupted. Per-request latency runs from that
/// request's send to its response, so it includes time spent queued behind
/// earlier responses in the window.
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
    // (id, sent-at, is-the-client's-first-request), oldest first
    let mut inflight: std::collections::VecDeque<(u64, Instant, bool)> =
        std::collections::VecDeque::with_capacity(depth);

    let mut read_one = |inflight: &mut std::collections::VecDeque<(u64, Instant, bool)>| -> bool {
        let Some((id, sent, first)) = inflight.pop_front() else {
            return false;
        };
        let mut raw = String::new();
        match reader.read_line(&mut raw) {
            Ok(n) if n > 0 => {
                let us = sent.elapsed().as_micros() as u64;
                tallies.score(raw.trim_end(), id, us, first);
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
        let (id, mut line) = request_line(opts, c, r, tallies.take_xray_slot(opts));
        line.push('\n');
        if writer.write_all(line.as_bytes()).is_err() {
            tallies.corrupted.fetch_add(
                (opts.requests_per_client - r) as u64 + inflight.len() as u64,
                Ordering::Relaxed,
            );
            return Ok(());
        }
        inflight.push_back((id, Instant::now(), r == 0));
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

    let t0 = Instant::now();
    let round_barrier = Arc::new(std::sync::Barrier::new(opts.clients.max(1)));
    let round_us: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    for c in 0..opts.clients {
        let opts = opts.clone();
        let tallies = tallies.clone();
        let round_barrier = round_barrier.clone();
        let round_us = round_us.clone();
        handles.push(std::thread::spawn(move || -> std::io::Result<()> {
            let depth = opts.pipeline.max(1);
            if opts.same_graph {
                same_graph_client(&opts, c, &round_barrier, &tallies, &round_us)
            } else if depth > 1 {
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
    let elapsed = t0.elapsed();

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

    let mut latencies_us = std::mem::take(&mut *lock(&tallies.latencies));
    latencies_us.sort_unstable();
    let mut first_us = std::mem::take(&mut *lock(&tallies.firsts));
    first_us.sort_unstable();
    let mut steady_us = std::mem::take(&mut *lock(&tallies.steady));
    steady_us.sort_unstable();
    let mut errors: Vec<(String, u64)> = lock(&tallies.errors).drain().collect();
    errors.sort();
    // the multi-graph distribution actually issued: recomputed (the pick is
    // a pure function of the options) rather than tallied under a lock
    let mut graph_counts: Vec<(String, u64)> =
        opts.graphs.iter().map(|g| (g.clone(), 0u64)).collect();
    if !opts.graphs.is_empty() {
        for c in 0..opts.clients {
            for r in 0..opts.requests_per_client {
                graph_counts[zipf_pick(opts.graphs.len(), opts.zipf, c, r)].1 += 1;
            }
        }
    }
    let mut batch_us = std::mem::take(&mut *lock(&round_us));
    batch_us.sort_unstable();
    let mut traced = std::mem::take(&mut *lock(&tallies.traced));
    traced.sort_unstable();
    Ok(LoadgenReport {
        ok: tallies.ok.load(Ordering::Relaxed),
        cached: tallies.cached.load(Ordering::Relaxed),
        errors,
        corrupted: tallies.corrupted.load(Ordering::Relaxed),
        elapsed,
        latencies_us,
        first_us,
        steady_us,
        idle_alive,
        graph_counts,
        batch_us,
        traced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The nearest-rank definition itself is tested in gbtl_util::stats
    // (where the implementation moved); this covers only the delegation
    // and the empty-report guard.
    #[test]
    fn report_percentiles_delegate_to_shared_stats() {
        let r = LoadgenReport {
            latencies_us: (1..=100).collect(),
            ..Default::default()
        };
        assert_eq!(r.percentile_us(50.0), 51);
        assert_eq!(r.percentile_us(99.0), 99);
        let empty = LoadgenReport::default();
        assert_eq!(empty.percentile_us(99.0), 0);
        assert_eq!(empty.qps(), 0.0);
    }

    #[test]
    fn zipf_picks_are_deterministic_skewed_and_in_range() {
        let mut counts = [0u64; 4];
        for c in 0..16 {
            for r in 0..256 {
                let k = zipf_pick(4, 1.0, c, r);
                assert_eq!(k, zipf_pick(4, 1.0, c, r), "pure function of (c, r)");
                counts[k] += 1;
            }
        }
        assert!(counts.iter().all(|&n| n > 0), "{counts:?}");
        assert!(counts[0] > counts[3], "rank 0 must be hottest: {counts:?}");
        // s=0 is uniform-ish: no graph should dominate
        let mut uniform = [0u64; 4];
        for c in 0..16 {
            for r in 0..256 {
                uniform[zipf_pick(4, 0.0, c, r)] += 1;
            }
        }
        let (min, max) = (
            *uniform.iter().min().unwrap(),
            *uniform.iter().max().unwrap(),
        );
        assert!(max < min * 2, "{uniform:?}");
    }
}
