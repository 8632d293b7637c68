//! The three wire workloads: a closed-loop NDJSON load generator against
//! an in-process `gbtl_serve::start` / `gbtl_shard::start_sharded` server
//! on 127.0.0.1 — the service caller's view of the system. At most two
//! generator threads and two connections; concurrency comes from
//! pipelining on the evented front-end.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gbtl_serve::{EnginePool, FrontendMode, ServerConfig, ServerHandle};
use gbtl_shard::{ShardConfig, ShardHandle};
use gbtl_util::json::{parse, Value};

use crate::client::{drive, is_ok, result_fragments, Conn};
use crate::graphs::{GraphKind, KARATE_BFS_LEVEL_SIZES, KARATE_TRIANGLES};
use crate::layers::ServerCounters;
use crate::requests::{
    burst_round, deal, load_line, query_mix, BurstShape, Kind, RoundPlan, Step, WireGraph,
};
use crate::run::{Metrics, Pace, Round, RunConfig, Slot, Workload, BACKENDS};
use crate::spans::Recorder;

/// Which wire workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// `serve-cold`.
    Cold,
    /// `wire-hot`.
    Hot,
    /// `shard-burst`.
    Burst,
}

/// Workers per engine pool — pinned (the default config reads the count
/// from the host) so a result means the same on every box. One: a pool's
/// worker, its two parallel-context threads, the listener and the
/// generator are already more threads than the host has processors, and
/// with one worker `{"op":"stats"}` counts exactly one engine's spans,
/// which is how warm-up knows the trace rings are full.
pub const WORKERS: usize = 1;
/// Distinct queries of the `serve-cold` cycle: more than the 128-entry
/// cache holds, so strict LRU never hits, and few enough (a round is ≈1 s)
/// that a run times every request some twenty times.
pub const COLD_QUERIES: usize = 160;
/// Distinct pre-warmed queries of `wire-hot`.
pub const HOT_QUERIES: usize = 64;
/// Replays of the hot list per `wire-hot` round.
const HOT_CYCLES: usize = 1024;
/// Latency samples and request spans kept per round (every k-th request
/// of a longer round).
const LATENCY_SAMPLES_PER_ROUND: usize = 4096;
/// Name of the graph the between-round reload (re)installs.
const SCRATCH: &str = "scratch";

/// The served graphs of a workload: `(name, kind, (share of the query mix,
/// share of the mix's MIS queries))`. `shard-burst` draws by zipf instead.
///
/// MIS is served only from the 1 k-vertex graph: gbtl-serve verifies every
/// MIS answer with an O(n · nnz) scan, 90 ms on rmat12 and 1.4 s on rmat14,
/// which would otherwise be most of every round (see README, findings).
pub fn served_graphs(kind: WireKind, smoke: bool) -> Vec<(String, GraphKind, (f64, f64))> {
    let rmat = |scale, seed| GraphKind::Rmat { scale, ef: 8, seed };
    if smoke {
        return vec![
            ("g0".into(), rmat(8, 11), (0.5, 0.5)),
            ("g1".into(), rmat(8, 12), (0.3, 0.3)),
            ("g2".into(), GraphKind::Grid { side: 12 }, (0.2, 0.2)),
        ];
    }
    match kind {
        WireKind::Cold | WireKind::Hot => vec![
            ("rmat12".into(), rmat(12, 1), (0.25, 0.0)),
            ("rmat10".into(), rmat(10, 2), (0.65, 1.0)),
            ("grid48".into(), GraphKind::Grid { side: 48 }, (0.10, 0.0)),
        ],
        // hottest first: the zipf draw favours g0
        WireKind::Burst => vec![
            ("g0".into(), rmat(13, 11), (0.0, 0.0)),
            ("g1".into(), rmat(12, 12), (0.0, 0.0)),
            ("g2".into(), GraphKind::Grid { side: 64 }, (0.0, 0.0)),
            (
                "g3".into(),
                GraphKind::Er {
                    scale: 12,
                    ef: 8,
                    seed: 14,
                },
                (0.0, 0.0),
            ),
        ],
    }
}

/// The server configuration of a workload: evented, one worker, and
/// otherwise the defaults (cache 128, queue 64, metrics on) — fusion and
/// the snapshot directory only for `shard-burst`.
pub fn server_config(kind: WireKind, snap_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        mode: FrontendMode::Evented,
        workers: WORKERS,
        par_threads: crate::libwork::PAR_THREADS,
        snapshot_dir: snap_dir.map(|p| p.display().to_string()),
        fuse: gbtl_fuse::FuseConfig {
            enabled: kind == WireKind::Burst,
            ..gbtl_fuse::FuseConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// A running server of either shape.
#[derive(Debug)]
enum Server {
    Single(ServerHandle),
    Sharded(ShardHandle),
}

impl Server {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Server::Single(h) => h.addr(),
            Server::Sharded(h) => h.addr(),
        }
    }

    fn stop(self) {
        match self {
            Server::Single(h) => h.shutdown_and_join(),
            Server::Sharded(h) => h.shutdown_and_join(),
        }
    }
}

/// Write `.gbsnap` snapshots of `graphs` into `dir` with a listener-less
/// pool — the state `shard-burst` restores from. Not part of `setup_s`:
/// a restart finds its snapshots already on disk.
pub fn write_snapshots(
    dir: &Path,
    graphs: &[(String, GraphKind, (f64, f64))],
) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let pool = EnginePool::new(ServerConfig {
        preload: graphs
            .iter()
            .map(|(name, kind, _)| (name.clone(), kind.spec()))
            .collect(),
        ..server_config(WireKind::Burst, Some(dir))
    })
    .map_err(|e| e.to_string())?;
    pool.snapshot_graphs(None)
        .map(|_| ())
        .map_err(|(code, msg)| format!("{code}: {msg}"))
}

/// A set-up wire workload.
#[derive(Debug)]
pub struct WireWorkload {
    kind: WireKind,
    server: Option<Server>,
    conns: Vec<Conn>,
    /// The served graphs, with the component sources are drawn from.
    pub graphs: Vec<WireGraph>,
    plan: RoundPlan,
    /// Consecutive responses per slot: one on `serve-cold` (one request in
    /// flight, so a slot is a request), 4096 on `wire-hot` (64 replays of
    /// the hot list, far more than the 64 requests in flight that can
    /// straddle a boundary); a whole step on `shard-burst` (a step ends
    /// when its last response is read, so steps add up exactly).
    window: usize,
    lines: Vec<String>,
    /// `expected[logical]` = the result fragment first seen for it.
    expected: Vec<Option<String>>,
    scratch_line: String,
    /// Server device clock after the previous round, ms.
    model_ms_seen: f64,
    /// `wire-hot`: modeled ms of the pre-warm pass, reported every round.
    prewarm_model_ms: f64,
    next_req: u64,
    /// `{"op":"restore"}` latency during set-up, ms (`shard-burst`).
    pub restore_ms: f64,
    /// Server counters when warm-up ended: per-layer deltas start here.
    pub baseline: ServerCounters,
}

fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    v.get(key)
        .and_then(Value::as_usize)
        .ok_or_else(|| format!("response lacks {key:?}"))
}

impl WireWorkload {
    /// Start the server, connect, load (or restore) the graphs, check the
    /// karate fixture on every backend, and learn each graph's largest
    /// component — all over the wire.
    pub fn setup(
        kind: WireKind,
        cfg: &RunConfig,
        snap_dir: Option<&Path>,
    ) -> Result<WireWorkload, String> {
        let io = |e: std::io::Error| e.to_string();
        let served = served_graphs(kind, cfg.smoke);
        let base = server_config(kind, snap_dir);
        let server = match kind {
            WireKind::Burst => Server::Sharded(
                gbtl_shard::start_sharded(ShardConfig {
                    shards: 2,
                    base,
                    ..ShardConfig::default()
                })
                .map_err(io)?,
            ),
            _ => Server::Single(gbtl_serve::start(base).map_err(io)?),
        };
        let mut w = WireWorkload {
            kind,
            conns: vec![
                Conn::connect(server.addr()).map_err(io)?,
                Conn::connect(server.addr()).map_err(io)?,
            ],
            server: Some(server),
            graphs: Vec::new(),
            plan: RoundPlan::default(),
            window: match kind {
                WireKind::Cold => 1,
                WireKind::Hot => HOT_QUERIES * 64,
                WireKind::Burst => usize::MAX,
            },
            lines: Vec::new(),
            expected: Vec::new(),
            scratch_line: load_line(
                SCRATCH,
                &if cfg.smoke {
                    GraphKind::Karate
                } else {
                    crate::RELOAD_GRAPH
                }
                .spec(),
            ),
            model_ms_seen: 0.0,
            prewarm_model_ms: 0.0,
            next_req: 0,
            restore_ms: 0.0,
            baseline: ServerCounters::default(),
        };

        // install the graphs: restore from snapshots, or load from specs
        let mut installed: Vec<(String, usize, u64)> = Vec::new();
        if kind == WireKind::Burst {
            let t0 = Instant::now();
            let r = w.ask("{\"op\":\"restore\"}")?;
            w.restore_ms = t0.elapsed().as_secs_f64() * 1e3;
            for item in r.get("restored").and_then(Value::as_arr).unwrap_or(&[]) {
                installed.push((
                    item.str_field("name").unwrap_or_default().to_string(),
                    field_usize(item, "n")?,
                    field_usize(item, "nnz")? as u64,
                ));
            }
        } else {
            for (name, g, _) in &served {
                let r = w.ask(&load_line(name, &g.spec()))?;
                installed.push((
                    name.clone(),
                    field_usize(&r, "n")?,
                    field_usize(&r, "nnz")? as u64,
                ));
            }
        }
        for (name, g, _) in &served {
            let (_, n, nnz) = installed
                .iter()
                .find(|(have, ..)| have == name)
                .ok_or_else(|| format!("graph {name} was not installed"))?;
            w.graphs.push(WireGraph {
                name: name.clone(),
                spec: g.spec(),
                n: *n,
                nnz: *nnz,
                giant: Vec::new(),
            });
        }
        if kind != WireKind::Burst {
            w.ask(&w.scratch_line.clone())?;
        }
        w.check_karate()?;
        for i in 0..w.graphs.len() {
            w.graphs[i].giant = w.giant_component(i)?;
        }
        Ok(w)
    }

    /// One control request on connection 0, parsed; an `ok:false` answer
    /// is an error.
    pub fn ask(&mut self, line: &str) -> Result<Value, String> {
        let raw = self.conns[0].request(line).map_err(|e| e.to_string())?;
        if !is_ok(&raw) {
            return Err(format!("{line} -> {raw}"));
        }
        parse(&raw)
    }

    /// The karate fixture over the wire, on every backend.
    fn check_karate(&mut self) -> Result<(), String> {
        self.ask(&load_line("karate", "karate"))?;
        for backend in BACKENDS {
            let q = |algo: &str, extra: &str| {
                format!(
                    "{{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"{algo}\",\
                     \"backend\":\"{backend}\"{extra}}}"
                )
            };
            let tc = self.ask(&q("triangle_count", ""))?;
            let triangles = tc.get("result").and_then(|r| r.u64_field("triangles"));
            if triangles != Some(KARATE_TRIANGLES) {
                return Err(format!("{backend}: karate triangles {triangles:?}"));
            }
            let bfs = self.ask(&q("bfs", ",\"source\":0,\"full\":true"))?;
            let mut sizes = [0usize; 4];
            let levels = bfs
                .get("result")
                .and_then(|r| r.get("levels"))
                .and_then(Value::as_arr)
                .unwrap_or(&[]);
            for pair in levels {
                let level = pair
                    .as_arr()
                    .and_then(|p| p.get(1))
                    .and_then(Value::as_usize);
                match level.and_then(|l| sizes.get_mut(l)) {
                    Some(s) => *s += 1,
                    None => return Err(format!("{backend}: karate BFS level {level:?}")),
                }
            }
            if sizes != KARATE_BFS_LEVEL_SIZES {
                return Err(format!("{backend}: karate BFS level sizes {sizes:?}"));
            }
        }
        Ok(())
    }

    /// The vertices a full BFS reaches from the first source (of the first
    /// 16) whose component holds at least half the graph.
    fn giant_component(&mut self, graph: usize) -> Result<Vec<usize>, String> {
        let (name, n) = (self.graphs[graph].name.clone(), self.graphs[graph].n);
        for source in 0..16.min(n) {
            let r = self.ask(&format!(
                "{{\"op\":\"query\",\"graph\":\"{name}\",\"algo\":\"bfs\",\"backend\":\"seq\",\
                 \"source\":{source},\"full\":true}}"
            ))?;
            let result = r.get("result").ok_or("bfs response lacks a result")?;
            if 2 * field_usize(result, "reached")? < n {
                continue;
            }
            let mut members: Vec<usize> = result
                .get("levels")
                .and_then(Value::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|p| p.as_arr().and_then(|p| p.first()).and_then(Value::as_usize))
                .collect();
            members.sort_unstable();
            return Ok(members);
        }
        Err(format!(
            "{name}: no large component found from vertices 0..16"
        ))
    }

    /// Build the round from the seed, then play it once untimed: fills the
    /// result cache where the workload wants it full, and records the
    /// answer every later round must reproduce.
    pub fn warm_up(&mut self, cfg: &RunConfig) -> Result<(), String> {
        let served = served_graphs(self.kind, cfg.smoke);
        let weights: Vec<(f64, f64)> = served.iter().map(|g| g.2).collect();
        // narrow each component to the source pool (harness work on the
        // harness's own copy of the graph, so not part of set-up)
        for (g, (_, kind, _)) in self.graphs.iter_mut().zip(&served) {
            g.giant = kind.wire_sources(std::mem::take(&mut g.giant));
        }
        self.plan = match self.kind {
            WireKind::Cold => {
                let mut plan = query_mix(cfg.seed, &self.graphs, &weights, COLD_QUERIES);
                // alternate the two connections, one request in flight:
                // each request's time is then its own and the times add up
                deal(&mut plan, 2, 1);
                plan
            }
            WireKind::Hot => {
                let mut plan = query_mix(cfg.seed, &self.graphs, &weights, HOT_QUERIES);
                deal(&mut plan, 2, 32);
                plan
            }
            WireKind::Burst => burst_round(
                cfg.seed,
                &self.graphs,
                BurstShape {
                    volleys: if cfg.smoke { 2 } else { 8 },
                    volley_size: 16,
                    repeats: 2,
                },
            ),
        };
        self.lines = self.plan.reqs.iter().map(|r| r.line.clone()).collect();
        self.expected = vec![None; self.plan.logical];

        let before = self.device_clock_ms()?;
        let mut first = self.play(&mut Recorder::new(), &mut Pace::new());
        self.between(&mut first);
        if first.failed > 0 {
            return Err(format!("{} requests failed during warm-up", first.failed));
        }
        if self.kind != WireKind::Hot && !cfg.smoke {
            // wire-hot executes nothing in its timed phase
            self.fill_trace_rings()?;
            let mut again = self.play(&mut Recorder::new(), &mut Pace::new());
            self.between(&mut again);
        }
        if self.kind == WireKind::Hot {
            self.prewarm_model_ms = self.model_ms_seen - before;
            // from here on a round replays the hot list many times
            let cycles = if cfg.smoke { 4 } else { HOT_CYCLES };
            let once = self.plan.steps[0].lists.clone();
            for (list, one) in self.plan.steps[0].lists.iter_mut().zip(&once) {
                *list = one
                    .iter()
                    .cycle()
                    .take(one.len() * cycles)
                    .copied()
                    .collect();
            }
        }
        self.baseline = ServerCounters::read(self)?;
        Ok(())
    }

    /// Replay the round's queries, backend by backend and one at a time,
    /// until every engine's trace rings are full. `Engine::run` copies its
    /// context's span ring (8192 spans) before and after each query, so a
    /// query costs more the fuller the ring is — about twice as much once
    /// it is full, which takes each backend of each pool a few hundred
    /// queries. Only then is a round's cost the same as the next one's.
    fn fill_trace_rings(&mut self) -> Result<(), String> {
        const RING: u64 = gbtl_trace::DEFAULT_RING_CAPACITY as u64;
        const KEYS: [&str; 3] = ["sequential", "parallel", "cuda_sim"];
        let server = self.server.as_ref().expect("server runs until teardown");
        // the pool that executes each request (None: loads and scatters)
        let pool_of: Vec<Option<usize>> = self
            .plan
            .reqs
            .iter()
            .map(|r| {
                let g = self
                    .graphs
                    .iter()
                    .find(|g| r.line.contains(&format!("\"graph\":\"{}\"", g.name)))?;
                (r.kind == Kind::Query).then(|| match server {
                    Server::Single(_) => 0,
                    Server::Sharded(h) => h.router().placement().shard_for(&g.name),
                })
            })
            .collect();
        let pools = self.pool_stats()?.len();
        for pool in 0..pools {
            for (b, key) in KEYS.iter().enumerate() {
                let lines: Vec<String> = self
                    .plan
                    .reqs
                    .iter()
                    .zip(&pool_of)
                    .filter(|(r, p)| r.backend == b && **p == Some(pool))
                    .map(|(r, _)| r.line.clone())
                    .collect();
                if lines.is_empty() {
                    continue; // a ring no query of the round touches
                }
                let reloads: Vec<String> = self
                    .graphs
                    .iter()
                    .map(|g| load_line(&g.name, &g.spec))
                    .collect();
                'fill: for _pass in 0..64 {
                    // a reload bumps the graph's epoch, so the pass's
                    // queries execute instead of hitting the result cache
                    for line in &reloads {
                        self.ask(line)?;
                    }
                    for line in &lines {
                        let spans = self.pool_stats()?[pool]
                            .get("stats")
                            .and_then(|s| s.get("backend_ops"))
                            .and_then(|o| o.u64_field(key))
                            .ok_or("stats lacks backend_ops")?;
                        if spans >= RING {
                            break 'fill;
                        }
                        self.ask(line)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Modeled device time the server's simulated GPUs have accumulated.
    fn device_clock_ms(&mut self) -> Result<f64, String> {
        self.pool_stats()?
            .iter()
            .map(|stats| {
                stats
                    .get("stats")
                    .and_then(|s| s.get("gpu"))
                    .and_then(|g| g.f64_field("modeled_ms"))
                    .ok_or_else(|| "stats lacks gpu.modeled_ms".to_string())
            })
            .sum()
    }

    /// Play the round's steps from the calling thread, one step at a time,
    /// cutting each step into slots of `window` consecutive responses.
    /// `drive` reads the connections in a fixed order, so a slot holds the
    /// same requests in every round. A slot's wall time is shared out to
    /// the backends by how many of its requests each answered (with one
    /// request in flight that is the request's own time; in a pipelined
    /// slot a request's send→response time is mostly queueing behind the
    /// others, and no backend's own). The host-speed probe is read where
    /// nothing is in flight: after a `serve-cold` response, between
    /// `shard-burst` steps, never inside a `wire-hot` round.
    fn play(&mut self, rec: &mut Recorder, pace: &mut Pace) -> Round {
        let mut round = Round::default();
        let span = rec.enter("round", 0);
        let cpu0 = crate::host::thread_cpu_s();
        let t0 = Instant::now();
        let (reqs, lines, expected) = (&self.plan.reqs, &self.lines, &mut self.expected);
        let base = self.next_req;
        let mut seen = 0u64;
        // long rounds keep every k-th request's latency sample and span: the
        // percentiles and the trace do not need all 65 536 of a wire-hot
        // round, and peak memory must not grow with how many rounds a fast
        // host fits into the phase
        let total: usize = self.plan.steps.iter().map(Step::len).sum();
        let stride = (total / LATENCY_SAMPLES_PER_ROUND).max(1) as u64;
        // a slot ends: its wall time, shared out by request counts
        let close = |slot: &mut Slot, wall_s: f64| {
            slot.wall_s = wall_s;
            for requests in &mut slot.secs {
                *requests *= wall_s / slot.ops as f64;
            }
        };
        // one request in flight: when a response is in, the server is idle
        let quiescent_between_slots = self.kind == WireKind::Cold;
        let mut slot_start = gbtl_util::time::now_ns();
        for step in &self.plan.steps {
            let window = self.window as u64;
            let mut slot = Slot::default();
            let io = drive(
                &mut self.conns,
                lines,
                &step.lists,
                step.depth,
                |i, sent, got, response| {
                    seen += 1;
                    let req = &reqs[i];
                    let lat_s = (got - sent) as f64 / 1e9;
                    if seen.is_multiple_of(stride) {
                        rec.record(
                            match req.kind {
                                Kind::Query => "request.query",
                                Kind::QueryAll => "request.query_all",
                                Kind::Load => "request.load",
                            },
                            base + seen,
                            sent,
                            got,
                        );
                        round.lat_ms.push((lat_s * 1e3) as f32);
                    }
                    let mut good = is_ok(response);
                    match req.kind {
                        Kind::Load => round.reload_ms.push(lat_s * 1e3),
                        Kind::Query | Kind::QueryAll => {
                            if req.kind == Kind::QueryAll {
                                round.scatter_ms.push(lat_s * 1e3);
                            }
                            slot.nnz[req.backend] += req.nnz;
                            // requests per backend, until the slot closes
                            slot.secs[req.backend] += 1.0;
                            good &= !response.contains("\"partial\":true");
                            if good {
                                let fragment = result_fragments(response);
                                match &expected[req.logical] {
                                    Some(want) => good = *want == fragment,
                                    None => expected[req.logical] = Some(fragment.into_owned()),
                                }
                            }
                        }
                    }
                    if good {
                        round.ok += 1;
                    } else {
                        round.failed += 1;
                        eprintln!("perfbench: bad response to {}: {response}", req.line);
                    }
                    slot.ops += 1;
                    if slot.ops == window {
                        close(&mut slot, (got - slot_start) as f64 / 1e9);
                        slot_start = got;
                        round.slots.push(std::mem::take(&mut slot));
                        if quiescent_between_slots && pace.tick(&round) {
                            slot_start = gbtl_util::time::now_ns();
                        }
                    }
                },
            );
            if slot.ops > 0 {
                // the step's last, shorter window
                let now = gbtl_util::time::now_ns();
                close(&mut slot, (now - slot_start) as f64 / 1e9);
                slot_start = now;
                round.slots.push(slot);
            }
            if io.is_ok() && self.kind != WireKind::Hot && pace.tick(&round) {
                slot_start = gbtl_util::time::now_ns();
            }
            if let Err(e) = io {
                // a dead connection fails everything not yet answered
                eprintln!("perfbench: connection error: {e}");
                let total = reqs.len() as u64;
                round.failed += total.saturating_sub(round.ok + round.failed);
                break;
            }
        }
        self.next_req = base + seen;
        round.wall_s = t0.elapsed().as_secs_f64();
        round.gen_cpu_s = crate::host::thread_cpu_s() - cpu0;
        rec.exit(span);
        round
    }

    /// `{"op":"stats"}` of every engine pool behind the front door. The
    /// router's own stats carry no cache or device section; its member
    /// pools answer the same question in-process.
    pub fn pool_stats(&mut self) -> Result<Vec<Value>, String> {
        const STATS: &str = "{\"op\":\"stats\"}";
        match self.server.as_ref().expect("server runs until teardown") {
            Server::Sharded(h) => h
                .router()
                .pools()
                .iter()
                .map(|p| parse(&crate::stack::call(p.as_ref(), STATS)))
                .collect(),
            Server::Single(_) => Ok(vec![self.ask(STATS)?]),
        }
    }

    /// The round's query requests (no loads, no `query_all`), for the
    /// ladder.
    pub fn query_lines(&self) -> Vec<String> {
        let mut seen = std::collections::BTreeSet::new();
        self.plan
            .reqs
            .iter()
            .filter(|r| r.kind == Kind::Query && seen.insert(r.line.as_str()))
            .map(|r| r.line.clone())
            .collect()
    }

    /// Which workload this is.
    pub fn kind(&self) -> WireKind {
        self.kind
    }
}

impl Workload for WireWorkload {
    fn round(&mut self, rec: &mut Recorder, pace: &mut Pace) -> Round {
        self.play(rec, pace)
    }

    fn between(&mut self, last: &mut Round) {
        match self.device_clock_ms() {
            Ok(now) => {
                last.cuda_model_ms = now - self.model_ms_seen;
                self.model_ms_seen = now;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                last.failed += 1;
            }
        }
        if self.kind == WireKind::Hot && self.prewarm_model_ms > 0.0 {
            last.cuda_model_ms = self.prewarm_model_ms;
        }
        if self.kind != WireKind::Burst {
            // the reload: (re)install a graph no query touches, so the
            // hot cache stays hot and the cold cycle stays cold
            for _ in 0..crate::RELOADS_PER_ROUND {
                let t0 = Instant::now();
                let line = self.scratch_line.clone();
                match self.ask(&line) {
                    Ok(_) => last.reload_ms.push(t0.elapsed().as_secs_f64() * 1e3),
                    Err(e) => {
                        eprintln!("perfbench: {e}");
                        last.failed += 1;
                    }
                }
            }
        }
    }

    fn family(&self) -> crate::host::Family {
        crate::host::Family::Wire
    }

    fn layer_metrics(&mut self, m: &mut Metrics) {
        if let Err(e) = crate::layers::from_server(self, m) {
            eprintln!("perfbench: reading server counters: {e}");
        }
    }

    fn teardown(mut self: Box<Self>) {
        self.conns.clear();
        if let Some(server) = self.server.take() {
            server.stop();
        }
    }
}

/// A fresh directory under `perfbench/out` for this process's snapshots.
pub fn snapshot_dir() -> PathBuf {
    crate::out_dir().join(format!("snap-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> RunConfig {
        RunConfig {
            seed: 5,
            seconds: 0.0,
            trace: false,
            smoke: true,
        }
    }

    #[test]
    fn the_cold_cycle_never_hits_the_cache_and_the_hot_list_always_does() {
        for (kind, want) in [(WireKind::Cold, 0.0), (WireKind::Hot, 1.0)] {
            let mut w = WireWorkload::setup(kind, &smoke(), None).unwrap();
            w.warm_up(&smoke()).unwrap();
            let mut rec = Recorder::new();
            let mut operations = 0;
            let mut slots = Vec::new();
            for _ in 0..2 {
                let mut r = w.round(&mut rec, &mut Pace::new());
                w.between(&mut r);
                assert_eq!(r.failed, 0);
                assert_eq!(r.slots.iter().map(|s| s.ops).sum::<u64>(), r.ok);
                operations += r.ok;
                slots.push(r.slots.iter().map(|s| (s.ops, s.nnz)).collect::<Vec<_>>());
            }
            assert_eq!(slots[0], slots[1], "a slot holds the same work every round");
            let mut m = Metrics::new();
            w.layer_metrics(&mut m);
            assert_eq!(m["serve.cache_hit_share"], want, "{kind:?}");
            assert_eq!(m["serve.rejected_share"], 0.0);
            assert_eq!(
                m["fuse.fused_share"], 0.0,
                "fusion is off outside shard-burst"
            );
            if kind == WireKind::Cold {
                assert_eq!(operations as usize, 2 * COLD_QUERIES);
            }
            Box::new(w).teardown();
        }
    }

    #[test]
    fn a_burst_round_restores_fuses_scatters_and_reloads() {
        let dir = snapshot_dir().join("test");
        write_snapshots(&dir, &served_graphs(WireKind::Burst, true)).unwrap();
        let mut w = WireWorkload::setup(WireKind::Burst, &smoke(), Some(&dir)).unwrap();
        assert!(w.restore_ms > 0.0);
        w.warm_up(&smoke()).unwrap();
        let mut r = w.round(&mut Recorder::new(), &mut Pace::new());
        w.between(&mut r);
        assert_eq!(r.failed, 0);
        assert_eq!(r.reload_ms.len(), w.graphs.len(), "one reload per graph");
        assert_eq!(r.scatter_ms.len(), 1, "one query_all");
        let mut m = Metrics::new();
        w.layer_metrics(&mut m);
        assert!(m["fuse.fused_share"] > 0.0 && m["fuse.batch_size_mean"] > 1.0);
        assert!(m["shard.imbalance"] >= 1.0);
        Box::new(w).teardown();
        let _ = std::fs::remove_dir_all(snapshot_dir());
    }
}
