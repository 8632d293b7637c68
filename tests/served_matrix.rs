//! One configuration matrix over the served path, run in process.
//!
//! Eight servers — {single pool, 4-shard router} × {threaded, evented} ×
//! {fusion off, on} — preload the same two graphs and answer every
//! algorithm on every backend, bfs and sssp in every direction, each
//! query plain, `"trace":true` and `"xray":true`, then concurrent bfs/sssp
//! volleys from several sources that the fusion-on cells can batch.
//!
//! Every response must be `ok`, and its `result` object byte-identical to
//! the reference cell's answer to the same (graph, algorithm, source): a
//! single pool, threaded, fusion off, seq, auto, untraced. The reference
//! bytes themselves are pinned by one FNV-1a constant, so a change that
//! moves every cell alike fails here too. Along the way each traced bfs's
//! span tree is checked: one `net.connection` root, nested intervals, the
//! layers it crossed, every level's record with the representation its
//! direction uses; a forced direction never crosses and auto takes both
//! from rmat's hub. A single pool's stats show both directions taken and
//! no transpose built.

use std::collections::{BTreeMap, HashMap};
use std::sync::Barrier;
use std::time::Duration;

use gbtl::util::hash::fnv1a;
use gbtl::util::json::{parse, Value};
use gbtl_serve::protocol::Algo;
use gbtl_serve::{start, Client, FrontendMode, ServerConfig, ServerHandle};
use gbtl_shard::{start_sharded, ShardConfig, ShardHandle};

const GRAPHS: [(&str, &str); 2] = [("karate", "karate"), ("rmat", "rmat:8:8:1")];
const BACKENDS: [&str; 3] = ["seq", "par", "cuda"];
const DIRECTIONS: [&str; 3] = ["auto", "push", "pull"];
const VARIANTS: [&str; 3] = ["", ",\"trace\":true", ",\"xray\":true"];
/// Concurrent clients per volley, one source each.
const VOLLEY: usize = 8;

/// FNV-1a over the reference cell's answers, one `graph algo source
/// result` line each in key order. A render or checksum change moves it,
/// as it moves `crates/serve/tests/render_pins.rs`.
const REFERENCE_PIN: u64 = 0xcaee7c5dd87ac52a;

#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    sharded: bool,
    mode: FrontendMode,
    fuse: bool,
}

const REFERENCE: Cell = Cell {
    sharded: false,
    mode: FrontendMode::Threaded,
    fuse: false,
};

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for sharded in [false, true] {
        for mode in [FrontendMode::Threaded, FrontendMode::Evented] {
            for fuse in [false, true] {
                cells.push(Cell {
                    sharded,
                    mode,
                    fuse,
                });
            }
        }
    }
    cells
}

enum Server {
    Pool(ServerHandle),
    Router(ShardHandle),
}

impl Server {
    fn start(cell: Cell) -> Server {
        let mut base = ServerConfig {
            addr: "127.0.0.1:0".into(),
            mode: cell.mode,
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 0, // every query computes
            default_deadline_ms: 60_000,
            idle_timeout_ms: 0,
            par_threads: 2,
            preload: GRAPHS
                .iter()
                .map(|(name, spec)| (name.to_string(), spec.to_string()))
                .collect(),
            ..ServerConfig::default()
        };
        base.fuse.enabled = cell.fuse;
        base.fuse.window = Duration::from_millis(2);
        if cell.sharded {
            Server::Router(
                start_sharded(ShardConfig {
                    shards: 4,
                    pins: HashMap::new(),
                    base,
                })
                .unwrap(),
            )
        } else {
            Server::Pool(start(base).unwrap())
        }
    }

    fn addr(&self) -> String {
        match self {
            Server::Pool(h) => h.addr().to_string(),
            Server::Router(h) => h.addr().to_string(),
        }
    }

    fn shutdown(self) {
        match self {
            Server::Pool(h) => h.shutdown_and_join(),
            Server::Router(h) => h.shutdown_and_join(),
        }
    }
}

/// What a query asks, less how it was run: (graph, algorithm, source).
type Key = (&'static str, &'static str, Option<usize>);

struct Answer {
    cell: Cell,
    key: Key,
    /// Asked on seq, auto, untraced: the form the reference cell is read in.
    reference_form: bool,
    line: String,
    result: Result<String, String>,
}

fn query_line(key: Key, backend: &str, direction: &str, variant: &str) -> String {
    let (graph, algo, source) = key;
    let source = source.map_or(String::new(), |s| format!(",\"source\":{s}"));
    let direction = match direction {
        "auto" => String::new(), // the server's default, left off the wire
        d => format!(",\"direction\":\"{d}\""),
    };
    format!(
        "{{\"op\":\"query\",\"graph\":\"{graph}\",\"algo\":\"{algo}\",\
         \"backend\":\"{backend}\"{source}{direction}{variant}}}"
    )
}

/// The `"result":{...}` bytes of an `ok` response, or why there are none.
fn result_bytes(raw: &str) -> Result<String, String> {
    let v = parse(raw).map_err(|e| format!("bad JSON ({e}): {raw}"))?;
    if v.bool_field("ok") != Some(true) {
        return Err(format!("not ok: {raw}"));
    }
    let start = raw.find("\"result\":").ok_or(format!("no result: {raw}"))? + 9;
    let mut depth = 0usize;
    for (i, b) in raw.bytes().enumerate().skip(start) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(raw[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    Err(format!("unterminated result: {raw}"))
}

fn ask(c: &mut Client, line: &str) -> Value {
    let v = c.request_json(line).unwrap();
    assert_eq!(v.bool_field("ok"), Some(true), "{line}: {v:?}");
    v
}

/// Fetch a traced bfs's span tree, check it from the wire side, and return
/// the direction each level ran in.
fn bfs_tree_levels(c: &mut Client, cell: Cell, raw: &str) -> Vec<String> {
    let trace_id = parse(raw).unwrap().u64_field("trace_id").expect("trace id");
    let t = ask(c, &format!("{{\"op\":\"xray\",\"trace_id\":{trace_id}}}"));
    let spans = t
        .get("trace")
        .and_then(|t| t.get("spans"))
        .and_then(Value::as_arr)
        .expect("trace.spans");
    let by_id: HashMap<u64, &Value> = spans
        .iter()
        .map(|s| (s.u64_field("span_id").unwrap(), s))
        .collect();
    assert_eq!(by_id.len(), spans.len(), "{cell:?}: span ids repeat");
    let roots: Vec<&Value> = spans
        .iter()
        .filter(|s| s.u64_field("parent") == Some(0))
        .collect();
    assert_eq!(roots.len(), 1, "{cell:?}: one root");
    assert_eq!(roots[0].str_field("name"), Some("net.connection"));
    let interval = |s: &Value| {
        (
            s.u64_field("start_ns").unwrap(),
            s.u64_field("end_ns").unwrap(),
        )
    };
    for s in spans {
        let parent = s.u64_field("parent").unwrap();
        if parent != 0 {
            let ((ps, pe), (s0, s1)) = (interval(by_id[&parent]), interval(s));
            assert!(
                ps <= s0 && s0 <= s1 && s1 <= pe,
                "{cell:?}: {s:?} escapes its parent"
            );
        }
    }
    let names: Vec<&str> = spans.iter().filter_map(|s| s.str_field("name")).collect();
    let forwarded = !cell.sharded || names.contains(&"router.forward");
    assert!(
        forwarded && names.contains(&"pool.execute") && names.iter().any(|n| n.starts_with("op.")),
        "{cell:?}: {names:?}"
    );
    let chrome = t.get("chrome").and_then(Value::as_arr).expect("chrome");
    assert_eq!(chrome.len(), spans.len(), "{cell:?}: one event per span");

    // each level's record names its inputs, and the frontier's
    // representation follows the direction it ran in
    let mut dirs = Vec::new();
    for level in spans
        .iter()
        .filter(|s| s.str_field("name") == Some("level.bfs"))
    {
        let attrs = level.get("attrs").unwrap();
        let (dir, rep) = (attrs.str_field("dir"), attrs.str_field("rep"));
        let edges = |k| attrs.str_field(k).and_then(|e| e.parse::<u64>().ok());
        assert!(
            matches!(
                (dir, rep),
                (Some("push"), Some("sparse")) | (Some("pull"), Some("bitmap"))
            ) && attrs.str_field("pull_ready") == Some("true")
                && edges("push_edges") > Some(0)
                && edges("pull_edges").is_some(),
            "{cell:?}: {attrs:?}"
        );
        dirs.push(dir.unwrap().to_string());
    }
    assert!(!dirs.is_empty(), "{cell:?}: no level spans in {names:?}");
    dirs
}

/// Every algorithm × backend × direction × trace level on both graphs,
/// one at a time on one connection.
fn one_by_one(addr: &str, cell: Cell) -> Vec<Answer> {
    let mut c = Client::connect(addr).unwrap();
    let mut answers = Vec::new();
    for (graph, _) in GRAPHS {
        for algo in Algo::ALL.map(Algo::as_str) {
            let traversal = matches!(algo, "bfs" | "sssp");
            let key = (graph, algo, traversal.then_some(0));
            let directions = if traversal {
                &DIRECTIONS[..]
            } else {
                &DIRECTIONS[..1]
            };
            for backend in BACKENDS {
                for &direction in directions {
                    for variant in VARIANTS {
                        let line = query_line(key, backend, direction, variant);
                        let raw = c.request(&line).unwrap();
                        if algo == "bfs" && variant.contains("xray") {
                            // a forced mode never crosses; auto, from
                            // rmat's hub, takes both directions
                            let dirs = bfs_tree_levels(&mut c, cell, &raw);
                            let took = |d: &str| dirs.iter().any(|x| x == d);
                            assert!(
                                match direction {
                                    "auto" => graph == "karate" || took("push") && took("pull"),
                                    forced => dirs.iter().all(|d| d == forced),
                                },
                                "{cell:?} {line}: {dirs:?}"
                            );
                        }
                        answers.push(Answer {
                            cell,
                            key,
                            reference_form: backend == "seq"
                                && direction == "auto"
                                && variant.is_empty(),
                            line,
                            result: result_bytes(&raw),
                        });
                    }
                }
            }
        }
    }
    let listing = ask(&mut c, "{\"op\":\"xray\"}");
    assert!(
        listing.u64_field("completed") > Some(0),
        "{cell:?}: {listing:?}"
    );
    if !cell.sharded {
        let stats = ask(&mut c, "{\"op\":\"stats\"}");
        let stats = stats.get("stats").unwrap();
        let transposes = stats.get("transpose_cache").unwrap();
        assert_eq!(
            transposes.u64_field("misses"),
            Some(0),
            "{cell:?}: a served graph's Aᵀ is seeded, never built: {transposes:?}"
        );
        assert!(transposes.u64_field("hits").unwrap() > 0, "{transposes:?}");
        let dirs = stats.get("direction").unwrap();
        assert!(dirs.u64_field("push_levels").unwrap() > 0, "{dirs:?}");
        assert!(dirs.u64_field("pull_levels").unwrap() > 0, "{dirs:?}");
    }
    answers
}

/// bfs and sssp from `VOLLEY` sources at once, each client on its own
/// connection, released together so a fusion window can batch them. A
/// client never panics mid-volley (the others would wait on it forever):
/// failures come back as answers.
fn volleys(addr: &str, cell: Cell) -> Vec<Answer> {
    let barrier = Barrier::new(VOLLEY);
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..VOLLEY)
            .map(|source| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut answers = Vec::new();
                    for (graph, _) in GRAPHS {
                        for algo in ["bfs", "sssp"] {
                            for backend in BACKENDS {
                                let key = (graph, algo, Some(source));
                                let line = query_line(key, backend, "auto", "");
                                barrier.wait();
                                let result = match c.as_mut() {
                                    Ok(c) => c.request(&line).map_err(|e| e.to_string()),
                                    Err(e) => Err(format!("connect: {e}")),
                                };
                                answers.push(Answer {
                                    cell,
                                    key,
                                    reference_form: backend == "seq",
                                    line,
                                    result: result.and_then(|raw| result_bytes(&raw)),
                                });
                            }
                        }
                    }
                    answers
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

fn run_cell(cell: Cell) -> Vec<Answer> {
    let server = Server::start(cell);
    let addr = server.addr();
    let mut answers = one_by_one(&addr, cell);
    answers.extend(volleys(&addr, cell));
    server.shutdown();
    answers
}

#[test]
fn every_served_configuration_answers_the_reference_bytes() {
    let answers: Vec<Answer> = std::thread::scope(|s| {
        let runs: Vec<_> = cells()
            .into_iter()
            .map(|cell| s.spawn(move || run_cell(cell)))
            .collect();
        runs.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    for a in &answers {
        if let Err(e) = &a.result {
            panic!("{:?} {}: {e}", a.cell, a.line);
        }
    }

    let mut reference: BTreeMap<Key, &str> = BTreeMap::new();
    for a in answers
        .iter()
        .filter(|a| a.cell == REFERENCE && a.reference_form)
    {
        reference
            .entry(a.key)
            .or_insert_with(|| a.result.as_deref().unwrap());
    }
    let mut pinned = String::new();
    for ((graph, algo, source), result) in &reference {
        pinned.push_str(&format!("{graph} {algo} {source:?} {result}\n"));
    }
    assert_eq!(
        fnv1a(pinned.as_bytes()),
        REFERENCE_PIN,
        "the reference cell's answers moved:\n{pinned}"
    );

    for a in &answers {
        let want = reference
            .get(&a.key)
            .unwrap_or_else(|| panic!("no reference answer for {:?}", a.key));
        assert_eq!(
            a.result.as_deref().unwrap(),
            *want,
            "{:?} {} differs from the reference",
            a.cell,
            a.line
        );
    }
    assert_eq!(
        answers.len(),
        cells().len() * (2 * 3 * 3 * (2 * 3 + Algo::ALL.len() - 2) + VOLLEY * 2 * 2 * 3)
    );
}
