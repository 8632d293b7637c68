//! Envelope pins: a query's whole response line and its cache key, byte
//! for byte.
//!
//! `render_pins` holds the `result` fragment; this file holds what wraps
//! it. A pool with one worker and the result cache on serves every
//! algorithm on two graphs — `karate`, and karate again under a name that
//! needs escaping — first as a miss (through the worker), then as a hit
//! (answered inline by `submit`) with every combination of a client `id`,
//! `"trace":true` and an x-ray context. Only `micros` is normalised; every
//! other byte of each line, and the transcript of cache keys, is pinned by
//! one FNV-1a each, plus a few lines literally. Both digests were recorded
//! before the request reader stopped building a tree and before a key and
//! a response were each written into one buffer.

use std::sync::mpsc;
use std::time::Duration;

use gbtl_algorithms::Direction;
use gbtl_net::{Engine as _, Reply, Submission};
use gbtl_serve::cache::cache_key;
use gbtl_serve::protocol::{Algo, BackendChoice, QueryParams};
use gbtl_serve::{EnginePool, ServerConfig};
use gbtl_trace::TraceContext;
use gbtl_util::hash::fnv1a;
use gbtl_util::json::escape;

/// A name every escape of the writer touches: quote, backslash, a control
/// character and non-ASCII text.
const ODD_NAME: &str = "we\"ird\\na\tmé\u{1}";

/// The parameter part of a query line for algorithm `algo`, key `k`.
fn knobs(algo: Algo, k: usize) -> String {
    let backend = BackendChoice::ALL[k % 3].as_str();
    let full = if k == 3 { ",\"full\":true" } else { "" };
    let algo_part = match algo {
        Algo::Bfs | Algo::Sssp => format!(",\"source\":{}", 3 + k),
        Algo::Pagerank => format!(",\"damping\":0.{},\"max_iters\":{}", 5 + k, 10 + k),
        Algo::Mis => format!(",\"seed\":{}", 11 + k),
        Algo::TriangleCount | Algo::Cc => String::new(),
    };
    format!(
        "\"algo\":\"{}\",\"backend\":\"{backend}\"{algo_part}{full}",
        algo.as_str()
    )
}

/// `line` with the value of `"micros"` replaced by `0`.
fn normalise(line: &str) -> String {
    let Some(at) = line.find("\"micros\":") else {
        return line.to_string();
    };
    let digits = at + "\"micros\":".len();
    let end = line[digits..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |i| digits + i);
    format!("{}0{}", &line[..digits], &line[end..])
}

/// Submit `line` to `pool` and return its response, inline or queued.
fn ask(pool: &EnginePool, line: &str, xray: Option<TraceContext>) -> (bool, String) {
    let (tx, rx) = mpsc::channel();
    let reply = Reply::new(move |r: String| {
        let _ = tx.send(r);
    });
    match pool.submit(line, reply, xray) {
        Submission::Inline(r) => (true, r),
        Submission::Accepted => (
            false,
            rx.recv_timeout(Duration::from_secs(30))
                .expect("a queued query is answered"),
        ),
    }
}

fn served_transcript() -> String {
    let pool = EnginePool::new(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        par_threads: 2,
        preload: vec![
            ("karate".into(), "karate".into()),
            (ODD_NAME.into(), "karate".into()),
        ],
        ..ServerConfig::default()
    })
    .unwrap();
    let workers = pool.spawn_workers();
    let xray = TraceContext {
        trace_id: 4242,
        parent_span: 7,
    };
    let mut out = String::new();
    for name in ["karate", ODD_NAME] {
        for algo in Algo::ALL {
            for k in 0..4 {
                let base = format!(
                    "{{\"op\":\"query\",\"graph\":\"{}\",{}",
                    escape(name),
                    knobs(algo, k)
                );
                // the miss: id and x-ray per key, never traced (a traced
                // miss's spans carry clock readings)
                let id = if k % 2 == 1 {
                    format!(",\"id\":{}", 100 + k)
                } else {
                    String::new()
                };
                let x = (k >= 2).then_some(xray);
                let (inline, r) = ask(&pool, &format!("{base}{id}}}"), x);
                assert!(!inline, "first ask of key {k} must miss: {r}");
                out.push_str(&format!("miss {}\n", normalise(&r)));
                for variant in 0..8 {
                    let id = if variant & 1 == 1 {
                        format!(",\"id\":{}", 7 + variant)
                    } else {
                        String::new()
                    };
                    let trace = if variant & 2 == 2 {
                        ",\"trace\":true"
                    } else {
                        ""
                    };
                    let x = (variant & 4 == 4).then_some(xray);
                    let (inline, r) = ask(&pool, &format!("{base}{id}{trace}}}"), x);
                    assert!(inline, "key {k} variant {variant} must hit: {r}");
                    out.push_str(&format!("hit {}\n", normalise(&r)));
                }
            }
        }
    }
    pool.drain();
    for w in workers {
        w.join().unwrap();
    }
    out
}

#[test]
fn served_miss_and_hit_lines_are_pinned() {
    let t = served_transcript();
    assert_eq!(t.lines().count(), 2 * 6 * 4 * 9);
    for want in [
        r#"miss {"ok":true,"request_id":1,"graph":"karate","epoch":1,"algo":"bfs","backend":"seq","cached":false,"micros":0,"result":{"reached":34,"max_level":3,"checksum":"bcf9a30ea43da705"}}"#,
        r#"hit {"ok":true,"id":14,"trace_id":4242,"request_id":9,"graph":"karate","epoch":1,"algo":"bfs","backend":"seq","cached":true,"micros":0,"result":{"reached":34,"max_level":3,"checksum":"bcf9a30ea43da705"},"trace":[]}"#,
    ] {
        assert!(t.lines().any(|l| l == want), "no line {want}\n{t}");
    }
    assert_eq!(
        fnv1a(t.as_bytes()),
        0xd290_32d4_f679_482e,
        "served transcript digest\n{t}"
    );
}

/// One cache key per line over every algorithm, backend, knob that keys a
/// result and knob that does not, on both names and two epochs.
fn key_transcript() -> String {
    let mut out = String::new();
    for name in ["karate", ODD_NAME] {
        for epoch in [1, 1 << 40] {
            for algo in Algo::ALL {
                for backend in BackendChoice::ALL {
                    for direction in [Direction::Auto, Direction::Push, Direction::Pull] {
                        for (full, trace) in [(false, false), (true, false), (false, true)] {
                            let q = QueryParams {
                                id: trace.then_some(5),
                                graph: name.into(),
                                algo,
                                backend,
                                source: 17,
                                damping: if full { 0.125 } else { 0.85 },
                                max_iters: 33,
                                seed: u64::MAX,
                                direction,
                                full,
                                trace,
                                deadline_ms: None,
                            };
                            // the hit path's one-buffer key is the
                            // two-part key, byte for byte
                            let key = q.cache_key(name, epoch);
                            assert_eq!(key, cache_key(name, epoch, &q.cache_params()));
                            out.push_str(&key);
                            out.push('\n');
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn cache_keys_are_pinned() {
    let t = key_transcript();
    for want in [
        "karate@1|algo=bfs;backend=seq;source=17",
        "karate@1099511627776|algo=sssp;backend=cuda;source=17;direction=pull;full",
        "karate@1|algo=pagerank;backend=par;damping=0.125;max_iters=33;full",
        "karate@1|algo=mis;backend=seq;seed=18446744073709551615",
        "we\"ird\\na\tmé\u{1}@1|algo=triangle_count;backend=seq",
    ] {
        assert!(t.lines().any(|l| l == want), "no key {want:?}");
    }
    assert_eq!(
        fnv1a(t.as_bytes()),
        0x2323_e905_c742_2101,
        "key transcript digest"
    );
}
