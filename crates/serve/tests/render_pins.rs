//! Render pins: every algorithm's `result` fragment, byte for byte.
//!
//! The transcript runs each algorithm on karate, rmat:10:8:2, grid:16 and
//! er:1000:4000:3, on seq, par and cuda-sim, with `full` off and on and two
//! parameter sets each, plus fused BFS/SSSP batches through
//! [`Engine::run_multi`] (an out-of-range member included). One FNV-1a of
//! the whole transcript is pinned, and a few fragments literally, so a
//! change to the digest, the summary or an entry's formatting shows here
//! before it reaches a client's cache or checksum comparison.

use gbtl_algorithms::Direction;
use gbtl_serve::catalog::{Catalog, GraphSpec};
use gbtl_serve::engine::Engine;
use gbtl_serve::protocol::{Algo, BackendChoice, QueryParams};
use gbtl_util::hash::fnv1a;

const GRAPHS: [&str; 4] = ["karate", "rmat:10:8:2", "grid:16", "er:1000:4000:3"];

fn params(algo: Algo, backend: BackendChoice, variant: usize, n: usize, full: bool) -> QueryParams {
    QueryParams {
        id: None,
        graph: "g".into(),
        algo,
        backend,
        source: [0, n / 3][variant],
        damping: [0.85, 0.5][variant],
        max_iters: [100, 5][variant],
        seed: [7, 11][variant],
        direction: Direction::Auto,
        full,
        trace: false,
        deadline_ms: None,
    }
}

/// `label => fragment`, or `label => error: text`.
fn line(out: &mut String, label: String, r: Result<String, String>) {
    match r {
        Ok(fragment) => out.push_str(&format!("{label} => {fragment}\n")),
        Err(e) => out.push_str(&format!("{label} => error: {e}\n")),
    }
}

/// One line per rendered fragment (or error), in a fixed order.
fn transcript() -> String {
    let cat = Catalog::new();
    let engine = Engine::new(2);
    let mut out = String::new();
    for spec in GRAPHS {
        let g = cat.load("g", &GraphSpec::parse(spec).unwrap()).unwrap();
        let n = g.n();
        for algo in Algo::ALL {
            for backend in BackendChoice::ALL {
                for variant in 0..2 {
                    for full in [false, true] {
                        let q = params(algo, backend, variant, n, full);
                        let r = engine.run(&g, &q, None, None).map(|o| o.result_json);
                        line(
                            &mut out,
                            format!(
                                "{spec} {} {} v{variant} full={full}",
                                algo.as_str(),
                                backend.as_str()
                            ),
                            r,
                        );
                    }
                }
            }
        }
        let members = [(0, false), (n / 3, true), (n - 1, false), (n + 5, false)];
        for algo in [Algo::Bfs, Algo::Sssp] {
            for backend in BackendChoice::ALL {
                for (k, r) in engine
                    .run_multi(&g, algo, backend, &members, None)
                    .into_iter()
                    .enumerate()
                {
                    line(
                        &mut out,
                        format!("{spec} fused {} {} m{k}", algo.as_str(), backend.as_str()),
                        r,
                    );
                }
            }
        }
    }
    out
}

/// The fragment (or `error: text`) on the transcript line labelled `label`.
fn fragment<'t>(t: &'t str, label: &str) -> &'t str {
    let prefix = format!("{label} => ");
    let line = t
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no line {label:?}"));
    &line[prefix.len()..]
}

#[test]
fn every_rendered_fragment_is_pinned() {
    let t = transcript();
    assert_eq!(t.lines().count(), 4 * (6 * 3 * 2 * 2 + 2 * 3 * 4));
    let pins = [
        (
            "karate bfs seq v0 full=false",
            r#"{"reached":34,"max_level":3,"checksum":"782089d5f13c99e4"}"#,
        ),
        (
            "karate pagerank par v1 full=false",
            r#"{"iterations":5,"sum":1.000000,"top":33,"top_rank":0.080274,"checksum":"a231368dcd8ec11b"}"#,
        ),
        (
            "karate mis cuda v1 full=true",
            r#"{"size":18,"independent":true,"checksum":"8d2e4757973e8c3b","set":[[3,true],[4,true],[5,true],[9,true],[11,true],[14,true],[15,true],[17,true],[18,true],[19,true],[20,true],[21,true],[22,true],[25,true],[26,true],[27,true],[28,true],[30,true]]}"#,
        ),
        (
            "rmat:10:8:2 sssp cuda v1 full=false",
            r#"{"reached":795,"max_dist":499,"checksum":"0191698fb1974765"}"#,
        ),
        (
            "grid:16 cc par v0 full=false",
            r#"{"components":1,"checksum":"cbb65362e583a6ea"}"#,
        ),
        (
            "er:1000:4000:3 pagerank seq v0 full=false",
            r#"{"iterations":30,"sum":1.000000,"top":934,"top_rank":0.002164,"checksum":"af63ea8e7c610eed"}"#,
        ),
        (
            "er:1000:4000:3 fused sssp par m2",
            r#"{"reached":1000,"max_dist":476,"checksum":"942af82552ac0696"}"#,
        ),
        (
            "er:1000:4000:3 fused bfs cuda m3",
            r#"error: source 1005 out of range for graph "g" (1000 vertices)"#,
        ),
    ];
    for (label, want) in pins {
        assert_eq!(fragment(&t, label), want, "{label}");
    }
    assert_eq!(
        fnv1a(t.as_bytes()),
        0x12c0_2a71_1895_e3c6,
        "transcript digest"
    );
}
