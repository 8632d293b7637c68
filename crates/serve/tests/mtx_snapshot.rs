//! A Matrix Market graph survives its own snapshot: every stored entry of
//! an `.mtx` file is an edge, an explicit `0` included, so the loaded
//! adjacency is all `true` and `restore` accepts the `.gbsnap` that
//! `snapshot` wrote of it. Query checksums before and after must agree.

use std::path::PathBuf;

use gbtl_serve::{start, Client, ServerConfig};

/// A triangle with one explicit `0` entry (the edge 2–3).
const MTX: &str = "%%MatrixMarket matrix coordinate integer general\n\
                   3 3 3\n\
                   1 2 1\n\
                   2 3 0\n\
                   3 1 4\n";

const ALGOS: &[&str] = &["bfs", "sssp", "pagerank", "cc", "mis"];

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gbtl_mtxsnap_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ok(c: &mut Client, line: &str) -> gbtl_util::json::Value {
    let v = c.request_json(line).expect("round-trip");
    assert_eq!(v.bool_field("ok"), Some(true), "{line} -> {v:?}");
    v
}

fn checksums(c: &mut Client) -> Vec<String> {
    ALGOS
        .iter()
        .map(|algo| {
            let line = format!(
                "{{\"op\":\"query\",\"graph\":\"m\",\"algo\":\"{algo}\",\
                 \"backend\":\"seq\",\"source\":0}}"
            );
            let v = ok(c, &line);
            v.get("result")
                .and_then(|r| r.str_field("checksum"))
                .unwrap_or_else(|| panic!("no checksum for {algo}"))
                .to_string()
        })
        .collect()
}

#[test]
fn an_mtx_graph_with_an_explicit_zero_restores_from_its_snapshot() {
    let dir = temp_dir();
    let mtx = dir.join("zero.mtx");
    std::fs::write(&mtx, MTX).unwrap();
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache_capacity: 0, // every query really executes
        snapshot_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(&handle.addr().to_string()).expect("connect");

    let load = ok(
        &mut c,
        &format!(
            "{{\"op\":\"load\",\"graph\":\"m\",\"spec\":\"mtx:{}\"}}",
            mtx.display()
        ),
    );
    assert_eq!(load.u64_field("nnz"), Some(6), "all three edges, mirrored");
    let before = checksums(&mut c);

    ok(&mut c, "{\"op\":\"snapshot\",\"graph\":\"m\"}");
    ok(&mut c, "{\"op\":\"restore\",\"graph\":\"m\"}");
    assert_eq!(checksums(&mut c), before);

    handle.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}
