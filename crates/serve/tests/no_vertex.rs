//! A graph with no vertex is refused at load, over the wire: `grid:0` and
//! a 0×0 Matrix Market file each get one `bad_request` naming the spec
//! (a PageRank over no vertex would answer `"top_rank":-inf`, which is not
//! JSON), the catalog is left as it was, and the connection serves on.

use gbtl_serve::{start, Client, ServerConfig};

#[test]
fn a_graph_with_no_vertex_is_a_bad_request_and_the_server_serves_on() {
    let dir = std::env::temp_dir().join(format!("gbtl_novertex_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mtx = dir.join("empty.mtx");
    std::fs::write(
        &mtx,
        "%%MatrixMarket matrix coordinate pattern general\n0 0 0\n",
    )
    .unwrap();
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(&handle.addr().to_string()).unwrap();
    for spec in ["grid:0".to_string(), format!("mtx:{}", mtx.display())] {
        let line = format!("{{\"op\":\"load\",\"graph\":\"g\",\"spec\":{spec:?}}}");
        let v = c.request_json(&line).expect("round-trip");
        assert_eq!(v.bool_field("ok"), Some(false), "{spec}: {v:?}");
        assert_eq!(v.str_field("code"), Some("bad_request"), "{spec}: {v:?}");
        let msg = v.str_field("error").unwrap_or_default();
        assert!(
            msg.contains(&spec) && msg.contains("at least one vertex"),
            "{msg}"
        );
        let pong = c
            .request_json("{\"op\":\"ping\"}")
            .expect("ping after the refusal");
        assert_eq!(pong.bool_field("pong"), Some(true));
    }
    let list = c.request_json("{\"op\":\"list\"}").unwrap();
    assert_eq!(
        list.get("graphs").and_then(|g| g.as_arr()).map(|g| g.len()),
        Some(0)
    );
    handle.shutdown_and_join();
    std::fs::remove_dir_all(&dir).ok();
}
