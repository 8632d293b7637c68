//! The `gbtl-shard` binary as a process. Started from gbtl-serve's whole
//! flag table plus `--shards` and `--pin` on an ephemeral port (read off
//! its `listening on` line), it answers one query per algorithm, refuses a
//! graph past the catalog's bounds at the cost of one request, and exits 0
//! after `{"op":"shutdown"}`. A catalog snapshot survives a restart into a
//! second process on the same directory. An unknown flag and a bound
//! address are its two start-up failures.

use std::net::TcpListener;

use gbtl_serve::Client;
use gbtl_util::json::Value;
use process::{exit_of, ok, temp_dir, Running};

#[path = "../../serve/tests/process/mod.rs"]
mod process;

const BIN: &str = env!("CARGO_BIN_EXE_gbtl-shard");

#[test]
fn the_full_flag_set_serves_every_algorithm_and_exits_clean() {
    let dir = temp_dir("shard-flags");
    let flags = "--addr 127.0.0.1:0 --shards 4 --pin karate=2 --mode evented --workers 1 \
                 --queue 16 --cache 16 --deadline-ms 30000 --max-line 65536 \
                 --idle-timeout-ms 0 --par-threads 1 --load karate=karate \
                 --fuse on --fuse-window-us 3000 --fuse-max-batch 32";
    let mut args: Vec<&str> = flags.split_whitespace().collect();
    args.extend(["--snapshot-dir", dir.to_str().unwrap()]);
    let server = Running::start(BIN, &args);
    let mut c = Client::connect(&server.addr).unwrap();
    for algo in ["bfs", "sssp", "pagerank", "triangle_count", "cc", "mis"] {
        let v = ok(
            &mut c,
            &format!(
                "{{\"op\":\"query\",\"graph\":\"karate\",\"algo\":\"{algo}\",\
                 \"backend\":\"par\",\"source\":0}}"
            ),
        );
        assert_eq!(v.str_field("algo"), Some(algo));
        assert!(v.get("result").is_some(), "{algo}: {v:?}");
    }

    // a graph past the catalog's bounds costs one request, not the process
    let huge = c
        .request_json("{\"op\":\"load\",\"name\":\"huge\",\"spec\":\"grid:100000\"}")
        .unwrap();
    assert_eq!(huge.str_field("code"), Some("bad_request"), "{huge:?}");
    let pong = c.request_json("{\"op\":\"ping\"}").unwrap();
    assert_eq!(pong.bool_field("pong"), Some(true));

    server.shut_down();
    std::fs::remove_dir_all(dir).unwrap();
}

/// The bfs checksum of `graph` from source 0 on `backend`.
fn checksum(c: &mut Client, graph: &str, backend: &str) -> String {
    let v = ok(
        c,
        &format!(
            "{{\"op\":\"query\",\"graph\":\"{graph}\",\"algo\":\"bfs\",\
             \"backend\":\"{backend}\",\"source\":0}}"
        ),
    );
    v.get("result")
        .and_then(|r| r.str_field("checksum"))
        .expect("checksum")
        .to_string()
}

fn entries(v: &Value, field: &str) -> usize {
    v.get(field).and_then(|a| a.as_arr()).map_or(0, |a| a.len())
}

#[test]
fn a_snapshot_survives_a_restart_into_a_second_process() {
    let dir = temp_dir("shard-restart");
    let graphs: Vec<String> = (0..8).map(|i| format!("g{i}")).collect();
    let mut args: Vec<&str> = "--addr 127.0.0.1:0 --shards 4 --workers 1 --snapshot-dir"
        .split_whitespace()
        .collect();
    args.push(dir.to_str().unwrap());
    let restart_args = args.clone();
    let loads: Vec<String> = (0..8).map(|i| format!("g{i}=rmat:6:4:{i}")).collect();
    for load in &loads {
        args.extend(["--load", load]);
    }

    let first = Running::start(BIN, &args);
    let mut c = Client::connect(&first.addr).unwrap();
    let before: Vec<(String, String)> = graphs
        .iter()
        .map(|g| (checksum(&mut c, g, "seq"), checksum(&mut c, g, "cuda")))
        .collect();
    for (g, (seq, cuda)) in graphs.iter().zip(&before) {
        assert_eq!(seq, cuda, "{g}: backends disagree");
    }
    let snap = ok(&mut c, "{\"op\":\"snapshot\"}");
    assert_eq!(snap.bool_field("partial"), Some(false), "{snap:?}");
    assert_eq!(entries(&snap, "snapshots"), 8, "{snap:?}");
    first.shut_down();

    let second = Running::start(BIN, &restart_args);
    let mut c = Client::connect(&second.addr).unwrap();
    let restored = ok(&mut c, "{\"op\":\"restore\"}");
    assert_eq!(entries(&restored, "restored"), 8, "{restored:?}");
    for (g, want) in graphs.iter().zip(&before) {
        let after = (checksum(&mut c, g, "seq"), checksum(&mut c, g, "cuda"));
        assert_eq!(&after, want, "{g}: the answer moved across the restart");
    }
    second.shut_down();
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn an_unknown_flag_exits_2_with_the_usage() {
    let (code, stderr) = exit_of(BIN, &["--no-such-flag"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag \"--no-such-flag\""),
        "{stderr}"
    );
    assert!(
        stderr.contains("usage: gbtl-shard [--shards N]"),
        "{stderr}"
    );
}

#[test]
fn a_bound_address_exits_1_naming_it() {
    let taken = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = taken.local_addr().unwrap().to_string();
    let (code, stderr) = exit_of(BIN, &["--addr", &addr]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains(&addr), "{stderr}");
}
