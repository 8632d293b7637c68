//! The `gbtl-serve` binary as a process. Started from its whole flag table
//! on an ephemeral port (read off its `listening on` line), it answers one
//! query per algorithm, refuses a graph past the catalog's bounds at the
//! cost of one request, and exits 0 after `{"op":"shutdown"}`. An unknown
//! flag and a bound address are its two start-up failures.

use std::net::TcpListener;

use gbtl_serve::Client;
use process::{exit_of, ok, temp_dir, Running};

mod process;

const BIN: &str = env!("CARGO_BIN_EXE_gbtl-serve");

#[test]
fn the_full_flag_set_serves_every_algorithm_and_exits_clean() {
    let dir = temp_dir("serve-flags");
    let flags = "--addr 127.0.0.1:0 --mode evented --workers 2 --queue 16 --cache 16 \
                 --deadline-ms 30000 --max-line 65536 --idle-timeout-ms 0 --par-threads 1 \
                 --load karate=karate --fuse on --fuse-window-us 3000 --fuse-max-batch 32";
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
    ok(&mut c, "{\"op\":\"snapshot\"}");

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

#[test]
fn an_unknown_flag_exits_2_with_the_usage() {
    let (code, stderr) = exit_of(BIN, &["--no-such-flag"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag \"--no-such-flag\""),
        "{stderr}"
    );
    assert!(
        stderr.contains("usage: gbtl-serve [--addr HOST:PORT]"),
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
