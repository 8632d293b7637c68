//! A server binary run as a child process, shared by the `binary` tests of
//! gbtl-serve and gbtl-shard (the latter includes this file by path).

use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

use gbtl_serve::Client;
use gbtl_util::json::Value;

/// A running binary, killed if the test panics before it exits.
pub struct Running {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Running {
    /// Start `bin` and read the bound address off its `listening on` line.
    pub fn start(bin: &str, args: &[&str]) -> Running {
        let mut child = Command::new(bin)
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no listening line: {line:?}"))
            .to_string();
        Running {
            child,
            stdout,
            addr,
        }
    }

    /// Ask for shutdown: the process must say so and exit 0. The reply
    /// itself may lose the race against the exit.
    pub fn shut_down(mut self) {
        let mut c = Client::connect(&self.addr).unwrap();
        let _ = c.request("{\"op\":\"shutdown\"}");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).unwrap();
        assert!(rest.contains(": shutdown complete"), "{rest:?}");
        assert!(self.child.wait().unwrap().success());
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run `bin` to its exit: (exit code, stderr).
pub fn exit_of(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh directory under the system temp dir, unique to this process.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gbtl-bin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Send `line` and require an `ok` answer.
pub fn ok(c: &mut Client, line: &str) -> Value {
    let v = c.request_json(line).unwrap();
    assert_eq!(v.bool_field("ok"), Some(true), "{line}: {v:?}");
    v
}
