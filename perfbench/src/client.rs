//! The load generator's wire client: blocking NDJSON connections driven
//! with a sliding pipeline window. One call drives every connection it is
//! given from the calling thread, so a workload's generator thread count
//! and connection count are exactly what its caller passes.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use gbtl_util::time::now_ns;

/// One client connection.
#[derive(Debug)]
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    /// Connect with `TCP_NODELAY` (small frames; Nagle would add tens of
    /// ms per round trip).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // a stuck server fails the run instead of hanging it
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
        })
    }

    /// Write raw bytes (one or more newline-terminated request lines).
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Read one response line (newline stripped); the borrow ends at the
    /// next call.
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// One request, one response.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.send(framed.as_bytes())?;
        self.recv().map(str::to_string)
    }
}

/// Drive `conns[c]` through `lists[c]` (indices into `lines`), keeping up
/// to `depth` requests in flight per connection: whenever a window is at
/// most half full, top it up with one write; read one response; move to
/// the next connection. (Refilling by half-windows keeps a deep pipeline
/// to a few writes per window instead of one tiny write per request —
/// at depth 2 it is the plain sliding window.) Responses arrive in
/// request order per connection (the evented front-end's guarantee), so
/// the oldest in-flight request is the one answered.
///
/// `on_response(index, send_ns, recv_ns, response)` sees every response.
pub fn drive(
    conns: &mut [Conn],
    lines: &[String],
    lists: &[Vec<usize>],
    depth: usize,
    mut on_response: impl FnMut(usize, u64, u64, &str),
) -> std::io::Result<()> {
    assert_eq!(conns.len(), lists.len());
    let depth = depth.max(1);
    let mut next = vec![0usize; conns.len()];
    let mut inflight: Vec<VecDeque<(usize, u64)>> = vec![VecDeque::new(); conns.len()];
    let mut buf = Vec::new();
    loop {
        let mut idle = true;
        for c in 0..conns.len() {
            if inflight[c].len() <= depth / 2 && next[c] < lists[c].len() {
                buf.clear();
                let send_ns = now_ns();
                while inflight[c].len() < depth && next[c] < lists[c].len() {
                    let i = lists[c][next[c]];
                    next[c] += 1;
                    buf.extend_from_slice(lines[i].as_bytes());
                    buf.push(b'\n');
                    inflight[c].push_back((i, send_ns));
                }
                conns[c].send(&buf)?;
            }
            if let Some((i, sent)) = inflight[c].pop_front() {
                idle = false;
                let response = conns[c].recv()?;
                on_response(i, sent, now_ns(), response);
            }
        }
        if idle {
            return Ok(());
        }
    }
}

/// Every `"result":{…}` object of a response, concatenated — the part of
/// a response that must not change between rounds, backends or reloads
/// (ids, epochs, `cached` and `micros` legitimately do). A `query_all`
/// response yields one fragment per graph.
///
/// Borrowed for the one-fragment response of a plain query — checking a
/// wire-hot round's 65 536 responses should not allocate per response.
pub fn result_fragments(response: &str) -> Cow<'_, str> {
    const KEY: &str = "\"result\":{";
    let mut out = Cow::Borrowed("");
    let mut rest = response;
    while let Some(at) = rest.find(KEY) {
        let body = &rest[at + KEY.len() - 1..];
        let mut depth = 0usize;
        let mut end = body.len();
        for (i, b) in body.bytes().enumerate() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        if out.is_empty() {
            out = Cow::Borrowed(&body[..end]);
        } else {
            out.to_mut().push_str(&body[..end]);
        }
        rest = &body[end..];
    }
    out
}

/// True for a success response.
pub fn is_ok(response: &str) -> bool {
    response.starts_with("{\"ok\":true")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragments_skip_the_volatile_fields() {
        let a = r#"{"ok":true,"request_id":4,"graph":"g","epoch":1,"algo":"bfs","backend":"seq","cached":false,"micros":312,"result":{"reached":9,"max_level":2,"checksum":"00ff"}}"#;
        let b = r#"{"ok":true,"request_id":9,"graph":"g","epoch":3,"algo":"bfs","backend":"par","cached":true,"micros":1,"result":{"reached":9,"max_level":2,"checksum":"00ff"}}"#;
        assert_eq!(result_fragments(a), result_fragments(b));
        assert_eq!(
            result_fragments(a),
            r#"{"reached":9,"max_level":2,"checksum":"00ff"}"#
        );
        let all = r#"{"ok":true,"graphs":2,"results":[{"graph":"a","response":{"ok":true,"result":{"components":1}}},{"graph":"b","response":{"ok":true,"result":{"components":2}}}]}"#;
        assert_eq!(result_fragments(all), r#"{"components":1}{"components":2}"#);
        assert_eq!(result_fragments(r#"{"ok":false,"code":"not_found"}"#), "");
        assert!(is_ok(a) && !is_ok(r#"{"ok":false}"#));
    }
}
