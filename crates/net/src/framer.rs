//! Bounded NDJSON line framing.
//!
//! TCP hands a front-end arbitrary byte chunks; [`LineFramer`] turns
//! them back into complete request lines, no matter how they were split —
//! one byte at a time, several requests per segment, or a request spread
//! across many segments. The buffer is **bounded**: once a line exceeds
//! `max_line` bytes without a newline, the framer emits
//! [`Frame::Oversized`] once, drops what it buffered, and silently
//! discards until the next newline, so a hostile or buggy client can never
//! grow server memory with an endless unterminated line — and the
//! connection stays usable for the requests after it.

/// One framing event from [`LineFramer::push`].
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A complete line (newline stripped, trailing `\r` too). Invalid
    /// UTF-8 has been replaced lossily — the protocol layer answers it as
    /// a parse error like any other malformed request.
    Line(&'a str),
    /// The current line exceeded the bound; everything up to the next
    /// newline is being discarded. Emitted exactly once per oversized
    /// line.
    Oversized,
}

/// Incremental, bounded line splitter. See the module docs.
#[derive(Debug)]
pub struct LineFramer {
    buf: Vec<u8>,
    discarding: bool,
    max_line: usize,
}

impl LineFramer {
    /// A framer that tolerates lines up to `max_line` bytes (excluding the
    /// newline).
    pub fn new(max_line: usize) -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            discarding: false,
            max_line: max_line.max(1),
        }
    }

    /// Bytes currently buffered waiting for a newline (≤ `max_line`).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Feed one received chunk; `on_frame` fires for every complete line
    /// and every oversized-line fault, in wire order.
    pub fn push(&mut self, mut bytes: &[u8], mut on_frame: impl FnMut(Frame<'_>)) {
        while !bytes.is_empty() {
            if self.discarding {
                match find_newline(bytes) {
                    Some(i) => {
                        bytes = &bytes[i + 1..];
                        self.discarding = false;
                    }
                    None => return, // still inside the oversized line
                }
                continue;
            }
            match find_newline(bytes) {
                Some(i) => {
                    let line_len = self.buf.len() + i;
                    if line_len > self.max_line {
                        self.buf.clear();
                        on_frame(Frame::Oversized);
                    } else if self.buf.is_empty() {
                        emit_line(&bytes[..i], &mut on_frame);
                    } else {
                        self.buf.extend_from_slice(&bytes[..i]);
                        let line = std::mem::take(&mut self.buf);
                        emit_line(&line, &mut on_frame);
                    }
                    bytes = &bytes[i + 1..];
                }
                None => {
                    if self.buf.len() + bytes.len() > self.max_line {
                        // the rest of this chunk has no newline either, so
                        // all of it belongs to the oversized line
                        self.buf.clear();
                        self.discarding = true;
                        on_frame(Frame::Oversized);
                    } else {
                        self.buf.extend_from_slice(bytes);
                    }
                    return;
                }
            }
        }
    }

    /// Feed one received chunk and collect what a front-end must answer,
    /// in wire order: `Some(line)` per non-blank request line, `None` per
    /// oversized line. Both front-ends frame through this, so they skip and
    /// reject the same bytes.
    pub fn requests(&mut self, bytes: &[u8]) -> Vec<Option<String>> {
        let mut frames = Vec::new();
        self.push(bytes, |frame| match frame {
            Frame::Line(l) => {
                if !l.trim().is_empty() {
                    frames.push(Some(l.to_string()));
                }
            }
            Frame::Oversized => frames.push(None),
        });
        frames
    }
}

fn find_newline(bytes: &[u8]) -> Option<usize> {
    bytes.iter().position(|&b| b == b'\n')
}

fn emit_line(mut line: &[u8], on_frame: &mut impl FnMut(Frame<'_>)) {
    if line.last() == Some(&b'\r') {
        line = &line[..line.len() - 1];
    }
    on_frame(Frame::Line(&String::from_utf8_lossy(line)));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect frames as owned strings; `"!oversized"` marks the fault.
    fn feed(framer: &mut LineFramer, bytes: &[u8]) -> Vec<String> {
        let mut out = Vec::new();
        framer.push(bytes, |f| {
            out.push(match f {
                Frame::Line(l) => l.to_string(),
                Frame::Oversized => "!oversized".into(),
            })
        });
        out
    }

    #[test]
    fn several_lines_in_one_chunk() {
        let mut f = LineFramer::new(100);
        assert_eq!(feed(&mut f, b"a\nbb\r\nccc\n"), ["a", "bb", "ccc"]);
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn byte_dribble_reassembles() {
        let mut f = LineFramer::new(100);
        let mut got = Vec::new();
        for &b in b"{\"op\":\"ping\"}\n" {
            got.extend(feed(&mut f, &[b]));
        }
        assert_eq!(got, ["{\"op\":\"ping\"}"]);
    }

    #[test]
    fn split_across_segments_with_tail_kept() {
        let mut f = LineFramer::new(100);
        assert!(feed(&mut f, b"{\"op\":").is_empty());
        assert_eq!(f.buffered(), 6);
        assert_eq!(feed(&mut f, b"\"ping\"}\npar"), ["{\"op\":\"ping\"}"]);
        assert_eq!(f.buffered(), 3, "partial next line stays buffered");
        assert_eq!(feed(&mut f, b"tial\n"), ["partial"]);
    }

    #[test]
    fn oversized_without_newline_emits_once_then_discards() {
        let mut f = LineFramer::new(8);
        assert_eq!(feed(&mut f, b"0123456789"), ["!oversized"]);
        assert_eq!(f.buffered(), 0, "nothing retained while discarding");
        // more of the same line: silent
        assert!(feed(&mut f, b"aaaaaaaaaaaaaaaa").is_empty());
        // the newline ends the discard; the next line frames normally
        assert_eq!(feed(&mut f, b"zzz\nok\n"), ["ok"]);
    }

    #[test]
    fn oversized_detected_at_the_newline_too() {
        // the line plus its newline arrive in one chunk, longer than max
        let mut f = LineFramer::new(4);
        assert_eq!(feed(&mut f, b"123456\nab\n"), ["!oversized", "ab"]);
    }

    #[test]
    fn boundary_lengths_are_exact() {
        let mut f = LineFramer::new(4);
        assert_eq!(feed(&mut f, b"1234\n"), ["1234"], "exactly max is fine");
        assert_eq!(feed(&mut f, b"12345\n"), ["!oversized"]);
    }

    #[test]
    fn empty_lines_and_crlf() {
        let mut f = LineFramer::new(10);
        assert_eq!(feed(&mut f, b"\n\r\nx\n"), ["", "", "x"]);
    }

    #[test]
    fn requests_skip_blank_lines_and_mark_oversized() {
        let mut f = LineFramer::new(4);
        assert_eq!(
            f.requests(b"\r\n  \nab\n123456\ncd"),
            [Some("ab".to_string()), None]
        );
        assert_eq!(f.requests(b"\n"), [Some("cd".to_string())]);
    }

    #[test]
    fn invalid_utf8_is_replaced_not_fatal() {
        let mut f = LineFramer::new(10);
        let got = feed(&mut f, b"ab\xffcd\nok\n");
        assert_eq!(got.len(), 2);
        assert!(got[0].contains('\u{fffd}'));
        assert_eq!(got[1], "ok");
    }
}
