//! Arbitrary-input properties of the request parser: no line makes
//! `parse_request` panic — token soup, arbitrary bytes, or a request
//! object of every op with its fields mistyped, out of range or missing —
//! and what it rejects comes back as an error message.

use gbtl_serve::protocol::{parse_request, Request};
use proptest::prelude::*;

/// Fragments of request lines: structure, the ops and field names the
/// parser reads, and values of every JSON type, in and out of range.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"",
    "\\",
    "\"op\"",
    "\"query\"",
    "\"query_all\"",
    "\"load\"",
    "\"sleep\"",
    "\"xray\"",
    "\"graph\"",
    "\"algo\"",
    "\"bfs\"",
    "\"source\"",
    "\"damping\"",
    "\"deadline_ms\"",
    "0",
    "-1",
    "0.5",
    "1e999",
    "18446744073709551616",
    "true",
    "null",
    "\\u00",
    "é",
    "\u{0}",
];

/// The ops `parse_request` knows, and one it does not.
const OPS: &[&str] = &[
    "ping",
    "list",
    "stats",
    "metrics",
    "shutdown",
    "sleep",
    "load",
    "query",
    "query_all",
    "snapshot",
    "restore",
    "xray",
    "nosuch",
];

/// Every field any op reads.
const FIELDS: &[&str] = &[
    "id",
    "ms",
    "deadline_ms",
    "name",
    "graph",
    "spec",
    "algo",
    "backend",
    "source",
    "damping",
    "max_iters",
    "seed",
    "direction",
    "full",
    "trace",
    "trace_id",
];

/// Field values: each type the fields expect, the names they accept and
/// refuse, and numbers at and past every edge.
const VALUES: &[&str] = &[
    "0",
    "7",
    "-1",
    "0.5",
    "1.0",
    "-0.0",
    "1e999",
    "-1e999",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "3.5e2",
    "true",
    "false",
    "null",
    "[]",
    "{}",
    "[1,2]",
    "{\"op\":\"query\"}",
    "\"\"",
    "\"bfs\"",
    "\"sssp\"",
    "\"pr\"",
    "\"tc\"",
    "\"cc\"",
    "\"mis\"",
    "\"seq\"",
    "\"par\"",
    "\"gpu\"",
    "\"pull\"",
    "\"auto\"",
    "\"karate\"",
    "\"rmat:10:8:7\"",
    "\"rmat:99:99:1\"",
    "\"\\u0000\"",
    "\"nosuch\"",
];

/// A request object: an op (or none), then fields drawn with values of
/// any type, repeated names allowed.
fn arb_request() -> impl Strategy<Value = String> {
    let fields = proptest::collection::vec((0..FIELDS.len(), 0..VALUES.len()), 0..8);
    (0..OPS.len() + 1, fields).prop_map(|(op, fields)| {
        let mut parts: Vec<String> = OPS
            .get(op)
            .map(|op| format!("\"op\":\"{op}\""))
            .into_iter()
            .collect();
        parts.extend(
            fields
                .into_iter()
                .map(|(f, v)| format!("\"{}\":{}", FIELDS[f], VALUES[v])),
        );
        format!("{{{}}}", parts.join(","))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A line stitched from request fragments parses or is an error.
    #[test]
    fn parse_never_panics_on_token_soup(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48)) {
        let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = parse_request(&line);
    }

    /// Arbitrary bytes, decoded as the framer decodes them, parse or are
    /// an error.
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = parse_request(&String::from_utf8_lossy(&bytes));
    }

    /// A request object of any op with any fields parses or is a
    /// non-empty error; a query it accepts holds a damping in [0, 1).
    #[test]
    fn any_request_object_parses_or_is_an_error(line in arb_request()) {
        match parse_request(&line) {
            Ok(Request::Query(q) | Request::QueryAll(q)) => {
                prop_assert!((0.0..1.0).contains(&q.damping), "{}", line);
            }
            Ok(_) => {}
            Err(e) => prop_assert!(!e.is_empty(), "{}", line),
        }
    }
}
