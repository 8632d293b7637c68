//! Arbitrary-input properties of the request parser: no line makes
//! `parse_request` panic — token soup, arbitrary bytes, or a request
//! object of every op with its fields mistyped, out of range or missing —
//! and on every line it answers what the tree-building parser it replaced
//! answered: a `Debug`-equal [`Request`] or exactly the same error text.
//! That parser is kept below, verbatim, as the oracle.

use gbtl_core::Direction;
use gbtl_serve::protocol::{parse_request, Algo, BackendChoice, QueryParams, Request};
use gbtl_util::json::{self, Value};
use proptest::prelude::*;

// ---- the oracle: the request parser as it read a `json::Value` tree ----

fn oracle_parse_request(line: &str) -> Result<Request, String> {
    let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let op = v.str_field("op").ok_or("missing \"op\" field")?;
    match op {
        "ping" => Ok(Request::Ping),
        "list" => Ok(Request::List),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "sleep" => Ok(Request::Sleep {
            ms: field(&v, op, "ms", UINT, Value::as_u64)?.ok_or("sleep: missing \"ms\"")?,
            id: field(&v, op, "id", UINT, Value::as_u64)?,
            deadline_ms: field(&v, op, "deadline_ms", UINT, Value::as_u64)?,
        }),
        "load" => Ok(Request::Load {
            // "graph" is accepted as an alias so load and query lines can
            // name the graph with the same field
            name: field(&v, op, "name", STR, Value::as_str)?
                .or(field(&v, op, "graph", STR, Value::as_str)?)
                .ok_or("load: missing \"name\"")?
                .to_string(),
            spec: field(&v, op, "spec", STR, Value::as_str)?
                .ok_or("load: missing \"spec\"")?
                .to_string(),
        }),
        "query" => {
            let graph = field(&v, op, "graph", STR, Value::as_str)?
                .ok_or("query: missing \"graph\"")?
                .to_string();
            Ok(Request::Query(parse_query_params(&v, graph)?))
        }
        // graph-less: the server substitutes every resident graph name
        "query_all" => Ok(Request::QueryAll(parse_query_params(&v, String::new())?)),
        "snapshot" => Ok(Request::Snapshot {
            graph: field(&v, op, "graph", STR, Value::as_str)?.map(str::to_string),
            id: field(&v, op, "id", UINT, Value::as_u64)?,
        }),
        "restore" => Ok(Request::Restore {
            graph: field(&v, op, "graph", STR, Value::as_str)?.map(str::to_string),
            id: field(&v, op, "id", UINT, Value::as_u64)?,
        }),
        "xray" => Ok(Request::Xray {
            trace_id: field(&v, op, "trace_id", UINT, Value::as_u64)?,
            id: field(&v, op, "id", UINT, Value::as_u64)?,
        }),
        other => Err(format!("unknown op {other:?}")),
    }
}

const STR: &str = "a string";
const UINT: &str = "a non-negative integer";
const BOOL: &str = "true or false";

/// An optional field of `op`'s request object: `None` when absent, its
/// value when `read` accepts it, and an error naming the field when it is
/// present with the wrong type or range — never a silent default.
fn field<'v, T>(
    v: &'v Value,
    op: &str,
    name: &str,
    expected: &str,
    read: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<Option<T>, String> {
    match v.get(name) {
        None => Ok(None),
        Some(x) => read(x)
            .map(Some)
            .ok_or_else(|| format!("{op}: \"{name}\" must be {expected}")),
    }
}

/// The shared `query` / `query_all` parameter grammar (everything but the
/// graph name, which `query` requires and `query_all` forbids meaning to).
/// An absent field takes its default; a present one must be well-typed.
fn parse_query_params(v: &Value, graph: String) -> Result<QueryParams, String> {
    let q = "query";
    let algo = field(v, q, "algo", STR, Value::as_str)?.ok_or("query: missing \"algo\"")?;
    let algo = Algo::parse(algo)?;
    let backend = match field(v, q, "backend", STR, Value::as_str)? {
        Some(b) => BackendChoice::parse(b)?,
        None => BackendChoice::default(),
    };
    let damping = field(v, q, "damping", "a number in [0, 1)", Value::as_f64)?.unwrap_or(0.85);
    if !(0.0..1.0).contains(&damping) {
        return Err(format!("query: damping {damping} outside [0, 1)"));
    }
    let direction = match field(v, q, "direction", STR, Value::as_str)? {
        Some(d) => Direction::parse(d).ok_or_else(|| {
            format!("query: unknown \"direction\" {d:?} (expected push|pull|auto)")
        })?,
        None => Direction::Auto,
    };
    Ok(QueryParams {
        id: field(v, q, "id", UINT, Value::as_u64)?,
        graph,
        algo,
        backend,
        source: field(v, q, "source", UINT, Value::as_usize)?.unwrap_or(0),
        damping,
        max_iters: field(v, q, "max_iters", UINT, Value::as_usize)?.unwrap_or(100),
        seed: field(v, q, "seed", UINT, Value::as_u64)?.unwrap_or(7),
        direction,
        full: field(v, q, "full", BOOL, Value::as_bool)?.unwrap_or(false),
        trace: field(v, q, "trace", BOOL, Value::as_bool)?.unwrap_or(false),
        deadline_ms: field(v, q, "deadline_ms", UINT, Value::as_u64)?,
    })
}

// ---- the properties ----

/// `parse_request` answers `line` exactly as the oracle does.
fn agrees(line: &str) {
    let got = parse_request(line).map(|r| format!("{r:?}"));
    let want = oracle_parse_request(line).map(|r| format!("{r:?}"));
    assert_eq!(got, want, "{line:?}");
}

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
    "\"\\u006fp\"",
    "\"gr\\u0061ph\"",
    "\"k\\\"a\"",
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
    // escaped spellings: of a name the grammar accepts, of a graph name
    // that keeps its escapes, and of escapes the reader refuses
    "\"b\\u0066s\"",
    "\"\\u0070ull\"",
    "\"ka\\\"r\\\\a\\nte\"",
    "\"\\ud834\\udd1e\"",
    "\"\\ud834\"",
    "\"\\x41\"",
    "\"é\\t\"",
];

/// How a key may be spelled: plainly, or with its second letter escaped.
fn spell(key: &str, escaped: bool) -> String {
    match key.char_indices().nth(1) {
        Some((at, c)) if escaped => {
            format!("{}\\u{:04x}{}", &key[..at], c as u32, &key[at + 1..])
        }
        _ => key.to_string(),
    }
}

/// A request object: an op (or none), then fields drawn with values of
/// any type, repeated names allowed, any key possibly spelled with an
/// escape, the op itself possibly repeated with a value of any type, and
/// whitespace of any kind around every token.
fn arb_request() -> impl Strategy<Value = String> {
    let fields = proptest::collection::vec((0..FIELDS.len(), 0..VALUES.len(), any::<bool>()), 0..8);
    let second_op = proptest::option::of(0..VALUES.len() + OPS.len());
    (
        0..OPS.len() + 1,
        any::<bool>(),
        fields,
        second_op,
        0usize..4,
    )
        .prop_map(|(op, escaped_op, fields, second_op, ws)| {
            let mut parts: Vec<String> = OPS
                .get(op)
                .map(|op| format!("\"{}\":\"{op}\"", spell("op", escaped_op)))
                .into_iter()
                .collect();
            parts.extend(
                fields.into_iter().map(|(f, v, escaped)| {
                    format!("\"{}\":{}", spell(FIELDS[f], escaped), VALUES[v])
                }),
            );
            if let Some(second) = second_op {
                let value = match VALUES.get(second) {
                    Some(v) => v.to_string(),
                    None => format!("\"{}\"", OPS[second - VALUES.len()]),
                };
                parts.insert(parts.len() / 2, format!("\"op\":{value}"));
            }
            let pad = [" ", "", "\t", "\r\n "][ws];
            format!("{pad}{{{pad}{}}}{pad}", parts.join(&format!("{pad},{pad}")))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A line stitched from request fragments reads as the oracle reads it.
    #[test]
    fn parse_never_panics_on_token_soup(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48)) {
        let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
        agrees(&line);
    }

    /// Arbitrary bytes, decoded as the framer decodes them, read as the
    /// oracle reads them.
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        agrees(&String::from_utf8_lossy(&bytes));
    }

    /// A request object of any op with any fields reads as the oracle
    /// reads it; a query it accepts holds a damping in [0, 1), and an
    /// error is never empty.
    #[test]
    fn any_request_object_parses_or_is_an_error(line in arb_request()) {
        agrees(&line);
        match parse_request(&line) {
            Ok(Request::Query(q) | Request::QueryAll(q)) => {
                prop_assert!((0.0..1.0).contains(&q.damping), "{}", line);
            }
            Ok(_) => {}
            Err(e) => prop_assert!(!e.is_empty(), "{}", line),
        }
    }
}

/// Hand-picked lines the generators reach only by luck: a repeated field
/// (the first occurrence wins, whatever its type), escaped keys and graph
/// names, nested values where a scalar belongs, documents that are not
/// objects, syntax errors at each position, trailing bytes and nesting at
/// and past the reader's depth bound.
#[test]
fn edge_lines_read_as_the_oracle_reads_them() {
    let mut lines: Vec<String> = [
        r#"{"op":"ping","op":"warp"}"#,
        r#"{"op":7,"op":"ping"}"#,
        r#"{"op":"query","graph":"a","graph":"b","algo":"bfs"}"#,
        r#"{"op":"query","graph":5,"graph":"b","algo":"bfs"}"#,
        r#"{"op":"query","graph":"g","algo":"bfs","source":1,"source":"x"}"#,
        r#"{"op":"query","graph":"g","algo":"bfs","source":"x","source":1}"#,
        r#"{"op":"load","name":"k","graph":5,"spec":"karate"}"#,
        r#"{"op":"load","graph":"k","spec":"karate"}"#,
        r#"{"\u006fp":"query","gr\u0061ph":"k\"a\\r\nte","algo":"b\u0066s"}"#,
        r#"{"op":"query","graph":"\ud834\udd1e\u00e9","algo":"bfs"}"#,
        r#"{"op":"query","graph":"\ud834","algo":"bfs"}"#,
        r#"{"op":"query","graph":"g\q","algo":"bfs"}"#,
        r#"{"op":"query","graph":["g"],"algo":"bfs"}"#,
        r#"{"op":"query","graph":"g","algo":{"x":[1,{}]}}"#,
        r#"{"op":"query","graph":"g","algo":"pagerank","damping":-0.0}"#,
        r#"{"op":"query","graph":"g","algo":"pagerank","damping":1e-400}"#,
        r#"{"op":"query","graph":"g","algo":"bfs","source":9007199254740993}"#,
        r#"{"op":"query","graph":"g","algo":"bfs","unknown":{"deep":[[[]]]},"seed":3}"#,
        r#"{"op":"sleep","ms":5,"id":1,"deadline_ms":2}"#,
        r#"{"op":"xray","trace_id":3}"#,
        r#"["op","ping"]"#,
        r#""ping""#,
        "17",
        "null",
        "",
        "   ",
        "{",
        "{}",
        "{\"op\"",
        "{\"op\":",
        "{\"op\":\"ping\"",
        "{\"op\":\"ping\",}",
        "{\"op\" \"ping\"}",
        "{op:\"ping\"}",
        "{\"op\":\"ping\"} x",
        "{\"op\":\"ping\"}\n",
        "{\"op\":\"ping\"}}",
        "{\"op\":\"ping\",\"x\":tru}",
        "{\"op\":\"ping\",\"x\":-}",
        "{\"op\":\"ping\",\"x\":\"\\u12\"}",
        "[1,2",
        "[] []",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for n in [1, 126, 127, 128, 129, 300] {
        let (open, close) = ("[".repeat(n), "]".repeat(n));
        lines.push(format!("{{\"op\":\"ping\",\"x\":{open}{close}}}"));
        lines.push(format!("{open}{close}"));
        lines.push(format!("{open}{}", &close[1..]));
    }
    for line in &lines {
        agrees(line);
    }
}
