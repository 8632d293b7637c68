//! A minimal JSON reader and string escaper shared across the workspace.
//!
//! One implementation backs the `gbtl-trace` JSON-lines reporter round-trip
//! checks *and* the `gbtl-serve` newline-delimited wire protocol. Not a
//! general-purpose parser: numbers land in `f64`, and errors are plain
//! strings. [`parse`] builds a [`Value`] tree; [`read_object`] runs the same
//! reader over one object's members and hands each to a visitor, strings
//! borrowed from the input where they hold no escape. Writers emit JSON by
//! hand (the workspace is dependency-free) and use [`escape`] or
//! [`escape_into`] for string payloads.

use std::borrow::Cow;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Value)>),
}

/// `n` as an exact non-negative integer: `None` for fractions, negatives,
/// and anything above 2^53.
fn exact_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 9_007_199_254_740_992.0).then_some(n as u64)
}

impl Value {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer (fails on
    /// fractions, negatives, and anything above 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// [`Value::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: string field of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(|v| v.as_str())
    }

    /// Convenience: integer field of an object.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(|v| v.as_u64())
    }

    /// Convenience: float field of an object.
    pub fn f64_field(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(|v| v.as_f64())
    }

    /// Convenience: boolean field of an object.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(|v| v.as_bool())
    }
}

/// One member value as [`read_object`] hands it over: a scalar as itself,
/// a string borrowed from the input unless it holds an escape, and a
/// nested array or object as the [`Value`] tree [`parse`] would build.
#[derive(Debug, Clone, PartialEq)]
pub enum Field<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (kept as `f64`).
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array or an object.
    Tree(Value),
}

impl Field<'_> {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Field::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Field::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// As [`Value::as_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// As [`Value::as_usize`].
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Field::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<Field<'_>> for Value {
    fn from(f: Field<'_>) -> Value {
        match f {
            Field::Null => Value::Null,
            Field::Bool(b) => Value::Bool(b),
            Field::Num(n) => Value::Num(n),
            Field::Str(s) => Value::Str(s.into_owned()),
            Field::Tree(v) => v,
        }
    }
}

/// Escape a string for embedding in a JSON string literal (quotes not
/// included). Everything the reader understands round-trips.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// [`escape`], appended to `out`: runs that need no escape are copied
/// whole.
pub fn escape_into(out: &mut String, s: &str) {
    use std::fmt::Write;
    let mut run = 0;
    for (i, &c) in s.as_bytes().iter().enumerate() {
        if c != b'"' && c != b'\\' && c >= 0x20 {
            continue;
        }
        // every byte that ends a run is ASCII, so `i` is a char boundary
        out.push_str(&s[run..i]);
        match c {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// Render `pairs` as one JSON object of strings, `{"k":"v",…}`, keys and
/// values escaped — span attributes, section entries and metric labels.
pub fn string_map(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// How deep arrays and objects may nest. The reader recurses once per
/// level, so a bound keeps a line of `[` — well inside a request line's
/// length — from overflowing the stack of the thread that reads it; no
/// document this workspace writes or reads nests past a handful.
pub const MAX_DEPTH: usize = 128;

/// Parse one complete JSON document; trailing non-whitespace is an error,
/// and so is nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    whole(input, |pos| Ok(read_value(input, pos, MAX_DEPTH)?.into()))
}

/// Read `input` as one JSON object, handing `visit` each top-level member's
/// key and value in order, strings borrowed where they hold no escape: the
/// reader [`parse`] runs, without the tree around the members. Every
/// document it refuses, [`parse`] refuses with the same error, and the
/// members it visits are the fields of the object [`parse`] returns.
/// `Ok(false)`, with nothing visited, is a valid document that is not an
/// object. `visit` may have seen members before an error is returned.
pub fn read_object<'a>(
    input: &'a str,
    visit: impl FnMut(Cow<'a, str>, Field<'a>),
) -> Result<bool, String> {
    let b = input.as_bytes();
    let mut pos = 0;
    skip_ws(b, &mut pos);
    if b.get(pos) != Some(&b'{') {
        return parse(input).map(|_| false);
    }
    // the object is the document's outermost level, as in `parse`
    whole(input, |pos| {
        skip_ws(b, pos);
        read_members(input, pos, MAX_DEPTH - 1, visit)
    })?;
    Ok(true)
}

/// What `read` reads from the start of `input`, which must be all of it
/// but trailing whitespace.
fn whole<T>(input: &str, read: impl FnOnce(&mut usize) -> Result<T, String>) -> Result<T, String> {
    let mut pos = 0;
    let value = read(&mut pos)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

#[inline(always)]
fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

#[inline(always)]
fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

// The readers below take the document as `&str` and index it by byte: a
// position is only ever moved past ASCII, so every slice they take of it
// starts and ends on a character boundary. The ones a member is read with
// are always inlined: `read_members` is instantiated in the crate of its
// visitor, and a call per token from there doubled a request line's read.

/// A value, inside which arrays and objects may nest `room` levels deep.
#[inline(always)]
fn read_value<'a>(s: &'a str, pos: &mut usize, room: usize) -> Result<Field<'a>, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if room == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(s, pos, room - 1).map(Field::Tree),
        Some(b'[') => parse_arr(s, pos, room - 1).map(Field::Tree),
        Some(b'"') => read_string(s, pos).map(Field::Str),
        Some(b't') => read_lit(b, pos, "true").map(|()| Field::Bool(true)),
        Some(b'f') => read_lit(b, pos, "false").map(|()| Field::Bool(false)),
        Some(b'n') => read_lit(b, pos, "null").map(|()| Field::Null),
        Some(_) => read_num(s, pos).map(Field::Num),
    }
}

#[inline(always)]
fn read_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

#[inline(always)]
fn read_num(s: &str, pos: &mut usize) -> Result<f64, String> {
    let b = s.as_bytes();
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = &s[start..*pos];
    text.parse::<f64>()
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

/// The index of the first `"` or `\` at or after `from`, if any.
#[inline(always)]
fn next_delimiter(b: &[u8], from: usize) -> Option<usize> {
    b[from..]
        .iter()
        .position(|&c| c == b'"' || c == b'\\')
        .map(|i| from + i)
}

/// The four hex digits of a `\u` escape at `b[at..]`.
fn hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b.get(at..at + 4).ok_or("truncated \\u escape")?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!("bad \\u escape {:?}", String::from_utf8_lossy(hex)));
    }
    Ok(hex.iter().fold(0, |code, &h| {
        code << 4 | (h as char).to_digit(16).unwrap_or(0)
    }))
}

/// A string: borrowed from `s` when it holds no escape, else decoded into
/// one owned copy.
#[inline(always)]
fn read_string<'a>(s: &'a str, pos: &mut usize) -> Result<Cow<'a, str>, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    // plain runs (multi-byte UTF-8 included) alternate with escapes; a
    // string without escapes is its first run
    let mut end = next_delimiter(b, *pos).ok_or("unterminated string")?;
    if b[end] == b'"' {
        let run = &s[*pos..end];
        *pos = end + 1;
        return Ok(Cow::Borrowed(run));
    }
    let mut out = s[*pos..end].to_owned();
    loop {
        // b[end] is the backslash of an escape
        *pos = end + 1;
        match b.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let mut code = hex4(b, *pos + 1)?;
                *pos += 4;
                // a UTF-16 high surrogate pairs with the low one escaped
                // right after it, as JSON writes a code point past U+FFFF
                if (0xD800..0xDC00).contains(&code) {
                    let low = match b.get(*pos + 1..*pos + 3) {
                        Some(br"\u") => hex4(b, *pos + 3)?,
                        _ => return Err("unpaired \\u surrogate".into()),
                    };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err("unpaired \\u surrogate".into());
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    *pos += 6;
                }
                out.push(char::from_u32(code).ok_or("bad \\u code point")?);
            }
            other => return Err(format!("bad escape {other:?}")),
        }
        *pos += 1;
        end = next_delimiter(b, *pos).ok_or("unterminated string")?;
        out.push_str(&s[*pos..end]);
        if b[end] == b'"' {
            *pos = end + 1;
            return Ok(Cow::Owned(out));
        }
    }
}

/// The members of the object at `pos`, handed to `member` in order; their
/// values may nest `room` levels deep.
fn read_members<'a>(
    s: &'a str,
    pos: &mut usize,
    room: usize,
    mut member: impl FnMut(Cow<'a, str>, Field<'a>),
) -> Result<(), String> {
    let b = s.as_bytes();
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        let key = read_string(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        member(key, read_value(s, pos, room)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize, room: usize) -> Result<Value, String> {
    // room for a request line's fields without regrowing; a nested object,
    // of which one line may hold thousands, reserves nothing ahead, so no
    // line holds more than 64 bytes a byte of it (tests/json_alloc.rs)
    let mut fields = if room == MAX_DEPTH - 1 {
        Vec::with_capacity(8)
    } else {
        Vec::new()
    };
    read_members(s, pos, room, |key, value| {
        fields.push((key.into_owned(), value.into()))
    })?;
    Ok(Value::Obj(fields))
}

fn parse_arr(s: &str, pos: &mut usize, room: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(read_value(s, pos, room)?.into());
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-12.5e2").unwrap(), Value::Num(-1250.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, {"b": "x"}, null], "c": true}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        match v.get("a").unwrap() {
            Value::Arr(items) => {
                assert_eq!(items[0].as_f64(), Some(1.0));
                assert_eq!(items[1].get("b").unwrap().as_str(), Some("x"));
                assert_eq!(items[2], Value::Null);
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn plain_strings_copy_as_one_run() {
        assert_eq!(parse("\"\"").unwrap().as_str(), Some(""));
        let v = parse(r#"{"":"","k":"v"}"#).unwrap();
        assert_eq!(v.str_field(""), Some(""));
        assert_eq!(v.str_field("k"), Some("v"));
        // multibyte UTF-8 in the plain run, with and without a later escape
        assert_eq!(
            parse("\"héllo wörld ✓\"").unwrap().as_str(),
            Some("héllo wörld ✓")
        );
        assert_eq!(parse(r#""é\té""#).unwrap().as_str(), Some("é\té"));
    }

    #[test]
    fn an_escape_after_a_plain_prefix_keeps_the_prefix() {
        assert_eq!(parse(r#""abc\ndef""#).unwrap().as_str(), Some("abc\ndef"));
        assert_eq!(parse(r#""plain\"q""#).unwrap().as_str(), Some("plain\"q"));
        assert_eq!(parse(r#""a\\""#).unwrap().as_str(), Some("a\\"));
        assert_eq!(parse(r#""x\u0041y""#).unwrap().as_str(), Some("xAy"));
    }

    #[test]
    fn unterminated_strings_are_errors() {
        for doc in [
            "\"",
            "\"abc",
            "\"é",
            r#""abc\""#,
            r#""ab\n"#,
            r#""ab\nc"#,
            r#"{"k":"v"#,
            r#"{"k"#,
        ] {
            assert!(parse(doc).is_err(), "{doc:?} parsed");
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("123 456").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,2").is_err());
    }

    #[test]
    fn accessors_are_none_on_mismatch() {
        assert!(Value::Null.get("x").is_none());
        assert!(Value::Bool(true).as_str().is_none());
        assert!(Value::Str("s".into()).as_f64().is_none());
        assert!(Value::Num(1.0).as_bool().is_none());
        assert!(Value::Num(1.5).as_u64().is_none());
        assert!(Value::Num(-1.0).as_u64().is_none());
        assert_eq!(Value::Num(7.0).as_usize(), Some(7));
    }

    #[test]
    fn field_helpers() {
        let v = parse(r#"{"s":"x","n":3,"f":1.5,"b":true,"a":[1]}"#).unwrap();
        assert_eq!(v.str_field("s"), Some("x"));
        assert_eq!(v.u64_field("n"), Some(3));
        assert_eq!(v.f64_field("f"), Some(1.5));
        assert_eq!(v.bool_field("b"), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().map(|a| a.len()), Some(1));
        assert_eq!(v.str_field("missing"), None);
    }

    #[test]
    fn escape_round_trips() {
        let nasty = "a\"b\\c\nd\te\u{1}é";
        let doc = format!("\"{}\"", escape(nasty));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(nasty));
    }
    #[test]
    fn read_object_visits_members_in_order_and_borrows_plain_strings() {
        let line = r#" {"op":"query","n":3,"op":"x","e":"a\nb","t":[1,{"k":null}],"b":false} "#;
        let mut seen = Vec::new();
        assert_eq!(
            read_object(line, |k, v| {
                seen.push((k.clone(), matches!(v, Field::Str(Cow::Borrowed(_))), v))
            }),
            Ok(true)
        );
        let keys: Vec<&str> = seen.iter().map(|(k, _, _)| k.as_ref()).collect();
        assert_eq!(keys, ["op", "n", "op", "e", "t", "b"]);
        let borrowed: Vec<bool> = seen.iter().map(|(_, b, _)| *b).collect();
        assert_eq!(borrowed, [true, false, true, false, false, false]);
        assert_eq!(seen[1].2.as_u64(), Some(3));
        assert_eq!(seen[3].2.as_str(), Some("a\nb"));
        assert_eq!(seen[5].2.as_bool(), Some(false));
        let fields: Vec<(String, Value)> = seen
            .into_iter()
            .map(|(k, _, v)| (k.into_owned(), v.into()))
            .collect();
        assert_eq!(parse(line), Ok(Value::Obj(fields)));
    }

    #[test]
    fn read_object_refuses_what_parse_refuses_and_reads_other_documents_as_not_objects() {
        for doc in ["[1]", "\"op\"", " 7 ", "null"] {
            assert_eq!(
                read_object(doc, |_, _| panic!("visited")),
                Ok(false),
                "{doc}"
            );
        }
        for doc in [
            "",
            "{",
            "{\"a\":1,}",
            "{\"a\":1} 2",
            "[1",
            "{\"a\":tru}",
            "{\"a\":\"\\q\"}",
        ] {
            let want = parse(doc).unwrap_err();
            assert_eq!(read_object(doc, |_, _| {}), Err(want), "{doc}");
        }
    }

    #[test]
    fn escape_into_appends_runs_and_escapes() {
        let mut out = String::from("x");
        escape_into(&mut out, "ab\"c\u{1}é\t");
        assert_eq!(out, "xab\\\"c\\u0001é\\t");
        assert_eq!(escape("plain"), "plain");
    }
}
