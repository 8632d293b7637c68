//! A minimal JSON reader and string escaper shared across the workspace.
//!
//! One implementation backs the `gbtl-trace` JSON-lines reporter round-trip
//! checks *and* the `gbtl-serve` newline-delimited wire protocol. Not a
//! general-purpose parser: no streaming, numbers land in `f64`, and errors
//! are plain strings. Writers emit JSON by hand (the workspace is
//! dependency-free) and use [`escape`] for string payloads.

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
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
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

/// Escape a string for embedding in a JSON string literal (quotes not
/// included). Everything the reader understands round-trips.
pub fn escape(s: &str) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
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
    let mut pos = 0usize;
    let value = parse_value(input, &mut pos, MAX_DEPTH)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

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
// starts and ends on a character boundary.

/// A value, inside which arrays and objects may nest `room` levels deep.
fn parse_value(s: &str, pos: &mut usize, room: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if room == 0 => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_obj(s, pos, room - 1),
        Some(b'[') => parse_arr(s, pos, room - 1),
        Some(b'"') => Ok(Value::Str(parse_string(s, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_num(s, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_num(s: &str, pos: &mut usize) -> Result<Value, String> {
    let b = s.as_bytes();
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = &s[start..*pos];
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {text:?}: {e}"))
}

/// The index of the first `"` or `\` at or after `from`, if any.
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

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
    expect(b, pos, b'"')?;
    // plain runs (multi-byte UTF-8 included) alternate with escapes; a
    // string without escapes is its first run, returned as one copy
    let mut end = next_delimiter(b, *pos).ok_or("unterminated string")?;
    if b[end] == b'"' {
        let run = &s[*pos..end];
        *pos = end + 1;
        return Ok(run.to_owned());
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
            return Ok(out);
        }
    }
}

fn parse_obj(s: &str, pos: &mut usize, room: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(Vec::new()));
    }
    // room for a request line's fields without regrowing; a nested object,
    // of which one line may hold thousands, reserves nothing ahead, so no
    // line holds more than 64 bytes a byte of it (tests/json_alloc.rs)
    let mut fields = if room == MAX_DEPTH - 1 {
        Vec::with_capacity(8)
    } else {
        Vec::new()
    };
    loop {
        skip_ws(b, pos);
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(s, pos, room)?;
        fields.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
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
        items.push(parse_value(s, pos, room)?);
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
}
