//! Arbitrary-input properties of the JSON reader: no input makes
//! `json::parse` panic, `json::read_object` reads every input as `parse`
//! does, and every string `json::escape` writes, or a writer that escapes
//! all non-ASCII text as UTF-16 units does, reads back as itself.

use gbtl_util::json::{escape, parse, read_object, Value, MAX_DEPTH};
use proptest::prelude::*;

/// Fragments that steer random documents into the reader's branches:
/// structure, literals and their truncations, numbers, escapes good and
/// bad, and multibyte text.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ":",
    ",",
    " ",
    "\n",
    "0",
    "-",
    "1.5e3",
    "e",
    ".",
    "+",
    "true",
    "tru",
    "false",
    "null",
    "nul",
    "a",
    "é",
    "✓",
    "𝄞",
    "\\u",
    "\\u00e9",
    "\\ud800",
    "\\uzz",
    "\\x",
    "\\n",
    "\\\"",
    "\"k\"",
    "\"op\":\"query\"",
    "\u{0}",
    "\u{1f}",
];

/// A string drawn mostly from the characters `escape` must handle —
/// quotes, backslashes, control characters — plus any code point.
fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec((0u32..4, 0u32..0x11_0000), 0..40).prop_map(|picks| {
        picks
            .into_iter()
            .filter_map(|(kind, code)| match kind {
                0 => char::from_u32(code % 0x80),
                1 => ['"', '\\', '\n', '\r', '\t', '/', '\u{0}', '\u{8}', '\u{1f}']
                    .get(code as usize % 9)
                    .copied(),
                _ => char::from_u32(code),
            })
            .collect()
    })
}

/// `text` escaped the way Python's `json.dumps` escapes it: every
/// character outside printable ASCII as `\uXXXX` per UTF-16 unit, so a
/// code point past U+FFFF becomes a surrogate pair.
fn ascii_escape(text: &str) -> String {
    let mut out = String::new();
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            ' '..='~' => out.push(c),
            _ => {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            }
        }
    }
    out
}

/// `read_object` answers `doc` as `parse` does: the same error, `false`
/// for a document that is not an object, and for an object the members
/// of the tree `parse` builds, in order.
fn reads_as_parse(doc: &str) {
    let mut members = Vec::new();
    let read = read_object(doc, |k, v| members.push((k.into_owned(), Value::from(v))));
    match parse(doc) {
        Err(e) => assert_eq!(read, Err(e), "{doc:?}"),
        Ok(Value::Obj(fields)) => {
            assert_eq!(read, Ok(true), "{doc:?}");
            assert_eq!(members, fields, "{doc:?}");
        }
        Ok(_) => {
            assert_eq!(read, Ok(false), "{doc:?}");
            assert!(members.is_empty(), "{doc:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A document stitched from fragments, opened as an object or not,
    /// reads through `read_object` as through `parse`.
    #[test]
    fn read_object_reads_token_soup_as_parse_does(
        open in any::<bool>(),
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        let body: String = picks.iter().map(|&i| TOKENS[i]).collect();
        reads_as_parse(&if open { format!("{{{body}") } else { body });
    }

    /// An object of members drawn from keys and values of every type, any
    /// of them possibly truncated, reads through `read_object` as through
    /// `parse`; so do arbitrary bytes.
    #[test]
    fn read_object_reads_objects_and_bytes_as_parse_does(
        members in proptest::collection::vec((arb_text(), 0usize..TOKENS.len(), 0usize..3), 0..6),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let body: Vec<String> = members
            .iter()
            .map(|(key, value, cut)| {
                let member = format!("\"{}\":{}", escape(key), TOKENS[*value]);
                let keep = member.len().saturating_sub(*cut);
                (0..=keep).rev().find(|&i| member.is_char_boundary(i)).map_or(member.clone(), |i| member[..i].to_string())
            })
            .collect();
        reads_as_parse(&format!(" {{{}}} ", body.join(",")));
        reads_as_parse(&String::from_utf8_lossy(&bytes));
    }

    /// A document stitched from reader-relevant fragments parses or is an
    /// error; it never panics.
    #[test]
    fn parse_never_panics_on_token_soup(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48)) {
        let doc: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = parse(&doc);
    }

    /// Arbitrary bytes (made valid UTF-8) parse or are an error.
    #[test]
    fn parse_never_panics_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    /// Every escaped string reads back as itself, alone and as an
    /// object's key and value.
    #[test]
    fn escaped_strings_round_trip(text in arb_text()) {
        let e = escape(&text);
        prop_assert_eq!(parse(&format!("\"{e}\"")), Ok(Value::Str(text.clone())));
        let obj = parse(&format!("{{\"{e}\":\"{e}\"}}")).unwrap();
        prop_assert_eq!(obj.str_field(&text), Some(text.as_str()));
        let e = ascii_escape(&text);
        prop_assert_eq!(parse(&format!("\"{e}\"")), Ok(Value::Str(text.clone())));
    }
}

/// A surrogate pair reads as the one code point it encodes; a lone,
/// reversed or half-paired surrogate is an error.
#[test]
fn surrogate_pairs_read_as_one_code_point() {
    let obj = parse(r#"{"graph":"\ud83d\ude00"}"#).unwrap();
    assert_eq!(obj.str_field("graph"), Some("😀"));
    assert_eq!(parse(r#""a\uD834\uDD1Eb""#), Ok(Value::Str("a𝄞b".into())));
    for bad in [
        r#""\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\n""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
        r#""\ud83d\ude0""#,
    ] {
        assert!(parse(bad).is_err(), "{bad}");
    }
}

/// A request line's length (the serving front-ends' default bound) of
/// nothing but openings, read on a thread with the default 2 MiB stack:
/// the reader refuses the nesting with an error instead of recursing once
/// per byte until the stack overflows and the process aborts.
#[test]
fn a_line_of_openings_is_an_error_not_a_stack_overflow() {
    const MAX_LINE: usize = 65_536;
    for unit in ["[", "{\"a\":"] {
        let doc = unit.repeat(MAX_LINE / unit.len());
        let err = std::thread::spawn(move || parse(&doc))
            .join()
            .expect("the reader's thread survives")
            .unwrap_err();
        assert!(err.contains("nesting"), "{unit}: {err}");
        let doc = format!("{{\"k\":{}", unit.repeat(MAX_LINE / unit.len()));
        let err = std::thread::spawn(move || read_object(&doc, |_, _| {}))
            .join()
            .expect("the reader's thread survives")
            .unwrap_err();
        assert!(err.contains("nesting"), "{unit}: {err}");
    }
    // the bound itself still reads
    let deepest = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(parse(&deepest).is_ok());
    let deeper = format!("[{deepest}]");
    assert!(parse(&deeper).is_err());
    // an object's members start one level down
    let member = |d: &str| format!("{{\"k\":{}}}", &d[1..d.len() - 1]);
    assert_eq!(read_object(&member(&deepest), |_, _| {}), Ok(true));
    assert!(read_object(&member(&deeper), |_, _| {}).is_err());
}
