//! The JSON reader's allocation bound: while `json::parse` or
//! `json::read_object` reads a line, the bytes it holds live never exceed
//! [`FACTOR`] × the line's length plus [`SLACK`] — on arbitrary documents,
//! and on the shapes that cost the most per input byte (long arrays of
//! numbers and of empty containers, objects, and strings of escapes). And
//! `read_object` over a flat object of scalars and escape-free strings —
//! a request line — allocates nothing at all.
//!
//! A counting global allocator keeps each thread's live and peak bytes, so
//! the test threads running beside one another do not count each other.

use gbtl_util::json::{parse, read_object, Field};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Live bytes per byte of input the reader may hold at its peak.
const FACTOR: usize = 64;
/// Live bytes the reader may hold beyond [`FACTOR`] per input byte.
const SLACK: usize = 4096;

thread_local! {
    /// This thread's `(live, peak)` heap bytes: signed, since a thread may
    /// free what another allocated.
    static BYTES: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

/// [`System`], counting each thread's live bytes and their peak.
struct Counting;

impl Counting {
    /// A call that holds `held` more bytes at its height and frees `freed`
    /// of them before it returns.
    fn note(held: usize, freed: usize) {
        BYTES.with(|b| {
            let (live, peak) = b.get();
            let top = live + held as isize;
            b.set((top - freed as isize, peak.max(top)));
        });
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counting around it touches only a `const`-initialised thread-local cell,
// which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::note(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // a moving realloc holds both blocks for a moment
        Self::note(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The most bytes this thread held live while `read` ran, beyond what it
/// held before; what `read` returns counts until it is dropped.
fn peak_of<T>(read: impl FnOnce() -> T) -> usize {
    let before = BYTES.with(|b| {
        let (live, _) = b.get();
        b.set((live, live));
        live
    });
    let value = read();
    let peak = BYTES.with(|b| b.get().1);
    drop(value);
    (peak - before) as usize
}

/// The peak of reading `doc` with `read_object`, keeping every member it
/// visits until the read returns.
fn peak_of_read_object(doc: &str) -> usize {
    peak_of(|| {
        let mut members: Vec<Field> = Vec::new();
        let read = read_object(doc, |_, v| members.push(v));
        (read, members)
    })
}

/// `doc`'s peak against the bound, through `parse` and `read_object`.
fn check(label: &str, doc: &str) {
    let bound = FACTOR * doc.len() + SLACK;
    for (reader, peak) in [
        ("parse", peak_of(|| parse(doc))),
        ("read_object", peak_of_read_object(doc)),
    ] {
        assert!(
            peak <= bound,
            "{label} ({reader}): {peak} B live for {} B of input (bound {bound} B, {:.1}x)",
            doc.len(),
            peak as f64 / doc.len() as f64
        );
    }
}

/// `n` copies of `item` in an array.
fn array_of(item: &str, n: usize) -> String {
    format!("[{}]", vec![item; n].join(","))
}

#[test]
fn the_costliest_shapes_stay_in_bound() {
    const N: usize = 100_000;
    check("numbers", &array_of("1", N));
    check("empty arrays", &array_of("[]", N));
    check("empty objects", &array_of("{}", N));
    check("empty strings", &array_of("\"\"", N));
    check("one-field objects", &array_of("{\"\":0}", N));
    check("nested singletons", &array_of("[[0]]", N));
    let fields: Vec<String> = (0..N).map(|i| format!("\"{i}\":0")).collect();
    check("an object", &format!("{{{}}}", fields.join(",")));
    check("escapes", &format!("\"{}\"", "\\u00e9".repeat(N)));
    check("short escapes", &format!("\"{}\"", "\\n".repeat(3 * N)));
    check("a long string", &format!("\"{}\"", "A".repeat(6 * N)));
    // an error holds no more than a success
    check("unterminated", &array_of("{}", N)[..3 * N]);
}

#[test]
fn a_flat_line_of_scalars_reads_without_allocating() {
    for line in [
        r#"{"op":"query","graph":"rmat12","algo":"bfs","backend":"par","source":1234}"#,
        r#" { "op" : "query" , "graph":"g0","algo":"pagerank","damping":0.85,"max_iters":20,"id":7,"full":false,"trace":true,"deadline_ms":500,"x":null } "#,
        r#"{"op":"sleep","ms":5,"é":"✓ plain UTF-8 is borrowed too","op":"dup"}"#,
        "{}",
    ] {
        let peak = peak_of(|| {
            let mut scalars = 0;
            let read = read_object(line, |_, v| {
                assert!(!matches!(v, Field::Tree(_)), "{line}");
                scalars += 1;
            });
            (read, scalars)
        });
        assert_eq!(peak, 0, "{line}: {peak} B allocated");
    }
}

/// Fragments that build documents of every shape: structure, literals,
/// numbers, escapes and multibyte text.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", " ", "0", "-1.5e3", "true", "null", "\"k\"", "\\u00e9",
    "\\n", "é", "𝄞", "[]", "{}", "\"\"", "{\"a\":", "[0,",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A document stitched from fragments, read or refused, stays in
    /// bound.
    #[test]
    fn token_soup_stays_in_bound(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..256)) {
        let doc: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check("token soup", &doc);
    }

    /// Arbitrary bytes (made valid UTF-8) stay in bound.
    #[test]
    fn arbitrary_bytes_stay_in_bound(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        check("bytes", &String::from_utf8_lossy(&bytes));
    }

    /// An object stitched from fragments, read or refused, stays in bound.
    #[test]
    fn object_soup_stays_in_bound(picks in proptest::collection::vec(0usize..TOKENS.len(), 0..256)) {
        let body: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check("object soup", &format!("{{\"k\":{body}"));
    }
}
