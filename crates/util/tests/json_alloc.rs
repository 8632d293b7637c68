//! The JSON reader's allocation bound: while `json::parse` reads a line,
//! the bytes it holds live never exceed [`FACTOR`] × the line's length
//! plus [`SLACK`] — on arbitrary documents, and on the shapes that cost
//! the most per input byte (long arrays of numbers and of empty
//! containers, objects, and strings of escapes).
//!
//! A counting global allocator keeps each thread's live and peak bytes, so
//! the test threads running beside one another do not count each other.

use gbtl_util::json::parse;
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

/// The most bytes this thread held live while `parse` read `doc`, beyond
/// what it held before; the parsed value counts until it is dropped.
fn peak_of_parse(doc: &str) -> usize {
    let before = BYTES.with(|b| {
        let (live, _) = b.get();
        b.set((live, live));
        live
    });
    let value = parse(doc);
    let peak = BYTES.with(|b| b.get().1);
    drop(value);
    (peak - before) as usize
}

/// `doc`'s peak against the bound.
fn check(label: &str, doc: &str) {
    let peak = peak_of_parse(doc);
    let bound = FACTOR * doc.len() + SLACK;
    assert!(
        peak <= bound,
        "{label}: {peak} B live for {} B of input (bound {bound} B, {:.1}x)",
        doc.len(),
        peak as f64 / doc.len() as f64
    );
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

/// Fragments that build documents of every shape: structure, literals,
/// numbers, escapes and multibyte text.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", " ", "0", "-1.5e3", "true", "null", "\"k\"", "\\u00e9",
    "\\n", "é", "𝄞", "[]", "{}", "\"\"", "{\"a\":", "[0,",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A document stitched from fragments, parsed or refused, stays in
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
}
