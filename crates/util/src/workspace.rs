//! Reusable per-thread kernel workspaces.
//!
//! The Gustavson SpGEMM/SpMV kernels in every backend need the same few
//! scratch shapes per call: a dense `Vec<Option<T>>` accumulator (or, for
//! the masked product, a value array held at the add monoid's identity), a
//! `Vec<u64>` word array (an accumulator's presence bits), and a
//! `Vec<bool>` flag array (mask membership, symbolic `seen` marks). Before
//! this module each call allocated and zeroed them from scratch — for an
//! iterative algorithm that is an `O(ncols)` allocation + memset per
//! operation, paid thousands of times per BFS/PageRank run.
//!
//! The pools here are **thread-local**, so they need no locks, and a
//! long-lived thread warms its own set once: a serve worker, any caller of
//! the sequential kernels (which is also where the parallel backend's
//! inline dispatches run), and the parallel backend's helper threads,
//! which live as long as their `ThreadPool` and so reuse their buffers
//! from one fanned-out dispatch to the next. Buffers are handed out in a
//! *known-clean* state and must be returned clean:
//!
//! * accumulator — every slot `None`, `len >= n`;
//! * value accumulator — every slot equal to the `fill` it was asked for,
//!   `len >= n`;
//! * words — every word `0`, `len >= n`;
//! * flags — every slot `false`, `len >= n`.
//!
//! The borrower restores the invariant in `O(touched)` by draining the
//! positions it wrote (the kernels already do exactly this to reset between
//! rows); debug builds re-verify the whole buffer on return, so a kernel
//! that leaks state fails loudly in the test suite rather than corrupting a
//! later call.
//!
//! Cumulative take/reuse/alloc counters (process-global, relaxed atomics)
//! are exported through [`stats`] for the trace report, the
//! `gbtl-serve` stats/metrics endpoints, and the R-W5 experiment.

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::LocalKey;

static TAKES: AtomicU64 = AtomicU64::new(0);
static REUSES: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Cumulative workspace counters since process start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffers handed out (one per `with_*` call).
    pub takes: u64,
    /// Takes satisfied from a pool (no allocation).
    pub reuses: u64,
    /// Takes that had to allocate a fresh buffer.
    pub allocs: u64,
}

impl WorkspaceStats {
    /// Fraction of takes served without allocating, in `[0, 1]`.
    pub fn reuse_rate(&self) -> f64 {
        if self.takes == 0 {
            0.0
        } else {
            self.reuses as f64 / self.takes as f64
        }
    }
}

/// Snapshot the process-wide workspace counters.
pub fn stats() -> WorkspaceStats {
    WorkspaceStats {
        takes: TAKES.load(Ordering::Relaxed),
        reuses: REUSES.load(Ordering::Relaxed),
        allocs: ALLOCS.load(Ordering::Relaxed),
    }
}

fn count_take(reused: bool) {
    TAKES.fetch_add(1, Ordering::Relaxed);
    if reused {
        REUSES.fetch_add(1, Ordering::Relaxed);
    } else {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

thread_local! {
    // Typed buffers — accumulators, and value accumulators with their fill —
    // one stack per buffer type; a stack (not a single slot) so nested
    // takes of one type still reuse.
    static TYPED_POOL: RefCell<HashMap<TypeId, Vec<Box<dyn Any>>>> =
        RefCell::new(HashMap::new());
    static WORD_POOL: RefCell<Vec<Vec<u64>>> = const { RefCell::new(Vec::new()) };
    static FLAG_POOL: RefCell<Vec<Vec<bool>>> = const { RefCell::new(Vec::new()) };
}

/// The last pooled buffer of type `B` that `fits` accepts, if any.
fn take_typed<B: 'static>(fits: impl Fn(&B) -> bool) -> Option<B> {
    let taken = TYPED_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let stack = pool.get_mut(&TypeId::of::<B>())?;
        let at = stack
            .iter()
            .rposition(|b| b.downcast_ref().is_some_and(&fits))?;
        Some(stack.swap_remove(at))
    });
    count_take(taken.is_some());
    taken.map(|b| *b.downcast().expect("pool entry keyed by TypeId"))
}

/// Return `buf` to its type's stack.
fn put_typed<B: 'static>(buf: B) {
    TYPED_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.entry(TypeId::of::<B>())
            .or_default()
            .push(Box::new(buf));
    });
}

/// Run `f` with a dense accumulator of at least `n` all-`None` slots.
///
/// `f` must leave every slot it wrote back at `None` (drain what it wrote,
/// as the Gustavson kernels do per row); debug builds assert this when the
/// buffer is returned to the pool.
pub fn with_accumulator<T: 'static, R>(n: usize, f: impl FnOnce(&mut Vec<Option<T>>) -> R) -> R {
    let mut acc: Vec<Option<T>> = take_typed(|_| true).unwrap_or_default();
    if acc.len() < n {
        acc.resize_with(n, || None);
    }
    let out = f(&mut acc);
    debug_assert!(
        acc.iter().all(Option::is_none),
        "accumulator returned to the workspace pool with live entries"
    );
    put_typed(acc);
    out
}

/// A pooled value accumulator and the one value all its slots hold.
struct Filled<T> {
    fill: T,
    buf: Vec<T>,
}

/// Run `f` with a dense accumulator of at least `n` slots, every one equal
/// to `fill` — the add monoid's identity, for the masked product.
///
/// `f` must leave every slot it wrote back at `fill` (reset via the mask
/// row, as the masked Gustavson kernel does per row); debug builds assert
/// this when the buffer is returned to the pool. Buffers are pooled per
/// element type *and* fill, so kernels over two monoids of one domain
/// (`+` at 0, `min` at `MAX`) each find theirs ready. A `fill` that does
/// not equal itself (a NaN) is not a valid identity.
pub fn with_values<T: Copy + PartialEq + 'static, R>(
    n: usize,
    fill: T,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    let mut vals = take_typed(|v: &Filled<T>| v.fill == fill).unwrap_or(Filled {
        fill,
        buf: Vec::new(),
    });
    if vals.buf.len() < n {
        vals.buf.resize(n, fill);
    }
    let out = f(&mut vals.buf);
    debug_assert!(
        vals.buf.iter().all(|v| *v == fill),
        "value accumulator returned to the workspace pool off its fill"
    );
    put_typed(vals);
    out
}

/// Run `f` with an all-zero word array of at least `n` words. `f` must
/// clear every word it set (a drain clears the presence words it reads);
/// debug builds assert this on return to the pool.
pub fn with_words<R>(n: usize, f: impl FnOnce(&mut Vec<u64>) -> R) -> R {
    with_zeroed(&WORD_POOL, n, 0, f)
}

/// Run `f` with an all-`false` flag array of at least `n` slots.
///
/// `f` must clear every flag it set before returning (the masked kernels
/// reset flags from the mask row that set them); debug builds assert this
/// on return to the pool.
pub fn with_flags<R>(n: usize, f: impl FnOnce(&mut Vec<bool>) -> R) -> R {
    with_zeroed(&FLAG_POOL, n, false, f)
}

/// The body of [`with_words`] and [`with_flags`]: a buffer from `pool` of
/// at least `n` slots, every one `zero` on hand-out and on return.
fn with_zeroed<T: Copy + PartialEq, R>(
    pool: &'static LocalKey<RefCell<Vec<Vec<T>>>>,
    n: usize,
    zero: T,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    let taken = pool.with(|pool| pool.borrow_mut().pop());
    count_take(taken.is_some());
    let mut buf = taken.unwrap_or_default();
    if buf.len() < n {
        buf.resize(n, zero);
    }
    let out = f(&mut buf);
    debug_assert!(
        buf.iter().all(|&x| x == zero),
        "buffer returned to the workspace pool with slots set"
    );
    pool.with(|pool| pool.borrow_mut().push(buf));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_reuses_and_grows() {
        let before = stats();
        with_accumulator::<i64, _>(4, |acc| {
            assert!(acc.len() >= 4);
            assert!(acc.iter().all(Option::is_none));
            acc[2] = Some(7);
            assert_eq!(acc[2].take(), Some(7)); // restore the invariant
        });
        // Second take on this thread reuses the buffer, even when larger.
        with_accumulator::<i64, _>(8, |acc| {
            assert!(acc.len() >= 8);
            assert!(acc.iter().all(Option::is_none));
        });
        let after = stats();
        assert!(after.takes >= before.takes + 2);
        assert!(after.reuses > before.reuses, "second take must reuse");
    }

    #[test]
    fn distinct_types_get_distinct_buffers() {
        with_accumulator::<i64, _>(2, |a| {
            a[0] = Some(1);
            with_accumulator::<f64, _>(2, |b| {
                assert!(b.iter().all(Option::is_none));
            });
            a[0] = None;
        });
    }

    #[test]
    fn value_buffers_are_pooled_per_fill() {
        let (zeros_at, maxes_at) = with_values(4, 0u64, |zeros| {
            zeros[1] = 7;
            // a nested take of another fill gets its own buffer
            let maxes_at = with_values(4, u64::MAX, |maxes| {
                assert!(maxes.len() >= 4 && maxes.iter().all(|&v| v == u64::MAX));
                maxes.as_ptr()
            });
            zeros[1] = 0; // restore the invariant
            (zeros.as_ptr(), maxes_at)
        });
        // the pools are this thread's own: each fill finds its buffer again
        with_values(4, u64::MAX, |maxes| assert_eq!(maxes.as_ptr(), maxes_at));
        with_values(4, 0u64, |zeros| {
            assert_eq!(zeros.as_ptr(), zeros_at);
            assert!(zeros.iter().all(|&v| v == 0));
        });
    }

    #[test]
    fn words_start_zero_and_grow() {
        let at = with_words(2, |w| {
            assert!(w.len() >= 2 && w.iter().all(|&x| x == 0));
            w[1] = 9;
            w[1] = 0; // restore the invariant
            w.as_ptr()
        });
        with_words(1, |w| assert_eq!(w.as_ptr(), at));
        with_words(5, |w| assert!(w.len() >= 5 && w.iter().all(|&x| x == 0)));
    }

    #[test]
    fn flags_start_false_and_nest() {
        with_flags(3, |f1| {
            f1[1] = true;
            with_flags(5, |f2| {
                assert!(f2.iter().all(|&b| !b));
            });
            f1[1] = false;
        });
    }

    #[test]
    fn reuse_rate_is_bounded() {
        with_words(1, |_| {});
        with_words(1, |_| {});
        let s = stats();
        assert!(s.reuse_rate() >= 0.0 && s.reuse_rate() <= 1.0);
        assert_eq!(s.takes, s.reuses + s.allocs);
    }
}
