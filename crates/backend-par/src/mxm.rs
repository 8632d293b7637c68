//! Parallel sparse matrix–matrix multiply: row-parallel Gustavson with
//! two-pass count-then-fill CSR assembly.
//!
//! Pass 1 walks each row chunk *symbolically* (structure only, no
//! arithmetic) to count output nnz per row; a serial prefix sum turns the
//! counts into the exact output `row_ptr`. Pass 2 re-runs Gustavson
//! numerically, each task writing into its pre-carved disjoint slice of
//! `col_idx`/`vals`. Because every row is computed by exactly one task
//! using the sequential backend's per-row algorithm (same dense
//! accumulator, same `touched.sort_unstable()` emit), the assembled matrix
//! is bit-identical to `gbtl_backend_seq::mxm` at any thread count — the
//! floating-point reduction order per output entry never changes.

use crate::partition::{nnz_balanced_rows, OVERSPLIT};
use crate::pool::ThreadPool;
use gbtl_algebra::{BinaryOp, Scalar, Semiring};
use gbtl_sparse::CsrMatrix;
use gbtl_util::workspace;
use std::sync::Mutex;

/// Carve `cols`/`vals` into per-chunk disjoint mutable slices at the nnz
/// `bounds` (`bounds.len() == chunks + 1`). Each slot is taken exactly once
/// by the task that owns the chunk; `Mutex<Option<..>>` hands a `&mut`
/// through the shared-reference closure without any `unsafe`.
type Carved<'a, T> = Vec<Mutex<Option<(&'a mut [usize], &'a mut [T])>>>;

fn carve<'a, T>(
    mut cols: &'a mut [usize],
    mut vals: &'a mut [T],
    bounds: &[usize],
) -> Carved<'a, T> {
    let mut out = Vec::with_capacity(bounds.len().saturating_sub(1));
    for w in bounds.windows(2) {
        let len = w[1] - w[0];
        let (c, rest_c) = cols.split_at_mut(len);
        let (v, rest_v) = vals.split_at_mut(len);
        cols = rest_c;
        vals = rest_v;
        out.push(Mutex::new(Some((c, v))));
    }
    out
}

/// Prefix-sum per-chunk row counts into a full CSR `row_ptr`.
fn assemble_row_ptr(m: usize, counts_per_chunk: &[Vec<usize>]) -> Vec<usize> {
    let mut row_ptr = Vec::with_capacity(m + 1);
    row_ptr.push(0usize);
    let mut run = 0usize;
    for counts in counts_per_chunk {
        for &c in counts {
            run += c;
            row_ptr.push(run);
        }
    }
    debug_assert_eq!(row_ptr.len(), m + 1);
    row_ptr
}

/// `C = A ⊕.⊗ B` over the semiring. Bit-identical to
/// `gbtl_backend_seq::mxm` at every thread count.
pub fn mxm<T, D1, D2, S>(
    pool: &ThreadPool,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "mxm inner dimension mismatch: {}x{} * {}x{}",
        a.nrows(),
        a.ncols(),
        b.nrows(),
        b.ncols()
    );
    let (add, mul) = (sr.add(), sr.mul());
    let (m, n) = (a.nrows(), b.ncols());
    let chunks = nnz_balanced_rows(a.row_ptr(), pool.threads() * OVERSPLIT);

    // Pass 1: symbolic — distinct output columns per row. Scratch comes
    // from each worker thread's workspace pool (workers persist, so the
    // buffers survive across kernel invocations).
    let counts_per_chunk = pool.run_tasks(chunks.len(), |t| {
        workspace::with_flags(n, |seen| {
            workspace::with_index_buffer(|touched| {
                chunks[t]
                    .clone()
                    .map(|i| {
                        touched.clear();
                        let (a_cols, _) = a.row(i);
                        for &k in a_cols {
                            let (b_cols, _) = b.row(k);
                            for &j in b_cols {
                                if !seen[j] {
                                    seen[j] = true;
                                    touched.push(j);
                                }
                            }
                        }
                        for &j in touched.iter() {
                            seen[j] = false;
                        }
                        touched.len()
                    })
                    .collect::<Vec<usize>>()
            })
        })
    });

    let row_ptr = assemble_row_ptr(m, &counts_per_chunk);
    let nnz = *row_ptr.last().expect("row_ptr non-empty");
    if nnz == 0 {
        return CsrMatrix::from_parts_unchecked(m, n, row_ptr, Vec::new(), Vec::new());
    }

    // nnz > 0 implies both inputs have entries; pre-fill with a real product
    // so the buffers are initialised without `unsafe` or `T: Default`.
    let fill = mul.apply(a.vals()[0], b.vals()[0]);
    let mut col_idx = vec![0usize; nnz];
    let mut vals = vec![fill; nnz];
    let bounds: Vec<usize> = chunks
        .iter()
        .map(|r| row_ptr[r.start])
        .chain(std::iter::once(nnz))
        .collect();
    let slots = carve(&mut col_idx, &mut vals, &bounds);

    // Pass 2: numeric — sequential Gustavson per row, into carved slices.
    pool.run_tasks(chunks.len(), |t| {
        let (ocols, ovals) = slots[t]
            .lock()
            .unwrap()
            .take()
            .expect("each carve slot is taken exactly once");
        workspace::with_accumulator(n, |acc: &mut Vec<Option<T>>| {
            workspace::with_index_buffer(|touched| {
                let mut cursor = 0usize;
                for i in chunks[t].clone() {
                    touched.clear();
                    let (a_cols, a_vals) = a.row(i);
                    for (&k, &aik) in a_cols.iter().zip(a_vals) {
                        let (b_cols, b_vals) = b.row(k);
                        for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                            let term = mul.apply(aik, bkj);
                            match &mut acc[j] {
                                Some(v) => *v = add.apply(*v, term),
                                slot @ None => {
                                    *slot = Some(term);
                                    touched.push(j);
                                }
                            }
                        }
                    }
                    touched.sort_unstable();
                    for &j in touched.iter() {
                        ocols[cursor] = j;
                        ovals[cursor] = acc[j].take().expect("touched implies present");
                        cursor += 1;
                    }
                }
                debug_assert_eq!(cursor, ocols.len(), "count and fill passes disagree");
            })
        });
    });
    drop(slots);

    CsrMatrix::from_parts_unchecked(m, n, row_ptr, col_idx, vals)
}

/// Masked multiply `C<M> = A ⊕.⊗ B`, computing only positions present in
/// the structural mask. Bit-identical to `gbtl_backend_seq::mxm_masked`.
pub fn mxm_masked<T, D1, D2, S>(
    pool: &ThreadPool,
    mask: &CsrMatrix<bool>,
    a: &CsrMatrix<D1>,
    b: &CsrMatrix<D2>,
    sr: S,
) -> CsrMatrix<T>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    S: Semiring<T, D1, D2>,
{
    assert_eq!(a.ncols(), b.nrows(), "mxm inner dimension mismatch");
    assert_eq!(
        (mask.nrows(), mask.ncols()),
        (a.nrows(), b.ncols()),
        "mask shape must equal output shape"
    );
    let (add, mul) = (sr.add(), sr.mul());
    let (m, n) = (a.nrows(), b.ncols());
    let chunks = nnz_balanced_rows(a.row_ptr(), pool.threads() * OVERSPLIT);

    // Pass 1: symbolic — reachable ∩ masked columns per row.
    let counts_per_chunk = pool.run_tasks(chunks.len(), |t| {
        workspace::with_flags(n, |allowed| {
            workspace::with_flags(n, |seen| {
                chunks[t]
                    .clone()
                    .map(|i| {
                        let (m_cols, _) = mask.row(i);
                        if m_cols.is_empty() {
                            return 0usize;
                        }
                        for &j in m_cols {
                            allowed[j] = true;
                        }
                        let (a_cols, _) = a.row(i);
                        for &k in a_cols {
                            let (b_cols, _) = b.row(k);
                            for &j in b_cols {
                                if allowed[j] {
                                    seen[j] = true;
                                }
                            }
                        }
                        let mut count = 0usize;
                        for &j in m_cols {
                            if seen[j] {
                                count += 1;
                                seen[j] = false;
                            }
                            allowed[j] = false;
                        }
                        count
                    })
                    .collect::<Vec<usize>>()
            })
        })
    });

    let row_ptr = assemble_row_ptr(m, &counts_per_chunk);
    let nnz = *row_ptr.last().expect("row_ptr non-empty");
    if nnz == 0 {
        return CsrMatrix::from_parts_unchecked(m, n, row_ptr, Vec::new(), Vec::new());
    }

    let fill = mul.apply(a.vals()[0], b.vals()[0]);
    let mut col_idx = vec![0usize; nnz];
    let mut vals = vec![fill; nnz];
    let bounds: Vec<usize> = chunks
        .iter()
        .map(|r| row_ptr[r.start])
        .chain(std::iter::once(nnz))
        .collect();
    let slots = carve(&mut col_idx, &mut vals, &bounds);

    // Pass 2: numeric, masked Gustavson per row (sequential emit order:
    // mask columns ascending, exactly as the seq backend).
    pool.run_tasks(chunks.len(), |t| {
        let (ocols, ovals) = slots[t]
            .lock()
            .unwrap()
            .take()
            .expect("each carve slot is taken exactly once");
        workspace::with_flags(n, |allowed| {
            workspace::with_accumulator(n, |acc: &mut Vec<Option<T>>| {
                let mut cursor = 0usize;
                for i in chunks[t].clone() {
                    let (m_cols, _) = mask.row(i);
                    if m_cols.is_empty() {
                        continue;
                    }
                    for &j in m_cols {
                        allowed[j] = true;
                    }
                    let (a_cols, a_vals) = a.row(i);
                    for (&k, &aik) in a_cols.iter().zip(a_vals) {
                        let (b_cols, b_vals) = b.row(k);
                        for (&j, &bkj) in b_cols.iter().zip(b_vals) {
                            if allowed[j] {
                                let term = mul.apply(aik, bkj);
                                match &mut acc[j] {
                                    Some(v) => *v = add.apply(*v, term),
                                    slot @ None => *slot = Some(term),
                                }
                            }
                        }
                    }
                    for &j in m_cols {
                        if let Some(v) = acc[j].take() {
                            ocols[cursor] = j;
                            ovals[cursor] = v;
                            cursor += 1;
                        }
                        allowed[j] = false;
                    }
                }
                debug_assert_eq!(cursor, ocols.len(), "count and fill passes disagree");
            })
        });
    });
    drop(slots);

    CsrMatrix::from_parts_unchecked(m, n, row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::{MinPlus, PlusTimes};
    use gbtl_sparse::CooMatrix;

    fn from_dense(d: &[&[i64]]) -> CsrMatrix<i64> {
        let mut coo = CooMatrix::new(d.len(), d[0].len());
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0 {
                    coo.push(i, j, v);
                }
            }
        }
        CsrMatrix::from_coo(coo, |x, _| x)
    }

    #[test]
    fn mxm_matches_seq_at_many_thread_counts() {
        let a = from_dense(&[&[1, 2, 0, 0], &[0, 0, 3, 1], &[5, 0, 0, 2], &[0, 4, 0, 0]]);
        let b = from_dense(&[&[1, 0, 2, 0], &[0, 3, 0, 1], &[4, 0, 5, 0], &[0, 6, 0, 7]]);
        let want = gbtl_backend_seq::mxm(&a, &b, PlusTimes::<i64>::new());
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            let got = mxm(&pool, &a, &b, PlusTimes::<i64>::new());
            got.validate().unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn mxm_min_plus_matches_seq() {
        let a = from_dense(&[&[0, 5, 0], &[0, 0, 7], &[100, 0, 0]]);
        let want = gbtl_backend_seq::mxm(&a, &a, MinPlus::<i64>::new());
        let pool = ThreadPool::with_threads(3);
        assert_eq!(mxm(&pool, &a, &a, MinPlus::<i64>::new()), want);
    }

    #[test]
    fn mxm_empty_result() {
        let a = from_dense(&[&[0, 1], &[0, 0]]);
        let b = from_dense(&[&[0, 1], &[0, 0]]);
        // a*b reaches only row 0 -> col 1 via k=1, but b row 1 is empty.
        let pool = ThreadPool::with_threads(4);
        let got = mxm(&pool, &a, &b, PlusTimes::<i64>::new());
        assert_eq!(got.nnz(), 0);
        got.validate().unwrap();
    }

    #[test]
    fn masked_mxm_matches_seq() {
        let a = from_dense(&[&[1, 2, 0], &[3, 0, 4], &[0, 5, 6]]);
        let b = from_dense(&[&[1, 0, 2], &[0, 3, 0], &[4, 0, 5]]);
        let mut mcoo = CooMatrix::new(3, 3);
        for i in 0..3 {
            mcoo.push(i, i, true);
        }
        mcoo.push(0, 2, true);
        let mask = CsrMatrix::from_coo(mcoo, |x, _| x);
        let want = gbtl_backend_seq::mxm_masked(&mask, &a, &b, PlusTimes::<i64>::new());
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::with_threads(threads);
            let got = mxm_masked(&pool, &mask, &a, &b, PlusTimes::<i64>::new());
            got.validate().unwrap();
            assert_eq!(got, want, "threads={threads}");
        }
    }
}
