//! The output of a row-range kernel, and how consecutive ranges join.
//!
//! Every row-oriented kernel here has a `*_rows` form that computes output
//! rows `rows.start..rows.end` only. The whole-matrix function is that form
//! over `0..m`, its one chunk moved into the CSR; `gbtl-backend-par`
//! schedules the same form over many ranges and stitches them. A row is
//! always produced whole by one call, so how `0..m` is cut can never change
//! a bit of the result.

use gbtl_algebra::Scalar;
use gbtl_sparse::CsrMatrix;
use gbtl_util::workspace;

/// Consecutive output rows as a CSR fragment: `row_ptr` holds one offset
/// per row plus a final one, *local* to the fragment (it starts at 0), so a
/// fragment covering every row is the matrix's own arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct RowChunk<T> {
    /// Local row offsets, `rows + 1` of them, starting at 0.
    pub row_ptr: Vec<usize>,
    /// Column indices of the fragment's entries, row after row.
    pub col_idx: Vec<usize>,
    /// Values, parallel to `col_idx`.
    pub vals: Vec<T>,
}

impl<T: Scalar> RowChunk<T> {
    /// A fragment from its three arrays (`row_ptr` local, starting at 0).
    pub fn from_parts(row_ptr: Vec<usize>, col_idx: Vec<usize>, vals: Vec<T>) -> Self {
        debug_assert_eq!(row_ptr.first(), Some(&0));
        debug_assert_eq!(row_ptr.last(), Some(&col_idx.len()));
        RowChunk {
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// The fragment as a matrix of its own rows — no copy.
    pub fn into_matrix(self, ncols: usize) -> CsrMatrix<T> {
        let nrows = self.row_ptr.len() - 1;
        CsrMatrix::from_parts_unchecked(nrows, ncols, self.row_ptr, self.col_idx, self.vals)
    }
}

/// Join fragments of consecutive row ranges, in row order, into one matrix.
/// Each row was produced whole by one kernel call, so the concatenation is
/// exactly what a single pass over all rows emits.
pub fn stitch_rows<T: Scalar>(nrows: usize, ncols: usize, parts: Vec<RowChunk<T>>) -> CsrMatrix<T> {
    let total: usize = parts.iter().map(|p| p.col_idx.len()).sum();
    let mut row_ptr = Vec::with_capacity(nrows + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for mut part in parts {
        let base = col_idx.len();
        row_ptr.extend(part.row_ptr[1..].iter().map(|&p| base + p));
        col_idx.append(&mut part.col_idx);
        vals.append(&mut part.vals);
    }
    debug_assert_eq!(row_ptr.len(), nrows + 1);
    CsrMatrix::from_parts_unchecked(nrows, ncols, row_ptr, col_idx, vals)
}

/// The positions of a Gustavson accumulator that hold a value, as presence
/// bits plus a summary bit per 64-position word: push `vxm` and `mxm_rows`
/// drain by them in index order, with no sort and no sweep of absent slots.
pub(crate) struct Touched<'w> {
    bits: &'w mut [u64],
    summary: &'w mut [u64],
    /// Positions marked since the last drain: the drain's exact output size.
    pub(crate) count: usize,
}

impl Touched<'_> {
    /// Run `f` with no position of `0..n` marked, on pooled all-zero words.
    pub(crate) fn with<R>(n: usize, f: impl FnOnce(&mut Touched<'_>) -> R) -> R {
        let (words, sums) = (n.div_ceil(64), n.div_ceil(64 * 64));
        workspace::with_words(words + sums, |buf| {
            let (bits, summary) = buf[..words + sums].split_at_mut(words);
            f(&mut Touched {
                bits,
                summary,
                count: 0,
            })
        })
    }

    /// Mark position `j`, which must not be marked yet.
    #[inline(always)]
    pub(crate) fn mark(&mut self, j: usize) {
        self.bits[j / 64] |= 1 << (j % 64);
        self.summary[j / 4096] |= 1 << (j / 64 % 64);
        self.count += 1;
    }

    /// Call `f` on every marked position in ascending order, clearing each
    /// word as it reads it and stopping after the last marked one.
    pub(crate) fn drain(&mut self, mut f: impl FnMut(usize)) {
        let (mut left, mut s) = (std::mem::take(&mut self.count), 0);
        while left > 0 {
            let mut words = std::mem::take(&mut self.summary[s]);
            while words != 0 {
                let w = 64 * s + words.trailing_zeros() as usize;
                words &= words - 1;
                let mut bits = std::mem::take(&mut self.bits[w]);
                while bits != 0 {
                    f(64 * w + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                    left -= 1;
                }
            }
            s += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stitch_rebases_offsets_and_keeps_empty_fragments() {
        let chunk = |row_ptr: &[usize], col_idx: &[usize], vals: &[i64]| {
            RowChunk::from_parts(row_ptr.to_vec(), col_idx.to_vec(), vals.to_vec())
        };
        let a = chunk(&[0, 1, 1], &[1], &[10]); // second row empty
        let b = chunk(&[0], &[], &[]); // empty range
        let c = chunk(&[0, 2], &[0, 2], &[30, 32]);
        let whole = stitch_rows(3, 3, vec![a.clone(), b, c]);
        whole.validate().unwrap();
        assert_eq!(whole.row_ptr(), &[0, 1, 1, 3]);
        assert_eq!(whole.col_idx(), &[1, 0, 2]);
        assert_eq!(whole.vals(), &[10, 30, 32]);
        // one fragment over every row is the matrix itself
        assert_eq!(a.clone().into_matrix(3), stitch_rows(2, 3, vec![a]));
    }

    #[test]
    fn touched_drains_in_index_order_across_summary_words() {
        let marks = [4097, 0, 63, 64, 8192, 4095];
        Touched::with(8193, |t| {
            for round in 0..2 {
                for &j in &marks[round..] {
                    t.mark(j);
                }
                assert_eq!(t.count, marks.len() - round);
                let mut seen = Vec::new();
                t.drain(|j| seen.push(j));
                let mut want = marks[round..].to_vec();
                want.sort_unstable();
                assert_eq!(seen, want);
                assert_eq!(t.count, 0);
            }
        });
    }
}
