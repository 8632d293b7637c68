//! Coordinate-format matrix: the build and interchange format.

use gbtl_algebra::Scalar;

use crate::{Index, SparseError};

/// A matrix stored as parallel `(row, col, value)` triple arrays.
///
/// COO is what `build` consumes, what `extractTuples` produces, and what the
/// Matrix Market reader yields. Triples may be unsorted and may contain
/// duplicates until [`CooMatrix::sort_dedup`] is called; compressed formats
/// are derived from the sorted, deduplicated form.
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    nrows: Index,
    ncols: Index,
    rows: Vec<Index>,
    cols: Vec<Index>,
    vals: Vec<T>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Create an empty `nrows x ncols` matrix.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Create an empty matrix with room for `cap` triples.
    pub fn with_capacity(nrows: Index, ncols: Index, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Build from triple arrays, validating bounds and lengths.
    pub fn from_triples(
        nrows: Index,
        ncols: Index,
        rows: Vec<Index>,
        cols: Vec<Index>,
        vals: Vec<T>,
    ) -> Result<Self, SparseError> {
        if rows.len() != cols.len() || rows.len() != vals.len() {
            return Err(SparseError::LengthMismatch {
                detail: format!(
                    "rows={}, cols={}, vals={}",
                    rows.len(),
                    cols.len(),
                    vals.len()
                ),
            });
        }
        for (&r, &c) in rows.iter().zip(&cols) {
            if r >= nrows || c >= ncols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    nrows,
                    ncols,
                });
            }
        }
        Ok(Self {
            nrows,
            ncols,
            rows,
            cols,
            vals,
        })
    }

    /// Append one triple. Panics (debug) on out-of-bounds indices; use
    /// [`CooMatrix::try_push`] for checked insertion.
    #[inline]
    pub fn push(&mut self, row: Index, col: Index, val: T) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
    }

    /// Append one triple, validating bounds.
    pub fn try_push(&mut self, row: Index, col: Index, val: T) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.push(row, col, val);
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> Index {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> Index {
        self.ncols
    }

    /// Number of stored triples (including any duplicates).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Raw triple arrays `(rows, cols, vals)`.
    #[inline]
    pub fn triples(&self) -> (&[Index], &[Index], &[T]) {
        (&self.rows, &self.cols, &self.vals)
    }

    /// Consume into raw triple arrays `(rows, cols, vals)`.
    #[inline]
    pub fn into_triples(self) -> (Vec<Index>, Vec<Index>, Vec<T>) {
        (self.rows, self.cols, self.vals)
    }

    /// Iterate stored triples in storage order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, T)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Sort triples into row-major order and merge duplicate coordinates
    /// with `dup`.
    ///
    /// The values of one coordinate fold left to right **in input order**:
    /// entries stored at positions `p0 < p1 < p2` merge to
    /// `dup(dup(v[p0], v[p1]), v[p2])`. That is the order a stable key sort
    /// followed by reduce-by-key gives (the GPU `build`), so a
    /// non-commutative `dup` (`First`, `Second`, `Minus`) or a
    /// non-associative one (`f64` addition) builds the same matrix on every
    /// backend.
    ///
    /// A stable LSD counting sort, `O(nnz + nrows + ncols)`: by column, then
    /// by row. Where `ncols` exceeds `nnz + nrows` the column buckets would
    /// cost more than the data, so each row's entries are sorted by column
    /// instead (a stable sort: same output). Triples already sorted and
    /// duplicate-free are left as they are after one `O(nnz)` check.
    pub fn sort_dedup(&mut self, mut dup: impl FnMut(T, T) -> T) {
        if self.is_sorted_dedup() {
            return;
        }
        let row_start = self.sort_stably();
        // fold each run of equal coordinates into its first slot, in place
        let (cols, vals) = (&mut self.cols, &mut self.vals);
        let mut rows = Vec::with_capacity(vals.len());
        let mut kept = 0;
        for (r, bounds) in row_start.windows(2).enumerate() {
            let row_first = kept;
            for k in bounds[0]..bounds[1] {
                if kept > row_first && cols[kept - 1] == cols[k] {
                    vals[kept - 1] = dup(vals[kept - 1], vals[k]);
                } else {
                    cols[kept] = cols[k];
                    vals[kept] = vals[k];
                    rows.push(r);
                    kept += 1;
                }
            }
        }
        cols.truncate(kept);
        vals.truncate(kept);
        self.rows = rows;
    }

    /// Reorder the columns and values row-major, keeping input order among
    /// equal coordinates, and return the row starts (row `r` at
    /// `row_start[r]..row_start[r + 1]`); `self.rows` is left empty. Each
    /// pass frees its input before the next allocates, so no more than two
    /// copies of the data are alive at once.
    fn sort_stably(&mut self) -> Vec<usize> {
        let rows = std::mem::take(&mut self.rows);
        let cols = std::mem::take(&mut self.cols);
        let vals = std::mem::take(&mut self.vals);
        let (n, row_start) = (vals.len(), bucket_starts(&rows, self.nrows));
        let Some(&fill) = vals.first() else {
            return row_start;
        };
        let mut next = row_start.clone();
        let (mut out_cols, mut out_vals);
        if self.ncols > n + self.nrows {
            // wide: bucket by row in input order, then sort each row stably
            let mut entries = vec![(0, fill); n];
            for ((&r, &c), &v) in rows.iter().zip(&cols).zip(&vals) {
                entries[next[r]] = (c, v);
                next[r] += 1;
            }
            drop((rows, cols, vals));
            for bounds in row_start.windows(2) {
                entries[bounds[0]..bounds[1]].sort_by_key(|&(c, _)| c);
            }
            (out_cols, out_vals) = entries.into_iter().unzip();
        } else {
            // column pass: rows and values grouped by column, stable
            let mut col_next = bucket_starts(&cols, self.ncols);
            let mut by_col_rows = vec![0; n];
            let mut by_col_vals = vec![fill; n];
            for ((&r, &c), &v) in rows.iter().zip(&cols).zip(&vals) {
                by_col_rows[col_next[c]] = r;
                by_col_vals[col_next[c]] = v;
                col_next[c] += 1;
            }
            drop((rows, cols, vals));
            // row pass: after the column pass `col_next[c]` ends column `c`
            (out_cols, out_vals) = (vec![0; n], vec![fill; n]);
            let mut lo = 0;
            for (c, &hi) in col_next[..self.ncols].iter().enumerate() {
                for (&r, &v) in by_col_rows[lo..hi].iter().zip(&by_col_vals[lo..hi]) {
                    out_cols[next[r]] = c;
                    out_vals[next[r]] = v;
                    next[r] += 1;
                }
                lo = hi;
            }
        }
        self.cols = out_cols;
        self.vals = out_vals;
        row_start
    }

    /// True when triples are sorted row-major with no duplicate coordinates.
    pub fn is_sorted_dedup(&self) -> bool {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(self.rows.iter().zip(&self.cols).skip(1))
            .all(|((r0, c0), (r1, c1))| (r0, c0) < (r1, c1))
    }

    /// Swap row/column indices in place (structural transpose; the result is
    /// generally unsorted).
    pub fn transpose_in_place(&mut self) {
        std::mem::swap(&mut self.rows, &mut self.cols);
        std::mem::swap(&mut self.nrows, &mut self.ncols);
    }
}

/// Exclusive prefix sums of the key histogram: a counting sort by `keys`
/// puts bucket `k` at `starts[k]..starts[k + 1]`; `starts[nbuckets]` is
/// `keys.len()`. Over the rows of sorted triples this is the CSR row
/// pointer.
pub(crate) fn bucket_starts(keys: &[Index], nbuckets: usize) -> Vec<usize> {
    let mut starts = vec![0usize; nbuckets + 1];
    for &k in keys {
        starts[k + 1] += 1;
    }
    for k in 0..nbuckets {
        starts[k + 1] += starts[k];
    }
    starts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_iter() {
        let mut m = CooMatrix::<f64>::new(3, 4);
        m.push(0, 1, 1.0);
        m.push(2, 3, 2.0);
        assert_eq!(m.nnz(), 2);
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(triples, vec![(0, 1, 1.0), (2, 3, 2.0)]);
    }

    #[test]
    fn from_triples_validates() {
        let err = CooMatrix::from_triples(2, 2, vec![0, 5], vec![0, 0], vec![1.0, 2.0]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
        let err = CooMatrix::from_triples(2, 2, vec![0], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
    }

    #[test]
    fn try_push_rejects_out_of_bounds() {
        let mut m = CooMatrix::<i32>::new(2, 2);
        assert!(m.try_push(1, 1, 5).is_ok());
        assert!(m.try_push(2, 0, 5).is_err());
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn sort_dedup_merges_duplicates() {
        let mut m = CooMatrix::<i64>::new(3, 3);
        m.push(2, 2, 1);
        m.push(0, 0, 10);
        m.push(2, 2, 5);
        m.push(0, 1, 3);
        m.sort_dedup(|a, b| a + b);
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(triples, vec![(0, 0, 10), (0, 1, 3), (2, 2, 6)]);
        assert!(m.is_sorted_dedup());
    }

    #[test]
    fn transpose_in_place_swaps() {
        let mut m = CooMatrix::<i32>::new(2, 5);
        m.push(1, 4, 7);
        m.transpose_in_place();
        assert_eq!((m.nrows(), m.ncols()), (5, 2));
        assert_eq!(m.iter().next(), Some((4, 1, 7)));
    }
}
