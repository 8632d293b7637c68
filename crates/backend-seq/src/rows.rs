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
}
