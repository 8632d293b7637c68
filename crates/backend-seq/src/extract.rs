//! `extract` (sub-matrix / sub-vector selection) and `assign`
//! (sub-structure overwrite).

use gbtl_algebra::Scalar;
use gbtl_sparse::{CsrMatrix, DenseVector, Index};

/// `C = A(rows, cols)` — GraphBLAS `extract`. `rows`/`cols` are index
/// lists (possibly permuting/duplicating); output is
/// `rows.len() x cols.len()`.
pub fn extract_mat<T>(a: &CsrMatrix<T>, rows: &[Index], cols: &[Index]) -> CsrMatrix<T>
where
    T: Scalar,
{
    for &r in rows {
        assert!(r < a.nrows(), "extract row {r} out of bounds");
    }
    for &c in cols {
        assert!(c < a.ncols(), "extract col {c} out of bounds");
    }
    // Map source column -> list of output positions (supports duplicates).
    let mut col_map: Vec<Vec<usize>> = vec![Vec::new(); a.ncols()];
    for (out_j, &src_j) in cols.iter().enumerate() {
        col_map[src_j].push(out_j);
    }
    let mut row_ptr = Vec::with_capacity(rows.len() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    let mut staged: Vec<(usize, T)> = Vec::new();
    for &src_i in rows {
        staged.clear();
        let (cs, vs) = a.row(src_i);
        for (&j, &v) in cs.iter().zip(vs) {
            for &out_j in &col_map[j] {
                staged.push((out_j, v));
            }
        }
        staged.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &staged {
            col_idx.push(j);
            vals.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts_unchecked(rows.len(), cols.len(), row_ptr, col_idx, vals)
}

/// `w = u(indices)` — vector extract.
pub fn extract_vec<T>(u: &DenseVector<T>, indices: &[Index]) -> DenseVector<T>
where
    T: Scalar,
{
    DenseVector::from_fn(indices.len(), |k| u.get(indices[k]))
}

/// `C(rows, cols) = A` — GraphBLAS `assign` without accumulate: entries of
/// the selected sub-structure are replaced by `A`'s entries (positions of
/// the sub-structure not stored in `A` become absent).
pub fn assign_mat<T>(
    c: &CsrMatrix<T>,
    a: &CsrMatrix<T>,
    rows: &[Index],
    cols: &[Index],
) -> CsrMatrix<T>
where
    T: Scalar,
{
    assert_eq!(a.nrows(), rows.len(), "assign row-count mismatch");
    assert_eq!(a.ncols(), cols.len(), "assign col-count mismatch");
    let in_rows: Vec<Option<usize>> = {
        let mut m = vec![None; c.nrows()];
        for (k, &r) in rows.iter().enumerate() {
            assert!(r < c.nrows(), "assign row {r} out of bounds");
            m[r] = Some(k);
        }
        m
    };
    let mut in_cols = vec![false; c.ncols()];
    for &cc in cols {
        assert!(cc < c.ncols(), "assign col {cc} out of bounds");
        in_cols[cc] = true;
    }

    let mut row_ptr = Vec::with_capacity(c.nrows() + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut vals = Vec::new();
    let mut staged: Vec<(usize, T)> = Vec::new();
    for (i, &in_row) in in_rows.iter().enumerate() {
        staged.clear();
        // keep C's entries outside the assigned region
        let (cs, vs) = c.row(i);
        match in_row {
            None => {
                for (&j, &v) in cs.iter().zip(vs) {
                    staged.push((j, v));
                }
            }
            Some(ai) => {
                for (&j, &v) in cs.iter().zip(vs) {
                    if !in_cols[j] {
                        staged.push((j, v));
                    }
                }
                // bring in A's row, mapped through the column list
                let (acs, avs) = a.row(ai);
                for (&aj, &av) in acs.iter().zip(avs) {
                    staged.push((cols[aj], av));
                }
            }
        }
        staged.sort_unstable_by_key(|&(j, _)| j);
        for &(j, v) in &staged {
            col_idx.push(j);
            vals.push(v);
        }
        row_ptr.push(col_idx.len());
    }
    CsrMatrix::from_parts_unchecked(c.nrows(), c.ncols(), row_ptr, col_idx, vals)
}

/// `w(indices) = u` — vector assign without accumulate.
pub fn assign_vec<T>(w: &DenseVector<T>, u: &DenseVector<T>, indices: &[Index]) -> DenseVector<T>
where
    T: Scalar,
{
    assert_eq!(u.len(), indices.len(), "assign length mismatch");
    let mut out = w.clone();
    for (k, &i) in indices.iter().enumerate() {
        match u.get(k) {
            Some(v) => out.set(i, v),
            None => {
                out.unset(i);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_sparse::CooMatrix;

    fn mat() -> CsrMatrix<i32> {
        // [1 2 0]
        // [0 3 4]
        // [5 0 6]
        let mut coo = CooMatrix::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 1),
            (0, 1, 2),
            (1, 1, 3),
            (1, 2, 4),
            (2, 0, 5),
            (2, 2, 6),
        ] {
            coo.push(i, j, v);
        }
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn extract_submatrix() {
        let a = mat();
        let c = extract_mat(&a, &[0, 2], &[1, 2]);
        assert_eq!((c.nrows(), c.ncols()), (2, 2));
        assert_eq!(c.get(0, 0), Some(2)); // A(0,1)
        assert_eq!(c.get(0, 1), None); // A(0,2)
        assert_eq!(c.get(1, 1), Some(6)); // A(2,2)
        c.validate().unwrap();
    }

    #[test]
    fn extract_permutes_and_duplicates() {
        let a = mat();
        let c = extract_mat(&a, &[2, 2], &[2, 0]);
        assert_eq!(c.get(0, 0), Some(6));
        assert_eq!(c.get(0, 1), Some(5));
        assert_eq!(c.get(1, 0), Some(6));
        c.validate().unwrap();
    }

    #[test]
    fn extract_vec_selects() {
        let mut u = DenseVector::new(4);
        u.set(1, 10i32);
        u.set(3, 30);
        let w = extract_vec(&u, &[3, 0, 1]);
        assert_eq!(w.get(0), Some(30));
        assert_eq!(w.get(1), None);
        assert_eq!(w.get(2), Some(10));
    }

    #[test]
    fn assign_overwrites_region() {
        let c = mat();
        // sub = [[9]] assigned at row 1, col 0
        let mut sub = CooMatrix::new(1, 1);
        sub.push(0, 0, 9);
        let sub = CsrMatrix::from_coo(sub, |a, _| a);
        let out = assign_mat(&c, &sub, &[1], &[0]);
        assert_eq!(out.get(1, 0), Some(9));
        // entries of row 1 outside col 0 survive
        assert_eq!(out.get(1, 1), Some(3));
        assert_eq!(out.get(1, 2), Some(4));
        // other rows untouched
        assert_eq!(out.get(0, 0), Some(1));
        out.validate().unwrap();
    }

    #[test]
    fn assign_clears_absent_positions_in_region() {
        let c = mat();
        // empty 1x2 assigned at row 0, cols {0,1}: erases A(0,0), A(0,1)
        let sub = CsrMatrix::<i32>::new(1, 2);
        let out = assign_mat(&c, &sub, &[0], &[0, 1]);
        assert_eq!(out.get(0, 0), None);
        assert_eq!(out.get(0, 1), None);
        assert_eq!(out.row_nnz(0), 0);
    }

    #[test]
    fn assign_vec_sets_and_clears() {
        let mut w = DenseVector::new(4);
        w.set(0, 1i32);
        w.set(2, 2);
        let mut u = DenseVector::new(2);
        u.set(0, 99i32); // present -> set
                         // u[1] absent -> clear
        let out = assign_vec(&w, &u, &[2, 0]);
        assert_eq!(out.get(2), Some(99));
        assert_eq!(out.get(0), None);
    }
}
