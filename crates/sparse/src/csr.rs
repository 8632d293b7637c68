//! Compressed sparse row: the workhorse operand format.

use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gbtl_algebra::Scalar;

use crate::coo::bucket_starts;
use crate::{CooMatrix, Index, SparseError};

/// A matrix in compressed-sparse-row form: a shared, immutable structure
/// and this matrix's own values.
///
/// Invariants (checked by [`CsrMatrix::validate`], established by every
/// constructor):
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, monotone
///   non-decreasing, `row_ptr[nrows] == col_idx.len() == vals.len()`;
/// * within each row, column indices are strictly increasing (sorted,
///   duplicate-free) and `< ncols`.
///
/// Every structure carries a process-unique [structure
/// id](CsrMatrix::structure_id); `==` ignores it.
#[derive(Debug, Clone)]
pub struct CsrMatrix<T> {
    structure: Arc<Structure>,
    vals: Vec<T>,
}

/// The shape and index arrays of one or more [`CsrMatrix`]es, with their
/// id. Never changed while shared: only [`CsrMatrix::retain`] edits one,
/// through `Arc::make_mut`, and stamps it a fresh id.
#[derive(Debug, Clone)]
struct Structure {
    nrows: Index,
    ncols: Index,
    row_ptr: Vec<Index>,
    col_idx: Vec<Index>,
    id: u64,
}

/// The next structure id; ids start at 1 and are never reused. `Relaxed`
/// suffices: an id publishes no other data, and `fetch_add` alone makes
/// each one unique.
fn next_structure_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Whether `==` on `T` is equality of bits: `bool` and the primitive
/// integers.
fn eq_is_bitwise<T: 'static>() -> bool {
    let t = TypeId::of::<T>();
    [
        TypeId::of::<bool>(),
        TypeId::of::<u8>(),
        TypeId::of::<u16>(),
        TypeId::of::<u32>(),
        TypeId::of::<u64>(),
        TypeId::of::<u128>(),
        TypeId::of::<usize>(),
        TypeId::of::<i8>(),
        TypeId::of::<i16>(),
        TypeId::of::<i32>(),
        TypeId::of::<i64>(),
        TypeId::of::<i128>(),
        TypeId::of::<isize>(),
    ]
    .contains(&t)
}

impl<T: PartialEq> PartialEq for CsrMatrix<T> {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&*self.structure, &*other.structure);
        (a.nrows, a.ncols, &a.row_ptr, &a.col_idx) == (b.nrows, b.ncols, &b.row_ptr, &b.col_idx)
            && self.vals == other.vals
    }
}

impl<T: Scalar> CsrMatrix<T> {
    /// `vals` over a new structure with a fresh id, unchecked.
    fn assemble(
        nrows: Index,
        ncols: Index,
        row_ptr: Vec<Index>,
        col_idx: Vec<Index>,
        vals: Vec<T>,
    ) -> Self {
        let structure = Structure {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            id: next_structure_id(),
        };
        Self {
            structure: Arc::new(structure),
            vals,
        }
    }

    /// An empty `nrows x ncols` matrix.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self::assemble(nrows, ncols, vec![0; nrows + 1], Vec::new(), Vec::new())
    }

    /// Construct from raw parts, validating every invariant.
    pub fn from_parts(
        nrows: Index,
        ncols: Index,
        row_ptr: Vec<Index>,
        col_idx: Vec<Index>,
        vals: Vec<T>,
    ) -> Result<Self, SparseError> {
        let m = Self::assemble(nrows, ncols, row_ptr, col_idx, vals);
        m.validate()?;
        Ok(m)
    }

    /// Construct from raw parts without validation.
    ///
    /// Not `unsafe` in the memory sense (all accesses stay bounds-checked),
    /// but callers must uphold the CSR invariants or later operations will
    /// produce wrong results or panic. Backends use this on structures they
    /// built themselves.
    pub fn from_parts_unchecked(
        nrows: Index,
        ncols: Index,
        row_ptr: Vec<Index>,
        col_idx: Vec<Index>,
        vals: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        debug_assert_eq!(col_idx.len(), vals.len());
        Self::assemble(nrows, ncols, row_ptr, col_idx, vals)
    }

    /// Build from (possibly unsorted, duplicate-bearing) COO, merging
    /// duplicates with `dup` left to right in input order (the
    /// [`CooMatrix::sort_dedup`] contract). Sorted, duplicate-free input
    /// costs one check and the row count.
    pub fn from_coo(mut coo: CooMatrix<T>, dup: impl FnMut(T, T) -> T) -> Self {
        coo.sort_dedup(dup);
        let (nrows, ncols) = (coo.nrows(), coo.ncols());
        let (rows, col_idx, vals) = coo.into_triples();
        Self::assemble(nrows, ncols, bucket_starts(&rows, nrows), col_idx, vals)
    }

    /// Build from COO that is already sorted row-major and duplicate-free.
    pub fn from_sorted_coo(coo: &CooMatrix<T>) -> Self {
        debug_assert!(coo.is_sorted_dedup());
        let (rows, cols, vals) = coo.triples();
        let row_ptr = bucket_starts(rows, coo.nrows());
        Self::assemble(
            coo.nrows(),
            coo.ncols(),
            row_ptr,
            cols.to_vec(),
            vals.to_vec(),
        )
    }

    /// Check all CSR invariants.
    pub fn validate(&self) -> Result<(), SparseError> {
        let s = &*self.structure;
        if s.row_ptr.len() != s.nrows + 1 {
            return Err(SparseError::InvalidStructure {
                detail: format!(
                    "row_ptr length {} != nrows+1 = {}",
                    s.row_ptr.len(),
                    s.nrows + 1
                ),
            });
        }
        if s.row_ptr[0] != 0 {
            return Err(SparseError::InvalidStructure {
                detail: format!("row_ptr[0] = {} != 0", s.row_ptr[0]),
            });
        }
        if s.col_idx.len() != self.vals.len() {
            return Err(SparseError::LengthMismatch {
                detail: format!("col_idx={} vals={}", s.col_idx.len(), self.vals.len()),
            });
        }
        if *s.row_ptr.last().expect("non-empty row_ptr") != s.col_idx.len() {
            return Err(SparseError::InvalidStructure {
                detail: format!(
                    "row_ptr[nrows] = {} != nnz = {}",
                    s.row_ptr[s.nrows],
                    s.col_idx.len()
                ),
            });
        }
        for i in 0..s.nrows {
            let (lo, hi) = (s.row_ptr[i], s.row_ptr[i + 1]);
            if lo > hi {
                return Err(SparseError::InvalidStructure {
                    detail: format!("row_ptr not monotone at row {i}: {lo} > {hi}"),
                });
            }
            let row = &s.col_idx[lo..hi];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::InvalidStructure {
                        detail: format!("row {i} columns not strictly increasing: {w:?}"),
                    });
                }
            }
            if let Some(&last) = row.last() {
                if last >= s.ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: i,
                        col: last,
                        nrows: s.nrows,
                        ncols: s.ncols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> Index {
        self.structure.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> Index {
        self.structure.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[Index] {
        &self.structure.row_ptr
    }

    /// The column-index array.
    #[inline]
    pub fn col_idx(&self) -> &[Index] {
        &self.structure.col_idx
    }

    /// The value array, parallel to `col_idx`.
    #[inline]
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// This structure's process-unique id: stamped by every constructor,
    /// shared by clones and by every matrix [`with_same_structure`]
    /// builds, and kept by [`CsrMatrix::vals_mut`]. Several value arrays
    /// may share one id; matrices with one id share one `row_ptr` and
    /// `col_idx`. A cache of anything computed from those two arrays alone
    /// can key on it.
    ///
    /// [`with_same_structure`]: CsrMatrix::with_same_structure
    #[inline]
    pub fn structure_id(&self) -> u64 {
        self.structure.id
    }

    /// Mutable value array (structure stays fixed, and so does its
    /// [`structure_id`](CsrMatrix::structure_id)).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [T] {
        &mut self.vals
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: Index) -> (&[Index], &[T]) {
        let s = &*self.structure;
        let (lo, hi) = (s.row_ptr[i], s.row_ptr[i + 1]);
        (&s.col_idx[lo..hi], &self.vals[lo..hi])
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: Index) -> usize {
        let row_ptr = self.row_ptr();
        row_ptr[i + 1] - row_ptr[i]
    }

    /// Value at `(i, j)`, or `None` when not stored. Binary search within
    /// the row.
    pub fn get(&self, i: Index, j: Index) -> Option<T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|k| vals[k])
    }

    /// Iterate all stored triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, T)> + '_ {
        (0..self.nrows()).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
    }

    /// Convert to COO (sorted row-major).
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut coo = CooMatrix::with_capacity(self.nrows(), self.ncols(), self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }

    /// New values over `self`'s (already validated) structure, shared, not
    /// copied: the result keeps `self`'s `row_ptr`, `col_idx` and
    /// [id](CsrMatrix::structure_id), so only the value count is checked.
    /// A catalog's weights, a snapshot restore's weights and `apply` build
    /// their matrices this way.
    pub fn with_same_structure<U: Scalar>(
        &self,
        vals: Vec<U>,
    ) -> Result<CsrMatrix<U>, SparseError> {
        if vals.len() != self.nnz() {
            return Err(SparseError::InvalidStructure {
                detail: format!(
                    "value count {} does not match structure nnz {}",
                    vals.len(),
                    self.nnz()
                ),
            });
        }
        Ok(CsrMatrix {
            structure: Arc::clone(&self.structure),
            vals,
        })
    }

    /// Whether this matrix equals its own transpose (structure *and*
    /// values, by `==`), in `O(nnz + nrows)` without building the
    /// transpose.
    pub fn is_symmetric(&self) -> bool {
        self.mirrored(|a, b| self.vals[a] == self.vals[b])
    }

    /// Whether [`CsrMatrix::transpose`] would give this matrix back bit
    /// for bit: [`CsrMatrix::is_symmetric`]'s sweep with each mirrored
    /// pair of values compared as bits. `bool` and the primitive integers
    /// compare by `==`, `f32` and `f64` by `to_bits` (`0.0` and
    /// `-0.0` differ, a NaN matches its own bits). Any other element type
    /// answers `false`: its `==` says nothing of its bits.
    pub fn is_own_transpose(&self) -> bool {
        let vals: &dyn Any = &self.vals;
        if let Some(v) = vals.downcast_ref::<Vec<f64>>() {
            self.mirrored(|a, b| v[a].to_bits() == v[b].to_bits())
        } else if let Some(v) = vals.downcast_ref::<Vec<f32>>() {
            self.mirrored(|a, b| v[a].to_bits() == v[b].to_bits())
        } else {
            eq_is_bitwise::<T>() && self.is_symmetric()
        }
    }

    /// Whether the matrix is square, its structure symmetric, and `same`
    /// holds of every stored entry's value slot and its mirror's.
    ///
    /// Single sweep: rows are visited in ascending order, so for a
    /// symmetric matrix the mirrors `(j, i)` demanded of each row `j`
    /// arrive in ascending column order — exactly the order row `j`
    /// stores its entries. One cursor per row therefore matches every
    /// edge to its mirror (the diagonal matches itself); any mismatch is
    /// an asymmetry. Since each of the `nnz` demands consumes a distinct
    /// slot and there are exactly `nnz` slots, a full pass implies a
    /// perfect edge/mirror bijection.
    fn mirrored(&self, same: impl Fn(usize, usize) -> bool) -> bool {
        let s = &*self.structure;
        if s.nrows != s.ncols {
            return false;
        }
        let mut cursor: Vec<usize> = s.row_ptr[..s.nrows].to_vec();
        for i in 0..s.nrows {
            for k in s.row_ptr[i]..s.row_ptr[i + 1] {
                let j = s.col_idx[k];
                let c = cursor[j];
                if c >= s.row_ptr[j + 1] || s.col_idx[c] != i || !same(c, k) {
                    return false;
                }
                cursor[j] = c + 1;
            }
        }
        true
    }

    /// Transpose via a counting pass (a.k.a. the sequential "atomic-free
    /// scatter" transpose). `O(nnz + nrows + ncols)`.
    pub fn transpose(&self) -> CsrMatrix<T> {
        let t_ptr = bucket_starts(self.col_idx(), self.ncols());
        let mut cursor = t_ptr.clone();
        let mut t_col = vec![0usize; self.nnz()];
        let mut t_val = self.vals.clone();
        for i in 0..self.nrows() {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = cursor[c];
                cursor[c] += 1;
                t_col[dst] = i;
                t_val[dst] = v;
            }
        }
        CsrMatrix::assemble(self.ncols(), self.nrows(), t_ptr, t_col, t_val)
    }

    /// The maximum row degree (0 for an empty matrix).
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows())
            .map(|i| self.row_nnz(i))
            .max()
            .unwrap_or(0)
    }

    /// Keep only the entries `keep(row, col, value)` accepts, asked in
    /// row-major order and compacted in place. A sorted row's subsequence
    /// is sorted, so every invariant holds by construction. The structure
    /// is compacted in place when this matrix holds it alone, else copied
    /// first (a sibling over it is untouched), and gets a fresh
    /// [id](CsrMatrix::structure_id).
    pub fn retain(&mut self, mut keep: impl FnMut(Index, Index, T) -> bool) {
        let s = Arc::make_mut(&mut self.structure);
        let (mut kept, mut lo) = (0, 0);
        for i in 0..s.nrows {
            let hi = s.row_ptr[i + 1];
            for p in lo..hi {
                let (j, v) = (s.col_idx[p], self.vals[p]);
                if keep(i, j, v) {
                    s.col_idx[kept] = j;
                    self.vals[kept] = v;
                    kept += 1;
                }
            }
            s.row_ptr[i + 1] = kept;
            lo = hi;
        }
        s.col_idx.truncate(kept);
        self.vals.truncate(kept);
        s.id = next_structure_id();
    }
}

impl CsrMatrix<bool> {
    /// The simple graph of an edge list: every `(rows[k], cols[k])` with
    /// `rows[k] != cols[k]` stored once as `true`; self-loops and
    /// duplicates dropped. Equal to [`CsrMatrix::from_coo`] of the
    /// loop-free list with every value `true`, built straight from the two
    /// index arrays: one counting pass, one scatter, and each row sorted
    /// and deduplicated in place, with no value array to sort.
    ///
    /// Panics if the arrays differ in length or an index is out of bounds.
    pub fn pattern(nrows: Index, ncols: Index, rows: &[Index], cols: &[Index]) -> Self {
        Self::pattern_of(nrows, ncols, rows, cols, false)
    }

    /// [`CsrMatrix::pattern`] of the edge list and its mirror: the
    /// undirected simple graph over `n` vertices, every edge `(i, j)` also
    /// stored as `(j, i)`, with no mirrored copy of the list made.
    pub fn symmetric_pattern(n: Index, rows: &[Index], cols: &[Index]) -> Self {
        Self::pattern_of(n, n, rows, cols, true)
    }

    fn pattern_of(
        nrows: Index,
        ncols: Index,
        rows: &[Index],
        cols: &[Index],
        mirror: bool,
    ) -> Self {
        assert_eq!(rows.len(), cols.len(), "one column per row index");
        // count each row's entries at row_ptr[r + 1]; the prefix sum then
        // leaves row r's start at row_ptr[r]
        let mut row_ptr = vec![0; nrows + 1];
        for (&r, &c) in rows.iter().zip(cols) {
            assert!(r < nrows && c < ncols, "edge ({r}, {c}) out of bounds");
            if r != c {
                row_ptr[r + 1] += 1;
                if mirror {
                    row_ptr[c + 1] += 1;
                }
            }
        }
        for i in 0..nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        // scatter with row_ptr[r] as row r's cursor: afterwards it holds
        // the row's end
        let mut col_idx = vec![0; row_ptr[nrows]];
        for (&r, &c) in rows.iter().zip(cols) {
            if r != c {
                col_idx[row_ptr[r]] = c;
                row_ptr[r] += 1;
                if mirror {
                    col_idx[row_ptr[c]] = r;
                    row_ptr[c] += 1;
                }
            }
        }
        // sort and deduplicate each row, compacting toward the front; the
        // write position never passes the read position
        let (mut kept, mut lo) = (0, 0);
        for ptr in &mut row_ptr[..nrows] {
            let (hi, start) = (*ptr, kept);
            *ptr = start;
            col_idx[lo..hi].sort_unstable();
            for p in lo..hi {
                let c = col_idx[p];
                if kept == start || col_idx[kept - 1] != c {
                    col_idx[kept] = c;
                    kept += 1;
                }
            }
            lo = hi;
        }
        row_ptr[nrows] = kept;
        col_idx.truncate(kept);
        Self::assemble(nrows, ncols, row_ptr, col_idx, vec![true; kept])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<f64> {
        // [10  0 20]
        // [ 0  0  0]
        // [30 40  0]
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 10.0);
        coo.push(0, 2, 20.0);
        coo.push(2, 0, 30.0);
        coo.push(2, 1, 40.0);
        CsrMatrix::from_coo(coo, |a, _| a)
    }

    #[test]
    fn pattern_drops_loops_and_duplicates() {
        // (0,0) a loop, (0,1) twice, (2,1) once
        let (rows, cols) = ([0, 0, 0, 2], [0, 1, 1, 1]);
        let csr = CsrMatrix::pattern(3, 3, &rows, &cols);
        csr.validate().unwrap();
        assert_eq!(csr.row_ptr(), &[0, 1, 1, 2]);
        assert_eq!(csr.col_idx(), &[1, 1]);
        assert_eq!(csr.vals(), &[true, true]);
        let sym = CsrMatrix::symmetric_pattern(3, &rows, &cols);
        assert_eq!(sym.row_ptr(), &[0, 1, 3, 4]);
        assert_eq!(sym.col_idx(), &[1, 0, 2, 1]);
        assert!(sym.is_symmetric());
    }

    #[test]
    fn from_coo_builds_valid_csr() {
        let m = sample();
        m.validate().unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_ptr(), &[0, 2, 2, 4]);
        assert_eq!(m.row(0), (&[0usize, 2][..], &[10.0, 20.0][..]));
        assert_eq!(m.row(1), (&[][..], &[][..]));
    }

    #[test]
    fn get_uses_binary_search() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(20.0));
        assert_eq!(m.get(0, 1), None);
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.get(2, 1), Some(40.0));
    }

    #[test]
    fn duplicates_merge_through_dup_op() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        let m = CsrMatrix::from_coo(coo, |a, b| a + b);
        assert_eq!(m.get(0, 0), Some(3.0));
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        t.validate().unwrap();
        assert_eq!(t.get(0, 2), Some(30.0));
        assert_eq!(t.get(2, 0), Some(20.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn is_symmetric_agrees_with_transpose_equality() {
        // symmetric with a diagonal entry and distinct off-diagonal values
        let s = CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 4, 6],
            vec![1, 2, 0, 1, 0, 2],
            vec![5.0, 7.0, 5.0, 9.0, 7.0, 1.0],
        )
        .unwrap();
        assert!(s.is_symmetric());
        assert_eq!(s.transpose(), s);

        // same structure, one mirrored value differs
        let v = CsrMatrix::from_parts(
            3,
            3,
            vec![0, 2, 4, 6],
            vec![1, 2, 0, 1, 0, 2],
            vec![5.0, 7.0, 5.0, 9.0, 8.0, 1.0],
        )
        .unwrap();
        assert!(!v.is_symmetric());

        // structurally asymmetric
        assert!(!sample().is_symmetric());
        // non-square
        assert!(!CsrMatrix::<f64>::new(2, 3).is_symmetric());
        // trivially symmetric
        assert!(CsrMatrix::<f64>::new(4, 4).is_symmetric());
    }

    #[test]
    fn is_own_transpose_compares_values_as_bits() {
        let mirrored = |a, b| {
            CsrMatrix::from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![1.0, a, b]).unwrap()
        };
        let same = mirrored(1.0f64, 1.0);
        assert!(same.is_own_transpose() && same.transpose() == same);
        // `==` calls the signed zeros equal, their bits do not
        let zeros = mirrored(0.0, -0.0);
        assert!(zeros.is_symmetric() && !zeros.is_own_transpose());
        // a NaN is not `==` to itself, but its bits match
        let nan =
            CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![f32::NAN; 2]).unwrap();
        assert!(!nan.is_symmetric() && nan.is_own_transpose());
        let ints = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![7u32, 7]).unwrap();
        assert!(ints.is_own_transpose());
        assert!(!sample().is_own_transpose());
        // an element type whose `==` may not be its bits never qualifies
        let pairs = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![(1u8, 2u8); 2]);
        let pairs = pairs.unwrap();
        assert!(pairs.is_symmetric() && !pairs.is_own_transpose());
    }

    #[test]
    fn validate_rejects_bad_structure() {
        let bad = CsrMatrix::assemble(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(bad.validate().is_err());

        let unsorted = CsrMatrix::assemble(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(unsorted.validate().is_err());
    }

    #[test]
    fn iter_matches_to_coo() {
        let m = sample();
        let a: Vec<_> = m.iter().collect();
        let b: Vec<_> = m.to_coo().iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn max_row_nnz() {
        assert_eq!(sample().max_row_nnz(), 2);
        assert_eq!(CsrMatrix::<f64>::new(3, 3).max_row_nnz(), 0);
    }

    #[test]
    fn retain_keeping_everything_is_the_same_matrix_under_a_new_id() {
        let mut m = sample();
        let (before, id) = (m.clone(), m.structure_id());
        let mut asked = Vec::new();
        m.retain(|i, j, v| {
            asked.push((i, j, v));
            true
        });
        m.validate().unwrap();
        assert_eq!(m, before);
        assert_ne!(m.structure_id(), id);
        // asked once per entry, row-major
        assert_eq!(asked, before.iter().collect::<Vec<_>>());
    }

    #[test]
    fn retain_keeping_nothing_leaves_empty_rows() {
        let mut m = sample();
        m.retain(|_, _, _| false);
        m.validate().unwrap();
        assert_eq!(m, CsrMatrix::new(3, 3));
        assert_eq!(m.row_ptr(), &[0, 0, 0, 0]);
    }

    #[test]
    fn retain_compacts_across_an_empty_row() {
        // row 1 is empty; drop (0,0) and (2,1), keep (0,2) and (2,0)
        let mut m = sample();
        m.retain(|i, j, _| (i, j) == (0, 2) || (i, j) == (2, 0));
        m.validate().unwrap();
        assert_eq!(m.row_ptr(), &[0, 1, 1, 2]);
        assert_eq!(m.col_idx(), &[2, 0]);
        assert_eq!(m.vals(), &[20.0, 30.0]);
        // by value, the row index passed through
        let mut m = sample();
        m.retain(|i, _, v| i == 2 && v > 35.0);
        m.validate().unwrap();
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(2, 1, 40.0)]);
    }
}
