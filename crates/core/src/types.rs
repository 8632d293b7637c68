//! The user-facing `Matrix` and `Vector` types.
//!
//! A matrix carries an **identity** (`id`) and a **version** stamp so the
//! operand-resolution layer can memoize derived forms (today: the
//! per-context transpose cache, [`crate::cache::TransposeCache`]). Stamps
//! are drawn from one process-global monotonic counter: a matrix's version
//! strictly increases on every mutation, and two handles that ever diverge
//! in content can never share a `(id, version)` pair — so a cache keyed on
//! the pair can never serve stale data. Vectors key no cache and carry no
//! stamp, so a vector write is a slot write.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_sparse::{CooMatrix, CsrMatrix, DenseVector, Index, SparseVector};

use crate::error::{GblasError, Result};

/// Process-global stamp source for container ids and versions. Starts at 1
/// so 0 can act as a "never" sentinel in tests and caches.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

fn fresh_stamp() -> u64 {
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A GraphBLAS matrix.
///
/// Stored as CSR internally — the operand format of every backend. Built
/// from triples ([`Matrix::build`]), and inspected with
/// [`Matrix::extract_tuples`], matching `GrB_Matrix_build` /
/// `GrB_Matrix_extractTuples`.
///
/// The CSR buffer is shared (`Arc`): cloning a matrix is O(1), and results
/// produced by zero-copy paths (e.g. `transpose` with no mask/accumulator)
/// can alias a cached buffer. Mutating methods replace the buffer wholesale
/// and advance the version stamp, so sharing is never observable.
#[derive(Debug)]
pub struct Matrix<T> {
    csr: Arc<CsrMatrix<T>>,
    id: u64,
    version: u64,
}

impl<T> Clone for Matrix<T> {
    /// O(1): shares the CSR buffer and keeps the `(id, version)` pair —
    /// the clone's content is identical, so cached derived forms (its
    /// transpose) remain valid for both handles. The first mutation of
    /// either handle re-stamps that handle's version.
    fn clone(&self) -> Self {
        Matrix {
            csr: Arc::clone(&self.csr),
            id: self.id,
            version: self.version,
        }
    }
}

impl<T: Scalar> PartialEq for Matrix<T> {
    /// Structural + value equality; identity and version are ignored.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.csr, &other.csr) || *self.csr == *other.csr
    }
}

impl<T: Scalar> Matrix<T> {
    /// An empty `nrows x ncols` matrix.
    pub fn new(nrows: Index, ncols: Index) -> Self {
        Self::from_csr(CsrMatrix::new(nrows, ncols))
    }

    /// Build from `(row, col, value)` triples, merging duplicates with
    /// `dup` left to right in input order (see
    /// [`CooMatrix::sort_dedup`]) — the same matrix
    /// [`crate::Context::matrix_from_coo`] builds on every backend.
    pub fn build<D: BinaryOp<T>>(
        nrows: Index,
        ncols: Index,
        triples: impl IntoIterator<Item = (Index, Index, T)>,
        dup: D,
    ) -> Result<Self> {
        let mut coo = CooMatrix::new(nrows, ncols);
        for (i, j, v) in triples {
            coo.try_push(i, j, v).map_err(GblasError::from)?;
        }
        Ok(Self::from_csr(CsrMatrix::from_coo(coo, |a, b| {
            dup.apply(a, b)
        })))
    }

    /// Wrap an existing CSR matrix.
    pub fn from_csr(csr: CsrMatrix<T>) -> Self {
        Self::from_shared(Arc::new(csr))
    }

    /// Wrap an already-shared CSR buffer without copying it (the zero-copy
    /// result path: the new matrix may alias a cache entry or another
    /// matrix's storage).
    pub fn from_shared(csr: Arc<CsrMatrix<T>>) -> Self {
        Self {
            csr,
            id: fresh_stamp(),
            version: fresh_stamp(),
        }
    }

    /// Wrap COO triples, duplicates merged with `dup` left to right in
    /// input order (see [`CooMatrix::sort_dedup`]).
    pub fn from_coo<D: BinaryOp<T>>(coo: CooMatrix<T>, dup: D) -> Self {
        Self::from_csr(CsrMatrix::from_coo(coo, |a, b| dup.apply(a, b)))
    }

    /// Stable identity of this logical matrix (shared by clones).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Version stamp: strictly increases on every mutation of this handle.
    /// `(id(), version())` uniquely determines content process-wide.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Replace the storage after a mutation: new buffer, new version.
    fn replace_csr(&mut self, csr: CsrMatrix<T>) {
        self.csr = Arc::new(csr);
        self.version = fresh_stamp();
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> Index {
        self.csr.nrows()
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> Index {
        self.csr.ncols()
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// Value at `(i, j)` or `None` when absent.
    pub fn get(&self, i: Index, j: Index) -> Option<T> {
        if i >= self.nrows() || j >= self.ncols() {
            return None;
        }
        self.csr.get(i, j)
    }

    /// The stored triples, row-major (`GrB_Matrix_extractTuples`).
    pub fn extract_tuples(&self) -> (Vec<Index>, Vec<Index>, Vec<T>) {
        let mut rows = Vec::with_capacity(self.nnz());
        let mut cols = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for (i, j, v) in self.csr.iter() {
            rows.push(i);
            cols.push(j);
            vals.push(v);
        }
        (rows, cols, vals)
    }

    /// Borrow the underlying CSR.
    #[inline]
    pub fn csr(&self) -> &CsrMatrix<T> {
        &self.csr
    }

    /// Share the underlying CSR buffer (O(1); no copy).
    #[inline]
    pub fn shared_csr(&self) -> Arc<CsrMatrix<T>> {
        Arc::clone(&self.csr)
    }

    /// The underlying CSR buffer's handle, borrowed: what a cache lookup
    /// shares or pins without a reference-count round trip.
    #[inline]
    pub(crate) fn csr_handle(&self) -> &Arc<CsrMatrix<T>> {
        &self.csr
    }

    /// Consume into the underlying CSR (copies only when the buffer is
    /// shared with another handle or a cache entry).
    #[inline]
    pub fn into_csr(self) -> CsrMatrix<T> {
        Arc::try_unwrap(self.csr).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Iterate stored `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, T)> + '_ {
        self.csr.iter()
    }

    /// Set one element (`GrB_Matrix_setElement`).
    ///
    /// CSR has no cheap single-element insert, so this rebuilds the row
    /// containing `(i, j)` — `O(nnz)` worst case. Use [`Matrix::build`] for
    /// bulk construction.
    pub fn set(&mut self, i: Index, j: Index, v: T) -> Result<()> {
        if i >= self.nrows() || j >= self.ncols() {
            return Err(GblasError::IndexOutOfBounds {
                op: "setElement",
                index: if i >= self.nrows() { i } else { j },
                bound: if i >= self.nrows() {
                    self.nrows()
                } else {
                    self.ncols()
                },
            });
        }
        let mut coo = self.csr.to_coo();
        coo.push(i, j, v);
        self.replace_csr(CsrMatrix::from_coo(coo, |_, b| b)); // last write wins
        Ok(())
    }

    /// Remove one element if stored (`GrB_Matrix_removeElement`).
    pub fn remove(&mut self, i: Index, j: Index) {
        if self.get(i, j).is_none() {
            return;
        }
        let (rows, cols, vals) = self.extract_tuples();
        let triples = rows
            .into_iter()
            .zip(cols)
            .zip(vals)
            .filter(|&((r, c), _)| (r, c) != (i, j))
            .map(|((r, c), v)| (r, c, v));
        let rebuilt = Matrix::build(
            self.nrows(),
            self.ncols(),
            triples,
            gbtl_algebra::Second::new(),
        )
        .expect("indices from valid matrix");
        self.replace_csr(rebuilt.into_csr());
    }

    /// Remove all stored entries (`GrB_Matrix_clear`); dimensions unchanged.
    pub fn clear(&mut self) {
        self.replace_csr(CsrMatrix::new(self.nrows(), self.ncols()));
    }

    /// Change dimensions (`GrB_Matrix_resize`): entries outside the new
    /// bounds are dropped.
    pub fn resize(&mut self, nrows: Index, ncols: Index) {
        let (rows, cols, vals) = self.extract_tuples();
        let triples = rows
            .into_iter()
            .zip(cols)
            .zip(vals)
            .filter(|&((r, c), _)| r < nrows && c < ncols)
            .map(|((r, c), v)| (r, c, v));
        let rebuilt = Matrix::build(nrows, ncols, triples, gbtl_algebra::Second::new())
            .expect("filtered indices in bounds");
        self.replace_csr(rebuilt.into_csr());
    }
}

/// The physical layout of a [`Vector`]: a sorted coordinate list
/// (frontier-shaped) or a bitmap+values array (dense-shaped).
#[derive(Debug, Clone)]
pub(crate) enum VectorRepr<T> {
    /// Coordinate-list representation.
    Sparse(SparseVector<T>),
    /// Bitmap representation.
    Dense(DenseVector<T>),
}

/// A GraphBLAS vector.
///
/// Internally either a sorted coordinate list (frontier-shaped) or a
/// bitmap+values array (dense-shaped); operations convert as needed and the
/// representation is observable only through [`Vector::is_sparse`].
#[derive(Debug, Clone)]
pub struct Vector<T> {
    repr: VectorRepr<T>,
}

impl<T: Scalar> Vector<T> {
    fn from_repr(repr: VectorRepr<T>) -> Self {
        Vector { repr }
    }

    /// An empty sparse vector of dimension `n`.
    pub fn new(n: Index) -> Self {
        Self::from_repr(VectorRepr::Sparse(SparseVector::new(n)))
    }

    /// An empty dense-representation vector of dimension `n`.
    pub fn new_dense(n: Index) -> Self {
        Self::from_repr(VectorRepr::Dense(DenseVector::new(n)))
    }

    /// A vector with every position set to `fill`.
    pub fn filled(n: Index, fill: T) -> Self {
        Self::from_repr(VectorRepr::Dense(DenseVector::filled(n, fill)))
    }

    /// Build from `(index, value)` pairs, merging duplicates with `dup`.
    pub fn build<D: BinaryOp<T>>(
        n: Index,
        pairs: impl IntoIterator<Item = (Index, T)>,
        dup: D,
    ) -> Result<Self> {
        let v = SparseVector::from_pairs(n, pairs.into_iter().collect(), |a, b| dup.apply(a, b))?;
        Ok(Self::from_repr(VectorRepr::Sparse(v)))
    }

    /// Borrow the physical representation (frontend dispatch only).
    #[inline]
    pub(crate) fn repr(&self) -> &VectorRepr<T> {
        &self.repr
    }

    /// Take the physical representation (the output step stitches by it).
    pub(crate) fn into_repr(self) -> VectorRepr<T> {
        self.repr
    }

    /// Dimension.
    pub fn len(&self) -> Index {
        match &self.repr {
            VectorRepr::Sparse(v) => v.len(),
            VectorRepr::Dense(v) => v.len(),
        }
    }

    /// True when the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        match &self.repr {
            VectorRepr::Sparse(v) => v.nnz(),
            VectorRepr::Dense(v) => v.nnz(),
        }
    }

    /// True when currently in the coordinate-list representation.
    pub fn is_sparse(&self) -> bool {
        matches!(self.repr, VectorRepr::Sparse(_))
    }

    /// Value at `i`, or `None` when absent (or out of bounds).
    pub fn get(&self, i: Index) -> Option<T> {
        if i >= self.len() {
            return None;
        }
        match &self.repr {
            VectorRepr::Sparse(v) => v.get(i),
            VectorRepr::Dense(v) => v.get(i),
        }
    }

    /// True when position `i` holds a value.
    pub fn contains(&self, i: Index) -> bool {
        i < self.len()
            && match &self.repr {
                VectorRepr::Sparse(v) => v.contains(i),
                VectorRepr::Dense(v) => v.contains(i),
            }
    }

    /// Set the value at `i`.
    pub fn set(&mut self, i: Index, v: T) {
        match &mut self.repr {
            VectorRepr::Sparse(s) => s.set(i, v),
            VectorRepr::Dense(d) => d.set(i, v),
        }
    }

    /// Remove the value at `i` (no-op when absent).
    pub fn remove(&mut self, i: Index) {
        match &mut self.repr {
            VectorRepr::Sparse(s) => {
                s.remove(i);
            }
            VectorRepr::Dense(d) => {
                d.unset(i);
            }
        }
    }

    /// Remove all stored entries (dimension unchanged).
    pub fn clear(&mut self) {
        match &mut self.repr {
            VectorRepr::Sparse(s) => s.clear(),
            VectorRepr::Dense(d) => *d = DenseVector::new(d.len()),
        }
    }

    /// Keep the stored entries `keep(index, value)` accepts — asked once
    /// each, in index order — filtered in place; the representation is
    /// unchanged (a filter is not a switch).
    pub fn retain(&mut self, keep: impl FnMut(Index, T) -> bool) {
        match &mut self.repr {
            VectorRepr::Sparse(s) => s.retain(keep),
            VectorRepr::Dense(d) => d.retain(keep),
        }
    }

    /// Iterate stored `(index, value)` pairs in index order: the index and
    /// value arrays of the sparse form, the presence words and value slots
    /// of the bitmap form.
    pub fn iter(&self) -> impl Iterator<Item = (Index, T)> + '_ {
        match &self.repr {
            VectorRepr::Sparse(v) => Either::Sparse(v.iter()),
            VectorRepr::Dense(v) => Either::Dense(v.iter()),
        }
    }

    /// The stored pairs (`GrB_Vector_extractTuples`).
    pub fn extract_tuples(&self) -> (Vec<Index>, Vec<T>) {
        let mut idx = Vec::with_capacity(self.nnz());
        let mut vals = Vec::with_capacity(self.nnz());
        for (i, v) in self.iter() {
            idx.push(i);
            vals.push(v);
        }
        (idx, vals)
    }

    /// Switch to the dense/bitmap representation in place (O(n + nnz);
    /// no-op when already dense). The logical content is unchanged:
    /// representation is physical layout, not state, which is why
    /// [`PartialEq`] ignores it.
    pub fn densify(&mut self) {
        if let VectorRepr::Sparse(s) = &self.repr {
            crate::policy::count_rep_switch();
            self.repr = VectorRepr::Dense(s.to_dense());
        }
    }

    /// Switch to the sparse index-list representation in place (O(n);
    /// no-op when already sparse). See [`Vector::densify`] on content.
    pub fn sparsify(&mut self) {
        if let VectorRepr::Dense(d) = &self.repr {
            crate::policy::count_rep_switch();
            self.repr = VectorRepr::Sparse(d.to_sparse());
        }
    }

    /// The bitmap form of this vector — a kernel's operand, or the bulk read
    /// of a dense result through its `values()` and `contains(i)`: borrowed
    /// when the vector is stored that way (a pull frontier, every `mxv`
    /// result), converted once otherwise — an operation never deep-copies
    /// an operand that already has the layout its kernel reads.
    pub fn dense_view(&self) -> Cow<'_, DenseVector<T>> {
        match &self.repr {
            VectorRepr::Sparse(v) => Cow::Owned(v.to_dense()),
            VectorRepr::Dense(v) => Cow::Borrowed(v),
        }
    }

    /// The index-list form of this vector as a kernel operand (see
    /// [`Vector::dense_view`]).
    pub(crate) fn sparse_view(&self) -> Cow<'_, SparseVector<T>> {
        match &self.repr {
            VectorRepr::Sparse(v) => Cow::Borrowed(v),
            VectorRepr::Dense(v) => Cow::Owned(v.to_sparse()),
        }
    }

    /// Materialise a dense-representation copy.
    pub fn to_dense_repr(&self) -> DenseVector<T> {
        self.dense_view().into_owned()
    }

    /// Materialise a coordinate-list copy.
    pub fn to_sparse_repr(&self) -> SparseVector<T> {
        self.sparse_view().into_owned()
    }

    /// Change the dimension (`GrB_Vector_resize`): entries at or beyond
    /// the new length are dropped.
    pub fn resize(&mut self, n: Index) {
        let pairs: Vec<(Index, T)> = self.iter().filter(|&(i, _)| i < n).collect();
        let mut out = SparseVector::new(n);
        for (i, v) in pairs {
            out.set(i, v);
        }
        self.repr = VectorRepr::Sparse(out);
    }
}

/// [`Vector::iter`] over either representation: one match per step, and
/// one in all for a `fold` (a `for_each`, `sum`, `max` or `count`), which
/// runs the representation's own loop.
enum Either<S, D> {
    Sparse(S),
    Dense(D),
}

impl<S: Iterator, D: Iterator<Item = S::Item>> Iterator for Either<S, D> {
    type Item = S::Item;

    #[inline]
    fn next(&mut self) -> Option<S::Item> {
        match self {
            Either::Sparse(s) => s.next(),
            Either::Dense(d) => d.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Either::Sparse(s) => s.size_hint(),
            Either::Dense(d) => d.size_hint(),
        }
    }

    #[inline]
    fn fold<B, F: FnMut(B, S::Item) -> B>(self, init: B, f: F) -> B {
        match self {
            Either::Sparse(s) => s.fold(init, f),
            Either::Dense(d) => d.fold(init, f),
        }
    }
}

impl<T: Scalar> PartialEq for Vector<T> {
    /// Equality is structural + value-wise, independent of representation.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self.nnz() == other.nnz()
            && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: Scalar> From<SparseVector<T>> for Vector<T> {
    fn from(v: SparseVector<T>) -> Self {
        Self::from_repr(VectorRepr::Sparse(v))
    }
}

impl<T: Scalar> From<DenseVector<T>> for Vector<T> {
    fn from(v: DenseVector<T>) -> Self {
        Self::from_repr(VectorRepr::Dense(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbtl_algebra::Plus;

    #[test]
    fn matrix_build_and_tuples() {
        let m = Matrix::build(3, 3, [(0, 0, 1i64), (2, 1, 5), (0, 0, 2)], Plus::new()).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(0, 0), Some(3));
        let (r, c, v) = m.extract_tuples();
        assert_eq!(r, vec![0, 2]);
        assert_eq!(c, vec![0, 1]);
        assert_eq!(v, vec![3, 5]);
    }

    #[test]
    fn matrix_build_rejects_out_of_bounds() {
        let m = Matrix::build(2, 2, [(5, 0, 1i64)], Plus::new());
        assert!(m.is_err());
    }

    #[test]
    fn matrix_get_out_of_bounds_is_none() {
        let m = Matrix::<i64>::new(2, 2);
        assert_eq!(m.get(5, 5), None);
    }

    #[test]
    fn vector_representations_compare_equal() {
        let mut s = Vector::new(5);
        s.set(1, 10i64);
        s.set(3, 30);
        let mut d = Vector::new_dense(5);
        d.set(1, 10i64);
        d.set(3, 30);
        assert!(s.is_sparse() && !d.is_sparse());
        assert_eq!(s, d);
    }

    #[test]
    fn repr_round_trips_exactly() {
        let mut v = Vector::new(32);
        for i in 0..5 {
            v.set(i * 3, i as i64);
        }
        let original = v.extract_tuples();
        // through both layouts: exact tuples either way
        v.densify();
        assert!(!v.is_sparse());
        assert_eq!(v.extract_tuples(), original);
        v.sparsify();
        assert!(v.is_sparse());
        assert_eq!(v.extract_tuples(), original);
    }

    #[test]
    fn retain_filters_in_either_layout_and_keeps_it() {
        for dense in [false, true] {
            let mut v = Vector::build(70, (0..70).map(|i| (i, i as i64)), Plus::new()).unwrap();
            if dense {
                v.densify();
            }
            let mut asked = Vec::new();
            v.retain(|i, x| {
                asked.push(i);
                x % 3 == 0
            });
            assert_eq!(asked, (0..70).collect::<Vec<_>>(), "once each, in order");
            assert_eq!(v.is_sparse(), !dense);
            let want: Vec<(usize, i64)> = (0..70).step_by(3).map(|i| (i, i as i64)).collect();
            assert_eq!(v.iter().collect::<Vec<_>>(), want);
            assert_eq!(v.nnz(), want.len());
        }
    }

    #[test]
    fn bulk_constructor_and_bulk_read_round_trip() {
        let d = Vector::from(DenseVector::from_parts(vec![0, 10i64, 0, 30], vec![0b1010]));
        assert!(!d.is_sparse());
        assert_eq!(d.nnz(), 2);
        assert!(matches!(d.dense_view(), Cow::Borrowed(_)));
        let mut s = Vector::new(4);
        s.set(1, 10i64);
        s.set(3, 30);
        assert_eq!(s, d);
        assert_eq!(s.dense_view().values(), &[0, 10, 0, 30]);
        assert_eq!(*s.dense_view(), *d.dense_view());
    }

    #[test]
    fn vector_set_get_remove() {
        let mut v = Vector::new(4);
        v.set(2, 7i64);
        assert!(v.contains(2));
        assert_eq!(v.get(2), Some(7));
        v.remove(2);
        assert_eq!(v.nnz(), 0);
        assert_eq!(v.get(9), None);
    }

    #[test]
    fn vector_build_merges() {
        let v = Vector::build(4, [(1, 2i64), (1, 3)], Plus::new()).unwrap();
        assert_eq!(v.get(1), Some(5));
    }

    #[test]
    fn matrix_element_mutation() {
        let mut m = Matrix::build(3, 3, [(0usize, 0usize, 1i64)], Plus::new()).unwrap();
        m.set(1, 2, 9).unwrap();
        assert_eq!(m.get(1, 2), Some(9));
        m.set(1, 2, 10).unwrap(); // overwrite
        assert_eq!(m.get(1, 2), Some(10));
        assert!(m.set(5, 0, 1).is_err());
        m.remove(1, 2);
        assert_eq!(m.get(1, 2), None);
        m.remove(1, 2); // idempotent
        assert_eq!(m.nnz(), 1);
        m.clear();
        assert_eq!(m.nnz(), 0);
        assert_eq!((m.nrows(), m.ncols()), (3, 3));
    }

    #[test]
    fn matrix_resize_drops_out_of_bounds() {
        let mut m = Matrix::build(
            4,
            4,
            [(0usize, 0usize, 1i64), (3, 3, 2), (1, 2, 3)],
            Plus::new(),
        )
        .unwrap();
        m.resize(2, 3);
        assert_eq!((m.nrows(), m.ncols()), (2, 3));
        assert_eq!(m.get(0, 0), Some(1));
        assert_eq!(m.get(1, 2), Some(3));
        assert_eq!(m.nnz(), 2);
        // grow back: old entries stay, space extends
        m.resize(5, 5);
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.get(4, 4), None);
    }

    #[test]
    fn vector_resize() {
        let mut v = Vector::new(5);
        v.set(1, 10i64);
        v.set(4, 40);
        v.resize(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.get(1), Some(10));
        assert_eq!(v.nnz(), 1);
        v.resize(10);
        assert_eq!(v.len(), 10);
        assert_eq!(v.get(1), Some(10));
    }

    #[test]
    fn matrix_versions_advance_on_every_mutation() {
        let mut m = Matrix::build(3, 3, [(0usize, 1usize, 1i64)], Plus::new()).unwrap();
        let (id0, v0) = (m.id(), m.version());
        m.set(1, 1, 2).unwrap();
        assert_eq!(m.id(), id0, "identity is stable across mutation");
        let v1 = m.version();
        assert!(v1 > v0, "set must advance the version");
        m.remove(1, 1);
        let v2 = m.version();
        assert!(v2 > v1, "remove must advance the version");
        m.resize(2, 2);
        let v3 = m.version();
        assert!(v3 > v2, "resize must advance the version");
        m.clear();
        assert!(m.version() > v3, "clear must advance the version");
    }

    #[test]
    fn matrix_clone_shares_identity_until_mutated() {
        let m = Matrix::build(2, 2, [(0usize, 0usize, 1i64)], Plus::new()).unwrap();
        let mut c = m.clone();
        assert_eq!((c.id(), c.version()), (m.id(), m.version()));
        c.set(1, 1, 9).unwrap();
        assert_eq!(c.id(), m.id());
        assert_ne!(c.version(), m.version(), "diverged clone re-stamps");
        assert_eq!(m.get(1, 1), None, "original is unaffected");
    }

    #[test]
    fn distinct_matrices_have_distinct_ids() {
        let a = Matrix::<i64>::new(2, 2);
        let b = Matrix::<i64>::new(2, 2);
        assert_ne!(a.id(), b.id());
        assert_eq!(a, b, "identity does not participate in equality");
    }

    #[test]
    fn shared_csr_aliases_until_mutation() {
        let m = Matrix::build(2, 2, [(0usize, 1usize, 3i64)], Plus::new()).unwrap();
        let shared = m.shared_csr();
        let aliased = Matrix::from_shared(shared.clone());
        assert!(Arc::ptr_eq(&aliased.shared_csr(), &m.shared_csr()));
        let mut d = aliased.clone();
        d.set(1, 0, 7).unwrap();
        assert!(!Arc::ptr_eq(&d.shared_csr(), &shared));
        assert_eq!(m.get(1, 0), None);
    }
}
