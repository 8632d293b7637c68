//! Shared helpers: argument checks, typed pattern matrices and triangular
//! extraction.

use gbtl_algebra::{Scalar, Second, UnaryOp};
use gbtl_core::{Backend, Context, GblasError, Matrix, Result};

/// Unary op returning a constant, used to retype structure matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Const<A, T>(pub T, std::marker::PhantomData<fn() -> A>);

impl<A, T> Const<A, T> {
    /// Constant op producing `value` for every input.
    pub fn new(value: T) -> Self {
        Const(value, std::marker::PhantomData)
    }
}

impl<A: Scalar, T: Scalar> UnaryOp<A> for Const<A, T> {
    type Output = T;
    #[inline(always)]
    fn apply(&self, _a: A) -> T {
        self.0
    }
}

/// An adjacency must be square: `Err(DimensionMismatch)` — never a panic —
/// when it is not.
pub(crate) fn check_square<T: Scalar>(op: &'static str, a: &Matrix<T>) -> Result<()> {
    if a.nrows() == a.ncols() {
        Ok(())
    } else {
        Err(GblasError::DimensionMismatch {
            op,
            detail: format!("adjacency must be square, got {}x{}", a.nrows(), a.ncols()),
        })
    }
}

/// A traversal's arguments: a square adjacency ([`check_square`]) and
/// sources that each name a vertex — `Err(IndexOutOfBounds)`, never a
/// panic, for one that does not. Returns the vertex count.
pub(crate) fn check_traversal<T: Scalar>(
    op: &'static str,
    a: &Matrix<T>,
    sources: &[usize],
) -> Result<usize> {
    check_square(op, a)?;
    let bound = a.nrows();
    match sources.iter().find(|&&src| src >= bound) {
        Some(&index) => Err(GblasError::IndexOutOfBounds { op, index, bound }),
        None => Ok(bound),
    }
}

/// Retype a structure matrix: every stored entry becomes `one`.
///
/// A copy of the graph, for callers that need typed *values* they will
/// change ([`crate::k_truss`]'s support matrix) or read with an arithmetic
/// multiply. An algorithm that only reads structure passes the boolean
/// adjacency itself to a `Second`/`First`/`Pair` semiring instead
/// (DESIGN.md, "structure-only operands").
pub fn pattern_matrix<B: Backend, A: Scalar, T: Scalar>(
    ctx: &Context<B>,
    a: &Matrix<A>,
    one: T,
) -> Matrix<T> {
    ctx.apply_mat_new(Const::<A, T>::new(one), a)
}

/// Strictly-lower-triangular part of `A` (host-side structural filter — a
/// preprocessing step identical for both backends).
pub fn tril<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    let (rows, cols, vals) = a.extract_tuples();
    let triples = rows
        .into_iter()
        .zip(cols)
        .zip(vals)
        .filter(|&((i, j), _)| j < i)
        .map(|((i, j), v)| (i, j, v));
    Matrix::build(a.nrows(), a.ncols(), triples, Second::new())
}

/// Strictly-upper-triangular part of `A`.
pub fn triu<T: Scalar>(a: &Matrix<T>) -> Result<Matrix<T>> {
    let (rows, cols, vals) = a.extract_tuples();
    let triples = rows
        .into_iter()
        .zip(cols)
        .zip(vals)
        .filter(|&((i, j), _)| j > i)
        .map(|((i, j), v)| (i, j, v));
    Matrix::build(a.nrows(), a.ncols(), triples, Second::new())
}

/// Build a boolean adjacency [`Matrix`] from an edge-list COO: duplicates
/// and self-loops dropped, every stored entry (a `false` one too) an edge.
/// The usual bridge from a generator or Matrix Market file to the
/// algorithm suite; [`gbtl_sparse::CsrMatrix::pattern`] does the work.
pub fn adjacency(coo: gbtl_sparse::CooMatrix<bool>) -> Matrix<bool> {
    let (rows, cols, _) = coo.triples();
    Matrix::from_csr(gbtl_sparse::CsrMatrix::pattern(
        coo.nrows(),
        coo.ncols(),
        rows,
        cols,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_matrix_retypes() {
        let ctx = Context::sequential();
        let a = Matrix::build(2, 2, [(0usize, 1usize, true)], Second::new()).unwrap();
        let p = pattern_matrix(&ctx, &a, 1u64);
        assert_eq!(p.get(0, 1), Some(1));
        assert_eq!(p.nnz(), 1);
    }

    #[test]
    fn tril_triu_partition_off_diagonals() {
        let a = Matrix::build(
            3,
            3,
            [
                (0usize, 1usize, 1i64),
                (1, 0, 2),
                (1, 1, 3),
                (2, 0, 4),
                (0, 2, 5),
            ],
            Second::new(),
        )
        .unwrap();
        let l = tril(&a).unwrap();
        let u = triu(&a).unwrap();
        assert_eq!(l.nnz(), 2); // (1,0), (2,0)
        assert_eq!(u.nnz(), 2); // (0,1), (0,2)
        assert_eq!(l.get(1, 0), Some(2));
        assert_eq!(u.get(0, 2), Some(5));
        assert_eq!(l.get(1, 1), None); // diagonal excluded
    }
}
