//! GraphBLAS `build`: a CSR matrix from COO triples.

use gbtl_algebra::{BinaryOp, Scalar};
use gbtl_sparse::{CooMatrix, CsrMatrix};

/// Build CSR from COO triples, folding a coordinate's duplicates with `dup`
/// left to right in input order (the [`CooMatrix::sort_dedup`] contract).
pub fn build<T, D>(coo: &CooMatrix<T>, dup: D) -> CsrMatrix<T>
where
    T: Scalar,
    D: BinaryOp<T>,
{
    CsrMatrix::from_coo(coo.clone(), |a, b| dup.apply(a, b))
}
