#![warn(missing_docs)]

//! Sparse containers for GBTL-RS.
//!
//! The containers here are deliberately *dumb*: they store structure and
//! values and validate invariants, while all algebra lives in the backends.
//! This mirrors GBTL's split between its `Matrix`/`Vector` storage classes
//! and the operation templates.
//!
//! Formats:
//!
//! * [`CooMatrix`] — coordinate triples; the build/interchange format.
//! * [`CsrMatrix`] — compressed sparse row; the one operand format. The
//!   GPU formats of experiment R-A1 (ELL, HYB) are charge profiles over it
//!   in the cuda-sim backend, not containers (ADR 0007).
//! * [`SparseVector`] — sorted coordinate list; frontier-style vectors.
//! * [`DenseVector`] — bitmap + values; dense iterate-everything vectors.
//!
//! Plus [`mmio`] for Matrix Market interchange and [`snapshot`] for the
//! binary `.gbsnap` bulk-load format.

mod coo;
mod csr;
pub mod mmio;
pub mod snapshot;
mod vector;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use vector::{DenseVector, SparseVector, VecMask};

/// Index type used across GBTL-RS. `usize` keeps slice indexing natural; the
/// GraphBLAS spec's `GrB_Index` (u64) round-trips losslessly on 64-bit
/// platforms.
pub type Index = usize;

/// Errors raised by container constructors and the Matrix Market reader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparseError {
    /// A row or column index was out of bounds for the stated dimensions.
    IndexOutOfBounds {
        /// Offending row index.
        row: Index,
        /// Offending column index.
        col: Index,
        /// Number of rows in the container.
        nrows: Index,
        /// Number of columns in the container.
        ncols: Index,
    },
    /// Parallel structure/value arrays disagree in length.
    LengthMismatch {
        /// What the mismatch was.
        detail: String,
    },
    /// A compressed structure (row_ptr/col_ptr, sorted indices) is invalid.
    InvalidStructure {
        /// What the violation was.
        detail: String,
    },
    /// The Matrix Market stream could not be parsed.
    Parse {
        /// 1-based line where parsing failed (0 when unknown).
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// I/O failure while reading or writing.
    Io(String),
    /// A Matrix Market stream declares, or holds, more than its reader's
    /// [`mmio::MmLimits`] allow.
    TooLarge {
        /// What was counted: `"rows"`, `"columns"` or `"entries"`.
        what: &'static str,
        /// How many the stream declared (rows, columns) or stored (entries).
        count: usize,
        /// The most the limits allow.
        max: usize,
    },
}

impl std::fmt::Display for SparseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {nrows}x{ncols} container"
            ),
            SparseError::LengthMismatch { detail } => write!(f, "length mismatch: {detail}"),
            SparseError::InvalidStructure { detail } => write!(f, "invalid structure: {detail}"),
            SparseError::Parse { line, detail } => {
                write!(f, "parse error at line {line}: {detail}")
            }
            SparseError::Io(e) => write!(f, "i/o error: {e}"),
            SparseError::TooLarge { what, count, max } => {
                write!(f, "{count} {what}, more than the {max} allowed")
            }
        }
    }
}

impl std::error::Error for SparseError {}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e.to_string())
    }
}
