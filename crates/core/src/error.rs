//! Frontend error type — GraphBLAS "API errors", raised before any backend
//! work happens.

use gbtl_sparse::SparseError;

/// Errors reported by the GraphBLAS frontend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GblasError {
    /// Operand shapes are incompatible for the requested operation.
    DimensionMismatch {
        /// Which operation raised the error.
        op: &'static str,
        /// Human-readable description of the offending shapes.
        detail: String,
    },
    /// An index (extract/assign lists, element access) is out of bounds.
    IndexOutOfBounds {
        /// Which operation raised the error.
        op: &'static str,
        /// The offending index.
        index: usize,
        /// The bound it violated.
        bound: usize,
    },
    /// A scalar argument is outside the range the operation is defined on
    /// (GraphBLAS `GrB_INVALID_VALUE`).
    InvalidValue {
        /// Which operation raised the error.
        op: &'static str,
        /// What was wrong with which argument.
        detail: String,
    },
    /// A container-level error (construction, I/O) bubbled up.
    Container(SparseError),
}

impl std::fmt::Display for GblasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GblasError::DimensionMismatch { op, detail } => {
                write!(f, "{op}: dimension mismatch ({detail})")
            }
            GblasError::IndexOutOfBounds { op, index, bound } => {
                write!(f, "{op}: index {index} out of bounds ({bound})")
            }
            GblasError::InvalidValue { op, detail } => write!(f, "{op}: invalid value ({detail})"),
            GblasError::Container(e) => write!(f, "container error: {e}"),
        }
    }
}

impl std::error::Error for GblasError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GblasError::Container(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for GblasError {
    fn from(e: SparseError) -> Self {
        GblasError::Container(e)
    }
}

/// Frontend result alias.
pub type Result<T> = std::result::Result<T, GblasError>;

pub(crate) fn dim_err(op: &'static str, detail: String) -> GblasError {
    GblasError::DimensionMismatch { op, detail }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = dim_err("mxm", "2x3 * 2x2".into());
        assert_eq!(format!("{e}"), "mxm: dimension mismatch (2x3 * 2x2)");
        let e = GblasError::IndexOutOfBounds {
            op: "extract",
            index: 9,
            bound: 4,
        };
        assert!(format!("{e}").contains("index 9"));
    }

    #[test]
    fn sparse_error_converts() {
        let s = SparseError::Io("boom".into());
        let g: GblasError = s.into();
        assert!(matches!(g, GblasError::Container(_)));
    }
}
