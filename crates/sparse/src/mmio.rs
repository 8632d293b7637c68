//! Matrix Market (`.mtx`) coordinate-format I/O.
//!
//! Supports the subset used for sparse graph interchange:
//! `matrix coordinate {real|integer|pattern} {general|symmetric|skew-symmetric}`.
//! Symmetric inputs are expanded to general form on read (the convention
//! every GraphBLAS loader follows), with diagonal entries emitted once.

use std::io::{BufRead, Write};

use gbtl_algebra::Scalar;

use crate::{CooMatrix, Index, SparseError};

/// Scalar types that can be read from / written to Matrix Market streams.
pub trait MmValue: Scalar {
    /// The `field` keyword to write in the banner (`real`, `integer`, or
    /// `pattern`).
    fn field() -> &'static str;
    /// Parse a value token. `None` input means the file is `pattern` and the
    /// implicit value should be used.
    fn parse(tok: Option<&str>) -> Result<Self, String>;
    /// Render the value for writing (empty string for pattern).
    fn render(&self) -> String;
    /// Negation for skew-symmetric expansion; identity for types without a
    /// meaningful negation.
    fn negate(self) -> Self;
}

macro_rules! impl_mm_float {
    ($($t:ty),*) => {$(
        impl MmValue for $t {
            fn field() -> &'static str { "real" }
            fn parse(tok: Option<&str>) -> Result<Self, String> {
                match tok {
                    Some(s) => s.parse::<$t>().map_err(|e| e.to_string()),
                    None => Ok(1.0),
                }
            }
            fn render(&self) -> String { format!("{self}") }
            fn negate(self) -> Self { -self }
        }
    )*};
}

macro_rules! impl_mm_sint {
    ($($t:ty),*) => {$(
        impl MmValue for $t {
            fn field() -> &'static str { "integer" }
            fn parse(tok: Option<&str>) -> Result<Self, String> {
                match tok {
                    Some(s) => s.parse::<$t>().map_err(|e| e.to_string()),
                    None => Ok(1),
                }
            }
            fn render(&self) -> String { format!("{self}") }
            fn negate(self) -> Self { -self }
        }
    )*};
}

macro_rules! impl_mm_uint {
    ($($t:ty),*) => {$(
        impl MmValue for $t {
            fn field() -> &'static str { "integer" }
            fn parse(tok: Option<&str>) -> Result<Self, String> {
                match tok {
                    Some(s) => s.parse::<$t>().map_err(|e| e.to_string()),
                    None => Ok(1),
                }
            }
            fn render(&self) -> String { format!("{self}") }
            fn negate(self) -> Self { self }
        }
    )*};
}

impl_mm_float!(f32, f64);
impl_mm_sint!(i32, i64);
impl_mm_uint!(u32, u64, usize);

impl MmValue for bool {
    fn field() -> &'static str {
        "pattern"
    }
    fn parse(tok: Option<&str>) -> Result<Self, String> {
        match tok {
            Some("0") => Ok(false),
            _ => Ok(true),
        }
    }
    fn render(&self) -> String {
        String::new()
    }
    fn negate(self) -> Self {
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Entries [`read_coo`] reserves room for before it has read any.
const RESERVE_AHEAD: usize = 4096;

/// The largest matrix a reader accepts. A size line declaring more rows
/// or columns is an error before anything is allocated — a CSR built from
/// the result sizes its row pointers by the claim, not by the entries — and
/// so is one declaring, or an entry taking the stored count past, more
/// entries (symmetric ones expanded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmLimits {
    /// Most rows, and most columns.
    pub max_dim: usize,
    /// Most stored entries.
    pub max_entries: usize,
}

impl MmLimits {
    /// What [`read_coo`] accepts: 2²⁸ rows and columns, past every matrix
    /// of the SuiteSparse collection (the largest has 2.3·10⁸ rows), where
    /// a CSR's row pointers alone are 2 GiB; entries without bound, since
    /// the stream itself must hold them.
    pub const DEFAULT: MmLimits = MmLimits {
        max_dim: 1 << 28,
        max_entries: usize::MAX,
    };

    /// `Err` when `count` of `what` passes `max`.
    fn check(what: &'static str, count: usize, max: usize) -> Result<(), SparseError> {
        if count <= max {
            Ok(())
        } else {
            Err(SparseError::TooLarge { what, count, max })
        }
    }
}

/// Read a coordinate Matrix Market stream into a [`CooMatrix`] within
/// [`MmLimits::DEFAULT`] (see [`read_coo_within`]).
pub fn read_coo<T: MmValue, R: BufRead>(reader: R) -> Result<CooMatrix<T>, SparseError> {
    read_coo_within(reader, MmLimits::DEFAULT)
}

/// Read a coordinate Matrix Market stream into a [`CooMatrix`] no larger
/// than `limits`.
///
/// Pattern files yield the type's implicit value (`1` / `true`); symmetric
/// files are expanded. The result may contain duplicates if the file does;
/// callers typically hand it to `CsrMatrix::from_coo` with a dup operator.
/// Memory grows with the entries the stream holds, never with what its
/// size line claims; a malformed stream is an error, never a panic, and a
/// stream past `limits` is a [`SparseError::TooLarge`].
pub fn read_coo_within<T: MmValue, R: BufRead>(
    reader: R,
    limits: MmLimits,
) -> Result<CooMatrix<T>, SparseError> {
    let mut lines = reader.lines().enumerate();

    // Banner.
    let (banner_no, banner) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (no + 1, line);
                }
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    detail: "empty stream (no banner)".into(),
                })
            }
        }
    };
    let toks: Vec<String> = banner
        .split_whitespace()
        .map(|t| t.to_lowercase())
        .collect();
    if toks.len() < 5 || toks[0] != "%%matrixmarket" || toks[1] != "matrix" {
        return Err(SparseError::Parse {
            line: banner_no,
            detail: format!("bad banner: {banner:?}"),
        });
    }
    if toks[2] != "coordinate" {
        return Err(SparseError::Parse {
            line: banner_no,
            detail: format!("unsupported format {:?} (only coordinate)", toks[2]),
        });
    }
    let pattern = match toks[3].as_str() {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(SparseError::Parse {
                line: banner_no,
                detail: format!("unsupported field {other:?}"),
            })
        }
    };
    let symmetry = match toks[4].as_str() {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse {
                line: banner_no,
                detail: format!("unsupported symmetry {other:?}"),
            })
        }
    };

    // Size line (after comments).
    let (size_no, size_line) = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('%') {
                    continue;
                }
                break (no + 1, line);
            }
            None => {
                return Err(SparseError::Parse {
                    line: 0,
                    detail: "missing size line".into(),
                })
            }
        }
    };
    let dims: Vec<&str> = size_line.split_whitespace().collect();
    if dims.len() != 3 {
        return Err(SparseError::Parse {
            line: size_no,
            detail: format!("size line must be `nrows ncols nnz`, got {size_line:?}"),
        });
    }
    let parse_dim = |s: &str, what: &str| -> Result<usize, SparseError> {
        s.parse::<usize>().map_err(|e| SparseError::Parse {
            line: size_no,
            detail: format!("bad {what}: {e}"),
        })
    };
    let nrows = parse_dim(dims[0], "nrows")?;
    let ncols = parse_dim(dims[1], "ncols")?;
    let nnz = parse_dim(dims[2], "nnz")?;
    MmLimits::check("rows", nrows, limits.max_dim)?;
    MmLimits::check("columns", ncols, limits.max_dim)?;
    MmLimits::check("entries", nnz, limits.max_entries)?;
    if symmetry != Symmetry::General && nrows != ncols {
        return Err(SparseError::Parse {
            line: size_no,
            detail: format!("a symmetric matrix must be square, got {nrows}x{ncols}"),
        });
    }

    // The size line is a claim, not a promise: reserve for at most
    // `RESERVE_AHEAD` of its entries, and let the buffers grow with the
    // entries actually read.
    let per_entry = if symmetry == Symmetry::General { 1 } else { 2 };
    let mut coo = CooMatrix::with_capacity(nrows, ncols, nnz.min(RESERVE_AHEAD) * per_entry);
    let mut seen = 0usize;
    for (no, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        if seen == nnz {
            return Err(SparseError::Parse {
                line: no + 1,
                detail: format!("size line declared {nnz} entries, the stream holds more"),
            });
        }
        let mut it = t.split_whitespace();
        let (r_tok, c_tok) = match (it.next(), it.next()) {
            (Some(r), Some(c)) => (r, c),
            _ => {
                return Err(SparseError::Parse {
                    line: no + 1,
                    detail: format!("entry line too short: {t:?}"),
                })
            }
        };
        let parse_idx = |s: &str| -> Result<usize, SparseError> {
            let v = s.parse::<usize>().map_err(|e| SparseError::Parse {
                line: no + 1,
                detail: format!("bad index: {e}"),
            })?;
            if v == 0 {
                return Err(SparseError::Parse {
                    line: no + 1,
                    detail: "Matrix Market indices are 1-based; got 0".into(),
                });
            }
            Ok(v - 1)
        };
        let r = parse_idx(r_tok)?;
        let c = parse_idx(c_tok)?;
        let v =
            T::parse(if pattern { None } else { it.next() }).map_err(|e| SparseError::Parse {
                line: no + 1,
                detail: format!("bad value: {e}"),
            })?;
        coo.try_push(r, c, v).map_err(|_| SparseError::Parse {
            line: no + 1,
            detail: format!("entry ({}, {}) exceeds {nrows}x{ncols}", r + 1, c + 1),
        })?;
        match symmetry {
            Symmetry::General => {}
            Symmetry::Symmetric if r != c => coo.push(c, r, v),
            Symmetry::SkewSymmetric if r != c => coo.push(c, r, v.negate()),
            _ => {}
        }
        MmLimits::check("entries", coo.nnz(), limits.max_entries)?;
        seen += 1;
    }
    if seen != nnz {
        return Err(SparseError::Parse {
            line: 0,
            detail: format!("size line declared {nnz} entries but stream held {seen}"),
        });
    }
    Ok(coo)
}

/// Write a [`CooMatrix`] as a general coordinate Matrix Market stream.
pub fn write_coo<T: MmValue, W: Write>(coo: &CooMatrix<T>, mut w: W) -> Result<(), SparseError> {
    writeln!(w, "%%MatrixMarket matrix coordinate {} general", T::field())?;
    writeln!(w, "{} {} {}", coo.nrows(), coo.ncols(), coo.nnz())?;
    for (r, c, v) in coo.iter() {
        let rendered = v.render();
        if rendered.is_empty() {
            writeln!(w, "{} {}", r + 1, c + 1)?;
        } else {
            writeln!(w, "{} {} {}", r + 1, c + 1, rendered)?;
        }
    }
    Ok(())
}

/// Convenience: read a file from disk.
pub fn read_coo_file<T: MmValue>(path: &std::path::Path) -> Result<CooMatrix<T>, SparseError> {
    let f = std::fs::File::open(path)?;
    read_coo(std::io::BufReader::new(f))
}

/// Convenience: write a file to disk.
pub fn write_coo_file<T: MmValue>(
    coo: &CooMatrix<T>,
    path: &std::path::Path,
) -> Result<(), SparseError> {
    let f = std::fs::File::create(path)?;
    write_coo(coo, std::io::BufWriter::new(f))
}

/// An [`Index`]-typed alias used by graph loaders that only need structure.
pub fn read_pattern<R: BufRead>(reader: R) -> Result<CooMatrix<bool>, SparseError> {
    read_coo::<bool, R>(reader)
}

#[allow(dead_code)]
fn _assert_index_is_usize(i: Index) -> usize {
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_general_real() {
        let src = "\
%%MatrixMarket matrix coordinate real general
% a comment
3 3 2
1 1 1.5
3 2 -2.0
";
        let coo = read_coo::<f64, _>(src.as_bytes()).unwrap();
        assert_eq!((coo.nrows(), coo.ncols(), coo.nnz()), (3, 3, 2));
        let t: Vec<_> = coo.iter().collect();
        assert_eq!(t, vec![(0, 0, 1.5), (2, 1, -2.0)]);
    }

    #[test]
    fn read_symmetric_expands() {
        let src = "\
%%MatrixMarket matrix coordinate integer symmetric
3 3 3
2 1 7
3 3 9
3 1 4
";
        let coo = read_coo::<i64, _>(src.as_bytes()).unwrap();
        // off-diagonals doubled, diagonal kept single
        assert_eq!(coo.nnz(), 5);
        let mut t: Vec<_> = coo.iter().collect();
        t.sort();
        assert_eq!(
            t,
            vec![(0, 1, 7), (0, 2, 4), (1, 0, 7), (2, 0, 4), (2, 2, 9)]
        );
    }

    #[test]
    fn read_skew_symmetric_negates() {
        let src = "\
%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.0
";
        let coo = read_coo::<f64, _>(src.as_bytes()).unwrap();
        let mut t: Vec<_> = coo.iter().collect();
        t.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(t, vec![(0, 1, -3.0), (1, 0, 3.0)]);
    }

    #[test]
    fn read_pattern_defaults_to_true() {
        let src = "\
%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
";
        let coo = read_coo::<bool, _>(src.as_bytes()).unwrap();
        assert!(coo.iter().all(|(_, _, v)| v));
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(read_coo::<f64, _>("not a banner\n1 1 0\n".as_bytes()).is_err());
        // 0-based index
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_coo::<f64, _>(src.as_bytes()).is_err());
        // count mismatch
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_coo::<f64, _>(src.as_bytes()).is_err());
        // out-of-bounds entry
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_coo::<f64, _>(src.as_bytes()).is_err());
        // dense/array format unsupported
        let src = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(read_coo::<f64, _>(src.as_bytes()).is_err());
    }

    #[test]
    fn write_read_round_trip() {
        let mut coo = CooMatrix::<f64>::new(4, 5);
        coo.push(0, 0, 1.25);
        coo.push(3, 4, -2.5);
        coo.push(1, 2, 1e10);
        let mut buf = Vec::new();
        write_coo(&coo, &mut buf).unwrap();
        let back = read_coo::<f64, _>(&buf[..]).unwrap();
        assert_eq!(back, coo);
    }

    #[test]
    fn pattern_round_trip() {
        let mut coo = CooMatrix::<bool>::new(2, 2);
        coo.push(0, 1, true);
        let mut buf = Vec::new();
        write_coo(&coo, &mut buf).unwrap();
        let s = String::from_utf8(buf.clone()).unwrap();
        assert!(s.contains("pattern"));
        let back = read_coo::<bool, _>(&buf[..]).unwrap();
        assert_eq!(back, coo);
    }
}
