//! Binary CSR section codec for `.gbsnap` snapshot files.
//!
//! A *section* is one [`CsrMatrix`] serialized so that loading is a
//! length-checked bulk read with near-zero parse work — the opposite end of
//! the spectrum from [`crate::mmio`]'s line-by-line text format. The layout
//! (all integers little-endian):
//!
//! ```text
//! offset  size            field
//! 0       4               section magic  b"CSR1"
//! 4       1               value tag      (bool=1, u32=2, u64=3, f64=4)
//! 5       1               value width    (bytes per value)
//! 6       1               index width    (4 or 8 bytes per index)
//! 7       1               reserved       (zero)
//! 8       8               nrows          (u64)
//! 16      8               ncols          (u64)
//! 24      8               nnz            (u64)
//! 32      (nrows+1)*iw    row_ptr        (u32 or u64 each)
//! ..      nnz*iw          col_idx        (u32 or u64 each)
//! ..      nnz*width       vals
//! ..      8               checksum: [`checksum_fold`] chained over the
//!                         header, row_ptr, col_idx, and vals parts
//! ```
//!
//! The writer picks the narrow 4-byte index width whenever nrows, ncols,
//! and nnz all fit in `u32` — which covers every graph this workspace
//! builds and halves the dominant index-array cost on both the write and
//! the bulk-read path. The 8-byte width remains for huge graphs and the
//! reader accepts both.
//!
//! The reader validates in order: magic, tag/width against the expected
//! scalar type, dimension sanity, exact byte counts for every array, read
//! with allocation bounded by the bytes actually present (so a corrupt
//! header cannot trigger a huge allocation, and truncation surfaces as
//! [`SparseError::Io`], never a panic), the
//! trailing checksum, and finally the full CSR invariants via
//! [`CsrMatrix::from_parts`]. Any failure yields a diagnostic
//! [`SparseError`]; on success the arrays are moved, not copied.

use std::io::{Read, Write};

use gbtl_algebra::Scalar;

use crate::{CsrMatrix, Index, SparseError};

/// Section magic: "CSR" + format revision 1.
pub const SECTION_MAGIC: [u8; 4] = *b"CSR1";

/// Upper bound on nrows/ncols accepted by the reader. Guards allocation
/// size on corrupt headers; far above any graph this workspace builds.
pub const MAX_DIM: u64 = 1 << 40;

/// Scalars that know their fixed-width binary encoding in a snapshot
/// section. Width and tag are part of the on-disk format: changing either
/// for an existing impl requires a new section magic.
pub trait SnapshotScalar: Scalar {
    /// On-disk type tag, checked by the reader.
    const TAG: u8;
    /// Encoded size in bytes.
    const WIDTH: usize;
    /// Append the little-endian encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode from exactly [`SnapshotScalar::WIDTH`] bytes.
    fn decode(bytes: &[u8]) -> Self;
}

impl SnapshotScalar for bool {
    const TAG: u8 = 1;
    const WIDTH: usize = 1;
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(bytes: &[u8]) -> Self {
        bytes[0] != 0
    }
}

impl SnapshotScalar for u32 {
    const TAG: u8 = 2;
    const WIDTH: usize = 4;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Self {
        u32::from_le_bytes(bytes.try_into().expect("4-byte slice"))
    }
}

impl SnapshotScalar for u64 {
    const TAG: u8 = 3;
    const WIDTH: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Self {
        u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
    }
}

impl SnapshotScalar for f64 {
    const TAG: u8 = 4;
    const WIDTH: usize = 8;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(bytes: &[u8]) -> Self {
        f64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
    }
}

/// The `.gbsnap` checksum: a word-wise FNV-style fold, part of the file
/// format, and not FNV-1a (`gbtl_util::hash` is that). It folds `bytes`
/// into `h` 8 little-endian bytes per multiply by the FNV prime instead
/// of 1, preceded by the byte length (so a zero-padded tail cannot
/// collide with explicit trailing zeros): roughly 8x byte-wise FNV-1a's
/// throughput on the multi-megabyte array sections a snapshot holds.
/// Each call folds one logical chunk; chain calls to cover several.
pub fn checksum_fold(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    h = (h ^ bytes.len() as u64).wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h
}

/// The state a [`checksum_fold`] chain starts from (the FNV offset
/// basis's value).
pub const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Serialize `m` as one snapshot section appended to `w`. Returns the
/// number of bytes written.
pub fn write_csr<T: SnapshotScalar, W: Write>(
    w: &mut W,
    m: &CsrMatrix<T>,
) -> Result<u64, SparseError> {
    // Build the section in memory first: the checksum covers every byte
    // before it, and sections are small relative to the graphs they hold.
    let nnz = m.nnz();
    let narrow = (m.nrows() as u64) < (1 << 32)
        && (m.ncols() as u64) < (1 << 32)
        && (nnz as u64) < (1 << 32);
    let iw: usize = if narrow { 4 } else { 8 };
    let mut buf = Vec::with_capacity(32 + (m.nrows() + 1) * iw + nnz * (iw + T::WIDTH));
    buf.extend_from_slice(&SECTION_MAGIC);
    buf.push(T::TAG);
    buf.push(T::WIDTH as u8);
    buf.push(iw as u8);
    buf.push(0);
    buf.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
    buf.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
    buf.extend_from_slice(&(nnz as u64).to_le_bytes());
    if narrow {
        for &p in m.row_ptr() {
            buf.extend_from_slice(&(p as u32).to_le_bytes());
        }
        for &c in m.col_idx() {
            buf.extend_from_slice(&(c as u32).to_le_bytes());
        }
    } else {
        for &p in m.row_ptr() {
            buf.extend_from_slice(&(p as u64).to_le_bytes());
        }
        for &c in m.col_idx() {
            buf.extend_from_slice(&(c as u64).to_le_bytes());
        }
    }
    for v in m.vals() {
        v.encode(&mut buf);
    }
    // checksum part-wise so the reader (which holds the parts as separate
    // buffers) can chain the identical folds
    let rp_end = 32 + (m.nrows() + 1) * iw;
    let ci_end = rp_end + nnz * iw;
    let mut checksum = checksum_fold(CHECKSUM_SEED, &buf[..32]);
    checksum = checksum_fold(checksum, &buf[32..rp_end]);
    checksum = checksum_fold(checksum, &buf[rp_end..ci_end]);
    checksum = checksum_fold(checksum, &buf[ci_end..]);
    buf.extend_from_slice(&checksum.to_le_bytes());
    w.write_all(&buf)?;
    Ok(buf.len() as u64)
}

/// Read exactly `n` bytes, mapping truncation to a diagnostic
/// [`SparseError::Io`]. The buffer grows with the bytes that arrive, never
/// to what a header claims: a section cut short, or a forged header over a
/// few bytes, costs an allocation on the order of the bytes present.
fn read_exactly<R: Read>(r: &mut R, n: usize, what: &str) -> Result<Vec<u8>, SparseError> {
    let mut buf = Vec::new();
    let truncated = |got: usize| {
        SparseError::Io(format!(
            "snapshot section truncated while reading {what}: {got} of {n} bytes"
        ))
    };
    match r.take(n as u64).read_to_end(&mut buf) {
        Ok(got) if got == n => Ok(buf),
        Ok(got) => Err(truncated(got)),
        Err(e) => Err(SparseError::Io(format!(
            "snapshot section unreadable while reading {what}: {e}"
        ))),
    }
}

/// Decode an index array written `iw` (4 or 8) bytes per element. The
/// narrow width needs no per-element plausibility check: every `u32` is
/// far below [`MAX_DIM`]`*64`.
fn decode_indices(bytes: &[u8], iw: usize, what: &str) -> Result<Vec<Index>, SparseError> {
    let mut out = Vec::with_capacity(bytes.len() / iw);
    if iw == 4 {
        for chunk in bytes.chunks_exact(4) {
            out.push(u32::from_le_bytes(chunk.try_into().expect("4-byte chunk")) as Index);
        }
        return Ok(out);
    }
    for chunk in bytes.chunks_exact(8) {
        let v = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        if v > MAX_DIM * 64 {
            return Err(SparseError::InvalidStructure {
                detail: format!("snapshot {what} entry {v} is implausibly large"),
            });
        }
        out.push(v as Index);
    }
    Ok(out)
}

/// Deserialize one snapshot section written by [`write_csr`] for the same
/// scalar type. Fully validates the result; see the module docs for the
/// failure taxonomy.
pub fn read_csr<T: SnapshotScalar, R: Read>(r: &mut R) -> Result<CsrMatrix<T>, SparseError> {
    let header = read_exactly(r, 32, "header")?;
    if header[0..4] != SECTION_MAGIC {
        return Err(SparseError::InvalidStructure {
            detail: format!(
                "bad snapshot section magic {:?} (want {:?})",
                &header[0..4],
                SECTION_MAGIC
            ),
        });
    }
    if header[4] != T::TAG || header[5] != T::WIDTH as u8 {
        return Err(SparseError::InvalidStructure {
            detail: format!(
                "snapshot section holds value tag {} width {}, expected tag {} width {}",
                header[4],
                header[5],
                T::TAG,
                T::WIDTH
            ),
        });
    }
    let iw = header[6] as usize;
    if iw != 4 && iw != 8 {
        return Err(SparseError::InvalidStructure {
            detail: format!("snapshot section index width {iw} is not 4 or 8"),
        });
    }
    let nrows = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
    let ncols = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
    let nnz = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
    if nrows > MAX_DIM || ncols > MAX_DIM || nnz > MAX_DIM * 64 {
        return Err(SparseError::InvalidStructure {
            detail: format!("snapshot header dimensions implausible: {nrows}x{ncols}, nnz {nnz}"),
        });
    }
    let row_ptr_bytes = read_exactly(r, (nrows as usize + 1) * iw, "row_ptr")?;
    let col_idx_bytes = read_exactly(r, nnz as usize * iw, "col_idx")?;
    let val_bytes = read_exactly(r, nnz as usize * T::WIDTH, "vals")?;
    let stored = read_exactly(r, 8, "checksum")?;
    let stored = u64::from_le_bytes(stored[..].try_into().expect("8 bytes"));

    let mut h = checksum_fold(CHECKSUM_SEED, &header);
    for part in [&row_ptr_bytes, &col_idx_bytes, &val_bytes] {
        h = checksum_fold(h, part);
    }
    if h != stored {
        return Err(SparseError::InvalidStructure {
            detail: format!(
                "snapshot checksum mismatch: stored {stored:#018x}, computed {h:#018x}"
            ),
        });
    }

    let row_ptr = decode_indices(&row_ptr_bytes, iw, "row_ptr")?;
    let col_idx = decode_indices(&col_idx_bytes, iw, "col_idx")?;
    let vals: Vec<T> = val_bytes.chunks_exact(T::WIDTH).map(T::decode).collect();
    CsrMatrix::from_parts(nrows as Index, ncols as Index, row_ptr, col_idx, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<u32> {
        CsrMatrix::from_parts(
            3,
            4,
            vec![0, 2, 2, 5],
            vec![0, 3, 0, 1, 2],
            vec![10, 20, 30, 40, 50],
        )
        .expect("valid sample")
    }

    #[test]
    fn round_trips_u32_and_bool() {
        let m = sample();
        let mut buf = Vec::new();
        let written = write_csr(&mut buf, &m).expect("write");
        assert_eq!(written as usize, buf.len());
        let back: CsrMatrix<u32> = read_csr(&mut buf.as_slice()).expect("read");
        assert_eq!(back, m);

        let b = CsrMatrix::from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![true, true])
            .expect("valid bool matrix");
        let mut buf = Vec::new();
        write_csr(&mut buf, &b).expect("write");
        let back: CsrMatrix<bool> = read_csr(&mut buf.as_slice()).expect("read");
        assert_eq!(back, b);
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m = CsrMatrix::<u32>::new(5, 7);
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).expect("write");
        let back: CsrMatrix<u32> = read_csr(&mut buf.as_slice()).expect("read");
        assert_eq!(back, m);
    }

    #[test]
    fn wrong_scalar_type_is_rejected() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).expect("write");
        let err = read_csr::<bool, _>(&mut buf.as_slice()).expect_err("tag mismatch");
        assert!(err.to_string().contains("tag"), "got {err}");
    }

    #[test]
    fn corrupt_magic_and_checksum_are_diagnosed() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).expect("write");

        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = read_csr::<u32, _>(&mut bad.as_slice()).expect_err("bad magic");
        assert!(err.to_string().contains("magic"), "got {err}");

        // flip one payload byte: checksum must catch it
        let mut bad = buf.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        let err = read_csr::<u32, _>(&mut bad.as_slice()).expect_err("bit flip");
        assert!(err.to_string().contains("checksum"), "got {err}");
    }

    #[test]
    fn truncation_is_an_io_error_not_a_panic() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).expect("write");
        for cut in [0, 10, 31, 40, buf.len() - 1] {
            let err = read_csr::<u32, _>(&mut &buf[..cut]).expect_err("truncated");
            assert!(
                matches!(err, SparseError::Io(_)),
                "cut at {cut}: got {err:?}"
            );
        }
    }

    #[test]
    fn small_sections_use_narrow_indices_and_odd_widths_are_rejected() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).expect("write");
        assert_eq!(
            buf[6], 4,
            "u32-sized graphs must take the narrow index width"
        );

        let mut bad = buf.clone();
        bad[6] = 5;
        let err = read_csr::<u32, _>(&mut bad.as_slice()).expect_err("bad width");
        assert!(err.to_string().contains("index width"), "got {err}");
    }

    #[test]
    fn implausible_header_dimensions_do_not_allocate() {
        let m = sample();
        let mut buf = Vec::new();
        write_csr(&mut buf, &m).expect("write");
        // nrows field at offset 8: claim 2^50 rows
        buf[8..16].copy_from_slice(&(1u64 << 50).to_le_bytes());
        let err = read_csr::<u32, _>(&mut buf.as_slice()).expect_err("absurd dims");
        assert!(err.to_string().contains("implausible"), "got {err}");
    }
}
