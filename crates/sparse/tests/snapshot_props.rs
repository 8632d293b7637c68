//! Arbitrary-input properties of the `.gbsnap` section reader: no input
//! makes `read_csr` panic, a valid section with one byte flipped or its
//! end cut off is an error, and a header's claimed sizes are never
//! allocated ahead of the bytes that back them.

use gbtl_sparse::snapshot::{read_csr, write_csr, MAX_DIM, SECTION_MAGIC};
use gbtl_sparse::{CsrMatrix, SparseError};
use proptest::prelude::*;

/// A small `u32` matrix from `(rows, cols, triples)`, duplicates summed.
fn matrix(nrows: usize, ncols: usize, triples: &[(usize, usize, u32)]) -> CsrMatrix<u32> {
    let mut coo = gbtl_sparse::CooMatrix::new(nrows, ncols);
    for &(r, c, v) in triples {
        coo.push(r % nrows, c % ncols, v);
    }
    CsrMatrix::from_coo(coo, |a, b| a.wrapping_add(b))
}

/// A valid section holding `m`.
fn section(m: &CsrMatrix<u32>) -> Vec<u8> {
    let mut buf = Vec::new();
    write_csr(&mut buf, m).expect("write to a Vec");
    buf
}

/// A `u32` section header claiming `nrows × ncols` with `nnz` entries.
fn header(nrows: u64, ncols: u64, nnz: u64) -> Vec<u8> {
    let mut h = SECTION_MAGIC.to_vec();
    h.extend_from_slice(&[2, 4, 4, 0]);
    for field in [nrows, ncols, nnz] {
        h.extend_from_slice(&field.to_le_bytes());
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes from nowhere, or after a plausible header of small claimed
    /// sizes, read as an error for both scalar types and never panic.
    #[test]
    fn arbitrary_bytes_are_an_error(
        dims in (0u64..8, 0u64..8, 0u64..16),
        prefixed in any::<bool>(),
        tail in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut bytes = if prefixed { header(dims.0, dims.1, dims.2) } else { Vec::new() };
        bytes.extend_from_slice(&tail);
        prop_assert!(read_csr::<u32, _>(&mut bytes.as_slice()).is_err());
        prop_assert!(read_csr::<bool, _>(&mut bytes.as_slice()).is_err());
    }

    /// Any one byte of a valid section flipped is an error: the header
    /// checks or the checksum catch it.
    #[test]
    fn a_flipped_byte_is_an_error(
        shape in (1usize..12, 1usize..12),
        triples in proptest::collection::vec((0usize..12, 0usize..12, any::<u32>()), 0..40),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let m = matrix(shape.0, shape.1, &triples);
        let mut bytes = section(&m);
        prop_assert_eq!(read_csr::<u32, _>(&mut bytes.as_slice()).unwrap(), m);
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= flip;
        prop_assert!(read_csr::<u32, _>(&mut bytes.as_slice()).is_err(), "byte {}", at);
    }

    /// Every strict prefix of a valid section is a truncation error.
    #[test]
    fn a_cut_off_section_is_an_io_error(
        shape in (1usize..12, 1usize..12),
        triples in proptest::collection::vec((0usize..12, 0usize..12, any::<u32>()), 0..40),
        cut in any::<u64>(),
    ) {
        let bytes = section(&matrix(shape.0, shape.1, &triples));
        let cut = (cut % bytes.len() as u64) as usize;
        let err = read_csr::<u32, _>(&mut &bytes[..cut]).unwrap_err();
        prop_assert!(matches!(err, SparseError::Io(_)), "cut at {}: {:?}", cut, err);
    }
}

/// A header claiming `MAX_DIM` rows over a 40-byte input is a truncation
/// error, read off the 8 bytes present: the reader never asks for the
/// ≈ 4 TiB of row pointers the header claims (which aborted the process
/// when the buffer was sized from the header).
#[test]
fn a_huge_claim_over_a_few_bytes_is_an_io_error() {
    for (nrows, ncols) in [(MAX_DIM, 1), (1, MAX_DIM), (MAX_DIM, MAX_DIM)] {
        let mut bytes = header(nrows, ncols, 0);
        bytes.extend_from_slice(&[0; 8]);
        assert_eq!(bytes.len(), 40);
        let err = read_csr::<u32, _>(&mut bytes.as_slice()).unwrap_err();
        assert!(
            matches!(err, SparseError::Io(_)),
            "{nrows}x{ncols}: {err:?}"
        );
    }
    // the same for a claimed entry count
    let mut bytes = header(1, 1, 64 * MAX_DIM);
    bytes.extend_from_slice(&[0; 8]);
    let err = read_csr::<u32, _>(&mut bytes.as_slice()).unwrap_err();
    assert!(matches!(err, SparseError::Io(_)), "{err:?}");
}
