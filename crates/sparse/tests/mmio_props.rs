//! Arbitrary-input properties of the Matrix Market reader: no input makes
//! `read_coo` panic, a size line's claimed entry count is never reserved
//! ahead of the entries that back it, and a valid stream with one byte
//! flipped reads or is an error.

use gbtl_sparse::mmio::{read_coo, read_coo_within, write_coo, MmLimits};
use gbtl_sparse::{CooMatrix, SparseError};
use proptest::prelude::*;

/// Banners the reader accepts, one per field and symmetry it supports.
const BANNERS: &[&str] = &[
    "%%MatrixMarket matrix coordinate real general\n",
    "%%MatrixMarket matrix coordinate integer symmetric\n",
    "%%MatrixMarket matrix coordinate pattern general\n",
    "%%MatrixMarket matrix coordinate pattern symmetric\n",
    "%%MatrixMarket matrix coordinate real skew-symmetric\n",
];

/// Read `bytes` as each supported value type; any outcome but a panic.
fn read_all(bytes: &[u8]) -> [bool; 3] {
    [
        read_coo::<f64, _>(bytes).is_ok(),
        read_coo::<i64, _>(bytes).is_ok(),
        read_coo::<bool, _>(bytes).is_ok(),
    ]
}

/// A valid general `f64` stream over an `n × n` matrix.
fn stream(n: usize, triples: &[(usize, usize, i32)]) -> Vec<u8> {
    let mut coo = CooMatrix::new(n, n);
    for &(r, c, v) in triples {
        coo.push(r % n, c % n, f64::from(v) / 4.0);
    }
    let mut buf = Vec::new();
    write_coo(&coo, &mut buf).expect("write to a Vec");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Bytes from nowhere, or after a banner the reader accepts, read as
    /// a matrix or an error; they never panic.
    #[test]
    fn arbitrary_bytes_never_panic(
        banner in proptest::option::of(0usize..BANNERS.len()),
        tail in proptest::collection::vec(any::<u8>(), 0..160),
    ) {
        let mut bytes = banner.map_or_else(Vec::new, |b| BANNERS[b].as_bytes().to_vec());
        bytes.extend_from_slice(&tail);
        read_all(&bytes);
    }

    /// Lines drawn from the shapes the reader tells apart — sizes, entries
    /// in and out of range, zero and huge indices, bad values, comments —
    /// read as a matrix or an error after every banner.
    #[test]
    fn entry_soup_never_panics(
        banner in 0usize..BANNERS.len(),
        lines in proptest::collection::vec((0usize..9, 0u64..6, 0u64..6), 0..12),
    ) {
        let mut text = BANNERS[banner].to_string();
        for (kind, x, y) in lines {
            text.push_str(&match kind {
                0 => format!("{x} {y} {}", x + y),
                1 => format!("{x} {y}"),
                2 => format!("{x} {y} -1.5"),
                3 => format!("{x} {y} nan"),
                4 => format!("{} {y}", u64::MAX),
                5 => format!("{x} {y} {}", usize::MAX),
                6 => "% comment".into(),
                7 => String::new(),
                _ => format!("{x}"),
            });
            text.push('\n');
        }
        read_all(text.as_bytes());
    }

    /// Any one byte of a valid stream flipped reads or is an error.
    #[test]
    fn a_flipped_byte_never_panics(
        n in 1usize..12,
        triples in proptest::collection::vec((0usize..12, 0usize..12, any::<i32>()), 0..30),
        at in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = stream(n, &triples);
        prop_assert!(read_coo::<f64, _>(bytes.as_slice()).is_ok());
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] ^= flip;
        read_all(&bytes);
    }
}

/// A size line claiming far more entries than the body holds is an error
/// read off the entries present: the reader never reserves the claim (10¹¹
/// pattern entries asked for 1.6 TB and aborted the process; `usize::MAX`
/// overflowed the symmetric expansion's capacity).
#[test]
fn a_forged_size_line_over_a_short_body_is_an_error() {
    let claims = [100_000_000_000usize, usize::MAX / 2 + 1, usize::MAX];
    for banner in BANNERS {
        for claim in claims {
            let text = format!("{banner}3 3 {claim}\n1 1 1\n2 1 1\n");
            let err = read_coo::<f64, _>(text.as_bytes()).unwrap_err();
            assert!(
                matches!(err, SparseError::Parse { .. }),
                "{banner} claiming {claim}: {err:?}"
            );
            assert!(read_coo::<bool, _>(text.as_bytes()).is_err());
        }
    }
}

/// More entries than the size line declares, and a non-square symmetric
/// matrix (whose mirrored entries would fall outside it), are errors.
#[test]
fn entries_past_the_claim_and_a_non_square_symmetric_matrix_are_errors() {
    let extra = format!("{}2 2 1\n1 1 1\n2 2 1\n", BANNERS[0]);
    assert!(read_coo::<f64, _>(extra.as_bytes()).is_err());
    let wide = format!("{}2 3 1\n1 3\n", BANNERS[3]);
    assert!(read_coo::<bool, _>(wide.as_bytes()).is_err());
}

/// A reader that panics if anything past `head` is read from it.
struct HeadThenBomb<'a>(&'a [u8]);

impl std::io::Read for HeadThenBomb<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = std::io::Read::read(&mut self.0, buf)?;
        assert!(n > 0, "read past the size line");
        Ok(n)
    }
}

/// A size line declaring more rows, columns or entries than the limits
/// allow is a `TooLarge` error at that line: nothing after it is read, so
/// nothing is allocated for it. The default limits refuse 10¹² rows.
#[test]
fn an_oversized_size_line_is_an_error_before_anything_is_read() {
    let limits = MmLimits {
        max_dim: 1000,
        max_entries: 5000,
    };
    let heads = [
        ("1001 3 1\n", "rows", 1001),
        ("3 1001 1\n", "columns", 1001),
        ("3 3 5001\n", "entries", 5001),
        ("1000000000000 1000000000000 1\n", "rows", 1_000_000_000_000),
    ];
    for banner in BANNERS {
        for (size_line, what, count) in heads {
            let head = format!("{banner}{size_line}");
            let reader = std::io::BufReader::with_capacity(1, HeadThenBomb(head.as_bytes()));
            let err = read_coo_within::<f64, _>(reader, limits).unwrap_err();
            assert_eq!(
                err,
                SparseError::TooLarge {
                    what,
                    count,
                    max: if what == "entries" { 5000 } else { 1000 },
                },
                "{head:?}"
            );
        }
    }
    let huge = format!("{}1000000000000 3 1\n1 2 1\n", BANNERS[0]);
    let err = read_coo::<f64, _>(huge.as_bytes()).unwrap_err();
    assert!(
        matches!(err, SparseError::TooLarge { what: "rows", .. }),
        "{err:?}"
    );
}

/// Entries that take the stored count past the limit — a symmetric
/// stream's mirrored ones included — are an error at that entry; a stream
/// exactly at the limits reads.
#[test]
fn entries_past_the_limit_are_an_error_at_the_entry() {
    let limits = MmLimits {
        max_dim: 4,
        max_entries: 3,
    };
    let at = format!("{}4 4 3\n1 1 1\n2 2 1\n3 3 1\n", BANNERS[0]);
    assert_eq!(
        read_coo_within::<f64, _>(at.as_bytes(), limits)
            .unwrap()
            .nnz(),
        3
    );
    // two symmetric off-diagonal entries store four
    let mirrored = format!("{}4 4 2\n2 1 1\n3 1 1\n", BANNERS[1]);
    let err = read_coo_within::<f64, _>(mirrored.as_bytes(), limits).unwrap_err();
    assert_eq!(
        err,
        SparseError::TooLarge {
            what: "entries",
            count: 4,
            max: 3
        }
    );
}
