//! Properties of the boolean pattern builder: `CsrMatrix::pattern` of an
//! arbitrary edge list — self-loops, duplicates, empty rows — equals
//! `CsrMatrix::from_coo` of the same list with its loops taken out, and
//! `CsrMatrix::symmetric_pattern` equals that build of the list with every
//! edge's mirror appended. Sizes sit around the 64-bit word edges.

use gbtl_sparse::{CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// Vertex counts: none, one, the word edges and a larger one.
const SIZES: [usize; 6] = [0, 1, 63, 64, 65, 200];

/// One drawn edge: a loop, a repeat of the previous edge, an edge inside
/// the first eighth of the vertices (leaving the other rows empty), or an
/// arbitrary one.
fn edges(nrows: usize, ncols: usize, raw: &[(u8, u32, u32)]) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
    if nrows == 0 || ncols == 0 {
        return out;
    }
    for &(kind, a, b) in raw {
        let (i, j) = (a as usize % nrows, b as usize % ncols);
        let edge = match kind % 4 {
            0 if i < ncols => (i, i),
            1 if !out.is_empty() => out[out.len() - 1],
            2 => (i % nrows.div_ceil(8), j % ncols.div_ceil(8)),
            _ => (i, j),
        };
        out.push(edge);
    }
    out
}

/// The reference: `from_coo` of the loop-free list, first value kept.
fn reference(nrows: usize, ncols: usize, list: &[(usize, usize)]) -> CsrMatrix<bool> {
    let mut coo = CooMatrix::new(nrows, ncols);
    for &(i, j) in list.iter().filter(|&&(i, j)| i != j) {
        coo.push(i, j, true);
    }
    CsrMatrix::from_coo(coo, |a, _| a)
}

fn split(list: &[(usize, usize)]) -> (Vec<usize>, Vec<usize>) {
    list.iter().copied().unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pattern_is_from_coo_of_the_loop_free_list(
        r in 0..SIZES.len(),
        c in 0..SIZES.len(),
        square in any::<bool>(),
        raw in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..600),
    ) {
        let nrows = SIZES[r];
        let ncols = if square { nrows } else { SIZES[c] };
        let list = edges(nrows, ncols, &raw);
        let (rows, cols) = split(&list);
        let got = CsrMatrix::pattern(nrows, ncols, &rows, &cols);
        prop_assert!(got.validate().is_ok());
        prop_assert_eq!(got, reference(nrows, ncols, &list));
    }

    #[test]
    fn symmetric_pattern_is_the_pattern_of_the_mirrored_list(
        r in 0..SIZES.len(),
        raw in proptest::collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..600),
    ) {
        let n = SIZES[r];
        let list = edges(n, n, &raw);
        let (rows, cols) = split(&list);
        let got = CsrMatrix::symmetric_pattern(n, &rows, &cols);
        let mirrored: Vec<(usize, usize)> =
            list.iter().flat_map(|&(i, j)| [(i, j), (j, i)]).collect();
        prop_assert!(got.validate().is_ok());
        prop_assert!(got.is_symmetric());
        prop_assert_eq!(got, reference(n, n, &mirrored));
    }
}
