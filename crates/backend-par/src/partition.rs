//! Work partitioning: nnz-balanced row splitting.

// These functions return lists of ranges; a one-element `vec![0..0]` for
// the degenerate empty input really is a single empty range, not a typo'd
// `(0..0).collect()`.
#![allow(clippy::single_range_in_vec_init)]

use std::ops::Range;

/// How many chunks to cut per worker. Over-partitioning gives the
/// work-stealing deques something to steal when chunk costs are skewed
/// (power-law rows), at negligible scheduling overhead.
pub const OVERSPLIT: usize = 4;

/// Split rows `0..m` into at most `chunks` contiguous ranges carrying
/// roughly equal nnz, by binary-searching `row_ptr` at the targets
/// `k·nnz/chunks` (the CPU analogue of merge-path row splitting).
///
/// Ranges are contiguous, cover `0..m` exactly, and are never empty.
pub fn nnz_balanced_rows(row_ptr: &[usize], chunks: usize) -> Vec<Range<usize>> {
    let m = row_ptr.len() - 1;
    let nnz = *row_ptr.last().expect("row_ptr has m+1 entries");
    let chunks = chunks.max(1).min(m.max(1));
    if m == 0 {
        return vec![0..0];
    }
    let mut bounds = Vec::with_capacity(chunks + 1);
    bounds.push(0usize);
    for k in 1..chunks {
        let target = k * nnz / chunks;
        // Row boundary nearest the cumulative-nnz target (a target inside
        // a heavy row snaps to whichever of its two edges is closer),
        // clamped so every range stays non-empty even when single rows
        // dominate.
        let mut row = row_ptr.partition_point(|&p| p < target);
        if row > 0 && target - row_ptr[row - 1] < row_ptr[row] - target {
            row -= 1;
        }
        let row = row.clamp(bounds[k - 1] + 1, m - (chunks - k));
        bounds.push(row);
    }
    bounds.push(m);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_cover(ranges: &[Range<usize>], n: usize) {
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, n);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn nnz_balanced_covers_and_balances() {
        // 8 rows: nnz 1,1,1,1,100,1,1,1
        let row_ptr = vec![0, 1, 2, 3, 4, 104, 105, 106, 107];
        let ranges = nnz_balanced_rows(&row_ptr, 4);
        check_cover(&ranges, 8);
        // the heavy row must sit alone-ish: no chunk besides its own should
        // carry more than a sliver
        let heavy_chunk = ranges.iter().find(|r| r.contains(&4)).unwrap();
        assert!(
            heavy_chunk.len() <= 3,
            "heavy row not isolated: {heavy_chunk:?}"
        );
    }

    #[test]
    fn handles_empty_and_tiny_matrices() {
        assert_eq!(nnz_balanced_rows(&[0], 8), vec![0..0]);
        let ranges = nnz_balanced_rows(&[0, 0, 0], 8);
        check_cover(&ranges, 2);
        let ranges = nnz_balanced_rows(&[0, 5], 8);
        assert_eq!(ranges, vec![0..1]);
    }
}
