//! The whole of this backend's part in a row-oriented op: cut the rows,
//! run the *sequential* kernel's row-range form on each cut, join the
//! fragments in order. The arithmetic lives in `gbtl-backend-seq` alone.

use crate::partition::{nnz_balanced_rows, OVERSPLIT};
use crate::pool::ThreadPool;
use gbtl_algebra::Scalar;
use gbtl_sparse::DenseVector;
use std::ops::Range;

/// `kernel` over nnz-balanced ranges of the rows `row_ptr` delimits,
/// results in row order.
pub(crate) fn over_rows<R, K>(pool: &ThreadPool, row_ptr: &[usize], kernel: K) -> Vec<R>
where
    R: Send,
    K: Fn(Range<usize>) -> R + Sync,
{
    let chunks = nnz_balanced_rows(row_ptr, pool.threads() * OVERSPLIT);
    pool.run_tasks(chunks.len(), |t| kernel(chunks[t].clone()))
}

/// Concatenate `(indices, values)` fragments of ascending disjoint ranges.
pub(crate) fn join_entries<T>(mut parts: Vec<(Vec<usize>, Vec<T>)>) -> (Vec<usize>, Vec<T>) {
    let total: usize = parts.iter().map(|(idx, _)| idx.len()).sum();
    let mut idx = Vec::with_capacity(total);
    let mut vals = Vec::with_capacity(total);
    for (pidx, pvals) in parts.iter_mut() {
        idx.append(pidx);
        vals.append(pvals);
    }
    (idx, vals)
}

/// Concatenate dense segments of consecutive ranges into one vector. A
/// segment starts wherever the last one ended, mid-word or not: its
/// presence words are shifted onto the joined words there.
pub(crate) fn join_dense<T: Scalar>(n: usize, segments: Vec<DenseVector<T>>) -> DenseVector<T> {
    let (mut vals, mut bits) = (Vec::with_capacity(n), vec![0u64; n.div_ceil(64)]);
    for seg in &segments {
        let (at, off) = (vals.len() / 64, vals.len() % 64);
        for (w, &word) in seg.bits().iter().enumerate() {
            bits[at + w] |= word << off;
            if off > 0 && word >> (64 - off) != 0 {
                bits[at + w + 1] |= word >> (64 - off);
            }
        }
        vals.extend_from_slice(seg.values());
    }
    DenseVector::from_parts(vals, bits)
}
