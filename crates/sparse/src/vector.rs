//! Sparse and dense vectors.
//!
//! GraphBLAS vectors have *structure*: an index either holds a value or is
//! absent. Two representations are provided because graph algorithms swing
//! between extremes — BFS frontiers are tiny ([`SparseVector`]), PageRank
//! ranks are full ([`DenseVector`]) — and the backends pick whichever fits.

use gbtl_algebra::Scalar;

use crate::{Index, SparseError};

/// A vector stored as sorted `(index, value)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVector<T> {
    n: Index,
    idx: Vec<Index>,
    vals: Vec<T>,
}

impl<T: Scalar> SparseVector<T> {
    /// An empty vector of dimension `n`.
    pub fn new(n: Index) -> Self {
        Self {
            n,
            idx: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Build from parallel arrays; indices must be strictly increasing.
    pub fn from_sorted(n: Index, idx: Vec<Index>, vals: Vec<T>) -> Result<Self, SparseError> {
        if idx.len() != vals.len() {
            return Err(SparseError::LengthMismatch {
                detail: format!("idx={} vals={}", idx.len(), vals.len()),
            });
        }
        for w in idx.windows(2) {
            if w[0] >= w[1] {
                return Err(SparseError::InvalidStructure {
                    detail: format!("indices not strictly increasing: {w:?}"),
                });
            }
        }
        if let Some(&last) = idx.last() {
            if last >= n {
                return Err(SparseError::IndexOutOfBounds {
                    row: last,
                    col: 0,
                    nrows: n,
                    ncols: 1,
                });
            }
        }
        Ok(Self { n, idx, vals })
    }

    /// Build from unsorted pairs, merging duplicate indices with `dup`.
    pub fn from_pairs(
        n: Index,
        mut pairs: Vec<(Index, T)>,
        mut dup: impl FnMut(T, T) -> T,
    ) -> Result<Self, SparseError> {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut idx = Vec::with_capacity(pairs.len());
        let mut vals: Vec<T> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if i >= n {
                return Err(SparseError::IndexOutOfBounds {
                    row: i,
                    col: 0,
                    nrows: n,
                    ncols: 1,
                });
            }
            if idx.last() == Some(&i) {
                let last = vals.last_mut().expect("vals tracks idx");
                *last = dup(*last, v);
            } else {
                idx.push(i);
                vals.push(v);
            }
        }
        Ok(Self { n, idx, vals })
    }

    /// Dimension of the vector.
    #[inline]
    pub fn len(&self) -> Index {
        self.n
    }

    /// True when the dimension is zero (distinct from having no stored
    /// entries; see [`SparseVector::nnz`]).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The sorted index array.
    #[inline]
    pub fn indices(&self) -> &[Index] {
        &self.idx
    }

    /// The value array, parallel to `indices`.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// Value at `i`, or `None` when absent.
    pub fn get(&self, i: Index) -> Option<T> {
        self.idx.binary_search(&i).ok().map(|k| self.vals[k])
    }

    /// True when index `i` holds a value.
    pub fn contains(&self, i: Index) -> bool {
        self.idx.binary_search(&i).is_ok()
    }

    /// Iterate stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, T)> + '_ {
        self.idx.iter().zip(&self.vals).map(|(&i, &v)| (i, v))
    }

    /// Set or overwrite the value at `i`.
    pub fn set(&mut self, i: Index, v: T) {
        assert!(
            i < self.n,
            "index {i} out of bounds for dimension {}",
            self.n
        );
        match self.idx.binary_search(&i) {
            Ok(k) => self.vals[k] = v,
            Err(k) => {
                self.idx.insert(k, i);
                self.vals.insert(k, v);
            }
        }
    }

    /// Remove the value at `i` if present; returns it.
    pub fn remove(&mut self, i: Index) -> Option<T> {
        match self.idx.binary_search(&i) {
            Ok(k) => {
                self.idx.remove(k);
                Some(self.vals.remove(k))
            }
            Err(_) => None,
        }
    }

    /// Remove all stored entries (dimension unchanged).
    pub fn clear(&mut self) {
        self.idx.clear();
        self.vals.clear();
    }

    /// Densify.
    pub fn to_dense(&self) -> DenseVector<T> {
        let mut d = DenseVector::new(self.n);
        for (i, v) in self.iter() {
            d.set(i, v);
        }
        d
    }
}

/// A vector stored as a value array plus a presence bitmap.
///
/// The population count is tracked incrementally so [`DenseVector::nnz`]
/// is O(1) — the direction policy consults it every traversal level and
/// cannot afford an O(n) scan per query.
#[derive(Debug, Clone)]
pub struct DenseVector<T> {
    vals: Vec<Option<T>>,
    nnz: usize,
}

impl<T: PartialEq> PartialEq for DenseVector<T> {
    fn eq(&self, other: &Self) -> bool {
        // nnz is derived from vals; comparing it would be redundant.
        self.vals == other.vals
    }
}

impl<T: Scalar> DenseVector<T> {
    /// A vector of dimension `n` with every entry absent.
    pub fn new(n: Index) -> Self {
        Self {
            vals: vec![None; n],
            nnz: 0,
        }
    }

    /// A vector of dimension `n` with every entry set to `fill`.
    pub fn filled(n: Index, fill: T) -> Self {
        Self {
            vals: vec![Some(fill); n],
            nnz: n,
        }
    }

    /// Build from an explicit `Option` array.
    pub fn from_options(vals: Vec<Option<T>>) -> Self {
        let nnz = vals.iter().filter(|v| v.is_some()).count();
        Self { vals, nnz }
    }

    /// Dimension of the vector.
    #[inline]
    pub fn len(&self) -> Index {
        self.vals.len()
    }

    /// True when the dimension is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Number of present entries. O(1): maintained on every mutation.
    #[inline]
    pub fn nnz(&self) -> usize {
        debug_assert_eq!(self.nnz, self.vals.iter().filter(|v| v.is_some()).count());
        self.nnz
    }

    /// Value at `i`, or `None` when absent.
    #[inline]
    pub fn get(&self, i: Index) -> Option<T> {
        self.vals[i]
    }

    /// True when index `i` holds a value.
    #[inline]
    pub fn contains(&self, i: Index) -> bool {
        self.vals[i].is_some()
    }

    /// Set the value at `i`.
    #[inline]
    pub fn set(&mut self, i: Index, v: T) {
        if self.vals[i].is_none() {
            self.nnz += 1;
        }
        self.vals[i] = Some(v);
    }

    /// Remove the value at `i`; returns it.
    #[inline]
    pub fn unset(&mut self, i: Index) -> Option<T> {
        let old = self.vals[i].take();
        if old.is_some() {
            self.nnz -= 1;
        }
        old
    }

    /// The underlying option slice.
    #[inline]
    pub fn options(&self) -> &[Option<T>] {
        &self.vals
    }

    /// Iterate present `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, T)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|v| (i, v)))
    }

    /// Sparsify.
    pub fn to_sparse(&self) -> SparseVector<T> {
        let mut idx = Vec::new();
        let mut vals = Vec::new();
        for (i, v) in self.iter() {
            idx.push(i);
            vals.push(v);
        }
        SparseVector {
            n: self.len(),
            idx,
            vals,
        }
    }
}

/// A vector mask as the kernels read it: "may position `i` be written?".
///
/// GraphBLAS vector masks here are structural — a position is *in* the mask
/// when it holds an entry, whatever the value — so the usual form
/// ([`VecMask::new`]) is the mask vector's own presence array plus the
/// descriptor's complement flag: one load and one compare against storage
/// that already exists. Nothing is built per call: a traversal that masks
/// every level with its `visited` vector pays O(1) to hand that vector to
/// the kernel, not an O(n) keep-bitmap. A caller that does hold a
/// keep-bitmap passes it as it is (`From<&[bool]>`), and one holding the
/// packed bits of what *not* to write, as they are ([`VecMask::unset_bits`]).
#[derive(Debug, Clone, Copy)]
pub struct VecMask<'a>(MaskBits<'a>);

#[derive(Debug, Clone, Copy)]
enum MaskBits<'a> {
    /// Kept where an entry is present, or — complemented — where none is.
    Presence {
        present: &'a [Option<bool>],
        complement: bool,
    },
    /// Kept where `true`.
    Keep(&'a [bool]),
    /// Kept where bit `i % 64` of word `i / 64` is clear, over `len`
    /// positions.
    Unset { words: &'a [u64], len: usize },
}

impl<'a> VecMask<'a> {
    /// View `mask` (complemented when `complement` is set) as a keep test.
    #[inline]
    pub fn new(mask: &'a DenseVector<bool>, complement: bool) -> Self {
        VecMask(MaskBits::Presence {
            present: mask.options(),
            complement,
        })
    }

    /// The `len` positions whose bit in `skip` is clear, bit `i % 64` of
    /// word `i / 64` for position `i`: a packed bitmap of what not to write
    /// (a traversal's visited set), read as it is.
    #[inline]
    pub fn unset_bits(skip: &'a [u64], len: usize) -> Self {
        debug_assert!(skip.len() >= len.div_ceil(64));
        VecMask(MaskBits::Unset { words: skip, len })
    }

    /// Number of positions the mask covers.
    #[inline]
    pub fn len(&self) -> Index {
        match self.0 {
            MaskBits::Presence { present, .. } => present.len(),
            MaskBits::Keep(keep) => keep.len(),
            MaskBits::Unset { len, .. } => len,
        }
    }

    /// True when the mask covers no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether position `i` may be written.
    #[inline(always)]
    pub fn keeps(&self, i: Index) -> bool {
        match self.0 {
            MaskBits::Presence {
                present,
                complement,
            } => present[i].is_some() != complement,
            MaskBits::Keep(keep) => keep[i],
            MaskBits::Unset { words, .. } => words[i / 64] >> (i % 64) & 1 == 0,
        }
    }

    /// The keep bits of positions `64·w ..`, bit `b` for position `64·w + b`;
    /// positions past the end are not kept.
    #[inline]
    pub fn keep_word(&self, w: usize) -> u64 {
        let lo = (64 * w).min(self.len());
        let hi = (lo + 64).min(self.len());
        // the keep flags as 64 bytes, then each eight packed into a byte by
        // a multiply: flag `b` lands on bit `b`, and no two partial
        // products meet, so nothing carries into the top byte
        fn word<T>(slots: &[T], kept: impl Fn(&T) -> bool) -> u64 {
            let mut flags = [0u8; 64];
            for (flag, s) in flags.iter_mut().zip(slots) {
                *flag = u8::from(kept(s));
            }
            (flags.chunks_exact(8).enumerate()).fold(0, |word, (i, eight)| {
                let eight = u64::from_le_bytes(eight.try_into().expect("eight flags"));
                word | (eight.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * i)
            })
        }
        match self.0 {
            MaskBits::Presence {
                present,
                complement,
            } => word(&present[lo..hi], |p| p.is_some() != complement),
            MaskBits::Keep(keep) => word(&keep[lo..hi], |&k| k),
            MaskBits::Unset { words, .. } if lo < hi => !words[w] & u64::MAX >> (64 - (hi - lo)),
            MaskBits::Unset { .. } => 0,
        }
    }
}

impl<'a> From<&'a [bool]> for VecMask<'a> {
    /// A ready-made keep-bitmap: position `i` is kept where `keep[i]`.
    #[inline]
    fn from(keep: &'a [bool]) -> Self {
        VecMask(MaskBits::Keep(keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_basic_ops() {
        let mut v = SparseVector::<f64>::new(10);
        assert_eq!(v.nnz(), 0);
        v.set(3, 1.5);
        v.set(7, 2.5);
        v.set(3, 3.5); // overwrite
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(3), Some(3.5));
        assert_eq!(v.get(4), None);
        assert!(v.contains(7));
        assert_eq!(v.remove(7), Some(2.5));
        assert_eq!(v.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sparse_set_out_of_bounds_panics() {
        SparseVector::<u8>::new(2).set(2, 1);
    }

    #[test]
    fn from_sorted_validates() {
        assert!(SparseVector::from_sorted(5, vec![1, 3], vec![1.0, 2.0]).is_ok());
        assert!(SparseVector::from_sorted(5, vec![3, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::from_sorted(5, vec![1, 1], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::from_sorted(5, vec![1, 5], vec![1.0, 2.0]).is_err());
        assert!(SparseVector::from_sorted(5, vec![1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn from_pairs_merges_duplicates() {
        let v = SparseVector::from_pairs(4, vec![(2, 1), (0, 5), (2, 10)], |a, b| a + b).unwrap();
        assert_eq!(v.get(2), Some(11));
        assert_eq!(v.get(0), Some(5));
        assert_eq!(v.indices(), &[0, 2]);
    }

    #[test]
    fn dense_round_trip() {
        let mut d = DenseVector::<u32>::new(6);
        d.set(0, 10);
        d.set(5, 20);
        assert_eq!(d.nnz(), 2);
        let s = d.to_sparse();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![(0, 10), (5, 20)]);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn dense_nnz_tracked_incrementally() {
        let mut d = DenseVector::from_options(vec![Some(1u8), None, Some(2)]);
        assert_eq!(d.nnz(), 2);
        d.set(1, 9);
        d.set(1, 10); // overwrite: count unchanged
        assert_eq!(d.nnz(), 3);
        d.unset(0);
        assert_eq!(d.unset(0), None); // double unset: no underflow
        assert_eq!(d.nnz(), 2);
    }

    #[test]
    fn dense_unset() {
        let mut d = DenseVector::filled(3, 1.0f32);
        assert_eq!(d.nnz(), 3);
        assert_eq!(d.unset(1), Some(1.0));
        assert_eq!(d.nnz(), 2);
        assert!(!d.contains(1));
    }

    #[test]
    fn vec_mask_reads_presence_and_complement() {
        let mut m = DenseVector::<bool>::new(4);
        m.set(1, true);
        m.set(3, false); // structural: a stored `false` is still in the mask
        let plain = VecMask::new(&m, false);
        let comp = VecMask::new(&m, true);
        assert_eq!(plain.len(), 4);
        for i in 0..4 {
            assert_eq!(plain.keeps(i), i == 1 || i == 3, "position {i}");
            assert_eq!(comp.keeps(i), !plain.keeps(i), "position {i}");
        }
        // a ready-made keep-bitmap is read as it is
        let keep = [true, false, false, true];
        let bitmap = VecMask::from(&keep[..]);
        assert_eq!(bitmap.len(), 4);
        assert!((0..4).all(|i| bitmap.keeps(i) == keep[i]));
        // …and packed bits of what to skip, complemented
        let skip = VecMask::unset_bits(&[0b1001], 4);
        assert_eq!(skip.len(), 4);
        assert!((0..4).all(|i| skip.keeps(i) != keep[i]));
    }

    #[test]
    fn vec_mask_words_hold_64_keep_bits() {
        let mut m = DenseVector::<bool>::new(130);
        for i in [0, 5, 63, 64, 127, 129] {
            m.set(i, false);
        }
        let plain = VecMask::new(&m, false);
        let comp = VecMask::new(&m, true);
        for w in 0..4 {
            let want = (0..64)
                .filter(|b| 64 * w + b < 130 && plain.keeps(64 * w + b))
                .fold(0u64, |word, b| word | 1 << b);
            assert_eq!(plain.keep_word(w), want, "word {w}");
            let tail = match w {
                0 | 1 => u64::MAX,
                2 => 0b11,
                _ => 0,
            };
            assert_eq!(comp.keep_word(w), !want & tail, "complemented word {w}");
        }
        let keep: Vec<bool> = (0..70).map(|i| i % 3 == 0).collect();
        let bitmap = VecMask::from(&keep[..]);
        assert_eq!(bitmap.keep_word(1), 0b10_0100);
        let skip = VecMask::unset_bits(&[u64::MAX, 0b10_0100], 70);
        assert_eq!(skip.keep_word(0), 0);
        assert_eq!(skip.keep_word(1), 0b01_1011);
        assert_eq!(skip.keep_word(2), 0);
    }
}
