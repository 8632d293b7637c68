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

    /// Keep the entries `keep(index, value)` accepts — asked once each, in
    /// index order — compacted in place: the survivors stay sorted, so
    /// nothing is rebuilt or re-validated.
    pub fn retain(&mut self, mut keep: impl FnMut(Index, T) -> bool) {
        let n = self.idx.len();
        let (idx, vals) = (&mut self.idx[..n], &mut self.vals[..n]);
        let mut kept = 0;
        for k in 0..n {
            let (i, v) = (idx[k], vals[k]);
            if keep(i, v) {
                idx[kept] = i;
                vals[kept] = v;
                kept += 1;
            }
        }
        self.idx.truncate(kept);
        self.vals.truncate(kept);
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

/// A vector stored as a value array plus a presence bitmap: bit `i % 64` of
/// word `i / 64` is set when position `i` holds a value.
///
/// A clear position's value slot holds `T::default()`, always: [`unset`]
/// restores it and [`DenseVector::from_parts`] resets it, so the derived
/// equality compares exactly the present entries, and a reader that folds
/// every slot (a fully present operand's `values()`) needs no presence
/// test. The population count is tracked incrementally so
/// [`DenseVector::nnz`] is O(1) — the direction policy consults it every
/// traversal level and cannot afford an O(n) scan per query.
///
/// [`unset`]: DenseVector::unset
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVector<T> {
    bits: Vec<u64>,
    vals: Vec<T>,
    nnz: usize,
}

/// Whether bit `i % 64` of word `i / 64` is set.
#[inline(always)]
fn bit(words: &[u64], i: Index) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

impl<T: Scalar> DenseVector<T> {
    /// A vector of dimension `n` with every entry absent.
    pub fn new(n: Index) -> Self {
        Self {
            bits: vec![0; n.div_ceil(64)],
            vals: vec![T::default(); n],
            nnz: 0,
        }
    }

    /// A vector of dimension `n` with every entry set to `fill`.
    pub fn filled(n: Index, fill: T) -> Self {
        Self::from_values(vec![fill; n])
    }

    /// A vector holding every one of `vals`.
    pub fn from_values(vals: Vec<T>) -> Self {
        let bits = vec![u64::MAX; vals.len().div_ceil(64)];
        Self::from_parts(vals, bits)
    }

    /// A vector of dimension `n` holding `f(i)` where it is `Some`, with
    /// `f` called once per position in index order. Each word of presence
    /// bits is assembled in a register and stored once: a loop of [`set`]
    /// stores it once a position, each store waiting on the last.
    ///
    /// [`set`]: DenseVector::set
    pub fn from_fn(n: Index, mut f: impl FnMut(Index) -> Option<T>) -> Self {
        let (mut vals, mut bits) = (Vec::with_capacity(n), Vec::with_capacity(n.div_ceil(64)));
        let mut nnz = 0;
        for start in (0..n).step_by(64) {
            let mut word = 0u64;
            vals.extend((start..(start + 64).min(n)).map(|i| {
                let v = f(i);
                word |= u64::from(v.is_some()) << (i % 64);
                v.unwrap_or_default()
            }));
            nnz += word.count_ones() as usize;
            bits.push(word);
        }
        Self { bits, vals, nnz }
    }

    /// A vector holding `vals[i]` where bit `i % 64` of `bits[i / 64]` is
    /// set; clear positions' slots, and bits past the end, are reset.
    /// Panics unless `bits` holds one word per 64 positions.
    pub fn from_parts(mut vals: Vec<T>, mut bits: Vec<u64>) -> Self {
        let n = vals.len();
        assert_eq!(
            bits.len(),
            n.div_ceil(64),
            "one presence word per 64 values"
        );
        if let Some(last) = bits.last_mut() {
            *last &= u64::MAX >> (n.wrapping_neg() % 64);
        }
        let mut nnz = 0;
        for (w, &word) in bits.iter().enumerate() {
            nnz += word.count_ones() as usize;
            let mut clear = !word;
            while clear != 0 && 64 * w + (clear.trailing_zeros() as usize) < n {
                vals[64 * w + clear.trailing_zeros() as usize] = T::default();
                clear &= clear - 1;
            }
        }
        Self { bits, vals, nnz }
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
        debug_assert_eq!(
            self.nnz,
            self.bits.iter().map(|w| w.count_ones() as usize).sum()
        );
        self.nnz
    }

    /// Value at `i`, or `None` when absent.
    #[inline]
    pub fn get(&self, i: Index) -> Option<T> {
        let v = self.vals[i];
        self.contains(i).then_some(v)
    }

    /// True when index `i` holds a value.
    #[inline]
    pub fn contains(&self, i: Index) -> bool {
        bit(&self.bits, i)
    }

    /// Set the value at `i`.
    #[inline]
    pub fn set(&mut self, i: Index, v: T) {
        self.vals[i] = v;
        // an overwrite stores no bit, so a run of overwrites in one word
        // does not wait on each other's store
        let (word, bit) = (&mut self.bits[i / 64], 1 << (i % 64));
        if *word & bit == 0 {
            *word |= bit;
            self.nnz += 1;
        }
    }

    /// Remove the value at `i`; returns it.
    #[inline]
    pub fn unset(&mut self, i: Index) -> Option<T> {
        let old = std::mem::take(&mut self.vals[i]);
        let present = self.contains(i);
        self.bits[i / 64] &= !(1 << (i % 64));
        self.nnz -= usize::from(present);
        present.then_some(old)
    }

    /// Keep the present entries `keep(index, value)` accepts — asked once
    /// each, in index order — and clear the rest in place.
    pub fn retain(&mut self, mut keep: impl FnMut(Index, T) -> bool) {
        for (w, word) in self.bits.iter_mut().enumerate() {
            let (mut left, mut kept) = (*word, *word);
            while left != 0 {
                let b = left.trailing_zeros() as usize;
                left &= left - 1;
                let slot = &mut self.vals[64 * w + b];
                if !keep(64 * w + b, *slot) {
                    kept &= !(1 << b);
                    *slot = T::default();
                }
            }
            self.nnz -= (*word ^ kept).count_ones() as usize;
            *word = kept;
        }
    }

    /// One value slot per position: a present entry's value, or
    /// `T::default()`.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.vals
    }

    /// The presence bitmap: bit `i % 64` of word `i / 64` for position `i`,
    /// no bit set past the end.
    #[inline]
    pub fn bits(&self) -> &[u64] {
        &self.bits
    }

    /// Iterate present `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, T)> + '_ {
        let (mut w, mut left) = (0, self.bits.first().copied().unwrap_or(0));
        std::iter::from_fn(move || {
            while left == 0 {
                w += 1;
                left = *self.bits.get(w)?;
            }
            let i = 64 * w + left.trailing_zeros() as usize;
            left &= left - 1;
            Some((i, self.vals[i]))
        })
    }

    /// Sparsify.
    pub fn to_sparse(&self) -> SparseVector<T> {
        let (idx, vals) = self.iter().unzip();
        SparseVector {
            n: self.len(),
            idx,
            vals,
        }
    }
}

/// A vector mask as the kernels read it: "may position `i` be written?" —
/// position `i` is kept where bit `i % 64` of word `i / 64` is set, or,
/// complemented, where it is clear, over `len` positions.
///
/// GraphBLAS vector masks here are structural — a position is *in* the mask
/// when it holds an entry, whatever the value — so the usual form
/// ([`VecMask::new`]) is the mask vector's own presence bitmap plus the
/// descriptor's complement flag. Nothing is built per call: a traversal
/// that masks every level with its `visited` vector pays O(1) to hand that
/// vector to the kernel, and a fused traversal hands its packed visited
/// rows as they are ([`VecMask::unset_bits`]).
#[derive(Debug, Clone, Copy)]
pub struct VecMask<'a> {
    words: &'a [u64],
    len: usize,
    complement: bool,
}

impl<'a> VecMask<'a> {
    /// View `mask`'s presence (complemented when `complement` is set) as a
    /// keep test.
    #[inline]
    pub fn new(mask: &'a DenseVector<bool>, complement: bool) -> Self {
        VecMask {
            words: mask.bits(),
            len: mask.len(),
            complement,
        }
    }

    /// The `len` positions whose bit in `skip` is clear: a packed bitmap of
    /// what not to write (a traversal's visited set), read as it is.
    #[inline]
    pub fn unset_bits(skip: &'a [u64], len: usize) -> Self {
        debug_assert!(skip.len() >= len.div_ceil(64));
        VecMask {
            words: skip,
            len,
            complement: true,
        }
    }

    /// Number of positions the mask covers.
    #[inline]
    pub fn len(&self) -> Index {
        self.len
    }

    /// True when the mask covers no positions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether position `i` may be written.
    #[inline(always)]
    pub fn keeps(&self, i: Index) -> bool {
        bit(self.words, i) != self.complement
    }

    /// The keep bits of positions `64·w ..`, bit `b` for position `64·w + b`;
    /// positions past the end are not kept.
    #[inline]
    pub fn keep_word(&self, w: usize) -> u64 {
        let live = self.len.saturating_sub(64 * w);
        if live == 0 {
            return 0;
        }
        (self.words[w] ^ u64::from(self.complement).wrapping_neg())
            & u64::MAX >> (64 - live.min(64))
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
        let mut d = DenseVector::from_parts(vec![1u8, 7, 2], vec![0b101]);
        assert_eq!(d.nnz(), 2);
        assert_eq!(d.values(), &[1, 0, 2], "a clear slot holds the default");
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
        // packed bits of what to skip are read complemented
        let skip = VecMask::unset_bits(&[0b1010], 4);
        assert_eq!(skip.len(), 4);
        assert!((0..4).all(|i| skip.keeps(i) == comp.keeps(i)));
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
        let skip = VecMask::unset_bits(&[u64::MAX, 0b10_0100], 70);
        assert_eq!(skip.keep_word(0), 0);
        assert_eq!(skip.keep_word(1), 0b01_1011);
        assert_eq!(skip.keep_word(2), 0);
    }
}
