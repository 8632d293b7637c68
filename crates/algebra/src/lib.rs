#![warn(missing_docs)]

//! Algebraic structures for GBTL-RS.
//!
//! GraphBLAS expresses graph algorithms as sparse linear algebra over
//! user-chosen algebraic structures. This crate provides the three layers the
//! rest of the workspace builds on:
//!
//! * [`UnaryOp`] / [`BinaryOp`] — plain functions over scalar domains,
//! * [`Monoid`] — an associative, commutative binary op with an identity,
//! * [`Semiring`] — an "add" monoid paired with a "multiply" binary op.
//!
//! All structures are zero-sized `Copy` types, so passing them around is
//! free and backends can monomorphise kernels per-semiring exactly the way
//! the C++ GBTL instantiates templates.
//!
//! # Design notes
//!
//! GBTL's C++ semirings map `D1 × D2 → D3`. Here a [`Semiring<T, D1, D2>`]
//! does the same with the output domain written first and both operand
//! domains defaulting to it, so `Semiring<T>` is the single-domain case.
//! Mixed domains exist exactly where the multiply ignores an operand
//! ([`First`], [`Second`], [`Pair`] and the semirings built on them): that
//! is the *structure-only* case — a boolean adjacency multiplied against
//! `u64` labels or `f64` ranks as it stands, no typed copy of the graph.
//! Arithmetic multiplies stay single-domain; converting values is
//! [`UnaryOp`]'s job, whose output type is free.
//!
//! # Example
//!
//! ```
//! use gbtl_algebra::{Semiring, Monoid, BinaryOp, MinPlus, PlusTimes};
//!
//! // Tropical (shortest-path) semiring over f64.
//! let sr = MinPlus::<f64>::new();
//! let d = sr.add().apply(sr.mul().apply(2.0, 3.0), 4.0);
//! assert_eq!(d, 4.0); // min(2+3, 4)
//!
//! // Ordinary arithmetic semiring.
//! let sr = PlusTimes::<u64>::new();
//! assert_eq!(sr.add().identity(), 0);
//! assert_eq!(sr.mul().apply(6, 7), 42);
//! ```

mod identities;
mod monoid;
mod ops;
mod select;
mod semiring;
mod unary;

pub use identities::{Bounded, One, Zero};
pub use monoid::{
    LandMonoid, LorMonoid, LxorMonoid, MaxMonoid, MinMonoid, Monoid, PlusMonoid, TimesMonoid,
};
pub use ops::{
    BinaryOp, Div, First, Land, Lor, Lxor, Max, Min, Minus, Pair, Plus, RDiv, RMinus, Second, Times,
};
pub use select::{
    Diag, FnSelect, OffDiag, SelectOp, TriL, TriU, ValueEq, ValueGe, ValueGt, ValueLe, ValueLt,
    ValueNe,
};
pub use semiring::{
    CustomSemiring, LorLand, MaxMin, MaxPlus, MaxTimes, MinFirst, MinMax, MinPlus, MinSecond,
    MinTimes, PlusFirst, PlusMin, PlusPair, PlusSecond, PlusTimes, Semiring,
};
pub use unary::{
    Abs, AdditiveInverse, BindFirst, BindSecond, Identity, Lnot, MultiplicativeInverse, UnaryOp,
};

/// Scalar element types storable in GBTL-RS containers.
///
/// Deliberately minimal: backends move values around, compare them for tests,
/// and ship them across the parallel backend's worker threads, so
/// `Copy + Send + Sync` plus debuggability is all that is required, and a
/// `Default` for the slot of a dense vector's absent position. Algebraic
/// capability is supplied by the op/monoid/semiring *structures*, not by the
/// scalar type itself.
pub trait Scalar: Copy + Default + Send + Sync + PartialEq + std::fmt::Debug + 'static {}

impl<T> Scalar for T where T: Copy + Default + Send + Sync + PartialEq + std::fmt::Debug + 'static {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_blanket_covers_builtin_types() {
        fn assert_scalar<T: Scalar>() {}
        assert_scalar::<bool>();
        assert_scalar::<u8>();
        assert_scalar::<u32>();
        assert_scalar::<u64>();
        assert_scalar::<usize>();
        assert_scalar::<i32>();
        assert_scalar::<i64>();
        assert_scalar::<f32>();
        assert_scalar::<f64>();
    }

    #[test]
    fn semiring_structures_are_zero_sized() {
        assert_eq!(std::mem::size_of::<PlusTimes<f64>>(), 0);
        assert_eq!(std::mem::size_of::<MinPlus<u32>>(), 0);
        assert_eq!(std::mem::size_of::<LorLand>(), 0);
    }
}
