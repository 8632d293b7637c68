//! Binary operators.
//!
//! Each operator is a zero-sized struct; the generic parameter pins the
//! domain so that backends monomorphise one kernel per (op, type) pair.

use std::marker::PhantomData;

use crate::Scalar;

/// A binary function `D1 × D2 → T` (GBTL's `BinaryOp<D1, D2, D3>` with the
/// output domain first, so that `BinaryOp<T>` stays the single-domain op).
///
/// GraphBLAS binary ops are used as eWise operators, accumulators, and the
/// "multiply" half of a semiring. They are required to be pure; they are
/// *not* required to be associative or commutative (that is what
/// [`Monoid`](crate::Monoid) adds). Only the operators that ignore an
/// argument are defined on mixed domains: [`First`] takes any `D2`,
/// [`Second`] any `D1`, [`Pair`] any of both.
pub trait BinaryOp<T: Scalar, D1: Scalar = T, D2: Scalar = T>:
    Copy + Send + Sync + 'static
{
    /// Apply the operator.
    fn apply(&self, a: D1, b: D2) -> T;
}

macro_rules! declare_binary_op {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name<T>(PhantomData<fn() -> T>);

        impl<T> $name<T> {
            /// Construct the operator.
            #[inline(always)]
            pub const fn new() -> Self {
                Self(PhantomData)
            }
        }
    };
}

declare_binary_op!(
    /// Arithmetic addition: `a + b`.
    Plus
);
declare_binary_op!(
    /// Arithmetic subtraction: `a - b`.
    Minus
);
declare_binary_op!(
    /// Reversed subtraction: `b - a`.
    RMinus
);
declare_binary_op!(
    /// Arithmetic multiplication: `a * b`.
    Times
);
declare_binary_op!(
    /// Arithmetic division: `a / b`.
    Div
);
declare_binary_op!(
    /// Reversed division: `b / a`.
    RDiv
);
declare_binary_op!(
    /// Minimum of the two arguments.
    Min
);
declare_binary_op!(
    /// Maximum of the two arguments.
    Max
);
declare_binary_op!(
    /// Selects the first argument, ignoring the second.
    First
);
declare_binary_op!(
    /// Selects the second argument, ignoring the first.
    Second
);
declare_binary_op!(
    /// Returns the domain's `one()` regardless of arguments.
    ///
    /// The `pair` operator of SuiteSparse; with a `Plus` monoid it counts
    /// structural intersections, which is exactly what triangle counting
    /// needs.
    Pair
);

impl<T> BinaryOp<T> for Plus<T>
where
    T: Scalar + std::ops::Add<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        a + b
    }
}

impl<T> BinaryOp<T> for Minus<T>
where
    T: Scalar + std::ops::Sub<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        a - b
    }
}

impl<T> BinaryOp<T> for RMinus<T>
where
    T: Scalar + std::ops::Sub<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        b - a
    }
}

impl<T> BinaryOp<T> for Times<T>
where
    T: Scalar + std::ops::Mul<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        a * b
    }
}

impl<T> BinaryOp<T> for Div<T>
where
    T: Scalar + std::ops::Div<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        a / b
    }
}

impl<T> BinaryOp<T> for RDiv<T>
where
    T: Scalar + std::ops::Div<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        b / a
    }
}

impl<T> BinaryOp<T> for Min<T>
where
    T: Scalar + PartialOrd,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        if b < a {
            b
        } else {
            a
        }
    }
}

impl<T> BinaryOp<T> for Max<T>
where
    T: Scalar + PartialOrd,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        if b > a {
            b
        } else {
            a
        }
    }
}

impl<T: Scalar, D2: Scalar> BinaryOp<T, T, D2> for First<T> {
    #[inline(always)]
    fn apply(&self, a: T, _b: D2) -> T {
        a
    }
}

impl<T: Scalar, D1: Scalar> BinaryOp<T, D1, T> for Second<T> {
    #[inline(always)]
    fn apply(&self, _a: D1, b: T) -> T {
        b
    }
}

impl<T, D1: Scalar, D2: Scalar> BinaryOp<T, D1, D2> for Pair<T>
where
    T: Scalar + crate::One,
{
    #[inline(always)]
    fn apply(&self, _a: D1, _b: D2) -> T {
        T::one()
    }
}

/// Logical OR over `bool`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Lor;

/// Logical AND over `bool`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Land;

/// Logical XOR over `bool`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Lxor;

impl BinaryOp<bool> for Lor {
    #[inline(always)]
    fn apply(&self, a: bool, b: bool) -> bool {
        a || b
    }
}

impl BinaryOp<bool> for Land {
    #[inline(always)]
    fn apply(&self, a: bool, b: bool) -> bool {
        a && b
    }
}

impl BinaryOp<bool> for Lxor {
    #[inline(always)]
    fn apply(&self, a: bool, b: bool) -> bool {
        a ^ b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_ops() {
        assert_eq!(Plus::<i32>::new().apply(2, 3), 5);
        assert_eq!(Minus::<i32>::new().apply(2, 3), -1);
        assert_eq!(RMinus::<i32>::new().apply(2, 3), 1);
        assert_eq!(Times::<i32>::new().apply(2, 3), 6);
        assert_eq!(Div::<f64>::new().apply(1.0, 4.0), 0.25);
        assert_eq!(RDiv::<f64>::new().apply(4.0, 1.0), 0.25);
    }

    #[test]
    fn selection_ops() {
        assert_eq!(First::<u8>::new().apply(7, 9), 7);
        assert_eq!(Second::<u8>::new().apply(7, 9), 9);
        assert_eq!(Pair::<u8>::new().apply(7, 9), 1);
    }

    #[test]
    fn argument_ignoring_ops_take_any_domain_there() {
        assert_eq!(First::<u64>::new().apply(7, true), 7);
        assert_eq!(Second::<f64>::new().apply(true, 2.5), 2.5);
        assert_eq!(Pair::<u64>::new().apply(true, false), 1);
    }

    #[test]
    fn min_max_prefer_first_on_ties() {
        // Stability matters for deterministic parent selection in BFS.
        assert_eq!(Min::<u32>::new().apply(4, 4), 4);
        assert_eq!(Min::<f64>::new().apply(1.5, 2.5), 1.5);
        assert_eq!(Max::<f64>::new().apply(1.5, 2.5), 2.5);
    }

    #[test]
    fn min_with_nan_keeps_first_argument() {
        // `b < a` is false when b is NaN, so a NaN on the right never wins.
        let m = Min::<f64>::new();
        assert_eq!(m.apply(1.0, f64::NAN), 1.0);
    }

    #[test]
    fn logical_ops() {
        assert!(Lor.apply(false, true));
        assert!(!Land.apply(false, true));
        assert!(Lxor.apply(false, true));
        assert!(!Lxor.apply(true, true));
    }
}
