//! Monoids: associative, commutative binary ops with an identity element.
//!
//! The identity is what lets backends reduce over *sparse* data: missing
//! entries contribute the identity, so a reduction over stored values alone
//! is already the reduction over the whole (implicitly-zero-padded) row.

use crate::identities::{Bounded, One, Zero};
use crate::ops::{Land, Lor, Lxor, Max, Min, Plus, Times};
use crate::{BinaryOp, Scalar};

/// An associative, commutative [`BinaryOp`] with an identity element.
///
/// Associativity and commutativity are *contracts*, not compiler-checked
/// facts; the crate's property tests exercise them for every built-in monoid
/// so that backends are free to reassociate reductions (tree reductions on
/// the simulated GPU depend on this).
pub trait Monoid<T: Scalar>: BinaryOp<T> {
    /// The identity element: `combine(identity, x) == x` for all `x`.
    fn identity(&self) -> T;

    /// A value the fold cannot leave: `combine(terminal, x) == terminal` for
    /// every `x`, so a left fold that has reached it may stop (pull `mxv`
    /// does, per row). `None` — the default — when the monoid has no such
    /// value (`Plus`, `Times`, `Lxor`). Implementations must be a constant
    /// the optimiser can fold: a kernel over a monoid without one pays
    /// nothing for the test.
    ///
    /// The law is stated for the terminal on the *left*, where a fold keeps
    /// its accumulator. On the right it also holds for every `x` but a float
    /// `NaN`: [`Min`]/[`Max`] keep their left operand unless the right one
    /// compares strictly better, and nothing compares to `NaN`.
    #[inline(always)]
    fn terminal(&self) -> Option<T> {
        None
    }
}

/// Addition monoid (identity `0`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlusMonoid<T>(Plus<T>);

/// Multiplication monoid (identity `1`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TimesMonoid<T>(Times<T>);

/// Minimum monoid (identity: domain maximum / `+inf`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MinMonoid<T>(Min<T>);

/// Maximum monoid (identity: domain minimum / `-inf`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaxMonoid<T>(Max<T>);

/// Logical-OR monoid (identity `false`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LorMonoid(Lor);

/// Logical-AND monoid (identity `true`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LandMonoid(Land);

/// Logical-XOR monoid (identity `false`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LxorMonoid(Lxor);

macro_rules! monoid_ctor {
    ($name:ident, $inner:expr) => {
        impl $name {
            /// Construct the monoid.
            #[inline(always)]
            pub const fn new() -> Self {
                Self($inner)
            }
        }
    };
    ($name:ident<T>, $inner:expr) => {
        impl<T> $name<T> {
            /// Construct the monoid.
            #[inline(always)]
            pub const fn new() -> Self {
                Self($inner)
            }
        }
    };
}

monoid_ctor!(PlusMonoid<T>, Plus::new());
monoid_ctor!(TimesMonoid<T>, Times::new());
monoid_ctor!(MinMonoid<T>, Min::new());
monoid_ctor!(MaxMonoid<T>, Max::new());
monoid_ctor!(LorMonoid, Lor);
monoid_ctor!(LandMonoid, Land);
monoid_ctor!(LxorMonoid, Lxor);

impl<T> BinaryOp<T> for PlusMonoid<T>
where
    T: Scalar + std::ops::Add<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        self.0.apply(a, b)
    }
}

impl<T> Monoid<T> for PlusMonoid<T>
where
    T: Scalar + Zero + std::ops::Add<Output = T>,
{
    #[inline(always)]
    fn identity(&self) -> T {
        T::zero()
    }
}

impl<T> BinaryOp<T> for TimesMonoid<T>
where
    T: Scalar + std::ops::Mul<Output = T>,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        self.0.apply(a, b)
    }
}

impl<T> Monoid<T> for TimesMonoid<T>
where
    T: Scalar + One + std::ops::Mul<Output = T>,
{
    #[inline(always)]
    fn identity(&self) -> T {
        T::one()
    }
}

impl<T> BinaryOp<T> for MinMonoid<T>
where
    T: Scalar + PartialOrd,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        self.0.apply(a, b)
    }
}

impl<T> Monoid<T> for MinMonoid<T>
where
    T: Scalar + PartialOrd + Bounded,
{
    #[inline(always)]
    fn identity(&self) -> T {
        T::max_bound()
    }

    #[inline(always)]
    fn terminal(&self) -> Option<T> {
        Some(T::min_bound())
    }
}

impl<T> BinaryOp<T> for MaxMonoid<T>
where
    T: Scalar + PartialOrd,
{
    #[inline(always)]
    fn apply(&self, a: T, b: T) -> T {
        self.0.apply(a, b)
    }
}

impl<T> Monoid<T> for MaxMonoid<T>
where
    T: Scalar + PartialOrd + Bounded,
{
    #[inline(always)]
    fn identity(&self) -> T {
        T::min_bound()
    }

    #[inline(always)]
    fn terminal(&self) -> Option<T> {
        Some(T::max_bound())
    }
}

impl BinaryOp<bool> for LorMonoid {
    #[inline(always)]
    fn apply(&self, a: bool, b: bool) -> bool {
        self.0.apply(a, b)
    }
}

impl Monoid<bool> for LorMonoid {
    #[inline(always)]
    fn identity(&self) -> bool {
        false
    }

    #[inline(always)]
    fn terminal(&self) -> Option<bool> {
        Some(true)
    }
}

impl BinaryOp<bool> for LandMonoid {
    #[inline(always)]
    fn apply(&self, a: bool, b: bool) -> bool {
        self.0.apply(a, b)
    }
}

impl Monoid<bool> for LandMonoid {
    #[inline(always)]
    fn identity(&self) -> bool {
        true
    }

    #[inline(always)]
    fn terminal(&self) -> Option<bool> {
        Some(false)
    }
}

impl BinaryOp<bool> for LxorMonoid {
    #[inline(always)]
    fn apply(&self, a: bool, b: bool) -> bool {
        self.0.apply(a, b)
    }
}

impl Monoid<bool> for LxorMonoid {
    #[inline(always)]
    fn identity(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities_are_neutral() {
        let p = PlusMonoid::<i32>::new();
        assert_eq!(p.apply(p.identity(), 42), 42);
        let t = TimesMonoid::<i32>::new();
        assert_eq!(t.apply(t.identity(), 42), 42);
        let mn = MinMonoid::<u32>::new();
        assert_eq!(mn.apply(mn.identity(), 42), 42);
        let mx = MaxMonoid::<i64>::new();
        assert_eq!(mx.apply(mx.identity(), -42), -42);
        let lor = LorMonoid::new();
        assert!(!lor.apply(lor.identity(), false));
        let land = LandMonoid::new();
        assert!(land.apply(land.identity(), true));
    }

    #[test]
    fn float_min_identity_is_infinity() {
        let m = MinMonoid::<f64>::new();
        assert_eq!(m.identity(), f64::INFINITY);
        assert_eq!(m.apply(m.identity(), f64::MAX), f64::MAX);
    }
}
