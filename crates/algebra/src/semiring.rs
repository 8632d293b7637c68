//! Semirings: an "add" monoid paired with a "multiply" binary op.
//!
//! The semiring is the lever that turns one `mxm`/`mxv` kernel into many
//! graph algorithms: `PlusTimes` gives linear algebra, `MinPlus` gives
//! shortest paths, `LorLand` gives reachability, `MinSecond` propagates
//! labels, `PlusPair` counts intersections (triangles).

use std::marker::PhantomData;

use crate::identities::{Bounded, One, Zero};
use crate::monoid::{LorMonoid, MaxMonoid, MinMonoid, Monoid, PlusMonoid};
use crate::ops::{First, Land, Max, Min, Pair, Plus, Second, Times};
use crate::{BinaryOp, Scalar};

/// An algebraic semiring `D1 × D2 → T`: the multiply maps the two operands'
/// domains into `T`, where the add monoid lives — GBTL's
/// `Semiring<D1, D2, D3>` with the output domain first, so that
/// `Semiring<T>` stays the single-domain semiring.
///
/// `add()` must be a commutative monoid; `mul()` is any binary op. The usual
/// annihilator law (`mul(x, 0) == 0`) is *not* required because GraphBLAS
/// operates on stored entries only — absent entries never reach `mul`.
///
/// The semirings whose multiply ignores an operand are defined for every
/// domain of that operand (`MinSecond<u64>: Semiring<u64, bool, u64>`),
/// which is what lets a boolean adjacency be multiplied against typed
/// vectors as it stands. Called on such a semiring outside a generic
/// context, `add()`/`mul()` need the domains spelled out:
/// `Semiring::<u64, bool, u64>::mul(&sr)`.
pub trait Semiring<T: Scalar, D1: Scalar = T, D2: Scalar = T>:
    Copy + Send + Sync + 'static
{
    /// The additive monoid type.
    type Add: Monoid<T>;
    /// The multiplicative binary-op type.
    type Mul: BinaryOp<T, D1, D2>;

    /// The additive ("reduce") monoid.
    fn add(&self) -> Self::Add;
    /// The multiplicative ("combine") operator.
    fn mul(&self) -> Self::Mul;

    /// The additive identity, i.e. the semiring "zero".
    #[inline(always)]
    fn zero(&self) -> T {
        self.add().identity()
    }
}

/// Build a semiring from any monoid and binary op.
///
/// Named semirings below are thin wrappers over this; use it directly for
/// one-off algebra experiments:
///
/// ```
/// use gbtl_algebra::{CustomSemiring, MaxMonoid, Plus, Semiring, BinaryOp, Monoid};
///
/// // max-plus: longest path / critical path algebra
/// let sr = CustomSemiring::new(MaxMonoid::<i64>::new(), Plus::<i64>::new());
/// assert_eq!(sr.add().apply(sr.mul().apply(3, 4), 5), 7);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CustomSemiring<A, M> {
    add: A,
    mul: M,
}

impl<A, M> CustomSemiring<A, M> {
    /// Pair an additive monoid with a multiplicative op.
    #[inline(always)]
    pub const fn new(add: A, mul: M) -> Self {
        Self { add, mul }
    }
}

impl<T, D1, D2, A, M> Semiring<T, D1, D2> for CustomSemiring<A, M>
where
    T: Scalar,
    D1: Scalar,
    D2: Scalar,
    A: Monoid<T> + 'static,
    M: BinaryOp<T, D1, D2> + 'static,
{
    type Add = A;
    type Mul = M;

    #[inline(always)]
    fn add(&self) -> A {
        self.add
    }

    #[inline(always)]
    fn mul(&self) -> M {
        self.mul
    }
}

macro_rules! declare_semiring {
    ($(#[$doc:meta])* $name:ident, $addm:ident, $mulop:ident, [$($bound:tt)*]) => {
        declare_semiring!($(#[$doc])* $name, $addm, $mulop, [$($bound)*], [], [T, T]);
    };
    // `[$free]` are the operand domains the multiply ignores, `[$d1, $d2]`
    // the semiring's two operand domains in terms of `T` and those.
    ($(#[$doc:meta])* $name:ident, $addm:ident, $mulop:ident, [$($bound:tt)*],
     [$($free:ident),*], [$d1:ty, $d2:ty]) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct $name<T>(PhantomData<fn() -> T>);

        impl<T> $name<T> {
            /// Construct the semiring.
            #[inline(always)]
            pub const fn new() -> Self {
                Self(PhantomData)
            }
        }

        impl<T, $($free: Scalar),*> Semiring<T, $d1, $d2> for $name<T>
        where
            T: Scalar + $($bound)*,
        {
            type Add = $addm<T>;
            type Mul = $mulop<T>;

            #[inline(always)]
            fn add(&self) -> Self::Add {
                $addm::new()
            }

            #[inline(always)]
            fn mul(&self) -> Self::Mul {
                $mulop::new()
            }
        }
    };
}

declare_semiring!(
    /// The arithmetic semiring `(+, ×, 0)` — classical linear algebra.
    PlusTimes, PlusMonoid, Times,
    [Zero + std::ops::Add<Output = T> + std::ops::Mul<Output = T>]
);
declare_semiring!(
    /// The tropical semiring `(min, +, ∞)` — single-source shortest paths.
    MinPlus, MinMonoid, Plus,
    [PartialOrd + Bounded + std::ops::Add<Output = T>]
);
declare_semiring!(
    /// `(max, +, -∞)` — longest/critical paths, Viterbi-style scoring.
    MaxPlus, MaxMonoid, Plus,
    [PartialOrd + Bounded + std::ops::Add<Output = T>]
);
declare_semiring!(
    /// `(min, ×, ∞)` — minimal products, reliability lower bounds.
    MinTimes, MinMonoid, Times,
    [PartialOrd + Bounded + std::ops::Mul<Output = T>]
);
declare_semiring!(
    /// `(max, ×, -∞)` — maximal products (e.g. most-probable path on
    /// probabilities in `[0,1]`).
    MaxTimes, MaxMonoid, Times,
    [PartialOrd + Bounded + std::ops::Mul<Output = T>]
);
declare_semiring!(
    /// `(min, max, ∞)` — minimax / bottleneck shortest path.
    MinMax, MinMonoid, Max,
    [PartialOrd + Bounded]
);
declare_semiring!(
    /// `(max, min, -∞)` — maximin / widest path (maximum-capacity routing).
    MaxMin, MaxMonoid, Min,
    [PartialOrd + Bounded]
);
declare_semiring!(
    /// `(min, first, ∞)` — propagate the *source* value along edges, keeping
    /// the minimum. Used for parent selection when the vector carries ids.
    MinFirst, MinMonoid, First,
    [PartialOrd + Bounded], [D2], [T, D2]
);
declare_semiring!(
    /// `(min, second, ∞)` — propagate the *edge/vector* value, keeping the
    /// minimum. The label-propagation workhorse (connected components, BFS
    /// parents).
    MinSecond, MinMonoid, Second,
    [PartialOrd + Bounded], [D1], [D1, T]
);
declare_semiring!(
    /// `(+, first, 0)` — sum source values across edges.
    PlusFirst, PlusMonoid, First,
    [Zero + std::ops::Add<Output = T>], [D2], [T, D2]
);
declare_semiring!(
    /// `(+, second, 0)` — sum propagated values across edges (path counting).
    PlusSecond, PlusMonoid, Second,
    [Zero + std::ops::Add<Output = T>], [D1], [D1, T]
);
declare_semiring!(
    /// `(+, min, 0)` — sum of edge-wise minima.
    PlusMin, PlusMonoid, Min,
    [Zero + PartialOrd + std::ops::Add<Output = T>]
);
declare_semiring!(
    /// `(+, pair, 0)` — counts structural intersections; the triangle-count
    /// semiring (`mul` is the constant `1`).
    PlusPair, PlusMonoid, Pair,
    [Zero + One + std::ops::Add<Output = T>], [D1, D2], [D1, D2]
);

/// The boolean semiring `(∨, ∧, false)` — reachability / BFS frontiers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LorLand;

impl LorLand {
    /// Construct the semiring.
    #[inline(always)]
    pub const fn new() -> Self {
        Self
    }
}

impl Semiring<bool> for LorLand {
    type Add = LorMonoid;
    type Mul = Land;

    #[inline(always)]
    fn add(&self) -> LorMonoid {
        LorMonoid::new()
    }

    #[inline(always)]
    fn mul(&self) -> Land {
        Land
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plus_times_matches_arithmetic() {
        let sr = PlusTimes::<i64>::new();
        // 2*3 + 4*5 = 26
        let acc = sr.add().apply(sr.mul().apply(2, 3), sr.mul().apply(4, 5));
        assert_eq!(acc, 26);
        assert_eq!(sr.zero(), 0);
    }

    #[test]
    fn min_plus_relaxes_paths() {
        let sr = MinPlus::<u32>::new();
        // dist 5 via edge 2 vs dist 9 direct: min(5+2, 9) = 7
        let d = sr.add().apply(sr.mul().apply(5, 2), 9);
        assert_eq!(d, 7);
        assert_eq!(sr.zero(), u32::MAX);
    }

    #[test]
    fn lor_land_is_reachability() {
        let sr = LorLand::new();
        assert!(sr.add().apply(sr.mul().apply(true, true), false));
        assert!(!sr.add().apply(sr.mul().apply(true, false), false));
        assert!(!sr.zero());
    }

    /// `a₁ ⊗ b₁ ⊕ a₂ ⊗ b₂` — the domains come from the arguments, as they
    /// do in a kernel.
    fn dot2<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
        sr: S,
        (a1, b1): (D1, D2),
        (a2, b2): (D1, D2),
    ) -> T {
        sr.add()
            .apply(sr.mul().apply(a1, b1), sr.mul().apply(a2, b2))
    }

    #[test]
    fn min_second_propagates_labels() {
        // two in-edges carrying labels 9 and 4 -> keep 4
        let sr = MinSecond::<u64>::new();
        assert_eq!(dot2(sr, (100u64, 9), (200, 4)), 4);
        // the edge values are never read: a boolean adjacency does as well
        assert_eq!(dot2(sr, (true, 9), (true, 4)), 4);
    }

    #[test]
    fn plus_pair_counts() {
        let sr = PlusPair::<u64>::new();
        assert_eq!(dot2(sr, (123u64, 456u64), (7, 8)), 2);
        assert_eq!(dot2(sr, (true, true), (true, true)), 2);
    }

    #[test]
    fn first_semirings_take_any_second_domain() {
        // vxm over a boolean matrix: the vector value is the first operand
        assert_eq!(dot2(MinFirst::<u64>::new(), (7, true), (3, true)), 3);
        assert_eq!(
            dot2(PlusFirst::<f64>::new(), (0.5, true), (0.25, true)),
            0.75
        );
        assert_eq!(
            dot2(PlusSecond::<f64>::new(), (true, 0.5), (true, 0.25)),
            0.75
        );
    }

    #[test]
    fn max_min_is_widest_path() {
        let sr = MaxMin::<u32>::new();
        // bottleneck of path = min of capacities; best path = max bottleneck
        let w = sr.add().apply(sr.mul().apply(10, 3), sr.mul().apply(5, 4));
        assert_eq!(w, 4);
    }

    #[test]
    fn custom_semiring_composes() {
        let sr = CustomSemiring::new(MaxMonoid::<i64>::new(), Plus::<i64>::new());
        assert_eq!(sr.add().apply(sr.mul().apply(3, 4), 5), 7);
        assert_eq!(sr.zero(), i64::MIN);
    }
}
