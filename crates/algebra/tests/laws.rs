//! Property tests of the algebraic laws the backends rely on.
//!
//! Backends reassociate and reorder reductions freely (tree reductions,
//! segmented reductions, reduce-by-key), which is only sound if every monoid
//! is genuinely associative and commutative and every identity is neutral.

use gbtl_algebra::{
    BinaryOp, LandMonoid, LorLand, LorMonoid, LxorMonoid, MaxMonoid, MaxPlus, MinMonoid, MinPlus,
    MinSecond, Monoid, PlusMonoid, PlusPair, PlusTimes, Scalar, Semiring, TimesMonoid,
};
use proptest::prelude::*;

macro_rules! monoid_laws {
    ($modname:ident, $monoid:expr, $t:ty, $strategy:expr) => {
        mod $modname {
            use super::*;

            proptest! {
                #[test]
                fn associative(a in $strategy, b in $strategy, c in $strategy) {
                    let m = $monoid;
                    prop_assert_eq!(
                        m.apply(m.apply(a, b), c),
                        m.apply(a, m.apply(b, c))
                    );
                }

                #[test]
                fn commutative(a in $strategy, b in $strategy) {
                    let m = $monoid;
                    prop_assert_eq!(m.apply(a, b), m.apply(b, a));
                }

                #[test]
                fn identity_neutral(a in $strategy) {
                    let m = $monoid;
                    prop_assert_eq!(m.apply(m.identity(), a), a);
                    prop_assert_eq!(m.apply(a, m.identity()), a);
                }
            }
        }
    };
}

// Wrapping-free integer ranges so `+`/`*` stay associative without overflow.
monoid_laws!(
    plus_i64,
    PlusMonoid::<i64>::new(),
    i64,
    -1_000_000i64..1_000_000
);
monoid_laws!(times_i64, TimesMonoid::<i64>::new(), i64, -1_000i64..1_000);
monoid_laws!(min_u32, MinMonoid::<u32>::new(), u32, any::<u32>());
monoid_laws!(max_i32, MaxMonoid::<i32>::new(), i32, any::<i32>());
monoid_laws!(min_f64, MinMonoid::<f64>::new(), f64, -1e300f64..1e300);
monoid_laws!(max_f64, MaxMonoid::<f64>::new(), f64, -1e300f64..1e300);
monoid_laws!(lor, LorMonoid::new(), bool, any::<bool>());
monoid_laws!(land, LandMonoid::new(), bool, any::<bool>());
monoid_laws!(lxor, LxorMonoid::new(), bool, any::<bool>());

proptest! {
    /// Multiplication distributes over addition in the arithmetic semiring.
    #[test]
    fn plus_times_distributes(a in -1_000i64..1_000, b in -1_000i64..1_000, c in -1_000i64..1_000) {
        let sr = PlusTimes::<i64>::new();
        let lhs = sr.mul().apply(a, sr.add().apply(b, c));
        let rhs = sr.add().apply(sr.mul().apply(a, b), sr.mul().apply(a, c));
        prop_assert_eq!(lhs, rhs);
    }

    /// `+` distributes over `min` in the tropical semiring (on a range where
    /// `+` cannot overflow past the `u32::MAX` identity).
    #[test]
    fn min_plus_distributes(a in 0u32..1_000_000, b in 0u32..1_000_000, c in 0u32..1_000_000) {
        let sr = MinPlus::<u32>::new();
        let lhs = sr.mul().apply(a, sr.add().apply(b, c));
        let rhs = sr.add().apply(sr.mul().apply(a, b), sr.mul().apply(a, c));
        prop_assert_eq!(lhs, rhs);
    }

    /// Same law for max-plus.
    #[test]
    fn max_plus_distributes(a in -1_000_000i64..1_000_000, b in -1_000_000i64..1_000_000, c in -1_000_000i64..1_000_000) {
        let sr = MaxPlus::<i64>::new();
        let lhs = sr.mul().apply(a, sr.add().apply(b, c));
        let rhs = sr.add().apply(sr.mul().apply(a, b), sr.mul().apply(a, c));
        prop_assert_eq!(lhs, rhs);
    }

    /// And for the boolean semiring.
    #[test]
    fn lor_land_distributes(a: bool, b: bool, c: bool) {
        let sr = LorLand::new();
        let lhs = sr.mul().apply(a, sr.add().apply(b, c));
        let rhs = sr.add().apply(sr.mul().apply(a, b), sr.mul().apply(a, c));
        prop_assert_eq!(lhs, rhs);
    }

    /// MinSecond: result only depends on the second operands and the min —
    /// whatever domain the first operands come from.
    #[test]
    fn min_second_ignores_first(a1: u64, a2: bool, b in any::<u64>(), c in any::<u64>()) {
        let sr = MinSecond::<u64>::new();
        let r1 = dot2(sr, (a1, b), (a1, c));
        let r2 = dot2(sr, (a2, b), (a2, c));
        prop_assert_eq!(r1, r2);
        prop_assert_eq!(r1, b.min(c));
    }

    /// PlusPair over n terms counts n, over any operand domains.
    #[test]
    fn plus_pair_counts_terms(xs in proptest::collection::vec(any::<u64>(), 0..64)) {
        let sr = PlusPair::<u64>::new();
        prop_assert_eq!(fold(sr, xs.iter().map(|&x| (x, x))), xs.len() as u64);
        prop_assert_eq!(fold(sr, xs.iter().map(|&x| (x % 2 == 0, x))), xs.len() as u64);
    }
}

/// `⊕ᵢ aᵢ ⊗ bᵢ` from the semiring's zero — the operand domains come from
/// the arguments, as they do in a kernel.
fn fold<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
    sr: S,
    terms: impl Iterator<Item = (D1, D2)>,
) -> T {
    terms.fold(sr.zero(), |acc, (a, b)| {
        sr.add().apply(acc, sr.mul().apply(a, b))
    })
}

fn dot2<T: Scalar, D1: Scalar, D2: Scalar, S: Semiring<T, D1, D2>>(
    sr: S,
    x: (D1, D2),
    y: (D1, D2),
) -> T {
    sr.add()
        .apply(sr.mul().apply(x.0, x.1), sr.mul().apply(y.0, y.1))
}

/// `terminal()` absorbs from the left — the side a left fold keeps its
/// accumulator on — for every `x`, and from the right for every `x` that
/// equals itself. A float `NaN` on the left survives `Min`/`Max` (they keep
/// the left operand unless the right compares strictly better): that is why
/// the law `row_dot`'s early exit rests on is the left one.
fn assert_terminal_absorbs<T: Scalar, M: Monoid<T>>(m: M, edge_values: &[T]) {
    let t = m.terminal().expect("monoid declares a terminal value");
    for &x in edge_values {
        assert_eq!(m.apply(t, x), t, "combine(terminal, {x:?})");
        #[allow(clippy::eq_op)]
        if x == x {
            assert_eq!(m.apply(x, t), t, "combine({x:?}, terminal)");
        } else {
            let kept = m.apply(x, t);
            assert!(kept != kept, "combine(NaN, terminal) keeps the NaN");
        }
    }
}

#[test]
fn terminal_values_absorb_over_the_domain_edges() {
    assert_terminal_absorbs(LorMonoid::new(), &[false, true]);
    assert_terminal_absorbs(LandMonoid::new(), &[false, true]);
    assert_terminal_absorbs(MinMonoid::<u32>::new(), &[0, 1, u32::MAX - 1, u32::MAX]);
    assert_terminal_absorbs(MaxMonoid::<u32>::new(), &[0, 1, u32::MAX - 1, u32::MAX]);
    let signed = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    assert_terminal_absorbs(MinMonoid::<i64>::new(), &signed);
    assert_terminal_absorbs(MaxMonoid::<i64>::new(), &signed);
    let floats = [
        f64::NEG_INFINITY,
        f64::MIN,
        -1.0,
        -0.0,
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
    ];
    assert_terminal_absorbs(MinMonoid::<f64>::new(), &floats);
    assert_terminal_absorbs(MaxMonoid::<f64>::new(), &floats);
    let singles = floats.map(|x| x as f32);
    assert_terminal_absorbs(MinMonoid::<f32>::new(), &singles);
    assert_terminal_absorbs(MaxMonoid::<f32>::new(), &singles);

    assert_eq!(MinMonoid::<f64>::new().terminal(), Some(f64::NEG_INFINITY));
    assert_eq!(MaxMonoid::<f64>::new().terminal(), Some(f64::INFINITY));
    assert_eq!(MinMonoid::<u32>::new().terminal(), Some(0));
    assert_eq!(MaxMonoid::<i64>::new().terminal(), Some(i64::MAX));
}

#[test]
fn monoids_without_an_absorbing_value_declare_none() {
    assert_eq!(PlusMonoid::<i64>::new().terminal(), None);
    assert_eq!(PlusMonoid::<f64>::new().terminal(), None);
    assert_eq!(TimesMonoid::<i64>::new().terminal(), None);
    assert_eq!(TimesMonoid::<f64>::new().terminal(), None);
    assert_eq!(LxorMonoid::new().terminal(), None);
}
