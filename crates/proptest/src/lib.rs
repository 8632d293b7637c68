//! Minimal, API-compatible stand-in for the parts of `proptest` this
//! workspace uses. The build container has no network access, so the real
//! crate cannot be fetched; test sources stay unchanged.
//!
//! Differences from the real crate, by design:
//! - cases are generated from a fixed deterministic seed sequence (fully
//!   reproducible run to run);
//! - no shrinking — a failing case reports its index and internal seed and
//!   re-raises the assertion panic;
//! - `prop_assert*` panic instead of returning `TestCaseError`.
//!
//! Supported surface: `proptest! { #![proptest_config(...)] #[test] fn f(x in
//! strategy, y: type) { .. } }`, `Strategy` (ranges, tuples, `prop_map`,
//! `prop_flat_map`), `collection::vec`, `option::of`, `any::<T>()`, `Just`,
//! `ProptestConfig::with_cases`, `prop_assert!`/`prop_assert_eq!`/
//! `prop_assert_ne!`.

pub mod test_runner {
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// Runner configuration; only `cases` is honoured.
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        /// 64 cases unless `PROPTEST_CASES` overrides (the real crate's
        /// env knob; the default is lower than upstream's 256 to keep the
        /// suite fast on small CI boxes).
        fn default() -> Self {
            let cases = std::env::var("PROPTEST_CASES")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(64);
            ProptestConfig { cases }
        }
    }

    /// Deterministic per-case seed (fixed base, scrambled by case index).
    pub fn case_seed(case: u32) -> u64 {
        0x5EED_0BAD_F00D_u64 ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Source of randomness handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng(StdRng);

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            TestRng(StdRng::seed_from_u64(seed))
        }

        pub fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }

        /// Uniform in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values. Unlike the real crate there is no
    /// value tree or shrinking: `generate` draws one value.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    let v = (rng.next_u64() as u128) % span;
                    (self.start as i128 + v as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi as i128 - lo as i128) as u128 + 1;
                    let v = (rng.next_u64() as u128) % span;
                    (lo as i128 + v as i128) as $t
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for Range<f32> {
        type Value = f32;
        fn generate(&self, rng: &mut TestRng) -> f32 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (rng.unit_f64() as f32) * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategy {
        ($(($($s:ident),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($s,)+) = self;
                    ($($s.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategy! { (A) (A, B) (A, B, C) (A, B, C, D) (A, B, C, D, E) }
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical whole-domain strategy (`any::<T>()` and the
    /// `name: type` argument form of `proptest!`).
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite values only, spanning sign and a wide magnitude range.
            let mag = (rng.unit_f64() * 600.0) - 300.0;
            let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
            sign * 10f64.powf(mag)
        }
    }

    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// Accepted length specifications for [`vec`](fn@vec): an exact `usize`, a
    /// half-open `Range<usize>`, or an inclusive range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange {
                lo: n,
                hi_exclusive: n + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_exclusive: r.end,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi_exclusive: *r.end() + 1,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi_exclusive - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub struct OptionStrategy<S>(S);

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Some with probability 3/4, as in the real crate's default.
            if rng.next_u64() & 3 == 0 {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }

    /// `Option<T>` strategy: usually `Some`, sometimes `None`.
    pub fn of<S: Strategy>(element: S) -> OptionStrategy<S> {
        OptionStrategy(element)
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// The test-definition macro. Accepts an optional
/// `#![proptest_config(expr)]` header followed by `#[test] fn name(args)
/// { body }` items, where each argument is `pattern in strategy` or
/// `name: type`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($args:tt)*) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__cfg.cases {
                let __seed = $crate::test_runner::case_seed(__case);
                let __outcome =
                    ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(|| {
                        let mut __rng = $crate::test_runner::TestRng::from_seed(__seed);
                        $crate::__proptest_bind!(__rng $($args)*);
                        $body
                    }));
                if let Err(__panic) = __outcome {
                    eprintln!(
                        "proptest: case {}/{} failed (internal seed {:#x})",
                        __case + 1,
                        __cfg.cases,
                        __seed
                    );
                    ::std::panic::resume_unwind(__panic);
                }
            }
        }
        $crate::__proptest_tests! { ($cfg) $($rest)* }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_bind {
    ($rng:ident) => {};
    ($rng:ident $pat:pat_param in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
        $crate::__proptest_bind!($rng $($rest)*);
    };
    ($rng:ident $pat:pat_param in $strat:expr) => {
        let $pat = $crate::strategy::Strategy::generate(&($strat), &mut $rng);
    };
    ($rng:ident $id:ident : $ty:ty, $($rest:tt)*) => {
        let $id = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!($rng $($rest)*);
    };
    ($rng:ident $id:ident : $ty:ty) => {
        let $id = <$ty as $crate::arbitrary::Arbitrary>::arbitrary(&mut $rng);
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { ::std::assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { ::std::assert!($cond, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { ::std::assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { ::std::assert_eq!($a, $b, $($fmt)+) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { ::std::assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { ::std::assert_ne!($a, $b, $($fmt)+) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Range, tuple and typed-argument forms all bind.
        #[test]
        fn arg_forms(a in -50i64..50, (x, y) in (0usize..10, 0usize..10), flag: bool) {
            prop_assert!((-50..50).contains(&a));
            prop_assert!(x < 10 && y < 10);
            let _ = flag;
        }

        #[test]
        fn vec_and_option(v in crate::collection::vec(0u32..7, 0..20),
                          o in crate::option::of(1i32..4)) {
            prop_assert!(v.len() < 20);
            prop_assert!(v.iter().all(|&x| x < 7));
            if let Some(x) = o {
                prop_assert!((1..4).contains(&x));
            }
        }

        #[test]
        fn map_and_flat_map(len in (1usize..9).prop_flat_map(|n| crate::collection::vec(0u8..255, n).prop_map(|v| v.len()))) {
            prop_assert!((1..9).contains(&len));
        }

        #[test]
        fn mut_binding(mut v in crate::collection::vec(0i64..100, 1..30)) {
            v.sort_unstable();
            prop_assert!(v.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::strategy::Strategy;
        let strat = crate::collection::vec(0u64..1000, 5..10);
        let mut r1 = crate::test_runner::TestRng::from_seed(99);
        let mut r2 = crate::test_runner::TestRng::from_seed(99);
        assert_eq!(strat.generate(&mut r1), strat.generate(&mut r2));
    }
}
