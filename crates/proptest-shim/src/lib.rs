//! A deterministic, dependency-free stand-in for the `proptest` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the small slice of proptest's API its test suites actually use:
//! the [`proptest!`] macro, `prop_assert*` / `prop_assume!`, range and
//! `any::<T>()` strategies, `collection::vec`, `Just`, `prop_oneof!`, and
//! `prop_map`. Semantics differ from real proptest in one deliberate way:
//! cases are generated from a fixed per-case seed, so every run of every
//! test is bit-for-bit reproducible (there is no persistence file).
//!
//! Failures shrink: integer strategies walk toward their lower bound,
//! vector strategies drop and simplify elements, and the harness greedily
//! re-runs smaller candidates (coordinate-wise across the test's
//! arguments) until no candidate still fails, then reports the minimal
//! failing input alongside the original assertion message.

use std::fmt;

/// Sentinel error used by [`prop_assume!`] to reject a case.
#[doc(hidden)]
pub const ASSUME_REJECTED: &str = "__prop_assume_rejected__";

/// Test-harness configuration (`#![proptest_config(...)]`).
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Deterministic case-level RNG (SplitMix64).
pub mod test_runner {
    /// A small deterministic generator seeded per test case.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// The generator for case number `case` of a test run.
        pub fn for_case(case: u64) -> Self {
            TestRng {
                state: 0x9E37_79B9_7F4A_7C15 ^ case.wrapping_mul(0xA24B_AED4_963E_E407),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform float in `[0, 1)`.
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform integer in `[0, bound)`; `bound` must be positive.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "bound must be positive");
            ((self.next_u64() as u128 * bound as u128) >> 64) as u64
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// Generates values of an associated type from a case RNG.
    pub trait Strategy {
        /// The generated value type.
        type Value;

        /// Produces one value for the current case.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Candidate simplifications of a failing `value`, simplest first.
        /// The default is no shrinking.
        fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
            Vec::new()
        }

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    /// Boxes a strategy (helper for `prop_oneof!`).
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            (**self).shrink(value)
        }
    }

    /// Always yields a clone of the given value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Uniformly picks one of several boxed strategies.
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Builds the union; panics if `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].generate(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            // The producing arm is unknown; offer every arm's candidates
            // (arms that cannot have produced `value` simply offer none).
            self.options.iter().flat_map(|o| o.shrink(value)).collect()
        }
    }

    /// The result of [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S, F, U> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> U,
    {
        type Value = U;
        fn generate(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.generate(rng))
        }
        // No shrink: `f` is not invertible.
    }

    /// `any::<T>()` marker strategy.
    #[derive(Clone, Debug)]
    pub struct Any<T>(PhantomData<T>);

    /// Types with a full-range uniform strategy.
    pub trait Arbitrary {
        /// One uniform value over the type's whole domain.
        fn arbitrary(rng: &mut TestRng) -> Self;

        /// Candidate simplifications of `self`, simplest first.
        fn shrink(&self) -> Vec<Self>
        where
            Self: Sized,
        {
            Vec::new()
        }
    }

    /// Uniform values over the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
        fn shrink(&self, value: &T) -> Vec<T> {
            value.shrink()
        }
    }

    macro_rules! impl_arbitrary_uint {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    rng.next_u64() as $ty
                }
                fn shrink(&self) -> Vec<Self> {
                    let zero: $ty = 0;
                    if *self == zero {
                        return Vec::new();
                    }
                    let mut out = vec![zero];
                    let half = *self / 2;
                    if half != zero {
                        out.push(half);
                    }
                    let step = if *self > zero { *self - 1 } else { *self + 1 };
                    if step != zero && step != half {
                        out.push(step);
                    }
                    out
                }
            }
        )*};
    }
    impl_arbitrary_uint!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> Self {
            rng.next_u64() & 1 == 1
        }
        fn shrink(&self) -> Vec<Self> {
            if *self {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    macro_rules! impl_range_strategy_int {
        ($($ty:ty),*) => {$(
            impl Strategy for Range<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $ty
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_toward(self.start, *value)
                }
            }
            impl Strategy for RangeInclusive<$ty> {
                type Value = $ty;
                fn generate(&self, rng: &mut TestRng) -> $ty {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64 + 1;
                    lo + rng.below(span) as $ty
                }
                fn shrink(&self, value: &$ty) -> Vec<$ty> {
                    shrink_toward(*self.start(), *value)
                }
            }

            impl ShrinkToward for $ty {
                fn shrink_toward(lo: $ty, value: $ty) -> Vec<$ty> {
                    if value <= lo {
                        return Vec::new();
                    }
                    let mut out = vec![lo];
                    let mid = lo + (value - lo) / 2;
                    if mid != lo && mid != value {
                        out.push(mid);
                    }
                    let dec = value - 1;
                    if dec != lo && dec != mid {
                        out.push(dec);
                    }
                    out
                }
            }
        )*};
    }
    impl_range_strategy_int!(u8, u16, u32, u64, usize);

    /// Integer shrinking toward a lower bound (bisect, then decrement).
    trait ShrinkToward: Sized {
        fn shrink_toward(lo: Self, value: Self) -> Vec<Self>;
    }

    fn shrink_toward<T: ShrinkToward>(lo: T, value: T) -> Vec<T> {
        T::shrink_toward(lo, value)
    }

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.next_f64() * (self.end - self.start)
        }
        fn shrink(&self, value: &f64) -> Vec<f64> {
            if *value <= self.start {
                return Vec::new();
            }
            let mid = self.start + (*value - self.start) / 2.0;
            let mut out = vec![self.start];
            if mid != self.start && mid != *value {
                out.push(mid);
            }
            out
        }
    }

    macro_rules! impl_strategy_tuple {
        ($(($($S:ident . $idx:tt),+))+) => {$(
            impl<$($S: Strategy),+> Strategy for ($($S,)+)
            where
                $($S::Value: Clone),+
            {
                type Value = ($($S::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
                fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                    let mut out = Vec::new();
                    $(
                        for cand in self.$idx.shrink(&value.$idx) {
                            let mut next = value.clone();
                            next.$idx = cand;
                            out.push(next);
                        }
                    )+
                    out
                }
            }
        )+};
    }
    impl_strategy_tuple! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Bound;
    use std::ops::RangeBounds;

    /// Generates `Vec`s whose lengths fall in a size range.
    pub struct VecStrategy<S> {
        elem: S,
        min: usize,
        max: usize,
    }

    /// A vector strategy with element strategy `elem` and a length drawn
    /// uniformly from `size` (exclusive or inclusive upper bound).
    pub fn vec<S: Strategy>(elem: S, size: impl RangeBounds<usize>) -> VecStrategy<S> {
        let min = match size.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let max = match size.end_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.saturating_sub(1),
            Bound::Unbounded => min + 64,
        };
        assert!(min <= max, "empty size range");
        VecStrategy { elem, min, max }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.max - self.min) as u64 + 1;
            let len = self.min + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let mut out = Vec::new();
            // Structural shrinks first (shorter is simpler), never below
            // the strategy's minimum length.
            if value.len() > self.min {
                let half = value.len() / 2;
                if half >= self.min && half < value.len() {
                    out.push(value[..half].to_vec());
                }
                out.push(value[..value.len() - 1].to_vec());
                out.push(value[1..].to_vec());
            }
            // Then elementwise shrinks, bounded to keep candidate lists
            // small on long vectors.
            for (i, v) in value.iter().enumerate().take(8) {
                for cand in self.elem.shrink(v).into_iter().take(2) {
                    let mut next = value.clone();
                    next[i] = cand;
                    out.push(next);
                }
            }
            out
        }
    }
}

/// Everything a proptest module conventionally imports.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

#[doc(hidden)]
pub fn __panic_on_failure(test: &str, case: u32, msg: &str) -> ! {
    panic!("proptest '{test}' failed at case {case}: {msg}")
}

/// Ties a case-runner closure's argument type to its strategy's `Value`
/// so the macro-generated closure body type-checks without annotations.
#[doc(hidden)]
pub fn __checked_runner<S, F>(_strategy: &S, run: F) -> F
where
    S: strategy::Strategy,
    F: Fn(S::Value) -> Result<(), String>,
{
    run
}

/// Greedily shrinks a failing input: whenever any candidate still fails,
/// adopt it and restart, until no candidate fails or the budget runs out.
#[doc(hidden)]
pub fn __shrink_failure<S, F>(
    strategy: &S,
    mut value: S::Value,
    mut msg: String,
    run: &F,
) -> (S::Value, String)
where
    S: strategy::Strategy,
    S::Value: Clone,
    F: Fn(S::Value) -> Result<(), String>,
{
    let mut budget = 512usize;
    'outer: loop {
        for cand in strategy.shrink(&value) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            match run(cand.clone()) {
                Err(m) if m != ASSUME_REJECTED => {
                    value = cand;
                    msg = m;
                    continue 'outer;
                }
                _ => {}
            }
        }
        break;
    }
    (value, msg)
}

#[doc(hidden)]
pub struct __CaseError(pub String);

impl fmt::Debug for __CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Declares deterministic property tests.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_body! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_body! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    ($cfg:expr; $( $(#[$meta:meta])* fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )+ ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let strategy = ($( $strat, )+);
                let run = $crate::__checked_runner(&strategy, |($($arg,)+)| {
                    $body
                    ::std::result::Result::Ok(())
                });
                for case in 0..config.cases {
                    let mut rng = $crate::test_runner::TestRng::for_case(case as u64);
                    let value = $crate::strategy::Strategy::generate(&strategy, &mut rng);
                    match run(::std::clone::Clone::clone(&value)) {
                        ::std::result::Result::Ok(()) => {}
                        ::std::result::Result::Err(msg) if msg == $crate::ASSUME_REJECTED => {}
                        ::std::result::Result::Err(msg) => {
                            let (value, msg) =
                                $crate::__shrink_failure(&strategy, value, msg, &run);
                            $crate::__panic_on_failure(
                                stringify!($name),
                                case,
                                &::std::format!("{msg}\n  minimal failing input: {value:?}"),
                            )
                        }
                    }
                }
            }
        )+
    };
}

/// Asserts a condition inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {}",
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
}

/// Asserts inequality inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} != {}",
                stringify!($left),
                stringify!($right)
            ));
        }
    }};
}

/// Rejects the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::string::String::from(
                $crate::ASSUME_REJECTED,
            ));
        }
    };
}

/// Uniformly picks one of the listed strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(vec![$($crate::strategy::boxed($s)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(a in 3u64..10, b in 0.5f64..1.5, n in 1usize..=4) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((0.5..1.5).contains(&b));
            prop_assert!((1..=4).contains(&n));
        }

        #[test]
        fn vec_lengths_respect_size_range(
            v in crate::collection::vec(any::<u8>(), 2..6),
        ) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
        }

        #[test]
        fn oneof_and_map_compose(
            x in prop_oneof![Just(1u32), Just(2u32)].prop_map(|v| v * 10),
        ) {
            prop_assert!(x == 10 || x == 20);
            prop_assert_ne!(x, 15);
            prop_assert_eq!(x % 10, 0);
        }

        #[test]
        fn assume_rejects_without_failing(x in 0u64..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::test_runner::TestRng::for_case(7);
        let mut b = crate::test_runner::TestRng::for_case(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn integer_shrink_moves_toward_range_start() {
        let strat = 3u64..100;
        let candidates = strat.shrink(&90);
        assert!(candidates.contains(&3), "lower bound offered first");
        assert!(candidates.iter().all(|c| *c >= 3 && *c < 90));
        assert!(strat.shrink(&3).is_empty(), "minimum cannot shrink");
    }

    #[test]
    fn vec_shrink_respects_min_len_and_simplifies_elements() {
        let strat = crate::collection::vec(0u8..50, 2..6);
        let candidates = strat.shrink(&vec![9, 9, 9, 9]);
        assert!(candidates.iter().all(|c| c.len() >= 2));
        assert!(candidates.iter().any(|c| c.len() < 4), "drops elements");
        assert!(
            candidates.iter().any(|c| c.len() == 4 && c.contains(&0)),
            "shrinks an element toward its bound"
        );
    }

    #[test]
    fn greedy_shrink_finds_minimal_counterexample() {
        // Fails iff x >= 17: the shrinker must land exactly on 17.
        let strat = (0u64..1000,);
        let run = |(x,): (u64,)| {
            if x >= 17 {
                Err("too big".to_owned())
            } else {
                Ok(())
            }
        };
        let (min, msg) = crate::__shrink_failure(&strat, (900,), "too big".to_owned(), &run);
        assert_eq!(min.0, 17);
        assert_eq!(msg, "too big");
    }

    #[test]
    fn any_shrink_halves_toward_zero() {
        use crate::strategy::Arbitrary;
        let candidates = 64u32.shrink();
        assert_eq!(candidates, vec![0, 32, 63]);
        let signed = (-8i32).shrink();
        assert!(signed.contains(&0) && signed.contains(&-4));
        assert!(0u8.shrink().is_empty());
    }
}
