//! Offline stand-in for the subset of `proptest` this repository uses
//! (the registry is unreachable where it is developed): seeded random
//! generation, no shrinking. Surface: `proptest!` with an optional
//! `#![proptest_config(..)]`, integer and `f64` ranges, `any::<T>()`,
//! tuples, `Just`, `prop_map`, `prop_oneof!` with and without weights,
//! `collection::{vec, btree_set}`, `prop_assert*!`, `TestCaseError` as
//! a helper's return type. A failing case panics with the test's
//! inputs; cases are a pure function of the test name and case index,
//! so a failure repeats. Keep new proptests regex-free.

pub mod test_runner {
    /// Why a case failed; `Err` of a property body or helper.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        pub fn fail(reason: impl Into<String>) -> TestCaseError {
            TestCaseError(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// `ProptestConfig`: only the case count is honoured.
    #[derive(Debug, Clone)]
    pub struct Config {
        pub cases: u32,
        /// Accepted and ignored — there is no shrinking.
        pub max_shrink_iters: u32,
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256, max_shrink_iters: 0 }
        }
    }

    /// splitmix64.
    pub struct TestRng(u64);

    impl TestRng {
        pub fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `0..n` (`n > 0`).
        pub fn below(&mut self, n: u128) -> u128 {
            let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            wide % n
        }
    }

    /// Run `case` `config.cases` times; panic on the first failure.
    pub fn run(config: &Config, name: &str, mut case: impl FnMut(&mut TestRng) -> Result<(), String>) {
        // FNV-1a of the test name seeds the run.
        let base = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        });
        for i in 0..config.cases {
            let mut rng = TestRng(base ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            if let Err(why) = case(&mut rng) {
                panic!("proptest {name}: case {i} of {} failed: {why}", config.cases);
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    pub trait Strategy {
        type Value: Debug;
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map(self, f)
        }

        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            Box::new(self)
        }
    }

    pub type BoxedStrategy<T> = Box<dyn Strategy<Value = T>>;

    impl<T: Debug> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    pub struct Map<S, F>(S, F);

    impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.1)(self.0.generate(rng))
        }
    }

    #[derive(Debug, Clone)]
    pub struct Just<T>(pub T);

    impl<T: Debug + Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// What `prop_oneof!` builds: a weighted choice between strategies.
    pub struct Union<T>(pub Vec<(u32, BoxedStrategy<T>)>);

    impl<T: Debug> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.0.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.below(total as u128) as u64;
            for (w, s) in &self.0 {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("pick is below the weight total")
        }
    }

    macro_rules! int_strategies {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as i128 - self.start as i128) as u128;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                    (*self.start() as i128 + rng.below(span) as i128) as $t
                }
            }
            impl crate::arbitrary::Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_strategies!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            self.start + unit * (self.end - self.start)
        }
    }

    macro_rules! tuple_strategies {
        ($(($($s:ident $i:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$i.generate(rng),)+)
                }
            }
        )*};
    }
    tuple_strategies!((A 0, B 1)(A 0, B 1, C 2)(A 0, B 1, C 2, D 3)(A 0, B 1, C 2, D 3, E 4));
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    pub trait Arbitrary: std::fmt::Debug + Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    pub struct Any<T>(std::marker::PhantomData<T>);

    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(std::marker::PhantomData)
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::collections::BTreeSet;

    /// Inclusive length bounds of a generated collection.
    pub struct SizeRange(usize, usize);

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange(r.start, r.end - 1)
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange(*r.start(), *r.end())
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange(n, n)
        }
    }

    impl SizeRange {
        fn pick(&self, rng: &mut TestRng) -> usize {
            self.0 + rng.below((self.1 - self.0) as u128 + 1) as usize
        }
    }

    pub struct VecStrategy<S>(S, SizeRange);

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy(element, size.into())
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (0..self.1.pick(rng)).map(|_| self.0.generate(rng)).collect()
        }
    }

    pub struct BTreeSetStrategy<S>(S, SizeRange);

    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy(element, size.into())
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let want = self.1.pick(rng);
            let mut set = BTreeSet::new();
            // Duplicates do not count; give up growing after a bounded
            // number of draws (a small element domain may not hold
            // `want` distinct values), but never below the minimum.
            let mut draws = 0;
            while set.len() < want && (draws < want * 10 + 10 || set.len() < self.1 .0) {
                set.insert(self.0.generate(rng));
                draws += 1;
            }
            set
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};

    /// `prop::collection::vec(..)` and friends.
    pub mod prop {
        pub use crate::collection;
    }
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@config ($config) $($rest)*);
    };
    (@config ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        #[allow(dead_code)]
        fn $name() {
            let config: $crate::test_runner::Config = $config;
            $crate::test_runner::run(&config, stringify!($name), |rng| {
                $(let $arg = $crate::strategy::Strategy::generate(&$strategy, rng);)+
                let inputs = format!(
                    concat!($(stringify!($arg), " = {:?}; "),+),
                    $(&$arg),+
                );
                let body = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    Ok(())
                };
                body().map_err(|e| format!("{e}\n  inputs: {inputs}"))
            });
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@config ($crate::test_runner::Config::default()) $($rest)*);
    };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strategy:expr),+ $(,)?) => {
        $crate::strategy::Union(vec![
            $(($weight, $crate::strategy::Strategy::boxed($strategy))),+
        ])
    };
    ($($strategy:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $strategy),+]
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} at {}:{}", format!($($fmt)+), file!(), line!()),
            ));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "values differ")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "{}: left = {:?}, right = {:?}",
            format!($($fmt)+),
            left,
            right
        );
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(*left != *right, "both sides are {:?}", left);
    }};
}
