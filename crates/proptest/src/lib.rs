//! A minimal, dependency-free subset of the `proptest` API, vendored
//! in-tree so the workspace's property tests run without network access.
//!
//! Supported surface: the [`Strategy`] trait with `prop_map`, range and
//! tuple strategies, [`prop::collection::vec`] / `btree_map`,
//! [`prop::option::of`], [`any`], [`strategy::Just`], and the macros
//! `proptest!`, `prop_compose!`, `prop_oneof!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_assert_ne!`.
//!
//! Semantics differ from upstream proptest in one deliberate way: there
//! is **no shrinking**. A failing case panics immediately with the test
//! name and case number; since the RNG is seeded deterministically from
//! the test name, every failure reproduces exactly by re-running the
//! test. `PROPTEST_CASES` in the environment caps the case count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// The deterministic RNG driving value generation (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG seeded from the test's name: deterministic across runs and
    /// platforms, distinct across tests.
    pub fn for_test(name: &str) -> Self {
        // FNV-1a over the name, mixed into a nonzero seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng { state: h | 1 }
    }

    /// Next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A generator of values of one type.
///
/// Unlike upstream proptest there is no value tree: strategies generate
/// final values directly and nothing shrinks.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<T, F: Fn(Self::Value) -> T>(self, f: F) -> strategy::Map<Self, F>
    where
        Self: Sized,
    {
        strategy::Map {
            source: self,
            map: f,
        }
    }
}

/// Object-safe companion of [`Strategy`], used by `prop_oneof!`.
pub trait DynStrategy<T> {
    /// Generates one value.
    fn dyn_new_value(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> DynStrategy<S::Value> for S {
    fn dyn_new_value(&self, rng: &mut TestRng) -> S::Value {
        self.new_value(rng)
    }
}

/// Per-test configuration, set via `#![proptest_config(..)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// How many random cases each property runs.
    pub(crate) cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases (capped by `PROPTEST_CASES`).
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }

    /// The effective case count after environment caps.
    pub fn effective_cases(&self) -> u32 {
        match std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse::<u32>().ok())
        {
            Some(cap) => self.cases.min(cap.max(1)),
            None => self.cases,
        }
    }
}

/// Strategy combinators and primitive strategies.
pub mod strategy {
    use super::{DynStrategy, Strategy, TestRng};

    /// Always generates a clone of one value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn new_value(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// The result of [`Strategy::prop_map`].
    pub struct Map<S, F> {
        pub(crate) source: S,
        pub(crate) map: F,
    }

    impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            (self.map)(self.source.new_value(rng))
        }
    }

    /// Uniform choice between boxed strategies (`prop_oneof!`).
    pub struct Union<T> {
        arms: Vec<Box<dyn DynStrategy<T>>>,
    }

    impl<T> Union<T> {
        /// A union over the given arms; panics if empty.
        pub fn new(arms: Vec<Box<dyn DynStrategy<T>>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn new_value(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].dyn_new_value(rng)
        }
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    return rng.next_u64() as $t;
                }
                lo + rng.below(span) as $t
            }
        }
    )+};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i32, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn new_value(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($s:ident),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($s,)+) = self;
                ($($s.new_value(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K);
impl_tuple_strategy!(A, B, C, D, E, F, G, H, I, J, K, L);

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// The strategy [`any`] returns.
    type Strategy: Strategy<Value = Self>;
    /// The full-domain strategy for this type.
    fn arbitrary() -> Self::Strategy;
}

/// Full-domain strategy for an integer type.
#[derive(Clone, Copy, Debug)]
pub struct AnyInt<T>(std::marker::PhantomData<T>);

macro_rules! impl_arbitrary_int {
    ($($t:ty),+) => {$(
        impl Strategy for AnyInt<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
        impl Arbitrary for $t {
            type Strategy = AnyInt<$t>;
            fn arbitrary() -> Self::Strategy {
                AnyInt(std::marker::PhantomData)
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i32, i64);

/// Full-domain strategy for `bool`.
#[derive(Clone, Copy, Debug)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn new_value(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> Self::Strategy {
        AnyBool
    }
}

/// The strategy generating any value of `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Collection and option strategies, mirroring `proptest::prop`.
pub mod prop {
    /// Strategies for collections of strategy-generated elements.
    pub mod collection {
        use crate::{Strategy, TestRng};
        use std::collections::BTreeMap;

        /// An inclusive size window for generated collections.
        #[derive(Clone, Copy, Debug)]
        pub struct SizeRange {
            lo: usize,
            hi: usize,
        }

        impl From<usize> for SizeRange {
            fn from(n: usize) -> Self {
                SizeRange { lo: n, hi: n }
            }
        }

        impl From<std::ops::Range<usize>> for SizeRange {
            fn from(r: std::ops::Range<usize>) -> Self {
                assert!(r.start < r.end, "empty collection size range");
                SizeRange {
                    lo: r.start,
                    hi: r.end - 1,
                }
            }
        }

        impl From<std::ops::RangeInclusive<usize>> for SizeRange {
            fn from(r: std::ops::RangeInclusive<usize>) -> Self {
                SizeRange {
                    lo: *r.start(),
                    hi: *r.end(),
                }
            }
        }

        impl SizeRange {
            fn pick(&self, rng: &mut TestRng) -> usize {
                self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
            }
        }

        /// Strategy for `Vec<S::Value>` with a size in `size`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy {
                element,
                size: size.into(),
            }
        }

        /// The result of [`vec()`].
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.size.pick(rng);
                (0..n).map(|_| self.element.new_value(rng)).collect()
            }
        }

        /// Strategy for `BTreeMap<K, V>` with *up to* `size` entries
        /// (duplicate keys collapse, exactly as in upstream proptest).
        pub fn btree_map<K: Strategy, V: Strategy>(
            key: K,
            value: V,
            size: impl Into<SizeRange>,
        ) -> BTreeMapStrategy<K, V>
        where
            K::Value: Ord,
        {
            BTreeMapStrategy {
                key,
                value,
                size: size.into(),
            }
        }

        /// The result of [`btree_map`].
        pub struct BTreeMapStrategy<K, V> {
            key: K,
            value: V,
            size: SizeRange,
        }

        impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
        where
            K::Value: Ord,
        {
            type Value = BTreeMap<K::Value, V::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                let n = self.size.pick(rng);
                (0..n)
                    .map(|_| (self.key.new_value(rng), self.value.new_value(rng)))
                    .collect()
            }
        }
    }

    /// Strategies for optional values.
    pub mod option {
        use crate::{Strategy, TestRng};

        /// Generates `Some` three times out of four, `None` otherwise.
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner }
        }

        /// The result of [`of`].
        pub struct OptionStrategy<S> {
            inner: S,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;
            fn new_value(&self, rng: &mut TestRng) -> Self::Value {
                if rng.below(4) < 3 {
                    Some(self.inner.new_value(rng))
                } else {
                    None
                }
            }
        }
    }
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::strategy::Just;
    pub use crate::{any, prop, Arbitrary, ProptestConfig, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
    };
}

/// Asserts a condition inside a property, reporting the failing case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond);
    };
    ($cond:expr, $($fmt:tt)+) => {
        assert!($cond, $($fmt)+);
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_eq!($a, $b, $($fmt)+);
    };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {
        assert_ne!($a, $b);
    };
    ($a:expr, $b:expr, $($fmt:tt)+) => {
        assert_ne!($a, $b, $($fmt)+);
    };
}

/// Uniform choice among several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(Box::new($arm) as Box<dyn $crate::DynStrategy<_>>,)+
        ])
    };
}

/// Defines a function returning a composed strategy, mirroring
/// proptest's `prop_compose!`.
#[macro_export]
macro_rules! prop_compose {
    (
        $vis:vis fn $name:ident($($outer:tt)*)
            ($($arg:ident in $strat:expr),+ $(,)?)
            -> $ret:ty $body:block
    ) => {
        $vis fn $name($($outer)*) -> impl $crate::Strategy<Value = $ret> {
            $crate::Strategy::prop_map(
                ($($strat,)+),
                move |($($arg,)+)| $body,
            )
        }
    };
}

/// Defines property tests: each runs `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::proptest!(@items ($cfg); $($rest)*);
    };
    (@items ($cfg:expr);) => {};
    (
        @items ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
            let strat = ($($strat,)+);
            for case in 0..config.effective_cases() {
                let _ = case;
                let ($($arg,)+) = $crate::Strategy::new_value(&strat, &mut rng);
                $body
            }
        }
        $crate::proptest!(@items ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@items ($crate::ProptestConfig::default()); $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_small() -> impl Strategy<Value = u8> {
        prop_oneof![Just(1u8), 2u8..5, (10u8..12).prop_map(|x| x + 1)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 0u8..=4, f in 0.25f64..0.5) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!((0.25..0.5).contains(&f));
        }

        #[test]
        fn collections_respect_sizes(
            v in prop::collection::vec(0u32..100, 2..6),
            m in prop::collection::btree_map(0u8..50, any::<bool>(), 0..8),
        ) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(m.len() < 8);
        }

        #[test]
        fn oneof_hits_every_arm_domain(x in arb_small()) {
            prop_assert!(x == 1 || (2..5).contains(&x) || (11..13).contains(&x));
        }

        #[test]
        fn options_are_mixed(xs in prop::collection::vec(prop::option::of(0u32..10), 40..41)) {
            prop_assert!(xs.iter().any(|x| x.is_some()));
            prop_assert!(xs.iter().any(|x| x.is_none()));
        }
    }

    prop_compose! {
        fn arb_pair(offset: u32)(a in 0u32..10, b in any::<bool>()) -> (u32, bool) {
            (a + offset, b)
        }
    }

    proptest! {
        #[test]
        fn compose_applies_outer_args(p in arb_pair(100)) {
            prop_assert!((100..110).contains(&p.0));
        }
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        let mut c = crate::TestRng::for_test("y");
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }
}
