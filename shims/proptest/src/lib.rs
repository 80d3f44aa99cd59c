//! Offline shim exposing the subset of the `proptest` macro surface
//! this workspace uses: the `proptest!` test wrapper with mixed
//! `name: Type` / `name in strategy` parameters, `prop_assert!`,
//! `prop_assert_eq!`, `prop_assume!`, `any::<T>()`, integer-range
//! strategies, tuple strategies and `collection::vec`.
//!
//! Unlike real proptest there is no shrinking: each test runs a fixed
//! number of deterministic pseudo-random cases (`PROPTEST_CASES`
//! overrides the default of 128) and panics with the failing assertion
//! message. Determinism makes failures reproducible without persistence
//! files.

use std::ops::{Range, RangeFrom, RangeInclusive};

/// Failure channel of a single test case.
#[derive(Debug)]
pub enum TestCaseError {
    /// An assertion failed; the case (and test) fails.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
}

impl TestCaseError {
    /// Construct a failure with a message.
    pub fn fail(msg: String) -> Self {
        TestCaseError::Fail(msg)
    }
}

/// The deterministic case generator (SplitMix64 stream).
pub struct TestRng {
    x: u64,
}

impl TestRng {
    fn new(seed: u64) -> Self {
        TestRng { x: seed }
    }

    /// The next 64 pseudo-random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.x = self.x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value below `span` (`span > 0`).
    #[inline]
    pub fn below(&mut self, span: u128) -> u128 {
        if span <= u64::MAX as u128 {
            (self.next_u64() as u128 * span) >> 64
        } else {
            let wide = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            wide % span
        }
    }
}

/// Number of cases per property (env `PROPTEST_CASES`, default 128).
pub fn case_count() -> usize {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(128)
}

/// Run `cases` deterministic cases of `body`, panicking on the first
/// failure. Rejected cases don't count toward the total but are capped.
pub fn run(cases: usize, mut body: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>) {
    let mut executed = 0usize;
    let mut rejected = 0usize;
    let mut stream = 0u64;
    while executed < cases {
        let mut rng = TestRng::new(0xC0FF_EE00_0000_0000 ^ stream);
        stream += 1;
        match body(&mut rng) {
            Ok(()) => executed += 1,
            Err(TestCaseError::Reject) => {
                rejected += 1;
                assert!(
                    rejected < cases * 50 + 1000,
                    "proptest shim: too many prop_assume! rejections ({rejected})"
                );
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest case {executed} (stream {}) failed: {msg}", stream - 1)
            }
        }
    }
}

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;
    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

/// Types with a canonical full-range generator (`any::<T>()` and plain
/// `name: Type` parameters).
pub trait Arbitrary {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            #[inline]
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for u128 {
    fn arbitrary(rng: &mut TestRng) -> u128 {
        ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
    }
}

impl Arbitrary for i128 {
    fn arbitrary(rng: &mut TestRng) -> i128 {
        u128::arbitrary(rng) as i128
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        ((rng.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

impl<A: Arbitrary, B: Arbitrary> Arbitrary for (A, B) {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (A::arbitrary(rng), B::arbitrary(rng))
    }
}

impl<A: Arbitrary, B: Arbitrary, C: Arbitrary> Arbitrary for (A, B, C) {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (A::arbitrary(rng), B::arbitrary(rng), C::arbitrary(rng))
    }
}

/// Strategy wrapper produced by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

/// The full-range strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty => $u:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as $u).wrapping_sub(self.start as $u);
                let off = rng.below(span as u128) as $u;
                (self.start as $u).wrapping_add(off) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty strategy range");
                let span = (end as $u).wrapping_sub(start as $u) as u128 + 1;
                let off = rng.below(span) as $u;
                (start as $u).wrapping_add(off) as $t
            }
        }
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                (self.start..=<$t>::MAX).generate(rng)
            }
        }
    )*};
}
impl_range_strategy!(
    u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
    i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

pub mod collection {
    //! Collection strategies (subset: [`vec()`]).

    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec<S::Value>` with length drawn from a range.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// `Vec` strategy: `size.start ≤ len < size.end` elements of `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.end - self.size.start).max(1);
            let len = self.size.start + rng.below(span as u128) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Bind one `proptest!` parameter list entry. Internal.
#[macro_export]
macro_rules! __pt_bind {
    ($rng:ident $(,)?) => {};
    ($rng:ident, $name:ident in $strat:expr) => {
        let $name = $crate::Strategy::generate(&($strat), $rng);
    };
    ($rng:ident, $name:ident in $strat:expr, $($rest:tt)*) => {
        let $name = $crate::Strategy::generate(&($strat), $rng);
        $crate::__pt_bind!($rng, $($rest)*);
    };
    ($rng:ident, $name:ident : $ty:ty) => {
        let $name: $ty = $crate::Arbitrary::arbitrary($rng);
    };
    ($rng:ident, $name:ident : $ty:ty, $($rest:tt)*) => {
        let $name: $ty = $crate::Arbitrary::arbitrary($rng);
        $crate::__pt_bind!($rng, $($rest)*);
    };
}

/// The `proptest!` test wrapper: each `fn` inside becomes a `#[test]`
/// running [`case_count`] deterministic cases.
#[macro_export]
macro_rules! proptest {
    () => {};
    ($(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            $crate::run($crate::case_count(), |__pt_rng| {
                $crate::__pt_bind!(__pt_rng, $($params)*);
                $body
                Ok(())
            });
        }
        $crate::proptest!($($rest)*);
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert!({}) failed", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "prop_assert_eq!({}, {}) failed: {:?} != {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Skip the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Err($crate::TestCaseError::Reject);
        }
    };
}

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude::*`.
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, Arbitrary, Strategy,
        TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn mixed_params(a: u64, b in 1u64..100, v in crate::collection::vec(any::<u8>(), 0..10)) {
            prop_assert!((1..100).contains(&b));
            prop_assert!(v.len() < 10);
            prop_assert_eq!(a, a);
        }

        #[test]
        fn assume_rejects(x in 0u32..10) {
            prop_assume!(x != 3);
            prop_assert!(x != 3);
        }
    }
}
