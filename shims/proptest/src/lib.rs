//! Offline stand-in for the `proptest` crate (see `shims/README.md`).
//!
//! Implements the subset of the `proptest` 1.x API this workspace uses:
//! the [`proptest!`] macro (with an optional `#![proptest_config(...)]`
//! header), [`prop_assert!`] / [`prop_assert_eq!`], the [`Strategy`]
//! trait with `prop_map`, integer-range and tuple strategies, and
//! [`collection::vec`]. Inputs are generated from a seed derived from
//! the test name, so every run is reproducible; failing inputs are
//! **not** shrunk.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The error carried out of a failing property body.
pub type TestCaseError = String;

/// Runner configuration; only `cases` is honoured.
#[derive(Clone, Copy, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to execute per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps the heavier pipeline
        // properties fast while still exercising plenty of inputs.
        ProptestConfig { cases: 64 }
    }
}

/// A recipe for generating random values of an associated type.
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut StdRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut StdRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

/// Strategies over collections.
pub mod collection {
    use super::{Rng, StdRng, Strategy};

    /// The strategy returned by [`vec()`].
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        len: std::ops::Range<usize>,
    }

    /// Generates `Vec`s of `element` values with a length drawn from
    /// `len`.
    pub fn vec<S: Strategy>(element: S, len: std::ops::Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = if self.len.start + 1 >= self.len.end {
                self.len.start
            } else {
                rng.gen_range(self.len.clone())
            };
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic per-test RNG: FNV-1a over the test name.
#[doc(hidden)]
pub fn rng_for(test_name: &str) -> StdRng {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in test_name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Executes `cases` random cases of a property, panicking on the first
/// failure with the case index and message.
#[doc(hidden)]
pub fn run_cases<F>(cases: u32, test_name: &str, mut body: F)
where
    F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
{
    let mut rng = rng_for(test_name);
    for case in 0..cases {
        if let Err(message) = body(&mut rng) {
            panic!("property `{test_name}` failed at case {case}/{cases}: {message}");
        }
    }
}

/// Declares property-based tests.
///
/// Supports the `proptest` 1.x surface used in this workspace: an
/// optional `#![proptest_config(expr)]` header followed by any number of
/// `#[test] fn name(pat in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg) $($rest)*);
    };
    (@cfg ($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(config.cases, stringify!($name), |rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), rng);)+
                    let result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    result
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg (<$crate::ProptestConfig as ::std::default::Default>::default()) $($rest)*);
    };
}

/// Fails the enclosing property case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)*));
        }
    };
}

/// Fails the enclosing property case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), ::std::format!($($fmt)*), l, r
            ));
        }
    }};
}

/// The glob-import surface mirroring `proptest::prelude`.
pub mod prelude {
    /// Mirror of the real prelude's `prop` re-export of the crate root.
    pub use crate as prop;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
    pub use crate::{ProptestConfig, Strategy};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u64..10, y in 0usize..=4) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
        }

        #[test]
        fn tuples_and_maps(v in (0u8..4, 1u64..9).prop_map(|(a, b)| a as u64 + b)) {
            prop_assert!(v < 13);
        }

        #[test]
        fn vec_lengths(v in prop::collection::vec(0u8..4, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 4));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(7))]

        #[test]
        fn config_header_accepted(x in 0u32..100) {
            prop_assert_eq!(x, x);
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        crate::run_cases(10, "always_fails", |_| Err("boom".to_string()));
    }
}
