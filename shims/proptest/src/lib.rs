//! Offline stand-in for the `proptest` crate.
//!
//! Implements the strategy combinators and the [`proptest!`] test runner
//! used by this workspace: integer-range and tuple strategies,
//! [`Strategy::prop_map`], [`Strategy::prop_recursive`], [`prop_oneof!`],
//! [`collection::vec`], [`Just`], the `prop_assert*` family, and
//! [`prop_assume!`]. Test cases are generated from a seed derived from
//! the test's name, so runs are deterministic. There is **no shrinking**:
//! on failure the panic message carries the case number, and re-running
//! reproduces it exactly — good enough for agreement suites whose inputs
//! print themselves.

#![warn(missing_docs)]

use std::ops::Range;
use std::sync::Arc;

pub mod test_runner;

pub use test_runner::{Config as ProptestConfig, TestCaseError, TestRng};

/// A generator of values of one type.
///
/// `depth` is the remaining recursion budget for
/// [`Strategy::prop_recursive`] strategies; leaf strategies ignore it.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng, depth: u32) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map {
            inner: self,
            f: Arc::new(f),
        }
    }

    /// Recursive generation: `recurse` receives a handle that generates
    /// smaller instances of the same type, bottoming out at `self` when
    /// the `max_depth` budget is spent. The `_desired_size` and
    /// `_expected_branch_size` parameters exist for signature parity with
    /// the real proptest and are ignored.
    fn prop_recursive<R, F>(
        self,
        max_depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> Recursive<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        Recursive::new(self.boxed(), max_depth, recurse)
    }

    /// Type-erases the strategy (cheap to clone).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }
}

/// A type-erased, cheaply clonable strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng, depth: u32) -> T {
        self.0.generate(rng, depth)
    }
}

/// Always generates a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng, _depth: u32) -> T {
        self.0.clone()
    }
}

/// The [`Strategy::prop_map`] combinator.
pub struct Map<S, F> {
    inner: S,
    f: Arc<F>,
}

impl<S: Clone, F> Clone for Map<S, F> {
    fn clone(&self) -> Self {
        Map {
            inner: self.inner.clone(),
            f: self.f.clone(),
        }
    }
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng, depth: u32) -> O {
        (self.f)(self.inner.generate(rng, depth))
    }
}

struct RecursiveCore<T> {
    base: BoxedStrategy<T>,
    full: std::sync::OnceLock<BoxedStrategy<T>>,
    max_depth: u32,
}

/// The [`Strategy::prop_recursive`] combinator.
pub struct Recursive<T>(Arc<RecursiveCore<T>>);

impl<T> Clone for Recursive<T> {
    fn clone(&self) -> Self {
        Recursive(self.0.clone())
    }
}

/// The self-reference handed to the `recurse` closure: generates from
/// the full strategy with one budget unit spent, or from the base once
/// the budget is exhausted.
struct RecurseHandle<T>(std::sync::Weak<RecursiveCore<T>>);

impl<T> Strategy for RecurseHandle<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng, depth: u32) -> T {
        let core = self.0.upgrade().expect("recursive strategy dropped");
        if depth == 0 {
            core.base.generate(rng, 0)
        } else {
            // A coin flip keeps expected size bounded even at high
            // budgets (the real proptest uses a size-driven probability).
            let full = core.full.get().expect("recursion knot tied");
            if rng.next_u64() & 1 == 0 {
                core.base.generate(rng, depth - 1)
            } else {
                full.generate(rng, depth - 1)
            }
        }
    }
}

impl<T: 'static> Recursive<T> {
    fn new<R, F>(base: BoxedStrategy<T>, max_depth: u32, recurse: F) -> Recursive<T>
    where
        R: Strategy<Value = T> + 'static,
        F: Fn(BoxedStrategy<T>) -> R,
    {
        let core = Arc::new(RecursiveCore {
            base,
            full: std::sync::OnceLock::new(),
            max_depth,
        });
        let handle = BoxedStrategy(Arc::new(RecurseHandle(Arc::downgrade(&core))) as _);
        let full = recurse(handle).boxed();
        let _ = core.full.set(full);
        Recursive(core)
    }
}

impl<T> Strategy for Recursive<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng, _depth: u32) -> T {
        let full = self.0.full.get().expect("recursion knot tied");
        full.generate(rng, self.0.max_depth)
    }
}

/// A uniform draw from one of several strategies (the [`prop_oneof!`]
/// backing type).
pub struct Union<T> {
    /// The alternatives (non-empty).
    pub arms: Vec<BoxedStrategy<T>>,
}

impl<T> Clone for Union<T> {
    fn clone(&self) -> Self {
        Union {
            arms: self.arms.clone(),
        }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng, depth: u32) -> T {
        assert!(!self.arms.is_empty(), "prop_oneof! needs at least one arm");
        let idx = (rng.next_u64() % self.arms.len() as u64) as usize;
        self.arms[idx].generate(rng, depth)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng, _depth: u32) -> $t {
                use rand::Rng;
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_tuple_strategy {
    ($($name:ident)+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng, depth: u32) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng, depth),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A B);
impl_tuple_strategy!(A B C);
impl_tuple_strategy!(A B C D);
impl_tuple_strategy!(A B C D E);
impl_tuple_strategy!(A B C D E F);

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A `Vec` with length drawn from `len` and elements from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { elem, len }
    }

    /// The [`vec()`] strategy.
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Clone> Clone for VecStrategy<S> {
        fn clone(&self) -> Self {
            VecStrategy {
                elem: self.elem.clone(),
                len: self.len.clone(),
            }
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng, depth: u32) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start).max(1) as u64;
            let n = self.len.start + (rng.next_u64() % span) as usize;
            (0..n).map(|_| self.elem.generate(rng, depth)).collect()
        }
    }
}

/// The glob-import surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestRng};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        BoxedStrategy, Just, Strategy,
    };
}

/// Defines deterministic property tests; see the crate docs for the
/// differences from the real proptest runner.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with_config ($cfg) $($rest)*);
    };
    (@with_config ($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::for_test(stringify!($name));
            for case in 0..cfg.cases {
                let outcome: ::std::result::Result<(), $crate::TestCaseError> = (|| {
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng, 8);)*
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                })();
                match outcome {
                    Ok(()) => {}
                    Err($crate::TestCaseError::Reject(_)) => {}
                    Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("property {} failed at case {case}/{}: {msg}",
                               stringify!($name), cfg.cases);
                    }
                }
            }
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with_config ($crate::ProptestConfig::default()) $($rest)*);
    };
}

/// A uniform choice between strategies of one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union { arms: vec![$($crate::Strategy::boxed($arm)),+] }
    };
}

/// `assert!` that fails the current case instead of panicking directly.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Fail(format!($($fmt)*)));
        }
    };
}

/// `assert_eq!` that fails the current case instead of panicking.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}");
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, "{a:?} != {b:?}: {}", format!($($fmt)*));
    }};
}

/// `assert_ne!` counterpart of [`prop_assert_eq!`].
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{a:?} == {b:?}");
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a != b, "{a:?} == {b:?}: {}", format!($($fmt)*));
    }};
}

/// Discards the current case (not counted as a failure).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::Reject(
                stringify!($cond).to_string(),
            ));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn arb_small_vec() -> impl Strategy<Value = Vec<u32>> {
        crate::collection::vec(0u32..10, 0..5)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in -4i64..9) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((-4..9).contains(&y));
        }

        #[test]
        fn tuples_and_maps(pair in (0u32..5, 0u32..5).prop_map(|(a, b)| a + b)) {
            prop_assert!(pair <= 8);
        }

        #[test]
        fn vectors_bounded(v in arb_small_vec()) {
            prop_assert!(v.len() < 5);
            for x in v {
                prop_assert!(x < 10);
            }
        }

        #[test]
        fn assume_discards(x in 0u32..10) {
            prop_assume!(x % 2 == 0);
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn oneof_and_recursive_terminate() {
        #[derive(Debug, Clone)]
        #[allow(dead_code)]
        enum Expr {
            Leaf(u32),
            Add(Box<Expr>, Box<Expr>),
        }
        fn size(e: &Expr) -> u32 {
            match e {
                Expr::Leaf(_) => 1,
                Expr::Add(a, b) => 1 + size(a) + size(b),
            }
        }
        let leaf = (0u32..10).prop_map(Expr::Leaf);
        let strat = leaf.prop_recursive(4, 16, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone())
                    .prop_map(|(a, b)| Expr::Add(Box::new(a), Box::new(b))),
                (0u32..10).prop_map(Expr::Leaf),
            ]
        });
        let mut rng = TestRng::for_test("oneof_and_recursive_terminate");
        let mut saw_add = false;
        for _ in 0..200 {
            let e = strat.generate(&mut rng, 8);
            assert!(size(&e) < 200, "runaway recursion: {e:?}");
            saw_add |= matches!(e, Expr::Add(..));
        }
        assert!(saw_add, "recursion never taken");
    }
}
