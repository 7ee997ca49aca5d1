//! Test-only mutation hooks: named switches that make instrumented code
//! *deliberately wrong*, so the exploration and chaos suites can prove
//! they detect real bugs (and CI can self-test the detector).
//!
//! A structure owns one [`Mutants`] set and guards each
//! correctness-critical step with it:
//!
//! ```ignore
//! if !self.mutants.enabled("citrus/remove/skip-synchronize") {
//!     self.rcu.synchronize();
//! }
//! ```
//!
//! A test enables a mutant on the one instance it checks, so a structure
//! built by a sibling test — on another thread of the same test binary —
//! never runs the mutated code. With the `chaos` feature off the set is
//! zero-sized, [`Mutants::enabled`] is `const false` and the branch folds
//! away entirely: mutants cannot be enabled in production builds.

/// The mutants enabled on one structure instance.
///
/// Clones share the set: a forest hands one set to every shard tree, and
/// a server checks its forest's set. A fresh set has nothing enabled.
#[derive(Clone, Debug, Default)]
pub struct Mutants {
    #[cfg(feature = "chaos")]
    inner: std::sync::Arc<imp::Set>,
}

#[cfg(feature = "chaos")]
mod imp {
    use super::Mutants;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, PoisonError};

    #[derive(Debug, Default)]
    pub(super) struct Set {
        /// Fast-path count of enabled mutants: the common case (none) is
        /// a single relaxed load.
        count: AtomicUsize,
        names: Mutex<Vec<&'static str>>,
    }

    impl Mutants {
        /// Whether the named mutation is enabled on this set.
        #[inline]
        #[must_use]
        pub fn enabled(&self, name: &str) -> bool {
            if self.inner.count.load(Ordering::Relaxed) == 0 {
                return false;
            }
            self.inner
                .names
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .contains(&name)
        }

        /// Enables the named mutation for every holder of this set, for
        /// the rest of its life.
        ///
        /// # Panics
        ///
        /// Panics if the mutant is already enabled on this set.
        pub fn enable(&self, name: &'static str) {
            let mut names = self
                .inner
                .names
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            assert!(!names.contains(&name), "mutant {name:?} enabled twice");
            names.push(name);
            self.inner.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(not(feature = "chaos"))]
impl Mutants {
    /// Always `false` in this build: mutations are compiled out.
    #[inline(always)]
    #[must_use]
    pub fn enabled(&self, name: &str) -> bool {
        let _ = name;
        false
    }

    /// No-op in this build (the mutation will never fire).
    pub fn enable(&self, name: &'static str) {
        let _ = name;
    }
}

impl Mutants {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}
