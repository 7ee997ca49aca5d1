//! Reclamation metrics: retirement volume, limbo-bag depth, and how many
//! objects each collection pass actually frees.
//!
//! Instruments come from `citrus-obs` and are no-ops unless this crate is
//! built with the `stats` feature; the only unconditional state is a
//! cold-path stripe allocator touched once per
//! [`register`](crate::EbrDomain::register).

use citrus_obs::{Counter, HighWaterMark, Log2Histogram, MetricsRegistry};
use core::sync::atomic::{AtomicUsize, Ordering};

/// Stripe count for the per-domain retirement counter.
const STRIPES: usize = 32;

/// Metrics kept by every [`EbrDomain`](crate::EbrDomain).
///
/// # Example
///
/// ```
/// use citrus_obs::MetricsRegistry;
/// use citrus_reclaim::EbrDomain;
///
/// let domain = EbrDomain::new();
/// let registry = MetricsRegistry::new();
/// domain.metrics().register_into(&registry, "reclaim");
///
/// let h = domain.register();
/// let p = Box::into_raw(Box::new(7u64));
/// {
///     let _g = h.pin();
///     // SAFETY: `p` is unlinked and exclusively owned.
///     unsafe { h.retire(p) };
/// }
/// # drop(h);
///
/// let snap = registry.snapshot();
/// #[cfg(feature = "stats")]
/// {
///     assert_eq!(snap.counter("reclaim", "retired"), Some(1));
///     assert_eq!(snap.maximum("reclaim", "limbo_depth_hwm"), Some(1));
/// }
/// #[cfg(not(feature = "stats"))]
/// assert!(snap.is_empty());
/// ```
#[derive(Debug)]
pub struct ReclaimMetrics {
    retired: Counter,
    freed_per_advance: Log2Histogram,
    limbo_depth_hwm: HighWaterMark,
    /// Round-robin stripe allocator for handles (cold path: one
    /// `fetch_add` per `register`).
    next_stripe: AtomicUsize,
}

impl ReclaimMetrics {
    pub(crate) fn new() -> Self {
        Self {
            retired: Counter::new(STRIPES),
            freed_per_advance: Log2Histogram::new(),
            limbo_depth_hwm: HighWaterMark::new(),
            next_stripe: AtomicUsize::new(0),
        }
    }

    /// Assigns the next handle its counter stripe.
    pub(crate) fn assign_stripe(&self) -> usize {
        self.next_stripe.fetch_add(1, Ordering::Relaxed) % STRIPES
    }

    /// Records one retirement and the retiring handle's limbo-bag depth.
    #[inline]
    pub(crate) fn record_retire(&self, stripe: usize, limbo_depth: usize) {
        self.retired.incr(stripe);
        self.limbo_depth_hwm.observe(limbo_depth as u64);
    }

    /// Records how many objects one collection pass freed (zero counts:
    /// passes blocked by a pinned straggler land in bucket 0).
    #[inline]
    pub(crate) fn record_collect(&self, freed: usize) {
        self.freed_per_advance.record(freed as u64);
    }

    /// Total objects retired into limbo bags (`0` with stats off).
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired.get()
    }

    /// Deepest limbo bag ever observed at retirement time
    /// (`0` with stats off).
    #[must_use]
    pub fn limbo_depth_high_water(&self) -> u64 {
        self.limbo_depth_hwm.get()
    }

    /// Distribution of objects freed per collection pass
    /// (empty with stats off).
    #[must_use]
    pub fn freed_per_advance(&self) -> citrus_obs::HistogramSnapshot {
        self.freed_per_advance.snapshot()
    }

    /// Registers this domain's instruments under `component`.
    pub fn register_into(&self, registry: &MetricsRegistry, component: &str) {
        registry.register_counter(component, "retired", &self.retired);
        registry.register_histogram(component, "freed_per_advance", &self.freed_per_advance);
        registry.register_hwm(component, "limbo_depth_hwm", &self.limbo_depth_hwm);
    }
}
