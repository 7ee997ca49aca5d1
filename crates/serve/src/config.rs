//! Server tuning knobs: queue depth, batch width, retry-after, and the
//! session-recycling churn knob.

use std::time::Duration;

/// Tuning for a [`Server`](crate::Server).
///
/// The defaults serve the tests, the `serve_storm` load generator and the
/// repository benchmark alike; the `with_*` builders override one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Admission high-water mark: a shard queue at or above this depth
    /// rejects new requests with [`SubmitError::Rejected`]
    /// (`retry-after`) instead of growing without bound.
    ///
    /// [`SubmitError::Rejected`]: crate::SubmitError::Rejected
    pub high_water: usize,
    /// Maximum requests a shard worker drains per batch. Larger batches
    /// amortize queue locking; smaller ones bound per-request latency.
    pub batch_max: usize,
    /// The back-off hint returned with a rejection. Honoring it is the
    /// client's job; the blocking session API sleeps this long before
    /// resubmitting.
    pub retry_after: Duration,
    /// Worker-session churn: after every `recycle_ops` executed requests
    /// a shard worker drops its forest session (deregistering its RCU
    /// reader slots and freeing its retire lists after a grace period)
    /// and opens a fresh one —
    /// mid-batch when this is smaller than the batch width. `0` (the
    /// default) never recycles. The churn stress suite uses small values
    /// to hammer the registry paths; production-shaped configs leave it
    /// off.
    pub recycle_ops: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            high_water: 1024,
            batch_max: 64,
            retry_after: Duration::from_micros(100),
            recycle_ops: 0,
        }
    }
}

impl ServeConfig {
    /// The same configuration with a different high-water mark.
    #[must_use]
    pub fn with_high_water(mut self, high_water: usize) -> Self {
        assert!(high_water > 0, "high_water must be > 0");
        self.high_water = high_water;
        self
    }

    /// The same configuration with a different batch width.
    #[must_use]
    pub fn with_batch_max(mut self, batch_max: usize) -> Self {
        assert!(batch_max > 0, "batch_max must be > 0");
        self.batch_max = batch_max;
        self
    }

    /// The same configuration with a different retry-after hint.
    #[must_use]
    pub fn with_retry_after(mut self, retry_after: Duration) -> Self {
        self.retry_after = retry_after;
        self
    }

    /// The same configuration recycling worker sessions every
    /// `recycle_ops` executed requests (`0` disables).
    #[must_use]
    pub fn with_recycle_ops(mut self, recycle_ops: u64) -> Self {
        self.recycle_ops = recycle_ops;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.high_water > 0 && cfg.batch_max > 0);
        assert_eq!(cfg.recycle_ops, 0);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = ServeConfig::default()
            .with_high_water(7)
            .with_batch_max(3)
            .with_retry_after(Duration::from_millis(2))
            .with_recycle_ops(5);
        assert_eq!(cfg.high_water, 7);
        assert_eq!(cfg.batch_max, 3);
        assert_eq!(cfg.retry_after, Duration::from_millis(2));
        assert_eq!(cfg.recycle_ops, 5);
    }

    #[test]
    #[should_panic(expected = "high_water must be > 0")]
    fn zero_high_water_is_rejected() {
        let _ = ServeConfig::default().with_high_water(0);
    }
}
