//! Grace-period stall watchdog, shared by both RCU flavors.
//!
//! `synchronize_rcu` blocks until every pre-existing read-side critical
//! section ends. A reader that is descheduled — or, worse, wedged — inside
//! a section therefore stalls every synchronizer with no indication of
//! *which* thread is at fault. The watchdog gives each wait loop a
//! deadline: once a single reader slot has been waited on for longer than
//! the stall timeout, the domain records a stall event, bumps the
//! `synchronize_stalls` obs counter, and emits one diagnostic naming the
//! offending registry slot. `synchronize` itself keeps waiting —
//! correctness still requires the grace period — so the watchdog changes
//! observability, never semantics.

use citrus_sync::SpinMutex;
use core::sync::atomic::{AtomicU64, Ordering};
use core::time::Duration;

/// Default wait on one reader slot before reporting a stall.
const DEFAULT_STALL_MS: u64 = 2_000;

/// Sentinel timeout value: watchdog disabled.
const DISABLED: u64 = u64::MAX;

/// Per-domain stall-watchdog state (see the module docs).
pub(crate) struct StallWatchdog {
    /// Timeout in milliseconds; [`DISABLED`] turns the watchdog off.
    timeout_ms: AtomicU64,
    /// Stall events recorded, independent of the `stats` feature.
    events: AtomicU64,
    /// Most recent diagnostic, for tests and postmortems.
    last_diagnostic: SpinMutex<Option<String>>,
}

impl StallWatchdog {
    pub(crate) fn new() -> Self {
        Self {
            timeout_ms: AtomicU64::new(DEFAULT_STALL_MS),
            events: AtomicU64::new(0),
            last_diagnostic: SpinMutex::new(None),
        }
    }

    /// The active timeout, or `None` when disabled.
    pub(crate) fn timeout(&self) -> Option<Duration> {
        match self.timeout_ms.load(Ordering::Relaxed) {
            DISABLED => None,
            ms => Some(Duration::from_millis(ms)),
        }
    }

    pub(crate) fn set_timeout(&self, timeout: Option<Duration>) {
        let ms = match timeout {
            None => DISABLED,
            Some(t) => u64::try_from(t.as_millis())
                .unwrap_or(DISABLED - 1)
                .min(DISABLED - 1),
        };
        self.timeout_ms.store(ms, Ordering::Relaxed);
    }

    pub(crate) fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    pub(crate) fn take_diagnostic(&self) -> Option<String> {
        self.last_diagnostic.lock().take()
    }

    /// Records one stall: `slot` is the blocking reader's registry slot
    /// index, `word` its reader word as last observed.
    pub(crate) fn note(&self, flavor: &str, slot: usize, word: u64, waited: Duration) {
        self.events.fetch_add(1, Ordering::Relaxed);
        let msg = format!(
            "{flavor}: synchronize_rcu stalled for {waited:?} on reader registry slot {slot} \
             (reader word {word:#x}); that thread has been inside one read-side critical \
             section for the whole wait"
        );
        eprintln!("[citrus-rcu] {msg}");
        *self.last_diagnostic.lock() = Some(msg);
    }
}

impl core::fmt::Debug for StallWatchdog {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StallWatchdog")
            .field("timeout", &self.timeout())
            .field("events", &self.events())
            .finish()
    }
}
