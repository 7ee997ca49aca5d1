//! The paper's scalable user-space RCU (§5, "New RCU").
//!
//! Each registered thread owns one cache-padded word that packs:
//!
//! * bit 0 — the *flag*: `1` while the thread is inside a read-side
//!   critical section;
//! * bits 1.. — the *counter*: the number of read-side critical sections
//!   the thread has started.
//!
//! `rcu_read_lock` increments the counter and sets the flag with a single
//! store; `rcu_read_unlock` clears the flag. `synchronize_rcu` snapshots
//! every other thread's word and waits, for each thread observed inside a
//! critical section, until *either the counter has changed or the flag is
//! clear* — both of which mean the pre-existing section has ended.
//!
//! The decisive property (quoting the paper): "multiple threads executing
//! `synchronize_rcu` need not coordinate among themselves, and they do not
//! acquire any locks."
//!
//! On top of the paper's design this implementation *shares* grace periods
//! (DESIGN.md §6d): a global even/odd sequence [`gp_seq`] records scan
//! announcements (odd) and completions (even). A synchronizer snapshots
//! the sequence at entry and, while scanning, piggybacks — returns without
//! finishing its own scan — as soon as a full grace period that started
//! after its snapshot has completed. Piggybacking is opportunistic: no
//! synchronizer ever *waits* on a peer, so the no-locks property above is
//! preserved.
//!
//! [`gp_seq`]: ScalableRcu::with_sharing

use crate::flavor::{RcuFlavor, RcuHandle};
use crate::metrics::RcuMetrics;
use crate::stall::StallWatchdog;
use citrus_chaos as chaos;
use citrus_obs::Stopwatch;
use citrus_sync::{Backoff, CachePadded, Registry, SlotHandle};
use core::cell::Cell;
use core::fmt;
use core::sync::atomic::{fence, AtomicU64, Ordering};
use core::time::Duration;
use std::time::Instant;

/// Flag bit: thread is inside a read-side critical section.
const FLAG: u64 = 1;
/// Counter increment (counter occupies bits 1..).
const COUNT_ONE: u64 = 2;

/// One registered thread's reader state.
struct ReaderSlot {
    /// `(sections_started << 1) | in_section`.
    word: CachePadded<AtomicU64>,
}

impl ReaderSlot {
    fn new() -> Self {
        Self {
            word: CachePadded::new(AtomicU64::new(0)),
        }
    }
}

/// The paper's scalable RCU domain. See the module-level documentation.
///
/// # Example
///
/// ```
/// use citrus_rcu::{RcuFlavor, RcuHandle, ScalableRcu};
///
/// let rcu = ScalableRcu::new();
/// let h = rcu.register();
/// {
///     let _g = h.read_lock();
///     // ... traverse an RCU-protected structure ...
/// }
/// h.synchronize(); // waits for pre-existing readers on all threads
/// ```
pub struct ScalableRcu {
    registry: Registry<ReaderSlot>,
    /// Grace-period sequence for sharing (DESIGN.md §6d): even = no scan
    /// announced, odd = a scan announced at this value is in progress.
    /// Announcing a scan bumps even → odd; completing it bumps odd → even.
    gp_seq: AtomicU64,
    /// Grace-period sharing enabled for this domain (see
    /// [`Self::with_sharing`]).
    sharing: bool,
    grace_periods: AtomicU64,
    /// Piggybacked `synchronize` returns, counted unconditionally (the
    /// `stats`-gated counterpart lives in [`RcuMetrics`]).
    piggybacks: AtomicU64,
    metrics: RcuMetrics,
    watchdog: StallWatchdog,
}

impl ScalableRcu {
    /// Creates a new domain with no registered threads and grace-period
    /// sharing on.
    pub fn new() -> Self {
        Self::with_sharing(true)
    }

    /// Creates a new domain with grace-period sharing on or off. Sharing
    /// affects synchronize throughput only, never grace-period semantics.
    pub fn with_sharing(sharing: bool) -> Self {
        Self {
            registry: Registry::new(),
            gp_seq: AtomicU64::new(0),
            sharing,
            grace_periods: AtomicU64::new(0),
            piggybacks: AtomicU64::new(0),
            metrics: RcuMetrics::new(),
            watchdog: StallWatchdog::new(),
        }
    }

    /// `true` when this domain shares grace periods between concurrent
    /// synchronizers.
    #[must_use]
    pub fn sharing(&self) -> bool {
        self.sharing
    }
}

impl Default for ScalableRcu {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ScalableRcu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScalableRcu")
            .field("threads", &self.registry.slot_count())
            .field("grace_periods", &self.grace_periods())
            .field("sharing", &self.sharing)
            .field("piggybacks", &self.synchronize_piggybacks())
            .finish()
    }
}

impl RcuFlavor for ScalableRcu {
    type Handle<'a> = ScalableRcuHandle<'a>;

    const NAME: &'static str = "rcu-scalable";

    fn register(&self) -> ScalableRcuHandle<'_> {
        // Reuse needs no reset: a released slot always has its flag clear
        // (handles assert they are outside any read section on drop), and
        // the counter may continue from its old value — synchronize only
        // ever compares words for *change*.
        let slot = self.registry.register(ReaderSlot::new, |_| {});
        ScalableRcuHandle {
            domain: self,
            slot,
            nesting: Cell::new(0),
            stripe: self.metrics.assign_stripe(),
        }
    }

    fn grace_periods(&self) -> u64 {
        self.grace_periods.load(Ordering::Relaxed)
    }

    fn metrics(&self) -> &RcuMetrics {
        &self.metrics
    }

    fn set_stall_timeout(&self, timeout: Option<Duration>) {
        self.watchdog.set_timeout(timeout);
    }

    fn stall_events(&self) -> u64 {
        self.watchdog.events()
    }

    fn synchronize_piggybacks(&self) -> u64 {
        self.piggybacks.load(Ordering::Relaxed)
    }

    fn take_stall_diagnostic(&self) -> Option<String> {
        self.watchdog.take_diagnostic()
    }
}

/// Per-thread handle for [`ScalableRcu`].
pub struct ScalableRcuHandle<'d> {
    domain: &'d ScalableRcu,
    slot: SlotHandle<'d, ReaderSlot>,
    /// Read-side nesting depth; only the outermost level touches `word`.
    nesting: Cell<u32>,
    /// This handle's metric-counter stripe.
    stripe: usize,
}

impl RcuHandle for ScalableRcuHandle<'_> {
    #[inline]
    fn raw_read_lock(&self) {
        let n = self.nesting.get();
        self.nesting.set(n + 1);
        if n == 0 {
            let word = &self.slot.word;
            // Only this thread stores to its own word, so the update need
            // not be an RMW. The store must be Release: a synchronizer's
            // wait loop also exits when the word merely *changes*, i.e.
            // when it reads this store after we exited a section and
            // re-entered. In that case the previous unlock's release store
            // is never read (and post-C++20 its release sequence does not
            // extend through this plain store), so this store is the only
            // thing that can order the previous critical section's loads
            // before the synchronizer's return.
            let w = word.load(Ordering::Relaxed);
            word.store(w.wrapping_add(COUNT_ONE) | FLAG, Ordering::Release);
            // A synchronizer blocked on this word exits when it changes.
            chaos::wake_hint();
            // The store/fence window: a reader preempted here has
            // published its flag but not yet ordered its loads.
            chaos::point!("rcu-scalable/read-lock/between-store-and-fence");
            // Order the flag store before the critical section's loads
            // (paired with the fence at the start of `synchronize`): either
            // the synchronizer sees our flag, or we see every store it made
            // before synchronizing.
            fence(Ordering::SeqCst);
            self.domain.metrics.record_read_section(self.stripe);
        }
    }

    #[inline]
    fn raw_read_unlock(&self) {
        let n = self.nesting.get();
        // In a release build an unbalanced unlock would wrap the nesting
        // count to u32::MAX, leaving in_read_section() stuck true and
        // wedging every later grace period far from the bug — fail loudly
        // at the unbalanced call instead, in every build.
        let Some(rest) = n.checked_sub(1) else {
            panic!("read_unlock without matching read_lock");
        };
        self.nesting.set(rest);
        if rest == 0 {
            let word = &self.slot.word;
            let w = word.load(Ordering::Relaxed);
            // Single Release store, no separate release fence: this store
            // pairs with the synchronizer's Acquire load for the
            // "flag observed clear" exit of its wait loop. The other exit
            // — "counter changed" after we re-enter — is covered by
            // `raw_read_lock`'s Release store on the re-entry word, so
            // between the two stores every quiescence observation carries
            // this critical section's loads.
            word.store(w & !FLAG, Ordering::Release);
            // A synchronizer blocked on this word can now proceed.
            chaos::wake_hint();
        }
    }

    fn synchronize(&self) {
        debug_assert!(
            !self.in_read_section(),
            "synchronize_rcu inside a read-side critical section would self-deadlock"
        );
        let stopwatch = Stopwatch::start();
        let domain = self.domain;
        // Order the caller's prior stores (e.g. unlinking a node) before the
        // reader-state scan: any reader that starts after this fence will
        // observe those stores, so only readers whose flag we see can hold
        // pre-unlink references.
        fence(Ordering::SeqCst);
        // Grace-period sharing (DESIGN.md §6d). Snapshot the sequence and
        // compute how far it must advance before a grace period that
        // *started after the fence above* has fully completed: from an even
        // snapshot the next announcement is snap+1 and completes at snap+2;
        // from an odd snapshot the in-progress scan may predate our fence,
        // so only the following cycle (snap+3) is guaranteed to cover us.
        let share = domain.sharing.then(|| {
            let snap = domain.gp_seq.load(Ordering::SeqCst);
            (snap, if snap & 1 == 0 { 2 } else { 3 })
        });
        let caught_up = |(snap, needed): (u64, u64)| {
            // The piggyback decision window: a synchronizer paused here may
            // miss (or catch) a peer's completion.
            chaos::point!("rcu-scalable/synchronize/piggyback-check");
            domain.gp_seq.load(Ordering::SeqCst).wrapping_sub(snap) >= needed
        };
        // Announce our scan: turn an even sequence odd, or adopt the odd
        // value a peer already announced. Pure CAS loop — no waiting.
        let mut announced = None;
        if let Some(target) = share {
            loop {
                if caught_up(target) {
                    return self.finish_piggybacked(&stopwatch, 0);
                }
                let cur = domain.gp_seq.load(Ordering::SeqCst);
                if cur & 1 == 1 {
                    announced = Some(cur);
                    break;
                }
                if domain
                    .gp_seq
                    .compare_exchange(cur, cur.wrapping_add(1), Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // gp_seq advanced: peers polling caught_up should look.
                    chaos::wake_hint();
                    announced = Some(cur.wrapping_add(1));
                    break;
                }
            }
        }
        if announced.is_some() {
            // Order our announcement before the slot scans in the SeqCst
            // total order. A peer that piggybacks on us snapshotted gp_seq
            // *before* our announcement, so any reader whose read-lock
            // fence precedes that snapshot also precedes this fence — the
            // fence-to-fence rule then guarantees our scan observes that
            // reader's current word, even though our own entry fence may
            // predate the reader. Without this, piggybacked coverage would
            // rest only on the announcement RMW's ordering.
            fence(Ordering::SeqCst);
        }
        let own = core::ptr::from_ref::<ReaderSlot>(&self.slot).cast::<u8>();
        let stall_limit = domain.watchdog.timeout();
        let mut scanned = 0u64;
        for (index, slot) in domain.registry.iter().enumerate() {
            // A synchronizer paused between slot scans lets later slots'
            // readers turn over many times before being snapshotted.
            chaos::point!("rcu-scalable/synchronize/scan-step");
            if let Some(target) = share {
                if caught_up(target) {
                    return self.finish_piggybacked(&stopwatch, scanned);
                }
            }
            // Skip our own slot (we are outside any read section).
            if core::ptr::from_ref::<ReaderSlot>(slot.value()).cast::<u8>() == own {
                continue;
            }
            scanned += 1;
            let word = &slot.value().word;
            let snapshot = word.load(Ordering::Acquire);
            if snapshot & FLAG == 0 {
                // Not inside a read-side critical section: nothing to wait
                // for. This also covers released (unclaimed) slots.
                continue;
            }
            // Wait until the thread either increments its counter (started
            // a *new* section — the pre-existing one is over) or clears its
            // flag. Any change of the word implies one of the two.
            let backoff = Backoff::new();
            let mut waited_since: Option<Instant> = None;
            let mut reported = false;
            while word.load(Ordering::Acquire) == snapshot {
                // While blocked on a reader is where piggybacking pays off:
                // a peer that started its scan after us can finish first.
                if let Some(target) = share {
                    if caught_up(target) {
                        return self.finish_piggybacked(&stopwatch, scanned);
                    }
                }
                // `caught_up` is a yield point: under a deterministic
                // schedule the reader may exit (and fire its wake) inside
                // that window, after the loop condition was sampled. Re-read
                // the word before parking or that wake is lost for good.
                if word.load(Ordering::Acquire) != snapshot {
                    break;
                }
                // Progress needs the reader's word to change (or a peer's
                // gp_seq completion): park under a deterministic schedule.
                chaos::blocked!("rcu-scalable/synchronize/reader-wait");
                backoff.snooze();
                if let Some(limit) = stall_limit {
                    let since = *waited_since.get_or_insert_with(Instant::now);
                    if !reported && since.elapsed() >= limit {
                        reported = true;
                        domain
                            .watchdog
                            .note(ScalableRcu::NAME, index, snapshot, since.elapsed());
                        domain.metrics.record_synchronize_stall(self.stripe);
                    }
                }
            }
        }
        // Pair with readers' release stores: everything their critical
        // sections read happens-before our return.
        fence(Ordering::SeqCst);
        if let Some(announced) = announced {
            // Publish completion of the announcement we scanned under.
            // Single attempt, never a wait: if it fails, a peer already
            // completed this very announcement. We must not complete a
            // *later* announcement — our scan did not start after it.
            let _ = domain.gp_seq.compare_exchange(
                announced,
                announced.wrapping_add(1),
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
            // Completion published: blocked piggyback candidates re-check.
            chaos::wake_hint();
        }
        domain.grace_periods.fetch_add(1, Ordering::Relaxed);
        domain
            .metrics
            .record_synchronize(self.stripe, stopwatch.elapsed_ns());
        domain.metrics.record_scan_slots(scanned);
    }

    #[inline]
    fn in_read_section(&self) -> bool {
        self.nesting.get() > 0
    }
}

impl ScalableRcuHandle<'_> {
    /// Books a `synchronize` satisfied by a peer's grace period. The SeqCst
    /// load that observed the advanced sequence read (a successor of) the
    /// completer's release RMW — every write to `gp_seq` is an RMW, so the
    /// release sequence is unbroken — which makes all reader exits the
    /// completer acquired happen-before our return. `grace_periods` is not
    /// bumped: no new grace period ran.
    #[cold]
    fn finish_piggybacked(&self, stopwatch: &Stopwatch, scanned: u64) {
        let domain = self.domain;
        domain.piggybacks.fetch_add(1, Ordering::Relaxed);
        domain.metrics.record_synchronize_piggyback(self.stripe);
        domain
            .metrics
            .record_synchronize(self.stripe, stopwatch.elapsed_ns());
        domain.metrics.record_scan_slots(scanned);
    }
}

impl Drop for ScalableRcuHandle<'_> {
    fn drop(&mut self) {
        // A handle dropped mid-critical-section would leave its flag set
        // forever, wedging every future grace period.
        assert!(
            !self.in_read_section(),
            "RCU handle dropped inside a read-side critical section"
        );
    }
}

impl fmt::Debug for ScalableRcuHandle<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScalableRcuHandle")
            .field("nesting", &self.nesting.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flavor::{RcuFlavor, RcuHandle};

    #[test]
    fn word_encoding_counts_sections() {
        let rcu = ScalableRcu::new();
        let h = rcu.register();
        let word = &h.slot.word;
        assert_eq!(word.load(Ordering::Relaxed), 0);
        h.raw_read_lock();
        assert_eq!(word.load(Ordering::Relaxed), COUNT_ONE | FLAG);
        h.raw_read_unlock();
        assert_eq!(word.load(Ordering::Relaxed), COUNT_ONE);
        h.raw_read_lock();
        assert_eq!(word.load(Ordering::Relaxed), (2 * COUNT_ONE) | FLAG);
        h.raw_read_unlock();
    }

    #[test]
    fn nesting_only_outermost_touches_word() {
        let rcu = ScalableRcu::new();
        let h = rcu.register();
        h.raw_read_lock();
        let after_outer = h.slot.word.load(Ordering::Relaxed);
        h.raw_read_lock();
        assert_eq!(h.slot.word.load(Ordering::Relaxed), after_outer);
        h.raw_read_unlock();
        assert!(h.in_read_section());
        assert_eq!(h.slot.word.load(Ordering::Relaxed), after_outer);
        h.raw_read_unlock();
        assert!(!h.in_read_section());
    }

    #[test]
    fn synchronize_skips_own_released_and_idle_slots() {
        let rcu = ScalableRcu::new();
        // A released slot from a past thread.
        drop(rcu.register());
        let h = rcu.register();
        // An idle (registered, not reading) slot.
        let _idle = rcu.register();
        h.synchronize(); // must not block
        assert_eq!(rcu.grace_periods(), 1);
    }

    #[test]
    #[should_panic(expected = "dropped inside a read-side critical section")]
    fn dropping_handle_in_cs_panics() {
        let rcu = ScalableRcu::new();
        let h = rcu.register();
        h.raw_read_lock();
        drop(h);
    }

    // In every build profile, not just debug: a wrapped nesting counter
    // would wedge all later grace periods (the release-mode underflow bug).
    #[test]
    #[should_panic(expected = "read_unlock without matching read_lock")]
    fn unbalanced_unlock_panics() {
        let rcu = ScalableRcu::new();
        let h = rcu.register();
        h.raw_read_unlock();
    }

    #[test]
    #[should_panic(expected = "read_unlock without matching read_lock")]
    fn unbalanced_unlock_after_balanced_section_panics() {
        let rcu = ScalableRcu::new();
        let h = rcu.register();
        h.raw_read_lock();
        h.raw_read_unlock();
        h.raw_read_unlock();
    }

    #[test]
    fn debug_is_nonempty() {
        let rcu = ScalableRcu::new();
        let h = rcu.register();
        assert!(format!("{rcu:?}").contains("ScalableRcu"));
        assert!(format!("{h:?}").contains("ScalableRcuHandle"));
    }

    #[test]
    fn gp_seq_announce_complete_cycle() {
        let rcu = ScalableRcu::with_sharing(true);
        assert!(rcu.sharing());
        let h = rcu.register();
        assert_eq!(rcu.gp_seq.load(Ordering::Relaxed), 0);
        h.synchronize();
        // Solo: announce 0→1, complete 1→2.
        assert_eq!(rcu.gp_seq.load(Ordering::Relaxed), 2);
        h.synchronize();
        assert_eq!(rcu.gp_seq.load(Ordering::Relaxed), 4);
        assert_eq!(rcu.grace_periods(), 2);
        assert_eq!(
            rcu.synchronize_piggybacks(),
            0,
            "solo callers never piggyback"
        );
    }

    #[test]
    fn unshared_domain_leaves_gp_seq_untouched() {
        let rcu = ScalableRcu::with_sharing(false);
        assert!(!rcu.sharing());
        let h = rcu.register();
        h.synchronize();
        assert_eq!(rcu.gp_seq.load(Ordering::Relaxed), 0);
        assert_eq!(rcu.grace_periods(), 1);
        assert_eq!(rcu.synchronize_piggybacks(), 0);
    }

    /// The piggyback mechanism, deterministically: a synchronizer blocked
    /// on a parked reader returns as soon as a (simulated) peer completes a
    /// grace period that started after the synchronizer's snapshot —
    /// without waiting for the reader and without bumping `grace_periods`.
    #[test]
    fn blocked_synchronize_piggybacks_on_peer_completion() {
        use std::sync::atomic::AtomicBool;
        let rcu = ScalableRcu::with_sharing(true);
        let reader_in = AtomicBool::new(false);
        let release_reader = AtomicBool::new(false);
        let sync_done = AtomicBool::new(false);

        std::thread::scope(|s| {
            s.spawn(|| {
                let h = rcu.register();
                let g = h.read_lock();
                reader_in.store(true, Ordering::SeqCst);
                while !release_reader.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                drop(g);
            });
            s.spawn(|| {
                while !reader_in.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let h = rcu.register();
                h.synchronize(); // blocks on the parked reader
                sync_done.store(true, Ordering::SeqCst);
            });
            // Wait until the synchronizer announced its scan (0 → 1)...
            while rcu.gp_seq.load(Ordering::SeqCst) != 1 {
                std::hint::spin_loop();
            }
            assert!(!sync_done.load(Ordering::SeqCst));
            // ...then play the peer that adopted announcement 1, scanned,
            // and completed it (1 → 2): a full grace period that started
            // after the blocked synchronizer's snapshot of 0.
            rcu.gp_seq
                .compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
                .unwrap();
            while !sync_done.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // It returned while the reader was still parked in-section.
            assert!(reader_in.load(Ordering::SeqCst));
            assert_eq!(rcu.synchronize_piggybacks(), 1);
            assert_eq!(
                rcu.grace_periods(),
                0,
                "a piggyback is not a new grace period"
            );
            release_reader.store(true, Ordering::SeqCst);
        });
    }

    /// The "counter changed" quiescence exit: a synchronizer blocked on a
    /// reader must return when the reader exits and *re-enters* (word
    /// changes but the flag never settles clear), not only when it
    /// observes the flag clear. `raw_read_lock`'s Release store is what
    /// makes that exit carry the first section's ordering — the re-entry
    /// store, not the unlock store, may be the value the synchronizer
    /// reads. (A loom/Miri model of this path would be stronger, but the
    /// workspace has no loom dependency and the wait loops spin.)
    #[test]
    fn synchronize_returns_when_blocking_reader_reenters() {
        use std::sync::atomic::AtomicBool;
        let rcu = ScalableRcu::with_sharing(false);
        // The watchdog is the "synchronizer is blocked on us" signal.
        rcu.set_stall_timeout(Some(Duration::from_millis(1)));
        let h = rcu.register();
        h.raw_read_lock();
        let sync_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let hs = rcu.register();
                hs.synchronize();
                sync_done.store(true, Ordering::SeqCst);
            });
            // A stall event proves the synchronizer snapshotted our first
            // section and is waiting for the word to change.
            let backoff = Backoff::new();
            while rcu.stall_events() == 0 {
                backoff.snooze();
            }
            assert!(!sync_done.load(Ordering::SeqCst));
            // Exit and immediately re-enter: the counter bumps, so the
            // synchronizer may exit on either the transient clear flag or
            // the changed counter — both must release it.
            h.raw_read_unlock();
            h.raw_read_lock();
            while !sync_done.load(Ordering::SeqCst) {
                backoff.snooze();
            }
            assert!(h.in_read_section());
            h.raw_read_unlock();
        });
        assert_eq!(rcu.grace_periods(), 1);
    }

    /// An *odd* snapshot must not piggyback on the in-progress scan it
    /// observed (that scan may predate the caller): from snapshot 1 the
    /// completion 1→2 alone is insufficient; only the next full cycle is.
    #[test]
    fn odd_snapshot_needs_a_full_extra_cycle() {
        use std::sync::atomic::AtomicBool;
        let rcu = ScalableRcu::with_sharing(true);
        // Simulate a peer's scan already announced before we enter.
        rcu.gp_seq.store(1, Ordering::SeqCst);
        let reader_in = AtomicBool::new(false);
        let release_reader = AtomicBool::new(false);
        let sync_done = AtomicBool::new(false);

        std::thread::scope(|s| {
            s.spawn(|| {
                let h = rcu.register();
                let g = h.read_lock();
                reader_in.store(true, Ordering::SeqCst);
                while !release_reader.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                drop(g);
            });
            s.spawn(|| {
                while !reader_in.load(Ordering::SeqCst) {
                    std::hint::spin_loop();
                }
                let h = rcu.register();
                h.synchronize(); // adopts announcement 1, blocks on reader
                sync_done.store(true, Ordering::SeqCst);
            });
            while !reader_in.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // "Complete" the pre-existing announcement: 1 → 2. From the
            // odd snapshot 1 this must NOT satisfy the blocked caller
            // (needed = 3), so it keeps waiting on the reader.
            std::thread::sleep(Duration::from_millis(50));
            rcu.gp_seq
                .compare_exchange(1, 2, Ordering::SeqCst, Ordering::SeqCst)
                .unwrap();
            std::thread::sleep(Duration::from_millis(100));
            assert!(
                !sync_done.load(Ordering::SeqCst),
                "odd snapshot piggybacked on a scan that may predate it"
            );
            release_reader.store(true, Ordering::SeqCst);
        });
        assert!(sync_done.load(Ordering::SeqCst));
    }
}
