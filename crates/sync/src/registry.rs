//! Grow-only lock-free registry of per-thread slots.
//!
//! RCU flavors and the epoch reclamation domain both need the same shape of
//! bookkeeping: each participating thread owns one cache-padded record, and
//! a synchronizing thread iterates over *all* records (`synchronize_rcu`
//! waits on every reader slot; epoch advancement inspects every pinned
//! epoch). Threads come and go, so records are claimable and reusable, but
//! they are never freed while the registry is alive — that is what makes
//! lock-free iteration sound.

use core::fmt;
use core::marker::PhantomData;
use core::ops::Deref;
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};

/// A grow-only registry of per-thread slots of type `T`.
///
/// * [`register`](Registry::register) claims a free slot (reusing a
///   previously released one if possible) and returns a [`SlotHandle`] that
///   releases the slot on drop.
/// * [`iter`](Registry::iter) walks every slot ever created, concurrently
///   with registrations, without locking.
///
/// Slots are allocated once and freed only when the registry itself is
/// dropped, so references handed out by the iterator remain valid for the
/// registry's lifetime.
///
/// `T` is shared between the owning thread and iterating threads, so all of
/// its mutable state must be atomic (the intended use stores a single
/// `CachePadded<AtomicU64>`).
///
/// # Example
///
/// ```
/// use citrus_sync::Registry;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let registry: Registry<AtomicU64> = Registry::new();
/// let slot = registry.register(|| AtomicU64::new(0), |old| old.store(0, Ordering::Relaxed));
/// slot.store(7, Ordering::Relaxed);
/// let sum: u64 = registry.iter().map(|s| s.load(Ordering::Relaxed)).sum();
/// assert_eq!(sum, 7);
/// ```
pub struct Registry<T> {
    head: AtomicPtr<SlotNode<T>>,
}

struct SlotNode<T> {
    value: T,
    claimed: AtomicBool,
    next: *mut SlotNode<T>,
}

// SAFETY: the registry shares `&T` across threads (iteration) and transfers
// slot ownership between threads (reuse), so both bounds are required and
// sufficient.
unsafe impl<T: Send + Sync> Send for Registry<T> {}
unsafe impl<T: Send + Sync> Sync for Registry<T> {}

impl<T> Registry<T> {
    /// Creates an empty registry.
    pub const fn new() -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Claims a slot for the calling thread.
    ///
    /// If a previously released slot exists it is reused and `reuse` is
    /// called on it to reset its state *after* the claim succeeds (iterating
    /// threads may observe the slot in its pre-reset state momentarily;
    /// callers must make the released state and the reset state equivalent
    /// for their protocol — e.g. "not inside a critical section").
    /// Otherwise a fresh slot is created with `init`.
    pub fn register(&self, init: impl FnOnce() -> T, reuse: impl FnOnce(&T)) -> SlotHandle<'_, T> {
        // Try to reuse a released slot.
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: slots are never freed while the registry is alive.
            let node = unsafe { &*cur };
            if !node.claimed.load(Ordering::Relaxed)
                && node
                    .claimed
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
            {
                reuse(&node.value);
                return SlotHandle {
                    node,
                    _not_send: PhantomData,
                };
            }
            cur = node.next;
        }

        // No free slot: push a new one at the head.
        let node = Box::into_raw(Box::new(SlotNode {
            value: init(),
            claimed: AtomicBool::new(true),
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` is uniquely owned until the CAS publishes it.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(h) => head = h,
            }
        }
        // SAFETY: just published; nodes are never freed while registry lives.
        let node = unsafe { &*node };
        SlotHandle {
            node,
            _not_send: PhantomData,
        }
    }

    /// Iterates over every slot ever registered (claimed or released).
    ///
    /// Runs concurrently with registrations; slots published after the
    /// iterator was created may or may not be observed.
    pub fn iter(&self) -> SlotIter<'_, T> {
        SlotIter {
            cur: self.head.load(Ordering::Acquire),
            _marker: PhantomData,
        }
    }

    /// Number of slots ever created (O(n) walk; for diagnostics and tests).
    pub fn slot_count(&self) -> usize {
        self.iter().count()
    }
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for Registry<T> {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: `&mut self` means no handles or iterators are alive
            // (they borrow the registry), so reclaiming every node is safe.
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next;
        }
    }
}

impl<T> fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("slots", &self.slot_count())
            .finish()
    }
}

/// Exclusive handle to a claimed slot; releases the slot when dropped.
///
/// Dereferences to the slot value. Not `Send`: a slot is used by one
/// thread at a time, and per-thread RCU/epoch state is meaningless if
/// migrated mid-critical-section. A wrapper may move a handle between
/// threads only between critical sections, handing it over under a
/// lock; `citrus-serve` does so for each shard's executor session (see
/// its `Shard` SAFETY note).
pub struct SlotHandle<'r, T> {
    node: &'r SlotNode<T>,
    _not_send: PhantomData<*mut ()>,
}

impl<T> SlotHandle<'_, T> {
    /// Returns a reference to the slot value with the registry's lifetime
    /// erased to this handle's borrow.
    pub fn value(&self) -> &T {
        &self.node.value
    }
}

impl<T> Deref for SlotHandle<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.node.value
    }
}

impl<T> Drop for SlotHandle<'_, T> {
    fn drop(&mut self) {
        self.node.claimed.store(false, Ordering::Release);
    }
}

impl<T: fmt::Debug> fmt::Debug for SlotHandle<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SlotHandle").field(&self.node.value).finish()
    }
}

/// A slot observed during iteration: the value plus its claim status.
#[derive(Debug)]
pub struct SlotRef<'r, T> {
    value: &'r T,
    claimed: bool,
}

impl<'r, T> SlotRef<'r, T> {
    /// The slot's value.
    pub fn value(&self) -> &'r T {
        self.value
    }

    /// Whether the slot was claimed by some thread when observed.
    pub fn is_claimed(&self) -> bool {
        self.claimed
    }
}

impl<T> Deref for SlotRef<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.value
    }
}

/// Iterator over registry slots; see [`Registry::iter`].
pub struct SlotIter<'r, T> {
    cur: *mut SlotNode<T>,
    _marker: PhantomData<&'r Registry<T>>,
}

impl<'r, T> Iterator for SlotIter<'r, T> {
    type Item = SlotRef<'r, T>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur.is_null() {
            return None;
        }
        // SAFETY: slots live as long as the registry ('r).
        let node = unsafe { &*self.cur };
        self.cur = node.next;
        Some(SlotRef {
            value: &node.value,
            claimed: node.claimed.load(Ordering::Acquire),
        })
    }
}

impl<T> fmt::Debug for SlotIter<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotIter").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    fn new_slot() -> AtomicU64 {
        AtomicU64::new(0)
    }

    fn reset_slot(s: &AtomicU64) {
        s.store(0, Ordering::Relaxed);
    }

    #[test]
    fn register_and_iterate() {
        let r: Registry<AtomicU64> = Registry::new();
        let a = r.register(new_slot, reset_slot);
        let b = r.register(new_slot, reset_slot);
        a.store(1, Ordering::Relaxed);
        b.store(2, Ordering::Relaxed);
        let sum: u64 = r.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(sum, 3);
        assert_eq!(r.slot_count(), 2);
        assert!(r.iter().all(|s| s.is_claimed()));
    }

    #[test]
    fn released_slots_are_reused_and_reset() {
        let r: Registry<AtomicU64> = Registry::new();
        {
            let a = r.register(new_slot, reset_slot);
            a.store(99, Ordering::Relaxed);
        }
        assert_eq!(r.slot_count(), 1);
        let b = r.register(new_slot, reset_slot);
        // The reused slot was reset by the `reuse` callback.
        assert_eq!(b.load(Ordering::Relaxed), 0);
        assert_eq!(r.slot_count(), 1, "slot was reused, not re-created");
    }

    #[test]
    fn iteration_sees_released_slots_as_unclaimed() {
        let r: Registry<AtomicU64> = Registry::new();
        drop(r.register(new_slot, reset_slot));
        let slots: Vec<_> = r.iter().collect();
        assert_eq!(slots.len(), 1);
        assert!(!slots[0].is_claimed());
    }

    #[test]
    fn concurrent_registration_is_race_free() {
        const THREADS: usize = 16;
        let r: Registry<AtomicU64> = Registry::new();
        let barrier = Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for i in 0..THREADS {
                let (r, barrier) = (&r, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let slot = r.register(new_slot, reset_slot);
                    slot.store(i as u64 + 1, Ordering::Relaxed);
                    // Hold the slot until everyone registered, forcing
                    // THREADS distinct slots.
                    barrier.wait();
                });
            }
        });
        assert_eq!(r.slot_count(), THREADS);
    }

    #[test]
    fn reuse_prefers_existing_slots_under_churn() {
        let r: Registry<AtomicU64> = Registry::new();
        for _ in 0..100 {
            let h = r.register(new_slot, reset_slot);
            h.store(1, Ordering::Relaxed);
        }
        assert_eq!(r.slot_count(), 1);
    }

    #[test]
    fn debug_impls_nonempty() {
        let r: Registry<AtomicU64> = Registry::new();
        let h = r.register(new_slot, reset_slot);
        assert!(format!("{r:?}").contains("Registry"));
        assert!(format!("{h:?}").contains("SlotHandle"));
        assert!(format!("{:?}", r.iter()).contains("SlotIter"));
    }
}
