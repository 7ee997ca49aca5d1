//! Free-on-drop node graveyard (the paper's "no reclamation" methodology).

use citrus_sync::SpinMutex;
use core::fmt;

/// Collects unlinked nodes of type `T` and frees them when dropped.
///
/// The Citrus evaluation runs every structure *without* memory
/// reclamation; nodes removed from a structure are merely queued here so
/// the process does not leak across repeated benchmark configurations —
/// each structure frees its graveyard on drop.
///
/// Pushing takes an internal spin lock; callers batch via
/// [`push_batch`](Self::push_batch) from session-local buffers.
pub struct Graveyard<T> {
    dead: SpinMutex<Vec<*mut T>>,
}

// SAFETY: the graveyard owns unlinked allocations; moving the ownership
// records across threads is safe for any sendable payload.
unsafe impl<T: Send> Send for Graveyard<T> {}
unsafe impl<T: Send> Sync for Graveyard<T> {}

impl<T> Graveyard<T> {
    /// Creates an empty graveyard.
    pub fn new() -> Self {
        Self {
            dead: SpinMutex::new(Vec::new()),
        }
    }

    /// Queues one unlinked node.
    ///
    /// # Safety
    ///
    /// `ptr` must come from `Box::into_raw` and be unlinked from the
    /// owning structure (unreachable for new traversals); ownership moves
    /// to the graveyard.
    pub unsafe fn push(&self, ptr: *mut T) {
        self.dead.lock().push(ptr);
    }

    /// Queues a batch of unlinked nodes, draining `batch`.
    ///
    /// # Safety
    ///
    /// As for [`push`](Self::push), for every element.
    pub unsafe fn push_batch(&self, batch: &mut Vec<*mut T>) {
        if !batch.is_empty() {
            self.dead.lock().append(batch);
        }
    }

    /// Number of queued nodes (diagnostics).
    pub fn len(&self) -> usize {
        self.dead.lock().len()
    }

    /// `true` if no nodes are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Default for Graveyard<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for Graveyard<T> {
    fn drop(&mut self) {
        for ptr in self.dead.get_mut().drain(..) {
            // SAFETY: per `push`'s contract the pointer is an unlinked,
            // exclusively owned Box allocation.
            unsafe { drop(Box::from_raw(ptr)) };
        }
    }
}

impl<T> fmt::Debug for Graveyard<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graveyard")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Counted<'a>(&'a AtomicUsize);
    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn frees_everything_on_drop() {
        let drops = AtomicUsize::new(0);
        {
            let g: Graveyard<Counted> = Graveyard::new();
            unsafe {
                g.push(Box::into_raw(Box::new(Counted(&drops))));
                let mut batch = vec![
                    Box::into_raw(Box::new(Counted(&drops))),
                    Box::into_raw(Box::new(Counted(&drops))),
                ];
                g.push_batch(&mut batch);
                assert!(batch.is_empty());
            }
            assert_eq!(g.len(), 3);
            assert!(!g.is_empty());
        }
        assert_eq!(drops.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn empty_graveyard_is_empty() {
        let g: Graveyard<u64> = Graveyard::new();
        assert!(g.is_empty());
        assert!(format!("{g:?}").contains("Graveyard"));
    }
}
