//! Synchronization substrate for the Citrus reproduction.
//!
//! This crate provides the low-level building blocks shared by the RCU
//! implementations (`citrus-rcu`), the reclamation graveyard
//! (`citrus-reclaim`), and the concurrent data structures themselves:
//!
//! * [`CachePadded`] — align-and-pad wrapper that gives each value its own
//!   cache line, avoiding false sharing between per-thread records. The
//!   paper's evaluation section stresses that field layout and cache-line
//!   alignment "often influences the results much more than the algorithmic
//!   aspects of the implementation"; every per-thread record in this
//!   repository is cache padded.
//! * [`Backoff`] — bounded exponential backoff that spins briefly and then
//!   yields to the OS scheduler. On an oversubscribed host (more threads
//!   than cores) pure spinning burns whole scheduler quanta while the lock
//!   holder is descheduled; yielding is essential there.
//! * [`RawSpinLock`] / [`SpinMutex`] — the per-node lock used by the Citrus
//!   tree and the lock-based baselines. A single `AtomicBool` byte, so a node
//!   stays small, with a spin-then-yield acquire loop.
//! * [`Registry`] — a grow-only, lock-free registry of per-thread slots. RCU
//!   flavors and the reclamation domain register one slot per thread and
//!   iterate over all slots during `synchronize_rcu` / epoch advancement.
//! * [`StripedCounter`] — cache-padded striped event counter for low-cost
//!   statistics.
//!
//! # Example
//!
//! ```
//! use citrus_sync::SpinMutex;
//!
//! let m = SpinMutex::new(0u64);
//! *m.lock() += 1;
//! assert_eq!(*m.lock(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backoff;
mod counter;
mod pad;
mod registry;
mod spin;

pub use backoff::Backoff;
pub use counter::StripedCounter;
pub use pad::CachePadded;
pub use registry::{Registry, SlotHandle, SlotIter, SlotRef};
pub use spin::{RawSpinLock, SpinMutex, SpinMutexGuard};
