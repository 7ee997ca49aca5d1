//! Memory reclamation for the Citrus reproduction's baseline structures
//! and the Citrus tree's `Leak` mode.
//!
//! The Citrus paper runs its timed experiments **without** reclaiming
//! memory (§6) and names efficient reclamation as future work (§7).
//! [`Graveyard`] is that methodology: unlinked nodes are queued and freed
//! when the owning structure drops, so repeated benchmark configurations
//! in one process do not leak.
//!
//! Reclamation *during* a run lives in the Citrus tree itself
//! (`ReclaimMode::Epoch`): a session frees the nodes it removed after its
//! own next `synchronize_rcu`, on the tree's RCU domain — the paper's one
//! synchronization mechanism serving both jobs (DESIGN.md §7).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod graveyard;

pub use graveyard::Graveyard;
