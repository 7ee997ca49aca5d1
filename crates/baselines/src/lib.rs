//! Baseline concurrent dictionaries from the Citrus paper's evaluation
//! (§5), implemented from scratch:
//!
//! | figure label | here | synchronization |
//! |---|---|---|
//! | "Red-Black" | [`RelativisticRbTree`] | global update lock, RCU readers, copy-on-rotate, `synchronize_rcu` on successor moves (Howard & Walpole \[18\]) |
//! | "Bonsai" | [`BonsaiTree`] | global update lock, RCU readers, full path-copying functional updates (Clements et al. \[6\]) |
//! | "AVL" | [`OptimisticAvlTree`] | fine-grained locks + per-node versions, optimistic hand-over-hand validation, relaxed balance (Bronson et al. \[4\]) |
//! | "Lock-Free" | [`LockFreeBst`] | external BST with edge flagging/tagging CAS protocol (Natarajan & Mittal \[23\]) |
//! | "Skiplist" | [`LazySkipList`] | lazy lock-based optimistic skiplist (Herlihy et al. \[15\]) |
//!
//! All five implement [`citrus_api::ConcurrentMap`] so the benchmark
//! harness and the shared test kit drive them identically to the Citrus
//! tree.
//!
//! # Memory reclamation
//!
//! Matching the paper's methodology ("without performing any memory
//! reclamation"), removed/replaced nodes go to a per-structure
//! [`Graveyard`](citrus_reclaim::Graveyard) and are freed when the structure is dropped.
//! (The Citrus tree additionally frees removed nodes after its own RCU
//! grace periods; the baselines deliberately reproduce the paper's
//! setup.)

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod avl;
mod bonsai;
mod lockfree;
mod rbtree;
mod skiplist;

pub use avl::{AvlSession, OptimisticAvlTree};
pub use bonsai::{BonsaiSession, BonsaiTree};
pub use lockfree::{LockFreeBst, LockFreeSession};
pub use rbtree::{RbSession, RelativisticRbTree};
pub use skiplist::{LazySkipList, SkipListSession};
