//! Bonsai tree (Clements, Kaashoek, Zeldovich, *Scalable address spaces
//! using RCU balanced trees*, ASPLOS 2012) — the paper's "Bonsai" baseline.
//!
//! Bonsai is "inspired by functional programming: it never modifies the
//! tree in place, creating instead a new instance for the changed data
//! structure". Concretely:
//!
//! * Nodes are **immutable** after publication.
//! * An update (under a **global update lock** — Bonsai allows only one
//!   writer) rebuilds the root-to-change path, rebalancing with
//!   weight-balanced (BB[α] / Adams-style) rotations that also create new
//!   nodes, then swings the root pointer with a single release store.
//! * Readers run inside an RCU read-side critical section and traverse
//!   whichever root snapshot they loaded — always a fully consistent tree.
//!
//! The evaluation's observation that Bonsai "does not perform well,
//! possibly due to its functional programming style, which reconstructs
//! parts of the tree after every update" is reproduced faithfully: every
//! update allocates Θ(log n) fresh nodes.
//!
//! Replaced nodes are kept in an arena and freed when the tree drops (the
//! paper's no-reclamation methodology).

use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos as chaos;
use citrus_rcu::{RcuFlavor, RcuHandle, ScalableRcu};
use citrus_reclaim::Graveyard;
use citrus_sync::SpinMutex;
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::ptr;
use core::sync::atomic::{AtomicPtr, Ordering};

/// Adams' weight-balance parameters (as in Haskell's `Data.Map`).
const DELTA: usize = 3;
const RATIO: usize = 2;

struct BNode<K, V> {
    key: K,
    value: V,
    /// Subtree size (weight); drives rebalancing.
    size: usize,
    left: *mut BNode<K, V>,
    right: *mut BNode<K, V>,
}

/// The Bonsai tree. See the module-level documentation.
///
/// # Example
///
/// ```
/// use citrus_baselines::BonsaiTree;
/// use citrus_api::{ConcurrentMap, MapSession};
///
/// let tree: BonsaiTree<u64, u64> = BonsaiTree::new();
/// let mut s = tree.session();
/// assert!(s.insert(1, 10));
/// assert_eq!(s.get(&1), Some(10));
/// ```
pub struct BonsaiTree<K, V, F: RcuFlavor = ScalableRcu> {
    root: AtomicPtr<BNode<K, V>>,
    /// Bonsai allows a single writer at a time.
    write_lock: SpinMutex<()>,
    /// Every node ever allocated; freed at drop (no double frees possible).
    arena: Graveyard<BNode<K, V>>,
    rcu: F,
}

// SAFETY: nodes are immutable once published and never freed before drop;
// the root pointer is the only shared mutable state.
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Send for BonsaiTree<K, V, F> {}
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Sync for BonsaiTree<K, V, F> {}

impl<K, V, F: RcuFlavor> BonsaiTree<K, V, F> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: AtomicPtr::new(ptr::null_mut()),
            write_lock: SpinMutex::new(()),
            arena: Graveyard::new(),
            rcu: F::new(),
        }
    }

    /// Total nodes ever allocated and still held (diagnostics; Bonsai's
    /// allocation pressure is its performance story).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }
}

impl<K, V, F: RcuFlavor> Default for BonsaiTree<K, V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: fmt::Debug, V, F: RcuFlavor> fmt::Debug for BonsaiTree<K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BonsaiTree")
            .field("arena_nodes", &self.arena_len())
            .finish_non_exhaustive()
    }
}

impl<K, V, F> BonsaiTree<K, V, F>
where
    K: Ord + Clone,
    V: Clone,
    F: RcuFlavor,
{
    fn size(t: *mut BNode<K, V>) -> usize {
        if t.is_null() {
            0
        } else {
            // SAFETY: non-null nodes live until drop.
            unsafe { (*t).size }
        }
    }

    /// Allocates a node (recording it in the arena) with computed size.
    fn node(
        &self,
        key: K,
        value: V,
        left: *mut BNode<K, V>,
        right: *mut BNode<K, V>,
    ) -> *mut BNode<K, V> {
        let n = Box::into_raw(Box::new(BNode {
            key,
            value,
            size: 1 + Self::size(left) + Self::size(right),
            left,
            right,
        }));
        // SAFETY: freshly allocated; arena takes ownership for drop time.
        unsafe { self.arena.push(n) };
        n
    }

    /// Adams' smart constructor: builds `node(k, v, l, r)`, restoring the
    /// weight invariant with single/double rotations (each creating new
    /// nodes — Bonsai's copy-on-update cost).
    fn balance(&self, k: K, v: V, l: *mut BNode<K, V>, r: *mut BNode<K, V>) -> *mut BNode<K, V> {
        let (ls, rs) = (Self::size(l), Self::size(r));
        if ls + rs <= 1 {
            return self.node(k, v, l, r);
        }
        // SAFETY: heavy sides are non-null (size > 0); nodes immutable.
        unsafe {
            if rs > DELTA * ls {
                // Right heavy.
                let rl = (*r).left;
                let rr = (*r).right;
                if Self::size(rl) < RATIO * Self::size(rr) {
                    // Single left rotation.
                    let inner = self.node(k, v, l, rl);
                    self.node((*r).key.clone(), (*r).value.clone(), inner, rr)
                } else {
                    // Double left rotation (rl is non-null here).
                    let new_l = self.node(k, v, l, (*rl).left);
                    let new_r = self.node((*r).key.clone(), (*r).value.clone(), (*rl).right, rr);
                    self.node((*rl).key.clone(), (*rl).value.clone(), new_l, new_r)
                }
            } else if ls > DELTA * rs {
                // Left heavy.
                let ll = (*l).left;
                let lr = (*l).right;
                if Self::size(lr) < RATIO * Self::size(ll) {
                    // Single right rotation.
                    let inner = self.node(k, v, lr, r);
                    self.node((*l).key.clone(), (*l).value.clone(), ll, inner)
                } else {
                    // Double right rotation (lr non-null).
                    let new_l = self.node((*l).key.clone(), (*l).value.clone(), ll, (*lr).left);
                    let new_r = self.node(k, v, (*lr).right, r);
                    self.node((*lr).key.clone(), (*lr).value.clone(), new_l, new_r)
                }
            } else {
                self.node(k, v, l, r)
            }
        }
    }

    /// Functional insert; `None` if the key already exists.
    fn ins(&self, t: *mut BNode<K, V>, key: &K, value: &V) -> Option<*mut BNode<K, V>> {
        if t.is_null() {
            return Some(self.node(key.clone(), value.clone(), ptr::null_mut(), ptr::null_mut()));
        }
        // SAFETY: nodes immutable and live until drop.
        unsafe {
            match key.cmp(&(*t).key) {
                CmpOrdering::Equal => None,
                CmpOrdering::Less => self
                    .ins((*t).left, key, value)
                    .map(|l| self.balance((*t).key.clone(), (*t).value.clone(), l, (*t).right)),
                CmpOrdering::Greater => self
                    .ins((*t).right, key, value)
                    .map(|r| self.balance((*t).key.clone(), (*t).value.clone(), (*t).left, r)),
            }
        }
    }

    /// Removes and returns the minimum of non-null `t`, with the rebuilt
    /// remainder.
    fn extract_min(&self, t: *mut BNode<K, V>) -> (K, V, *mut BNode<K, V>) {
        // SAFETY: `t` non-null by contract; nodes immutable.
        unsafe {
            if (*t).left.is_null() {
                ((*t).key.clone(), (*t).value.clone(), (*t).right)
            } else {
                let (k, v, l) = self.extract_min((*t).left);
                (
                    k,
                    v,
                    self.balance((*t).key.clone(), (*t).value.clone(), l, (*t).right),
                )
            }
        }
    }

    /// Joins two subtrees whose keys are already ordered (`l` < `r`).
    fn glue(&self, l: *mut BNode<K, V>, r: *mut BNode<K, V>) -> *mut BNode<K, V> {
        if l.is_null() {
            return r;
        }
        if r.is_null() {
            return l;
        }
        let (k, v, r2) = self.extract_min(r);
        self.balance(k, v, l, r2)
    }

    /// Functional delete; `None` if the key is absent.
    fn del(&self, t: *mut BNode<K, V>, key: &K) -> Option<*mut BNode<K, V>> {
        if t.is_null() {
            return None;
        }
        // SAFETY: nodes immutable and live until drop.
        unsafe {
            match key.cmp(&(*t).key) {
                CmpOrdering::Equal => Some(self.glue((*t).left, (*t).right)),
                CmpOrdering::Less => self
                    .del((*t).left, key)
                    .map(|l| self.balance((*t).key.clone(), (*t).value.clone(), l, (*t).right)),
                CmpOrdering::Greater => self
                    .del((*t).right, key)
                    .map(|r| self.balance((*t).key.clone(), (*t).value.clone(), (*t).left, r)),
            }
        }
    }
}

impl<K, V, F> ConcurrentMap<K, V> for BonsaiTree<K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    type Session<'a>
        = BonsaiSession<'a, K, V, F>
    where
        Self: 'a;

    const NAME: &'static str = "bonsai";

    fn session(&self) -> BonsaiSession<'_, K, V, F> {
        BonsaiSession {
            tree: self,
            rcu: self.rcu.register(),
        }
    }
}

/// Per-thread handle to a [`BonsaiTree`] (holds the RCU reader slot).
pub struct BonsaiSession<'t, K, V, F: RcuFlavor> {
    tree: &'t BonsaiTree<K, V, F>,
    rcu: F::Handle<'t>,
}

impl<K, V, F: RcuFlavor> fmt::Debug for BonsaiSession<'_, K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BonsaiSession").finish_non_exhaustive()
    }
}

impl<K, V, F> BonsaiSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    /// Ordered reads come for free from Bonsai's functional design: the
    /// root loaded at the start of the read-side critical section is an
    /// immutable snapshot of the entire tree, so a bounded in-order walk
    /// needs no validation and never restarts. The load of `root` is the
    /// linearization point.
    fn snapshot_walk<T>(&mut self, visit: impl FnOnce(*mut BNode<K, V>) -> T) -> T {
        let _g = self.rcu.read_lock();
        let root = self.tree.root.load(Ordering::Acquire);
        chaos::point!("baseline-bonsai/scan/snapshot");
        visit(root)
    }
}

impl<K, V, F> MapSession<K, V> for BonsaiSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn get(&mut self, key: &K) -> Option<V> {
        let _g = self.rcu.read_lock();
        let mut cur = self.tree.root.load(Ordering::Acquire);
        // SAFETY: snapshot traversal; nodes immutable and never freed
        // before drop.
        unsafe {
            while !cur.is_null() {
                match key.cmp(&(*cur).key) {
                    CmpOrdering::Equal => return Some((*cur).value.clone()),
                    CmpOrdering::Less => cur = (*cur).left,
                    CmpOrdering::Greater => cur = (*cur).right,
                }
            }
        }
        None
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        let tree = self.tree;
        let _w = tree.write_lock.lock();
        // Readers run concurrently with the path-copying below.
        chaos::point!("baseline-bonsai/write/critical");
        let root = tree.root.load(Ordering::Relaxed); // sole writer
        match tree.ins(root, &key, &value) {
            Some(new_root) => {
                tree.root.store(new_root, Ordering::Release);
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, key: &K) -> bool {
        let tree = self.tree;
        let _w = tree.write_lock.lock();
        chaos::point!("baseline-bonsai/write/critical");
        let root = tree.root.load(Ordering::Relaxed);
        match tree.del(root, key) {
            Some(new_root) => {
                tree.root.store(new_root, Ordering::Release);
                true
            }
            None => false,
        }
    }
}

impl<K, V, F> OrderedMapSession<K, V> for BonsaiSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        if lo > hi {
            return Vec::new();
        }
        self.snapshot_walk(|root| {
            // Bounded in-order walk of the immutable snapshot, pruning
            // subtrees that cannot intersect `[lo, hi]`.
            let mut out = Vec::new();
            let mut stack: Vec<*mut BNode<K, V>> = Vec::new();
            let mut cur = root;
            // SAFETY: snapshot traversal; nodes immutable and never freed
            // before the tree drops.
            unsafe {
                loop {
                    while !cur.is_null() {
                        if (*cur).key < *lo {
                            cur = (*cur).right;
                        } else {
                            stack.push(cur);
                            cur = (*cur).left;
                        }
                    }
                    let Some(node) = stack.pop() else { break };
                    if (*node).key > *hi {
                        break;
                    }
                    out.push(((*node).key.clone(), (*node).value.clone()));
                    cur = (*node).right;
                }
            }
            out
        })
    }

    fn successor(&mut self, key: &K) -> Option<(K, V)> {
        self.snapshot_walk(|root| {
            let mut best: Option<(K, V)> = None;
            let mut cur = root;
            // SAFETY: snapshot traversal as above.
            unsafe {
                while !cur.is_null() {
                    if (*cur).key > *key {
                        best = Some(((*cur).key.clone(), (*cur).value.clone()));
                        cur = (*cur).left;
                    } else {
                        cur = (*cur).right;
                    }
                }
            }
            best
        })
    }

    fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        self.snapshot_walk(|root| {
            let mut best: Option<(K, V)> = None;
            let mut cur = root;
            // SAFETY: snapshot traversal as above.
            unsafe {
                while !cur.is_null() {
                    if (*cur).key < *key {
                        best = Some(((*cur).key.clone(), (*cur).value.clone()));
                        cur = (*cur).right;
                    } else {
                        cur = (*cur).left;
                    }
                }
            }
            best
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus_api::testkit;
    use citrus_rcu::GlobalLockRcu;

    type Tree = BonsaiTree<u64, u64>;

    /// Recursively checks the weight-balance invariant and BST order.
    fn check_balance(t: *mut BNode<u64, u64>, lo: Option<u64>, hi: Option<u64>) -> usize {
        if t.is_null() {
            return 0;
        }
        unsafe {
            let k = (*t).key;
            assert!(lo.is_none_or(|lo| k > lo), "BST order violated");
            assert!(hi.is_none_or(|hi| k < hi), "BST order violated");
            let ls = check_balance((*t).left, lo, Some(k));
            let rs = check_balance((*t).right, Some(k), hi);
            assert_eq!((*t).size, 1 + ls + rs, "size field corrupted");
            if ls + rs > 1 {
                assert!(
                    rs <= DELTA * ls && ls <= DELTA * rs,
                    "weight invariant violated: ls={ls} rs={rs}"
                );
            }
            1 + ls + rs
        }
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..2_000u64 {
            assert!(s.insert(k, k));
        }
        drop(s);
        let n = check_balance(tree.root.load(Ordering::Relaxed), None, None);
        assert_eq!(n, 2_000);
    }

    #[test]
    fn stays_balanced_under_deletes() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..1_000u64 {
            s.insert(k, k);
        }
        for k in (0..1_000u64).step_by(3) {
            assert!(s.remove(&k));
        }
        drop(s);
        check_balance(tree.root.load(Ordering::Relaxed), None, None);
    }

    #[test]
    fn sequential_model() {
        testkit::check_sequential_model(&Tree::new(), 6_000, 256, 0xB0A5);
        testkit::check_duplicate_inserts(&Tree::new());
    }

    #[test]
    fn concurrent_battery() {
        testkit::check_lost_updates(&Tree::new(), 8, 300);
        testkit::check_partitioned_determinism(&Tree::new(), 8, 2_500, 64);
        testkit::check_mixed_quiescent_consistency(&Tree::new(), 8, 2_500, 128);
    }

    #[test]
    fn works_with_global_lock_rcu() {
        let tree: BonsaiTree<u64, u64, GlobalLockRcu> = BonsaiTree::new();
        testkit::check_sequential_model(&tree, 2_000, 128, 0xB0A6);
    }

    #[test]
    fn arena_grows_with_updates() {
        // Bonsai's signature cost: path copying allocates on every update.
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..100u64 {
            s.insert(k, k);
        }
        let after_inserts = tree.arena_len();
        assert!(after_inserts >= 100);
        for k in 0..100u64 {
            s.remove(&k);
        }
        drop(s);
        assert!(
            tree.arena_len() > after_inserts,
            "deletes must also path-copy"
        );
    }

    #[test]
    fn ordered_reads_on_snapshots() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..100u64 {
            s.insert(k * 10, k);
        }
        let scan = s.range_scan(&100, &190);
        assert_eq!(scan.len(), 10);
        assert!(scan.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(scan.first(), Some(&(100, 10)));
        assert_eq!(scan.last(), Some(&(190, 19)));
        assert_eq!(s.range_scan(&191, &199), vec![]);
        assert_eq!(s.range_scan(&190, &100), vec![]);
        assert_eq!(s.successor(&105), Some((110, 11)));
        assert_eq!(s.successor(&990), None);
        assert_eq!(s.predecessor(&105), Some((100, 10)));
        assert_eq!(s.predecessor(&0), None);
        // Full-range scan matches the whole contents, in order.
        let all = s.range_scan(&0, &u64::MAX);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tree>();
    }
}
