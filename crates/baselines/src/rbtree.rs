//! Relativistic red-black tree (Howard & Walpole, *Relativistic red-black
//! trees*, CCPE 2013) — the paper's "Red-Black" baseline.
//!
//! The relativistic-programming recipe:
//!
//! * Updates are serialized by a **global update lock** — "they all do not
//!   allow concurrent updates" is precisely the weakness Citrus fixes.
//! * Readers traverse lock-free inside an RCU read-side critical section.
//! * A structural change that could misdirect a concurrent reader is done
//!   on a **copy**: rotations allocate a copy of the node that moves down
//!   (the original keeps valid outgoing pointers for stale readers), and a
//!   two-child delete installs a copy of the successor at the deleted
//!   node's position, calls `synchronize_rcu`, and only then unlinks the
//!   old successor — the same false-negative avoidance Citrus borrows.
//! * Recoloring and parent pointers are writer-private state (readers
//!   never look at them), so they are updated in place under the lock.
//!
//! Replaced/removed nodes go to the graveyard (no reclamation during
//! runs, per the paper's methodology).

use citrus_api::{ConcurrentMap, MapSession};
use citrus_chaos as chaos;
use citrus_rcu::{RcuFlavor, RcuHandle, ScalableRcu};
use citrus_reclaim::Graveyard;
use citrus_sync::SpinMutex;
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::ptr;
use core::sync::atomic::{AtomicPtr, AtomicU8, Ordering};

const RED: u8 = 0;
const BLACK: u8 = 1;

const L: usize = 0;
const R: usize = 1;

struct RbNode<K, V> {
    key: K,
    value: V,
    /// Writer-only (readers never consult colors).
    color: AtomicU8,
    child: [AtomicPtr<RbNode<K, V>>; 2],
    /// Writer-only (readers never walk upward).
    parent: AtomicPtr<RbNode<K, V>>,
}

impl<K, V> RbNode<K, V> {
    fn alloc(
        key: K,
        value: V,
        color: u8,
        left: *mut Self,
        right: *mut Self,
        parent: *mut Self,
    ) -> *mut Self {
        Box::into_raw(Box::new(Self {
            key,
            value,
            color: AtomicU8::new(color),
            child: [AtomicPtr::new(left), AtomicPtr::new(right)],
            parent: AtomicPtr::new(parent),
        }))
    }
}

/// The relativistic red-black tree. See the module-level documentation.
///
/// # Example
///
/// ```
/// use citrus_baselines::RelativisticRbTree;
/// use citrus_api::{ConcurrentMap, MapSession};
///
/// let tree: RelativisticRbTree<u64, u64> = RelativisticRbTree::new();
/// let mut s = tree.session();
/// assert!(s.insert(2, 20));
/// assert_eq!(s.get(&2), Some(20));
/// ```
pub struct RelativisticRbTree<K, V, F: RcuFlavor = ScalableRcu> {
    root: AtomicPtr<RbNode<K, V>>,
    /// The global update lock: at most one writer at any time.
    write_lock: SpinMutex<()>,
    graveyard: Graveyard<RbNode<K, V>>,
    rcu: F,
}

// SAFETY: readers use only atomics on key/value-carrying fields; all
// writes happen under the global lock; retired nodes outlive readers
// (graveyard).
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Send for RelativisticRbTree<K, V, F> {}
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Sync for RelativisticRbTree<K, V, F> {}

impl<K, V, F: RcuFlavor> RelativisticRbTree<K, V, F> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            root: AtomicPtr::new(ptr::null_mut()),
            write_lock: SpinMutex::new(()),
            graveyard: Graveyard::new(),
            rcu: F::new(),
        }
    }

    /// Unreclaimed retired nodes (diagnostics).
    pub fn graveyard_len(&self) -> usize {
        self.graveyard.len()
    }
}

impl<K, V, F: RcuFlavor> Default for RelativisticRbTree<K, V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, F: RcuFlavor> Drop for RelativisticRbTree<K, V, F> {
    fn drop(&mut self) {
        let mut stack = vec![self.root.load(Ordering::Relaxed)];
        while let Some(p) = stack.pop() {
            if p.is_null() {
                continue;
            }
            // SAFETY: exclusive access; retired nodes are unreachable from
            // the root, so no double visits.
            unsafe {
                stack.push((*p).child[L].load(Ordering::Relaxed));
                stack.push((*p).child[R].load(Ordering::Relaxed));
                drop(Box::from_raw(p));
            }
        }
    }
}

impl<K: fmt::Debug, V, F: RcuFlavor> fmt::Debug for RelativisticRbTree<K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RelativisticRbTree")
            .field("graveyard", &self.graveyard_len())
            .finish_non_exhaustive()
    }
}

/// Writer-side helpers. Everything in this impl must be called with the
/// global write lock held.
impl<K, V, F> RelativisticRbTree<K, V, F>
where
    K: Ord + Clone,
    V: Clone,
    F: RcuFlavor,
{
    fn color(n: *mut RbNode<K, V>) -> u8 {
        if n.is_null() {
            BLACK
        } else {
            // SAFETY: live node; writer-only field.
            unsafe { (*n).color.load(Ordering::Relaxed) }
        }
    }

    fn set_color(n: *mut RbNode<K, V>, c: u8) {
        debug_assert!(!n.is_null());
        // SAFETY: live node; writer-only field.
        unsafe { (*n).color.store(c, Ordering::Relaxed) };
    }

    fn parent(n: *mut RbNode<K, V>) -> *mut RbNode<K, V> {
        // SAFETY: live node; writer-only field.
        unsafe { (*n).parent.load(Ordering::Relaxed) }
    }

    fn child(n: *mut RbNode<K, V>, d: usize) -> *mut RbNode<K, V> {
        // SAFETY: live node.
        unsafe { (*n).child[d].load(Ordering::Relaxed) }
    }

    fn dir_of(p: *mut RbNode<K, V>, n: *mut RbNode<K, V>) -> usize {
        if Self::child(p, L) == n {
            L
        } else {
            debug_assert_eq!(Self::child(p, R), n);
            R
        }
    }

    /// Points `p`'s slot that held `old` (or the root) at `new`, and fixes
    /// `new.parent`.
    fn replace_child(&self, p: *mut RbNode<K, V>, old: *mut RbNode<K, V>, new: *mut RbNode<K, V>) {
        if p.is_null() {
            self.root.store(new, Ordering::Release);
        } else {
            let d = Self::dir_of(p, old);
            // SAFETY: live nodes; Release publishes `new`'s fields.
            unsafe { (*p).child[d].store(new, Ordering::Release) };
        }
        if !new.is_null() {
            // SAFETY: live node; writer-only field.
            unsafe { (*new).parent.store(p, Ordering::Relaxed) };
        }
    }

    /// Relativistic rotation: the pivot's parent `x` moves *down* and is
    /// therefore **copied** (Howard's copy-on-rotate); stale readers
    /// holding `x` still see a consistent subtree through `x`'s unchanged
    /// outgoing pointers. Returns the copy that replaced `x`.
    ///
    /// `toward == L` is a left rotation (right child rises).
    fn rotate(&self, x: *mut RbNode<K, V>, toward: usize) -> *mut RbNode<K, V> {
        let away = 1 - toward;
        // SAFETY (whole fn): under the write lock; all nodes live.
        unsafe {
            let y = Self::child(x, away);
            debug_assert!(!y.is_null(), "rotation pivot missing");
            let y_inner = Self::child(y, toward);
            // Copy of x, adopting y's inner subtree on the `away` side.
            let x_copy = RbNode::alloc(
                (*x).key.clone(),
                (*x).value.clone(),
                Self::color(x),
                if toward == L {
                    Self::child(x, L)
                } else {
                    y_inner
                },
                if toward == L {
                    y_inner
                } else {
                    Self::child(x, R)
                },
                y,
            );
            for d in [L, R] {
                let c = Self::child(x_copy, d);
                if !c.is_null() {
                    (*c).parent.store(x_copy, Ordering::Relaxed);
                }
            }
            // Publish the copy under y, then swing x's incoming edge to y.
            (*y).child[toward].store(x_copy, Ordering::Release);
            let p = Self::parent(x);
            self.replace_child(p, x, y);
            self.retire(x);
            x_copy
        }
    }

    fn retire(&self, n: *mut RbNode<K, V>) {
        // SAFETY: `n` was just unlinked by the (sole) writer.
        unsafe { self.graveyard.push(n) };
    }

    /// CLRS insert fixup with copy-on-rotate.
    fn insert_fixup(&self, mut z: *mut RbNode<K, V>) {
        loop {
            let p = Self::parent(z);
            if p.is_null() || Self::color(p) == BLACK {
                break;
            }
            let g = Self::parent(p);
            debug_assert!(!g.is_null(), "red node cannot be the root");
            let pdir = Self::dir_of(g, p);
            let udir = 1 - pdir;
            let u = Self::child(g, udir);
            if Self::color(u) == RED {
                Self::set_color(p, BLACK);
                Self::set_color(u, BLACK);
                Self::set_color(g, RED);
                z = g;
                continue;
            }
            let mut z_cur = z;
            if Self::dir_of(p, z_cur) == udir {
                // Inner case: rotate p toward pdir; p is copied.
                z_cur = self.rotate(p, pdir);
            }
            let p2 = Self::parent(z_cur);
            let g2 = Self::parent(p2);
            Self::set_color(p2, BLACK);
            Self::set_color(g2, RED);
            self.rotate(g2, udir);
            break;
        }
        let root = self.root.load(Ordering::Relaxed);
        Self::set_color(root, BLACK);
    }

    /// CLRS delete fixup (`x` carries an extra black; may be null) with
    /// copy-on-rotate. `p` is `x`'s parent.
    fn delete_fixup(&self, mut x: *mut RbNode<K, V>, mut p: *mut RbNode<K, V>) {
        while !p.is_null() && Self::color(x) == BLACK {
            let dir = if Self::child(p, L) == x { L } else { R };
            let other = 1 - dir;
            let mut w = Self::child(p, other);
            debug_assert!(!w.is_null(), "sibling must exist (black-height)");
            if Self::color(w) == RED {
                // Case 1: red sibling — rotate it above p.
                Self::set_color(w, BLACK);
                Self::set_color(p, RED);
                p = self.rotate(p, dir);
                w = Self::child(p, other);
            }
            if Self::color(Self::child(w, L)) == BLACK && Self::color(Self::child(w, R)) == BLACK {
                // Case 2: push the extra black up.
                Self::set_color(w, RED);
                x = p;
                p = Self::parent(x);
            } else {
                if Self::color(Self::child(w, other)) == BLACK {
                    // Case 3: inner red — rotate w away.
                    let inner = Self::child(w, dir);
                    Self::set_color(inner, BLACK);
                    Self::set_color(w, RED);
                    self.rotate(w, other);
                    w = Self::child(p, other);
                }
                // Case 4: outer red — final rotation.
                Self::set_color(w, Self::color(p));
                Self::set_color(p, BLACK);
                Self::set_color(Self::child(w, other), BLACK);
                self.rotate(p, dir);
                x = self.root.load(Ordering::Relaxed);
                p = ptr::null_mut();
            }
        }
        if !x.is_null() {
            Self::set_color(x, BLACK);
        }
    }

    /// Writer-side exact search.
    fn find(&self, key: &K) -> *mut RbNode<K, V> {
        let mut cur = self.root.load(Ordering::Relaxed);
        // SAFETY: under the write lock; nodes live.
        unsafe {
            while !cur.is_null() {
                match key.cmp(&(*cur).key) {
                    CmpOrdering::Equal => return cur,
                    CmpOrdering::Less => cur = Self::child(cur, L),
                    CmpOrdering::Greater => cur = Self::child(cur, R),
                }
            }
        }
        ptr::null_mut()
    }

    fn insert_locked(&self, key: K, value: V) -> bool {
        let mut parent = ptr::null_mut();
        let mut dir = L;
        let mut cur = self.root.load(Ordering::Relaxed);
        // SAFETY (whole fn): write lock held.
        unsafe {
            while !cur.is_null() {
                match key.cmp(&(*cur).key) {
                    CmpOrdering::Equal => return false,
                    CmpOrdering::Less => {
                        parent = cur;
                        dir = L;
                        cur = Self::child(cur, L);
                    }
                    CmpOrdering::Greater => {
                        parent = cur;
                        dir = R;
                        cur = Self::child(cur, R);
                    }
                }
            }
            let z = RbNode::alloc(key, value, RED, ptr::null_mut(), ptr::null_mut(), parent);
            if parent.is_null() {
                self.root.store(z, Ordering::Release);
            } else {
                (*parent).child[dir].store(z, Ordering::Release);
            }
            self.insert_fixup(z);
        }
        true
    }

    fn remove_locked(&self, key: &K, rcu: &impl RcuHandle) -> bool {
        let z = self.find(key);
        if z.is_null() {
            return false;
        }
        // SAFETY (whole fn): write lock held; nodes live.
        unsafe {
            let zl = Self::child(z, L);
            let zr = Self::child(z, R);
            if !zl.is_null() && !zr.is_null() {
                // Two children: find successor y (leftmost in right
                // subtree; has no left child).
                let mut y = zr;
                while !Self::child(y, L).is_null() {
                    y = Self::child(y, L);
                }
                let y_color = Self::color(y);

                // Install a copy of y at z's position (z's color, z's
                // children). Readers searching y's key now find it in
                // either the old or the new location (the WBST argument).
                let repl = RbNode::alloc(
                    (*y).key.clone(),
                    (*y).value.clone(),
                    Self::color(z),
                    zl,
                    zr,
                    ptr::null_mut(),
                );
                (*zl).parent.store(repl, Ordering::Relaxed);
                (*zr).parent.store(repl, Ordering::Relaxed);
                self.replace_child(Self::parent(z), z, repl);

                // Wait for every search that might be heading for y's old
                // location.
                rcu.synchronize();
                self.retire(z);

                // Unlink y from its old location (it has no left child).
                let py = if y == zr { repl } else { Self::parent(y) };
                let x = Self::child(y, R);
                let ydir = Self::dir_of(py, y);
                (*py).child[ydir].store(x, Ordering::Release);
                if !x.is_null() {
                    (*x).parent.store(py, Ordering::Relaxed);
                }
                self.retire(y);
                if y_color == BLACK {
                    self.delete_fixup(x, py);
                }
            } else {
                // At most one child: splice.
                let x = if zl.is_null() { zr } else { zl };
                let p = Self::parent(z);
                self.replace_child(p, z, x);
                self.retire(z);
                if Self::color(z) == BLACK {
                    self.delete_fixup(x, p);
                }
            }
        }
        true
    }
}

impl<K, V, F> ConcurrentMap<K, V> for RelativisticRbTree<K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    type Session<'a>
        = RbSession<'a, K, V, F>
    where
        Self: 'a;

    const NAME: &'static str = "rbtree-relativistic";

    fn session(&self) -> RbSession<'_, K, V, F> {
        RbSession {
            tree: self,
            rcu: self.rcu.register(),
        }
    }
}

/// Per-thread handle to a [`RelativisticRbTree`].
pub struct RbSession<'t, K, V, F: RcuFlavor> {
    tree: &'t RelativisticRbTree<K, V, F>,
    rcu: F::Handle<'t>,
}

impl<K, V, F: RcuFlavor> fmt::Debug for RbSession<'_, K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RbSession").finish_non_exhaustive()
    }
}

impl<K, V, F> MapSession<K, V> for RbSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn get(&mut self, key: &K) -> Option<V> {
        let _g = self.rcu.read_lock();
        let mut cur = self.tree.root.load(Ordering::Acquire);
        // SAFETY: read-side section; nodes are never freed while the tree
        // lives (graveyard), and every visited node was published.
        unsafe {
            while !cur.is_null() {
                match key.cmp(&(*cur).key) {
                    CmpOrdering::Equal => return Some((*cur).value.clone()),
                    CmpOrdering::Less => cur = (*cur).child[L].load(Ordering::Acquire),
                    CmpOrdering::Greater => cur = (*cur).child[R].load(Ordering::Acquire),
                }
            }
        }
        None
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        let _w = self.tree.write_lock.lock();
        // Readers run concurrently with whatever this writer does next.
        chaos::point!("baseline-rbtree/write/critical");
        self.tree.insert_locked(key, value)
    }

    fn remove(&mut self, key: &K) -> bool {
        let _w = self.tree.write_lock.lock();
        chaos::point!("baseline-rbtree/write/critical");
        self.tree.remove_locked(key, &self.rcu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus_api::testkit;

    type Tree = RelativisticRbTree<u64, u64>;

    /// Checks BST order, no red-red edge, and equal black heights;
    /// returns the black height.
    fn check_rb(t: *mut RbNode<u64, u64>, lo: Option<u64>, hi: Option<u64>) -> usize {
        if t.is_null() {
            return 1;
        }
        unsafe {
            let k = (*t).key;
            assert!(lo.is_none_or(|lo| k > lo), "BST order violated at {k}");
            assert!(hi.is_none_or(|hi| k < hi), "BST order violated at {k}");
            let c = (*t).color.load(Ordering::Relaxed);
            let l = (*t).child[L].load(Ordering::Relaxed);
            let r = (*t).child[R].load(Ordering::Relaxed);
            if c == RED {
                assert_eq!(Tree::color(l), BLACK, "red-red violation at {k}");
                assert_eq!(Tree::color(r), BLACK, "red-red violation at {k}");
            }
            // Parent pointers consistent (writer-side invariant).
            if !l.is_null() {
                assert_eq!((*l).parent.load(Ordering::Relaxed), t);
            }
            if !r.is_null() {
                assert_eq!((*r).parent.load(Ordering::Relaxed), t);
            }
            let bl = check_rb(l, lo, Some(k));
            let br = check_rb(r, Some(k), hi);
            assert_eq!(bl, br, "black height mismatch at {k}");
            bl + usize::from(c == BLACK)
        }
    }

    fn audit(tree: &Tree) {
        let root = tree.root.load(Ordering::Relaxed);
        assert_eq!(Tree::color(root), BLACK, "root must be black");
        check_rb(root, None, None);
    }

    #[test]
    fn insert_keeps_rb_invariants() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..512u64 {
            assert!(s.insert(k, k));
        }
        drop(s);
        audit(&tree);

        let tree = Tree::new();
        let mut s = tree.session();
        for k in (0..512u64).rev() {
            assert!(s.insert(k, k));
        }
        drop(s);
        audit(&tree);
    }

    #[test]
    fn delete_keeps_rb_invariants() {
        use citrus_api::testkit::SplitMix64;
        let tree = Tree::new();
        let mut s = tree.session();
        let mut rng = SplitMix64::new(42);
        let mut present = std::collections::BTreeSet::new();
        for _ in 0..4_000 {
            let k = rng.below(256);
            if rng.below(2) == 0 {
                assert_eq!(s.insert(k, k), present.insert(k));
            } else {
                assert_eq!(s.remove(&k), present.remove(&k));
            }
        }
        drop(s);
        audit(&tree);
    }

    #[test]
    fn two_child_delete_synchronizes() {
        let tree = Tree::new();
        let before = tree.rcu.grace_periods();
        let mut s = tree.session();
        for k in [10, 5, 20, 15, 25] {
            s.insert(k, k);
        }
        assert!(s.remove(&10)); // two children → successor move → sync
        drop(s);
        assert!(
            tree.rcu.grace_periods() > before,
            "two-child delete must wait a grace period"
        );
        audit(&tree);
    }

    #[test]
    fn sequential_model() {
        testkit::check_sequential_model(&Tree::new(), 6_000, 256, 0x4B17);
        testkit::check_duplicate_inserts(&Tree::new());
    }

    #[test]
    fn concurrent_battery() {
        testkit::check_lost_updates(&Tree::new(), 8, 300);
        testkit::check_partitioned_determinism(&Tree::new(), 8, 2_500, 64);
        testkit::check_mixed_quiescent_consistency(&Tree::new(), 8, 2_500, 128);
    }

    #[test]
    fn rotations_retire_copies() {
        let tree = Tree::new();
        let mut s = tree.session();
        for k in 0..100u64 {
            s.insert(k, k); // ascending → constant rotations
        }
        drop(s);
        assert!(
            tree.graveyard_len() > 0,
            "copy-on-rotate must retire originals"
        );
        audit(&tree);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Tree>();
    }
}
