//! Lazy lock-based optimistic skiplist (Herlihy, Lev, Luchangco, Shavit,
//! *A simple optimistic skiplist algorithm*, SIROCCO 2007) — the paper's
//! "Skiplist" baseline, whose C implementation the evaluation takes from
//! synchrobench.
//!
//! * `contains` is lock-free and wait-free in practice: one top-down
//!   traversal, then a check of the `fully_linked` and `marked` flags.
//! * `add` locks the predecessors at every level, validates, links bottom
//!   up, then sets `fully_linked` (the linearization point).
//! * `remove` is *lazy*: it first marks the victim (logical delete — the
//!   linearization point), then locks predecessors, validates, and unlinks.

use citrus_api::testkit::SplitMix64;
use citrus_api::{ConcurrentMap, MapSession};
use citrus_chaos as chaos;
use citrus_reclaim::Graveyard;
use citrus_sync::{Backoff, RawSpinLock};
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::ptr;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// Maximum tower height; supports ~2²⁴ keys at p = ½.
const MAX_LEVEL: usize = 24;

/// Session-local buffered retirements between graveyard flushes.
const FLUSH_EVERY: usize = 256;

/// Key extended with head/tail sentinels.
#[derive(Debug)]
enum Bound<K> {
    NegInf,
    Key(K),
    PosInf,
}

impl<K: Ord> Bound<K> {
    fn cmp_key(&self, key: &K) -> CmpOrdering {
        match self {
            Bound::NegInf => CmpOrdering::Less,
            Bound::Key(k) => k.cmp(key),
            Bound::PosInf => CmpOrdering::Greater,
        }
    }
}

struct SkipNode<K, V> {
    key: Bound<K>,
    value: Option<V>,
    /// Tower: `next[0..=top_level]`.
    next: Vec<AtomicPtr<SkipNode<K, V>>>,
    top_level: usize,
    /// Logical-deletion flag; set under `lock` (the remove linearization
    /// point).
    marked: AtomicBool,
    /// Set once the node is linked at every level; until then concurrent
    /// operations treat the key as "in flight".
    fully_linked: AtomicBool,
    lock: RawSpinLock,
}

impl<K, V> SkipNode<K, V> {
    fn alloc(key: Bound<K>, value: Option<V>, top_level: usize) -> *mut Self {
        let next = (0..=top_level)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect();
        Box::into_raw(Box::new(Self {
            key,
            value,
            next,
            top_level,
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            lock: RawSpinLock::new(),
        }))
    }
}

/// The lazy skiplist. See the module-level documentation.
///
/// # Example
///
/// ```
/// use citrus_baselines::LazySkipList;
/// use citrus_api::{ConcurrentMap, MapSession};
///
/// let list: LazySkipList<u64, u64> = LazySkipList::new();
/// let mut s = list.session();
/// assert!(s.insert(3, 33));
/// assert_eq!(s.get(&3), Some(33));
/// assert!(s.remove(&3));
/// ```
pub struct LazySkipList<K, V> {
    head: *mut SkipNode<K, V>,
    tail: *mut SkipNode<K, V>,
    graveyard: Graveyard<SkipNode<K, V>>,
    seed: AtomicU64,
}

// SAFETY: concurrent container; all shared mutation goes through atomics
// and per-node locks.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for LazySkipList<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for LazySkipList<K, V> {}

impl<K, V> LazySkipList<K, V> {
    /// Creates an empty skiplist.
    pub fn new() -> Self {
        let head = SkipNode::alloc(Bound::NegInf, None, MAX_LEVEL);
        let tail = SkipNode::alloc(Bound::PosInf, None, MAX_LEVEL);
        // SAFETY: freshly allocated, exclusively owned here.
        unsafe {
            for lv in 0..=MAX_LEVEL {
                (&(*head).next)[lv].store(tail, Ordering::Relaxed);
            }
            (*head).fully_linked.store(true, Ordering::Relaxed);
            (*tail).fully_linked.store(true, Ordering::Relaxed);
        }
        Self {
            head,
            tail,
            graveyard: Graveyard::new(),
            seed: AtomicU64::new(0x5EED_0001),
        }
    }

    /// Number of unreclaimed removed nodes (diagnostics).
    pub fn graveyard_len(&self) -> usize {
        self.graveyard.len()
    }
}

impl<K, V> Default for LazySkipList<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Drop for LazySkipList<K, V> {
    fn drop(&mut self) {
        // Walk the level-0 chain; removed nodes are unlinked from it and
        // live in the graveyard, so the sweeps are disjoint.
        let mut cur = self.head;
        while !cur.is_null() {
            // SAFETY: `&mut self` — exclusive; each node freed once.
            unsafe {
                let next = if cur == self.tail {
                    ptr::null_mut()
                } else {
                    (&(*cur).next)[0].load(Ordering::Relaxed)
                };
                drop(Box::from_raw(cur));
                cur = next;
            }
        }
    }
}

impl<K: fmt::Debug, V> fmt::Debug for LazySkipList<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LazySkipList")
            .field("graveyard", &self.graveyard.len())
            .finish_non_exhaustive()
    }
}

impl<K, V> ConcurrentMap<K, V> for LazySkipList<K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    type Session<'a>
        = SkipListSession<'a, K, V>
    where
        Self: 'a;

    const NAME: &'static str = "skiplist-lazy";

    fn session(&self) -> SkipListSession<'_, K, V> {
        let seed = self.seed.fetch_add(0x9E37_79B9, Ordering::Relaxed);
        SkipListSession {
            list: self,
            rng: SplitMix64::new(seed ^ 0xD1CE),
            retired: Vec::new(),
        }
    }
}

/// Per-thread handle to a [`LazySkipList`] (owns the tower-height RNG and
/// a retirement buffer).
pub struct SkipListSession<'l, K, V> {
    list: &'l LazySkipList<K, V>,
    rng: SplitMix64,
    retired: Vec<*mut SkipNode<K, V>>,
}

impl<K, V> SkipListSession<'_, K, V>
where
    K: Ord + Clone,
    V: Clone,
{
    /// Geometric tower height with p = ½.
    fn random_level(&mut self) -> usize {
        (self.rng.next_u64().trailing_ones() as usize).min(MAX_LEVEL)
    }

    /// The HLLS `find`: fills `preds`/`succs` and returns the highest level
    /// at which a node with `key` was found.
    fn find(
        &self,
        key: &K,
        preds: &mut [*mut SkipNode<K, V>; MAX_LEVEL + 1],
        succs: &mut [*mut SkipNode<K, V>; MAX_LEVEL + 1],
    ) -> Option<usize> {
        let mut found = None;
        let mut pred = self.list.head;
        // SAFETY (whole fn): nodes are never freed while the list lives
        // (graveyard reclamation), so traversing racy pointers is safe.
        unsafe {
            for lv in (0..=MAX_LEVEL).rev() {
                let mut curr = (&(*pred).next)[lv].load(Ordering::Acquire);
                while (*curr).key.cmp_key(key) == CmpOrdering::Less {
                    pred = curr;
                    curr = (&(*pred).next)[lv].load(Ordering::Acquire);
                }
                if found.is_none() && (*curr).key.cmp_key(key) == CmpOrdering::Equal {
                    found = Some(lv);
                }
                preds[lv] = pred;
                succs[lv] = curr;
            }
        }
        found
    }

    fn get_inner(&self, key: &K) -> Option<V> {
        let mut preds = [ptr::null_mut(); MAX_LEVEL + 1];
        let mut succs = [ptr::null_mut(); MAX_LEVEL + 1];
        let found = self.find(key, &mut preds, &mut succs)?;
        let node = succs[found];
        // SAFETY: nodes outlive the list; value immutable after insert.
        unsafe {
            if (*node).fully_linked.load(Ordering::Acquire)
                && !(*node).marked.load(Ordering::Acquire)
            {
                (*node).value.clone()
            } else {
                None
            }
        }
    }

    fn insert_inner(&mut self, key: K, value: V) -> bool {
        let top = self.random_level();
        let mut preds = [ptr::null_mut(); MAX_LEVEL + 1];
        let mut succs = [ptr::null_mut(); MAX_LEVEL + 1];
        let backoff = Backoff::new();
        loop {
            if let Some(found) = self.find(&key, &mut preds, &mut succs) {
                let node = succs[found];
                // SAFETY: nodes outlive the list.
                unsafe {
                    if !(*node).marked.load(Ordering::Acquire) {
                        // Wait until the in-flight insert completes, then
                        // report "already present".
                        while !(*node).fully_linked.load(Ordering::Acquire) {
                            backoff.snooze();
                        }
                        return false;
                    }
                }
                // Marked: a lazy remove is in progress; retry.
                backoff.snooze();
                continue;
            }

            // The find→lock window: any predecessor may be marked or
            // re-linked before we lock it, which validation re-checks.
            chaos::point!("baseline-skiplist/add/before-validate");
            // Lock distinct predecessors bottom-up and validate.
            let mut locked: Vec<*mut SkipNode<K, V>> = Vec::with_capacity(top + 1);
            let mut valid = true;
            // SAFETY: nodes outlive the list; locks guard link fields.
            unsafe {
                let mut prev_pred = ptr::null_mut();
                for lv in 0..=top {
                    let pred = preds[lv];
                    if pred != prev_pred {
                        (*pred).lock.lock();
                        locked.push(pred);
                        prev_pred = pred;
                    }
                    let succ = succs[lv];
                    if (*pred).marked.load(Ordering::Acquire)
                        || (*succ).marked.load(Ordering::Acquire)
                        || (&(*pred).next)[lv].load(Ordering::Acquire) != succ
                    {
                        valid = false;
                        break;
                    }
                }
                if !valid {
                    for p in locked.drain(..).rev() {
                        (*p).lock.unlock();
                    }
                    backoff.snooze();
                    continue;
                }

                let node = SkipNode::alloc(Bound::Key(key), Some(value), top);
                for (lv, &succ) in succs.iter().enumerate().take(top + 1) {
                    (&(*node).next)[lv].store(succ, Ordering::Relaxed);
                }
                for (lv, &pred) in preds.iter().enumerate().take(top + 1) {
                    (&(*pred).next)[lv].store(node, Ordering::Release);
                }
                // Linearization point.
                (*node).fully_linked.store(true, Ordering::Release);
                for p in locked.drain(..).rev() {
                    (*p).lock.unlock();
                }
            }
            return true;
        }
    }

    fn remove_inner(&mut self, key: &K) -> bool {
        let mut victim: *mut SkipNode<K, V> = ptr::null_mut();
        let mut is_marked = false;
        let mut top = 0usize;
        let mut preds = [ptr::null_mut(); MAX_LEVEL + 1];
        let mut succs = [ptr::null_mut(); MAX_LEVEL + 1];
        let backoff = Backoff::new();
        loop {
            let found = self.find(key, &mut preds, &mut succs);
            // SAFETY (whole loop): nodes outlive the list.
            unsafe {
                let deletable = match found {
                    Some(lv) => {
                        let cand = succs[lv];
                        (*cand).fully_linked.load(Ordering::Acquire)
                            && (*cand).top_level == lv
                            && !(*cand).marked.load(Ordering::Acquire)
                    }
                    None => false,
                };
                if !is_marked && !deletable {
                    return false;
                }
                if !is_marked {
                    let lv = found.expect("deletable implies found");
                    victim = succs[lv];
                    top = (*victim).top_level;
                    (*victim).lock.lock();
                    if (*victim).marked.load(Ordering::Acquire) {
                        // Lost the race to another remover.
                        (*victim).lock.unlock();
                        return false;
                    }
                    // Linearization point (logical removal).
                    (*victim).marked.store(true, Ordering::Release);
                    is_marked = true;
                }

                // The victim is marked but still linked — the window other
                // threads observe a logically deleted node.
                chaos::point!("baseline-skiplist/remove/before-validate");
                // Physical unlink: lock predecessors, validate, splice.
                let mut locked: Vec<*mut SkipNode<K, V>> = Vec::with_capacity(top + 1);
                let mut valid = true;
                let mut prev_pred = ptr::null_mut();
                for (lv, &pred) in preds.iter().enumerate().take(top + 1) {
                    if pred != prev_pred {
                        (*pred).lock.lock();
                        locked.push(pred);
                        prev_pred = pred;
                    }
                    if (*pred).marked.load(Ordering::Acquire)
                        || (&(*pred).next)[lv].load(Ordering::Acquire) != victim
                    {
                        valid = false;
                        break;
                    }
                }
                if !valid {
                    for p in locked.drain(..).rev() {
                        (*p).lock.unlock();
                    }
                    backoff.snooze();
                    continue;
                }
                for lv in (0..=top).rev() {
                    (&(*preds[lv]).next)[lv].store(
                        (&(*victim).next)[lv].load(Ordering::Acquire),
                        Ordering::Release,
                    );
                }
                (*victim).lock.unlock();
                for p in locked.drain(..).rev() {
                    (*p).lock.unlock();
                }
            }
            self.retire(victim);
            return true;
        }
    }

    fn retire(&mut self, node: *mut SkipNode<K, V>) {
        self.retired.push(node);
        if self.retired.len() >= FLUSH_EVERY {
            // SAFETY: nodes were unlinked by this thread.
            unsafe { self.list.graveyard.push_batch(&mut self.retired) };
        }
    }
}

impl<K, V> Drop for SkipListSession<'_, K, V> {
    fn drop(&mut self) {
        // SAFETY: buffered nodes were unlinked by this session.
        unsafe { self.list.graveyard.push_batch(&mut self.retired) };
    }
}

impl<K, V> fmt::Debug for SkipListSession<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SkipListSession")
            .field("retired_buffered", &self.retired.len())
            .finish_non_exhaustive()
    }
}

impl<K, V> MapSession<K, V> for SkipListSession<'_, K, V>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
{
    fn get(&mut self, key: &K) -> Option<V> {
        self.get_inner(key)
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        self.insert_inner(key, value)
    }

    fn remove(&mut self, key: &K) -> bool {
        self.remove_inner(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use citrus_api::testkit;

    type List = LazySkipList<u64, u64>;

    #[test]
    fn empty_list() {
        let l = List::new();
        let mut s = l.session();
        assert_eq!(s.get(&1), None);
        assert!(!s.remove(&1));
    }

    #[test]
    fn towers_link_across_levels() {
        let l = List::new();
        let mut s = l.session();
        for k in 0..200u64 {
            assert!(s.insert(k, k));
        }
        for k in 0..200u64 {
            assert_eq!(s.get(&k), Some(k));
        }
        for k in (0..200u64).step_by(2) {
            assert!(s.remove(&k));
        }
        for k in 0..200u64 {
            assert_eq!(s.get(&k), (k % 2 == 1).then_some(k));
        }
    }

    #[test]
    fn sequential_model() {
        testkit::check_sequential_model(&List::new(), 6_000, 256, 0x51C1);
        testkit::check_duplicate_inserts(&List::new());
    }

    #[test]
    fn concurrent_battery() {
        testkit::check_lost_updates(&List::new(), 8, 300);
        testkit::check_partitioned_determinism(&List::new(), 8, 3_000, 64);
        testkit::check_mixed_quiescent_consistency(&List::new(), 8, 3_000, 128);
    }

    #[test]
    fn graveyard_collects_removed_nodes() {
        let l = List::new();
        {
            let mut s = l.session();
            for k in 0..600u64 {
                s.insert(k, k);
            }
            for k in 0..600u64 {
                s.remove(&k);
            }
        }
        assert_eq!(l.graveyard_len(), 600);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<List>();
    }
}
