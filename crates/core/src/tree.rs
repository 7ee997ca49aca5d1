//! The Citrus tree algorithm (paper §3), line for line.
//!
//! * `get` — wait-free search inside an RCU read-side critical section
//!   (lines 1–15 → [`CitrusSession::search`]).
//! * `contains` — `get` plus a value read (lines 16–20 →
//!   [`CitrusSession::get`]).
//! * `insert` — search, then `try_lock` `prev` and validate it **inside**
//!   the same read-side section; link a new leaf after leaving it (lines
//!   21–32 → [`CitrusSession::insert`]).
//! * `delete` — search, `try_lock` and validate `prev` inside the
//!   section, then lock `curr`, its anchored child, outside it; a node
//!   with at most one child is *bypassed*; a node with two children is
//!   replaced by a **copy of its successor** (whose parent is again
//!   `try_lock`ed and validated inside a section), then the operation
//!   waits for concurrent searches with `synchronize_rcu` before
//!   unlinking the old successor (lines 42–84 → [`CitrusSession::remove`]).
//! * Update protocol (DESIGN.md §7): outside a read-side section a
//!   session touches only nodes it has locked and validated, or a child
//!   of such a node — unlinking that child needs the lock it holds. A
//!   busy `try_lock` leaves the section, backs off and re-searches, so no
//!   thread waits for a node lock inside a section that a lock-holding
//!   `synchronize_rcu` waits for. Removed nodes therefore need no
//!   protection beyond RCU: in [`ReclaimMode::Epoch`] a session frees
//!   them after its own next `synchronize_rcu`.
//! * `validate` / `incrementTag` — lines 33–41 → [`validate`] /
//!   [`Node::increment_tag`].
//! * `range_scan` / `successor` / `predecessor` — ordered reads layered on
//!   the same read-side protocol (DESIGN.md §6i): collect an in-order
//!   traversal recording every crossed edge, re-check all of them after
//!   the walk, and restart from scratch when a concurrent update moved
//!   one.

use crate::metrics::TreeMetrics;
use crate::node::{Dir, KeyBound, Node};
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_chaos::{self as chaos, Mutants};
use citrus_obs::MetricsRegistry;
use citrus_rcu::{RcuFlavor, RcuHandle, RcuReadGuard, ScalableRcu};
use citrus_reclaim::Graveyard;
use citrus_sync::Backoff;
use core::cell::Cell;
use core::cmp::Ordering as CmpOrdering;
use core::fmt;
use core::marker::PhantomData;
use core::ptr;
use core::sync::atomic::{AtomicU64, Ordering};

/// How removed nodes are reclaimed.
///
/// Both modes share one update protocol and one per-session retire list;
/// they differ only in where a full list goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReclaimMode {
    /// Removed nodes are queued and freed only when the tree is dropped.
    ///
    /// This is the paper's measurement methodology ("without performing any
    /// memory reclamation") — zero reclamation work on the operation path,
    /// unbounded transient memory.
    Leak,
    /// Removed nodes are freed by the session that removed them, after
    /// its own next `synchronize_rcu` on the tree's RCU domain: a
    /// two-child delete's grace period, or one the session waits for when
    /// its retire list reaches 256 nodes or the session drops (the
    /// paper's future-work item). The default.
    #[default]
    Epoch,
}

enum ReclaimInner<K, V> {
    Leak(Graveyard<Node<K, V>>),
    /// Removed nodes freed so far.
    Epoch(AtomicU64),
}

/// Chaos builds keep this many freed nodes allocated (see
/// [`Node::check_live`]) before really freeing the oldest.
#[cfg(feature = "chaos")]
const QUARANTINE: usize = 1024;

/// The Citrus tree: an internal binary search tree with fine-grained
/// locking among updaters and wait-free, RCU-protected `contains`.
///
/// Generic over the RCU implementation `F` — the paper's own scalable
/// flavor ([`ScalableRcu`], the default) or the classic global-lock flavor
/// ([`GlobalLockRcu`](citrus_rcu::GlobalLockRcu)) whose collapse Figure 8
/// demonstrates.
///
/// Threads operate through per-thread [`CitrusSession`]s.
///
/// # Example
///
/// ```
/// use citrus::CitrusTree;
///
/// let tree: CitrusTree<u64, &str> = CitrusTree::new();
/// let mut session = tree.session();
/// assert!(session.insert(1, "one"));
/// assert_eq!(session.get(&1), Some("one"));
/// assert!(session.remove(&1));
/// assert_eq!(session.get(&1), None);
/// ```
pub struct CitrusTree<K, V, F: RcuFlavor = ScalableRcu> {
    /// The `−1` sentinel; its right child is the `∞` sentinel and all real
    /// nodes live in the `∞` node's left subtree. Never changes.
    root: *mut Node<K, V>,
    rcu: F,
    reclaim: ReclaimInner<K, V>,
    metrics: TreeMetrics,
    /// Planted bugs enabled on this tree (chaos builds only); a forest
    /// shares one set across its shards.
    pub(crate) mutants: Mutants,
    /// Chaos builds: freed nodes kept allocated, oldest first.
    #[cfg(feature = "chaos")]
    quarantine: citrus_sync::SpinMutex<std::collections::VecDeque<*mut Node<K, V>>>,
    _marker: PhantomData<Node<K, V>>,
}

// SAFETY: the tree is a concurrent container; all cross-thread access to
// node internals is mediated by atomics, per-node locks, RCU, and the
// reclamation protocol. Keys and values cross threads, hence the bounds.
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Send for CitrusTree<K, V, F> {}
unsafe impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Sync for CitrusTree<K, V, F> {}

impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> CitrusTree<K, V, F> {
    /// Creates an empty tree with the default [`ReclaimMode::Epoch`].
    pub fn new() -> Self {
        Self::with_reclaim(ReclaimMode::default())
    }

    /// Creates an empty tree with the given reclamation mode.
    pub fn with_reclaim(mode: ReclaimMode) -> Self {
        Self::with_options(F::new(), mode, false)
    }

    /// Creates an empty tree on the given RCU domain and reclamation
    /// mode. Two-child deletes always pay the paper's inline
    /// `synchronize_rcu`.
    ///
    /// `deferred` must be `false`. It selected a batched deferred-unlink
    /// mode, which was removed because it broke linearizability (DESIGN.md
    /// §6g); the parameter stays only so that callers written against the
    /// old signature, the repository benchmark among them, still compile.
    ///
    /// # Panics
    ///
    /// Panics if `deferred` is `true`.
    pub fn with_options(rcu: F, mode: ReclaimMode, deferred: bool) -> Self {
        assert!(!deferred, "{DEFERRED_REMOVED}");
        let inf = Node::new_leaf(KeyBound::PosInf, None);
        let root = Node::new_leaf(KeyBound::NegInf, None);
        // SAFETY: freshly allocated, exclusively owned until `Self` exists.
        unsafe { (*root).set_child(Dir::Right, inf) };
        Self {
            root,
            rcu,
            reclaim: match mode {
                ReclaimMode::Leak => ReclaimInner::Leak(Graveyard::new()),
                ReclaimMode::Epoch => ReclaimInner::Epoch(AtomicU64::new(0)),
            },
            metrics: TreeMetrics::new(),
            mutants: Mutants::new(),
            #[cfg(feature = "chaos")]
            quarantine: Default::default(),
            _marker: PhantomData,
        }
    }
}

/// Panic message of the constructors that still take a `deferred` flag.
pub(crate) const DEFERRED_REMOVED: &str =
    "the deferred-unlink mode was removed (DESIGN.md §6g): pass `deferred = false`";

impl<K, V, F: RcuFlavor> CitrusTree<K, V, F> {
    /// This tree's metric instruments (no-ops unless built with the
    /// `stats` feature).
    pub fn metrics(&self) -> &TreeMetrics {
        &self.metrics
    }

    /// Registers the whole stack's instruments into `registry`:
    ///
    /// * the tree's own counters under component `"citrus"`,
    /// * the RCU domain's under the flavor name (e.g. `"rcu-scalable"`).
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.register_metrics_prefixed(registry, "");
    }

    /// Like [`register_metrics`](Self::register_metrics) but with every
    /// component name prefixed — lets a harness keep several trees (e.g.
    /// one per benchmark point) apart in one registry.
    pub fn register_metrics_prefixed(&self, registry: &MetricsRegistry, prefix: &str) {
        self.metrics
            .register_into(registry, &format!("{prefix}citrus"));
        self.rcu
            .metrics()
            .register_into(registry, &format!("{prefix}{}", F::NAME));
    }

    /// The tree's reclamation mode.
    pub fn reclaim_mode(&self) -> ReclaimMode {
        match &self.reclaim {
            ReclaimInner::Leak(_) => ReclaimMode::Leak,
            ReclaimInner::Epoch(_) => ReclaimMode::Epoch,
        }
    }

    /// The RCU domain (diagnostics: grace-period counts for benchmarks).
    pub fn rcu(&self) -> &F {
        &self.rcu
    }

    /// Number of removed nodes already freed by the reclamation scheme:
    /// `Some(count)` in [`ReclaimMode::Epoch`], `None` in
    /// [`ReclaimMode::Leak`] (nothing is freed before drop).
    pub fn reclaimed_count(&self) -> Option<u64> {
        match &self.reclaim {
            ReclaimInner::Epoch(freed) => Some(freed.load(Ordering::Relaxed)),
            ReclaimInner::Leak(_) => None,
        }
    }

    /// The planted bugs enabled on this tree. Chaos builds only: a test
    /// enables a mutant here to prove a sweep catches it, and no other
    /// tree sees it.
    pub fn mutants(&self) -> &Mutants {
        &self.mutants
    }

    /// Creates a session for the calling thread.
    ///
    /// Sessions are cheap (one RCU reader slot and an empty retire list)
    /// but not free — create one per thread, not per operation.
    pub fn session(&self) -> CitrusSession<'_, K, V, F> {
        CitrusSession {
            tree: self,
            rcu: self.rcu.register(),
            retired: Vec::new(),
            stats: SessionStats::default(),
            stripe: self.metrics.assign_stripe(),
        }
    }

    /// Frees one removed node whose grace period has ended.
    ///
    /// Chaos builds mark the node and park it in the quarantine instead,
    /// really freeing only the oldest quarantined node beyond the
    /// `QUARANTINE` bound, so that a premature free shows up as a
    /// [`Node::check_live`] panic.
    ///
    /// # Safety
    ///
    /// `node` must be unlinked, Box-allocated, owned by the caller, and no
    /// read-side section that began before it was unlinked may still run.
    unsafe fn free_node(&self, node: *mut Node<K, V>) {
        #[cfg(feature = "chaos")]
        let node = {
            // SAFETY: allocated until this function frees it.
            unsafe { (*node).reclaimed.store(true, Ordering::Release) };
            let mut quarantine = self.quarantine.lock();
            quarantine.push_back(node);
            if quarantine.len() <= QUARANTINE {
                return;
            }
            quarantine
                .pop_front()
                .expect("quarantine is over its bound")
        };
        // SAFETY: per contract.
        unsafe { drop(Box::from_raw(node)) };
    }

    /// Root pointer, for the invariant checkers in [`crate::checks`].
    pub(crate) fn root_ptr(&self) -> *mut Node<K, V> {
        self.root
    }
}

impl<K: Send + Sync, V: Send + Sync, F: RcuFlavor> Default for CitrusTree<K, V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, F: RcuFlavor> Drop for CitrusTree<K, V, F> {
    fn drop(&mut self) {
        // `&mut self`: no sessions exist (they borrow the tree), so every
        // reachable node is exclusively ours, and none of them was retired
        // (delete unlinks before retiring).
        let mut stack = vec![self.root];
        while let Some(p) = stack.pop() {
            if p.is_null() {
                continue;
            }
            // SAFETY: reachable nodes form a tree (Lemma 6: single parent),
            // so each is visited exactly once.
            unsafe {
                stack.push((*p).child(Dir::Left));
                stack.push((*p).child(Dir::Right));
                drop(Box::from_raw(p));
            }
        }
        // `Leak`-mode nodes are freed by the `Graveyard`'s own Drop when
        // `self.reclaim` goes away; `Epoch`-mode sessions freed theirs
        // before they dropped.
        #[cfg(feature = "chaos")]
        for node in self.quarantine.get_mut().drain(..) {
            // SAFETY: quarantined nodes were freed logically and are owned
            // by the quarantine alone.
            unsafe { drop(Box::from_raw(node)) };
        }
    }
}

impl<K: fmt::Debug, V, F: RcuFlavor> fmt::Debug for CitrusTree<K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CitrusTree")
            .field("rcu", &F::NAME)
            .field("reclaim", &self.reclaim_mode())
            .finish_non_exhaustive()
    }
}

impl<K, V, F> ConcurrentMap<K, V> for CitrusTree<K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    type Session<'a>
        = CitrusSession<'a, K, V, F>
    where
        Self: 'a;

    const NAME: &'static str = "citrus";

    fn session(&self) -> CitrusSession<'_, K, V, F> {
        CitrusTree::session(self)
    }
}

/// Per-session operation statistics (diagnostics for tests and ablations).
#[derive(Debug, Default)]
pub struct SessionStats {
    insert_retries: Cell<u64>,
    remove_retries: Cell<u64>,
    synchronize_calls: Cell<u64>,
    scan_restarts: Cell<u64>,
}

impl SessionStats {
    /// Times an `insert` failed validation, or found `prev` locked, and
    /// restarted.
    pub fn insert_retries(&self) -> u64 {
        self.insert_retries.get()
    }

    /// Times a `remove` failed validation, or found a lock it takes
    /// inside a read-side section busy, and restarted.
    pub fn remove_retries(&self) -> u64 {
        self.remove_retries.get()
    }

    /// `synchronize_rcu` invocations (one per successful two-child
    /// delete).
    pub fn synchronize_calls(&self) -> u64 {
        self.synchronize_calls.get()
    }

    /// Ordered reads (`range_scan` / `successor` / `predecessor`) whose
    /// traversal failed validation and restarted.
    pub fn scan_restarts(&self) -> u64 {
        self.scan_restarts.get()
    }
}

/// A per-thread handle to a [`CitrusTree`].
///
/// Holds the thread's RCU reader slot and the nodes it removed but has
/// not yet handed on. Not `Send`.
pub struct CitrusSession<'t, K, V, F: RcuFlavor> {
    tree: &'t CitrusTree<K, V, F>,
    rcu: F::Handle<'t>,
    /// Nodes this session unlinked, in unlink order. `Epoch` mode frees
    /// them after the session's next `synchronize_rcu`; `Leak` mode moves
    /// them to the tree's graveyard in batches (and on drop).
    retired: Vec<*mut Node<K, V>>,
    stats: SessionStats,
    /// This session's tree-metric counter stripe.
    stripe: usize,
}

/// Retire-list length at which a session hands its list on: to the
/// graveyard in `Leak` mode, through a grace period of its own in `Epoch`
/// mode.
const RETIRE_FLUSH: usize = 256;

/// RAII set of node locks held by one update operation.
///
/// The delete path holds up to five locks (`prev`, `curr`, `prev_succ`,
/// `succ`, and the replacement copy) and releases them together. A panic
/// while any is held — e.g. from a user `Clone` impl called under the
/// locks — would otherwise leave those nodes locked forever, wedging every
/// later updater that reaches them. The set unlocks `nodes[..len]` in
/// reverse acquisition order on drop, on normal exit and during unwinding
/// alike.
struct LockSet<K, V> {
    nodes: [*mut Node<K, V>; 5],
    len: usize,
}

impl<K, V> LockSet<K, V> {
    fn new() -> Self {
        Self {
            nodes: [ptr::null_mut(); 5],
            len: 0,
        }
    }

    /// Locks `node` if it is free, taking responsibility for unlocking
    /// it. Never waits: this is how locks are taken inside a read-side
    /// section.
    ///
    /// # Safety
    ///
    /// As for [`acquire`](Self::acquire).
    unsafe fn try_acquire(&mut self, node: *mut Node<K, V>) -> bool {
        // SAFETY: valid per contract.
        let locked = unsafe { (*node).lock.try_lock() };
        if locked {
            self.adopt(node);
        }
        locked
    }

    /// Locks `node` and takes responsibility for unlocking it.
    ///
    /// # Safety
    ///
    /// `node` must be valid, stay allocated while this set lives, and not
    /// already be locked by this thread (the spin lock does not nest).
    unsafe fn acquire(&mut self, node: *mut Node<K, V>) {
        // SAFETY: valid per contract.
        unsafe { (*node).lock.lock() };
        self.adopt(node);
    }

    /// Takes responsibility for a node this thread has *already* locked
    /// (delete locks the replacement copy before publishing it).
    fn adopt(&mut self, node: *mut Node<K, V>) {
        debug_assert!(self.len < self.nodes.len());
        self.nodes[self.len] = node;
        self.len += 1;
    }

    /// Unlocks every held node in reverse acquisition order. A set that
    /// holds a node validated only inside a read-side section must be
    /// released before the section ends, while the node is still covered.
    fn release(&mut self) {
        while self.len > 0 {
            self.len -= 1;
            // SAFETY: locked by this thread via `acquire`/`adopt` and not
            // yet unlocked; a locked node stays allocated until it is
            // unlocked (update protocol, module docs).
            unsafe { (*self.nodes[self.len]).lock.unlock() };
        }
    }
}

impl<K, V> Drop for LockSet<K, V> {
    fn drop(&mut self) {
        self.release();
    }
}

/// One traversed edge, recorded during an ordered read for post-traversal
/// validation (DESIGN.md §6i).
enum ScanEdge<K, V> {
    /// `parent.child(dir)` observed non-null.
    Live {
        parent: *mut Node<K, V>,
        dir: Dir,
        child: *mut Node<K, V>,
    },
    /// `parent.child(dir)` observed null, with the edge's tag at read
    /// time — null edges are the real ABA risk (null → leaf → null under
    /// a racing insert + delete), and the paper's tag bumps every time
    /// the edge is re-nulled.
    Null {
        parent: *mut Node<K, V>,
        dir: Dir,
        tag: u64,
    },
}

/// A collected, not-yet-validated ordered-read traversal: every edge the
/// walk crossed plus the nodes whose keys answered the query (in visit
/// order).
///
/// Collection and validation are deliberately split: all edge *reads*
/// happen before all edge *re-checks*, so when [`validate`](Self::validate)
/// succeeds every per-edge constancy interval contains the instant the
/// collection ended — the entire traversed region existed simultaneously
/// at that instant, which is the read's linearization point. `pub(crate)`
/// so [`ForestSession`](crate::ForestSession) can collect one attempt per
/// shard and validate the whole fan-out together.
pub(crate) struct ScanAttempt<K, V> {
    edges: Vec<ScanEdge<K, V>>,
    hits: Vec<*mut Node<K, V>>,
}

impl<K, V> ScanAttempt<K, V> {
    fn new() -> Self {
        Self {
            edges: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Loads and records `parent`'s `dir` edge, returning the child.
    ///
    /// # Safety
    ///
    /// `parent` must be a valid node.
    unsafe fn record_edge(&mut self, parent: *mut Node<K, V>, dir: Dir) -> *mut Node<K, V> {
        // SAFETY: valid per contract.
        let child = unsafe { (*parent).child(dir) };
        if child.is_null() {
            // SAFETY: valid per contract.
            let tag = unsafe { (*parent).tag(dir) };
            self.edges.push(ScanEdge::Null { parent, dir, tag });
        } else {
            self.edges.push(ScanEdge::Live { parent, dir, child });
        }
        child
    }

    /// Re-checks every recorded edge; `true` means none moved since it was
    /// read.
    ///
    /// For a non-null edge, pointer equality plus an unmarked child
    /// suffices: a bypassed or spliced-out node is marked before it is
    /// unlinked and is never re-linked, and its address cannot be reused
    /// while the read-side section the attempt was collected under is
    /// held, because a removed node is freed only after a grace period
    /// that waits for that section — so an unchanged, unmarked child
    /// pointer means the edge held for the whole interval. Null edges use
    /// the tag (see [`ScanEdge::Null`]).
    ///
    /// # Safety
    ///
    /// Every recorded node must still be allocated: the read-side section
    /// the attempt was collected under must still be held.
    pub(crate) unsafe fn validate(&self) -> bool {
        self.edges.iter().all(|edge| match *edge {
            ScanEdge::Live { parent, dir, child } => {
                // SAFETY: allocated per contract.
                unsafe { (*parent).child(dir) == child && !(*child).is_marked() }
            }
            ScanEdge::Null { parent, dir, tag } => {
                // SAFETY: allocated per contract.
                unsafe { (*parent).child(dir).is_null() && (*parent).tag(dir) == tag }
            }
        })
    }

    /// Whether the attempt recorded any candidate hit. Safe: only the hit
    /// list's emptiness is inspected, no node is dereferenced — the forest's
    /// widening directed probe uses this to decide whether to stop before
    /// the attempt has been validated.
    pub(crate) fn has_candidate(&self) -> bool {
        !self.hits.is_empty()
    }
}

impl<K: Ord + Clone, V: Clone> ScanAttempt<K, V> {
    /// Clones the matched entries in key order, collapsing the adjacent
    /// duplicate the two-child delete's replacement window can expose:
    /// between splice and unlink, the replacement copy and the old
    /// successor both carry the successor's key *and value*, and sit next
    /// to each other in visit order.
    ///
    /// # Safety
    ///
    /// As for [`validate`](Self::validate).
    pub(crate) unsafe fn entries(&self) -> Vec<(K, V)> {
        let mut out: Vec<(K, V)> = Vec::with_capacity(self.hits.len());
        for &hit in &self.hits {
            // SAFETY: allocated per contract; hits are real (non-sentinel)
            // nodes, whose key and value never change after construction.
            let node = unsafe { &*hit };
            let key = node.key.as_key().expect("hits carry real keys");
            if out.last().is_some_and(|(k, _)| k == key) {
                continue;
            }
            out.push((
                key.clone(),
                node.value.clone().expect("real nodes carry values"),
            ));
        }
        out
    }

    /// Clones the single candidate entry (successor / predecessor probes
    /// record at most one hit).
    ///
    /// # Safety
    ///
    /// As for [`validate`](Self::validate).
    pub(crate) unsafe fn candidate(&self) -> Option<(K, V)> {
        self.hits.last().map(|&hit| {
            // SAFETY: as in `entries`.
            let node = unsafe { &*hit };
            (
                node.key
                    .as_key()
                    .expect("candidates carry real keys")
                    .clone(),
                node.value.clone().expect("real nodes carry values"),
            )
        })
    }
}

/// The paper's `validate` (lines 33–38): all checks are on locked nodes'
/// local fields.
///
/// # Safety
///
/// `prev` must be a valid, locked node; `curr` must be null or a valid
/// node.
unsafe fn validate<K, V>(prev: *mut Node<K, V>, tag: u64, curr: *mut Node<K, V>, dir: Dir) -> bool {
    // SAFETY: `prev` valid per contract.
    let prev_ref = unsafe { &*prev };
    if prev_ref.is_marked() || prev_ref.child(dir) != curr {
        return false;
    }
    if !curr.is_null() {
        // SAFETY: `curr` valid per contract.
        return !unsafe { &*curr }.is_marked();
    }
    prev_ref.tag(dir) == tag
}

impl<'t, K, V, F> CitrusSession<'t, K, V, F>
where
    K: Ord + Clone,
    V: Clone,
    F: RcuFlavor,
{
    /// The paper's `get` (lines 1–15): wait-free search from the root,
    /// inside a read-side critical section, returning
    /// `(prev, tag, curr, direction)`.
    ///
    /// Must be called inside an RCU read-side critical section.
    fn search(&self, key: &K) -> (*mut Node<K, V>, u64, *mut Node<K, V>, Dir) {
        debug_assert!(self.rcu.in_read_section());
        let mut prev = self.tree.root;
        // SAFETY: the root is never null (line 4's comment) and never
        // freed before the tree; nodes reached during the read-side
        // section stay allocated (RCU + reclamation protocol).
        unsafe {
            let mut dir = Dir::Right;
            let mut curr = (*prev).child(dir); // root's right child: the ∞ sentinel
            loop {
                chaos::point!("citrus/search/step");
                if curr.is_null() {
                    break;
                }
                (*curr).check_live();
                let cmp = (*curr).key.cmp_key(key);
                if cmp == CmpOrdering::Equal {
                    break;
                }
                prev = curr;
                dir = Dir::from_cmp(cmp);
                curr = (*prev).child(dir);
            }
            // Line 13: save the tag inside the read-side critical section.
            let tag = (*prev).tag(dir);
            (prev, tag, curr, dir)
        }
    }

    /// The paper's `contains` (lines 16–20): returns the value stored with
    /// `key`, if present. Wait-free.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let _guard = self.rcu.read_lock();
        let (_prev, _tag, curr, _dir) = self.search(key);
        // Widens the window between locating the node and reading its
        // value, still inside the read-side section — the interval where
        // a stale read would manifest if the RCU protocol were broken
        // (exercised by the lincheck chaos sweeps).
        chaos::point!("citrus/get/after-search");
        if curr.is_null() {
            return None;
        }
        // SAFETY: `curr` was reachable during the read-side section
        // (Lemma 2) and its value never changes; it cannot be freed while
        // we are inside the section (Leak mode never frees; Epoch mode
        // frees only after a grace period).
        unsafe {
            (*curr).check_live();
            (*curr).value.clone()
        }
    }

    /// Returns `true` iff `key` is present. Wait-free, and — unlike
    /// [`get`](Self::get) — never touches the value: a presence check must
    /// not pay for a `V::clone` it immediately drops.
    pub fn contains(&mut self, key: &K) -> bool {
        let _guard = self.rcu.read_lock();
        let (_prev, _tag, curr, _dir) = self.search(key);
        // Same window as `get`: the lincheck chaos sweeps drive both
        // operations through this point.
        chaos::point!("citrus/get/after-search");
        !curr.is_null()
    }

    /// Enters this session's read-side section, which ordered reads
    /// traverse under; the forest holds one per shard across a fan-out
    /// scan.
    pub(crate) fn read_lock(&self) -> RcuReadGuard<'_, F::Handle<'t>> {
        self.rcu.read_lock()
    }

    /// Walks the tree in order over `[lo, hi]`, recording every traversed
    /// edge and every in-range node. Collection only — the caller
    /// validates afterwards, possibly together with other shards'
    /// attempts.
    ///
    /// Must be called inside this session's read-side section
    /// ([`read_lock`](Self::read_lock)).
    pub(crate) fn collect_range(&self, lo: &K, hi: &K) -> ScanAttempt<K, V> {
        debug_assert!(self.rcu.in_read_section());
        let mut attempt = ScanAttempt::new();
        if lo > hi {
            return attempt;
        }
        /// In-order walk frames: descend left first, then emit and go
        /// right.
        enum Frame<K, V> {
            Enter(*mut Node<K, V>),
            Visit(*mut Node<K, V>),
        }
        let mut stack = vec![Frame::Enter(self.tree.root)];
        while let Some(frame) = stack.pop() {
            // SAFETY: every pushed pointer was read from a live edge
            // inside the read-side section, so it stays allocated (Leak
            // never frees; Epoch frees only after a grace period).
            unsafe {
                match frame {
                    Frame::Enter(n) => {
                        chaos::point!("citrus/scan/step");
                        (*n).check_live();
                        stack.push(Frame::Visit(n));
                        // Keys below `n` can only matter when n.key > lo
                        // (sentinels prune themselves: −∞ is never
                        // greater, so the root's left edge is skipped).
                        if (*n).key.cmp_key(lo) == CmpOrdering::Greater {
                            let left = attempt.record_edge(n, Dir::Left);
                            if !left.is_null() {
                                stack.push(Frame::Enter(left));
                            }
                        }
                    }
                    Frame::Visit(n) => {
                        let key = &(*n).key;
                        // Sentinels compare outside every [lo, hi].
                        if key.cmp_key(lo) != CmpOrdering::Less
                            && key.cmp_key(hi) != CmpOrdering::Greater
                        {
                            attempt.hits.push(n);
                        }
                        // Keys above `n` can only matter when n.key < hi.
                        if key.cmp_key(hi) == CmpOrdering::Less {
                            let right = attempt.record_edge(n, Dir::Right);
                            if !right.is_null() {
                                stack.push(Frame::Enter(right));
                            }
                        }
                    }
                }
            }
        }
        attempt
    }

    /// Walks the successor (`side == Dir::Right`) or predecessor
    /// (`side == Dir::Left`) search path for `key`, recording every
    /// traversed edge; the attempt's hit list ends holding the candidate —
    /// the nearest real key strictly beyond the probe — if one exists.
    ///
    /// Must be called inside this session's read-side section, like
    /// [`collect_range`](Self::collect_range).
    pub(crate) fn collect_directed(&self, key: &K, side: Dir) -> ScanAttempt<K, V> {
        debug_assert!(self.rcu.in_read_section());
        let mut attempt = ScanAttempt::new();
        let mut n = self.tree.root;
        // SAFETY: as in `collect_range` — every pointer comes from a live
        // edge read inside the read-side section.
        unsafe {
            loop {
                chaos::point!("citrus/scan/step");
                (*n).check_live();
                let cmp = (*n).key.cmp_key(key);
                // Successor: any node with key > probe is a candidate, and
                // the search continues left toward smaller ones; otherwise
                // right. Predecessor is the mirror image. Sentinels
                // steer the walk but never become candidates.
                let toward_probe = if side == Dir::Right {
                    cmp == CmpOrdering::Greater
                } else {
                    cmp == CmpOrdering::Less
                };
                let dir = if toward_probe {
                    if (*n).key.as_key().is_some() {
                        attempt.hits.clear();
                        attempt.hits.push(n);
                    }
                    if side == Dir::Right {
                        Dir::Left
                    } else {
                        Dir::Right
                    }
                } else {
                    side
                };
                let child = attempt.record_edge(n, dir);
                if child.is_null() {
                    break;
                }
                n = child;
            }
        }
        attempt
    }

    /// Runs one ordered read to a validated completion: collect inside
    /// the read-side section, validate every crossed edge, extract —
    /// restarting from scratch whenever a concurrent update moved one.
    /// Restarts are bounded by interference: each one implies a
    /// concurrent update completed inside the attempt's window (DESIGN.md
    /// §6i), the same progress argument as the updaters' retry loops.
    fn ordered_read<T>(
        &self,
        collect: impl Fn(&Self) -> ScanAttempt<K, V>,
        extract: impl Fn(&ScanAttempt<K, V>) -> T,
    ) -> T {
        loop {
            let out = {
                let _guard = self.read_lock();
                let attempt = collect(self);
                chaos::point!("citrus/scan/validate");
                // The mutant is a test-only planted bug (chaos builds
                // only): skipping validation can tear the read across a
                // concurrent update — the exploration suite must find the
                // resulting non-linearizable result.
                // SAFETY: `_guard` still holds the read-side section
                // `collect` ran under.
                if self.tree.mutants.enabled("citrus/scan/skip-validation")
                    || unsafe { attempt.validate() }
                {
                    Some(extract(&attempt))
                } else {
                    None
                }
            };
            match out {
                Some(value) => {
                    self.tree.metrics.record_scan_op(self.stripe);
                    return value;
                }
                None => {
                    self.stats
                        .scan_restarts
                        .set(self.stats.scan_restarts.get() + 1);
                    self.tree.metrics.record_scan_restart(self.stripe);
                    chaos::point!("citrus/scan/restart");
                }
            }
        }
    }

    /// Every `(key, value)` pair with `lo <= key <= hi`, in ascending key
    /// order, observed atomically: after the in-order walk, every crossed
    /// edge is re-checked — all reads precede all re-checks, so success
    /// means the whole traversed region existed at one instant, the
    /// scan's linearization point — and the walk restarts when a
    /// concurrent update interfered (DESIGN.md §6i).
    pub fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        self.ordered_read(
            |s| s.collect_range(lo, hi),
            // SAFETY: `ordered_read` extracts under its read-side guard.
            |attempt| unsafe { attempt.entries() },
        )
    }

    /// The entry with the least key strictly greater than `key`, observed
    /// atomically (validated traversal, as in
    /// [`range_scan`](Self::range_scan)).
    pub fn successor(&mut self, key: &K) -> Option<(K, V)> {
        self.ordered_read(
            |s| s.collect_directed(key, Dir::Right),
            // SAFETY: `ordered_read` extracts under its read-side guard.
            |attempt| unsafe { attempt.candidate() },
        )
    }

    /// The entry with the greatest key strictly less than `key`, observed
    /// atomically (validated traversal, as in
    /// [`range_scan`](Self::range_scan)).
    pub fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        self.ordered_read(
            |s| s.collect_directed(key, Dir::Left),
            // SAFETY: `ordered_read` extracts under its read-side guard.
            |attempt| unsafe { attempt.candidate() },
        )
    }

    /// The paper's `insert` (lines 21–32). Returns `true` iff `key` was
    /// absent.
    pub fn insert(&mut self, key: K, value: V) -> bool {
        let backoff = Backoff::new();
        // The payload is moved out only on the path that returns, so every
        // retry still owns it — no `Option` dance needed.
        let payload = (key, value);
        loop {
            // Search, lock `prev` and validate it inside one read-side
            // section. Once validated, the locked `prev` is reachable and
            // cannot be unlinked without its lock, so it stays allocated
            // after the section ends.
            let step = {
                let _guard = self.rcu.read_lock();
                let (prev, tag, curr, dir) = self.search(&payload.0);
                if !curr.is_null() {
                    // Line 24: the key was found.
                    return false;
                }
                // The search→lock window: `prev` may be unlinked or gain a
                // child before we lock it — exactly what validate re-checks.
                chaos::point!("citrus/insert/before-lock");
                // Declared after `_guard`, so a set that is not moved out
                // unlocks before the section ends.
                let mut locks = LockSet::new();
                // SAFETY: `prev` was reached inside this section; once
                // locked, every check below is on its local fields.
                unsafe {
                    if !locks.try_acquire(prev) {
                        Step::Busy
                    } else {
                        self.tree.metrics.record_locks(self.stripe, 1);
                        chaos::point!("citrus/insert/locked-in-section");
                        if validate(prev, tag, ptr::null_mut(), dir)
                            && !chaos::should_fail!("citrus/insert/force-restart")
                        {
                            Step::Locked((locks, prev, dir))
                        } else {
                            Step::Invalid
                        }
                    }
                }
            };
            match step {
                Step::Locked((_locks, prev, dir)) => {
                    chaos::point!("citrus/insert/after-validate");
                    let (key, value) = payload;
                    let node = Node::new_leaf(KeyBound::Key(key), Some(value));
                    // Line 29: publish the new leaf; `_locks` releases
                    // `prev` on return.
                    // SAFETY: `prev` is locked and validated.
                    unsafe { (*prev).set_child(dir, node) };
                    return true;
                }
                // Line 32: validation failed or `prev` was busy; retry.
                failed => failed.back_off(&backoff),
            }
            self.stats
                .insert_retries
                .set(self.stats.insert_retries.get() + 1);
            self.tree.metrics.record_insert_retry(self.stripe);
        }
    }

    /// The paper's `delete` (lines 42–84). Returns `true` iff `key` was
    /// present.
    pub fn remove(&mut self, key: &K) -> bool {
        let backoff = Backoff::new();
        loop {
            // Search, lock `prev` and validate the `prev → curr` edge
            // inside one read-side section, as in `insert`.
            let step = {
                let _guard = self.rcu.read_lock();
                let (prev, _tag, curr, dir) = self.search(key);
                if curr.is_null() {
                    // Line 45: the key was not found.
                    return false;
                }
                // The search→lock window, as in `insert`.
                chaos::point!("citrus/remove/before-lock");
                let mut locks = LockSet::new();
                // SAFETY: `prev` and `curr` were reached inside this
                // section; `locks` unlocks before it ends unless moved out.
                unsafe {
                    if !locks.try_acquire(prev) {
                        Step::Busy
                    } else {
                        chaos::point!("citrus/remove/locked-in-section");
                        if validate(prev, 0, curr, dir)
                            && !chaos::should_fail!("citrus/remove/force-restart")
                        {
                            Step::Locked((locks, prev, curr, dir))
                        } else {
                            Step::Invalid
                        }
                    }
                }
            };
            let (mut locks, prev, curr, dir) = match step {
                Step::Locked(held) => held,
                failed => {
                    failed.back_off(&backoff);
                    self.count_remove_retry();
                    continue;
                }
            };
            // SAFETY: outside the section every node touched is locked by
            // this thread, or a child of a node it locked and validated —
            // unlinking that child needs the held lock, so it stays
            // allocated. Every field write below is to a node this thread
            // has locked, and `locks` releases them — in reverse
            // acquisition order, matching the paper's unlock sequence — on
            // every exit, unwinding included.
            unsafe {
                // `curr` is such an anchored child, so waiting for its lock
                // outside the section is safe even while a two-child delete
                // holds it across `synchronize_rcu`.
                locks.acquire(curr);
                self.tree.metrics.record_locks(self.stripe, 2);
                debug_assert!(
                    !(*curr).is_marked(),
                    "marking a child needs its parent's lock, which we held"
                );
                chaos::point!("citrus/remove/after-validate");
                let left = (*curr).child(Dir::Left);
                let right = (*curr).child(Dir::Right);
                if left.is_null() || right.is_null() {
                    // Lines 50–56: at most one child — bypass `curr`.
                    (*curr).mark();
                    let not_none_child = if !left.is_null() { left } else { right };
                    (*prev).set_child(dir, not_none_child);
                    // Bypass published, tag not yet bumped: a concurrent
                    // insert's validate must still catch the change.
                    chaos::point!("citrus/remove/before-increment-tag");
                    (*prev).increment_tag(dir);
                    drop(locks);
                    self.retire(curr);
                    return true;
                }

                // Lines 57–68: find the successor by walking the leftmost
                // branch of `curr`'s right subtree, and lock its parent
                // (unless that is `curr`, line 66). Only `right` is
                // anchored by a held lock, so the walk, the lock and its
                // validation happen inside a read-side section.
                let step = {
                    let _guard = self.rcu.read_lock();
                    let mut prev_succ = curr;
                    let mut succ = right;
                    let mut next = (*succ).child(Dir::Left);
                    while !next.is_null() {
                        prev_succ = succ;
                        succ = next;
                        next = (*next).child(Dir::Left);
                    }
                    if prev_succ == curr {
                        Step::Locked((prev_succ, succ))
                    } else if !locks.try_acquire(prev_succ) {
                        locks.release();
                        Step::Busy
                    } else {
                        chaos::point!("citrus/remove/succ-parent-locked-in-section");
                        if !(*prev_succ).is_marked() && (*prev_succ).child(Dir::Left) == succ {
                            Step::Locked((prev_succ, succ))
                        } else {
                            // Unlock while the section still covers
                            // `prev_succ`.
                            locks.release();
                            Step::Invalid
                        }
                    }
                };
                let (prev_succ, succ) = match step {
                    Step::Locked(pair) => pair,
                    failed => {
                        failed.back_off(&backoff);
                        self.count_remove_retry();
                        continue;
                    }
                };
                // Line 65.
                let succ_dir = if prev_succ == curr {
                    Dir::Right
                } else {
                    Dir::Left
                };
                // `succ` is an anchored child of `prev_succ` (or `curr`).
                locks.acquire(succ);
                self.tree
                    .metrics
                    .record_locks(self.stripe, if prev_succ == curr { 1 } else { 2 });

                // Line 69.
                let succ_left_tag = (*succ).tag(Dir::Left);
                if validate(prev_succ, 0, succ, succ_dir)
                    && validate(succ, succ_left_tag, ptr::null_mut(), Dir::Left)
                {
                    // Line 70: a copy of the successor with `curr`'s
                    // children. The user `Clone` calls happen *before* any
                    // structural change: if one panics, `locks` unwinds and
                    // the tree is untouched.
                    let node = Node::new_replacement(
                        (*succ).key.clone(),
                        (*succ).value.clone(),
                        (*curr).child(Dir::Left),
                        (*curr).child(Dir::Right),
                    );
                    // Line 71: ...locked before publication.
                    (*node).lock.lock();
                    locks.adopt(node);
                    self.tree.metrics.record_locks(self.stripe, 1);
                    // Lines 72–73: mark `curr`, splice the copy in. From
                    // here until line 75 two nodes carry the successor's
                    // key — the weak BST property (Definition 1).
                    (*curr).mark();
                    (*prev).set_child(dir, node);

                    // The weak-BST window: two nodes carry the successor's
                    // key until the grace period elapses.
                    chaos::point!("citrus/remove/before-synchronize");
                    // Line 74: wait for pre-existing searches, which may
                    // still be looking at the successor's *old* location.
                    // The mutant guard is a test-only bug switch (chaos
                    // builds only): skipping the grace period unlinks the
                    // old successor while a pre-existing reader may be
                    // about to traverse it — the exploration suite must
                    // find the resulting lost read.
                    let synchronized = !self.tree.mutants.enabled("citrus/remove/skip-synchronize");
                    if synchronized {
                        self.rcu.synchronize();
                    }
                    chaos::point!("citrus/remove/after-synchronize");
                    self.stats
                        .synchronize_calls
                        .set(self.stats.synchronize_calls.get() + 1);
                    self.tree.metrics.record_synchronize(self.stripe);

                    // Lines 75–81: unlink the old successor.
                    (*succ).mark();
                    if prev_succ == curr {
                        // Line 76: succ was the right child of curr, so its
                        // old position is now under the replacement copy.
                        (*node).set_child(Dir::Right, (*succ).child(Dir::Right));
                        (*node).increment_tag(Dir::Right);
                    } else {
                        (*prev_succ).set_child(Dir::Left, (*succ).child(Dir::Right));
                        (*prev_succ).increment_tag(Dir::Left);
                    }

                    // Lines 82–83: release all locks (reverse acquisition
                    // order: node, succ, prev_succ, curr, prev).
                    drop(locks);
                    if synchronized {
                        // Every listed node was unlinked before that grace
                        // period began.
                        self.free_retired();
                    }
                    self.retire(curr);
                    self.retire(succ);
                    return true;
                }

                // Line 84: validation failed; `locks` releases all four,
                // retry.
            }
            self.count_remove_retry();
        }
    }

    /// Operation statistics for this session.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    fn count_remove_retry(&self) {
        self.stats
            .remove_retries
            .set(self.stats.remove_retries.get() + 1);
        self.tree.metrics.record_remove_retry(self.stripe);
    }

    /// Queues an unlinked node on the session's retire list and hands the
    /// list on once it holds [`RETIRE_FLUSH`] nodes.
    ///
    /// # Safety-relevant invariant
    ///
    /// `node` must be unreachable from the root (just unlinked by this
    /// thread while holding the relevant locks).
    fn retire(&mut self, node: *mut Node<K, V>) {
        self.retired.push(node);
        if self.retired.len() >= RETIRE_FLUSH {
            self.flush_retired();
        }
    }
}

/// What one locking step of an update found.
enum Step<T> {
    /// The locks are held and validated; here is what they cover.
    Locked(T),
    /// A lock wanted inside a read-side section was held by another
    /// thread; back off and re-search.
    Busy,
    /// Validation failed (or a chaos build forced a restart); re-search.
    Invalid,
}

impl<T> Step<T> {
    /// Backs off before the re-search if a lock was busy. The caller has
    /// already left the read-side section: waiting for the lock inside it
    /// could deadlock against a delete that holds the lock across
    /// `synchronize_rcu`.
    fn back_off(&self, backoff: &Backoff) {
        if let Step::Busy = self {
            // Under a deterministic schedule, park until some thread
            // releases a lock (or otherwise signals progress).
            chaos::blocked!("citrus/update/lock-busy");
            backoff.snooze();
        }
    }
}

impl<K, V, F: RcuFlavor> CitrusSession<'_, K, V, F> {
    /// Frees the whole retire list in `Epoch` mode (a no-op in `Leak`
    /// mode, whose list goes to the graveyard).
    ///
    /// # Safety
    ///
    /// This session must have completed a `synchronize_rcu` that began
    /// after the newest listed node was unlinked.
    unsafe fn free_retired(&mut self) {
        let tree = self.tree;
        if let ReclaimInner::Epoch(freed) = &tree.reclaim {
            let n = self.retired.len() as u64;
            for node in self.retired.drain(..) {
                // SAFETY: unlinked by this session (`retire`'s invariant)
                // and past a grace period (this function's contract).
                unsafe { tree.free_node(node) };
            }
            freed.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Hands the retire list on: `Leak` mode moves it to the tree's
    /// graveyard; `Epoch` mode waits one grace period and frees it.
    fn flush_retired(&mut self) {
        if self.retired.is_empty() {
            return;
        }
        match &self.tree.reclaim {
            ReclaimInner::Leak(graveyard) => {
                // SAFETY: listed nodes were unlinked by this session and
                // are Box-allocated (`retire`'s invariant).
                unsafe { graveyard.push_batch(&mut self.retired) };
            }
            ReclaimInner::Epoch(_) => {
                // The mutant is a test-only planted bug (chaos builds
                // only): freeing without the grace period lets a reader
                // still inside its section reach a freed node — the
                // exploration suite must catch the use after free.
                if !self
                    .tree
                    .mutants
                    .enabled("citrus/reclaim/free-before-grace-period")
                {
                    self.rcu.synchronize();
                }
                // SAFETY: that grace period began after every listed node
                // was unlinked.
                unsafe { self.free_retired() };
            }
        }
    }
}

impl<K, V, F: RcuFlavor> Drop for CitrusSession<'_, K, V, F> {
    fn drop(&mut self) {
        self.flush_retired();
    }
}

impl<K, V, F: RcuFlavor> fmt::Debug for CitrusSession<'_, K, V, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CitrusSession")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<K, V, F> MapSession<K, V> for CitrusSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn get(&mut self, key: &K) -> Option<V> {
        CitrusSession::get(self, key)
    }

    fn contains(&mut self, key: &K) -> bool {
        // Not the default `get(..).is_some()`: presence checks must not
        // clone the value.
        CitrusSession::contains(self, key)
    }

    fn insert(&mut self, key: K, value: V) -> bool {
        CitrusSession::insert(self, key, value)
    }

    fn remove(&mut self, key: &K) -> bool {
        CitrusSession::remove(self, key)
    }
}

impl<K, V, F> OrderedMapSession<K, V> for CitrusSession<'_, K, V, F>
where
    K: Ord + Clone + Send + Sync,
    V: Clone + Send + Sync,
    F: RcuFlavor,
{
    fn range_scan(&mut self, lo: &K, hi: &K) -> Vec<(K, V)> {
        CitrusSession::range_scan(self, lo, hi)
    }

    fn successor(&mut self, key: &K) -> Option<(K, V)> {
        CitrusSession::successor(self, key)
    }

    fn predecessor(&mut self, key: &K) -> Option<(K, V)> {
        CitrusSession::predecessor(self, key)
    }
}
