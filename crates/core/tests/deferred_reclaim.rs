//! Deferred-free mode (`with_options(.., true)`):
//! two-child deletes enqueue their unlink on the tree's `call_rcu` domain
//! instead of synchronizing inline. These tests pin the mode explicitly
//! (they never read the environment) and cover the correctness corners
//! the mode introduces: the pending-unlink window, shutdown with loaded
//! queues, per-shard independence in the forest, and chaos-perturbed
//! retire-while-synchronize interleavings.

use citrus::{CitrusForest, CitrusTree, ReclaimMode, ScalableRcu};
use citrus_api::testkit;
use citrus_rcu::{RcuFlavor, RcuHandle};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

type Tree = CitrusTree<u64, u64, ScalableRcu>;

fn deferred_tree(mode: ReclaimMode) -> Tree {
    Tree::with_options(ScalableRcu::new(), mode, true)
}

/// The mode switch itself: a two-child delete in deferred mode enqueues
/// one unlink record and pays no inline grace period; the tree answers
/// correctly both before and after the batch runs.
#[test]
fn two_child_delete_defers_instead_of_synchronizing() {
    let mut tree = deferred_tree(ReclaimMode::Epoch);
    {
        let mut s = tree.session();
        for k in [50u64, 25, 75, 60, 85] {
            s.insert(k, k);
        }
        assert!(s.remove(&50), "two-child delete of the root");
        assert_eq!(s.stats().deferred_unlinks(), 1);
        assert_eq!(
            s.stats().synchronize_calls(),
            0,
            "deferred mode must not synchronize inline"
        );
        // The unlink is still pending: the logical contents must already
        // be post-delete (the successor copy answers for 60).
        assert_eq!(s.get(&50), None);
        assert_eq!(s.get(&60), Some(60));
        assert_eq!(s.get(&85), Some(85));

        tree.flush_deferred();
        let deferred = tree.deferred().expect("deferred mode has a domain");
        assert_eq!(deferred.executed(), 1, "the unlink record ran");
        assert_eq!(s.get(&60), Some(60), "successor survives the unlink");
    }
    let stats = tree.validate_structure().expect("valid after the unlink");
    assert_eq!(stats.len, 4);
}

/// Quiescent operations must not observe the pending window: the retired
/// successor original is still reachable (marked, locked, a duplicate of
/// its copy) until the batch runs, and `len`/`to_vec`/`validate` flush
/// first.
#[test]
fn quiescent_ops_do_not_observe_pending_duplicates() {
    let mut tree = deferred_tree(ReclaimMode::Epoch);
    {
        let mut s = tree.session();
        for k in [50u64, 25, 75, 60, 85] {
            s.insert(k, k);
        }
        assert!(s.remove(&50));
        assert_eq!(s.stats().deferred_unlinks(), 1);
        // No flush here: the quiescent ops below must do it themselves.
    }
    assert_eq!(tree.len_quiescent(), 4);
    let contents = tree.to_vec_quiescent();
    assert_eq!(
        contents,
        vec![(25, 25), (60, 60), (75, 75), (85, 85)],
        "no duplicate successor, no lingering key 50"
    );
    tree.validate_structure().expect("valid while flushing");
}

/// A value that counts constructions (insert + the successor clone of a
/// two-child delete) and drops, so a leak (drops < created) and a double
/// free (drops > created) are both visible after the tree dies.
#[derive(Debug)]
struct Counted {
    created: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Counted {
    fn new(created: &Arc<AtomicU64>, dropped: &Arc<AtomicU64>) -> Self {
        created.fetch_add(1, Ordering::SeqCst);
        Self {
            created: Arc::clone(created),
            dropped: Arc::clone(dropped),
        }
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        self.created.fetch_add(1, Ordering::SeqCst);
        Self {
            created: Arc::clone(&self.created),
            dropped: Arc::clone(&self.dropped),
        }
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.dropped.fetch_add(1, Ordering::SeqCst);
    }
}

/// Shutdown lifecycle: dropping a tree with *unflushed* unlink records
/// must run them (joining the worker, then draining) and free every
/// value exactly once — in both reclamation modes.
#[test]
fn drop_with_pending_unlinks_leaks_nothing() {
    for mode in [ReclaimMode::Epoch, ReclaimMode::Leak] {
        let created = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        {
            let tree: CitrusTree<u64, Counted, ScalableRcu> =
                CitrusTree::with_options(ScalableRcu::new(), mode, true);
            let mut s = tree.session();
            // A shape rich in two-child nodes: balanced insertion order.
            for k in [64u64, 32, 96, 16, 48, 80, 112, 8, 24, 40, 56] {
                s.insert(k, Counted::new(&created, &dropped));
            }
            // Two-child deletes whose unlinks stay queued: no flush runs
            // before the drop below (huge default threshold, and we beat
            // the worker interval by dropping immediately).
            for k in [32u64, 64, 16] {
                assert!(s.remove(&k));
            }
            assert!(s.stats().deferred_unlinks() >= 1, "mode {mode:?}");
        }
        assert_eq!(
            created.load(Ordering::SeqCst),
            dropped.load(Ordering::SeqCst),
            "mode {mode:?}: every constructed value must drop exactly once"
        );
    }
}

/// Forest independence: shard A's deferred unlinks complete while a
/// reader is parked *inside* shard B's read-side critical section. If the
/// shards shared a grace-period domain, the flush below would hang until
/// the watchdog kills the test.
#[test]
fn shard_retirements_do_not_wait_on_other_shards() {
    let _watchdog = testkit::stress_watchdog("shard_retirements_do_not_wait_on_other_shards");
    let forest: CitrusForest<u64, u64, ScalableRcu> =
        CitrusForest::with_options(4, 0, ReclaimMode::Epoch, true);
    assert!(forest.deferred_free());

    // Three keys a < b < c routed to the same shard; inserting b first
    // gives it two children, so remove(b) is a two-child delete there.
    let target = forest.shard_for(&0u64);
    let mut same_shard = Vec::new();
    for k in 0u64..10_000 {
        if forest.shard_for(&k) == target {
            same_shard.push(k);
            if same_shard.len() == 3 {
                break;
            }
        }
    }
    let [a, b, c]: [u64; 3] = same_shard.try_into().expect("three keys in the shard");
    let other = (target + 1) % forest.shard_count();

    let reader_in = AtomicBool::new(false);
    let release = AtomicBool::new(false);
    std::thread::scope(|scope| {
        {
            let (forest, reader_in, release) = (&forest, &reader_in, &release);
            scope.spawn(move || {
                // Park inside the *other* shard's read-side section.
                let handle = forest.shard(other).rcu().register();
                let guard = handle.read_lock();
                reader_in.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                drop(guard);
            });
        }
        while !reader_in.load(Ordering::Acquire) {
            std::thread::yield_now();
        }

        let mut s = forest.session();
        assert!(s.insert(b, b));
        assert!(s.insert(a, a));
        assert!(s.insert(c, c));
        assert!(s.remove(&b), "two-child delete in the target shard");
        drop(s);

        // Shard `target`'s drain waits only on its own grace periods —
        // the blocked reader lives in shard `other`'s domain.
        forest.shard(target).flush_deferred();
        let deferred = forest
            .shard(target)
            .deferred()
            .expect("deferred mode has per-shard domains");
        assert!(
            deferred.executed() >= 1,
            "the unlink must complete while the other shard's reader is inside"
        );
        release.store(true, Ordering::Release);
    });

    let mut forest = forest;
    let stats = forest.validate_structure().expect("forest valid");
    assert_eq!(stats.len, 2);
}

/// Retire-while-synchronize interleavings under pinned chaos seeds: the
/// Figure 4 workload (successor relocations racing searches of the moved
/// key) in deferred mode, with failpoints yielding, spinning, forcing
/// validation restarts, and starving the flush worker. Exactly-once
/// unlinking and reader correctness must survive every seed.
#[cfg(feature = "chaos")]
#[test]
fn chaos_seeds_perturb_retire_while_synchronize() {
    use citrus_chaos::{self as chaos, ChaosPlan};
    let _watchdog = testkit::stress_watchdog("chaos_seeds_perturb_retire_while_synchronize");
    for seed in [0x0DEF_0001u64, 0x0DEF_0002, 0x0DEF_0003] {
        let _plan = chaos::install(
            ChaosPlan::from_seed(seed)
                .yields(250)
                .spins(250, 64)
                .fails(300),
        );
        let rounds = 50u64;
        let tree = deferred_tree(ReclaimMode::Epoch);
        let published = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            {
                let (tree, published, stop) = (&tree, &published, &stop);
                scope.spawn(move || {
                    let mut s = tree.session();
                    for r in 0..rounds {
                        let base = r * 100;
                        for k in [10, 5, 30, 20, 40] {
                            s.insert(base + k, base + k);
                        }
                        published.store(r + 1, Ordering::Release);
                        // base+10 has two children: a deferred unlink.
                        s.remove(&(base + 10));
                    }
                    stop.store(true, Ordering::Relaxed);
                });
            }
            let (tree, published, stop) = (&tree, &published, &stop);
            scope.spawn(move || {
                let mut s = tree.session();
                let mut key = 20u64;
                while !stop.load(Ordering::Relaxed) {
                    let rounds = published.load(Ordering::Acquire);
                    if rounds == 0 {
                        std::thread::yield_now();
                        continue;
                    }
                    // Walk the permanent (base+20) keys round-robin.
                    key = if key / 100 + 1 >= rounds {
                        20
                    } else {
                        key + 100
                    };
                    assert_eq!(
                        tree_get(&mut s, key),
                        Some(key),
                        "seed {seed:#x}: reader missed a permanent key"
                    );
                }
            });
        });
        tree.flush_deferred();
        let deferred = tree.deferred().expect("deferred domain");
        assert!(
            deferred.executed() >= rounds,
            "seed {seed:#x}: every round defers one unlink (got {})",
            deferred.executed()
        );
        let mut tree = tree;
        tree.validate_structure()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: invariant violated: {e}"));
    }
}

#[cfg(feature = "chaos")]
fn tree_get(s: &mut citrus::CitrusSession<'_, u64, u64, ScalableRcu>, key: u64) -> Option<u64> {
    s.get(&key)
}
