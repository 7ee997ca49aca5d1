//! Reclamation lifecycle of the two-child delete: every removed node is
//! freed exactly once when the tree drops, in both reclamation modes, and
//! epoch retirement stays correct while deletes race searches under
//! chaos-perturbed schedules.

use citrus::{CitrusTree, ReclaimMode, ScalableRcu};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// Shutdown lifecycle: dropping a tree after two-child deletes (whose
/// successor copies clone the value) frees every value exactly once — in
/// `Epoch` mode through the EBR domain, in `Leak` mode through the
/// graveyard, both at the latest when the tree drops.
#[test]
fn drop_after_two_child_deletes_frees_every_value_once() {
    for mode in [ReclaimMode::Epoch, ReclaimMode::Leak] {
        let created = Arc::new(AtomicU64::new(0));
        let dropped = Arc::new(AtomicU64::new(0));
        {
            let tree: CitrusTree<u64, Counted, ScalableRcu> = CitrusTree::with_reclaim(mode);
            let mut s = tree.session();
            // A shape rich in two-child nodes: balanced insertion order.
            for k in [64u64, 32, 96, 16, 48, 80, 112, 8, 24, 40, 56] {
                s.insert(k, Counted::new(&created, &dropped));
            }
            for k in [32u64, 64, 16] {
                assert!(s.remove(&k));
            }
            assert_eq!(s.stats().synchronize_calls(), 3, "mode {mode:?}");
        }
        assert_eq!(
            created.load(Ordering::SeqCst),
            dropped.load(Ordering::SeqCst),
            "mode {mode:?}: every constructed value must drop exactly once"
        );
    }
}

/// Retire-while-synchronize interleavings under pinned chaos seeds: the
/// Figure 4 workload (successor relocations racing searches of the moved
/// key) in `Epoch` mode, with failpoints yielding, spinning, and forcing
/// validation restarts. Every two-child delete must pay exactly one
/// grace period, EBR must not free a node a reader still holds, and
/// readers must never miss a permanent key, under every seed.
#[cfg(feature = "chaos")]
#[test]
fn chaos_seeds_perturb_retire_while_synchronize() {
    use citrus_api::testkit;
    use citrus_chaos::{self as chaos, ChaosPlan};
    use std::sync::atomic::AtomicBool;
    let _watchdog = testkit::stress_watchdog("chaos_seeds_perturb_retire_while_synchronize");
    for seed in [0x0DEF_0001u64, 0x0DEF_0002, 0x0DEF_0003] {
        let _plan = chaos::install(
            ChaosPlan::from_seed(seed)
                .yields(250)
                .spins(250, 64)
                .fails(300),
        );
        let rounds = 50u64;
        let tree: CitrusTree<u64, u64, ScalableRcu> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
        let published = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let synchronized = std::thread::scope(|scope| {
            let writer = {
                let (tree, published, stop) = (&tree, &published, &stop);
                scope.spawn(move || {
                    let mut s = tree.session();
                    for r in 0..rounds {
                        let base = r * 100;
                        for k in [10, 5, 30, 20, 40] {
                            s.insert(base + k, base + k);
                        }
                        published.store(r + 1, Ordering::Release);
                        // base+10 has two children: its successor moves.
                        s.remove(&(base + 10));
                    }
                    stop.store(true, Ordering::Relaxed);
                    s.stats().synchronize_calls()
                })
            };
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
                        s.get(&key),
                        Some(key),
                        "seed {seed:#x}: reader missed a permanent key"
                    );
                }
            });
            writer.join().expect("writer thread")
        });
        assert_eq!(
            synchronized, rounds,
            "seed {seed:#x}: every round's two-child delete synchronizes once"
        );
        let mut tree = tree;
        tree.validate_structure()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: invariant violated: {e}"));
    }
}
