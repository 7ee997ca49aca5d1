//! Reclamation lifecycle: every removed node is freed exactly once, in
//! both reclamation modes, and `Epoch` mode frees through the tree's own
//! RCU grace periods — a session frees what it removed after its next
//! `synchronize_rcu` (a two-child delete's, or one it waits for when its
//! retire list fills or the session drops), also while deletes race
//! searches under chaos-perturbed schedules.

use citrus::{CitrusForest, CitrusTree, RcuFlavor, ReclaimMode, ScalableRcu};
use citrus_api::{ConcurrentMap, MapSession};
use citrus_serve::{ServeConfig, Server};
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

/// The pair of counters one test's values share.
#[derive(Default)]
struct Ledger {
    created: Arc<AtomicU64>,
    dropped: Arc<AtomicU64>,
}

impl Ledger {
    fn value(&self) -> Counted {
        Counted::new(&self.created, &self.dropped)
    }

    fn assert_balanced(&self, what: &str) {
        assert_eq!(
            self.created.load(Ordering::SeqCst),
            self.dropped.load(Ordering::SeqCst),
            "{what}: every constructed value must drop exactly once"
        );
    }
}

/// Shutdown lifecycle: dropping a tree after two-child deletes (whose
/// successor copies clone the value) frees every value exactly once — in
/// `Epoch` mode through the sessions' grace periods, in `Leak` mode
/// through the graveyard, both at the latest when the tree drops.
#[test]
fn drop_after_two_child_deletes_frees_every_value_once() {
    for mode in [ReclaimMode::Epoch, ReclaimMode::Leak] {
        let ledger = Ledger::default();
        {
            let tree: CitrusTree<u64, Counted, ScalableRcu> = CitrusTree::with_reclaim(mode);
            let mut s = tree.session();
            // A shape rich in two-child nodes: balanced insertion order.
            for k in [64u64, 32, 96, 16, 48, 80, 112, 8, 24, 40, 56] {
                s.insert(k, ledger.value());
            }
            for k in [32u64, 64, 16] {
                assert!(s.remove(&k));
            }
            assert_eq!(s.stats().synchronize_calls(), 3, "mode {mode:?}");
        }
        ledger.assert_balanced(&format!("mode {mode:?}"));
    }
}

/// A session that only bypasses nodes (leaf and one-child deletes, which
/// wait for no grace period of their own) never holds more than 256
/// removed nodes unfreed: at 256 it waits for one grace period and frees
/// them all, and it frees the rest when it drops. Those are the only
/// grace periods the domain sees.
#[test]
fn bypass_only_session_holds_at_most_256_unfreed_nodes() {
    const KEYS: u64 = 1000;
    let ledger = Ledger::default();
    {
        let tree: CitrusTree<u64, Counted, ScalableRcu> =
            CitrusTree::with_reclaim(ReclaimMode::Epoch);
        {
            let mut s = tree.session();
            // Ascending inserts build a right-leaning chain, so every
            // remove in ascending order bypasses a node with at most one
            // child.
            for k in 0..KEYS {
                assert!(s.insert(k, ledger.value()));
            }
            for k in 0..KEYS {
                assert!(s.remove(&k));
                let freed = tree.reclaimed_count().expect("epoch mode counts frees");
                let unfreed = k + 1 - freed;
                assert!(unfreed < 256, "{unfreed} removed nodes unfreed after {k}");
                // Frees come in whole lists, one per grace period.
                assert_eq!(freed % 256, 0, "freed {freed} after removing {k}");
            }
            assert_eq!(s.stats().synchronize_calls(), 0, "no two-child delete ran");
            assert_eq!(tree.rcu().grace_periods(), KEYS / 256);
            #[cfg(not(feature = "chaos"))]
            assert_eq!(
                ledger.dropped.load(Ordering::SeqCst),
                tree.reclaimed_count().unwrap(),
                "every counted free drops its value (chaos builds quarantine them)"
            );
        }
        assert_eq!(
            tree.reclaimed_count(),
            Some(KEYS),
            "the drop frees the rest"
        );
        assert_eq!(tree.rcu().grace_periods(), KEYS / 256 + 1);
    }
    ledger.assert_balanced("bypass-only session");
}

/// Runs `rounds` of short-lived sessions on `threads` threads: each round
/// opens a session through `session_round`, which mixes inserts and
/// removes (two-child deletes included) over a shared small key range and
/// drops the session while the other threads keep running.
fn churn_sessions(threads: u64, rounds: u64, session_round: impl Fn(u64, u64) + Sync) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let session_round = &session_round;
            scope.spawn(move || {
                for r in 0..rounds {
                    session_round(t, r);
                }
            });
        }
    });
}

/// One session's worth of mixed operations on a 64-key range.
fn mixed_ops<S: MapSession<u64, Counted>>(s: &mut S, ledger: &Ledger, seed: u64) {
    let mut x = seed | 1;
    for _ in 0..200 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = x % 64;
        if x & 0x100 == 0 {
            s.insert(key, ledger.value());
        } else {
            s.remove(&key);
        }
    }
}

/// Sessions that drop mid-run — tree sessions, forest shard sessions and
/// serve executor sessions recycled every few requests — free every
/// removed value exactly once: none leaks, none is freed twice, and
/// `Epoch` mode really frees while the run is still going.
#[test]
fn sessions_dropped_mid_run_free_every_value_once() {
    let _watchdog =
        citrus_api::testkit::stress_watchdog("sessions_dropped_mid_run_free_every_value_once");
    for mode in [ReclaimMode::Epoch, ReclaimMode::Leak] {
        let ledger = Ledger::default();
        {
            let tree: CitrusTree<u64, Counted, ScalableRcu> = CitrusTree::with_reclaim(mode);
            churn_sessions(3, 20, |t, r| {
                mixed_ops(&mut tree.session(), &ledger, t << 32 | r);
            });
            if mode == ReclaimMode::Epoch {
                assert!(tree.reclaimed_count().unwrap() > 0, "nothing was freed");
            }
        }
        ledger.assert_balanced(&format!("tree sessions, mode {mode:?}"));

        let ledger = Ledger::default();
        {
            let forest: CitrusForest<u64, Counted, ScalableRcu> =
                CitrusForest::with_config(4, 7, mode);
            churn_sessions(3, 20, |t, r| {
                mixed_ops(&mut forest.session(), &ledger, t << 32 | r | 1 << 16);
            });
            if mode == ReclaimMode::Epoch {
                assert!(forest.reclaimed_count().unwrap() > 0, "nothing was freed");
            }
        }
        ledger.assert_balanced(&format!("forest shard sessions, mode {mode:?}"));

        let ledger = Ledger::default();
        {
            let config = ServeConfig {
                recycle_ops: 5,
                ..ServeConfig::default()
            };
            let server: Server<u64, Counted> =
                Server::with_config(CitrusForest::with_config(2, 7, mode), config);
            churn_sessions(3, 20, |t, r| {
                mixed_ops(&mut server.session(), &ledger, t << 32 | r | 2 << 16);
            });
            assert!(
                server.counters().recycled_sessions() > 0,
                "executor sessions must recycle mid-run"
            );
            let forest = server.into_forest();
            if mode == ReclaimMode::Epoch {
                assert!(forest.reclaimed_count().unwrap() > 0, "nothing was freed");
            }
        }
        ledger.assert_balanced(&format!("serve executor sessions, mode {mode:?}"));
    }
}

/// Retire-while-synchronize interleavings under pinned chaos seeds: the
/// Figure 4 workload (successor relocations racing searches of the moved
/// key) in `Epoch` mode, with failpoints yielding, spinning, and forcing
/// validation restarts. Every two-child delete must pay exactly one
/// grace period and free the session's retire list after it; no reader
/// may reach a freed node (chaos builds panic on one) or miss a
/// permanent key, under every seed.
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
        let (synchronized, freed_before_drop) = std::thread::scope(|scope| {
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
                    (s.stats().synchronize_calls(), tree.reclaimed_count())
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
        // Each delete retires the victim and the old successor; every
        // round after the first frees the previous round's pair.
        assert_eq!(
            freed_before_drop,
            Some(2 * (rounds - 1)),
            "seed {seed:#x}: each grace period frees the retire list"
        );
        assert_eq!(tree.reclaimed_count(), Some(2 * rounds));
        let mut tree = tree;
        tree.validate_structure()
            .unwrap_or_else(|e| panic!("seed {seed:#x}: invariant violated: {e}"));
    }
}
