//! Grace-period sharing, end to end (DESIGN.md §6d): a deterministic,
//! barrier-stepped two-updater schedule over the Citrus tree must produce
//! identical per-operation results and an identical final tree whether
//! `synchronize_rcu` piggybacking is on or off — sharing is invisible at
//! the dictionary API.

use citrus_repro::citrus_api::testkit::{self, SplitMix64};
use citrus_repro::citrus_rcu::RcuFlavor as Flavor;
use citrus_repro::prelude::*;
use std::sync::Barrier;

const KEYS: u64 = 64;
const STEPS: u64 = 96;

/// Per-lane `(removed, inserted)` outcomes of the schedule.
type LaneResults = Vec<Vec<(bool, bool)>>;

/// Runs the pinned schedule on a tree over `rcu` and returns everything
/// observable: each lane's per-step `(removed, inserted)` results and the
/// final sorted contents.
///
/// Lane 0 works the even keys, lane 1 the odd keys — disjoint, so every
/// operation's outcome is schedule-independent — while a barrier before
/// each step keeps the two synchronize-heavy remove streams genuinely
/// interleaved (two-child deletes call `synchronize_rcu`, which is where
/// a piggybacked return could go wrong). The prefill order is shuffled so
/// the tree is bushy and removes actually hit two-child nodes.
fn run_schedule<F: Flavor>(rcu: F) -> (LaneResults, Vec<(u64, u64)>) {
    let tree = CitrusTree::<u64, u64, F>::with_options(rcu, ReclaimMode::Epoch, false);
    {
        let mut rng = SplitMix64::new(0x9E37_79B9_5EED);
        let mut keys: Vec<u64> = (0..KEYS).collect();
        // Fisher–Yates with the testkit PRNG: same bushy shape every run.
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut s = tree.session();
        for k in keys {
            s.insert(k, k);
        }
    }
    let barrier = Barrier::new(2);
    let results: LaneResults = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|lane| {
                let (tree, barrier) = (&tree, &barrier);
                scope.spawn(move || {
                    let mut s = tree.session();
                    let mut out = Vec::with_capacity(STEPS as usize);
                    for step in 0..STEPS {
                        barrier.wait();
                        let k = (step * 2 + lane) % KEYS;
                        let removed = s.remove(&k);
                        // Fresh key per (lane, step), parity keeps lanes
                        // disjoint here too.
                        let inserted = s.insert(k + KEYS * (step + 1), step);
                        out.push((removed, inserted));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut tree = tree;
    tree.validate_structure().unwrap();
    (results, tree.to_vec_quiescent())
}

fn shared_and_unshared_agree<F: Flavor, M: Fn(bool) -> F>(make: M) {
    let shared = run_schedule(make(true));
    let unshared = run_schedule(make(false));
    assert_eq!(
        shared.0, unshared.0,
        "per-operation results diverged between sharing modes"
    );
    assert_eq!(
        shared.1, unshared.1,
        "final tree contents diverged between sharing modes"
    );
    // The schedule itself is deterministic, so pin the oracle: every
    // original key is removed on its first visit, every fresh insert
    // succeeds, and only the fresh keys remain.
    for lane in &shared.0 {
        assert!(lane.iter().all(|&(_, inserted)| inserted));
    }
    let removed: usize = shared
        .0
        .iter()
        .flatten()
        .filter(|&&(removed, _)| removed)
        .count();
    assert_eq!(
        removed, KEYS as usize,
        "each original key removed exactly once"
    );
    assert_eq!(shared.1.len(), 2 * STEPS as usize);
    assert!(shared.1.iter().all(|&(k, _)| k >= KEYS));
}

#[test]
fn interleaved_updaters_agree_scalable() {
    let _watchdog = testkit::stress_watchdog("interleaved_updaters_agree_scalable");
    shared_and_unshared_agree(ScalableRcu::with_sharing);
}

#[test]
fn interleaved_updaters_agree_global_lock() {
    let _watchdog = testkit::stress_watchdog("interleaved_updaters_agree_global_lock");
    shared_and_unshared_agree(GlobalLockRcu::with_sharing);
}
