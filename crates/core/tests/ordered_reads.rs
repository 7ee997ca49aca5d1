//! Sequential contracts of the validated ordered reads (`range_scan`,
//! `successor`, `predecessor`) and the non-cloning `contains` fast path.
//!
//! Concurrent linearizability of the same operations is covered by the
//! top-level `linearizability.rs` scan battery and the explore-window
//! suite; this file pins the single-threaded semantics and accounting.

use citrus::{CitrusTree, GlobalLockRcu, ReclaimMode, ScalableRcu};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

type Tree = CitrusTree<u64, u64, GlobalLockRcu>;

fn populated() -> Tree {
    let tree: Tree = CitrusTree::with_reclaim(ReclaimMode::Epoch);
    let mut s = tree.session();
    for k in [50u64, 25, 75, 12, 37, 62, 87] {
        s.insert(k, k * 10);
    }
    drop(s);
    tree
}

#[test]
fn range_scan_is_sorted_and_inclusive_on_both_ends() {
    let tree = populated();
    let mut s = tree.session();
    assert_eq!(
        s.range_scan(&25, &62),
        vec![(25, 250), (37, 370), (50, 500), (62, 620)]
    );
    // Bounds that fall between keys still clip correctly.
    assert_eq!(s.range_scan(&26, &61), vec![(37, 370), (50, 500)]);
    // Full range returns every pair in key order.
    let all = s.range_scan(&0, &u64::MAX);
    assert_eq!(all.len(), 7);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn degenerate_ranges_are_empty_not_errors() {
    let tree = populated();
    let mut s = tree.session();
    assert!(s.range_scan(&63, &74).is_empty(), "gap between keys");
    assert!(s.range_scan(&90, &10).is_empty(), "inverted bounds");
    assert_eq!(s.range_scan(&50, &50), vec![(50, 500)], "point range");

    let empty: Tree = CitrusTree::with_reclaim(ReclaimMode::Epoch);
    let mut e = empty.session();
    assert!(e.range_scan(&0, &u64::MAX).is_empty(), "empty tree");
    assert_eq!(e.successor(&0), None);
    assert_eq!(e.predecessor(&u64::MAX), None);
}

#[test]
fn successor_and_predecessor_are_strict_and_sentinel_safe() {
    let tree = populated();
    let mut s = tree.session();
    // Strictly greater / strictly less: the probe key itself never counts.
    assert_eq!(s.successor(&50), Some((62, 620)));
    assert_eq!(s.predecessor(&50), Some((37, 370)));
    // Probes between keys.
    assert_eq!(s.successor(&40), Some((50, 500)));
    assert_eq!(s.predecessor(&40), Some((37, 370)));
    // Probes beyond the extremes walk into the sentinels and come back
    // empty rather than leaking the ±infinity keys.
    assert_eq!(s.successor(&87), None);
    assert_eq!(s.successor(&u64::MAX), None);
    assert_eq!(s.predecessor(&12), None);
    assert_eq!(s.predecessor(&0), None);
}

#[test]
fn sequential_scans_never_restart_and_are_counted() {
    let tree: CitrusTree<u64, u64, ScalableRcu> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
    let mut s = tree.session();
    for k in 0..64u64 {
        s.insert(k, k);
    }
    for lo in (0..64).step_by(8) {
        assert_eq!(s.range_scan(&lo, &(lo + 7)).len(), 8);
    }
    s.successor(&10);
    s.predecessor(&10);
    assert_eq!(
        s.stats().scan_restarts(),
        0,
        "an uncontended scan must validate first try"
    );
    drop(s);
    #[cfg(feature = "stats")]
    {
        assert_eq!(
            tree.metrics().scan_ops(),
            10,
            "8 scans + successor + predecessor"
        );
        assert_eq!(tree.metrics().scan_restarts(), 0);
    }
}

/// A value whose clones are observable: `contains` must answer through
/// the non-cloning search path, while `get` pays exactly one clone.
#[derive(Debug)]
struct CloneCounter(Arc<AtomicUsize>);

impl Clone for CloneCounter {
    fn clone(&self) -> Self {
        self.0.fetch_add(1, Ordering::Relaxed);
        CloneCounter(Arc::clone(&self.0))
    }
}

#[test]
fn contains_never_clones_the_value() {
    let clones = Arc::new(AtomicUsize::new(0));
    let tree: CitrusTree<u64, CloneCounter, GlobalLockRcu> =
        CitrusTree::with_reclaim(ReclaimMode::Epoch);
    let mut s = tree.session();
    s.insert(7, CloneCounter(Arc::clone(&clones)));
    let baseline = clones.load(Ordering::Relaxed);

    assert!(s.contains(&7));
    assert!(!s.contains(&8));
    assert_eq!(
        clones.load(Ordering::Relaxed),
        baseline,
        "contains must not clone the value"
    );

    assert!(s.get(&7).is_some());
    assert_eq!(
        clones.load(Ordering::Relaxed),
        baseline + 1,
        "get clones the value exactly once"
    );
}
