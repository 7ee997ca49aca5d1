//! Library constructors build from their arguments alone. The reclaim CI
//! lane runs this file with `CITRUS_DEFERRED_FREE=1`: the knob must reach
//! the trees tests build through `testkit::deferred_free`, and no
//! constructor may read it (or any other variable) on its own.

use citrus::{CitrusForest, CitrusTree, GlobalLockRcu, ReclaimMode, ScalableRcu};
use citrus_api::testkit;

#[test]
fn constructors_ignore_the_environment() {
    assert!(!CitrusTree::<u64, u64>::new().deferred_free());
    assert!(
        !CitrusTree::<u64, u64, GlobalLockRcu>::with_reclaim(ReclaimMode::Leak).deferred_free()
    );
    for forest in [
        CitrusForest::<u64, u64>::new(),
        CitrusForest::with_range_router(vec![10, 20]),
    ] {
        assert!((0..forest.shard_count()).all(|i| !forest.shard(i).deferred_free()));
    }
    assert!(ScalableRcu::new().sharing());
    assert!(GlobalLockRcu::new().sharing());
}

#[test]
fn testkit_carries_the_lane_setting() {
    let lane = std::env::var("CITRUS_DEFERRED_FREE").is_ok_and(|v| v.trim() == "1");
    assert_eq!(testkit::deferred_free(), lane);
    let tree: CitrusTree<u64, u64> = CitrusTree::with_options(
        ScalableRcu::new(),
        ReclaimMode::Epoch,
        testkit::deferred_free(),
    );
    assert_eq!(tree.deferred_free(), lane);
}
