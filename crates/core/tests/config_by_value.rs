//! Library constructors build from their arguments alone: no constructor
//! reads the environment, and the flag of the removed deferred-unlink
//! mode is refused rather than ignored.

use citrus::{CitrusForest, CitrusTree, GlobalLockRcu, ReclaimMode, ScalableRcu};
use std::panic::catch_unwind;

#[test]
fn constructors_ignore_the_environment() {
    assert!(ScalableRcu::new().sharing());
    assert!(GlobalLockRcu::new().sharing());
}

/// `with_options` keeps its `deferred` parameter for existing callers
/// only; `true` must panic for the tree and the forest alike.
#[test]
fn deferred_flag_panics() {
    let tree = catch_unwind(|| {
        CitrusTree::<u64, u64>::with_options(ScalableRcu::new(), ReclaimMode::Epoch, true)
    });
    let forest =
        catch_unwind(|| CitrusForest::<u64, u64>::with_options(2, 0, ReclaimMode::Epoch, true));
    for (what, result) in [("tree", tree.err()), ("forest", forest.err())] {
        let payload = result.unwrap_or_else(|| panic!("{what}: deferred = true was accepted"));
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(
            msg.contains("deferred-unlink mode was removed"),
            "{what}: {msg}"
        );
    }
    // `false` still builds.
    let tree: CitrusTree<u64, u64> =
        CitrusTree::with_options(ScalableRcu::new(), ReclaimMode::Epoch, false);
    assert_eq!(tree.reclaim_mode(), ReclaimMode::Epoch);
    let forest: CitrusForest<u64, u64> = CitrusForest::with_options(2, 0, ReclaimMode::Leak, false);
    assert_eq!(forest.shard_count(), 2);
}
