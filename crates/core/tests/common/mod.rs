//! Helpers shared by this crate's integration tests.

use citrus::{CitrusTree, RcuFlavor, ReclaimMode};
use citrus_api::testkit;

/// A tree in reclamation `mode` whose two-child deletes defer their
/// unlink when the lane asks for it (`CITRUS_DEFERRED_FREE`).
pub fn new_tree<K: Send + Sync, V: Send + Sync, F: RcuFlavor>(
    mode: ReclaimMode,
) -> CitrusTree<K, V, F> {
    CitrusTree::with_options(F::new(), mode, testkit::deferred_free())
}
