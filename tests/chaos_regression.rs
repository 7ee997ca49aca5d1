//! Pinned chaos schedule seeds, one per structure family, plus a small
//! sweep. Each seed drives `testkit::check_chaos_seed`: with the `chaos`
//! cargo feature the seed deterministically perturbs schedules at every
//! failpoint (yields, spin-delays, forced validation restarts); without it
//! the same battery runs unperturbed, so this file is green under default
//! features too.
//!
//! When a sweep (here or in CI) finds a failing seed, pin it as a one-line
//! test in this file and replay it locally with:
//!
//! ```sh
//! CITRUS_CHAOS_SEEDS=1 cargo test --features chaos --test chaos_regression
//! ```

use citrus_repro::citrus_api::testkit;
use citrus_repro::prelude::*;

// The pinned per-family seeds. Chosen from the initial qualification
// sweep; they exercise every failpoint family without known failures —
// their job is to fail loudly if a future change regresses under the
// exact schedule they encode.

#[test]
fn citrus_scalable_pinned_seed() {
    testkit::check_chaos_seed(
        || CitrusTree::<u64, u64, ScalableRcu>::with_reclaim(ReclaimMode::Epoch),
        0xC17_0501,
    );
}

#[test]
fn citrus_global_lock_pinned_seed() {
    testkit::check_chaos_seed(
        || CitrusTree::<u64, u64, GlobalLockRcu>::with_reclaim(ReclaimMode::Leak),
        0xC17_0502,
    );
}

#[test]
fn avl_pinned_seed() {
    testkit::check_chaos_seed(OptimisticAvlTree::<u64, u64>::new, 0xC17_0503);
}

#[test]
fn skiplist_pinned_seed() {
    testkit::check_chaos_seed(LazySkipList::<u64, u64>::new, 0xC17_0504);
}

#[test]
fn lockfree_pinned_seed() {
    testkit::check_chaos_seed(LockFreeBst::<u64, u64>::new, 0xC17_0505);
}

#[test]
fn rbtree_pinned_seed() {
    testkit::check_chaos_seed(RelativisticRbTree::<u64, u64>::new, 0xC17_0506);
}

#[test]
fn bonsai_pinned_seed() {
    testkit::check_chaos_seed(BonsaiTree::<u64, u64>::new, 0xC17_0507);
}

/// The serve boundary: the whole testkit battery (including the
/// concurrent lost-update and mixed-consistency checks) with every
/// operation crossing a `citrus-serve` submit → batch → response path.
/// Small batches plus a short recycle period keep the worker-side
/// failpoints (`serve/batch/*`, `serve/shutdown/drain`) hot under the
/// pinned schedule.
#[test]
fn serve_pinned_seed() {
    use citrus_repro::citrus_serve::{ServeConfig, Server};
    testkit::check_chaos_seed(
        || {
            Server::with_config(
                CitrusForest::<u64, u64>::with_config(2, 0x5EED, ReclaimMode::Epoch),
                ServeConfig::default()
                    .with_batch_max(4)
                    .with_recycle_ops(16),
            )
        },
        0xC17_0510,
    );
}

/// Sweeps `CITRUS_CHAOS_SEEDS` consecutive seeds (default 3) over the
/// Citrus tree; CI's chaos job raises the count. A failing seed prints
/// its replay recipe before re-panicking.
#[test]
fn citrus_seed_sweep_smoke() {
    let count = match std::env::var("CITRUS_CHAOS_SEEDS") {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|e| {
            panic!("invalid CITRUS_CHAOS_SEEDS={raw:?}: {e} (expected an unsigned integer)")
        }),
        Err(std::env::VarError::NotPresent) => 3,
        Err(e) => panic!("invalid CITRUS_CHAOS_SEEDS: {e}"),
    };
    let _watchdog = testkit::stress_watchdog("citrus_seed_sweep_smoke");
    testkit::sweep_chaos_seeds(
        || CitrusTree::<u64, u64, ScalableRcu>::with_reclaim(ReclaimMode::Epoch),
        0x5111_EED0,
        count,
    );
}
