//! Server ↔ oracle conformance: a `citrus-serve` front end must be
//! observationally indistinguishable from a single [`CitrusTree`] oracle
//! (itself model-checked against `BTreeMap` in `testkit`), operation for
//! operation, with every operation crossing the server's submit →
//! response path: executed on the submitting thread when its shard is
//! idle, queued and batched by the shard worker otherwise. Concurrent
//! clients exercise both paths; two direct tests pin when each is taken
//! and that a shard keeps submission order across them.
//!
//! The grid covers the {hash, range} routers.
//! Each cell runs a seeded agreement stream plus a quiescent audit (the
//! drained forest's contents must equal the oracle's), and chaos-seed
//! sweeps run the whole testkit battery — including the concurrent
//! lost-update and mixed-consistency checks, i.e. concurrent clients —
//! against servers under schedule perturbation at every failpoint
//! (a no-op without the `chaos` cargo feature, so this file is green
//! under default features too). The serve failpoints themselves
//! (`serve/inline/execute`, `serve/batch/enqueue`, `serve/batch/drain`,
//! `serve/admission/reject`, `serve/shutdown/drain`) are
//! coverage-asserted at the bottom.

use citrus_repro::citrus_api::testkit;
use citrus_repro::citrus_serve::{Request, Response, ServeConfig, Server};
use citrus_repro::prelude::*;

/// Chaos sweep width, mirroring the chaos_regression convention.
fn seeds_from_env() -> u64 {
    match std::env::var("CITRUS_CHAOS_SEEDS") {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|e| {
            panic!("invalid CITRUS_CHAOS_SEEDS={raw:?}: {e} (expected an unsigned integer)")
        }),
        Err(std::env::VarError::NotPresent) => 3,
        Err(e) => panic!("invalid CITRUS_CHAOS_SEEDS: {e}"),
    }
}

/// Small batches + frequent worker-session recycling: one agreement
/// stream then spans many drain cycles and session lifetimes.
fn serve_config() -> ServeConfig {
    ServeConfig::default()
        .with_batch_max(4)
        .with_recycle_ops(96)
}

fn hash_server(seed: u64) -> Server<u64, u64> {
    Server::with_config(
        CitrusForest::with_config(4, seed, ReclaimMode::Epoch),
        serve_config(),
    )
}

/// Range-routed over the 128-key agreement range: splitters at 32/64/96
/// give four live shards.
fn range_server() -> Server<u64, u64> {
    Server::with_config(
        CitrusForest::with_range_router_options(vec![32, 64, 96], ReclaimMode::Epoch),
        serve_config(),
    )
}

/// One grid cell: seeded agreement stream against a single-tree oracle,
/// then a quiescent audit of the drained forest. The chaos seed doubles
/// as the stream seed, so a failure replays from the one number in the
/// panic message.
fn agreement_sweep(make: impl Fn() -> Server<u64, u64>, base_seed: u64) {
    let _watchdog = testkit::stress_watchdog("serve_conformance::agreement_sweep");
    for i in 0..seeds_from_env() {
        let seed = base_seed.wrapping_add(i);
        let _chaos = testkit::install_chaos(testkit::ChaosPlan::from_seed(seed));
        let server = make();
        let oracle: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
        testkit::check_map_agreement(&server, &oracle, 600, 128, seed);

        // Quiescent audit: drain the server (graceful shutdown) and the
        // recovered forest must hold exactly the oracle's entries.
        let mut forest = server.into_forest();
        let mut oracle = oracle;
        assert_eq!(
            forest.to_vec_quiescent(),
            oracle.to_vec_quiescent(),
            "drained server contents diverged from oracle (seed {seed:#x})"
        );
        forest
            .validate_structure()
            .unwrap_or_else(|v| panic!("forest invariant violation (seed {seed:#x}): {v:?}"));
    }
}

// ---- Agreement grid: {hash, range} ------------------------------------

#[test]
fn agree_hash_inline() {
    agreement_sweep(|| hash_server(0x5E_4001), 0x5E_4100);
}

#[test]
fn agree_range_inline() {
    agreement_sweep(range_server, 0x5E_4300);
}

// ---- Chaos-seed sweeps: the full testkit battery (sequential model,
// ---- duplicate inserts, concurrent lost-updates, concurrent mixed
// ---- consistency) through the serve boundary ---------------------------

#[test]
fn chaos_sweep_hash_inline() {
    let _watchdog = testkit::stress_watchdog("serve_conformance::chaos_sweep_hash_inline");
    testkit::sweep_chaos_seeds(|| hash_server(0x5E_4011), 0x5E_4500, seeds_from_env());
}

#[test]
fn chaos_sweep_range_inline() {
    let _watchdog = testkit::stress_watchdog("serve_conformance::chaos_sweep_range_inline");
    testkit::sweep_chaos_seeds(range_server, 0x5E_4700, seeds_from_env());
}

// ---- Inline execution and queueing -------------------------------------

/// Run to completion: on an idle shard `submit` executes the request on
/// the calling thread, so the ticket is resolved when `submit` returns.
/// Each inline execution counts as one executed request and one batch of
/// one, so `executed / batches` stays the mean batch size.
#[test]
fn idle_shard_resolves_the_ticket_in_submit() {
    let server = hash_server(0x5E_4801);
    for k in 0..16u64 {
        let ticket = server.submit(Request::Insert(k, k)).expect("admitted");
        assert!(ticket.is_ready(), "an idle shard executes on the caller");
        assert_eq!(ticket.wait(), Response::Flag(true));
    }
    let c = server.counters();
    assert_eq!(
        (c.inline_executed(), c.executed(), c.batches()),
        (16, 16, 16)
    );
    assert_eq!(c.accepted(), 16);
}

/// FIFO across the two paths. The deterministic scheduler stops thread 0
/// at `serve/inline/execute`, holding its idle shard's claim, and runs
/// thread 1 to completion before letting thread 0 go on. Thread 1's
/// submit to the same shard must queue, the worker must not run it
/// before thread 0's request finishes, and the shard completes both in
/// submission order: the queued read sees the inline write.
#[cfg(feature = "chaos")]
#[test]
fn inline_execution_holds_the_shard_and_keeps_fifo() {
    use citrus_repro::citrus_chaos as chaos;
    use std::sync::Mutex;

    let server = hash_server(0x5E_4803);
    let shard = server.shard_for(&7);
    let first = Mutex::new(None);
    let second = Mutex::new(None);
    // Decision 0 starts thread 0; decision 1 switches to thread 1 at
    // thread 0's first yield point, `serve/inline/execute`. With the
    // decisions spent, the scheduler keeps the running thread.
    let outcome = chaos::run_schedule(
        &chaos::SchedulePlan::new(vec![0, 1]),
        vec![
            Box::new(|| {
                let ticket = server.submit(Request::Insert(7, 70)).expect("admitted");
                assert!(ticket.is_ready(), "an idle shard executes on the caller");
                *first.lock().unwrap() = Some(ticket);
            }),
            Box::new(|| {
                let ticket = server.submit(Request::Get(7)).expect("admitted");
                assert_eq!(server.queue_len(shard), 1, "a busy shard queues");
                assert!(!ticket.is_ready(), "the worker waits for the claim");
                *second.lock().unwrap() = Some(ticket);
            }),
        ],
    );
    assert!(outcome.clean(), "{:?}", outcome.failure_reason());
    assert_eq!(
        outcome.trace[..2],
        [(0, "serve/inline/execute"), (1, "serve/batch/enqueue")],
        "thread 1 must submit while thread 0 holds the claim"
    );
    let first = first.into_inner().unwrap().expect("thread 0 submitted");
    let second = second.into_inner().unwrap().expect("thread 1 submitted");
    assert_eq!(first.wait(), Response::Flag(true));
    assert_eq!(second.wait(), Response::Value(Some(70)));
    let c = server.counters();
    assert_eq!((c.inline_executed(), c.executed()), (1, 2));
}

// ---- Failpoint coverage ------------------------------------------------

/// The serve failpoints must actually exist and fire: after exercising
/// the inline, enqueue, drain, rejection, and shutdown paths, all five
/// names must appear in the chaos registry. A renamed or deleted failpoint
/// fails here instead of silently shrinking every chaos sweep above.
/// Registration is by-reach and only happens in `chaos` builds.
#[cfg(feature = "chaos")]
#[test]
fn serve_failpoints_register() {
    use citrus_repro::citrus_chaos as chaos;
    use citrus_repro::citrus_serve::{Request, SubmitError};

    // Inline execution: a round-trip on an idle server.
    let server: Server<u64, u64> = Server::with_config(
        CitrusForest::with_config(2, 0x5EED, ReclaimMode::Epoch),
        ServeConfig::default().with_high_water(1),
    );
    use citrus_repro::citrus_api::MapSession;
    {
        let mut s = server.session();
        assert!(s.insert(1, 10));
        assert_eq!(s.get(&1), Some(10));
    }

    // Admission rejection: pause the workers so the queue cannot drain,
    // then overflow the high-water mark of 1.
    server.pause();
    let shard = server.shard_for(&1);
    let mut fills = 0u64;
    loop {
        match server.submit(Request::Get(1)) {
            Ok(_) => fills += 1,
            Err(SubmitError::Rejected { .. }) => break,
            Err(SubmitError::Closed(_)) => panic!("server closed unexpectedly"),
        }
        assert!(fills < 16, "high-water mark of 1 never rejected");
    }
    assert!(server.queue_len(shard) >= 1);
    // Enqueue + drain: the paused submits above run once resumed.
    server.resume();

    // Shutdown drain.
    server.shutdown();

    let points: Vec<&str> = chaos::all_points().iter().map(|p| p.name).collect();
    for name in [
        "serve/inline/execute",
        "serve/batch/enqueue",
        "serve/batch/drain",
        "serve/admission/reject",
        "serve/shutdown/drain",
    ] {
        assert!(
            points.contains(&name),
            "failpoint {name:?} not registered; reached: {points:?}"
        );
    }
}
