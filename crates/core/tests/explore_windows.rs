//! Exhaustive small-schedule exploration of the Citrus tree's
//! linearization-sensitive windows (DESIGN.md §6h).
//!
//! Each scenario scripts 2 threads over a 4-node tree so that a
//! `remove` takes the two-child path — the paper's central race: mark the
//! victim, splice a copy of the successor, wait one grace period
//! (`synchronize_rcu`), then unlink the old successor. The sweeps
//! enumerate *every* interleaving of the instrumented yield points within
//! a preemption bound and check each against the linearizability oracle
//! plus full structural validation.
//!
//! The mutant tests prove the harness has teeth: with the grace period
//! deliberately skipped (`citrus/remove/skip-synchronize`), the
//! explorer must find a reader that misses a key that was never absent —
//! and the failing schedule it reports, replayed verbatim, must fail
//! again (and pass on a tree built without the mutant). Each mutant is
//! enabled on the trees its own test builds, so the sweeps beside it run
//! the real code at any test parallelism.
//!
//! The update-protocol windows (DESIGN.md §7) sweep the locks an
//! updater takes inside a read-side section against a two-child delete
//! that holds its locks across `synchronize_rcu`, and a session freeing
//! its retire list against a concurrent reader and scan. In chaos builds
//! a freed node stays allocated and marked, so a premature free shows up
//! as a reader's "use after free" panic.
//!
//! Replay any failure here with `CITRUS_SCHEDULE=<schedule> cargo test
//! --features chaos -p citrus <test>`.

#![cfg(feature = "chaos")]

use citrus::{CitrusForest, CitrusTree, GlobalLockRcu, ReclaimMode};
use citrus_api::testkit::{
    explore_schedules_with, replay_schedule_with, stress_watchdog, ExploreConfig, Explorer,
    ScenarioOp, ScheduleScenario,
};
use std::time::Duration;

type Tree = CitrusTree<u64, u64, GlobalLockRcu>;
type Forest = CitrusForest<u64, u64, GlobalLockRcu>;

/// Pinned minimal schedule (harvested from the mutant sweep) driving the
/// reader past the victim before the splice and back through the
/// successor's parent after the unlink — the exact window the inline
/// `synchronize_rcu` exists to close.
const PINNED_INLINE_DELETE_SCHEDULE: &str = "1110";

fn make_inline() -> Tree {
    Tree::with_reclaim(ReclaimMode::Leak)
}

/// [`make_inline`] with one planted bug enabled on every tree it builds.
fn make_inline_mutant(mutant: &'static str) -> impl Fn() -> Tree {
    move || {
        let tree = make_inline();
        tree.mutants().enable(mutant);
        tree
    }
}

fn validate(tree: &mut Tree) -> Result<(), String> {
    tree.validate_structure()
        .map(|_| ())
        .map_err(|v| format!("structure invariant violated: {v}"))
}

/// remove(20) takes the two-child path (children 10 and 30); its
/// successor is 25, which the concurrent reader looks up. 25 is never
/// removed, so any `get(25) → None` is a linearizability violation.
fn delete_window_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Get(25)])
}

fn bounded(max_preemptions: usize) -> ExploreConfig {
    ExploreConfig {
        max_preemptions,
        ..ExploreConfig::default()
    }
}

#[test]
fn inline_delete_window_sweep_is_clean() {
    let _wd = stress_watchdog("inline_delete_window_sweep_is_clean");
    let scenario = delete_window_scenario("inline-two-child-delete");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
    // Coverage claims only hold for a full enumeration: a budget-limited
    // lane or a CITRUS_SCHEDULE single-run replay skips them.
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    // The sweep must actually drive through the delete window.
    for point in [
        "citrus/remove/before-synchronize",
        "citrus/remove/after-synchronize",
        "citrus/search/step",
        // The reader-wait block only fires in interleavings where the
        // grace period really overlaps the reader's critical section —
        // exactly the window the sweep exists to cover.
        "rcu-global-lock/synchronize/reader-wait",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// The acceptance gate for "exhaustive": for a fixed scenario and bound
/// the number of distinct schedules is a deterministic property of the
/// failpoint graph. A drift means yield points appeared or vanished —
/// deliberate (update the constant) or a silently lost window (a bug).
/// Budget-limited lanes (`CITRUS_EXPLORE_BUDGET_MS`) skip the pin: an
/// incomplete sweep has no stable count.
#[test]
fn explored_schedule_count_is_stable() {
    let _wd = stress_watchdog("explored_schedule_count_is_stable");
    let scenario = delete_window_scenario("inline-two-child-delete-count");
    let first = explore_schedules_with(make_inline, &scenario, bounded(1), validate);
    first.assert_clean(scenario.name);
    let second = explore_schedules_with(make_inline, &scenario, bounded(1), validate);
    assert_eq!(
        first.schedules, second.schedules,
        "same scenario and bound must enumerate the same schedule set"
    );
    if first.completed && second.completed {
        assert_eq!(
            first.schedules, 24,
            "bound-1 schedule count drifted — a yield point appeared or vanished \
             in the delete window; re-harvest if deliberate"
        );
    }
}

#[test]
fn inline_delete_skip_synchronize_mutant_is_caught() {
    let _wd = stress_watchdog("inline_delete_skip_synchronize_mutant_is_caught");
    let scenario = delete_window_scenario("inline-two-child-delete-mutant");
    let mutated = make_inline_mutant("citrus/remove/skip-synchronize");
    let report = explore_schedules_with(&mutated, &scenario, bounded(2), validate);
    let failure = report
        .failure
        .expect("skipping the delete-path synchronize_rcu must be caught");
    eprintln!("[mutant] inline delete minimal schedule: {failure}");
    assert_eq!(
        failure.preemptions, 1,
        "iterative deepening must find a 1-preemption witness first"
    );
    assert!(
        failure.reason.contains("non-linearizable"),
        "the witness must be a linearizability violation, got: {}",
        failure.reason
    );
    // The reported schedule is a replayable witness...
    let rerun = replay_schedule_with(&mutated, &scenario, &failure.schedule, validate);
    assert!(
        rerun.verdict.is_err() || !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    // ...and the failure is the mutant's: the same schedule passes with
    // the real synchronize_rcu back in place.
    let fixed = replay_schedule_with(make_inline, &scenario, &failure.schedule, validate);
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once the grace period is restored: {:?}",
        fixed.verdict
    );
}

/// Satellite pinned regression: the minimal inline-delete schedule the
/// mutant sweep discovered, replayed forever against the real code. The
/// mutant leg keeps the pin honest — if instrumentation drift makes the
/// schedule stop exercising the window (stale decisions, or a pass even
/// with the grace period skipped), this fails and the constant must be
/// re-harvested from `inline_delete_skip_synchronize_mutant_is_caught`.
#[test]
fn pinned_inline_delete_schedule_regression() {
    let _wd = stress_watchdog("pinned_inline_delete_schedule_regression");
    let scenario = delete_window_scenario("inline-two-child-delete-pinned");
    let run = replay_schedule_with(
        make_inline,
        &scenario,
        PINNED_INLINE_DELETE_SCHEDULE,
        validate,
    );
    assert!(
        run.outcome.clean() && run.verdict.is_ok(),
        "pinned schedule regressed: {:?} / {:?}",
        run.outcome.failure_reason(),
        run.verdict
    );
    let mutant = replay_schedule_with(
        make_inline_mutant("citrus/remove/skip-synchronize"),
        &scenario,
        PINNED_INLINE_DELETE_SCHEDULE,
        validate,
    );
    assert!(
        mutant.verdict.is_err() || !mutant.outcome.clean(),
        "pinned schedule no longer exercises the delete window — re-harvest it"
    );
}

// ---- Ordered reads: validated traversal windows (DESIGN.md §6i) -------

/// remove(20) takes the two-child path while a full-range scan runs: the
/// weak-BST window where the spliced successor copy and the not-yet
/// unlinked original are both reachable with key 25. The scan must
/// either restart (validation catches the splice) or dedup the adjacent
/// duplicate — never return 20 and 25's states torn across the window.
fn scan_window_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

#[test]
fn scan_vs_inline_two_child_delete_sweep_is_clean() {
    let _wd = stress_watchdog("scan_vs_inline_two_child_delete_sweep_is_clean");
    let scenario = scan_window_scenario("scan-vs-inline-two-child-delete");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    for point in [
        "citrus/scan/step",
        "citrus/scan/validate",
        "citrus/remove/before-synchronize",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// Torn-scan scenario with no grace periods anywhere (leaf remove plus a
/// fresh insert): an unvalidated traversal preempted between visiting 10
/// and descending into 30's subtree collects BOTH the removed 10 and the
/// later-inserted 25 — a set no instant ever held, since the writer
/// removes before inserting.
fn torn_scan_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300)])
        .thread(&[ScenarioOp::Remove(10), ScenarioOp::Insert(25, 250)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

/// The scan harness has teeth: with per-edge validation skipped, the
/// explorer must find the torn traversal at a low preemption bound, the
/// reported schedule must replay to the same failure, and the identical
/// schedule must pass once validation is back on.
#[test]
fn scan_skip_validation_mutant_is_caught() {
    let _wd = stress_watchdog("scan_skip_validation_mutant_is_caught");
    let scenario = torn_scan_scenario("torn-scan-mutant");
    let mutated = make_inline_mutant("citrus/scan/skip-validation");
    let report = explore_schedules_with(&mutated, &scenario, bounded(2), validate);
    let failure = report
        .failure
        .expect("skipping scan validation must be caught");
    eprintln!("[mutant] torn-scan minimal schedule: {failure}");
    assert!(
        failure.preemptions <= 2,
        "iterative deepening must find a low-bound witness, got {}",
        failure.preemptions
    );
    assert!(
        failure.reason.contains("non-linearizable"),
        "the witness must be a linearizability violation, got: {}",
        failure.reason
    );
    let rerun = replay_schedule_with(&mutated, &scenario, &failure.schedule, validate);
    assert!(
        rerun.verdict.is_err() || !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    let fixed = replay_schedule_with(make_inline, &scenario, &failure.schedule, validate);
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once validation is restored: {:?}",
        fixed.verdict
    );
}

/// The same torn-scan scenario with validation on: every interleaving up
/// to the bound restarts instead of returning a torn result.
#[test]
fn torn_scan_sweep_is_clean_with_validation() {
    let _wd = stress_watchdog("torn_scan_sweep_is_clean_with_validation");
    let scenario = torn_scan_scenario("torn-scan-validated");
    let report = explore_schedules_with(make_inline, &scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
}

// ---- Update protocol and RCU reclamation (DESIGN.md §7) ------------

/// `Epoch` mode: every removed node is freed after its remover's next
/// grace period.
fn make_epoch() -> Tree {
    Tree::with_reclaim(ReclaimMode::Epoch)
}

/// Sweeps `scenario` on `Epoch` trees at bound 2, asserts it is clean,
/// and asserts a complete sweep reached every one of `points`.
fn sweep_epoch_window(scenario: &ScheduleScenario, points: &[&str]) {
    let report = explore_schedules_with(make_epoch, scenario, bounded(2), validate);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    for point in points {
        assert!(
            report.points_hit.contains(*point),
            "{}: sweep never reached {point}; hit: {:?}",
            scenario.name,
            report.points_hit
        );
    }
}

/// insert(22) lands under 25 — the successor that remove(20) copies and
/// then unlinks after its grace period. The insert takes `prev` with
/// `try_lock` inside its read-side section and validates it there, so
/// every interleaving either links 22 before the delete locks 25 (whose
/// validation then fails), finds the lock busy and re-searches, or
/// validates against the post-delete shape. No schedule may wait for a
/// lock inside a section the delete's `synchronize_rcu` is waiting for.
#[test]
fn insert_in_section_lock_vs_two_child_delete_sweep_is_clean() {
    let _wd = stress_watchdog("insert_in_section_lock_vs_two_child_delete_sweep_is_clean");
    let scenario = ScheduleScenario::new("insert-in-section-lock-vs-two-child-delete")
        .prefill(&[(20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Insert(22, 220), ScenarioOp::Get(25)]);
    sweep_epoch_window(
        &scenario,
        &[
            "citrus/insert/locked-in-section",
            "citrus/remove/before-synchronize",
            "citrus/update/lock-busy",
            "rcu-global-lock/synchronize/reader-wait",
        ],
    );
}

/// remove(30) races remove(20), whose successor's parent is 30: each
/// delete takes a lock inside a read-side section that the other holds
/// across its own window (30 as the first delete's `prev_succ`, 20 as
/// the second's `prev`), so the sweep covers a remove between its
/// in-section `try_lock` and validation while the two-child delete
/// synchronizes.
#[test]
fn remove_in_section_lock_vs_two_child_delete_sweep_is_clean() {
    let _wd = stress_watchdog("remove_in_section_lock_vs_two_child_delete_sweep_is_clean");
    let scenario = ScheduleScenario::new("remove-in-section-lock-vs-two-child-delete")
        .prefill(&[(20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Remove(30), ScenarioOp::Get(25)]);
    sweep_epoch_window(
        &scenario,
        &[
            "citrus/remove/locked-in-section",
            "citrus/remove/succ-parent-locked-in-section",
            "citrus/remove/before-synchronize",
            "citrus/update/lock-busy",
        ],
    );
}

/// remove(20) holds 50 (its `prev`) across `synchronize_rcu`; remove(50)
/// locks the sentinel above 50 inside its section, validates, leaves the
/// section and then waits for 50 — an anchored child, which cannot be
/// unlinked or freed while its parent's lock is held. The wait happens
/// outside every read-side section, so the grace period completes and
/// both deletes finish in every interleaving.
#[test]
fn anchored_child_wait_vs_synchronize_sweep_is_clean() {
    let _wd = stress_watchdog("anchored_child_wait_vs_synchronize_sweep_is_clean");
    let scenario = ScheduleScenario::new("anchored-child-wait-vs-synchronize")
        .prefill(&[(50, 500), (20, 200), (10, 100), (30, 300), (25, 250)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Remove(50)]);
    sweep_epoch_window(
        &scenario,
        &[
            "citrus/remove/before-synchronize",
            "sync/spin/lock-wait",
            "rcu-global-lock/synchronize/scan-step",
        ],
    );
}

/// remove(10) unlinks a leaf, and its session frees the node when it
/// drops at the end of the thread — after the grace period it waits for
/// there — while a reader looks 10 up and a scan walks across it.
fn retire_list_free_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (10, 100), (30, 300)])
        .thread(&[ScenarioOp::Remove(10)])
        .thread(&[ScenarioOp::Get(10)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

#[test]
fn retire_list_free_vs_reader_and_scan_sweep_is_clean() {
    let _wd = stress_watchdog("retire_list_free_vs_reader_and_scan_sweep_is_clean");
    let scenario = retire_list_free_scenario("retire-list-free-vs-reader-and-scan");
    sweep_epoch_window(
        &scenario,
        &[
            "citrus/search/step",
            "citrus/scan/step",
            "rcu-global-lock/synchronize/reader-wait",
        ],
    );
}

/// The reclamation harness has teeth: a session that frees its retire
/// list without waiting for the grace period must be caught — a reader
/// still inside its section reaches the freed node — and the same
/// schedule must pass on a tree built without the mutant.
#[test]
fn free_before_grace_period_mutant_is_caught() {
    let _wd = stress_watchdog("free_before_grace_period_mutant_is_caught");
    let scenario = retire_list_free_scenario("free-before-grace-period-mutant");
    let mutated = || {
        let tree = make_epoch();
        tree.mutants()
            .enable("citrus/reclaim/free-before-grace-period");
        tree
    };
    let report = explore_schedules_with(mutated, &scenario, bounded(2), validate);
    let failure = report
        .failure
        .expect("freeing the retire list before the grace period must be caught");
    eprintln!("[mutant] free-before-grace-period minimal schedule: {failure}");
    assert_eq!(
        failure.preemptions, 1,
        "iterative deepening must find a 1-preemption witness first"
    );
    assert!(
        failure.reason.contains("use after free"),
        "the witness must be a reader reaching a freed node, got: {}",
        failure.reason
    );
    let rerun = replay_schedule_with(mutated, &scenario, &failure.schedule, validate);
    assert!(
        !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    let fixed = replay_schedule_with(make_epoch, &scenario, &failure.schedule, validate);
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once the grace period is restored: {:?} / {:?}",
        fixed.outcome.failure_reason(),
        fixed.verdict
    );
}

// ---- Range-routed forest: partial fan-out windows (DESIGN.md §6j) -----

/// A 2-shard range forest with its splitter at 16: keys below 16 live in
/// shard 0, the rest in shard 1.
fn make_range_forest() -> Forest {
    Forest::with_range_router_options(vec![16], ReclaimMode::Leak)
}

fn validate_forest(forest: &mut Forest) -> Result<(), String> {
    forest
        .validate_structure()
        .map(|_| ())
        .map_err(|v| format!("forest invariant violated: {v:?}"))
}

/// remove(20) takes the two-child path inside shard 1 (children 18 and
/// 30, successor 25) while a cross-shard scan runs. The scan's partial
/// fan-out enters both shards — 10 lives in shard 0 — and must validate
/// the per-shard traversals jointly: either it restarts on the splice or
/// it returns a set some instant really held, never 20/25 torn across
/// the window.
fn range_forest_scan_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (18, 180), (30, 300), (25, 250), (10, 100)])
        .thread(&[ScenarioOp::Remove(20)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

#[test]
fn range_forest_scan_window_sweep_is_clean() {
    let _wd = stress_watchdog("range_forest_scan_window_sweep_is_clean");
    let scenario = range_forest_scan_scenario("range-forest-scan-vs-two-child-delete");
    let report = explore_schedules_with(make_range_forest, &scenario, bounded(2), validate_forest);
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(report.schedules > 1, "sweep must enumerate real schedules");
    for point in [
        "citrus/scan/step",
        "forest/scan/validate",
        "citrus/remove/before-synchronize",
    ] {
        assert!(
            report.points_hit.contains(point),
            "sweep never reached {point}; hit: {:?}",
            report.points_hit
        );
    }
}

/// Torn-scan scenario inside shard 1 of the range forest (leaf remove of
/// 18 plus a fresh insert of 25 under 30): an unvalidated traversal
/// preempted between the two can collect both — a set no instant held.
fn range_forest_torn_scan_scenario(name: &'static str) -> ScheduleScenario {
    ScheduleScenario::new(name)
        .prefill(&[(20, 200), (18, 180), (30, 300), (10, 100)])
        .thread(&[ScenarioOp::Remove(18), ScenarioOp::Insert(25, 250)])
        .thread(&[ScenarioOp::Scan(0, 100)])
}

/// The partial fan-out's joint validation has teeth too: with validation
/// skipped, the explorer must find the torn cross-shard traversal at a
/// low preemption bound, the reported schedule must replay to the same
/// failure, and the identical schedule must pass once validation is back.
#[test]
fn range_forest_scan_skip_validation_mutant_is_caught() {
    let _wd = stress_watchdog("range_forest_scan_skip_validation_mutant_is_caught");
    let scenario = range_forest_torn_scan_scenario("range-forest-torn-scan-mutant");
    let mutated = || {
        let forest = make_range_forest();
        forest.mutants().enable("citrus/scan/skip-validation");
        forest
    };
    let report = explore_schedules_with(mutated, &scenario, bounded(2), validate_forest);
    let failure = report
        .failure
        .expect("skipping the partial fan-out's validation must be caught");
    eprintln!("[mutant] range-forest torn-scan minimal schedule: {failure}");
    assert!(
        failure.preemptions <= 2,
        "iterative deepening must find a low-bound witness, got {}",
        failure.preemptions
    );
    assert!(
        failure.reason.contains("non-linearizable"),
        "the witness must be a linearizability violation, got: {}",
        failure.reason
    );
    let rerun = replay_schedule_with(mutated, &scenario, &failure.schedule, validate_forest);
    assert!(
        rerun.verdict.is_err() || !rerun.outcome.clean(),
        "replaying the failing schedule must reproduce the failure"
    );
    let fixed = replay_schedule_with(
        make_range_forest,
        &scenario,
        &failure.schedule,
        validate_forest,
    );
    assert!(
        fixed.outcome.clean() && fixed.verdict.is_ok(),
        "the minimal schedule must pass once validation is restored: {:?}",
        fixed.verdict
    );
}

/// The same torn-scan scenario with validation on: every interleaving up
/// to the bound restarts instead of returning a torn result.
#[test]
fn range_forest_torn_scan_sweep_is_clean_with_validation() {
    let _wd = stress_watchdog("range_forest_torn_scan_sweep_is_clean_with_validation");
    let scenario = range_forest_torn_scan_scenario("range-forest-torn-scan-validated");
    let report = explore_schedules_with(make_range_forest, &scenario, bounded(2), validate_forest);
    report.assert_clean(scenario.name);
}

/// Finds one key per shard of a 2-shard forest by probing the shard trees
/// directly (routing is hash-based, so the constants are not obvious).
fn keys_in_distinct_shards() -> (u64, u64) {
    let forest = Forest::with_config(2, 0, ReclaimMode::Leak);
    let mut session = forest.session();
    let mut per_shard: [Option<u64>; 2] = [None, None];
    for k in 0..64 {
        session.insert(k, k);
        for (i, slot) in per_shard.iter_mut().enumerate() {
            if slot.is_none() && forest.shard(i).session().get(&k).is_some() {
                *slot = Some(k);
            }
        }
        if let [Some(a), Some(b)] = per_shard {
            return (a, b);
        }
    }
    panic!("no key pair split across 2 shards in 0..64");
}

/// Cross-shard independence: two threads updating keys routed to
/// different shards share no locks and no RCU domain, so every
/// interleaving must be clean — and the sweep proves it for all of them,
/// not just the ones a stress run happens to sample.
#[test]
fn forest_cross_shard_sweep_is_clean() {
    let _wd = stress_watchdog("forest_cross_shard_sweep_is_clean");
    let (a, b) = keys_in_distinct_shards();
    let scenario = ScheduleScenario::new("forest-cross-shard")
        .prefill(&[(a, 1)])
        .thread(&[ScenarioOp::Remove(a), ScenarioOp::Get(a)])
        .thread(&[ScenarioOp::Insert(b, 2), ScenarioOp::Get(b)]);
    let make = || Forest::with_config(2, 0, ReclaimMode::Leak);
    let report = explore_schedules_with(make, &scenario, bounded(1), |_| Ok(()));
    report.assert_clean(scenario.name);
    if !report.completed {
        return;
    }
    assert!(
        report.points_hit.contains("forest/route/before-shard"),
        "sweep never crossed the shard router; hit: {:?}",
        report.points_hit
    );
    assert_eq!(report.deadlocks, 0);
}

/// The explorer itself honors the wall-clock budget: an absurdly small
/// budget must cut the sweep short and say so, not hang or lie.
#[test]
fn explore_budget_marks_sweep_incomplete() {
    let _wd = stress_watchdog("explore_budget_marks_sweep_incomplete");
    let config = ExploreConfig {
        max_preemptions: 2,
        budget: Some(Duration::from_millis(0)),
        ..ExploreConfig::default()
    };
    let explorer = Explorer::new(config);
    let report = explorer.explore(|plan| citrus_api::testkit::ExploredRun {
        outcome: citrus_api::testkit::run_schedule(plan, vec![Box::new(|| {})]),
        verdict: Ok(()),
    });
    // A zero budget expires before the first run even starts.
    assert!(!report.completed, "zero budget cannot complete a sweep");
}
