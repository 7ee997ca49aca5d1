//! Scheduler + explorer semantics on toy scenarios (no tree involved):
//! determinism, blocking/wake, deadlock detection, coverage via the
//! registry, and a planted lost-update race that the explorer must find
//! at preemption bound 1 but not at bound 0.
#![cfg(feature = "chaos")]

use chaos::{ExploreConfig, ExploredRun, Explorer, SchedulePlan};
use citrus_chaos as chaos;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

fn run2<A, B>(plan: &SchedulePlan, a: A, b: B) -> chaos::ScheduleOutcome
where
    A: FnOnce() + Send,
    B: FnOnce() + Send,
{
    chaos::run_schedule(plan, vec![Box::new(a), Box::new(b)])
}

#[test]
fn encode_decode_round_trip() {
    let plan = SchedulePlan::new(vec![0, 1, 35, 9]);
    assert_eq!(plan.encode(), "01z9");
    assert_eq!(SchedulePlan::decode("01z9").unwrap(), plan);
    assert_eq!(SchedulePlan::decode("-").unwrap().decisions(), &[]);
    assert_eq!(SchedulePlan::decode("").unwrap().decisions(), &[]);
    assert!(SchedulePlan::decode("0!1").is_err());
}

#[test]
fn single_thread_runs_to_completion_without_branches() {
    let counter = AtomicU64::new(0);
    let outcome = chaos::run_schedule(
        &SchedulePlan::new(vec![]),
        vec![Box::new(|| {
            for _ in 0..3 {
                chaos::point!("toy/single/step");
                counter.fetch_add(1, Ordering::Relaxed);
            }
        })],
    );
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!(counter.load(Ordering::Relaxed), 3);
    assert!(outcome.branches.is_empty(), "one thread can never branch");
    assert_eq!(outcome.steps, 3);
}

#[test]
fn same_plan_same_run() {
    let run = |plan: &SchedulePlan| {
        let log: std::sync::Mutex<Vec<(u8, u64)>> = std::sync::Mutex::new(Vec::new());
        let x = AtomicU64::new(0);
        let outcome = run2(
            plan,
            || {
                for _ in 0..2 {
                    chaos::point!("toy/det/a");
                    let v = x.fetch_add(1, Ordering::Relaxed);
                    log.lock().unwrap().push((0, v));
                }
            },
            || {
                for _ in 0..2 {
                    chaos::point!("toy/det/b");
                    let v = x.fetch_add(1, Ordering::Relaxed);
                    log.lock().unwrap().push((1, v));
                }
            },
        );
        (outcome.branches, outcome.trace, log.into_inner().unwrap())
    };
    let plan = SchedulePlan::decode("101").unwrap();
    assert_eq!(run(&plan), run(&plan), "same plan must replay identically");
}

#[test]
fn default_policy_adds_zero_preemptions() {
    let outcome = run2(
        &SchedulePlan::new(vec![]),
        || {
            for _ in 0..3 {
                chaos::point!("toy/default/a");
            }
        },
        || {
            for _ in 0..3 {
                chaos::point!("toy/default/b");
            }
        },
    );
    assert!(outcome.clean(), "{outcome:?}");
    assert_eq!(
        outcome.preemptions, 0,
        "continue-current/lowest-id default must never preempt"
    );
}

#[test]
fn blocked_thread_wakes_on_hint() {
    // Thread 0 waits for a flag that only thread 1 sets: every schedule
    // must complete (the scheduler may not strand the waiter), and under
    // the empty plan thread 0 runs first, so the wait is actually taken.
    let explorer = Explorer::with_bound(2);
    let report = explorer.explore(|plan| {
        let flag = AtomicBool::new(false);
        let outcome = run2(
            plan,
            || {
                while !flag.load(Ordering::Acquire) {
                    chaos::blocked!("toy/wait/flag");
                    std::hint::spin_loop();
                }
            },
            || {
                chaos::point!("toy/wait/before-set");
                flag.store(true, Ordering::Release);
                chaos::wake_hint();
            },
        );
        ExploredRun {
            verdict: if outcome.clean() {
                Ok(())
            } else {
                Err(format!("{outcome:?}"))
            },
            outcome,
        }
    });
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(report.completed);
    assert_eq!(report.deadlocks, 0);
    assert!(report.points_hit.contains("toy/wait/flag"));
}

#[test]
fn all_blocked_is_reported_as_deadlock() {
    let flag = AtomicBool::new(false);
    let outcome = chaos::run_schedule(
        &SchedulePlan::new(vec![]),
        vec![Box::new(|| {
            while !flag.load(Ordering::Acquire) {
                chaos::blocked!("toy/deadlock/flag");
                std::hint::spin_loop();
            }
        })],
    );
    assert!(outcome.deadlocked, "{outcome:?}");
    assert!(!outcome.clean());
    assert!(outcome.failure_reason().unwrap().contains("deadlock"));
}

#[test]
fn stale_decision_is_reported_not_panicked() {
    // Decision 5 can never be eligible in a 2-thread run.
    let outcome = run2(
        &SchedulePlan::decode("5").unwrap(),
        || chaos::point!("toy/stale/a"),
        || chaos::point!("toy/stale/b"),
    );
    assert!(outcome.stale, "{outcome:?}");
}

#[test]
fn step_budget_aborts_livelock() {
    let outcome = chaos::run_schedule(
        &SchedulePlan::new(vec![]).with_max_steps(100),
        vec![Box::new(|| loop {
            chaos::point!("toy/livelock/spin");
        })],
    );
    assert!(outcome.step_limit_hit, "{outcome:?}");
}

#[test]
fn scenario_panics_are_findings_not_crashes() {
    let outcome = run2(
        &SchedulePlan::new(vec![]),
        || chaos::point!("toy/panic/a"),
        || panic!("planted scenario panic"),
    );
    assert_eq!(outcome.panics.len(), 1);
    assert!(outcome.panics[0].contains("planted scenario panic"));
    assert!(outcome.failure_reason().unwrap().contains("planted"));
}

#[test]
fn registry_sees_fired_sites() {
    chaos::point!("toy/registry/probe");
    let _ = chaos::should_fail!("toy/registry/fail-probe");
    let points = chaos::all_points();
    let find = |n: &str| points.iter().find(|p| p.name == n).copied();
    assert_eq!(
        find("toy/registry/probe").map(|p| p.kind),
        Some(chaos::PointKind::Yield)
    );
    assert_eq!(
        find("toy/registry/fail-probe").map(|p| p.kind),
        Some(chaos::PointKind::Fail)
    );
}

/// A mutant is visible through the set it was enabled on and its clones
/// only: a structure that owns another set never runs the mutated code.
#[test]
fn mutants_are_scoped_to_their_set() {
    let mutants = chaos::Mutants::new();
    let shared = mutants.clone();
    let unrelated = chaos::Mutants::new();
    assert!(!mutants.enabled("toy/mutant/x"));
    mutants.enable("toy/mutant/x");
    assert!(mutants.enabled("toy/mutant/x"));
    assert!(shared.enabled("toy/mutant/x"));
    assert!(!mutants.enabled("toy/mutant/y"));
    assert!(!unrelated.enabled("toy/mutant/x"));
}

/// The classic lost update: both threads read-modify-write a counter
/// with a yield point between the read and the write. Sequential (and
/// any zero-preemption) schedules end at 2; only a mid-RMW preemption
/// loses an update. The explorer must miss it at bound 0 and find it at
/// bound 1, with a schedule that replays to the same verdict.
#[test]
fn explorer_finds_lost_update_at_bound_one() {
    let run_once = |plan: &SchedulePlan| {
        let x = AtomicU64::new(0);
        let rmw = || {
            let v = x.load(Ordering::SeqCst);
            chaos::point!("toy/race/mid-rmw");
            x.store(v + 1, Ordering::SeqCst);
        };
        let outcome = run2(plan, rmw, rmw);
        let finl = x.load(Ordering::SeqCst);
        ExploredRun {
            verdict: if !outcome.clean() {
                Err(format!("{outcome:?}"))
            } else if finl == 2 {
                Ok(())
            } else {
                Err(format!("lost update: final={finl}"))
            },
            outcome,
        }
    };

    let bound0 = Explorer::with_bound(0).explore(run_once);
    assert!(
        bound0.failure.is_none(),
        "no lost update without preemption: {:?}",
        bound0.failure
    );
    assert!(bound0.completed);

    let bound1 = Explorer::with_bound(1).explore(run_once);
    let failure = bound1.failure.expect("bound 1 must expose the lost update");
    assert!(failure.reason.contains("lost update"), "{failure}");
    assert_eq!(
        failure.preemptions, 1,
        "minimal schedule uses one preemption"
    );

    // The reported schedule replays deterministically to the same verdict.
    let replay = run_once(&SchedulePlan::decode(&failure.schedule).unwrap());
    assert!(replay.verdict.is_err(), "replay must reproduce the failure");
}

/// For a fixed scenario and bound the number of distinct schedules is a
/// deterministic property of the failpoint graph; a second sweep must
/// agree exactly. (The tree-level sweeps additionally pin the absolute
/// counts — see crates/core/tests/explore_windows.rs.)
#[test]
fn sweep_counts_are_stable() {
    let sweep = || {
        let explorer = Explorer::new(ExploreConfig {
            max_preemptions: 2,
            stop_on_failure: false,
            ..ExploreConfig::default()
        });
        explorer.explore(|plan| {
            let x = AtomicU64::new(0);
            let body = || {
                for _ in 0..2 {
                    chaos::point!("toy/stable/step");
                    x.fetch_add(1, Ordering::Relaxed);
                }
            };
            let outcome = run2(plan, body, body);
            ExploredRun {
                verdict: if outcome.clean() {
                    Ok(())
                } else {
                    Err(format!("{outcome:?}"))
                },
                outcome,
            }
        })
    };
    let (a, b) = (sweep(), sweep());
    assert!(a.completed && b.completed);
    assert!(a.failure.is_none());
    assert_eq!(
        a.schedules, b.schedules,
        "enumeration must be deterministic"
    );
    assert!(a.schedules > 1, "2×2-step scenario has real branching");
}
