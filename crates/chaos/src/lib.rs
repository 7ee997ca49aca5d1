//! Deterministic schedule perturbation and fault injection for the Citrus
//! reproduction.
//!
//! The paper's correctness argument rests on razor-thin interleavings —
//! validate-after-lock, tag checks on ⊥ children, the `synchronize_rcu` in
//! the delete path. Plain stress tests only probe the schedules the OS
//! happens to produce; this crate widens the race windows on purpose.
//!
//! Instrumented crates call [`point`] at linearization-sensitive sites and
//! [`should_fail`] where a forced (correctness-preserving) restart is
//! possible. With the `chaos` cargo feature **off** — the default — every
//! failpoint is an empty `#[inline]` function and [`ChaosGuard`] is
//! zero-sized, mirroring the zero-cost pattern of `citrus-obs`. With it
//! **on**, an installed [`ChaosPlan`] makes each firing roll (from a
//! SplitMix64 stream seeded by the plan seed and the thread's stream id)
//! whether to yield, spin-delay, or force a restart, so any interleaving a
//! sweep finds is replayable from its seed.
//!
//! Failpoint names follow `component/operation/site`, e.g.
//! `citrus/insert/after-validate` or `rcu-scalable/synchronize/scan-step`.
//!
//! # Example
//!
//! ```
//! use citrus_chaos as chaos;
//!
//! let _guard = chaos::install(chaos::ChaosPlan::from_seed(0xC17).traced(true));
//! chaos::set_thread_stream(0);
//! chaos::point("example/op/site");
//! if chaos::should_fail("example/op/force-restart") {
//!     // retry the operation (never taken unless built with `chaos`)
//! }
//! let trace = chaos::take_trace(); // decisions, in firing order
//! assert_eq!(trace.is_empty(), !chaos::chaos_enabled());
//! ```

//! # Deterministic schedules
//!
//! Random plans *sample* interleavings; a [`SchedulePlan`] *enumerates*
//! them. Under [`run_schedule`] every failpoint becomes a cooperative
//! yield point and exactly one registered thread runs at a time, driven
//! by an explicit decision sequence whose compact encoding
//! (`CITRUS_SCHEDULE=<string>`) replays one interleaving exactly. The
//! [`Explorer`] DFS-enumerates all schedules of a bounded scenario with
//! memoized prefix pruning and iteratively deepened preemption bounds
//! (context-bounded search). See `DESIGN.md` §6h for the model and its
//! soundness caveats.
//!
//! Sites register themselves via the [`point!`], [`should_fail!`], and
//! [`blocked!`] macros; [`all_points`] lists everything reached so far so
//! sweeps can assert coverage. [`Mutants`]-guarded test-only
//! mutations let the suite prove the explorer actually catches bugs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod explore;
mod mutant;
mod plan;
mod point;
mod registry;
mod sched;

pub use explore::{
    budget_from_env, ExploreConfig, ExploreReport, ExploredRun, Explorer, ScheduleFailure,
};
pub use mutant::Mutants;
pub use plan::ChaosPlan;
pub use point::{
    active_plan_seed, chaos_active, chaos_enabled, install, point, set_thread_stream, should_fail,
    take_trace, ChaosAction, ChaosGuard, TraceEntry,
};
pub use registry::{
    all_points, fire_blocked, fire_point, fire_should_fail, PointKind, PointSite, RegisteredPoint,
};
pub use sched::{
    active_schedule, run_schedule, wake_hint, BranchPoint, ScheduleOutcome, SchedulePlan,
    DEFAULT_MAX_STEPS, MAX_SCHED_THREADS,
};

/// One copy-pasteable line reproducing the current perturbation context:
/// the active deterministic schedule if one is running, else the
/// installed chaos plan's seed. `None` when neither is active (or the
/// `chaos` feature is off). Watchdogs and failure reports print this so
/// the schedule context is never lost on a livelock or oracle failure.
#[must_use]
pub fn replay_recipe() -> Option<String> {
    if let Some(s) = active_schedule() {
        return Some(format!("CITRUS_SCHEDULE={s}"));
    }
    active_plan_seed().map(|seed| format!("ChaosPlan::from_seed({seed:#x})"))
}
