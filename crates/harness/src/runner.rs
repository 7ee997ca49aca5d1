//! Timed throughput runs (the paper's measurement loop).

use crate::workload::{Algo, OpKind, WorkloadSpec};
use citrus::{
    CitrusForest, CitrusTree, GlobalLockRcu, RcuFlavor, ReclaimMode, RouterKind, ScalableRcu,
};
use citrus_api::testkit::SplitMix64;
use citrus_api::{ConcurrentMap, MapSession};
use citrus_baselines::{
    BonsaiTree, LazySkipList, LockFreeBst, OptimisticAvlTree, RelativisticRbTree,
};
use citrus_obs::MetricsRegistry;
use core::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A worker thread that panicked during a timed run.
#[derive(Debug, Clone)]
pub struct WorkerPanic {
    /// Worker index (position in [`RunResult::per_thread`]).
    pub thread: usize,
    /// The panic payload, stringified.
    pub message: String,
}

/// Result of one timed run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total operations completed across all threads.
    pub total_ops: u64,
    /// Measured wall-clock duration.
    pub duration: Duration,
    /// Operations completed per thread (`0` for a panicked worker).
    pub per_thread: Vec<u64>,
    /// Workers that panicked instead of finishing. A run with panics is
    /// *degraded*: surviving workers' throughput is still reported, so one
    /// crashed thread does not discard a whole benchmark sweep.
    pub panics: Vec<WorkerPanic>,
}

impl RunResult {
    /// Overall throughput in operations per second (the paper's y-axis).
    pub fn throughput(&self) -> f64 {
        self.total_ops as f64 / self.duration.as_secs_f64()
    }

    /// `true` when at least one worker panicked (see [`Self::panics`]).
    pub fn is_degraded(&self) -> bool {
        !self.panics.is_empty()
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3e} ops/s ({} ops in {:?})",
            self.throughput(),
            self.total_ops,
            self.duration
        )?;
        if self.is_degraded() {
            write!(f, " [DEGRADED: {} worker(s) panicked]", self.panics.len())?;
        }
        Ok(())
    }
}

/// Stringifies a payload from [`std::thread::JoinHandle::join`]'s error.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Pre-fills `map` with `spec.prefill` distinct random keys from the key
/// range (the paper pre-fills to half the range).
fn prefill<M: ConcurrentMap<u64, u64>>(map: &M, spec: &WorkloadSpec, seed: u64) {
    // `WorkloadSpec` fields are `pub`: a hand-built spec can ask for more
    // distinct prefilled keys than the key range holds, which would spin
    // the rejection loop below forever. Fail with a diagnosis instead.
    assert!(
        spec.prefill <= spec.key_range,
        "workload prefill ({}) exceeds key range ({}): cannot prefill more \
         distinct keys than the range contains",
        spec.prefill,
        spec.key_range
    );
    let mut rng = SplitMix64::new(seed);
    let mut session = map.session();
    let mut inserted = 0;
    while inserted < spec.prefill {
        let key = rng.below(spec.key_range);
        if session.insert(key, key.wrapping_mul(2) + 1) {
            inserted += 1;
        }
    }
}

/// Runs the paper's measurement loop against `map`: pre-fill, then
/// `spec.threads` workers each executing random operations for
/// `spec.duration`, returning aggregate throughput.
pub fn run_throughput<M: ConcurrentMap<u64, u64>>(
    map: &M,
    spec: &WorkloadSpec,
    seed: u64,
) -> RunResult {
    assert!(spec.threads > 0, "at least one worker required");
    prefill(map, spec, seed ^ 0xF177);

    // Built once (the Zipfian tables cost O(key_range)) and cloned per
    // worker; draws stay seeded per thread.
    let sampler = spec.key_dist.sampler(spec.key_range);
    let stop = AtomicBool::new(false);
    // Workers + the timer thread all start together.
    let barrier = Barrier::new(spec.threads + 1);
    let mut per_thread = vec![0u64; spec.threads];

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(spec.threads);
        for t in 0..spec.threads {
            let (stop, barrier) = (&stop, &barrier);
            let spec = spec.clone();
            let sampler = sampler.clone();
            let map = &*map;
            handles.push(scope.spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                let mut session = map.session();
                // Figure 9: thread 0 is the sole updater (50% insert, 50%
                // delete); all other threads only search.
                let mix = if spec.single_writer {
                    if t == 0 {
                        crate::workload::OpMix::updates_only()
                    } else {
                        crate::workload::OpMix::read_only()
                    }
                } else {
                    spec.mix
                };
                let mut ops = 0u64;
                barrier.wait();
                while !stop.load(Ordering::Relaxed) {
                    // Batch a few operations per stop-flag check.
                    for _ in 0..32 {
                        let key = sampler.sample(&mut rng);
                        match mix.pick(rng.below(100) as u32) {
                            OpKind::Contains => {
                                std::hint::black_box(session.get(&key));
                            }
                            OpKind::Insert => {
                                std::hint::black_box(session.insert(key, key.wrapping_mul(2) + 1));
                            }
                            OpKind::Delete => {
                                std::hint::black_box(session.remove(&key));
                            }
                        }
                        ops += 1;
                    }
                }
                ops
            }));
        }
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(spec.duration);
        stop.store(true, Ordering::Relaxed);
        let elapsed = start.elapsed();
        let mut panics = Vec::new();
        for (t, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(ops) => per_thread[t] = ops,
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    eprintln!(
                        "[citrus-harness] worker {t} panicked: {message}; \
                         reporting a degraded result from the surviving workers"
                    );
                    panics.push(WorkerPanic { thread: t, message });
                }
            }
        }
        let total_ops = per_thread.iter().sum();
        RunResult {
            total_ops,
            duration: elapsed,
            per_thread,
            panics,
        }
    })
}

/// History-capture run mode: drives `spec.threads` workers for a
/// *bounded* number of operations each (instead of a timed duration),
/// recording every operation — including the prefill, which runs on its
/// own recorder lane — into a [`History`](citrus_api::lincheck::History)
/// ready for [`check_history`](citrus_api::lincheck::check_history).
///
/// The mix, key range, and single-writer mode come from `spec` exactly as
/// in [`run_throughput`], so a linearizability pass can replay the same
/// workload shape a benchmark measures. The map must start empty (the
/// checker replays from the empty state; the recorded prefill provides
/// it).
pub fn run_recorded<M: ConcurrentMap<u64, u64>>(
    map: &M,
    spec: &WorkloadSpec,
    ops_per_thread: usize,
    seed: u64,
) -> citrus_api::lincheck::History {
    use citrus_api::lincheck::{History, HistoryRecorder};

    assert!(spec.threads > 0, "at least one worker required");
    assert!(
        spec.prefill <= spec.key_range,
        "workload prefill ({}) exceeds key range ({})",
        spec.prefill,
        spec.key_range
    );
    let recorder = HistoryRecorder::new();

    // Prefill through a recorder lane of its own (index `spec.threads`):
    // it happens-before every worker op, so the checker sees it as a
    // sequential prefix instead of an unexplained initial state.
    let prefill_log = {
        let mut rng = SplitMix64::new(seed ^ 0xF177);
        let mut session = recorder.wrap(spec.threads, map.session());
        let mut inserted = 0;
        while inserted < spec.prefill {
            let key = rng.below(spec.key_range);
            if session.insert(key, key.wrapping_mul(2) + 1) {
                inserted += 1;
            }
        }
        session.finish()
    };

    let sampler = spec.key_dist.sampler(spec.key_range);
    let barrier = Barrier::new(spec.threads);
    let mut logs: Vec<Vec<citrus_api::lincheck::RecordedOp>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|t| {
                let (barrier, recorder, map) = (&barrier, &recorder, &*map);
                let spec = spec.clone();
                let sampler = sampler.clone();
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                    let mut session = recorder.wrap(t, map.session());
                    let mix = if spec.single_writer {
                        if t == 0 {
                            crate::workload::OpMix::updates_only()
                        } else {
                            crate::workload::OpMix::read_only()
                        }
                    } else {
                        spec.mix
                    };
                    barrier.wait();
                    for i in 0..ops_per_thread {
                        let key = sampler.sample(&mut rng);
                        match mix.pick(rng.below(100) as u32) {
                            OpKind::Contains => {
                                session.get(&key);
                            }
                            OpKind::Insert => {
                                // Unique values pin which insert a
                                // stale read observed.
                                session.insert(key, ((t as u64 + 1) << 32) | i as u64);
                            }
                            OpKind::Delete => {
                                session.remove(&key);
                            }
                        }
                    }
                    session.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("recording worker panicked"))
            .collect()
    });
    logs.push(prefill_log);
    History::from_thread_logs(logs)
}

/// Builds the structure for `algo` and runs the workload on it, averaging
/// `reps` repetitions (the paper averages five).
pub fn run_algo(algo: Algo, spec: &WorkloadSpec, reps: usize, seed: u64) -> f64 {
    run_algo_observed(algo, spec, reps, seed, None)
}

/// Like [`run_algo`], but when `observer` is `Some((registry, prefix))`
/// and `algo` is a Citrus variant, the **last** repetition's tree
/// registers its internal metrics (tree, RCU, reclamation) into
/// `registry` with every component name prefixed by `prefix`.
///
/// Only the last repetition is registered so the snapshot reflects one
/// structure's lifetime; baseline algorithms have no instruments and
/// ignore the observer.
pub fn run_algo_observed(
    algo: Algo,
    spec: &WorkloadSpec,
    reps: usize,
    seed: u64,
    observer: Option<(&MetricsRegistry, &str)>,
) -> f64 {
    let reps = reps.max(1);
    let mut sum = 0.0;
    for rep in 0..reps {
        let rep_seed = seed ^ (rep as u64) << 32;
        let observe = if rep + 1 == reps { observer } else { None };
        // Fresh structure per repetition, as in the paper.
        let r = match algo {
            Algo::Citrus => {
                let map: CitrusTree<u64, u64, ScalableRcu> =
                    CitrusTree::with_reclaim(ReclaimMode::Leak);
                if let Some((registry, prefix)) = observe {
                    map.register_metrics_prefixed(registry, prefix);
                }
                run_throughput(&map, spec, rep_seed)
            }
            Algo::CitrusStdRcu => {
                let map: CitrusTree<u64, u64, GlobalLockRcu> =
                    CitrusTree::with_reclaim(ReclaimMode::Leak);
                if let Some((registry, prefix)) = observe {
                    map.register_metrics_prefixed(registry, prefix);
                }
                run_throughput(&map, spec, rep_seed)
            }
            Algo::CitrusEpoch => {
                let map: CitrusTree<u64, u64, ScalableRcu> =
                    CitrusTree::with_reclaim(ReclaimMode::Epoch);
                if let Some((registry, prefix)) = observe {
                    map.register_metrics_prefixed(registry, prefix);
                }
                run_throughput(&map, spec, rep_seed)
            }
            Algo::Avl => {
                let map: OptimisticAvlTree<u64, u64> = OptimisticAvlTree::new();
                run_throughput(&map, spec, rep_seed)
            }
            Algo::Skiplist => {
                let map: LazySkipList<u64, u64> = LazySkipList::new();
                run_throughput(&map, spec, rep_seed)
            }
            Algo::LockFree => {
                let map: LockFreeBst<u64, u64> = LockFreeBst::new();
                run_throughput(&map, spec, rep_seed)
            }
            Algo::Rbtree => {
                let map: RelativisticRbTree<u64, u64> = RelativisticRbTree::new();
                run_throughput(&map, spec, rep_seed)
            }
            Algo::Bonsai => {
                let map: BonsaiTree<u64, u64> = BonsaiTree::new();
                run_throughput(&map, spec, rep_seed)
            }
        };
        sum += r.throughput();
    }
    sum / reps as f64
}

/// Result of a [`run_forest_observed`] sweep cell: mean throughput plus
/// the **last** repetition's per-shard counters — the direct evidence that
/// `synchronize_rcu` traffic and grace periods stay shard-local.
#[derive(Debug, Clone)]
pub struct ForestRun {
    /// Mean throughput across repetitions (ops per second).
    pub ops_per_s: f64,
    /// `synchronize_rcu` calls per shard (tree metrics; zeros with the
    /// `stats` feature off).
    pub sync_calls_per_shard: Vec<u64>,
    /// Grace periods completed by each shard's private RCU domain
    /// (always-on).
    pub grace_periods_per_shard: Vec<u64>,
    /// Final key count per shard (routing-skew diagnostics).
    pub occupancy: Vec<usize>,
}

/// Like [`run_algo_observed`] for a [`CitrusForest`] over flavor `F`:
/// builds a fresh forest with `shards` shards per repetition, runs the
/// workload, and reports mean throughput plus the last repetition's
/// per-shard counters. `router` picks the routing
/// policy (range routing splits the spec's key range evenly). The last
/// repetition registers its metrics into `observer` (with per-shard
/// component labels) when given.
pub fn run_forest_observed<F: RcuFlavor>(
    shards: usize,
    mode: ReclaimMode,
    router: RouterKind,
    spec: &WorkloadSpec,
    reps: usize,
    seed: u64,
    observer: Option<(&MetricsRegistry, &str)>,
) -> ForestRun {
    let reps = reps.max(1);
    let mut sum = 0.0;
    let mut last = None;
    for rep in 0..reps {
        let rep_seed = seed ^ (rep as u64) << 32;
        // Fresh structure per repetition, as in the paper. Sharding seed 0
        // keeps routing identical across flavors and repetitions.
        let forest: CitrusForest<u64, u64, F> =
            CitrusForest::with_router(router, shards, 0, spec.key_range, mode);
        if rep + 1 == reps {
            if let Some((registry, prefix)) = observer {
                forest.register_metrics_prefixed(registry, prefix);
            }
        }
        let r = run_throughput(&forest, spec, rep_seed);
        sum += r.throughput();
        if rep + 1 == reps {
            let mut forest = forest;
            let occupancy = forest.record_occupancy();
            last = Some(ForestRun {
                ops_per_s: 0.0,
                sync_calls_per_shard: forest.synchronize_calls_per_shard(),
                grace_periods_per_shard: forest.grace_periods_per_shard(),
                occupancy,
            });
        }
    }
    let mut run = last.expect("reps >= 1, so the last repetition ran");
    run.ops_per_s = sum / reps as f64;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::OpMix;

    #[test]
    fn throughput_run_produces_ops() {
        let map: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Leak);
        let spec = WorkloadSpec::new(
            1_000,
            OpMix::with_contains(50),
            2,
            Duration::from_millis(50),
        );
        let r = run_throughput(&map, &spec, 7);
        assert!(r.total_ops > 0);
        assert_eq!(r.per_thread.len(), 2);
        assert!(r.throughput() > 0.0);
        assert!(format!("{r}").contains("ops/s"));
    }

    #[test]
    fn prefill_reaches_target() {
        let map: CitrusTree<u64, u64> = CitrusTree::new();
        let spec = WorkloadSpec::new(500, OpMix::read_only(), 1, Duration::from_millis(1));
        prefill(&map, &spec, 3);
        let mut map = map;
        assert_eq!(map.len_quiescent(), 250);
    }

    // Regression: an impossible hand-built spec used to spin the prefill
    // rejection loop forever; it must abort with a diagnosis instead.
    #[test]
    #[should_panic(expected = "exceeds key range")]
    fn prefill_rejects_impossible_spec() {
        let map: CitrusTree<u64, u64> = CitrusTree::new();
        let mut spec = WorkloadSpec::new(100, OpMix::read_only(), 1, Duration::from_millis(1));
        spec.prefill = 101; // more distinct keys than the range holds
        prefill(&map, &spec, 3);
    }

    #[test]
    fn single_writer_mode_runs_every_algo() {
        for algo in Algo::FIGURE_SET {
            let spec = WorkloadSpec::single_writer(200, 2, Duration::from_millis(20));
            let tp = run_algo(algo, &spec, 1, 11);
            assert!(tp > 0.0, "{algo} produced no throughput");
        }
    }

    #[test]
    fn worker_panic_degrades_instead_of_propagating() {
        use std::sync::atomic::AtomicI64;

        /// Wraps a tree; one operation panics once the shared fuse burns.
        struct FusedMap {
            inner: CitrusTree<u64, u64>,
            fuse: AtomicI64,
        }

        struct FusedSession<'a> {
            inner: <CitrusTree<u64, u64> as ConcurrentMap<u64, u64>>::Session<'a>,
            fuse: &'a AtomicI64,
        }

        impl FusedSession<'_> {
            fn burn(&self) {
                if self.fuse.fetch_sub(1, Ordering::Relaxed) == 0 {
                    panic!("fuse burned");
                }
            }
        }

        impl ConcurrentMap<u64, u64> for FusedMap {
            type Session<'a> = FusedSession<'a>;
            const NAME: &'static str = "fused-citrus";
            fn session(&self) -> FusedSession<'_> {
                FusedSession {
                    inner: self.inner.session(),
                    fuse: &self.fuse,
                }
            }
        }

        impl MapSession<u64, u64> for FusedSession<'_> {
            fn get(&mut self, key: &u64) -> Option<u64> {
                self.burn();
                self.inner.get(key)
            }
            fn insert(&mut self, key: u64, value: u64) -> bool {
                self.burn();
                self.inner.insert(key, value)
            }
            fn remove(&mut self, key: &u64) -> bool {
                self.burn();
                self.inner.remove(key)
            }
        }

        let map = FusedMap {
            inner: CitrusTree::new(),
            // Burns partway through the measured phase (after the ~250
            // prefill inserts), on exactly one worker.
            fuse: AtomicI64::new(5_000),
        };
        let spec = WorkloadSpec::new(
            1_000,
            OpMix::with_contains(50),
            2,
            Duration::from_millis(100),
        );
        let r = run_throughput(&map, &spec, 21);
        assert!(r.is_degraded(), "the fuse should have burned one worker");
        assert_eq!(r.panics.len(), 1);
        assert!(r.panics[0].message.contains("fuse burned"));
        assert_eq!(r.per_thread[r.panics[0].thread], 0);
        assert!(
            r.total_ops > 0,
            "the surviving worker's ops must still be counted"
        );
        assert!(format!("{r}").contains("DEGRADED"));
    }

    #[test]
    fn recorded_run_captures_a_checkable_history() {
        let map: CitrusTree<u64, u64> = CitrusTree::with_reclaim(ReclaimMode::Leak);
        let spec = WorkloadSpec::new(64, OpMix::with_contains(40), 3, Duration::from_millis(1));
        let history = run_recorded(&map, &spec, 100, 0x5EC0);
        // 3 workers × 100 ops, plus the prefill lane: 32 granted inserts
        // (and any recorded duplicate attempts).
        assert!(history.ops.len() >= 3 * 100 + 32);
        let granted_prefills = history
            .ops
            .iter()
            .filter(|o| o.thread == 3 && o.ret == citrus_api::lincheck::Ret::Granted(true))
            .count();
        assert_eq!(granted_prefills, 32);
        // The prefill lane (index == threads) precedes every worker op.
        let max_prefill_ret = history
            .ops
            .iter()
            .filter(|o| o.thread == 3)
            .map(|o| o.ret_at)
            .max()
            .unwrap();
        let min_worker_inv = history
            .ops
            .iter()
            .filter(|o| o.thread < 3)
            .map(|o| o.inv)
            .min()
            .unwrap();
        assert!(
            max_prefill_ret < min_worker_inv,
            "prefill must precede workers"
        );
        citrus_api::lincheck::check_history(&history).expect("Citrus history must linearize");
    }

    #[test]
    fn forest_run_reports_per_shard_counters() {
        let spec = WorkloadSpec::new(400, OpMix::with_contains(50), 2, Duration::from_millis(30));
        for router in [RouterKind::Hash, RouterKind::Range] {
            let r = run_forest_observed::<ScalableRcu>(
                4,
                ReclaimMode::Epoch,
                router,
                &spec,
                1,
                17,
                None,
            );
            assert!(r.ops_per_s > 0.0);
            assert_eq!(r.sync_calls_per_shard.len(), 4);
            assert_eq!(r.grace_periods_per_shard.len(), 4);
            assert_eq!(r.occupancy.len(), 4);
            assert!(
                r.occupancy.iter().filter(|&&n| n > 0).count() >= 2,
                "uniform keys should populate most shards: {:?}",
                r.occupancy
            );
        }
    }

    #[test]
    fn zipfian_runs_hammer_the_hot_range_shard() {
        use crate::keydist::KeyDist;

        // Under range routing a Zipfian workload's hot keys are adjacent,
        // so shard 0 should absorb the bulk of the routed traffic — the
        // skew cost the bench's skew cells document.
        let spec = WorkloadSpec::new(400, OpMix::with_contains(50), 2, Duration::from_millis(30))
            .with_key_dist(KeyDist::Zipf { theta: 0.99 });
        let r = run_forest_observed::<ScalableRcu>(
            4,
            ReclaimMode::Leak,
            RouterKind::Range,
            &spec,
            1,
            23,
            None,
        );
        assert!(r.ops_per_s > 0.0);
        // Prefill stays uniform, so occupancy still spreads.
        assert!(
            r.occupancy.iter().filter(|&&n| n > 0).count() >= 2,
            "uniform prefill should populate most shards: {:?}",
            r.occupancy
        );
    }

    #[test]
    fn citrus_both_flavors_run() {
        let spec = WorkloadSpec::new(400, OpMix::with_contains(50), 3, Duration::from_millis(30));
        for algo in [Algo::Citrus, Algo::CitrusStdRcu, Algo::CitrusEpoch] {
            assert!(run_algo(algo, &spec, 1, 13) > 0.0);
        }
    }
}
