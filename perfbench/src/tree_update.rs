//! `tree-update`: closed loops on one `CitrusTree`, keys uniform over
//! [0, 20000) — about 1.3 MB of nodes, inside L2. No forest and no server:
//! the time goes to tree updates, the `synchronize` of two-child deletes,
//! and reclamation.
//!
//! The mix is the paper's Fig. 8 update mix (50 % contains, 25 % insert,
//! 25 % remove) with 2 % of draws replaced by 32-key range scans, so the
//! scan path is measured under the same update churn. The `heavy` phase
//! runs two threads (one per core) and gives the throughput; the `light`
//! phase runs one. A closed-loop client's latency is the wall time of its
//! call, sampled on every scan and every 16th other operation; a host
//! stall then delays only the one call in flight, not a queue of arrivals.

use crate::check::Checker;
use crate::gen::{prefill_keys, subseed, Mix, Op, OpStream};
use crate::hist::{Hist, Windows};
use crate::out::Report;
use crate::{
    class, exec, median, peak_rss_mb, quantile, Ctx, DomainCounters, RcuProbes, SessionTotals,
    Tally, PER_LAYER,
};
use citrus::{CitrusTree, RcuFlavor, ReclaimMode, ScalableRcu};
use citrus_harness::KeyDist;

const KEY_RANGE: u64 = 20_000;
const MIX: Mix = Mix::Fig8 {
    scan_pct: 2,
    span: 32,
};
/// A phase's throughput is read over this many equal slices, at their
/// upper quartile: host stalls only ever take throughput away.
const SLICES: usize = 20;
/// Threads look at the clock once per chunk of operations.
const CHUNK: u64 = 256;
/// Untimed operations between two sampled point operations.
const SAMPLE_EVERY: u64 = 16;
/// In the traced loop, thread 0 probes RCU once per this many chunks.
const PROBE_CHUNKS: u64 = 4;
const SETUPS: usize = 25;

type Tree = CitrusTree<u64, u64>;

fn build(prefill: &[u64], checker: &mut Checker) -> Tree {
    let tree = Tree::with_options(ScalableRcu::with_sharing(true), ReclaimMode::Epoch, false);
    let mut s = tree.session();
    for &k in prefill {
        let ok = s.insert(k, k);
        checker.expect(ok, || format!("prefill insert({k}) returned false"));
    }
    drop(s);
    tree
}

/// Everything a run accumulates across its phases.
struct Acc {
    attempted: u64,
    totals: SessionTotals,
    checker: Checker,
    /// Per-call costs by operation class (traced loops only).
    timings: [Hist; 5],
    probes: RcuProbes,
}

/// One closed-loop phase's results.
struct Phase {
    /// Upper-quartile throughput over the slices.
    ops_per_s: f64,
    lat: Windows,
    scan: Windows,
}

/// One thread's share of a phase.
struct Part {
    slice_ops: Vec<u64>,
    totals: SessionTotals,
    checker: Checker,
    timings: [Hist; 5],
    probes: RcuProbes,
    lat: Windows,
    scan: Windows,
}

/// Runs `threads` closed-loop clients for `dur_ns`. A traced loop times
/// every call by class and probes RCU; an untraced one samples latency.
fn closed_loop(
    ctx: &Ctx,
    tree: &Tree,
    threads: u64,
    dur_ns: u64,
    traced: bool,
    tag: u64,
    acc: &mut Acc,
) -> Phase {
    let clock = ctx.clock;
    let start = clock.now_ns() + 1_000_000;
    let slice_ns = dur_ns / SLICES as u64;
    let parts: Vec<Part> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let sampler = KeyDist::Uniform.sampler(KEY_RANGE);
                    let mut ops = OpStream::new(subseed(ctx.seed, tag * 16 + t), sampler, MIX);
                    let mut session = tree.session();
                    let probe = (traced && t == 0).then(|| tree.rcu().register());
                    let mut p = Part {
                        slice_ops: vec![0; SLICES],
                        totals: SessionTotals::default(),
                        checker: Checker::new(KEY_RANGE),
                        timings: Default::default(),
                        probes: RcuProbes::default(),
                        lat: Windows::default(),
                        scan: Windows::default(),
                    };
                    let (mut slice, mut in_slice, mut chunks, mut n) = (0, 0, 0u64, 0u64);
                    clock.sleep_until(start);
                    while slice < SLICES {
                        for _ in 0..CHUNK {
                            let mut op = ops.next_op();
                            n += 1;
                            // Traced reads alternate, so both read calls are timed.
                            if let (true, Op::Contains(k)) = (traced && n % 2 == 0, op) {
                                op = Op::Get(k);
                            }
                            let is_scan = matches!(op, Op::Scan(..));
                            p.totals.attempts[class(op)] += 1;
                            let outcome = if traced || is_scan || n % SAMPLE_EVERY == 0 {
                                let t0 = clock.now_ns();
                                let o = exec(&mut session, op);
                                let ns = clock.now_ns() - t0;
                                if traced {
                                    p.timings[class(op)].record(ns);
                                } else {
                                    p.lat.record(ns);
                                    if is_scan {
                                        p.scan.record(ns);
                                    }
                                }
                                o
                            } else {
                                exec(&mut session, op)
                            };
                            p.checker.observe(op, outcome);
                        }
                        in_slice += CHUNK;
                        chunks += 1;
                        if let Some(probe) = probe.as_ref().filter(|_| chunks % PROBE_CHUNKS == 0) {
                            p.probes.probe::<ScalableRcu>(clock, probe);
                        }
                        let now = clock.now_ns();
                        while slice < SLICES && now >= start + (slice as u64 + 1) * slice_ns {
                            p.slice_ops[slice] = in_slice;
                            in_slice = 0;
                            slice += 1;
                        }
                    }
                    p.totals.add_stats(session.stats());
                    p
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let per_slice: Vec<f64> = (0..SLICES)
        .map(|i| parts.iter().map(|p| p.slice_ops[i]).sum::<u64>() as f64 / (slice_ns as f64 / 1e9))
        .collect();
    let mut phase = Phase {
        ops_per_s: quantile(per_slice, 0.75),
        lat: Windows::default(),
        scan: Windows::default(),
    };
    for p in parts {
        acc.attempted += p.totals.ops();
        acc.totals.merge(&p.totals);
        acc.checker.merge(p.checker);
        for (a, b) in acc.timings.iter_mut().zip(&p.timings) {
            a.merge(b);
        }
        acc.probes.merge(&p.probes);
        phase.lat.merge(&p.lat);
        phase.scan.merge(&p.scan);
    }
    phase
}

pub fn run(ctx: &Ctx, rep: &mut Report, tally: &mut Tally) -> Result<Checker, String> {
    let prefill = prefill_keys(KEY_RANGE, subseed(ctx.seed, 1));
    let mut acc = Acc {
        attempted: 0,
        totals: SessionTotals::default(),
        checker: Checker::new(KEY_RANGE),
        timings: Default::default(),
        probes: RcuProbes::default(),
    };
    let mut tree = if ctx.trace {
        build(&prefill, &mut acc.checker)
    } else {
        let mut setups = Vec::with_capacity(SETUPS);
        let mut tree = None;
        for _ in 0..SETUPS {
            drop(tree.take());
            let t0 = ctx.clock.now_ns();
            tree = Some(build(&prefill, &mut acc.checker));
            setups.push((ctx.clock.now_ns() - t0) as f64 / 1e9);
        }
        rep.put("setup_s", median(setups));
        tree.expect("at least one setup")
    };

    if ctx.trace {
        let before = DomainCounters::read([&tree]);
        let light = closed_loop(ctx, &tree, 1, ctx.secs_ns(0.15), false, 2, &mut acc);
        let heavy = closed_loop(ctx, &tree, 2, ctx.secs_ns(0.35), false, 3, &mut acc);
        let after = DomainCounters::read([&tree]);
        before.report(&after, acc.attempted, acc.checker.removes_ok, 0, rep);
        acc.totals.report(rep, acc.checker.removes_ok);
        rep.put_pct("p50_us.light", light.lat.p50(), 1e3);
        rep.put_pct("p99_us.light", light.lat.p99(), 1e3);
        rep.put_pct("p99_us.heavy", heavy.lat.p99(), 1e3);
        rep.put_pct("scan_p99_us.heavy", heavy.scan.p99(), 1e3);
        let traced = closed_loop(ctx, &tree, 2, ctx.secs_ns(0.35), true, 4, &mut acc);
        acc.probes.report(rep);
        let timed = [
            ("tree.contains_ns.p50", "tree.contains_ns.p99"),
            ("tree.get_ns.p50", "tree.get_ns.p99"),
            ("tree.insert_ns.p50", "tree.insert_ns.p99"),
            ("tree.remove_ns.p50", "tree.remove_ns.p99"),
        ];
        for (hist, (p50, p99)) in acc.timings.iter().zip(timed) {
            rep.put_pct(p50, hist.pct(0.5), 1.0);
            rep.put_pct(p99, hist.pct(0.99), 1.0);
        }
        // No forest, server or arrival schedule is on this workload's path.
        for &(name, _) in PER_LAYER.iter().filter(|m| {
            ["forest.", "serve.", "loadgen."]
                .iter()
                .any(|layer| m.0.starts_with(layer))
        }) {
            rep.put(name, 0.0);
        }
        rep.put(
            "trace_overhead_frac",
            1.0 - traced.ops_per_s / heavy.ops_per_s,
        );
        rep.note(format!(
            "heavy closed loop untraced {:.0} ops/s, traced {:.0} ops/s",
            heavy.ops_per_s, traced.ops_per_s
        ));
    } else {
        let heavy = closed_loop(ctx, &tree, 2, ctx.secs_ns(1.0), false, 2, &mut acc);
        rep.put("ops_per_s", heavy.ops_per_s);
        rep.put_pct("p50_us.heavy", heavy.lat.p50(), 1e3);
    }

    tally.attempted += acc.attempted;
    if let Err(e) = tree.validate_structure() {
        acc.checker
            .expect(false, || format!("tree invariant violated: {e:?}"));
    }
    let contents = tree.to_vec_quiescent();
    acc.checker.reconcile(&prefill, &contents);
    if !ctx.trace {
        rep.put("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(acc.checker)
}
