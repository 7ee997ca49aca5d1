//! `serve-read` and `serve-scan-write`: an open loop of seeded Poisson
//! arrivals against a 2-shard `Server` over a hash-routed `CitrusForest`,
//! at the heavy rate in the untraced run and at the light and heavy rates
//! in turn in the traced run.
//!
//! One generator thread holds the arrival schedule and submits each
//! request when it is due. Each shard worker answers its queue in FIFO
//! order, so one collector thread per shard waits on that shard's tickets
//! in submission order and stamps each completion as it is delivered; no
//! thread busy-polls. Latency runs from the request's due time to its
//! observed completion. A refused request counts as attempted, failed,
//! and slower than every latency limit.
//!
//! The traced run also drives one fixed stream of the workload's
//! operations through three rungs on the same data: a `CitrusSession` on
//! the key's shard, a `ForestSession`, and `Server::submit` + `Ticket`, so
//! each layer's cost is a subtraction.

use crate::check::{Checker, Outcome};
use crate::gen::{prefill_keys, subseed, Arrivals, Clock, Mix, Op, OpStream, Pacer};
use crate::hist::{Hist, Windows};
use crate::out::Report;
use crate::{
    class, exec, median, peak_rss_mb, Ctx, DomainCounters, RcuProbes, SessionTotals, Tally,
    HEAVY_RATE, LIGHT_RATE,
};
use citrus::{CitrusForest, RcuFlavor, ReclaimMode, RouterKind, ScalableRcu};
use citrus_harness::{KeyDist, ServeMix};
use citrus_serve::{Request, Response, ServeConfig, Server, Ticket};
use std::hint::black_box;
use std::sync::{mpsc, Mutex};

type Forest = CitrusForest<u64, u64>;
type Srv = Server<u64, u64>;

const SHARDS: usize = 2;
/// Operations driven through each rung of the traced run's ladder.
const LADDER_OPS: usize = 200_000;
const LADDER_THREADS: usize = 2;
/// In the tree rung, thread 0 probes RCU on every this-many-th operation.
const PROBE_EVERY: usize = 16;
/// `shard_for` calls timed together.
const ROUTE_BLOCK: usize = 64;

struct Spec {
    key_range: u64,
    dist: KeyDist,
    mix: ServeMix,
    span: u64,
}

fn spec(workload: &str) -> Spec {
    match workload {
        "serve-read" => Spec {
            key_range: 1_000_000,
            dist: KeyDist::Uniform,
            mix: ServeMix::routing_table(),
            span: 32,
        },
        _ => Spec {
            key_range: 20_000,
            dist: KeyDist::Zipf { theta: 0.99 },
            mix: ServeMix::session_store(),
            span: 256,
        },
    }
}

impl Spec {
    fn stream(&self, seed: u64) -> OpStream {
        let mix = Mix::Serve {
            mix: self.mix,
            span: self.span,
        };
        OpStream::new(seed, self.dist.sampler(self.key_range), mix)
    }
}

fn build_forest(prefill: &[u64], checker: &mut Checker) -> Forest {
    let forest = Forest::with_options(SHARDS, 0, ReclaimMode::Epoch, false);
    let mut s = forest.session();
    for &k in prefill {
        let ok = s.insert(k, k);
        checker.expect(ok, || format!("prefill insert({k}) returned false"));
    }
    drop(s);
    forest
}

fn request(op: Op) -> Request<u64, u64> {
    match op {
        Op::Get(k) => Request::Get(k),
        Op::Contains(k) => Request::Contains(k),
        Op::Insert(k) => Request::Insert(k, k),
        Op::Remove(k) => Request::Remove(k),
        Op::Scan(lo, hi) => Request::Scan(lo, hi),
    }
}

fn outcome(resp: Response<u64, u64>) -> Outcome {
    match resp {
        Response::Value(v) => Outcome::Value(v),
        Response::Flag(b) => Outcome::Flag(b),
        Response::Entries(e) => Outcome::Entries(e),
        Response::Entry(e) => Outcome::Entries(e.into_iter().collect()),
    }
}

/// Everything a run accumulates across its phases.
struct Acc {
    attempted: u64,
    refused: u64,
    checker: Checker,
}

/// An open loop cycles through its offered rates block by block (the
/// traced run alternates light and heavy, so both sample the same stretch
/// of host conditions). Arrivals due in the first part of a block are
/// checked but not timed, so the queues settle at the block's rate first.
const BLOCK_NS: u64 = 1_000_000_000;
const BLOCK_WARM_NS: u64 = 100_000_000;

/// The block schedule of one open loop.
#[derive(Clone, Copy)]
struct Blocks {
    start: u64,
    end: u64,
    rates: usize,
}

impl Blocks {
    /// The rate index of the block holding `t`, and that block's end.
    fn at(self, t: u64) -> (usize, u64) {
        let b = (t - self.start) / BLOCK_NS;
        (
            (b % self.rates as u64) as usize,
            self.start + (b + 1) * BLOCK_NS,
        )
    }

    /// The rate index of the block holding `t`, if `t` is timed.
    fn timed(self, t: u64) -> Option<usize> {
        let timed =
            (self.start..self.end).contains(&t) && (t - self.start) % BLOCK_NS >= BLOCK_WARM_NS;
        timed.then(|| self.at(t).0)
    }
}

/// Measurements at one offered rate.
#[derive(Default)]
struct Phase {
    lat: Windows,
    scan: Windows,
    /// Requests completed inside the rate's timed windows, and their
    /// total length.
    completed: u64,
    timed_ns: u64,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.completed as f64 / (self.timed_ns as f64 / 1e9)
    }
}

/// One open loop's measurements: per rate, and (traced) per send.
#[derive(Default)]
struct OpenLoop {
    at: Vec<Phase>,
    lag: Hist,
    submit: Hist,
    depth: Hist,
}

/// A submitted request on its way to the shard's collector; `None` when
/// the server refused it, so the miss lands in submission order.
struct InFlight {
    ticket: Option<Ticket<u64, u64>>,
    due: u64,
    op: Op,
}

/// What one shard's collector gathered, per rate.
struct Collected {
    lat: Vec<Windows>,
    completed: Vec<u64>,
    checker: Checker,
}

/// One open loop over about `dur_ns`, cycling through `rates` in blocks
/// (at least one block of each). A traced loop also times each `submit`
/// and samples the target queue's depth before it.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    ctx: &Ctx,
    server: &Srv,
    spec: &Spec,
    rates: &[f64],
    dur_ns: u64,
    traced: bool,
    tag: u64,
    acc: &mut Acc,
) -> OpenLoop {
    let clock = ctx.clock;
    let start = clock.now_ns() + 1_000_000;
    let n_rates = rates.len();
    let n_blocks = (dur_ns / BLOCK_NS).max(n_rates as u64);
    let blocks = Blocks {
        start,
        end: start + n_blocks * BLOCK_NS,
        rates: n_rates,
    };
    let mut out = OpenLoop {
        at: (0..n_rates)
            .map(|k| Phase {
                timed_ns: (0..n_blocks).filter(|b| *b as usize % n_rates == k).count() as u64
                    * (BLOCK_NS - BLOCK_WARM_NS),
                ..Phase::default()
            })
            .collect(),
        ..OpenLoop::default()
    };
    // Scans are few, so both collectors fill the same scan windows.
    let scans: Mutex<Vec<Windows>> = Mutex::new((0..n_rates).map(|_| Windows::default()).collect());
    let collected: Vec<Collected> = std::thread::scope(|s| {
        let mut senders = Vec::with_capacity(SHARDS);
        let mut collectors = Vec::with_capacity(SHARDS);
        for _ in 0..SHARDS {
            let (tx, rx) = mpsc::channel::<InFlight>();
            senders.push(tx);
            let checker = Checker::new(spec.key_range);
            let scans = &scans;
            collectors.push(s.spawn(move || {
                let mut c = Collected {
                    lat: (0..n_rates).map(|_| Windows::default()).collect(),
                    completed: vec![0; n_rates],
                    checker,
                };
                for m in rx {
                    let is_scan = matches!(m.op, Op::Scan(..));
                    let timed = blocks.timed(m.due);
                    let Some(ticket) = m.ticket else {
                        if let Some(k) = timed {
                            c.lat[k].record_miss();
                            if is_scan {
                                scans.lock().expect("no collector panicked")[k].record_miss();
                            }
                        }
                        continue;
                    };
                    let resp = ticket.wait();
                    let done = clock.now_ns();
                    if let Some(k) = timed {
                        c.lat[k].record(done - m.due);
                        if is_scan {
                            scans.lock().expect("no collector panicked")[k].record(done - m.due);
                        }
                    }
                    if let Some(k) = blocks.timed(done) {
                        c.completed[k] += 1;
                    }
                    c.checker.observe(m.op, outcome(resp));
                }
                c
            }));
        }
        let mut ops = spec.stream(subseed(ctx.seed, tag * 16));
        let mut arrivals = Arrivals::new(subseed(ctx.seed, tag * 16 + 1));
        let mut pacer = Pacer::new(clock);
        let mut due = start as f64;
        loop {
            // Exponential gaps at the current block's rate; a gap that
            // crosses into the next block restarts there (the process is
            // memoryless), at the next block's rate.
            let (k, block_end) = blocks.at(due as u64);
            due += arrivals.gap_ns(rates[k]);
            if due >= block_end as f64 {
                due = block_end as f64;
                if block_end >= blocks.end {
                    break;
                }
                continue;
            }
            let due = due as u64;
            let op = ops.next_op();
            let sent = pacer.wait_until(due);
            let shard = server.shard_for(&op.route_key());
            let submitted = if traced {
                out.depth.record(server.queue_len(shard) as u64);
                let t0 = clock.now_ns();
                let r = server.submit(request(op));
                out.submit.record(clock.now_ns() - t0);
                r
            } else {
                server.submit(request(op))
            };
            acc.attempted += 1;
            acc.refused += u64::from(submitted.is_err());
            senders[shard]
                .send(InFlight {
                    ticket: submitted.ok(),
                    due,
                    op,
                })
                .expect("collector alive while its sender is");
            if blocks.timed(due).is_some() {
                out.lag.record(sent - due);
            }
        }
        drop(senders);
        collectors
            .into_iter()
            .map(|h| h.join().expect("collector panicked"))
            .collect()
    });
    for c in collected {
        for (k, phase) in out.at.iter_mut().enumerate() {
            phase.lat.merge(&c.lat[k]);
            phase.completed += c.completed[k];
        }
        acc.checker.merge(c.checker);
    }
    let scans = scans.into_inner().expect("no collector panicked");
    for (phase, scan) in out.at.iter_mut().zip(scans) {
        phase.scan = scan;
    }
    out
}

/// Per-call costs of one rung of the ladder.
#[derive(Default)]
struct Rung {
    by_class: [Hist; 5],
    all: Hist,
    submit: Hist,
    totals: SessionTotals,
    probes: RcuProbes,
    scan_entries: u64,
    removes_ok: u64,
    refused: u64,
}

impl Rung {
    fn merge(&mut self, o: &Rung) {
        for (a, b) in self.by_class.iter_mut().zip(&o.by_class) {
            a.merge(b);
        }
        self.all.merge(&o.all);
        self.submit.merge(&o.submit);
        self.totals.merge(&o.totals);
        self.probes.merge(&o.probes);
        self.scan_entries += o.scan_entries;
        self.removes_ok += o.removes_ok;
        self.refused += o.refused;
    }

    fn time(&mut self, op: Op, t0: u64, clock: Clock) {
        let ns = clock.now_ns() - t0;
        self.by_class[class(op)].record(ns);
        self.all.record(ns);
    }
}

/// Which rung runs operation `i` of the direct pass: tree and forest
/// alternate in pairs, so both see the same data, caches and churn.
fn direct_rung(i: usize) -> usize {
    (i / LADDER_THREADS) % 2
}

/// Runs `plan` on `LADDER_THREADS` threads, thread `t` taking every
/// `LADDER_THREADS`-th operation from the `t`-th on. `open` creates a
/// thread's sessions, `step` runs operation `i` under rung `plan[i].1`
/// (`None` when refused), and `close` reads the sessions' counters.
fn drive<S>(
    spec: &Spec,
    plan: &[(Op, usize)],
    open: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, &mut Rung, usize, Op) -> Option<Outcome> + Sync,
    close: impl Fn(S, &mut [Rung; 2]) + Sync,
    acc: &mut Acc,
) -> [Rung; 2] {
    let parts: Vec<([Rung; 2], Checker)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LADDER_THREADS)
            .map(|t| {
                let (open, step, close) = (&open, &step, &close);
                s.spawn(move || {
                    let mut sessions = open(t);
                    let mut rungs: [Rung; 2] = Default::default();
                    let mut checker = Checker::new(spec.key_range);
                    for (i, &(op, r)) in plan.iter().enumerate().skip(t).step_by(LADDER_THREADS) {
                        let rung = &mut rungs[r];
                        rung.totals.attempts[class(op)] += 1;
                        match step(&mut sessions, rung, i, op) {
                            Some(out) => {
                                match &out {
                                    Outcome::Entries(e) => rung.scan_entries += e.len() as u64,
                                    Outcome::Flag(true) if matches!(op, Op::Remove(_)) => {
                                        rung.removes_ok += 1
                                    }
                                    _ => {}
                                }
                                checker.observe(op, out);
                            }
                            None => rung.refused += 1,
                        }
                    }
                    close(sessions, &mut rungs);
                    (rungs, checker)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ladder thread panicked"))
            .collect()
    });
    let mut merged: [Rung; 2] = Default::default();
    for (rungs, checker) in parts {
        for (m, r) in merged.iter_mut().zip(&rungs) {
            m.merge(r);
        }
        acc.checker.merge(checker);
    }
    acc.attempted += plan.len() as u64;
    merged
}

/// The tree rung (a `CitrusSession` on the key's shard, chosen outside
/// the timed call) and the forest rung (a `ForestSession`), interleaved
/// on the forest before a server owns it; plus routing costs. Returns
/// the tree rung's RCU probes and the forest rung.
fn ladder_direct(
    ctx: &Ctx,
    forest: &Forest,
    spec: &Spec,
    ops: &[Op],
    acc: &mut Acc,
    rep: &mut Report,
) -> (RcuProbes, Rung) {
    let clock = ctx.clock;
    // Tree-rung reads alternate between get and contains, so both are timed.
    let plan: Vec<(Op, usize)> = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| match (direct_rung(i), op) {
            (0, Op::Get(k)) if (i / (2 * LADDER_THREADS)) % 2 == 1 => (Op::Contains(k), 0),
            (r, op) => (op, r),
        })
        .collect();
    let [tree, fr] = drive(
        spec,
        &plan,
        |t| {
            let shards: Vec<_> = (0..SHARDS).map(|i| forest.shard(i).session()).collect();
            let probes: Vec<_> = (0..SHARDS)
                .filter(|_| t == 0)
                .map(|i| forest.shard(i).rcu().register())
                .collect();
            (shards, probes, forest.session())
        },
        |(shards, probes, forest_session), r, i, op| {
            if direct_rung(i) == 1 {
                let t0 = clock.now_ns();
                let out = exec(forest_session, op);
                r.time(op, t0, clock);
                return Some(out);
            }
            let shard = forest.shard_for(&op.route_key());
            let t0 = clock.now_ns();
            let out = exec(&mut shards[shard], op);
            r.time(op, t0, clock);
            if let Some(h) = probes.get(shard).filter(|_| i % PROBE_EVERY == 0) {
                r.probes.probe::<ScalableRcu>(clock, h);
            }
            Some(out)
        },
        |(shards, _, _), rungs| {
            for s in &shards {
                rungs[0].totals.add_stats(s.stats());
            }
        },
        acc,
    );

    tree.probes.report(rep);
    tree.totals.report(rep, tree.removes_ok);
    let timed = [
        ("tree.contains_ns.p50", "tree.contains_ns.p99"),
        ("tree.get_ns.p50", "tree.get_ns.p99"),
        ("tree.insert_ns.p50", "tree.insert_ns.p99"),
        ("tree.remove_ns.p50", "tree.remove_ns.p99"),
    ];
    for (hist, (p50, p99)) in tree.by_class.iter().zip(timed) {
        rep.put_pct(p50, hist.pct(0.5), 1.0);
        rep.put_pct(p99, hist.pct(0.99), 1.0);
    }

    let mut route = Hist::default();
    let mut per_shard = [0u64; SHARDS];
    for block in ops.chunks_exact(ROUTE_BLOCK) {
        let t0 = clock.now_ns();
        for op in block {
            black_box(forest.shard_for(black_box(&op.route_key())));
        }
        route.record(clock.now_ns() - t0);
    }
    for op in ops {
        per_shard[forest.shard_for(&op.route_key())] += 1;
    }
    rep.put("forest.route_ns", route.pct(0.5).value / ROUTE_BLOCK as f64);
    rep.put(
        "forest.shard_share_max",
        *per_shard.iter().max().expect("shards") as f64 / ops.len() as f64,
    );
    rep.put(
        "forest.get_overhead_ns",
        fr.by_class[1].pct(0.5).value - tree.by_class[1].pct(0.5).value,
    );
    let fanout: usize = ops
        .iter()
        .filter_map(|op| match *op {
            Op::Scan(lo, hi) => Some(match forest.router_kind() {
                RouterKind::Hash => forest.shard_count(),
                RouterKind::Range => forest.shard_for(&hi) - forest.shard_for(&lo) + 1,
            }),
            _ => None,
        })
        .sum();
    let scans = fr.by_class[4].count().max(1) as f64;
    rep.put_pct("forest.scan_us.p50", fr.by_class[4].pct(0.5), 1e3);
    rep.put_pct("forest.scan_us.p99", fr.by_class[4].pct(0.99), 1e3);
    rep.put("forest.scan_entries", fr.scan_entries as f64 / scans);
    rep.put(
        "forest.scan_fanout",
        fanout as f64
            / ops
                .iter()
                .filter(|op| matches!(op, Op::Scan(..)))
                .count()
                .max(1) as f64,
    );
    (tree.probes, fr)
}

/// The serve rung: the same operations through `submit` and `Ticket`.
fn ladder_serve(ctx: &Ctx, server: &Srv, spec: &Spec, ops: &[Op], acc: &mut Acc) -> Rung {
    let clock = ctx.clock;
    let plan: Vec<(Op, usize)> = ops.iter().map(|&op| (op, 0)).collect();
    let [r, _] = drive(
        spec,
        &plan,
        |_| (),
        |_, r, _, op| {
            let t0 = clock.now_ns();
            let submitted = server.submit(request(op));
            r.submit.record(clock.now_ns() - t0);
            match submitted {
                Ok(ticket) => {
                    let resp = ticket.wait();
                    r.time(op, t0, clock);
                    Some(outcome(resp))
                }
                Err(_) => {
                    r.all.record_miss();
                    None
                }
            }
        },
        |_, _| {},
        acc,
    );
    acc.refused += r.refused;
    r
}

fn start(forest: Forest) -> Srv {
    Srv::with_config(forest, ServeConfig::default())
}

pub fn run(ctx: &Ctx, rep: &mut Report, tally: &mut Tally) -> Result<Checker, String> {
    let spec = spec(ctx.workload);
    let prefill = prefill_keys(spec.key_range, subseed(ctx.seed, 1));
    let mut acc = Acc {
        attempted: 0,
        refused: 0,
        checker: Checker::new(spec.key_range),
    };
    let forest = if ctx.trace {
        let forest = build_forest(&prefill, &mut acc.checker);
        let mut gen = spec.stream(subseed(ctx.seed, 40));
        let ops: Vec<Op> = (0..LADDER_OPS).map(|_| gen.next_op()).collect();
        let (tree_probes, forest_rung) = ladder_direct(ctx, &forest, &spec, &ops, &mut acc, rep);

        let before = DomainCounters::read((0..SHARDS).map(|i| forest.shard(i)));
        let attempted_before = acc.attempted;
        let server = start(forest);
        let untraced = open_loop(
            ctx,
            &server,
            &spec,
            &[LIGHT_RATE, HEAVY_RATE],
            ctx.secs_ns(0.4),
            false,
            2,
            &mut acc,
        );
        let [light, heavy] = [&untraced.at[0], &untraced.at[1]];
        rep.put_pct("p50_us.light", light.lat.p50(), 1e3);
        rep.put_pct("p99_us.light", light.lat.p99(), 1e3);
        rep.put_pct("p99_us.heavy", heavy.lat.p99(), 1e3);
        rep.put_pct("scan_p99_us.heavy", heavy.scan.p99(), 1e3);
        let c = server.counters();
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        rep.put("serve.batch_mean", frac(c.executed(), c.batches()));
        rep.put(
            "serve.reject_frac",
            frac(c.rejected(), c.accepted() + c.rejected()),
        );
        let forest = server.into_forest();
        let after = DomainCounters::read((0..SHARDS).map(|i| forest.shard(i)));
        let probe_syncs = tree_probes.sync.count();
        before.report(
            &after,
            acc.attempted - attempted_before,
            acc.checker.removes_ok,
            probe_syncs,
            rep,
        );

        let server = start(forest);
        let serve_rung = ladder_serve(ctx, &server, &spec, &ops, &mut acc);
        rep.put_pct("serve.submit_ns.p50", serve_rung.submit.pct(0.5), 1.0);
        rep.put_pct("serve.submit_ns.p99", serve_rung.submit.pct(0.99), 1.0);
        rep.put(
            "serve.overhead_us.p50",
            (serve_rung.all.pct(0.5).value - forest_rung.all.pct(0.5).value) / 1e3,
        );
        let traced = open_loop(
            ctx,
            &server,
            &spec,
            &[LIGHT_RATE, HEAVY_RATE],
            ctx.secs_ns(0.4),
            true,
            3,
            &mut acc,
        );
        rep.put("serve.queue_depth.mean", traced.depth.mean());
        rep.put("serve.queue_depth.max", traced.depth.pct(1.0).value);
        rep.put_pct("loadgen.lag_us.p99", traced.lag.pct(0.99), 1e3);
        let (p50_u, p50_t) = (untraced.at[0].lat.p50().value, traced.at[0].lat.p50().value);
        rep.put("trace_overhead_frac", p50_t / p50_u - 1.0);
        rep.note(format!(
            "p50_us.light untraced {:.3}, traced {:.3}",
            p50_u / 1e3,
            p50_t / 1e3
        ));
        server.into_forest()
    } else {
        let setups = if spec.key_range > 100_000 { 5 } else { 25 };
        let mut times = Vec::with_capacity(setups);
        let mut server = None;
        for _ in 0..setups {
            drop(server.take());
            let t0 = ctx.clock.now_ns();
            server = Some(start(build_forest(&prefill, &mut acc.checker)));
            times.push((ctx.clock.now_ns() - t0) as f64 / 1e9);
        }
        rep.put("setup_s", median(times));
        let server = server.expect("at least one setup");
        let heavy = open_loop(
            ctx,
            &server,
            &spec,
            &[HEAVY_RATE],
            ctx.secs_ns(1.0),
            false,
            2,
            &mut acc,
        );
        rep.put("ops_per_s", heavy.at[0].ops_per_s());
        rep.put_pct("p50_us.heavy", heavy.at[0].lat.p50(), 1e3);
        server.into_forest()
    };

    let mut forest = forest;
    if let Err(e) = forest.validate_structure() {
        acc.checker
            .expect(false, || format!("forest invariant violated: {e:?}"));
    }
    let contents = forest.to_vec_quiescent();
    acc.checker.reconcile(&prefill, &contents);
    if !ctx.trace {
        rep.put("peak_rss_mb", peak_rss_mb()?);
    }
    tally.attempted += acc.attempted;
    tally.refused += acc.refused;
    Ok(acc.checker)
}
