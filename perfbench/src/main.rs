//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the default configuration by value, prefills it, runs the
//! workload, checks every response and the final contents, and prints the
//! result as one JSON object on the last line of standard output. With
//! `--trace 0` it reports the end-to-end metrics, measured with no
//! per-call timing; with `--trace 1` it reports the per-layer metrics,
//! timed from outside around calls into each layer's public functions.
//! `--plant-wrong-response` misreports one insert response to show that
//! the correctness check fails the run.

mod check;
mod gen;
mod hist;
mod out;
mod serve;
mod tree_update;

use check::Outcome;
use citrus::{CitrusTree, SessionStats};
use citrus_api::{MapSession, OrderedMapSession};
use citrus_rcu::{RcuFlavor, RcuHandle};
use gen::{Clock, Op};
use hist::Hist;
use out::Report;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

/// The offered rates of the serve workloads' open loop, requests per
/// second.
pub const LIGHT_RATE: f64 = 10_000.0;
pub const HEAVY_RATE: f64 = 20_000.0;

pub const WORKLOADS: [&str; 3] = ["tree-update", "serve-read", "serve-scan-write"];

/// End-to-end metrics and units, reported with `--trace 0` and gated by
/// the bounds in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("p50_us.heavy", "us"),
];

/// Per-layer metrics and units, reported with `--trace 1`. The first four
/// are end-to-end latencies whose run-to-run spread on a shared 2-vCPU
/// host is wider than any admissible bound; the traced run reports them
/// from its untraced pass.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("p50_us.light", "us"),
    ("p99_us.light", "us"),
    ("p99_us.heavy", "us"),
    ("scan_p99_us.heavy", "us"),
    ("rcu.read_section_ns", "ns"),
    ("rcu.synchronize_us.p50", "us"),
    ("rcu.synchronize_us.p99", "us"),
    ("rcu.grace_periods_per_kop", "1/kop"),
    ("rcu.piggyback_frac", "frac"),
    ("rcu.stall_events", "count"),
    ("reclaim.freed_per_kop", "1/kop"),
    ("reclaim.backlog_nodes", "count"),
    ("tree.contains_ns.p50", "ns"),
    ("tree.contains_ns.p99", "ns"),
    ("tree.get_ns.p50", "ns"),
    ("tree.get_ns.p99", "ns"),
    ("tree.insert_ns.p50", "ns"),
    ("tree.insert_ns.p99", "ns"),
    ("tree.remove_ns.p50", "ns"),
    ("tree.remove_ns.p99", "ns"),
    ("tree.insert_retry_frac", "frac"),
    ("tree.remove_retry_frac", "frac"),
    ("tree.sync_per_remove", "1/op"),
    ("tree.scan_restart_frac", "frac"),
    ("forest.route_ns", "ns"),
    ("forest.get_overhead_ns", "ns"),
    ("forest.scan_us.p50", "us"),
    ("forest.scan_us.p99", "us"),
    ("forest.scan_entries", "count"),
    ("forest.scan_fanout", "count"),
    ("forest.shard_share_max", "frac"),
    ("serve.submit_ns.p50", "ns"),
    ("serve.submit_ns.p99", "ns"),
    ("serve.overhead_us.p50", "us"),
    ("serve.queue_depth.mean", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.batch_mean", "count"),
    ("serve.reject_frac", "frac"),
    ("loadgen.lag_us.p99", "us"),
    ("trace_overhead_frac", "frac"),
];

/// The declared unit of a metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("undeclared metric {name}"))
}

/// What one run was asked to do.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub clock: Clock,
}

impl Ctx {
    pub fn secs_ns(&self, share: f64) -> u64 {
        (self.seconds as f64 * share * 1e9) as u64
    }
}

/// Operations attempted and failed (refused, or answered wrongly) in a run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub refused: u64,
}

/// Runs one operation through any map session.
pub fn exec<S: OrderedMapSession<u64, u64>>(s: &mut S, op: Op) -> Outcome {
    match op {
        Op::Get(k) => Outcome::Value(s.get(&k)),
        Op::Contains(k) => Outcome::Flag(s.contains(&k)),
        Op::Insert(k) => Outcome::Flag(MapSession::insert(s, k, k)),
        Op::Remove(k) => Outcome::Flag(s.remove(&k)),
        Op::Scan(lo, hi) => Outcome::Entries(s.range_scan(&lo, &hi)),
    }
}

/// Per-call cost class of an operation, for the `tree.*_ns` metrics.
pub fn class(op: Op) -> usize {
    match op {
        Op::Contains(_) => 0,
        Op::Get(_) => 1,
        Op::Insert(_) => 2,
        Op::Remove(_) => 3,
        Op::Scan(..) => 4,
    }
}

/// Attempts and `SessionStats` totals over tree sessions.
#[derive(Default, Clone, Copy)]
pub struct SessionTotals {
    pub attempts: [u64; 5],
    pub insert_retries: u64,
    pub remove_retries: u64,
    pub syncs: u64,
    pub scan_restarts: u64,
}

impl SessionTotals {
    pub fn add_stats(&mut self, s: &SessionStats) {
        self.insert_retries += s.insert_retries();
        self.remove_retries += s.remove_retries();
        self.syncs += s.synchronize_calls();
        self.scan_restarts += s.scan_restarts();
    }

    pub fn merge(&mut self, o: &SessionTotals) {
        for (a, b) in self.attempts.iter_mut().zip(o.attempts) {
            *a += b;
        }
        self.insert_retries += o.insert_retries;
        self.remove_retries += o.remove_retries;
        self.syncs += o.syncs;
        self.scan_restarts += o.scan_restarts;
    }

    pub fn ops(&self) -> u64 {
        self.attempts.iter().sum()
    }

    pub fn report(&self, rep: &mut Report, removes_ok: u64) {
        let frac = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        rep.put(
            "tree.insert_retry_frac",
            frac(self.insert_retries, self.attempts[2]),
        );
        rep.put(
            "tree.remove_retry_frac",
            frac(self.remove_retries, self.attempts[3]),
        );
        rep.put("tree.sync_per_remove", frac(self.syncs, removes_ok));
        rep.put(
            "tree.scan_restart_frac",
            frac(self.scan_restarts, self.attempts[4]),
        );
    }
}

/// Read-section and `synchronize` probes on one RCU domain, taken from
/// outside the tree with a handle of their own.
#[derive(Default)]
pub struct RcuProbes {
    /// Nanoseconds for `READ_PAIRS` empty read-side sections.
    pub read_pairs: Hist,
    pub sync: Hist,
}

const READ_PAIRS: u64 = 64;

impl RcuProbes {
    pub fn probe<F: RcuFlavor>(&mut self, clock: Clock, handle: &F::Handle<'_>) {
        let t0 = clock.now_ns();
        for _ in 0..READ_PAIRS {
            drop(black_box(handle.read_lock()));
        }
        let t1 = clock.now_ns();
        handle.synchronize();
        let t2 = clock.now_ns();
        self.read_pairs.record(t1 - t0);
        self.sync.record(t2 - t1);
    }

    pub fn merge(&mut self, o: &RcuProbes) {
        self.read_pairs.merge(&o.read_pairs);
        self.sync.merge(&o.sync);
    }

    pub fn report(&self, rep: &mut Report) {
        let read = self.read_pairs.pct(0.5);
        rep.put("rcu.read_section_ns", read.value / READ_PAIRS as f64);
        rep.put_pct("rcu.synchronize_us.p50", self.sync.pct(0.5), 1e3);
        rep.put_pct("rcu.synchronize_us.p99", self.sync.pct(0.99), 1e3);
    }
}

/// Always-on RCU and reclamation counters of a set of domains, read from
/// outside; every `synchronize` call ends either in a grace period of its
/// own or piggybacked on a peer's.
#[derive(Default, Clone, Copy)]
pub struct DomainCounters {
    pub grace_periods: u64,
    pub piggybacks: u64,
    pub stalls: u64,
    pub freed: u64,
}

impl DomainCounters {
    pub fn read<'a>(trees: impl IntoIterator<Item = &'a CitrusTree<u64, u64>>) -> Self {
        let mut c = Self::default();
        for t in trees {
            c.grace_periods += t.rcu().grace_periods();
            c.piggybacks += t.rcu().synchronize_piggybacks();
            c.stalls += t.rcu().stall_events();
            c.freed += t.reclaimed_count().unwrap_or(0);
        }
        c
    }

    /// Reports the deltas from `self` to `after` over `ops` operations.
    /// The backlog is every node retired since construction minus every
    /// node freed: each successful remove retires one node, and each
    /// two-child delete — one inline `synchronize` each, counted by the
    /// domains less the `probe_syncs` this benchmark issued — one more.
    pub fn report(
        &self,
        after: &Self,
        ops: u64,
        removes_total: u64,
        probe_syncs: u64,
        rep: &mut Report,
    ) {
        let kops = ops.max(1) as f64 / 1000.0;
        let gps = after.grace_periods - self.grace_periods;
        let pbs = after.piggybacks - self.piggybacks;
        rep.put("rcu.grace_periods_per_kop", gps as f64 / kops);
        let syncs = gps + pbs;
        rep.put(
            "rcu.piggyback_frac",
            if syncs == 0 {
                0.0
            } else {
                pbs as f64 / syncs as f64
            },
        );
        rep.put("rcu.stall_events", (after.stalls - self.stalls) as f64);
        rep.put(
            "reclaim.freed_per_kop",
            (after.freed - self.freed) as f64 / kops,
        );
        let retired = removes_total + after.grace_periods + after.piggybacks - probe_syncs;
        rep.put("reclaim.backlog_nodes", retired as f64 - after.freed as f64);
    }
}

/// Peak resident set of this process so far, MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

pub fn median(v: Vec<f64>) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v`, interpolated linearly between ranks; 0 when
/// `v` is empty.
pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn parse_args() -> Result<Ctx, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--plant-wrong-response" {
            check::PLANT.store(true, Ordering::Relaxed);
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or(format!(
                    "unknown workload {value:?}; expected one of {WORKLOADS:?}"
                ))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds must be 1..=60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        clock: Clock::new(),
    })
}

/// The benchmark measures one fixed program: refuse anything that would
/// silently change which one.
fn check_hermetic() -> Result<(), String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CITRUS_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {knobs:?} set: library constructors read CITRUS_* variables"
        ));
    }
    if citrus_obs::STATS_ENABLED {
        return Err("refusing to run: built with the `stats` feature, a different program".into());
    }
    Ok(())
}

fn run() -> Result<bool, String> {
    check_hermetic()?;
    let ctx = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# config {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"rcu\": \"ScalableRcu::with_sharing(true)\", \"reclaim\": \"Epoch\", \"deferred_unlink\": false, \
         \"router\": \"hash, sharding seed 0\", \"serve\": \"{:?}\", \"light_rps\": {LIGHT_RATE}, \"heavy_rps\": {HEAVY_RATE}}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        citrus_serve::ServeConfig::default(),
    );
    let mut rep = Report::default();
    let mut tally = Tally::default();
    let checker = match ctx.workload {
        "tree-update" => tree_update::run(&ctx, &mut rep, &mut tally)?,
        _ => serve::run(&ctx, &mut rep, &mut tally)?,
    };
    let expected: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let mut got = rep.names();
    got.sort_unstable();
    let mut want: Vec<&str> = expected.iter().map(|m| m.0).collect();
    want.sort_unstable();
    assert_eq!(got, want, "reported metrics differ from the declared set");
    if let Some(thin) = rep.thin_tail() {
        return Err(format!("too few samples behind {thin}: run longer"));
    }
    if let Some(first) = checker.first_wrong() {
        rep.note(format!(
            "WRONG ANSWERS: {} (first: {first})",
            checker.wrong_count()
        ));
    }
    let failed = tally.refused + checker.wrong_count();
    let correct = checker.wrong_count() == 0;
    rep.print(correct, tally.attempted.max(1), failed);
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}
