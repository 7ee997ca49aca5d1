//! Closed-loop load generator for the `citrus-serve` front end: seeded
//! paced clients driving a mixed point/scan workload at a controlled
//! aggregate request rate, reporting client-perceived latency percentiles
//! per op class from the server's `citrus-obs` log2 histograms.
//!
//! Two tenant scenarios × two routers:
//!
//! - **routing-table** — one shared table, uniform keys, the read-heavy
//!   [`ServeMix::routing_table`] mix (88/5/5/2 get/insert/remove/scan).
//! - **session-store** — four tenants with disjoint key prefixes
//!   (`tenant << 40 | local`), Zipfian draws *within* each tenant
//!   (`zipf:0.99`, YCSB's default skew), the write-heavier
//!   [`ServeMix::session_store`] mix. Under the range router each tenant
//!   prefix maps to its own shard, so one tenant's hot keys cannot queue
//!   behind another's.
//!
//! Each client paces itself to `CITRUS_SERVE_RPS / CITRUS_SERVE_CLIENTS`
//! requests per second (closed loop: a late response pushes subsequent
//! sends later; the generator never opens unbounded in-flight windows)
//! and honors `retry-after` back-off on admission rejections via the
//! blocking session API. Latencies include queue wait and any back-off —
//! they are what a caller of the server would see.
//!
//! Reported percentiles are log2-bucket upper bounds (power-of-two
//! resolution). Rows persist to `BENCH_serve.json`, identity-keyed by
//! `scenario × op × router × shards × clients × target_rps` for
//! `bench_gate`.

use citrus::{even_splitters, CitrusForest, ReclaimMode};
use citrus_api::testkit::SplitMix64;
use citrus_api::{ConcurrentMap, MapSession, OrderedMapSession};
use citrus_bench::{banner, benchjson, config_from_env_and_args};
use citrus_harness::{KeyDist, KeySampler, ServeMix, ServeOp};
use citrus_serve::{OpClass, ServeConfig, Server};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Shards (and drain workers) per server. Fixed so rows keep a stable
/// gate identity across hosts.
const SHARDS: usize = 4;
/// Tenants in the session-store scenario; each owns a `tenant << 40` key
/// prefix.
const TENANTS: u64 = 4;
/// Bits below the tenant prefix.
const TENANT_SHIFT: u32 = 40;
/// Width of each range scan request.
const SCAN_SPAN: u64 = 32;

const NOTES: &str = "closed-loop paced clients at a fixed aggregate RPS; latencies are \
     client-perceived (queue wait + batching + retry-after back-off included) and the \
     percentiles are log2-bucket upper bounds from citrus-obs histograms, so adjacent \
     runs quantize to powers of two. ops_per_s is the achieved per-class rate; at a \
     sustainable target it tracks the mix shares of target_rps, and a large shortfall \
     (or a rejected count exploding) means the host could not hold the target. \
     1-core bench host: thread-per-shard workers and clients all timeshare one CPU, \
     so tail percentiles carry scheduler noise; the gate threshold is sized for that.";

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(raw) => raw.trim().parse().unwrap_or_else(|e| {
            panic!("invalid {name}={raw:?}: {e} (expected an unsigned integer)")
        }),
        Err(std::env::VarError::NotPresent) => default,
        Err(e) => panic!("invalid {name}: {e}"),
    }
}

#[derive(Debug, Clone)]
struct Scenario {
    name: &'static str,
    mix: ServeMix,
    key_dist: KeyDist,
    /// Per-tenant local key range (whole range for routing-table).
    local_range: u64,
    tenants: u64,
}

impl Scenario {
    fn key_space(&self) -> u64 {
        if self.tenants == 1 {
            self.local_range
        } else {
            ((self.tenants - 1) << TENANT_SHIFT) + self.local_range
        }
    }

    /// Draws one key for `client`: tenant prefix (clients are pinned
    /// round-robin to tenants) plus a local draw from the scenario's
    /// distribution.
    fn draw_key(&self, client: usize, sampler: &KeySampler, rng: &mut SplitMix64) -> u64 {
        let local = sampler.sample(rng);
        if self.tenants == 1 {
            local
        } else {
            ((client as u64 % self.tenants) << TENANT_SHIFT) | local
        }
    }
}

#[derive(Debug, Clone)]
struct Row {
    scenario: &'static str,
    op: &'static str,
    router: &'static str,
    key_dist: String,
    clients: usize,
    target_rps: u64,
    ops_per_s: f64,
    p50_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
    rejected: u64,
    retries: u64,
}

fn class_index(class: OpClass) -> usize {
    match class {
        OpClass::Read => 0,
        OpClass::Write => 1,
        OpClass::Scan => 2,
    }
}

fn run_cell(
    scenario: &Scenario,
    router: &'static str,
    clients: usize,
    target_rps: u64,
    duration: Duration,
) -> Vec<Row> {
    let forest: CitrusForest<u64, u64> = match router {
        "hash" => CitrusForest::with_config(SHARDS, 0x5E47E, ReclaimMode::Epoch),
        "range" => CitrusForest::with_range_router_options(
            even_splitters(SHARDS, scenario.key_space()),
            ReclaimMode::Epoch,
        ),
        other => panic!("unknown router {other}"),
    };
    let server = Server::with_config(forest, ServeConfig::default());

    // Prefill half of each tenant's local range (uniform, like every
    // other bench: skewed runs start from the same occupancy).
    {
        let mut s = server.session();
        let uniform = KeyDist::Uniform.sampler(scenario.local_range);
        let mut rng = SplitMix64::new(0x5EE1);
        for t in 0..scenario.tenants {
            for _ in 0..scenario.local_range / 2 {
                let k = (t << TENANT_SHIFT) | uniform.sample(&mut rng);
                s.insert(k, k);
            }
        }
    }

    let sampler = scenario.key_dist.sampler(scenario.local_range);
    let interval = Duration::from_nanos(1_000_000_000 * clients as u64 / target_rps.max(1));
    // Per-class completed-request counters, summed over clients.
    let counts: [AtomicU64; 3] = Default::default();
    let retries = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (server, scenario, sampler, counts, retries) =
                (&server, scenario, &sampler, &counts, &retries);
            scope.spawn(move || {
                let mut session = server.session();
                let mut rng = SplitMix64::new(0x10AD_0000 + c as u64);
                let mut local = [0u64; 3];
                let start = Instant::now();
                let mut next_tick = start;
                while start.elapsed() < duration {
                    // Closed-loop pacing: wait for this client's next
                    // send slot; a slow response eats into the budget
                    // instead of piling up in-flight requests.
                    let now = Instant::now();
                    if next_tick > now {
                        std::thread::sleep(next_tick - now);
                    }
                    next_tick += interval;
                    let key = scenario.draw_key(c, sampler, &mut rng);
                    let class = match scenario.mix.pick(rng.below(100) as u32) {
                        ServeOp::Get => {
                            std::hint::black_box(session.get(&key));
                            OpClass::Read
                        }
                        ServeOp::Insert => {
                            std::hint::black_box(session.insert(key, key));
                            OpClass::Write
                        }
                        ServeOp::Remove => {
                            std::hint::black_box(session.remove(&key));
                            OpClass::Write
                        }
                        ServeOp::Scan => {
                            std::hint::black_box(session.range_scan(&key, &(key + SCAN_SPAN)));
                            OpClass::Scan
                        }
                    };
                    local[class_index(class)] += 1;
                }
                for (i, n) in local.into_iter().enumerate() {
                    counts[i].fetch_add(n, Ordering::Relaxed);
                }
                retries.fetch_add(session.rejections(), Ordering::Relaxed);
            });
        }
    });

    let rejected = server.counters().rejected();
    let secs = duration.as_secs_f64();
    let rows = OpClass::ALL
        .map(|class| {
            let snap = server.metrics().latency_snapshot(class);
            Row {
                scenario: scenario.name,
                op: class.label(),
                router,
                key_dist: scenario.key_dist.label(),
                clients,
                target_rps,
                ops_per_s: counts[class_index(class)].load(Ordering::Relaxed) as f64 / secs,
                p50_ns: snap.p50(),
                p99_ns: snap.p99(),
                p999_ns: snap.p999(),
                rejected,
                retries: retries.load(Ordering::Relaxed),
            }
        })
        .to_vec();
    let mut forest = server.into_forest();
    forest
        .validate_structure()
        .expect("forest invariants must hold after the storm");
    rows
}

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

fn fmt_ns(v: u64) -> String {
    if v >= 1_000_000 {
        format!("{:.1}ms", v as f64 / 1e6)
    } else if v >= 1_000 {
        format!("{:.1}us", v as f64 / 1e3)
    } else {
        format!("{v}ns")
    }
}

fn row_json(r: &Row) -> String {
    format!(
        "{{\"scenario\": \"{}\", \"op\": \"{}\", \"router\": \"{}\", \"key_dist\": \"{}\", \
         \"shards\": {}, \"clients\": {}, \"target_rps\": {}, \"ops_per_s\": {}, \
         \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"rejected\": {}, \"retries\": {}}}",
        benchjson::esc(r.scenario),
        benchjson::esc(r.op),
        benchjson::esc(r.router),
        benchjson::esc(&r.key_dist),
        SHARDS,
        r.clients,
        r.target_rps,
        benchjson::num(r.ops_per_s),
        r.p50_ns,
        r.p99_ns,
        r.p999_ns,
        r.rejected,
        r.retries
    )
}

fn main() {
    banner("citrus-serve storm — paced mixed tenants over the batched server");
    let cfg = config_from_env_and_args();
    let target_rps = env_u64("CITRUS_SERVE_RPS", 4_000);
    let clients = usize::try_from(env_u64("CITRUS_SERVE_CLIENTS", 4))
        .expect("CITRUS_SERVE_CLIENTS out of range");
    assert!(clients > 0, "CITRUS_SERVE_CLIENTS must be > 0");
    assert!(target_rps > 0, "CITRUS_SERVE_RPS must be > 0");
    let duration = cfg.duration;

    let scenarios = [
        Scenario {
            name: "routing-table",
            mix: ServeMix::routing_table(),
            key_dist: KeyDist::Uniform,
            local_range: cfg.range_small,
            tenants: 1,
        },
        Scenario {
            name: "session-store",
            mix: ServeMix::session_store(),
            key_dist: KeyDist::Zipf { theta: 0.99 },
            local_range: cfg.range_small / TENANTS,
            tenants: TENANTS,
        },
    ];

    let mut rows: Vec<Row> = Vec::new();
    for scenario in &scenarios {
        for router in ["hash", "range"] {
            println!(
                "== {} / {router} router: {clients} clients at {target_rps} req/s total, \
                 {SHARDS} shards, mix {}, keys {} ==",
                scenario.name, scenario.mix, scenario.key_dist
            );
            let cell = run_cell(scenario, router, clients, target_rps, duration);
            for r in &cell {
                println!(
                    "  {:<6} {:>8}/s   p50 {:>8}  p99 {:>8}  p999 {:>8}   (rejected {}, retries {})",
                    r.op,
                    fmt_rate(r.ops_per_s),
                    fmt_ns(r.p50_ns),
                    fmt_ns(r.p99_ns),
                    fmt_ns(r.p999_ns),
                    r.rejected,
                    r.retries
                );
            }
            println!();
            rows.extend(cell);
        }
    }

    let mut body = String::new();
    let _ = write!(
        body,
        "{{\n  \"bench\": \"serve\",\n  \"title\": \"citrus-serve paced storm, {SHARDS} shards, \
         key range [0,{}]\",\n  \"notes\": \"{}\",\n  \"cells\": [",
        cfg.range_small,
        benchjson::esc(NOTES)
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            body,
            "{}\n    {}",
            if i == 0 { "" } else { "," },
            row_json(r)
        );
    }
    body.push_str("\n  ]\n}\n");
    match benchjson::write("serve", &body) {
        Ok(path) => println!("(bench json: {})", path.display()),
        Err(e) => eprintln!("(bench json write failed: {e})"),
    }
}
