//! Seeded inputs: operations, keys, Poisson arrival times, the prefill set,
//! and the pacer that holds an open-loop sender to its schedule.

use citrus_api::testkit::SplitMix64;
use citrus_harness::{KeySampler, ServeMix, ServeOp};
use std::time::{Duration, Instant};

/// One generated operation. Keys are `u64` and every inserted value equals
/// its key.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Get(u64),
    Contains(u64),
    Insert(u64),
    Remove(u64),
    /// Inclusive bounds.
    Scan(u64, u64),
}

impl Op {
    /// The key a router sends this operation by (a scan's low bound).
    pub fn route_key(self) -> u64 {
        match self {
            Op::Get(k) | Op::Contains(k) | Op::Insert(k) | Op::Remove(k) | Op::Scan(k, _) => k,
        }
    }
}

/// Which operation shares a stream draws from.
#[derive(Clone, Copy, Debug)]
pub enum Mix {
    /// The paper's Fig. 8 update mix (50 % contains, 25 % insert, 25 %
    /// remove), with `scan_pct` percent of draws replaced by scans.
    Fig8 { scan_pct: u32, span: u64 },
    /// A serving mix; reads are `get`s.
    Serve { mix: ServeMix, span: u64 },
}

/// Derives an independent stream seed from the workload seed and a tag.
pub fn subseed(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

#[derive(Clone)]
pub struct OpStream {
    rng: SplitMix64,
    keys: KeySampler,
    mix: Mix,
}

impl OpStream {
    pub fn new(seed: u64, keys: KeySampler, mix: Mix) -> Self {
        Self {
            rng: SplitMix64::new(seed),
            keys,
            mix,
        }
    }

    pub fn next_op(&mut self) -> Op {
        let scan = |rng: &mut SplitMix64, keys: &KeySampler, span: u64| {
            let lo = keys.sample(rng);
            Op::Scan(lo, lo.saturating_add(span - 1))
        };
        match self.mix {
            Mix::Fig8 { scan_pct, span } => {
                if self.rng.below(100) < u64::from(scan_pct) {
                    return scan(&mut self.rng, &self.keys, span);
                }
                let draw = self.rng.below(100);
                let key = self.keys.sample(&mut self.rng);
                match draw {
                    0..=49 => Op::Contains(key),
                    50..=74 => Op::Insert(key),
                    _ => Op::Remove(key),
                }
            }
            Mix::Serve { mix, span } => match mix.pick(self.rng.below(100) as u32) {
                ServeOp::Get => Op::Get(self.keys.sample(&mut self.rng)),
                ServeOp::Insert => Op::Insert(self.keys.sample(&mut self.rng)),
                ServeOp::Remove => Op::Remove(self.keys.sample(&mut self.rng)),
                ServeOp::Scan => scan(&mut self.rng, &self.keys, span),
            },
        }
    }
}

/// Gaps between Poisson arrivals.
pub struct Arrivals {
    rng: SplitMix64,
}

impl Arrivals {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed),
        }
    }

    /// An exponential gap, in ns, at `rate` arrivals per second.
    pub fn gap_ns(&mut self, rate: f64) -> f64 {
        -(1.0 - self.rng.unit_f64()).ln() * 1e9 / rate
    }
}

/// Exactly half of `[0, range)`, chosen uniformly by a seeded shuffle and
/// returned in shuffled order (an unbalanced tree must not be filled in
/// key order).
pub fn prefill_keys(range: u64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut keys: Vec<u64> = (0..range).collect();
    let half = (range / 2) as usize;
    for i in 0..half {
        let j = i + rng.below(range - i as u64) as usize;
        keys.swap(i, j);
    }
    keys.truncate(half);
    keys
}

/// Nanoseconds since a fixed base, shared by every thread of a run.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn new() -> Self {
        Self(Instant::now())
    }

    pub fn now_ns(self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    pub fn sleep_until(self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// Wakes this much earlier than the measured mean overshoot, so most
/// wake-ups land before the due time rather than after it.
const LEAD_MARGIN_NS: u64 = 1_500;
const OVERSHOOT_CAP_NS: u64 = 20_000;

/// Holds a sender to its arrival schedule without burning a core: it
/// sleeps until shortly before each due time, by the wake-up overshoot it
/// has measured so far, and spins only the small remainder.
pub struct Pacer {
    clock: Clock,
    overshoot_ns: f64,
}

impl Pacer {
    pub fn new(clock: Clock) -> Self {
        tighten_timer_slack();
        Self {
            clock,
            overshoot_ns: 10_000.0,
        }
    }

    /// Returns once `due_ns` has passed, with the time it returned.
    pub fn wait_until(&mut self, due_ns: u64) -> u64 {
        let now = self.clock.now_ns();
        let lead = self.overshoot_ns as u64 + LEAD_MARGIN_NS;
        if due_ns > now + lead {
            let target = due_ns - lead;
            std::thread::sleep(Duration::from_nanos(target - now));
            let woke = self.clock.now_ns();
            // A wake-up the host delays by far more than the timer slack
            // says nothing about the next one; cap it out of the estimate.
            let overshoot = woke.saturating_sub(target).min(OVERSHOOT_CAP_NS) as f64;
            self.overshoot_ns += (overshoot - self.overshoot_ns) / 16.0;
        }
        loop {
            let now = self.clock.now_ns();
            if now >= due_ns {
                return now;
            }
            std::hint::spin_loop();
        }
    }
}

/// Linux rounds every sleep up by the thread's timer slack (50 µs by
/// default), far coarser than the gaps between arrivals; 1 ns makes a
/// sleep end within a few µs of its target.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK reads one unsigned long and changes only
    // the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}
