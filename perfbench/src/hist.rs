//! Latency records: a log-linear histogram for per-call costs, and raw
//! series for end-to-end latencies.
//!
//! Values below 128 are exact; above, every power of two is split into 128
//! linear sub-buckets, and a percentile reports its bucket's midpoint, so
//! any reported value is within 1/256 (0.4 %) of a recorded one. Requests
//! that failed are kept as misses above every bucket: they miss every
//! latency limit.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    recorded: u64,
    misses: u64,
    sum: f64,
}

/// One percentile with the sample count behind it.
#[derive(Clone, Copy, Debug)]
pub struct Pct {
    /// `f64::INFINITY` when the rank falls among misses.
    pub value: f64,
    pub n: u64,
    /// Samples strictly above the percentile's rank (in each window, for
    /// a windowed percentile).
    pub beyond: u64,
    /// Windows the percentile is taken across; 1 when pooled.
    pub windows: u64,
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BITS;
    ((u64::from(shift) + 1) * SUB + ((v >> shift) - SUB)) as usize
}

fn midpoint(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let lower = (SUB + i % SUB) << shift;
    lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            recorded: 0,
            misses: 0,
            sum: 0.0,
        }
    }
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.recorded += 1;
        self.sum += v as f64;
    }

    pub fn record_miss(&mut self) {
        self.misses += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.recorded += other.recorded;
        self.misses += other.misses;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.recorded + self.misses
    }

    /// Mean of the recorded (non-miss) values; 0 when none.
    pub fn mean(&self) -> f64 {
        if self.recorded == 0 {
            0.0
        } else {
            self.sum / self.recorded as f64
        }
    }

    /// Nearest-rank percentile, `q` in (0, 1].
    pub fn pct(&self, q: f64) -> Pct {
        let n = self.count();
        if n == 0 {
            return Pct {
                value: 0.0,
                n,
                beyond: 0,
                windows: 1,
            };
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let beyond = n - rank;
        if rank > self.recorded {
            return Pct {
                value: f64::INFINITY,
                n,
                beyond,
                windows: 1,
            };
        }
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Pct {
                    value: midpoint(i),
                    n,
                    beyond,
                    windows: 1,
                };
            }
        }
        unreachable!("rank <= recorded samples")
    }
}

/// Requests per window of an end-to-end percentile; ten samples lie
/// beyond each window's p99.
pub const WINDOW: usize = 1000;

/// Where across windows an end-to-end percentile is read: the lower
/// quartile, the quietest quarter of the run.
const QUIET: f64 = 0.25;

/// End-to-end latencies of one client or collector, exact, summarised per
/// window of `WINDOW` consecutive requests as they arrive. The reported
/// p50 and p99 are each window's p50 and p99, read at the lower quartile
/// across windows. Stalls of the shared host (a vCPU descheduled for
/// milliseconds, for seconds at a time) only ever add latency, and spoil
/// the windows they fall in; a latency the program itself causes recurs
/// in every window, the quietest quarter included. Memory stays fixed
/// however fast the program runs.
#[derive(Default)]
pub struct Windows {
    open: Vec<u64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
}

impl Windows {
    pub fn record(&mut self, ns: u64) {
        self.open.push(ns);
        if self.open.len() == WINDOW {
            let mut pick = |q: f64| {
                let rank = (q * WINDOW as f64).ceil() as usize;
                match *self.open.select_nth_unstable(rank - 1).1 {
                    u64::MAX => f64::INFINITY,
                    v => v as f64,
                }
            };
            let (p50, p99) = (pick(0.5), pick(0.99));
            self.p50.push(p50);
            self.p99.push(p99);
            self.open.clear();
        }
    }

    /// A failed request: slower than every latency limit.
    pub fn record_miss(&mut self) {
        self.record(u64::MAX);
    }

    /// Adds `other`'s completed windows; an unfinished window is dropped.
    pub fn merge(&mut self, other: &Windows) {
        self.p50.extend_from_slice(&other.p50);
        self.p99.extend_from_slice(&other.p99);
    }

    pub fn p50(&self) -> Pct {
        Self::across(&self.p50, 500)
    }

    pub fn p99(&self) -> Pct {
        Self::across(&self.p99, 10)
    }

    fn across(per_window: &[f64], beyond: u64) -> Pct {
        let w = per_window.len();
        Pct {
            value: crate::quantile(per_window.to_vec(), QUIET),
            n: (w * WINDOW) as u64,
            beyond: if w == 0 { 0 } else { beyond },
            windows: w as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_values_stay_within_one_percent() {
        for v in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1000,
            12_345,
            1 << 40,
            u64::MAX,
        ] {
            let mid = midpoint(index(v));
            let err = (mid - v as f64).abs() / (v as f64).max(1.0);
            assert!(err <= 1.0 / 256.0, "v={v} mid={mid} err={err}");
        }
    }

    #[test]
    fn percentiles_count_misses_as_slowest() {
        let mut h = Hist::default();
        for v in 1..=98 {
            h.record(v);
        }
        h.record_miss();
        h.record_miss();
        assert_eq!(h.pct(0.5).value, 50.0);
        assert_eq!(h.pct(0.98).value, 98.0);
        let p99 = h.pct(0.99);
        assert!(p99.value.is_infinite());
        assert_eq!((p99.n, p99.beyond), (100, 1));
    }

    #[test]
    fn windowed_percentile_ignores_one_spoiled_window() {
        let mut w = Windows::default();
        for i in 0..5500u64 {
            let stalled = (1000..1100).contains(&i);
            w.record(if stalled { 1_000_000 } else { i % 100 });
        }
        let p = w.p99();
        assert_eq!((p.value, p.windows, p.beyond, p.n), (98.0, 5, 10, 5000));
        assert_eq!(w.p50().value, 49.0);
    }
}
