//! Environment-driven scaling of the benchmark suite: the one place bench
//! binaries read `CITRUS_*` knobs. Library constructors take the parsed
//! values as arguments.

use crate::keydist::KeyDist;
use citrus::RouterKind;
use citrus_api::testkit::parse_bool_knob;
use std::env::VarError;
use std::time::Duration;

/// Global benchmark parameters.
///
/// Defaults are scaled down so the whole suite completes in minutes on a
/// small machine; `CITRUS_PAPER=1` restores the paper's setup (5-second
/// runs, five repetitions, threads 1–64, key ranges 2·10⁵ and 2·10⁶).
///
/// | variable | meaning | default | paper |
/// |---|---|---|---|
/// | `CITRUS_PAPER` | use the paper's full parameters (`1`/`true`/`yes`) | unset | — |
/// | `CITRUS_DURATION_MS` | per-point run duration | 200 | 5000 |
/// | `CITRUS_REPS` | repetitions averaged per point | 1 | 5 |
/// | `CITRUS_THREADS` | comma-separated thread counts | `1,2,4,8` | `1,4,16,64` |
/// | `CITRUS_RANGE_SMALL` | small key range | 20000 | 200000 |
/// | `CITRUS_RANGE_LARGE` | large key range | 200000 | 2000000 |
/// | `CITRUS_SHARDS` | comma-separated forest shard counts | `1,2,4,8` | — |
/// | `CITRUS_METRICS` | attach internal-metrics sections to reports (`1`/`true`/`yes`) | unset | — |
/// | `CITRUS_ROUTER` | forest routing policy (`hash`/`range`) of the figure series' forests; the forest sweep A/Bs both routers regardless | `hash` | — |
/// | `CITRUS_KEY_DIST` | key distribution for timed workload draws (`uniform`/`zipf:<theta>`); prefill stays uniform | `uniform` | — |
///
/// Metric collection also requires the `stats` feature (on by default in
/// `citrus-bench`); without it the metrics sections are empty.
///
/// Malformed values are hard errors: `CITRUS_DURATION_MS=20O` aborts the
/// run instead of silently benchmarking the default and publishing
/// numbers for a configuration nobody asked for.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Per-point run duration.
    pub duration: Duration,
    /// Repetitions averaged per point.
    pub reps: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// The paper's `[0, 2·10⁵]` range (possibly scaled down).
    pub range_small: u64,
    /// The paper's `[0, 2·10⁶]` range (possibly scaled down).
    pub range_large: u64,
    /// Forest shard counts to sweep (`CitrusForest`); each is rounded up
    /// to a power of two by the forest constructor.
    pub shards: Vec<usize>,
    /// Collect internal metrics (RCU, reclamation, tree counters) during
    /// the highest-thread-count point of each figure panel.
    pub collect_metrics: bool,
    /// Forest routing policy of the figure series (the forest sweep's
    /// router axis A/Bs both regardless).
    pub router: RouterKind,
    /// Key distribution for timed workload draws.
    pub key_dist: KeyDist,
}

/// Parses one numeric knob value, panicking with the variable name and
/// offending text on anything malformed. A typo like
/// `CITRUS_DURATION_MS=20O` must abort the run, not silently bench the
/// default and report numbers nobody asked for.
fn parse_u64_knob(name: &str, raw: &str) -> u64 {
    match raw.trim().parse() {
        Ok(v) => v,
        Err(e) => panic!("invalid {name}={raw:?}: {e} (expected an unsigned integer)"),
    }
}

/// Parses a comma-separated list of positive counts (thread or shard
/// sweeps). Empty segments from stray commas are ignored; malformed or
/// zero entries and an empty overall list are hard errors.
fn parse_count_list(name: &str, raw: &str) -> Vec<usize> {
    let counts: Vec<usize> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| match s.parse::<usize>() {
            Ok(0) => panic!("invalid {name}={raw:?}: counts must be positive"),
            Ok(n) => n,
            Err(e) => {
                panic!("invalid {name}={raw:?}: {e} (expected comma-separated positive integers)")
            }
        })
        .collect();
    if counts.is_empty() {
        panic!("invalid {name}={raw:?}: expected at least one positive integer");
    }
    counts
}

/// A `std::env::var`-shaped variable lookup.
type Vars<'a> = &'a dyn Fn(&str) -> Result<String, VarError>;

/// Reads knob `name` through `parse`; `default` is parsed the same way
/// when the variable is unset.
fn knob<T>(vars: Vars<'_>, name: &str, default: &str, parse: fn(&str, &str) -> T) -> T {
    match vars(name) {
        Ok(raw) => parse(name, &raw),
        Err(VarError::NotPresent) => parse(name, default),
        Err(e) => panic!("invalid {name}: {e}"),
    }
}

impl BenchConfig {
    /// Reads the configuration from the environment (see type docs).
    pub fn from_env() -> Self {
        Self::from_vars(&|name| std::env::var(name))
    }

    fn from_vars(vars: Vars<'_>) -> Self {
        let paper = knob(vars, "CITRUS_PAPER", "", parse_bool_knob);
        let (d_duration, d_reps, d_threads, d_small, d_large) = if paper {
            ("5000", "5", "1,4,16,64", "200000", "2000000")
        } else {
            ("200", "1", "1,2,4,8", "20000", "200000")
        };
        let duration_ms = knob(vars, "CITRUS_DURATION_MS", d_duration, parse_u64_knob);
        Self {
            duration: Duration::from_millis(duration_ms),
            reps: knob(vars, "CITRUS_REPS", d_reps, parse_u64_knob) as usize,
            threads: knob(vars, "CITRUS_THREADS", d_threads, parse_count_list),
            range_small: knob(vars, "CITRUS_RANGE_SMALL", d_small, parse_u64_knob),
            range_large: knob(vars, "CITRUS_RANGE_LARGE", d_large, parse_u64_knob),
            shards: knob(vars, "CITRUS_SHARDS", "1,2,4,8", parse_count_list),
            collect_metrics: knob(vars, "CITRUS_METRICS", "", parse_bool_knob),
            router: knob(vars, "CITRUS_ROUTER", "", RouterKind::parse),
            key_dist: knob(vars, "CITRUS_KEY_DIST", "", KeyDist::parse),
        }
    }

    /// A minimal configuration for smoke tests.
    pub fn smoke() -> Self {
        Self {
            duration: Duration::from_millis(30),
            reps: 1,
            threads: vec![1, 2],
            range_small: 512,
            range_large: 2_048,
            shards: vec![1, 2],
            collect_metrics: false,
            router: RouterKind::Hash,
            key_dist: KeyDist::Uniform,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        // NOTE: reads the real environment; only check invariants that
        // hold for any configuration.
        let c = BenchConfig::from_env();
        assert!(!c.threads.is_empty());
        assert!(c.duration > Duration::ZERO);
        assert!(c.range_small <= c.range_large);
    }

    #[test]
    fn smoke_is_small() {
        let c = BenchConfig::smoke();
        assert!(c.duration < Duration::from_millis(100));
        assert_eq!(c.reps, 1);
    }

    #[test]
    fn numeric_knobs_parse_with_whitespace() {
        assert_eq!(parse_u64_knob("CITRUS_REPS", " 5 "), 5);
        assert_eq!(parse_u64_knob("CITRUS_DURATION_MS", "200"), 200);
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_DURATION_MS=\"20O\"")]
    fn malformed_numeric_knob_is_a_hard_error() {
        parse_u64_knob("CITRUS_DURATION_MS", "20O");
    }

    /// A configuration read from `pairs` instead of the environment.
    fn config_from(pairs: &[(&str, &str)]) -> BenchConfig {
        BenchConfig::from_vars(&|name| {
            pairs
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| (*v).to_string())
                .ok_or(VarError::NotPresent)
        })
    }

    #[test]
    fn boolean_knobs_read_false_as_false() {
        let off = ["", "0", "false", "no"].map(|raw| (raw, false));
        let on = ["1", "true", " yes "].map(|raw| (raw, true));
        for (raw, on) in off.into_iter().chain(on) {
            let c = config_from(&[("CITRUS_PAPER", raw), ("CITRUS_METRICS", raw)]);
            let paper = c.duration == Duration::from_millis(5_000);
            let got = (paper, c.collect_metrics);
            assert_eq!(got, (on, on), "{raw:?}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_METRICS=\"ture\"")]
    fn malformed_boolean_knob_is_a_hard_error() {
        config_from(&[("CITRUS_METRICS", "ture")]);
    }

    #[test]
    fn router_and_key_dist_knobs_parse() {
        let c = config_from(&[("CITRUS_ROUTER", "range"), ("CITRUS_KEY_DIST", "zipf:0.5")]);
        assert_eq!(c.router, RouterKind::Range);
        assert_eq!(c.key_dist, KeyDist::Zipf { theta: 0.5 });
    }

    #[test]
    fn count_lists_tolerate_spacing_and_stray_commas() {
        assert_eq!(
            parse_count_list("CITRUS_THREADS", "1, 2,4 ,8,"),
            [1, 2, 4, 8]
        );
        assert_eq!(parse_count_list("CITRUS_SHARDS", "16"), [16]);
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_THREADS=\"1,2,four\"")]
    fn malformed_count_entry_is_a_hard_error() {
        parse_count_list("CITRUS_THREADS", "1,2,four");
    }

    #[test]
    #[should_panic(expected = "counts must be positive")]
    fn zero_count_is_a_hard_error() {
        parse_count_list("CITRUS_SHARDS", "4,0");
    }

    #[test]
    #[should_panic(expected = "expected at least one positive integer")]
    fn empty_count_list_is_a_hard_error() {
        parse_count_list("CITRUS_THREADS", " , ,");
    }
}
