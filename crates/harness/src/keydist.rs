//! Workload key distributions: uniform (the paper's methodology) and
//! Zipfian hot-key draws — the first slice of the scenario-diversity
//! roadmap item. Skewed draws exist to stress routing policies: hash
//! routing scatters hot keys across shards, range routing concentrates
//! them in one (the tradeoff DESIGN.md §6j documents).

use citrus_api::testkit::SplitMix64;
use core::fmt;

/// Which distribution timed workload threads draw their keys from.
///
/// Selected via `CITRUS_KEY_DIST`: `uniform` (the default) or
/// `zipf:<theta>` with `0 < theta < 1` (YCSB's default skew is
/// `zipf:0.99`). Prefill always draws uniformly so every run starts from
/// the same occupancy; only the timed phase is skewed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Uniform draws over the key range.
    Uniform,
    /// Zipfian draws: key `0` is the hottest and popularity decays
    /// polynomially, so a handful of small *adjacent* keys absorb most of
    /// the traffic.
    Zipf {
        /// Skew parameter in `(0, 1)`; larger is more skewed.
        theta: f64,
    },
}

impl KeyDist {
    /// Parses a distribution label; `name` is the knob being parsed, for
    /// the error message. Malformed values are hard errors, per the
    /// repo's env-knob convention.
    ///
    /// # Panics
    ///
    /// Panics unless `raw` (trimmed) is `""`, `"uniform"`, or
    /// `"zipf:<theta>"` with `theta` strictly between 0 and 1.
    #[must_use]
    pub fn parse(name: &str, raw: &str) -> Self {
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed == "uniform" {
            return Self::Uniform;
        }
        let Some(theta_raw) = trimmed.strip_prefix("zipf:") else {
            panic!("invalid {name}={trimmed:?}: expected \"uniform\" or \"zipf:<theta>\"");
        };
        let theta: f64 = match theta_raw.trim().parse() {
            Ok(t) => t,
            Err(e) => panic!("invalid {name}={trimmed:?}: {e} (expected zipf:<theta>)"),
        };
        assert!(
            theta > 0.0 && theta < 1.0,
            "invalid {name}={trimmed:?}: theta must be in (0, 1)"
        );
        Self::Zipf { theta }
    }

    /// Stable label used in bench JSON identity rows (`uniform`,
    /// `zipf:0.99`, …).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Self::Uniform => "uniform".to_string(),
            Self::Zipf { theta } => format!("zipf:{theta}"),
        }
    }

    /// Builds a sampler over `[0, key_range)`. The Zipfian construction
    /// is `O(key_range)` (one harmonic-sum pass); build once per run and
    /// clone per worker, not once per draw.
    ///
    /// # Panics
    ///
    /// Panics if `key_range == 0`.
    #[must_use]
    pub fn sampler(self, key_range: u64) -> KeySampler {
        KeySampler::new(self, key_range)
    }
}

impl fmt::Display for KeyDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Precomputed Zipfian constants (Gray et al.'s closed-form sampler, as
/// popularized by YCSB's `ZipfianGenerator`).
#[derive(Debug, Clone, Copy)]
struct ZipfTables {
    theta: f64,
    /// `1 / (1 - theta)`.
    alpha: f64,
    /// Generalized harmonic number `Σ_{i=1..n} i^-theta`.
    zetan: f64,
    /// The sampler's interpolation constant.
    eta: f64,
}

/// A seeded key sampler for one [`KeyDist`] over a fixed key range:
/// `O(1)` per draw, uniform or Zipfian.
#[derive(Debug, Clone)]
pub struct KeySampler {
    range: u64,
    zipf: Option<ZipfTables>,
}

impl KeySampler {
    fn new(dist: KeyDist, key_range: u64) -> Self {
        assert!(key_range > 0, "key sampler needs a positive key range");
        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::Zipf { theta } => {
                let n = key_range as f64;
                let zetan: f64 = (1..=key_range).map(|i| (i as f64).powf(-theta)).sum();
                let zeta2 = 1.0 + 0.5f64.powf(theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Some(ZipfTables {
                    theta,
                    alpha,
                    zetan,
                    eta,
                })
            }
        };
        Self {
            range: key_range,
            zipf,
        }
    }

    /// Draws one key in `[0, range)` from `rng`. Deterministic in the
    /// rng's seed, like every other harness draw.
    #[must_use]
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let Some(z) = &self.zipf else {
            return rng.below(self.range);
        };
        let u = rng.unit_f64();
        let uz = u * z.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(z.theta) {
            return 1;
        }
        let k = (self.range as f64 * (z.eta * u - z.eta + 1.0).powf(z.alpha)) as u64;
        // Float round-off can land exactly on `range`; clamp into bounds.
        k.min(self.range - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_uniform_and_zipf() {
        assert_eq!(KeyDist::parse("CITRUS_KEY_DIST", ""), KeyDist::Uniform);
        assert_eq!(
            KeyDist::parse("CITRUS_KEY_DIST", "uniform"),
            KeyDist::Uniform
        );
        assert_eq!(
            KeyDist::parse("CITRUS_KEY_DIST", " zipf:0.99 "),
            KeyDist::Zipf { theta: 0.99 }
        );
        assert_eq!(KeyDist::Zipf { theta: 0.99 }.label(), "zipf:0.99");
    }

    #[test]
    #[should_panic(expected = "invalid CITRUS_KEY_DIST=\"pareto\"")]
    fn unknown_distribution_is_a_hard_error() {
        let _ = KeyDist::parse("CITRUS_KEY_DIST", "pareto");
    }

    #[test]
    #[should_panic(expected = "theta must be in (0, 1)")]
    fn out_of_range_theta_is_a_hard_error() {
        let _ = KeyDist::parse("CITRUS_KEY_DIST", "zipf:1.5");
    }

    #[test]
    fn draws_are_seeded_and_in_range() {
        let sampler = KeyDist::Zipf { theta: 0.99 }.sampler(1_000);
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..10_000 {
            let k = sampler.sample(&mut a);
            assert!(k < 1_000);
            assert_eq!(k, sampler.sample(&mut b), "same seed, same draws");
        }
    }

    #[test]
    fn zipf_concentrates_on_small_adjacent_keys() {
        let sampler = KeyDist::Zipf { theta: 0.99 }.sampler(1_000);
        let mut rng = SplitMix64::new(7);
        let draws = 20_000;
        let mut counts = vec![0u64; 1_000];
        for _ in 0..draws {
            counts[sampler.sample(&mut rng) as usize] += 1;
        }
        // Under uniform each key would get ~20 draws; the hottest Zipfian
        // key gets hundreds, and the ten smallest keys together take a
        // large constant fraction of all traffic.
        assert!(counts[0] > 1_000, "hot key got {}", counts[0]);
        let top10: u64 = counts[..10].iter().sum();
        assert!(
            top10 > draws / 3,
            "ten hottest keys took {top10}/{draws} draws"
        );
    }

    #[test]
    fn uniform_spreads_across_the_range() {
        let sampler = KeyDist::Uniform.sampler(1_000);
        let mut rng = SplitMix64::new(7);
        let mut seen_high = false;
        for _ in 0..1_000 {
            let k = sampler.sample(&mut rng);
            assert!(k < 1_000);
            seen_high |= k >= 500;
        }
        assert!(seen_high, "uniform draws must reach the upper half");
    }

    #[test]
    fn tiny_ranges_still_sample() {
        for range in 1..=3u64 {
            let sampler = KeyDist::Zipf { theta: 0.5 }.sampler(range);
            let mut rng = SplitMix64::new(1);
            for _ in 0..100 {
                assert!(sampler.sample(&mut rng) < range);
            }
        }
    }
}
