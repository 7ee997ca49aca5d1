//! The run's result: named metrics with units, the sample count behind
//! each percentile, and the final JSON line.

use crate::hist::Pct;
use crate::unit_of;

#[derive(Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    notes: Vec<String>,
    /// Percentiles with fewer than ten samples beyond them.
    thin: Vec<&'static str>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            self.metrics.iter().all(|m| m.0 != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name, value));
    }

    /// Reports a percentile, scaled from ns by `div`, and notes its
    /// sample count.
    pub fn put_pct(&mut self, name: &'static str, p: Pct, div: f64) {
        self.put(name, p.value / div);
        if p.beyond < 10 {
            self.thin.push(name);
        }
        let windows = match p.windows {
            1 => String::new(),
            w => format!(" per window, lower quartile of {w} windows"),
        };
        self.note(format!("{name}: n={} beyond={}{windows}", p.n, p.beyond));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn thin_tail(&self) -> Option<&'static str> {
        self.thin.first().copied()
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.0).collect()
    }

    /// Prints the notes, one `name value unit` line per metric, and the
    /// JSON result as the last line of standard output.
    pub fn print(&self, correct: bool, attempted: u64, failed: u64) {
        for line in &self.notes {
            println!("# {line}");
        }
        for &(name, value) in &self.metrics {
            println!("# {name} = {} {}", json_number(value), unit_of(name));
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    json_number(value),
                    unit_of(name)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        );
    }
}

/// A percentile that falls among failed requests is infinite; JSON has no
/// infinity, so it prints as the largest finite decade.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e308".to_string()
    }
}
