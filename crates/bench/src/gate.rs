//! Bench-regression gate: diffs a freshly generated `BENCH_*.json`
//! document against the committed baseline and flags throughput drops.
//!
//! The persisted bench documents have different shapes (figure reports
//! carry `series[].ops_per_s` arrays, the forest sweep and the RCU micro
//! carry `cells[]` rows), so the gate does not hard-code any one schema.
//! Instead it walks both documents and treats every object that carries a
//! throughput field ([`METRIC_KEYS`]) as a *row*, identified by its
//! position-independent fingerprint: the JSON path of object keys leading
//! to it plus its configuration fields ([`IDENTITY_KEYS`]: `flavor`,
//! `shards`, `router`, `label`, …). Measured side-channel fields
//! (`piggybacks`, `grace_periods`) are neither identity nor metric, so
//! run-to-run noise in them cannot unmatch a row. Rows are matched by
//! fingerprint — reordering cells or appending new ones never confuses
//! the gate — and a matched row regresses when a fresh metric falls more
//! than the threshold below its baseline value.
//!
//! Used by the `bench_gate` binary, which CI runs after the smoke
//! benchmarks regenerate `BENCH_rcu_micro.json` and `BENCH_forest.json`.

use crate::benchjson::Json;
use std::collections::BTreeMap;
use std::fmt;

/// Object fields the gate treats as throughput metrics (higher is
/// better). Everything else in a row is identity.
pub const METRIC_KEYS: [&str; 4] = ["ops_per_s", "synchronize_per_s", "scans_per_s", "per_sec"];

/// Object fields that identify a row (workload configuration). Scalar
/// fields outside this list — measured counters like `piggybacks` — are
/// ignored entirely, so their run-to-run noise cannot unmatch a row.
pub const IDENTITY_KEYS: [&str; 19] = [
    "bench",
    "label",
    "flavor",
    "sharing",
    "syncers",
    "updaters",
    "readers",
    "shards",
    "contains_pct",
    "threads",
    "mode",
    "scanners",
    "span",
    "router",
    "key_dist",
    "scenario",
    "op",
    "clients",
    "target_rps",
];

/// Default tolerated drop before a row fails the gate, in percent.
pub const DEFAULT_MAX_DROP_PCT: f64 = 30.0;

/// One failed comparison: a fresh metric fell below the allowed fraction
/// of its baseline value.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// The row's fingerprint (path plus identity fields).
    pub row: String,
    /// Which metric regressed (`ops_per_s[2]`, `synchronize_per_s`, …).
    pub metric: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
}

impl Regression {
    /// The relative drop, in percent of the baseline.
    #[must_use]
    pub fn drop_pct(&self) -> f64 {
        (1.0 - self.fresh / self.baseline) * 100.0
    }
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {:.3e} -> {:.3e} ({:.1}% drop)",
            self.row,
            self.metric,
            self.baseline,
            self.fresh,
            self.drop_pct()
        )
    }
}

/// The outcome of [`check`].
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Metric values compared (rows matched in both documents).
    pub compared: usize,
    /// Comparisons that exceeded the allowed drop.
    pub regressions: Vec<Regression>,
    /// Baseline rows with no fresh counterpart (reported, not fatal:
    /// bench documents are allowed to change shape across PRs).
    pub missing: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (no regression beyond the threshold).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `fresh` against `baseline`, failing any matched row whose
/// throughput dropped by more than `max_drop_pct` percent.
#[must_use]
pub fn check(baseline: &Json, fresh: &Json, max_drop_pct: f64) -> GateReport {
    let base_rows = collect_rows(baseline);
    let fresh_rows = collect_rows(fresh);
    let mut report = GateReport::default();
    let allowed = 1.0 - max_drop_pct / 100.0;
    for (row, base_metrics) in &base_rows {
        let Some(fresh_metrics) = fresh_rows.get(row) else {
            report.missing.push(row.clone());
            continue;
        };
        for (metric, base_value) in base_metrics {
            // A metric absent or null (NaN) on either side is skipped:
            // there is nothing sound to compare.
            let Some(&fresh_value) = fresh_metrics.get(metric) else {
                continue;
            };
            report.compared += 1;
            if *base_value > 0.0 && fresh_value < base_value * allowed {
                report.regressions.push(Regression {
                    row: row.clone(),
                    metric: metric.clone(),
                    baseline: *base_value,
                    fresh: fresh_value,
                });
            }
        }
    }
    report
}

/// Flattens a document into `fingerprint -> {metric name -> value}`.
///
/// Duplicate fingerprints (two rows with identical identity fields — not
/// produced by our writers, but possible) get a `#n` suffix in document
/// order so nothing is silently dropped.
fn collect_rows(doc: &Json) -> BTreeMap<String, BTreeMap<String, f64>> {
    let mut rows = BTreeMap::new();
    walk(doc, "", &mut rows);
    rows
}

fn walk(node: &Json, path: &str, rows: &mut BTreeMap<String, BTreeMap<String, f64>>) {
    match node {
        Json::Obj(members) => {
            let mut metrics = BTreeMap::new();
            let mut identity: Vec<String> = Vec::new();
            for (key, value) in members {
                if METRIC_KEYS.contains(&key.as_str()) {
                    match value {
                        Json::Num(n) => {
                            metrics.insert(key.clone(), *n);
                        }
                        Json::Arr(items) => {
                            for (i, item) in items.iter().enumerate() {
                                if let Some(n) = item.as_f64() {
                                    metrics.insert(format!("{key}[{i}]"), n);
                                }
                            }
                        }
                        _ => {}
                    }
                } else if IDENTITY_KEYS.contains(&key.as_str()) {
                    match value {
                        Json::Str(s) => identity.push(format!("{key}={s}")),
                        Json::Num(n) => identity.push(format!("{key}={n}")),
                        Json::Bool(b) => identity.push(format!("{key}={b}")),
                        _ => {}
                    }
                }
            }
            if !metrics.is_empty() {
                identity.sort();
                let mut fingerprint = format!("{path}{{{}}}", identity.join(", "));
                if rows.contains_key(&fingerprint) {
                    let mut n = 2;
                    while rows.contains_key(&format!("{fingerprint}#{n}")) {
                        n += 1;
                    }
                    fingerprint = format!("{fingerprint}#{n}");
                }
                rows.insert(fingerprint, metrics);
            }
            for (key, value) in members {
                if METRIC_KEYS.contains(&key.as_str()) {
                    continue;
                }
                if matches!(value, Json::Obj(_) | Json::Arr(_)) {
                    walk(value, &format!("{path}{key}."), rows);
                }
            }
        }
        // Array position is deliberately NOT part of the path: rows keep
        // their fingerprint when cells are reordered or new ones are
        // appended between them.
        Json::Arr(items) => {
            for item in items {
                walk(item, path, rows);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchjson::parse;

    fn doc(s: &str) -> Json {
        parse(s).expect("test document must parse")
    }

    #[test]
    fn matched_rows_within_threshold_pass() {
        let base = doc(r#"{"cells": [
                {"flavor": "a", "shards": 2, "ops_per_s": 1000.0},
                {"flavor": "b", "shards": 2, "ops_per_s": 2000.0}
            ]}"#);
        let fresh = doc(r#"{"cells": [
                {"flavor": "b", "shards": 2, "ops_per_s": 1500.0},
                {"flavor": "a", "shards": 2, "ops_per_s": 900.0}
            ]}"#);
        // Reordered cells still match; 10% and 25% drops are tolerated.
        let report = check(&base, &fresh, 30.0);
        assert_eq!(report.compared, 2);
        assert!(report.passed(), "{:?}", report.regressions);
        assert!(report.missing.is_empty());
    }

    #[test]
    fn drop_beyond_threshold_regresses() {
        let base = doc(r#"{"cells": [{"flavor": "a", "ops_per_s": 1000.0}]}"#);
        let fresh = doc(r#"{"cells": [{"flavor": "a", "ops_per_s": 650.0}]}"#);
        let report = check(&base, &fresh, 30.0);
        assert_eq!(report.regressions.len(), 1);
        let r = &report.regressions[0];
        assert_eq!(r.metric, "ops_per_s");
        assert!(r.row.contains("flavor=a"), "row was {}", r.row);
        assert!((r.drop_pct() - 35.0).abs() < 1e-9);
        // A looser threshold lets the same drop through.
        assert!(check(&base, &fresh, 40.0).passed());
    }

    #[test]
    fn series_arrays_compare_per_index() {
        let base = doc(r#"{"series": [{"label": "citrus", "ops_per_s": [100.0, 200.0, 400.0]}]}"#);
        let fresh = doc(r#"{"series": [{"label": "citrus", "ops_per_s": [95.0, 120.0, 410.0]}]}"#);
        let report = check(&base, &fresh, 30.0);
        assert_eq!(report.compared, 3);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "ops_per_s[1]");
    }

    #[test]
    fn identity_uses_config_fields_and_path() {
        // Same flavor but different `router`: distinct rows, so the fast
        // range-routed cell must not mask the slow hash-routed one.
        let base = doc(r#"{"cells": [
                {"flavor": "a", "router": "hash", "ops_per_s": 1000.0},
                {"flavor": "a", "router": "range", "ops_per_s": 3000.0}
            ]}"#);
        let fresh = doc(r#"{"cells": [
                {"flavor": "a", "router": "hash", "ops_per_s": 100.0},
                {"flavor": "a", "router": "range", "ops_per_s": 3000.0}
            ]}"#);
        let report = check(&base, &fresh, 30.0);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].row.contains("router=hash"));

        // Same identity fields under different parents: distinct rows.
        let nested_base = doc(r#"{"storm": {"cells": [{"syncers": 1, "per_sec": 100.0}]},
                "scan": {"cells": [{"syncers": 1, "per_sec": 500.0}]}}"#);
        let rows = collect_rows(&nested_base);
        assert_eq!(rows.len(), 2, "rows: {:?}", rows.keys().collect::<Vec<_>>());
    }

    #[test]
    fn missing_rows_are_reported_but_not_fatal() {
        let base = doc(r#"{"cells": [
                {"flavor": "a", "ops_per_s": 1000.0},
                {"flavor": "gone", "ops_per_s": 1000.0}
            ]}"#);
        let fresh = doc(r#"{"cells": [{"flavor": "a", "ops_per_s": 1000.0}]}"#);
        let report = check(&base, &fresh, 30.0);
        assert!(report.passed());
        assert_eq!(report.missing.len(), 1);
        assert!(report.missing[0].contains("flavor=gone"));
    }

    #[test]
    fn null_metrics_are_skipped() {
        // NaN serializes as null; neither side can be compared soundly.
        let base = doc(r#"{"s": [{"label": "x", "ops_per_s": [100.0, null]}]}"#);
        let fresh = doc(r#"{"s": [{"label": "x", "ops_per_s": [100.0, 5.0]}]}"#);
        let report = check(&base, &fresh, 30.0);
        assert_eq!(report.compared, 1);
        assert!(report.passed());
    }

    #[test]
    fn real_writer_output_produces_rows() {
        // The actual forest/rcu_micro writer shapes must be visible to the
        // gate — if a writer renames its throughput field, this fails.
        let forest = doc(r#"{"bench": "forest", "cells": [
                {"flavor": "rcu-scalable", "shards": 4, "contains_pct": 0,
                 "threads": 8, "router": "range", "ops_per_s": 2.5e6,
                 "sync_calls_per_shard": [0, 0, 0, 0],
                 "grace_periods_per_shard": [3, 1, 2, 2], "occupancy": [10, 11, 9, 12]}
            ]}"#);
        let rows = collect_rows(&forest);
        assert_eq!(rows.len(), 1);
        let (row, metrics) = rows.iter().next().unwrap();
        assert!(row.contains("router=range") && row.contains("shards=4"));
        assert_eq!(metrics.get("ops_per_s"), Some(&2.5e6));

        let micro = doc(
            r#"{"bench": "rcu_micro", "read_side_ns": {"rcu-scalable": 18.0},
                "storm": {"duration_ms": 200, "readers": 2, "cells": [
                    {"flavor": "rcu-scalable", "sharing": true, "syncers": 8,
                     "synchronize_per_s": 1.2e5, "piggybacks": 900, "grace_periods": 80}
                ]}}"#,
        );
        let rows = collect_rows(&micro);
        assert_eq!(rows.len(), 1);
        let row = rows.keys().next().unwrap();
        assert!(row.contains("sharing=true"));
        assert!(
            !row.contains("piggybacks"),
            "measured counters must not be identity (they change every run): {row}"
        );

        let scan = doc(
            r#"{"bench": "rcu_micro", "scan": {"duration_ms": 200, "scanners": 2, "cells": [
                    {"flavor": "rcu-scalable", "updaters": 4, "span": 256,
                     "scans_per_s": 3.0e4, "entries_per_scan": 128.0, "restarts": 17}
                ]}}"#,
        );
        let rows = collect_rows(&scan);
        assert_eq!(rows.len(), 1);
        let (row, metrics) = rows.iter().next().unwrap();
        assert!(
            row.contains("updaters=4") && row.contains("span=256"),
            "row was {row}"
        );
        assert_eq!(metrics.get("scans_per_s"), Some(&3.0e4));
        assert!(
            !row.contains("restarts"),
            "restart counts are measured noise, not identity: {row}"
        );
    }

    #[test]
    fn serve_scenario_and_op_class_are_identity() {
        // Serve rows are keyed per scenario × op class × load shape; a
        // healthy scan row must not mask a regressed get row, and the
        // latency percentiles ride along as plain (non-gated) fields.
        let base = doc(r#"{"bench": "serve", "cells": [
                {"scenario": "routing-table", "op": "get", "router": "hash",
                 "clients": 4, "target_rps": 4000, "ops_per_s": 3500.0,
                 "p50_ns": 8191, "p99_ns": 65535, "p999_ns": 131071},
                {"scenario": "routing-table", "op": "scan", "router": "hash",
                 "clients": 4, "target_rps": 4000, "ops_per_s": 90.0,
                 "p50_ns": 16383, "p99_ns": 131071, "p999_ns": 262143}
            ]}"#);
        let fresh = doc(r#"{"bench": "serve", "cells": [
                {"scenario": "routing-table", "op": "get", "router": "hash",
                 "clients": 4, "target_rps": 4000, "ops_per_s": 350.0,
                 "p50_ns": 8191, "p99_ns": 65535, "p999_ns": 131071},
                {"scenario": "routing-table", "op": "scan", "router": "hash",
                 "clients": 4, "target_rps": 4000, "ops_per_s": 90.0,
                 "p50_ns": 16383, "p99_ns": 131071, "p999_ns": 262143}
            ]}"#);
        let report = check(&base, &fresh, 30.0);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].row.contains("op=get"));

        let rows = collect_rows(&base);
        let row = rows.keys().next().unwrap();
        assert!(
            row.contains("scenario=") && row.contains("op=") && row.contains("target_rps="),
            "row was {row}"
        );
        assert!(
            !row.contains("p99_ns"),
            "latency percentiles are reported fields, not identity: {row}"
        );
    }

    #[test]
    fn router_and_key_dist_are_identity() {
        // Forest cells carry the routing policy and key distribution; the
        // same shard count under different routers must be distinct rows,
        // so a fast range cell cannot mask a regressed hash cell.
        let base = doc(r#"{"cells": [
                {"flavor": "a", "shards": 4, "router": "hash", "key_dist": "uniform", "ops_per_s": 1000.0},
                {"flavor": "a", "shards": 4, "router": "range", "key_dist": "uniform", "ops_per_s": 3000.0}
            ]}"#);
        let fresh = doc(r#"{"cells": [
                {"flavor": "a", "shards": 4, "router": "hash", "key_dist": "uniform", "ops_per_s": 100.0},
                {"flavor": "a", "shards": 4, "router": "range", "key_dist": "uniform", "ops_per_s": 3000.0}
            ]}"#);
        let report = check(&base, &fresh, 30.0);
        assert_eq!(report.regressions.len(), 1);
        assert!(report.regressions[0].row.contains("router=hash"));

        let rows = collect_rows(&base);
        let row = rows.keys().next().unwrap();
        assert!(
            row.contains("router=") && row.contains("key_dist="),
            "row was {row}"
        );
    }
}
