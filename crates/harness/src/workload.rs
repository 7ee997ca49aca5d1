//! Workload specification: operation mixes, key ranges, thread counts.

use crate::keydist::KeyDist;
use core::fmt;
use std::time::Duration;

/// An operation mix, as percentages of `contains` / `insert` / `delete`.
///
/// The paper's mixes split the update share evenly between inserts and
/// deletes (e.g. "50% contains" means 50/25/25).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpMix {
    /// Percent of operations that are `contains`.
    pub contains: u32,
    /// Percent that are `insert`.
    pub insert: u32,
    /// Percent that are `delete`.
    pub delete: u32,
}

impl OpMix {
    /// A mix with the given `contains` percentage and the update share
    /// split evenly (the paper's convention).
    ///
    /// # Panics
    ///
    /// Panics if `contains_pct > 100` or the update share is odd.
    pub fn with_contains(contains_pct: u32) -> Self {
        assert!(contains_pct <= 100);
        let updates = 100 - contains_pct;
        assert!(updates.is_multiple_of(2), "update share must split evenly");
        Self {
            contains: contains_pct,
            insert: updates / 2,
            delete: updates / 2,
        }
    }

    /// The single-writer updater mix of Figure 9: 50% insert, 50% delete.
    pub fn updates_only() -> Self {
        Self {
            contains: 0,
            insert: 50,
            delete: 50,
        }
    }

    /// 100% `contains`.
    pub fn read_only() -> Self {
        Self {
            contains: 100,
            insert: 0,
            delete: 0,
        }
    }

    /// Picks an operation from a uniform draw in `[0, 100)`.
    pub(crate) fn pick(&self, draw: u32) -> OpKind {
        if draw < self.contains {
            OpKind::Contains
        } else if draw < self.contains + self.insert {
            OpKind::Insert
        } else {
            OpKind::Delete
        }
    }
}

impl fmt::Display for OpMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}c/{}i/{}d", self.contains, self.insert, self.delete)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Contains,
    Insert,
    Delete,
}

/// A four-way serving mix: point gets, inserts, removes, and range scans,
/// as percentages summing to 100. This is the request-layer analogue of
/// [`OpMix`] — the `serve_storm` load generator draws from it to shape
/// traffic against a `citrus-serve` front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeMix {
    /// Percent of requests that are point `get`s.
    pub get: u32,
    /// Percent that are `insert`s.
    pub insert: u32,
    /// Percent that are `remove`s.
    pub remove: u32,
    /// Percent that are range scans.
    pub scan: u32,
}

/// One drawn serving operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// A point `get`.
    Get,
    /// An `insert`.
    Insert,
    /// A `remove`.
    Remove,
    /// A range scan.
    Scan,
}

impl ServeMix {
    /// A mix from explicit percentages.
    ///
    /// # Panics
    ///
    /// Panics unless the four shares sum to exactly 100.
    #[must_use]
    pub fn new(get: u32, insert: u32, remove: u32, scan: u32) -> Self {
        assert_eq!(
            get + insert + remove + scan,
            100,
            "serve mix must sum to 100"
        );
        Self {
            get,
            insert,
            remove,
            scan,
        }
    }

    /// A read-heavy routing-table shape: 88% gets, 5% inserts, 5%
    /// removes, 2% scans.
    #[must_use]
    pub fn routing_table() -> Self {
        Self::new(88, 5, 5, 2)
    }

    /// A write-heavier session-store shape: 60% gets, 18% inserts, 17%
    /// removes, 5% scans.
    #[must_use]
    pub fn session_store() -> Self {
        Self::new(60, 18, 17, 5)
    }

    /// Picks an operation from a uniform draw in `[0, 100)`.
    #[must_use]
    pub fn pick(&self, draw: u32) -> ServeOp {
        if draw < self.get {
            ServeOp::Get
        } else if draw < self.get + self.insert {
            ServeOp::Insert
        } else if draw < self.get + self.insert + self.remove {
            ServeOp::Remove
        } else {
            ServeOp::Scan
        }
    }
}

impl fmt::Display for ServeMix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}g/{}i/{}r/{}s",
            self.get, self.insert, self.remove, self.scan
        )
    }
}

/// A full workload configuration for one throughput run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Keys are drawn from `[0, key_range)` per [`key_dist`](Self::key_dist).
    pub key_range: u64,
    /// Operation mix for (non-single-writer) worker threads.
    pub mix: OpMix,
    /// Number of worker threads.
    pub threads: usize,
    /// Timed duration of the run.
    pub duration: Duration,
    /// Figure 9 mode: thread 0 runs 50% insert / 50% delete and every
    /// other thread runs 100% `contains`.
    pub single_writer: bool,
    /// Number of distinct keys pre-inserted before timing (the paper uses
    /// half the key range). Prefill keys are always drawn uniformly, so
    /// skewed runs start from the same occupancy as uniform ones.
    pub prefill: u64,
    /// Distribution the timed phase draws its keys from (the paper's
    /// methodology is [`KeyDist::Uniform`]).
    pub key_dist: KeyDist,
}

impl WorkloadSpec {
    /// The paper's configuration: prefill to half the key range, uniform
    /// key draws.
    pub fn new(key_range: u64, mix: OpMix, threads: usize, duration: Duration) -> Self {
        Self {
            key_range,
            mix,
            threads,
            duration,
            single_writer: false,
            prefill: key_range / 2,
            key_dist: KeyDist::Uniform,
        }
    }

    /// Figure 9's single-writer variant.
    pub fn single_writer(key_range: u64, threads: usize, duration: Duration) -> Self {
        Self {
            key_range,
            mix: OpMix::read_only(),
            threads,
            duration,
            single_writer: true,
            prefill: key_range / 2,
            key_dist: KeyDist::Uniform,
        }
    }

    /// The same workload with its timed draws taken from `dist` (prefill
    /// stays uniform).
    #[must_use]
    pub fn with_key_dist(mut self, dist: KeyDist) -> Self {
        self.key_dist = dist;
        self
    }
}

/// The algorithms of the evaluation (§5), i.e. every line in Figures 8–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// Citrus over the paper's scalable RCU (leak-mode reclamation, as in
    /// the paper's runs).
    Citrus,
    /// Citrus over the classic global-lock RCU — the "standard RCU" line
    /// of Figure 8.
    CitrusStdRcu,
    /// Citrus in `Epoch` mode: removed nodes freed after the remover's
    /// next RCU grace period (beyond-paper configuration, used by the
    /// ablation bench).
    CitrusEpoch,
    /// Bronson-style optimistic AVL.
    Avl,
    /// Lazy skiplist.
    Skiplist,
    /// Natarajan–Mittal-style lock-free external BST.
    LockFree,
    /// Relativistic red-black tree (global update lock).
    Rbtree,
    /// Bonsai (path-copying, global update lock).
    Bonsai,
}

impl Algo {
    /// All six lines of Figures 9 and 10.
    pub const FIGURE_SET: [Algo; 6] = [
        Algo::Citrus,
        Algo::Avl,
        Algo::Skiplist,
        Algo::LockFree,
        Algo::Rbtree,
        Algo::Bonsai,
    ];

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Algo::Citrus => "Citrus",
            Algo::CitrusStdRcu => "Citrus (standard RCU)",
            Algo::CitrusEpoch => "Citrus (Epoch: RCU retire)",
            Algo::Avl => "AVL",
            Algo::Skiplist => "Skiplist",
            Algo::LockFree => "Lock-Free",
            Algo::Rbtree => "Red-Black",
            Algo::Bonsai => "Bonsai",
        }
    }
}

impl fmt::Display for Algo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_add_to_100() {
        for pct in [100, 98, 50, 0] {
            let m = OpMix::with_contains(pct);
            assert_eq!(m.contains + m.insert + m.delete, 100);
        }
    }

    #[test]
    fn pick_respects_boundaries() {
        let m = OpMix::with_contains(50);
        assert_eq!(m.pick(0), OpKind::Contains);
        assert_eq!(m.pick(49), OpKind::Contains);
        assert_eq!(m.pick(50), OpKind::Insert);
        assert_eq!(m.pick(74), OpKind::Insert);
        assert_eq!(m.pick(75), OpKind::Delete);
        assert_eq!(m.pick(99), OpKind::Delete);
    }

    #[test]
    #[should_panic]
    fn odd_update_share_panics() {
        let _ = OpMix::with_contains(99);
    }

    #[test]
    fn spec_prefills_half_range() {
        let s = WorkloadSpec::new(1000, OpMix::read_only(), 4, Duration::from_millis(10));
        assert_eq!(s.prefill, 500);
        assert!(!s.single_writer);
        assert!(WorkloadSpec::single_writer(10, 2, Duration::from_millis(1)).single_writer);
    }

    #[test]
    fn serve_mix_pick_respects_boundaries() {
        let m = ServeMix::routing_table();
        assert_eq!(m.pick(0), ServeOp::Get);
        assert_eq!(m.pick(87), ServeOp::Get);
        assert_eq!(m.pick(88), ServeOp::Insert);
        assert_eq!(m.pick(92), ServeOp::Insert);
        assert_eq!(m.pick(93), ServeOp::Remove);
        assert_eq!(m.pick(97), ServeOp::Remove);
        assert_eq!(m.pick(98), ServeOp::Scan);
        assert_eq!(m.pick(99), ServeOp::Scan);
        assert_eq!(m.to_string(), "88g/5i/5r/2s");
    }

    #[test]
    #[should_panic(expected = "serve mix must sum to 100")]
    fn serve_mix_must_sum_to_100() {
        let _ = ServeMix::new(50, 20, 20, 20);
    }

    #[test]
    fn labels_are_distinct() {
        use std::collections::HashSet;
        let set: HashSet<_> = Algo::FIGURE_SET.iter().map(|a| a.label()).collect();
        assert_eq!(set.len(), Algo::FIGURE_SET.len());
    }
}
