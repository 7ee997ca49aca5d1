//! Output correctness: every response is checked as it arrives, and the
//! final contents are reconciled against the prefill plus the ledger of
//! successful inserts and removes.

use crate::gen::Op;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by `--plant-wrong-response`: the first successful insert any
/// checker sees is misreported as a failure, to show that the
/// reconciliation catches a wrong response.
pub static PLANT: AtomicBool = AtomicBool::new(false);

/// A response, in the shapes the tree, forest and server return.
pub enum Outcome {
    Value(Option<u64>),
    Flag(bool),
    Entries(Vec<(u64, u64)>),
}

/// One thread's checker: a per-key ledger of insert and remove responses
/// that returned `true`, plus the wrong answers seen.
pub struct Checker {
    /// Net successful inserts minus removes, per key.
    net: Vec<i32>,
    pub inserts_ok: u64,
    pub removes_ok: u64,
    wrong: u64,
    first_wrong: Option<String>,
}

impl Checker {
    pub fn new(key_range: u64) -> Self {
        Self {
            net: vec![0; key_range as usize],
            inserts_ok: 0,
            removes_ok: 0,
            wrong: 0,
            first_wrong: None,
        }
    }

    fn wrong(&mut self, what: String) {
        self.wrong += 1;
        self.first_wrong.get_or_insert(what);
    }

    pub fn observe(&mut self, op: Op, outcome: Outcome) {
        match (op, outcome) {
            (Op::Get(k), Outcome::Value(v)) => {
                if v.is_some_and(|v| v != k) {
                    self.wrong(format!("get({k}) returned {v:?}"));
                }
            }
            (Op::Contains(_), Outcome::Flag(_)) => {}
            (Op::Insert(k), Outcome::Flag(mut ok)) => {
                if ok && PLANT.load(Ordering::Relaxed) && PLANT.swap(false, Ordering::Relaxed) {
                    ok = false;
                }
                if ok {
                    self.net[k as usize] += 1;
                    self.inserts_ok += 1;
                }
            }
            (Op::Remove(k), Outcome::Flag(ok)) => {
                if ok {
                    self.net[k as usize] -= 1;
                    self.removes_ok += 1;
                }
            }
            (Op::Scan(lo, hi), Outcome::Entries(entries)) => {
                let mut prev = None;
                for &(k, v) in &entries {
                    if k < lo || k > hi || v != k || prev.is_some_and(|p| p >= k) {
                        self.wrong(format!(
                            "scan({lo}, {hi}) returned entry ({k}, {v}) after {prev:?}"
                        ));
                        break;
                    }
                    prev = Some(k);
                }
            }
            (op, _) => self.wrong(format!("{op:?} answered with the wrong response shape")),
        }
    }

    pub fn merge(&mut self, other: Checker) {
        for (a, b) in self.net.iter_mut().zip(&other.net) {
            *a += b;
        }
        self.inserts_ok += other.inserts_ok;
        self.removes_ok += other.removes_ok;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
    }

    /// Counts a wrong answer unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong(what());
        }
    }

    /// Checks the quiescent final contents (ascending, value equal to
    /// key) against the prefill plus the ledger.
    pub fn reconcile(&mut self, prefill: &[u64], contents: &[(u64, u64)]) {
        let mut expect: Vec<i32> = self.net.clone();
        for &k in prefill {
            expect[k as usize] += 1;
        }
        let mut present = vec![false; expect.len()];
        let mut prev = None;
        for &(k, v) in contents {
            if v != k || prev.is_some_and(|p| p >= k) || k as usize >= present.len() {
                self.wrong(format!("final contents hold ({k}, {v}) after {prev:?}"));
                return;
            }
            present[k as usize] = true;
            prev = Some(k);
        }
        for (k, (&e, &p)) in expect.iter().zip(&present).enumerate() {
            if e != i32::from(p) {
                self.wrong(format!(
                    "key {k}: prefill plus acknowledged inserts minus removes is {e}, final contents {}",
                    if p { "hold it" } else { "lack it" }
                ));
            }
        }
    }

    pub fn wrong_count(&self) -> u64 {
        self.wrong
    }

    pub fn first_wrong(&self) -> Option<&str> {
        self.first_wrong.as_deref()
    }
}
