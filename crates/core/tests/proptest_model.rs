//! Property-based tests: arbitrary operation sequences against a
//! `BTreeMap` model, for both RCU flavors and both reclamation modes.

use citrus::{CitrusTree, GlobalLockRcu, ReclaimMode, ScalableRcu};
use citrus_rcu::RcuFlavor;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One dictionary operation.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u16),
    Remove(u8),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| Op::Insert(k, v)),
        any::<u8>().prop_map(Op::Remove),
        any::<u8>().prop_map(Op::Get),
    ]
}

/// Applies `ops` to a fresh tree and to a model, asserting every return
/// value matches, then audits the final state and structure.
fn run_against_model<F: RcuFlavor>(mode: ReclaimMode, ops: &[Op]) -> Result<(), TestCaseError> {
    let tree: CitrusTree<u8, u16, F> = CitrusTree::with_reclaim(mode);
    let mut model: BTreeMap<u8, u16> = BTreeMap::new();
    {
        let mut s = tree.session();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Insert(k, v) => {
                    let expected = !model.contains_key(&k);
                    if expected {
                        model.insert(k, v);
                    }
                    prop_assert_eq!(s.insert(k, v), expected, "op {}: insert({})", i, k);
                }
                Op::Remove(k) => {
                    let expected = model.remove(&k).is_some();
                    prop_assert_eq!(s.remove(&k), expected, "op {}: remove({})", i, k);
                }
                Op::Get(k) => {
                    let expected = model.get(&k).copied();
                    prop_assert_eq!(s.get(&k), expected, "op {}: get({})", i, k);
                }
            }
        }
    }
    let mut tree = tree;
    let stats = tree.validate_structure().expect("structure invariants");
    prop_assert_eq!(stats.len, model.len());
    let contents = tree.to_vec_quiescent();
    let expected: Vec<(u8, u16)> = model.into_iter().collect();
    prop_assert_eq!(contents, expected);
    Ok(())
}

// Small key space (u8) maximizes collisions, duplicate inserts, and
// two-child deletions.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn model_scalable_epoch(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_against_model::<ScalableRcu>(ReclaimMode::Epoch, &ops)?;
    }

    #[test]
    fn model_scalable_leak(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_against_model::<ScalableRcu>(ReclaimMode::Leak, &ops)?;
    }

    #[test]
    fn model_global_lock_epoch(ops in prop::collection::vec(op_strategy(), 1..400)) {
        run_against_model::<GlobalLockRcu>(ReclaimMode::Epoch, &ops)?;
    }

    #[test]
    fn insert_all_then_remove_all(mut keys in prop::collection::btree_set(any::<u8>(), 1..=64)) {
        let tree: CitrusTree<u8, u16> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
        let mut s = tree.session();
        for &k in &keys {
            prop_assert!(s.insert(k, u16::from(k)));
        }
        // Remove in a rotated order so interior nodes go first sometimes.
        let order: Vec<u8> = keys.iter().copied().collect();
        let pivot = order.len() / 2;
        for &k in order[pivot..].iter().chain(&order[..pivot]) {
            prop_assert!(s.remove(&k), "remove({k}) of present key failed");
            prop_assert!(!s.contains(&k));
            keys.remove(&k);
        }
        drop(s);
        let mut tree = tree;
        prop_assert!(tree.is_empty_quiescent());
        tree.validate_structure().unwrap();
    }

    #[test]
    fn values_never_cross_keys(ops in prop::collection::vec(op_strategy(), 1..300)) {
        // Value integrity: a get(k) may only ever return a value that was
        // inserted under k.
        let tree: CitrusTree<u8, u16> = CitrusTree::with_reclaim(ReclaimMode::Epoch);
        let mut inserted: BTreeMap<u8, Vec<u16>> = BTreeMap::new();
        let mut s = tree.session();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    if s.insert(k, v) {
                        inserted.entry(k).or_default().push(v);
                    }
                }
                Op::Remove(k) => {
                    s.remove(&k);
                }
                Op::Get(k) => {
                    if let Some(v) = s.get(&k) {
                        prop_assert!(
                            inserted.get(&k).is_some_and(|vs| vs.contains(&v)),
                            "get({k}) returned {v}, never inserted under that key"
                        );
                    }
                }
            }
        }
    }
}
