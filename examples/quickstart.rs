//! Quickstart: the Citrus tree as a concurrent dictionary.
//!
//! Run with `cargo run --release --example quickstart`.

use citrus_repro::prelude::*;

fn main() {
    // A Citrus tree over the paper's scalable RCU; removed nodes are
    // freed after an RCU grace period (the safe default).
    let tree: CitrusTree<u64, String> = CitrusTree::new();

    // Threads interact through per-thread sessions.
    {
        let mut session = tree.session();
        assert!(session.insert(1, "one".into()));
        assert!(session.insert(2, "two".into()));
        assert!(!session.insert(1, "uno".into()), "insert never overwrites");
        assert_eq!(session.get(&1).as_deref(), Some("one"));
        assert!(session.remove(&1));
        assert_eq!(session.get(&1), None);
    }

    // Readers are wait-free and run in parallel with updaters.
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut session = tree.session();
            for k in 0..10_000u64 {
                session.insert(k, format!("value-{k}"));
            }
            for k in (0..10_000u64).step_by(2) {
                session.remove(&k);
            }
        });
        for _ in 0..3 {
            s.spawn(|| {
                let mut session = tree.session();
                let mut hits = 0u32;
                for k in 0..10_000u64 {
                    // Wait-free: never blocks, never retries, even while
                    // the updater thread restructures the tree.
                    if session.contains(&k) {
                        hits += 1;
                    }
                }
                println!("reader observed {hits} of 10000 keys (snapshot-dependent)");
            });
        }
    });

    // Exclusive access (no sessions alive) enables iteration and
    // structural checks — concurrent multi-key reads are exactly what
    // RCU with concurrent updaters cannot linearize (paper, Figure 1).
    let mut tree = tree;
    let stats = tree
        .validate_structure()
        .expect("structural invariants hold");
    println!(
        "final tree: {} keys, height {} (internal BST, unbalanced)",
        stats.len, stats.height
    );
    let sum: u64 = {
        let mut acc = 0;
        tree.for_each_quiescent(|k, _v| acc += k);
        acc
    };
    println!("sum of surviving keys: {sum}");

    // The same API runs over the classic global-lock RCU — the
    // configuration whose collapse the paper's Figure 8 shows.
    let std_rcu_tree: CitrusTree<u64, u64, GlobalLockRcu> =
        CitrusTree::with_reclaim(ReclaimMode::Leak);
    let mut session = std_rcu_tree.session();
    session.insert(7, 7);
    assert_eq!(session.get(&7), Some(7));
    println!("global-lock RCU flavor works identically (just slower under update load)");
}
