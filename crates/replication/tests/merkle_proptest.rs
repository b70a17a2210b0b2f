//! Property tests for the anti-entropy Merkle tree: incremental
//! maintenance must be indistinguishable from rebuilding, and leaf diffing
//! must localize divergence to exactly the buckets holding changed rows.

use proptest::prelude::*;
use sedna_common::{CausalContext, Key, NodeId, Timestamp, Value};
use sedna_memstore::VersionedValue;
use sedna_replication::{leaf_of, row_hash, MerkleTree};
use std::collections::HashMap;

#[derive(Clone, Debug)]
enum TreeOp {
    /// Insert or overwrite row `key` with a value derived from `stamp`.
    Put { key: u8, stamp: u64 },
    /// Delete row `key` if present.
    Del { key: u8 },
}

fn op_strategy() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (0u8..40, 1u64..1000).prop_map(|(key, stamp)| TreeOp::Put { key, stamp }),
        (0u8..40).prop_map(|key| TreeOp::Del { key }),
    ]
}

fn key_of(id: u8) -> Key {
    Key::from(format!("row-{id}"))
}

fn row_of(stamp: u64) -> (Vec<VersionedValue>, CausalContext) {
    let vs = vec![VersionedValue {
        ts: Timestamp::new(stamp, 0, NodeId((stamp % 5) as u32)),
        value: Value::from(format!("v{stamp}")),
    }];
    let clock = CausalContext::from_dots(vs.iter().map(|v| &v.ts));
    (vs, clock)
}

fn hash_of(key: &Key, stamp: u64) -> u64 {
    let (vs, clock) = row_of(stamp);
    row_hash(key, &vs, &clock)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An incrementally maintained tree equals a tree rebuilt from the
    /// final row set, bit for bit — leaves and root.
    #[test]
    fn incremental_update_equals_full_rebuild(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let mut tree = MerkleTree::new();
        let mut rows: HashMap<u8, u64> = HashMap::new();
        for op in ops {
            match op {
                TreeOp::Put { key, stamp } => {
                    let k = key_of(key);
                    match rows.insert(key, stamp) {
                        Some(old) => tree.update(k.ring_hash(), hash_of(&k, old), hash_of(&k, stamp)),
                        None => tree.add(k.ring_hash(), hash_of(&k, stamp)),
                    }
                }
                TreeOp::Del { key } => {
                    if let Some(old) = rows.remove(&key) {
                        tree.remove(key_of(key).ring_hash(), hash_of(&key_of(key), old));
                    }
                }
            }
        }
        let rebuilt = MerkleTree::from_rows(
            rows.iter().map(|(id, stamp)| (key_of(*id).ring_hash(), hash_of(&key_of(*id), *stamp))),
        );
        prop_assert_eq!(tree.leaves(), rebuilt.leaves());
        prop_assert_eq!(tree.root(), rebuilt.root());
    }

    /// Hash algebra: after any interleaving of add/update/remove, deleting
    /// whatever rows remain returns the tree to the empty-tree state — same
    /// leaves, same root. XOR leaves leak nothing once their rows are gone.
    #[test]
    fn interleaved_ops_then_full_removal_returns_to_empty_root(
        ops in proptest::collection::vec(op_strategy(), 1..120)
    ) {
        let empty_root = MerkleTree::new().root();
        let mut tree = MerkleTree::new();
        let mut rows: HashMap<u8, u64> = HashMap::new();
        for op in ops {
            match op {
                TreeOp::Put { key, stamp } => {
                    let k = key_of(key);
                    match rows.insert(key, stamp) {
                        Some(old) => tree.update(k.ring_hash(), hash_of(&k, old), hash_of(&k, stamp)),
                        None => tree.add(k.ring_hash(), hash_of(&k, stamp)),
                    }
                }
                TreeOp::Del { key } => {
                    if let Some(old) = rows.remove(&key) {
                        tree.remove(key_of(key).ring_hash(), hash_of(&key_of(key), old));
                    }
                }
            }
        }
        for (id, stamp) in rows.drain() {
            tree.remove(key_of(id).ring_hash(), hash_of(&key_of(id), stamp));
        }
        prop_assert_eq!(tree.leaves(), MerkleTree::new().leaves());
        prop_assert_eq!(tree.root(), empty_root);
    }

    /// A tree reconstructed from shipped leaves is indistinguishable from
    /// the original: same root, empty diff against the source.
    #[test]
    fn from_leaves_reconstructs_the_peer_tree(
        ops in proptest::collection::vec(op_strategy(), 0..80)
    ) {
        let mut rows: HashMap<u8, u64> = HashMap::new();
        for op in ops {
            match op {
                TreeOp::Put { key, stamp } => { rows.insert(key, stamp); }
                TreeOp::Del { key } => { rows.remove(&key); }
            }
        }
        let original = MerkleTree::from_rows(
            rows.iter().map(|(id, stamp)| (key_of(*id).ring_hash(), hash_of(&key_of(*id), *stamp))),
        );
        let shipped = MerkleTree::from_leaves(*original.leaves());
        prop_assert_eq!(shipped.root(), original.root());
        prop_assert_eq!(shipped.diff_leaves(original.leaves()), 0);
    }

    /// Diffing two trees built from row maps flags exactly the leaves whose
    /// buckets hold differing rows (missing, extra, or changed) — no false
    /// positives on untouched buckets.
    #[test]
    fn diff_flags_exactly_the_divergent_buckets(
        ops_a in proptest::collection::vec(op_strategy(), 1..80),
        ops_b in proptest::collection::vec(op_strategy(), 0..20),
    ) {
        let mut rows_a: HashMap<u8, u64> = HashMap::new();
        for op in ops_a {
            match op {
                TreeOp::Put { key, stamp } => { rows_a.insert(key, stamp); }
                TreeOp::Del { key } => { rows_a.remove(&key); }
            }
        }
        // Replica B = A plus a divergence suffix.
        let mut rows_b = rows_a.clone();
        for op in ops_b {
            match op {
                TreeOp::Put { key, stamp } => { rows_b.insert(key, stamp); }
                TreeOp::Del { key } => { rows_b.remove(&key); }
            }
        }
        let build = |rows: &HashMap<u8, u64>| {
            MerkleTree::from_rows(
                rows.iter().map(|(id, stamp)| (key_of(*id).ring_hash(), hash_of(&key_of(*id), *stamp))),
            )
        };
        let a = build(&rows_a);
        let b = build(&rows_b);

        let mut expected: u64 = 0;
        for id in 0u8..40 {
            if rows_a.get(&id) != rows_b.get(&id) {
                expected |= 1u64 << leaf_of(key_of(id).ring_hash());
            }
        }
        prop_assert_eq!(a.diff_leaves(b.leaves()), expected);
        prop_assert_eq!(b.diff_leaves(a.leaves()), expected);
        if expected == 0 {
            prop_assert_eq!(a.root(), b.root());
        } else {
            prop_assert_ne!(a.root(), b.root());
        }
    }
}
