//! Per-vnode Merkle trees for anti-entropy.
//!
//! Read-triggered repair (Sec. III-C's read recovery) only converges keys
//! somebody reads. Cold keys that diverged during a partition would stay
//! diverged forever, so each data node also runs a background *anti-entropy*
//! sweep: replicas of a vnode exchange a compact digest of everything they
//! hold and ship only the rows that actually differ.
//!
//! The digest is a fixed-shape Merkle tree:
//!
//! * **64 leaves**, fanout **4**, depth **3** (64 → 16 → 4 → root). A row
//!   goes to the leaf named by the top 6 bits of its key's placement hash,
//!   [`Key::ring_hash`] — the hash the store already keeps per row — so
//!   both replicas bucket identically without coordination, and building a
//!   tree never hashes a key.
//! * A **leaf** is the XOR of its rows' [`row_hash`]es. XOR makes the leaf
//!   order-independent and incrementally maintainable: updating one row is
//!   `leaf ^= old_hash ^ new_hash`, and an incrementally maintained tree is
//!   bit-identical to one rebuilt from scratch (see the proptests).
//! * **Internal nodes** mix their four children through FNV-1a rather than
//!   XOR, so sibling differences cannot cancel on the way to the root.
//!
//! A row's hash covers its key, every live dot *and value*, and the row
//! clock. Including the clock is what drives replicas to full *context*
//! agreement: two replicas holding the same live siblings but different
//! pruning histories still digest differently and keep exchanging until
//! their clocks join.
//!
//! The sync protocol built on this (see the node layer): root digests are
//! compared first (one u64 per probe); on mismatch the 64 leaf hashes are
//! exchanged (512 bytes) and [`MerkleTree::diff_leaves`] localizes the
//! divergence to a [`LeafMask`] — a u64 bitmap — so only rows in differing
//! buckets are shipped.

use std::hash::Hasher;

use sedna_common::hashing::{fnv1a64, FnvHasher};
use sedna_common::{CausalContext, Key};
use sedna_memstore::VersionedValue;

/// Number of leaf buckets per tree.
pub const LEAVES: usize = 64;

/// Children per internal node.
pub const FANOUT: usize = 4;

/// Bitmap over the 64 leaves: bit `i` set ⇔ leaf `i` differs.
pub type LeafMask = u64;

/// The leaf bucket of a row whose key has placement hash `hash`
/// ([`Key::ring_hash`]): its top 6 bits. Vnode choice uses `hash` mod the
/// vnode count, which for a power-of-two count is its low bits — `hash %
/// 64` would put a whole vnode in one leaf — so the leaf takes the bits
/// at the other end.
#[inline]
pub fn leaf_of(hash: u64) -> usize {
    (hash >> (64 - LEAVES.trailing_zeros())) as usize
}

/// Content hash of one row: key, live versions (dot *and* value bytes),
/// and the row clock. Any difference a sync should repair — extra sibling,
/// different value, differing pruning history — changes this hash. The
/// fields stream through FNV-1a; nothing is buffered.
pub fn row_hash(key: &Key, versions: &[VersionedValue], clock: &CausalContext) -> u64 {
    let mut h = FnvHasher::default();
    h.write(&(key.len() as u32).to_le_bytes());
    h.write(key.as_bytes());
    // Versions are hashed order-independently (XOR of per-version hashes):
    // replicas may hold the same siblings in different list orders.
    let mut vh: u64 = 0;
    for v in versions {
        let mut vb = FnvHasher::default();
        vb.write(&v.ts.micros.to_le_bytes());
        vb.write(&v.ts.counter.to_le_bytes());
        vb.write(&v.ts.origin.0.to_le_bytes());
        vb.write(v.value.as_bytes());
        vh ^= vb.finish();
    }
    h.write(&vh.to_le_bytes());
    for (actor, (micros, counter)) in clock.entries() {
        h.write(&actor.0.to_le_bytes());
        h.write(&micros.to_le_bytes());
        h.write(&counter.to_le_bytes());
    }
    h.finish()
}

/// Mixes up to [`FANOUT`] child hashes into a parent hash. FNV over the
/// concatenated children: position-sensitive and non-cancelling.
fn mix(children: &[u64]) -> u64 {
    let mut buf = [0u8; FANOUT * 8];
    for (i, c) in children.iter().enumerate() {
        buf[i * 8..i * 8 + 8].copy_from_slice(&c.to_le_bytes());
    }
    fnv1a64(&buf)
}

/// A fixed-shape (64-leaf, fanout-4) Merkle tree over one vnode's rows.
///
/// Only the leaves are stored; the two internal levels and the root are
/// tiny (20 hashes) and recomputed on demand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    leaves: [u64; LEAVES],
}

impl Default for MerkleTree {
    fn default() -> Self {
        MerkleTree {
            leaves: [0; LEAVES],
        }
    }
}

impl MerkleTree {
    /// The empty tree (a vnode holding no rows).
    pub fn new() -> MerkleTree {
        MerkleTree::default()
    }

    /// Reconstructs a tree from a peer's shipped leaf hashes (the
    /// `SyncLeaves` payload). Lets the probing side compute the *peer's*
    /// root — and hence record a replica root matrix for the divergence
    /// observatory — without an extra round trip.
    pub fn from_leaves(leaves: [u64; LEAVES]) -> MerkleTree {
        MerkleTree { leaves }
    }

    /// Builds a tree from scratch over `(key_hash, row_hash)` pairs, where
    /// `key_hash` is the row's [`Key::ring_hash`].
    pub fn from_rows<I>(rows: I) -> MerkleTree
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut t = MerkleTree::new();
        for (key_hash, h) in rows {
            t.add(key_hash, h);
        }
        t
    }

    /// Adds a row's hash to the leaf of its `key_hash` ([`Key::ring_hash`]).
    /// XOR: calling [`MerkleTree::remove`] with the same hashes undoes it
    /// exactly.
    #[inline]
    pub fn add(&mut self, key_hash: u64, row_hash: u64) {
        self.leaves[leaf_of(key_hash)] ^= row_hash;
    }

    /// Removes a row's hash from its leaf (XOR is its own inverse).
    #[inline]
    pub fn remove(&mut self, key_hash: u64, row_hash: u64) {
        self.add(key_hash, row_hash);
    }

    /// Replaces a row's hash in place — the incremental maintenance hook
    /// for an in-place row update.
    #[inline]
    pub fn update(&mut self, key_hash: u64, old_hash: u64, new_hash: u64) {
        self.leaves[leaf_of(key_hash)] ^= old_hash ^ new_hash;
    }

    /// The 64 leaf hashes (what `SyncLeaves` ships: 512 bytes).
    pub fn leaves(&self) -> &[u64; LEAVES] {
        &self.leaves
    }

    /// Hashes of one internal level given the level below.
    fn level_above(below: &[u64]) -> Vec<u64> {
        below.chunks(FANOUT).map(mix).collect()
    }

    /// The root digest (what `SyncDigest` ships: 8 bytes per probe).
    pub fn root(&self) -> u64 {
        let l2 = Self::level_above(&self.leaves); // 16
        let l1 = Self::level_above(&l2); // 4
        mix(&l1)
    }

    /// Localizes divergence against a peer's leaves by descending from the
    /// root: a subtree whose hashes agree is skipped whole; disagreeing
    /// subtrees are split until the differing leaves are isolated. Returns
    /// the mask of differing leaves — exactly the buckets whose contents
    /// (rows or clocks) differ, nothing more.
    pub fn diff_leaves(&self, other_leaves: &[u64; LEAVES]) -> LeafMask {
        let my_l2 = Self::level_above(&self.leaves);
        let other_l2 = Self::level_above(other_leaves);
        let my_l1 = Self::level_above(&my_l2);
        let other_l1 = Self::level_above(&other_l2);
        let mut mask: LeafMask = 0;
        for a in 0..FANOUT {
            if my_l1[a] == other_l1[a] {
                continue;
            }
            for b in 0..FANOUT {
                let n = a * FANOUT + b;
                if my_l2[n] == other_l2[n] {
                    continue;
                }
                for c in 0..FANOUT {
                    let leaf = n * FANOUT + c;
                    if self.leaves[leaf] != other_leaves[leaf] {
                        mask |= 1u64 << leaf;
                    }
                }
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::{NodeId, Timestamp, Value};

    fn row(name: &str, micros: u64, origin: u32, val: &str) -> (Key, Vec<VersionedValue>) {
        (
            Key::from(name.to_string()),
            vec![VersionedValue {
                ts: Timestamp::new(micros, 0, NodeId(origin)),
                value: Value::from(val.to_string()),
            }],
        )
    }

    fn tree_of(rows: &[(Key, Vec<VersionedValue>)]) -> MerkleTree {
        MerkleTree::from_rows(rows.iter().map(|(k, vs)| {
            let clock = CausalContext::from_dots(vs.iter().map(|v| &v.ts));
            (k.ring_hash(), row_hash(k, vs, &clock))
        }))
    }

    #[test]
    fn identical_contents_identical_root_any_order() {
        let rows: Vec<_> = (0..50).map(|i| row(&format!("k{i}"), i, 0, "v")).collect();
        let mut rev = rows.clone();
        rev.reverse();
        assert_eq!(tree_of(&rows).root(), tree_of(&rev).root());
        assert_eq!(tree_of(&rows).leaves(), tree_of(&rev).leaves());
    }

    #[test]
    fn value_dot_and_clock_all_feed_the_hash() {
        let k = Key::from("k");
        let vs = vec![VersionedValue {
            ts: Timestamp::new(5, 0, NodeId(1)),
            value: Value::from("a"),
        }];
        let clock = CausalContext::from_dots(vs.iter().map(|v| &v.ts));
        let base = row_hash(&k, &vs, &clock);

        let mut other_val = vs.clone();
        other_val[0].value = Value::from("b");
        assert_ne!(base, row_hash(&k, &other_val, &clock));

        let mut other_dot = vs.clone();
        other_dot[0].ts = Timestamp::new(6, 0, NodeId(1));
        assert_ne!(base, row_hash(&k, &other_dot, &clock));

        let mut bigger_clock = clock.clone();
        bigger_clock.observe(&Timestamp::new(9, 0, NodeId(2)));
        assert_ne!(
            base,
            row_hash(&k, &vs, &bigger_clock),
            "pruning history must be digest-visible"
        );
    }

    #[test]
    fn diff_localizes_exactly_the_differing_leaves() {
        let rows: Vec<_> = (0..120)
            .map(|i| row(&format!("key-{i}"), i, 0, "same"))
            .collect();
        let a = tree_of(&rows);

        // Mutate two rows on the "replica".
        let mut mutated = rows.clone();
        mutated[7].1[0].value = Value::from("diverged");
        mutated[93].1[0].value = Value::from("diverged");
        let b = tree_of(&mutated);

        let expected: LeafMask = [&rows[7].0, &rows[93].0]
            .iter()
            .map(|k| 1u64 << leaf_of(k.ring_hash()))
            .fold(0, |m, bit| m | bit);

        assert_ne!(a.root(), b.root());
        assert_eq!(a.diff_leaves(b.leaves()), expected);
        assert_eq!(b.diff_leaves(a.leaves()), expected, "diff is symmetric");
        assert_eq!(a.diff_leaves(a.leaves()), 0, "self-diff is empty");
    }

    #[test]
    fn empty_versus_populated_diffs_every_occupied_leaf() {
        let rows: Vec<_> = (0..200).map(|i| row(&format!("k{i}"), i, 0, "v")).collect();
        let full = tree_of(&rows);
        let empty = MerkleTree::new();
        let expected: LeafMask = rows
            .iter()
            .map(|(k, _)| 1u64 << leaf_of(k.ring_hash()))
            .fold(0, |m, bit| m | bit);
        assert_eq!(empty.diff_leaves(full.leaves()), expected);
        // 200 keys over 64 buckets: all (or nearly all) leaves occupied —
        // the "full range" answer for an empty replica.
        assert!(expected.count_ones() >= 60);
    }

    #[test]
    fn add_remove_round_trips_to_empty() {
        let rows: Vec<_> = (0..30).map(|i| row(&format!("k{i}"), i, 1, "v")).collect();
        let mut t = tree_of(&rows);
        for (k, vs) in &rows {
            let clock = CausalContext::from_dots(vs.iter().map(|v| &v.ts));
            t.remove(k.ring_hash(), row_hash(k, vs, &clock));
        }
        assert_eq!(t, MerkleTree::new());
    }

    #[test]
    fn row_hash_is_pinned() {
        // Replicas running different builds must digest a row alike, so
        // the exact values are part of the sync protocol.
        fn vv(micros: u64, counter: u32, origin: u32, val: &str) -> VersionedValue {
            VersionedValue {
                ts: Timestamp::new(micros, counter, NodeId(origin)),
                value: Value::from(val),
            }
        }
        let a = vec![vv(5, 0, 1, "a")];
        let b = vec![vv(7, 2, 3, "bee")];
        let c = vec![vv(9, 0, 1, "x"), vv(11, 1, 2, "yy")];
        let mut c_clock = CausalContext::from_dots(c.iter().map(|v| &v.ts));
        c_clock.observe(&Timestamp::new(13, 0, NodeId(4)));
        let b_clock = CausalContext::from_dots(b.iter().map(|v| &v.ts));
        assert_eq!(
            row_hash(&Key::from("pin-a"), &a, &CausalContext::new()),
            0xcefb_3b99_52d4_e98d
        );
        assert_eq!(
            row_hash(&Key::from("pin-b"), &b, &b_clock),
            0x8ea8_e80f_3c11_f716
        );
        assert_eq!(
            row_hash(&Key::from("pin-c"), &c, &c_clock),
            0x8b36_9f9f_dd6d_8608
        );
    }

    #[test]
    fn one_vnode_spreads_over_the_leaves() {
        // A tree covers one vnode: keys with equal `ring_hash % vnodes`. The
        // leaf must come from bits that residue does not fix, whatever the
        // vnode count — a power of two included.
        for vnodes in [60u64, 64, 900] {
            let mut mask: LeafMask = 0;
            let mut held = 0;
            for i in 0.. {
                let hash = Key::from(format!("key-{i}")).ring_hash();
                if hash % vnodes != 0 {
                    continue;
                }
                mask |= 1u64 << leaf_of(hash);
                held += 1;
                if held == 640 {
                    break;
                }
            }
            assert!(
                mask.count_ones() >= 60,
                "{vnodes} vnodes: 640 keys of vnode 0 fill {} leaves",
                mask.count_ones()
            );
        }
    }
}
