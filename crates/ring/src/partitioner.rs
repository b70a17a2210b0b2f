//! The pure `key → virtual node` mapping.
//!
//! The paper hashes a key to an integer, then takes it modulo the (fixed)
//! virtual-node count. The vnode count "is abstracted as a configurable
//! parameter, however, once it is set, we can not change it unless restart
//! the Sedna cluster" — so [`Partitioner`] is an immutable value created at
//! cluster-configuration time. The paper sizes it as ~100 vnodes per real
//! node at the cluster's maximum size (e.g. 100 000 vnodes for 1 000
//! servers).

use sedna_common::{Key, VNodeId};

/// Immutable key-space partition function.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partitioner {
    vnode_count: u32,
}

impl Partitioner {
    /// Creates a partitioner over `vnode_count` virtual nodes.
    ///
    /// # Panics
    /// Panics when `vnode_count` is zero.
    pub fn new(vnode_count: u32) -> Self {
        assert!(vnode_count > 0, "vnode count must be positive");
        Partitioner { vnode_count }
    }

    /// The paper's sizing rule: ~100 virtual nodes per real node at the
    /// cluster's maximum planned size.
    pub fn for_max_nodes(max_nodes: u32) -> Self {
        Partitioner::new(max_nodes.max(1).saturating_mul(100))
    }

    /// Total number of virtual nodes.
    #[inline]
    pub fn vnode_count(&self) -> u32 {
        self.vnode_count
    }

    /// Maps a key to its virtual node: `hash(key) mod vnode_count`.
    #[inline]
    pub fn locate(&self, key: &Key) -> VNodeId {
        VNodeId((key.ring_hash() % self.vnode_count as u64) as u32)
    }

    /// Maps a precomputed [`Key::ring_hash`] to its virtual node. Store
    /// rows keep that hash, so a walk over them never rehashes a key.
    #[inline]
    pub fn locate_hash(&self, hash: u64) -> VNodeId {
        VNodeId((hash % self.vnode_count as u64) as u32)
    }

    /// Iterates over all vnode ids (for boot-time znode creation and tests).
    pub fn vnodes(&self) -> impl Iterator<Item = VNodeId> {
        (0..self.vnode_count).map(VNodeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_is_stable_and_in_range() {
        let p = Partitioner::new(1_000);
        for i in 0..10_000 {
            let key = Key::from(format!("test-{i:014}"));
            let v = p.locate(&key);
            assert!(v.0 < 1_000);
            assert_eq!(v, p.locate(&key), "stable for same key");
            assert_eq!(v, p.locate_hash(key.ring_hash()));
        }
    }

    #[test]
    fn distribution_is_near_uniform() {
        // The paper relies on slices being equal; with a decent hash, 60k
        // paper-style keys over 900 vnodes should put every vnode near the
        // mean (~67) — we allow a generous band.
        let p = Partitioner::new(900);
        let mut counts = vec![0u32; 900];
        for i in 0..60_000 {
            let key = Key::from(format!("test-{i:014}"));
            counts[p.locate(&key).index()] += 1;
        }
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(min >= 30, "min bucket {min}");
        assert!(max <= 120, "max bucket {max}");
    }

    #[test]
    fn for_max_nodes_uses_paper_rule() {
        assert_eq!(Partitioner::for_max_nodes(1_000).vnode_count(), 100_000);
        assert_eq!(Partitioner::for_max_nodes(9).vnode_count(), 900);
        assert_eq!(Partitioner::for_max_nodes(0).vnode_count(), 100);
    }

    #[test]
    #[should_panic(expected = "vnode count must be positive")]
    fn zero_vnodes_rejected() {
        Partitioner::new(0);
    }

    #[test]
    fn vnodes_iterator_covers_all() {
        let p = Partitioner::new(5);
        let all: Vec<_> = p.vnodes().collect();
        assert_eq!(
            all,
            vec![VNodeId(0), VNodeId(1), VNodeId(2), VNodeId(3), VNodeId(4)]
        );
    }
}
