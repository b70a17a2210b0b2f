//! The virtual-node → real-node assignment.
//!
//! The paper's node-management story (Sec. III-D): a joining node registers
//! itself, then "start\[s\] number of threads … to ask for virtual nodes and
//! store them locally", updating the vnode→real-node mapping kept in the
//! coordination service. [`VNodeMap`] is that mapping. Mutations are
//! deterministic greedy claims that keep per-node slot counts balanced and
//! move the minimum number of vnodes (the "Incremental Scalability" row of
//! the paper's Table I), and every mutation emits a [`TransferPlan`]
//! describing exactly which vnode replicas must be copied where — the input
//! to the data-migration machinery in `sedna-core`.

use std::collections::{BTreeMap, BTreeSet};

use sedna_common::{NodeId, VNodeId};

/// One replica movement: vnode `vnode`'s replica slot is (re)assigned to
/// `to`, copying data from `copy_from` when available.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    /// The virtual node whose replica moves.
    pub vnode: VNodeId,
    /// The node that must now hold a replica.
    pub to: NodeId,
    /// Preferred source replica to copy from: the vacating holder when it is
    /// still alive (voluntary move), otherwise a surviving replica, or
    /// `None` when no copy exists (data recoverable only from persistence).
    pub copy_from: Option<NodeId>,
}

/// The ordered list of movements produced by one membership change or
/// rebalance round.
pub type TransferPlan = Vec<Transfer>;

/// The authoritative vnode → replicas assignment.
///
/// Replica lists are ordered: index 0 is the paper's *r1* (primary), the
/// rest are *r2, r3, …*. Every mutation bumps [`VNodeMap::epoch`], which is
/// what client routing caches compare against.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VNodeMap {
    n_replicas: usize,
    epoch: u64,
    /// Per-vnode ordered replica lists.
    replicas: Vec<Vec<NodeId>>,
    /// Live membership.
    members: BTreeSet<NodeId>,
    /// Slots held per member (cached; equals occurrences in `replicas`).
    loads: BTreeMap<NodeId, u32>,
}

impl VNodeMap {
    /// Creates an empty assignment over `vnode_count` virtual nodes with a
    /// replication factor of `n_replicas` (the paper uses 3).
    ///
    /// # Panics
    /// Panics when either argument is zero.
    pub fn new(vnode_count: u32, n_replicas: usize) -> Self {
        assert!(vnode_count > 0, "vnode count must be positive");
        assert!(n_replicas > 0, "replication factor must be positive");
        VNodeMap {
            n_replicas,
            epoch: 0,
            replicas: vec![Vec::new(); vnode_count as usize],
            members: BTreeSet::new(),
            loads: BTreeMap::new(),
        }
    }

    /// The configured replication factor N.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// Number of virtual nodes.
    pub fn vnode_count(&self) -> u32 {
        self.replicas.len() as u32
    }

    /// Monotone version of the assignment; bumped on every mutation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current membership, ascending.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// True when `node` is a member.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// Ordered replica list (r1 first) for a vnode. Empty before any join.
    pub fn replicas(&self, vnode: VNodeId) -> &[NodeId] {
        &self.replicas[vnode.index()]
    }

    /// The primary (r1) of a vnode, if assigned.
    pub fn primary(&self, vnode: VNodeId) -> Option<NodeId> {
        self.replicas[vnode.index()].first().copied()
    }

    /// Slots (vnode replicas) currently held by `node`.
    pub fn load(&self, node: NodeId) -> u32 {
        self.loads.get(&node).copied().unwrap_or(0)
    }

    /// All vnodes for which `node` holds a replica, ascending.
    pub fn vnodes_of(&self, node: NodeId) -> Vec<VNodeId> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, set)| set.contains(&node))
            .map(|(i, _)| VNodeId(i as u32))
            .collect()
    }

    /// Replication factor currently achievable: `min(N, member count)`.
    pub fn effective_rf(&self) -> usize {
        self.n_replicas.min(self.members.len())
    }

    /// Adds `node` to the cluster and rebalances slots onto it.
    ///
    /// Deterministic: the same map and the same joiner always produce the
    /// same plan. Returns the transfers required (empty only for a vacuous
    /// join of an existing member).
    pub fn join(&mut self, node: NodeId) -> TransferPlan {
        if !self.members.insert(node) {
            return Vec::new();
        }
        self.loads.insert(node, 0);
        self.epoch += 1;
        let mut plan = Vec::new();

        // Phase A: fill missing replica slots (first boot, or the effective
        // replication factor grew because membership did).
        let want = self.effective_rf();
        for i in 0..self.replicas.len() {
            while self.replicas[i].len() < want {
                let vnode = VNodeId(i as u32);
                let Some(pick) = self.least_loaded_excluding(&self.replicas[i]) else {
                    break;
                };
                let copy_from = self.replicas[i].first().copied();
                self.replicas[i].push(pick);
                *self.loads.get_mut(&pick).expect("member load") += 1;
                plan.push(Transfer {
                    vnode,
                    to: pick,
                    copy_from,
                });
            }
        }

        // Phase B: steal slots until the spread is at most one.
        self.balance(&mut plan);
        self.balance_primaries();
        plan
    }

    /// Evens out the *primary* (r1) role across members. Pure role
    /// rotation within replica sets: every replica already holds the data,
    /// so this moves zero bytes — it only decides who coordinates reads of
    /// and fires triggers for each vnode. Runs after every slot balance.
    fn balance_primaries(&mut self) {
        if self.members.is_empty() {
            return;
        }
        let mut counts: BTreeMap<NodeId, i64> = self.members.iter().map(|&m| (m, 0)).collect();
        for set in &self.replicas {
            if let Some(&p) = set.first() {
                *counts.get_mut(&p).expect("member") += 1;
            }
        }
        loop {
            let (&hot, &hot_count) = counts
                .iter()
                .max_by_key(|(n, c)| (**c, std::cmp::Reverse(**n)))
                .expect("non-empty");
            let (&cold, &cold_count) = counts
                .iter()
                .min_by_key(|(n, c)| (**c, **n))
                .expect("non-empty");
            if hot_count - cold_count <= 1 {
                return;
            }
            // A vnode where `hot` is primary and `cold` is a replica: swap.
            let Some(set) = self
                .replicas
                .iter_mut()
                .find(|set| set.first() == Some(&hot) && set[1..].contains(&cold))
            else {
                // `cold` shares no vnode with `hot`; demoting through an
                // intermediate would need a smarter matching — stop rather
                // than loop (slot balance keeps this case rare and mild).
                return;
            };
            let pos = set.iter().position(|&n| n == cold).expect("present");
            set.swap(0, pos);
            *counts.get_mut(&hot).expect("member") -= 1;
            *counts.get_mut(&cold).expect("member") += 1;
        }
    }

    /// Moves slots from the most- to the least-loaded member until the
    /// spread is at most one slot. Deterministic; appends to `plan`.
    ///
    /// A vnode already in `plan` is never stolen from: one mutation changes
    /// at most one replica of any vnode, so two of its three holders always
    /// carry over and an `R+W>N` read of the new set meets every write
    /// acknowledged by the old one. A crash re-cover plus a steal from the
    /// same vnode would leave a single survivor, and a read of the two
    /// newcomers' transfer snapshots would go back in time.
    fn balance(&mut self, plan: &mut TransferPlan) {
        let mut changed = vec![false; self.replicas.len()];
        for t in plan.iter() {
            changed[t.vnode.index()] = true;
        }
        while let Some((&cold, &cold_load)) = self.loads.iter().min_by_key(|(n, l)| (**l, **n)) {
            let Some((donor, donor_load)) = self.most_loaded_other(cold) else {
                break;
            };
            if donor_load <= cold_load + 1 {
                break;
            }
            let Some(vnode) = self.first_stealable_vnode(donor, cold, &changed) else {
                break;
            };
            changed[vnode.index()] = true;
            self.replace_in_slot(vnode, donor, cold);
            plan.push(Transfer {
                vnode,
                to: cold,
                copy_from: Some(donor),
            });
        }
    }

    /// Removes `node` (graceful leave or crash) and re-covers its slots on
    /// the survivors. When `node` crashed, the transfers' `copy_from` point
    /// at surviving replicas; when no survivor exists for a vnode the
    /// transfer is omitted and the vnode simply loses the slot.
    ///
    /// `graceful` marks whether the departing node can still serve as a copy
    /// source (planned decommission) or not (crash).
    pub fn leave(&mut self, node: NodeId, graceful: bool) -> TransferPlan {
        if !self.members.remove(&node) {
            return Vec::new();
        }
        self.loads.remove(&node);
        self.epoch += 1;
        let mut plan = Vec::new();
        let want = self.effective_rf();

        for i in 0..self.replicas.len() {
            let Some(pos) = self.replicas[i].iter().position(|&n| n == node) else {
                continue;
            };
            let vnode = VNodeId(i as u32);
            self.replicas[i].remove(pos);
            let replacement = self.least_loaded_excluding(&self.replicas[i]);
            match replacement {
                Some(pick) if self.replicas[i].len() < want => {
                    let copy_from = if graceful {
                        Some(node)
                    } else {
                        self.replicas[i].first().copied()
                    };
                    // Preserve the vacated role: a departed primary's slot is
                    // taken over at the front so r1 stays meaningful.
                    let at = pos.min(self.replicas[i].len());
                    self.replicas[i].insert(at, pick);
                    *self.loads.get_mut(&pick).expect("member load") += 1;
                    plan.push(Transfer {
                        vnode,
                        to: pick,
                        copy_from,
                    });
                }
                _ => {} // under-replicated: fewer members than N
            }
        }
        self.balance(&mut plan);
        self.balance_primaries();
        plan
    }

    /// Moves one replica slot of `vnode` from `from` to `to` (load-driven
    /// rebalancing). Returns the transfer, or `None` when the move is
    /// invalid (`from` not a holder, `to` already a holder or not a member).
    pub fn move_slot(&mut self, vnode: VNodeId, from: NodeId, to: NodeId) -> Option<Transfer> {
        if !self.members.contains(&to) || self.replicas[vnode.index()].contains(&to) {
            return None;
        }
        if !self.replicas[vnode.index()].contains(&from) {
            return None;
        }
        self.replace_in_slot(vnode, from, to);
        self.epoch += 1;
        Some(Transfer {
            vnode,
            to,
            copy_from: Some(from),
        })
    }

    /// Checks internal invariants; used by tests and debug assertions.
    pub fn check_invariants(&self) {
        let mut counted: BTreeMap<NodeId, u32> = BTreeMap::new();
        let want = self.effective_rf();
        for (i, set) in self.replicas.iter().enumerate() {
            assert_eq!(set.len(), want, "vnode {i} under/over-replicated");
            let distinct: BTreeSet<_> = set.iter().collect();
            assert_eq!(
                distinct.len(),
                set.len(),
                "vnode {i} has duplicate replicas"
            );
            for n in set {
                assert!(
                    self.members.contains(n),
                    "vnode {i} owned by non-member {n:?}"
                );
                *counted.entry(*n).or_insert(0) += 1;
            }
        }
        for (&n, &c) in &self.loads {
            assert_eq!(
                counted.get(&n).copied().unwrap_or(0),
                c,
                "load cache stale for {n:?}"
            );
        }
    }

    /// Asserts per-member slot counts are within one of each other. Holds
    /// after membership changes; *intentionally* violated by load-driven
    /// rebalancing, which trades slot balance for load balance — so this is
    /// a separate check from [`VNodeMap::check_invariants`].
    pub fn check_slot_balance(&self) {
        if !self.members.is_empty() {
            let min = self.loads.values().min().copied().unwrap_or(0);
            let max = self.loads.values().max().copied().unwrap_or(0);
            assert!(max - min <= 1, "slot imbalance {min}..{max}");
        }
    }

    /// Serializes the map for storage in the coordination service.
    ///
    /// Format (little-endian): `magic "SEDNARNG" | epoch u64 | n_replicas
    /// u32 | vnode_count u32 | member_count u32 | members… | per-vnode:
    /// replica_count u8, replica ids…`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.replicas.len() * 8);
        buf.extend_from_slice(b"SEDNARNG");
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(self.n_replicas as u32).to_le_bytes());
        buf.extend_from_slice(&(self.replicas.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        for m in &self.members {
            buf.extend_from_slice(&m.0.to_le_bytes());
        }
        for set in &self.replicas {
            buf.push(set.len() as u8);
            for n in set {
                buf.extend_from_slice(&n.0.to_le_bytes());
            }
        }
        buf
    }

    /// Deserializes a map produced by [`VNodeMap::encode`]. Returns `None`
    /// on any structural violation.
    pub fn decode(bytes: &[u8]) -> Option<VNodeMap> {
        fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
            if buf.len() < n {
                return None;
            }
            let (head, rest) = buf.split_at(n);
            *buf = rest;
            Some(head)
        }
        fn u32_at(buf: &mut &[u8]) -> Option<u32> {
            Some(u32::from_le_bytes(take(buf, 4)?.try_into().ok()?))
        }
        let mut buf = bytes;
        if take(&mut buf, 8)? != b"SEDNARNG" {
            return None;
        }
        let epoch = u64::from_le_bytes(take(&mut buf, 8)?.try_into().ok()?);
        let n_replicas = u32_at(&mut buf)? as usize;
        let vnode_count = u32_at(&mut buf)? as usize;
        let member_count = u32_at(&mut buf)? as usize;
        if n_replicas == 0 || vnode_count == 0 {
            return None;
        }
        let mut members = BTreeSet::new();
        for _ in 0..member_count {
            members.insert(NodeId(u32_at(&mut buf)?));
        }
        let mut replicas = Vec::with_capacity(vnode_count);
        let mut loads: BTreeMap<NodeId, u32> = members.iter().map(|&m| (m, 0)).collect();
        for _ in 0..vnode_count {
            let count = take(&mut buf, 1)?[0] as usize;
            let mut set = Vec::with_capacity(count);
            for _ in 0..count {
                let n = NodeId(u32_at(&mut buf)?);
                if !members.contains(&n) {
                    return None;
                }
                *loads.get_mut(&n)? += 1;
                set.push(n);
            }
            replicas.push(set);
        }
        buf.is_empty().then_some(VNodeMap {
            n_replicas,
            epoch,
            replicas,
            members,
            loads,
        })
    }

    fn replace_in_slot(&mut self, vnode: VNodeId, from: NodeId, to: NodeId) {
        let set = &mut self.replicas[vnode.index()];
        let pos = set.iter().position(|&n| n == from).expect("holder present");
        set[pos] = to;
        *self.loads.get_mut(&from).expect("member") -= 1;
        *self.loads.get_mut(&to).expect("member") += 1;
    }

    /// Least-loaded member not already in `exclude`; ties broken by lowest
    /// id for determinism.
    fn least_loaded_excluding(&self, exclude: &[NodeId]) -> Option<NodeId> {
        self.loads
            .iter()
            .filter(|(n, _)| !exclude.contains(n))
            .min_by_key(|(n, l)| (**l, **n))
            .map(|(n, _)| *n)
    }

    /// Most-loaded member other than `node`; ties broken by lowest id.
    fn most_loaded_other(&self, node: NodeId) -> Option<(NodeId, u32)> {
        self.loads
            .iter()
            .filter(|(n, _)| **n != node)
            .max_by(|a, b| (a.1, std::cmp::Reverse(a.0)).cmp(&(b.1, std::cmp::Reverse(b.0))))
            .map(|(n, l)| (*n, *l))
    }

    /// Lowest-id vnode not flagged in `skip` where `donor` holds a slot and
    /// `receiver` does not.
    fn first_stealable_vnode(
        &self,
        donor: NodeId,
        receiver: NodeId,
        skip: &[bool],
    ) -> Option<VNodeId> {
        self.replicas
            .iter()
            .enumerate()
            .find(|(i, set)| !skip[*i] && set.contains(&donor) && !set.contains(&receiver))
            .map(|(i, _)| VNodeId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with_nodes(vnodes: u32, rf: usize, nodes: u32) -> VNodeMap {
        let mut m = VNodeMap::new(vnodes, rf);
        for n in 0..nodes {
            m.join(NodeId(n));
        }
        m
    }

    #[test]
    fn first_join_takes_everything() {
        let mut m = VNodeMap::new(10, 3);
        let plan = m.join(NodeId(0));
        // effective rf is 1 with one member: one transfer per vnode.
        assert_eq!(plan.len(), 10);
        assert!(plan
            .iter()
            .all(|t| t.to == NodeId(0) && t.copy_from.is_none()));
        assert_eq!(m.load(NodeId(0)), 10);
        m.check_invariants();
        m.check_slot_balance();
    }

    #[test]
    fn rf_grows_with_membership_until_n() {
        let mut m = VNodeMap::new(12, 3);
        m.join(NodeId(0));
        assert_eq!(m.effective_rf(), 1);
        m.join(NodeId(1));
        assert_eq!(m.effective_rf(), 2);
        m.check_invariants();
        m.check_slot_balance();
        m.join(NodeId(2));
        assert_eq!(m.effective_rf(), 3);
        m.check_invariants();
        m.check_slot_balance();
        m.join(NodeId(3));
        assert_eq!(m.effective_rf(), 3, "rf capped at N");
        m.check_invariants();
        m.check_slot_balance();
    }

    #[test]
    fn nine_node_cluster_is_balanced_with_three_distinct_replicas() {
        let m = map_with_nodes(900, 3, 9);
        m.check_invariants();
        m.check_slot_balance();
        // 900 vnodes * 3 replicas / 9 nodes = 300 slots each.
        for n in 0..9 {
            assert_eq!(m.load(NodeId(n)), 300);
        }
        for v in 0..900 {
            let r = m.replicas(VNodeId(v));
            assert_eq!(r.len(), 3);
        }
    }

    #[test]
    fn join_movement_is_incremental() {
        // Adding a tenth node to a balanced 9-node cluster must move only
        // roughly 1/10th of the slots, not reshuffle the world.
        let mut m = map_with_nodes(900, 3, 9);
        let before = m.clone();
        let plan = m.join(NodeId(9));
        m.check_invariants();
        m.check_slot_balance();
        let total_slots = 900 * 3;
        assert!(
            plan.len() <= total_slots / 10 + 1,
            "moved {} of {} slots",
            plan.len(),
            total_slots
        );
        // Every transfer lands on the newcomer, sourced from the old holder.
        for t in &plan {
            assert_eq!(t.to, NodeId(9));
            let src = t.copy_from.expect("steals copy from donor");
            assert!(before.replicas(t.vnode).contains(&src));
        }
    }

    #[test]
    fn graceful_leave_recovers_all_slots() {
        let mut m = map_with_nodes(900, 3, 9);
        let plan = m.leave(NodeId(4), true);
        m.check_invariants();
        m.check_slot_balance();
        assert!(!m.is_member(NodeId(4)));
        // Every one of the 300 vacated slots is re-covered from the leaver;
        // a handful of extra balancing moves between survivors may follow.
        let recovered = plan
            .iter()
            .filter(|t| t.copy_from == Some(NodeId(4)))
            .count();
        assert_eq!(recovered, 300, "every vacated slot re-covered");
        assert!(
            plan.len() < 330,
            "balancing tail stays small: {}",
            plan.len()
        );
        for t in &plan {
            assert_ne!(t.to, NodeId(4));
        }
    }

    #[test]
    fn crash_leave_copies_from_survivors() {
        let mut m = map_with_nodes(90, 3, 9);
        let before = m.clone();
        let plan = m.leave(NodeId(2), false);
        m.check_invariants();
        m.check_slot_balance();
        for t in &plan {
            let src = t.copy_from.expect("survivor exists with rf 3");
            assert_ne!(src, NodeId(2), "crashed node cannot be a source");
            assert!(before.replicas(t.vnode).contains(&src));
        }
    }

    #[test]
    fn one_mutation_changes_at_most_one_replica_per_vnode() {
        // The chaos-test shape (25 vnodes, 5 nodes) and a larger one: after
        // any single leave or join, every vnode keeps at least two of its
        // three previous holders.
        for (vnodes, nodes) in [(25, 5), (90, 9), (120, 6)] {
            for victim in 0..nodes {
                let mut m = map_with_nodes(vnodes, 3, nodes);
                let before = m.clone();
                m.leave(NodeId(victim), false);
                m.check_invariants();
                m.check_slot_balance();
                let after_leave = m.clone();
                m.join(NodeId(victim));
                m.check_invariants();
                m.check_slot_balance();
                for (old, new) in [(&before, &after_leave), (&after_leave, &m)] {
                    for v in (0..vnodes).map(VNodeId) {
                        let kept = new
                            .replicas(v)
                            .iter()
                            .filter(|n| old.replicas(v).contains(n))
                            .count();
                        assert!(
                            kept >= 2,
                            "{vnodes}/{nodes} victim {victim} {v:?}: {:?} -> {:?}",
                            old.replicas(v),
                            new.replicas(v)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leave_below_n_members_shrinks_rf() {
        let mut m = map_with_nodes(10, 3, 3);
        assert_eq!(m.effective_rf(), 3);
        let plan = m.leave(NodeId(1), false);
        assert_eq!(m.effective_rf(), 2);
        assert!(plan.is_empty(), "no spare node to re-cover onto");
        m.check_invariants();
        m.check_slot_balance();
    }

    #[test]
    fn primary_takeover_preserves_role_position() {
        let mut m = map_with_nodes(30, 3, 3);
        let victim = m.primary(VNodeId(0)).unwrap();
        m.join(NodeId(3)); // have somewhere to re-cover
        let before_replicas = m.replicas(VNodeId(0)).to_vec();
        m.leave(victim, false);
        let after = m.replicas(VNodeId(0));
        assert_eq!(after.len(), 3);
        if before_replicas[0] == victim {
            // the replacement sits at the front — there is always an r1
            assert!(m.primary(VNodeId(0)).is_some());
        }
        m.check_invariants();
        m.check_slot_balance();
    }

    #[test]
    fn duplicate_join_and_unknown_leave_are_noops() {
        let mut m = map_with_nodes(10, 2, 2);
        let e = m.epoch();
        assert!(m.join(NodeId(0)).is_empty());
        assert!(m.leave(NodeId(77), true).is_empty());
        assert_eq!(m.epoch(), e, "no-ops do not bump the epoch");
    }

    #[test]
    fn move_slot_validates() {
        let mut m = map_with_nodes(10, 2, 3);
        let v = VNodeId(0);
        let holder = m.replicas(v)[0];
        let outsider = m
            .members()
            .find(|n| !m.replicas(v).contains(n))
            .expect("3 members, 2 replicas");
        // invalid: to already holds / from not holder / to not member
        assert!(m.move_slot(v, holder, m.replicas(v)[1]).is_none());
        assert!(m.move_slot(v, outsider, outsider).is_none());
        assert!(m.move_slot(v, holder, NodeId(99)).is_none());
        let e = m.epoch();
        let t = m.move_slot(v, holder, outsider).expect("valid move");
        assert_eq!(t.copy_from, Some(holder));
        assert!(m.replicas(v).contains(&outsider));
        assert!(!m.replicas(v).contains(&holder));
        assert_eq!(m.epoch(), e + 1);
    }

    #[test]
    fn epoch_bumps_on_every_mutation() {
        let mut m = VNodeMap::new(10, 2);
        assert_eq!(m.epoch(), 0);
        m.join(NodeId(0));
        assert_eq!(m.epoch(), 1);
        m.join(NodeId(1));
        assert_eq!(m.epoch(), 2);
        m.leave(NodeId(0), true);
        assert_eq!(m.epoch(), 3);
    }

    #[test]
    fn vnodes_of_lists_holdings() {
        let m = map_with_nodes(30, 3, 3);
        for n in 0..3 {
            // 3 members, rf 3 => everyone holds everything.
            assert_eq!(m.vnodes_of(NodeId(n)).len(), 30);
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = map_with_nodes(90, 3, 7);
        let bytes = m.encode();
        let back = VNodeMap::decode(&bytes).expect("valid encoding");
        assert_eq!(m, back);
        back.check_invariants();
        // Empty map roundtrips too.
        let empty = VNodeMap::new(5, 2);
        assert_eq!(VNodeMap::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(VNodeMap::decode(b"").is_none());
        assert!(VNodeMap::decode(b"NOTRIGHT").is_none());
        let m = map_with_nodes(10, 2, 3);
        let mut bytes = m.encode();
        bytes.truncate(bytes.len() - 3);
        assert!(VNodeMap::decode(&bytes).is_none(), "truncation detected");
        let mut bytes2 = m.encode();
        bytes2.push(0);
        assert!(
            VNodeMap::decode(&bytes2).is_none(),
            "trailing garbage detected"
        );
    }

    #[test]
    fn determinism_same_sequence_same_map() {
        let a = map_with_nodes(300, 3, 7);
        let b = map_with_nodes(300, 3, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_sequence_keeps_invariants() {
        let mut m = VNodeMap::new(120, 3);
        for n in 0..6 {
            m.join(NodeId(n));
            m.check_invariants();
            m.check_slot_balance();
        }
        m.leave(NodeId(2), false);
        m.check_invariants();
        m.check_slot_balance();
        m.join(NodeId(6));
        m.check_invariants();
        m.check_slot_balance();
        m.leave(NodeId(0), true);
        m.check_invariants();
        m.check_slot_balance();
        m.join(NodeId(2));
        m.check_invariants();
        m.check_slot_balance();
    }
}
