//! Deployment layout and tunables.

use sedna_common::time::Micros;
use sedna_common::NodeId;
// Re-exported so deployment-level crates (harnesses, binaries) can pick
// resolution policies without depending on the store crate directly.
pub use sedna_memstore::{ResolutionConfig, TablePolicy};
use sedna_net::actor::ActorId;
use sedna_persist::PersistMode;
use sedna_replication::QuorumConfig;
use sedna_ring::Partitioner;

/// Static description of one Sedna deployment.
///
/// Actor addressing is positional and fixed at build time:
/// `[0 .. coord)` = coordination replicas, `coord` = cluster manager,
/// `[coord+1 .. coord+1+data_nodes)` = data nodes, anything after = clients
/// and gateways. All actors derive routing from this shared layout, which is
/// the in-simulation equivalent of the paper's static cluster membership
/// list.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of coordination replicas (the paper uses a ZooKeeper
    /// sub-cluster; 3 is typical).
    pub coord_replicas: usize,
    /// Number of data nodes at maximum cluster size.
    pub data_nodes: usize,
    /// The fixed key-space partition function.
    pub partitioner: Partitioner,
    /// Replication parameters (paper: N=3, R=2, W=2).
    pub quorum: QuorumConfig,
    /// Per-node memory budget for the local store (bytes); `None` = no
    /// eviction.
    pub memory_budget: Option<usize>,
    /// Durability policy for data nodes.
    pub persist: PersistMode,
    /// Trigger-scanner period on data nodes (µs).
    pub scan_interval_micros: Micros,
    /// Coordination heartbeat the nodes ping with (µs).
    pub ping_interval_micros: Micros,
    /// Manager membership-poll period (µs).
    pub manager_poll_micros: Micros,
    /// Client/request deadline before declaring replicas failed (µs).
    pub request_deadline_micros: Micros,
    /// CPU service time for a replica read (µs) in the simulator.
    pub read_service_micros: Micros,
    /// CPU service time for a replica write (µs) in the simulator.
    pub write_service_micros: Micros,
    /// How often each node publishes its imbalance row (µs); 0 disables
    /// stats publication (and with it, load-driven rebalancing).
    pub stats_publish_interval_micros: Micros,
    /// Manager: do nothing while `max_score/mean_score` is at or below
    /// this (Sec. III-B's imbalance-table trigger).
    pub rebalance_trigger_ratio: f64,
    /// Manager: cap on vnode moves per rebalance round.
    pub rebalance_max_moves: usize,
    /// Manager: run the imbalance check every this many membership polls.
    pub rebalance_check_every: u32,
    /// Anti-entropy period (µs): each node round-robins over its vnodes,
    /// exchanging digests with peer replicas and merging diffs — healing
    /// divergence that no read happens to touch. 0 disables.
    pub sync_interval_micros: Micros,
    /// Whether an inconsistent quorum read pushes the merged freshest
    /// version back to lagging replicas (the paper's asynchronous read
    /// recovery, Sec. III-C). Disabling it is only useful to harnesses
    /// that deliberately weaken the system (the nemesis mutation test).
    pub read_repair_enabled: bool,
    /// Manager: a known member must be absent from this many *consecutive*
    /// membership polls before it is treated as having left. Rides out the
    /// blip when a restarted node's old session expires — deleting its
    /// ephemeral member znode — an instant before the node re-creates it
    /// under its new session. 1 reverts to leave-on-first-absence.
    pub leave_debounce_polls: u32,
    /// Datapath batching: at most this many replica ops are coalesced into
    /// one [`crate::messages::ReplicaOp::Batch`] frame per destination.
    /// `1` disables coalescing entirely — every op travels as its own frame,
    /// reproducing the unbatched datapath bit for bit.
    pub max_batch_ops: usize,
    /// Observability: whether the metrics registries record. Recording
    /// never touches the virtual clock, so this cannot change simulated
    /// behavior — disabling it only removes the (small) wall-clock cost of
    /// the atomic bumps, which the `mixed_workload` ablation measures.
    pub metrics_enabled: bool,
    /// Observability: client ops whose end-to-end latency reaches this
    /// threshold (µs) get their full span tree promoted into the event
    /// journal. Well above the LAN quorum RTT (~1 ms) and below the
    /// request deadline, so it singles out genuinely struggling ops.
    pub slow_op_threshold_micros: Micros,
    /// Observability: retained capacity of each event journal (events).
    pub journal_capacity: usize,
    /// Observability: how many keys each per-vnode Space-Saving sketch
    /// monitors. `0` disables hot-key tracking entirely.
    pub hot_key_capacity: usize,
    /// Per-table sibling resolution under dotted version vectors, installed
    /// into every data node's store. The default (uniform last-writer-wins)
    /// reproduces the paper's visible semantics while still tracking causal
    /// clocks underneath.
    pub resolution: ResolutionConfig,
    /// Session-floor gating on quorum reads: a clean (R-equal) answer is
    /// downgraded to degraded unless the agreeing replicas' joined row
    /// clock covers every dot the client session has observed for the key.
    /// R-equality alone cannot promise session monotonicity once a vnode
    /// moves — the new replica set need not intersect the old one — so
    /// without this gate a rebalance can serve a causally stale answer as
    /// clean. Off only in deliberately weakened harness configurations.
    pub session_floor_reads: bool,
}

impl ClusterConfig {
    /// The paper's evaluation cluster: 9 servers total on gigabit Ethernet
    /// (here: 3 coordination replicas + 9 data nodes so the data-path node
    /// count matches the paper's), N=3/R=2/W=2, 100 vnodes per node.
    pub fn paper() -> Self {
        ClusterConfig {
            coord_replicas: 3,
            data_nodes: 9,
            partitioner: Partitioner::for_max_nodes(9),
            quorum: QuorumConfig::PAPER,
            memory_budget: None,
            persist: PersistMode::None,
            scan_interval_micros: 20_000,
            ping_interval_micros: 200_000,
            manager_poll_micros: 100_000,
            request_deadline_micros: 50_000,
            // 2012-era dual-core Xeon serving a Java storage service over
            // TCP: per-request CPU in the low hundreds of microseconds once
            // the kernel/network stack and (de)serialization are included —
            // consistent with the paper's measured single-client rate of
            // well under 1k ops/s. This is what makes nine colocated
            // clients contend visibly (Fig. 8).
            read_service_micros: 120,
            write_service_micros: 150,
            stats_publish_interval_micros: 500_000,
            rebalance_trigger_ratio: 1.5,
            rebalance_max_moves: 4,
            rebalance_check_every: 10,
            sync_interval_micros: 2_000_000,
            read_repair_enabled: true,
            leave_debounce_polls: 3,
            // Batching off by default: the paper's datapath is one frame
            // per replica op. Deployments opt in via `with_batching`.
            max_batch_ops: 1,
            metrics_enabled: true,
            slow_op_threshold_micros: 10_000,
            journal_capacity: 256,
            hot_key_capacity: 8,
            resolution: ResolutionConfig::default(),
            session_floor_reads: true,
        }
    }

    /// Sets the default sibling-resolution policy for every table.
    pub fn with_sibling_resolution(mut self, policy: TablePolicy) -> Self {
        self.resolution.default = policy;
        self
    }

    /// Adds a per-table resolution override (first matching prefix wins).
    pub fn with_table_policy(mut self, prefix: Vec<u8>, policy: TablePolicy) -> Self {
        self.resolution.tables.push((prefix, policy));
        self
    }

    /// Turns the clean-read session-floor gate on or off (see
    /// [`ClusterConfig::session_floor_reads`]). Only harnesses that
    /// deliberately weaken the system should turn it off.
    pub fn with_session_floor_reads(mut self, enabled: bool) -> Self {
        self.session_floor_reads = enabled;
        self
    }

    /// Sets the per-vnode hot-key sketch capacity (`0` disables).
    pub fn with_hot_keys(mut self, capacity: usize) -> Self {
        self.hot_key_capacity = capacity;
        self
    }

    /// Enables per-destination op coalescing on the replica datapath: ops
    /// one client step stages for the same node travel in frames of at
    /// most `max_ops`. Batches never wait for companions across steps, so
    /// `max_delay_micros` must be 0; the argument stays so existing
    /// callers keep compiling.
    pub fn with_batching(mut self, max_ops: usize, max_delay_micros: Micros) -> Self {
        assert_eq!(max_delay_micros, 0, "batches never wait across steps");
        self.max_batch_ops = max_ops.max(1);
        self
    }

    /// Turns metric recording on or off (the registries still exist and
    /// render; handles just stop recording).
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics_enabled = enabled;
        self
    }

    /// Sets the slow-op promotion threshold (µs).
    pub fn with_slow_op_threshold(mut self, micros: Micros) -> Self {
        self.slow_op_threshold_micros = micros;
        self
    }

    /// Turns asynchronous read recovery (read repair) on or off.
    pub fn with_read_repair(mut self, enabled: bool) -> Self {
        self.read_repair_enabled = enabled;
        self
    }

    /// A small 3-data-node cluster for tests.
    pub fn small() -> Self {
        ClusterConfig {
            coord_replicas: 3,
            data_nodes: 3,
            partitioner: Partitioner::new(60),
            ..ClusterConfig::paper()
        }
    }

    /// Actor address of coordination replica `i`.
    pub fn coord_actor(&self, i: usize) -> ActorId {
        assert!(i < self.coord_replicas);
        ActorId(i as u32)
    }

    /// All coordination replica addresses.
    pub fn coord_actors(&self) -> Vec<ActorId> {
        (0..self.coord_replicas)
            .map(|i| self.coord_actor(i))
            .collect()
    }

    /// The cluster manager's address.
    pub fn manager_actor(&self) -> ActorId {
        ActorId(self.coord_replicas as u32)
    }

    /// Actor address of data node `node`.
    pub fn node_actor(&self, node: NodeId) -> ActorId {
        assert!((node.0 as usize) < self.data_nodes, "{node:?} out of range");
        ActorId(self.coord_replicas as u32 + 1 + node.0)
    }

    /// Reverse mapping: which data node answers at `actor`.
    pub fn actor_node(&self, actor: ActorId) -> Option<NodeId> {
        let base = self.coord_replicas as u32 + 1;
        if actor == ActorId::EXTERNAL {
            return None;
        }
        if actor.0 >= base && ((actor.0 - base) as usize) < self.data_nodes {
            Some(NodeId(actor.0 - base))
        } else {
            None
        }
    }

    /// First actor id available for clients/gateways.
    pub fn first_client_actor(&self) -> ActorId {
        ActorId(self.coord_replicas as u32 + 1 + self.data_nodes as u32)
    }

    /// Timestamp-origin id for external client number `i` — disjoint from
    /// data-node origins so every writer stamps uniquely.
    pub fn client_origin(&self, i: u32) -> NodeId {
        NodeId(1_000 + i)
    }
}

/// Well-known znode paths.
pub mod paths {
    /// Root of the deployment's namespace.
    pub const ROOT: &str = "/sedna";
    /// The encoded [`sedna_ring::VNodeMap`] (the vnode→real-node mapping).
    pub const RING: &str = "/sedna/ring";
    /// Parent of the per-node ephemeral member znodes.
    pub const MEMBERS: &str = "/sedna/members";
    /// Parent of the per-node imbalance rows (Sec. III-B).
    pub const IMBALANCE: &str = "/sedna/imbalance";

    /// Member znode path for a node.
    pub fn member(node: sedna_common::NodeId) -> String {
        format!("{MEMBERS}/{}", node.0)
    }

    /// Parses a member znode child name back into a node id.
    pub fn parse_member(name: &str) -> Option<sedna_common::NodeId> {
        name.parse::<u32>().ok().map(sedna_common::NodeId)
    }

    /// Imbalance-row znode path for a node.
    pub fn imbalance(node: sedna_common::NodeId) -> String {
        format!("{IMBALANCE}/{}", node.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_consistent() {
        let cfg = ClusterConfig::paper();
        assert_eq!(cfg.coord_actors(), vec![ActorId(0), ActorId(1), ActorId(2)]);
        assert_eq!(cfg.manager_actor(), ActorId(3));
        assert_eq!(cfg.node_actor(NodeId(0)), ActorId(4));
        assert_eq!(cfg.node_actor(NodeId(8)), ActorId(12));
        assert_eq!(cfg.first_client_actor(), ActorId(13));
        for n in 0..9 {
            assert_eq!(cfg.actor_node(cfg.node_actor(NodeId(n))), Some(NodeId(n)));
        }
        assert_eq!(cfg.actor_node(ActorId(0)), None);
        assert_eq!(cfg.actor_node(ActorId(3)), None);
        assert_eq!(cfg.actor_node(ActorId(13)), None);
        assert_eq!(cfg.actor_node(ActorId::EXTERNAL), None);
    }

    #[test]
    fn client_origins_disjoint_from_nodes() {
        let cfg = ClusterConfig::paper();
        for i in 0..100 {
            assert!(cfg.client_origin(i).0 >= 1_000);
        }
    }

    #[test]
    fn member_paths_roundtrip() {
        let p = paths::member(NodeId(7));
        assert_eq!(p, "/sedna/members/7");
        assert_eq!(paths::parse_member("7"), Some(NodeId(7)));
        assert_eq!(paths::parse_member("x"), None);
    }

    #[test]
    fn paper_config_matches_testbed() {
        let cfg = ClusterConfig::paper();
        assert_eq!(cfg.data_nodes, 9);
        assert_eq!(cfg.quorum, QuorumConfig::PAPER);
        assert_eq!(cfg.partitioner.vnode_count(), 900);
    }
}
