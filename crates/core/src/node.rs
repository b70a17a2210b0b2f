//! The Sedna data-node actor.
//!
//! Each server runs "nearly the same components" (Sec. III-A): the local
//! memory store, the distributed part (a coordination-service session for
//! membership + routing state), the replica service answering data-path
//! requests, the trigger scanner, and the persistency engine. This actor is
//! that composition:
//!
//! * **Join** (Sec. III-D): open a session, register the ephemeral member
//!   znode, fetch the vnode map; the cluster manager notices the new member
//!   and reassigns vnodes; migration directives arrive as
//!   [`ControlMsg::MigrateVNode`] and are satisfied with vnode bulk
//!   transfers.
//! * **Serve**: timestamped replica writes/reads against the local store,
//!   refusing keys outside the vnodes this node owns (stale client routing
//!   gets a `Refused` and refreshes).
//! * **Failure** (Sec. III-D): a crashed node simply stops pinging — the
//!   ephemeral znode expires, the manager re-covers its vnodes, and *read
//!   recovery* repairs data lazily.
//! * **Triggers** (Sec. IV): a scan timer sweeps the Dirty/Monitors
//!   columns; only the **primary** (r1) of a key's vnode dispatches it, so
//!   one logical change fires user code once, not once per replica. Emitted
//!   results are written back through the normal quorum write path.

use std::sync::Arc;

use sedna_common::time::{Micros, Timestamp};
use sedna_common::{CausalContext, Key, NodeId, RequestId, TraceId, VNodeId};
use sedna_coord::client::{LeaseCache, LeaseConfig, SessionClient, SessionConfig, SessionEvent};
use sedna_coord::messages::{CoordMsg, CoordOp, CoordReply};
use sedna_memstore::{
    BatchWrite, BatchWriteResult, MemStore, RowSnapshot, SpaceSaving, StoreConfig, WriteOutcome,
};
use sedna_net::actor::{Actor, ActorId, Ctx, MessageSize, TimerToken};
use sedna_obs::journal::EventJournal;
use sedna_obs::registry::{Hist, MetricsSnapshot, Registry};
use sedna_obs::AlertEngine;
use sedna_persist::PersistEngine;
use sedna_replication::{row_hash, MerkleTree};
use sedna_ring::{HotKeyRow, VNodeMap, VNodeStats};
use sedna_triggers::{Emits, JobSpec, TriggerEngine, WriteMode};

use crate::config::{paths, ClusterConfig};
use crate::divergence::DivergenceTracker;
use crate::messages::{
    ControlMsg, ReplicaOp, ReplicaReadReply, ReplicaWriteAck, SednaMsg, WriteKind,
};

const T_TICK: TimerToken = TimerToken(0xDA_01);
const T_SCAN: TimerToken = TimerToken(0xDA_02);
const T_PERSIST: TimerToken = TimerToken(0xDA_03);
const T_STATS: TimerToken = TimerToken(0xDA_04);
const T_SYNC: TimerToken = TimerToken(0xDA_05);

/// Per-node operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Anti-entropy digest probes sent.
    pub sync_probes: u64,
    /// Anti-entropy rounds that found divergence and exchanged rows.
    pub sync_exchanges: u64,
    /// Probes answered (or acked back) "roots match" — the healthy
    /// outcome, now explicit on the wire (`SyncRootMatch`).
    pub sync_root_matches: u64,
    /// Anti-entropy leaf-hash exchanges (round two of the Merkle protocol).
    pub sync_leaf_exchanges: u64,
    /// Rows shipped to peers during anti-entropy repair.
    pub sync_rows_shipped: u64,
    /// Modelled wire bytes of `SyncRows` frames shipped to peers.
    pub sync_bytes_shipped: u64,
    /// Rows whose local state changed by merging a peer's anti-entropy rows.
    pub sync_rows_merged: u64,
    /// Replica writes applied.
    pub writes: u64,
    /// Replica writes answered `outdated`.
    pub outdated: u64,
    /// Replica reads served.
    pub reads: u64,
    /// Requests refused for lack of ownership.
    pub refused: u64,
    /// Repair pushes merged.
    pub pushes: u64,
    /// VNode transfers served (as source).
    pub transfers_out: u64,
    /// VNode transfers installed (as destination).
    pub transfers_in: u64,
    /// Trigger emits written back to the cluster.
    pub trigger_emits: u64,
}

/// The data-node actor.
pub struct SednaNode {
    cfg: ClusterConfig,
    node_id: NodeId,
    store: MemStore,
    session: SessionClient,
    ring: Option<VNodeMap>,
    ring_req: Option<RequestId>,
    member_req: Option<RequestId>,
    member_registered: bool,
    stats_req: Option<(RequestId, bool)>,
    imbalance_created: bool,
    /// Round-robin cursor over owned vnodes for anti-entropy.
    sync_cursor: usize,
    lease: LeaseCache,
    lease_req: Option<RequestId>,
    engine: TriggerEngine,
    persist: Option<PersistEngine>,
    vnode_stats: Vec<VNodeStats>,
    /// One Space-Saving sketch per vnode: which keys make the vnode hot.
    hot_sketches: Vec<SpaceSaving>,
    /// Live per-vnode/hot-key view shared with the admin surface.
    telemetry: Arc<crate::admin::NodeTelemetry>,
    /// Causal-plane bookkeeping: replica root matrix + mismatch episodes.
    divergence: DivergenceTracker,
    /// Cluster-shared SLO engine (when the cluster wires one in); the node
    /// feeds divergence ages and write-conflict samples and triggers
    /// evaluations from its stats tick.
    alerts: Option<Arc<AlertEngine>>,
    last_ts: (Micros, u32),
    last_ping: Micros,
    last_lease_check: Micros,
    stats: NodeStats,
    obs: NodeObs,
}

/// Node-side observability: a per-node registry whose gauges mirror the
/// operation counters and store statistics, a store-apply time
/// histogram fed by every apply, and a bounded event journal. The `Arc`
/// handles are cloneable before the actor moves into a runtime, which is
/// how [`crate::cluster::ThreadCluster`] keeps merge access to metrics of
/// actors it no longer owns.
struct NodeObs {
    registry: Arc<Registry>,
    journal: Arc<EventJournal>,
    /// Time per store apply (nanoseconds, wall clock).
    apply_hist: Hist,
    /// Coordination heartbeat round-trip time (µs, virtual clock).
    ping_rtt: Hist,
    /// Time from first observed Merkle root mismatch to convergence, µs.
    sync_convergence: Hist,
    /// Diff-descent depth per probe: 1 = roots matched, 2 = leaves
    /// exchanged but no differing bucket, 3 = rows shipped.
    sync_descent: Hist,
    /// Wall-clock µs per timer callback, one histogram per timer, so a
    /// scrape names the callback that held the node's worker.
    timers: [(TimerToken, Hist); 5],
}

impl NodeObs {
    fn new(cfg: &ClusterConfig) -> NodeObs {
        let registry = Arc::new(Registry::new(cfg.metrics_enabled));
        let apply_hist = registry.hist("sedna_node_apply_nanos");
        let ping_rtt = registry.hist("sedna_coord_ping_rtt_micros");
        let sync_convergence = registry.hist("sedna_sync_convergence_micros");
        let sync_descent = registry.hist("sedna_sync_descent_depth");
        let timers = [
            (T_TICK, "tick"),
            (T_SCAN, "scan"),
            (T_STATS, "stats"),
            (T_SYNC, "sync"),
            (T_PERSIST, "persist"),
        ]
        .map(|(token, name)| {
            let hist = registry.hist(&format!("sedna_node_timer_{name}_micros"));
            (token, hist)
        });
        NodeObs {
            registry,
            journal: Arc::new(EventJournal::new(cfg.journal_capacity)),
            apply_hist,
            ping_rtt,
            sync_convergence,
            sync_descent,
            timers,
        }
    }
}

impl SednaNode {
    /// Creates the node. `persist` is pre-built so deployments control the
    /// data directory.
    pub fn new(cfg: ClusterConfig, node_id: NodeId, persist: Option<PersistEngine>) -> Self {
        let store = MemStore::new(StoreConfig {
            memory_budget: cfg.memory_budget,
            resolution: cfg.resolution.clone(),
        });
        // No job yet: no write dirties a row until one registers.
        let engine = TriggerEngine::new();
        engine.install_watch_set(&store);
        if let Some(engine) = &persist {
            // Boot-time recovery (snapshot + WAL replay).
            let _ = engine.recover(&store);
        }
        let session = SessionClient::new(SessionConfig {
            replicas: cfg.coord_actors(),
            ping_interval_micros: cfg.ping_interval_micros,
            request_timeout_micros: 600_000,
        });
        let vnode_stats = vec![VNodeStats::default(); cfg.partitioner.vnode_count() as usize];
        let hot_sketches =
            vec![SpaceSaving::new(cfg.hot_key_capacity); cfg.partitioner.vnode_count() as usize];
        let obs = NodeObs::new(&cfg);
        SednaNode {
            cfg,
            node_id,
            store,
            session,
            ring: None,
            ring_req: None,
            member_req: None,
            member_registered: false,
            stats_req: None,
            imbalance_created: false,
            sync_cursor: 0,
            lease: LeaseCache::new(LeaseConfig::default()),
            lease_req: None,
            engine,
            persist,
            vnode_stats,
            hot_sketches,
            telemetry: Arc::new(crate::admin::NodeTelemetry::default()),
            divergence: DivergenceTracker::default(),
            alerts: None,
            last_ts: (0, 0),
            last_ping: 0,
            last_lease_check: 0,
            stats: NodeStats::default(),
            obs,
        }
    }

    /// This node's id.
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// The local store (inspection).
    pub fn store(&self) -> &MemStore {
        &self.store
    }

    /// The persistence engine, when one is attached (fault injection).
    pub fn persist_mut(&mut self) -> Option<&mut PersistEngine> {
        self.persist.as_mut()
    }

    /// The cached vnode map, if loaded.
    pub fn ring(&self) -> Option<&VNodeMap> {
        self.ring.as_ref()
    }

    /// True once routing state is available.
    pub fn is_ready(&self) -> bool {
        self.ring.is_some()
    }

    /// Operation counters.
    pub fn stats(&self) -> NodeStats {
        self.stats
    }

    /// Point-in-time divergence view (replica root matrix + episodes).
    pub fn divergence_snapshot(&self, now: Micros) -> crate::divergence::DivergenceSnapshot {
        self.divergence.snapshot(now)
    }

    /// Local per-vnode statistics (feeds the imbalance table).
    pub fn vnode_stats(&self) -> &[VNodeStats] {
        &self.vnode_stats
    }

    /// Every monitored hot key across this node's vnodes, hottest first.
    /// The published imbalance row carries the top [`crate::imbalance::TOP_K`]
    /// of these; the admin surface exposes the full list.
    pub fn hot_keys(&self) -> Vec<HotKeyRow> {
        let mut rows: Vec<HotKeyRow> = Vec::new();
        for (i, sketch) in self.hot_sketches.iter().enumerate() {
            for hk in sketch.top(sketch.capacity()) {
                rows.push(HotKeyRow {
                    vnode: sedna_common::VNodeId(i as u32),
                    key: hk.key,
                    count: hk.count,
                });
            }
        }
        rows.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.vnode.cmp(&b.vnode))
                .then_with(|| a.key.cmp(&b.key))
        });
        rows
    }

    /// This node's shared telemetry handle (cloneable before the actor
    /// moves into a runtime, like [`SednaNode::registry`]).
    pub fn telemetry(&self) -> Arc<crate::admin::NodeTelemetry> {
        self.telemetry.clone()
    }

    /// Attaches the cluster-shared SLO engine. Called by the cluster
    /// builders before the actor moves into a runtime.
    pub fn set_alert_engine(&mut self, engine: Arc<AlertEngine>) {
        self.alerts = Some(engine);
    }

    /// This node's metrics registry (shared handle; survives the actor
    /// moving into a runtime).
    pub fn registry(&self) -> Arc<Registry> {
        self.obs.registry.clone()
    }

    /// This node's event journal (shared handle).
    pub fn journal(&self) -> Arc<EventJournal> {
        self.obs.journal.clone()
    }

    /// Point-in-time metrics with the mirrored gauges refreshed first, so
    /// callers that never wait for a stats tick (tests, the REPL) still see
    /// current store/operation readings.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.mirror_gauges();
        self.obs.registry.snapshot()
    }

    /// Copies the operation counters and store statistics into registry
    /// gauges. Gauges (not counters) because the sources are owned
    /// elsewhere; cluster-wide merge sums them, which is the right reading
    /// for per-node totals.
    fn mirror_gauges(&self) {
        let reg = &self.obs.registry;
        if !reg.enabled() {
            return;
        }
        let s = self.stats;
        for (name, v) in [
            ("sedna_node_writes", s.writes),
            ("sedna_node_reads", s.reads),
            ("sedna_node_refused", s.refused),
            ("sedna_node_outdated", s.outdated),
            ("sedna_node_pushes", s.pushes),
            ("sedna_node_sync_probes", s.sync_probes),
            ("sedna_node_sync_exchanges", s.sync_exchanges),
            ("sedna_node_sync_root_matches", s.sync_root_matches),
            ("sedna_node_sync_leaf_exchanges", s.sync_leaf_exchanges),
            ("sedna_node_sync_rows_shipped", s.sync_rows_shipped),
            ("sedna_node_sync_bytes_shipped", s.sync_bytes_shipped),
            ("sedna_node_sync_rows_merged", s.sync_rows_merged),
            (
                "sedna_sync_open_mismatches",
                self.divergence.open_mismatches(),
            ),
            (
                "sedna_sync_episodes_total",
                self.divergence.episodes_total(),
            ),
            ("sedna_node_transfers_in", s.transfers_in),
            ("sedna_node_transfers_out", s.transfers_out),
            ("sedna_node_trigger_emits", s.trigger_emits),
        ] {
            reg.gauge(name).set(v);
        }
        let st = self.store.stats();
        for (name, v) in [
            ("sedna_store_hits", st.hits),
            ("sedna_store_misses", st.misses),
            ("sedna_store_evictions", st.evictions),
            ("sedna_store_keys", self.store.len() as u64),
            ("sedna_store_bytes", self.store.payload_bytes() as u64),
            ("sedna_node_journal_events", self.obs.journal.len() as u64),
        ] {
            reg.gauge(name).set(v);
        }
        let eng = self.store.engine_stats();
        for (name, v) in [
            ("sedna_engine_probe_p99", eng.probe_len.percentile(0.99)),
            ("sedna_engine_rehashes", eng.rehashes),
            ("sedna_engine_rehash_rows_moved", eng.rehash_rows_moved),
            ("sedna_engine_evict_rounds", eng.evict_rounds),
            ("sedna_engine_evict_sampled", eng.evict_sampled),
            ("sedna_engine_batch_applies", eng.batch_applies),
            ("sedna_engine_batch_ops", eng.batch_ops),
            ("sedna_engine_live_rows", eng.live_rows),
            ("sedna_engine_tombstones", eng.tombstones),
            ("sedna_engine_table_slots", eng.table_slots),
            ("sedna_engine_slab_pages", eng.slab_pages),
            ("sedna_engine_slab_free_cells", eng.slab_free_cells),
        ] {
            reg.gauge(name).set(v);
        }
    }

    /// Registers a trigger job directly (harness convenience; remote
    /// registration arrives as [`ControlMsg::RegisterJob`]).
    pub fn register_job(&mut self, spec: JobSpec, now: Micros) {
        self.engine.register_job(&self.store, spec, now);
    }

    /// Trigger-engine totals.
    pub fn trigger_totals(&self) -> sedna_triggers::ScanStats {
        self.engine.totals()
    }

    /// Installs a newer routing map and garbage-collects rows of vnodes
    /// this node no longer owns. Survivor replicas still hold the data (a
    /// membership change replaces at most one replica per vnode), and any
    /// transient gap on the *new* owner is healed by read-repair — so the
    /// collection is safe and bounds orphaned storage.
    fn install_ring(&mut self, map: VNodeMap) {
        let me = self.node_id;
        let part = self.cfg.partitioner;
        let vacated: Vec<sedna_common::VNodeId> = self
            .ring
            .as_ref()
            .map(|old| {
                old.vnodes_of(me)
                    .into_iter()
                    .filter(|&v| !map.replicas(v).contains(&me))
                    .collect()
            })
            .unwrap_or_default();
        if !vacated.is_empty() {
            self.store
                .remove_matching(|h, _| vacated.contains(&part.locate_hash(h)));
            for v in &vacated {
                self.vnode_stats[v.index()] = VNodeStats::default();
                self.hot_sketches[v.index()].clear();
            }
        }
        self.divergence.retain_vnodes(&map.vnodes_of(me));
        self.ring = Some(map);
    }

    /// This node's Merkle tree over its copy of `vnode`: 64 leaves, row
    /// hashes covering key, live versions *and* the causal row clock, so
    /// replicas differing only in pruning history still digest differently
    /// and converge to full context agreement. Two replicas agree iff their
    /// roots match (up to hash collisions, which only delay convergence by
    /// one exchange).
    fn vnode_tree(&self, vnode: VNodeId) -> MerkleTree {
        let part = self.cfg.partitioner;
        let mut tree = MerkleTree::new();
        self.store.for_each_row(|hash, key, snap| {
            if part.locate_hash(hash) == vnode {
                tree.add(hash, row_hash(key, snap.as_slice(), &snap.clock()));
            }
        });
        tree
    }

    /// Root digest of [`SednaNode::vnode_tree`] — what a sync probe ships.
    fn vnode_digest(&self, vnode: VNodeId) -> u64 {
        self.vnode_tree(vnode).root()
    }

    /// The rows of `vnode` falling into the Merkle leaf buckets `mask`
    /// flags, each with its row clock — the payload of a `SyncRows` frame,
    /// or with every bit set, of a `TransferData` one.
    fn rows_in_leaves(
        &self,
        vnode: VNodeId,
        mask: u64,
    ) -> Vec<(Key, CausalContext, Vec<sedna_memstore::VersionedValue>)> {
        let part = self.cfg.partitioner;
        let mut rows = Vec::new();
        self.store.for_each_row(|hash, key, snap| {
            if part.locate_hash(hash) == vnode
                && mask & (1u64 << sedna_replication::leaf_of(hash)) != 0
            {
                rows.push((key.clone(), snap.clock(), snap.to_vec()));
            }
        });
        rows
    }

    /// One anti-entropy step: probe the peers of the next owned vnode.
    fn sync_step(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        let Some(ring) = &self.ring else {
            return;
        };
        let owned = ring.vnodes_of(self.node_id);
        if owned.is_empty() {
            return;
        }
        self.sync_cursor = (self.sync_cursor + 1) % owned.len();
        let vnode = owned[self.sync_cursor];
        let peers: Vec<NodeId> = ring
            .replicas(vnode)
            .iter()
            .copied()
            .filter(|&n| n != self.node_id)
            .collect();
        if peers.is_empty() {
            return;
        }
        let digest = self.vnode_digest(vnode);
        self.divergence.note_self_root(vnode, digest, ctx.now());
        self.stats.sync_probes += 1;
        for peer in peers {
            ctx.send(
                self.cfg.node_actor(peer),
                SednaMsg::Replica(ReplicaOp::SyncDigest {
                    vnode,
                    digest,
                    from_node: self.node_id,
                }),
            );
        }
    }

    fn owns(&self, key: &Key) -> bool {
        let Some(ring) = &self.ring else {
            return false;
        };
        let vnode = self.cfg.partitioner.locate(key);
        ring.replicas(vnode).contains(&self.node_id)
    }

    /// Whether this node is the primary of the vnode of a key with
    /// placement hash `hash` ([`Key::ring_hash`]).
    fn is_primary(&self, hash: u64) -> bool {
        let Some(ring) = &self.ring else {
            return false;
        };
        let vnode = self.cfg.partitioner.locate_hash(hash);
        ring.primary(vnode) == Some(self.node_id)
    }

    fn next_timestamp(&mut self, now: Micros) -> Timestamp {
        let (m, c) = self.last_ts;
        let (micros, counter) = if now > m { (now, 0) } else { (m, c + 1) };
        self.last_ts = (micros, counter);
        Timestamp::new(micros, counter, self.node_id)
    }

    fn send_coord(&self, ctx: &mut Ctx<'_, SednaMsg>, to: ActorId, msg: CoordMsg) {
        ctx.send(to, SednaMsg::Coord(msg));
    }

    fn register_member(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.member_req.is_some() || self.member_registered {
            return;
        }
        let now = ctx.now();
        if let Some((req, to, m)) = self.session.request(
            CoordOp::Create {
                path: paths::member(self.node_id),
                data: vec![],
                ephemeral: true,
            },
            now,
        ) {
            self.member_req = Some(req);
            self.send_coord(ctx, to, m);
        }
    }

    /// Publishes this node's imbalance row (Sec. III-B: "periodically
    /// updated to ZooKeeper cluster").
    fn publish_stats(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.stats_req.is_some() {
            return;
        }
        let Some(ring) = &self.ring else {
            return;
        };
        let owned = ring.vnodes_of(self.node_id);
        let row = crate::imbalance::ImbalanceRow::compute(&self.vnode_stats, &owned)
            .with_hot_keys(self.hot_keys())
            .with_engine(crate::imbalance::EngineSummary::from_snapshot(
                &self.store.engine_stats(),
            ));
        let path = paths::imbalance(self.node_id);
        let now = ctx.now();
        let op = if self.imbalance_created {
            CoordOp::Set {
                path,
                data: row.encode(),
                expected_version: None,
            }
        } else {
            CoordOp::Create {
                path,
                data: row.encode(),
                ephemeral: false,
            }
        };
        let was_create = !self.imbalance_created;
        if let Some((req, to, m)) = self.session.request(op, now) {
            self.stats_req = Some((req, was_create));
            self.send_coord(ctx, to, m);
        }
    }

    fn request_ring(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.ring_req.is_some() {
            return;
        }
        let now = ctx.now();
        if let Some((req, to, msg)) = self.session.request(
            CoordOp::Get {
                path: paths::RING.into(),
                watch: false,
            },
            now,
        ) {
            self.ring_req = Some(req);
            self.send_coord(ctx, to, msg);
        }
    }

    /// Post-apply bookkeeping of one replica write, shared by the per-op
    /// and batched paths: counters, per-vnode load, hot-key sketch, the WAL
    /// append and the `lost_writes` SLO sample. Returns the verdict to ack.
    fn finish_write(
        &mut self,
        item: &BatchWrite,
        res: BatchWriteResult,
        trace: TraceId,
        now: Micros,
    ) -> ReplicaWriteAck {
        let ack = match res.outcome {
            WriteOutcome::Ok => {
                self.stats.writes += 1;
                let vnode = self.cfg.partitioner.locate(&item.key);
                self.vnode_stats[vnode.index()].record_write(item.value.len() as i64, res.was_new);
                self.hot_sketches[vnode.index()].offer(&item.key);
                // Write-ahead means durable-before-ack: a failed append
                // must not count toward W. The in-memory copy stays (like
                // a write whose ack was lost) and can still propagate via
                // anti-entropy.
                let logged = self.persist.as_mut().map_or(Ok(()), |p| {
                    p.note_write(&item.key, item.ts, &item.value, &item.ctx, item.latest)
                });
                if logged.is_ok() {
                    ReplicaWriteAck::Ok
                } else {
                    ReplicaWriteAck::Refused
                }
            }
            WriteOutcome::Outdated => {
                self.stats.outdated += 1;
                ReplicaWriteAck::Outdated
            }
        };
        // A replica refusing a fresh write as timestamp-outdated is the
        // runtime signature of a concurrent update silently dominated by
        // wall-clock order — what timestamp LWW does under clock skew.
        if let Some(alerts) = &self.alerts {
            let conflicted = ack == ReplicaWriteAck::Outdated;
            alerts.observe_traced(now, "lost_writes", f64::from(u8::from(conflicted)), trace.0);
        }
        ack
    }

    /// Read-side bookkeeping of one replica read (counters, per-vnode
    /// load, hot-key sketch) and the reply carrying what the store held.
    fn read_reply(&mut self, key: &Key, snap: Option<RowSnapshot>) -> ReplicaReadReply {
        self.stats.reads += 1;
        let vnode = self.cfg.partitioner.locate(key);
        self.vnode_stats[vnode.index()].record_read();
        self.hot_sketches[vnode.index()].offer(key);
        match snap {
            Some(snap) => ReplicaReadReply::Values {
                versions: snap.to_vec(),
                clock: snap.clock(),
            },
            None => ReplicaReadReply::Missing,
        }
    }

    fn handle_replica(&mut self, from: ActorId, op: ReplicaOp, ctx: &mut Ctx<'_, SednaMsg>) {
        match op {
            ReplicaOp::Write {
                req,
                key,
                ts,
                value,
                kind,
                ctx: wctx,
                trace,
            } => {
                if !self.owns(&key) {
                    self.stats.refused += 1;
                    ctx.send(
                        from,
                        SednaMsg::Replica(ReplicaOp::WriteAck {
                            req,
                            ack: ReplicaWriteAck::Refused,
                            apply_nanos: 0,
                            lock_nanos: 0,
                        }),
                    );
                    return;
                }
                let item = BatchWrite {
                    key,
                    ts,
                    value,
                    ctx: wctx,
                    latest: kind == WriteKind::Latest,
                };
                let t0 = std::time::Instant::now();
                let res = {
                    sedna_obs::prof_scope!("node.apply_write");
                    self.store.write(&item)
                };
                let apply_nanos = t0.elapsed().as_nanos() as u64;
                self.obs.apply_hist.record(apply_nanos);
                let ack = self.finish_write(&item, res, trace, ctx.now());
                ctx.send(
                    from,
                    SednaMsg::Replica(ReplicaOp::WriteAck {
                        req,
                        ack,
                        apply_nanos,
                        lock_nanos: 0,
                    }),
                );
            }
            ReplicaOp::Read { req, key, trace: _ } => {
                let mut apply_nanos = 0;
                let reply = if !self.owns(&key) {
                    self.stats.refused += 1;
                    ReplicaReadReply::Refused
                } else {
                    let t0 = std::time::Instant::now();
                    let snap = {
                        sedna_obs::prof_scope!("node.apply_read");
                        self.store.read_all(&key)
                    };
                    apply_nanos = t0.elapsed().as_nanos() as u64;
                    self.obs.apply_hist.record(apply_nanos);
                    self.read_reply(&key, snap)
                };
                ctx.send(
                    from,
                    SednaMsg::Replica(ReplicaOp::ReadReply {
                        req,
                        reply,
                        apply_nanos,
                        lock_nanos: 0,
                    }),
                );
            }
            ReplicaOp::Push { req, key, versions } => {
                self.stats.pushes += 1;
                self.store.merge_row(&key, &versions, &CausalContext::EMPTY);
                // Ack so the repairing client can close its convergence
                // window; the client never blocks on this.
                ctx.send(from, SednaMsg::Replica(ReplicaOp::PushAck { req }));
            }
            ReplicaOp::PushAck { .. } => {}
            ReplicaOp::TransferRequest { vnode, to_node } => {
                self.stats.transfers_out += 1;
                let rows = self.rows_in_leaves(vnode, u64::MAX);
                ctx.send(
                    self.cfg.node_actor(to_node),
                    SednaMsg::Replica(ReplicaOp::TransferData { vnode, rows }),
                );
            }
            ReplicaOp::TransferData { vnode, rows } => {
                self.stats.transfers_in += 1;
                for (key, clock, versions) in rows {
                    self.store.merge_row(&key, &versions, &clock);
                }
                // Tell the source the move is complete; it may now drop
                // the vnode if it no longer owns it.
                ctx.send(
                    from,
                    SednaMsg::Replica(ReplicaOp::TransferComplete { vnode }),
                );
            }
            ReplicaOp::Scan { req, prefix } => {
                // Serve only keys this node is primary for: the client
                // scatters to every member, so primary-filtering yields
                // each key exactly once cluster-wide.
                let mut rows = Vec::new();
                self.store.for_each_row(|hash, key, snap| {
                    if key.as_bytes().starts_with(&prefix) && self.is_primary(hash) {
                        rows.extend(snap.latest().map(|v| (key.clone(), v.clone())));
                    }
                });
                ctx.send(from, SednaMsg::Replica(ReplicaOp::ScanReply { req, rows }));
            }
            ReplicaOp::ScanReply { .. } => {}
            ReplicaOp::SyncDigest {
                vnode,
                digest,
                from_node,
            } => {
                // Round one: compare Merkle roots. Identical copies cost a
                // single u64 each way — the match is acked explicitly
                // (`SyncRootMatch`) so the prober's divergence telemetry
                // learns peer roots instead of inferring health from
                // silence. On divergence answer with our 64 leaf hashes so
                // the prober can localize.
                if !self
                    .ring
                    .as_ref()
                    .is_some_and(|r| r.replicas(vnode).contains(&self.node_id))
                {
                    return;
                }
                let now = ctx.now();
                let tree = self.vnode_tree(vnode);
                let root = tree.root();
                self.divergence.note_self_root(vnode, root, now);
                // The probe itself is an observation of the prober's root.
                if let Some(took) =
                    self.divergence
                        .observe_peer(vnode, from_node, digest, root == digest, now)
                {
                    self.obs.sync_convergence.record(took);
                }
                if root == digest {
                    self.stats.sync_root_matches += 1;
                    ctx.send(
                        self.cfg.node_actor(from_node),
                        SednaMsg::Replica(ReplicaOp::SyncRootMatch {
                            vnode,
                            root,
                            from_node: self.node_id,
                        }),
                    );
                    return;
                }
                self.stats.sync_exchanges += 1;
                ctx.send(
                    self.cfg.node_actor(from_node),
                    SednaMsg::Replica(ReplicaOp::SyncLeaves {
                        vnode,
                        from_node: self.node_id,
                        leaves: Box::new(*tree.leaves()),
                    }),
                );
            }
            ReplicaOp::SyncRootMatch {
                vnode,
                root,
                from_node,
            } => {
                // The probed replica agreed with our probe digest: depth-1
                // descent (cheapest possible probe), and — when the pair
                // was previously divergent — the close of a mismatch
                // episode, i.e. a time-to-convergence sample.
                let now = ctx.now();
                self.stats.sync_root_matches += 1;
                self.obs.sync_descent.record(1);
                if let Some(took) = self
                    .divergence
                    .observe_peer(vnode, from_node, root, true, now)
                {
                    self.obs.sync_convergence.record(took);
                }
            }
            ReplicaOp::SyncLeaves {
                vnode,
                from_node,
                leaves,
            } => {
                // Round two: diff the peer's leaves against ours and ship
                // only rows from the differing buckets, asking the peer to
                // answer with its own rows for those buckets. The shipped
                // leaves also tell us the peer's *root* (reconstructed
                // locally), which feeds the replica root matrix.
                if !self
                    .ring
                    .as_ref()
                    .is_some_and(|r| r.replicas(vnode).contains(&self.node_id))
                {
                    return;
                }
                let now = ctx.now();
                let tree = self.vnode_tree(vnode);
                let peer_root = MerkleTree::from_leaves(*leaves).root();
                self.divergence.note_self_root(vnode, tree.root(), now);
                if let Some(took) = self.divergence.observe_peer(
                    vnode,
                    from_node,
                    peer_root,
                    tree.root() == peer_root,
                    now,
                ) {
                    self.obs.sync_convergence.record(took);
                }
                let mask = tree.diff_leaves(&leaves);
                if mask == 0 {
                    // Roots differed at probe time but the trees agree now
                    // (or differ only above the leaves, which XOR algebra
                    // rules out): depth-2 descent, nothing to ship.
                    self.obs.sync_descent.record(2);
                    return;
                }
                self.obs.sync_descent.record(3);
                self.stats.sync_leaf_exchanges += 1;
                let rows = self.rows_in_leaves(vnode, mask);
                self.stats.sync_rows_shipped += rows.len() as u64;
                let op = ReplicaOp::SyncRows {
                    vnode,
                    from_node: self.node_id,
                    leaf_mask: mask,
                    rows,
                    reply_wanted: true,
                };
                self.stats.sync_bytes_shipped += op.size_bytes() as u64;
                ctx.send(self.cfg.node_actor(from_node), SednaMsg::Replica(op));
            }
            ReplicaOp::SyncRows {
                vnode,
                from_node,
                leaf_mask,
                rows,
                reply_wanted,
            } => {
                // Round three: merge the peer's divergent rows (clocks stop
                // pruned siblings from resurrecting) and, on the first
                // direction, answer with ours for the same buckets so the
                // repair is bidirectional.
                let mut merged = 0u32;
                for (key, clock, versions) in &rows {
                    if self.store.merge_row(key, versions, clock) {
                        merged += 1;
                    }
                }
                self.stats.sync_rows_merged += merged as u64;
                if merged > 0 {
                    self.obs.journal.push(
                        ctx.now(),
                        sedna_obs::journal::EventKind::AntiEntropy {
                            vnode,
                            peer: from_node,
                            leaves: leaf_mask.count_ones(),
                            merged,
                        },
                    );
                }
                if reply_wanted {
                    let rows = self.rows_in_leaves(vnode, leaf_mask);
                    self.stats.sync_rows_shipped += rows.len() as u64;
                    let op = ReplicaOp::SyncRows {
                        vnode,
                        from_node: self.node_id,
                        leaf_mask,
                        rows,
                        reply_wanted: false,
                    };
                    self.stats.sync_bytes_shipped += op.size_bytes() as u64;
                    ctx.send(self.cfg.node_actor(from_node), SednaMsg::Replica(op));
                }
            }
            ReplicaOp::TransferComplete { vnode } => {
                // Drop only when our own (current) routing agrees we are no
                // longer a replica; a stale ring errs on keeping the data.
                if let Some(ring) = &self.ring {
                    if !ring.replicas(vnode).contains(&self.node_id) {
                        let part = self.cfg.partitioner;
                        self.store
                            .remove_matching(|h, _| part.locate_hash(h) == vnode);
                    }
                }
            }
            ReplicaOp::Batch { ops } => self.handle_batch(from, ops, ctx),
            // Acks of this node's trigger-emit writes: emits are plain
            // sends, and nothing waits on them.
            ReplicaOp::WriteAck { .. }
            | ReplicaOp::AckBatch { .. }
            | ReplicaOp::ReadReply { .. } => {}
        }
    }

    /// Applies a coalesced client frame sub-op by sub-op, in frame order,
    /// exactly as if they had arrived as individual frames. Each maximal
    /// run of writes funnels through one [`MemStore::apply_batch`] and each
    /// maximal run of reads through one [`MemStore::get_many`]; any other
    /// sub-op takes the normal per-op path in its place. Replies are
    /// coalesced symmetrically: several acks share one
    /// [`ReplicaOp::AckBatch`] frame back to the sender (a single ack
    /// travels bare, exactly like an unbatched reply).
    fn handle_batch(&mut self, from: ActorId, ops: Vec<ReplicaOp>, ctx: &mut Ctx<'_, SednaMsg>) {
        let n = ops.len();
        let mut acks: Vec<Option<ReplicaOp>> = vec![None; n];
        // `kind` is not read back (`BatchWrite::latest` carries it): it keeps
        // the element at 32 bytes. Measured, not derived: with a 24-byte
        // element this vector grows through 96/192/384 B instead of
        // 128/256/512 B, and with nothing else changed `batch_many` lost
        // ~10% throughput and doubled its run-to-run spread on the 2-core
        // sandbox (CHANGES.md, PR 15).
        let mut write_meta: Vec<(usize, RequestId, WriteKind, TraceId)> = Vec::new();
        let mut write_items: Vec<BatchWrite> = Vec::new();
        let mut read_meta: Vec<(usize, RequestId)> = Vec::new();
        let mut read_keys: Vec<Key> = Vec::new();
        for (i, op) in ops.into_iter().enumerate() {
            match op {
                ReplicaOp::Write {
                    req,
                    key,
                    ts,
                    value,
                    kind,
                    ctx: wctx,
                    trace,
                } => {
                    if self.owns(&key) {
                        self.apply_read_run(&mut read_meta, &mut read_keys, &mut acks);
                        write_meta.push((i, req, kind, trace));
                        write_items.push(BatchWrite {
                            key,
                            ts,
                            value,
                            ctx: wctx,
                            latest: kind == WriteKind::Latest,
                        });
                    } else {
                        self.stats.refused += 1;
                        acks[i] = Some(ReplicaOp::WriteAck {
                            req,
                            ack: ReplicaWriteAck::Refused,
                            apply_nanos: 0,
                            lock_nanos: 0,
                        });
                    }
                }
                ReplicaOp::Read { req, key, trace: _ } => {
                    if self.owns(&key) {
                        let now = ctx.now();
                        self.apply_write_run(&mut write_meta, &mut write_items, &mut acks, now);
                        read_meta.push((i, req));
                        read_keys.push(key);
                    } else {
                        self.stats.refused += 1;
                        acks[i] = Some(ReplicaOp::ReadReply {
                            req,
                            reply: ReplicaReadReply::Refused,
                            apply_nanos: 0,
                            lock_nanos: 0,
                        });
                    }
                }
                // Never nested; drop malformed frames.
                ReplicaOp::Batch { .. } | ReplicaOp::AckBatch { .. } => {}
                // Anything else (pushes, transfers, ...) replies — or not —
                // through its regular handler, after the ops framed before it.
                other => {
                    let now = ctx.now();
                    self.apply_write_run(&mut write_meta, &mut write_items, &mut acks, now);
                    self.apply_read_run(&mut read_meta, &mut read_keys, &mut acks);
                    self.handle_replica(from, other, ctx);
                }
            }
        }
        let now = ctx.now();
        self.apply_write_run(&mut write_meta, &mut write_items, &mut acks, now);
        self.apply_read_run(&mut read_meta, &mut read_keys, &mut acks);
        let mut acks: Vec<ReplicaOp> = acks.into_iter().flatten().collect();
        match acks.len() {
            0 => {}
            1 => ctx.send(from, SednaMsg::Replica(acks.pop().expect("one"))),
            _ => ctx.send(from, SednaMsg::Replica(ReplicaOp::AckBatch { acks })),
        }
    }

    /// Applies a run of batched writes with one [`MemStore::apply_batch`]
    /// and fills in their acks; leaves the run empty. Every write reports
    /// the whole run's apply time: that is how long the store was busy on
    /// account of it.
    fn apply_write_run(
        &mut self,
        meta: &mut Vec<(usize, RequestId, WriteKind, TraceId)>,
        items: &mut Vec<BatchWrite>,
        acks: &mut [Option<ReplicaOp>],
        now: Micros,
    ) {
        if items.is_empty() {
            return;
        }
        let t0 = std::time::Instant::now();
        let results = {
            sedna_obs::prof_scope!("node.apply_batch_write");
            self.store.apply_batch(items)
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        self.obs.apply_hist.record(nanos);
        for (((i, req, _kind, trace), item), res) in meta.drain(..).zip(items.iter()).zip(results) {
            let ack = self.finish_write(item, res, trace, now);
            acks[i] = Some(ReplicaOp::WriteAck {
                req,
                ack,
                apply_nanos: nanos,
                lock_nanos: 0,
            });
        }
        items.clear();
    }

    /// Answers a run of batched reads with one [`MemStore::get_many`];
    /// leaves the run empty. Every read reports the whole run's time.
    fn apply_read_run(
        &mut self,
        meta: &mut Vec<(usize, RequestId)>,
        keys: &mut Vec<Key>,
        acks: &mut [Option<ReplicaOp>],
    ) {
        if keys.is_empty() {
            return;
        }
        let t0 = std::time::Instant::now();
        let results = {
            sedna_obs::prof_scope!("node.apply_batch_read");
            self.store.get_many(keys)
        };
        let nanos = t0.elapsed().as_nanos() as u64;
        self.obs.apply_hist.record(nanos);
        for (((i, req), key), snap) in meta.drain(..).zip(keys.iter()).zip(results) {
            acks[i] = Some(ReplicaOp::ReadReply {
                req,
                reply: self.read_reply(key, snap),
                apply_nanos: nanos,
                lock_nanos: 0,
            });
        }
        keys.clear();
    }

    fn handle_control(&mut self, op: ControlMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        match op {
            ControlMsg::RegisterJob(spec) => {
                self.engine.register_job(&self.store, spec, ctx.now());
            }
            ControlMsg::MigrateVNode { vnode, from } => {
                if let Some(src) = from {
                    if src != self.node_id {
                        ctx.send(
                            self.cfg.node_actor(src),
                            SednaMsg::Replica(ReplicaOp::TransferRequest {
                                vnode,
                                to_node: self.node_id,
                            }),
                        );
                    }
                }
            }
            ControlMsg::DropVNode { vnode } => {
                let part = self.cfg.partitioner;
                self.store
                    .remove_matching(|h, _| part.locate_hash(h) == vnode);
            }
        }
    }

    fn handle_coord(&mut self, msg: CoordMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        let (event, retry) = self.session.on_message(msg);
        if let Some((to, m)) = retry {
            self.send_coord(ctx, to, m);
        }
        match event {
            Some(SessionEvent::Opened(_)) => {
                // Register membership (ephemeral) and fetch routing state.
                self.member_registered = false;
                self.register_member(ctx);
                self.request_ring(ctx);
            }
            Some(SessionEvent::Expired) => {
                // Session gone: the ephemeral is too; re-open and the next
                // Opened event re-registers.
                self.member_registered = false;
                self.member_req = None;
                let now = ctx.now();
                let (to, m) = self.session.open(now);
                self.send_coord(ctx, to, m);
            }
            Some(SessionEvent::Pong { sent_at }) => {
                self.obs.ping_rtt.record(ctx.now().saturating_sub(sent_at));
            }
            Some(SessionEvent::Reply { req_id, result }) => {
                if self.stats_req.map(|(r, _)| r) == Some(req_id) {
                    let (_, was_create) = self.stats_req.take().expect("checked");
                    if was_create {
                        // Created, or already existed from a previous life.
                        self.imbalance_created = matches!(
                            result,
                            Ok(CoordReply::Created)
                                | Err(sedna_coord::messages::CoordError::Tree(
                                    sedna_coord::tree::TreeError::NodeExists(_)
                                ))
                        );
                    }
                    // Set failures (e.g. parent missing) simply retry on the
                    // next stats tick.
                } else if Some(req_id) == self.member_req {
                    self.member_req = None;
                    // Registered only once *our* session owns the znode.
                    // `NodeExists` means a leftover ephemeral from a
                    // previous incarnation still holds the name; treating
                    // that as registered would leave us unregistered
                    // forever once the old session expires and deletes it.
                    // Keep retrying from the tick loop instead — the blip
                    // between the old znode's expiry and our re-create is
                    // one tick wide, within the manager's leave debounce.
                    self.member_registered = matches!(result, Ok(CoordReply::Created));
                    // Any other failure (e.g. the manager has not created
                    // /sedna/members yet): retried from the tick loop.
                } else if Some(req_id) == self.ring_req {
                    self.ring_req = None;
                    if let Ok(CoordReply::Data { data, version, .. }) = result {
                        if let Some(map) = VNodeMap::decode(&data) {
                            let newer = self.ring.as_ref().is_none_or(|r| map.epoch() > r.epoch());
                            if newer {
                                self.install_ring(map);
                            }
                            self.lease.put(paths::RING, data, version);
                        }
                    } else {
                        // Ring znode not there yet (fresh cluster): retry on
                        // the next tick via the lease path.
                        self.lease.invalidate(paths::RING);
                    }
                } else if Some(req_id) == self.lease_req {
                    self.lease_req = None;
                    if let Ok(CoordReply::Changes {
                        paths: changed,
                        latest_zxid,
                        truncated,
                    }) = result
                    {
                        let stale = self.lease.apply_changes(changed, latest_zxid, truncated);
                        if stale.iter().any(|p| p == paths::RING) {
                            self.request_ring(ctx);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn tick(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        let now = ctx.now();
        // Feed the sim clock to the flight recorder's process-wide event
        // clock (fetch_max: multiple in-process nodes only advance it).
        sedna_obs::flight::set_clock(now);
        // Fail over coordination requests whose replica went silent.
        for (old, (to, m)) in self.session.on_tick(now) {
            let new_id = match &m {
                CoordMsg::Request { req_id, .. } => *req_id,
                _ => RequestId(0),
            };
            if Some(old) == self.ring_req {
                self.ring_req = Some(new_id);
            } else if Some(old) == self.lease_req {
                self.lease_req = Some(new_id);
            } else if Some(old) == self.member_req {
                self.member_req = Some(new_id);
            } else if let Some((r, was_create)) = self.stats_req {
                if r == old {
                    self.stats_req = Some((new_id, was_create));
                }
            }
            self.send_coord(ctx, to, m);
        }
        // Retry membership registration until it sticks (e.g. when this
        // node booted before the manager created the namespace).
        if self.session.session().is_some() {
            self.register_member(ctx);
        }
        // Session heartbeat.
        if now.saturating_sub(self.last_ping) >= self.cfg.ping_interval_micros {
            self.last_ping = now;
            if let Some((to, m)) = self.session.ping(now) {
                self.send_coord(ctx, to, m);
            }
        }
        // Adaptive-lease routing refresh; also retries a missing ring.
        if self.session.session().is_some()
            && self.lease_req.is_none()
            && now.saturating_sub(self.last_lease_check) >= self.lease.lease_micros()
        {
            self.last_lease_check = now;
            if self.ring.is_none() {
                self.request_ring(ctx);
            } else if let Some((req, to, m)) = self.session.request(self.lease.refresh_op(), now) {
                self.lease_req = Some(req);
                self.send_coord(ctx, to, m);
            }
        }
        ctx.set_timer(T_TICK, self.cfg.ping_interval_micros / 4);
    }

    fn scan(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        sedna_obs::prof_scope!("node.trigger_scan");
        let now = ctx.now();
        // Sweep everything, but dispatch only keys this node is primary
        // for — one firing per logical change across the replica group.
        let records: Vec<_> = self
            .store
            .scan_dirty()
            .into_iter()
            .filter(|r| self.is_primary(r.key.ring_hash()))
            .collect();
        // Dispatch even an empty sweep: it is where flow control forgets
        // firings older than each job's interval.
        let mut emits = Emits::default();
        let swept = self.engine.dispatch(&self.store, &records, &mut emits, now);
        self.telemetry.note_sweep(swept.fired > 0);
        for (key, value, mode) in emits.writes {
            if let Some(ring) = &self.ring {
                let vnode = self.cfg.partitioner.locate(&key);
                let replicas = ring.replicas(vnode).to_vec();
                if replicas.is_empty() {
                    continue;
                }
                let ts = self.next_timestamp(now);
                let kind = match mode {
                    WriteMode::Latest => WriteKind::Latest,
                    WriteMode::All => WriteKind::All,
                };
                self.stats.trigger_emits += 1;
                // Emit-writes trace under the node's own origin (node ids
                // are disjoint from the 1000+ client origins), numbered by
                // the node's emit count, which also serves as their
                // request id.
                let seq = self.stats.trigger_emits;
                let trace = TraceId::compose(self.node_id.0 as u64, seq);
                for n in replicas {
                    let op = ReplicaOp::Write {
                        req: RequestId(seq),
                        key: key.clone(),
                        ts,
                        value: value.clone(),
                        // Trigger emits carry no session history.
                        ctx: CausalContext::EMPTY,
                        kind,
                        trace,
                    };
                    ctx.send(self.cfg.node_actor(n), SednaMsg::Replica(op));
                }
            }
        }
        ctx.set_timer(T_SCAN, self.cfg.scan_interval_micros);
    }
}

impl Actor for SednaNode {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        let now = ctx.now();
        let (to, m) = self.session.open(now);
        self.send_coord(ctx, to, m);
        ctx.set_timer(T_TICK, self.cfg.ping_interval_micros / 4);
        ctx.set_timer(T_SCAN, self.cfg.scan_interval_micros);
        if self.persist.is_some() {
            ctx.set_timer(T_PERSIST, self.cfg.scan_interval_micros * 8);
        }
        if self.cfg.stats_publish_interval_micros > 0 {
            ctx.set_timer(T_STATS, self.cfg.stats_publish_interval_micros);
        }
        if self.cfg.sync_interval_micros > 0 {
            ctx.set_timer(T_SYNC, self.cfg.sync_interval_micros);
        }
    }

    fn on_message(&mut self, from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        match msg {
            SednaMsg::Coord(m) => self.handle_coord(m, ctx),
            SednaMsg::Replica(op) => self.handle_replica(from, op, ctx),
            SednaMsg::Control(op) => self.handle_control(op, ctx),
            SednaMsg::Client(_) => {} // nodes do not speak the gateway protocol
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        let t0 = std::time::Instant::now();
        match token {
            T_TICK => self.tick(ctx),
            T_SCAN => self.scan(ctx),
            T_PERSIST => {
                if let Some(p) = &mut self.persist {
                    let _ = p.tick(ctx.now(), &self.store);
                }
                ctx.set_timer(T_PERSIST, self.cfg.scan_interval_micros * 8);
            }
            T_STATS => {
                let now = ctx.now();
                self.mirror_gauges();
                self.telemetry.publish_engine(self.store.engine_stats());
                self.telemetry
                    .publish_divergence(self.divergence.snapshot(now));
                if let Some(alerts) = &self.alerts {
                    // The divergence-age SLO samples the oldest open
                    // mismatch every tick; 0 when all replicas agree.
                    alerts.observe(
                        now,
                        "divergence_age",
                        self.divergence.max_open_age(now) as f64,
                    );
                    alerts.evaluate(now);
                }
                if let Some(ring) = &self.ring {
                    let owned = ring.vnodes_of(self.node_id);
                    self.telemetry
                        .publish(now, &owned, &self.vnode_stats, self.hot_keys());
                }
                if self.session.session().is_some() {
                    self.publish_stats(ctx);
                }
                ctx.set_timer(T_STATS, self.cfg.stats_publish_interval_micros);
            }
            T_SYNC => {
                sedna_obs::prof_scope!("node.anti_entropy");
                self.sync_step(ctx);
                ctx.set_timer(T_SYNC, self.cfg.sync_interval_micros);
            }
            _ => {}
        }
        if let Some((_, hist)) = self.obs.timers.iter().find(|(t, _)| *t == token) {
            hist.record(t0.elapsed().as_micros() as u64);
        }
    }

    fn service_micros(&self, msg: &SednaMsg) -> Micros {
        fn cost(cfg: &ClusterConfig, op: &ReplicaOp) -> Micros {
            match op {
                ReplicaOp::Read { .. } => cfg.read_service_micros,
                ReplicaOp::Write { .. } => cfg.write_service_micros,
                ReplicaOp::TransferData { rows, .. } => 2 + rows.len() as Micros / 4,
                ReplicaOp::SyncRows { rows, .. } => 2 + rows.len() as Micros / 4,
                // A batch costs the sum of its sub-ops: coalescing saves
                // network frames, not storage CPU.
                ReplicaOp::Batch { ops } | ReplicaOp::AckBatch { acks: ops } => {
                    ops.iter().map(|o| cost(cfg, o)).sum()
                }
                _ => 2,
            }
        }
        match msg {
            SednaMsg::Replica(op) => cost(&self.cfg, op),
            _ => 2,
        }
    }

    /// A node that owns a persistence engine does file I/O from its
    /// callbacks: log appends on the write path, snapshots with `sync_all`
    /// from its timer.
    fn may_block(&self) -> bool {
        self.persist.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::rng::Xoshiro256;
    use sedna_common::Value;
    use sedna_net::actor::Effects;

    /// A node that holds every vnode, so it owns every key.
    fn sole_owner() -> SednaNode {
        let cfg = ClusterConfig::small();
        let mut ring = VNodeMap::new(cfg.partitioner.vnode_count(), 1);
        ring.join(NodeId(0));
        let mut node = SednaNode::new(cfg, NodeId(0), None);
        node.ring = Some(ring);
        node
    }

    fn batch(node: &mut SednaNode, ops: Vec<ReplicaOp>) -> Vec<ReplicaOp> {
        let mut rng = Xoshiro256::seeded(1);
        let mut effects = Effects::default();
        let mut ctx = Ctx::new(1_000, ActorId(9), &mut rng, &mut effects);
        node.handle_batch(ActorId(7), ops, &mut ctx);
        match effects.sends.pop() {
            Some((ActorId(7), SednaMsg::Replica(ReplicaOp::AckBatch { acks }))) => acks,
            _ => panic!("expected one AckBatch back to the sender"),
        }
    }

    #[test]
    fn batch_sub_ops_apply_in_frame_order() {
        let mut node = sole_owner();
        let key = Key::from("k");
        let read = |req| ReplicaOp::Read {
            req: RequestId(req),
            key: key.clone(),
            trace: TraceId(0),
        };
        let write = ReplicaOp::Write {
            req: RequestId(2),
            key: key.clone(),
            ts: Timestamp::new(5, 0, NodeId(1_000)),
            value: Value::from("v"),
            kind: WriteKind::Latest,
            ctx: CausalContext::EMPTY,
            trace: TraceId(0),
        };
        let acks = batch(&mut node, vec![read(1), write, read(3)]);
        let replies: Vec<_> = acks
            .iter()
            .map(|ack| match ack {
                ReplicaOp::ReadReply { req, reply, .. } => {
                    (req.0, matches!(reply, ReplicaReadReply::Missing))
                }
                ReplicaOp::WriteAck { req, ack, .. } => {
                    (req.0, matches!(ack, ReplicaWriteAck::Refused))
                }
                other => panic!("unexpected ack {other:?}"),
            })
            .collect();
        // The read framed before the write misses the fresh key; the one
        // after it sees the write.
        assert_eq!(replies, vec![(1, true), (2, false), (3, false)]);
    }

    /// A replica write of `key` at `micros`.
    fn write(node: &mut SednaNode, key: &Key, micros: u64) {
        let op = ReplicaOp::Write {
            req: RequestId(micros),
            key: key.clone(),
            ts: Timestamp::new(micros, 0, NodeId(1_000)),
            value: Value::from("v"),
            kind: WriteKind::Latest,
            ctx: CausalContext::EMPTY,
            trace: TraceId(0),
        };
        let mut rng = Xoshiro256::seeded(1);
        let mut effects = Effects::default();
        let mut ctx = Ctx::new(1_000, ActorId(9), &mut rng, &mut effects);
        node.handle_replica(ActorId(7), op, &mut ctx);
    }

    /// One trigger sweep from the node's scan timer; returns how many
    /// records it swept.
    fn sweep(node: &mut SednaNode) -> u64 {
        let before = node.trigger_totals().scanned;
        let mut rng = Xoshiro256::seeded(1);
        let mut effects = Effects::default();
        let mut ctx = Ctx::new(2_000, ActorId(9), &mut rng, &mut effects);
        node.on_timer(T_SCAN, &mut ctx);
        node.trigger_totals().scanned - before
    }

    #[test]
    fn only_rows_a_registered_job_watches_fire() {
        let mut node = sole_owner();
        let key =
            |table: &str, k: &str| sedna_common::KeyPath::new("ds", table, k).unwrap().encode();
        // No job: no write goes dirty, so a sweep finds nothing.
        write(&mut node, &key("t", "a"), 1);
        assert_eq!(sweep(&mut node), 0);
        // A write made before its job registered does not fire it.
        write(&mut node, &key("t", "before"), 2);
        let fired = Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = Arc::clone(&fired);
        node.register_job(
            JobSpec::builder("table-t")
                .input(sedna_triggers::MonitorScope::Table {
                    dataset: "ds".into(),
                    table: "t".into(),
                })
                .action(sedna_triggers::FnAction(
                    move |k: &Key, _: &[sedna_memstore::VersionedValue], _: &mut Emits| {
                        seen.lock().unwrap().push(k.clone());
                    },
                ))
                .trigger_interval(0)
                .build(),
            1_000,
        );
        // A `Table` job: only that table's rows fire.
        write(&mut node, &key("t", "a"), 3);
        write(&mut node, &key("u", "a"), 4);
        assert_eq!(sweep(&mut node), 1);
        assert_eq!(*fired.lock().unwrap(), vec![key("t", "a")]);
    }
}
