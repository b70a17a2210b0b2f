//! The cluster-management actor.
//!
//! The paper's node management (Sec. III-D) has joining nodes "ask for
//! virtual nodes" and failure handling rewrite "the data mapping
//! information stored in ZooKeeper". We centralize those map rewrites in
//! one *manager* component (itself stateless across restarts — everything
//! authoritative lives in the coordination service, and the ensemble keeps
//! it available), which:
//!
//! 1. bootstraps the namespace (`/sedna`, `/sedna/members`, `/sedna/ring`);
//! 2. polls the member list (ephemeral znodes) on its session lease — no
//!    watches, per Sec. III-E;
//! 3. on membership change, applies [`VNodeMap::join`]/[`VNodeMap::leave`]
//!    and CAS-writes the new map into `/sedna/ring`;
//! 4. sends `MigrateVNode` directives to the nodes that must acquire data;
//! 5. periodically reads the published per-node **imbalance rows**
//!    (Sec. III-B) and, when `max_score/mean_score` exceeds the configured
//!    trigger, moves the hot node's hottest vnodes to the coldest nodes —
//!    the load-driven rebalancing the imbalance table exists for.
//!
//! This is a deliberate, documented simplification of the paper's
//! decentralized claim protocol: the *outcome* (balanced incremental
//! assignment recorded in the coordination service) is identical, and the
//! manager itself is not a single point of failure for the data path —
//! reads and writes proceed on cached routing state while it is down.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use sedna_common::{NodeId, RequestId};
use sedna_coord::client::{SessionClient, SessionConfig, SessionEvent};
use sedna_coord::messages::{CoordError, CoordMsg, CoordOp, CoordReply};
use sedna_coord::tree::TreeError;
use sedna_net::actor::{Actor, ActorId, Ctx, TimerToken};
use sedna_obs::journal::{EventJournal, EventKind};
use sedna_obs::registry::{Hist, Registry};
use sedna_ring::{Transfer, VNodeMap};

use crate::config::{paths, ClusterConfig};
use crate::messages::{ControlMsg, SednaMsg};

const T_POLL: TimerToken = TimerToken(0x3A_01);

/// The manager actor.
pub struct ClusterManager {
    cfg: ClusterConfig,
    session: SessionClient,
    /// Authoritative map (mirrors `/sedna/ring`).
    map: VNodeMap,
    /// Version of the ring znode for CAS writes; `None` until read/created.
    ring_version: Option<u64>,
    members_req: Option<RequestId>,
    ring_read_req: Option<RequestId>,
    ring_write_req: Option<RequestId>,
    bootstrap_req: Option<RequestId>,
    /// Transfers awaiting a successful ring publish.
    pending_directives: Vec<Transfer>,
    /// Members reflected in `map`.
    known: BTreeSet<NodeId>,
    /// Consecutive polls each known member has been absent from the member
    /// list; a leave fires only at `leave_debounce_polls` (rides out the
    /// ephemeral-znode blip when a restarted node's old session expires).
    absent_polls: BTreeMap<NodeId, u32>,
    /// Polls since the last imbalance check.
    polls_since_rebalance: u32,
    /// Outstanding imbalance-children request.
    imbalance_children_req: Option<RequestId>,
    /// Outstanding per-node imbalance-row reads.
    imbalance_row_reqs: HashMap<RequestId, NodeId>,
    /// Rows collected this round.
    imbalance_rows: BTreeMap<NodeId, crate::imbalance::ImbalanceRow>,
    /// Completed load-driven moves (metrics/tests).
    rebalance_moves: u64,
    registry: Arc<Registry>,
    /// Membership and rebalance decisions, as structured events.
    journal: Arc<EventJournal>,
    ping_rtt: Hist,
}

impl ClusterManager {
    /// Creates the manager.
    pub fn new(cfg: ClusterConfig) -> Self {
        let session = SessionClient::new(SessionConfig {
            replicas: cfg.coord_actors(),
            ping_interval_micros: cfg.ping_interval_micros,
            request_timeout_micros: 600_000,
        });
        let map = VNodeMap::new(cfg.partitioner.vnode_count(), cfg.quorum.n);
        let registry = Arc::new(Registry::new(cfg.metrics_enabled));
        let journal = Arc::new(EventJournal::new(cfg.journal_capacity));
        let ping_rtt = registry.hist("sedna_coord_ping_rtt_micros");
        ClusterManager {
            cfg,
            session,
            map,
            ring_version: None,
            members_req: None,
            ring_read_req: None,
            ring_write_req: None,
            bootstrap_req: None,
            pending_directives: Vec::new(),
            known: BTreeSet::new(),
            absent_polls: BTreeMap::new(),
            polls_since_rebalance: 0,
            imbalance_children_req: None,
            imbalance_row_reqs: HashMap::new(),
            imbalance_rows: BTreeMap::new(),
            rebalance_moves: 0,
            registry,
            journal,
            ping_rtt,
        }
    }

    /// The manager's metrics registry (shared handle).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// The manager's event journal: membership changes and rebalance moves.
    pub fn journal(&self) -> Arc<EventJournal> {
        self.journal.clone()
    }

    /// Number of load-driven vnode moves performed so far.
    pub fn rebalance_moves(&self) -> u64 {
        self.rebalance_moves
    }

    /// The manager's current view of the assignment.
    pub fn map(&self) -> &VNodeMap {
        &self.map
    }

    fn send_coord(&self, ctx: &mut Ctx<'_, SednaMsg>, to: ActorId, msg: CoordMsg) {
        ctx.send(to, SednaMsg::Coord(msg));
    }

    fn request(&mut self, ctx: &mut Ctx<'_, SednaMsg>, op: CoordOp) -> Option<RequestId> {
        let now = ctx.now();
        let (req, to, msg) = self.session.request(op, now)?;
        self.send_coord(ctx, to, msg);
        Some(req)
    }

    fn bootstrap_namespace(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        // One batched create; existing nodes are skipped, so this is
        // idempotent across manager restarts.
        self.bootstrap_req = self.request(
            ctx,
            CoordOp::CreateMany {
                nodes: vec![
                    (paths::ROOT.into(), vec![]),
                    (paths::MEMBERS.into(), vec![]),
                    (paths::IMBALANCE.into(), vec![]),
                    (paths::RING.into(), self.map.encode()),
                ],
            },
        );
    }

    fn poll_members(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.members_req.is_none() {
            self.members_req = self.request(
                ctx,
                CoordOp::GetChildren {
                    path: paths::MEMBERS.into(),
                    watch: false,
                },
            );
        }
    }

    fn read_ring(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.ring_read_req.is_none() {
            self.ring_read_req = self.request(
                ctx,
                CoordOp::Get {
                    path: paths::RING.into(),
                    watch: false,
                },
            );
        }
    }

    fn publish_ring(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.ring_write_req.is_some() {
            return;
        }
        self.ring_write_req = self.request(
            ctx,
            CoordOp::Set {
                path: paths::RING.into(),
                data: self.map.encode(),
                expected_version: self.ring_version,
            },
        );
    }

    /// Kicks off an imbalance check: list the published rows, then read
    /// each one; [`Self::maybe_rebalance`] runs once all replies landed.
    fn start_imbalance_check(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.imbalance_children_req.is_some()
            || !self.imbalance_row_reqs.is_empty()
            || self.ring_write_req.is_some()
        {
            return; // a round (or a ring publish) is already in flight
        }
        self.imbalance_rows.clear();
        self.imbalance_children_req = self.request(
            ctx,
            CoordOp::GetChildren {
                path: paths::IMBALANCE.into(),
                watch: false,
            },
        );
    }

    /// Runs the rebalancer over the collected rows (Sec. III-B's hot→cold
    /// vnode moves), reusing the ring-publish + directive machinery.
    fn maybe_rebalance(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        use sedna_ring::ImbalanceTable;
        // No voluntary move while a member is missing from the poll (it is
        // probably dead: the move could target it, and its debounced leave
        // would then replace a second replica of a vnode this round just
        // changed) or while a ring write is in flight (`publish_ring` would
        // drop this one and the directives would precede their ring).
        if !self.absent_polls.is_empty() || self.ring_write_req.is_some() {
            return;
        }
        let mut table = ImbalanceTable::default();
        for (&node, row) in &self.imbalance_rows {
            if self.known.contains(&node) {
                table.update_row(node, row.load);
                table.update_hot_keys(node, row.hot_keys.clone());
            }
        }
        let Some(ratio) = table.imbalance_ratio() else {
            return;
        };
        if ratio <= self.cfg.rebalance_trigger_ratio {
            return;
        }
        let Some((hot, _)) = table.extremes() else {
            return;
        };
        let Some(hot_row) = self.imbalance_rows.get(&hot).cloned() else {
            return;
        };
        // Evolving score view so successive moves see each other.
        let mut scores: BTreeMap<NodeId, u64> = table.rows().map(|(n, l)| (n, l.score)).collect();
        let mut transfers = Vec::new();
        for &(vnode, vscore) in hot_row.hottest.iter() {
            if transfers.len() >= self.cfg.rebalance_max_moves {
                break;
            }
            // Coldest member that does not already hold this vnode.
            let Some((&cold, &cold_score)) = scores
                .iter()
                .filter(|(n, _)| **n != hot && !self.map.replicas(vnode).contains(n))
                .min_by_key(|(n, s)| (**s, **n))
            else {
                continue;
            };
            let hot_score = scores.get(&hot).copied().unwrap_or(0);
            // Move only real load, and only when it strictly narrows the
            // gap (a vnode hotter than the gap would just relocate the
            // hotspot).
            if vscore == 0 || cold_score + vscore >= hot_score {
                continue;
            }
            if let Some(t) = self.map.move_slot(vnode, hot, cold) {
                *scores.get_mut(&hot).expect("hot") -= vscore;
                *scores.get_mut(&cold).expect("cold") += vscore;
                self.journal.push(
                    ctx.now(),
                    EventKind::Rebalance {
                        vnode,
                        from: hot,
                        to: cold,
                    },
                );
                transfers.push(t);
            }
        }
        if !transfers.is_empty() {
            self.rebalance_moves += transfers.len() as u64;
            self.registry
                .counter("sedna_manager_rebalance_moves_total")
                .add(transfers.len() as u64);
            self.pending_directives.extend(transfers);
            self.publish_ring(ctx);
        }
    }

    /// Applies a membership diff to the map; queues migration directives.
    fn reconcile_members(&mut self, ctx: &mut Ctx<'_, SednaMsg>, live: BTreeSet<NodeId>) {
        let joined: Vec<NodeId> = live.difference(&self.known).copied().collect();
        // Debounced departures: a member leaves only after it has been
        // absent from `leave_debounce_polls` consecutive polls.
        let threshold = self.cfg.leave_debounce_polls.max(1);
        let mut left = Vec::new();
        for n in self.known.difference(&live).copied().collect::<Vec<_>>() {
            let polls = self.absent_polls.entry(n).or_insert(0);
            *polls += 1;
            if *polls >= threshold {
                left.push(n);
            }
        }
        // A member that reappeared (or finally left) resets its streak.
        self.absent_polls
            .retain(|n, _| !live.contains(n) && !left.contains(n));
        if joined.is_empty() && left.is_empty() {
            return;
        }
        let mut transfers = Vec::new();
        for n in left {
            // Heartbeat loss: treated as a crash — survivors are the copy
            // sources (Sec. III-D).
            transfers.extend(self.map.leave(n, false));
            self.known.remove(&n);
            self.registry.counter("sedna_manager_leaves_total").inc();
            self.journal.push(
                ctx.now(),
                EventKind::Membership {
                    node: n,
                    joined: false,
                },
            );
        }
        for n in joined {
            transfers.extend(self.map.join(n));
            self.known.insert(n);
            self.registry.counter("sedna_manager_joins_total").inc();
            self.journal.push(
                ctx.now(),
                EventKind::Membership {
                    node: n,
                    joined: true,
                },
            );
        }
        self.pending_directives.extend(transfers);
        self.publish_ring(ctx);
    }

    /// After a successful publish, tell the new owners to pull their data.
    fn flush_directives(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        for t in std::mem::take(&mut self.pending_directives) {
            // Only direct at live destinations.
            if !self.known.contains(&t.to) {
                continue;
            }
            ctx.send(
                self.cfg.node_actor(t.to),
                SednaMsg::Control(ControlMsg::MigrateVNode {
                    vnode: t.vnode,
                    from: t.copy_from,
                }),
            );
            // Cleanup of the vacated copy is destination-driven: the new
            // owner confirms with `TransferComplete` once the data is
            // installed, and the source drops only then (never before the
            // rows exist elsewhere).
        }
    }

    fn handle_coord(&mut self, msg: CoordMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        let (event, retry) = self.session.on_message(msg);
        if let Some((to, m)) = retry {
            self.send_coord(ctx, to, m);
        }
        match event {
            Some(SessionEvent::Opened(_)) => {
                self.bootstrap_namespace(ctx);
            }
            Some(SessionEvent::Expired) => {
                let now = ctx.now();
                let (to, m) = self.session.open(now);
                self.send_coord(ctx, to, m);
            }
            Some(SessionEvent::Reply { req_id, result }) => {
                self.handle_reply(req_id, result, ctx);
            }
            Some(SessionEvent::Pong { sent_at }) => {
                self.ping_rtt.record(ctx.now().saturating_sub(sent_at));
            }
            _ => {}
        }
    }

    fn handle_reply(
        &mut self,
        req_id: RequestId,
        result: Result<CoordReply, CoordError>,
        ctx: &mut Ctx<'_, SednaMsg>,
    ) {
        if Some(req_id) == self.bootstrap_req {
            self.bootstrap_req = None;
            // Whether we created the namespace or found it, adopt the
            // current ring state before acting.
            self.read_ring(ctx);
            return;
        }
        if Some(req_id) == self.ring_read_req {
            self.ring_read_req = None;
            if let Ok(CoordReply::Data { data, version, .. }) = result {
                if let Some(map) = VNodeMap::decode(&data) {
                    self.ring_version = Some(version);
                    self.known = map.members().collect();
                    self.map = map;
                }
            }
            self.poll_members(ctx);
            return;
        }
        if Some(req_id) == self.ring_write_req {
            self.ring_write_req = None;
            match result {
                Ok(CoordReply::SetDone { version }) => {
                    self.ring_version = Some(version);
                    self.flush_directives(ctx);
                }
                Err(CoordError::Tree(TreeError::BadVersion { .. })) => {
                    // Lost a CAS race (manager restart overlap): reload and
                    // reconcile again on the next poll.
                    self.pending_directives.clear();
                    self.read_ring(ctx);
                }
                _ => {
                    // Transient failure: retry on next poll.
                    self.publish_ring(ctx);
                }
            }
            return;
        }
        if Some(req_id) == self.members_req {
            self.members_req = None;
            if let Ok(CoordReply::Children(names)) = result {
                let live: BTreeSet<NodeId> = names
                    .iter()
                    .filter_map(|n| paths::parse_member(n))
                    .collect();
                self.reconcile_members(ctx, live);
            }
            return;
        }
        if Some(req_id) == self.imbalance_children_req {
            self.imbalance_children_req = None;
            if let Ok(CoordReply::Children(names)) = result {
                for node in names.iter().filter_map(|n| paths::parse_member(n)) {
                    if !self.known.contains(&node) {
                        continue; // departed node's stale row
                    }
                    if let Some(req) = self.request(
                        ctx,
                        CoordOp::Get {
                            path: paths::imbalance(node),
                            watch: false,
                        },
                    ) {
                        self.imbalance_row_reqs.insert(req, node);
                    }
                }
                if self.imbalance_row_reqs.is_empty() {
                    // nothing published yet
                }
            }
            return;
        }
        if let Some(node) = self.imbalance_row_reqs.remove(&req_id) {
            if let Ok(CoordReply::Data { data, .. }) = result {
                if let Some(row) = crate::imbalance::ImbalanceRow::decode(&data) {
                    self.imbalance_rows.insert(node, row);
                }
            }
            if self.imbalance_row_reqs.is_empty() {
                self.maybe_rebalance(ctx);
            }
        }
    }
}

impl Actor for ClusterManager {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        let now = ctx.now();
        let (to, m) = self.session.open(now);
        self.send_coord(ctx, to, m);
        ctx.set_timer(T_POLL, self.cfg.manager_poll_micros);
    }

    fn on_message(&mut self, _from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        if let SednaMsg::Coord(m) = msg {
            self.handle_coord(m, ctx);
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        if token == T_POLL {
            // Fail over coordination requests whose replica went silent.
            for (old, (to, m)) in self.session.on_tick(ctx.now()) {
                let new_id = match &m {
                    CoordMsg::Request { req_id, .. } => *req_id,
                    _ => RequestId(0),
                };
                for slot in [
                    &mut self.members_req,
                    &mut self.ring_read_req,
                    &mut self.ring_write_req,
                    &mut self.bootstrap_req,
                    &mut self.imbalance_children_req,
                ] {
                    if *slot == Some(old) {
                        *slot = Some(new_id);
                    }
                }
                if let Some(node) = self.imbalance_row_reqs.remove(&old) {
                    self.imbalance_row_reqs.insert(new_id, node);
                }
                self.send_coord(ctx, to, m);
            }
            if self.session.session().is_some() && self.ring_version.is_some() {
                self.poll_members(ctx);
                if let Some((to, m)) = self.session.ping(ctx.now()) {
                    self.send_coord(ctx, to, m);
                }
                self.polls_since_rebalance += 1;
                if self.cfg.stats_publish_interval_micros > 0
                    && self.polls_since_rebalance >= self.cfg.rebalance_check_every
                {
                    self.polls_since_rebalance = 0;
                    self.start_imbalance_check(ctx);
                }
            } else if self.session.session().is_some() && self.bootstrap_req.is_none() {
                // Session alive but namespace state unknown (e.g. bootstrap
                // reply lost): re-run the idempotent bootstrap.
                self.bootstrap_namespace(ctx);
            }
            ctx.set_timer(T_POLL, self.cfg.manager_poll_micros);
        }
    }
}
