//! Deployment harnesses: build a whole Sedna cluster on the simulator or
//! on real threads, plus the gateway actor and a synchronous client facade
//! for examples.

use std::sync::Arc;
use std::time::Duration;

use sedna_common::time::Micros;
use sedna_common::Key;
use sedna_common::{NodeId, Value};
use sedna_coord::messages::EnsembleConfig;
use sedna_coord::replica::CoordReplica;
use sedna_net::actor::{Actor, ActorId, Ctx, TimerToken};
use sedna_net::link::LinkModel;
use sedna_net::sim::{Sim, SimConfig};
use sedna_net::stats::NetStats;
use sedna_net::threaded::{ExternalHandle, ThreadNet, ThreadNetConfig};
use sedna_obs::journal::{Event, EventJournal};
use sedna_obs::registry::{MetricsSnapshot, Registry};
use sedna_obs::AlertEngine;
use sedna_persist::PersistEngine;

use crate::admin::{AdminActor, AdminState};
use crate::client::{ClientCore, ClientEvent};
use crate::config::ClusterConfig;
use crate::fault::{ClusterFault, RestartKind, ScheduledFault};
use crate::manager::ClusterManager;
use crate::messages::{ClientFrame, ClientOp, ClientResult, SednaMsg};
use crate::node::SednaNode;

/// Ensemble timing used by deployments (the coordination ensemble runs on
/// the same runtime as the data path).
fn ensemble_config(cfg: &ClusterConfig) -> EnsembleConfig {
    EnsembleConfig::lan(cfg.coord_actors())
}

/// Wires the continuous profiler into the process: starts the ~997 Hz
/// scope-stack sampler thread. Idempotent and process-global;
/// [`ThreadCluster`] calls it on start, standalone binaries (benches, the
/// repl) may too. The simulator harness deliberately does not — a sampler
/// thread would not break determinism (it only reads), but there is
/// nothing to sample in a single-threaded run.
pub fn install_profiling() {
    sedna_obs::prof::start_sampler();
}

/// Folds a runtime's traffic counters into a metrics snapshot as gauges
/// (the runtime owns the counters; snapshots just mirror them).
pub fn fold_net_stats(stats: &NetStats, snap: &mut MetricsSnapshot) {
    for (name, v) in [
        ("sedna_net_messages_sent", stats.messages_sent),
        ("sedna_net_messages_delivered", stats.messages_delivered),
        ("sedna_net_messages_dropped", stats.messages_dropped),
        ("sedna_net_bytes_sent", stats.bytes_sent),
        ("sedna_net_bytes_dropped", stats.bytes_dropped),
        ("sedna_net_timers_fired", stats.timers_fired),
    ] {
        *snap.gauges.entry(name.to_string()).or_insert(0) += v;
    }
}

// ---------------------------------------------------------------------------
// Gateway
// ---------------------------------------------------------------------------

const T_GATEWAY_TICK: TimerToken = TimerToken(0x6A_01);

/// Bridges external callers to the cluster: receives [`ClientFrame`]
/// requests (from [`ActorId::EXTERNAL`] or any other actor), performs them
/// through an embedded [`ClientCore`], and answers with
/// [`ClientFrame::Response`].
pub struct Gateway {
    core: ClientCore,
    /// Requests received before the routing cache was ready.
    backlog: Vec<(ActorId, u64, ClientOp)>,
    /// In-flight: `op_id → (requester, external op id)`.
    in_flight: std::collections::HashMap<u64, (ActorId, u64)>,
    tick_micros: Micros,
}

impl Gateway {
    /// Creates a gateway stamping writes with the given client origin.
    pub fn new(cfg: ClusterConfig, origin: NodeId) -> Self {
        let tick = cfg.request_deadline_micros / 4;
        Gateway {
            core: ClientCore::new(cfg, origin),
            backlog: Vec::new(),
            in_flight: std::collections::HashMap::new(),
            tick_micros: tick.max(1_000),
        }
    }

    /// True once requests can be served without queueing.
    pub fn is_ready(&self) -> bool {
        self.core.is_ready()
    }

    /// The embedded client (metrics, journal, trace inspection).
    pub fn core(&self) -> &ClientCore {
        &self.core
    }

    /// Attaches the cluster-shared SLO engine to the embedded client so
    /// gateway-served operations feed the burn-rate windows.
    pub fn set_alert_engine(&mut self, engine: Arc<AlertEngine>) {
        self.core.set_alert_engine(engine);
    }

    fn start_op(&mut self, from: ActorId, op_id: u64, op: ClientOp, ctx: &mut Ctx<'_, SednaMsg>) {
        // An empty group is complete by definition. Answer immediately:
        // the core reports empty input as `None`, which would otherwise be
        // indistinguishable from "routing not ready" and backlog forever.
        let empty_group = match &op {
            ClientOp::WriteMany { pairs } => pairs.is_empty(),
            ClientOp::ReadMany { keys } => keys.is_empty(),
            _ => false,
        };
        if empty_group {
            ctx.send(
                from,
                SednaMsg::Client(ClientFrame::Response {
                    op_id,
                    result: ClientResult::Many(Vec::new()),
                }),
            );
            return;
        }
        let now = ctx.now();
        let issued = match &op {
            ClientOp::WriteLatest { key, value } => self.core.write_latest(key, value.clone(), now),
            ClientOp::WriteAll { key, value } => self.core.write_all(key, value.clone(), now),
            ClientOp::ReadLatest { key } => self.core.read_latest(key, now),
            ClientOp::ReadAll { key } => self.core.read_all(key, now),
            ClientOp::ScanTable { dataset, table } => self.core.scan_table(dataset, table, now),
            ClientOp::WriteMany { pairs } => self.core.write_many(pairs, now),
            ClientOp::ReadMany { keys } => self.core.read_many(keys, now),
        };
        match issued {
            Some((internal_op, out)) => {
                self.in_flight.insert(internal_op, (from, op_id));
                for (to, m) in out {
                    ctx.send(to, m);
                }
            }
            None => {
                // Routing not ready yet: queue and retry when it is.
                self.backlog.push((from, op_id, op));
            }
        }
    }

    fn pump_events(&mut self, events: Vec<ClientEvent>, ctx: &mut Ctx<'_, SednaMsg>) {
        for ev in events {
            match ev {
                ClientEvent::Ready => {
                    for (from, op_id, op) in std::mem::take(&mut self.backlog) {
                        self.start_op(from, op_id, op, ctx);
                    }
                }
                ClientEvent::Done { op_id, result } => {
                    if let Some((requester, ext_id)) = self.in_flight.remove(&op_id) {
                        ctx.send(
                            requester,
                            SednaMsg::Client(ClientFrame::Response {
                                op_id: ext_id,
                                result,
                            }),
                        );
                    }
                }
            }
        }
    }
}

impl Actor for Gateway {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        for (to, m) in self.core.bootstrap() {
            ctx.send(to, m);
        }
        ctx.set_timer(T_GATEWAY_TICK, self.tick_micros);
    }

    fn on_message(&mut self, from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        match msg {
            SednaMsg::Client(ClientFrame::Request { op_id, op }) => {
                self.start_op(from, op_id, op, ctx);
            }
            other => {
                let (events, out) = self.core.on_message(from, other, ctx.now());
                for (to, m) in out {
                    ctx.send(to, m);
                }
                self.pump_events(events, ctx);
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        if token == T_GATEWAY_TICK {
            let (events, out) = self.core.on_tick(ctx.now());
            for (to, m) in out {
                ctx.send(to, m);
            }
            self.pump_events(events, ctx);
            ctx.set_timer(T_GATEWAY_TICK, self.tick_micros);
        }
    }
}

// ---------------------------------------------------------------------------
// Simulated cluster
// ---------------------------------------------------------------------------

/// A fully-built simulated deployment.
pub struct SimCluster {
    /// The simulator; drive it with `run_until` etc.
    pub sim: Sim<SednaMsg>,
    /// The deployment layout.
    pub config: ClusterConfig,
    /// Gateways added via [`SimCluster::add_gateway`] (for metrics merge).
    gateways: Vec<ActorId>,
    /// The persistence factory the cluster was built with, kept so
    /// [`SimCluster::restart_node`] can rebuild a node against the same
    /// on-disk state ([`RestartKind::Recover`]).
    persist_for: Box<dyn FnMut(NodeId) -> Option<PersistEngine>>,
    /// The cluster-shared SLO engine: every node and gateway feeds it;
    /// firing transitions land in [`SimCluster::alerts_journal`].
    alerts: Arc<AlertEngine>,
    /// Journal receiving alert firing/resolve transitions.
    alerts_journal: Arc<EventJournal>,
}

impl SimCluster {
    /// Builds coordination replicas, the manager and all data nodes.
    /// Nodes get `persist_for(node)`-provided persistence engines.
    pub fn build_with_persist(
        config: ClusterConfig,
        seed: u64,
        link: LinkModel,
        persist_for: impl FnMut(NodeId) -> Option<PersistEngine> + 'static,
    ) -> Self {
        let sim_config = SimConfig {
            seed,
            link,
            ..SimConfig::default()
        };
        Self::build_with_sim_config(config, sim_config, persist_for)
    }

    /// Builds with full control over the simulator configuration (seed,
    /// link model, sender-side packet cost, clock skew).
    pub fn build_with_sim_config(
        config: ClusterConfig,
        sim_config: SimConfig,
        persist_for: impl FnMut(NodeId) -> Option<PersistEngine> + 'static,
    ) -> Self {
        let mut persist_for: Box<dyn FnMut(NodeId) -> Option<PersistEngine>> =
            Box::new(persist_for);
        let mut sim = Sim::new(sim_config);
        let ens = ensemble_config(&config);
        let alerts_journal = Arc::new(EventJournal::new(config.journal_capacity));
        let alerts = Arc::new(AlertEngine::new(
            AlertEngine::default_specs(),
            Some(alerts_journal.clone()),
        ));
        alerts.set_enabled(config.metrics_enabled);
        for i in 0..config.coord_replicas as u32 {
            let id = sim.add_actor(Box::new(CoordReplica::<SednaMsg>::new(ens.clone(), i)));
            debug_assert_eq!(id, config.coord_actor(i as usize));
        }
        let id = sim.add_actor(Box::new(ClusterManager::new(config.clone())));
        debug_assert_eq!(id, config.manager_actor());
        for n in 0..config.data_nodes as u32 {
            let node = NodeId(n);
            let mut actor = SednaNode::new(config.clone(), node, persist_for(node));
            actor.set_alert_engine(alerts.clone());
            let id = sim.add_actor(Box::new(actor));
            debug_assert_eq!(id, config.node_actor(node));
        }
        SimCluster {
            sim,
            config,
            gateways: Vec::new(),
            persist_for,
            alerts,
            alerts_journal,
        }
    }

    /// Builds without persistence.
    pub fn build(config: ClusterConfig, seed: u64, link: LinkModel) -> Self {
        Self::build_with_persist(config, seed, link, |_| None)
    }

    /// Runs until every data node has routing state with the full
    /// replication factor (cluster "ready"), or panics after `deadline`.
    pub fn run_until_ready(&mut self, deadline: Micros) {
        let step = 100_000;
        let mut t = self.sim.now();
        loop {
            t += step;
            self.sim.run_until(t);
            if self.all_nodes_ready() {
                return;
            }
            assert!(
                t < deadline,
                "cluster failed to become ready by {deadline}µs"
            );
        }
    }

    fn all_nodes_ready(&self) -> bool {
        let want_rf = self.config.quorum.n.min(self.config.data_nodes);
        (0..self.config.data_nodes as u32).all(|n| {
            let id = self.config.node_actor(NodeId(n));
            if self.sim.is_down(id) {
                return true; // crashed nodes don't block readiness
            }
            self.sim
                .actor_ref::<SednaNode>(id)
                .and_then(|node| node.ring())
                .is_some_and(|ring| {
                    ring.effective_rf() >= want_rf
                        && ring.members().count() >= self.live_node_count()
                })
        })
    }

    fn live_node_count(&self) -> usize {
        (0..self.config.data_nodes as u32)
            .filter(|&n| !self.sim.is_down(self.config.node_actor(NodeId(n))))
            .count()
    }

    /// Adds a gateway actor; returns its address.
    pub fn add_gateway(&mut self, client_index: u32) -> ActorId {
        let origin = self.config.client_origin(client_index);
        let mut gw = Gateway::new(self.config.clone(), origin);
        gw.set_alert_engine(self.alerts.clone());
        let id = self.sim.add_actor(Box::new(gw));
        self.gateways.push(id);
        id
    }

    /// The cluster-shared SLO/alert engine (burn-rate state, transition
    /// log) — what the nemesis harness cross-validates against ground
    /// truth.
    pub fn alert_engine(&self) -> &Arc<AlertEngine> {
        &self.alerts
    }

    /// Cluster-wide metrics: every data node, the manager, every gateway
    /// added through [`SimCluster::add_gateway`], the coordination
    /// replicas' election counters, and the simulator's traffic stats,
    /// merged into one snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for n in 0..self.config.data_nodes as u32 {
            let id = self.config.node_actor(NodeId(n));
            if let Some(node) = self.sim.actor_ref::<SednaNode>(id) {
                merged.merge(&node.metrics_snapshot());
            }
        }
        if let Some(mgr) = self
            .sim
            .actor_ref::<ClusterManager>(self.config.manager_actor())
        {
            merged.merge(&mgr.registry().snapshot());
        }
        for &id in &self.gateways {
            if let Some(gw) = self.sim.actor_ref::<Gateway>(id) {
                merged.merge(&gw.core().obs().snapshot());
            }
        }
        let (mut started, mut won) = (0, 0);
        for i in 0..self.config.coord_replicas {
            if let Some(rep) = self
                .sim
                .actor_ref::<CoordReplica<SednaMsg>>(self.config.coord_actor(i))
            {
                started += rep.elections_started();
                won += rep.elections_won();
            }
        }
        *merged
            .gauges
            .entry("sedna_coord_elections_started".into())
            .or_insert(0) += started;
        *merged
            .gauges
            .entry("sedna_coord_elections_won".into())
            .or_insert(0) += won;
        fold_net_stats(self.sim.stats(), &mut merged);
        merged
    }

    /// Prometheus text exposition of [`SimCluster::metrics_snapshot`].
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// JSON rendering of [`SimCluster::metrics_snapshot`].
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Every journal event in the cluster (nodes, manager, gateways),
    /// ordered by record time.
    pub fn journal_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for n in 0..self.config.data_nodes as u32 {
            let id = self.config.node_actor(NodeId(n));
            if let Some(node) = self.sim.actor_ref::<SednaNode>(id) {
                out.extend(node.journal().events());
            }
        }
        if let Some(mgr) = self
            .sim
            .actor_ref::<ClusterManager>(self.config.manager_actor())
        {
            out.extend(mgr.journal().events());
        }
        for &id in &self.gateways {
            if let Some(gw) = self.sim.actor_ref::<Gateway>(id) {
                out.extend(gw.core().obs().journal().events());
            }
        }
        out.extend(self.alerts_journal.events());
        out.sort_by_key(|e| e.at);
        out
    }

    /// Immutable access to a data node.
    pub fn node(&self, node: NodeId) -> &SednaNode {
        self.sim
            .actor_ref::<SednaNode>(self.config.node_actor(node))
            .expect("data node actor")
    }

    /// Mutable access to a data node (e.g. to register trigger jobs).
    pub fn node_mut(&mut self, node: NodeId) -> &mut SednaNode {
        self.sim
            .actor_mut::<SednaNode>(self.config.node_actor(node))
            .expect("data node actor")
    }

    /// Registers a trigger job on every (live) data node — jobs fire on the
    /// primary replica of each key, so cluster-wide registration gives
    /// exactly-once dispatch per change.
    pub fn register_job_everywhere(
        &mut self,
        mut make_spec: impl FnMut() -> sedna_triggers::JobSpec,
    ) {
        let now = self.sim.now();
        for n in 0..self.config.data_nodes as u32 {
            let id = self.config.node_actor(NodeId(n));
            if !self.sim.is_down(id) {
                if let Some(node) = self.sim.actor_mut::<SednaNode>(id) {
                    node.register_job(make_spec(), now);
                }
            }
        }
    }

    /// Crashes a data node (heartbeats stop; the manager will re-cover its
    /// vnodes).
    pub fn crash_node(&mut self, node: NodeId) {
        self.sim.set_down(self.config.node_actor(node), true);
    }

    /// Crashes a data node *and* tears its WAL tail: a half-written frame
    /// is appended at the crash instant, as if power was lost mid-`append`.
    /// Recovery ([`RestartKind::Recover`]) must discard the torn tail and
    /// keep appending cleanly after it. No-op tear when the node has no
    /// persistence.
    pub fn crash_node_torn(&mut self, node: NodeId) {
        if let Some(p) = self.node_mut(node).persist_mut() {
            // The tear itself failing (disk gone) still leaves the engine
            // crashed, which is the semantics we want at a crash instant.
            let _ = p.inject_torn_append();
        }
        self.crash_node(node);
    }

    /// Brings a crashed data node back. [`RestartKind::Preserve`] resumes
    /// the same actor object (in-memory store intact);
    /// [`RestartKind::Empty`] and [`RestartKind::Recover`] swap in a
    /// freshly-constructed [`SednaNode`] — without or with the persistence
    /// engine the build factory assigns to this node — before restarting,
    /// so `Recover` replays the node's WAL/snapshot on the spot.
    pub fn restart_node(&mut self, node: NodeId, kind: RestartKind) {
        let actor = self.config.node_actor(node);
        match kind {
            RestartKind::Preserve => {}
            RestartKind::Empty => {
                let mut fresh = SednaNode::new(self.config.clone(), node, None);
                fresh.set_alert_engine(self.alerts.clone());
                self.sim.replace_actor(actor, Box::new(fresh));
            }
            RestartKind::Recover => {
                let persist = (self.persist_for)(node);
                let mut fresh = SednaNode::new(self.config.clone(), node, persist);
                fresh.set_alert_engine(self.alerts.clone());
                self.sim.replace_actor(actor, Box::new(fresh));
            }
        }
        self.sim.restart(actor);
    }

    /// Applies one [`ClusterFault`] right now.
    pub fn apply_fault(&mut self, fault: &ClusterFault) {
        match fault {
            ClusterFault::Crash { node, torn_wal } => {
                if *torn_wal {
                    self.crash_node_torn(*node);
                } else {
                    self.crash_node(*node);
                }
            }
            ClusterFault::Restart { node, kind } => self.restart_node(*node, *kind),
            ClusterFault::PartitionPair { a, b } => {
                self.sim
                    .partition_pair(self.config.node_actor(*a), self.config.node_actor(*b));
            }
            ClusterFault::HealPair { a, b } => {
                self.sim
                    .heal_pair(self.config.node_actor(*a), self.config.node_actor(*b));
            }
            ClusterFault::PartitionHalves { left, right } => {
                let to_actors = |nodes: &[NodeId]| -> Vec<ActorId> {
                    nodes.iter().map(|&n| self.config.node_actor(n)).collect()
                };
                let (l, r) = (to_actors(left), to_actors(right));
                self.sim.partition_groups(&l, &r);
            }
            ClusterFault::HealAll => self.sim.heal_all(),
            ClusterFault::SetLinkLossPermille(permille) => {
                self.sim.set_drop_probability(f64::from(*permille) / 1000.0);
            }
        }
    }

    /// Drives the simulator through a timed fault schedule: runs virtual
    /// time up to each fault's `at` (in time order, regardless of slice
    /// order) and applies it. Time never runs backwards — faults stamped
    /// before `sim.now()` apply immediately.
    pub fn run_schedule(&mut self, schedule: &[ScheduledFault]) {
        let mut ordered: Vec<&ScheduledFault> = schedule.iter().collect();
        ordered.sort_by_key(|f| f.at);
        for f in ordered {
            if f.at > self.sim.now() {
                self.sim.run_until(f.at);
            }
            self.apply_fault(&f.fault);
        }
    }
}

// ---------------------------------------------------------------------------
// Threaded cluster + synchronous client
// ---------------------------------------------------------------------------

/// A deployment running on real threads (`ThreadNet`'s pinned workers).
pub struct ThreadCluster {
    handle: ExternalHandle<SednaMsg>,
    /// The deployment layout.
    pub config: ClusterConfig,
    gateway: ActorId,
    next_op: std::cell::Cell<u64>,
    /// Metric registries captured before each actor moved into its thread
    /// (nodes, manager, gateway) — the cluster-wide merge view.
    registries: Vec<Arc<Registry>>,
    /// Event journals captured the same way.
    journals: Vec<Arc<EventJournal>>,
    /// Per-node telemetry handles (vnode load, hot keys, engine
    /// internals), captured like the registries.
    telemetry: Vec<(NodeId, Arc<crate::admin::NodeTelemetry>)>,
    /// Bound address of the admin HTTP surface, when one was started.
    admin_addr: Option<std::net::SocketAddr>,
    /// The cluster-shared SLO engine (nodes + gateway feed it).
    alerts: Arc<AlertEngine>,
}

impl ThreadCluster {
    /// Builds and starts the full deployment plus one gateway.
    pub fn start(config: ClusterConfig) -> Self {
        Self::start_inner(config, false)
    }

    /// Like [`ThreadCluster::start`], plus an [`AdminActor`] serving the
    /// HTTP admin surface on an ephemeral localhost port (see
    /// [`ThreadCluster::admin_addr`]).
    pub fn start_with_admin(config: ClusterConfig) -> Self {
        Self::start_inner(config, true)
    }

    fn start_inner(config: ClusterConfig, with_admin: bool) -> Self {
        install_profiling();
        let mut net = ThreadNet::new(ThreadNetConfig::default());
        let ens = ensemble_config(&config);
        let mut registries = Vec::new();
        let mut journals = Vec::new();
        let mut telemetry = Vec::new();
        for i in 0..config.coord_replicas as u32 {
            net.add_actor(Box::new(CoordReplica::<SednaMsg>::new(ens.clone(), i)));
        }
        let alerts_journal = Arc::new(EventJournal::new(config.journal_capacity));
        let alerts = Arc::new(AlertEngine::new(
            AlertEngine::default_specs(),
            Some(alerts_journal.clone()),
        ));
        alerts.set_enabled(config.metrics_enabled);
        journals.push(alerts_journal);
        let manager = ClusterManager::new(config.clone());
        registries.push(manager.registry());
        journals.push(manager.journal());
        net.add_actor(Box::new(manager));
        for n in 0..config.data_nodes as u32 {
            let mut node = SednaNode::new(config.clone(), NodeId(n), None);
            node.set_alert_engine(alerts.clone());
            registries.push(node.registry());
            journals.push(node.journal());
            telemetry.push((NodeId(n), node.telemetry()));
            net.add_actor(Box::new(node));
        }
        let mut gw = Gateway::new(config.clone(), config.client_origin(0));
        gw.set_alert_engine(alerts.clone());
        registries.push(gw.core().obs().registry().clone());
        journals.push(gw.core().obs().journal().clone());
        let staleness = vec![gw.core().obs().staleness().clone()];
        let tail_attr = vec![gw.core().obs().tail_attribution().clone()];
        let gateway = net.add_actor(Box::new(gw));
        let admin_addr = if with_admin {
            let state = AdminState {
                registries: registries.clone(),
                journals: journals.clone(),
                telemetry: telemetry.clone(),
                staleness,
                alerts: Some(alerts.clone()),
                tail_attr,
            };
            let (actor, addr) =
                AdminActor::bind("127.0.0.1:0", state).expect("bind admin listener");
            net.add_actor(Box::new(actor));
            Some(addr)
        } else {
            None
        };
        let handle = net.start();
        ThreadCluster {
            handle,
            config,
            gateway,
            next_op: std::cell::Cell::new(0),
            registries,
            journals,
            telemetry,
            admin_addr,
            alerts,
        }
    }

    /// The admin surface's bound address (`start_with_admin` only):
    /// `curl http://<addr>/metrics`.
    pub fn admin_addr(&self) -> Option<std::net::SocketAddr> {
        self.admin_addr
    }

    /// The cluster-shared SLO/alert engine.
    pub fn alert_engine(&self) -> &Arc<AlertEngine> {
        &self.alerts
    }

    /// Cluster-wide metrics merged across every captured registry (data
    /// nodes, manager, gateway). Node gauges refresh on each node's stats
    /// tick, so very recent activity may lag by one interval.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for reg in &self.registries {
            merged.merge(&reg.snapshot());
        }
        merged
    }

    /// Prometheus text exposition of [`ThreadCluster::metrics_snapshot`].
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().to_prometheus()
    }

    /// JSON rendering of [`ThreadCluster::metrics_snapshot`].
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    /// Every journal event recorded so far, ordered by record time.
    pub fn journal_events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for j in &self.journals {
            out.extend(j.events());
        }
        out.sort_by_key(|e| e.at);
        out
    }

    /// The engine-internals snapshot `node` last published on its stats
    /// tick (`None` before the first tick, or for an unknown node).
    pub fn engine_internals(&self, node: NodeId) -> Option<sedna_memstore::EngineSnapshot> {
        self.telemetry
            .iter()
            .find(|(id, _)| *id == node)
            .and_then(|(_, t)| t.engine())
    }

    /// The flight-recorder ring of the worker thread `node`'s actor is
    /// pinned to. A ring is per worker, not per actor: the events of the
    /// actors co-located on that worker interleave in it.
    pub fn flight_dump(&self, node: NodeId) -> Vec<sedna_obs::flight::ThreadDump> {
        let label = self.handle.worker_label(self.config.node_actor(node));
        sedna_obs::flight::dump()
            .into_iter()
            .filter(|t| Some(&t.label) == label.as_ref())
            .collect()
    }

    fn call(&self, op: ClientOp, timeout: Duration) -> ClientResult {
        let op_id = self.next_op.get() + 1;
        self.next_op.set(op_id);
        self.handle.send(
            self.gateway,
            SednaMsg::Client(ClientFrame::Request { op_id, op }),
        );
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return ClientResult::Failed;
            }
            match self.handle.recv_timeout(remaining) {
                Some((_, SednaMsg::Client(ClientFrame::Response { op_id: got, result })))
                    if got == op_id =>
                {
                    return result;
                }
                Some(_) => continue, // stale response from a timed-out op
                None => return ClientResult::Failed,
            }
        }
    }

    /// Blocking `write_latest` (examples). Retries internally while the
    /// cluster is still assembling.
    pub fn write_latest(&self, key: &Key, value: Value) -> ClientResult {
        self.retry_write(ClientOp::WriteLatest {
            key: key.clone(),
            value,
        })
    }

    /// Blocking `write_all`.
    pub fn write_all(&self, key: &Key, value: Value) -> ClientResult {
        self.retry_write(ClientOp::WriteAll {
            key: key.clone(),
            value,
        })
    }

    fn retry_write(&self, op: ClientOp) -> ClientResult {
        // A group where *every* key failed is the multi-key shape of
        // `Failed` (e.g. the cluster is still assembling) — retry it the
        // same way. Partial failures are returned as-is.
        fn all_failed(result: &ClientResult) -> bool {
            match result {
                ClientResult::Failed => true,
                ClientResult::Many(children) => {
                    !children.is_empty()
                        && children.iter().all(|c| matches!(c, ClientResult::Failed))
                }
                _ => false,
            }
        }
        for _ in 0..50 {
            match self.call(op.clone(), Duration::from_secs(2)) {
                result if all_failed(&result) => std::thread::sleep(Duration::from_millis(50)),
                done => return done,
            }
        }
        ClientResult::Failed
    }

    /// Blocking `read_latest`.
    pub fn read_latest(&self, key: &Key) -> ClientResult {
        self.call(
            ClientOp::ReadLatest { key: key.clone() },
            Duration::from_secs(2),
        )
    }

    /// Blocking `read_all`.
    pub fn read_all(&self, key: &Key) -> ClientResult {
        self.call(
            ClientOp::ReadAll { key: key.clone() },
            Duration::from_secs(2),
        )
    }

    /// Blocking multi-key `write_latest`: one round trip for the whole
    /// group; returns [`ClientResult::Many`] with per-key results in
    /// request order. Retries internally while the cluster assembles.
    pub fn write_many(&self, pairs: &[(Key, Value)]) -> ClientResult {
        if pairs.is_empty() {
            return ClientResult::Many(Vec::new());
        }
        self.retry_write(ClientOp::WriteMany {
            pairs: pairs.to_vec(),
        })
    }

    /// Blocking multi-key `read_latest` (see [`ThreadCluster::write_many`]).
    pub fn read_many(&self, keys: &[Key]) -> ClientResult {
        if keys.is_empty() {
            return ClientResult::Many(Vec::new());
        }
        self.call(
            ClientOp::ReadMany {
                keys: keys.to_vec(),
            },
            Duration::from_secs(2),
        )
    }

    /// Blocking table scan (extension API).
    pub fn scan_table(&self, dataset: &str, table: &str) -> ClientResult {
        self.call(
            ClientOp::ScanTable {
                dataset: dataset.into(),
                table: table.into(),
            },
            Duration::from_secs(5),
        )
    }

    /// Registers a trigger job on every data node (fires on primaries, so
    /// dispatch is exactly-once per change).
    pub fn register_job_everywhere(&self, mut make_spec: impl FnMut() -> sedna_triggers::JobSpec) {
        for n in 0..self.config.data_nodes as u32 {
            self.handle.send(
                self.config.node_actor(NodeId(n)),
                SednaMsg::Control(crate::messages::ControlMsg::RegisterJob(make_spec())),
            );
        }
    }

    /// Blocks until every data node has swept at least twice since the
    /// call and its last two sweeps fired nothing: the writes acked before
    /// the call have been swept, and so have the writes their actions
    /// emitted, so chained jobs have run out. False if 15 s pass first.
    pub fn settle_triggers(&self) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(15);
        let start: Vec<u64> = self.telemetry.iter().map(|(_, t)| t.sweeps().0).collect();
        let settled = || {
            self.telemetry.iter().zip(&start).all(|((_, t), &from)| {
                let (sweeps, quiet) = t.sweeps();
                sweeps >= from + 2 && quiet >= 2
            })
        };
        while !settled() {
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// Stops the runtime and returns the actors for inspection.
    pub fn shutdown(self) -> Vec<Box<dyn Actor<Msg = SednaMsg>>> {
        self.handle.shutdown()
    }
}
