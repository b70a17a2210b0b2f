//! Builds the deployment on `ThreadNet` and brings it to a loaded state.
//!
//! The actor set is the one `ThreadCluster::start_inner` builds, from the
//! same public constructors — three coordination replicas, the manager,
//! three data nodes sharing one `AlertEngine` — except that there are two
//! gateways (one per core of the sizing machine), nothing installs the
//! profiler, and every actor can be wrapped in [`Traced`].
//!
//! "Ready" has to mean that every node and both gateways have installed
//! the ring that holds all three nodes. Until the last joiner has, it
//! refuses the writes for the vnodes it is about to own; W=2 is still met,
//! so nothing fails, but that replica misses most of the preload. Reads
//! then find it stale and repair it during the measurement, 190 B/key of
//! heap are missing, and one cluster in four measures something else than
//! the others.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sedna_common::NodeId;
use sedna_coord::messages::EnsembleConfig;
use sedna_coord::replica::CoordReplica;
use sedna_core::cluster::Gateway;
use sedna_core::config::ClusterConfig;
use sedna_core::manager::ClusterManager;
use sedna_core::messages::{ClientFrame, ClientOp, ClientResult, SednaMsg};
use sedna_core::node::SednaNode;
use sedna_net::actor::{Actor, ActorId, Ctx, TimerToken};
use sedna_net::threaded::{ExternalHandle, ThreadNet, ThreadNetConfig};
use sedna_obs::journal::EventJournal;
use sedna_obs::registry::Registry;
use sedna_obs::AlertEngine;
use sedna_ring::VNodeMap;

use crate::trace::{ActorClass, ActorRecord, TraceShared, Traced};
use crate::workload::{OpStream, GROUP};

pub const GATEWAYS: usize = 2;
/// A generator-side wait this long means the cluster is wedged: the
/// gateways' own deadline (1 s) answers `Failed` well before it.
pub const GENERATOR_TIMEOUT: Duration = Duration::from_secs(2);
const READY_DEADLINE: Duration = Duration::from_secs(30);
const PROBE_TIMEOUT: Duration = Duration::from_millis(100);
const PROBE_PAUSE: Duration = Duration::from_millis(25);
const PRELOAD_IN_FLIGHT: usize = 8;

type BoxedActor = Box<dyn Actor<Msg = SednaMsg>>;

fn boxed<A: Actor<Msg = SednaMsg> + 'static>(
    actor: A,
    class: ActorClass,
    traced: Option<&Arc<TraceShared>>,
) -> BoxedActor {
    match traced {
        Some(shared) => Box::new(Traced::new(actor, class, shared.clone())),
        None => Box::new(actor),
    }
}

/// An actor that also publishes how many members the ring it has
/// installed holds, which is otherwise invisible once the actor has moved
/// into its thread. Forwards every callback unchanged; once the ring is
/// complete the watch costs one relaxed load per callback.
struct RingWatch<A> {
    inner: A,
    members_of: fn(&A) -> usize,
    want: usize,
    members: Arc<AtomicUsize>,
}

impl<A> RingWatch<A> {
    fn publish(&self) {
        // A progress flag the generator polls; it publishes no other data.
        if self.members.load(Ordering::Relaxed) < self.want {
            self.members
                .store((self.members_of)(&self.inner), Ordering::Relaxed);
        }
    }
}

impl<A: Actor<Msg = SednaMsg> + 'static> Actor for RingWatch<A> {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        self.inner.on_message(from, msg, ctx);
        self.publish();
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        self.inner.on_timer(token, ctx);
        self.publish();
    }
}

fn ring_size(ring: Option<&VNodeMap>) -> usize {
    ring.map_or(0, |r| r.members().count())
}

/// A running deployment plus the generator's side of the conversation.
pub struct Cluster {
    handle: ExternalHandle<SednaMsg>,
    pub gateways: [ActorId; GATEWAYS],
    /// Members of the ring each data node and each gateway has installed,
    /// as it last published.
    ring_members: Vec<Arc<AtomicUsize>>,
    data_nodes: usize,
    next_op_id: u64,
    /// The generator's clock (and, when traced, the wrappers').
    pub clock: Arc<TraceShared>,
    metrics: MetricsSwitch,
}

/// Turns the observability plane of a running cluster off and on.
/// `ClusterConfig::metrics_enabled` only ever feeds `Registry::new` and
/// `AlertEngine::set_enabled`, so flipping every registry and the alert
/// engine is `with_metrics(..)` at run time.
#[derive(Clone)]
pub struct MetricsSwitch {
    registries: Vec<Arc<Registry>>,
    alerts: Arc<AlertEngine>,
}

impl MetricsSwitch {
    pub fn set(&self, on: bool) {
        for r in &self.registries {
            r.set_enabled(on);
        }
        self.alerts.set_enabled(on);
    }
}

impl Cluster {
    /// Spawns one thread per actor. With `traced`, every actor runs inside
    /// the tracing wrapper.
    pub fn assemble(cfg: &ClusterConfig, traced: bool) -> Cluster {
        let clock = TraceShared::new();
        let wrap = traced.then_some(&clock);
        let mut net = ThreadNet::new(ThreadNetConfig::default());
        let ens = EnsembleConfig::lan(cfg.coord_actors());
        for i in 0..cfg.coord_replicas as u32 {
            let replica = CoordReplica::<SednaMsg>::new(ens.clone(), i);
            net.add_actor(boxed(replica, ActorClass::Coord, wrap));
        }
        let alerts = Arc::new(AlertEngine::new(
            AlertEngine::default_specs(),
            Some(Arc::new(EventJournal::new(cfg.journal_capacity))),
        ));
        alerts.set_enabled(cfg.metrics_enabled);
        let manager = ClusterManager::new(cfg.clone());
        let mut registries = vec![manager.registry()];
        net.add_actor(boxed(manager, ActorClass::Manager, wrap));
        let mut ring_members = Vec::new();
        let mut watch = || {
            ring_members.push(Arc::new(AtomicUsize::new(0)));
            ring_members.last().expect("just pushed").clone()
        };
        for n in 0..cfg.data_nodes as u32 {
            let mut inner = SednaNode::new(cfg.clone(), NodeId(n), None);
            inner.set_alert_engine(alerts.clone());
            registries.push(inner.registry());
            let watched = RingWatch {
                inner,
                members_of: |node| ring_size(node.ring()),
                want: cfg.data_nodes,
                members: watch(),
            };
            net.add_actor(boxed(watched, ActorClass::Node, wrap));
        }
        let gateways = std::array::from_fn(|i| {
            let mut inner = Gateway::new(cfg.clone(), cfg.client_origin(i as u32));
            inner.set_alert_engine(alerts.clone());
            registries.push(inner.core().obs().registry().clone());
            let watched = RingWatch {
                inner,
                members_of: |gateway| ring_size(gateway.core().ring()),
                want: cfg.data_nodes,
                members: watch(),
            };
            net.add_actor(boxed(watched, ActorClass::Gateway, wrap))
        });
        Cluster {
            handle: net.start(),
            gateways,
            ring_members,
            data_nodes: cfg.data_nodes,
            next_op_id: 0,
            clock,
            metrics: MetricsSwitch { registries, alerts },
        }
    }

    pub fn metrics_switch(&self) -> MetricsSwitch {
        self.metrics.clone()
    }

    /// Sends `op` to `gateway`; returns the id its response will echo.
    pub fn send(&mut self, gateway: ActorId, op: ClientOp) -> u64 {
        let (op_id, frame) = self.frame(op);
        self.send_frame(gateway, frame);
        op_id
    }

    /// The id the next request will carry.
    pub fn next_op_id(&self) -> u64 {
        self.next_op_id + 1
    }

    /// Builds the request frame without sending it, so a caller can size
    /// and stamp it first.
    pub fn frame(&mut self, op: ClientOp) -> (u64, SednaMsg) {
        self.next_op_id += 1;
        let op_id = self.next_op_id;
        (op_id, SednaMsg::Client(ClientFrame::Request { op_id, op }))
    }

    pub fn send_frame(&self, gateway: ActorId, frame: SednaMsg) {
        self.handle.send(gateway, frame);
    }

    /// The next `Response` (anything else a gateway might say is dropped).
    pub fn recv(&self, timeout: Duration) -> Option<(ActorId, u64, ClientResult)> {
        let deadline = Instant::now() + timeout;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.handle.recv_timeout(left)? {
                (from, SednaMsg::Client(ClientFrame::Response { op_id, result })) => {
                    return Some((from, op_id, result));
                }
                _ => continue,
            }
        }
    }

    fn full_ring_everywhere(&self) -> bool {
        self.ring_members
            .iter()
            .all(|m| m.load(Ordering::Relaxed) >= self.data_nodes)
    }

    /// Blocks until every data node and both gateways have installed a
    /// ring holding every data node, and a 16-key probe write then succeeds
    /// through each gateway. Polled every 25 ms, and a probe times out
    /// after 100 ms, so readiness is detected within that granularity (a
    /// 2 s probe would quantise `setup_s`).
    pub fn wait_ready(&mut self, stream: &OpStream) {
        let start = Instant::now();
        let mut ready = [false; GATEWAYS];
        while !ready.iter().all(|r| *r) {
            assert!(
                start.elapsed() < READY_DEADLINE,
                "cluster not ready after {READY_DEADLINE:?}"
            );
            if self.full_ring_everywhere() {
                for (g, ok) in ready.iter_mut().enumerate() {
                    if !*ok {
                        let probe = self.send(self.gateways[g], stream.preload_group(0));
                        *ok = self.probe_succeeded(probe);
                    }
                }
            }
            if !ready.iter().all(|r| *r) {
                std::thread::sleep(PROBE_PAUSE);
            }
        }
    }

    fn probe_succeeded(&self, probe: u64) -> bool {
        let deadline = Instant::now() + PROBE_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.recv(left) {
                // Answers to earlier, timed-out probes are skipped.
                Some((_, op_id, result)) if op_id == probe => return stored(&result),
                Some(_) => continue,
                None => return false,
            }
        }
    }

    /// Writes every key once (seq 1) in closed-loop 16-key groups over
    /// both gateways; a group with a failed child is written again.
    /// Returns how many groups had to be.
    pub fn preload(&mut self, stream: &OpStream) -> u64 {
        let groups = stream.key_count().div_ceil(GROUP as u64);
        let mut in_flight: Vec<(u64, u64)> = Vec::with_capacity(PRELOAD_IN_FLIGHT);
        let (mut next, mut done, mut retries) = (0u64, 0u64, 0u64);
        let issue = |this: &mut Cluster, in_flight: &mut Vec<(u64, u64)>, group: u64| {
            let gateway = this.gateways[(group % GATEWAYS as u64) as usize];
            let op_id = this.send(gateway, stream.preload_group(group * GROUP as u64));
            in_flight.push((op_id, group));
        };
        while done < groups {
            while in_flight.len() < PRELOAD_IN_FLIGHT && next < groups {
                issue(self, &mut in_flight, next);
                next += 1;
            }
            let (_, op_id, result) = self
                .recv(GENERATOR_TIMEOUT)
                .expect("preload: no response within the generator timeout");
            let Some(pos) = in_flight.iter().position(|(id, _)| *id == op_id) else {
                continue; // a stale readiness probe
            };
            let (_, group) = in_flight.swap_remove(pos);
            if stored(&result) {
                done += 1;
            } else {
                retries += 1;
                issue(self, &mut in_flight, group);
            }
        }
        retries
    }

    /// Stops every actor thread and waits for each to end.
    pub fn shutdown(self) -> Stopped {
        Stopped(self.handle.shutdown())
    }
}

/// The actors of a stopped cluster, kept for what the wrappers measured.
pub struct Stopped(Vec<BoxedActor>);

impl Stopped {
    /// One record per actor of a traced cluster, in actor-id order; empty
    /// for an untraced one.
    pub fn records(&self) -> Vec<&ActorRecord> {
        fn rec<A: Actor<Msg = SednaMsg> + 'static>(actor: &BoxedActor) -> Option<&ActorRecord> {
            Some(&actor.as_any().downcast_ref::<Traced<A>>()?.rec)
        }
        self.0
            .iter()
            .filter_map(|a| {
                rec::<CoordReplica<SednaMsg>>(a)
                    .or_else(|| rec::<ClusterManager>(a))
                    .or_else(|| rec::<RingWatch<SednaNode>>(a))
                    .or_else(|| rec::<RingWatch<Gateway>>(a))
            })
            .collect()
    }
}

fn stored(result: &ClientResult) -> bool {
    match result {
        ClientResult::Ok | ClientResult::Outdated => true,
        ClientResult::Many(children) => children.iter().all(stored),
        _ => false,
    }
}
