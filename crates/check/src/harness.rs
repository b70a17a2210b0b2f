//! Nemesis run harness: a small Sedna deployment under a recorded
//! client workload, driven through a fault schedule, then healed,
//! quiesced and checked.
//!
//! A run is fully determined by `(seed, HarnessConfig, schedule)` — the
//! simulator, the workload RNGs and the nemesis all derive from the one
//! seed — so any failure reproduces from its seed alone, and the
//! shrinker can re-run subsets of the schedule against identical
//! workload behaviour.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sedna_common::rng::Xoshiro256;
use sedna_common::time::Micros;
use sedna_common::{Key, NodeId, Value};
use sedna_core::client::{ClientCore, ClientEvent};
use sedna_core::cluster::SimCluster;
use sedna_core::config::{ClusterConfig, TablePolicy};
use sedna_core::divergence::DivergenceSnapshot;
use sedna_core::fault::{ClusterFault, RestartKind, ScheduledFault};
use sedna_core::history::{ClientHistory, HistoryEvent};
use sedna_core::messages::SednaMsg;
use sedna_net::actor::{Actor, ActorId, Ctx, TimerToken};
use sedna_net::link::LinkModel;
use sedna_net::sim::SimConfig;
use sedna_obs::flight::{self, FlightKind};
use sedna_obs::{AlertTransition, TailSnapshot};
use sedna_persist::{PersistEngine, PersistMode};
use sedna_replication::QuorumConfig;
use sedna_ring::Partitioner;

use crate::checker::{
    acked_writes, check_alert_crossvalidation, check_lost_concurrent_writes, check_lost_writes,
    check_replica_agreement, check_replica_dot_agreement, check_sessions, final_replica_dots,
    final_replica_state, write_records, Violation,
};
use crate::nemesis::{generate, schedule_end, NemesisConfig};

/// Which fault envelope and which checks a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Safety-preserving faults; full session + durability + agreement
    /// checks. Every seed must pass on a stock configuration.
    Stock,
    /// Membership churn (leave/rebalance windows, empty restarts); only
    /// end-of-run replica agreement is checked — LWW gives no session
    /// guarantees across replica-set changes (DESIGN.md §14).
    Churn,
    /// Stock fault envelope under *heavy* per-node clock skew, with
    /// sibling-retaining resolution, and the full dot-level check set on
    /// top of the stock checks: no-lost-concurrent-write and replica
    /// dot-set agreement (DESIGN.md §18). Every seed must pass with
    /// sibling retention; the same profile with
    /// [`HarnessConfig::skewed_lww`] (the last-writer-wins policy) is
    /// *expected* to trip the checker — that contrast is the consistency
    /// upgrade's proof.
    Skewed,
}

/// Everything that parameterises a nemesis run except the seed.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Fault envelope / check selection.
    pub profile: Profile,
    /// Deliberately weakened cluster: `R=1, W=1`, read repair off,
    /// anti-entropy off. The mutation-sanity configuration — the checker
    /// must catch it.
    pub broken: bool,
    /// Default sibling-resolution policy of every data node's store.
    /// `LastWriterWins` under the skewed profile is the regression
    /// configuration the dot-level checks must catch.
    pub resolution: TablePolicy,
    /// Closed-loop workload clients.
    pub clients: u32,
    /// Shared key-space size (`k-0 … k-{keys-1}`).
    pub keys: u64,
    /// Data nodes.
    pub data_nodes: u32,
    /// Total vnodes (smaller = faster anti-entropy coverage).
    pub vnodes: u32,
    /// Anti-entropy period (µs); ignored (forced 0) when `broken`.
    pub sync_interval_micros: Micros,
    /// Max per-node clock skew (µs) applied to observed time.
    pub clock_skew_max_micros: Micros,
}

impl HarnessConfig {
    /// Stock profile on a 5-node cluster.
    pub fn stock() -> Self {
        HarnessConfig {
            profile: Profile::Stock,
            broken: false,
            resolution: TablePolicy::LastWriterWins,
            clients: 3,
            keys: 12,
            data_nodes: 5,
            vnodes: 25,
            sync_interval_micros: 200_000,
            clock_skew_max_micros: 2_000,
        }
    }

    /// Churn profile (stock cluster, churn faults, convergence-only
    /// checks).
    pub fn churn() -> Self {
        HarnessConfig {
            profile: Profile::Churn,
            ..Self::stock()
        }
    }

    /// The broken configuration for mutation sanity: stock faults
    /// against `R=1/W=1` with read repair and anti-entropy disabled.
    pub fn broken() -> Self {
        HarnessConfig {
            broken: true,
            ..Self::stock()
        }
    }

    /// Skewed-clock profile under dotted version vectors: stock faults,
    /// node clocks up to ±300 ms apart, sibling-retaining resolution (so
    /// the no-lost-concurrent-write check is sound — LWW legitimately
    /// collapses concurrent siblings), a tight key space so concurrent
    /// writes to one key are common, and the dot-level checks armed. Must
    /// pass on every seed.
    pub fn skewed() -> Self {
        HarnessConfig {
            profile: Profile::Skewed,
            resolution: TablePolicy::Siblings,
            keys: 6,
            clock_skew_max_micros: 300_000,
            ..Self::stock()
        }
    }

    /// The skewed-clock profile on the product's default
    /// `LastWriterWins` policy: the regression configuration. Concurrent
    /// writes resolve by wall clock, so a slow-clock client's
    /// acknowledged write gets silently shadowed — the checker must
    /// report `LostConcurrentWrite` on some seeds (the sweep runs it with
    /// `--expect-violations`).
    pub fn skewed_lww() -> Self {
        HarnessConfig {
            resolution: TablePolicy::LastWriterWins,
            ..Self::skewed()
        }
    }

    /// The cluster configuration this harness deploys.
    pub fn cluster_config(&self) -> ClusterConfig {
        ClusterConfig {
            data_nodes: self.data_nodes as usize,
            partitioner: Partitioner::new(self.vnodes),
            quorum: if self.broken {
                // `QuorumConfig::new` rejects R+W<=N for good reason; the
                // mutation test builds the broken shape directly.
                QuorumConfig { n: 3, r: 1, w: 1 }
            } else {
                QuorumConfig::PAPER
            },
            persist: PersistMode::WriteAhead {
                snapshot_interval_micros: 5_000_000,
            },
            sync_interval_micros: if self.broken {
                0
            } else {
                self.sync_interval_micros
            },
            ..ClusterConfig::small()
        }
        .with_read_repair(!self.broken)
        // The mutation configuration also lies about clean reads: without
        // the session-floor gate, R=1 "agreement" is reported clean no
        // matter how stale — exactly what the checker must catch.
        .with_session_floor_reads(!self.broken)
        .with_sibling_resolution(self.resolution)
    }

    /// The nemesis envelope for this profile.
    pub fn nemesis_config(&self) -> NemesisConfig {
        match self.profile {
            // Skewed keeps the safety-preserving fault envelope — the
            // adversary there is the clock, not the schedule.
            Profile::Stock | Profile::Skewed => NemesisConfig::stock(self.data_nodes),
            Profile::Churn => NemesisConfig::churn(self.data_nodes),
        }
    }
}

/// Outcome of one nemesis run.
#[derive(Debug)]
pub struct RunReport {
    /// The seed that produced it.
    pub seed: u64,
    /// The schedule that was driven (generated or explicitly supplied).
    pub schedule: Vec<ScheduledFault>,
    /// All checker findings, in check order.
    pub violations: Vec<Violation>,
    /// Completed client operations (progress signal).
    pub ops_done: u64,
    /// Recorded history (for artifacts / debugging).
    pub history: Vec<HistoryEvent>,
    /// Cluster-wide metrics (JSON) captured after the post-heal quiesce —
    /// written alongside failure artifacts so a violating run carries its
    /// own observability snapshot.
    pub metrics_json: String,
    /// Aggregated staleness-tracker readings across the workload clients.
    pub staleness: StalenessSummary,
    /// Flight-recorder dump (JSON), captured when the checker found
    /// violations: the black-box recording for this seed. `None` on
    /// passing runs.
    pub flight_json: Option<String>,
    /// The alert engine's full transition log (the run's alert log:
    /// every pending/firing/resolve walk, with burn rates and exemplar
    /// traces).
    pub alert_log: Vec<AlertTransition>,
    /// Alerts still firing after the heal + quiesce tail. Must be empty
    /// on clean profiles — enforced as
    /// [`Violation::AlertStuckFiring`] by the cross-check.
    pub alerts_firing: Vec<&'static str>,
    /// Per-node end-of-run divergence snapshots: the replica root matrix
    /// plus the episode timeline (every Merkle mismatch that opened and
    /// when it converged).
    pub divergence: Vec<(NodeId, DivergenceSnapshot)>,
    /// Tail critical-path attribution merged across the workload clients:
    /// per-segment (queue/lock/apply/net/other) sums for every op and for
    /// the slow tail — "where did this seed's p99 go".
    pub tail_attribution: TailSnapshot,
}

/// End-of-run staleness-lag tracker totals (summed over clients).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StalenessSummary {
    /// Stale replicas detected during quorum reads (samples in the
    /// ts-delta histogram).
    pub lags_recorded: u64,
    /// Repair pushes still awaiting acknowledgement when the run ended.
    pub outstanding_repairs: u64,
    /// Repair round-trips that completed (convergence samples).
    pub repairs_converged: u64,
}

impl RunReport {
    /// True when the run produced no findings.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

const T_TICK: TimerToken = TimerToken(0xC0DE);

/// Closed-loop workload client: one op in flight, random key, mixed
/// reads/writes, retrying idleness from a timer. All history recording
/// happens inside [`ClientCore`] via the attached sink.
struct WorkloadClient {
    core: ClientCore,
    rng: Xoshiro256,
    keys: u64,
    stop_at: Micros,
    in_flight: bool,
    ops_done: u64,
}

impl WorkloadClient {
    fn issue(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.in_flight || ctx.now() >= self.stop_at {
            return;
        }
        let key = Key::from(format!("k-{}", self.rng.next_below(self.keys)));
        let now = ctx.now();
        let dice = self.rng.next_below(100);
        let issued = if dice < 45 {
            self.core
                .write_latest(&key, Value::from(format!("v{now}")), now)
        } else if dice < 55 {
            self.core
                .write_all(&key, Value::from(format!("a{now}")), now)
        } else if dice < 90 {
            self.core.read_latest(&key, now)
        } else {
            self.core.read_all(&key, now)
        };
        if let Some((_, out)) = issued {
            self.in_flight = true;
            for (to, m) in out {
                ctx.send(to, m);
            }
        }
    }

    fn pump(&mut self, events: Vec<ClientEvent>, ctx: &mut Ctx<'_, SednaMsg>) {
        for ev in events {
            match ev {
                ClientEvent::Ready => self.issue(ctx),
                ClientEvent::Done { .. } => {
                    // Paced, not saturating: the next op issues from the
                    // 10 ms tick, keeping runs cheap while still placing
                    // hundreds of ops inside every fault window.
                    self.in_flight = false;
                    self.ops_done += 1;
                }
            }
        }
    }
}

impl Actor for WorkloadClient {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        for (to, m) in self.core.bootstrap() {
            ctx.send(to, m);
        }
        ctx.set_timer(T_TICK, 10_000);
    }

    fn on_message(&mut self, from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        let now = ctx.now();
        let (events, out) = self.core.on_message(from, msg, now);
        for (to, m) in out {
            ctx.send(to, m);
        }
        self.pump(events, ctx);
    }

    fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        let (events, out) = self.core.on_tick(ctx.now());
        for (to, m) in out {
            ctx.send(to, m);
        }
        self.pump(events, ctx);
        // Re-arm even while idle: an op that failed to issue (routing
        // lease mid-refresh) is retried here.
        if !self.in_flight && self.core.is_ready() {
            self.issue(ctx);
        }
        ctx.set_timer(T_TICK, 10_000);
    }
}

/// Monotonic run counter, so concurrent runs in one process get
/// distinct WAL directories.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

fn run_dir(seed: u64) -> PathBuf {
    let n = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("sedna-nemesis-{}-{seed}-{n}", std::process::id()))
}

/// Generates the schedule for `seed` and runs it. The standard entry
/// point for sweeps.
pub fn run_nemesis(seed: u64, cfg: &HarnessConfig) -> RunReport {
    let schedule = generate(seed, &cfg.nemesis_config());
    run_with_schedule(seed, cfg, &schedule)
}

/// Runs an explicit schedule under `seed`'s workload — the entry point
/// for replaying a shrunk reproducer.
pub fn run_with_schedule(seed: u64, cfg: &HarnessConfig, schedule: &[ScheduledFault]) -> RunReport {
    let cluster_cfg = cfg.cluster_config();
    let dir = run_dir(seed);
    let persist_root = dir.clone();
    let mode = cluster_cfg.persist;
    let sim_config = SimConfig {
        seed,
        link: LinkModel::gigabit_lan(),
        clock_skew_max_micros: cfg.clock_skew_max_micros,
        ..SimConfig::default()
    };
    let mut cluster =
        SimCluster::build_with_sim_config(cluster_cfg.clone(), sim_config, move |node| {
            Some(
                PersistEngine::new(persist_root.join(format!("node-{}", node.0)), mode)
                    .expect("create persist engine"),
            )
        });
    cluster.run_until_ready(30_000_000);

    // Clients record into one shared history; they stop issuing shortly
    // after the last fault so the cluster can converge undisturbed.
    let history = ClientHistory::shared();
    let stop_at = schedule_end(schedule).max(cluster.sim.now()) + 1_000_000;
    let mut client_actors = Vec::new();
    for i in 0..cfg.clients {
        let mut core = ClientCore::new(cluster_cfg.clone(), cluster_cfg.client_origin(i));
        core.attach_history(Arc::clone(&history));
        // Workload ops feed the cluster-shared SLO engine (latency,
        // staleness, degraded reads) so the run exercises the alerting
        // path the checker cross-validates below.
        core.set_alert_engine(Arc::clone(cluster.alert_engine()));
        let id = cluster.sim.add_actor(Box::new(WorkloadClient {
            core,
            rng: Xoshiro256::seeded(seed ^ (0xC11E_4701 + u64::from(i) * 0x1_0003)),
            keys: cfg.keys,
            stop_at,
            in_flight: false,
            ops_done: 0,
        }));
        client_actors.push(id);
    }

    cluster.run_schedule(schedule);

    // Heal-everything tail: whatever subset of the schedule ran (the
    // shrinker prunes heals and restarts too), end in a fully-connected,
    // all-up, loss-free cluster.
    cluster.sim.run_until(stop_at);
    cluster.apply_fault(&ClusterFault::HealAll);
    cluster.apply_fault(&ClusterFault::SetLinkLossPermille(0));
    for n in 0..cfg.data_nodes {
        if cluster.sim.is_down(cluster_cfg.node_actor(NodeId(n))) {
            cluster.restart_node(NodeId(n), RestartKind::Recover);
        }
    }

    // Quiescence: anti-entropy steps one vnode per node per interval, so
    // two full passes over the vnode space guarantee transitive
    // convergence (A→B in the first pass, B→C in the second).
    let quiesce = if cluster_cfg.sync_interval_micros == 0 {
        2_000_000
    } else {
        cluster_cfg.sync_interval_micros * (2 * u64::from(cfg.vnodes) + 8) + 2_000_000
    };
    cluster.sim.run_until(cluster.sim.now() + quiesce);

    let events = history.events();
    // Merge the workload clients' registries into the cluster snapshot:
    // the staleness-lag tracker lives client-side, and a violating run's
    // artifact should carry those readings too.
    let mut snap = cluster.metrics_snapshot();
    let mut tail_attribution = TailSnapshot::default();
    for &id in &client_actors {
        if let Some(c) = cluster.sim.actor_ref::<WorkloadClient>(id) {
            snap.merge(&c.core.obs().snapshot());
            tail_attribution.merge(&c.core.obs().tail_attribution().snapshot());
        }
    }
    let staleness = StalenessSummary {
        lags_recorded: snap
            .hists
            .get("sedna_staleness_ts_delta_micros")
            .map_or(0, |h| h.count),
        outstanding_repairs: snap.gauge("sedna_client_outstanding_repairs"),
        repairs_converged: snap
            .hists
            .get("sedna_staleness_convergence_micros")
            .map_or(0, |h| h.count),
    };
    let metrics_json = snap.to_json();

    // Read the observability plane *after* the heal + quiesce tail: the
    // quiesce window (≥ two full anti-entropy passes plus slack) is long
    // enough for every legitimately-fired alert to resolve, so whatever
    // still fires here is cross-checked as a finding.
    let end_now = cluster.sim.now();
    let engine = Arc::clone(cluster.alert_engine());
    engine.evaluate(end_now);
    let alert_log = engine.transitions();
    let alerts_firing = engine.firing(end_now);
    let divergence: Vec<(NodeId, DivergenceSnapshot)> = (0..cfg.data_nodes)
        .map(|n| {
            let id = NodeId(n);
            (id, cluster.node(id).divergence_snapshot(end_now))
        })
        .collect();

    let mut violations = Vec::new();
    let final_state = final_replica_state(&cluster);
    match (cfg.profile, cfg.broken) {
        (Profile::Churn, _) => {
            violations.extend(check_replica_agreement(&final_state));
        }
        (Profile::Stock, false) => {
            violations.extend(check_sessions(&events));
            violations.extend(check_lost_writes(&acked_writes(&events), &final_state));
            violations.extend(check_replica_agreement(&final_state));
        }
        (Profile::Stock, true) => {
            // Anti-entropy is off, so end-state divergence is expected;
            // only the session/durability guarantees are meaningful.
            violations.extend(check_sessions(&events));
            violations.extend(check_lost_writes(&acked_writes(&events), &final_state));
        }
        (Profile::Skewed, _) => {
            // Stock checks plus the dot-level consistency upgrade: no
            // acked dot may vanish without causal coverage, and replicas
            // must agree on full sibling sets after quiescence.
            violations.extend(check_sessions(&events));
            violations.extend(check_lost_writes(&acked_writes(&events), &final_state));
            violations.extend(check_replica_agreement(&final_state));
            let final_dots = final_replica_dots(&cluster);
            violations.extend(check_lost_concurrent_writes(
                &write_records(&events),
                &final_dots,
            ));
            violations.extend(check_replica_dot_agreement(&final_dots));
        }
    }

    // Observability-vs-ground-truth cross-validation: lost writes without
    // a fired alert, and stuck-firing alerts on clean runs, are findings
    // in their own right.
    let cross = check_alert_crossvalidation(&violations, &alert_log, &alerts_firing);
    violations.extend(cross);

    let ops_done = client_actors
        .iter()
        .filter_map(|&id| cluster.sim.actor_ref::<WorkloadClient>(id))
        .map(|c| c.ops_done)
        .sum();

    // A checker violation is an anomaly by definition: stamp it into the
    // flight recorder and freeze a capture, bypassing the slow-op rate
    // limiter (a violating seed always deserves its black box), then
    // carry the dump in the report so sweep artifacts include it.
    let flight_json = if violations.is_empty() {
        None
    } else {
        flight::record(FlightKind::Violation, seed);
        flight::reset_anomaly();
        flight::note_anomaly("violation", seed);
        Some(flight::render_json(256))
    };

    let _ = std::fs::remove_dir_all(&dir);
    RunReport {
        seed,
        schedule: schedule.to_vec(),
        violations,
        ops_done,
        history: events,
        metrics_json,
        staleness,
        flight_json,
        alert_log,
        alerts_firing,
        divergence,
        tail_attribution,
    }
}

/// Per-key final replica state of a finished cluster — exposed for
/// tests that drive [`SimCluster`] directly and want the agreement
/// check (e.g. partition-heal convergence bounds).
pub fn replica_state_of(
    cluster: &SimCluster,
) -> BTreeMap<Key, Vec<(NodeId, Option<sedna_common::Timestamp>)>> {
    final_replica_state(cluster)
}
