//! Batched-vs-unbatched datapath equivalence on the deterministic simulator.
//!
//! Coalescing replica ops into `ReplicaOp::Batch` frames changes how many
//! messages cross the network — and therefore how the sim's jitter RNG
//! reorders them — but must never change what the client observes. These
//! tests run identical scripted workloads with batching off
//! (`max_batch_ops = 1`) and with frames of 8 and of 3 ops, and assert the
//! per-operation `ClientResult` sequences are identical under message
//! reordering, replica loss, and read-repair traffic.

use proptest::prelude::*;
use sedna_common::{Key, NodeId, Timestamp, Value};
use sedna_core::client::{ClientCore, ClientEvent};
use sedna_core::cluster::SimCluster;
use sedna_core::config::ClusterConfig;
use sedna_core::messages::{ClientOp, ClientResult, SednaMsg};
use sedna_net::actor::{Actor, ActorId, Ctx, TimerToken};
use sedna_net::link::LinkModel;

const T_TICK: TimerToken = TimerToken(1);

/// Scripted closed-loop client, as in `cluster_sim.rs`: issues ops one at a
/// time once routing is ready, recording every result.
struct Driver {
    core: ClientCore,
    script: Vec<ClientOp>,
    cursor: usize,
    results: Vec<ClientResult>,
}

impl Driver {
    fn new(cfg: ClusterConfig, origin_index: u32, script: Vec<ClientOp>) -> Self {
        let origin = cfg.client_origin(origin_index);
        Driver {
            core: ClientCore::new(cfg, origin),
            script,
            cursor: 0,
            results: Vec::new(),
        }
    }

    fn issue_next(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        if self.cursor >= self.script.len() {
            return;
        }
        let op = self.script[self.cursor].clone();
        self.cursor += 1;
        let now = ctx.now();
        let issued = match op {
            ClientOp::WriteLatest { key, value } => self.core.write_latest(&key, value, now),
            ClientOp::ReadLatest { key } => self.core.read_latest(&key, now),
            ClientOp::WriteMany { pairs } => self.core.write_many(&pairs, now),
            ClientOp::ReadMany { keys } => self.core.read_many(&keys, now),
            other => panic!("script does not use {other:?}"),
        };
        assert!(issued.is_some(), "driver only issues after Ready");
        for (to, m) in issued.unwrap().1 {
            ctx.send(to, m);
        }
    }

    fn pump(&mut self, events: Vec<ClientEvent>, ctx: &mut Ctx<'_, SednaMsg>) {
        for ev in events {
            match ev {
                ClientEvent::Ready => self.issue_next(ctx),
                ClientEvent::Done { result, .. } => {
                    self.results.push(result);
                    self.issue_next(ctx);
                }
            }
        }
    }
}

impl Actor for Driver {
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
        ctx.set_timer(T_TICK, 10_000);
    }
}

fn key_of(i: u8) -> Key {
    Key::from(format!("eq-{i}"))
}

/// Renders a result with physical timestamp components erased.
///
/// Timestamps embed the client's virtual issue time, which legitimately
/// shifts by a few microseconds when frame counts change; the *logical*
/// identity of a version is its per-client counter and origin, which must
/// be identical across modes.
fn normalize(results: &[ClientResult]) -> Vec<String> {
    fn one(r: &ClientResult) -> String {
        match r {
            ClientResult::Latest(Some(v)) => {
                format!("latest(#{}@{:?}={:?})", v.ts.counter, v.ts.origin, v.value)
            }
            ClientResult::Many(children) => {
                format!(
                    "many[{}]",
                    children.iter().map(one).collect::<Vec<_>>().join(",")
                )
            }
            other => format!("{other:?}"),
        }
    }
    results.iter().map(one).collect()
}

/// Decodes a generated `(opcode, key index)` script into client ops.
/// Multi-key ops take a contiguous window of distinct keys so that no group
/// writes the same key twice (two in-flight writes to one key would race on
/// replica arrival order, which is legitimately timing-dependent).
fn decode_script(raw: &[(u8, u8)], key_space: u8) -> Vec<ClientOp> {
    raw.iter()
        .enumerate()
        .map(|(op_index, &(code, k))| {
            let k = k % key_space;
            let group = 2 + (code / 4) % 4; // 2..=5 distinct keys
            let window =
                |n: u8| -> Vec<Key> { (0..n).map(|j| key_of((k + j) % key_space)).collect() };
            match code % 4 {
                0 => ClientOp::WriteLatest {
                    key: key_of(k),
                    value: Value::from(format!("v-{op_index}")),
                },
                1 => ClientOp::ReadLatest { key: key_of(k) },
                2 => ClientOp::WriteMany {
                    pairs: window(group.min(key_space))
                        .into_iter()
                        .map(|key| (key, Value::from(format!("v-{op_index}"))))
                        .collect(),
                },
                _ => ClientOp::ReadMany {
                    keys: window(group.min(key_space)),
                },
            }
        })
        .collect()
}

/// Runs `script` against a cluster built from `cfg` and returns the result
/// sequence plus delivery/byte counters for bit-for-bit comparisons.
fn run_script(
    cfg: ClusterConfig,
    seed: u64,
    link: LinkModel,
    script: Vec<ClientOp>,
    down: Option<NodeId>,
    preload: &[(NodeId, Key)],
) -> (Vec<ClientResult>, u64, u64, u64) {
    let want = script.len();
    let mut cluster = SimCluster::build(cfg.clone(), seed, link);
    cluster.run_until_ready(20_000_000);
    for (node, key) in preload {
        cluster.node(*node).store().write_latest(
            key,
            Timestamp::new(1, 0, NodeId(999)),
            Value::from("preloaded"),
        );
    }
    if let Some(n) = down {
        cluster.sim.set_down(cfg.node_actor(n), true);
    }
    let driver = cluster.sim.add_actor(Box::new(Driver::new(cfg, 0, script)));
    cluster.sim.run_until(cluster.sim.now() + 20_000_000);
    let d = cluster.sim.actor_ref::<Driver>(driver).unwrap();
    assert_eq!(
        d.results.len(),
        want,
        "script did not finish: {:?}",
        d.results
    );
    (
        d.results.clone(),
        cluster.sim.stats().messages_delivered,
        cluster.sim.stats().bytes_sent,
        cluster.sim.now(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Under jitter-induced reordering, every batching configuration must
    /// produce exactly the same per-op results as the unbatched datapath.
    #[test]
    fn outcomes_match_under_reordering(
        raw in proptest::collection::vec((0u8..=255, 0u8..=255), 1..12),
        seed in 0u64..1_000,
    ) {
        let script = decode_script(&raw, 8);
        let base = ClusterConfig::small();
        let (off, ..) = run_script(
            base.clone(), seed, LinkModel::gigabit_lan(), script.clone(), None, &[]);
        for (ops, delay) in [(8usize, 0u64), (3, 0)] {
            let cfg = base.clone().with_batching(ops, delay);
            let (on, ..) = run_script(
                cfg, seed, LinkModel::gigabit_lan(), script.clone(), None, &[]);
            prop_assert_eq!(
                normalize(&off), normalize(&on),
                "batching({}, {}) diverged", ops, delay
            );
        }
    }
}

/// Deterministic loss: one replica is unreachable for the whole script, so
/// every frame to it — bare or batched — is dropped. W=2/R=2 quorums must
/// still succeed, batched ack demux must cope with the permanently missing
/// replies, and both modes must agree on every result.
#[test]
fn outcomes_match_with_one_replica_down() {
    let raw: Vec<(u8, u8)> = (0u8..10).map(|i| (i * 7 + 2, i * 3)).collect();
    let script = decode_script(&raw, 8);
    let base = ClusterConfig::small();
    let (off, ..) = run_script(
        base.clone(),
        77,
        LinkModel::gigabit_lan(),
        script.clone(),
        Some(NodeId(2)),
        &[],
    );
    let (on, ..) = run_script(
        base.with_batching(8, 0),
        77,
        LinkModel::gigabit_lan(),
        script,
        Some(NodeId(2)),
        &[],
    );
    assert_eq!(normalize(&off), normalize(&on));
    for r in &off {
        match r {
            ClientResult::Ok | ClientResult::Latest(_) => {}
            ClientResult::Many(children) => {
                for c in children {
                    assert!(
                        matches!(c, ClientResult::Ok | ClientResult::Latest(_)),
                        "quorum op failed with one replica down: {c:?}"
                    );
                }
            }
            other => panic!("quorum op failed with one replica down: {other:?}"),
        }
    }
}

/// Read repair: two replicas are preloaded with a value the third lacks, so
/// multi-key reads observe a mismatch and stage repair pushes — through the
/// batching layer when it is on. Client outcomes and the repaired replica's
/// final state must match across modes.
#[test]
fn repair_traffic_is_equivalent_across_modes() {
    let keys: Vec<Key> = (0u8..4).map(key_of).collect();
    let preload: Vec<(NodeId, Key)> = keys
        .iter()
        .flat_map(|k| [(NodeId(0), k.clone()), (NodeId(1), k.clone())])
        .collect();
    let script = vec![
        ClientOp::ReadMany { keys: keys.clone() },
        ClientOp::ReadMany { keys: keys.clone() },
    ];
    let run = |cfg: ClusterConfig| {
        let want = script.len();
        let mut cluster = SimCluster::build(cfg.clone(), 5, LinkModel::gigabit_lan());
        cluster.run_until_ready(20_000_000);
        for (node, key) in &preload {
            cluster.node(*node).store().write_latest(
                key,
                Timestamp::new(1, 0, NodeId(999)),
                Value::from("preloaded"),
            );
        }
        let driver = cluster
            .sim
            .add_actor(Box::new(Driver::new(cfg, 0, script.clone())));
        cluster.sim.run_until(cluster.sim.now() + 20_000_000);
        let d = cluster.sim.actor_ref::<Driver>(driver).unwrap();
        assert_eq!(d.results.len(), want);
        let repaired: Vec<bool> = keys
            .iter()
            .map(|k| cluster.node(NodeId(2)).store().contains(k))
            .collect();
        (d.results.clone(), repaired)
    };
    let off = run(ClusterConfig::small());
    let on = run(ClusterConfig::small().with_batching(8, 0));
    assert_eq!(off, on);
    // The reads themselves must have observed the preloaded value.
    match &off.0[0] {
        ClientResult::Many(children) => {
            for c in children {
                match c {
                    ClientResult::Latest(Some(v)) => {
                        assert_eq!(v.value, Value::from("preloaded"))
                    }
                    other => panic!("unexpected read result: {other:?}"),
                }
            }
        }
        other => panic!("unexpected: {other:?}"),
    }
}

/// Acceptance gate: `max_batch_ops = 1` must reproduce the legacy per-key
/// datapath bit-for-bit — same results, same delivery count, same bytes on
/// the wire, same final virtual time.
#[test]
fn max_batch_ops_one_is_bit_for_bit_identical() {
    let raw: Vec<(u8, u8)> = (0u8..12).map(|i| (i * 5 + 1, i * 11)).collect();
    let script = decode_script(&raw, 8);
    let legacy = run_script(
        ClusterConfig::small(),
        42,
        LinkModel::gigabit_lan(),
        script.clone(),
        None,
        &[],
    );
    let gated = run_script(
        ClusterConfig::small().with_batching(1, 0),
        42,
        LinkModel::gigabit_lan(),
        script,
        None,
        &[],
    );
    assert_eq!(legacy, gated);
}

/// Random frame loss: outcomes can legitimately differ between modes (the
/// drop RNG sees different message streams), but each mode on its own must
/// uphold the quorum contract — a read either misses or returns exactly the
/// value the script wrote for that key.
#[test]
fn lossy_link_upholds_read_your_writes_per_mode() {
    let keys: Vec<Key> = (0u8..6).map(key_of).collect();
    let mut script: Vec<ClientOp> = vec![ClientOp::WriteMany {
        pairs: keys
            .iter()
            .map(|k| (k.clone(), Value::from("stable")))
            .collect(),
    }];
    script.push(ClientOp::ReadMany { keys: keys.clone() });
    for cfg in [
        ClusterConfig::small(),
        ClusterConfig::small().with_batching(8, 0),
    ] {
        let (results, ..) = run_script(
            cfg,
            7,
            LinkModel::lossy_lan(0.02),
            script.clone(),
            None,
            &[],
        );
        let reads = match &results[1] {
            ClientResult::Many(children) => children,
            other => panic!("unexpected: {other:?}"),
        };
        for c in reads {
            match c {
                ClientResult::Latest(Some(v)) => assert_eq!(v.value, Value::from("stable")),
                ClientResult::Latest(None) | ClientResult::Failed => {}
                other => panic!("unexpected read result: {other:?}"),
            }
        }
    }
}
