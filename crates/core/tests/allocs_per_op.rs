//! Heap allocations per key-op on the whole op path, counted by a global
//! allocator over a deterministic simulated cluster.
//!
//! A simulated cluster (3 data nodes, N=3 W=2 R=2, two gateways, instant
//! links) runs on the test's own thread, so a per-thread count of `alloc`
//! and `realloc` calls sees exactly the work of one measured load: the
//! gateways' client cores, the frames, the nodes' dispatch and store, and
//! the simulator's own queue. The same seed gives the same count on every
//! run, so the gates below are tight: each sits one allocation above what
//! this tree measures. Two loads, as in the benchmark's `mixed_small` and
//! `batch_many`: single-key `write_latest`/`read_latest` 50/50, and 16-key
//! `write_many`/`read_many` 50/50 with replica batching on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sedna_common::{Key, Value};
use sedna_core::cluster::SimCluster;
use sedna_core::config::ClusterConfig;
use sedna_core::messages::{ClientFrame, ClientOp, SednaMsg};
use sedna_net::actor::ActorId;
use sedna_net::link::LinkModel;

thread_local! {
    // Per thread, so tests running in parallel do not see each other's
    // allocations. `const` with no destructor: reading it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread tearing down its TLS is not inside a counting window.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Keys in the key space; all are preloaded before counting starts.
const KEYS: usize = 2_048;
/// Keys per multi-key op in the batched load.
const GROUP: usize = 16;
/// Ops each gateway is handed per round.
const PER_GATEWAY: usize = 32;
/// Rounds run before counting (warm every map and queue to its size).
const WARM_ROUNDS: usize = 8;
/// Rounds counted.
const ROUNDS: usize = 32;

fn key(i: usize) -> Key {
    Key::from(format!("key-{:016}", i % KEYS))
}

fn value(i: usize) -> Value {
    Value::from(format!("val-{i:016}"))
}

/// A ready cluster with two gateways, every key written once.
fn cluster(group: usize) -> (SimCluster, [ActorId; 2]) {
    let mut cfg = ClusterConfig::small();
    if group > 1 {
        cfg = cfg.with_batching(group, 0);
    }
    let mut c = SimCluster::build(cfg, 11, LinkModel::instant());
    let gateways = [c.add_gateway(0), c.add_gateway(1)];
    c.run_until_ready(30_000_000);
    // The gateways fetch the ring on their first ticks.
    let settle = c.sim.now() + 1_000_000;
    c.sim.run_until(settle);
    let pairs: Vec<(Key, Value)> = (0..KEYS).map(|i| (key(i), value(i))).collect();
    let preload: Vec<ClientOp> = pairs
        .chunks(GROUP)
        .map(|chunk| ClientOp::WriteMany {
            pairs: chunk.to_vec(),
        })
        .collect();
    run(&mut c, &gateways, preload);
    (c, gateways)
}

/// Hands `ops` to the gateways, alternating, and steps the simulator until
/// every op has answered.
fn run(c: &mut SimCluster, gateways: &[ActorId; 2], ops: Vec<ClientOp>) {
    let want = ops.len();
    for (i, op) in ops.into_iter().enumerate() {
        let frame = ClientFrame::Request {
            op_id: i as u64,
            op,
        };
        c.sim
            .send_external(gateways[i % 2], SednaMsg::Client(frame));
    }
    let mut answered = 0;
    while answered < want {
        assert!(c.sim.step(), "simulator ran dry with ops unanswered");
        answered += c.sim.take_external().len();
    }
}

/// Round `r`'s ops: half writes, half reads, spread over the key space.
fn round(r: usize, group: usize) -> Vec<ClientOp> {
    (0..2 * PER_GATEWAY)
        .map(|i| {
            let first = (r * 2 * PER_GATEWAY + i) * group * 7;
            if i % 2 == 0 {
                let pairs: Vec<(Key, Value)> =
                    (0..group).map(|k| (key(first + k), value(r + k))).collect();
                if group == 1 {
                    let (key, value) = pairs.into_iter().next().expect("one pair");
                    ClientOp::WriteLatest { key, value }
                } else {
                    ClientOp::WriteMany { pairs }
                }
            } else if group == 1 {
                ClientOp::ReadLatest { key: key(first) }
            } else {
                ClientOp::ReadMany {
                    keys: (0..group).map(|k| key(first + k)).collect(),
                }
            }
        })
        .collect()
}

/// Allocations per key-op over the counted rounds of a `group`-key load.
fn allocs_per_key_op(group: usize) -> f64 {
    let (mut c, gateways) = cluster(group);
    for r in 0..WARM_ROUNDS {
        run(&mut c, &gateways, round(r, group));
    }
    let rounds: Vec<Vec<ClientOp>> = (WARM_ROUNDS..WARM_ROUNDS + ROUNDS)
        .map(|r| round(r, group))
        .collect();
    let before = ALLOCS.with(Cell::get);
    for ops in rounds {
        run(&mut c, &gateways, ops);
    }
    let allocs = ALLOCS.with(Cell::get) - before;
    allocs as f64 / (ROUNDS * 2 * PER_GATEWAY * group) as f64
}

/// Single-key budget: 12.57 measured, plus one.
const SINGLE_KEY_BUDGET: f64 = 13.6;
/// 16-key budget: 10.08 measured, plus one.
const BATCHED_BUDGET: f64 = 11.1;

#[test]
fn single_key_load_stays_within_its_allocation_budget() {
    let per_op = allocs_per_key_op(1);
    eprintln!("single-key: {per_op:.2} allocations per key-op");
    assert!(
        per_op <= SINGLE_KEY_BUDGET,
        "{per_op:.2} allocations per key-op"
    );
}

#[test]
fn batched_16_key_load_stays_within_its_allocation_budget() {
    let per_op = allocs_per_key_op(GROUP);
    eprintln!("16-key: {per_op:.2} allocations per key-op");
    assert!(
        per_op <= BATCHED_BUDGET,
        "{per_op:.2} allocations per key-op"
    );
}
