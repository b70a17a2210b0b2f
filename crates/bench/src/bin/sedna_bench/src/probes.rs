//! Single-thread probes of the layers under the actors: the memory store
//! on 100k rows and the ring lookup. They say what the engine costs with
//! no messages around it — the floor the per-op node numbers sit on.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sedna_common::time::Timestamp;
use sedna_common::{CausalContext, Key, NodeId};
use sedna_memstore::{BatchWrite, MemStore, StoreConfig};
use sedna_ring::{Partitioner, VNodeMap};
use sedna_workload::PaperWorkload;

use crate::hist::{median, ratio};
use crate::workload::{encode_value, GROUP};

const ROWS: u64 = 100_000;
/// Share of rows dirtied before each timed sweep.
const DIRTY_ROWS: u64 = ROWS / 100;
const SWEEPS: usize = 5;

pub struct ProbeResults {
    pub write_ns: f64,
    pub read_ns: f64,
    pub apply_batch16_ns_per_key: f64,
    pub scan_dirty_ms_per_100k_rows: f64,
    pub ring_locate_ns: f64,
}

/// Repeats `step` (which performs `per_step` operations) until `budget`
/// has passed; returns the mean ns per operation.
fn time_per_op(budget: Duration, per_step: u64, mut step: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut steps = 0u64;
    while start.elapsed() < budget {
        // Check the clock once per 64 steps, not per operation.
        for _ in 0..64 {
            step(steps);
            steps += 1;
        }
    }
    ratio(start.elapsed().as_nanos() as f64, (steps * per_step) as f64)
}

/// Runs every probe, each for about `budget`.
pub fn run(budget: Duration) -> ProbeResults {
    let paper = PaperWorkload::new();
    let keys: Vec<Key> = (0..ROWS).map(|i| paper.key(i)).collect();
    let store = MemStore::new(StoreConfig::default());
    let origin = NodeId(1_000);
    let mut tick = 0u64;
    let mut stamp = || {
        tick += 1;
        Timestamp::new(tick, 0, origin)
    };
    for (i, key) in keys.iter().enumerate() {
        store.write_latest(key, stamp(), encode_value(i as u64, 1));
    }
    store.scan_dirty();

    // A stride coprime to ROWS walks the keys in a cache-unfriendly order.
    let pick = |n: u64| ((n * 7_919) % ROWS) as usize;
    let write_ns = time_per_op(budget, 1, |n| {
        let i = pick(n);
        black_box(store.write_latest(&keys[i], stamp(), encode_value(i as u64, n)));
    });
    let read_ns = time_per_op(budget, 1, |n| {
        black_box(store.read_latest(&keys[pick(n)]));
    });
    let apply_batch16_ns_per_key = time_per_op(budget, GROUP as u64, |n| {
        let ops: Vec<BatchWrite> = (0..GROUP as u64)
            .map(|j| {
                let i = pick(n * GROUP as u64 + j);
                BatchWrite {
                    key: keys[i].clone(),
                    ts: stamp(),
                    value: encode_value(i as u64, n),
                    ctx: CausalContext::EMPTY,
                    latest: true,
                }
            })
            .collect();
        black_box(store.apply_batch(&ops));
    });

    // The trigger scanner's sweep visits every row to find the dirty 1%.
    store.scan_dirty();
    let sweeps: Vec<f64> = (0..SWEEPS as u64)
        .map(|round| {
            for j in 0..DIRTY_ROWS {
                let i = pick(round * DIRTY_ROWS + j);
                store.write_latest(&keys[i], stamp(), encode_value(i as u64, round));
            }
            let start = Instant::now();
            let found = black_box(store.scan_dirty()).len();
            assert_eq!(
                found as u64, DIRTY_ROWS,
                "sweep finds exactly the dirtied rows"
            );
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();

    let partitioner = Partitioner::new(60);
    let mut ring = VNodeMap::new(partitioner.vnode_count(), 3);
    for n in 0..3 {
        ring.join(NodeId(n));
    }
    let ring_locate_ns = time_per_op(budget, 1, |n| {
        let vnode = partitioner.locate(&keys[pick(n)]);
        black_box(ring.replicas(vnode));
    });

    ProbeResults {
        write_ns,
        read_ns,
        apply_batch16_ns_per_key,
        scan_dirty_ms_per_100k_rows: median(&sweeps),
        ring_locate_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_positive_numbers() {
        let p = run(Duration::from_millis(5));
        for v in [
            p.write_ns,
            p.read_ns,
            p.apply_batch16_ns_per_key,
            p.scan_dirty_ms_per_100k_rows,
            p.ring_locate_ns,
        ] {
            assert!(v > 0.0 && v.is_finite());
        }
    }
}
