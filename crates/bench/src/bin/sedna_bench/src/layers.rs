//! Turns what the traced pass recorded into the per-layer metrics.

use std::collections::HashMap;

use crate::driver::Window;
use crate::hist::{ratio, Hist};
use crate::metrics::PER_LAYER;
use crate::probes::ProbeResults;
use crate::trace::{ActorClass, ActorRecord, Kind, OpPath, PATH_SEGMENTS};

/// What the traced run learnt from comparing neighbouring sub-windows of
/// its four modes.
pub struct ModeComparison {
    /// Median throughput (key-ops/s) of the traced sub-windows.
    pub traced_ops_s: f64,
    /// ... and of the untraced, default-configuration ones.
    pub base_ops_s: f64,
    /// Median over the rounds of traced ÷ base throughput.
    pub traced_vs_base: f64,
    /// Median over the rounds of base ÷ metrics-off throughput.
    pub base_vs_metrics_off: f64,
    /// Profiler-on ÷ base throughput at the end of the run.
    pub profiler_vs_base: f64,
}

fn class<'a>(
    records: &'a [&'a ActorRecord],
    class: ActorClass,
) -> impl Iterator<Item = &'a ActorRecord> + Clone {
    records.iter().copied().filter(move |r| r.class == class)
}

/// Mean callback time (ns) of `kinds` over `actors`.
fn mean_ns<'a>(actors: impl Iterator<Item = &'a ActorRecord>, kinds: &[Kind]) -> f64 {
    let (mut sum, mut n) = (0u64, 0u64);
    for a in actors {
        for k in kinds {
            sum += a.kind(*k).sum();
            n += a.kind(*k).count();
        }
    }
    ratio(sum as f64, n as f64)
}

/// Share of the wall time the actors' threads spent inside callbacks.
fn busy_frac<'a>(
    actors: impl Iterator<Item = &'a ActorRecord>,
    only: Option<Kind>,
    wall_ns: f64,
) -> f64 {
    let (mut busy, mut threads) = (0u64, 0u64);
    for a in actors {
        busy += a.busy_ns(only);
        threads += 1;
    }
    ratio(busy as f64, wall_ns * threads as f64)
}

/// Every [`PER_LAYER`] metric, in table order. `traced` are the traced
/// sub-windows: the generator's view of the time the records cover.
pub fn compute(
    records: &[&ActorRecord],
    paths: &[OpPath],
    traced: &[&Window],
    modes: &ModeComparison,
    probes: &ProbeResults,
) -> Vec<f64> {
    let mut v: HashMap<&str, f64> = HashMap::new();
    let sum = |f: fn(&Window) -> f64| traced.iter().map(|w| f(w)).sum::<f64>();
    let secs = sum(|w| w.secs);
    let wall_ns = secs * 1e9;
    let key_ops = sum(|w| w.key_ops as f64);
    let gateways = || class(records, ActorClass::Gateway);
    let nodes = || class(records, ActorClass::Node);
    let coords = || class(records, ActorClass::Coord);

    // Critical path of the sampled ops.
    let n_paths = paths.len() as f64;
    let mut req_hop = Hist::default();
    let mut seg_sums = [0u64; 7];
    for p in paths {
        let segs = p.segments();
        for (sum, s) in seg_sums.iter_mut().zip(segs) {
            *sum += s;
        }
        req_hop.record(segs[2]);
    }
    for (name, sum) in PATH_SEGMENTS.iter().zip(seg_sums) {
        v.insert(name, ratio(sum as f64, n_paths) / 1e3);
    }
    let latency: u64 = paths.iter().map(OpPath::latency_ns).sum();
    v.insert(
        "trace.latency_mean_us",
        ratio(latency as f64, n_paths) / 1e3,
    );
    v.insert("trace.sampled_ops", n_paths);
    let sampled: usize = gateways().map(|g| g.gw.samples.len()).sum();
    v.insert(
        "trace.unmatched_frac",
        ratio(sampled as f64 - n_paths, sampled as f64),
    );
    let dropped: u64 = records.iter().map(|r| r.spans_dropped + r.gw.dropped).sum();
    v.insert("trace.spans_dropped", dropped as f64);

    // net
    v.insert("net.req_hop_p99_us", req_hop.quantile(0.99) / 1e3);
    let msgs = records.iter().map(|r| r.sends).sum::<u64>() as f64 + sum(|w| w.requests as f64);
    let bytes =
        records.iter().map(|r| r.send_bytes).sum::<u64>() as f64 + sum(|w| w.request_bytes as f64);
    v.insert("net.msgs_per_op", ratio(msgs, key_ops));
    v.insert("net.bytes_per_op", ratio(bytes, key_ops));
    v.insert(
        "proc.ctx_switches_per_op",
        ratio(sum(|w| w.ctx_switches as f64), key_ops),
    );

    // client
    let ack_kinds = [Kind::WriteAck, Kind::ReadReply, Kind::AckBatch];
    let acks: u64 = gateways().map(|g| g.gw.acks).sum();
    let late: u64 = gateways().map(|g| g.gw.late_acks).sum();
    v.insert("client.ack_ns", mean_ns(gateways(), &ack_kinds));
    v.insert("client.acks_per_op", ratio(acks as f64, key_ops));
    v.insert("client.late_ack_frac", ratio(late as f64, acks as f64));
    v.insert("client.busy_frac", busy_frac(gateways(), None, wall_ns));
    let (mut reads, mut writes) = (Hist::default(), Hist::default());
    for g in gateways() {
        reads.merge(&g.gw.read_op_ns);
        writes.merge(&g.gw.write_op_ns);
    }
    v.insert("client.read_p50_us", reads.quantile(0.5) / 1e3);
    v.insert("client.write_p50_us", writes.quantile(0.5) / 1e3);

    // node
    v.insert("node.write_ns", mean_ns(nodes(), &[Kind::Write]));
    v.insert("node.read_ns", mean_ns(nodes(), &[Kind::Read]));
    let batch_ns: u64 = nodes().map(|n| n.kind(Kind::Batch).sum()).sum();
    let batch_keys: u64 = nodes().map(|n| n.batch_sub_ops).sum();
    v.insert(
        "node.batch_ns_per_key",
        ratio(batch_ns as f64, batch_keys as f64),
    );
    v.insert("node.busy_frac", busy_frac(nodes(), None, wall_ns));
    v.insert(
        "node.timer_busy_frac",
        busy_frac(nodes(), Some(Kind::Timer), wall_ns),
    );
    let timer_max = nodes()
        .map(|n| n.kind(Kind::Timer).max())
        .max()
        .unwrap_or(0);
    v.insert("node.timer_max_ms", timer_max as f64 / 1e6);

    // memstore: what the acks themselves report, then the probes.
    let apply: u64 = gateways().map(|g| g.gw.apply_ns).sum();
    let lock: u64 = gateways().map(|g| g.gw.lock_ns).sum();
    v.insert("memstore.apply_ns", ratio(apply as f64, acks as f64));
    v.insert("memstore.lock_wait_ns", ratio(lock as f64, acks as f64));
    v.insert("memstore.probe_write_ns", probes.write_ns);
    v.insert("memstore.probe_read_ns", probes.read_ns);
    v.insert(
        "memstore.probe_apply_batch16_ns_per_key",
        probes.apply_batch16_ns_per_key,
    );
    v.insert(
        "memstore.probe_scan_dirty_ms_per_100k_rows",
        probes.scan_dirty_ms_per_100k_rows,
    );
    v.insert("ring.probe_locate_ns", probes.ring_locate_ns);

    // coord
    v.insert("coord.busy_frac", busy_frac(coords(), None, wall_ns));
    v.insert(
        "manager.busy_frac",
        busy_frac(class(records, ActorClass::Manager), None, wall_ns),
    );
    let coord_msgs: u64 = coords().map(|c| c.kind(Kind::Coord).count()).sum();
    v.insert("coord.msgs_per_s", ratio(coord_msgs as f64, secs));

    // process and observability
    v.insert(
        "proc.allocs_per_op",
        ratio(sum(|w| w.allocs as f64), key_ops),
    );
    v.insert(
        "proc.alloc_bytes_per_op",
        ratio(sum(|w| w.alloc_bytes as f64), key_ops),
    );
    v.insert(
        "proc.heap_growth_bytes_per_op",
        ratio(sum(|w| w.heap_growth_bytes as f64), key_ops),
    );
    v.insert("obs.plane_overhead_frac", 1.0 - modes.base_vs_metrics_off);
    v.insert("obs.profiler_overhead_frac", 1.0 - modes.profiler_vs_base);
    v.insert("trace.overhead_frac", 1.0 - modes.traced_vs_base);
    v.insert("trace.traced_throughput_ops_s", modes.traced_ops_s);
    v.insert("trace.untraced_throughput_ops_s", modes.base_ops_s);

    PER_LAYER
        .iter()
        .map(|m| {
            *v.get(m.name)
                .unwrap_or_else(|| panic!("{} is in the table but not computed", m.name))
        })
        .collect()
}
