//! The closed-loop generator: one thread, `clients` ops in flight.
//!
//! Closed loop because Sedna's callers each wait for their reply (paper
//! Fig. 7/8). Each logical client re-issues on the gateway its reply came
//! from. The measured time is cut into sub-windows; every gated number is
//! the median over them.

use std::time::Duration;

use sedna_common::rng::Xoshiro256;
use sedna_net::actor::{ActorId, MessageSize};

use crate::alloc::{self, AllocTotals};
use crate::cluster::{Cluster, GENERATOR_TIMEOUT};
use crate::hist::{median, ratio, Hist};
use crate::procstat;
use crate::trace::GenTimes;
use crate::workload::{Issued, OpStream};

/// Keys read back through the oracle after the measured windows.
const READ_BACK_KEYS: u64 = 1_000;

/// One sub-window of the measured time: what completed in it and what the
/// process spent meanwhile.
#[derive(Default)]
pub struct Window {
    pub secs: f64,
    pub key_ops: u64,
    /// Generator send → matching `Response`, per client op (ns).
    pub latency_ns: Hist,
    pub cpu_micros: u64,
    /// Allocator counters; all 0 while counting is off (gated runs).
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub heap_growth_bytes: i64,
    pub ctx_switches: u64,
    /// Request frames the generator sent, and their modelled wire bytes.
    pub requests: u64,
    pub request_bytes: u64,
}

impl Window {
    pub fn throughput_ops_s(&self) -> f64 {
        ratio(self.key_ops as f64, self.secs)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu_micros as f64, self.key_ops as f64)
    }

    /// The `q`-quantile of client-op latency in µs.
    pub fn latency_us(&self, q: f64) -> f64 {
        self.latency_ns.quantile(q) / 1e3
    }
}

/// Median of `f` over `windows`.
pub fn median_over<'a>(
    windows: impl IntoIterator<Item = &'a Window>,
    f: impl Fn(&Window) -> f64,
) -> f64 {
    median(&windows.into_iter().map(f).collect::<Vec<_>>())
}

pub struct RunStats {
    /// One per entry of the schedule, in order.
    pub windows: Vec<Window>,
    /// Client ops judged (a 16-key group is one), inside the measured
    /// windows plus the read-back.
    pub attempted: u64,
    /// `Failed` results (or children), oracle mismatches and generator
    /// timeouts among them.
    pub failed: u64,
    pub timeouts: u64,
}

struct Slot {
    op_id: u64,
    sent_ns: u64,
    issued: Issued,
}

/// Where the generator is in its schedule.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    WarmUp,
    Measuring(usize),
    Draining,
}

/// Process counters read where one sub-window ends and the next begins.
struct Boundary {
    at_ns: u64,
    cpu_micros: u64,
    alloc: AllocTotals,
    ctx_switches: u64,
}

impl Boundary {
    fn here(at_ns: u64) -> Boundary {
        Boundary {
            at_ns,
            cpu_micros: procstat::cpu_micros(),
            alloc: alloc::totals(),
            ctx_switches: procstat::voluntary_ctx_switches(),
        }
    }
}

struct Generator<'a> {
    cluster: &'a mut Cluster,
    stream: &'a mut OpStream,
    gen_times: Option<&'a mut GenTimes>,
    clients: usize,
    slots: Vec<Slot>,
    phase: Phase,
    /// The sub-window being filled.
    current: Window,
    stats: RunStats,
}

impl Generator<'_> {
    /// Sends the stream's next op for one logical client.
    fn issue(&mut self, gateway: ActorId) {
        let (op, issued) = self.stream.next_op();
        let (op_id, frame) = self.cluster.frame(op);
        if self.gen_times.is_some() {
            self.current.requests += 1;
            self.current.request_bytes += frame.size_bytes() as u64;
        }
        let sent_ns = self.cluster.clock.now_ns();
        if let Some(g) = &mut self.gen_times {
            g.sent(op_id, sent_ns);
        }
        self.cluster.send_frame(gateway, frame);
        self.slots.push(Slot {
            op_id,
            sent_ns,
            issued,
        });
    }

    /// Puts every logical client's first op in flight, spread over the
    /// gateways.
    fn start_clients(&mut self) {
        for c in 0..self.clients {
            self.issue(self.cluster.gateways[c % self.cluster.gateways.len()]);
        }
    }

    /// Counts `n` client ops as attempted and failed, if inside the
    /// measured time.
    fn fail(&mut self, n: u64) {
        if matches!(self.phase, Phase::Measuring(_)) {
            self.stats.attempted += n;
            self.stats.failed += n;
        }
    }

    /// Closes the sub-window that ran from `opened` to `closed`.
    fn close_window(&mut self, opened: &Boundary, closed: &Boundary) {
        let mut done = std::mem::take(&mut self.current);
        done.secs = (closed.at_ns - opened.at_ns) as f64 / 1e9;
        done.cpu_micros = closed.cpu_micros - opened.cpu_micros;
        done.allocs = closed.alloc.allocs - opened.alloc.allocs;
        done.alloc_bytes = closed.alloc.bytes - opened.alloc.bytes;
        done.heap_growth_bytes = closed.alloc.live_bytes() - opened.alloc.live_bytes();
        done.ctx_switches = closed.ctx_switches.saturating_sub(opened.ctx_switches);
        self.stats.windows.push(done);
    }
}

/// Warm-up (discarded), then one sub-window per entry of `schedule`, then
/// a drain and the read-back of sample keys. `on_boundary(k)` runs when
/// sub-window `k` opens, and with `k == schedule.len()` when the last one
/// has closed; the traced run switches modes there. With `gen_times`, the
/// send and receive stamp of every op is kept for the trace join.
pub fn drive(
    cluster: &mut Cluster,
    stream: &mut OpStream,
    clients: usize,
    warm_up: Duration,
    schedule: &[Duration],
    on_boundary: &mut dyn FnMut(usize),
    gen_times: Option<&mut GenTimes>,
) -> RunStats {
    let clock = cluster.clock.clone();
    let mut g = Generator {
        cluster,
        stream,
        gen_times,
        clients,
        slots: Vec::with_capacity(clients),
        phase: Phase::WarmUp,
        current: Window::default(),
        stats: RunStats {
            windows: Vec::with_capacity(schedule.len()),
            attempted: 0,
            failed: 0,
            timeouts: 0,
        },
    };
    let mut next_boundary_ns = clock.now_ns() + warm_up.as_nanos() as u64;
    let mut opened = Boundary::here(0);

    g.start_clients();
    while !g.slots.is_empty() {
        let reply = g.cluster.recv(GENERATOR_TIMEOUT);
        let now_ns = clock.now_ns();
        while now_ns >= next_boundary_ns && g.phase != Phase::Draining {
            let here = Boundary::here(now_ns);
            let opening = match g.phase {
                Phase::WarmUp => {
                    // What the warm-up sent belongs to no window.
                    g.current = Window::default();
                    0
                }
                Phase::Measuring(k) => {
                    g.close_window(&opened, &here);
                    k + 1
                }
                Phase::Draining => unreachable!("loop condition"),
            };
            on_boundary(opening);
            match schedule.get(opening) {
                Some(window) => {
                    g.phase = Phase::Measuring(opening);
                    next_boundary_ns += window.as_nanos() as u64;
                }
                None => g.phase = Phase::Draining,
            }
            opened = here;
        }
        let Some((gateway, op_id, result)) = reply else {
            // Nothing for 2 s: every op in flight is lost. Count them and
            // start the clients again, so one wedge is not the whole run.
            let lost = g.slots.len() as u64;
            g.stats.timeouts += lost;
            g.fail(lost);
            g.slots.clear();
            if g.phase != Phase::Draining {
                g.start_clients();
            }
            continue;
        };
        let Some(pos) = g.slots.iter().position(|s| s.op_id == op_id) else {
            continue; // a stale readiness probe, or an op already given up on
        };
        let slot = g.slots.swap_remove(pos);
        if let Some(times) = &mut g.gen_times {
            times.received(op_id, now_ns);
        }
        if matches!(g.phase, Phase::Measuring(_)) {
            if g.stream.check(&slot.issued, &result) {
                g.stats.attempted += 1;
                g.current.key_ops += slot.issued.key_ops() as u64;
                g.current.latency_ns.record(now_ns - slot.sent_ns);
            } else {
                g.fail(1);
            }
        }
        if g.phase != Phase::Draining {
            g.issue(gateway);
        }
    }
    let Generator {
        cluster,
        stream,
        mut stats,
        ..
    } = g;
    read_back(cluster, stream, clients, &mut stats);
    stats
}

/// Reads 1,000 sample keys back through the same oracle.
fn read_back(cluster: &mut Cluster, stream: &OpStream, clients: usize, stats: &mut RunStats) {
    // The sample is a function of the key count only: the seed already
    // decided which keys were written, and how often.
    let mut rng = Xoshiro256::seeded(stream.key_count());
    let mut in_flight: Vec<(u64, Issued)> = Vec::with_capacity(clients);
    let mut left = READ_BACK_KEYS;
    while left > 0 || !in_flight.is_empty() {
        while left > 0 && in_flight.len() < clients {
            let (op, issued) = stream.read_of(rng.next_below(stream.key_count()));
            let gateway = cluster.gateways[(left % cluster.gateways.len() as u64) as usize];
            in_flight.push((cluster.send(gateway, op), issued));
            left -= 1;
        }
        let Some((_, op_id, result)) = cluster.recv(GENERATOR_TIMEOUT) else {
            stats.timeouts += in_flight.len() as u64;
            stats.attempted += in_flight.len() as u64;
            stats.failed += in_flight.len() as u64;
            in_flight.clear();
            continue;
        };
        if let Some(pos) = in_flight.iter().position(|(id, _)| *id == op_id) {
            let (_, issued) = in_flight.swap_remove(pos);
            stats.attempted += 1;
            stats.failed += u64::from(!stream.check(&issued, &result));
        }
    }
}
