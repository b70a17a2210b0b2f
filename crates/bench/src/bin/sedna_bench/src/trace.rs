//! The traced pass: a benchmark-owned wrapper around every actor.
//!
//! [`Traced`] runs the inner actor's callback against a private
//! [`Effects`], stamps start and end, classifies the inbound message,
//! reads the correlation ids off the public message fields, and replays
//! the recorded sends and timer ops onto the real context in issue order.
//! Every callback feeds a per-kind histogram; for one op in sixteen the
//! raw spans are kept so the op's latency can be cut into the seven
//! segments of its critical path (see [`PATH_SEGMENTS`]).
//!
//! The wrapper has a switch. Off, it hands the callback straight to the
//! inner actor, so one cluster can alternate traced and untraced windows
//! and `trace.overhead_frac` compares neighbours in time instead of two
//! clusters minutes apart. Nothing here is used for the gated numbers:
//! those come from a run without the wrapper.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sedna_core::messages::{ClientFrame, ReplicaOp, SednaMsg};
use sedna_net::actor::{Actor, ActorId, Ctx, Effects, MessageSize, TimerOp, TimerToken};

use crate::hist::Hist;

/// Which layer an actor belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ActorClass {
    Coord,
    Manager,
    Node,
    Gateway,
}

/// What a callback was invoked for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Start,
    Timer,
    Request,
    Write,
    Read,
    Batch,
    WriteAck,
    ReadReply,
    AckBatch,
    Push,
    PushAck,
    /// Transfers, scans and anti-entropy rounds.
    ReplicaOther,
    Coord,
    Control,
    /// A `ClientFrame::Response` arriving at an actor (none expects one).
    Other,
}

pub const KINDS: usize = Kind::Other as usize + 1;
const KIND_NAMES: [&str; KINDS] = [
    "start",
    "timer",
    "request",
    "write",
    "read",
    "batch",
    "write_ack",
    "read_reply",
    "ack_batch",
    "push",
    "push_ack",
    "replica_other",
    "coord",
    "control",
    "other",
];

pub fn classify(msg: &SednaMsg) -> Kind {
    match msg {
        SednaMsg::Coord(_) => Kind::Coord,
        SednaMsg::Control(_) => Kind::Control,
        SednaMsg::Client(ClientFrame::Request { .. }) => Kind::Request,
        SednaMsg::Client(ClientFrame::Response { .. }) => Kind::Other,
        SednaMsg::Replica(op) => match op {
            ReplicaOp::Write { .. } => Kind::Write,
            ReplicaOp::Read { .. } => Kind::Read,
            ReplicaOp::Batch { .. } => Kind::Batch,
            ReplicaOp::WriteAck { .. } => Kind::WriteAck,
            ReplicaOp::ReadReply { .. } => Kind::ReadReply,
            ReplicaOp::AckBatch { .. } => Kind::AckBatch,
            ReplicaOp::Push { .. } => Kind::Push,
            ReplicaOp::PushAck { .. } => Kind::PushAck,
            _ => Kind::ReplicaOther,
        },
    }
}

/// A gateway's write and read coordinators number their requests
/// independently, so a `RequestId` identifies an op only together with
/// its class (and the gateway it came from).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ReqClass {
    Write,
    Read,
}

/// Class and `RequestId` of a single data-path request or reply.
fn req_of(op: &ReplicaOp) -> Option<(ReqClass, u64)> {
    match op {
        ReplicaOp::Write { req, .. } | ReplicaOp::WriteAck { req, .. } => {
            Some((ReqClass::Write, req.0))
        }
        ReplicaOp::Read { req, .. } | ReplicaOp::ReadReply { req, .. } => {
            Some((ReqClass::Read, req.0))
        }
        _ => None,
    }
}

fn sub_ops(op: &ReplicaOp) -> &[ReplicaOp] {
    match op {
        ReplicaOp::Batch { ops } | ReplicaOp::AckBatch { acks: ops } => ops,
        single => std::slice::from_ref(single),
    }
}

/// The contiguous `RequestId`s one frame carries for one op: a single
/// request, or the requests of one `write_many`/`read_many` inside a batch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReqRange {
    pub class: ReqClass,
    pub lo: u64,
    pub hi: u64,
}

impl ReqRange {
    /// Range over the sub-ops of the first class present (a frame mixing
    /// repair pushes with requests still yields the requests).
    pub fn of(op: &ReplicaOp) -> Option<ReqRange> {
        let mut range: Option<ReqRange> = None;
        for (class, req) in sub_ops(op).iter().filter_map(req_of) {
            let r = range.get_or_insert(ReqRange {
                class,
                lo: req,
                hi: req,
            });
            if r.class == class {
                r.lo = r.lo.min(req);
                r.hi = r.hi.max(req);
            }
        }
        range
    }

    /// Raw spans are kept for ranges holding a multiple of 16: a pure
    /// function of the ids, so gateway and nodes agree without talking.
    pub fn sampled(&self) -> bool {
        self.hi / SAMPLE_EVERY * SAMPLE_EVERY >= self.lo
    }
}

pub const SAMPLE_EVERY: u64 = 16;

/// State shared by the wrappers and the generator: one clock, one switch.
pub struct TraceShared {
    epoch: Instant,
    tracing: AtomicBool,
}

impl TraceShared {
    pub fn new() -> Arc<TraceShared> {
        Arc::new(TraceShared {
            epoch: Instant::now(),
            tracing: AtomicBool::new(false),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Off (the initial state), the wrappers forward and record nothing.
    /// An op in flight across a switch is simply not matched.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::SeqCst);
    }

    fn tracing(&self) -> bool {
        self.tracing.load(Ordering::SeqCst)
    }
}

/// One node callback that served a sampled request frame.
#[derive(Clone, Copy, Debug)]
pub struct NodeSpan {
    pub gateway: ActorId,
    pub range: ReqRange,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What a gateway knows about one sampled op once its `Response` left:
/// the issue callback (t1..t2), the ack callback that completed it
/// (t5..t6), and which replica that ack came from.
#[derive(Clone, Copy, Debug)]
pub struct GwSample {
    pub op_id: u64,
    pub range: ReqRange,
    pub issue_start_ns: u64,
    pub issue_end_ns: u64,
    pub done_start_ns: u64,
    pub done_end_ns: u64,
    pub critical_node: ActorId,
}

/// Raw spans live in memory reserved up front: a measured window never
/// grows a vector, it counts what did not fit.
fn push_within_capacity<T>(kept: &mut Vec<T>, item: T, dropped: &mut u64) {
    if kept.len() == kept.capacity() {
        *dropped += 1;
    } else {
        kept.push(item);
    }
}

struct IssuedOp {
    range: ReqRange,
    start_ns: u64,
    end_ns: u64,
}

/// Ties generator `op_id`s to `RequestId`s from what one gateway receives
/// and sends.
#[derive(Default)]
pub struct GwTrack {
    in_flight: HashSet<(ReqClass, u64)>,
    ops: HashMap<u64, IssuedOp>,
    pub acks: u64,
    /// Acks handled after their op's `Response` had left: wasted work.
    pub late_acks: u64,
    pub apply_ns: u64,
    pub lock_ns: u64,
    /// Request callback start → `Response` emitted, per class.
    pub write_op_ns: Hist,
    pub read_op_ns: Hist,
    pub samples: Vec<GwSample>,
    /// Sampled ops not kept because `samples` was full.
    pub dropped: u64,
}

impl GwTrack {
    /// After the callback that handled `Request{op_id}`: remembers which
    /// requests it fanned out. A request parked in the gateway's backlog
    /// sends nothing and is not tracked.
    fn issued(&mut self, op_id: u64, sends: &[(ActorId, SednaMsg)], start_ns: u64, end_ns: u64) {
        let mut range: Option<ReqRange> = None;
        for (_, msg) in sends {
            let SednaMsg::Replica(op) = msg else { continue };
            let Some(r) = ReqRange::of(op) else { continue };
            let merged = range.get_or_insert(r);
            merged.lo = merged.lo.min(r.lo);
            merged.hi = merged.hi.max(r.hi);
        }
        let Some(range) = range else { return };
        for req in range.lo..=range.hi {
            self.in_flight.insert((range.class, req));
        }
        self.ops.insert(
            op_id,
            IssuedOp {
                range,
                start_ns,
                end_ns,
            },
        );
    }

    /// Before an ack callback: counts each (sub-)ack and what it reports.
    fn acked(&mut self, op: &ReplicaOp) {
        for ack in sub_ops(op) {
            let (req, apply, lock) = match ack {
                ReplicaOp::WriteAck {
                    apply_nanos,
                    lock_nanos,
                    ..
                }
                | ReplicaOp::ReadReply {
                    apply_nanos,
                    lock_nanos,
                    ..
                } => (req_of(ack), *apply_nanos, *lock_nanos),
                _ => continue,
            };
            self.acks += 1;
            self.apply_ns += apply;
            self.lock_ns += lock;
            if !req.is_some_and(|r| self.in_flight.contains(&r)) {
                self.late_acks += 1;
            }
        }
    }

    /// After any callback: every `Response` among `sends` completes its op.
    /// `from` is the sender of the message being handled (`None` on timers,
    /// where a deadline, not a replica, ended the op).
    fn completed(
        &mut self,
        sends: &[(ActorId, SednaMsg)],
        from: Option<ActorId>,
        start_ns: u64,
        end_ns: u64,
    ) {
        for (_, msg) in sends {
            let SednaMsg::Client(ClientFrame::Response { op_id, .. }) = msg else {
                continue;
            };
            let Some(op) = self.ops.remove(op_id) else {
                continue;
            };
            for req in op.range.lo..=op.range.hi {
                self.in_flight.remove(&(op.range.class, req));
            }
            match op.range.class {
                ReqClass::Write => self.write_op_ns.record(end_ns - op.start_ns),
                ReqClass::Read => self.read_op_ns.record(end_ns - op.start_ns),
            }
            let (Some(node), true) = (from, op.range.sampled()) else {
                continue;
            };
            let sample = GwSample {
                op_id: *op_id,
                range: op.range,
                issue_start_ns: op.start_ns,
                issue_end_ns: op.end_ns,
                done_start_ns: start_ns,
                done_end_ns: end_ns,
                critical_node: node,
            };
            push_within_capacity(&mut self.samples, sample, &mut self.dropped);
        }
    }
}

/// Everything one wrapper measured; read back after shutdown.
pub struct ActorRecord {
    pub class: ActorClass,
    pub id: ActorId,
    /// Callback durations (ns) per [`Kind`].
    pub kinds: Vec<Hist>,
    pub sends: u64,
    pub send_bytes: u64,
    /// Sub-ops carried by the `Batch` frames a node handled.
    pub batch_sub_ops: u64,
    pub node_spans: Vec<NodeSpan>,
    /// Sampled node callbacks not kept because `node_spans` was full.
    pub spans_dropped: u64,
    pub gw: GwTrack,
}

impl ActorRecord {
    fn new(class: ActorClass) -> ActorRecord {
        let (span_cap, sample_cap) = match class {
            ActorClass::Node => (1 << 17, 0),
            ActorClass::Gateway => (0, 1 << 16),
            _ => (0, 0),
        };
        ActorRecord {
            class,
            id: ActorId::EXTERNAL,
            kinds: (0..KINDS).map(|_| Hist::default()).collect(),
            sends: 0,
            send_bytes: 0,
            batch_sub_ops: 0,
            node_spans: Vec::with_capacity(span_cap),
            spans_dropped: 0,
            gw: GwTrack {
                samples: Vec::with_capacity(sample_cap),
                ..GwTrack::default()
            },
        }
    }

    pub fn kind(&self, kind: Kind) -> &Hist {
        &self.kinds[kind as usize]
    }

    /// Total callback time (ns), optionally of one kind only.
    pub fn busy_ns(&self, only: Option<Kind>) -> u64 {
        match only {
            Some(k) => self.kind(k).sum(),
            None => self.kinds.iter().map(Hist::sum).sum(),
        }
    }
}

/// The tracing wrapper. Behaves exactly like `inner` as far as the
/// runtime and the other actors can tell.
pub struct Traced<A> {
    inner: A,
    shared: Arc<TraceShared>,
    fx: Effects<SednaMsg>,
    pub rec: ActorRecord,
}

impl<A: Actor<Msg = SednaMsg> + 'static> Traced<A> {
    pub fn new(inner: A, class: ActorClass, shared: Arc<TraceShared>) -> Self {
        Traced {
            inner,
            shared,
            fx: Effects::default(),
            rec: ActorRecord::new(class),
        }
    }

    /// Runs one inner callback against the private effect buffer and
    /// returns its (start, end) stamps.
    fn run_inner(
        &mut self,
        ctx: &mut Ctx<'_, SednaMsg>,
        call: impl FnOnce(&mut A, &mut Ctx<'_, SednaMsg>),
    ) -> (u64, u64) {
        self.fx.clear();
        let (now, id) = (ctx.now(), ctx.self_id());
        let mut inner_ctx = Ctx::new(now, id, ctx.rng(), &mut self.fx);
        let start = self.shared.now_ns();
        call(&mut self.inner, &mut inner_ctx);
        (start, self.shared.now_ns())
    }

    /// Books the callback and hands its effects to the real context:
    /// sends in order, then timer ops in issue order, then halt — the
    /// order the runtime itself applies them in.
    fn finish(
        &mut self,
        kind: Kind,
        from: Option<ActorId>,
        request: Option<u64>,
        inbound: Option<ReqRange>,
        (start, end): (u64, u64),
        ctx: &mut Ctx<'_, SednaMsg>,
    ) {
        if self.rec.class == ActorClass::Gateway {
            if let Some(op_id) = request {
                self.rec.gw.issued(op_id, &self.fx.sends, start, end);
            }
            self.rec.gw.completed(&self.fx.sends, from, start, end);
        }
        self.rec.kinds[kind as usize].record(end - start);
        self.rec.sends += self.fx.sends.len() as u64;
        self.rec.send_bytes += self
            .fx
            .sends
            .iter()
            .map(|(_, m)| m.size_bytes() as u64)
            .sum::<u64>();
        if let (ActorClass::Node, Some(range), Some(gateway)) = (self.rec.class, inbound, from) {
            if range.sampled() {
                let span = NodeSpan {
                    gateway,
                    range,
                    kind,
                    start_ns: start,
                    end_ns: end,
                };
                let rec = &mut self.rec;
                push_within_capacity(&mut rec.node_spans, span, &mut rec.spans_dropped);
            }
        }
        for (to, msg) in self.fx.sends.drain(..) {
            ctx.send(to, msg);
        }
        for op in self.fx.timer_ops.drain(..) {
            match op {
                TimerOp::Set(token, delay) => ctx.set_timer(token, delay),
                TimerOp::Cancel(token) => ctx.cancel_timer(token),
            }
        }
        if self.fx.halt {
            ctx.halt();
        }
    }
}

impl<A: Actor<Msg = SednaMsg> + 'static> Actor for Traced<A> {
    type Msg = SednaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SednaMsg>) {
        self.rec.id = ctx.self_id();
        if !self.shared.tracing() {
            return self.inner.on_start(ctx);
        }
        let stamps = self.run_inner(ctx, |a, c| a.on_start(c));
        self.finish(Kind::Start, None, None, None, stamps, ctx);
    }

    fn on_message(&mut self, from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
        if !self.shared.tracing() {
            return self.inner.on_message(from, msg, ctx);
        }
        let kind = classify(&msg);
        let mut request = None;
        let mut inbound = None;
        match &msg {
            SednaMsg::Client(ClientFrame::Request { op_id, .. }) => request = Some(*op_id),
            SednaMsg::Replica(op) => match self.rec.class {
                ActorClass::Gateway => self.rec.gw.acked(op),
                ActorClass::Node => {
                    if let ReplicaOp::Batch { ops } = op {
                        self.rec.batch_sub_ops += ops.len() as u64;
                    }
                    if matches!(kind, Kind::Write | Kind::Read | Kind::Batch) {
                        inbound = ReqRange::of(op);
                    }
                }
                _ => {}
            },
            _ => {}
        }
        let stamps = self.run_inner(ctx, |a, c| a.on_message(from, msg, c));
        self.finish(kind, Some(from), request, inbound, stamps, ctx);
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
        if !self.shared.tracing() {
            return self.inner.on_timer(token, ctx);
        }
        let stamps = self.run_inner(ctx, |a, c| a.on_timer(token, c));
        self.finish(Kind::Timer, None, None, None, stamps, ctx);
    }
}

// ---------------------------------------------------------------------------
// Joining the records into per-op critical paths
// ---------------------------------------------------------------------------

/// The seven segments of an op's critical path, in order. Their bounds are
/// eight consecutive stamps on one clock, so they telescope to the op's
/// latency: generator send → gateway request callback start → its end →
/// critical replica's callback start → its end → completing ack callback
/// start → its end → generator receive.
pub const PATH_SEGMENTS: [&str; 7] = [
    "net.client_in_us",
    "client.issue_us",
    "net.req_hop_us",
    "node.handle_us",
    "net.ack_hop_us",
    "client.assemble_us",
    "net.client_out_us",
];

/// One sampled op with all eight stamps found.
#[derive(Clone, Copy, Debug)]
pub struct OpPath {
    pub sample: GwSample,
    pub gateway: ActorId,
    pub critical: NodeSpan,
    pub stamps: [u64; 8],
}

impl OpPath {
    pub fn segments(&self) -> [u64; 7] {
        std::array::from_fn(|i| self.stamps[i + 1] - self.stamps[i])
    }

    pub fn latency_ns(&self) -> u64 {
        self.stamps[7] - self.stamps[0]
    }
}

/// Send and receive stamps the generator kept per op, indexed by
/// `op_id - first_op_id`. (0, 0) = not recorded.
pub struct GenTimes {
    pub first_op_id: u64,
    pub times: Vec<(u64, u64)>,
}

impl GenTimes {
    pub fn new(first_op_id: u64, capacity: usize) -> GenTimes {
        GenTimes {
            first_op_id,
            times: vec![(0, 0); capacity],
        }
    }

    fn slot(&mut self, op_id: u64) -> Option<&mut (u64, u64)> {
        self.times
            .get_mut(op_id.checked_sub(self.first_op_id)? as usize)
    }

    pub fn sent(&mut self, op_id: u64, at_ns: u64) {
        if let Some(s) = self.slot(op_id) {
            s.0 = at_ns;
        }
    }

    pub fn received(&mut self, op_id: u64, at_ns: u64) {
        if let Some(s) = self.slot(op_id) {
            s.1 = at_ns;
        }
    }

    fn get(&self, op_id: u64) -> Option<(u64, u64)> {
        let t = *self
            .times
            .get(op_id.checked_sub(self.first_op_id)? as usize)?;
        (t.0 != 0 && t.1 != 0).then_some(t)
    }
}

/// Node spans of all nodes, ordered for range lookup.
pub struct SpanIndex {
    /// Sorted by (node, gateway, class, lo).
    spans: Vec<(ActorId, NodeSpan)>,
}

impl SpanIndex {
    pub fn build(records: &[&ActorRecord]) -> SpanIndex {
        let mut spans: Vec<(ActorId, NodeSpan)> = records
            .iter()
            .filter(|r| r.class == ActorClass::Node)
            .flat_map(|r| r.node_spans.iter().map(|s| (r.id, *s)))
            .collect();
        spans.sort_by_key(|(node, s)| (*node, s.gateway, s.range.class, s.range.lo));
        SpanIndex { spans }
    }

    /// The callbacks on `node` that served requests `range` of `gateway`
    /// (several when a group was split over more than one frame).
    pub fn serving(
        &self,
        node: ActorId,
        gateway: ActorId,
        range: ReqRange,
    ) -> impl Iterator<Item = &NodeSpan> {
        let key = |n: ActorId, s: &NodeSpan| (n, s.gateway, s.range.class, s.range.lo);
        let first = self
            .spans
            .partition_point(|(n, s)| key(*n, s) < (node, gateway, range.class, range.lo));
        self.spans[first..]
            .iter()
            .take_while(move |(n, s)| key(*n, s) <= (node, gateway, range.class, range.hi))
            .map(|(_, s)| s)
            .filter(move |s| s.range.hi <= range.hi)
    }

    pub fn nodes(&self) -> impl Iterator<Item = ActorId> + '_ {
        let mut last = None;
        self.spans
            .iter()
            .filter_map(move |(n, _)| (last.replace(*n) != Some(*n)).then_some(*n))
    }
}

/// Cuts every sampled op whose eight stamps can all be found. The
/// critical replica is the one whose ack emitted the `Response`; of its
/// callbacks serving the op, the last to end before that ack was handled.
pub fn join_paths(records: &[&ActorRecord], index: &SpanIndex, gen: &GenTimes) -> Vec<OpPath> {
    let mut paths = Vec::new();
    for rec in records.iter().filter(|r| r.class == ActorClass::Gateway) {
        for sample in &rec.gw.samples {
            let Some((sent, received)) = gen.get(sample.op_id) else {
                continue;
            };
            let critical = index
                .serving(sample.critical_node, rec.id, sample.range)
                .filter(|s| s.end_ns <= sample.done_start_ns)
                .max_by_key(|s| s.end_ns);
            let Some(critical) = critical else { continue };
            let stamps = [
                sent,
                sample.issue_start_ns,
                sample.issue_end_ns,
                critical.start_ns,
                critical.end_ns,
                sample.done_start_ns,
                sample.done_end_ns,
                received,
            ];
            if stamps.windows(2).all(|w| w[0] <= w[1]) {
                paths.push(OpPath {
                    sample: *sample,
                    gateway: rec.id,
                    critical: *critical,
                    stamps,
                });
            }
        }
    }
    paths
}

/// Raw spans of the first `max_ops` paths as a JSON array of
/// `{op, actor, kind, start_ns, end_ns, parent}`; `parent` is the index of
/// the causing span in the array (`null` for the generator's root span).
pub fn spans_json(paths: &[OpPath], index: &SpanIndex, max_ops: usize) -> String {
    let mut out = String::from("[\n");
    let mut n = 0usize;
    let mut push = |out: &mut String,
                    op: u64,
                    actor: String,
                    kind: &str,
                    s: u64,
                    e: u64,
                    parent: Option<usize>| {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        if n > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"op\":{op},\"actor\":\"{actor}\",\"kind\":\"{kind}\",\"start_ns\":{s},\"end_ns\":{e},\"parent\":{parent}}}"
        ));
        n += 1;
        n - 1
    };
    let nodes: Vec<ActorId> = index.nodes().collect();
    for p in paths.iter().take(max_ops) {
        let op = p.sample.op_id;
        let t = &p.stamps;
        let root = push(
            &mut out,
            op,
            "generator".into(),
            "client_op",
            t[0],
            t[7],
            None,
        );
        let issue = push(
            &mut out,
            op,
            format!("{:?}", p.gateway),
            "issue",
            t[1],
            t[2],
            Some(root),
        );
        let mut critical = issue;
        for &node in &nodes {
            for s in index.serving(node, p.gateway, p.sample.range) {
                let kind = KIND_NAMES[s.kind as usize];
                let id = push(
                    &mut out,
                    op,
                    format!("{node:?}"),
                    kind,
                    s.start_ns,
                    s.end_ns,
                    Some(issue),
                );
                if node == p.sample.critical_node && s.end_ns == p.critical.end_ns {
                    critical = id;
                }
            }
        }
        push(
            &mut out,
            op,
            format!("{:?}", p.gateway),
            "assemble",
            t[5],
            t[6],
            Some(critical),
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::time::Timestamp;
    use sedna_common::{CausalContext, Key, RequestId, TraceId, Value};
    use sedna_core::messages::{ClientOp, ClientResult, ReplicaWriteAck, WriteKind};
    use sedna_net::threaded::{ThreadNet, ThreadNetConfig};
    use std::time::Duration;

    fn write(req: u64) -> ReplicaOp {
        ReplicaOp::Write {
            req: RequestId(req),
            key: Key::from("k"),
            ts: Timestamp::ZERO,
            value: Value::from("v"),
            kind: WriteKind::Latest,
            ctx: CausalContext::EMPTY,
            trace: TraceId(0),
        }
    }

    fn write_ack(req: u64) -> ReplicaOp {
        ReplicaOp::WriteAck {
            req: RequestId(req),
            ack: ReplicaWriteAck::Ok,
            apply_nanos: 100,
            lock_nanos: 10,
        }
    }

    fn response(op_id: u64) -> (ActorId, SednaMsg) {
        (
            ActorId::EXTERNAL,
            SednaMsg::Client(ClientFrame::Response {
                op_id,
                result: ClientResult::Ok,
            }),
        )
    }

    fn track() -> GwTrack {
        GwTrack {
            samples: Vec::with_capacity(8),
            ..GwTrack::default()
        }
    }

    #[test]
    fn sampling_is_a_function_of_the_request_ids() {
        let r = |lo, hi| ReqRange {
            class: ReqClass::Write,
            lo,
            hi,
        };
        assert!(r(16, 16).sampled());
        assert!(!r(17, 31).sampled());
        assert!(r(17, 32).sampled());
        assert!(r(1, 16).sampled());
        assert!(!r(1, 15).sampled());
    }

    #[test]
    fn single_write_is_matched_and_third_ack_is_late() {
        let mut gw = track();
        let sends: Vec<_> = (4..7)
            .map(|n| (ActorId(n), SednaMsg::Replica(write(32))))
            .collect();
        gw.issued(900, &sends, 1_000, 1_500);
        gw.acked(&write_ack(32));
        gw.completed(&[], Some(ActorId(4)), 2_000, 2_100);
        assert!(gw.samples.is_empty(), "W=2: first ack completes nothing");
        gw.acked(&write_ack(32));
        gw.completed(&[response(900)], Some(ActorId(6)), 3_000, 3_200);
        gw.acked(&write_ack(32));
        assert_eq!((gw.acks, gw.late_acks), (3, 1));
        assert_eq!((gw.apply_ns, gw.lock_ns), (300, 30));
        assert_eq!(gw.write_op_ns.count(), 1);
        assert_eq!(gw.write_op_ns.sum(), 2_200, "t6 - t1");
        let s = gw.samples[0];
        assert_eq!(s.op_id, 900);
        assert_eq!((s.range.lo, s.range.hi), (32, 32));
        assert_eq!(s.critical_node, ActorId(6));
        assert_eq!(
            (
                s.issue_start_ns,
                s.issue_end_ns,
                s.done_start_ns,
                s.done_end_ns
            ),
            (1_000, 1_500, 3_000, 3_200)
        );
        assert!(gw.in_flight.is_empty() && gw.ops.is_empty());
    }

    #[test]
    fn group_op_is_matched_through_batch_and_ack_batch() {
        let mut gw = track();
        let batch = |reqs: std::ops::RangeInclusive<u64>| ReplicaOp::Batch {
            ops: reqs.map(write).collect(),
        };
        // 16 keys → reqs 33..=48, one Batch per node.
        let sends: Vec<_> = (4..7)
            .map(|n| (ActorId(n), SednaMsg::Replica(batch(33..=48))))
            .collect();
        assert_eq!(
            ReqRange::of(&batch(33..=48)),
            Some(ReqRange {
                class: ReqClass::Write,
                lo: 33,
                hi: 48
            })
        );
        gw.issued(7, &sends, 10, 20);
        assert_eq!(gw.in_flight.len(), 16);
        let acks = ReplicaOp::AckBatch {
            acks: (33..=48).map(write_ack).collect(),
        };
        gw.acked(&acks);
        gw.completed(&[], Some(ActorId(5)), 30, 40);
        gw.acked(&acks);
        gw.completed(&[response(7)], Some(ActorId(4)), 50, 60);
        gw.acked(&acks);
        assert_eq!((gw.acks, gw.late_acks), (48, 16));
        assert_eq!(gw.samples.len(), 1);
        assert_eq!(gw.samples[0].critical_node, ActorId(4));
        assert_eq!((gw.samples[0].range.lo, gw.samples[0].range.hi), (33, 48));
        assert!(gw.in_flight.is_empty());
    }

    #[test]
    fn deadline_responses_and_unsampled_ops_leave_no_sample() {
        let mut gw = track();
        let to_node = |req| vec![(ActorId(4), SednaMsg::Replica(write(req)))];
        gw.issued(1, &to_node(16), 0, 1);
        gw.completed(&[response(1)], None, 5, 6);
        gw.issued(2, &to_node(17), 0, 1);
        gw.completed(&[response(2)], Some(ActorId(4)), 5, 6);
        assert!(gw.samples.is_empty());
        assert_eq!(gw.write_op_ns.count(), 2, "both still have a latency");
        assert!(gw.ops.is_empty() && gw.in_flight.is_empty());
    }

    fn node_record(id: u32, spans: Vec<NodeSpan>) -> ActorRecord {
        let mut r = ActorRecord::new(ActorClass::Node);
        r.id = ActorId(id);
        r.node_spans = spans;
        r
    }

    #[test]
    fn seven_segments_telescope_to_the_latency() {
        let range = ReqRange {
            class: ReqClass::Read,
            lo: 64,
            hi: 64,
        };
        let span = |start_ns, end_ns| NodeSpan {
            gateway: ActorId(7),
            range,
            kind: Kind::Read,
            start_ns,
            end_ns,
        };
        // Same RequestId from the *other* gateway and the write class must
        // not match.
        let mut foreign = span(1, 2);
        foreign.gateway = ActorId(8);
        let mut other_class = span(1, 2);
        other_class.range.class = ReqClass::Write;
        let nodes = [
            node_record(4, vec![span(400, 470), foreign]),
            node_record(5, vec![span(390, 450), other_class]),
            node_record(6, vec![span(900, 950)]),
        ];
        let mut gw = ActorRecord::new(ActorClass::Gateway);
        gw.id = ActorId(7);
        gw.gw.samples.push(GwSample {
            op_id: 12,
            range,
            issue_start_ns: 150,
            issue_end_ns: 300,
            done_start_ns: 600,
            done_end_ns: 640,
            critical_node: ActorId(4),
        });
        let mut gen = GenTimes::new(10, 8);
        gen.sent(12, 100);
        gen.received(12, 800);
        gen.sent(99, 1); // out of range: ignored
        let records: Vec<&ActorRecord> = nodes.iter().chain([&gw]).collect();
        let index = SpanIndex::build(&records);
        let paths = join_paths(&records, &index, &gen);
        assert_eq!(paths.len(), 1);
        let p = paths[0];
        assert_eq!(p.segments(), [50, 150, 100, 70, 130, 40, 160]);
        assert_eq!(p.segments().iter().sum::<u64>(), p.latency_ns());
        assert_eq!(p.latency_ns(), 700);
        let json = spans_json(&paths, &index, 10);
        assert_eq!(
            json.matches("\"op\":12").count(),
            6,
            "root, issue, 3 nodes, assemble"
        );
        assert!(json.contains("\"kind\":\"assemble\",\"start_ns\":600,\"end_ns\":640,\"parent\":2"));
    }

    #[test]
    fn op_without_generator_stamps_or_node_span_is_skipped() {
        let range = ReqRange {
            class: ReqClass::Write,
            lo: 16,
            hi: 16,
        };
        let mut gw = ActorRecord::new(ActorClass::Gateway);
        gw.id = ActorId(7);
        gw.gw.samples.push(GwSample {
            op_id: 1,
            range,
            issue_start_ns: 2,
            issue_end_ns: 3,
            done_start_ns: 6,
            done_end_ns: 7,
            critical_node: ActorId(4),
        });
        let records = [&gw];
        let index = SpanIndex::build(&records);
        let mut gen = GenTimes::new(0, 4);
        assert!(join_paths(&records, &index, &gen).is_empty(), "no stamps");
        gen.sent(1, 1);
        gen.received(1, 9);
        assert!(
            join_paths(&records, &index, &gen).is_empty(),
            "no node span"
        );
    }

    // A toy actor that exercises every effect: two sends per request, a
    // timer that is armed and cancelled in the same callback (must never
    // fire) and one that fires once.
    struct Toy;
    const T_CANCELLED: TimerToken = TimerToken(1);
    const T_FIRES: TimerToken = TimerToken(2);

    impl Actor for Toy {
        type Msg = SednaMsg;
        fn on_message(&mut self, from: ActorId, msg: SednaMsg, ctx: &mut Ctx<'_, SednaMsg>) {
            if let SednaMsg::Client(ClientFrame::Request { op_id, .. }) = msg {
                ctx.set_timer(T_CANCELLED, 2_000);
                ctx.send(from, response(op_id).1);
                ctx.cancel_timer(T_CANCELLED);
                ctx.send(from, response(op_id + 1_000).1);
                if op_id == 3 {
                    ctx.set_timer(T_FIRES, 1_000);
                }
            }
        }
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, SednaMsg>) {
            let id = if token == T_FIRES { 7_777 } else { 6_666 };
            ctx.send(ActorId::EXTERNAL, response(id).1);
        }
    }

    fn drive(
        actor: Box<dyn Actor<Msg = SednaMsg>>,
    ) -> (Vec<u64>, Vec<Box<dyn Actor<Msg = SednaMsg>>>) {
        let mut net = ThreadNet::new(ThreadNetConfig::default());
        let toy = net.add_actor(actor);
        let handle = net.start();
        for op_id in 1..=3 {
            let op = ClientOp::ReadLatest {
                key: Key::from("k"),
            };
            handle.send(toy, SednaMsg::Client(ClientFrame::Request { op_id, op }));
        }
        let mut seen = Vec::new();
        while let Some((_, msg)) = handle.recv_timeout(Duration::from_millis(300)) {
            if let SednaMsg::Client(ClientFrame::Response { op_id, .. }) = msg {
                seen.push(op_id);
            }
        }
        (seen, handle.shutdown())
    }

    #[test]
    fn wrapper_replays_sends_and_timer_ops_in_issue_order() {
        let (bare, _) = drive(Box::new(Toy));
        let wrapped = |tracing: bool| {
            let shared = TraceShared::new();
            shared.set_tracing(tracing);
            drive(Box::new(Traced::new(Toy, ActorClass::Gateway, shared)))
        };
        let (traced, actors) = wrapped(true);
        let (bypassed, idle_actors) = wrapped(false);
        let want = vec![1, 1_001, 2, 1_002, 3, 1_003, 7_777];
        assert_eq!(
            bare, want,
            "set→cancel leaves the timer off; 6_666 never shows"
        );
        assert_eq!(traced, want);
        assert_eq!(bypassed, want);
        let record = |actors: &[Box<dyn Actor<Msg = SednaMsg>>]| -> (ActorId, Vec<u64>, u64) {
            let rec = &actors[0]
                .as_any()
                .downcast_ref::<Traced<Toy>>()
                .expect("the wrapper comes back from shutdown")
                .rec;
            let counts = [Kind::Start, Kind::Request, Kind::Timer].map(|k| rec.kind(k).count());
            assert_eq!(
                counts.iter().sum::<u64>(),
                rec.kinds.iter().map(Hist::count).sum()
            );
            assert_eq!(
                rec.busy_ns(None),
                rec.kinds.iter().map(Hist::sum).sum::<u64>()
            );
            (rec.id, counts.to_vec(), rec.sends)
        };
        assert_eq!(record(&actors), (ActorId(0), vec![1, 3, 1], 7));
        assert_eq!(
            record(&idle_actors),
            (ActorId(0), vec![0, 0, 0], 0),
            "switched off, the wrapper only forwards"
        );
    }
}
