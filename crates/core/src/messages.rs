//! The cluster-wide message type.
//!
//! One Sedna deployment runs three protocols over one runtime: the
//! coordination ensemble ([`CoordMsg`]), the replica data path
//! ([`ReplicaOp`]), and the external client/gateway frames
//! ([`ClientFrame`]). [`SednaMsg`] composes them; `Wrap` impls let the
//! substrate actors (written against their own enums) run unchanged.

use sedna_common::time::Timestamp;
use sedna_common::{CausalContext, Key, NodeId, RequestId, TraceId, VNodeId, Value};
use sedna_coord::messages::CoordMsg;
use sedna_memstore::VersionedValue;
use sedna_net::actor::{MessageSize, Wrap};
use sedna_triggers::JobSpec;

/// The two write APIs (Sec. III-F).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// `write_latest`.
    Latest,
    /// `write_all`.
    All,
}

/// A replica's verdict on a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaWriteAck {
    /// Stored (`'ok'`).
    Ok,
    /// Lost to a newer timestamp (`'outdated'`).
    Outdated,
    /// This node does not own the key's vnode (stale routing) — the client
    /// must refresh its ring cache and retry.
    Refused,
}

/// A replica's reply to a read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaReadReply {
    /// The row's value list plus its row clock. The clock is what lets
    /// the coordinator tell a *causally pruned* sibling (covered by the
    /// clock) from a sibling the replica simply has not seen yet — the
    /// session-floor gate on clean reads depends on it.
    Values {
        /// The row's (possibly multi-sibling) version list.
        versions: Vec<VersionedValue>,
        /// The row's dotted-version-vector clock.
        clock: CausalContext,
    },
    /// Key unknown here.
    Missing,
    /// Not the owner (stale routing).
    Refused,
}

/// Node-to-node / client-to-node data-path operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplicaOp {
    /// Timestamped replica write.
    Write {
        /// Correlation id (one per client op; replies are keyed by sender).
        req: RequestId,
        /// Key.
        key: Key,
        /// Write timestamp (origin identifies the source server).
        ts: Timestamp,
        /// Value.
        value: Value,
        /// Which write API.
        kind: WriteKind,
        /// The writer's causal context: every dot the client had observed
        /// for this key before issuing the write. Empty for blind writes.
        ctx: CausalContext,
        /// Distributed trace of the client op this write belongs to.
        trace: TraceId,
    },
    /// Reply to [`ReplicaOp::Write`].
    WriteAck {
        /// Correlation id.
        req: RequestId,
        /// Verdict.
        ack: ReplicaWriteAck,
        /// Wall-clock nanoseconds the replica spent in its store applying
        /// this op — reported back so the client can place a node-apply
        /// span inside the op's trace.
        apply_nanos: u64,
        /// Always 0: a store has one owner and no lock to wait on. The
        /// client ignores it; it stays on the wire only because the
        /// frozen benchmark's trace reader destructures it.
        lock_nanos: u64,
    },
    /// Replica read.
    Read {
        /// Correlation id.
        req: RequestId,
        /// Key.
        key: Key,
        /// Distributed trace of the client op this read belongs to.
        trace: TraceId,
    },
    /// Reply to [`ReplicaOp::Read`].
    ReadReply {
        /// Correlation id.
        req: RequestId,
        /// Reply.
        reply: ReplicaReadReply,
        /// Store-apply time on the replica, in nanoseconds (see
        /// [`ReplicaOp::WriteAck::apply_nanos`]).
        apply_nanos: u64,
        /// Always 0 (see [`ReplicaOp::WriteAck::lock_nanos`]).
        lock_nanos: u64,
    },
    /// Read-repair push: merge these versions. The replica acknowledges
    /// with [`ReplicaOp::PushAck`] so the client can track outstanding
    /// repairs and time-to-convergence; the datapath never blocks on it.
    Push {
        /// Correlation id (for the repair-convergence tracker).
        req: RequestId,
        /// Key.
        key: Key,
        /// Versions to merge.
        versions: Vec<VersionedValue>,
    },
    /// Reply to [`ReplicaOp::Push`]: the versions are merged locally.
    PushAck {
        /// Correlation id.
        req: RequestId,
    },
    /// "Send me vnode `vnode`'s rows" (data duplication / migration).
    TransferRequest {
        /// The vnode to ship.
        vnode: VNodeId,
        /// Which node asks (for addressing the reply).
        to_node: NodeId,
    },
    /// Bulk vnode data (reply to [`ReplicaOp::TransferRequest`]).
    TransferData {
        /// The vnode.
        vnode: VNodeId,
        /// The rows, each with its causal row clock so the receiver merges
        /// without resurrecting siblings the sender causally pruned.
        rows: Vec<(Key, CausalContext, Vec<VersionedValue>)>,
    },
    /// Destination → source: the vnode's rows are installed; the source
    /// may drop its local copy if it is no longer a replica. Ordering this
    /// *after* the data transfer is what makes vnode moves loss-free.
    TransferComplete {
        /// The vnode.
        vnode: VNodeId,
    },
    /// Table scan: return this node's rows under `prefix` for which it is
    /// the *primary* replica (so a scatter over all members yields each key
    /// exactly once).
    Scan {
        /// Correlation id.
        req: RequestId,
        /// Flat-key prefix (a table or dataset prefix from `KeyPath`).
        prefix: Vec<u8>,
    },
    /// Reply to [`ReplicaOp::Scan`]: the matching rows' freshest versions.
    ScanReply {
        /// Correlation id.
        req: RequestId,
        /// `(key, freshest version)` pairs.
        rows: Vec<(Key, VersionedValue)>,
    },
    /// Anti-entropy probe: "here is an order-independent digest of my copy
    /// of `vnode`; if yours differs, exchange rows with me."
    SyncDigest {
        /// The vnode being compared.
        vnode: VNodeId,
        /// XOR-combined per-row fingerprint (commutative, so replicas can
        /// compare without sorting).
        digest: u64,
        /// Which node is probing (for the exchange reply).
        from_node: NodeId,
    },
    /// Anti-entropy ack: the probed replica's digest *matched*. Costs one
    /// u64 and closes the loop for the prober's divergence telemetry — the
    /// prober learns the peer's root (and that it agrees) instead of
    /// inferring health from silence.
    SyncRootMatch {
        /// The vnode that was compared.
        vnode: VNodeId,
        /// The matching root digest.
        root: u64,
        /// Which node is acking.
        from_node: NodeId,
    },
    /// Anti-entropy, second round: the probed replica's digest differed, so
    /// it answers with its 64 Merkle leaf hashes (512 bytes) for divergence
    /// localization.
    SyncLeaves {
        /// The vnode being compared.
        vnode: VNodeId,
        /// Which node is answering.
        from_node: NodeId,
        /// The per-leaf hashes of the answerer's Merkle tree.
        leaves: Box<[u64; 64]>,
    },
    /// Anti-entropy, third round: rows (with clocks) from the leaf buckets
    /// the Merkle diff flagged as divergent, merged on receipt.
    SyncRows {
        /// The vnode being repaired.
        vnode: VNodeId,
        /// Which node is shipping.
        from_node: NodeId,
        /// Bitmap of the divergent leaves these rows cover.
        leaf_mask: u64,
        /// The rows: key, row clock, live versions.
        rows: Vec<(Key, CausalContext, Vec<VersionedValue>)>,
        /// True on the first direction of the exchange: the receiver
        /// answers with its own rows for the same leaves so the repair is
        /// bidirectional without re-probing.
        reply_wanted: bool,
    },
    /// Several data-path ops for the same destination coalesced into one
    /// transport frame (the batched replica datapath). Sub-ops are handled
    /// in order exactly as if they had arrived as individual frames; the
    /// replies they produce come back coalesced as [`ReplicaOp::AckBatch`].
    Batch {
        /// The coalesced sub-ops. Never nested (`Batch`/`AckBatch` inside
        /// a batch is ignored by receivers).
        ops: Vec<ReplicaOp>,
    },
    /// Several acks/replies for the same requester coalesced into one
    /// frame (the reply to a [`ReplicaOp::Batch`]).
    AckBatch {
        /// The coalesced replies ([`ReplicaOp::WriteAck`] /
        /// [`ReplicaOp::ReadReply`] / …), in sub-op order.
        acks: Vec<ReplicaOp>,
    },
}

/// Management-plane messages.
pub enum ControlMsg {
    /// Register a trigger job on the receiving node.
    RegisterJob(JobSpec),
    /// Manager → new replica: acquire `vnode`, copying from `from` when a
    /// source exists.
    MigrateVNode {
        /// The vnode to acquire.
        vnode: VNodeId,
        /// Copy source (`None` on first assignment).
        from: Option<NodeId>,
    },
    /// Manager → former replica: drop local rows of `vnode` (it moved away).
    DropVNode {
        /// The vnode to drop.
        vnode: VNodeId,
    },
}

impl std::fmt::Debug for ControlMsg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlMsg::RegisterJob(spec) => write!(f, "RegisterJob({})", spec.name),
            ControlMsg::MigrateVNode { vnode, from } => {
                write!(f, "MigrateVNode({vnode:?} from {from:?})")
            }
            ControlMsg::DropVNode { vnode } => write!(f, "DropVNode({vnode:?})"),
        }
    }
}

/// Client-visible operations (what the paper's basic APIs expose).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOp {
    /// `write_latest(key, value)`.
    WriteLatest {
        /// Key.
        key: Key,
        /// Value.
        value: Value,
    },
    /// `write_all(key, value)`.
    WriteAll {
        /// Key.
        key: Key,
        /// Value.
        value: Value,
    },
    /// `read_latest(key)`.
    ReadLatest {
        /// Key.
        key: Key,
    },
    /// `read_all(key)`.
    ReadAll {
        /// Key.
        key: Key,
    },
    /// Scan a whole table (extension; see `ClientCore::scan_table`).
    ScanTable {
        /// Dataset name.
        dataset: String,
        /// Table name.
        table: String,
    },
    /// `write_many(pairs)`: one `write_latest` per pair, issued together so
    /// the replica datapath can coalesce frames per destination.
    WriteMany {
        /// The `(key, value)` pairs, answered in this order.
        pairs: Vec<(Key, Value)>,
    },
    /// `read_many(keys)`: one `read_latest` per key, issued together.
    ReadMany {
        /// The keys, answered in this order.
        keys: Vec<Key>,
    },
}

/// Client-visible results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientResult {
    /// Write applied (`'ok'`).
    Ok,
    /// Write lost to a newer timestamp (`'outdated'`).
    Outdated,
    /// `read_latest` result.
    Latest(Option<VersionedValue>),
    /// `read_all` result.
    All(Option<Vec<VersionedValue>>),
    /// Table-scan result: each key exactly once with its freshest version,
    /// sorted by key. Eventually consistent (served from primaries).
    Scanned(Vec<(Key, VersionedValue)>),
    /// Per-key results of a `write_many`/`read_many`, in request order.
    Many(Vec<ClientResult>),
    /// The operation failed (`'failure'`); recovery was scheduled.
    Failed,
}

/// Frames between an external caller and a gateway actor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientFrame {
    /// Perform `op`.
    Request {
        /// Caller-chosen id echoed in the response.
        op_id: u64,
        /// The operation.
        op: ClientOp,
    },
    /// Outcome of a [`ClientFrame::Request`].
    Response {
        /// Echoed id.
        op_id: u64,
        /// The result.
        result: ClientResult,
    },
}

// Replica ops cross threads by the million: a size change moves them (and
// every `Vec<ReplicaOp>` batch) into another allocator size class, which
// has moved end-to-end throughput before. Change this only on purpose.
const _: () = assert!(std::mem::size_of::<ReplicaOp>() == 80);
const _: () = assert!(std::mem::size_of::<SednaMsg>() == 128);

/// The composed runtime message.
#[derive(Debug)]
pub enum SednaMsg {
    /// Coordination-ensemble traffic.
    Coord(CoordMsg),
    /// Data-path traffic.
    Replica(ReplicaOp),
    /// External client frames.
    Client(ClientFrame),
    /// Management plane.
    Control(ControlMsg),
}

impl Wrap<CoordMsg> for SednaMsg {
    fn wrap(inner: CoordMsg) -> Self {
        SednaMsg::Coord(inner)
    }
    fn unwrap(self) -> Result<CoordMsg, Self> {
        match self {
            SednaMsg::Coord(m) => Ok(m),
            other => Err(other),
        }
    }
    fn peek(&self) -> Option<&CoordMsg> {
        match self {
            SednaMsg::Coord(m) => Some(m),
            _ => None,
        }
    }
}

impl Wrap<ReplicaOp> for SednaMsg {
    fn wrap(inner: ReplicaOp) -> Self {
        SednaMsg::Replica(inner)
    }
    fn unwrap(self) -> Result<ReplicaOp, Self> {
        match self {
            SednaMsg::Replica(m) => Ok(m),
            other => Err(other),
        }
    }
    fn peek(&self) -> Option<&ReplicaOp> {
        match self {
            SednaMsg::Replica(m) => Some(m),
            _ => None,
        }
    }
}

impl Wrap<ClientFrame> for SednaMsg {
    fn wrap(inner: ClientFrame) -> Self {
        SednaMsg::Client(inner)
    }
    fn unwrap(self) -> Result<ClientFrame, Self> {
        match self {
            SednaMsg::Client(m) => Ok(m),
            other => Err(other),
        }
    }
    fn peek(&self) -> Option<&ClientFrame> {
        match self {
            SednaMsg::Client(m) => Some(m),
            _ => None,
        }
    }
}

fn versions_size(v: &[VersionedValue]) -> usize {
    v.iter().map(|x| x.value.len() + 24).sum()
}

/// Wire bytes of a causal context: 16 per `(actor, micros, counter)` entry.
/// An empty context (blind writes) costs nothing, so frames
/// that never attach one keep their exact pre-DVV sizes.
fn context_size(ctx: &CausalContext) -> usize {
    ctx.len() * 16
}

/// Wire bytes of clock-carrying sync/transfer rows.
fn clocked_rows_size(rows: &[(Key, CausalContext, Vec<VersionedValue>)]) -> usize {
    rows.iter()
        .map(|(k, c, v)| k.len() + context_size(c) + versions_size(v))
        .sum()
}

impl MessageSize for ReplicaOp {
    fn size_bytes(&self) -> usize {
        // The wire-size model charges trace ids and apply-time metadata to
        // the fixed frame header (they are small fixed-width fields), so
        // the byte math the batching tests assert on is unchanged.
        const HDR: usize = 32;
        HDR + match self {
            ReplicaOp::Write {
                key, value, ctx, ..
            } => key.len() + value.len() + 16 + context_size(ctx),
            ReplicaOp::WriteAck { .. } => 4,
            ReplicaOp::Read { key, .. } => key.len(),
            ReplicaOp::ReadReply { reply, .. } => match reply {
                ReplicaReadReply::Values { versions, clock } => {
                    versions_size(versions) + context_size(clock)
                }
                _ => 4,
            },
            ReplicaOp::Push { key, versions, .. } => key.len() + versions_size(versions),
            ReplicaOp::PushAck { .. } => 4,
            ReplicaOp::TransferRequest { .. }
            | ReplicaOp::TransferComplete { .. }
            | ReplicaOp::SyncDigest { .. }
            | ReplicaOp::SyncRootMatch { .. } => 16,
            ReplicaOp::Scan { prefix, .. } => prefix.len(),
            ReplicaOp::ScanReply { rows, .. } => {
                rows.iter().map(|(k, v)| k.len() + v.value.len() + 24).sum()
            }
            ReplicaOp::TransferData { rows, .. } => clocked_rows_size(rows),
            ReplicaOp::SyncLeaves { .. } => 8 + 64 * 8,
            ReplicaOp::SyncRows { rows, .. } => 16 + clocked_rows_size(rows),
            // A batch pays one frame header for the whole group; every
            // sub-op contributes its body plus an 8-byte sub-header instead
            // of a full frame header of its own.
            ReplicaOp::Batch { ops } | ReplicaOp::AckBatch { acks: ops } => {
                ops.iter().map(|op| op.size_bytes() - HDR + 8).sum()
            }
        }
    }
}

fn client_result_size(result: &ClientResult) -> usize {
    match result {
        ClientResult::Latest(Some(v)) => v.value.len() + 24,
        ClientResult::All(Some(v)) => versions_size(v),
        ClientResult::Scanned(rows) => rows.iter().map(|(k, v)| k.len() + v.value.len() + 24).sum(),
        ClientResult::Many(results) => results.iter().map(client_result_size).sum(),
        _ => 4,
    }
}

impl MessageSize for ClientFrame {
    fn size_bytes(&self) -> usize {
        const HDR: usize = 24;
        HDR + match self {
            ClientFrame::Request { op, .. } => match op {
                ClientOp::WriteLatest { key, value } | ClientOp::WriteAll { key, value } => {
                    key.len() + value.len()
                }
                ClientOp::ReadLatest { key } | ClientOp::ReadAll { key } => key.len(),
                ClientOp::ScanTable { dataset, table } => dataset.len() + table.len(),
                ClientOp::WriteMany { pairs } => pairs.iter().map(|(k, v)| k.len() + v.len()).sum(),
                ClientOp::ReadMany { keys } => keys.iter().map(|k| k.len()).sum(),
            },
            ClientFrame::Response { result, .. } => client_result_size(result),
        }
    }
}

impl MessageSize for SednaMsg {
    fn size_bytes(&self) -> usize {
        match self {
            SednaMsg::Coord(m) => m.size_bytes(),
            SednaMsg::Replica(m) => m.size_bytes(),
            SednaMsg::Client(m) => m.size_bytes(),
            SednaMsg::Control(_) => 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_roundtrips() {
        let m = SednaMsg::wrap(CoordMsg::Commit { term: 1, zxid: 2 });
        let back: Result<CoordMsg, _> = m.unwrap();
        assert!(matches!(back, Ok(CoordMsg::Commit { term: 1, zxid: 2 })));

        let m = SednaMsg::wrap(ReplicaOp::Read {
            req: RequestId(1),
            key: Key::from("k"),
            trace: TraceId(0),
        });
        assert!(Wrap::<ReplicaOp>::unwrap(m).is_ok());

        // Wrong projection returns the message intact.
        let m = SednaMsg::wrap(ReplicaOp::Read {
            req: RequestId(1),
            key: Key::from("k"),
            trace: TraceId(0),
        });
        let back: Result<CoordMsg, SednaMsg> = m.unwrap();
        assert!(matches!(back, Err(SednaMsg::Replica(_))));
    }

    #[test]
    fn data_messages_size_with_payload() {
        let w = SednaMsg::Replica(ReplicaOp::Write {
            req: RequestId(1),
            key: Key::from("test-000000000000000"),
            ts: Timestamp::ZERO,
            value: Value::from_bytes(vec![0u8; 20]),
            ctx: CausalContext::EMPTY,
            kind: WriteKind::Latest,
            trace: TraceId(7),
        });
        assert_eq!(w.size_bytes(), 32 + 20 + 20 + 16);
        let ack = SednaMsg::Replica(ReplicaOp::WriteAck {
            req: RequestId(1),
            ack: ReplicaWriteAck::Ok,
            apply_nanos: 0,
            lock_nanos: 0,
        });
        assert!(ack.size_bytes() < w.size_bytes());
    }

    #[test]
    fn batch_frames_amortize_the_header() {
        let one = ReplicaOp::Write {
            req: RequestId(1),
            key: Key::from("test-000000000000000"),
            ts: Timestamp::ZERO,
            value: Value::from_bytes(vec![0u8; 20]),
            ctx: CausalContext::EMPTY,
            kind: WriteKind::Latest,
            trace: TraceId(7),
        };
        let bare = one.size_bytes();
        let batch = ReplicaOp::Batch {
            ops: vec![one.clone(), one.clone(), one],
        };
        // One 32-byte frame header + 3 × (body + 8-byte sub-header).
        assert_eq!(batch.size_bytes(), 32 + 3 * (bare - 32 + 8));
        assert!(batch.size_bytes() < 3 * bare);
        let acks = ReplicaOp::AckBatch {
            acks: vec![
                ReplicaOp::WriteAck {
                    req: RequestId(1),
                    ack: ReplicaWriteAck::Ok,
                    apply_nanos: 0,
                    lock_nanos: 0,
                };
                3
            ],
        };
        assert_eq!(acks.size_bytes(), 32 + 3 * (4 + 8));
    }
}
