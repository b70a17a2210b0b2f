//! The published imbalance row (Sec. III-B).
//!
//! "We record all the virtual nodes' status including its capacity,
//! read/write frequency. Besides, we also maintain a imbalance table for
//! all the real nodes computed from the virtual nodes' status. This
//! information is calculated and stored locally, and periodically updated
//! to ZooKeeper cluster. It is only necessary to update the imbalance
//! table, which is a quite small comparing with the virtual nodes number."
//!
//! Each node periodically writes one [`ImbalanceRow`] into
//! `/sedna/imbalance/<node>`: its aggregate load plus its top-K hottest
//! vnodes — exactly enough for the manager to run the rebalancer without
//! ever shipping the full per-vnode table.

use sedna_common::{Key, VNodeId};
use sedna_memstore::EngineSnapshot;
use sedna_ring::{HotKeyRow, NodeLoad, VNodeStats};

/// How many hottest vnodes a row advertises.
pub const TOP_K: usize = 8;

/// Compact engine-internals roll-up gossiped alongside the load row, so the
/// manager (and `/vnodes`-style consumers of the imbalance table) can see a
/// node degrading *inside* — probe decay, rehash storms, a slab that stopped
/// recycling, eviction pressure — before it shows up as external latency.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineSummary {
    /// p99 probe length (slots inspected per lookup), sampled.
    pub probe_p99: u64,
    /// Table rehashes.
    pub rehashes: u64,
    /// Slab pages allocated.
    pub slab_pages: u64,
    /// Free slab cells (allocatable without growing).
    pub slab_free_cells: u64,
    /// Eviction rounds run.
    pub evict_rounds: u64,
}

impl EngineSummary {
    /// Condenses a full [`EngineSnapshot`] into the gossiped roll-up.
    pub fn from_snapshot(snap: &EngineSnapshot) -> EngineSummary {
        EngineSummary {
            probe_p99: snap.probe_len.percentile(0.99),
            rehashes: snap.rehashes,
            slab_pages: snap.slab_pages,
            slab_free_cells: snap.slab_free_cells,
            evict_rounds: snap.evict_rounds,
        }
    }

    /// Field values in wire order (the section is `count || fields`).
    fn fields(&self) -> [u64; 5] {
        [
            self.probe_p99,
            self.rehashes,
            self.slab_pages,
            self.slab_free_cells,
            self.evict_rounds,
        ]
    }
}

/// One node's published load summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImbalanceRow {
    /// Aggregate load (same semantics as [`NodeLoad`]).
    pub load: NodeLoad,
    /// This node's hottest vnodes, hottest first: `(vnode, load_score)`.
    pub hottest: Vec<(VNodeId, u64)>,
    /// This node's hottest *keys* (Space-Saving estimates), hottest first.
    pub hot_keys: Vec<HotKeyRow>,
    /// Engine-internals roll-up (absent on rows from older nodes).
    pub engine: Option<EngineSummary>,
}

impl ImbalanceRow {
    /// Builds the row from the node's local per-vnode stats and its owned
    /// vnode set.
    pub fn compute(stats: &[VNodeStats], owned: &[VNodeId]) -> Self {
        let mut load = NodeLoad::default();
        let mut scored: Vec<(VNodeId, u64)> = Vec::with_capacity(owned.len());
        for &v in owned {
            let s = &stats[v.index()];
            load.score += s.load_score();
            load.bytes += s.bytes;
            load.slots += 1;
            scored.push((v, s.load_score()));
        }
        scored.sort_by_key(|&(v, score)| (std::cmp::Reverse(score), v));
        scored.truncate(TOP_K);
        ImbalanceRow {
            load,
            hottest: scored,
            hot_keys: Vec::new(),
            engine: None,
        }
    }

    /// Attaches a hot-key roll-up (hottest first, truncated to [`TOP_K`]).
    pub fn with_hot_keys(mut self, mut keys: Vec<HotKeyRow>) -> Self {
        keys.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then_with(|| a.vnode.cmp(&b.vnode))
                .then_with(|| a.key.cmp(&b.key))
        });
        keys.truncate(TOP_K);
        self.hot_keys = keys;
        self
    }

    /// Attaches the engine-internals roll-up.
    pub fn with_engine(mut self, engine: EngineSummary) -> Self {
        self.engine = Some(engine);
        self
    }

    /// Serializes (little-endian, fixed layout; hot keys length-prefixed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(22 + self.hottest.len() * 12);
        buf.extend_from_slice(&self.load.score.to_le_bytes());
        buf.extend_from_slice(&self.load.bytes.to_le_bytes());
        buf.extend_from_slice(&self.load.slots.to_le_bytes());
        buf.push(self.hottest.len() as u8);
        for &(v, s) in &self.hottest {
            buf.extend_from_slice(&v.0.to_le_bytes());
            buf.extend_from_slice(&s.to_le_bytes());
        }
        buf.push(self.hot_keys.len() as u8);
        for hk in &self.hot_keys {
            buf.extend_from_slice(&hk.vnode.0.to_le_bytes());
            buf.extend_from_slice(&hk.count.to_le_bytes());
            buf.extend_from_slice(&(hk.key.len() as u16).to_le_bytes());
            buf.extend_from_slice(hk.key.as_bytes());
        }
        // Engine section, trailing and optional like hot keys: a field
        // count then that many u64s, so a future row with more fields
        // still decodes here (extras ignored).
        if let Some(e) = &self.engine {
            let fields = e.fields();
            buf.push(fields.len() as u8);
            for f in fields {
                buf.extend_from_slice(&f.to_le_bytes());
            }
        }
        buf
    }

    /// Deserializes; `None` on malformed input. Rows encoded before the
    /// hot-key section existed (ending right after the hottest-vnode
    /// entries) still decode, with an empty `hot_keys`.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 21 {
            return None;
        }
        let score = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let b = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
        let slots = u32::from_le_bytes(bytes[16..20].try_into().ok()?);
        let count = bytes[20] as usize;
        if bytes.len() < 21 + count * 12 {
            return None;
        }
        let mut hottest = Vec::with_capacity(count);
        for i in 0..count {
            let off = 21 + i * 12;
            let v = u32::from_le_bytes(bytes[off..off + 4].try_into().ok()?);
            let s = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().ok()?);
            hottest.push((VNodeId(v), s));
        }
        let mut off = 21 + count * 12;
        let mut hot_keys = Vec::new();
        if off < bytes.len() {
            let hk_count = bytes[off] as usize;
            off += 1;
            hot_keys.reserve(hk_count);
            for _ in 0..hk_count {
                if bytes.len() < off + 14 {
                    return None;
                }
                let v = u32::from_le_bytes(bytes[off..off + 4].try_into().ok()?);
                let c = u64::from_le_bytes(bytes[off + 4..off + 12].try_into().ok()?);
                let klen = u16::from_le_bytes(bytes[off + 12..off + 14].try_into().ok()?) as usize;
                off += 14;
                if bytes.len() < off + klen {
                    return None;
                }
                hot_keys.push(HotKeyRow {
                    vnode: VNodeId(v),
                    key: Key::from_bytes(bytes[off..off + klen].to_vec()),
                    count: c,
                });
                off += klen;
            }
        }
        let mut engine = None;
        if off < bytes.len() {
            let n = bytes[off] as usize;
            off += 1;
            // n = 0 would make any stray trailing byte decode as an empty
            // engine section; the encoder never writes one, so reject it.
            if n == 0 || bytes.len() < off + n * 8 {
                return None;
            }
            let mut fields = [0u64; 5];
            for (i, f) in fields.iter_mut().enumerate().take(n.min(5)) {
                *f = u64::from_le_bytes(bytes[off + i * 8..off + i * 8 + 8].try_into().ok()?);
            }
            off += n * 8;
            engine = Some(EngineSummary {
                probe_p99: fields[0],
                rehashes: fields[1],
                slab_pages: fields[2],
                slab_free_cells: fields[3],
                evict_rounds: fields[4],
            });
        }
        if off != bytes.len() {
            return None;
        }
        Some(ImbalanceRow {
            load: NodeLoad {
                score,
                bytes: b,
                slots,
            },
            hottest,
            hot_keys,
            engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_aggregates_and_ranks() {
        let mut stats = vec![VNodeStats::default(); 10];
        stats[2].reads = 100;
        stats[5].reads = 50;
        stats[7].reads = 300;
        let owned = vec![VNodeId(2), VNodeId(5), VNodeId(7)];
        let row = ImbalanceRow::compute(&stats, &owned);
        assert_eq!(row.load.score, 450);
        assert_eq!(row.load.slots, 3);
        assert_eq!(row.hottest[0], (VNodeId(7), 300));
        assert_eq!(row.hottest[1], (VNodeId(2), 100));
        assert_eq!(row.hottest[2], (VNodeId(5), 50));
    }

    #[test]
    fn top_k_truncates() {
        let stats = vec![
            VNodeStats {
                reads: 1,
                ..Default::default()
            };
            50
        ];
        let owned: Vec<VNodeId> = (0..50).map(VNodeId).collect();
        let row = ImbalanceRow::compute(&stats, &owned);
        assert_eq!(row.hottest.len(), TOP_K);
        assert_eq!(row.load.slots, 50);
    }

    #[test]
    fn compute_breaks_score_ties_by_vnode_id() {
        let mut stats = vec![VNodeStats::default(); 6];
        for v in [5usize, 1, 3] {
            stats[v].reads = 40; // identical scores
        }
        stats[2].reads = 90;
        let owned = vec![VNodeId(5), VNodeId(2), VNodeId(3), VNodeId(1)];
        let row = ImbalanceRow::compute(&stats, &owned);
        assert_eq!(
            row.hottest,
            vec![
                (VNodeId(2), 90),
                (VNodeId(1), 40),
                (VNodeId(3), 40),
                (VNodeId(5), 40),
            ]
        );
    }

    #[test]
    fn compute_with_fewer_than_k_vnodes_keeps_all() {
        let mut stats = vec![VNodeStats::default(); 4];
        stats[0].reads = 3;
        stats[2].reads = 8;
        let row = ImbalanceRow::compute(&stats, &[VNodeId(0), VNodeId(2)]);
        assert!(row.hottest.len() < TOP_K);
        assert_eq!(row.hottest, vec![(VNodeId(2), 8), (VNodeId(0), 3)]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut stats = vec![VNodeStats::default(); 4];
        stats[1].writes = 7;
        stats[1].bytes = 9_000;
        let row = ImbalanceRow::compute(&stats, &[VNodeId(1), VNodeId(3)]);
        let back = ImbalanceRow::decode(&row.encode()).unwrap();
        assert_eq!(row, back);
    }

    #[test]
    fn encode_decode_roundtrip_with_hot_keys() {
        let mut stats = vec![VNodeStats::default(); 4];
        stats[0].reads = 12;
        let row = ImbalanceRow::compute(&stats, &[VNodeId(0), VNodeId(2)]).with_hot_keys(vec![
            HotKeyRow {
                vnode: VNodeId(2),
                key: Key::from("cold"),
                count: 3,
            },
            HotKeyRow {
                vnode: VNodeId(0),
                key: Key::from("cart:42"),
                count: 120,
            },
        ]);
        // with_hot_keys sorts hottest first.
        assert_eq!(row.hot_keys[0].count, 120);
        let back = ImbalanceRow::decode(&row.encode()).unwrap();
        assert_eq!(row, back);
        assert_eq!(back.hot_keys.len(), 2);
        assert_eq!(back.hot_keys[0].key, Key::from("cart:42"));
    }

    #[test]
    fn decode_tolerates_pre_hot_key_rows() {
        // A row serialized by an older node ends right after the hottest
        // entries, with no hot-key section at all.
        let row = ImbalanceRow::compute(&[VNodeStats::default(); 2], &[VNodeId(0)]);
        let mut old = row.encode();
        old.truncate(21 + row.hottest.len() * 12);
        let back = ImbalanceRow::decode(&old).unwrap();
        assert_eq!(back.hottest, row.hottest);
        assert!(back.hot_keys.is_empty());
    }

    #[test]
    fn decode_rejects_malformed() {
        assert!(ImbalanceRow::decode(&[]).is_none());
        assert!(ImbalanceRow::decode(&[0u8; 20]).is_none());
        let row = ImbalanceRow::compute(&[VNodeStats::default()], &[VNodeId(0)]);
        let mut bytes = row.encode();
        bytes.push(0); // trailing garbage
        assert!(ImbalanceRow::decode(&bytes).is_none());
        let mut bytes2 = row.encode();
        bytes2[20] = 5; // claims 5 entries, has fewer
        assert!(ImbalanceRow::decode(&bytes2).is_none());
    }

    #[test]
    fn encode_decode_roundtrip_with_engine_section() {
        let row = ImbalanceRow::compute(&[VNodeStats::default(); 2], &[VNodeId(0), VNodeId(1)])
            .with_hot_keys(vec![HotKeyRow {
                vnode: VNodeId(1),
                key: Key::from("k"),
                count: 5,
            }])
            .with_engine(EngineSummary {
                probe_p99: 4,
                rehashes: 2,
                slab_pages: 3,
                slab_free_cells: 40,
                evict_rounds: 6,
            });
        let back = ImbalanceRow::decode(&row.encode()).unwrap();
        assert_eq!(row, back);
        assert_eq!(back.engine.as_ref().unwrap().probe_p99, 4);
        assert_eq!(back.engine.as_ref().unwrap().evict_rounds, 6);
    }

    #[test]
    fn decode_tolerates_engine_less_rows_and_extra_fields() {
        // A row from a node without the engine section decodes with None.
        let plain = ImbalanceRow::compute(&[VNodeStats::default()], &[VNodeId(0)]);
        let back = ImbalanceRow::decode(&plain.encode()).unwrap();
        assert!(back.engine.is_none());
        // A future node advertising one extra field still decodes; the
        // extra is ignored.
        let row = plain.clone().with_engine(EngineSummary {
            probe_p99: 9,
            ..EngineSummary::default()
        });
        let mut bytes = row.encode();
        let count_off = bytes.len() - 5 * 8 - 1;
        bytes[count_off] = 6;
        bytes.extend_from_slice(&77u64.to_le_bytes());
        let back = ImbalanceRow::decode(&bytes).unwrap();
        assert_eq!(back.engine.as_ref().unwrap().probe_p99, 9);
    }

    #[test]
    fn decode_rejects_malformed_engine_section() {
        let row = ImbalanceRow::compute(&[VNodeStats::default()], &[VNodeId(0)])
            .with_engine(EngineSummary::default());
        let good = row.encode();
        assert!(ImbalanceRow::decode(&good).is_some());
        // Truncated mid-field.
        assert!(ImbalanceRow::decode(&good[..good.len() - 3]).is_none());
        // Claims more fields than are present.
        let mut bytes = good.clone();
        let count_off = good.len() - 5 * 8 - 1;
        bytes[count_off] = 20;
        assert!(ImbalanceRow::decode(&bytes).is_none());
        // A zero-field section is never emitted — reject it.
        let mut bytes2 = row.clone();
        bytes2.engine = None;
        let mut raw = bytes2.encode();
        raw.push(0);
        assert!(ImbalanceRow::decode(&raw).is_none());
    }

    #[test]
    fn decode_rejects_malformed_hot_key_section() {
        let row =
            ImbalanceRow::compute(&[VNodeStats::default()], &[VNodeId(0)]).with_hot_keys(vec![
                HotKeyRow {
                    vnode: VNodeId(0),
                    key: Key::from("k"),
                    count: 1,
                },
            ]);
        let good = row.encode();
        assert!(ImbalanceRow::decode(&good).is_some());
        // Truncated mid hot-key entry.
        assert!(ImbalanceRow::decode(&good[..good.len() - 1]).is_none());
        // Claims more hot keys than are present.
        let mut bytes = good.clone();
        let hk_count_off = 21 + row.hottest.len() * 12;
        bytes[hk_count_off] = 9;
        assert!(ImbalanceRow::decode(&bytes).is_none());
        // Key length field points past the end of the buffer.
        let mut bytes2 = good;
        let klen_off = hk_count_off + 1 + 12;
        bytes2[klen_off] = 200;
        assert!(ImbalanceRow::decode(&bytes2).is_none());
    }
}
