//! The four workloads, the seeded op stream and the correctness oracle.

use sedna_common::rng::Xoshiro256;
use sedna_common::{Key, Value};
use sedna_core::config::ClusterConfig;
use sedna_core::messages::{ClientOp, ClientResult};
use sedna_workload::PaperWorkload;

/// Keys per `WriteMany`/`ReadMany` group, and the replica-frame batch size
/// `batch_many` enables.
pub const GROUP: usize = 16;

/// One closed-loop workload. `why` is the one line BENCHMARK.json carries.
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Logical closed-loop clients multiplexed on the generator thread.
    pub clients: usize,
    /// Preloaded key space.
    pub keys: u64,
    pub read_frac: f64,
    pub zipf: bool,
    /// Keys per client op: 1, or [`GROUP`] with replica batching on.
    pub group: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "mixed_small",
        why: "Paper Fig. 8 shape: 8 clients, 50/50 read/write, uniform over 10k keys; per-message work in net, client and node dispatch dominates",
        clients: 8,
        keys: 10_000,
        read_frac: 0.5,
        zipf: false,
        group: 1,
    },
    Spec {
        name: "write_small",
        why: "100% write_latest from both origins over 10k keys: isolates the write path (DVV stamping, COW apply under the shard mutex, W=2 ack assembly)",
        clients: 8,
        keys: 10_000,
        read_frac: 0.0,
        zipf: false,
        group: 1,
    },
    Spec {
        name: "read_zipf_large",
        why: "95% reads, zipf 0.99 over 100k keys: lock-free read path in front, O(rows) background sweeps on the node threads set the tail",
        clients: 8,
        keys: 100_000,
        read_frac: 0.95,
        zipf: true,
        group: 1,
    },
    Spec {
        name: "batch_many",
        why: "4 clients issuing 16-key write_many/read_many with replica batching on: hops amortise 16x, so engine batches, per-key bookkeeping and clones dominate",
        clients: 4,
        keys: 10_000,
        read_frac: 0.5,
        zipf: false,
        group: GROUP,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// The deployment every workload runs: 3 coord + manager + 3 nodes,
    /// N=3 W=2 R=2. The deadline is 1 s so that a stall shows up in
    /// `latency_p99_us` instead of as a coin-flip `Failed` (README).
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::small();
        cfg.request_deadline_micros = 1_000_000;
        if self.group > 1 {
            cfg = cfg.with_batching(GROUP, 0);
        }
        cfg
    }
}

pub const VALUE_LEN: usize = 20;

/// 20-byte value: key index (8 B LE) ‖ per-key write seq (8 B LE) ‖ 4 pad.
pub fn encode_value(idx: u64, seq: u64) -> Value {
    let mut b = Vec::with_capacity(VALUE_LEN);
    b.extend_from_slice(&idx.to_le_bytes());
    b.extend_from_slice(&seq.to_le_bytes());
    b.extend_from_slice(&[0xA5; 4]);
    Value::from_bytes(b)
}

pub fn decode_value(v: &Value) -> Option<(u64, u64)> {
    let b = v.as_bytes();
    if b.len() != VALUE_LEN {
        return None;
    }
    let idx = u64::from_le_bytes(b[0..8].try_into().ok()?);
    let seq = u64::from_le_bytes(b[8..16].try_into().ok()?);
    Some((idx, seq))
}

/// Skew exponent of `read_zipf_large`.
const ZIPF_THETA: f64 = 0.99;

/// Which key an op touches. The zipfian one inverts the exact CDF. The
/// workload crate's `KeyChooser::zipfian` switches to a continuous
/// approximation above 4,096 keys, and at an exponent of 0.99 that sends
/// 89% of all ops to key 0 (exact: 7.8%): a single-hot-key workload whose
/// two writers keep the replicas of that one row in disagreement.
enum Chooser {
    Uniform {
        n: u64,
    },
    /// `cdf[i]` = P(key index ≤ i).
    Zipfian {
        cdf: Vec<f64>,
    },
}

impl Chooser {
    fn zipfian(n: u64, theta: f64) -> Chooser {
        let weights = (1..=n).map(|rank| (rank as f64).powf(-theta));
        let total: f64 = weights.clone().sum();
        let mut acc = 0.0;
        let cdf = weights
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Chooser::Zipfian { cdf }
    }

    fn pick(&self, rng: &mut Xoshiro256) -> u64 {
        match self {
            Chooser::Uniform { n } => rng.next_below(*n),
            Chooser::Zipfian { cdf } => {
                let u = rng.next_f64();
                // Rounding can leave the last entry a hair under 1.
                cdf.partition_point(|c| *c < u).min(cdf.len() - 1) as u64
            }
        }
    }
}

/// What the generator remembers about an op in flight, to judge its reply.
pub enum Issued {
    Read(Vec<u64>),
    Write(usize),
}

impl Issued {
    pub fn key_ops(&self) -> usize {
        match self {
            Issued::Read(keys) => keys.len(),
            Issued::Write(n) => *n,
        }
    }
}

/// Seeded op stream plus the oracle's state: the highest seq issued per
/// key. The program under test sees only the generated ops.
pub struct OpStream {
    paper: PaperWorkload,
    keys: Vec<Key>,
    /// Highest write seq issued per key; 1 is the preload.
    issued_seq: Vec<u64>,
    chooser: Chooser,
    rng: Xoshiro256,
    read_frac: f64,
    group: usize,
}

impl OpStream {
    pub fn new(spec: &Spec, seed: u64) -> OpStream {
        let paper = PaperWorkload::new();
        OpStream {
            keys: (0..spec.keys).map(|i| paper.key(i)).collect(),
            paper,
            issued_seq: vec![1; spec.keys as usize],
            chooser: if spec.zipf {
                Chooser::zipfian(spec.keys, ZIPF_THETA)
            } else {
                Chooser::Uniform { n: spec.keys }
            },
            rng: Xoshiro256::seeded(seed),
            read_frac: spec.read_frac,
            group: spec.group,
        }
    }

    pub fn key_count(&self) -> u64 {
        self.keys.len() as u64
    }

    fn write_pair(&mut self, idx: u64) -> (Key, Value) {
        let seq = &mut self.issued_seq[idx as usize];
        *seq += 1;
        (self.keys[idx as usize].clone(), encode_value(idx, *seq))
    }

    /// The next op of the stream.
    pub fn next_op(&mut self) -> (ClientOp, Issued) {
        let read = self.rng.chance(self.read_frac);
        let idxs: Vec<u64> = (0..self.group)
            .map(|_| self.chooser.pick(&mut self.rng))
            .collect();
        match (read, self.group) {
            (true, 1) => {
                let key = self.keys[idxs[0] as usize].clone();
                (ClientOp::ReadLatest { key }, Issued::Read(idxs))
            }
            (true, _) => {
                let keys = idxs
                    .iter()
                    .map(|&i| self.keys[i as usize].clone())
                    .collect();
                (ClientOp::ReadMany { keys }, Issued::Read(idxs))
            }
            (false, 1) => {
                let (key, value) = self.write_pair(idxs[0]);
                (ClientOp::WriteLatest { key, value }, Issued::Write(1))
            }
            (false, n) => {
                let pairs = idxs.iter().map(|&i| self.write_pair(i)).collect();
                (ClientOp::WriteMany { pairs }, Issued::Write(n))
            }
        }
    }

    /// A plain read of key `idx`, for the read-back after the windows.
    pub fn read_of(&self, idx: u64) -> (ClientOp, Issued) {
        let key = self.keys[idx as usize].clone();
        (ClientOp::ReadLatest { key }, Issued::Read(vec![idx]))
    }

    /// The preload group starting at key `first`: seq 1 for every key.
    /// Keys are built afresh, not cloned from the generator's table, so
    /// the bytes the stores keep are allocated (and counted) during set-up.
    pub fn preload_group(&self, first: u64) -> ClientOp {
        let last = (first + GROUP as u64).min(self.key_count());
        let pairs = (first..last)
            .map(|i| (self.paper.key(i), encode_value(i, 1)))
            .collect();
        ClientOp::WriteMany { pairs }
    }

    /// The oracle. A write must be stored (`Ok`) or lose to a newer stamp
    /// (`Outdated`, possible with two origins). A read of a preloaded key
    /// must return a 20-byte value carrying that key's index and a seq no
    /// higher than the highest issued for it.
    pub fn check(&self, issued: &Issued, result: &ClientResult) -> bool {
        match (issued, result) {
            (Issued::Write(1), ClientResult::Ok | ClientResult::Outdated) => true,
            (Issued::Write(n), ClientResult::Many(children)) => {
                children.len() == *n
                    && children
                        .iter()
                        .all(|c| matches!(c, ClientResult::Ok | ClientResult::Outdated))
            }
            (Issued::Read(idxs), ClientResult::Latest(_)) if idxs.len() == 1 => {
                self.check_read(idxs[0], result)
            }
            (Issued::Read(idxs), ClientResult::Many(children)) => {
                children.len() == idxs.len()
                    && idxs
                        .iter()
                        .zip(children)
                        .all(|(&i, c)| self.check_read(i, c))
            }
            _ => false,
        }
    }

    fn check_read(&self, idx: u64, result: &ClientResult) -> bool {
        let ClientResult::Latest(Some(v)) = result else {
            return false;
        };
        matches!(decode_value(&v.value),
            Some((i, seq)) if i == idx && (1..=self.issued_seq[idx as usize]).contains(&seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::time::Timestamp;
    use sedna_memstore::VersionedValue;

    fn latest(v: Value) -> ClientResult {
        ClientResult::Latest(Some(VersionedValue {
            ts: Timestamp::ZERO,
            value: v,
        }))
    }

    #[test]
    fn same_seed_same_stream_and_values_are_20_bytes() {
        let spec = Spec::by_name("mixed_small").unwrap();
        let (mut a, mut b) = (OpStream::new(spec, 7), OpStream::new(spec, 7));
        let mut c = OpStream::new(spec, 8);
        let mut differs = false;
        for _ in 0..200 {
            let (oa, _) = a.next_op();
            assert_eq!(oa, b.next_op().0);
            differs |= oa != c.next_op().0;
            if let ClientOp::WriteLatest { key, value } = &oa {
                assert_eq!((key.len(), value.len()), (20, 20));
            }
        }
        assert!(differs, "another seed gives another stream");
    }

    #[test]
    fn zipfian_chooser_follows_the_exact_distribution() {
        let n = 100_000;
        let chooser = Chooser::zipfian(n, ZIPF_THETA);
        let mut rng = Xoshiro256::seeded(5);
        let draws = 200_000;
        let (mut first, mut top_100) = (0u32, 0u32);
        for _ in 0..draws {
            let idx = chooser.pick(&mut rng);
            assert!(idx < n);
            first += u32::from(idx == 0);
            top_100 += u32::from(idx < 100);
        }
        // Exact zipf(0.99) over 100k keys: P(0) = 7.8%, P(<100) = 41.4%.
        let share = |c: u32| f64::from(c) / f64::from(draws);
        assert!((share(first) - 0.078).abs() < 0.005, "{}", share(first));
        assert!((share(top_100) - 0.414).abs() < 0.01, "{}", share(top_100));
    }

    #[test]
    fn oracle_accepts_issued_values_and_rejects_the_rest() {
        let spec = Spec::by_name("write_small").unwrap();
        let mut s = OpStream::new(spec, 1);
        let (op, _) = s.next_op();
        let ClientOp::WriteLatest { value, .. } = op else {
            panic!("write_small issues writes only");
        };
        let (idx, seq) = decode_value(&value).unwrap();
        assert_eq!(seq, 2, "first write after the preload");
        let read = Issued::Read(vec![idx]);
        assert!(s.check(&read, &latest(encode_value(idx, 1))));
        assert!(s.check(&read, &latest(encode_value(idx, 2))));
        assert!(
            !s.check(&read, &latest(encode_value(idx, 3))),
            "never issued"
        );
        assert!(
            !s.check(&read, &latest(encode_value(idx + 1, 1))),
            "other key"
        );
        assert!(
            !s.check(&read, &ClientResult::Latest(None)),
            "preloaded key missing"
        );
        assert!(!s.check(&read, &ClientResult::Failed));
        assert!(s.check(&Issued::Write(1), &ClientResult::Outdated));
        assert!(!s.check(&Issued::Write(1), &ClientResult::Failed));
    }

    #[test]
    fn oracle_fails_a_group_with_one_failed_child() {
        let spec = Spec::by_name("batch_many").unwrap();
        let mut s = OpStream::new(spec, 3);
        let (op, issued) = loop {
            let (op, issued) = s.next_op();
            if matches!(op, ClientOp::WriteMany { .. }) {
                break (op, issued);
            }
        };
        let ClientOp::WriteMany { pairs } = op else {
            unreachable!()
        };
        assert_eq!(pairs.len(), GROUP);
        assert_eq!(issued.key_ops(), GROUP);
        let mut children = vec![ClientResult::Ok; GROUP];
        assert!(s.check(&issued, &ClientResult::Many(children.clone())));
        children[5] = ClientResult::Failed;
        assert!(!s.check(&issued, &ClientResult::Many(children)));
    }
}
