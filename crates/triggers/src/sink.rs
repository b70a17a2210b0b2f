//! Where trigger results go.
//!
//! Actions collect writes into an [`Emits`] buffer; the engine appends
//! every accepted action's writes to one caller-owned buffer per sweep,
//! and the caller routes it. A node sends the buffer through the quorum
//! write path; a standalone deployment (or a unit test) hands it to
//! [`LocalSink`], which writes it straight into the local memstore.

use sedna_common::time::{Clock, TimestampOracle};
use sedna_common::{Key, NodeId, Value};
use sedna_memstore::MemStore;

use crate::job::WriteMode;

/// Writes collected from one action invocation.
#[derive(Default)]
pub struct Emits {
    /// `(key, value, mode)` in emission order.
    pub writes: Vec<(Key, Value, WriteMode)>,
}

impl Emits {
    /// Queues a result write.
    pub fn push(&mut self, key: Key, value: Value, mode: WriteMode) {
        self.writes.push((key, value, mode));
    }

    /// Queues a `write_latest` result.
    pub fn latest(&mut self, key: Key, value: Value) {
        self.push(key, value, WriteMode::Latest);
    }

    /// Queues a `write_all` result.
    pub fn all(&mut self, key: Key, value: Value) {
        self.push(key, value, WriteMode::All);
    }

    /// True when nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty()
    }
}

/// Stamps emitted writes with a private timestamp oracle and applies them
/// to a local [`MemStore`].
pub struct LocalSink<C: Clock> {
    oracle: TimestampOracle<C>,
}

impl<C: Clock> LocalSink<C> {
    /// Creates a sink stamping as `origin` from `clock`.
    pub fn new(origin: NodeId, clock: C) -> Self {
        LocalSink {
            oracle: TimestampOracle::new(origin, clock),
        }
    }

    /// Drains `emits` into `store`, in emission order.
    pub fn apply(&self, store: &MemStore, emits: &mut Emits) {
        for (key, value, mode) in emits.writes.drain(..) {
            let ts = self.oracle.next();
            match mode {
                WriteMode::Latest => {
                    store.write_latest(&key, ts, value);
                }
                WriteMode::All => {
                    store.write_all(&key, ts, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::time::ManualClock;
    use sedna_memstore::StoreConfig;

    #[test]
    fn emits_buffer_accumulates_in_order() {
        let mut e = Emits::default();
        assert!(e.is_empty());
        e.latest(Key::from("a"), Value::from("1"));
        e.all(Key::from("b"), Value::from("2"));
        assert_eq!(e.writes.len(), 2);
        assert_eq!(e.writes[0].2, WriteMode::Latest);
        assert_eq!(e.writes[1].2, WriteMode::All);
    }

    #[test]
    fn local_sink_writes_with_fresh_timestamps() {
        let store = MemStore::new(StoreConfig::default());
        let sink = LocalSink::new(NodeId(3), ManualClock::new());
        let mut emits = Emits::default();
        emits.latest(Key::from("k"), Value::from("v1"));
        emits.latest(Key::from("k"), Value::from("v2"));
        sink.apply(&store, &mut emits);
        assert!(emits.is_empty(), "applied emits are drained");
        // Second write must supersede the first (oracle is monotonic even
        // on a stalled clock).
        assert_eq!(
            store.read_latest(&Key::from("k")).unwrap().value,
            Value::from("v2")
        );
        emits.all(Key::from("k"), Value::from("v3"));
        sink.apply(&store, &mut emits);
        assert_eq!(
            store.read_all(&Key::from("k")).unwrap().len(),
            1,
            "same origin"
        );
    }
}
