//! Where trigger results go.
//!
//! Actions collect writes into an [`Emits`] buffer; the engine then applies
//! the buffer through a [`TriggerSink`]. The sink is a trait so the same
//! engine runs in two deployments: [`LocalSink`] writes straight into the
//! local memstore (standalone / unit tests), while `sedna-core` provides a
//! cluster sink that routes emits through the quorum write path.

use sedna_common::time::{Clock, TimestampOracle};
use sedna_common::{Key, NodeId, Value};
use sedna_memstore::MemStore;
use std::rc::Rc;

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

/// Destination of trigger results. Runs on the thread that owns the store
/// being swept, so a sink may hold the (non-`Sync`) store itself.
pub trait TriggerSink {
    /// Applies one emitted write.
    fn apply(&self, key: &Key, value: Value, mode: WriteMode);
}

/// Sink writing into a local [`MemStore`] with a private timestamp oracle.
pub struct LocalSink<C: Clock> {
    store: Rc<MemStore>,
    oracle: TimestampOracle<C>,
}

impl<C: Clock> LocalSink<C> {
    /// Creates a sink stamping as `origin` from `clock`.
    pub fn new(store: Rc<MemStore>, origin: NodeId, clock: C) -> Self {
        LocalSink {
            store,
            oracle: TimestampOracle::new(origin, clock),
        }
    }
}

impl<C: Clock> TriggerSink for LocalSink<C> {
    fn apply(&self, key: &Key, value: Value, mode: WriteMode) {
        let ts = self.oracle.next();
        match mode {
            WriteMode::Latest => {
                self.store.write_latest(key, ts, value);
            }
            WriteMode::All => {
                self.store.write_all(key, ts, value);
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
        let store = Rc::new(MemStore::new(StoreConfig::default()));
        let sink = LocalSink::new(Rc::clone(&store), NodeId(3), ManualClock::new());
        sink.apply(&Key::from("k"), Value::from("v1"), WriteMode::Latest);
        sink.apply(&Key::from("k"), Value::from("v2"), WriteMode::Latest);
        // Second write must supersede the first (oracle is monotonic even
        // on a stalled clock).
        assert_eq!(
            store.read_latest(&Key::from("k")).unwrap().value,
            Value::from("v2")
        );
        sink.apply(&Key::from("k"), Value::from("v3"), WriteMode::All);
        assert_eq!(
            store.read_all(&Key::from("k")).unwrap().len(),
            1,
            "same origin"
        );
    }
}
