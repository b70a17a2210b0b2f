//! Sedna's realtime trigger subsystem (Sec. IV of the paper).
//!
//! The paper's core claim is that realtime cloud programming needs more
//! than read/write: applications must be able to *watch* data and have
//! user code scheduled when it changes. The pieces:
//!
//! * **Monitors** ([`monitor`]) — registered on a single key, a table, or a
//!   dataset (the hierarchical key space from `sedna-common`). The least
//!   unit is a key-value pair (Sec. IV-C).
//! * **Filters** ([`job::Filter`]) — the paper's `assert(OldKey, OldValue,
//!   NewKey, NewValue)` predicate, run per changed pair, "as simple as
//!   possible"; they gate action execution and express iterative-task stop
//!   conditions by comparing old vs new.
//! * **Actions** ([`job::Action`]) — the paper's `action(Key,
//!   Iterator<Value>, Result)`; results are collected in a
//!   [`sink::Emits`] buffer the sweep's caller writes back into the
//!   storage system, which is how multi-trigger pipelines (Fig. 4) chain.
//! * **Jobs** ([`job::JobSpec`]) — `TriggerInput(hooks, filter)` +
//!   action + output, scheduled with a timeout (Listing 1's
//!   `job.schedule(Timeout)`).
//! * **The engine** ([`engine::TriggerEngine`]) — dispatches dirty rows
//!   (swept from the memstore's `Dirty`/`Monitors` columns) to matching
//!   jobs, enforcing **flow control**: each job has a trigger interval and
//!   changes to a key inside the interval are discarded ("it would be safe
//!   to discard them as the most fresh data matters most", Sec. IV-B),
//!   which is what tames the ripple effect of trigger circles. It also
//!   keeps the store's watch set equal to its jobs' table and dataset
//!   scopes, so only rows some job watches go dirty, and a job fires for
//!   writes made after it registered.
//! * **The sweep** ([`engine::TriggerEngine::scan_once`]) — the paper's
//!   scan of "the Dirty and Monitored fields sequentially" (Sec. IV-C),
//!   run by the store's owner (a node drives it from a timer): a store
//!   has one owner, so there is no scanner thread pool, and the engine is
//!   that owner's plain data — `&mut self`, no lock, no atomic.
//! * **Cycle analysis** ([`engine::detect_cycles`]) — static detection of
//!   trigger circles from declared inputs/outputs, so deployments can warn
//!   when an application builds an A→C→A loop (the Fig. 4 case study).

//! # Example
//!
//! ```
//! use sedna_triggers::{TriggerEngine, JobSpec, MonitorScope, FnAction, LocalSink, Emits};
//! use sedna_memstore::{MemStore, StoreConfig, VersionedValue};
//! use sedna_common::{Key, Value, Timestamp, NodeId, time::ManualClock};
//!
//! let store = MemStore::new(StoreConfig::default());
//! let mut engine = TriggerEngine::new();
//! let sink = LocalSink::new(NodeId(0), ManualClock::new());
//!
//! // Mirror every change of "watched" into "copy".
//! engine.register_job(&store, JobSpec::builder("mirror")
//!     .input(MonitorScope::Key(Key::from("watched")))
//!     .action(FnAction(|_k: &Key, vs: &[VersionedValue], out: &mut Emits| {
//!         out.latest(Key::from("copy"), vs[0].value.clone());
//!     }))
//!     .trigger_interval(0)
//!     .build(), 0);
//!
//! store.write_latest(&Key::from("watched"), Timestamp::new(0, 1, NodeId(1)), Value::from("hi"));
//! let mut emits = Emits::default();
//! engine.scan_once(&store, &mut emits, 1);
//! sink.apply(&store, &mut emits);
//! assert_eq!(store.read_latest(&Key::from("copy")).unwrap().value, Value::from("hi"));
//! ```

pub mod engine;
pub mod job;
pub mod monitor;
pub mod sink;

pub use engine::{detect_cycles, ScanStats, TriggerEngine};
pub use job::{Action, Filter, FnAction, FnFilter, JobId, JobSpec, PassAllFilter, WriteMode};
pub use monitor::MonitorScope;
pub use sink::{Emits, LocalSink};
