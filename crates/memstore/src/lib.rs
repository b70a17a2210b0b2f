//! Sedna's local memory engine.
//!
//! The paper uses a "modified Memcached" as each server's local storage
//! (Sec. VI: "Sedna uses modified Memcached as its local memory storage
//! system"). This crate is that engine, with the Sedna-specific
//! modifications the paper describes:
//!
//! * **Timestamped values** — writes carry [`Timestamp`]s; a newer timestamp
//!   overwrites, an older one is reported as outdated (Sec. III-F's
//!   `write_latest`, which needs no distributed lock).
//! * **Value lists** — `write_all` keeps one element per *source* server,
//!   compared and replaced per-source (Sec. III-F).
//! * **`Dirty` and `Monitors` columns** — both are bitmaps over the row
//!   slab (one `u64` each per 64-row page; the Dirty column also lists the
//!   pages with a bit set); the pre-change value snapshot of a dirty row
//!   and the monitor ids watching a monitored one sit in side tables. Only *watched* rows go dirty: monitored ones and
//!   those under a prefix of the store's watch set, which the trigger
//!   engine keeps equal to its jobs' table and dataset scopes. The
//!   trigger subsystem's sweep collects them (Sec. IV-C, Fig. 5) at a
//!   cost proportional to the dirty rows.
//! * **One owner, no locks** — a [`MemStore`] is `Send` and not `Sync`:
//!   the node actor that owns it is the only thing that touches it, so the
//!   engine is one open-addressing table over slab-allocated rows behind a
//!   `RefCell`, with no mutex and no atomics. Reads return a
//!   [`RowSnapshot`] — a refcount bump, not a deep clone — and writes swap
//!   in a replacement snapshot. (The paper's "Read&Write …
//!   Lock-Free Processing" claim is the timestamp comparison above, not a
//!   memory model.)
//! * **LRU eviction with memory accounting** — memcached semantics: when a
//!   configured budget is exceeded, least-recently-used unmonitored rows
//!   are evicted. The LRU touch is a per-row `u32` clock stamp, compared
//!   by wrapping age.
//!
//! [`Timestamp`]: sedna_common::Timestamp
//!
//! # Example
//!
//! ```
//! use sedna_memstore::{MemStore, StoreConfig};
//! use sedna_common::{Key, Value, Timestamp, NodeId};
//!
//! let store = MemStore::new(StoreConfig::default());
//! let key = Key::from("greeting");
//! let t1 = Timestamp::new(1, 0, NodeId(0));
//! let t2 = Timestamp::new(2, 0, NodeId(1));
//!
//! store.write_latest(&key, t2, Value::from("newer"));
//! // An older timestamp loses:
//! assert!(!store.write_latest(&key, t1, Value::from("older")).is_ok());
//! assert_eq!(store.read_latest(&key).unwrap().value, Value::from("newer"));
//! ```

#![forbid(unsafe_code)]

pub mod engine;
pub mod entry;
pub mod policy;
mod row;
pub mod sketch;
mod snap;
pub mod stats;
pub mod store;
mod table;

pub use engine::EngineSnapshot;
pub use entry::{VersionedValue, WriteOutcome};
pub use policy::{ResolutionConfig, ResolverFn, TablePolicy};
pub use sketch::{HotKey, SpaceSaving};
pub use snap::RowSnapshot;
pub use stats::StatsSnapshot;
pub use store::{BatchWrite, BatchWriteResult, DirtyRecord, MemStore, StoreConfig, StoreFootprint};
