//! Shared foundation types for the Sedna reproduction.
//!
//! Sedna (Dai et al., IEEE CLUSTER Workshops 2012) is a memory-based
//! distributed key-value store for realtime cloud applications. This crate
//! holds the vocabulary every other crate in the workspace speaks:
//!
//! * [`buf`] — the thin refcounted byte buffer behind keys and values;
//! * [`ids`] — strongly-typed identifiers for real nodes, virtual nodes,
//!   sessions and requests;
//! * [`kv`] — keys, values and the hierarchical key space (`dataset / table /
//!   key`) the paper builds by "extending the key field implicitly";
//! * [`time`] — hybrid logical timestamps, the total order Sedna uses for its
//!   lock-free last-write-wins writes, plus clock abstractions that work both
//!   in real time and under the discrete-event simulator;
//! * [`hashing`] — the FNV-1a and xxHash64 implementations used by the
//!   consistent-hash ring and the memstore shards;
//! * [`rng`] — small deterministic PRNGs (SplitMix64 / xoshiro256++) so the
//!   simulator stays reproducible without depending on `rand`'s stream
//!   stability;
//! * [`error`] — the shared error type.
//!
//! Nothing in this crate performs I/O or spawns threads.

pub mod buf;
pub mod dvv;
pub mod error;
pub mod hashing;
pub mod ids;
pub mod kv;
pub mod rng;
pub mod time;

pub use dvv::{dot_seq, CausalContext, DotSeq};
pub use error::{SednaError, SednaResult};
pub use hashing::{fnv1a64, xxhash64};
pub use ids::{ClientId, NodeId, RequestId, SessionId, TraceId, VNodeId};
pub use kv::{Key, KeyPath, Value};
pub use rng::{SplitMix64, Xoshiro256};
pub use time::{Clock, ManualClock, Micros, SystemClock, Timestamp, TimestampOracle};
