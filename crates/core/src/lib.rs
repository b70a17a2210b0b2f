//! Sedna: a memory-based distributed key-value storage system for realtime
//! processing — the paper's primary contribution, assembled from the
//! workspace substrates.
//!
//! A deployment consists of:
//!
//! * a small **coordination ensemble** (`sedna-coord`) holding the vnode
//!   map and node liveness — the paper's "ZooKeeper sub-cluster";
//! * a **cluster manager** ([`manager::ClusterManager`]) reconciling
//!   membership into the consistent-hash assignment (`sedna-ring`);
//! * N **data nodes** ([`node::SednaNode`]) — modified-memcached local
//!   stores (`sedna-memstore`) with persistency (`sedna-persist`) and the
//!   trigger engine (`sedna-triggers`);
//! * **zero-hop clients** ([`client::ClientCore`]) that cache routing
//!   state under an adaptive lease and coordinate quorum reads/writes
//!   (`sedna-replication`) directly against the replicas.
//!
//! Build one with [`cluster::SimCluster`] (deterministic simulation — the
//! evaluation harness) or [`cluster::ThreadCluster`] (real threads — the
//! examples), both from the same actor implementations.
//!
//! # Quick start (threaded)
//!
//! ```no_run
//! use sedna_core::cluster::ThreadCluster;
//! use sedna_core::config::ClusterConfig;
//! use sedna_common::{Key, Value};
//!
//! let cluster = ThreadCluster::start(ClusterConfig::small());
//! cluster.write_latest(&Key::from("hello"), Value::from("world"));
//! let got = cluster.read_latest(&Key::from("hello"));
//! println!("{got:?}");
//! cluster.shutdown();
//! ```

pub mod admin;
pub mod client;
pub mod cluster;
pub mod config;
pub mod divergence;
pub mod fault;
pub mod history;
pub mod imbalance;
pub mod manager;
pub mod messages;
pub mod node;

pub use client::{ClientCore, ClientEvent, ReadKind};
pub use cluster::{install_profiling, Gateway, SimCluster, ThreadCluster};
pub use config::{paths, ClusterConfig};
pub use divergence::{DivergenceEpisode, DivergenceSnapshot, DivergenceTracker};
pub use fault::{ClusterFault, RestartKind, ScheduledFault};
pub use history::{ClientHistory, HistoryEvent, HistoryOp, HistoryOutcome};
pub use imbalance::{EngineSummary, ImbalanceRow};
pub use manager::ClusterManager;
pub use messages::{
    ClientFrame, ClientOp, ClientResult, ControlMsg, ReplicaOp, ReplicaReadReply, ReplicaWriteAck,
    SednaMsg, WriteKind,
};
pub use node::{NodeStats, SednaNode};
