//! Sans-io actor runtime for the Sedna reproduction.
//!
//! The paper evaluated Sedna on nine physical servers connected by gigabit
//! Ethernet. We do not have that testbed, so every networked component in
//! this workspace (Sedna nodes, coordination replicas, memcached servers,
//! load clients) is written as a pure state machine — an [`Actor`] — that
//! reacts to messages and timers through a [`Ctx`] effect collector and never
//! touches a socket or a thread directly.
//!
//! Two runtimes execute those state machines:
//!
//! * [`sim::Sim`] — a deterministic discrete-event simulator with a virtual
//!   clock, a configurable link model (base latency + bandwidth +
//!   exponential jitter + drops + partitions) and a per-actor single-server
//!   CPU queue. All randomness derives from one seed, so an experiment run
//!   is reproducible bit-for-bit. The benchmark harness regenerates the
//!   paper's figures on this runtime.
//! * [`threaded::ThreadNet`] — a real multi-threaded in-process transport:
//!   one worker thread per core with the actors pinned to them, used by the
//!   examples, the end-to-end benchmark and tests that need genuine
//!   concurrency.
//!
//! Because both runtimes drive the *same* actor code, anything validated
//! deterministically in the simulator is the same logic that runs under real
//! parallelism.

pub mod actor;
pub mod fault;
pub mod link;
pub mod sim;
pub mod stats;
pub mod threaded;

pub use actor::{Actor, ActorId, AsAny, Ctx, MessageSize, TimerToken, Wrap};
pub use fault::{FaultTimeline, SimFault, TimedFault};
pub use link::LinkModel;
pub use sim::{Sim, SimConfig};
pub use stats::NetStats;
pub use threaded::{ExternalHandle, ThreadNet, ThreadNetConfig};
