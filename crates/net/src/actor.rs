//! The actor abstraction: state machines + effect collection.
//!
//! An [`Actor`] never performs I/O. It is handed a [`Ctx`] whose methods
//! *record* effects (sends, timer arms/cancels, halts); the runtime then
//! applies them. This keeps every protocol implementation in the workspace
//! unit-testable with nothing but a `Ctx` and directly reusable under both
//! the simulator and the threaded transport.

use std::any::Any;
use std::fmt;

use sedna_common::rng::Xoshiro256;
use sedna_common::time::Micros;

/// Address of an actor within a runtime.
///
/// Runtimes assign dense ids in registration order; higher layers keep their
/// own `NodeId → ActorId` maps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(pub u32);

impl ActorId {
    /// The pseudo-address of the outside world: messages injected through a
    /// runtime handle carry this as their sender, and actors may send to it
    /// to reach the external observer.
    pub const EXTERNAL: ActorId = ActorId(u32::MAX);

    /// Raw index; panics on [`ActorId::EXTERNAL`].
    #[inline]
    pub fn index(self) -> usize {
        debug_assert_ne!(self, ActorId::EXTERNAL);
        self.0 as usize
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == ActorId::EXTERNAL {
            write!(f, "a-ext")
        } else {
            write!(f, "a{}", self.0)
        }
    }
}

/// Application-chosen timer label. One timer per `(actor, token)` is active
/// at a time: re-arming replaces the previous deadline, which is exactly the
/// semantics heartbeat and lease loops want.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerToken(pub u64);

/// Size model for messages, feeding the simulator's bandwidth term.
///
/// The default (64 bytes) approximates a small control message; data
/// messages should override with header + payload size.
pub trait MessageSize {
    /// Serialized size of this message in bytes.
    fn size_bytes(&self) -> usize {
        64
    }
}

/// Embedding of a protocol's message type into a runtime-wide message enum.
///
/// Substrate actors (coordination replicas, cache servers) are written
/// against their own protocol enum `T`; a deployment composes several
/// protocols into one runtime message type `Self` by implementing
/// `Wrap<T>` for each. `Wrap<T> for T` is the identity, so protocols also
/// run standalone in their own tests.
pub trait Wrap<T>: Sized {
    /// Injects a protocol message into the runtime message type.
    fn wrap(inner: T) -> Self;
    /// Projects back out; returns `Err(self)` when this message belongs to
    /// a different protocol.
    fn unwrap(self) -> Result<T, Self>;
    /// Borrowing projection (e.g. for service-time estimation).
    fn peek(&self) -> Option<&T>;
}

impl<T> Wrap<T> for T {
    fn wrap(inner: T) -> Self {
        inner
    }
    fn unwrap(self) -> Result<T, Self> {
        Ok(self)
    }
    fn peek(&self) -> Option<&T> {
        Some(self)
    }
}

/// Object-safe downcasting support, blanket-implemented for every type.
pub trait AsAny {
    /// `&self` as `&dyn Any`.
    fn as_any(&self) -> &dyn Any;
    /// `&mut self` as `&mut dyn Any`.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A deterministic, runtime-agnostic state machine.
///
/// All methods take `&mut self` plus a [`Ctx`]; they must not block, spawn
/// threads, or read wall-clock time (use [`Ctx::now`]).
pub trait Actor: AsAny + Send {
    /// The message type exchanged on this runtime. Every actor registered
    /// with one runtime instance shares it (protocols compose it as an enum).
    type Msg: Send + MessageSize + 'static;

    /// Called once when the runtime starts (before any message). Arm initial
    /// timers here.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called for each delivered message.
    fn on_message(&mut self, from: ActorId, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Called when a timer armed with [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = (token, ctx);
    }

    /// CPU service time (µs) charged for handling `msg` on the simulator's
    /// per-actor CPU queue. Zero by default; servers override this so that
    /// client contention produces queueing (the paper's Fig. 8 effect).
    fn service_micros(&self, msg: &Self::Msg) -> Micros {
        let _ = msg;
        0
    }

    /// Whether a callback of this actor may block its OS thread (socket
    /// I/O, `fsync`, …) despite the rule above. The threaded runtime gives
    /// such an actor a worker thread of its own, so its stalls are not
    /// shared with the compute actors pinned to the per-core workers; the
    /// simulator ignores it. Asked once, when the runtime starts.
    fn may_block(&self) -> bool {
        false
    }
}

/// A timer operation, kept in issue order so a `set` followed by a
/// `cancel` of the same token within one callback behaves as written.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerOp {
    /// Arm (or re-arm) `token` to fire after the given delay (µs).
    Set(TimerToken, Micros),
    /// Cancel `token`.
    Cancel(TimerToken),
}

/// Effects recorded by an actor during one callback.
#[derive(Debug)]
pub struct Effects<M> {
    /// Messages to transmit, in order.
    pub sends: Vec<(ActorId, M)>,
    /// Timer operations, in issue order.
    pub timer_ops: Vec<TimerOp>,
    /// Whether the actor asked the whole runtime to halt.
    pub halt: bool,
}

impl<M> Default for Effects<M> {
    fn default() -> Self {
        Effects {
            sends: Vec::new(),
            timer_ops: Vec::new(),
            halt: false,
        }
    }
}

impl<M> Effects<M> {
    /// Empties the effect lists, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.sends.clear();
        self.timer_ops.clear();
        self.halt = false;
    }
}

/// The interface an actor uses to interact with its runtime.
pub struct Ctx<'a, M> {
    now: Micros,
    self_id: ActorId,
    rng: &'a mut Xoshiro256,
    effects: &'a mut Effects<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Builds a context. Runtimes (and actor unit tests) call this.
    pub fn new(
        now: Micros,
        self_id: ActorId,
        rng: &'a mut Xoshiro256,
        effects: &'a mut Effects<M>,
    ) -> Self {
        Ctx {
            now,
            self_id,
            rng,
            effects,
        }
    }

    /// Current time in microseconds (virtual under the simulator, monotonic
    /// wall time under the threaded runtime).
    #[inline]
    pub fn now(&self) -> Micros {
        self.now
    }

    /// This actor's own address.
    #[inline]
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Deterministic per-actor random stream.
    #[inline]
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        self.rng
    }

    /// Queues a message to `to`.
    #[inline]
    pub fn send(&mut self, to: ActorId, msg: M) {
        self.effects.sends.push((to, msg));
    }

    /// Arms (or re-arms) the timer labelled `token` to fire after `delay`
    /// microseconds. Re-arming replaces any previous deadline for the token.
    pub fn set_timer(&mut self, token: TimerToken, delay: Micros) {
        self.effects.timer_ops.push(TimerOp::Set(token, delay));
    }

    /// Cancels the timer labelled `token` (no-op if not armed).
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.effects.timer_ops.push(TimerOp::Cancel(token));
    }

    /// Asks the runtime to stop once this callback returns. Used by
    /// experiment driver actors to end a simulation.
    pub fn halt(&mut self) {
        self.effects.halt = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);
    impl MessageSize for Ping {}

    struct Echo {
        seen: Vec<u32>,
    }

    impl Actor for Echo {
        type Msg = Ping;
        fn on_message(&mut self, from: ActorId, msg: Ping, ctx: &mut Ctx<'_, Ping>) {
            self.seen.push(msg.0);
            ctx.send(from, Ping(msg.0 + 1));
            ctx.set_timer(TimerToken(1), 100);
        }
    }

    #[test]
    fn ctx_records_effects_in_order() {
        let mut rng = Xoshiro256::seeded(1);
        let mut fx = Effects::default();
        let mut e = Echo { seen: vec![] };
        {
            let mut ctx = Ctx::new(42, ActorId(0), &mut rng, &mut fx);
            assert_eq!(ctx.now(), 42);
            assert_eq!(ctx.self_id(), ActorId(0));
            e.on_message(ActorId(7), Ping(3), &mut ctx);
        }
        assert_eq!(e.seen, vec![3]);
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(fx.sends[0].0, ActorId(7));
        assert_eq!(fx.sends[0].1, Ping(4));
        assert_eq!(fx.timer_ops, vec![TimerOp::Set(TimerToken(1), 100)]);
        assert!(!fx.halt);
        fx.clear();
        assert!(fx.sends.is_empty() && fx.timer_ops.is_empty());
    }

    #[test]
    fn default_message_size_is_small_control() {
        assert_eq!(Ping(0).size_bytes(), 64);
    }

    #[test]
    fn external_actor_id_is_distinct() {
        assert_ne!(ActorId(0), ActorId::EXTERNAL);
        assert_eq!(format!("{:?}", ActorId::EXTERNAL), "a-ext");
        assert_eq!(format!("{:?}", ActorId(3)), "a3");
    }

    #[test]
    fn halt_effect_recorded() {
        let mut rng = Xoshiro256::seeded(1);
        let mut fx: Effects<Ping> = Effects::default();
        let mut ctx = Ctx::new(0, ActorId(0), &mut rng, &mut fx);
        ctx.halt();
        ctx.cancel_timer(TimerToken(9));
        let _ = ctx;
        assert!(fx.halt);
        assert_eq!(fx.timer_ops, vec![TimerOp::Cancel(TimerToken(9))]);
    }
}
