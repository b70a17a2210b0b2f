//! The threaded in-process transport.
//!
//! A shared-nothing M:N runtime: `W = min(cores, #actors)` worker threads,
//! every actor pinned to one of them for life (`index % W` in registration
//! order), so the very same state machines validated deterministically under
//! [`crate::sim::Sim`] also execute under genuine parallelism while their
//! state never migrates between cores. An actor whose callbacks may block
//! ([`Actor::may_block`]) gets a worker of its own instead. With one core
//! per actor this is one thread per actor.
//!
//! A send pushes onto the destination's inbox and, only if that actor was
//! idle, onto its worker's ready list; the worker is woken only if it is
//! parked. A worker gives each ready actor a bounded turn, fires due timers
//! between turns, and parks (until its next timer deadline) only when all of
//! its actors are idle. Delivery is FIFO per inbox, hence per link.
//!
//! Time is monotonic wall time in microseconds since runtime start, so
//! [`Ctx::now`] is directly comparable with the simulator's virtual time.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sedna_common::rng::Xoshiro256;
use sedna_common::time::Micros;

use crate::actor::{Actor, ActorId, Ctx, Effects, MessageSize, TimerOp, TimerToken};

/// Messages an actor handles in one turn before its worker moves on to the
/// next ready actor and to the timers, so a flooded actor delays its
/// neighbours by at most this many callbacks.
const TURN_MAX: usize = 64;

/// Slots both halves of an inbox are created with and shrink back to once
/// drained: a burst's capacity is returned to the allocator, and steady
/// traffic never reallocates.
const INBOX_KEEP: usize = 32;

/// Configuration for the threaded runtime.
#[derive(Clone, Debug)]
pub struct ThreadNetConfig {
    /// Seed for per-actor RNG streams (they still exist under threads; the
    /// overall interleaving is of course nondeterministic).
    pub seed: u64,
}

impl Default for ThreadNetConfig {
    fn default() -> Self {
        ThreadNetConfig { seed: 0x5_ED_AA }
    }
}

type BoxedActor<M> = Box<dyn Actor<Msg = M>>;

/// Builder/owner of the threaded runtime. Register actors, then
/// [`ThreadNet::start`].
pub struct ThreadNet<M: MessageSize + Send + 'static> {
    config: ThreadNetConfig,
    actors: Vec<BoxedActor<M>>,
}

impl<M: MessageSize + Send + 'static> ThreadNet<M> {
    /// Creates an empty runtime.
    pub fn new(config: ThreadNetConfig) -> Self {
        ThreadNet {
            config,
            actors: Vec::new(),
        }
    }

    /// Registers an actor; ids are dense in registration order, matching
    /// the simulator's numbering for identical cluster builds.
    pub fn add_actor(&mut self, actor: BoxedActor<M>) -> ActorId {
        let id = ActorId(self.actors.len() as u32);
        self.actors.push(actor);
        id
    }

    /// Spawns the workers — one per available core, at most one per actor,
    /// plus one per [`Actor::may_block`] actor — and returns the external
    /// handle.
    pub fn start(self) -> ExternalHandle<M> {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        self.start_on(cores)
    }

    /// [`ThreadNet::start`] for a machine with `cores` cores.
    fn start_on(self, cores: usize) -> ExternalHandle<M> {
        let blocking: Vec<bool> = self.actors.iter().map(|a| a.may_block()).collect();
        let compute = blocking.iter().filter(|b| !**b).count();
        let pinned = cores.max(1).min(compute);
        let mut workers: Vec<Vec<Cell<M>>> = (0..pinned).map(|_| Vec::new()).collect();
        let mut mailboxes = Vec::with_capacity(self.actors.len());
        let mut dealt = 0;
        for (i, actor) in self.actors.into_iter().enumerate() {
            let worker = if blocking[i] {
                workers.push(Vec::new());
                workers.len() - 1
            } else {
                dealt += 1;
                (dealt - 1) % pinned
            };
            mailboxes.push(Mailbox {
                worker,
                slot: workers[worker].len(),
                inbox: Mutex::new(Inbox {
                    queue: VecDeque::with_capacity(INBOX_KEEP),
                    scheduled: false,
                }),
            });
            workers[worker].push(Cell {
                actor,
                id: ActorId(i as u32),
                rng: Xoshiro256::seeded(self.config.seed ^ (0x9E37 + i as u64 * 0x1_0001)),
                batch: VecDeque::with_capacity(INBOX_KEEP),
                timer_gens: HashMap::new(),
            });
        }

        let (ext_tx, ext_rx) = std::sync::mpsc::channel::<(ActorId, M)>();
        let router = Arc::new(Router {
            mailboxes,
            gates: workers.iter().map(|_| Gate::default()).collect(),
            external: ext_tx,
            halt: AtomicBool::new(false),
            epoch: Instant::now(),
        });
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, cells)| {
                let worker = Worker {
                    index,
                    router: Arc::clone(&router),
                    cells,
                    effects: Effects::default(),
                    timer_heap: BinaryHeap::new(),
                    gen_counter: 0,
                    ready: VecDeque::new(),
                };
                std::thread::Builder::new()
                    .name(worker_label(index))
                    .spawn(move || worker.run_loop())
                    .expect("spawn worker thread")
            })
            .collect();

        ExternalHandle {
            router,
            external_rx: ext_rx,
            handles,
        }
    }
}

fn worker_label(worker: usize) -> String {
    format!("sedna-worker-{worker}")
}

/// No runtime lock is held across an actor callback, so none is ever
/// poisoned by an actor's panic.
const NOT_POISONED: &str = "runtime locks are not held across callbacks";

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect(NOT_POISONED)
}

/// The shared half of an actor: where it lives and what it has been sent.
struct Mailbox<M> {
    /// The worker the actor is pinned to, and its index among that
    /// worker's actors.
    worker: usize,
    slot: usize,
    inbox: Mutex<Inbox<M>>,
}

struct Inbox<M> {
    queue: VecDeque<(ActorId, M)>,
    /// Whether the actor is on its worker's ready list (or on its way
    /// there). Guarded together with `queue`, so a sender and the worker
    /// always agree on who enlists the actor after a push.
    scheduled: bool,
}

/// The shared half of a worker: where senders enlist its actors.
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    wake: Condvar,
}

#[derive(Default)]
struct GateState {
    /// Slots of the actors that became ready since the worker last looked.
    ready: Vec<usize>,
    parked: bool,
}

struct Router<M> {
    mailboxes: Vec<Mailbox<M>>,
    gates: Vec<Gate>,
    external: Sender<(ActorId, M)>,
    halt: AtomicBool,
    epoch: Instant,
}

impl<M> Router<M> {
    fn now_micros(&self) -> Micros {
        self.epoch.elapsed().as_micros() as Micros
    }

    fn halted(&self) -> bool {
        self.halt.load(Ordering::SeqCst)
    }

    fn route(&self, from: ActorId, to: ActorId, msg: M) {
        if to == ActorId::EXTERNAL {
            let _ = self.external.send((from, msg));
            return;
        }
        // Messages to an unknown or already stopped actor are lost, like
        // messages to a crashed node.
        let Some(mailbox) = self.mailboxes.get(to.index()) else {
            return;
        };
        let was_idle = {
            let mut inbox = lock(&mailbox.inbox);
            inbox.queue.push_back((from, msg));
            !std::mem::replace(&mut inbox.scheduled, true)
        };
        if was_idle {
            let gate = &self.gates[mailbox.worker];
            let was_parked = {
                let mut state = lock(&gate.state);
                state.ready.push(mailbox.slot);
                std::mem::replace(&mut state.parked, false)
            };
            if was_parked {
                gate.wake.notify_one();
            }
        }
    }

    /// Raises the halt flag and wakes every parked worker. A worker reads
    /// the flag under its gate lock before it parks, so passing through
    /// that lock here means it either saw the flag or is already waiting.
    fn halt_all(&self) {
        self.halt.store(true, Ordering::SeqCst);
        for gate in &self.gates {
            drop(lock(&gate.state));
            gate.wake.notify_one();
        }
    }
}

/// The worker-owned half of an actor.
struct Cell<M: MessageSize + Send + 'static> {
    actor: BoxedActor<M>,
    id: ActorId,
    rng: Xoshiro256,
    /// Messages taken from the inbox and not yet handled.
    batch: VecDeque<(ActorId, M)>,
    /// Current generation per armed token — the same re-arm-replaces /
    /// cancel semantics as the simulator.
    timer_gens: HashMap<TimerToken, u64>,
}

enum Work<M> {
    Start,
    Message(ActorId, M),
    Timer(TimerToken),
}

/// Per-thread execution state: the pinned actors, their timers, the ready
/// list and the effect buffer.
struct Worker<M: MessageSize + Send + 'static> {
    index: usize,
    router: Arc<Router<M>>,
    cells: Vec<Cell<M>>,
    effects: Effects<M>,
    /// (deadline, generation, slot, token) min-heap over all pinned actors.
    timer_heap: BinaryHeap<Reverse<(Micros, u64, usize, TimerToken)>>,
    gen_counter: u64,
    /// Slots of the ready actors, in turn order.
    ready: VecDeque<usize>,
}

impl<M: MessageSize + Send + 'static> Worker<M> {
    fn run(&mut self, slot: usize, work: Work<M>) {
        self.effects.clear();
        let now = self.router.now_micros();
        let cell = &mut self.cells[slot];
        {
            let mut ctx = Ctx::new(now, cell.id, &mut cell.rng, &mut self.effects);
            match work {
                Work::Start => cell.actor.on_start(&mut ctx),
                Work::Message(from, msg) => cell.actor.on_message(from, msg, &mut ctx),
                Work::Timer(token) => cell.actor.on_timer(token, &mut ctx),
            }
        }
        for (to, msg) in self.effects.sends.drain(..) {
            self.router.route(cell.id, to, msg);
        }
        for op in self.effects.timer_ops.drain(..) {
            match op {
                TimerOp::Cancel(token) => {
                    cell.timer_gens.remove(&token);
                }
                TimerOp::Set(token, delay) => {
                    self.gen_counter += 1;
                    cell.timer_gens.insert(token, self.gen_counter);
                    self.timer_heap
                        .push(Reverse((now + delay, self.gen_counter, slot, token)));
                }
            }
        }
        if self.effects.halt {
            self.router.halt_all();
        }
    }

    /// Fires all due timers; returns the next pending deadline, if any.
    fn fire_due_timers(&mut self) -> Option<Micros> {
        loop {
            let Reverse((deadline, gen, slot, token)) = *self.timer_heap.peek()?;
            let gens = &mut self.cells[slot].timer_gens;
            if gens.get(&token) != Some(&gen) {
                self.timer_heap.pop(); // stale (cancelled or re-armed)
            } else if deadline <= self.router.now_micros() {
                self.timer_heap.pop();
                gens.remove(&token);
                self.run(slot, Work::Timer(token));
            } else {
                return Some(deadline);
            }
        }
    }

    /// Swaps the inbox of the actor at `slot` into its empty batch. With
    /// nothing to take, the actor goes idle instead: the next send enlists
    /// it again.
    fn refill(&mut self, slot: usize) -> bool {
        let cell = &mut self.cells[slot];
        let mut inbox = lock(&self.router.mailboxes[cell.id.index()].inbox);
        if inbox.queue.is_empty() {
            inbox.scheduled = false;
            return false;
        }
        std::mem::swap(&mut inbox.queue, &mut cell.batch);
        true
    }

    /// One turn of the actor at `slot`: up to [`TURN_MAX`] messages of its
    /// batch. Returns `false` once it has none left and went idle.
    fn turn(&mut self, slot: usize) -> bool {
        if self.cells[slot].batch.is_empty() && !self.refill(slot) {
            return false;
        }
        for _ in 0..TURN_MAX {
            if self.router.halted() {
                break;
            }
            let Some((from, msg)) = self.cells[slot].batch.pop_front() else {
                break;
            };
            self.run(slot, Work::Message(from, msg));
        }
        let batch = &mut self.cells[slot].batch;
        if !batch.is_empty() {
            return true;
        }
        if batch.capacity() > INBOX_KEEP {
            batch.shrink_to(INBOX_KEEP);
        }
        self.refill(slot)
    }

    /// Moves newly readied actors onto the turn list. With nothing ready
    /// it parks instead, until a sender enlists an actor, the runtime
    /// halts or `next_deadline` passes.
    fn collect_ready(&mut self, next_deadline: Option<Micros>) {
        let gate = &self.router.gates[self.index];
        let mut state = lock(&gate.state);
        self.ready.extend(state.ready.drain(..));
        if !self.ready.is_empty() || self.router.halted() {
            return;
        }
        state.parked = true;
        let mut state = match next_deadline {
            Some(deadline) => {
                let wait = deadline.saturating_sub(self.router.now_micros());
                gate.wake
                    .wait_timeout(state, Duration::from_micros(wait))
                    .expect(NOT_POISONED)
                    .0
            }
            None => gate.wake.wait(state).expect(NOT_POISONED),
        };
        state.parked = false;
    }

    fn run_loop(mut self) -> Vec<Cell<M>> {
        for slot in 0..self.cells.len() {
            self.run(slot, Work::Start);
        }
        while !self.router.halted() {
            let next_deadline = self.fire_due_timers();
            self.collect_ready(next_deadline);
            for _ in 0..self.ready.len() {
                let slot = self.ready.pop_front().expect("counted above");
                if self.turn(slot) {
                    self.ready.push_back(slot);
                }
            }
        }
        self.cells
    }
}

/// Handle held by the outside world: inject messages, receive messages
/// addressed to [`ActorId::EXTERNAL`], and shut the runtime down.
pub struct ExternalHandle<M: MessageSize + Send + 'static> {
    router: Arc<Router<M>>,
    external_rx: Receiver<(ActorId, M)>,
    handles: Vec<JoinHandle<Vec<Cell<M>>>>,
}

impl<M: MessageSize + Send + 'static> ExternalHandle<M> {
    /// Sends `msg` to `to` as [`ActorId::EXTERNAL`].
    pub fn send(&self, to: ActorId, msg: M) {
        self.router.route(ActorId::EXTERNAL, to, msg);
    }

    /// Waits up to `timeout` for a message addressed to the outside world.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(ActorId, M)> {
        self.external_rx.recv_timeout(timeout).ok()
    }

    /// Drains any already-delivered external messages without blocking.
    pub fn try_drain(&self) -> Vec<(ActorId, M)> {
        self.external_rx.try_iter().collect()
    }

    /// Current runtime clock (µs since start), comparable to `Ctx::now`.
    pub fn now_micros(&self) -> Micros {
        self.router.now_micros()
    }

    /// Name of the worker thread `actor` is pinned to (`None` for an
    /// unknown id). Per-thread diagnostics — flight rings, profiler scope
    /// stacks — carry it as their label, shared by co-located actors.
    pub fn worker_label(&self, actor: ActorId) -> Option<String> {
        let mailbox = self.router.mailboxes.get(actor.0 as usize)?;
        Some(worker_label(mailbox.worker))
    }

    /// Stops all workers and returns the actor state machines in
    /// registration order for post-mortem inspection (downcast with
    /// `as_any`).
    pub fn shutdown(self) -> Vec<BoxedActor<M>> {
        self.router.halt_all();
        let mut cells: Vec<_> = self
            .handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect();
        cells.sort_by_key(|cell| cell.id);
        cells.into_iter().map(|cell| cell.actor).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[derive(Debug, PartialEq)]
    enum Msg {
        Ping(u64),
        Pong(u64),
        Tick(u32),
        /// The `n`-th message on its link.
        Seq(u64),
        /// Self-addressed: send the next chunk.
        Kick,
        /// Block the handling thread for this many milliseconds.
        Sleep(u64),
        /// Play this many ping-pong round trips, starting now.
        Rally(u64),
        Done,
    }
    impl MessageSize for Msg {}

    fn net() -> ThreadNet<Msg> {
        ThreadNet::new(ThreadNetConfig::default())
    }

    fn recv(handle: &ExternalHandle<Msg>) -> (ActorId, Msg) {
        handle
            .recv_timeout(Duration::from_secs(10))
            .expect("message within 10s")
    }

    struct Server {
        handled: u64,
    }
    impl Actor for Server {
        type Msg = Msg;
        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Ping(n) = msg {
                self.handled += 1;
                ctx.send(from, Msg::Pong(n));
            }
        }
    }

    #[test]
    fn external_request_reply_roundtrip() {
        let mut net = net();
        let server = net.add_actor(Box::new(Server { handled: 0 }));
        let handle = net.start();
        for i in 0..50 {
            handle.send(server, Msg::Ping(i));
        }
        let mut got = Vec::new();
        while got.len() < 50 {
            let (from, msg) = recv(&handle);
            assert_eq!(from, server);
            if let Msg::Pong(n) = msg {
                got.push(n);
            }
        }
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        let actors = handle.shutdown();
        let s = actors[0].as_any().downcast_ref::<Server>().unwrap();
        assert_eq!(s.handled, 50);
    }

    struct Ticker {
        ticks: u32,
        report_to: ActorId,
    }
    impl Actor for Ticker {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            ctx.set_timer(TimerToken(1), 1_000); // 1 ms
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, _c: &mut Ctx<'_, Msg>) {}
        fn on_timer(&mut self, _t: TimerToken, ctx: &mut Ctx<'_, Msg>) {
            self.ticks += 1;
            ctx.send(self.report_to, Msg::Tick(self.ticks));
            if self.ticks < 5 {
                ctx.set_timer(TimerToken(1), 1_000);
            }
        }
    }

    #[test]
    fn timers_fire_under_threads() {
        let mut net = net();
        net.add_actor(Box::new(Ticker {
            ticks: 0,
            report_to: ActorId::EXTERNAL,
        }));
        let handle = net.start();
        let mut ticks = Vec::new();
        while ticks.len() < 5 {
            if let (_, Msg::Tick(n)) = recv(&handle) {
                ticks.push(n);
            }
        }
        assert_eq!(ticks, vec![1, 2, 3, 4, 5]);
        handle.shutdown();
    }

    struct Forwarder {
        next: ActorId,
    }
    impl Actor for Forwarder {
        type Msg = Msg;
        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            ctx.send(self.next, msg);
        }
    }

    #[test]
    fn multi_hop_pipeline_delivers_in_order_per_link() {
        let mut net = net();
        // chain: 0 -> 1 -> 2 -> external
        let a2 = ActorId(2);
        let a1 = ActorId(1);
        net.add_actor(Box::new(Forwarder { next: a1 }));
        net.add_actor(Box::new(Forwarder { next: a2 }));
        net.add_actor(Box::new(Forwarder {
            next: ActorId::EXTERNAL,
        }));
        let handle = net.start();
        for i in 0..20 {
            handle.send(ActorId(0), Msg::Ping(i));
        }
        let mut seen = Vec::new();
        while seen.len() < 20 {
            if let (_, Msg::Ping(n)) = recv(&handle) {
                seen.push(n);
            }
        }
        // Inboxes are FIFO and the chain is linear, so order must be
        // preserved end-to-end.
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        handle.shutdown();
    }

    struct HaltOnPing;
    impl Actor for HaltOnPing {
        type Msg = Msg;
        fn on_message(&mut self, _f: ActorId, _m: Msg, ctx: &mut Ctx<'_, Msg>) {
            ctx.halt();
        }
    }

    #[test]
    fn halt_propagates_to_all_threads() {
        let mut net = net();
        let h = net.add_actor(Box::new(HaltOnPing));
        // No timers, no messages: this one's worker is parked for good and
        // only ends because halting wakes it.
        net.add_actor(Box::new(Server { handled: 0 }));
        let handle = net.start_on(2);
        let start = Instant::now();
        handle.send(h, Msg::Ping(0));
        while !handle.router.halted() {
            assert!(start.elapsed() < Duration::from_secs(10), "never halted");
            std::thread::yield_now();
        }
        for worker in &handle.handles {
            while !worker.is_finished() {
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "a worker outlived the halt"
                );
                std::thread::yield_now();
            }
        }
        handle.shutdown();
    }

    /// Sends `quota` sequence-numbered messages round-robin to its peers, a
    /// chunk per self-addressed kick, and checks what it receives.
    struct Peer {
        peers: Vec<ActorId>,
        quota: u64,
        sent: u64,
        sent_to: HashMap<ActorId, u64>,
        got_from: HashMap<ActorId, u64>,
        out_of_order: u64,
        delivered: Arc<AtomicU64>,
    }
    impl Peer {
        fn send_chunk(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for _ in 0..100.min(self.quota - self.sent) {
                let to = self.peers[(self.sent % self.peers.len() as u64) as usize];
                let n = self.sent_to.entry(to).or_default();
                ctx.send(to, Msg::Seq(*n));
                *n += 1;
                self.sent += 1;
            }
            if self.sent < self.quota {
                ctx.send(ctx.self_id(), Msg::Kick);
            }
        }
    }
    impl Actor for Peer {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.send_chunk(ctx);
        }
        fn on_message(&mut self, from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Kick => self.send_chunk(ctx),
                Msg::Seq(n) => {
                    let next = self.got_from.entry(from).or_default();
                    if n != *next {
                        self.out_of_order += 1;
                    }
                    *next += 1;
                    self.delivered.fetch_add(1, Ordering::SeqCst);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn every_message_arrives_once_and_in_link_order_at_any_worker_count() {
        const PEERS: u32 = 8;
        const TOTAL: u64 = 100_000;
        for cores in [1, 2, 3, 8] {
            let delivered = Arc::new(AtomicU64::new(0));
            let mut net = net();
            for i in 0..PEERS {
                net.add_actor(Box::new(Peer {
                    peers: (0..PEERS).filter(|p| *p != i).map(ActorId).collect(),
                    quota: TOTAL / PEERS as u64,
                    sent: 0,
                    sent_to: HashMap::new(),
                    got_from: HashMap::new(),
                    out_of_order: 0,
                    delivered: delivered.clone(),
                }));
            }
            let handle = net.start_on(cores);
            let start = Instant::now();
            while delivered.load(Ordering::SeqCst) < TOTAL {
                assert!(
                    start.elapsed() < Duration::from_secs(60),
                    "cores={cores}: stuck at {delivered:?}"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // Time for a duplicate to show up.
            std::thread::sleep(Duration::from_millis(20));
            let actors = handle.shutdown();
            let peers: Vec<&Peer> = actors
                .iter()
                .map(|a| a.as_any().downcast_ref::<Peer>().unwrap())
                .collect();
            for (i, receiver) in peers.iter().enumerate() {
                assert_eq!(receiver.out_of_order, 0, "cores={cores} actor {i}");
                for (j, sender) in peers.iter().enumerate() {
                    assert_eq!(
                        receiver.got_from.get(&ActorId(j as u32)),
                        sender.sent_to.get(&ActorId(i as u32)),
                        "cores={cores} link {j}->{i}"
                    );
                }
            }
            assert_eq!(delivered.load(Ordering::SeqCst), TOTAL, "cores={cores}");
        }
    }

    /// Keeps its own inbox full for ever: every message is sent on to
    /// itself. Spins a little per message, like an actor doing work.
    struct Flooded {
        handled: Arc<AtomicU64>,
    }
    impl Actor for Flooded {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            for _ in 0..1_000 {
                ctx.send(ctx.self_id(), Msg::Kick);
            }
        }
        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            for i in 0..200u64 {
                std::hint::black_box(i);
            }
            self.handled.fetch_add(1, Ordering::Relaxed);
            ctx.send(ctx.self_id(), msg);
        }
    }

    /// One half of a ping-pong; reports `Done` to the outside when the
    /// rally it was asked to start is over.
    struct Rallier {
        partner: ActorId,
    }
    impl Actor for Rallier {
        type Msg = Msg;
        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            match msg {
                Msg::Rally(n) | Msg::Pong(n) if n == 0 => ctx.send(ActorId::EXTERNAL, Msg::Done),
                Msg::Rally(n) | Msg::Pong(n) => ctx.send(self.partner, Msg::Ping(n - 1)),
                Msg::Ping(n) => ctx.send(self.partner, Msg::Pong(n)),
                _ => {}
            }
        }
    }

    fn add_rally_pair(net: &mut ThreadNet<Msg>) -> ActorId {
        let first = ActorId(net.actors.len() as u32);
        let second = ActorId(first.0 + 1);
        net.add_actor(Box::new(Rallier { partner: second }));
        net.add_actor(Box::new(Rallier { partner: first }));
        first
    }

    #[test]
    fn flooded_actor_does_not_starve_a_colocated_ping_pong() {
        let handled = Arc::new(AtomicU64::new(0));
        let mut net = net();
        net.add_actor(Box::new(Flooded {
            handled: handled.clone(),
        }));
        let rally = add_rally_pair(&mut net);
        let handle = net.start_on(1);
        handle.send(rally, Msg::Rally(1_000));
        assert_eq!(recv(&handle).1, Msg::Done);
        // A hop of the rally waits for one bounded turn of the flooded
        // actor, not for its inbox to run dry (it never does).
        let per_hop = handled.load(Ordering::Relaxed) / 2_000;
        assert!(per_hop <= 2 * TURN_MAX as u64, "{per_hop} messages per hop");
        handle.shutdown();
    }

    /// Arms a 1 ms timer over and over and records how late each firing was.
    struct LateTicker {
        armed_at: Micros,
        late_micros: Vec<Micros>,
    }
    impl Actor for LateTicker {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            self.armed_at = ctx.now();
            ctx.set_timer(TimerToken(7), 1_000);
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, _c: &mut Ctx<'_, Msg>) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, Msg>) {
            self.late_micros.push(ctx.now() - self.armed_at - 1_000);
            if self.late_micros.len() == 50 {
                ctx.send(ActorId::EXTERNAL, Msg::Done);
            } else {
                self.armed_at = ctx.now();
                ctx.set_timer(token, 1_000);
            }
        }
    }

    #[test]
    fn timer_next_to_a_busy_actor_fires_on_time() {
        let mut net = net();
        net.add_actor(Box::new(Flooded {
            handled: Arc::default(),
        }));
        net.add_actor(Box::new(LateTicker {
            armed_at: 0,
            late_micros: Vec::new(),
        }));
        let handle = net.start_on(1);
        assert_eq!(recv(&handle).1, Msg::Done);
        let actors = handle.shutdown();
        let ticker = actors[1].as_any().downcast_ref::<LateTicker>().unwrap();
        // The median, so that the test runner's other threads preempting
        // this worker now and then does not fail it.
        let mut late = ticker.late_micros.clone();
        late.sort_unstable();
        assert!(late[late.len() / 2] < 4_000, "fired late by {late:?} µs");
    }

    /// Issues timer operations against one another inside one callback.
    struct TimerScript {
        fired: Vec<TimerToken>,
    }
    impl Actor for TimerScript {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
            // set then cancel: never fires.
            ctx.set_timer(TimerToken(1), 1_000);
            ctx.cancel_timer(TimerToken(1));
            // re-arm replaces: fires once, at the later deadline.
            ctx.set_timer(TimerToken(2), 1_000);
            ctx.set_timer(TimerToken(2), 20_000);
            // cancel then set: fires.
            ctx.cancel_timer(TimerToken(3));
            ctx.set_timer(TimerToken(3), 1_000);
            ctx.set_timer(TimerToken(4), 40_000);
        }
        fn on_message(&mut self, _f: ActorId, _m: Msg, _c: &mut Ctx<'_, Msg>) {}
        fn on_timer(&mut self, token: TimerToken, ctx: &mut Ctx<'_, Msg>) {
            self.fired.push(token);
            if token == TimerToken(4) {
                ctx.send(ActorId::EXTERNAL, Msg::Done);
            }
        }
    }

    #[test]
    fn timer_ops_within_one_callback_apply_in_issue_order() {
        let mut net = net();
        net.add_actor(Box::new(TimerScript { fired: Vec::new() }));
        let handle = net.start_on(1);
        assert_eq!(recv(&handle).1, Msg::Done);
        let actors = handle.shutdown();
        let script = actors[0].as_any().downcast_ref::<TimerScript>().unwrap();
        assert_eq!(
            script.fired,
            vec![TimerToken(3), TimerToken(2), TimerToken(4)]
        );
    }

    /// Blocks its thread when told to, then reports `Tick(0)` outside.
    struct Sleeper {
        may_block: bool,
    }
    impl Actor for Sleeper {
        type Msg = Msg;
        fn on_message(&mut self, _from: ActorId, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
            if let Msg::Sleep(millis) = msg {
                std::thread::sleep(Duration::from_millis(millis));
                ctx.send(ActorId::EXTERNAL, Msg::Tick(0));
            }
        }
        fn may_block(&self) -> bool {
            self.may_block
        }
    }

    /// Puts a sleeper to sleep, waits until it is, then starts a rally:
    /// the rally must be over before the sleeper wakes.
    fn assert_rally_outruns_sleeper(
        handle: ExternalHandle<Msg>,
        sleeper: ActorId,
        rally: ActorId,
        millis: u64,
    ) {
        handle.send(sleeper, Msg::Sleep(millis));
        // The sleeper's inbox is swapped out when its turn begins.
        let inbox = &handle.router.mailboxes[sleeper.index()].inbox;
        while !lock(inbox).queue.is_empty() {
            std::thread::yield_now();
        }
        handle.send(rally, Msg::Rally(20));
        assert_eq!(
            recv(&handle).1,
            Msg::Done,
            "the rally waited for the sleeper"
        );
        assert_eq!(recv(&handle).1, Msg::Tick(0));
        handle.shutdown();
    }

    #[test]
    fn blocking_actor_gets_its_own_worker() {
        let mut net = net();
        let sleeper = net.add_actor(Box::new(Sleeper { may_block: true }));
        let rally = add_rally_pair(&mut net);
        let handle = net.start_on(1);
        assert_eq!(handle.worker_label(rally), handle.worker_label(ActorId(2)));
        assert_ne!(handle.worker_label(sleeper), handle.worker_label(rally));
        assert_rally_outruns_sleeper(handle, sleeper, rally, 50);
    }

    #[test]
    fn callback_stuck_on_one_worker_does_not_delay_another() {
        let mut net = net();
        // Two workers, actors dealt round-robin: the sleeper and a filler
        // on worker 0, the rally pair on worker 1.
        let sleeper = net.add_actor(Box::new(Sleeper { may_block: false }));
        let first = net.add_actor(Box::new(Rallier {
            partner: ActorId(3),
        }));
        net.add_actor(Box::new(Server { handled: 0 }));
        net.add_actor(Box::new(Rallier { partner: first }));
        let handle = net.start_on(2);
        assert_eq!(handle.worker_label(sleeper).unwrap(), "sedna-worker-0");
        assert_eq!(handle.worker_label(first).unwrap(), "sedna-worker-1");
        assert_eq!(handle.worker_label(ActorId(3)).unwrap(), "sedna-worker-1");
        assert_rally_outruns_sleeper(handle, sleeper, first, 20);
    }

    #[test]
    fn shutdown_returns_actors_in_registration_order_with_state() {
        let mut net = net();
        // Spread over two pinned workers and one blocking worker, so join
        // order differs from registration order.
        let ids: Vec<ActorId> = (0..5)
            .map(|i| match i {
                2 => net.add_actor(Box::new(Sleeper { may_block: true })),
                _ => net.add_actor(Box::new(Server { handled: 0 })),
            })
            .collect();
        let handle = net.start_on(2);
        assert_eq!(handle.worker_label(ActorId(5)), None);
        let mut expected = 0;
        for (i, id) in ids.iter().enumerate() {
            for n in 0..=i as u64 {
                handle.send(*id, Msg::Ping(n));
            }
            expected += if i == 2 { 0 } else { i + 1 };
        }
        for _ in 0..expected {
            recv(&handle);
        }
        let actors = handle.shutdown();
        assert_eq!(actors.len(), 5);
        for (i, actor) in actors.iter().enumerate() {
            match actor.as_any().downcast_ref::<Server>() {
                Some(server) => assert_eq!(server.handled, i as u64 + 1),
                None => assert_eq!(i, 2),
            }
        }
    }
}
