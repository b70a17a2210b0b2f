//! The cache server actor.

use sedna_common::time::{Micros, Timestamp};
use sedna_common::{Key, NodeId, Value};
use sedna_memstore::{MemStore, StoreConfig};
use sedna_net::actor::{Actor, ActorId, Ctx, MessageSize, Wrap};

use crate::messages::McMsg;

/// A memcached-like server: get/set/delete over the shared local-store
/// engine, LRU-bounded when a budget is configured.
pub struct McServer<M> {
    store: MemStore,
    origin: NodeId,
    seq: u32,
    /// CPU service time charged per get (µs).
    read_service: Micros,
    /// CPU service time charged per set/delete (µs).
    write_service: Micros,
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M> McServer<M>
where
    M: Wrap<McMsg> + MessageSize + Send + 'static,
{
    /// Creates a server with an optional memory budget. Service times match
    /// the Sedna nodes' so comparisons measure distribution strategy, not
    /// engine differences (the paper's local engine *is* the same).
    pub fn new(
        origin: NodeId,
        memory_budget: Option<usize>,
        read_service_micros: Micros,
        write_service_micros: Micros,
    ) -> Self {
        McServer {
            store: MemStore::new(StoreConfig {
                memory_budget,
                ..StoreConfig::default()
            }),
            origin,
            seq: 0,
            read_service: read_service_micros,
            write_service: write_service_micros,
            _marker: std::marker::PhantomData,
        }
    }

    /// Read access to the underlying store (tests/metrics).
    pub fn store(&self) -> &MemStore {
        &self.store
    }

    fn set(&mut self, now: Micros, key: &Key, value: Value) {
        // Server-local timestamps: each set supersedes the previous one on
        // this server, which is exactly memcached overwrite semantics.
        self.seq += 1;
        let ts = Timestamp::new(now, self.seq, self.origin);
        self.store.write_latest(key, ts, value);
    }

    fn handle(&mut self, from: ActorId, msg: McMsg, ctx: &mut Ctx<'_, M>) {
        match msg {
            McMsg::Set { req, key, value } => {
                self.set(ctx.now(), &key, value);
                ctx.send(from, M::wrap(McMsg::SetOk { req }));
            }
            McMsg::Get { req, key } => {
                let value = self.store.read_latest(&key).map(|v| v.value);
                ctx.send(from, M::wrap(McMsg::GetReply { req, value }));
            }
            McMsg::Delete { req, key } => {
                let found = self.store.remove(&key).is_some();
                ctx.send(from, M::wrap(McMsg::DeleteReply { req, found }));
            }
            McMsg::SetOk { .. } | McMsg::GetReply { .. } | McMsg::DeleteReply { .. } => {}
        }
    }
}

impl<M> Actor for McServer<M>
where
    M: Wrap<McMsg> + MessageSize + Send + 'static,
{
    type Msg = M;

    fn on_message(&mut self, from: ActorId, msg: M, ctx: &mut Ctx<'_, M>) {
        if let Ok(mc) = msg.unwrap() {
            self.handle(from, mc, ctx);
        }
    }

    fn service_micros(&self, msg: &M) -> Micros {
        match msg.peek() {
            Some(McMsg::Get { .. }) => self.read_service,
            Some(_) => self.write_service,
            None => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::RequestId;
    use sedna_net::link::LinkModel;
    use sedna_net::sim::{Sim, SimConfig};

    #[test]
    fn get_set_delete_roundtrip_in_sim() {
        let mut sim: Sim<McMsg> = Sim::new(SimConfig {
            seed: 1,
            link: LinkModel::gigabit_lan(),
            ..SimConfig::default()
        });
        let server = sim.add_actor(Box::new(McServer::<McMsg>::new(NodeId(0), None, 8, 10)));
        sim.start();
        sim.send_external(
            server,
            McMsg::Set {
                req: RequestId(1),
                key: Key::from("k"),
                value: Value::from("v"),
            },
        );
        sim.run_until_idle(1_000);
        sim.send_external(
            server,
            McMsg::Get {
                req: RequestId(2),
                key: Key::from("k"),
            },
        );
        sim.send_external(
            server,
            McMsg::Get {
                req: RequestId(3),
                key: Key::from("nope"),
            },
        );
        sim.run_until_idle(1_000);
        sim.send_external(
            server,
            McMsg::Delete {
                req: RequestId(4),
                key: Key::from("k"),
            },
        );
        sim.run_until_idle(1_000);
        let out = sim.take_external();
        assert_eq!(out.len(), 4);
        assert!(matches!(out[0].1, McMsg::SetOk { req: RequestId(1) }));
        assert!(matches!(
            &out[1].1,
            McMsg::GetReply { req: RequestId(2), value: Some(v) } if *v == Value::from("v")
        ));
        assert!(matches!(
            out[2].1,
            McMsg::GetReply {
                req: RequestId(3),
                value: None
            }
        ));
        assert!(matches!(
            out[3].1,
            McMsg::DeleteReply {
                req: RequestId(4),
                found: true
            }
        ));
    }

    #[test]
    fn overwrites_always_win_locally() {
        let mut sim: Sim<McMsg> = Sim::new(SimConfig {
            seed: 2,
            link: LinkModel::instant(),
            ..SimConfig::default()
        });
        let server = sim.add_actor(Box::new(McServer::<McMsg>::new(NodeId(0), None, 0, 0)));
        sim.start();
        for i in 0..5 {
            sim.send_external(
                server,
                McMsg::Set {
                    req: RequestId(i),
                    key: Key::from("k"),
                    value: Value::from(format!("v{i}")),
                },
            );
        }
        sim.run_until_idle(1_000);
        sim.send_external(
            server,
            McMsg::Get {
                req: RequestId(9),
                key: Key::from("k"),
            },
        );
        sim.run_until_idle(1_000);
        let out = sim.take_external();
        let last = out.last().unwrap();
        assert!(matches!(
            &last.1,
            McMsg::GetReply { value: Some(v), .. } if *v == Value::from("v4")
        ));
    }
}
