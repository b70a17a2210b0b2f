//! Client-side coordination helpers.
//!
//! [`SessionClient`] is an *embeddable* protocol driver: a Sedna node actor
//! owns one, calls its methods to produce `(destination, CoordMsg)` pairs to
//! send through its own `Ctx`, and feeds replies back in. It tracks the
//! session, correlates request ids, and fails over between replicas.
//!
//! [`LeaseCache`] implements Sec. III-E's three read-scaling strategies
//! verbatim:
//!
//! 1. a local cache consulted before ZooKeeper;
//! 2. a periodic synchronization thread whose period — the *lease time* —
//!    halves "if there are lots of changes in ZooKeeper in last lease time,
//!    and grow\[s\] to double if no change in last lease time";
//! 3. refresh-only-what-changed, via the change-log query
//!    ([`CoordOp::ChangesSince`]) instead of re-reading everything — and
//!    explicitly **no watches**, avoiding the notification storm.

use std::collections::HashMap;

use sedna_common::time::Micros;
use sedna_common::{RequestId, SessionId};
use sedna_net::actor::ActorId;

use crate::messages::{CoordError, CoordMsg, CoordOp, CoordReply};

/// Session configuration.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Replica addresses; requests round-robin on failover.
    pub replicas: Vec<ActorId>,
    /// Heartbeat period; must stay well below the ensemble's session
    /// timeout.
    pub ping_interval_micros: Micros,
    /// How long to wait for a reply before assuming the contacted replica
    /// is dead, rotating to the next one and re-issuing (covers crashed
    /// replicas, which never answer at all). Should exceed the ensemble's
    /// election timeout.
    pub request_timeout_micros: Micros,
}

/// Events surfaced to the embedding actor.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionEvent {
    /// The session is open; requests may now be issued.
    Opened(SessionId),
    /// A request completed.
    Reply {
        /// Correlation id from [`SessionClient::request`].
        req_id: RequestId,
        /// The outcome.
        result: Result<CoordReply, CoordError>,
    },
    /// A one-shot watch fired.
    Watch {
        /// Watched path.
        path: String,
    },
    /// A heartbeat came back. `sent_at` is the clock reading passed to
    /// [`SessionClient::ping`], so the embedder computes the RTT as
    /// `now - sent_at` against its own clock (the session client never
    /// reads a clock itself).
    Pong {
        /// When the ping was issued (µs, embedder's clock).
        sent_at: Micros,
    },
    /// The session was lost (expired); the embedding actor must re-open and
    /// re-create its ephemerals.
    Expired,
}

/// Embeddable session driver.
#[derive(Debug)]
pub struct SessionClient {
    cfg: SessionConfig,
    session: Option<SessionId>,
    preferred: usize,
    next_req: RequestId,
    /// Requests in flight with their send time (so both Unavailable
    /// replies and replica silence can rotate and retry).
    in_flight: HashMap<RequestId, (CoordOp, Micros)>,
    open_req: Option<RequestId>,
    open_sent_at: Micros,
    /// Outstanding heartbeats and when each was sent; replies surface as
    /// [`SessionEvent::Pong`] (carrying the send time for RTT math) rather
    /// than as [`SessionEvent::Reply`].
    pings: HashMap<RequestId, Micros>,
}

impl SessionClient {
    /// Creates a driver; call [`SessionClient::open`] next.
    pub fn new(cfg: SessionConfig) -> Self {
        assert!(!cfg.replicas.is_empty(), "need at least one replica");
        SessionClient {
            cfg,
            session: None,
            preferred: 0,
            next_req: RequestId(1),
            in_flight: HashMap::new(),
            open_req: None,
            open_sent_at: 0,
            pings: HashMap::new(),
        }
    }

    /// The open session id, if any.
    pub fn session(&self) -> Option<SessionId> {
        self.session
    }

    /// The replica currently preferred for requests.
    pub fn preferred_replica(&self) -> ActorId {
        self.cfg.replicas[self.preferred]
    }

    /// How often the embedding actor should call [`SessionClient::ping`].
    pub fn ping_interval(&self) -> Micros {
        self.cfg.ping_interval_micros
    }

    fn fresh_req(&mut self) -> RequestId {
        let id = self.next_req;
        self.next_req = self.next_req.next();
        id
    }

    /// Builds the session-open request. `now` stamps the attempt so
    /// [`SessionClient::on_tick`] can time it out.
    pub fn open(&mut self, now: Micros) -> (ActorId, CoordMsg) {
        let req_id = self.fresh_req();
        self.open_req = Some(req_id);
        self.open_sent_at = now;
        (
            self.preferred_replica(),
            CoordMsg::Request {
                session: SessionId(0),
                req_id,
                op: CoordOp::OpenSession,
            },
        )
    }

    /// Builds a request for `op`. Returns `None` when no session is open.
    pub fn request(&mut self, op: CoordOp, now: Micros) -> Option<(RequestId, ActorId, CoordMsg)> {
        let session = self.session?;
        let req_id = self.fresh_req();
        self.in_flight.insert(req_id, (op.clone(), now));
        Some((
            req_id,
            self.preferred_replica(),
            CoordMsg::Request {
                session,
                req_id,
                op,
            },
        ))
    }

    /// Builds the periodic heartbeat. `None` when no session is open.
    /// `now` is remembered and echoed back in [`SessionEvent::Pong`].
    pub fn ping(&mut self, now: Micros) -> Option<(ActorId, CoordMsg)> {
        let session = self.session?;
        let req_id = self.fresh_req();
        self.pings.insert(req_id, now);
        Some((
            self.preferred_replica(),
            CoordMsg::Request {
                session,
                req_id,
                op: CoordOp::Ping,
            },
        ))
    }

    /// Times out silent requests: anything outstanding longer than the
    /// configured request timeout is re-issued against the next replica
    /// (the contacted one is presumed dead). Returns retry pairs
    /// `(original_req_id, (to, msg))` so embedders can re-associate their
    /// correlation state with the fresh request id embedded in `msg`.
    ///
    /// Call this from the embedder's periodic tick.
    pub fn on_tick(&mut self, now: Micros) -> Vec<(RequestId, (ActorId, CoordMsg))> {
        let timeout = self.cfg.request_timeout_micros;
        let mut out = Vec::new();
        let mut rotated = false;
        // Stale pings are simply dropped (the next ping is periodic anyway,
        // and replica silence is covered by regular requests); retaining
        // only fresh ones bounds the table when a replica goes quiet.
        self.pings
            .retain(|_, sent| now.saturating_sub(*sent) <= timeout);

        if self.open_req.is_some() && now.saturating_sub(self.open_sent_at) > timeout {
            self.preferred = (self.preferred + 1) % self.cfg.replicas.len();
            rotated = true;
            let old = self.open_req.take().expect("checked");
            let retry = self.open(now);
            out.push((old, retry));
        }
        let mut overdue: Vec<RequestId> = self
            .in_flight
            .iter()
            .filter(|(_, (_, sent))| now.saturating_sub(*sent) > timeout)
            .map(|(r, _)| *r)
            .collect();
        // Retry in issue order: each retry draws a fresh request id, so
        // hash-map order would reach both the ids and the send order.
        overdue.sort_unstable();
        for old in overdue {
            if !rotated {
                self.preferred = (self.preferred + 1) % self.cfg.replicas.len();
                rotated = true;
            }
            let (op, _) = self.in_flight.remove(&old).expect("overdue");
            if let Some((_, to, msg)) = self.request(op, now) {
                out.push((old, (to, msg)));
            }
        }
        out
    }

    /// Feeds a received message in; returns the event for the embedder plus
    /// an optional retry message (replica failover on `Unavailable`).
    pub fn on_message(
        &mut self,
        msg: CoordMsg,
    ) -> (Option<SessionEvent>, Option<(ActorId, CoordMsg)>) {
        match msg {
            CoordMsg::Response { req_id, result } => {
                if Some(req_id) == self.open_req {
                    self.open_req = None;
                    return match result {
                        Ok(CoordReply::SessionOpened(sid)) => {
                            self.session = Some(sid);
                            (Some(SessionEvent::Opened(sid)), None)
                        }
                        _ => {
                            // Rotate and retry the open.
                            self.preferred = (self.preferred + 1) % self.cfg.replicas.len();
                            let retry = self.open(self.open_sent_at);
                            (None, Some(retry))
                        }
                    };
                }
                if let Some(sent_at) = self.pings.remove(&req_id) {
                    // Heartbeat outcome: expiry tears the session down;
                    // anything else is a liveness pong worth an RTT sample.
                    return match result {
                        Err(CoordError::SessionExpired) => {
                            self.session = None;
                            (Some(SessionEvent::Expired), None)
                        }
                        _ => (Some(SessionEvent::Pong { sent_at }), None),
                    };
                }
                match result {
                    Err(CoordError::Unavailable) => {
                        // Election in progress or stale leader: rotate and
                        // retry the same operation under a fresh id.
                        self.preferred = (self.preferred + 1) % self.cfg.replicas.len();
                        if let Some((op, sent)) = self.in_flight.remove(&req_id) {
                            let retry = self.request(op, sent).map(|(_, to, m)| (to, m));
                            (None, retry)
                        } else {
                            (None, None)
                        }
                    }
                    Err(CoordError::SessionExpired) => {
                        self.in_flight.remove(&req_id);
                        self.session = None;
                        (Some(SessionEvent::Expired), None)
                    }
                    other => {
                        self.in_flight.remove(&req_id);
                        (
                            Some(SessionEvent::Reply {
                                req_id,
                                result: other,
                            }),
                            None,
                        )
                    }
                }
            }
            CoordMsg::WatchEvent { path, .. } => (Some(SessionEvent::Watch { path }), None),
            _ => (None, None),
        }
    }
}

/// Lease-cache configuration.
#[derive(Clone, Copy, Debug)]
pub struct LeaseConfig {
    /// Starting lease (µs).
    pub initial_micros: Micros,
    /// Lower bound after halvings.
    pub min_micros: Micros,
    /// Upper bound after doublings.
    pub max_micros: Micros,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            initial_micros: 200_000,
            min_micros: 25_000,
            max_micros: 3_200_000,
        }
    }
}

/// The adaptive-lease read cache of Sec. III-E.
#[derive(Debug)]
pub struct LeaseCache {
    cfg: LeaseConfig,
    lease: Micros,
    entries: HashMap<String, (Vec<u8>, u64)>,
    /// Highest zxid incorporated.
    pub last_zxid: u64,
}

impl LeaseCache {
    /// Creates an empty cache.
    pub fn new(cfg: LeaseConfig) -> Self {
        LeaseCache {
            lease: cfg.initial_micros,
            cfg,
            entries: HashMap::new(),
            last_zxid: 0,
        }
    }

    /// Current lease duration; the embedder arms its refresh timer with
    /// this after every [`LeaseCache::adapt`].
    pub fn lease_micros(&self) -> Micros {
        self.lease
    }

    /// Cached value lookup.
    pub fn get(&self, path: &str) -> Option<(&[u8], u64)> {
        self.entries.get(path).map(|(d, v)| (d.as_slice(), *v))
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Installs or refreshes a cached value.
    pub fn put(&mut self, path: impl Into<String>, data: Vec<u8>, version: u64) {
        self.entries.insert(path.into(), (data, version));
    }

    /// Drops one path (e.g. after a target node returned 'reject' or
    /// 'timeout', the paper's cache-invalidation trigger).
    pub fn invalidate(&mut self, path: &str) {
        self.entries.remove(path);
    }

    /// Drops everything (change-log truncated → full refresh).
    pub fn invalidate_all(&mut self) {
        self.entries.clear();
    }

    /// The refresh query to issue when the lease expires.
    pub fn refresh_op(&self) -> CoordOp {
        CoordOp::ChangesSince {
            zxid: self.last_zxid,
        }
    }

    /// Digests a `Changes` reply: drops stale entries, records progress and
    /// adapts the lease. Returns the cached paths that must be re-fetched
    /// (the "only refreshes modified data" set).
    pub fn apply_changes(
        &mut self,
        paths: Vec<String>,
        latest_zxid: u64,
        truncated: bool,
    ) -> Vec<String> {
        let stale: Vec<String> = if truncated {
            // Too far behind: everything cached is suspect.
            self.entries.keys().cloned().collect()
        } else {
            paths
                .iter()
                .filter(|p| self.entries.contains_key(*p))
                .cloned()
                .collect()
        };
        for p in &stale {
            self.entries.remove(p);
        }
        let saw_changes = truncated || !paths.is_empty();
        self.last_zxid = latest_zxid;
        self.adapt(saw_changes);
        stale
    }

    /// The paper's rule: halve on a busy window, double on a quiet one.
    pub fn adapt(&mut self, saw_changes: bool) {
        self.lease = if saw_changes {
            (self.lease / 2).max(self.cfg.min_micros)
        } else {
            (self.lease * 2).min(self.cfg.max_micros)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeError;

    fn client() -> SessionClient {
        SessionClient::new(SessionConfig {
            replicas: vec![ActorId(10), ActorId(11), ActorId(12)],
            ping_interval_micros: 100_000,
            request_timeout_micros: 500_000,
        })
    }

    #[test]
    fn open_then_request_flow() {
        let mut c = client();
        assert!(c.request(CoordOp::Ping, 0).is_none(), "no session yet");
        let (to, msg) = c.open(0);
        assert_eq!(to, ActorId(10));
        let CoordMsg::Request { req_id, .. } = msg else {
            panic!()
        };
        let (ev, retry) = c.on_message(CoordMsg::Response {
            req_id,
            result: Ok(CoordReply::SessionOpened(SessionId(77))),
        });
        assert_eq!(ev, Some(SessionEvent::Opened(SessionId(77))));
        assert!(retry.is_none());
        assert_eq!(c.session(), Some(SessionId(77)));
        let (rid, to, _msg) = c
            .request(
                CoordOp::Exists {
                    path: "/x".into(),
                    watch: false,
                },
                0,
            )
            .unwrap();
        assert_eq!(to, ActorId(10));
        let (ev, _) = c.on_message(CoordMsg::Response {
            req_id: rid,
            result: Ok(CoordReply::Existence(true)),
        });
        assert!(matches!(ev, Some(SessionEvent::Reply { .. })));
    }

    #[test]
    fn unavailable_rotates_replica_and_retries() {
        let mut c = client();
        let (_, msg) = c.open(0);
        let CoordMsg::Request { req_id, .. } = msg else {
            panic!()
        };
        c.on_message(CoordMsg::Response {
            req_id,
            result: Ok(CoordReply::SessionOpened(SessionId(1))),
        });
        let (rid, _, _) = c
            .request(
                CoordOp::Set {
                    path: "/a".into(),
                    data: vec![],
                    expected_version: None,
                },
                0,
            )
            .unwrap();
        let (ev, retry) = c.on_message(CoordMsg::Response {
            req_id: rid,
            result: Err(CoordError::Unavailable),
        });
        assert!(ev.is_none());
        let (to, retry_msg) = retry.expect("must retry");
        assert_eq!(to, ActorId(11), "rotated to next replica");
        assert!(matches!(
            retry_msg,
            CoordMsg::Request {
                op: CoordOp::Set { .. },
                ..
            }
        ));
    }

    #[test]
    fn silent_requests_retry_in_issue_order() {
        let mut c = client();
        let (_, msg) = c.open(0);
        let CoordMsg::Request { req_id, .. } = msg else {
            panic!()
        };
        c.on_message(CoordMsg::Response {
            req_id,
            result: Ok(CoordReply::SessionOpened(SessionId(1))),
        });
        let issued: Vec<RequestId> = (0..8)
            .map(|i| {
                let op = CoordOp::Exists {
                    path: format!("/p{i}"),
                    watch: false,
                };
                c.request(op, 0).expect("session open").0
            })
            .collect();
        // All eight time out in one tick: they are re-issued in the order
        // they were first issued, in every run (not in hash-map order).
        let retried: Vec<RequestId> = c
            .on_tick(1_000_001)
            .into_iter()
            .map(|(old, _)| old)
            .collect();
        assert_eq!(retried, issued);
    }

    #[test]
    fn open_failure_rotates_and_retries_open() {
        let mut c = client();
        let (_, msg) = c.open(0);
        let CoordMsg::Request { req_id, .. } = msg else {
            panic!()
        };
        let (ev, retry) = c.on_message(CoordMsg::Response {
            req_id,
            result: Err(CoordError::Unavailable),
        });
        assert!(ev.is_none());
        let (to, m) = retry.expect("retry the open");
        assert_eq!(to, ActorId(11));
        assert!(matches!(
            m,
            CoordMsg::Request {
                op: CoordOp::OpenSession,
                ..
            }
        ));
    }

    #[test]
    fn session_expiry_surfaces_and_clears() {
        let mut c = client();
        let (_, msg) = c.open(0);
        let CoordMsg::Request { req_id, .. } = msg else {
            panic!()
        };
        c.on_message(CoordMsg::Response {
            req_id,
            result: Ok(CoordReply::SessionOpened(SessionId(5))),
        });
        let (rid, _, _) = c.request(CoordOp::Ping, 0).unwrap();
        let (ev, _) = c.on_message(CoordMsg::Response {
            req_id: rid,
            result: Err(CoordError::SessionExpired),
        });
        assert_eq!(ev, Some(SessionEvent::Expired));
        assert!(c.session().is_none());
        assert!(c.ping(0).is_none());
    }

    #[test]
    fn watch_events_surface() {
        let mut c = client();
        let (ev, _) = c.on_message(CoordMsg::WatchEvent {
            path: "/sedna/vnodes/3".into(),
            kind: crate::messages::WatchKind::DataChanged,
        });
        assert_eq!(
            ev,
            Some(SessionEvent::Watch {
                path: "/sedna/vnodes/3".into()
            })
        );
    }

    #[test]
    fn tree_errors_pass_through_as_replies() {
        let mut c = client();
        let (_, msg) = c.open(0);
        let CoordMsg::Request { req_id, .. } = msg else {
            panic!()
        };
        c.on_message(CoordMsg::Response {
            req_id,
            result: Ok(CoordReply::SessionOpened(SessionId(5))),
        });
        let (rid, _, _) = c
            .request(
                CoordOp::Delete {
                    path: "/gone".into(),
                    expected_version: None,
                },
                0,
            )
            .unwrap();
        let (ev, retry) = c.on_message(CoordMsg::Response {
            req_id: rid,
            result: Err(CoordError::Tree(TreeError::NoNode("/gone".into()))),
        });
        assert!(retry.is_none());
        assert!(matches!(
            ev,
            Some(SessionEvent::Reply { result: Err(_), .. })
        ));
    }

    #[test]
    fn silent_replica_times_out_and_fails_over() {
        let mut c = client();
        // Open against replica 10 at t=0; nobody ever answers.
        let (to, _) = c.open(0);
        assert_eq!(to, ActorId(10));
        assert!(c.on_tick(400_000).is_empty(), "within the timeout: wait");
        let retries = c.on_tick(600_000);
        assert_eq!(retries.len(), 1, "open re-issued after the timeout");
        assert_eq!(retries[0].1 .0, ActorId(11), "rotated to the next replica");
        // Now the session opens; an ordinary request goes silent too.
        let CoordMsg::Request { req_id, .. } = retries[0].1 .1.clone() else {
            panic!()
        };
        c.on_message(CoordMsg::Response {
            req_id,
            result: Ok(CoordReply::SessionOpened(SessionId(9))),
        });
        let (old_req, _, _) = c
            .request(
                CoordOp::Get {
                    path: "/x".into(),
                    watch: false,
                },
                700_000,
            )
            .unwrap();
        let retries = c.on_tick(1_400_000);
        assert_eq!(retries.len(), 1);
        assert_eq!(retries[0].0, old_req, "old id reported for re-correlation");
        let (to, msg) = retries[0].1.clone();
        assert_eq!(to, ActorId(12), "rotated again");
        assert!(matches!(
            msg,
            CoordMsg::Request {
                op: CoordOp::Get { .. },
                ..
            }
        ));
        // The retried request resolves normally under its new id.
        let CoordMsg::Request {
            req_id: new_req, ..
        } = msg
        else {
            panic!()
        };
        let (ev, _) = c.on_message(CoordMsg::Response {
            req_id: new_req,
            result: Ok(CoordReply::Existence(true)),
        });
        assert!(matches!(ev, Some(SessionEvent::Reply { .. })));
    }

    // ----- LeaseCache ------------------------------------------------------

    #[test]
    fn lease_halves_on_change_doubles_on_quiet() {
        let mut lc = LeaseCache::new(LeaseConfig {
            initial_micros: 400_000,
            min_micros: 100_000,
            max_micros: 1_600_000,
        });
        assert_eq!(lc.lease_micros(), 400_000);
        lc.adapt(true);
        assert_eq!(lc.lease_micros(), 200_000);
        lc.adapt(true);
        lc.adapt(true);
        assert_eq!(lc.lease_micros(), 100_000, "clamped at min");
        lc.adapt(false);
        assert_eq!(lc.lease_micros(), 200_000);
        for _ in 0..8 {
            lc.adapt(false);
        }
        assert_eq!(lc.lease_micros(), 1_600_000, "clamped at max");
    }

    #[test]
    fn apply_changes_refreshes_only_cached_paths() {
        let mut lc = LeaseCache::new(LeaseConfig::default());
        lc.put("/a", vec![1], 0);
        lc.put("/b", vec![2], 0);
        let stale = lc.apply_changes(vec!["/a".into(), "/uncached".into()], 42, false);
        assert_eq!(
            stale,
            vec!["/a".to_string()],
            "only cached paths re-fetched"
        );
        assert!(lc.get("/a").is_none());
        assert!(lc.get("/b").is_some());
        assert_eq!(lc.last_zxid, 42);
    }

    #[test]
    fn truncated_changes_flushes_everything() {
        let mut lc = LeaseCache::new(LeaseConfig::default());
        lc.put("/a", vec![1], 0);
        lc.put("/b", vec![2], 0);
        let mut stale = lc.apply_changes(vec![], 99, true);
        stale.sort();
        assert_eq!(stale, vec!["/a".to_string(), "/b".to_string()]);
        assert!(lc.is_empty());
    }

    #[test]
    fn quiet_refresh_grows_lease_and_keeps_cache() {
        let mut lc = LeaseCache::new(LeaseConfig::default());
        lc.put("/a", vec![1], 3);
        let before = lc.lease_micros();
        let stale = lc.apply_changes(vec![], 10, false);
        assert!(stale.is_empty());
        assert_eq!(lc.get("/a"), Some(([1u8].as_slice(), 3)));
        assert!(lc.lease_micros() > before);
        assert!(matches!(
            lc.refresh_op(),
            CoordOp::ChangesSince { zxid: 10 }
        ));
    }

    #[test]
    fn invalidate_paths() {
        let mut lc = LeaseCache::new(LeaseConfig::default());
        lc.put("/a", vec![1], 0);
        lc.invalidate("/a");
        assert!(lc.get("/a").is_none());
        lc.put("/a", vec![1], 0);
        lc.put("/b", vec![1], 0);
        lc.invalidate_all();
        assert_eq!(lc.len(), 0);
    }
}
