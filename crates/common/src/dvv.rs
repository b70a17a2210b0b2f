//! Dotted version vectors (Preguiça et al., "Dotted Version Vectors:
//! Logical Clocks for Optimistic Replication").
//!
//! Sedna's hybrid logical timestamps already carry everything a *dot* needs:
//! `Timestamp { micros, counter, origin }` is a globally unique event
//! identifier whose `(micros, counter)` pair increases monotonically per
//! `origin` (the per-actor HLC oracle guarantees it). A [`CausalContext`] is
//! therefore a compact version vector mapping each actor to the greatest
//! `(micros, counter)` pair it has witnessed from that actor; because
//! per-actor dots are issued in a total order, "the context contains dot `d`"
//! reduces to `context[d.origin] >= (d.micros, d.counter)`.
//!
//! The memstore attaches a context (the *row clock*) to every row so that a
//! sibling pruned on one replica cannot be resurrected by a later merge with
//! a replica that never learned about the prune. Clients attach the context
//! of their last read to every write, which is what lets the store tell a
//! *causal overwrite* (context covers the stored dot — safe to replace) from
//! a *concurrent* write (context does not cover it — keep both as siblings).

use crate::ids::NodeId;
use crate::time::{Micros, Timestamp};

/// The per-actor component of a causal context: the greatest `(micros,
/// counter)` pair witnessed from that actor. Ordered lexicographically,
/// matching the HLC issue order within one origin.
pub type DotSeq = (Micros, u32);

/// Extract the per-actor sequence component of a timestamp dot.
#[inline]
pub fn dot_seq(ts: &Timestamp) -> DotSeq {
    (ts.micros, ts.counter)
}

/// A causal context / version vector over HLC dots.
///
/// Entries are kept sorted by actor so that joins are linear merges and
/// equality is structural. The context of a key one writer has touched is
/// a single dot, so it has three shapes, all 24 bytes: no entry, one entry
/// inline, or two or more entries in a `Vec`. The shape is a function of the
/// entry count (`Many` never holds fewer than two), so the derived `Eq` and
/// `Hash` still compare entries, and a context allocates only once a second
/// actor joins it.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct CausalContext {
    dots: Dots,
}

#[derive(Clone, Default, PartialEq, Eq, Hash)]
enum Dots {
    #[default]
    Empty,
    /// `(actor, counter, micros)`: one entry, flattened so that it fits
    /// beside the `Vec`'s capacity niche.
    One(NodeId, u32, Micros),
    /// Two or more entries, sorted by actor.
    Many(Vec<(NodeId, DotSeq)>),
}

const _: () = assert!(std::mem::size_of::<CausalContext>() == 24);

impl CausalContext {
    /// The empty context: has witnessed nothing, covers nothing.
    pub const EMPTY: CausalContext = CausalContext { dots: Dots::Empty };

    pub fn new() -> CausalContext {
        CausalContext::EMPTY
    }

    /// Build a context from a set of dots (e.g. the live siblings of a row).
    pub fn from_dots<'a, I: IntoIterator<Item = &'a Timestamp>>(dots: I) -> CausalContext {
        let mut ctx = CausalContext::new();
        for dot in dots {
            ctx.observe(dot);
        }
        ctx
    }

    pub fn is_empty(&self) -> bool {
        matches!(self.dots, Dots::Empty)
    }

    pub fn len(&self) -> usize {
        match &self.dots {
            Dots::Empty => 0,
            Dots::One(..) => 1,
            Dots::Many(entries) => entries.len(),
        }
    }

    /// Iterate `(actor, (micros, counter))` entries in actor order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, DotSeq)> + '_ {
        let (one, many) = match &self.dots {
            Dots::Empty => (None, &[][..]),
            &Dots::One(actor, counter, micros) => (Some((actor, (micros, counter))), &[][..]),
            Dots::Many(entries) => (None, &entries[..]),
        };
        one.into_iter().chain(many.iter().copied())
    }

    /// The greatest sequence witnessed for `actor`, if any.
    pub fn seq_of(&self, actor: NodeId) -> Option<DotSeq> {
        match &self.dots {
            Dots::Empty => None,
            &Dots::One(a, counter, micros) => (a == actor).then_some((micros, counter)),
            Dots::Many(entries) => entries
                .binary_search_by_key(&actor, |e| e.0)
                .ok()
                .map(|i| entries[i].1),
        }
    }

    /// Does this context contain (causally cover) the given dot?
    pub fn covers(&self, dot: &Timestamp) -> bool {
        self.seq_of(dot.origin)
            .is_some_and(|seq| seq >= dot_seq(dot))
    }

    /// Fold a single dot into the context.
    pub fn observe(&mut self, dot: &Timestamp) {
        self.observe_seq(dot.origin, dot_seq(dot));
    }

    /// Insert a raw `(actor, seq)` entry (used by decoders).
    pub fn observe_seq(&mut self, actor: NodeId, seq: DotSeq) {
        match &mut self.dots {
            Dots::Empty => self.dots = Dots::One(actor, seq.1, seq.0),
            Dots::One(a, counter, micros) => {
                if *a == actor {
                    if (*micros, *counter) < seq {
                        (*micros, *counter) = seq;
                    }
                } else {
                    // The second actor: exactly two entries, no slack.
                    let mine = (*a, (*micros, *counter));
                    let mut entries = Vec::with_capacity(2);
                    if mine.0 < actor {
                        entries.extend([mine, (actor, seq)]);
                    } else {
                        entries.extend([(actor, seq), mine]);
                    }
                    self.dots = Dots::Many(entries);
                }
            }
            Dots::Many(entries) => match entries.binary_search_by_key(&actor, |e| e.0) {
                Ok(i) => {
                    if entries[i].1 < seq {
                        entries[i].1 = seq;
                    }
                }
                Err(i) => {
                    // Grow by exactly one entry: a context holds one entry
                    // per writer of the key, so the usual doubling is slack
                    // that every stored context would pay for.
                    entries.reserve_exact(1);
                    entries.insert(i, (actor, seq));
                }
            },
        }
    }

    /// Pointwise-maximum join: afterwards `self` covers every dot either
    /// input covered. Commutative, associative, idempotent (property-tested
    /// in `tests/dvv_proptest.rs`).
    pub fn join(&mut self, other: &CausalContext) {
        match (&self.dots, &other.dots) {
            (_, Dots::Empty) => {}
            (Dots::Empty, _) => *self = other.clone(),
            (_, &Dots::One(actor, counter, micros)) => self.observe_seq(actor, (micros, counter)),
            (Dots::One(..), Dots::Many(_)) => {
                let mine = std::mem::replace(self, other.clone());
                self.join(&mine);
            }
            (Dots::Many(mine), Dots::Many(theirs)) => {
                let mut merged = Vec::with_capacity(mine.len().max(theirs.len()));
                let (mut i, mut j) = (0, 0);
                while i < mine.len() && j < theirs.len() {
                    let (a, asq) = mine[i];
                    let (b, bsq) = theirs[j];
                    if a < b {
                        merged.push((a, asq));
                        i += 1;
                    } else if b < a {
                        merged.push((b, bsq));
                        j += 1;
                    } else {
                        merged.push((a, asq.max(bsq)));
                        i += 1;
                        j += 1;
                    }
                }
                merged.extend_from_slice(&mine[i..]);
                merged.extend_from_slice(&theirs[j..]);
                self.dots = Dots::Many(merged);
            }
        }
    }

    /// `join` without mutating either input.
    pub fn joined(&self, other: &CausalContext) -> CausalContext {
        let mut out = self.clone();
        out.join(other);
        out
    }

    /// Does this context cover everything `other` covers?
    pub fn dominates(&self, other: &CausalContext) -> bool {
        other
            .entries()
            .all(|(actor, seq)| self.seq_of(actor).is_some_and(|mine| mine >= seq))
    }

    /// Neither context dominates the other.
    pub fn concurrent_with(&self, other: &CausalContext) -> bool {
        !self.dominates(other) && !other.dominates(self)
    }
}

impl std::fmt::Debug for CausalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut map = f.debug_map();
        for (actor, (micros, counter)) in self.entries() {
            map.entry(&actor.0, &format_args!("{micros}.{counter}"));
        }
        map.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(origin: u32, micros: Micros, counter: u32) -> Timestamp {
        Timestamp::new(micros, counter, NodeId(origin))
    }

    #[test]
    fn empty_context_covers_nothing() {
        let ctx = CausalContext::new();
        assert!(ctx.is_empty());
        assert!(!ctx.covers(&ts(1, 0, 0)));
    }

    #[test]
    fn observe_then_cover_per_actor() {
        let mut ctx = CausalContext::new();
        ctx.observe(&ts(1, 100, 2));
        assert!(ctx.covers(&ts(1, 100, 2)));
        assert!(ctx.covers(&ts(1, 100, 1)));
        assert!(ctx.covers(&ts(1, 99, 7)));
        assert!(!ctx.covers(&ts(1, 100, 3)));
        assert!(!ctx.covers(&ts(1, 101, 0)));
        assert!(!ctx.covers(&ts(2, 1, 0)));
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = CausalContext::from_dots([&ts(1, 10, 0), &ts(2, 5, 0)]);
        let b = CausalContext::from_dots([&ts(2, 9, 1), &ts(3, 4, 0)]);
        a.join(&b);
        assert!(a.covers(&ts(1, 10, 0)));
        assert!(a.covers(&ts(2, 9, 1)));
        assert!(a.covers(&ts(3, 4, 0)));
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn dominance_and_concurrency() {
        let a = CausalContext::from_dots([&ts(1, 10, 0), &ts(2, 5, 0)]);
        let b = CausalContext::from_dots([&ts(1, 9, 0)]);
        let c = CausalContext::from_dots([&ts(3, 1, 0)]);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
        assert!(a.concurrent_with(&c));
        assert!(a.dominates(&a.clone()));
    }
}
