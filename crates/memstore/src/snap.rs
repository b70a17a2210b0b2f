//! Immutable row snapshots.
//!
//! A row's value list is never mutated in place — writers build a
//! replacement and swap it into the row. Readers therefore return a
//! [`RowSnapshot`] clone instead of deep-cloning a `Vec<VersionedValue>`,
//! and the trigger scanner's pre-change snapshot (`pending_old`) is simply
//! whatever the row held, moved out in O(1).
//!
//! The snapshot is a 32-byte enum with two shapes:
//!
//! * [`Repr::One`] — exactly one version with an implicit clock, which is
//!   `write_latest`'s steady state under one writer. The version sits inline,
//!   so writing it allocates nothing and cloning it is one `Value` refcount
//!   bump.
//! * [`Repr::Shared`] — `None` for a row with no data (no allocation), or
//!   two or more versions, or any row that carries an explicit clock, behind
//!   an [`Arc`] so clones stay O(1).
//!
//! Two variants, not three, is what keeps the enum at 32 bytes: the tag
//! lives in the inline `Value`'s non-null pointer niche, and `Shared`'s one
//! pointer sits beside it.
//!
//! Since the dotted-version-vector upgrade the snapshot also carries the
//! **row clock**: a [`CausalContext`] covering every dot the row has ever
//! applied, including dots whose siblings were causally pruned. The clock is
//! what stops a pruned sibling from being resurrected by an anti-entropy
//! merge with a replica that never learned about the prune. In the common
//! case — no cross-origin pruning has happened — the clock is exactly the
//! join of the live dots, and is stored implicitly (no allocation): only
//! rows that have actually pruned carry an explicit clock.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use sedna_common::{dot_seq, CausalContext};

use crate::entry::VersionedValue;

/// Packed version list of a shared snapshot.
#[derive(Debug)]
enum Vals {
    /// Exactly one version (a single version under an explicit clock).
    One(VersionedValue),
    /// Two or more versions (one per `write_all` source / DVV sibling).
    Many(Box<[VersionedValue]>),
}

/// A non-empty version list plus (optionally) an explicit row clock.
#[derive(Debug)]
struct SnapRepr {
    vals: Vals,
    /// `None` means the clock equals the join of the live dots; `Some`
    /// stores the full clock, which strictly dominates the live dots.
    extra_clock: Option<CausalContext>,
}

impl SnapRepr {
    #[inline]
    fn as_slice(&self) -> &[VersionedValue] {
        match &self.vals {
            Vals::One(v) => std::slice::from_ref(v),
            Vals::Many(vs) => vs,
        }
    }
}

#[derive(Clone)]
enum Repr {
    One(VersionedValue),
    /// `None` is the empty row.
    Shared(Option<Arc<SnapRepr>>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Shared(None)
    }
}

const _: () = assert!(std::mem::size_of::<RowSnapshot>() == 32);

/// An immutable, cheaply clonable view of a row's version list at some
/// moment. Derefs to `[VersionedValue]`; `clone()` never deep-copies a
/// version list: it bumps one refcount (or none, for the empty snapshot).
#[derive(Clone, Default)]
pub struct RowSnapshot(Repr);

/// True when `clock` covers every dot of `vals` and also something beyond
/// their join — the only case worth storing the clock explicitly.
fn adds_to(clock: &CausalContext, vals: &[VersionedValue]) -> bool {
    vals.iter().all(|v| clock.covers(&v.ts))
        && clock.entries().any(|(actor, seq)| {
            !vals
                .iter()
                .any(|v| v.ts.origin == actor && dot_seq(&v.ts) == seq)
        })
}

impl RowSnapshot {
    /// The empty snapshot (a row with no data).
    pub fn empty() -> RowSnapshot {
        RowSnapshot(Repr::Shared(None))
    }

    /// Builds a snapshot from an owned version list with an implicit clock
    /// (the join of the list's dots).
    pub(crate) fn from_vec(v: Vec<VersionedValue>) -> RowSnapshot {
        RowSnapshot::from_parts(v, None)
    }

    /// Builds a snapshot from a version list and its row clock. The clock is
    /// normalized: when it adds nothing beyond the live dots it is stored
    /// implicitly, so structurally equal rows compare equal regardless of
    /// how their clocks were supplied.
    pub(crate) fn from_parts(mut v: Vec<VersionedValue>, clock: Option<CausalContext>) -> Self {
        match v.len() {
            0 => RowSnapshot::empty(),
            1 => RowSnapshot::single(v.pop().expect("len checked"), clock),
            _ => {
                let extra_clock = clock.filter(|c| adds_to(c, &v));
                RowSnapshot(Repr::Shared(Some(Arc::new(SnapRepr {
                    vals: Vals::Many(v.into_boxed_slice()),
                    extra_clock,
                }))))
            }
        }
    }

    /// One version under `clock` (normalized as in
    /// [`RowSnapshot::from_parts`]).
    pub(crate) fn single(v: VersionedValue, clock: Option<CausalContext>) -> RowSnapshot {
        match clock.filter(|c| adds_to(c, std::slice::from_ref(&v))) {
            None => RowSnapshot(Repr::One(v)),
            extra_clock => RowSnapshot(Repr::Shared(Some(Arc::new(SnapRepr {
                vals: Vals::One(v),
                extra_clock,
            })))),
        }
    }

    /// The versions as a slice (empty slice for the empty snapshot).
    #[inline]
    pub fn as_slice(&self) -> &[VersionedValue] {
        match &self.0 {
            Repr::One(v) => std::slice::from_ref(v),
            Repr::Shared(None) => &[],
            Repr::Shared(Some(r)) => r.as_slice(),
        }
    }

    /// Copies the versions into an owned `Vec` (e.g. to put on the wire).
    pub fn to_vec(&self) -> Vec<VersionedValue> {
        self.as_slice().to_vec()
    }

    /// The freshest element by timestamp (what `read_latest` returns).
    pub fn latest(&self) -> Option<&VersionedValue> {
        self.as_slice().iter().max_by_key(|v| v.ts)
    }

    /// The row clock: covers every dot this row ever applied, including
    /// causally pruned siblings. Owned because the implicit case computes
    /// it from the live dots.
    pub fn clock(&self) -> CausalContext {
        match self.extra_clock() {
            Some(c) => c.clone(),
            None => CausalContext::from_dots(self.as_slice().iter().map(|v| &v.ts)),
        }
    }

    /// The explicit clock, if this row carries one beyond its live dots.
    pub(crate) fn extra_clock(&self) -> Option<&CausalContext> {
        match &self.0 {
            Repr::Shared(Some(r)) => r.extra_clock.as_ref(),
            Repr::One(_) | Repr::Shared(None) => None,
        }
    }
}

impl Deref for RowSnapshot {
    type Target = [VersionedValue];

    #[inline]
    fn deref(&self) -> &[VersionedValue] {
        self.as_slice()
    }
}

impl From<Vec<VersionedValue>> for RowSnapshot {
    fn from(v: Vec<VersionedValue>) -> RowSnapshot {
        RowSnapshot::from_vec(v)
    }
}

impl PartialEq for RowSnapshot {
    fn eq(&self, other: &RowSnapshot) -> bool {
        self.as_slice() == other.as_slice() && self.extra_clock() == other.extra_clock()
    }
}

impl Eq for RowSnapshot {}

/// `Debug` prints the version slice, so assertion failures read the same
/// as they did when rows were plain `Vec`s.
impl fmt::Debug for RowSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)?;
        if let Some(clock) = self.extra_clock() {
            write!(f, " @{clock:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::{NodeId, Timestamp, Value};

    fn vv(micros: u64, origin: u32, value: &str) -> VersionedValue {
        VersionedValue {
            ts: Timestamp::new(micros, 0, NodeId(origin)),
            value: Value::from(value.to_string()),
        }
    }

    #[test]
    fn empty_single_and_many_round_trip() {
        let empty = RowSnapshot::empty();
        assert!(empty.is_empty());
        assert!(empty.latest().is_none());
        assert_eq!(empty.to_vec(), Vec::new());

        let one = RowSnapshot::from_vec(vec![vv(1, 0, "a")]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.latest().unwrap().value, Value::from("a"));

        let many = RowSnapshot::from_vec(vec![vv(1, 0, "a"), vv(5, 1, "b")]);
        assert_eq!(many.len(), 2);
        assert_eq!(many.latest().unwrap().value, Value::from("b"));
        assert_eq!(many.to_vec().len(), 2);
    }

    #[test]
    fn clone_is_shallow() {
        // One inline version: the clone shares the value bytes.
        let a = RowSnapshot::from_vec(vec![vv(1, 0, "a")]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(
            a[0].value.as_bytes().as_ptr(),
            b[0].value.as_bytes().as_ptr()
        ));
        // A shared list: the clone shares the whole slice.
        let a = RowSnapshot::from_vec(vec![vv(1, 0, "a"), vv(2, 1, "b")]);
        let b = a.clone();
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
    }

    #[test]
    fn one_implicit_version_stays_inline() {
        assert!(matches!(
            RowSnapshot::from_vec(vec![vv(1, 0, "a")]).0,
            Repr::One(_)
        ));
        let mut clock = CausalContext::EMPTY;
        clock.observe(&Timestamp::new(1, 0, NodeId(0)));
        clock.observe(&Timestamp::new(9, 0, NodeId(7)));
        let pruned = RowSnapshot::single(vv(1, 0, "a"), Some(clock.clone()));
        assert!(matches!(pruned.0, Repr::Shared(Some(_))));
        assert_eq!(pruned.clock(), clock);
        assert_ne!(pruned, RowSnapshot::from_vec(vec![vv(1, 0, "a")]));
    }

    #[test]
    fn eq_compares_contents_not_repr() {
        let a = RowSnapshot::from_vec(vec![vv(1, 0, "a")]);
        let b = RowSnapshot::from_vec(vec![vv(1, 0, "a")]);
        assert_eq!(a, b);
        assert_ne!(a, RowSnapshot::empty());
    }

    #[test]
    fn implicit_clock_is_join_of_live_dots() {
        let snap = RowSnapshot::from_vec(vec![vv(3, 0, "a"), vv(5, 1, "b")]);
        let clock = snap.clock();
        assert!(clock.covers(&Timestamp::new(3, 0, NodeId(0))));
        assert!(clock.covers(&Timestamp::new(5, 0, NodeId(1))));
        assert!(!clock.covers(&Timestamp::new(6, 0, NodeId(1))));
        assert!(
            snap.extra_clock().is_none(),
            "implicit clock stays implicit"
        );
    }

    #[test]
    fn explicit_clock_normalizes_away_when_redundant() {
        let vals = vec![vv(3, 0, "a")];
        let redundant = CausalContext::from_dots(vals.iter().map(|v| &v.ts));
        let snap = RowSnapshot::from_parts(vals.clone(), Some(redundant));
        assert!(snap.extra_clock().is_none());

        let mut bigger = CausalContext::from_dots(vals.iter().map(|v| &v.ts));
        bigger.observe(&Timestamp::new(9, 0, NodeId(7)));
        let snap = RowSnapshot::from_parts(vals, Some(bigger.clone()));
        assert_eq!(snap.extra_clock(), Some(&bigger));
        assert_eq!(snap.clock(), bigger);
        assert!(snap.clock().covers(&Timestamp::new(9, 0, NodeId(7))));
    }
}
