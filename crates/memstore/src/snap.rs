//! Refcounted, immutable row snapshots.
//!
//! A row's value list is stored as an [`Arc`]'d [`SnapRepr`] that is never
//! mutated in place — writers build a replacement and swap the row's
//! pointer. Readers therefore return a [`RowSnapshot`] (a refcount bump)
//! instead of deep-cloning a `Vec<VersionedValue>`, and the trigger
//! scanner's pre-change snapshot (`pending_old`) is an `Arc` clone of
//! whatever the row held, taken in O(1).
//!
//! The single-version case — `write_latest`'s steady state — is stored
//! inline in the enum ([`Vals::One`]), so the common read is one pointer
//! chase with no boxed-slice indirection.
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

use sedna_common::CausalContext;

use crate::entry::VersionedValue;

/// Packed representation of a non-empty version list.
#[derive(Debug)]
pub(crate) enum Vals {
    /// Exactly one version (the `write_latest` fast path).
    One(VersionedValue),
    /// Two or more versions (one per `write_all` source / DVV sibling).
    Many(Box<[VersionedValue]>),
}

/// A non-empty version list plus (optionally) an explicit row clock.
#[derive(Debug)]
pub(crate) struct SnapRepr {
    vals: Vals,
    /// `None` means the clock equals the join of the live dots (the
    /// steady state when nothing was ever pruned); `Some` stores the full
    /// clock, which strictly dominates the live dots.
    extra_clock: Option<CausalContext>,
}

impl SnapRepr {
    #[inline]
    pub(crate) fn as_slice(&self) -> &[VersionedValue] {
        match &self.vals {
            Vals::One(v) => std::slice::from_ref(v),
            Vals::Many(vs) => vs,
        }
    }
}

/// An immutable, cheaply clonable view of a row's version list at some
/// moment. Derefs to `[VersionedValue]`; `clone()` is a refcount bump.
///
/// The empty snapshot carries no allocation at all.
#[derive(Clone, Default)]
pub struct RowSnapshot(pub(crate) Option<Arc<SnapRepr>>);

impl RowSnapshot {
    /// The empty snapshot (a row with no data).
    pub fn empty() -> RowSnapshot {
        RowSnapshot(None)
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
        let extra_clock = clock.filter(|c| {
            let implied = CausalContext::from_dots(v.iter().map(|vv| &vv.ts));
            *c != implied && c.dominates(&implied)
        });
        match v.len() {
            0 => RowSnapshot(None),
            1 => RowSnapshot(Some(Arc::new(SnapRepr {
                vals: Vals::One(v.pop().expect("len checked")),
                extra_clock,
            }))),
            _ => RowSnapshot(Some(Arc::new(SnapRepr {
                vals: Vals::Many(v.into_boxed_slice()),
                extra_clock,
            }))),
        }
    }

    /// The versions as a slice (empty slice for the empty snapshot).
    #[inline]
    pub fn as_slice(&self) -> &[VersionedValue] {
        self.0.as_deref().map(SnapRepr::as_slice).unwrap_or(&[])
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
        match self.0.as_deref().and_then(|r| r.extra_clock.as_ref()) {
            Some(c) => c.clone(),
            None => CausalContext::from_dots(self.as_slice().iter().map(|v| &v.ts)),
        }
    }

    /// The explicit clock, if this row carries one beyond its live dots.
    pub(crate) fn extra_clock(&self) -> Option<&CausalContext> {
        self.0.as_deref().and_then(|r| r.extra_clock.as_ref())
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
        let a = RowSnapshot::from_vec(vec![vv(1, 0, "a")]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
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
