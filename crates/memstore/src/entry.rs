//! Row write semantics: timestamped value lists.
//!
//! Fig. 5 of the paper: "all the storage table includes two additional
//! columns: Dirty and Monitors. Every time data was written in this row …
//! the Dirty field will be written automatically. When programmers register
//! a monitor on specific data, that program will add itself in the
//! corresponding Monitors field."
//!
//! Since the hot-path overhaul, rows store their versions as immutable
//! snapshots ([`crate::RowSnapshot`]); the write operations here are
//! *pure*: they look at the current version slice and either report the
//! write outdated / a no-op, or produce the replacement snapshot for the
//! store to swap in (copy-on-write). The Dirty/Monitors columns live in
//! [`crate::row`]'s flags and the store's side tables.

use sedna_common::{CausalContext, Timestamp, Value};

use crate::snap::RowSnapshot;

/// One element of a row's value list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VersionedValue {
    /// Write timestamp; `ts.origin` identifies the source server, which is
    /// what `write_all` compares per-element.
    pub ts: Timestamp,
    /// The stored bytes.
    pub value: Value,
}

/// Result of applying a timestamped write, mirroring the paper's replies:
/// `'ok'` or `'outdated'` (`'failure'` arises at the replication layer, not
/// here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The write was applied (or was an exact duplicate — idempotent).
    Ok,
    /// A strictly newer value was already present; nothing changed.
    Outdated,
}

impl WriteOutcome {
    /// True for [`WriteOutcome::Ok`].
    pub fn is_ok(self) -> bool {
        matches!(self, WriteOutcome::Ok)
    }
}

/// Decision of a pure write application against the current version slice.
pub(crate) enum Applied {
    /// A strictly newer value was present; reject.
    Outdated,
    /// Idempotent duplicate: report `Ok` but change nothing (and do not
    /// re-dirty the row).
    Unchanged,
    /// The row's versions become this snapshot.
    Replaced(RowSnapshot),
}

/// The freshest element of a version slice, by timestamp.
pub(crate) fn latest_of(versions: &[VersionedValue]) -> Option<&VersionedValue> {
    versions.iter().max_by_key(|v| v.ts)
}

/// Dotted-version-vector write (Preguiça et al.): the causal context `ctx`
/// is what the writer had read before issuing this write, so every stored
/// sibling covered by `ctx` was causally observed and is replaced; siblings
/// *not* covered are concurrent and survive. The incoming dot is `ts`
/// itself. With `collapse` the surviving set is additionally reduced to the
/// single freshest element — the per-table last-writer-wins policy — while
/// preserving the paper's `write_latest` reply contract (Sec. III-C:
/// strictly older than the stored maximum ⇒ `Outdated`).
///
/// Same-origin dots are issued in program order by the HLC oracle, so the
/// row keeps at most one sibling per origin: a newer same-origin dot always
/// causally supersedes the stored one even with an empty context.
///
/// The replacement snapshot's clock joins the old clock, `ctx`, and the new
/// dot, so pruned siblings stay covered forever (no resurrection on merge).
pub(crate) fn apply_dvv_write(
    cur: &RowSnapshot,
    ts: Timestamp,
    value: Value,
    ctx: &CausalContext,
    collapse: bool,
) -> Applied {
    let cur_vals = cur.as_slice();
    match cur_vals.iter().find(|v| v.ts.origin == ts.origin) {
        Some(own) => {
            if ts < own.ts {
                return Applied::Outdated;
            }
            if ts == own.ts {
                return Applied::Unchanged;
            }
        }
        None => {
            // No live sibling from this origin, but the clock may still
            // remember the dot: a replay of a causally pruned write.
            if cur.extra_clock().is_some_and(|clock| clock.covers(&ts)) {
                return Applied::Outdated;
            }
        }
    }
    if collapse {
        // The paper's last-writer-wins reply contract.
        let max = latest_of(cur_vals).map(|v| v.ts).unwrap_or(Timestamp::ZERO);
        if ts < max {
            return Applied::Outdated;
        }
        if ts == max && !cur_vals.is_empty() {
            return Applied::Unchanged;
        }
    }
    let mut clock = cur.clock();
    clock.join(ctx);
    clock.observe(&ts);
    if collapse {
        // `ts` is ≥ every stored dot and the old clock already covers the
        // pruned siblings, so the row is exactly the new element.
        return Applied::Replaced(RowSnapshot::single(
            VersionedValue { ts, value },
            Some(clock),
        ));
    }
    let mut next = Vec::with_capacity(cur_vals.len() + 1);
    let mut inserted = false;
    for v in cur_vals {
        if v.ts.origin == ts.origin {
            next.push(VersionedValue {
                ts,
                value: value.clone(),
            });
            inserted = true;
        } else if !ctx.covers(&v.ts) {
            next.push(v.clone());
        }
    }
    if !inserted {
        next.push(VersionedValue { ts, value });
    }
    Applied::Replaced(RowSnapshot::from_parts(next, Some(clock)))
}

/// Dotted-version-vector sync of a row with a remote version list and its
/// row clock (anti-entropy / read repair / recovery). Per origin, the newer
/// dot wins; a local sibling whose origin the remote does not list is kept
/// only if the remote clock does not cover it (otherwise the remote
/// witnessed and pruned it), and symmetrically for remote-only siblings.
/// The merged clock is the join. Returns `None` when nothing — list *or*
/// clock — would change, so no-op merges never swap the row.
///
/// Merging never dirties a row — replica repair is not an application
/// write and must not fire triggers on the repaired copy.
pub(crate) fn merge_dvv(
    cur: &RowSnapshot,
    incoming: &[VersionedValue],
    incoming_clock: &CausalContext,
) -> Option<RowSnapshot> {
    let cur_vals = cur.as_slice();
    let cur_clock = cur.clock();
    // The effective remote clock always dominates the remote live dots,
    // even when the caller only had a bare list (read-repair `Push`
    // frames carry no clock).
    let mut inc_clock = incoming_clock.clone();
    for v in incoming {
        inc_clock.observe(&v.ts);
    }
    let mut next = Vec::with_capacity(cur_vals.len() + incoming.len());
    let mut changed = false;
    for v in cur_vals {
        match incoming.iter().find(|i| i.ts.origin == v.ts.origin) {
            Some(i) if i.ts > v.ts => {
                next.push(i.clone());
                changed = true;
            }
            Some(_) => next.push(v.clone()),
            None => {
                if inc_clock.covers(&v.ts) {
                    // Remote witnessed this dot and holds no sibling for
                    // it: it was causally pruned there. Do not resurrect.
                    changed = true;
                } else {
                    next.push(v.clone());
                }
            }
        }
    }
    for i in incoming {
        if cur_vals.iter().any(|v| v.ts.origin == i.ts.origin) {
            continue;
        }
        if cur_clock.covers(&i.ts) {
            continue;
        }
        next.push(i.clone());
        changed = true;
    }
    let merged_clock = cur_clock.joined(&inc_clock);
    if !changed && merged_clock == cur_clock {
        return None;
    }
    Some(RowSnapshot::from_parts(next, Some(merged_clock)))
}

/// Approximate heap footprint of a version slice, for the store's memory
/// accounting. Matches memcached's spirit (item overhead + data).
pub(crate) fn payload_of(versions: &[VersionedValue]) -> usize {
    const PER_VERSION_OVERHEAD: usize = 32;
    versions
        .iter()
        .map(|v| v.value.len() + PER_VERSION_OVERHEAD)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sedna_common::NodeId;

    fn ts(micros: u64, origin: u32) -> Timestamp {
        Timestamp::new(micros, 0, NodeId(origin))
    }

    #[test]
    fn payload_accounting_tracks_values() {
        assert_eq!(payload_of(&[]), 0);
        let row = vec![
            VersionedValue {
                ts: ts(1, 1),
                value: Value::from("xxxx"),
            },
            VersionedValue {
                ts: ts(1, 2),
                value: Value::from("yyyyyyyy"),
            },
        ];
        assert_eq!(payload_of(&row), 4 + 32 + 8 + 32);
    }

    fn dvv_step(
        cur: &mut RowSnapshot,
        ts: Timestamp,
        value: Value,
        ctx: &CausalContext,
        collapse: bool,
    ) -> WriteOutcome {
        match apply_dvv_write(cur, ts, value, ctx, collapse) {
            Applied::Outdated => WriteOutcome::Outdated,
            Applied::Unchanged => WriteOutcome::Ok,
            Applied::Replaced(snap) => {
                *cur = snap;
                WriteOutcome::Ok
            }
        }
    }

    #[test]
    fn dvv_concurrent_writes_become_siblings() {
        let mut row = RowSnapshot::empty();
        let ctx = CausalContext::EMPTY;
        dvv_step(&mut row, ts(10, 1), Value::from("a"), &ctx, false);
        // Concurrent (empty-context) write from another origin with a
        // *smaller* timestamp: survives as a sibling instead of rejection.
        dvv_step(&mut row, ts(5, 2), Value::from("b"), &ctx, false);
        assert_eq!(row.len(), 2, "concurrent write retained as sibling");
        assert_eq!(latest_of(&row).unwrap().value, Value::from("a"));
    }

    #[test]
    fn dvv_causal_context_overwrites_observed_siblings() {
        let mut row = RowSnapshot::empty();
        dvv_step(
            &mut row,
            ts(10, 1),
            Value::from("a"),
            &CausalContext::EMPTY,
            false,
        );
        dvv_step(
            &mut row,
            ts(5, 2),
            Value::from("b"),
            &CausalContext::EMPTY,
            false,
        );
        // A writer that read both siblings supersedes both, even with a
        // timestamp smaller than one of them.
        let ctx = CausalContext::from_dots(row.iter().map(|v| &v.ts));
        dvv_step(&mut row, ts(7, 3), Value::from("merged"), &ctx, false);
        assert_eq!(row.len(), 1);
        assert_eq!(row.latest().unwrap().value, Value::from("merged"));
        // The clock still remembers the pruned dots.
        assert!(row.clock().covers(&ts(10, 1)));
        assert!(row.clock().covers(&ts(5, 2)));
        // Replaying a pruned dot is outdated, not resurrected.
        assert!(matches!(
            apply_dvv_write(
                &row,
                ts(10, 1),
                Value::from("a"),
                &CausalContext::EMPTY,
                false
            ),
            Applied::Outdated
        ));
    }

    #[test]
    fn dvv_collapse_keeps_paper_replies_and_remembers_dots() {
        let mut row = RowSnapshot::empty();
        let ctx = CausalContext::EMPTY;
        assert_eq!(
            dvv_step(&mut row, ts(10, 1), Value::from("a"), &ctx, true),
            WriteOutcome::Ok
        );
        assert_eq!(
            dvv_step(&mut row, ts(5, 2), Value::from("b"), &ctx, true),
            WriteOutcome::Outdated,
            "collapse keeps the paper's outdated contract"
        );
        assert_eq!(latest_of(&row).unwrap().value, Value::from("a"));
        assert_eq!(
            dvv_step(&mut row, ts(20, 2), Value::from("c"), &ctx, true),
            WriteOutcome::Ok
        );
        assert_eq!(latest_of(&row).unwrap().value, Value::from("c"));
        assert_eq!(row.len(), 1, "write_latest collapses the list");
        assert!(
            row.clock().covers(&ts(10, 1)),
            "collapsed dot stays covered"
        );
    }

    #[test]
    fn dvv_duplicate_delivery_is_unchanged() {
        let ctx = CausalContext::EMPTY;
        for collapse in [true, false] {
            let mut row = RowSnapshot::empty();
            dvv_step(&mut row, ts(10, 1), Value::from("a"), &ctx, collapse);
            assert!(
                matches!(
                    apply_dvv_write(&row, ts(10, 1), Value::from("a"), &ctx, collapse),
                    Applied::Unchanged
                ),
                "duplicate must not re-dirty the row (collapse={collapse})"
            );
        }
    }

    #[test]
    fn dvv_blind_write_all_keeps_one_element_per_origin() {
        let mut row = RowSnapshot::empty();
        let ctx = CausalContext::EMPTY;
        dvv_step(&mut row, ts(10, 1), Value::from("s1-a"), &ctx, false);
        dvv_step(&mut row, ts(12, 2), Value::from("s2-a"), &ctx, false);
        dvv_step(&mut row, ts(11, 1), Value::from("s1-b"), &ctx, false);
        assert_eq!(row.len(), 2);
        let v1 = row.iter().find(|v| v.ts.origin == NodeId(1)).unwrap();
        assert_eq!(v1.value, Value::from("s1-b"));
        // Older same-origin write rejected even if newer than other origins.
        assert!(matches!(
            apply_dvv_write(&row, ts(10, 1), Value::from("stale"), &ctx, false),
            Applied::Outdated
        ));
        // read_latest sees the globally freshest element.
        assert_eq!(latest_of(&row).unwrap().value, Value::from("s2-a"));
    }

    #[test]
    fn dvv_write_all_then_latest_collapses() {
        let mut row = RowSnapshot::empty();
        let ctx = CausalContext::EMPTY;
        dvv_step(&mut row, ts(10, 1), Value::from("a"), &ctx, false);
        dvv_step(&mut row, ts(11, 2), Value::from("b"), &ctx, false);
        assert_eq!(row.len(), 2);
        dvv_step(&mut row, ts(12, 3), Value::from("winner"), &ctx, true);
        assert_eq!(row.len(), 1);
        assert_eq!(latest_of(&row).unwrap().value, Value::from("winner"));
    }

    #[test]
    fn dvv_merge_is_per_origin_newest_wins() {
        let mut row = RowSnapshot::empty();
        let ctx = CausalContext::EMPTY;
        dvv_step(&mut row, ts(10, 1), Value::from("mine"), &ctx, false);
        let incoming = vec![
            VersionedValue {
                ts: ts(5, 1),
                value: Value::from("stale"),
            },
            VersionedValue {
                ts: ts(20, 2),
                value: Value::from("other"),
            },
        ];
        let merged = merge_dvv(&row, &incoming, &ctx).expect("new origin merged");
        assert_eq!(merged.len(), 2);
        let v1 = merged.iter().find(|v| v.ts.origin == NodeId(1)).unwrap();
        assert_eq!(v1.value, Value::from("mine"), "stale incoming ignored");
        // Merging the same bare list again changes nothing.
        assert!(merge_dvv(&merged, &incoming, &ctx).is_none());
    }

    #[test]
    fn dvv_merge_does_not_resurrect_pruned_siblings() {
        // Replica A holds both concurrent siblings.
        let mut a = RowSnapshot::empty();
        dvv_step(
            &mut a,
            ts(10, 1),
            Value::from("x"),
            &CausalContext::EMPTY,
            false,
        );
        dvv_step(
            &mut a,
            ts(5, 2),
            Value::from("y"),
            &CausalContext::EMPTY,
            false,
        );
        // Replica B saw the same state, then a causal overwrite pruned both.
        let mut b = a.clone();
        let ctx = CausalContext::from_dots(b.iter().map(|v| &v.ts));
        dvv_step(&mut b, ts(7, 3), Value::from("z"), &ctx, false);
        // Sync A <- B: A adopts the overwrite and drops its pruned dots.
        let merged = merge_dvv(&a, &b.to_vec(), &b.clock()).expect("changes");
        assert_eq!(merged.to_vec(), b.to_vec());
        // Sync B <- A: nothing to do except (possibly) clock join — the
        // pruned siblings must not come back.
        match merge_dvv(&b, &a.to_vec(), &a.clock()) {
            None => {}
            Some(back) => assert_eq!(back.to_vec(), b.to_vec()),
        }
    }

    #[test]
    fn dvv_merge_converges_and_joins_clocks() {
        let mut a = RowSnapshot::empty();
        dvv_step(
            &mut a,
            ts(10, 1),
            Value::from("x"),
            &CausalContext::EMPTY,
            false,
        );
        let mut b = RowSnapshot::empty();
        dvv_step(
            &mut b,
            ts(6, 2),
            Value::from("y"),
            &CausalContext::EMPTY,
            false,
        );
        let ab = merge_dvv(&a, &b.to_vec(), &b.clock()).expect("changed");
        let ba = merge_dvv(&b, &a.to_vec(), &a.clock()).expect("changed");
        let mut ab_dots: Vec<_> = ab.iter().map(|v| v.ts).collect();
        let mut ba_dots: Vec<_> = ba.iter().map(|v| v.ts).collect();
        ab_dots.sort();
        ba_dots.sort();
        assert_eq!(ab_dots, ba_dots);
        assert_eq!(ab.clock(), ba.clock());
        // Merging again in either direction is a no-op.
        assert!(merge_dvv(&ab, &ba.to_vec(), &ba.clock()).is_none());
    }

    #[test]
    fn latest_of_empty_is_none() {
        assert!(latest_of(&[]).is_none());
        assert!(matches!(
            apply_dvv_write(
                &RowSnapshot::empty(),
                Timestamp::ZERO,
                Value::from("z"),
                &CausalContext::EMPTY,
                true
            ),
            Applied::Replaced(_)
        ));
    }
}
