//! Property tests for the representation of a causal context.
//!
//! A `CausalContext` holds no entry, one entry inline, or two or more in a
//! `Vec`. Every operation must behave as on a plain sorted `Vec` of
//! `(actor, seq)` entries, whatever shapes its inputs have, and `==` and
//! `Hash` must depend on the entries alone. Actors come from a set of
//! three and contexts hold up to four dots, so most cases cross the
//! 0 → 1 → 2-entry boundaries.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use sedna_common::{dot_seq, CausalContext, DotSeq, NodeId, Timestamp};

/// The reference: entries sorted by actor, one per actor.
#[derive(Clone, Debug, Default, PartialEq)]
struct Model(Vec<(NodeId, DotSeq)>);

impl Model {
    fn observe(&mut self, dot: &Timestamp) {
        let seq = dot_seq(dot);
        match self.0.binary_search_by_key(&dot.origin, |e| e.0) {
            Ok(i) => self.0[i].1 = self.0[i].1.max(seq),
            Err(i) => self.0.insert(i, (dot.origin, seq)),
        }
    }

    fn join(&mut self, other: &Model) {
        for &(actor, (micros, counter)) in &other.0 {
            self.observe(&Timestamp::new(micros, counter, actor));
        }
    }

    fn seq_of(&self, actor: NodeId) -> Option<DotSeq> {
        self.0.iter().find(|e| e.0 == actor).map(|e| e.1)
    }

    fn covers(&self, dot: &Timestamp) -> bool {
        self.seq_of(dot.origin)
            .is_some_and(|seq| seq >= dot_seq(dot))
    }

    fn dominates(&self, other: &Model) -> bool {
        other
            .0
            .iter()
            .all(|&(actor, seq)| self.seq_of(actor).is_some_and(|mine| mine >= seq))
    }
}

fn dot() -> impl Strategy<Value = Timestamp> {
    (0u32..3, 0u64..6, 0u32..3)
        .prop_map(|(origin, micros, counter)| Timestamp::new(micros, counter, NodeId(origin)))
}

fn dots() -> impl Strategy<Value = Vec<Timestamp>> {
    proptest::collection::vec(dot(), 0..5)
}

fn build(dots: &[Timestamp]) -> (CausalContext, Model) {
    let mut ctx = CausalContext::new();
    let mut model = Model::default();
    for d in dots {
        ctx.observe(d);
        model.observe(d);
    }
    (ctx, model)
}

fn hash_of(ctx: &CausalContext) -> u64 {
    let mut h = DefaultHasher::new();
    ctx.hash(&mut h);
    h.finish()
}

/// The context's entries, its length and its emptiness all match.
fn agrees(ctx: &CausalContext, model: &Model) -> bool {
    ctx.entries().collect::<Vec<_>>() == model.0
        && ctx.len() == model.0.len()
        && ctx.is_empty() == model.0.is_empty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn observe_matches_the_sorted_vec(ds in dots()) {
        let mut ctx = CausalContext::new();
        let mut model = Model::default();
        for d in &ds {
            ctx.observe(d);
            model.observe(d);
            prop_assert!(agrees(&ctx, &model), "{:?} vs {:?}", ctx, model);
        }
    }

    #[test]
    fn join_matches_the_sorted_vec(a in dots(), b in dots()) {
        let (ca, ma) = build(&a);
        let (cb, mb) = build(&b);
        let mut joined = ma.clone();
        joined.join(&mb);
        let mut ctx = ca.clone();
        ctx.join(&cb);
        prop_assert!(agrees(&ctx, &joined), "{:?} vs {:?}", ctx, joined);
        prop_assert!(agrees(&ca.joined(&cb), &joined));
    }

    #[test]
    fn queries_match_the_sorted_vec(a in dots(), b in dots(), probes in dots()) {
        let (ca, ma) = build(&a);
        let (cb, mb) = build(&b);
        prop_assert_eq!(ca.dominates(&cb), ma.dominates(&mb));
        prop_assert_eq!(cb.dominates(&ca), mb.dominates(&ma));
        for p in &probes {
            prop_assert_eq!(ca.covers(p), ma.covers(p));
            prop_assert_eq!(ca.seq_of(p.origin), ma.seq_of(p.origin));
        }
    }

    /// Equal entries, however they were reached (observed one by one, in
    /// another order, or joined from parts), compare and hash equal;
    /// different entries compare unequal.
    #[test]
    fn eq_and_hash_follow_the_entries(a in dots(), b in dots()) {
        let (ca, ma) = build(&a);
        let (cb, mb) = build(&b);
        prop_assert_eq!(ca == cb, ma == mb);
        if ca == cb {
            prop_assert_eq!(hash_of(&ca), hash_of(&cb));
        }
        let reversed: Vec<Timestamp> = a.iter().rev().copied().collect();
        let (cr, _) = build(&reversed);
        prop_assert_eq!(&cr, &ca);
        prop_assert_eq!(hash_of(&cr), hash_of(&ca));
        let (half, rest) = a.split_at(a.len() / 2);
        let mut pieced = build(half).0;
        pieced.join(&build(rest).0);
        prop_assert_eq!(&pieced, &ca);
        prop_assert_eq!(hash_of(&pieced), hash_of(&ca));
    }
}
