//! The naive explicit-set implementation of `LogicalOrderings` (paper §2,
//! "the intuitive approach"), extended to groupings.
//!
//! Maintains the full, prefix-closed set of logical orderings a stream
//! satisfies — plus the set of groupings — and recomputes the closure on
//! every inference. The paper dismisses it for production use (the set
//! grows quadratically with every `v = const` predicate), but it is the
//! perfect *test oracle*: it applies the derivation rules of §2 (and the
//! VLDB'04 set rules for groupings) directly, with no NFSM, no
//! determinization, and no §5.7 heuristics. Our property tests check the
//! DFSM framework agrees with it on every interesting property after
//! every operator sequence.
//!
//! Grouping ground truth: a stream sorted by `o` is grouped by the
//! attribute *set* of every prefix of `o`; a hash-grouped stream is
//! grouped by exactly its key (and the empty set). Each inference closes
//! the ordering set first, reseeds groupings from all orderings' prefix
//! sets, then closes the grouping set under the operator's dependencies.

use crate::derive::{apply_fd_grouping, apply_fd_grouping_tails, apply_fd_head_tail, DeriveCtx};
use crate::eqclass::EqClasses;
use crate::fd::FdSet;
use crate::filter::PrefixFilter;
use crate::ordering::Ordering;
use crate::property::{Grouping, HeadTail, LogicalProperty};
use ofw_common::FxHashSet;

/// Explicitly materialized, prefix-closed set of logical orderings plus
/// the sets of satisfied groupings and head/tail pairs.
#[derive(Clone, Debug)]
pub struct ExplicitOrderings {
    set: FxHashSet<Ordering>,
    groups: FxHashSet<Grouping>,
    pairs: FxHashSet<HeadTail>,
}

impl ExplicitOrderings {
    /// A stream with no ordering (satisfies only `()` and `{}`).
    pub fn unordered() -> Self {
        let mut set = FxHashSet::default();
        set.insert(Ordering::empty());
        ExplicitOrderings {
            set,
            groups: FxHashSet::default(),
            pairs: FxHashSet::default(),
        }
    }

    /// A stream physically ordered by `o` (satisfies `o`, its prefixes,
    /// the grouping of every prefix's attribute set, and every
    /// (prefix set, continuation) head/tail decomposition).
    pub fn from_physical(o: &Ordering) -> Self {
        let mut e = Self::unordered();
        e.set.insert(o.clone());
        for p in o.proper_prefixes() {
            e.set.insert(p);
        }
        e.reseed_groups_from_orderings();
        e.reseed_pairs_from_orderings();
        e
    }

    /// A stream physically *grouped* by `g` (hash aggregation output):
    /// satisfies the grouping `g` and no ordering but `()`.
    pub fn from_grouping(g: &Grouping) -> Self {
        let mut e = Self::unordered();
        if !g.is_empty() {
            e.groups.insert(g.clone());
        }
        e
    }

    /// A stream physically shaped as the head/tail pair `h` (partial
    /// sort output): satisfies the pair, every sub-decomposition it
    /// implies, and no ordering but `()`.
    pub fn from_head_tail(h: &HeadTail) -> Self {
        let mut e = Self::unordered();
        e.pairs.insert(h.clone());
        for implied in h.implications() {
            match implied {
                LogicalProperty::HeadTail(p) => {
                    e.pairs.insert(p);
                }
                LogicalProperty::Grouping(g) => {
                    e.groups.insert(g);
                }
                LogicalProperty::Ordering(_) => unreachable!("pairs never imply orderings"),
            }
        }
        e
    }

    /// `contains`: exact membership in the closed ordering set.
    pub fn contains(&self, o: &Ordering) -> bool {
        self.set.contains(o)
    }

    /// `contains` for groupings: exact membership (the empty grouping
    /// holds for every stream).
    pub fn contains_grouping(&self, g: &Grouping) -> bool {
        g.is_empty() || self.groups.contains(g)
    }

    /// `contains` for head/tail pairs: exact membership in the closed
    /// pair set.
    pub fn contains_head_tail(&self, h: &HeadTail) -> bool {
        self.pairs.contains(h)
    }

    /// `inferNewLogicalOrderings`: closes all sets under `fd_set`,
    /// unbounded (no §5.7 heuristics — this is the ground truth for the
    /// paper's *sequential* semantics, where each operator's FD set is
    /// applied exactly once, at the operator).
    pub fn infer(&mut self, fd_set: &FdSet) {
        self.close_under(fd_set.fds());
    }

    /// Closes the sets under an arbitrary dependency list. Feeding the
    /// *accumulated* dependencies of all operators applied so far models
    /// the stronger persistent-FD semantics (dependencies keep holding
    /// for the stream): Simmen's environment-based `contains` exploits
    /// that, the FSM framework deliberately does not (§5.6 applies each
    /// edge once).
    ///
    /// The three kinds close together to a joint fixpoint: orderings
    /// imply groupings and pairs (decompositions), groupings derive
    /// pairs (a determined attribute is a trivial within-group tail),
    /// and pair derivation can degenerate back into plain groupings
    /// (empty tail). Pairs never derive orderings: head removal
    /// deliberately keeps heads non-empty (see
    /// [`apply_fd_head_tail`]) — the one sound derivation all three
    /// oracle arms refuse in lockstep, because the pair-free pipeline
    /// could not mirror it.
    pub fn close_under(&mut self, fds: &[crate::fd::Fd]) {
        let eq = EqClasses::new(); // unused by an unfiltered context
        let filter = PrefixFilter::new(std::iter::empty(), &[], &eq, false);
        let ctx = DeriveCtx {
            eq: &eq,
            filter: &filter,
            max_len: usize::MAX,
        };
        loop {
            let mut grew = false;
            // Orderings: bounded-free positional closure.
            let snapshot: Vec<Ordering> = self.set.iter().cloned().collect();
            for o in snapshot {
                for d in ctx.closure(&o, fds) {
                    for p in d.proper_prefixes() {
                        grew |= self.set.insert(p);
                    }
                    grew |= self.set.insert(d);
                }
            }
            // Implications: sorted ⇒ grouped by prefix sets ⇒ every
            // decomposition pair.
            grew |= self.reseed_groups_from_orderings();
            grew |= self.reseed_pairs_from_orderings();
            // Groupings close under the set rules, and spawn pairs via
            // the trivial-tail rule.
            let mut mixed: Vec<LogicalProperty> = Vec::new();
            let mut work: Vec<Grouping> = self.groups.iter().cloned().collect();
            let mut buf: Vec<Grouping> = Vec::new();
            while let Some(cur) = work.pop() {
                for fd in fds {
                    buf.clear();
                    apply_fd_grouping(&cur, fd, &mut buf);
                    apply_fd_grouping_tails(&cur, fd, &mut mixed);
                    for d in buf.drain(..) {
                        if !d.is_empty() && self.groups.insert(d.clone()) {
                            grew = true;
                            work.push(d);
                        }
                    }
                }
            }
            // Pairs close under the pair rules; derivations may be of
            // any kind and sub-decomposition implications are expanded
            // in place.
            let mut pair_work: Vec<HeadTail> = self.pairs.iter().cloned().collect();
            loop {
                for cur in std::mem::take(&mut pair_work) {
                    for fd in fds {
                        apply_fd_head_tail(&cur, fd, &mut mixed);
                    }
                }
                for d in std::mem::take(&mut mixed) {
                    match d {
                        LogicalProperty::HeadTail(h) => {
                            if self.pairs.contains(&h) {
                                continue;
                            }
                            grew = true;
                            mixed.extend(h.implications());
                            self.pairs.insert(h.clone());
                            pair_work.push(h);
                        }
                        LogicalProperty::Grouping(g) => {
                            if !g.is_empty() {
                                grew |= self.groups.insert(g);
                            }
                        }
                        LogicalProperty::Ordering(_) => {
                            unreachable!("pairs never derive orderings (heads stay non-empty)")
                        }
                    }
                }
                if pair_work.is_empty() && mixed.is_empty() {
                    break;
                }
            }
            if !grew {
                return;
            }
        }
    }

    /// Every prefix attribute set of every satisfied ordering is a
    /// satisfied grouping (sorted ⇒ grouped). Returns whether the
    /// grouping set grew.
    fn reseed_groups_from_orderings(&mut self) -> bool {
        let seeds: Vec<Grouping> = self
            .set
            .iter()
            .flat_map(|o| (1..=o.len()).map(|l| Grouping::new(o.attrs()[..l].to_vec())))
            .collect();
        let before = self.groups.len();
        self.groups.extend(seeds);
        self.groups.len() > before
    }

    /// Every (prefix set, continuation) decomposition of every satisfied
    /// ordering is a satisfied pair (sorted ⇒ grouped by the prefix set,
    /// sorted by the continuation within each group). Returns whether
    /// the pair set grew.
    fn reseed_pairs_from_orderings(&mut self) -> bool {
        let seeds: Vec<HeadTail> = self.set.iter().flat_map(HeadTail::decompositions).collect();
        let before = self.pairs.len();
        self.pairs.extend(seeds);
        self.pairs.len() > before
    }

    /// Number of orderings currently materialized — the quantity whose
    /// quadratic growth motivates the paper (§2).
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Always at least `()`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates the materialized orderings.
    pub fn iter(&self) -> impl Iterator<Item = &Ordering> {
        self.set.iter()
    }

    /// Iterates the materialized groupings.
    pub fn iter_groupings(&self) -> impl Iterator<Item = &Grouping> {
        self.groups.iter()
    }

    /// Iterates the materialized head/tail pairs.
    pub fn iter_head_tails(&self) -> impl Iterator<Item = &HeadTail> {
        self.pairs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::Fd;
    use ofw_catalog::AttrId;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);
    const X: AttrId = AttrId(3);

    fn o(ids: &[AttrId]) -> Ordering {
        Ordering::new(ids.to_vec())
    }

    fn g(ids: &[AttrId]) -> Grouping {
        Grouping::new(ids.to_vec())
    }

    #[test]
    fn physical_ordering_implies_prefixes() {
        let e = ExplicitOrderings::from_physical(&o(&[A, B, C]));
        assert!(e.contains(&o(&[A])));
        assert!(e.contains(&o(&[A, B])));
        assert!(e.contains(&o(&[A, B, C])));
        assert!(e.contains(&Ordering::empty()));
        assert!(!e.contains(&o(&[B])));
    }

    #[test]
    fn physical_ordering_implies_prefix_set_groupings() {
        let e = ExplicitOrderings::from_physical(&o(&[B, A]));
        assert!(e.contains_grouping(&g(&[B])));
        assert!(e.contains_grouping(&g(&[A, B])), "sets ignore position");
        assert!(!e.contains_grouping(&g(&[A])), "{{a}} needs a-adjacency");
        assert!(e.contains_grouping(&Grouping::empty()));
    }

    #[test]
    fn grouped_stream_satisfies_only_its_grouping() {
        let e = ExplicitOrderings::from_grouping(&g(&[A, B]));
        assert!(e.contains_grouping(&g(&[A, B])));
        assert!(!e.contains_grouping(&g(&[A])));
        assert!(!e.contains(&o(&[A])));
        assert!(e.contains(&Ordering::empty()));
    }

    #[test]
    fn grouping_closure_under_fds() {
        // Grouped by {a}, then an operator induces a→b: grouped by
        // {a,b} too; with b = const even {a,b}∖{b} round-trips.
        let mut e = ExplicitOrderings::from_grouping(&g(&[A]));
        e.infer(&FdSet::new(vec![Fd::functional(&[A], B)]));
        assert!(e.contains_grouping(&g(&[A, B])));
        assert!(!e.contains_grouping(&g(&[B])));
        let mut e2 = ExplicitOrderings::from_grouping(&g(&[A, X]));
        e2.infer(&FdSet::new(vec![Fd::constant(X)]));
        assert!(e2.contains_grouping(&g(&[A])), "constants are removable");
    }

    #[test]
    fn section_2_intro_example() {
        // §2: sort by (a,b), then selection x = const gives
        // {(x,a,b),(a,x,b),(a,b,x),(x,a),(a,x),(x)} plus the originals.
        let mut e = ExplicitOrderings::from_physical(&o(&[A, B]));
        e.infer(&FdSet::new(vec![Fd::constant(X)]));
        for expect in [
            o(&[X, A, B]),
            o(&[A, X, B]),
            o(&[A, B, X]),
            o(&[X, A]),
            o(&[A, X]),
            o(&[X]),
            o(&[A, B]),
            o(&[A]),
        ] {
            assert!(e.contains(&expect), "missing {expect:?}");
        }
        assert!(!e.contains(&o(&[B])));
        // (), (a), (a,b) + 6 new = 9.
        assert_eq!(e.len(), 9);
    }

    #[test]
    fn quadratic_growth_with_constants() {
        // Each additional v = const predicate multiplies the set.
        let mut e = ExplicitOrderings::from_physical(&o(&[A]));
        let sizes: Vec<usize> = (1..=3)
            .map(|i| {
                e.infer(&FdSet::new(vec![Fd::constant(AttrId(10 + i))]));
                e.len()
            })
            .collect();
        assert!(sizes[0] < sizes[1] && sizes[1] < sizes[2]);
        assert!(sizes[2] > 20, "3 constants blow the set up: {sizes:?}");
    }

    #[test]
    fn inference_is_cumulative() {
        let mut e = ExplicitOrderings::from_physical(&o(&[A]));
        e.infer(&FdSet::new(vec![Fd::functional(&[A], B)]));
        assert!(e.contains(&o(&[A, B])));
        e.infer(&FdSet::new(vec![Fd::functional(&[B], C)]));
        assert!(e.contains(&o(&[A, B, C])));
        // Old orderings survive.
        assert!(e.contains(&o(&[A])));
        // And the groupings of all the new prefixes appeared.
        assert!(e.contains_grouping(&g(&[A, B, C])));
    }

    #[test]
    fn equation_substitution_ground_truth() {
        let mut e = ExplicitOrderings::from_physical(&o(&[A]));
        e.infer(&FdSet::new(vec![Fd::equation(A, B)]));
        assert!(e.contains(&o(&[B])));
        assert!(e.contains(&o(&[A, B])));
        assert!(e.contains(&o(&[B, A])));
        assert!(e.contains_grouping(&g(&[B])));
    }
}
