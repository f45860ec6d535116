//! The input to the preparation phase (paper §5.2, extended to the
//! combined ordering + grouping framework).
//!
//! Before plan generation, the optimizer determines (1) the interesting
//! *logical properties* — orderings and groupings, split into those
//! *produced* by some physical operator (`O_P`: sort, ordered index
//! scan, hash aggregation, …) and those only *tested for* (`O_T`) — and
//! (2) the set of sets of functional dependencies `F`, one [`FdSet`] per
//! operator that changes logical properties. [`InputSpec`] carries
//! exactly this.
//!
//! Registration is indexed by each property's `(head_len, attrs)` view
//! in one arena, so building a spec with many interesting properties
//! stays linear and stores no second copy of any property.

use crate::derive::view;
use crate::fd::{Fd, FdSet, FdSetId};
use crate::property::LogicalProperty;
use ofw_catalog::AttrId;
use ofw_common::{FxHashMap, SliceInterner};

/// Interesting orderings/groupings + FD sets extracted from one query.
#[derive(Clone, Debug, Default)]
pub struct InputSpec {
    produced: Vec<LogicalProperty>,
    tested: Vec<LogicalProperty>,
    fd_sets: Vec<FdSet>,
    /// Every registered property's view; per view id, whether it is in
    /// `produced` and whether it is in `tested`.
    registered: SliceInterner<AttrId>,
    lists: Vec<(bool, bool)>,
    fd_index: FxHashMap<FdSet, FdSetId>,
}

impl InputSpec {
    /// An empty specification.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registration flags of `p`'s view, interning it at first sight.
    fn lists_of(&mut self, p: &LogicalProperty) -> &mut (bool, bool) {
        assert!(!p.is_empty(), "the empty ordering/grouping is implicit");
        let (head_len, attrs) = view(p);
        let (id, new) = self.registered.intern(head_len as u32, attrs);
        if new {
            self.lists.push((false, false));
        }
        &mut self.lists[id as usize]
    }

    /// Registers an interesting property in `O_P`: producible by a
    /// physical operator (sort, index scan, hash aggregation, …) and
    /// therefore reachable through an artificial start edge. Produced
    /// properties are implicitly also testable. Duplicates are ignored
    /// (O(1) hash probe).
    pub fn add_produced(&mut self, p: impl Into<LogicalProperty>) {
        let p = p.into();
        let (produced, _) = self.lists_of(&p);
        if !std::mem::replace(produced, true) {
            self.produced.push(p);
        }
    }

    /// Registers an interesting property in `O_T`: only tested for (e.g.
    /// a merge-join requirement no operator produces directly).
    pub fn add_tested(&mut self, p: impl Into<LogicalProperty>) {
        let p = p.into();
        let (produced, tested) = self.lists_of(&p);
        if !*produced && !std::mem::replace(tested, true) {
            self.tested.push(p);
        }
    }

    /// Registers the FD set of one operator and returns its handle — the
    /// value the plan generator later feeds to
    /// [`OrderOracle::infer`](crate::OrderOracle::infer).
    /// Identical sets share a handle (O(1) hash probe).
    pub fn add_fd_set(&mut self, fds: Vec<Fd>) -> FdSetId {
        let set = FdSet::new(fds);
        if let Some(&id) = self.fd_index.get(&set) {
            return id;
        }
        let id = FdSetId(self.fd_sets.len() as u32);
        self.fd_index.insert(set.clone(), id);
        self.fd_sets.push(set);
        id
    }

    /// `O_P` — produced interesting properties, in registration order.
    pub fn produced(&self) -> &[LogicalProperty] {
        &self.produced
    }

    /// `O_T` — tested-only interesting properties.
    pub fn tested(&self) -> &[LogicalProperty] {
        &self.tested
    }

    /// All interesting properties `O_I = O_P ∪ O_T` (produced first).
    pub fn interesting(&self) -> impl Iterator<Item = &LogicalProperty> {
        self.produced.iter().chain(self.tested.iter())
    }

    /// The `(head_len, attrs)` views of [`interesting`](Self::interesting),
    /// in the same order: the one form preparation reads a spec in. An
    /// ordering has no head, a grouping no tail; anything else is a
    /// head/tail pair.
    pub(crate) fn views(&self) -> impl Iterator<Item = (usize, &[AttrId])> {
        self.interesting().map(view)
    }

    /// Whether the property with this view was registered as produced.
    pub(crate) fn is_produced(&self, head_len: usize, attrs: &[AttrId]) -> bool {
        let id = self.registered.get(head_len as u32, attrs);
        id.is_some_and(|id| self.lists[id as usize].0)
    }

    /// The registered FD sets, indexable by [`FdSetId`].
    pub fn fd_sets(&self) -> &[FdSet] {
        &self.fd_sets
    }

    /// The interesting properties with the ordering prefix closure
    /// applied, deduplicated in first-seen order, each paired with
    /// whether it is producible: produced properties, then tested-only
    /// ones, with every interesting ordering's proper prefixes folded in
    /// as non-producible. Both baseline frameworks (Simmen, explicit
    /// oracle) register their key spaces from this single list, so the
    /// arms cannot diverge on which properties resolve.
    pub fn interesting_closure(&self) -> Vec<(LogicalProperty, bool)> {
        let mut out: Vec<(LogicalProperty, bool)> = Vec::new();
        let mut index: FxHashMap<LogicalProperty, usize> = FxHashMap::default();
        let mut add = |p: LogicalProperty, prod: bool, out: &mut Vec<(LogicalProperty, bool)>| {
            if let Some(&i) = index.get(&p) {
                out[i].1 = out[i].1 || prod;
                return;
            }
            index.insert(p.clone(), out.len());
            out.push((p, prod));
        };
        for (list, prod) in [(&self.produced, true), (&self.tested, false)] {
            for p in list {
                add(p.clone(), prod, &mut out);
                if let LogicalProperty::Ordering(o) = p {
                    for prefix in o.proper_prefixes() {
                        add(prefix.into(), false, &mut out);
                    }
                }
            }
        }
        out
    }

    /// Length of the longest interesting *ordering* — the global cutoff
    /// used by the §5.7 heuristics (groupings are set-bounded by their
    /// own admission filter and do not participate).
    pub fn max_interesting_len(&self) -> usize {
        let orderings = self.views().filter(|&(head_len, _)| head_len == 0);
        orderings.map(|(_, attrs)| attrs.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::Ordering;
    use crate::property::Grouping;

    fn o(ids: &[u32]) -> Ordering {
        Ordering::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    fn g(ids: &[u32]) -> Grouping {
        Grouping::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    #[test]
    fn produced_wins_over_tested() {
        let mut s = InputSpec::new();
        s.add_produced(o(&[1]));
        s.add_tested(o(&[1]));
        assert_eq!(s.produced().len(), 1);
        assert_eq!(s.tested().len(), 0);
    }

    #[test]
    fn orderings_and_groupings_are_distinct_properties() {
        let mut s = InputSpec::new();
        s.add_produced(o(&[1, 2]));
        s.add_produced(g(&[1, 2]));
        s.add_produced(g(&[2, 1])); // canonical duplicate of {1,2}
        assert_eq!(s.produced().len(), 2);
        let heads: Vec<usize> = s.views().map(|(head_len, _)| head_len).collect();
        assert_eq!(heads, [0, 2], "one ordering, one grouping");
    }

    #[test]
    fn dedup_is_hash_backed_and_order_preserving() {
        let mut s = InputSpec::new();
        for i in 0..100u32 {
            s.add_produced(o(&[i % 10]));
            s.add_tested(o(&[i % 10, 10]));
        }
        assert_eq!(s.produced().len(), 10);
        assert_eq!(s.tested().len(), 10);
        assert_eq!(s.produced()[0], o(&[0]).into());
        assert_eq!(s.produced()[9], o(&[9]).into());
    }

    #[test]
    fn interesting_closure_expands_ordering_prefixes() {
        let mut s = InputSpec::new();
        s.add_produced(o(&[1, 2]));
        s.add_tested(o(&[1]));
        s.add_tested(g(&[1, 2]));
        let closure = s.interesting_closure();
        // (1,2) produced, (1) its non-producible prefix (the later
        // tested registration merges into it), {1,2} tested; groupings
        // have no prefixes.
        assert_eq!(
            closure,
            vec![
                (o(&[1, 2]).into(), true),
                (o(&[1]).into(), false),
                (g(&[1, 2]).into(), false),
            ]
        );
    }

    #[test]
    fn fd_sets_dedup_to_same_handle() {
        let mut s = InputSpec::new();
        let f1 = s.add_fd_set(vec![Fd::equation(AttrId(0), AttrId(1))]);
        let f2 = s.add_fd_set(vec![Fd::equation(AttrId(1), AttrId(0))]);
        let f3 = s.add_fd_set(vec![Fd::constant(AttrId(2))]);
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
        assert_eq!(s.fd_sets().len(), 2);
    }

    #[test]
    fn max_interesting_len() {
        let mut s = InputSpec::new();
        assert_eq!(s.max_interesting_len(), 0);
        s.add_produced(o(&[1]));
        s.add_tested(o(&[2, 3, 4]));
        s.add_tested(g(&[1, 2, 3, 4, 5]));
        assert_eq!(s.max_interesting_len(), 3, "groupings do not count");
    }

    #[test]
    #[should_panic(expected = "empty ordering")]
    fn empty_interesting_order_rejected() {
        let mut s = InputSpec::new();
        s.add_produced(Ordering::empty());
    }

    #[test]
    #[should_panic(expected = "empty ordering")]
    fn empty_interesting_grouping_rejected() {
        let mut s = InputSpec::new();
        s.add_produced(Grouping::empty());
    }
}
