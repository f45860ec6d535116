//! The prefix-filter heuristic of §5.7, strengthened for completeness.
//!
//! During closure computation, the candidate space of derived orderings
//! explodes combinatorially (the paper's example: three single-attribute
//! interesting orders plus four FDs yield *all permutations* of three
//! attributes). Two observations bound it:
//!
//! 1. positions beyond the longest interesting order can never be tested,
//!    so derived orderings may be **cut off** at that length;
//! 2. a derived ordering is only worth materializing if some interesting
//!    order can still be *completed* from it by later derivations.
//!
//! The paper's formulation of (2) — "check if there is an interesting
//! order with the prefix `(o₁..o_{i-1}, b)`", modulo equivalence-class
//! representatives — is *incomplete*: later dependencies can insert
//! attributes **to the left** (a constant lands anywhere; an FD's
//! right-hand side lands anywhere after its left-hand side) and can
//! *remove* attributes (constants and functionally determined
//! attributes never decide comparisons). Example: with interesting
//! order `(x, a)` and `x = const`, the candidate `(a)` must be kept — a
//! later selection inserts `x` in front; with interesting order `(a)`
//! and `x = const`, the candidate `(x, a)` must be kept — `x` is
//! removable.
//!
//! [`PrefixFilter::admitted_len`] therefore solves a tiny alignment
//! problem per interesting order: walk the candidate and the interesting
//! order simultaneously where a step may **match** (equal
//! representatives), **skip** an interesting-order position whose
//! attribute is derivable from what the candidate already provides
//! (constant closure), or **strip** a candidate attribute that is
//! removable (a constant, a duplicate representative, or an FD rhs whose
//! determinants precede it). Because match/strip can conflict, this is a
//! small reachability DP, not a greedy scan — candidates are at most as
//! long as the longest interesting order, so the state space is tiny.
//!
//! Both filters reason in *representative space* over filter-local
//! dense ids (`RepSpace`; nothing is sized by an `AttrId` value),
//! close constants through an lhs-attribute → FD index ([`Derived`]),
//! compare a candidate only against the interesting orders/groupings it
//! shares a representative with, and compute every answer once.

use crate::eqclass::EqClasses;
use crate::fd::Fd;
use crate::ordering::Ordering;
use crate::property::{Grouping, HeadTail};
use ofw_catalog::AttrId;
use ofw_common::horn::{Derived, HornRules, UNDERIVED};
use ofw_common::FxHashMap;
use std::cell::RefCell;

/// An answer memo keyed by the attribute list asked about.
type Memo<V> = FxHashMap<Box<[AttrId]>, V>;

/// The representative space of one filter: local dense ids (every
/// attribute class the filter has seen, in first-occurrence order) and
/// the constants and dependencies over those ids.
#[derive(Debug, Default)]
struct RepSpace {
    /// Attribute (and its class representative) → local id of the class.
    ids: FxHashMap<AttrId, u32>,
    /// Per id: bound to a constant.
    is_const: Vec<bool>,
    /// Per id: member of a *multi-attribute* left-hand side.
    multi_lhs: Vec<bool>,
    /// Per id: the left-hand sides determining it (trivial ones dropped).
    determinants: Vec<Vec<Vec<u32>>>,
    /// `∅ → constant` and `lhs → rhs` as rules: a *constant closure* is
    /// a [`Derived`] set under them, level 0 holding what the constants
    /// alone determine.
    rules: HornRules,
}

impl RepSpace {
    fn len(&self) -> usize {
        self.is_const.len()
    }

    /// Local id of `a`'s class, assigned at first sight.
    fn id(&mut self, a: AttrId, eq: &EqClasses) -> u32 {
        if let Some(&id) = self.ids.get(&a) {
            return id;
        }
        let next = self.len() as u32;
        let id = *self.ids.entry(eq.find(a)).or_insert(next);
        if id == next {
            self.is_const.push(false);
            self.multi_lhs.push(false);
            self.determinants.push(Vec::new());
        }
        self.ids.insert(a, id);
        id
    }

    /// Local id of `a`'s class if the filter has ever seen it.
    fn lookup(&self, a: AttrId, eq: &EqClasses) -> Option<u32> {
        let id = self.ids.get(&a).or_else(|| self.ids.get(&eq.find(a)));
        id.copied()
    }

    /// Registers the dependencies in representative space.
    fn add_fds(&mut self, fds: &[Fd], eq: &EqClasses) {
        for fd in fds {
            match fd {
                Fd::Constant(a) => {
                    let id = self.id(*a, eq);
                    self.is_const[id as usize] = true;
                    self.rules.add(Vec::new(), id);
                }
                Fd::Functional { lhs, rhs } => {
                    let lhs: Vec<u32> = lhs.iter().map(|&a| self.id(a, eq)).collect();
                    let rhs = self.id(*rhs, eq);
                    if lhs.len() >= 2 {
                        for &l in &lhs {
                            self.multi_lhs[l as usize] = true;
                        }
                    }
                    if !lhs.contains(&rhs) {
                        self.determinants[rhs as usize].push(lhs.clone());
                        self.rules.add(lhs, rhs);
                    }
                }
                // In representative space an equation is the identity.
                Fd::Equation(_, _) => {}
            }
        }
    }

    /// Per id, the `lists` (of ids) containing it.
    fn containing(&self, lists: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let mut with = vec![Vec::new(); self.len()];
        for (i, list) in lists.iter().enumerate() {
            for &r in list {
                if with[r as usize].last() != Some(&(i as u32)) {
                    with[r as usize].push(i as u32);
                }
            }
        }
        with
    }
}

/// Bounded-derivation filter over the interesting orders.
#[derive(Debug)]
pub struct PrefixFilter {
    /// Classes, constants and dependencies. Classes participating in a
    /// *multi-attribute* left-hand side are tracked too: derivation
    /// matches left-hand sides on concrete attributes, so an ordering
    /// may need several equal-by-equation attributes present at once —
    /// e.g. `[a,b] → c` with `a = b` fires only from orderings
    /// containing both `a` and `b`, which in representative space look
    /// like useless duplicates.
    space: RepSpace,
    /// Representative-mapped interesting orders.
    orders: Vec<Vec<u32>>,
    /// Per id: the interesting orders containing it.
    orders_with: Vec<Vec<u32>>,
    /// Whether any interesting order is non-empty.
    has_order: bool,
    enabled: bool,
    scratch: RefCell<PrefixScratch>,
}

/// Reused buffers and the answer memo of [`PrefixFilter::admitted_len`].
#[derive(Debug, Default)]
struct PrefixScratch {
    avail: Derived,
    /// Candidate → (cap it was asked under, admitted length).
    memo: Memo<(usize, usize)>,
    cand: Vec<u32>,
    strippable: Vec<bool>,
    reach: Vec<bool>,
}

impl PrefixFilter {
    /// Builds the filter. `fds` must be (a superset of) the dependencies
    /// the closure will apply — they determine which gaps are fillable
    /// and which candidate attributes are removable. When `enabled` is
    /// false every query permissively allows everything (the paper's
    /// "w/o pruning" configuration).
    pub fn new<'a>(
        interesting: impl Iterator<Item = &'a Ordering>,
        fds: &[Fd],
        eq: &EqClasses,
        enabled: bool,
    ) -> Self {
        let mut space = RepSpace::default();
        let orders: Vec<Vec<u32>> = interesting
            .map(|o| o.attrs().iter().map(|&a| space.id(a, eq)).collect())
            .collect();
        space.add_fds(fds, eq);
        let orders_with = space.containing(&orders);
        let scratch = PrefixScratch {
            avail: Derived::new(&space.rules, space.len()),
            ..PrefixScratch::default()
        };
        PrefixFilter {
            has_order: orders.iter().any(|o| !o.is_empty()),
            space,
            orders,
            orders_with,
            enabled,
            scratch: RefCell::new(scratch),
        }
    }

    /// How much of `candidate` is worth keeping, at most `cap` long?
    /// Returns the longest useful prefix length not exceeding `cap`
    /// (0 = the candidate serves no interesting order at all). A useful
    /// prefix always ends in an attribute that *matches* an interesting-
    /// order position — trailing strippable attributes are dead weight
    /// and cut. Returns `cap` itself when the filter is disabled. `eq`
    /// must be the classes the filter was built with.
    pub fn admitted_len(&self, candidate: &[AttrId], eq: &EqClasses, cap: usize) -> usize {
        if !self.enabled {
            return cap;
        }
        let PrefixScratch {
            avail,
            memo,
            cand,
            strippable,
            reach,
        } = &mut *self.scratch.borrow_mut();
        if let Some(&(_, len)) = memo.get(candidate).filter(|&&(c, _)| c == cap) {
            return len;
        }
        let space = &self.space;
        let n = space.len() as u32;
        cand.clear();
        for (i, &a) in candidate.iter().enumerate() {
            // A class the filter has never seen matches and fills
            // nothing; only a repetition of it inside the candidate
            // matters, so it gets an id past the space, per class.
            cand.push(space.lookup(a, eq).unwrap_or_else(|| {
                let first = candidate[..i].iter().position(|&b| eq.same(a, b));
                n + first.unwrap_or(i) as u32
            }));
        }

        // avail.level(x) ≤ i: x lies in the constant closure of the
        // candidate's first i attributes — insertable *somewhere after
        // position i*.
        for (i, &c) in cand.iter().enumerate() {
            if c < n {
                avail.add(&space.rules, c, i as u32 + 1);
            }
        }
        // strippable[i]: candidate attr i is removable given what
        // precedes it (a constant, a duplicate class member, or an FD
        // rhs whose determinants all precede it).
        strippable.clear();
        for (i, &c) in cand.iter().enumerate() {
            let before = &cand[..i];
            let determined = |lhs: &Vec<u32>| lhs.iter().all(|l| before.contains(l));
            strippable.push(
                before.contains(&c)
                    || (c < n
                        && (space.is_const[c as usize]
                            || space.determinants[c as usize].iter().any(determined))),
            );
        }

        // An order sharing no representative with the candidate can only
        // be aligned by stripping, which reaches exactly the candidate's
        // leading strippable run — every non-empty order grants that
        // much, so only the sharing orders need the search.
        let lead = strippable.iter().take_while(|&&s| s).count();
        let mut best = if self.has_order { lead.min(cap) } else { 0 };
        let known = cand.iter().filter(|&&c| c < n);
        for &io in known.flat_map(|&c| &self.orders_with[c as usize]) {
            if best >= cand.len().min(cap) {
                break;
            }
            let io = &self.orders[io as usize];
            best = best.max(align(cand, io, avail, strippable, cap, reach));
        }
        // Multi-attribute-lhs enablers: a duplicate class member right
        // after the useful prefix is kept if its class participates in a
        // multi-attribute left-hand side — the concrete derivation needs
        // both equal attributes physically present.
        while best > 0 && best < cand.len() && best < cap {
            let r = cand[best];
            if r < n && space.multi_lhs[r as usize] && cand[..best].contains(&r) {
                best += 1;
            } else {
                break;
            }
        }
        avail.reset();
        memo.insert(candidate.into(), (cap, best));
        best
    }
}

/// Reachability DP over (candidate index, io index) in the reused
/// `reach` grid. Returns the largest candidate index ≤ `cap` reached by
/// a *match* move (or by stripping while the io still has open
/// positions).
fn align(
    cand: &[u32],
    io: &[u32],
    avail: &Derived,
    strippable: &[bool],
    cap: usize,
    reach: &mut Vec<bool>,
) -> usize {
    let nc = cand.len();
    let ni = io.len();
    reach.clear();
    reach.resize((nc + 1) * (ni + 1), false);
    let idx = |ci: usize, ii: usize| ci * (ni + 1) + ii;
    reach[idx(0, 0)] = true;
    let mut best = 0usize;
    // All moves increase ci or ii, so row-major order is topological.
    for ci in 0..nc {
        for ii in 0..=ni {
            if !reach[idx(ci, ii)] {
                continue;
            }
            // Strip cand[ci] (removable later). While the io still
            // has open positions, the stripped attribute may be the
            // *enabler* of a later fill (inserted, used as a
            // determinant, removed again), so it extends the useful
            // prefix; once the io is exhausted it is dead weight.
            if strippable[ci] {
                reach[idx(ci + 1, ii)] = true;
                if ii < ni && ci < cap {
                    best = best.max(ci + 1);
                }
            }
            if ii < ni {
                // Match equal representatives.
                if io[ii] == cand[ci] {
                    reach[idx(ci + 1, ii + 1)] = true;
                    if ci < cap {
                        best = best.max(ci + 1);
                    }
                }
                // Skip an io position fillable from the first ci attrs.
                if avail.level(io[ii]) <= ci as u32 {
                    reach[idx(ci, ii + 1)] = true;
                }
            }
        }
    }
    best
}

/// Admission filter for derived *groupings* — the set analogue of
/// [`PrefixFilter`], and much simpler because sets have no positions.
///
/// A derived grouping `g` is only worth materializing if some
/// interesting grouping `i` can still be reached from it. Every grouping
/// reachable from `g` lies (in representative space) inside the FD
/// closure of `reps(g) ∪ const_reps` — insertions only ever add
/// attributes from that closure, removals only shrink the set — so the
/// sound admission test is: some interesting grouping's representative
/// set is a subset of that closure. Over-admission is harmless (the
/// actual derivation rules decide satisfaction); under-admission would
/// lose completeness, so the test is deliberately permissive.
#[derive(Debug)]
pub struct GroupingFilter {
    space: RepSpace,
    /// Representative sets of the interesting groupings.
    interesting: Vec<Vec<u32>>,
    /// Per id: the interesting groupings containing it.
    interesting_with: Vec<Vec<u32>>,
    /// Some interesting grouping lies inside the constant closure, so
    /// every candidate is admitted.
    always: bool,
    /// Equivalence classes (candidates are mapped on the fly).
    eq: EqClasses,
    enabled: bool,
    /// The closure scratch and the answer memo (attribute list → admitted).
    scratch: RefCell<(Derived, Memo<bool>)>,
}

impl GroupingFilter {
    /// Builds the filter over the interesting groupings. `fds` must be
    /// (a superset of) the dependencies the closure will apply. With
    /// `enabled` false everything is admitted (the "w/o pruning"
    /// configuration).
    pub fn new<'a>(
        interesting: impl Iterator<Item = &'a Grouping>,
        fds: &[Fd],
        eq: &EqClasses,
        enabled: bool,
    ) -> Self {
        let mut space = RepSpace::default();
        let interesting: Vec<Vec<u32>> = interesting
            .map(|g| g.attrs().iter().map(|&a| space.id(a, eq)).collect())
            .collect();
        space.add_fds(fds, eq);
        let interesting_with = space.containing(&interesting);
        let base = Derived::new(&space.rules, space.len());
        let always = interesting
            .iter()
            .any(|set| set.iter().all(|&r| base.level(r) == 0));
        GroupingFilter {
            space,
            interesting,
            interesting_with,
            always,
            eq: eq.clone(),
            enabled,
            scratch: RefCell::new((base, FxHashMap::default())),
        }
    }

    /// A filter admitting everything (no interesting groupings known).
    pub fn permissive() -> Self {
        GroupingFilter::new(std::iter::empty(), &[], &EqClasses::new(), false)
    }

    /// Whether some interesting grouping is still reachable from `g`.
    pub fn admits(&self, g: &Grouping) -> bool {
        self.admits_attrs(g.attrs())
    }

    /// [`admits`](Self::admits) over any listing of the attribute set.
    pub(crate) fn admits_attrs(&self, attrs: &[AttrId]) -> bool {
        if !self.enabled || self.always {
            return true;
        }
        let (avail, memo) = &mut *self.scratch.borrow_mut();
        if let Some(&admitted) = memo.get(attrs) {
            return admitted;
        }
        for &a in attrs {
            if let Some(id) = self.space.lookup(a, &self.eq) {
                avail.add(&self.space.rules, id, 1);
            }
        }
        // An interesting grouping inside the closure but not inside the
        // constant closure contains an id this call made available.
        let inside = |i: &u32| {
            let set = &self.interesting[*i as usize];
            set.iter().all(|&r| avail.level(r) != UNDERIVED)
        };
        let mut added = avail.added().iter();
        let admitted = added.any(|&t| self.interesting_with[t as usize].iter().any(inside));
        avail.reset();
        memo.insert(attrs.into(), admitted);
        admitted
    }

    /// Whether the filter is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

/// Admission filter for derived *head/tail pairs* — a thin wrapper
/// delegating to [`GroupingFilter`], because the reachability argument
/// is literally the same one over the pair's attribute *footprint*:
/// every pair reachable from `(H, T)` (by FD derivation *or* by the
/// ε-implications absorbing tail prefixes into the head) draws its
/// attributes from the FD closure of `reps(H ∪ T) ∪ const_reps` —
/// insertions only ever add closure members, removals only shrink — so
/// a derived pair is worth keeping iff some interesting pair's full
/// footprint lies inside that closure. Over-admission is harmless (the
/// derivation rules decide satisfaction); under-admission would lose
/// completeness. Tails stay naturally bounded: a tail is duplicate-free
/// and disjoint from its head, so no pair outgrows the closure.
#[derive(Debug)]
pub struct HeadTailFilter(pub(crate) GroupingFilter);

impl HeadTailFilter {
    /// Builds the filter over the interesting pairs (each contributing
    /// its footprint `H ∪ T` as a reachability target). `fds` must be
    /// (a superset of) the dependencies the closure will apply. With
    /// `enabled` false everything is admitted (the "w/o pruning"
    /// configuration).
    pub fn new<'a>(
        interesting: impl Iterator<Item = &'a HeadTail>,
        fds: &[Fd],
        eq: &EqClasses,
        enabled: bool,
    ) -> Self {
        let footprints: Vec<Grouping> = interesting
            .map(|h| Grouping::new(h.attrs().to_vec()))
            .collect();
        HeadTailFilter(GroupingFilter::new(footprints.iter(), fds, eq, enabled))
    }

    /// A filter admitting everything (no interesting pairs known).
    pub fn permissive() -> Self {
        HeadTailFilter(GroupingFilter::permissive())
    }

    /// Whether some interesting pair is still reachable from `h`.
    pub fn admits(&self, h: &HeadTail) -> bool {
        self.0.admits_attrs(h.attrs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);
    const D: AttrId = AttrId(3);
    const X: AttrId = AttrId(4);

    fn o(ids: &[AttrId]) -> Ordering {
        Ordering::new(ids.to_vec())
    }

    fn filter(orders: &[Ordering], fds: &[Fd], eq: &EqClasses) -> PrefixFilter {
        PrefixFilter::new(orders.iter(), fds, eq, true)
    }

    /// Shorthand: admitted length with no cap.
    fn admit(f: &PrefixFilter, cand: &[AttrId], eq: &EqClasses) -> usize {
        f.admitted_len(cand, eq, usize::MAX)
    }

    #[test]
    fn admits_prefixes_of_interesting_orders() {
        let eq = EqClasses::new();
        let f = filter(&[o(&[A, B, C]), o(&[B])], &[], &eq);
        assert_eq!(admit(&f, &[A], &eq), 1);
        assert_eq!(admit(&f, &[A, B], &eq), 2);
        assert_eq!(admit(&f, &[A, B, C], &eq), 3);
        assert_eq!(admit(&f, &[B], &eq), 1);
        // (b,c) is useless: nothing can ever put an `a` before `b`.
        assert_eq!(admit(&f, &[B, C], &eq), 1);
        assert_eq!(admit(&f, &[C], &eq), 0);
    }

    #[test]
    fn constants_fill_gaps_on_the_left() {
        // Interesting (x, a) with x = const: candidate (a) is useful —
        // a later selection inserts x in front.
        let eq = EqClasses::new();
        let f = filter(&[o(&[X, A])], &[Fd::constant(X)], &eq);
        assert_eq!(admit(&f, &[A], &eq), 1);
        // Without the constant it is dead.
        let g = filter(&[o(&[X, A])], &[], &eq);
        assert_eq!(admit(&g, &[A], &eq), 0);
    }

    #[test]
    fn constants_are_strippable_from_the_candidate() {
        // Interesting (a); candidate (x, a) with x = const is useful —
        // x is removable, leaving (a).
        let eq = EqClasses::new();
        let f = filter(&[o(&[A])], &[Fd::constant(X)], &eq);
        assert_eq!(admit(&f, &[X, A], &eq), 2);
        let g = filter(&[o(&[A])], &[], &eq);
        assert_eq!(admit(&g, &[X, A], &eq), 0);
    }

    #[test]
    fn strip_vs_match_requires_search() {
        // Interesting (a2, a0) with a0 = const and a0→a2: candidate
        // (a0, a2) must be fully admitted — strip the constant a0, match
        // a2, refill a0 later. A greedy matcher that binds the leading
        // a0 to the io's trailing a0 would reject this.
        let eq = EqClasses::new();
        let f = filter(
            &[o(&[C, A])],
            &[Fd::constant(A), Fd::functional(&[A], C)],
            &eq,
        );
        assert_eq!(admit(&f, &[A, C], &eq), 2);
    }

    #[test]
    fn fd_rhs_gaps_are_fillable_after_lhs() {
        // Interesting (a, y, c) with a→y: candidate (a, c) is useful.
        let eq = EqClasses::new();
        let f = filter(&[o(&[A, X, C])], &[Fd::functional(&[A], X)], &eq);
        assert_eq!(admit(&f, &[A, C], &eq), 2);
        // But (c, …) is dead: nothing fills the leading a.
        assert_eq!(admit(&f, &[C], &eq), 0);
    }

    #[test]
    fn determined_candidate_attrs_are_strippable() {
        // Interesting (a, c) with a→b: candidate (a, b, c) is useful —
        // b is removable after a.
        let eq = EqClasses::new();
        let f = filter(&[o(&[A, C])], &[Fd::functional(&[A], B)], &eq);
        assert_eq!(admit(&f, &[A, B, C], &eq), 3);
        // Without the FD, only the (a) prefix helps.
        let g = filter(&[o(&[A, C])], &[], &eq);
        assert_eq!(admit(&g, &[A, B, C], &eq), 1);
    }

    #[test]
    fn equivalence_classes_widen_the_filter() {
        // With a = d, the candidate (d, b) matches interesting (a, b).
        let mut eq = EqClasses::new();
        eq.union(A, D);
        let f = filter(&[o(&[A, B])], &[Fd::equation(A, D)], &eq);
        assert_eq!(admit(&f, &[D, B], &eq), 2);
        assert_eq!(admit(&f, &[A, B], &eq), 2);
        assert_eq!(admit(&f, &[B, A], &eq), 0, "nothing fills a leading a");
    }

    #[test]
    fn duplicate_representatives_are_strippable() {
        // a = x: candidate (a, x, c) — the second class member never
        // decides, so it matches interesting (a, c).
        let mut eq = EqClasses::new();
        eq.union(A, X);
        let f = filter(&[o(&[A, C])], &[Fd::equation(A, X)], &eq);
        assert_eq!(admit(&f, &[A, X, C], &eq), 3);
    }

    #[test]
    fn bound_is_longest_useful_prefix() {
        let eq = EqClasses::new();
        let f = filter(&[o(&[A, B]), o(&[A, B, C, D])], &[], &eq);
        assert_eq!(admit(&f, &[A, B, C], &eq), 3);
        assert_eq!(admit(&f, &[A, B, D], &eq), 2, "d only fits after c");
    }

    #[test]
    fn transitive_fd_fills() {
        // (a, y, z, c) with a→y, y→z: both gaps fillable from a.
        let eq = EqClasses::new();
        let f = filter(
            &[o(&[A, X, D, C])],
            &[Fd::functional(&[A], X), Fd::functional(&[X], D)],
            &eq,
        );
        assert_eq!(admit(&f, &[A, C], &eq), 2);
        // Without y→z the z gap is not fillable.
        let g = filter(&[o(&[A, X, D, C])], &[Fd::functional(&[A], X)], &eq);
        assert_eq!(admit(&g, &[A, C], &eq), 1);
    }

    #[test]
    fn disabled_filter_allows_everything() {
        let eq = EqClasses::new();
        let f = PrefixFilter::new([o(&[A])].iter(), &[], &eq, false);
        assert_eq!(
            f.admitted_len(&[C, D], &eq, 7),
            7,
            "disabled filter returns the cap"
        );
    }

    fn g(ids: &[AttrId]) -> Grouping {
        Grouping::new(ids.to_vec())
    }

    #[test]
    fn grouping_filter_reachability() {
        let eq = EqClasses::new();
        // Interesting {a,b}; FD c→b.
        let fds = [Fd::functional(&[C], B)];
        let f = GroupingFilter::new([g(&[A, B])].iter(), &fds, &eq, true);
        assert!(f.admits(&g(&[A, B])), "interesting groupings self-admit");
        assert!(f.admits(&g(&[A, C])), "b is derivable from c");
        assert!(f.admits(&g(&[A, B, C])), "supersets may shed attrs");
        assert!(!f.admits(&g(&[B, C])), "nothing produces a");
        // Constants fill gaps.
        let f = GroupingFilter::new([g(&[A, D])].iter(), &[Fd::constant(D)], &eq, true);
        assert!(f.admits(&g(&[A])));
        assert!(!f.admits(&g(&[D])));
    }

    #[test]
    fn grouping_filter_uses_equivalence_classes() {
        let mut eq = EqClasses::new();
        eq.union(A, D);
        let f = GroupingFilter::new([g(&[A, B])].iter(), &[], &eq, true);
        assert!(f.admits(&g(&[D, B])), "d ≡ a");
    }

    #[test]
    fn aggregation_keys_survive_admission() {
        // Aggregation placement registers subset keys like {fk, g} as
        // interesting groupings and relies on derivation chains through
        // schema FDs (key → attribute) and join equations. The
        // admission filter must keep every link of those chains alive:
        // from the probe-side key {a} (≈ join attribute), the chain
        // a = b (join edge), b → c (schema FD of the build side) must
        // reach the group key {c} registered as interesting.
        let eq = {
            let mut eq = EqClasses::new();
            eq.union(A, B);
            eq
        };
        let fds = [Fd::equation(A, B), Fd::functional(&[B], C)];
        let f = GroupingFilter::new([g(&[C]), g(&[A, D])].iter(), &fds, &eq, true);
        assert!(f.admits(&g(&[A])), "the probe-side aggregation key");
        assert!(f.admits(&g(&[A, B])), "after the join equation");
        assert!(f.admits(&g(&[B, C])), "after the schema FD");
        assert!(f.admits(&g(&[C])), "the group key itself");
        // But a key that can never complete any interesting grouping
        // (nothing derives d) stays out.
        assert!(!f.admits(&g(&[X])));
    }

    #[test]
    fn permissive_grouping_filter_admits_all() {
        let f = GroupingFilter::permissive();
        assert!(f.admits(&g(&[C, D])));
        assert!(!f.is_enabled());
    }
}
