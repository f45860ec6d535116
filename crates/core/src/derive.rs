//! Ordering derivation: the `o ⊢_f O′` relation of §2 and its transitive,
//! heuristically bounded closure `Ω` of §5.7.
//!
//! Given an ordering `o` and a dependency `f`:
//!
//! * `lhs → rhs`: `rhs` may be inserted at any position after the last
//!   occurrence of the `lhs` attributes (all of which must occur in `o`);
//! * `a = b`: behaves like `{a→b, b→a}` *plus* in-place substitution of
//!   `a` by `b` and vice versa (the paper notes `a = b` is stronger than
//!   the FD pair — e.g. the `(id) → (jobid)` edge in Fig. 11);
//! * `∅ → a`: `a` may be inserted at any position.
//!
//! Derived orderings stay duplicate-free (inserting an attribute that is
//! already present adds no information), and the §5.7 heuristics bound the
//! result: a global length cutoff at the longest interesting order, and a
//! prefix filter that discards insertions no interesting order can ever
//! profit from (with truncation to the longest matching interesting
//! order). Both heuristics are toggleable so the paper's "without
//! pruning" configuration can be measured.
//!
//! The rules are written once, over `(head_len, attrs)` *views* — the
//! sorted head set followed by the tail sequence; an ordering has no
//! head, a grouping no tail — and hand each derivation to a sink. The
//! closures run them against one reusable [`Scratch`] and allocate only
//! what they report; the `apply_fd_*` functions materialize every
//! derivation. Emission order is a contract: NFSM numbering follows it.

use crate::eqclass::EqClasses;
use crate::fd::{Fd, FdSet};
use crate::filter::{GroupingFilter, HeadTailFilter, PrefixFilter};
use crate::ordering::Ordering;
use crate::property::{Grouping, HeadTail, LogicalProperty};
use ofw_catalog::AttrId;
use ofw_common::{FxHashMap, FxHashSet, SliceInterner};

/// Which dependencies (or dependency sets) can fire on a property: a
/// derivation rule needs one of the dependency's attributes present, or
/// a dependency that fires anywhere (a constant, an empty left-hand
/// side). Items are whatever the caller numbers — FD sets for NFSM
/// construction, single dependencies for FD pruning.
#[derive(Default)]
pub(crate) struct Applicability {
    by_attr: FxHashMap<AttrId, Vec<u32>>,
    everywhere: Vec<u32>,
}

impl Applicability {
    /// Indexes `(item, dependency)` pairs; items must ascend.
    pub(crate) fn new<'a>(deps: impl Iterator<Item = (u32, &'a Fd)>) -> Self {
        let mut index = Applicability::default();
        let push = |list: &mut Vec<u32>, item| {
            if list.last() != Some(&item) {
                list.push(item);
            }
        };
        for (item, fd) in deps {
            match fd {
                Fd::Functional { lhs, .. } if lhs.is_empty() => push(&mut index.everywhere, item),
                Fd::Constant(_) => push(&mut index.everywhere, item),
                _ => {
                    for a in fd.attrs() {
                        push(index.by_attr.entry(a).or_default(), item);
                    }
                }
            }
        }
        index
    }

    /// Indexes FD sets by their position: the sets that can fire.
    pub(crate) fn over_sets(sets: &[FdSet]) -> Self {
        let sets = (0..).zip(sets);
        Self::new(sets.flat_map(|(sym, set)| set.fds().iter().map(move |fd| (sym, fd))))
    }

    /// The items that can fire on a property over `attrs`, ascending.
    pub(crate) fn of(&self, attrs: &[AttrId], out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.everywhere);
        let lists = attrs.iter().filter_map(|a| self.by_attr.get(a));
        lists.for_each(|items| out.extend_from_slice(items));
        out.sort_unstable();
        out.dedup();
    }
}

/// The reusable working memory of the closures: pass one instance to
/// any number of closure calls. Holds nothing a result refers to.
#[derive(Default)]
pub struct Scratch {
    /// Every view met in this closure, keyed `(head_len, attrs)`.
    seen: SliceInterner<AttrId>,
    /// Unexpanded members of `seen` (LIFO).
    work: Vec<u32>,
    /// Reported members of `seen`, in report order.
    result: Vec<u32>,
    /// The view being expanded (copied out of the arena).
    cur: Vec<AttrId>,
    /// The candidate under construction.
    buf: Vec<AttrId>,
    /// The dependencies tried on `cur`.
    selected: Vec<u32>,
}

impl Scratch {
    fn reset(&mut self) {
        self.seen.reset();
        self.work.clear();
        self.result.clear();
    }

    /// The views the last closure reported, in report order.
    pub(crate) fn reported(&self) -> impl Iterator<Item = (usize, &[AttrId])> {
        let views = self.result.iter().map(|&id| self.seen.resolve(id));
        views.map(|(head_len, attrs)| (head_len as usize, attrs))
    }

    /// Pops the next view to expand into `cur` and selects the
    /// dependencies to try on it: all `n`, or the applicable ones.
    fn next(&mut self, n: usize, index: Option<&Applicability>) -> Option<usize> {
        let (head_len, attrs) = self.seen.resolve(self.work.pop()?);
        self.cur.clear();
        self.cur.extend_from_slice(attrs);
        self.selected.clear();
        match index {
            Some(index) => index.of(&self.cur, &mut self.selected),
            None => self.selected.extend(0..n as u32),
        }
        Some(head_len as usize)
    }
}

/// Shared context for derivation: equivalence classes, the prefix filter,
/// and the global length cutoff.
pub struct DeriveCtx<'a> {
    /// Equivalence classes from all equations of the query.
    pub eq: &'a EqClasses,
    /// Prefix filter over the interesting orders (§5.7).
    pub filter: &'a PrefixFilter,
    /// Global cutoff: derived orderings longer than this are truncated
    /// (`usize::MAX` disables the cutoff).
    pub max_len: usize,
}

fn position(seq: &[AttrId], a: AttrId) -> Option<usize> {
    seq.iter().position(|&x| x == a)
}

/// The positional rules on the sequence `seq`, with the sorted set
/// `head` as ambient constants (empty for a plain ordering): inside a
/// head group every head attribute is constant, so head members act as
/// always-satisfied determinants — a dependency whose left-hand side
/// sits (partly) in the head can insert its right-hand side at *any*
/// position, and an attribute determined by head members alone is
/// removable anywhere.
///
/// Besides the paper's insertion and substitution rules, we derive
/// *removals*: an occurrence of a functionally determined attribute
/// whose determinants all precede it never decides a lexicographic
/// comparison (when the comparison reaches it, the determinants are
/// tied, so it is tied too), and the same holds for constants
/// anywhere. This matches the power of Simmen's reduction — e.g.
/// `(a,b,c)` under `a→b` also satisfies `(a,c)`.
///
/// Each derivation is built in `buf` as `head ++ sequence` and emitted
/// with the head's length. A sequence that *gained* an attribute at
/// `pos` first goes through `keep(sequence, pos)`: how much of it to
/// keep, or `None` to drop it. Insert positions stop at `max_len`.
fn positional_rules(
    (head, seq): (&[AttrId], &[AttrId]),
    fd: &Fd,
    max_len: usize,
    keep: &impl Fn(&[AttrId], usize) -> Option<usize>,
    buf: &mut Vec<AttrId>,
    emit: &mut impl FnMut(usize, &[AttrId]),
) {
    let h = head.len();
    let in_head = |a: &AttrId| head.binary_search(a).is_ok();
    // Emits `seq` with `seq[at]` replaced by `with`.
    let mut splice = |at: std::ops::Range<usize>, with: Option<AttrId>| {
        buf.clear();
        buf.extend_from_slice(head);
        buf.extend_from_slice(&seq[..at.start]);
        buf.extend(with);
        buf.extend_from_slice(&seq[at.end..]);
        if let Some(kept) = with.map_or(Some(buf.len() - h), |_| keep(&buf[h..], at.start)) {
            emit(h, &buf[..h + kept]);
        }
    };
    let mut functional = |lhs: &[AttrId], rhs: AttrId| {
        if in_head(&rhs) {
            return; // constant inside a group: adds no information
        }
        if let Some(p) = position(seq, rhs) {
            // Removal: every determinant is a head member (constant in
            // the group) or precedes the occurrence.
            let implied = |l: &AttrId| in_head(l) || position(seq, *l).is_some_and(|q| q < p);
            if lhs.iter().all(implied) {
                splice(p..p + 1, None);
            }
            return;
        }
        // Insertion: head determinants impose no position, the others
        // must precede — earliest at one past the last of them.
        let mut first = 0usize;
        for l in lhs.iter().filter(|l| !in_head(l)) {
            match position(seq, *l) {
                Some(p) => first = first.max(p + 1),
                None => return, // lhs not satisfied
            }
        }
        for pos in first..=seq.len().min(max_len.saturating_sub(1)) {
            splice(pos..pos, Some(rhs));
        }
    };
    match fd {
        Fd::Functional { lhs, rhs } => functional(lhs, *rhs),
        Fd::Constant(a) => functional(&[], *a),
        Fd::Equation(a, b) => {
            functional(std::slice::from_ref(a), *b);
            functional(std::slice::from_ref(b), *a);
            // Substitution, the equation's extra power over the FD
            // pair: replace an occurrence of `from` by `to` in place.
            // When `to` is a within-group constant or precedes `from`,
            // `from` can never decide a comparison (its equal partner
            // already tied) and is dropped instead — e.g. `(a,b)` under
            // `a = b` also satisfies `(a)`, and transitively `(b)` and
            // `(b,a)`; the symmetric turn covers `to` following `from`.
            for (from, to) in [(*a, *b), (*b, *a)] {
                let Some(pos) = position(seq, from) else {
                    continue;
                };
                match position(seq, to) {
                    _ if in_head(&to) => splice(pos..pos + 1, None),
                    Some(to_pos) if to_pos < pos => splice(pos..pos + 1, None),
                    None if pos < max_len => splice(pos..pos + 1, Some(to)),
                    _ => {}
                }
            }
        }
    }
}

impl<'a> DeriveCtx<'a> {
    /// Applies a single dependency to the ordering `o` once — the
    /// positional rules, bounded by the prefix filter and the length
    /// cutoff — handing each derived ordering (built in `buf`) to
    /// `emit`. Results never equal `o`.
    pub fn apply_fd(
        &self,
        o: &[AttrId],
        fd: &Fd,
        buf: &mut Vec<AttrId>,
        emit: &mut impl FnMut(&[AttrId]),
    ) {
        // The new attribute itself must survive the truncation,
        // otherwise the result carries no new information.
        let keep = |candidate: &[AttrId], pos: usize| {
            let allowed = self.filter.admitted_len(candidate, self.eq, self.max_len);
            (allowed > pos).then_some(allowed.min(candidate.len()))
        };
        let derived = &mut |_, d: &[AttrId]| emit(d);
        positional_rules((&[], o), fd, self.max_len, &keep, buf, derived);
    }

    /// The bounded transitive closure `Ω({o}, fds) \ prefix-closure(o)`:
    /// every ordering reachable from `o` (or from prefixes of derived
    /// orderings) by repeatedly applying any of `fds`.
    ///
    /// Prefixes of derived orderings participate as derivation *sources*
    /// (the paper's `Ω` is prefix-closed at every step) but only actually
    /// derived orderings are reported — in the NFSM, prefixes are separate
    /// nodes reached by ε-edges.
    pub fn closure(&self, o: &Ordering, fds: &[Fd]) -> Vec<Ordering> {
        self.closure_in(&mut Scratch::default(), o, fds)
    }

    /// [`closure`](Self::closure) against a reusable scratch.
    pub fn closure_in(&self, s: &mut Scratch, o: &Ordering, fds: &[Fd]) -> Vec<Ordering> {
        self.expand(s, o.attrs(), fds, None);
        let reported = s.reported();
        reported.map(|(_, d)| Ordering::new(d.to_vec())).collect()
    }

    /// The worklist behind [`closure`](Self::closure); the derived
    /// orderings are left in `s` ([`Scratch::reported`]). With an
    /// `index` over `fds` (items = positions in `fds`) each ordering
    /// only tries the dependencies that can fire on it — same result,
    /// same order, since the others derive nothing.
    pub(crate) fn expand(
        &self,
        s: &mut Scratch,
        o: &[AttrId],
        fds: &[Fd],
        index: Option<&Applicability>,
    ) {
        s.reset();
        // Prefixes of o are separate NFSM nodes with their own edges, but
        // mark them seen so we do not re-derive and report them.
        for len in std::iter::once(o.len()).chain(1..o.len()) {
            let (id, _) = s.seen.intern(0, &o[..len]);
            s.work.push(id);
        }
        while s.next(fds.len(), index).is_some() {
            let (seen, work, result) = (&mut s.seen, &mut s.work, &mut s.result);
            for &f in &s.selected {
                self.apply_fd(&s.cur, &fds[f as usize], &mut s.buf, &mut |d| {
                    let (id, new) = seen.intern(0, d);
                    if !new {
                        return;
                    }
                    // Report the derivation and recurse both into it
                    // and into its prefixes (prefix closure of Ω).
                    for len in 1..d.len() {
                        let (prefix, new) = seen.intern(0, &d[..len]);
                        if new {
                            work.push(prefix);
                            result.push(prefix);
                        }
                    }
                    work.push(id);
                    result.push(id);
                });
            }
        }
        // Everything reported must be genuinely new (not o, not a prefix
        // of o) — guaranteed because those were pre-seeded into `seen`,
        // except the empty ordering, a prefix of everything.
        let seen = &s.seen;
        s.result.retain(|&id| !o.starts_with(seen.resolve(id).1));
    }
}

/// A set-rule derivation from a grouping.
enum SetEdit {
    /// The attribute joins the set.
    Insert(AttrId),
    /// The attribute leaves the set.
    Remove(AttrId),
}

/// The VLDB'04 set rules on the sorted attribute set `g` — see
/// [`apply_fd_grouping`].
fn set_rules(g: &[AttrId], fd: &Fd, emit: &mut impl FnMut(SetEdit)) {
    let has = |a: &AttrId| g.binary_search(a).is_ok();
    let mut functional = |lhs: &[AttrId], rhs: AttrId| {
        if has(&rhs) {
            if lhs.iter().all(|l| *l != rhs && has(l)) {
                emit(SetEdit::Remove(rhs));
            }
        } else if lhs.iter().all(has) {
            emit(SetEdit::Insert(rhs));
        }
    };
    match fd {
        Fd::Functional { lhs, rhs } => functional(lhs, *rhs),
        Fd::Constant(a) => functional(&[], *a),
        Fd::Equation(a, b) => {
            functional(std::slice::from_ref(a), *b);
            functional(std::slice::from_ref(b), *a);
        }
    }
}

/// Applies one dependency to a *grouping* once, appending each derived
/// grouping to `out` (VLDB'04 set rules — strictly more permissive than
/// the positional ordering rules, since a set has no positions):
///
/// * `lhs → rhs`: if `lhs ⊆ g`, then `g ∪ {rhs}` is a grouping (rows
///   equal on `g` are equal on `rhs` too); conversely if `rhs ∈ g` and
///   `lhs ⊆ g \ {rhs}`, then `g \ {rhs}` is a grouping (the determined
///   attribute never splits a group);
/// * `a = b`: behaves like the FD pair `{a→b, b→a}` — set substitution
///   is insertion followed by removal;
/// * `∅ → a`: `a` may be added to or removed from any grouping.
///
/// Results never equal `g`.
pub fn apply_fd_grouping(g: &Grouping, fd: &Fd, out: &mut Vec<Grouping>) {
    set_rules(g.attrs(), fd, &mut |edit| {
        out.push(match edit {
            SetEdit::Insert(a) => g.with(a),
            SetEdit::Remove(a) => g.without(a),
        })
    });
}

/// The set rules on the head of the view `(head, tail)`, the tail
/// unchanged (an attribute joining the head leaves the tail — it is
/// constant inside a group). A removal that would empty the head is
/// dropped: the degenerate consequence (a constant head collapses the
/// stream into one group, so the tail becomes a plain ordering) is
/// sound, but it is a power the pair-free pipeline cannot mirror —
/// deriving it would make `contains` answers depend on whether pair
/// nodes happen to be materialized. All three oracle arms share this
/// rule set, so the conservative choice keeps them in exact agreement.
fn head_rules(
    (head, tail): (&[AttrId], &[AttrId]),
    fd: &Fd,
    buf: &mut Vec<AttrId>,
    emit: &mut impl FnMut(usize, &[AttrId]),
) {
    set_rules(head, fd, &mut |edit| {
        buf.clear();
        let joined = match edit {
            SetEdit::Insert(a) => {
                let at = head.partition_point(|&x| x < a);
                buf.extend_from_slice(&head[..at]);
                buf.push(a);
                buf.extend_from_slice(&head[at..]);
                Some(a)
            }
            SetEdit::Remove(a) => {
                buf.extend(head.iter().filter(|&&x| x != a));
                None
            }
        };
        let head_len = buf.len();
        buf.extend(tail.iter().filter(|&&t| Some(t) != joined));
        if head_len > 0 {
            emit(head_len, buf);
        }
    });
}

/// The classical attribute closure `seed⁺` under `fds`: every attribute
/// functionally determined by `seed`. Equations count in both
/// directions; constants are determined by anything (including the
/// empty set).
pub fn attr_closure(seed: &[AttrId], fds: &[Fd]) -> FxHashSet<AttrId> {
    let mut set: FxHashSet<AttrId> = seed.iter().copied().collect();
    loop {
        let mut grew = false;
        for fd in fds {
            let derived = match fd {
                Fd::Functional { lhs, rhs } => lhs
                    .iter()
                    .all(|l| set.contains(l))
                    .then_some(*rhs)
                    .filter(|r| !set.contains(r)),
                Fd::Constant(a) => (!set.contains(a)).then_some(*a),
                Fd::Equation(a, b) => {
                    if set.contains(a) && !set.contains(b) {
                        Some(*b)
                    } else if set.contains(b) && !set.contains(a) {
                        Some(*a)
                    } else {
                        None
                    }
                }
            };
            if let Some(d) = derived {
                set.insert(d);
                grew = true;
            }
        }
        if !grew {
            return set;
        }
    }
}

/// Whether `key` functionally determines every attribute of `targets`
/// under `fds` — the admission test behind group-join ("the join key
/// functionally determines the group") and eager aggregation keys.
pub fn determines(key: &[AttrId], targets: &[AttrId], fds: &[Fd]) -> bool {
    let closure = attr_closure(key, fds);
    targets.iter().all(|t| closure.contains(t))
}

/// Minimizes an aggregation-key grouping under `fds`: drops every
/// attribute functionally determined by the remaining ones (rows equal
/// on the rest are equal on it too, so it neither splits groups nor
/// changes the group count). Deterministic — attributes are examined in
/// ascending id order — so extraction and the plan generator derive the
/// *same* canonical key for the same subset and the grouping registered
/// as interesting is the grouping the partial aggregate produces.
pub fn minimize_grouping_key(key: &Grouping, fds: &[Fd]) -> Grouping {
    let mut attrs: Vec<AttrId> = key.attrs().to_vec();
    let mut i = 0;
    while i < attrs.len() {
        let rest: Vec<AttrId> = attrs
            .iter()
            .enumerate()
            .filter_map(|(j, &a)| (j != i).then_some(a))
            .collect();
        if determines(&rest, &[attrs[i]], fds) {
            attrs.remove(i);
        } else {
            i += 1;
        }
    }
    Grouping::new(attrs)
}

/// The positional rules on a pair's tail (or, for a grouping, on the
/// empty tail: an attribute the head determines starts one).
fn tail_rules(
    view: (&[AttrId], &[AttrId]),
    fd: &Fd,
    buf: &mut Vec<AttrId>,
    emit: &mut impl FnMut(usize, &[AttrId]),
) {
    let keep = |grown: &[AttrId], _| Some(grown.len());
    positional_rules(view, fd, usize::MAX, &keep, buf, emit);
}

/// Applies one dependency to a *head/tail pair* once, appending each
/// derived property to `out`. The two components react to a dependency
/// independently — that is the pair's derivation signature:
///
/// * the **head** follows the grouping *set* rules of
///   [`apply_fd_grouping`] (insert a determined attribute, remove a
///   determined member, toggle constants) — the head groups are
///   untouched by any of these, so the tail ordering inside them
///   survives verbatim (heads never empty, though);
/// * the **tail** follows the positional *ordering* rules of
///   [`DeriveCtx::apply_fd`], unbounded and with the head members as
///   always-satisfied determinants.
///
/// Results may degenerate: removing the last tail attribute yields the
/// plain head [`Grouping`]. Results never equal the input pair.
pub fn apply_fd_head_tail(ht: &HeadTail, fd: &Fd, out: &mut Vec<LogicalProperty>) {
    let view = (ht.head_attrs(), ht.tail_attrs());
    let emit = &mut |head_len, attrs: &[AttrId]| out.push(materialize(head_len, attrs));
    head_rules(view, fd, &mut Vec::new(), emit);
    tail_rules(view, fd, &mut Vec::new(), emit);
}

/// Applies one dependency to a *grouping* to derive head/tail pairs:
/// an attribute functionally determined by head members alone (or bound
/// to a constant) is constant inside every group, so the grouped stream
/// is trivially sorted by it within each group — `{a} + a→b ⊢ {a}(b)`.
/// This is the crossover that lets grouped-but-unsorted streams (hash
/// aggregation output) start accumulating within-group order.
pub fn apply_fd_grouping_tails(g: &Grouping, fd: &Fd, out: &mut Vec<LogicalProperty>) {
    let emit = &mut |head_len, attrs: &[AttrId]| out.push(materialize(head_len, attrs));
    tail_rules((g.attrs(), &[]), fd, &mut Vec::new(), emit);
}

/// The `(head_len, attrs)` view of a property.
pub(crate) fn view(p: &LogicalProperty) -> (usize, &[AttrId]) {
    let head_len = match p {
        LogicalProperty::Ordering(_) => 0,
        LogicalProperty::Grouping(g) => g.len(),
        LogicalProperty::HeadTail(h) => h.head_attrs().len(),
    };
    (head_len, p.attrs())
}

/// The property a `(head_len, attrs)` view denotes.
pub(crate) fn materialize(head_len: usize, attrs: &[AttrId]) -> LogicalProperty {
    let (head, tail) = attrs.split_at(head_len);
    if head.is_empty() {
        Ordering::new(tail.to_vec()).into()
    } else if tail.is_empty() {
        Grouping::new(head.to_vec()).into()
    } else {
        HeadTail::new(Grouping::new(head.to_vec()), Ordering::new(tail.to_vec())).into()
    }
}

/// The transitive closure of *mixed* property derivation from a pair or
/// grouping source: every property reachable by repeatedly applying any
/// of `fds` under the pair rules ([`apply_fd_head_tail`]) and the
/// grouping set rules ([`apply_fd_grouping`],
/// [`apply_fd_grouping_tails`]). Each admission filter bounds its own
/// kind; the source itself is not reported.
///
/// The rule set never *derives* an ordering from a pair or grouping —
/// head removal deliberately keeps heads non-empty (see
/// [`apply_fd_head_tail`]). An ordering *source* is accepted for
/// totality over the public `LogicalProperty` input and chases the
/// positional rules of `ctx`.
pub fn mixed_closure(
    src: &LogicalProperty,
    fds: &[Fd],
    ctx: &DeriveCtx,
    gfilter: &GroupingFilter,
    hfilter: &HeadTailFilter,
) -> Vec<LogicalProperty> {
    let s = &mut Scratch::default();
    match view(src) {
        (0, o) => ctx.expand(s, o, fds, None),
        (head_len, attrs) => expand_sets(s, head_len, attrs, fds, None, gfilter, Some(hfilter)),
    }
    let reported = s.reported();
    reported.map(|(hl, attrs)| materialize(hl, attrs)).collect()
}

/// The transitive closure of grouping derivation: every grouping
/// reachable from `g` by repeatedly applying any of `fds`, bounded by
/// the admission `filter` (a derived grouping no interesting grouping
/// can ever be completed from is dropped). `g` itself is not reported.
pub fn grouping_closure(g: &Grouping, fds: &[Fd], filter: &GroupingFilter) -> Vec<Grouping> {
    let s = &mut Scratch::default();
    expand_sets(s, g.len(), g.attrs(), fds, None, filter, None);
    let reported = s.reported();
    reported.map(|(_, d)| Grouping::new(d.to_vec())).collect()
}

/// The worklist behind [`grouping_closure`] and [`mixed_closure`]; the
/// derived properties are left in `s` ([`Scratch::reported`]). Without
/// `hfilter` the pure grouping pipeline runs: the set rules alone, from
/// a grouping. With it, groupings additionally spawn pairs (all of them
/// before the set-rule derivations, for every dependency) and pairs
/// derive across both components. `index` as for
/// [`DeriveCtx::expand`].
pub(crate) fn expand_sets(
    s: &mut Scratch,
    head_len: usize,
    attrs: &[AttrId],
    fds: &[Fd],
    index: Option<&Applicability>,
    gfilter: &GroupingFilter,
    hfilter: Option<&HeadTailFilter>,
) {
    s.reset();
    let (src, _) = s.seen.intern(head_len as u32, attrs);
    s.work.push(src);
    while let Some(head_len) = s.next(fds.len(), index) {
        let (seen, work, result, buf) = (&mut s.seen, &mut s.work, &mut s.result, &mut s.buf);
        let admit = &mut |head_len: usize, d: &[AttrId]| {
            let admitted = match hfilter {
                Some(hfilter) if head_len < d.len() => hfilter.0.admits_attrs(d),
                _ => gfilter.admits_attrs(d),
            };
            if admitted {
                let (id, new) = seen.intern(head_len as u32, d);
                if new {
                    work.push(id);
                    result.push(id);
                }
            }
        };
        let view = s.cur.split_at(head_len);
        let selected = s.selected.iter().map(|&f| &fds[f as usize]);
        let is_pair = !view.1.is_empty();
        if hfilter.is_some() && !is_pair {
            selected
                .clone()
                .for_each(|fd| tail_rules(view, fd, buf, admit));
        }
        for fd in selected {
            head_rules(view, fd, buf, admit);
            if is_pair {
                tail_rules(view, fd, buf, admit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use AttrId;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);
    const D: AttrId = AttrId(3);

    fn o(ids: &[AttrId]) -> Ordering {
        Ordering::new(ids.to_vec())
    }

    /// Context with all heuristics disabled (unbounded derivation).
    fn open_ctx<'a>(eq: &'a EqClasses, filter: &'a PrefixFilter) -> DeriveCtx<'a> {
        DeriveCtx {
            eq,
            filter,
            max_len: usize::MAX,
        }
    }

    fn unbounded(orderings: &Ordering, fds: &[Fd]) -> Vec<Ordering> {
        let eq = EqClasses::from_fds(fds.iter());
        let filter = PrefixFilter::new(std::iter::empty(), &[], &eq, false);
        let ctx = open_ctx(&eq, &filter);
        let mut r = ctx.closure(orderings, fds);
        r.sort();
        r
    }

    #[test]
    fn functional_insertion_positions() {
        // (a,b) + b→c: c goes after b: (a,b,c).
        let r = unbounded(&o(&[A, B]), &[Fd::functional(&[B], C)]);
        assert_eq!(r, vec![o(&[A, B, C])]);
        // (b,a) + b→c: c can go between or after: (b,c,a), (b,a,c)
        // plus the prefix (b,c) of (b,c,a).
        let r = unbounded(&o(&[B, A]), &[Fd::functional(&[B], C)]);
        assert_eq!(r, vec![o(&[B, A, C]), o(&[B, C]), o(&[B, C, A])]);
    }

    #[test]
    fn functional_requires_lhs_present() {
        let r = unbounded(&o(&[A]), &[Fd::functional(&[B], C)]);
        assert!(r.is_empty());
        // Multi-attribute lhs: both must precede.
        let r = unbounded(&o(&[A, B]), &[Fd::functional(&[A, B], C)]);
        assert_eq!(r, vec![o(&[A, B, C])]);
        let r = unbounded(&o(&[A]), &[Fd::functional(&[A, B], C)]);
        assert!(r.is_empty());
    }

    #[test]
    fn rhs_already_present_is_noop() {
        let r = unbounded(&o(&[B, C]), &[Fd::functional(&[B], C)]);
        assert!(r.is_empty());
    }

    #[test]
    fn constants_insert_anywhere() {
        // §2 intro example: (a,b) + x = const yields all interleavings.
        let x = D;
        let mut r = unbounded(&o(&[A, B]), &[Fd::constant(x)]);
        r.sort();
        let mut expect = vec![
            o(&[x, A, B]),
            o(&[A, x, B]),
            o(&[A, B, x]),
            o(&[x, A]), // prefix of (x,a,b)
            o(&[A, x]), // prefix of (a,x,b)
            o(&[x]),    // prefix of (x,a)
        ];
        expect.sort();
        assert_eq!(r, expect);
    }

    #[test]
    fn equation_substitutes_in_place() {
        // (a) + a=b: (a,b), (b,a), (b) — substitution reaches (b) directly.
        let r = unbounded(&o(&[A]), &[Fd::equation(A, B)]);
        assert_eq!(r, vec![o(&[A, B]), o(&[B]), o(&[B, A])]);
    }

    #[test]
    fn transitive_closure_chains_fds() {
        // (a) + {a→b, b→c}: reaches (a,b,c) in two steps, and then
        // (a,c) by dropping the functionally determined b (b is fixed
        // once a is tied, so it never decides a comparison).
        let r = unbounded(
            &o(&[A]),
            &[Fd::functional(&[A], B), Fd::functional(&[B], C)],
        );
        assert!(r.contains(&o(&[A, B])));
        assert!(r.contains(&o(&[A, B, C])));
        assert!(r.contains(&o(&[A, C])));
        // But (c,…) stays out: nothing ever orders by c first.
        assert!(!r.iter().any(|d| d.attrs().first() == Some(&C)));
    }

    #[test]
    fn removal_of_determined_attributes() {
        // (a,b,c) + a→b satisfies (a,c) — Simmen's reduction agrees.
        let r = unbounded(&o(&[A, B, C]), &[Fd::functional(&[A], B)]);
        assert!(r.contains(&o(&[A, C])));
        // Constants are removable anywhere: (a,x,b) + x=const ⊢ (a,b).
        let x = D;
        let r = unbounded(&o(&[A, x, B]), &[Fd::constant(x)]);
        assert!(r.contains(&o(&[A, B])));
        // Equation duplicates: (a,b) + a=b ⊢ (b), (b,a) — and (a) via
        // prefix closure, which `closure` leaves to the ε-edges.
        let r = unbounded(&o(&[A, B]), &[Fd::equation(A, B)]);
        assert!(r.contains(&o(&[B])));
        assert!(r.contains(&o(&[B, A])));
    }

    #[test]
    fn prefix_filter_blocks_useless_insertions() {
        // Interesting order (a,b); from (b), inserting c is useless.
        let fds = [Fd::functional(&[B], C)];
        let eq = EqClasses::new();
        let interesting = [o(&[A, B])];
        let filter = PrefixFilter::new(interesting.iter(), &fds, &eq, true);
        let ctx = DeriveCtx {
            eq: &eq,
            filter: &filter,
            max_len: 2,
        };
        assert!(ctx.closure(&o(&[B]), &fds).is_empty());
    }

    #[test]
    fn truncation_to_longest_matching_interesting_order() {
        // Interesting order (a,b), FD a→c, cap 2: inserting c at the
        // tail of (a,b) is pointless (it would only rebuild (a,b)) and
        // is dropped. The middle insertion survives as (a,c) — c is
        // strippable after a, so the admission DP keeps it as a
        // potential enabler (a deliberate, sound over-admission).
        let fds = [Fd::functional(&[A], C)];
        let eq = EqClasses::new();
        let interesting = [o(&[A, B])];
        let filter = PrefixFilter::new(interesting.iter(), &fds, &eq, true);
        let ctx = DeriveCtx {
            eq: &eq,
            filter: &filter,
            max_len: 2,
        };
        let r = ctx.closure(&o(&[A, B]), &fds);
        assert_eq!(r, vec![o(&[A, C])], "only the enabler candidate remains");
    }

    #[test]
    fn closure_never_reports_prefixes_of_source() {
        let r = unbounded(&o(&[A, B, C]), &[Fd::functional(&[A], D)]);
        for d in &r {
            assert!(!d.is_prefix_of(&o(&[A, B, C])), "{d:?}");
        }
    }

    fn g(ids: &[AttrId]) -> Grouping {
        Grouping::new(ids.to_vec())
    }

    fn unbounded_groups(src: &Grouping, fds: &[Fd]) -> Vec<Grouping> {
        let filter = GroupingFilter::permissive();
        let mut r = grouping_closure(src, fds, &filter);
        r.sort();
        r
    }

    #[test]
    fn grouping_functional_insert_and_remove() {
        // {a,b} + b→c: sets have no positions, so {a,b,c} is the only
        // derivation regardless of where c "goes".
        let r = unbounded_groups(&g(&[A, B]), &[Fd::functional(&[B], C)]);
        assert_eq!(r, vec![g(&[A, B, C])]);
        // {a,b,c} + b→c: c is determined by b ⊆ {a,b}, so it can be
        // dropped (and re-added — both members of the closure).
        let r = unbounded_groups(&g(&[A, B, C]), &[Fd::functional(&[B], C)]);
        assert_eq!(r, vec![g(&[A, B])]);
        // lhs must be inside the set.
        let r = unbounded_groups(&g(&[A]), &[Fd::functional(&[B], C)]);
        assert!(r.is_empty());
    }

    #[test]
    fn grouping_constants_and_equations() {
        // Constants toggle membership freely.
        let r = unbounded_groups(&g(&[A]), &[Fd::constant(C)]);
        assert_eq!(r, vec![g(&[A, C])]);
        let r = unbounded_groups(&g(&[A, C]), &[Fd::constant(C)]);
        assert_eq!(r, vec![g(&[A])]);
        // a = b: {a} reaches {a,b} and {b} (substitution via the set
        // rules: insert b, then a is determined by b and drops).
        let r = unbounded_groups(&g(&[A]), &[Fd::equation(A, B)]);
        assert_eq!(r, vec![g(&[A, B]), g(&[B])]);
    }

    #[test]
    fn grouping_closure_is_transitive() {
        // {a} + {a→b, b→c} reaches {a,b}, then {a,b,c}, then {a,c}:
        // b is determined by a (a→b with a ∈ {a,c}), so b may be
        // dropped from {a,b,c} even though c stays.
        let r = unbounded_groups(
            &g(&[A]),
            &[Fd::functional(&[A], B), Fd::functional(&[B], C)],
        );
        assert!(r.contains(&g(&[A, B])));
        assert!(r.contains(&g(&[A, B, C])));
        assert!(r.contains(&g(&[A, C])));
        assert!(!r.contains(&g(&[C])), "a is not removable");
    }

    #[test]
    fn attr_closure_and_determines() {
        let fds = [Fd::functional(&[A], B), Fd::equation(B, C), Fd::constant(D)];
        let closure = attr_closure(&[A], &fds);
        for x in [A, B, C, D] {
            assert!(closure.contains(&x), "{x:?}");
        }
        assert!(determines(&[A], &[B, C, D], &fds));
        assert!(determines(&[], &[D], &fds), "constants come for free");
        assert!(!determines(&[B], &[A], &fds), "FDs are directional");
        assert!(determines(&[C], &[B], &fds), "equations go both ways");
    }

    #[test]
    fn key_minimization_drops_determined_attributes() {
        // A key column determines its siblings: {a, b, c} with a→b and
        // b=c minimizes to {a}.
        let fds = [Fd::functional(&[A], B), Fd::equation(B, C)];
        assert_eq!(minimize_grouping_key(&g(&[A, B, C]), &fds), g(&[A]));
        // Nothing removable without dependencies.
        assert_eq!(minimize_grouping_key(&g(&[A, B]), &[]), g(&[A, B]));
        // Constants always drop.
        assert_eq!(
            minimize_grouping_key(&g(&[A, D]), &[Fd::constant(D)]),
            g(&[A])
        );
        // Mutual determination keeps exactly one representative (the
        // ascending scan drops the first removable attribute first).
        let fds = [Fd::equation(A, B)];
        assert_eq!(minimize_grouping_key(&g(&[A, B]), &fds), g(&[B]));
    }

    fn ht(head: &[AttrId], tail: &[AttrId]) -> HeadTail {
        HeadTail::new(Grouping::new(head.to_vec()), Ordering::new(tail.to_vec()))
    }

    fn pair_derive(src: &HeadTail, fds: &[Fd]) -> Vec<LogicalProperty> {
        let mut out = Vec::new();
        for fd in fds {
            apply_fd_head_tail(src, fd, &mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn head_tail_head_follows_set_rules() {
        // {a}(c) + a→b: b joins the head (rows equal on a are equal on
        // b, so the groups are unchanged) — and the head rule never
        // touches the tail.
        let r = pair_derive(&ht(&[A], &[C]), &[Fd::functional(&[A], B)]);
        assert!(r.contains(&ht(&[A, B], &[C]).into()));
        // {a,b}(c) + a→b: b is determined by the rest of the head, so it
        // may leave; the head never empties ({a}(c) + ∅→a keeps {a}).
        let r = pair_derive(&ht(&[A, B], &[C]), &[Fd::functional(&[A], B)]);
        assert!(r.contains(&ht(&[A], &[C]).into()));
        let r = pair_derive(&ht(&[A], &[C]), &[Fd::constant(A)]);
        assert!(r.iter().all(|p| p.is_head_tail()), "no degeneration: {r:?}");
    }

    #[test]
    fn head_tail_tail_rules_use_head_as_constants() {
        // {a}(b) + a→c: inside a group a is constant, so c is insertable
        // at *any* tail position — including the front, which the
        // positional ordering rules could never do.
        let r = pair_derive(&ht(&[A], &[B]), &[Fd::functional(&[A], C)]);
        assert!(r.contains(&ht(&[A], &[C, B]).into()));
        assert!(r.contains(&ht(&[A], &[B, C]).into()));
        // {a}(b,c) + b→c: c is determined by the preceding tail — it may
        // leave; {a}(c,b) + b→c: it may not (b comes later).
        let r = pair_derive(&ht(&[A], &[B, C]), &[Fd::functional(&[B], C)]);
        assert!(r.contains(&ht(&[A], &[B]).into()));
        let r = pair_derive(&ht(&[A], &[C, B]), &[Fd::functional(&[B], C)]);
        assert!(!r.contains(&ht(&[A], &[B]).into()));
        // {a}(b,c) + a→c: c is determined by the head alone — removable
        // anywhere, leaving {a}(b).
        let r = pair_derive(&ht(&[A], &[B, C]), &[Fd::functional(&[A], C)]);
        assert!(r.contains(&ht(&[A], &[B]).into()));
    }

    #[test]
    fn head_tail_tail_removal_can_degenerate_to_grouping() {
        // {a}(b) + a→b: the only tail attribute is head-determined;
        // removing it leaves the plain head grouping.
        let r = pair_derive(&ht(&[A], &[B]), &[Fd::functional(&[A], B)]);
        assert!(r.contains(&g(&[A]).into()));
    }

    #[test]
    fn head_tail_equation_substitutes_in_the_tail() {
        // {a}(b) + b=c: c substitutes in place; and since a=b puts b
        // equal to a head member, b becomes removable.
        let r = pair_derive(&ht(&[A], &[B]), &[Fd::equation(B, C)]);
        assert!(r.contains(&ht(&[A], &[C]).into()));
        let r = pair_derive(&ht(&[A], &[B]), &[Fd::equation(A, B)]);
        assert!(r.contains(&g(&[A]).into()), "b ≡ head member ⇒ removable");
    }

    #[test]
    fn grouping_tails_rule_spawns_pairs() {
        // {a} + a→b: b is constant inside every a-group, so the grouped
        // stream is trivially sorted by (b) within groups.
        let mut out = Vec::new();
        apply_fd_grouping_tails(&g(&[A]), &Fd::functional(&[A], B), &mut out);
        assert_eq!(out, vec![ht(&[A], &[B]).into()]);
        // Constants qualify with no determinant at all.
        out.clear();
        apply_fd_grouping_tails(&g(&[A]), &Fd::constant(C), &mut out);
        assert_eq!(out, vec![ht(&[A], &[C]).into()]);
        // Attributes already in the set do not (no information).
        out.clear();
        apply_fd_grouping_tails(&g(&[A]), &Fd::constant(A), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn mixed_closure_chains_kinds() {
        // From the grouping {a}: a→b spawns the pair {a}(b), and b→c
        // extends its tail to {a}(b,c) — transitive across kinds within
        // one symbol, exactly what the NFSM edge needs.
        let fds = [Fd::functional(&[A], B), Fd::functional(&[B], C)];
        let eq = EqClasses::new();
        let filter = PrefixFilter::new(std::iter::empty(), &[], &eq, false);
        let ctx = open_ctx(&eq, &filter);
        let gfilter = GroupingFilter::permissive();
        let hfilter = crate::filter::HeadTailFilter::permissive();
        let r = mixed_closure(&g(&[A]).into(), &fds, &ctx, &gfilter, &hfilter);
        assert!(r.contains(&ht(&[A], &[B]).into()));
        assert!(r.contains(&ht(&[A], &[B, C]).into()));
        assert!(r.contains(&g(&[A, B]).into()));
        assert!(r.contains(&g(&[A, B, C]).into()));
        assert!(!r.iter().any(|p| p.as_ordering().is_some()));
    }

    #[test]
    fn grouping_filter_bounds_the_closure() {
        // Interesting grouping {a,b}: from {a}, inserting d is useless —
        // nothing can ever produce the missing b from {a,d}.
        let fds = [Fd::functional(&[A], D)];
        let eq = EqClasses::new();
        let interesting = [g(&[A, B])];
        let filter = GroupingFilter::new(interesting.iter(), &fds, &eq, true);
        assert!(grouping_closure(&g(&[A]), &fds, &filter).is_empty());
        // With a→b in play, {a,d} stays admitted (b is still derivable
        // from it — the filter is deliberately permissive) and {a,b} is
        // reached.
        let fds = [Fd::functional(&[A], D), Fd::functional(&[A], B)];
        let filter = GroupingFilter::new(interesting.iter(), &fds, &eq, true);
        let mut r = grouping_closure(&g(&[A]), &fds, &filter);
        r.sort();
        assert_eq!(r, vec![g(&[A, B]), g(&[A, B, D]), g(&[A, D])]);
    }
}
