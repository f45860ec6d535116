//! NFSM size reduction (paper §5.7, steps 2(b) and 2(d) of Fig. 3).
//!
//! Four techniques, all individually toggleable so the paper's
//! with/without-pruning comparison (§6.2) and our ablation benches can
//! isolate each one:
//!
//! 1. **FD pruning** (`prune_fds`): dependencies that can never lead to a
//!    *new* interesting order are dropped before node expansion — this is
//!    the paper's `F_P` formula. It removed `{b→d}` in the running
//!    example because `d` occurs in no interesting order.
//! 2. **Artificial-node merging** (`merge_artificial`): artificial nodes
//!    with identical behaviour (same ε and FD edges) collapse into one.
//! 3. **ε-replacement** (`eps_replace`): an artificial node whose non-ε
//!    behaviour is fully subsumed by its prefixes is deleted and incoming
//!    edges are relinked to those prefixes — this removed `(b,c)` in the
//!    running example (Fig. 5 → Fig. 6).
//! 4. **Closure bounding** (`prefix_filter`, `length_cutoff`): applied
//!    during derivation, see [`crate::filter`] and [`crate::derive`].

use crate::derive::{expand_sets, Applicability, DeriveCtx, Scratch};
use crate::eqclass::EqClasses;
use crate::fd::{Fd, FdSet};
use crate::filter::{GroupingFilter, PrefixFilter};
use crate::nfsm::{Nfsm, NodeId};
use crate::spec::InputSpec;
use ofw_catalog::AttrId;
use ofw_common::{FxHashMap, FxHashSet, SliceInterner};

/// Switches for the §5.7 reduction techniques plus state-space caps.
#[derive(Clone, Debug)]
pub struct PruneConfig {
    /// Step 2(b): drop FDs that can never produce a new interesting order.
    pub prune_fds: bool,
    /// Step 2(d): merge behaviourally identical artificial nodes.
    pub merge_artificial: bool,
    /// Step 2(d): delete artificial nodes subsumed by their prefixes.
    pub eps_replace: bool,
    /// Bound derivations with the interesting-order prefix trie.
    pub prefix_filter: bool,
    /// Cut derived orderings at the longest interesting order's length.
    pub length_cutoff: bool,
    /// Hard cap on NFSM nodes (guards the un-pruned configuration).
    pub max_nodes: usize,
    /// Hard cap on DFSM states.
    pub max_dfsm_states: usize,
}

impl Default for PruneConfig {
    /// Everything on — the configuration the paper recommends.
    fn default() -> Self {
        PruneConfig {
            prune_fds: true,
            merge_artificial: true,
            eps_replace: true,
            prefix_filter: true,
            length_cutoff: true,
            max_nodes: 1 << 20,
            max_dfsm_states: 1 << 20,
        }
    }
}

impl PruneConfig {
    /// Everything off — the paper's "w/o pruning" measurement column.
    pub fn none() -> Self {
        PruneConfig {
            prune_fds: false,
            merge_artificial: false,
            eps_replace: false,
            prefix_filter: false,
            length_cutoff: false,
            ..PruneConfig::default()
        }
    }
}

/// Step 2(b): returns the FD sets with prunable dependencies removed,
/// plus the number of dependencies dropped.
///
/// The paper's `F_P` prunes dependencies "that can never lead to a new
/// interesting order". Read literally, the formula only applies the
/// candidate dependency *first* (directly to an interesting order), which
/// would wrongly prune a dependency needed later in a chain — e.g. with
/// `O_I = {(a),(a,b)}` and `F = {a→d, d=b}`, the equation `d=b` never
/// helps when applied to `(a)` or `(a,b)` directly, yet the chain
/// `(a) ⊢_{a→d} (a,d) ⊢_{d=b} (a,b)` needs it. We therefore implement the
/// intent with two sound tests:
///
/// 1. quick test — if none of the attributes a dependency can introduce
///    occurs in any interesting order (modulo equivalence classes), it is
///    prunable (this is exactly the paper's `{b→d}` argument: inserting a
///    never-interesting attribute contaminates every prefix it precedes,
///    so it can never complete an interesting order, under *any* operator
///    sequence);
/// 2. within-set leave-one-out — a dependency is redundant if its own
///    FD set derives exactly the same orderings without it (e.g. `a→b`
///    next to the equation `a=b`). Cross-set redundancy must NOT be
///    exploited: the plan generator applies FD sets one operator at a
///    time, and a sequence may include only one of the two sets.
pub fn prune_fds(spec: &InputSpec, eq: &EqClasses, config: &PruneConfig) -> (Vec<FdSet>, usize) {
    let mut all_fds: Vec<Fd> = spec
        .fd_sets()
        .iter()
        .flat_map(|s| s.fds().iter().cloned())
        .collect();
    let orderings = || spec.views().filter(|&(head_len, _)| head_len == 0);
    let filter = PrefixFilter::new(
        orderings().map(|(_, attrs)| attrs),
        &all_fds,
        eq,
        config.prefix_filter,
    );
    // Same cutoff policy as NFSM construction: the admission filter
    // subsumes the blanket length cutoff.
    let max_len = if !config.prefix_filter && config.length_cutoff {
        spec.max_interesting_len()
    } else {
        usize::MAX
    };
    let ctx = DeriveCtx {
        eq,
        filter: &filter,
        max_len,
    };

    // The universe the leave-one-out re-derives, interned as views in
    // one arena: tag 0 an ordering, tag 1 a grouping (its sorted set).
    // First the interesting orders, prefix-closed, then the interesting
    // groupings. Interesting pairs participate through their implied
    // groupings (head plus any absorbed tail prefix): a dependency fires
    // on a pair `(H, T)` exactly when it fires on one of these sets (both
    // components draw determinants from `H ∪ T`), so redundancy w.r.t.
    // the grouping universe is redundancy w.r.t. pairs too.
    let mut universe: SliceInterner<AttrId> = SliceInterner::default();
    for (_, o) in orderings() {
        for len in 1..=o.len() {
            universe.intern(0, &o[..len]);
        }
    }
    let interesting = universe.len() as u32;
    // A grouping's set is its view; a pair's sets are its head with
    // each tail prefix absorbed.
    let mut set: Vec<AttrId> = Vec::new();
    for (head_len, attrs) in spec.views().filter(|&(head_len, _)| head_len > 0) {
        for end in head_len..=attrs.len() {
            set.clear();
            set.extend_from_slice(&attrs[..end]);
            set.sort_unstable();
            universe.intern(1, &set);
        }
    }
    let has_groupings = universe.len() as u32 > interesting;

    // Phase 1: quick relevance test. A dependency whose producible
    // attributes (representatives) occur neither in any interesting
    // order nor on the left-hand side of any functional dependency can
    // never matter: the attributes it introduces cannot match an
    // interesting-order position, cannot make a gap fillable, and cannot
    // serve as a determinant for removals or further insertions. (The
    // interesting-order part alone — the paper's `{b→d}` argument — is
    // not sufficient once removals exist: a constant can be inserted,
    // used as a determinant, and removed again.)
    let lhs_attrs = all_fds.iter().flat_map(|fd| match fd {
        Fd::Functional { lhs, .. } => &lhs[..],
        _ => &[],
    });
    let interesting_attrs = (0..universe.len() as u32).flat_map(|id| universe.resolve(id).1);
    let relevant_reps: FxHashSet<AttrId> = interesting_attrs
        .chain(lhs_attrs)
        .map(|&a| ctx.eq.find(a))
        .collect();
    all_fds.retain(|fd| {
        fd.producible_attrs()
            .any(|p| relevant_reps.contains(&ctx.eq.find(p)))
    });
    all_fds.sort();
    all_fds.dedup();
    let survivors = all_fds;

    // Derives from view `w` into the scratch: an ordering (tag 0) under
    // the positional rules, a grouping (tag 1) under the set rules with
    // no admission filter; each dependency only tried on what it can
    // fire on, given an index.
    let mut scratch = Scratch::default();
    let gfilter = GroupingFilter::permissive();
    let derive = |s: &mut Scratch, (tag, w): (u32, &[AttrId]), fds: &[Fd], index| {
        if tag == 1 {
            expand_sets(s, w.len(), w, fds, index, &gfilter, None);
        } else {
            ctx.expand(s, w, fds, index);
        }
    };

    // Reachable orderings: interesting orders plus everything the full
    // surviving set derives from them (a superset of anything any
    // operator sequence can reach).
    let by_fd = Applicability::new((0..).zip(&survivors));
    for id in 0..interesting {
        derive(&mut scratch, universe.resolve(id), &survivors, Some(&by_fd));
        scratch.reported().for_each(|(_, d)| {
            universe.intern(0, d);
        });
    }

    // The grouping universe: interesting groupings, the prefix sets of
    // the reachable orderings (the ordering→grouping crossover), and
    // everything the surviving set derives from them. Empty when the
    // spec declares no groupings — then the grouping comparison below is
    // a no-op and phase 2 behaves exactly like the ordering-only
    // framework.
    if has_groupings {
        let mut ordering: Vec<AttrId> = Vec::new();
        for id in 0..universe.len() as u32 {
            let (tag, o) = universe.resolve(id);
            if tag != 0 {
                continue;
            }
            ordering.clear();
            ordering.extend_from_slice(o);
            set.clear();
            for &a in &ordering {
                set.insert(set.partition_point(|&b| b < a), a);
                universe.intern(1, &set);
            }
        }
        for id in 0..universe.len() as u32 {
            if universe.resolve(id).0 == 1 {
                derive(&mut scratch, universe.resolve(id), &survivors, Some(&by_fd));
                scratch.reported().for_each(|(_, d)| {
                    universe.intern(1, d);
                });
            }
        }
    }

    // A set derives nothing — with or without any one dependency — from
    // a universe member none of its dependencies can fire on, so the
    // leave-one-out below only re-derives the members a set can touch:
    // `(set, member)` pairs, grouped by set, each set's members in
    // universe order (orderings, then groupings, each ascending).
    let mut members: Vec<u32> = (0..universe.len() as u32).collect();
    members.sort_unstable_by(|&a, &b| universe.resolve(a).cmp(&universe.resolve(b)));
    let by_set = Applicability::over_sets(spec.fd_sets());
    let mut touched: Vec<(u32, u32)> = Vec::new();
    let mut syms: Vec<u32> = Vec::new();
    for &w in &members {
        by_set.of(universe.resolve(w).1, &mut syms);
        touched.extend(syms.iter().map(|&sym| (sym, w)));
    }
    touched.sort_by_key(|&(sym, _)| sym);

    // Phase 2: per-set sequential leave-one-out. Sequential because two
    // mutually redundant dependencies in one set must not both go. A
    // dependency must be redundant for *both* ordering and grouping
    // derivation to be dropped — the set rules are more permissive, so
    // an FD useless for orderings may still produce a grouping. Each
    // tried dependency is taken out of the set in place and put back at
    // its index, so the sets are never copied.
    //
    // A member's baseline (what the set's quick-test survivors derive
    // from it) is interned under its slot when a removal first needs it,
    // and stays valid: a dependency only goes when it changes no
    // member's derivations. A removal stops at the first member it
    // changes; derivations are duplicate-free, so the same count, every
    // one in the baseline, is equality.
    let mut base: SliceInterner<AttrId> = SliceInterner::default();
    let mut base_len: Vec<Option<usize>> = Vec::new();
    let mut removed = 0usize;
    let mut rest = &touched[..];
    let mut sets: Vec<FdSet> = Vec::with_capacity(spec.fd_sets().len());
    for (sym, set) in (0..).zip(spec.fd_sets()) {
        let (mine, later) = rest.split_at(rest.partition_point(|&(s, _)| s == sym));
        rest = later;
        // Start from the quick-test survivors of this set.
        let mut current: Vec<Fd> = set
            .fds()
            .iter()
            .filter(|fd| survivors.binary_search(fd).is_ok())
            .cloned()
            .collect();
        base.reset();
        base_len.clear();
        base_len.resize(mine.len(), None);
        let mut i = 0;
        while i < current.len() {
            let redundant = (0..).zip(mine).all(|(slot, &(_, w))| {
                let w = universe.resolve(w);
                let len = *base_len[slot as usize].get_or_insert_with(|| {
                    derive(&mut scratch, w, &current, None);
                    scratch.reported().for_each(|(_, d)| {
                        base.intern(slot, d);
                    });
                    scratch.reported().count()
                });
                let fd = current.remove(i);
                derive(&mut scratch, w, &current, None);
                current.insert(i, fd);
                scratch.reported().count() == len
                    && scratch.reported().all(|(_, d)| base.get(slot, d).is_some())
            });
            if redundant {
                current.remove(i);
            } else {
                i += 1;
            }
        }
        removed += set.len() - current.len();
        sets.push(FdSet::new(current));
    }
    (sets, removed)
}

/// Steps 2(d): artificial-node merging and ε-replacement, iterated to a
/// fixpoint, followed by compaction. Returns the reduced NFSM.
pub fn prune_nfsm(mut nfsm: Nfsm, config: &PruneConfig) -> Nfsm {
    loop {
        let mut changed = false;
        if config.merge_artificial {
            changed |= merge_artificial_once(&mut nfsm);
        }
        if config.eps_replace {
            changed |= eps_replace_once(&mut nfsm);
        }
        if !changed {
            break;
        }
        nfsm = compact_unreferenced(nfsm);
    }
    nfsm
}

/// Merges artificial nodes with identical outgoing behaviour. Returns
/// whether anything was merged. Merged-away nodes have their edges
/// redirected; compaction removes them afterwards.
fn merge_artificial_once(nfsm: &mut Nfsm) -> bool {
    // Signature: (ε-targets, per-symbol FD targets). The node itself is
    // folded into each target list — determinization keeps the source
    // alive on every transition (self-retention), so two nodes that
    // merely cross-reference each other (e.g. (a,b)/(a,c) under
    // {a→b, a→c}) are behaviourally identical. Under a symbol a node
    // has no edges for, its list is the node alone, which no other node
    // can equal: only nodes with a run under every symbol can merge.
    // Signatures are interned in one arena; `first[id]` is the node
    // that showed signature `id` first.
    let mut sigs: SliceInterner<NodeId> = SliceInterner::default();
    let mut first: Vec<NodeId> = Vec::new();
    let mut replace: Vec<NodeId> = (0..nfsm.num_nodes() as NodeId).collect();
    let mut merged = false;
    let mut sig: Vec<NodeId> = Vec::new();
    for node in 1..nfsm.num_nodes() as NodeId {
        if nfsm.info[node as usize].interesting || nfsm.runs(node).count() < nfsm.num_symbols {
            continue;
        }
        // Lists never hold `NodeId::MAX`, so it separates them.
        sig.clear();
        sig.extend_from_slice(nfsm.eps(node));
        for (_, targets) in nfsm.runs(node) {
            sig.push(NodeId::MAX);
            let at = targets.partition_point(|&t| t < node);
            sig.extend_from_slice(&targets[..at]);
            sig.push(node);
            sig.extend(targets[at..].iter().filter(|&&t| t != node));
        }
        match sigs.intern(0, &sig) {
            (_, true) => first.push(node),
            (id, false) => {
                replace[node as usize] = first[id as usize];
                merged = true;
            }
        }
    }
    if !merged {
        return false;
    }
    let redirect = |t: NodeId, out: &mut Vec<NodeId>| out.push(replace[t as usize]);
    let all = (0..nfsm.num_nodes() as NodeId).map(|n| (n, true));
    nfsm.edges = nfsm.mapped(all, redirect);
    true
}

/// Deletes artificial nodes whose non-ε behaviour is subsumed by their
/// prefixes; incoming edges are relinked to the prefixes.
fn eps_replace_once(nfsm: &mut Nfsm) -> bool {
    let mut removed: FxHashMap<NodeId, &[NodeId]> = FxHashMap::default();
    for node in 1..nfsm.num_nodes() as NodeId {
        if nfsm.info[node as usize].interesting {
            continue;
        }
        let eps = nfsm.eps(node);
        // Everything this node derives must also be derivable from
        // one of its prefixes (which travel with it in every DFSM
        // state, since ε-closure pulls them in).
        let subsumed = nfsm.runs(node).all(|(sym, mine)| {
            let by_prefix = |t: &NodeId| {
                let derives = |&p: &NodeId| nfsm.targets(p, sym).binary_search(t).is_ok();
                *t == node || eps.iter().any(derives)
            };
            mine.iter().all(by_prefix)
        });
        if subsumed {
            removed.insert(node, eps);
        }
    }
    if removed.is_empty() {
        return false;
    }
    // Avoid cascading removals referencing each other in one pass:
    // resolve replacement lists transitively. Removed nodes are detached
    // entirely.
    let mut work: Vec<NodeId> = Vec::new();
    let resolve = |t: NodeId, out: &mut Vec<NodeId>| {
        let Some(eps) = removed.get(&t) else {
            return out.push(t);
        };
        work.extend_from_slice(eps);
        while let Some(p) = work.pop() {
            match removed.get(&p) {
                Some(more) => work.extend_from_slice(more),
                None => out.push(p),
            }
        }
    };
    let all = (0..nfsm.num_nodes() as NodeId).map(|n| (n, !removed.contains_key(&n)));
    let edges = nfsm.mapped(all, resolve);
    nfsm.edges = edges;
    true
}

/// Drops nodes that are neither interesting nor referenced by any other
/// node (merge/replace leave such orphans behind).
fn compact_unreferenced(nfsm: Nfsm) -> Nfsm {
    let mut keep: Vec<bool> = nfsm
        .info
        .iter()
        .map(|i| i.interesting || i.produced)
        .collect();
    keep[0] = true;
    // Anything referenced from a kept node must stay, transitively:
    // reachability chains through artificial nodes.
    let mut work: Vec<NodeId> = (0..nfsm.num_nodes() as NodeId)
        .filter(|&n| keep[n as usize])
        .collect();
    while let Some(node) = work.pop() {
        let fd_targets = nfsm.runs(node).flat_map(|(_, targets)| targets);
        for &t in nfsm.eps(node).iter().chain(fd_targets) {
            if !keep[t as usize] {
                keep[t as usize] = true;
                work.push(t);
            }
        }
    }
    nfsm.compact(&keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::Ordering;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);
    const D: AttrId = AttrId(3);

    fn o(ids: &[AttrId]) -> Ordering {
        Ordering::new(ids.to_vec())
    }

    fn running_example() -> (InputSpec, EqClasses) {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[B]));
        spec.add_produced(o(&[A, B]));
        spec.add_tested(o(&[A, B, C]));
        spec.add_fd_set(vec![Fd::functional(&[B], C)]);
        spec.add_fd_set(vec![Fd::functional(&[B], D)]);
        let eq = EqClasses::new();
        (spec, eq)
    }

    #[test]
    fn fd_pruning_removes_b_to_d() {
        let (spec, eq) = running_example();
        let (sets, removed) = prune_fds(&spec, &eq, &PruneConfig::default());
        assert_eq!(removed, 1);
        assert_eq!(sets[0].len(), 1, "{{b→c}} must survive");
        assert!(sets[1].is_empty(), "{{b→d}} must be pruned");
    }

    #[test]
    fn fd_pruning_keeps_chains_conservatively() {
        // a→d then d→b: d is a determinant of another dependency, so the
        // quick relevance test must keep both (removals could in
        // principle round-trip through d). The leave-one-out phase also
        // keeps them — the orderings they derive, like (a,d,b), pass the
        // admission filter because d is strippable. This is deliberately
        // conservative: pruning here would need a proof that every
        // derivation is a no-op round-trip, and keeping a dependency is
        // always sound (the NFSM just carries a few extra nodes).
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        spec.add_tested(o(&[A, B]));
        spec.add_fd_set(vec![Fd::functional(&[A], D)]);
        spec.add_fd_set(vec![Fd::functional(&[D], B)]);
        let eq = EqClasses::new();
        let (sets, removed) = prune_fds(&spec, &eq, &PruneConfig::default());
        let total: usize = sets.iter().map(FdSet::len).sum();
        assert_eq!(total, 2, "removed={removed}");
        // A dependency producing an attribute nobody consumes IS pruned.
        let mut spec2 = InputSpec::new();
        spec2.add_produced(o(&[A]));
        spec2.add_tested(o(&[A, B]));
        spec2.add_fd_set(vec![Fd::functional(&[A], D)]);
        let (sets2, removed2) = prune_fds(&spec2, &eq, &PruneConfig::default());
        assert_eq!(sets2.iter().map(FdSet::len).sum::<usize>(), 0);
        assert_eq!(removed2, 1);
    }

    #[test]
    fn fd_pruning_respects_equation_reachability() {
        // d = b makes a→d useful: (a) → (a,d) → substitute → (a,b).
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        spec.add_tested(o(&[A, B]));
        spec.add_fd_set(vec![Fd::functional(&[A], D)]);
        spec.add_fd_set(vec![Fd::equation(D, B)]);
        let eq = EqClasses::from_fds(spec.fd_sets().iter().flat_map(|s| s.fds().iter()));
        let (sets, _) = prune_fds(&spec, &eq, &PruneConfig::default());
        assert_eq!(sets[0].len(), 1, "a→d must be kept");
        assert_eq!(sets[1].len(), 1, "d=b must be kept");
    }

    /// Phase 2 on one multi-dependency set, through the public entry
    /// point with the framework's equivalence classes.
    fn prune_one_set(tested: &[AttrId], set: Vec<Fd>) -> FdSet {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&tested[..1]));
        spec.add_tested(o(tested));
        spec.add_fd_set(set);
        let eq = EqClasses::from_fds(spec.fd_sets().iter().flat_map(|s| s.fds().iter()));
        prune_fds(&spec, &eq, &PruneConfig::default()).0.remove(0)
    }

    #[test]
    fn leave_one_out_drops_a_dependency_its_equation_implies() {
        let set = prune_one_set(&[A, B], vec![Fd::functional(&[A], B), Fd::equation(A, B)]);
        assert_eq!(set.fds(), &[Fd::equation(A, B)], "a→b goes, a=b stays");
    }

    #[test]
    fn leave_one_out_drops_one_of_mutually_redundant_dependencies() {
        // Any two of the three equations imply the third, so each is
        // redundant given the others — but removal is sequential: once
        // one is gone, the remaining two are both needed. The first one
        // tried (sets are sorted) is the one that goes.
        let (ab, bc, ac) = (Fd::equation(A, B), Fd::equation(B, C), Fd::equation(A, C));
        let set = prune_one_set(&[A, B, C], vec![ab, bc.clone(), ac.clone()]);
        assert_eq!(set.fds(), &[ac, bc]);
    }

    #[test]
    fn eps_replacement_removes_bc_node() {
        // Build the running example without the prefix filter so that
        // (b,c) exists (Fig. 5), then check ε-replacement removes it
        // (Fig. 6) after FD pruning removed {b→d}.
        let (spec, eq) = running_example();
        let mut config = PruneConfig {
            prefix_filter: false,
            ..PruneConfig::default()
        };
        config.merge_artificial = false;
        let (sets, _) = prune_fds(&spec, &eq, &config);
        let nfsm = Nfsm::build(&spec, &sets, &eq, &config).unwrap();
        assert!(nfsm.node(&o(&[B, C]).into()).is_some(), "pre-pruning");
        let nfsm = prune_nfsm(nfsm, &config);
        assert!(
            nfsm.node(&o(&[B, C]).into()).is_none(),
            "Fig. 6: (b,c) pruned"
        );
        // Fig. 6 nodes: (a), (b), (a,b), (a,b,c) + ().
        assert_eq!(nfsm.num_nodes(), 5);
    }

    #[test]
    fn merge_collapses_identical_artificial_nodes() {
        // One operator with {a→b, a→c} and heuristics off creates the
        // artificial nodes (a,b)/(a,c) (identical behaviour: ε to (a),
        // same derivations) and (a,b,c)/(a,c,b) (identical after the
        // first merge) — the fixpoint merge must collapse both pairs.
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[A]));
        spec.add_fd_set(vec![Fd::functional(&[A], B), Fd::functional(&[A], C)]);
        let eq = EqClasses::new();
        let config = PruneConfig {
            prefix_filter: false,
            length_cutoff: false,
            prune_fds: false,
            eps_replace: false,
            ..PruneConfig::default()
        };
        let nfsm = Nfsm::build(&spec, spec.fd_sets(), &eq, &config).unwrap();
        // (), (a), (a,b), (a,c), (a,b,c), (a,c,b).
        assert_eq!(nfsm.num_nodes(), 6);
        let nfsm = prune_nfsm(nfsm, &config);
        assert_eq!(
            nfsm.num_nodes(),
            4,
            "both artificial pairs must merge (fixpoint iteration)"
        );
        // The produced interesting node (a) must survive.
        assert!(nfsm.node(&o(&[A]).into()).is_some());
    }
}
