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
use crate::ordering::Ordering;
use crate::property::Grouping;
use crate::spec::InputSpec;
use ofw_common::{FxHashMap, FxHashSet};

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
    let all_fds: Vec<Fd> = spec
        .fd_sets()
        .iter()
        .flat_map(|s| s.fds().iter().cloned())
        .collect();
    let filter = PrefixFilter::new(
        spec.interesting_orderings(),
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

    // Interesting orders, prefix-closed and sorted for binary search.
    let mut interesting: Vec<Ordering> = Vec::new();
    for o in spec.interesting_orderings() {
        interesting.push(o.clone());
        interesting.extend(o.proper_prefixes());
    }
    interesting.sort();
    interesting.dedup();
    // Interesting pairs participate through their implied groupings
    // (head plus any absorbed tail prefix): a dependency fires on a pair
    // `(H, T)` exactly when it fires on one of these sets (both
    // components draw determinants from `H ∪ T`), so redundancy w.r.t.
    // the grouping universe is redundancy w.r.t. pairs too.
    let mut interesting_groupings: Vec<Grouping> = spec.interesting_groupings().cloned().collect();
    interesting_groupings.extend(
        spec.interesting_head_tails()
            .flat_map(crate::property::HeadTail::absorbed_heads),
    );
    interesting_groupings.sort();
    interesting_groupings.dedup();

    // Phase 1: quick relevance test. A dependency whose producible
    // attributes (representatives) occur neither in any interesting
    // order nor on the left-hand side of any functional dependency can
    // never matter: the attributes it introduces cannot match an
    // interesting-order position, cannot make a gap fillable, and cannot
    // serve as a determinant for removals or further insertions. (The
    // interesting-order part alone — the paper's `{b→d}` argument — is
    // not sufficient once removals exist: a constant can be inserted,
    // used as a determinant, and removed again.)
    let mut relevant_reps: FxHashSet<ofw_catalog::AttrId> = FxHashSet::default();
    for o in &interesting {
        for &a in o.attrs() {
            relevant_reps.insert(ctx.eq.find(a));
        }
    }
    for g in &interesting_groupings {
        for &a in g.attrs() {
            relevant_reps.insert(ctx.eq.find(a));
        }
    }
    for set in spec.fd_sets() {
        for fd in set.fds() {
            if let Fd::Functional { lhs, .. } = fd {
                for &l in lhs.iter() {
                    relevant_reps.insert(ctx.eq.find(l));
                }
            }
        }
    }
    let occurs = |fd: &Fd| {
        fd.producible_attrs()
            .iter()
            .any(|&p| relevant_reps.contains(&ctx.eq.find(p)))
    };
    let mut survivors: Vec<Fd> = spec
        .fd_sets()
        .iter()
        .flat_map(|s| s.fds().iter().cloned())
        .filter(occurs)
        .collect();
    survivors.sort();
    survivors.dedup();

    // Orderings derivable from `w` under `fds`, as a canonical set (each
    // dependency only tried on what it can fire on, given an index).
    let mut scratch = Scratch::default();
    let reach = |s: &mut Scratch, w: &Ordering, fds: &[Fd], index: Option<&Applicability>| {
        ctx.expand(s, w.attrs(), fds, index);
        let derived = s.reported().map(|(_, d)| Ordering::new(d.to_vec()));
        let mut derived: Vec<Ordering> = derived.collect();
        derived.sort();
        derived
    };
    // Groupings derivable from `w` under `fds`, unfiltered, likewise.
    let gfilter = GroupingFilter::permissive();
    let greach = |s: &mut Scratch, w: &Grouping, fds: &[Fd], index: Option<&Applicability>| {
        expand_sets(s, w.len(), w.attrs(), fds, index, &gfilter, None);
        let mut derived: Vec<Grouping> = s.reported().map(|(_, d)| d.to_vec().into()).collect();
        derived.sort();
        derived
    };

    // Reachable orderings U: interesting orders plus everything the full
    // surviving set derives from them (a superset of anything any
    // operator sequence can reach).
    let by_fd = Applicability::new((0..).zip(&survivors));
    let mut universe: Vec<Ordering> = interesting.clone();
    for o in &interesting {
        universe.extend(reach(&mut scratch, o, &survivors, Some(&by_fd)));
    }
    universe.sort();
    universe.dedup();

    // The grouping universe: interesting groupings, the prefix sets of
    // the ordering universe (the ordering→grouping crossover), and
    // everything the surviving set derives from them. Empty when the
    // spec declares no groupings — then the grouping comparison below is
    // a no-op and phase 2 behaves exactly like the ordering-only
    // framework.
    let mut guniverse: Vec<Grouping> = Vec::new();
    if !interesting_groupings.is_empty() {
        guniverse.extend(interesting_groupings.iter().cloned());
        for o in &universe {
            for len in 1..=o.len() {
                guniverse.push(Grouping::new(o.attrs()[..len].to_vec()));
            }
        }
        guniverse.sort();
        guniverse.dedup();
        for g in &guniverse.clone() {
            guniverse.extend(greach(&mut scratch, g, &survivors, Some(&by_fd)));
        }
        guniverse.sort();
        guniverse.dedup();
    }

    // A set derives nothing — with or without any one dependency — from
    // a universe member none of its dependencies can fire on, so the
    // leave-one-out below only re-derives the members a set can touch.
    let by_set = Applicability::over_sets(spec.fd_sets());
    let mut touched = vec![(Vec::new(), Vec::new()); spec.fd_sets().len()];
    let mut syms: Vec<u32> = Vec::new();
    for w in &universe {
        by_set.of(w.attrs(), &mut syms);
        syms.iter().for_each(|&s| touched[s as usize].0.push(w));
    }
    for w in &guniverse {
        by_set.of(w.attrs(), &mut syms);
        syms.iter().for_each(|&s| touched[s as usize].1.push(w));
    }

    // Phase 2: per-set sequential leave-one-out. Sequential because two
    // mutually redundant dependencies in one set must not both go. A
    // dependency must be redundant for *both* ordering and grouping
    // derivation to be dropped — the set rules are more permissive, so
    // an FD useless for orderings may still produce a grouping.
    let mut removed = 0usize;
    let sets = spec
        .fd_sets()
        .iter()
        .zip(&touched)
        .map(|(set, (orderings, groupings))| {
            // Start from the quick-test survivors of this set.
            let mut current: Vec<Fd> = set
                .fds()
                .iter()
                .filter(|fd| survivors.binary_search(fd).is_ok())
                .cloned()
                .collect();
            let baseline: Vec<Vec<Ordering>> = orderings
                .iter()
                .map(|w| reach(&mut scratch, w, &current, None))
                .collect();
            let gbaseline: Vec<Vec<Grouping>> = groupings
                .iter()
                .map(|w| greach(&mut scratch, w, &current, None))
                .collect();
            let mut i = 0;
            while i < current.len() {
                let mut without = current.clone();
                without.remove(i);
                let redundant = orderings
                    .iter()
                    .zip(&baseline)
                    .all(|(w, base)| reach(&mut scratch, w, &without, None) == *base)
                    && groupings
                        .iter()
                        .zip(&gbaseline)
                        .all(|(w, base)| greach(&mut scratch, w, &without, None) == *base);
                if redundant {
                    current.remove(i);
                } else {
                    i += 1;
                }
            }
            removed += set.len() - current.len();
            FdSet::new(current)
        })
        .collect();
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
    let mut by_sig: FxHashMap<Vec<NodeId>, NodeId> = FxHashMap::default();
    let mut replace: FxHashMap<NodeId, NodeId> = FxHashMap::default();
    for node in 1..nfsm.num_nodes() as NodeId {
        if nfsm.info[node as usize].interesting || nfsm.runs(node).count() < nfsm.num_symbols {
            continue;
        }
        // Lists never hold `NodeId::MAX`, so it separates them.
        let mut sig = nfsm.eps[node as usize].clone();
        for (_, targets) in nfsm.runs(node) {
            sig.push(NodeId::MAX);
            let at = targets.partition_point(|&t| t < node);
            sig.extend_from_slice(&targets[..at]);
            sig.push(node);
            sig.extend(targets[at..].iter().filter(|&&t| t != node));
        }
        match by_sig.entry(sig) {
            std::collections::hash_map::Entry::Occupied(e) => {
                replace.insert(node, *e.get());
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(node);
            }
        }
    }
    if replace.is_empty() {
        return false;
    }
    let redirect = |t: NodeId, out: &mut Vec<NodeId>| out.push(*replace.get(&t).unwrap_or(&t));
    let all = (0..nfsm.num_nodes() as NodeId).map(|n| (n, true));
    (nfsm.eps, nfsm.edges) = nfsm.mapped(all, redirect);
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
        let eps = &nfsm.eps[node as usize];
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
    let resolve = |t: NodeId, out: &mut Vec<NodeId>| {
        let Some(eps) = removed.get(&t) else {
            return out.push(t);
        };
        let mut work = eps.to_vec();
        while let Some(p) = work.pop() {
            match removed.get(&p) {
                Some(more) => work.extend_from_slice(more),
                None => out.push(p),
            }
        }
    };
    let all = (0..nfsm.num_nodes() as NodeId).map(|n| (n, !removed.contains_key(&n)));
    let tables = nfsm.mapped(all, resolve);
    (nfsm.eps, nfsm.edges) = tables;
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
        for &t in nfsm.eps[node as usize].iter().chain(fd_targets) {
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
    use ofw_catalog::AttrId;

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
        assert!(nfsm.node_of(&o(&[B, C])).is_some(), "pre-pruning");
        let nfsm = prune_nfsm(nfsm, &config);
        assert!(nfsm.node_of(&o(&[B, C])).is_none(), "Fig. 6: (b,c) pruned");
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
        assert!(nfsm.node_of(&o(&[A])).is_some());
    }
}
