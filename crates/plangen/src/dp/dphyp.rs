//! The exhaustive schedule: connected-subgraph / complement-pair
//! enumeration (DPccp/DPhyp-style) over [`JoinGraph`] neighborhoods,
//! replayed in the size-layered order the plan table is defined by.
//!
//! Instead of pairing all smaller subsets and rejecting the
//! overlapping/disconnected combinations (the classic size-layered
//! candidate loop, Θ(3ⁿ) rejected candidates on cliques), enumeration
//! *grows* connected subgraphs along the join graph: for every start
//! relation (descending index), connected subgraphs (csg) are expanded
//! through their neighborhood, and for each csg the connected
//! complement subgraphs (cmp) are expanded the same way from the csg's
//! higher-indexed neighbors. Min-index forbidden sets make every
//! unordered csg-cmp pair appear exactly once, so enumeration time is
//! proportional to the number of *valid* pairs — the quantity the
//! budget counts.
//!
//! The emitted pair set is every ordered partition of every connected
//! subset, both directions. A canonicalization pass puts it into the
//! order the size-layered loop would have discovered it in — batches by
//! subset size; within a layer, unions ranked by their minimal
//! ordered-pair key `(left size, left rank, right rank)` and each
//! union's pairs sorted by that key; ranks assigned per layer
//! recursively. **That order is a contract**: arena layout, tie-breaks,
//! every golden counter row and the benchmark's `inputs.lock` digests
//! depend on it. The reference loop it is defined against lives in this
//! file's test module.

use super::{Schedule, UnionWork, CSG_VISIT_BACKSTOP};
use ofw_common::{BitSet, FxHashMap};
use ofw_query::JoinGraph;

/// Enumeration exceeded its budget — the signal to plan with the
/// linearized fallback instead. Carries nothing: the point is aborting
/// *before* planning work is spent.
#[derive(Debug)]
pub(crate) struct BudgetExceeded;

/// csg-cmp enumeration state: interned connected subsets plus the
/// unordered pairs in discovery order.
struct CsgCmp<'g> {
    graph: &'g JoinGraph,
    n: usize,
    /// Interned subset → index into `sets` (singletons first, `0..n`).
    index: FxHashMap<BitSet, u32>,
    sets: Vec<BitSet>,
    /// Unordered csg-cmp pairs as interned indices, discovery order.
    pairs: Vec<(u32, u32)>,
    /// csg visits, held under [`CSG_VISIT_BACKSTOP`].
    visits: u64,
    /// Ceiling on `pairs.len()`.
    budget: u64,
}

impl CsgCmp<'_> {
    fn intern(&mut self, s: &BitSet) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.sets.len() as u32;
        self.index.insert(s.clone(), i);
        self.sets.push(s.clone());
        i
    }

    /// Calls `f` with `base ∪ S'` for every non-empty subset `S'` of
    /// `members`, in counter order. A frontier no `u128` counter can
    /// walk (a hub with ≥ 128 neighbors) is the budget overflow it is
    /// about to become; narrower wide frontiers trip the budget inside
    /// `f` long before the counter space is exhausted.
    fn for_each_extension(
        &mut self,
        base: &BitSet,
        members: &[usize],
        mut f: impl FnMut(&mut Self, BitSet) -> Result<(), BudgetExceeded>,
    ) -> Result<(), BudgetExceeded> {
        if members.len() >= 128 {
            return Err(BudgetExceeded);
        }
        for bits in 1u128..(1u128 << members.len()) {
            let mut s = base.clone();
            let mut b = bits;
            while b != 0 {
                let j = b.trailing_zeros() as usize;
                s.insert(members[j]);
                b &= b - 1;
            }
            f(self, s)?;
        }
        Ok(())
    }

    fn emit_pair(&mut self, s1: &BitSet, s2: &BitSet) -> Result<(), BudgetExceeded> {
        let (a, b) = (self.intern(s1), self.intern(s2));
        self.pairs.push((a, b));
        if self.pairs.len() as u64 > self.budget {
            return Err(BudgetExceeded);
        }
        Ok(())
    }

    fn run(&mut self) -> Result<(), BudgetExceeded> {
        for i in (0..self.n).rev() {
            let s = singleton(i);
            self.emit_csg(&s)?;
            self.enumerate_csg_rec(&s, &prefix(i))?;
        }
        Ok(())
    }

    /// Emits every pair whose csg is `s1`: complements grow from `s1`'s
    /// neighbors above its minimum index (lower ones belong to the
    /// start relations that already covered those pairs).
    fn emit_csg(&mut self, s1: &BitSet) -> Result<(), BudgetExceeded> {
        self.visits += 1;
        if self.visits > CSG_VISIT_BACKSTOP {
            return Err(BudgetExceeded);
        }
        let min = s1.iter().next().expect("csg is non-empty");
        let mut x = prefix(min);
        x.union_with(s1);
        let nb = self.graph.neighborhood(s1, &x);
        let members: Vec<usize> = nb.iter().collect();
        for &i in members.iter().rev() {
            let s2 = singleton(i);
            self.emit_pair(s1, &s2)?;
            // Forbidden for the complement expansion: everything the
            // csg side forbids, plus `s1`'s neighbors up to `i` (they
            // seed their own complement enumerations).
            let mut x2 = x.clone();
            for &j in &members {
                if j <= i {
                    x2.insert(j);
                }
            }
            self.enumerate_cmp_rec(s1, &s2, &x2)?;
        }
        Ok(())
    }

    fn enumerate_csg_rec(&mut self, s: &BitSet, x: &BitSet) -> Result<(), BudgetExceeded> {
        let nb = self.graph.neighborhood(s, x);
        if nb.is_empty() {
            return Ok(());
        }
        let members: Vec<usize> = nb.iter().collect();
        self.for_each_extension(s, &members, |this, grown| this.emit_csg(&grown))?;
        let mut x2 = x.clone();
        x2.union_with(&nb);
        self.for_each_extension(s, &members, |this, grown| {
            this.enumerate_csg_rec(&grown, &x2)
        })
    }

    fn enumerate_cmp_rec(
        &mut self,
        s1: &BitSet,
        s2: &BitSet,
        x: &BitSet,
    ) -> Result<(), BudgetExceeded> {
        let nb = self.graph.neighborhood(s2, x);
        if nb.is_empty() {
            return Ok(());
        }
        let members: Vec<usize> = nb.iter().collect();
        let s1c = s1.clone();
        self.for_each_extension(s2, &members, |this, grown| this.emit_pair(&s1c, &grown))?;
        let mut x2 = x.clone();
        x2.union_with(&nb);
        self.for_each_extension(s2, &members, |this, grown| {
            this.enumerate_cmp_rec(&s1c, &grown, &x2)
        })
    }
}

/// `{0, 1, …, i}` — the min-index forbidden prefix `Bᵢ`.
fn prefix(i: usize) -> BitSet {
    (0..=i).collect()
}

fn singleton(i: usize) -> BitSet {
    BitSet::from_iter([i])
}

/// Enumerates `graph`'s csg-cmp pairs and canonicalizes them into
/// size-layered batches. `Err` iff `budget` unordered pairs (or the
/// visit backstop) were exceeded — before any planning work happened.
pub(crate) fn schedule(graph: &JoinGraph, budget: u64) -> Result<Schedule, BudgetExceeded> {
    let n = graph.num_relations();
    let mut enumeration = CsgCmp {
        graph,
        n,
        index: FxHashMap::default(),
        sets: Vec::new(),
        pairs: Vec::new(),
        visits: 0,
        budget,
    };
    // Singletons interned first: indices 0..n, matching the driver's
    // flat numbering.
    for q in 0..n {
        enumeration.intern(&singleton(q));
    }
    enumeration.run()?;

    // `(union size, union, csg, cmp)` per unordered pair: one sort
    // groups the pairs by union and the unions by size layer. Unions
    // are interned only now that the pairs are known to fit the budget
    // (on a trip most of them were never visited as a csg).
    let mut pairs: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(enumeration.pairs.len());
    for (a, b) in std::mem::take(&mut enumeration.pairs) {
        let mut union = enumeration.sets[a as usize].clone();
        union.union_with(&enumeration.sets[b as usize]);
        pairs.push((union.len() as u32, enumeration.intern(&union), a, b));
    }
    pairs.sort_unstable();
    let CsgCmp { sets, .. } = enumeration;
    let sizes: Vec<u32> = sets.iter().map(|s| s.len() as u32).collect();

    // Rank (position within the size layer) and flat global index per
    // subset, assigned in size-layered discovery order layer by layer.
    let mut rank: Vec<u32> = vec![u32::MAX; sets.len()];
    let mut global: Vec<u32> = vec![u32::MAX; sets.len()];
    for q in 0..n {
        rank[q] = q as u32;
        global[q] = q as u32;
    }
    let mut next_global = n as u32;
    let mut batches: Vec<Vec<UnionWork>> = Vec::new();
    let mut emitted = 0u64;
    // Each union's ordered pairs, keyed and sorted the way the
    // size-layered pair loop would discover them: `(left size, left
    // rank, right rank)` ascending, both directions of every unordered
    // pair.
    type KeyedPair = ((u32, u32, u32), (u32, u32));
    for layer_pairs in pairs.chunk_by(|x, y| x.0 == y.0) {
        let mut layer: Vec<(Vec<KeyedPair>, u32)> = Vec::new();
        for union_pairs in layer_pairs.chunk_by(|x, y| x.1 == y.1) {
            let mut ordered = Vec::with_capacity(union_pairs.len() * 2);
            for &(_, _, a, b) in union_pairs {
                let (ra, rb) = (rank[a as usize], rank[b as usize]);
                debug_assert!(ra != u32::MAX && rb != u32::MAX, "side from a later layer");
                ordered.push(((sizes[a as usize], ra, rb), (a, b)));
                ordered.push(((sizes[b as usize], rb, ra), (b, a)));
            }
            ordered.sort_unstable_by_key(|&(key, _)| key);
            layer.push((ordered, union_pairs[0].1));
        }
        // A union's first discovery is its minimal pair key; no two
        // unions share one (the key identifies both sides).
        layer.sort_unstable_by_key(|(ordered, _)| ordered[0].0);
        let mut batch = Vec::with_capacity(layer.len());
        for (ordered, u) in layer {
            rank[u as usize] = batch.len() as u32;
            global[u as usize] = next_global;
            next_global += 1;
            emitted += ordered.len() as u64;
            batch.push(UnionWork {
                union: sets[u as usize].clone(),
                seed: None,
                pairs: ordered
                    .into_iter()
                    .map(|(_, (a, b))| (global[a as usize], global[b as usize]))
                    .collect(),
            });
        }
        batches.push(batch);
    }
    Ok(Schedule { batches, emitted })
}

#[cfg(test)]
mod tests {
    use super::super::ENUMERATION_BUDGET;
    use super::*;
    use ofw_common::FxHashSet;
    use ofw_workload::{
        grouping_query, large_query, random_query, GroupingQueryConfig, LargeQueryConfig,
        RandomQueryConfig, Topology,
    };
    use proptest::prelude::*;

    const TOPOLOGIES: [Topology; 4] = [
        Topology::Chain,
        Topology::Cycle,
        Topology::Star,
        Topology::Clique,
    ];

    fn large_graph(topology: Topology, num_relations: usize, seed: u64) -> JoinGraph {
        let (_, query) = large_query(&LargeQueryConfig {
            topology,
            num_relations,
            seed,
        });
        JoinGraph::new(&query)
    }

    /// The classic size-layered enumerator (DPsize, Lohman-style), the
    /// loop the DP core was once hard-wired to — kept as the reference
    /// the canonical emission order is defined against. Every connected
    /// set of size `s` is the union of two disjoint connected sets
    /// joined by a predicate, so pairing every size-`k` subset with
    /// every size-`s−k` subset visits all ordered partitions once: one
    /// batch per size, unions in first-discovery order, pairs in loop
    /// order `(k, left index, right index)`. Also returns the number of
    /// candidates *considered* — most overlap or are disconnected.
    fn dpsize_reference(graph: &JoinGraph) -> (Schedule, u64) {
        let n = graph.num_relations();
        let mut subsets: Vec<BitSet> = Vec::new();
        let mut by_size: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
        for q in 0..n {
            subsets.push(singleton(q));
            by_size[1].push(q as u32);
        }
        let mut batches = Vec::new();
        let (mut considered, mut emitted) = (0u64, 0u64);
        for size in 2..=n {
            let mut index: FxHashMap<BitSet, usize> = FxHashMap::default();
            let mut layer: Vec<UnionWork> = Vec::new();
            for k in 1..size {
                for &li in &by_size[k] {
                    for &ri in &by_size[size - k] {
                        let (s1, s2) = (&subsets[li as usize], &subsets[ri as usize]);
                        considered += 1;
                        if s1.intersects(s2) || !graph.connects(s1, s2) {
                            continue;
                        }
                        let mut union = s1.clone();
                        union.union_with(s2);
                        let at = *index.entry(union.clone()).or_insert(layer.len());
                        if at == layer.len() {
                            layer.push(UnionWork {
                                union,
                                seed: None,
                                pairs: Vec::new(),
                            });
                        }
                        layer[at].pairs.push((li, ri));
                        emitted += 1;
                    }
                }
            }
            for work in &layer {
                by_size[size].push(subsets.len() as u32);
                subsets.push(work.union.clone());
            }
            batches.push(layer);
        }
        (Schedule { batches, emitted }, considered)
    }

    /// Independent of both enumerators: every pair references only
    /// subsets committed by earlier batches, and a brute-force sweep
    /// over all 2ⁿ relation subsets confirms every connected subset is
    /// a union exactly once and every ordered partition of it into two
    /// connected halves a pair exactly once.
    fn assert_exact_cover(graph: &JoinGraph, schedule: &Schedule) {
        let n = graph.num_relations();
        let bits = |s: &BitSet| s.iter().fold(0u32, |m, i| m | 1 << i);
        let adjacent: Vec<u32> = (0..n).map(|q| bits(graph.neighbors(q))).collect();
        let connected = |mask: u32| {
            let mut reached = 1u32 << mask.trailing_zeros();
            loop {
                let mut grown = reached;
                for (q, &adj) in adjacent.iter().enumerate() {
                    if reached >> q & 1 == 1 {
                        grown |= adj & mask;
                    }
                }
                if grown == reached {
                    return reached == mask;
                }
                reached = grown;
            }
        };

        let mut committed: Vec<u32> = (0..n).map(|q| 1 << q).collect();
        let mut pairs_of: FxHashMap<u32, FxHashSet<(u32, u32)>> = FxHashMap::default();
        for batch in &schedule.batches {
            let frozen = committed.len();
            for work in batch {
                let union = bits(&work.union);
                let pairs = pairs_of.entry(union).or_default();
                assert!(pairs.is_empty(), "{union:#b} is planned twice");
                for &(l, r) in &work.pairs {
                    assert!((l as usize) < frozen && (r as usize) < frozen);
                    let (l, r) = (committed[l as usize], committed[r as usize]);
                    assert_eq!((l | r, l & r), (union, 0), "not a partition of the union");
                    assert!(pairs.insert((l, r)), "pair emitted twice");
                }
                committed.push(union);
            }
        }
        for mask in 1u32..1 << n {
            let mut want = FxHashSet::default();
            if mask.count_ones() >= 2 && connected(mask) {
                let mut left = (mask - 1) & mask;
                while left != 0 {
                    if connected(left) && connected(mask ^ left) {
                        want.insert((left, mask ^ left));
                    }
                    left = (left - 1) & mask;
                }
            }
            let got = pairs_of.remove(&mask).unwrap_or_default();
            assert_eq!(got, want, "ordered partitions of {mask:#b}");
        }
    }

    fn assert_matches_reference(label: &str, graph: &JoinGraph) {
        let dphyp = schedule(graph, ENUMERATION_BUDGET).expect("fits the budget");
        let (dpsize, considered) = dpsize_reference(graph);
        assert_eq!(
            dphyp.batches, dpsize.batches,
            "{label}: unions, pairs or their order diverged from the reference"
        );
        assert_eq!(dphyp.emitted, dpsize.emitted, "{label}");
        assert!(considered >= dpsize.emitted, "{label}");
        if graph.num_relations() <= 9 {
            assert_exact_cover(graph, &dphyp);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The canonicalized schedule reproduces the reference loop's
        /// batches *exactly* — same unions, same pairs, same order — on
        /// the random join workload (its grouping twin shares the join
        /// graph generator) and on all four `large_query` topologies.
        #[test]
        fn dphyp_batches_equal_dpsize_batches(
            seed in 0u64..1000,
            num_relations in 2usize..=10,
            extra_edges in 0usize..=2,
            wide in 2usize..=12,
        ) {
            let (_, query) = random_query(&RandomQueryConfig { num_relations, extra_edges, seed });
            assert_matches_reference("random", &JoinGraph::new(&query));
            let (_, query) =
                grouping_query(&GroupingQueryConfig { num_relations, extra_edges, seed: seed + 1 });
            assert_matches_reference("grouping", &JoinGraph::new(&query));
            for topology in TOPOLOGIES {
                assert_matches_reference("large", &large_graph(topology, wide, seed));
            }
        }
    }

    /// On a cycle the size-layered loop wades through quadratically
    /// many disconnected candidates; neighborhood expansion considers
    /// none — the one column that told the two enumerators apart.
    #[test]
    fn dphyp_skips_the_disconnected_candidates() {
        let graph = large_graph(Topology::Cycle, 12, 12);
        let dphyp = schedule(&graph, ENUMERATION_BUDGET).expect("fits the budget");
        let (dpsize, considered) = dpsize_reference(&graph);
        assert_eq!(dpsize.emitted, dphyp.emitted);
        assert!(
            considered > 4 * dphyp.emitted,
            "cycle-12: the reference considered {considered} vs {} emitted",
            dphyp.emitted
        );
    }

    /// The budget trips before any batch exists, and a generous budget
    /// does not — `u64::MAX` included (the public setter this constant
    /// replaced overflowed there and tripped at 9,999 visits).
    #[test]
    fn budget_trips_on_dense_graphs() {
        let graph = large_graph(Topology::Clique, 10, 10);
        assert!(schedule(&graph, 100).is_err());
        assert!(schedule(&graph, ENUMERATION_BUDGET).is_ok());
        assert!(schedule(&graph, u64::MAX).is_ok());
    }
}
