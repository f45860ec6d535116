//! The select-project-join query model.
//!
//! Relations participating in a query are numbered `0..n` ("query
//! relations"). Relation sets are [`BitSet`]s (the `*_set` methods): one
//! machine word up to 64 relations, heap words only beyond, so the model
//! scales to arbitrarily many relations. For enumeration that walks the
//! join graph itself — neighborhoods, connectedness, crossing edges —
//! [`JoinGraph`] precomputes the adjacency structure once and answers
//! those queries without rescanning the predicate list.

use ofw_catalog::{AttrId, Catalog, RelId};
use ofw_common::{BitSet, FxHashMap};

/// An equi-join predicate `left = right` between two query relations.
#[derive(Clone, Debug)]
pub struct JoinEdge {
    /// Attribute on one side.
    pub left: AttrId,
    /// Attribute on the other side.
    pub right: AttrId,
    /// Join selectivity estimate in `(0, 1]`.
    pub selectivity: f64,
}

/// An equality-with-constant predicate `attr = const`.
#[derive(Clone, Debug)]
pub struct ConstPred {
    /// The bound attribute.
    pub attr: AttrId,
    /// Selectivity estimate in `(0, 1]`.
    pub selectivity: f64,
}

/// A non-equality filter (e.g. `salary > 50000`): affects cardinality
/// but induces no functional dependency.
#[derive(Clone, Debug)]
pub struct FilterPred {
    /// The filtered attribute.
    pub attr: AttrId,
    /// Selectivity estimate in `(0, 1]`.
    pub selectivity: f64,
}

/// An aggregate function over `group by` groups.
///
/// The decomposability metadata drives aggregation *placement*: an
/// aggregate can be pushed below a join only when partial per-group
/// results computed early can be combined into the final result at the
/// root (Yan & Larson's eager/lazy transformations).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)` / `count(attr)`.
    Count,
    /// `sum(attr)`.
    Sum,
    /// `min(attr)`.
    Min,
    /// `max(attr)`.
    Max,
}

impl AggFunc {
    /// Whether partial aggregates can be combined into the final result
    /// (SUM of SUMs, COUNT of COUNTs summed, MIN of MINs, MAX of MAXes)
    /// — the precondition for *eager group-by* push-down on the side
    /// carrying the aggregated attribute.
    pub fn is_decomposable(&self) -> bool {
        // All four classic functions decompose; AVG would be modeled as
        // SUM + COUNT.
        true
    }

    /// Whether join-induced row duplication leaves the final result
    /// unchanged (MIN/MAX: seeing a value twice changes nothing). Such
    /// functions tolerate *eager count* push-down on the opposite side
    /// without any count column.
    pub fn duplicate_insensitive(&self) -> bool {
        matches!(self, AggFunc::Min | AggFunc::Max)
    }

    /// Whether duplicated partials can be repaired by multiplying with a
    /// join-partner group count (COUNT and SUM scale linearly; MIN/MAX
    /// need no scaling, but cannot *provide* a meaningful count either).
    pub fn count_scalable(&self) -> bool {
        matches!(self, AggFunc::Count | AggFunc::Sum)
    }

    /// Display name (`sum`, `count`, …).
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One aggregate call in the select list, e.g. `sum(l_extendedprice)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Its input attribute; `None` for `count(*)`.
    pub input: Option<AttrId>,
}

/// A query over a catalog: relations, predicates, grouping and ordering.
#[derive(Clone, Debug, Default)]
pub struct Query {
    /// Catalog relations in query-relation order (index = query-relation id).
    pub relations: Vec<RelId>,
    /// Equi-join predicates.
    pub joins: Vec<JoinEdge>,
    /// `attr = const` predicates.
    pub constants: Vec<ConstPred>,
    /// Non-FD filters.
    pub filters: Vec<FilterPred>,
    /// `group by` attributes (an interesting order *and* an interesting
    /// grouping).
    pub group_by: Vec<AttrId>,
    /// `select distinct` attributes — duplicate elimination over these
    /// columns, a grouping-shaped requirement with no aggregates.
    pub distinct: Vec<AttrId>,
    /// `order by` attributes (the query's required output order).
    pub order_by: Vec<AttrId>,
    /// Aggregate functions computed per group (SUM/COUNT/MIN/MAX).
    pub aggregates: Vec<AggCall>,
    /// Owning query relation per attribute.
    attr_owner: FxHashMap<AttrId, usize>,
}

impl Query {
    /// Creates an empty query.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a catalog relation; returns its query-relation index. There
    /// is no relation-count ceiling: the set-based API below handles any
    /// width.
    pub fn add_relation(&mut self, catalog: &Catalog, rel: RelId) -> usize {
        let q = self.relations.len();
        for &a in &catalog.relation(rel).attrs {
            self.attr_owner.insert(a, q);
        }
        self.relations.push(rel);
        q
    }

    /// The grouping-shaped aggregation requirement: `group by` if
    /// present, else `select distinct` (duplicate elimination is an
    /// aggregation with no aggregate functions).
    pub fn effective_group_by(&self) -> &[AttrId] {
        if !self.group_by.is_empty() {
            &self.group_by
        } else {
            &self.distinct
        }
    }

    /// Query relation owning `attr` (panics for foreign attributes).
    pub fn owner(&self, attr: AttrId) -> usize {
        self.attr_owner[&attr]
    }

    /// Whether the query computes any aggregate functions.
    pub fn has_aggregates(&self) -> bool {
        !self.aggregates.is_empty()
    }

    /// The input attributes of all aggregate calls (`count(*)`
    /// contributes none).
    pub fn agg_input_attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        self.aggregates.iter().filter_map(|a| a.input)
    }

    /// Number of query relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The singleton relation set `{qrel}`.
    pub fn relation_set(&self, qrel: usize) -> BitSet {
        let mut s = BitSet::new();
        s.insert(qrel);
        s
    }

    /// The set of all query relations.
    pub fn all_relations_set(&self) -> BitSet {
        (0..self.relations.len()).collect()
    }

    /// True if the join graph restricted to `set` is connected.
    pub fn is_connected_set(&self, set: &BitSet) -> bool {
        let Some(first) = set.iter().next() else {
            return false;
        };
        let mut seen = BitSet::new();
        seen.insert(first);
        loop {
            let mut grew = false;
            for j in &self.joins {
                let l = self.owner(j.left);
                let r = self.owner(j.right);
                if !set.contains(l) || !set.contains(r) {
                    continue; // edge leaves the subgraph
                }
                if seen.contains(l) != seen.contains(r) {
                    seen.insert(l);
                    seen.insert(r);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        set.iter().all(|q| seen.contains(q))
    }

    /// Whether the whole query graph is connected.
    pub fn is_fully_connected(&self) -> bool {
        self.is_connected_set(&self.all_relations_set())
    }
}

/// Precomputed adjacency view of a query's join graph — the structure
/// neighborhood-driven join enumeration (DPccp/DPhyp-style) walks.
///
/// Built once per planner, executor run or reference plan: it resolves
/// each edge's endpoint relations once and keeps per-relation neighbor
/// [`BitSet`]s, so neighborhood expansion and crossing-edge tests are
/// word operations and array reads instead of rescans of the predicate
/// list — an enumerator asks them millions of times.
pub struct JoinGraph {
    /// Per-relation neighbor sets.
    neighbors: Vec<BitSet>,
    /// Per-edge endpoints as query-relation indices, in `joins` order.
    endpoints: Vec<(usize, usize)>,
    n: usize,
}

impl JoinGraph {
    /// Resolves `query`'s join edges into an adjacency structure.
    pub fn new(query: &Query) -> Self {
        let n = query.num_relations();
        let mut neighbors = vec![BitSet::new(); n];
        let mut endpoints = Vec::with_capacity(query.joins.len());
        for j in &query.joins {
            let l = query.owner(j.left);
            let r = query.owner(j.right);
            endpoints.push((l, r));
            if l != r {
                neighbors[l].insert(r);
                neighbors[r].insert(l);
            }
        }
        JoinGraph {
            neighbors,
            endpoints,
            n,
        }
    }

    /// Number of query relations.
    pub fn num_relations(&self) -> usize {
        self.n
    }

    /// Relations directly joined to `qrel`.
    pub fn neighbors(&self, qrel: usize) -> &BitSet {
        &self.neighbors[qrel]
    }

    /// Endpoint relations of join edge `e`, in `joins` order.
    pub fn edge_endpoints(&self, e: usize) -> (usize, usize) {
        self.endpoints[e]
    }

    /// The neighborhood `N(s, x)`: relations adjacent to `s` that lie
    /// neither in `s` nor in the forbidden set `x` — the csg/cmp
    /// expansion frontier of hypergraph enumeration (min-index
    /// enumeration passes the already-covered prefix as `x`).
    pub fn neighborhood(&self, s: &BitSet, x: &BitSet) -> BitSet {
        let mut nb = BitSet::new();
        for i in s.iter() {
            nb.union_with(&self.neighbors[i]);
        }
        nb.difference_with(s);
        nb.difference_with(x);
        nb
    }

    /// Whether at least one join edge crosses between the disjoint sets
    /// `a` and `b` (the cross-product guard, without materializing the
    /// edge list).
    pub fn connects(&self, a: &BitSet, b: &BitSet) -> bool {
        self.endpoints
            .iter()
            .any(|&(l, r)| (a.contains(l) && b.contains(r)) || (b.contains(l) && a.contains(r)))
    }

    /// Join-edge indexes crossing between the disjoint sets `a` and `b`
    /// (one endpoint in each), ascending — the predicates a join of the
    /// two sets applies.
    pub fn connecting_edges<'a>(
        &'a self,
        a: &'a BitSet,
        b: &'a BitSet,
    ) -> impl Iterator<Item = usize> + 'a {
        self.endpoints
            .iter()
            .enumerate()
            .filter_map(move |(i, &(l, r))| {
                let cross = (a.contains(l) && b.contains(r)) || (b.contains(l) && a.contains(r));
                cross.then_some(i)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> (Catalog, Query) {
        let mut c = Catalog::new();
        let mut q = Query::new();
        let mut prev: Option<AttrId> = None;
        for i in 0..n {
            let rel = c.add_relation(&format!("r{i}"), 1000.0, &["k", "f"]);
            q.add_relation(&c, rel);
            let k = c.attr(&format!("r{i}.k"));
            let f = c.attr(&format!("r{i}.f"));
            if let Some(p) = prev {
                q.joins.push(JoinEdge {
                    left: p,
                    right: k,
                    selectivity: 0.01,
                });
            }
            prev = Some(f);
        }
        (c, q)
    }

    /// Builds the subset of query relations listed in `members`.
    fn set(members: &[usize]) -> BitSet {
        members.iter().copied().collect()
    }

    #[test]
    fn ownership_and_masks() {
        let (c, q) = chain(3);
        assert_eq!(q.num_relations(), 3);
        assert_eq!(q.all_relations_set(), set(&[0, 1, 2]));
        assert_eq!(q.owner(c.attr("r0.k")), 0);
        assert_eq!(q.owner(c.attr("r2.f")), 2);
    }

    #[test]
    fn connectivity_of_chain() {
        let (_, q) = chain(4);
        assert!(q.is_fully_connected());
        assert!(q.is_connected_set(&set(&[0, 1])));
        assert!(q.is_connected_set(&set(&[1, 2])));
        assert!(
            !q.is_connected_set(&set(&[0, 2])),
            "r0 and r2 are not adjacent"
        );
        assert!(q.is_connected_set(&set(&[0])));
        assert!(!q.is_connected_set(&set(&[])));
    }

    #[test]
    fn connecting_joins_cross_the_cut() {
        let (_, q) = chain(3);
        let g = JoinGraph::new(&q);
        // Edge 0 joins r0–r1, edge 1 joins r1–r2.
        let between = |a: &[usize], b: &[usize]| -> Vec<usize> {
            g.connecting_edges(&set(a), &set(b)).collect()
        };
        assert_eq!(between(&[0], &[1]), vec![0]);
        assert_eq!(between(&[0, 1], &[2]), vec![1]);
        assert_eq!(between(&[2], &[0, 1]), vec![1]);
        assert!(between(&[0], &[2]).is_empty());
    }

    #[test]
    fn disconnected_pieces_are_detected() {
        let (_, mut q) = chain(3);
        q.joins.pop(); // drop r1–r2
        assert!(!q.is_fully_connected());
        assert!(q.is_connected_set(&set(&[0, 1])));
        assert!(!q.is_connected_set(&set(&[1, 2])));
    }

    #[test]
    fn join_graph_mirrors_the_predicate_scan() {
        let (_, mut q) = chain(4);
        // A second r1–r2 predicate: crossing edges come back ascending.
        q.joins.push(q.joins[1].clone());
        let g = JoinGraph::new(&q);
        assert_eq!(g.num_relations(), 4);
        // Every subset pair: the precomputed edge iterator must list
        // exactly the predicates with one endpoint owner on each side.
        for a_bits in 0usize..16 {
            for b_bits in 0usize..16 {
                if a_bits & b_bits != 0 {
                    continue;
                }
                let a: BitSet = (0..4).filter(|i| a_bits >> i & 1 == 1).collect();
                let b: BitSet = (0..4).filter(|i| b_bits >> i & 1 == 1).collect();
                let scan: Vec<usize> = (0..q.joins.len())
                    .filter(|&e| {
                        let (l, r) = (q.owner(q.joins[e].left), q.owner(q.joins[e].right));
                        (a.contains(l) && b.contains(r)) || (b.contains(l) && a.contains(r))
                    })
                    .collect();
                let fast: Vec<usize> = g.connecting_edges(&a, &b).collect();
                assert_eq!(scan, fast, "a={a_bits:b} b={b_bits:b}");
                assert_eq!(g.connects(&a, &b), !scan.is_empty());
            }
        }
        assert_eq!(g.edge_endpoints(0), (0, 1));
        assert_eq!(g.edge_endpoints(2), (2, 3));
    }

    #[test]
    fn neighborhood_excludes_the_set_and_the_forbidden() {
        let (_, q) = chain(5);
        let g = JoinGraph::new(&q);
        assert_eq!(g.neighbors(0), &set(&[1]));
        assert_eq!(g.neighbors(2), &set(&[1, 3]));
        // N({1,2}, ∅) = {0, 3}; forbidding {0} leaves {3}; the set
        // itself is never its own neighbor.
        let s = set(&[1, 2]);
        assert_eq!(g.neighborhood(&s, &set(&[])), set(&[0, 3]));
        assert_eq!(g.neighborhood(&s, &set(&[0])), set(&[3]));
        assert_eq!(g.neighborhood(&s, &set(&[0, 3])), set(&[]));
        // A full set has an empty neighborhood.
        assert_eq!(g.neighborhood(&q.all_relations_set(), &set(&[])), set(&[]));
    }

    #[test]
    fn aggregate_metadata_classifies_placement_legality() {
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            assert!(f.is_decomposable(), "{}", f.name());
        }
        assert!(AggFunc::Min.duplicate_insensitive());
        assert!(AggFunc::Max.duplicate_insensitive());
        assert!(!AggFunc::Sum.duplicate_insensitive());
        assert!(!AggFunc::Count.duplicate_insensitive());
        assert!(AggFunc::Sum.count_scalable());
        assert!(AggFunc::Count.count_scalable());
        assert!(!AggFunc::Min.count_scalable());

        let (c, mut q) = chain(2);
        assert!(!q.has_aggregates());
        q.aggregates.push(AggCall {
            func: AggFunc::Count,
            input: None,
        });
        q.aggregates.push(AggCall {
            func: AggFunc::Sum,
            input: Some(c.attr("r1.f")),
        });
        assert!(q.has_aggregates());
        assert_eq!(q.agg_input_attrs().collect::<Vec<_>>(), [c.attr("r1.f")]);
    }

    #[test]
    fn effective_group_by_prefers_group_by() {
        let (c, mut q) = chain(2);
        assert!(q.effective_group_by().is_empty());
        q.distinct = vec![c.attr("r0.k")];
        assert_eq!(q.effective_group_by(), &[c.attr("r0.k")]);
        q.group_by = vec![c.attr("r0.f")];
        assert_eq!(q.effective_group_by(), &[c.attr("r0.f")]);
    }
}
