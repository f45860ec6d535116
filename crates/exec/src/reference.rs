//! The differential harness's references: a tuple-at-a-time executor
//! and a canonical reference plan.
//!
//! [`execute_reference`] runs a physical plan row by row, the definition
//! the engine's row streams are checked against: scans emit rows in
//! insertion (heap) order, index scans in key order, sorts are stable,
//! joins evaluate *all* connecting equi-join predicates and preserve the
//! left (probe/outer) input's order, aggregates keep each group's first
//! row, streaming ones in group order, and the hash operators emit their
//! groups in a deterministically scrambled order (so a test can never
//! pass by accident on "conveniently sorted" hash output). It shares the
//! engine's types and base-data check and none of its kernels, so a
//! kernel bug cannot hide in both.
//!
//! [`reference_plan`] builds the plan a textbook non-optimizing executor
//! would run — a greedy left-deep chain of hash joins (nested-loop for
//! cross products), aggregation only at the root, a full sort for any
//! output order — with *none* of the order-framework machinery the DP
//! plans exploit (no merge joins, no partial sorts, no eager
//! aggregates, no group-joins). Executing both through the same engine
//! and comparing [`result_signature`]s checks the paper's central
//! soundness claim end to end: every reordering, interesting-order and
//! aggregation-placement trick the optimizer plays must leave the
//! query *result* (a multiset) unchanged.

use crate::batch::{ColRef, ColTable};
use crate::engine::{base_columns, ExecError};
use ofw_catalog::{AttrId, Catalog};
use ofw_common::{BitSet, FxHashMap, FxHashSet};
use ofw_plangen::plan::{AggMark, PlanArena};
use ofw_plangen::{PlanId, PlanNode, PlanOp};
use ofw_query::{JoinGraph, Query, CONST_VALUE, FILTER_BOUND};

fn push(arena: &mut PlanArena<()>, op: PlanOp, mask: BitSet) -> PlanId {
    arena.push(PlanNode {
        op,
        mask,
        cost: 0.0,
        card: 0.0,
        state: (),
        agg: AggMark::NONE,
        applied_fds: BitSet::new(),
    })
}

/// Builds the reference plan for `query`: left-deep greedy join chain
/// starting from query relation 0 (always the smallest-index connected
/// relation next, so the shape is deterministic), root-only hash
/// aggregation when the query groups or deduplicates — mirroring the
/// DP, which finalizes aggregation exactly when `effective_group_by()`
/// is non-empty — and a full root sort for any `order by`.
pub fn reference_plan(query: &Query) -> (PlanArena<()>, PlanId) {
    let mut arena: PlanArena<()> = PlanArena::new();
    let n = query.num_relations();
    assert!(n > 0, "reference plan needs at least one relation");

    let graph = JoinGraph::new(query);
    let mut mask = query.relation_set(0);
    let mut plan = push(&mut arena, PlanOp::Scan { qrel: 0 }, mask.clone());
    let mut remaining: Vec<usize> = (1..n).collect();
    while !remaining.is_empty() {
        // Smallest-index relation joined to the current prefix by some
        // edge; if none, the query graph is disconnected and the
        // smallest remaining relation enters via a cross product.
        let pick = remaining
            .iter()
            .position(|&q| graph.connects(&mask, &query.relation_set(q)))
            .unwrap_or(0);
        let q = remaining.remove(pick);
        let rmask = query.relation_set(q);
        let right = push(&mut arena, PlanOp::Scan { qrel: q }, rmask.clone());
        let edge = graph.connecting_edges(&mask, &rmask).next();
        mask.union_with(&rmask);
        let op = match edge {
            Some(edge) => PlanOp::HashJoin {
                left: plan,
                right,
                edge,
            },
            None => PlanOp::NestedLoopJoin { left: plan, right },
        };
        plan = push(&mut arena, op, mask.clone());
    }

    if !query.effective_group_by().is_empty() {
        plan = push(
            &mut arena,
            PlanOp::HashAgg {
                input: plan,
                key: query.effective_group_by().to_vec(),
                partial: false,
            },
            mask.clone(),
        );
    }
    if !query.order_by.is_empty() {
        plan = push(
            &mut arena,
            PlanOp::Sort {
                input: plan,
                key: query.order_by.clone(),
            },
            mask,
        );
    }
    (arena, plan)
}

/// Projects an execution result onto the columns the *query* defines —
/// group-by keys plus one finalized accumulator per aggregate call for
/// aggregating queries, the grouping key alone for bare
/// group-by/distinct, every attribute (in `AttrId` order) otherwise —
/// and sorts the rows, yielding a canonical multiset signature. Two
/// plans compute the same query result iff their signatures are equal,
/// regardless of physical row order or which first-row group
/// representative an aggregate happened to keep.
pub fn result_signature(query: &Query, out: &ColTable) -> Vec<Vec<i64>> {
    let col = |what: ColRef| -> &[i64] {
        out.col(what).unwrap_or_else(|| {
            panic!(
                "result is missing column {what:?} (schema {:?})",
                out.schema
            )
        })
    };
    let mut proj: Vec<&[i64]> = Vec::new();
    if !query.effective_group_by().is_empty() {
        for &a in query.effective_group_by() {
            proj.push(col(ColRef::Attr(a)));
        }
        for call in 0..query.aggregates.len() {
            proj.push(col(ColRef::Acc(call)));
        }
    } else {
        let mut attrs = out.attr_ids();
        attrs.sort_unstable_by_key(|a| a.0);
        for a in attrs {
            proj.push(col(ColRef::Attr(a)));
        }
    }
    let mut rows: Vec<Vec<i64>> = (0..out.num_rows())
        .map(|r| proj.iter().map(|c| c[r]).collect())
        .collect();
    rows.sort_unstable();
    rows
}

/// Executes the plan rooted at `plan` tuple-at-a-time over the base
/// columns the engine scans (`data[qrel][attr][row]`) and returns its
/// attribute columns, or the error of the first operator that fails,
/// located at its plan node.
pub fn execute_reference<S: Copy>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
) -> Result<ColTable, ExecError> {
    let graph = JoinGraph::new(query);
    Reference {
        arena,
        catalog,
        query,
        graph,
        data,
    }
    .run(plan)
}

struct Reference<'a, S> {
    arena: &'a PlanArena<S>,
    catalog: &'a Catalog,
    query: &'a Query,
    graph: JoinGraph,
    data: &'a [Vec<Vec<i64>>],
}

impl<S: Copy> Reference<'_, S> {
    fn run(&self, plan: PlanId) -> Result<ColTable, ExecError> {
        let reorder = |t: ColTable, key: &[AttrId], order: fn(&[&[i64]], usize) -> Vec<usize>| {
            let rows = order(&self.key(plan, &t, key)?, t.num_rows());
            Ok(take(&t, &rows))
        };
        match &self.arena.node(plan).op {
            PlanOp::Scan { qrel } => self.select(plan, self.scan(plan, *qrel)?, *qrel),
            PlanOp::IndexScan { qrel, index } => {
                let key = &self.catalog.relation(self.query.relations[*qrel]).indexes[*index].key;
                let sorted = reorder(self.scan(plan, *qrel)?, key, stable_order)?;
                self.select(plan, sorted, *qrel)
            }
            // A partial sort's input is grouped on a key prefix, and its
            // output is the full stable sort by the key.
            PlanOp::Sort { input, key } | PlanOp::PartialSort { input, key, .. } => {
                reorder(self.run(*input)?, key, stable_order)
            }
            PlanOp::MergeJoin { left, right, .. }
            | PlanOp::HashJoin { left, right, .. }
            | PlanOp::NestedLoopJoin { left, right } => self.join(plan, *left, *right),
            PlanOp::GroupJoin { left, right, .. } => {
                let key = self.query.effective_group_by();
                reorder(self.join(plan, *left, *right)?, key, first_rows)
            }
            PlanOp::StreamAgg { input, key, .. } => reorder(self.run(*input)?, key, first_rows),
            PlanOp::HashAgg { input, key, .. } => reorder(self.run(*input)?, key, |key, n| {
                scramble(first_rows(key, n))
            }),
            PlanOp::HashGroup { input, key } => reorder(self.run(*input)?, key, grouped),
        }
    }

    /// The columns of `t` holding `attrs`; a missing one is an error
    /// located at `plan`.
    fn key<'t>(
        &self,
        plan: PlanId,
        t: &'t ColTable,
        attrs: &[AttrId],
    ) -> Result<Vec<&'t [i64]>, ExecError> {
        let missing = |a| ExecError {
            plan,
            op: self.arena.node(plan).op.name(),
            attr: Some(a),
            detail: format!(
                "attribute {} not in input schema {:?}",
                self.catalog.attr_name(a),
                t.schema
            ),
        };
        let col = |a| t.col(ColRef::Attr(a)).ok_or_else(|| missing(a));
        attrs.iter().map(|&a| col(a)).collect()
    }

    /// Relation `qrel`'s base rows in insertion order.
    fn scan(&self, plan: PlanId, qrel: usize) -> Result<ColTable, ExecError> {
        let op = self.arena.node(plan).op.name();
        let (cols, attrs) = base_columns(self.catalog, self.query, self.data, plan, op, qrel)?;
        let schema = attrs.iter().map(|&a| ColRef::Attr(a)).collect();
        Ok(ColTable::new(schema, cols.to_vec()))
    }

    /// The rows of relation `qrel`'s table `t` that pass its constant
    /// predicates (`= CONST_VALUE`) and filters (`<= FILTER_BOUND`).
    fn select(&self, plan: PlanId, t: ColTable, qrel: usize) -> Result<ColTable, ExecError> {
        let q = self.query;
        let own = |a: &AttrId| q.owner(*a) == qrel;
        let constants: Vec<AttrId> = q.constants.iter().map(|c| c.attr).filter(own).collect();
        let filters: Vec<AttrId> = q.filters.iter().map(|f| f.attr).filter(own).collect();
        let (constants, filters) = (
            self.key(plan, &t, &constants)?,
            self.key(plan, &t, &filters)?,
        );
        let keep: Vec<usize> = (0..t.num_rows())
            .filter(|&r| {
                constants.iter().all(|c| c[r] == CONST_VALUE)
                    && filters.iter().all(|c| c[r] <= FILTER_BOUND)
            })
            .collect();
        Ok(take(&t, &keep))
    }

    /// Every (left row, right row) pair, in left order, that meets every
    /// equi-join predicate connecting the two inputs (the planner applies
    /// them all at this operator too): left columns, then right columns.
    fn join(&self, plan: PlanId, left: PlanId, right: PlanId) -> Result<ColTable, ExecError> {
        let (lt, rt) = (self.run(left)?, self.run(right)?);
        let (lmask, rmask) = (&self.arena.node(left).mask, &self.arena.node(right).mask);
        let mut keys = Vec::new();
        for e in self.graph.connecting_edges(lmask, rmask) {
            let j = &self.query.joins[e];
            let (la, ra) = if lmask.contains(self.query.owner(j.left)) {
                (j.left, j.right)
            } else {
                (j.right, j.left)
            };
            keys.push((
                self.key(plan, &lt, &[la])?[0],
                self.key(plan, &rt, &[ra])?[0],
            ));
        }
        let (mut lrows, mut rrows) = (Vec::new(), Vec::new());
        for l in 0..lt.num_rows() {
            for r in 0..rt.num_rows() {
                if keys.iter().all(|(lc, rc)| lc[l] == rc[r]) {
                    lrows.push(l);
                    rrows.push(r);
                }
            }
        }
        let schema = [&lt.schema[..], &rt.schema].concat();
        let cols = [take(&lt, &lrows).cols, take(&rt, &rrows).cols].concat();
        Ok(ColTable::new(schema, cols))
    }
}

/// The rows of `t` at positions `rows`, in that order.
fn take(t: &ColTable, rows: &[usize]) -> ColTable {
    let cols = t
        .cols
        .iter()
        .map(|c| rows.iter().map(|&r| c[r]).collect())
        .collect();
    ColTable::new(t.schema.clone(), cols)
}

/// Row `r`'s values on the `key` columns.
fn row_key(key: &[&[i64]], r: usize) -> Vec<i64> {
    key.iter().map(|c| c[r]).collect()
}

/// `n` rows stably sorted lexicographically by the `key` columns.
fn stable_order(key: &[&[i64]], n: usize) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..n).collect();
    rows.sort_by(|&x, &y| {
        let mut cmp = key.iter().map(|c| c[x].cmp(&c[y]));
        cmp.find(|o| o.is_ne()).unwrap_or(std::cmp::Ordering::Equal)
    });
    rows
}

/// Each group's first row, in first-seen group order: what an aggregate
/// keeps of its `n` input rows, grouped on the `key` columns.
fn first_rows(key: &[&[i64]], n: usize) -> Vec<usize> {
    let mut seen = FxHashSet::default();
    (0..n).filter(|&r| seen.insert(row_key(key, r))).collect()
}

/// Hash grouping of `n` rows on the `key` columns: each group's rows in
/// their input order, the groups [`scramble`]d from first-seen order.
fn grouped(key: &[&[i64]], n: usize) -> Vec<usize> {
    let mut group_of: FxHashMap<Vec<i64>, usize> = FxHashMap::default();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for r in 0..n {
        let g = *group_of.entry(row_key(key, r)).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(r);
    }
    scramble(groups).concat()
}

/// The hash operators' deterministic scramble of their groups: reversed,
/// then every other one from the first, then the rest.
fn scramble<T>(items: Vec<T>) -> Vec<T> {
    let (mut even, mut odd) = (Vec::new(), Vec::new());
    for (i, item) in items.into_iter().rev().enumerate() {
        if i % 2 == 0 {
            even.push(item);
        } else {
            odd.push(item);
        }
    }
    even.extend(odd);
    even
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    fn table(rows: &[[i64; 2]]) -> ColTable {
        let col = |c: usize| rows.iter().map(|r| r[c]).collect();
        ColTable::new(vec![ColRef::Attr(A), ColRef::Attr(B)], vec![col(0), col(1)])
    }

    /// The rows of `t` that `rows` picks on its `A` column, in its order.
    fn on_a(t: &ColTable, rows: impl Fn(&[&[i64]], usize) -> Vec<usize>) -> ColTable {
        take(t, &rows(&[t.col(ColRef::Attr(A)).unwrap()], t.num_rows()))
    }

    #[test]
    fn sort_is_stable_and_correct() {
        let t = on_a(&table(&[[2, 1], [1, 9], [1, 3], [2, 0]]), stable_order);
        assert!(t.satisfies_ordering(&[A]));
        // Stability: [1, 9] stays before [1, 3] (both key 1).
        assert_eq!(t.cols, vec![vec![1, 1, 2, 2], vec![9, 3, 1, 0]]);
    }

    #[test]
    fn hash_aggregate_scramble_breaks_order() {
        let t = table(&[[1, 0], [2, 0], [3, 0], [4, 0], [5, 0]]);
        let agg = on_a(&t, |key, n| scramble(first_rows(key, n)));
        assert_eq!(agg.num_rows(), 5);
        assert!(!agg.satisfies_ordering(&[A]), "scramble must destroy order");
    }

    #[test]
    fn streaming_aggregate_preserves_order() {
        let agg = on_a(
            &table(&[[1, 0], [1, 1], [2, 0], [3, 0], [3, 2]]),
            first_rows,
        );
        assert_eq!(agg.num_rows(), 3);
        assert!(agg.satisfies_ordering(&[A]));
    }

    #[test]
    fn streaming_aggregate_works_on_grouped_input() {
        let agg = on_a(&table(&[[2, 0], [2, 1], [1, 0], [3, 0]]), first_rows);
        assert_eq!(agg.num_rows(), 3, "one row per adjacent group");
        assert!(agg.satisfies_grouping(&[A]));
    }

    #[test]
    fn hash_group_makes_groups_adjacent_without_sorting() {
        let g = on_a(
            &table(&[[1, 0], [2, 0], [1, 1], [3, 0], [2, 1], [1, 2]]),
            grouped,
        );
        assert_eq!(g.num_rows(), 6, "no rows lost");
        assert!(g.satisfies_grouping(&[A]));
        assert!(!g.satisfies_ordering(&[A]), "scramble must destroy order");
        // Rows within a group keep their relative order.
        let ones: Vec<i64> = (0..6)
            .filter(|&r| g.cols[0][r] == 1)
            .map(|r| g.cols[1][r])
            .collect();
        assert_eq!(ones, vec![0, 1, 2]);
    }

    #[test]
    fn reference_plan_is_left_deep_and_aggregates_at_the_root() {
        let (catalog, query) = ofw_workload::star_agg_query(&ofw_workload::StarAggConfig {
            dimensions: 3,
            seed: 7,
        });
        let (arena, root) = reference_plan(&query);
        // Root chain: optional Sort, then the aggregate (star_agg
        // queries group), then joins all the way down the left spine.
        let mut id = root;
        if let PlanOp::Sort { input, .. } = &arena.node(id).op {
            id = *input;
        }
        let PlanOp::HashAgg { input, partial, .. } = &arena.node(id).op else {
            panic!("reference root must aggregate: {:?}", arena.node(id).op);
        };
        assert!(!partial);
        let mut joins = 0;
        let mut id = *input;
        loop {
            match &arena.node(id).op {
                PlanOp::HashJoin { left, .. } | PlanOp::NestedLoopJoin { left, .. } => {
                    joins += 1;
                    // Right child of every join is a leaf scan.
                    id = *left;
                }
                PlanOp::Scan { qrel } => {
                    assert_eq!(*qrel, 0, "left spine bottoms out at relation 0");
                    break;
                }
                other => panic!("unexpected operator on the reference spine: {other:?}"),
            }
        }
        assert_eq!(joins, query.num_relations() - 1);
        let _ = catalog;
    }

    #[test]
    fn signature_projects_group_keys_and_accumulators() {
        let (_catalog, query) = ofw_workload::star_agg_query(&ofw_workload::StarAggConfig {
            dimensions: 2,
            seed: 3,
        });
        let key = query.effective_group_by().to_vec();
        assert!(!key.is_empty());
        let calls = query.aggregates.len();
        let mut schema: Vec<ColRef> = key.iter().map(|&a| ColRef::Attr(a)).collect();
        schema.extend((0..calls).map(ColRef::Acc));
        // Two "results" with the same logical content in different row
        // orders must collapse to the same signature.
        let width = schema.len();
        let a = ColTable::new(
            schema.clone(),
            (0..width).map(|c| vec![c as i64, 10 + c as i64]).collect(),
        );
        let b = ColTable::new(
            schema,
            (0..width).map(|c| vec![10 + c as i64, c as i64]).collect(),
        );
        assert_eq!(result_signature(&query, &a), result_signature(&query, &b));
    }
}
