//! The canonical reference plan: the differential harness's third leg.
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
use ofw_common::BitSet;
use ofw_plangen::plan::{AggMark, PlanArena};
use ofw_plangen::{PlanId, PlanNode, PlanOp};
use ofw_query::{JoinGraph, Query};

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

#[cfg(test)]
mod tests {
    use super::*;

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
