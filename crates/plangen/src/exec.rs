//! A tuple-at-a-time plan executor over synthetic data.
//!
//! This is a *verification* substrate, not a performance one: it runs a
//! generated physical plan against small synthetic tables so tests can
//! check that every logical ordering the order framework claims for the
//! plan's output actually holds on the physical tuple stream — the
//! stream-satisfaction definition of the paper's §2, checked for real.
//!
//! Operator semantics mirror the planner's modeling assumptions:
//! scans emit rows in insertion (heap) order, index scans in key order,
//! joins evaluate *all* connecting equi-join predicates and preserve the
//! left (probe/outer) input's order, sorts are stable, streaming
//! aggregates keep the group order, and hash aggregates deliberately
//! emit groups in a scrambled deterministic order (so a test can never
//! pass by accident on "conveniently sorted" hash output).

use crate::plan::{PlanArena, PlanId, PlanOp};
use ofw_catalog::{AttrId, Catalog};
use ofw_common::{BitSet, FxHashMap};
use ofw_query::{JoinGraph, Query};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A materialized relation: a column list and rows of `i64` values.
#[derive(Clone, Debug)]
pub struct Table {
    /// Column attribute ids, in row layout order.
    pub attrs: Vec<AttrId>,
    /// Row values, parallel to `attrs`.
    pub rows: Vec<Vec<i64>>,
}

/// An operator referenced an attribute its input does not carry — the
/// raw lookup failure. [`try_execute`] wraps it with the offending plan
/// node so a harness failure names the plan and attribute instead of
/// aborting the whole test binary.
#[derive(Clone, Debug, PartialEq)]
pub struct MissingAttr {
    /// The attribute that was looked up.
    pub attr: AttrId,
    /// The columns the table actually carries.
    pub available: Vec<AttrId>,
}

impl std::fmt::Display for MissingAttr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "attribute {:?} not in table (columns: {:?})",
            self.attr, self.available
        )
    }
}

impl std::error::Error for MissingAttr {}

/// Execution failure, located: which plan node, which operator, which
/// attribute. Produced by [`try_execute`]; `Display` renders everything
/// a differential-harness failure report needs.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecError {
    /// The plan node whose operator failed.
    pub plan: PlanId,
    /// The failing operator's display name.
    pub op: &'static str,
    /// The underlying lookup failure.
    pub cause: MissingAttr,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan {:?} ({}): {}", self.plan, self.op, self.cause)
    }
}

impl std::error::Error for ExecError {}

impl Table {
    /// Column index of `attr`, or a [`MissingAttr`] naming the
    /// attribute and the columns actually present.
    pub fn try_col(&self, attr: AttrId) -> Result<usize, MissingAttr> {
        self.attrs
            .iter()
            .position(|&a| a == attr)
            .ok_or_else(|| MissingAttr {
                attr,
                available: self.attrs.clone(),
            })
    }

    fn col(&self, attr: AttrId) -> usize {
        self.try_col(attr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Does the physical tuple sequence satisfy the logical ordering
    /// `attrs` (lexicographically non-decreasing)? This is the §2
    /// satisfaction condition, evaluated directly.
    pub fn satisfies_ordering(&self, attrs: &[AttrId]) -> bool {
        let cols: Vec<usize> = attrs.iter().map(|&a| self.col(a)).collect();
        self.rows.windows(2).all(|w| {
            let (x, y) = (&w[0], &w[1]);
            let kx: Vec<i64> = cols.iter().map(|&c| x[c]).collect();
            let ky: Vec<i64> = cols.iter().map(|&c| y[c]).collect();
            kx <= ky
        })
    }

    /// Does the physical tuple sequence satisfy the *head/tail pair*
    /// — all tuples with equal values on `head` consecutive, and within
    /// each such run sorted lexicographically by `tail`? The pair
    /// satisfaction condition, evaluated directly.
    pub fn satisfies_head_tail(&self, head: &[AttrId], tail: &[AttrId]) -> bool {
        if !self.satisfies_grouping(head) {
            return false;
        }
        let hcols: Vec<usize> = head.iter().map(|&a| self.col(a)).collect();
        let tcols: Vec<usize> = tail.iter().map(|&a| self.col(a)).collect();
        self.rows.windows(2).all(|w| {
            let (x, y) = (&w[0], &w[1]);
            let same_group = hcols.iter().all(|&c| x[c] == y[c]);
            if !same_group {
                return true; // the tail only constrains within a group
            }
            let kx: Vec<i64> = tcols.iter().map(|&c| x[c]).collect();
            let ky: Vec<i64> = tcols.iter().map(|&c| y[c]).collect();
            kx <= ky
        })
    }

    /// Does the physical tuple sequence satisfy the logical *grouping*
    /// over `attrs` — are all tuples with equal values on `attrs`
    /// consecutive? The VLDB'04 grouping-satisfaction condition,
    /// evaluated directly.
    pub fn satisfies_grouping(&self, attrs: &[AttrId]) -> bool {
        let cols: Vec<usize> = attrs.iter().map(|&a| self.col(a)).collect();
        let mut seen: std::collections::HashSet<Vec<i64>> = std::collections::HashSet::new();
        let mut prev: Option<Vec<i64>> = None;
        for row in &self.rows {
            let key: Vec<i64> = cols.iter().map(|&c| row[c]).collect();
            if prev.as_ref() == Some(&key) {
                continue;
            }
            if !seen.insert(key.clone()) {
                return false; // the group resumed after a break
            }
            prev = Some(key);
        }
        true
    }
}

/// The constant every `attr = const` predicate compares against (the
/// synthetic value domain is small so a fixed constant always matches
/// some rows).
pub const CONST_VALUE: i64 = 0;

/// Generates one synthetic table per query relation: `rows_per_rel`
/// rows, values drawn from `0..domain` (small, to exercise duplicate /
/// tie handling in the ordering semantics).
pub fn synthetic_data(
    catalog: &Catalog,
    query: &Query,
    rows_per_rel: usize,
    domain: i64,
    seed: u64,
) -> Vec<Table> {
    let mut rng = StdRng::seed_from_u64(seed);
    query
        .relations
        .iter()
        .map(|&rel| {
            let attrs = catalog.relation(rel).attrs.clone();
            let rows = (0..rows_per_rel)
                .map(|_| attrs.iter().map(|_| rng.gen_range(0..domain)).collect())
                .collect();
            Table { attrs, rows }
        })
        .collect()
}

/// Executes the plan rooted at `plan` and returns its output table.
/// Panics on a malformed plan; harnesses that must survive a bad plan
/// use [`try_execute`].
pub fn execute<S: Copy>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Table],
) -> Table {
    try_execute(arena, plan, catalog, query, data).unwrap_or_else(|e| panic!("{e}"))
}

/// Executes the plan rooted at `plan`, reporting a malformed attribute
/// reference as an [`ExecError`] naming the offending plan node and
/// attribute instead of aborting the process.
pub fn try_execute<S: Copy>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Table],
) -> Result<Table, ExecError> {
    run(arena, plan, catalog, query, &JoinGraph::new(query), data)
}

/// [`try_execute`] with the query's join graph built once.
fn run<S: Copy>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    graph: &JoinGraph,
    data: &[Table],
) -> Result<Table, ExecError> {
    let node = &arena.node(plan);
    let locate = |cause: MissingAttr| ExecError {
        plan,
        op: node.op.name(),
        cause,
    };
    let table = match &node.op {
        PlanOp::Scan { qrel } => {
            apply_selections(data[*qrel].clone(), query, *qrel).map_err(locate)?
        }
        PlanOp::IndexScan { qrel, index } => {
            let rel = query.relations[*qrel];
            let key = catalog.relation(rel).indexes[*index].key.clone();
            let mut t = data[*qrel].clone();
            sort_table(&mut t, &key).map_err(locate)?;
            apply_selections(t, query, *qrel).map_err(locate)?
        }
        PlanOp::Sort { input, key } => {
            let mut t = run(arena, *input, catalog, query, graph, data)?;
            sort_table(&mut t, key).map_err(locate)?;
            t
        }
        PlanOp::PartialSort { input, key, .. } => {
            // Physically a block-wise sort (the head groups are already
            // adjacent); the output tuple sequence equals a full stable
            // sort by the key, which is what the executor checks.
            let mut t = run(arena, *input, catalog, query, graph, data)?;
            sort_table(&mut t, key).map_err(locate)?;
            t
        }
        PlanOp::MergeJoin { left, right, .. }
        | PlanOp::HashJoin { left, right, .. }
        | PlanOp::NestedLoopJoin { left, right } => {
            let lt = run(arena, *left, catalog, query, graph, data)?;
            let rt = run(arena, *right, catalog, query, graph, data)?;
            let (lmask, rmask) = (&arena.node(*left).mask, &arena.node(*right).mask);
            join(&lt, &rt, query, graph, lmask, rmask).map_err(locate)?
        }
        PlanOp::GroupJoin { left, right, .. } => {
            // Join fused with the final aggregation: the probe side's
            // groups are adjacent, so one streaming pass per group.
            let lt = run(arena, *left, catalog, query, graph, data)?;
            let rt = run(arena, *right, catalog, query, graph, data)?;
            let (lmask, rmask) = (&arena.node(*left).mask, &arena.node(*right).mask);
            let joined = join(&lt, &rt, query, graph, lmask, rmask).map_err(locate)?;
            aggregate(joined, query.effective_group_by(), true).map_err(locate)?
        }
        PlanOp::StreamAgg { input, key, .. } => {
            let t = run(arena, *input, catalog, query, graph, data)?;
            aggregate(t, key, true).map_err(locate)?
        }
        PlanOp::HashAgg { input, key, .. } => {
            let t = run(arena, *input, catalog, query, graph, data)?;
            aggregate(t, key, false).map_err(locate)?
        }
        PlanOp::HashGroup { input, key } => {
            let t = run(arena, *input, catalog, query, graph, data)?;
            hash_group(t, key).map_err(locate)?
        }
    };
    Ok(table)
}

/// Applies the relation's constant and filter predicates (constants
/// compare against [`CONST_VALUE`]; filters keep the smaller half of the
/// domain, a stand-in for a range predicate).
fn apply_selections(mut t: Table, query: &Query, qrel: usize) -> Result<Table, MissingAttr> {
    for c in &query.constants {
        if query.owner(c.attr) == qrel {
            let col = t.try_col(c.attr)?;
            t.rows.retain(|r| r[col] == CONST_VALUE);
        }
    }
    for f in &query.filters {
        if query.owner(f.attr) == qrel {
            let col = t.try_col(f.attr)?;
            t.rows.retain(|r| r[col] <= 1);
        }
    }
    Ok(t)
}

/// Stable sort by the key attributes.
fn sort_table(t: &mut Table, key: &[AttrId]) -> Result<(), MissingAttr> {
    let cols: Vec<usize> = key
        .iter()
        .map(|&a| t.try_col(a))
        .collect::<Result<_, _>>()?;
    t.rows.sort_by(|x, y| {
        for &c in &cols {
            match x[c].cmp(&y[c]) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(())
}

/// Left-order-preserving join evaluating every connecting equi-join
/// predicate between the two relation sets (the planner applies them
/// all at this operator too).
fn join(
    lt: &Table,
    rt: &Table,
    query: &Query,
    graph: &JoinGraph,
    lmask: &BitSet,
    rmask: &BitSet,
) -> Result<Table, MissingAttr> {
    // Resolve every edge's columns up front so a bad reference surfaces
    // as an error, not mid-loop.
    let mut edge_cols = Vec::new();
    for e in graph.connecting_edges(lmask, rmask) {
        let j = &query.joins[e];
        let (la, ra) = if lmask.contains(query.owner(j.left)) {
            (j.left, j.right)
        } else {
            (j.right, j.left)
        };
        edge_cols.push((lt.try_col(la)?, rt.try_col(ra)?));
    }
    let mut attrs = lt.attrs.clone();
    attrs.extend_from_slice(&rt.attrs);
    let mut rows = Vec::new();
    for lrow in &lt.rows {
        for rrow in &rt.rows {
            let matches = edge_cols.iter().all(|&(lc, rc)| lrow[lc] == rrow[rc]);
            if matches {
                let mut row = lrow.clone();
                row.extend_from_slice(rrow);
                rows.push(row);
            }
        }
    }
    Ok(Table { attrs, rows })
}

/// Group-by over `group` attributes. Streaming keeps first-seen group
/// order (valid only on grouped input — which the planner guarantees);
/// hashing emits groups in a deterministically scrambled order so no
/// ordering claim can survive it by luck.
fn aggregate(t: Table, group: &[AttrId], streaming: bool) -> Result<Table, MissingAttr> {
    let cols: Vec<usize> = group
        .iter()
        .map(|&a| t.try_col(a))
        .collect::<Result<_, _>>()?;
    let mut seen: FxHashMap<Vec<i64>, usize> = FxHashMap::default();
    let mut out_rows: Vec<Vec<i64>> = Vec::new();
    for row in &t.rows {
        let key: Vec<i64> = cols.iter().map(|&c| row[c]).collect();
        if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(key) {
            e.insert(out_rows.len());
            out_rows.push(row.clone());
        }
    }
    if !streaming {
        // Deterministic scramble (reverse + odd/even interleave).
        let mut scrambled: Vec<Vec<i64>> = Vec::with_capacity(out_rows.len());
        let mut rev: Vec<Vec<i64>> = out_rows.into_iter().rev().collect();
        let mut i = 0;
        while i < rev.len() {
            scrambled.push(std::mem::take(&mut rev[i]));
            i += 2;
        }
        let mut i = 1;
        while i < rev.len() {
            scrambled.push(std::mem::take(&mut rev[i]));
            i += 2;
        }
        out_rows = scrambled;
    }
    Ok(Table {
        attrs: t.attrs,
        rows: out_rows,
    })
}

/// The hash-group enforcer: rearranges rows so tuples equal on `key`
/// become adjacent. Blocks keep the rows' relative order, but the block
/// sequence is deterministically scrambled (like the hash aggregate) so
/// no *ordering* claim can survive the operator by luck.
fn hash_group(t: Table, key: &[AttrId]) -> Result<Table, MissingAttr> {
    let cols: Vec<usize> = key
        .iter()
        .map(|&a| t.try_col(a))
        .collect::<Result<_, _>>()?;
    let mut block_of: FxHashMap<Vec<i64>, usize> = FxHashMap::default();
    let mut blocks: Vec<Vec<Vec<i64>>> = Vec::new();
    for row in &t.rows {
        let key: Vec<i64> = cols.iter().map(|&c| row[c]).collect();
        let idx = *block_of.entry(key).or_insert_with(|| {
            blocks.push(Vec::new());
            blocks.len() - 1
        });
        blocks[idx].push(row.clone());
    }
    // Deterministic scramble of the block order (reverse + interleave).
    let mut rev: Vec<Vec<Vec<i64>>> = blocks.into_iter().rev().collect();
    let mut rows: Vec<Vec<i64>> = Vec::with_capacity(t.rows.len());
    let mut i = 0;
    while i < rev.len() {
        rows.extend(std::mem::take(&mut rev[i]));
        i += 2;
    }
    let mut i = 1;
    while i < rev.len() {
        rows.extend(std::mem::take(&mut rev[i]));
        i += 2;
    }
    Ok(Table {
        attrs: t.attrs,
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);

    fn table(rows: &[[i64; 2]]) -> Table {
        Table {
            attrs: vec![A, B],
            rows: rows.iter().map(|r| r.to_vec()).collect(),
        }
    }

    #[test]
    fn satisfies_ordering_is_lexicographic() {
        let t = table(&[[1, 5], [1, 7], [2, 0]]);
        assert!(t.satisfies_ordering(&[A]));
        assert!(t.satisfies_ordering(&[A, B]));
        assert!(!t.satisfies_ordering(&[B]));
        assert!(t.satisfies_ordering(&[]));
    }

    #[test]
    fn ties_do_not_break_ordering() {
        let t = table(&[[1, 1], [1, 1], [1, 2]]);
        assert!(t.satisfies_ordering(&[A, B]));
        assert!(t.satisfies_ordering(&[B, A]));
    }

    #[test]
    fn sort_is_stable_and_correct() {
        let mut t = table(&[[2, 1], [1, 9], [1, 3], [2, 0]]);
        sort_table(&mut t, &[A]).unwrap();
        assert!(t.satisfies_ordering(&[A]));
        // Stability: [1,9] stays before [1,3] (both key 1).
        assert_eq!(t.rows[0], vec![1, 9]);
        assert_eq!(t.rows[1], vec![1, 3]);
    }

    #[test]
    fn hash_aggregate_scramble_breaks_order() {
        let t = table(&[[1, 0], [2, 0], [3, 0], [4, 0], [5, 0]]);
        let agg = aggregate(t, &[A], false).unwrap();
        assert_eq!(agg.rows.len(), 5);
        assert!(!agg.satisfies_ordering(&[A]), "scramble must destroy order");
    }

    #[test]
    fn streaming_aggregate_preserves_order() {
        let t = table(&[[1, 0], [1, 1], [2, 0], [3, 0], [3, 2]]);
        let agg = aggregate(t, &[A], true).unwrap();
        assert_eq!(agg.rows.len(), 3);
        assert!(agg.satisfies_ordering(&[A]));
    }

    #[test]
    fn satisfies_grouping_checks_adjacency() {
        let grouped = table(&[[2, 0], [2, 1], [1, 0], [3, 0]]);
        assert!(grouped.satisfies_grouping(&[A]));
        assert!(!grouped.satisfies_ordering(&[A]), "grouped ≠ sorted");
        let broken = table(&[[2, 0], [1, 0], [2, 1]]);
        assert!(!broken.satisfies_grouping(&[A]));
        assert!(grouped.satisfies_grouping(&[]));
    }

    #[test]
    fn hash_group_makes_groups_adjacent_without_sorting() {
        let t = table(&[[1, 0], [2, 0], [1, 1], [3, 0], [2, 1], [1, 2]]);
        let g = hash_group(t, &[A]).unwrap();
        assert_eq!(g.rows.len(), 6, "no rows lost");
        assert!(g.satisfies_grouping(&[A]));
        assert!(!g.satisfies_ordering(&[A]), "scramble must destroy order");
        // Rows within a block keep their relative order.
        let ones: Vec<i64> = g.rows.iter().filter(|r| r[0] == 1).map(|r| r[1]).collect();
        assert_eq!(ones, vec![0, 1, 2]);
    }

    #[test]
    fn streaming_aggregate_works_on_grouped_input() {
        let t = table(&[[2, 0], [2, 1], [1, 0], [3, 0]]);
        let agg = aggregate(t, &[A], true).unwrap();
        assert_eq!(agg.rows.len(), 3, "one row per adjacent group");
        assert!(agg.satisfies_grouping(&[A]));
    }
}
