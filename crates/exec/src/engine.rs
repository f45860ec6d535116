//! The morsel-driven vectorized engine.
//!
//! Every operator works vector-at-a-time over [`ColTable`] batches and
//! parallelizes by *morsel*: the input row range is cut into fixed-size
//! morsels ([`ofw_common::morsel_ranges`] — never a function of the
//! thread count), each morsel is processed as one task on an
//! [`OrderedExecutor`], and the per-morsel results are merged in morsel
//! index order. Scheduling freedom lives entirely below that seam, so
//! the output is **byte-identical at 1, 2 or 8 pool threads** — the
//! executor-level twin of the parallel DP's determinism story.
//!
//! Operator semantics replicate the legacy tuple-at-a-time oracle
//! (`ofw_plangen::exec`) exactly on the attribute columns — including
//! the hash aggregate's deliberate deterministic group-order scramble —
//! and extend it with real aggregate *values*: weight and accumulator
//! columns (see [`crate::batch`]) implement Yan/Larson eager aggregation
//! so a DP plan with partial aggregates below joins computes the same
//! sums, counts, mins and maxes as the canonical root-only-aggregation
//! reference plan.

use crate::batch::{ColRef, ColTable};
use crate::hash::{hash_rows, ChainTable, GroupTable};
use ofw_catalog::{AttrId, Catalog};
use ofw_common::{morsel_ranges, OrderedExecutor, SerialExecutor};
use ofw_obs::Trace;
use ofw_plangen::exec::CONST_VALUE;
use ofw_plangen::plan::PlanArena;
use ofw_plangen::{PlanId, PlanOp};
use ofw_query::{AggFunc, JoinGraph, Query};
use std::collections::BTreeMap;
use std::ops::Range;

/// Default rows per morsel — the unit of parallel work. Fixed, so the
/// morsel partition (and therefore every merge order) is independent of
/// the thread count.
pub const MORSEL_ROWS: usize = 4096;

/// Execution tuning knobs.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Rows per morsel. Must not be derived from the thread count —
    /// that would break the byte-identical-across-threads contract.
    pub morsel_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            morsel_rows: MORSEL_ROWS,
        }
    }
}

/// Deterministic per-operator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    /// Morsel batches the operator processed.
    pub batches: u64,
    /// Rows the operator produced.
    pub rows: u64,
}

/// Deterministic execution counters: identical at any thread count and
/// on any machine, like the plan generator's `plans`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total morsel batches across all operators.
    pub morsels: u64,
    /// Rows produced by the root operator.
    pub rows_out: u64,
    /// Per-operator batch/row counts, keyed by [`PlanOp::name`]
    /// (`BTreeMap` so iteration order is deterministic).
    pub ops: BTreeMap<&'static str, OpStat>,
}

impl ExecStats {
    fn record(&mut self, op: &'static str, batches: u64, rows: u64) {
        self.morsels += batches;
        let e = self.ops.entry(op).or_default();
        e.batches += batches;
        e.rows += rows;
    }
}

/// Execution failure, located: the offending plan node, operator and
/// (when the failure is an attribute lookup) attribute — what a
/// differential-harness failure reports instead of aborting the whole
/// test binary.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecError {
    /// The plan node whose operator failed.
    pub plan: PlanId,
    /// The failing operator's display name.
    pub op: &'static str,
    /// The attribute that could not be resolved, if that is the cause.
    pub attr: Option<AttrId>,
    /// Human-readable description of the failure.
    pub detail: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan {:?} ({}): {}", self.plan, self.op, self.detail)?;
        if let Some(a) = self.attr {
            write!(f, " (attribute {a:?})")?;
        }
        Ok(())
    }
}

impl std::error::Error for ExecError {}

/// Executes the plan rooted at `plan` over per-relation base columns
/// (`data[qrel][attr][row]`, attributes in catalog declaration order),
/// morsel-parallel on `pool`. Returns the output batch and the
/// deterministic execution counters.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan<S: Copy, E: OrderedExecutor>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
    pool: &E,
    opts: &ExecOptions,
    trace: &Trace,
) -> Result<(ColTable, ExecStats), ExecError> {
    let mut span = trace.span("execute");
    span.label(pool.label());
    let mut eng = Engine {
        arena,
        catalog,
        query,
        graph: JoinGraph::new(query),
        data,
        pool,
        morsel: opts.morsel_rows.max(1),
        stats: ExecStats::default(),
    };
    let out = eng.exec(plan)?;
    eng.stats.rows_out = out.num_rows() as u64;
    span.count("rows_out", eng.stats.rows_out);
    span.count("morsels", eng.stats.morsels);
    Ok((out, eng.stats))
}

/// [`execute_plan`] on the inline serial executor with default options
/// and no tracing — the convenience entry tests reach for.
pub fn execute_serial<S: Copy>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
) -> Result<(ColTable, ExecStats), ExecError> {
    execute_plan(
        arena,
        plan,
        catalog,
        query,
        data,
        &SerialExecutor,
        &ExecOptions::default(),
        &Trace::disabled(),
    )
}

/// The legacy hash-aggregate / hash-group scramble: reverse the list,
/// then interleave even and odd positions. Deterministic, order-
/// destroying — so no ordering claim can survive a hash operator by
/// luck — and replicated here exactly so vectorized output stays
/// byte-identical with the tuple-at-a-time oracle.
fn scramble_order(n: usize) -> Vec<usize> {
    let rev: Vec<usize> = (0..n).rev().collect();
    let mut out = Vec::with_capacity(n);
    out.extend(rev.iter().copied().step_by(2));
    out.extend(rev.iter().copied().skip(1).step_by(2));
    out
}

/// Cuts `0..len` into fixed-size morsels and runs `f` per morsel on the
/// pool; results come back in morsel index order (the determinism seam).
fn run_morsels<R: Send, E: OrderedExecutor>(
    pool: &E,
    len: usize,
    morsel: usize,
    f: &(dyn Fn(Range<usize>) -> R + Sync),
) -> (Vec<R>, u64) {
    let ranges = morsel_ranges(len, morsel);
    let n = ranges.len() as u64;
    let out = pool.run_ordered(ranges.len(), &|i| f(ranges[i].clone()));
    (out, n)
}

/// Concatenates per-morsel column chunks in morsel order.
fn concat_columns(schema: Vec<ColRef>, total: usize, chunks: Vec<Vec<Vec<i64>>>) -> ColTable {
    let mut cols: Vec<Vec<i64>> = schema.iter().map(|_| Vec::with_capacity(total)).collect();
    for chunk in chunks {
        for (i, c) in chunk.into_iter().enumerate() {
            cols[i].extend(c);
        }
    }
    ColTable::new(schema, cols)
}

/// Morsel-parallel row gather: `out[i] = t[idx[i]]`, all columns.
fn gather_par<E: OrderedExecutor>(
    pool: &E,
    morsel: usize,
    t: &ColTable,
    idx: &[u32],
) -> (ColTable, u64) {
    let (chunks, batches) = run_morsels(pool, idx.len(), morsel, &|r| {
        t.cols
            .iter()
            .map(|c| idx[r.clone()].iter().map(|&i| c[i as usize]).collect())
            .collect::<Vec<Vec<i64>>>()
    });
    (concat_columns(t.schema.clone(), idx.len(), chunks), batches)
}

/// Compares two rows on a column list.
fn cmp_rows(cols: &[&[i64]], a: u32, b: u32) -> std::cmp::Ordering {
    for c in cols {
        match c[a as usize].cmp(&c[b as usize]) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

/// Batches consecutive `runs` into tasks of at least `morsel` rows (the
/// last may be shorter), as ranges of run indices: a fixed-morsel run is
/// its own task, thousands of tiny head blocks share one.
fn batch_runs(runs: &[Range<usize>], morsel: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut from = 0;
    for (i, run) in runs.iter().enumerate() {
        if run.end - runs[from].start >= morsel {
            out.push(from..i + 1);
            from = i + 1;
        }
    }
    if from < runs.len() {
        out.push(from..runs.len());
    }
    out
}

/// Merges the sorted runs of `idx` into the global stable sort order.
/// `runs` cuts `idx` into adjacent slices, run `i` holding exactly the
/// row indices `runs[i]` sorted by `(key, index)`. Rounds of pairwise
/// merges of *adjacent* runs: every index of the left run is below every
/// index of the right one, so taking the left element on a key tie is
/// the `(key, index)` order. That order is total, so the result is the
/// one sorted sequence whatever the run partition was — fixed morsels
/// (full sort) or head-group blocks (partial sort).
fn merge_sorted_runs(cols: &[&[i64]], mut idx: Vec<u32>, mut runs: Vec<Range<usize>>) -> Vec<u32> {
    let mut buf = vec![0u32; if runs.len() > 1 { idx.len() } else { 0 }];
    while runs.len() > 1 {
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        for pair in runs.chunks(2) {
            // An odd last run merges with nothing: `right` is empty.
            let whole = pair[0].start..pair[pair.len() - 1].end;
            let (left, right) = idx[whole.clone()].split_at(pair[0].len());
            let (mut i, mut j) = (0, 0);
            for slot in &mut buf[whole.clone()] {
                let take_right = i == left.len()
                    || (j < right.len() && cmp_rows(cols, right[j], left[i]).is_lt());
                if take_right {
                    *slot = right[j];
                    j += 1;
                } else {
                    *slot = left[i];
                    i += 1;
                }
            }
            merged.push(whole);
        }
        std::mem::swap(&mut idx, &mut buf);
        runs = merged;
    }
    idx
}

/// Maximal consecutive runs of rows equal on `cols` — the blocks a
/// partial sort moves as units.
fn head_blocks(cols: &[&[i64]], n: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for r in 1..n {
        if cols.iter().any(|c| c[r] != c[r - 1]) {
            out.push(start..r);
            start = r;
        }
    }
    if n > 0 {
        out.push(start..n);
    }
    out
}

/// What a join pair-list materialization writes into one output column:
/// the product of a left column read at the pair's left index and a
/// right column read at its right index, an absent factor being 1. A
/// plain gather has one factor; a weight, or a `sum` accumulator scaled
/// by the partner side's weight, has two.
type OutSrc<'a> = (Option<&'a [i64]>, Option<&'a [i64]>);

enum JoinKind {
    Merge(usize),
    Hash,
    NestedLoop,
}

/// How an aggregate emits one output accumulator column.
enum Emit {
    /// `count`: the group's weight sum *is* the value.
    FromWeight,
    /// A fold slot in the group state (`sum`/`min`/`max`).
    Fold(usize),
}

/// One fold slot: function plus where a row's contribution comes from.
struct FoldSpec {
    func: AggFunc,
    /// Input accumulator column for this call, if materialized below.
    acc: Option<usize>,
    /// Raw input attribute column, the fallback source.
    raw: Option<usize>,
}

fn combine(func: AggFunc, a: i64, b: i64) -> i64 {
    match func {
        AggFunc::Sum | AggFunc::Count => a + b,
        AggFunc::Min => a.min(b),
        AggFunc::Max => a.max(b),
    }
}

/// Aggregation state of all groups, flat, indexed by the dense group id
/// of a [`GroupTable`] (which holds each group's representative row).
#[derive(Default)]
struct GroupState {
    /// Per group: Σ weight — the number of logical tuples in the group.
    weight: Vec<i64>,
    /// Fold values, `folds[g * specs.len() + slot]`.
    folds: Vec<i64>,
}

impl GroupState {
    /// Adds `w` logical tuples with fold values `val(slot)` to group `g`
    /// — appended when `new` (ids are dense and first-seen, so `g` is
    /// then the next index), combined otherwise.
    fn add(&mut self, specs: &[FoldSpec], g: usize, new: bool, w: i64, val: impl Fn(usize) -> i64) {
        if new {
            self.weight.push(w);
            self.folds.extend((0..specs.len()).map(val));
        } else {
            self.weight[g] += w;
            let folds = &mut self.folds[g * specs.len()..][..specs.len()];
            for (slot, (f, s)) in folds.iter_mut().zip(specs).enumerate() {
                *f = combine(s.func, *f, val(slot));
            }
        }
    }
}

struct Engine<'a, S, E: OrderedExecutor> {
    arena: &'a PlanArena<S>,
    catalog: &'a Catalog,
    query: &'a Query,
    /// The query's crossing-edge index, built once per run.
    graph: JoinGraph,
    data: &'a [Vec<Vec<i64>>],
    pool: &'a E,
    morsel: usize,
    stats: ExecStats,
}

impl<S: Copy, E: OrderedExecutor> Engine<'_, S, E> {
    fn err(
        &self,
        plan: PlanId,
        op: &'static str,
        attr: Option<AttrId>,
        detail: String,
    ) -> ExecError {
        ExecError {
            plan,
            op,
            attr,
            detail,
        }
    }

    fn attr_col(
        &self,
        plan: PlanId,
        op: &'static str,
        t: &ColTable,
        attr: AttrId,
    ) -> Result<usize, ExecError> {
        t.col_index(ColRef::Attr(attr)).ok_or_else(|| {
            self.err(
                plan,
                op,
                Some(attr),
                format!(
                    "attribute {} not in input schema {:?}",
                    self.catalog.attr_name(attr),
                    t.schema
                ),
            )
        })
    }

    fn exec(&mut self, plan: PlanId) -> Result<ColTable, ExecError> {
        let op = self.arena.node(plan).op.clone();
        match op {
            PlanOp::Scan { qrel } => self.scan(plan, qrel),
            PlanOp::IndexScan { qrel, index } => self.index_scan(plan, qrel, index),
            PlanOp::Sort { input, key } => {
                let t = self.exec(input)?;
                self.sort(plan, "Sort", t, &key, None)
            }
            PlanOp::PartialSort { input, key, head } => {
                let t = self.exec(input)?;
                self.sort(plan, "PartialSort", t, &key, Some(&head))
            }
            PlanOp::MergeJoin { left, right, edge } => {
                self.join(plan, "MergeJoin", left, right, JoinKind::Merge(edge))
            }
            PlanOp::HashJoin { left, right, .. } => {
                self.join(plan, "HashJoin", left, right, JoinKind::Hash)
            }
            PlanOp::NestedLoopJoin { left, right } => {
                self.join(plan, "NestedLoopJoin", left, right, JoinKind::NestedLoop)
            }
            PlanOp::GroupJoin { left, right, .. } => {
                let joined = self.join(plan, "GroupJoin", left, right, JoinKind::Hash)?;
                let key = self.query.effective_group_by().to_vec();
                self.aggregate(plan, "GroupJoin", joined, &key, false, false)
            }
            PlanOp::StreamAgg {
                input,
                key,
                partial,
            } => {
                let t = self.exec(input)?;
                self.aggregate(plan, "StreamAgg", t, &key, partial, false)
            }
            PlanOp::HashAgg {
                input,
                key,
                partial,
            } => {
                let t = self.exec(input)?;
                self.aggregate(plan, "HashAgg", t, &key, partial, true)
            }
            PlanOp::HashGroup { input, key } => {
                let t = self.exec(input)?;
                self.hash_group(plan, t, &key)
            }
        }
    }

    /// Relation `qrel`'s base columns as a table, checked against the
    /// catalog: base data is outside input, so a wrong shape is a located
    /// error, not a panic in [`ColTable::new`].
    fn base_table(
        &self,
        plan: PlanId,
        op: &'static str,
        qrel: usize,
    ) -> Result<ColTable, ExecError> {
        let rel = self.catalog.relation(self.query.relations[qrel]);
        let base = self
            .data
            .get(qrel)
            .ok_or_else(|| self.err(plan, op, None, format!("no base data for {}", rel.name)))?;
        if base.len() != rel.attrs.len() {
            return Err(self.err(
                plan,
                op,
                None,
                format!(
                    "base data for relation {} has {} columns, catalog declares {}",
                    rel.name,
                    base.len(),
                    rel.attrs.len()
                ),
            ));
        }
        if base.iter().any(|c| c.len() != base[0].len()) {
            return Err(self.err(
                plan,
                op,
                None,
                format!("base data for relation {} has ragged columns", rel.name),
            ));
        }
        let schema: Vec<ColRef> = rel.attrs.iter().map(|&a| ColRef::Attr(a)).collect();
        Ok(ColTable::new(schema, base.clone()))
    }

    /// Heap scan: base columns in insertion order, then the relation's
    /// constant (`= CONST_VALUE`) and filter (`≤ 1`) predicates, applied
    /// vectorized per morsel.
    fn scan(&mut self, plan: PlanId, qrel: usize) -> Result<ColTable, ExecError> {
        let t = self.base_table(plan, "Scan", qrel)?;
        self.selections(plan, qrel, t)
    }

    /// Index scan: stable sort by the index key, then the selections —
    /// the tuple order the planner models for an ordered scan.
    fn index_scan(
        &mut self,
        plan: PlanId,
        qrel: usize,
        index: usize,
    ) -> Result<ColTable, ExecError> {
        let t = self.base_table(plan, "IndexScan", qrel)?;
        let rel = self.query.relations[qrel];
        let key = self.catalog.relation(rel).indexes[index].key.clone();
        let sorted = self.sort(plan, "IndexScan", t, &key, None)?;
        self.selections(plan, qrel, sorted)
    }

    fn selections(
        &mut self,
        plan: PlanId,
        qrel: usize,
        t: ColTable,
    ) -> Result<ColTable, ExecError> {
        // (column, is_constant): constants keep `== CONST_VALUE`,
        // filters keep `<= 1` — the legacy oracle's predicate stand-ins.
        let mut preds: Vec<(usize, bool)> = Vec::new();
        for c in &self.query.constants {
            if self.query.owner(c.attr) == qrel {
                preds.push((self.attr_col(plan, "Scan", &t, c.attr)?, true));
            }
        }
        for f in &self.query.filters {
            if self.query.owner(f.attr) == qrel {
                preds.push((self.attr_col(plan, "Scan", &t, f.attr)?, false));
            }
        }
        let n = t.num_rows();
        if preds.is_empty() {
            self.stats
                .record("Scan", morsel_ranges(n, self.morsel).len() as u64, n as u64);
            return Ok(t);
        }
        let (chunks, batches) = run_morsels(self.pool, n, self.morsel, &|range| {
            let mut keep: Vec<u32> = Vec::new();
            for r in range {
                let ok = preds.iter().all(|&(c, is_const)| {
                    let v = t.cols[c][r];
                    if is_const {
                        v == CONST_VALUE
                    } else {
                        v <= 1
                    }
                });
                if ok {
                    keep.push(r as u32);
                }
            }
            keep
        });
        let idx: Vec<u32> = chunks.concat();
        let (out, gb) = gather_par(self.pool, self.morsel, &t, &idx);
        self.stats
            .record("Scan", batches + gb, out.num_rows() as u64);
        Ok(out)
    }

    /// Stable sort by `key`. With `head` (the partial-sort enforcer) the
    /// initial runs are the input's already-adjacent head-group blocks —
    /// each block is tiny, so the per-run sort is the
    /// `O(n · log(n/groups))` work the cost model charges; without, the
    /// runs are fixed morsels. Either way the `(key, index)` merge of
    /// sorted runs reproduces exactly the global stable sort, which is
    /// how the partial strategy stays byte-identical with a full sort.
    fn sort(
        &mut self,
        plan: PlanId,
        op: &'static str,
        t: ColTable,
        key: &[AttrId],
        head: Option<&[AttrId]>,
    ) -> Result<ColTable, ExecError> {
        let mut key_cols: Vec<&[i64]> = Vec::with_capacity(key.len());
        for &a in key {
            let c = self.attr_col(plan, op, &t, a)?;
            key_cols.push(&t.cols[c]);
        }
        let n = t.num_rows();
        let runs: Vec<Range<usize>> = match head {
            Some(head_attrs) => {
                // The key prefix the input's blocks already group on.
                let k = key.iter().take_while(|a| head_attrs.contains(a)).count();
                if k == 0 {
                    morsel_ranges(n, self.morsel)
                } else {
                    head_blocks(&key_cols[..k], n)
                }
            }
            None => morsel_ranges(n, self.morsel),
        };
        let key_cols_ref = &key_cols;
        let tasks = batch_runs(&runs, self.morsel);
        let chunks: Vec<Vec<u32>> = self.pool.run_ordered(tasks.len(), &|i| {
            let task = &runs[tasks[i].clone()];
            let base = task[0].start;
            let mut idx: Vec<u32> = (base as u32..task[task.len() - 1].end as u32).collect();
            for run in task {
                idx[run.start - base..run.end - base]
                    .sort_unstable_by(|&a, &b| cmp_rows(key_cols_ref, a, b).then(a.cmp(&b)));
            }
            idx
        });
        // A batch is a sorted run, however the runs were scheduled.
        let batches = runs.len() as u64;
        let idx = merge_sorted_runs(&key_cols, chunks.concat(), runs);
        let (out, gb) = gather_par(self.pool, self.morsel, &t, &idx);
        self.stats.record(op, batches + gb, out.num_rows() as u64);
        Ok(out)
    }

    fn join(
        &mut self,
        plan: PlanId,
        op: &'static str,
        left: PlanId,
        right: PlanId,
        kind: JoinKind,
    ) -> Result<ColTable, ExecError> {
        let lt = self.exec(left)?;
        let rt = self.exec(right)?;
        let lmask = &self.arena.node(left).mask;
        let rmask = &self.arena.node(right).mask;

        // Resolve every connecting equi-join predicate's columns — the
        // planner applies them all at this operator, so the executor
        // must too.
        let mut edges: Vec<(usize, usize, usize)> = Vec::new(); // (edge, lcol, rcol)
        for e in self.graph.connecting_edges(lmask, rmask) {
            let j = &self.query.joins[e];
            let (la, ra) = if lmask.contains(self.query.owner(j.left)) {
                (j.left, j.right)
            } else {
                (j.right, j.left)
            };
            let lc = self.attr_col(plan, op, &lt, la)?;
            let rc = self.attr_col(plan, op, &rt, ra)?;
            edges.push((e, lc, rc));
        }

        // Emit (left, right) row pairs in the legacy order: left rows
        // outer, matching right rows in right-table order.
        let (pair_chunks, batches) = match kind {
            JoinKind::Hash => {
                let lkeys: Vec<&[i64]> = edges.iter().map(|e| &lt.cols[e.1][..]).collect();
                let rkeys: Vec<&[i64]> = edges.iter().map(|e| &rt.cols[e.2][..]).collect();
                let table = ChainTable::build(&hash_rows(&rkeys, 0..rt.num_rows()));
                run_morsels(self.pool, lt.num_rows(), self.morsel, &|range| {
                    let hashes = hash_rows(&lkeys, range.clone());
                    let mut pairs: Vec<(u32, u32)> = Vec::new();
                    for (l, &h) in range.zip(&hashes) {
                        let matches = table.candidates(h).filter(|&r| {
                            lkeys
                                .iter()
                                .zip(&rkeys)
                                .all(|(lc, rc)| lc[l] == rc[r as usize])
                        });
                        pairs.extend(matches.map(|r| (l as u32, r)));
                    }
                    pairs
                })
            }
            JoinKind::Merge(edge) => {
                let &(_, plc, prc) =
                    edges.iter().find(|&&(e, _, _)| e == edge).ok_or_else(|| {
                        self.err(
                            plan,
                            op,
                            None,
                            format!("edge #{edge} does not connect the join's inputs"),
                        )
                    })?;
                let rcol: &[i64] = &rt.cols[prc];
                if rcol.windows(2).any(|w| w[0] > w[1]) {
                    return Err(self.err(
                        plan,
                        op,
                        None,
                        "merge join build side is not sorted on the join attribute".to_string(),
                    ));
                }
                let residual: Vec<(usize, usize)> = edges
                    .iter()
                    .filter(|&&(e, _, _)| e != edge)
                    .map(|&(_, lc, rc)| (lc, rc))
                    .collect();
                run_morsels(self.pool, lt.num_rows(), self.morsel, &|range| {
                    let mut pairs: Vec<(u32, u32)> = Vec::new();
                    for l in range {
                        let v = lt.cols[plc][l];
                        let lo = rcol.partition_point(|&x| x < v);
                        let hi = rcol.partition_point(|&x| x <= v);
                        for r in lo..hi {
                            if residual
                                .iter()
                                .all(|&(lc, rc)| lt.cols[lc][l] == rt.cols[rc][r])
                            {
                                pairs.push((l as u32, r as u32));
                            }
                        }
                    }
                    pairs
                })
            }
            JoinKind::NestedLoop => run_morsels(self.pool, lt.num_rows(), self.morsel, &|range| {
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                for l in range {
                    for r in 0..rt.num_rows() {
                        if edges
                            .iter()
                            .all(|&(_, lc, rc)| lt.cols[lc][l] == rt.cols[rc][r])
                        {
                            pairs.push((l as u32, r as u32));
                        }
                    }
                }
                pairs
            }),
        };
        let pairs: Vec<(u32, u32)> = pair_chunks.concat();
        let (out, gb) = self.join_output(&lt, &rt, &pairs);
        self.stats.record(op, batches + gb, out.num_rows() as u64);
        Ok(out)
    }

    /// Materializes a join pair list: attribute columns concatenate
    /// (left then right, like the legacy row concat), weights multiply,
    /// and `sum` accumulators scale by the partner side's weight — the
    /// invariant that makes eager partial aggregates compose (see
    /// [`crate::batch`]).
    fn join_output(&self, lt: &ColTable, rt: &ColTable, pairs: &[(u32, u32)]) -> (ColTable, u64) {
        let lw = lt.col(ColRef::Weight);
        let rw = rt.col(ColRef::Weight);
        let mut schema: Vec<ColRef> = Vec::new();
        let mut srcs: Vec<OutSrc> = Vec::new();
        for (c, col) in lt.schema.iter().zip(&lt.cols) {
            if let ColRef::Attr(_) = c {
                schema.push(*c);
                srcs.push((Some(col), None));
            }
        }
        for (c, col) in rt.schema.iter().zip(&rt.cols) {
            if let ColRef::Attr(_) = c {
                schema.push(*c);
                srcs.push((None, Some(col)));
            }
        }
        if lw.is_some() || rw.is_some() {
            schema.push(ColRef::Weight);
            srcs.push((lw, rw));
        }
        // Accumulators, merged across sides in call order; `sum`
        // accumulators scale by the partner weight, `min`/`max` pass
        // through.
        let is_sum = |call: usize| self.query.aggregates[call].func == AggFunc::Sum;
        let mut accs: Vec<(usize, OutSrc)> = Vec::new();
        for (c, col) in lt.schema.iter().zip(&lt.cols) {
            if let ColRef::Acc(call) = *c {
                accs.push((call, (Some(col), rw.filter(|_| is_sum(call)))));
            }
        }
        for (c, col) in rt.schema.iter().zip(&rt.cols) {
            if let ColRef::Acc(call) = *c {
                accs.push((call, (lw.filter(|_| is_sum(call)), Some(col))));
            }
        }
        accs.sort_by_key(|&(call, _)| call);
        for (call, src) in accs {
            schema.push(ColRef::Acc(call));
            srcs.push(src);
        }

        let (chunks, batches) = run_morsels(self.pool, pairs.len(), self.morsel, &|range| {
            let slice = &pairs[range];
            srcs.iter()
                .map(|&src| match src {
                    (Some(a), None) => slice.iter().map(|&(l, _)| a[l as usize]).collect(),
                    (None, Some(b)) => slice.iter().map(|&(_, r)| b[r as usize]).collect(),
                    (Some(a), Some(b)) => slice
                        .iter()
                        .map(|&(l, r)| a[l as usize] * b[r as usize])
                        .collect(),
                    (None, None) => vec![1; slice.len()],
                })
                .collect::<Vec<Vec<i64>>>()
        });
        (concat_columns(schema, pairs.len(), chunks), batches)
    }

    /// Group-by over `key`. Per-morsel first-seen group maps are merged
    /// serially in morsel order, which reproduces the legacy executor's
    /// single-pass first-seen group order exactly; a hash aggregate then
    /// applies the legacy scramble to the group order. A *partial*
    /// aggregate keeps all attribute columns (first row per group),
    /// materializes the weight column and one accumulator per aggregate
    /// call whose input it carries; the *final* aggregate emits one
    /// finalized accumulator per call and drops the weight.
    fn aggregate(
        &mut self,
        plan: PlanId,
        op: &'static str,
        t: ColTable,
        key: &[AttrId],
        partial: bool,
        scramble: bool,
    ) -> Result<ColTable, ExecError> {
        let mut key_cols: Vec<&[i64]> = Vec::with_capacity(key.len());
        for &a in key {
            key_cols.push(&t.cols[self.attr_col(plan, op, &t, a)?]);
        }
        let w_col = t.col_index(ColRef::Weight);

        // Which accumulator columns this aggregate emits, and where each
        // row's contribution comes from.
        let mut folds: Vec<FoldSpec> = Vec::new();
        let mut emits: Vec<(usize, Emit)> = Vec::new();
        for (call, agg) in self.query.aggregates.iter().enumerate() {
            let acc = t.col_index(ColRef::Acc(call));
            let raw = agg.input.and_then(|a| t.col_index(ColRef::Attr(a)));
            if agg.func == AggFunc::Count {
                if !partial {
                    emits.push((call, Emit::FromWeight));
                }
                // Partial counts live entirely in the weight column.
                continue;
            }
            if acc.is_none() && raw.is_none() {
                if partial {
                    // This side does not carry the call's input — an
                    // eager-count partial contributes weight only.
                    continue;
                }
                return Err(self.err(
                    plan,
                    op,
                    agg.input,
                    format!(
                        "final aggregate has neither an accumulator nor the raw input \
                         for {}(#{call})",
                        agg.func.name()
                    ),
                ));
            }
            emits.push((call, Emit::Fold(folds.len())));
            folds.push(FoldSpec {
                func: agg.func,
                acc,
                raw,
            });
        }

        // A row's contribution to fold slot `s`.
        let contrib = |s: &FoldSpec, r: usize| -> i64 {
            match s.func {
                AggFunc::Sum => match s.acc {
                    Some(c) => t.cols[c][r],
                    None => {
                        let w = w_col.map_or(1, |c| t.cols[c][r]);
                        t.cols[s.raw.expect("sum without source")][r] * w
                    }
                },
                AggFunc::Min | AggFunc::Max => {
                    let c = s.acc.or(s.raw).expect("min/max without source");
                    t.cols[c][r]
                }
                AggFunc::Count => unreachable!("count never folds"),
            }
        };

        // Per-morsel local aggregation, merged serially in morsel order
        // (= the global first-seen order of a single pass).
        let (chunks, batches): (Vec<(GroupTable, GroupState)>, u64) =
            run_morsels(self.pool, t.num_rows(), self.morsel, &|range| {
                let hashes = hash_rows(&key_cols, range.clone());
                let mut table = GroupTable::with_capacity(range.len());
                let mut state = GroupState::default();
                for (r, &h) in range.zip(&hashes) {
                    let (g, new) = table.find_or_insert(&key_cols, h, r as u32);
                    let w = w_col.map_or(1, |c| t.cols[c][r]);
                    state.add(&folds, g as usize, new, w, |slot| contrib(&folds[slot], r));
                }
                (table, state)
            });
        let mut table = GroupTable::with_capacity(chunks.iter().map(|(l, _)| l.len()).sum());
        let mut state = GroupState::default();
        let nf = folds.len();
        for (local, ls) in &chunks {
            for (lg, (hash, first)) in local.groups().enumerate() {
                let (g, new) = table.find_or_insert(&key_cols, hash, first);
                state.add(&folds, g as usize, new, ls.weight[lg], |slot| {
                    ls.folds[lg * nf + slot]
                });
            }
        }

        let order: Vec<usize> = if scramble {
            scramble_order(table.len())
        } else {
            (0..table.len()).collect()
        };

        // Attribute columns: the group's first row, in output order.
        let first_rows: Vec<u32> = order.iter().map(|&g| table.first_rows()[g]).collect();
        let attr_keep: Vec<usize> = t
            .schema
            .iter()
            .enumerate()
            .filter_map(|(i, c)| matches!(c, ColRef::Attr(_)).then_some(i))
            .collect();
        let mut schema: Vec<ColRef> = attr_keep.iter().map(|&i| t.schema[i]).collect();
        let mut cols: Vec<Vec<i64>> = attr_keep
            .iter()
            .map(|&c| first_rows.iter().map(|&r| t.cols[c][r as usize]).collect())
            .collect();
        if partial {
            schema.push(ColRef::Weight);
            cols.push(order.iter().map(|&g| state.weight[g]).collect());
        }
        for (call, emit) in emits {
            schema.push(ColRef::Acc(call));
            cols.push(match emit {
                Emit::FromWeight => order.iter().map(|&g| state.weight[g]).collect(),
                Emit::Fold(slot) => order.iter().map(|&g| state.folds[g * nf + slot]).collect(),
            });
        }
        let out = ColTable::new(schema, cols);
        self.stats.record(op, batches, out.num_rows() as u64);
        Ok(out)
    }

    /// The hash-grouping enforcer: rows equal on `key` become adjacent.
    /// Blocks keep row order, block order is deterministically scrambled
    /// — byte-identical with the legacy operator.
    fn hash_group(
        &mut self,
        plan: PlanId,
        t: ColTable,
        key: &[AttrId],
    ) -> Result<ColTable, ExecError> {
        let mut key_cols: Vec<&[i64]> = Vec::with_capacity(key.len());
        for &a in key {
            key_cols.push(&t.cols[self.attr_col(plan, "HashGroup", &t, a)?]);
        }
        // Per morsel: a local group table and every row's local group.
        let (chunks, batches) = run_morsels(self.pool, t.num_rows(), self.morsel, &|range| {
            let hashes = hash_rows(&key_cols, range.clone());
            let mut table = GroupTable::with_capacity(range.len());
            let gids: Vec<u32> = range
                .zip(&hashes)
                .map(|(r, &h)| table.find_or_insert(&key_cols, h, r as u32).0)
                .collect();
            (table, gids)
        });
        // Local ids renumbered in morsel order (= global first-seen
        // order): every row's global group, and the group sizes.
        let mut table = GroupTable::with_capacity(chunks.iter().map(|(l, _)| l.len()).sum());
        let mut gid: Vec<u32> = Vec::with_capacity(t.num_rows());
        let mut global: Vec<u32> = Vec::new();
        for (local, gids) in &chunks {
            global.clear();
            global.extend(
                local
                    .groups()
                    .map(|(hash, first)| table.find_or_insert(&key_cols, hash, first).0),
            );
            gid.extend(gids.iter().map(|&lg| global[lg as usize]));
        }
        // Counting sort into scrambled block order: group sizes become
        // block start offsets, then each row drops into its block's next
        // free slot — rows keep their order inside a block.
        let mut slot = vec![0u32; table.len()];
        for &g in &gid {
            slot[g as usize] += 1;
        }
        let mut at = 0;
        for b in scramble_order(table.len()) {
            at += std::mem::replace(&mut slot[b], at);
        }
        let mut idx = vec![0u32; gid.len()];
        for (r, &g) in gid.iter().enumerate() {
            idx[slot[g as usize] as usize] = r as u32;
            slot[g as usize] += 1;
        }
        let (out, gb) = gather_par(self.pool, self.morsel, &t, &idx);
        self.stats
            .record("HashGroup", batches + gb, out.num_rows() as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scramble_matches_the_legacy_reverse_interleave() {
        // Legacy: reverse [0..5] = [4,3,2,1,0]; evens then odds of the
        // reversed list = [4,2,0] ++ [3,1].
        assert_eq!(scramble_order(5), vec![4, 2, 0, 3, 1]);
        assert_eq!(scramble_order(0), Vec::<usize>::new());
        assert_eq!(scramble_order(1), vec![0]);
        assert_eq!(scramble_order(2), vec![1, 0]);
    }

    /// What `Engine::sort` does with a run partition: sort each run by
    /// `(key, index)`, then merge.
    fn sort_by_runs(cols: &[&[i64]], runs: Vec<Range<usize>>) -> Vec<u32> {
        let n = runs.last().map_or(0, |r| r.end);
        let mut idx: Vec<u32> = (0..n as u32).collect();
        for run in &runs {
            idx[run.clone()].sort_unstable_by(|&a, &b| cmp_rows(cols, a, b).then(a.cmp(&b)));
        }
        merge_sorted_runs(cols, idx, runs)
    }

    fn stable_sort(cols: &[&[i64]], n: usize) -> Vec<u32> {
        let mut expect: Vec<u32> = (0..n as u32).collect();
        expect.sort_by(|&a, &b| cmp_rows(cols, a, b));
        expect
    }

    #[test]
    fn merge_sorted_runs_is_a_stable_sort() {
        let col: Vec<i64> = vec![3, 1, 2, 1, 3, 0, 2, 1];
        let cols: Vec<&[i64]> = vec![&col];
        let expect = stable_sort(&cols, 8);
        assert_eq!(expect, vec![5, 1, 3, 7, 2, 6, 0, 4]);
        assert_eq!(sort_by_runs(&cols, vec![0..4, 4..8]), expect);
        assert_eq!(sort_by_runs(&cols, vec![0..3, 3..4, 4..8]), expect);
        assert_eq!(sort_by_runs(&cols, std::iter::once(0..8).collect()), expect);
        assert!(sort_by_runs(&cols, Vec::new()).is_empty());
    }

    #[test]
    fn merging_thousands_of_one_row_runs_is_a_stable_sort() {
        // The partial-sort shape: every head block a single row.
        let a: Vec<i64> = (0..3001).map(|r| (r * 7919) % 13 - 6).collect();
        let b: Vec<i64> = (0..3001).map(|r| (r * 104729) % 5).collect();
        let cols: Vec<&[i64]> = vec![&a, &b];
        let runs: Vec<Range<usize>> = (0..3001).map(|r| r..r + 1).collect();
        assert_eq!(sort_by_runs(&cols, runs), stable_sort(&cols, 3001));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Any run partition merges to the one global stable sort.
        #[test]
        fn any_run_partition_merges_to_the_stable_sort(
            col in proptest::collection::vec(prop_oneof![-4i64..5, Just(i64::MIN), Just(i64::MAX)], 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..80),
        ) {
            let n = col.len();
            let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c > 0 && c < n).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            bounds.dedup();
            let runs: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
            let cols: Vec<&[i64]> = vec![&col];
            prop_assert_eq!(sort_by_runs(&cols, runs), stable_sort(&cols, n));
        }
    }

    #[test]
    fn batch_runs_groups_tiny_runs_and_keeps_morsels_apart() {
        assert_eq!(batch_runs(&[0..4, 4..8, 8..10], 4), vec![0..1, 1..2, 2..3]);
        let tiny: Vec<Range<usize>> = (0..10).map(|r| r..r + 1).collect();
        assert_eq!(batch_runs(&tiny, 4), vec![0..4, 4..8, 8..10]);
        assert_eq!(batch_runs(&[0..1, 1..9, 9..10], 4), vec![0..2, 2..3]);
        assert!(batch_runs(&[], 4).is_empty());
    }

    #[test]
    fn malformed_base_data_is_a_located_error_on_both_scans() {
        let mut catalog = Catalog::new();
        let rel = catalog.add_relation("r", 3.0, &["a", "b"]);
        catalog.add_index(rel, vec![catalog.attr("r.a")], false);
        let mut query = Query::new();
        query.add_relation(&catalog, rel);
        let mut arena: PlanArena<()> = PlanArena::new();
        let mut push = |op: PlanOp| {
            arena.push(ofw_plangen::PlanNode {
                op,
                mask: query.relation_set(0),
                cost: 0.0,
                card: 0.0,
                state: (),
                agg: ofw_plangen::plan::AggMark::NONE,
                applied_fds: Default::default(),
            })
        };
        let scans = [
            (push(PlanOp::Scan { qrel: 0 }), "Scan"),
            (push(PlanOp::IndexScan { qrel: 0, index: 0 }), "IndexScan"),
        ];
        let good = vec![vec![vec![3, 1, 2], vec![7, 8, 9]]];
        let one_column = vec![vec![vec![3, 1, 2]]];
        let ragged = vec![vec![vec![3, 1, 2], vec![7, 8]]];
        for (plan, op) in scans {
            let (out, _) = execute_serial(&arena, plan, &catalog, &query, &good).unwrap();
            assert_eq!(out.num_rows(), 3);
            for bad in [&one_column, &ragged, &Vec::new()] {
                let err = execute_serial(&arena, plan, &catalog, &query, bad).unwrap_err();
                assert_eq!((err.plan, err.op), (plan, op), "{err}");
            }
        }
    }

    #[test]
    fn head_blocks_split_on_any_column_change() {
        let a: Vec<i64> = vec![1, 1, 2, 2, 2, 3];
        let b: Vec<i64> = vec![0, 0, 0, 1, 1, 1];
        let blocks = head_blocks(&[&a, &b], 6);
        assert_eq!(blocks, vec![0..2, 2..3, 3..5, 5..6]);
        assert!(head_blocks(&[&a[..0]], 0).is_empty());
    }
}
