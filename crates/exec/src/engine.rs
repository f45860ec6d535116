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
//! Output is written once. A materializing operator allocates each
//! output column at its final length, and every task writes its own row
//! range of it in place; nothing is assembled from per-morsel chunks.
//! Scans read the base columns where they lie, and the streaming
//! aggregates fold the equal-key runs of their grouped input without
//! hashing a row.
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
use crate::hash::{hash_rows, resumed_run, rows_eq, run_starts, ChainTable, GroupTable};
use ofw_catalog::{AttrId, Catalog};
use ofw_common::{morsel_ranges, OrderedExecutor, SerialExecutor};
use ofw_obs::Trace;
use ofw_plangen::exec::CONST_VALUE;
use ofw_plangen::plan::PlanArena;
use ofw_plangen::{PlanId, PlanOp};
use ofw_query::{AggFunc, JoinGraph, Query};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Mutex;

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

/// The write-once fill. `cols` are already at their final length;
/// `ranges` cut them into adjacent pieces from row 0, and task `i` gets
/// exclusive `&mut` access to rows `ranges[i]` of every column and
/// writes them in place. Each task's pieces wait in a slot of their own,
/// taken exactly once, so no lock is ever contended.
fn fill_in_place<T: Send, E: OrderedExecutor>(
    pool: &E,
    cols: &mut [Vec<T>],
    ranges: &[Range<usize>],
    fill: &(dyn Fn(usize, &mut [&mut [T]]) + Sync),
) {
    let mut slots: Vec<Vec<&mut [T]>> = ranges
        .iter()
        .map(|_| Vec::with_capacity(cols.len()))
        .collect();
    for col in cols.iter_mut() {
        debug_assert_eq!(ranges.last().map_or(0, |r| r.end), col.len());
        let mut rest = col.as_mut_slice();
        for (slot, r) in slots.iter_mut().zip(ranges) {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            slot.push(piece);
            rest = tail;
        }
    }
    let slots: Vec<Mutex<Vec<&mut [T]>>> = slots.into_iter().map(Mutex::new).collect();
    pool.run_ordered(ranges.len(), &|i| {
        let mut pieces = std::mem::take(
            &mut *slots[i]
                .lock()
                .expect("a slot is locked only to take its pieces, which cannot panic"),
        );
        fill(i, &mut pieces);
    });
}

/// `ncols` output columns, allocated once at the length `ranges` cover
/// and filled in place by `fill` ([`fill_in_place`]).
fn fill_columns<E: OrderedExecutor>(
    pool: &E,
    ncols: usize,
    ranges: &[Range<usize>],
    fill: &(dyn Fn(usize, &mut [&mut [i64]]) + Sync),
) -> Vec<Vec<i64>> {
    let len = ranges.last().map_or(0, |r| r.end);
    let mut cols: Vec<Vec<i64>> = (0..ncols).map(|_| vec![0; len]).collect();
    fill_in_place(pool, &mut cols, ranges, fill);
    cols
}

/// Per-morsel result lists — a join's pair lists, a selection's
/// survivors — read as one sequence without being concatenated.
struct Spliced<'a, T> {
    parts: &'a [Vec<T>],
    /// `starts[p]`: the sequence position of `parts[p][0]`; one more
    /// entry holds the length.
    starts: Vec<usize>,
}

impl<'a, T> Spliced<'a, T> {
    fn new(parts: &'a [Vec<T>]) -> Self {
        let mut starts = Vec::with_capacity(parts.len() + 1);
        starts.push(0);
        for p in parts {
            starts.push(starts[starts.len() - 1] + p.len());
        }
        Spliced { parts, starts }
    }

    fn len(&self) -> usize {
        self.starts[self.parts.len()]
    }

    /// Elements `range` of the sequence, as consecutive slices.
    fn slices(&self, range: Range<usize>) -> impl Iterator<Item = &'a [T]> + '_ {
        let first = self.starts.partition_point(|&s| s <= range.start) - 1;
        (first..self.parts.len())
            .take_while(move |&p| self.starts[p] < range.end)
            .map(move |p| {
                let at = self.starts[p];
                &self.parts[p][range.start.max(at) - at..range.end.min(self.starts[p + 1]) - at]
            })
    }
}

/// The row gather every materializing operator ends with:
/// `out[c][i] = src[c][row(idx[i])]`, one output morsel per task.
fn gather<E: OrderedExecutor, T: Sync>(
    pool: &E,
    morsel: usize,
    src: &[Vec<i64>],
    idx: &Spliced<'_, T>,
    row: impl Fn(&T) -> usize + Sync,
) -> (Vec<Vec<i64>>, u64) {
    let ranges = morsel_ranges(idx.len(), morsel);
    let cols = fill_columns(pool, src.len(), &ranges, &|i, out| {
        for (dst, col) in out.iter_mut().zip(src) {
            let mut at = 0;
            for s in idx.slices(ranges[i].clone()) {
                for (d, x) in dst[at..].iter_mut().zip(s) {
                    *d = col[row(x)];
                }
                at += s.len();
            }
        }
    });
    (cols, ranges.len() as u64)
}

/// Compares two rows on a column list.
fn cmp_rows(cols: &[&[i64]], a: u32, b: u32) -> Ordering {
    for c in cols {
        match c[a as usize].cmp(&c[b as usize]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// A sort entry: the first key column's value, extracted, and its row.
type Entry = (i64, u32);

/// `(first key value, row)` entries for `len` ascending `rows` (an empty
/// key extracts 0 — every row ties).
fn extract_keys(key_cols: &[&[i64]], rows: impl Iterator<Item = u32>, len: usize) -> Vec<Entry> {
    let mut out = Vec::with_capacity(len);
    match key_cols.first() {
        Some(k) => out.extend(rows.map(|r| (k[r as usize], r))),
        None => out.extend(rows.map(|r| (0, r))),
    }
    out
}

/// The `(key, row)` order on entries: the extracted first key, ties
/// broken on the `rest` of the key columns (read through the row), then
/// on the row itself.
fn entry_cmp(rest: &[&[i64]], a: &Entry, b: &Entry) -> Ordering {
    a.0.cmp(&b.0)
        .then_with(|| cmp_rows(rest, a.1, b.1))
        .then(a.1.cmp(&b.1))
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

/// The one sort kernel behind `Sort`, `PartialSort` and `IndexScan`: the
/// stable sort of `entries` (ascending rows, see [`extract_keys`]) by
/// the key whose first column they carry and whose `rest` follows.
/// `runs` cut the entries into adjacent runs; each is sorted in place by
/// the [`entry_cmp`] order (tiny runs batched into one task), then
/// [`merge_sorted_runs`] merges them.
fn sort_entries<E: OrderedExecutor>(
    pool: &E,
    morsel: usize,
    rest: &[&[i64]],
    mut entries: Vec<Entry>,
    runs: Vec<Range<usize>>,
) -> Vec<Entry> {
    let tasks = batch_runs(&runs, morsel);
    let spans: Vec<Range<usize>> = tasks
        .iter()
        .map(|t| runs[t.start].start..runs[t.end - 1].end)
        .collect();
    fill_in_place(
        pool,
        std::slice::from_mut(&mut entries),
        &spans,
        &|i, piece| {
            let base = spans[i].start;
            for run in &runs[tasks[i].clone()] {
                let run = &mut piece[0][run.start - base..run.end - base];
                if rest.is_empty() {
                    run.sort_unstable(); // `(key, row)` is the tuple order
                } else {
                    run.sort_unstable_by(|a, b| entry_cmp(rest, a, b));
                }
            }
        },
    );
    merge_sorted_runs(rest, entries, runs)
}

/// Merges the sorted runs of `idx` into the global stable sort order.
/// `runs` cuts `idx` into adjacent slices, run `i` holding exactly the
/// entries `runs[i]` sorted by `(key, row)`. Rounds of pairwise merges
/// of *adjacent* runs: every row of the left run is below every row of
/// the right one, so taking the left element on a key tie is the
/// `(key, row)` order. That order is total, so the result is the one
/// sorted sequence whatever the run partition was — fixed morsels (full
/// sort) or head-group blocks (partial sort).
fn merge_sorted_runs(
    rest: &[&[i64]],
    mut idx: Vec<Entry>,
    mut runs: Vec<Range<usize>>,
) -> Vec<Entry> {
    let mut buf = vec![(0, 0); if runs.len() > 1 { idx.len() } else { 0 }];
    while runs.len() > 1 {
        let mut merged = Vec::with_capacity(runs.len().div_ceil(2));
        for pair in runs.chunks(2) {
            // An odd last run merges with nothing: `right` is empty.
            let whole = pair[0].start..pair[pair.len() - 1].end;
            let (left, right) = idx[whole.clone()].split_at(pair[0].len());
            let (mut i, mut j) = (0, 0);
            for slot in &mut buf[whole.clone()] {
                let take_right = i == left.len()
                    || (j < right.len() && entry_cmp(rest, &right[j], &left[i]).is_lt());
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
    let starts = run_starts(cols, 0..n);
    let ends = starts.iter().skip(1).copied().chain([n as u32]);
    starts
        .iter()
        .zip(ends)
        .map(|(&s, e)| s as usize..e as usize)
        .collect()
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

/// One output column of an aggregate, per group.
#[derive(Clone, Copy)]
enum AggCol {
    /// Input column `c`, read at the group's first row.
    First(usize),
    /// The group's Σ weight: a partial's weight column, or a final
    /// `count` (whose value *is* the weight).
    Weight,
    /// Fold slot `s` (`sum`/`min`/`max`).
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

/// What an aggregate computes from its input: the output schema, one
/// [`AggCol`] per output column, and the fold slots.
struct AggSpec {
    schema: Vec<ColRef>,
    cols: Vec<AggCol>,
    folds: Vec<FoldSpec>,
    /// The input's weight column (absent: every row weighs 1).
    weight: Option<usize>,
}

impl AggSpec {
    /// Row `r`'s weight.
    fn weight(&self, t: &ColTable, r: usize) -> i64 {
        self.weight.map_or(1, |c| t.cols[c][r])
    }

    /// Row `r`'s contribution to fold slot `slot`.
    fn contrib(&self, t: &ColTable, slot: usize, r: usize) -> i64 {
        let s = &self.folds[slot];
        match s.func {
            AggFunc::Sum => match s.acc {
                Some(c) => t.cols[c][r],
                None => t.cols[s.raw.expect("sum without source")][r] * self.weight(t, r),
            },
            AggFunc::Min | AggFunc::Max => {
                t.cols[s.acc.or(s.raw).expect("min/max without source")][r]
            }
            AggFunc::Count => unreachable!("count never folds"),
        }
    }
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

impl<'a, S: Copy, E: OrderedExecutor> Engine<'a, S, E> {
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
        schema: &[ColRef],
        attr: AttrId,
    ) -> Result<usize, ExecError> {
        schema
            .iter()
            .position(|&c| c == ColRef::Attr(attr))
            .ok_or_else(|| {
                self.err(
                    plan,
                    op,
                    Some(attr),
                    format!(
                        "attribute {} not in input schema {schema:?}",
                        self.catalog.attr_name(attr),
                    ),
                )
            })
    }

    /// The columns of `cols` (under `schema`) holding `key`.
    fn key_cols<'t>(
        &self,
        plan: PlanId,
        op: &'static str,
        schema: &[ColRef],
        cols: &'t [Vec<i64>],
        key: &[AttrId],
    ) -> Result<Vec<&'t [i64]>, ExecError> {
        key.iter()
            .map(|&a| Ok(&cols[self.attr_col(plan, op, schema, a)?][..]))
            .collect()
    }

    fn exec(&mut self, plan: PlanId) -> Result<ColTable, ExecError> {
        let (arena, query) = (self.arena, self.query);
        match &arena.node(plan).op {
            PlanOp::Scan { qrel } => self.scan(plan, *qrel),
            PlanOp::IndexScan { qrel, index } => self.index_scan(plan, *qrel, *index),
            PlanOp::Sort { input, key } => {
                let t = self.exec(*input)?;
                self.sort(plan, "Sort", t, key, None)
            }
            PlanOp::PartialSort { input, key, head } => {
                let t = self.exec(*input)?;
                self.sort(plan, "PartialSort", t, key, Some(head))
            }
            PlanOp::MergeJoin { left, right, edge } => {
                self.join(plan, "MergeJoin", *left, *right, JoinKind::Merge(*edge))
            }
            PlanOp::HashJoin { left, right, .. } => {
                self.join(plan, "HashJoin", *left, *right, JoinKind::Hash)
            }
            PlanOp::NestedLoopJoin { left, right } => {
                self.join(plan, "NestedLoopJoin", *left, *right, JoinKind::NestedLoop)
            }
            PlanOp::GroupJoin { left, right, .. } => {
                let joined = self.join(plan, "GroupJoin", *left, *right, JoinKind::Hash)?;
                let key = query.effective_group_by();
                self.stream_aggregate(plan, "GroupJoin", joined, key, false)
            }
            PlanOp::StreamAgg {
                input,
                key,
                partial,
            } => {
                let t = self.exec(*input)?;
                self.stream_aggregate(plan, "StreamAgg", t, key, *partial)
            }
            PlanOp::HashAgg {
                input,
                key,
                partial,
            } => {
                let t = self.exec(*input)?;
                self.hash_aggregate(plan, t, key, *partial)
            }
            PlanOp::HashGroup { input, key } => {
                let t = self.exec(*input)?;
                self.hash_group(plan, t, key)
            }
        }
    }

    /// Relation `qrel`'s base columns, borrowed, and their schema,
    /// checked against the catalog: base data is outside input, so a
    /// wrong shape is a located error, not a panic.
    fn base(
        &self,
        plan: PlanId,
        op: &'static str,
        qrel: usize,
    ) -> Result<(&'a [Vec<i64>], Vec<ColRef>), ExecError> {
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
        Ok((base, rel.attrs.iter().map(|&a| ColRef::Attr(a)).collect()))
    }

    /// Relation `qrel`'s selections as `(column, is_constant)`: constants
    /// keep `== CONST_VALUE`, filters keep `<= 1` — the legacy oracle's
    /// predicate stand-ins.
    fn predicates(
        &self,
        plan: PlanId,
        op: &'static str,
        qrel: usize,
        schema: &[ColRef],
    ) -> Result<Vec<(usize, bool)>, ExecError> {
        let q = self.query;
        let constants = q.constants.iter().map(|c| (c.attr, true));
        let filters = q.filters.iter().map(|f| (f.attr, false));
        constants
            .chain(filters)
            .filter(|&(a, _)| q.owner(a) == qrel)
            .map(|(a, is_const)| Ok((self.attr_col(plan, op, schema, a)?, is_const)))
            .collect()
    }

    /// Per morsel, the base rows that pass every predicate, read in
    /// place.
    fn filter(&self, base: &[Vec<i64>], n: usize, preds: &[(usize, bool)]) -> (Vec<Vec<u32>>, u64) {
        run_morsels(self.pool, n, self.morsel, &|range| {
            range
                .filter(|&r| {
                    preds.iter().all(|&(c, is_const)| {
                        let v = base[c][r];
                        if is_const {
                            v == CONST_VALUE
                        } else {
                            v <= 1
                        }
                    })
                })
                .map(|r| r as u32)
                .collect()
        })
    }

    /// Heap scan: the base rows in insertion order that pass the
    /// relation's selections, gathered straight from the base columns.
    /// Without a selection the scan is one copy of the relation.
    fn scan(&mut self, plan: PlanId, qrel: usize) -> Result<ColTable, ExecError> {
        let (base, schema) = self.base(plan, "Scan", qrel)?;
        let preds = self.predicates(plan, "Scan", qrel, &schema)?;
        let n = base.first().map_or(0, Vec::len);
        if preds.is_empty() {
            self.stats
                .record("Scan", n.div_ceil(self.morsel) as u64, n as u64);
            return Ok(ColTable::new(schema, base.to_vec()));
        }
        let (keep, fb) = self.filter(base, n, &preds);
        let (cols, gb) = gather(self.pool, self.morsel, base, &Spliced::new(&keep), |&r| {
            r as usize
        });
        let out = ColTable::new(schema, cols);
        self.stats.record("Scan", fb + gb, out.num_rows() as u64);
        Ok(out)
    }

    /// Index scan — the tuple order the planner models for an ordered
    /// scan: the relation stable-sorted by the index key, then its
    /// selections. Filtering first and stable-sorting only the survivors
    /// is the same sequence (a stable sort keeps the survivors' relative
    /// order), so the scan does that, then gathers once.
    fn index_scan(
        &mut self,
        plan: PlanId,
        qrel: usize,
        index: usize,
    ) -> Result<ColTable, ExecError> {
        let op = "IndexScan";
        let (base, schema) = self.base(plan, op, qrel)?;
        let preds = self.predicates(plan, op, qrel, &schema)?;
        let catalog = self.catalog;
        let key = &catalog.relation(self.query.relations[qrel]).indexes[index].key;
        let key_cols = self.key_cols(plan, op, &schema, base, key)?;
        let n = base.first().map_or(0, Vec::len);
        let (entries, fb) = if preds.is_empty() {
            (extract_keys(&key_cols, 0..n as u32, n), 0)
        } else {
            let (keep, fb) = self.filter(base, n, &preds);
            let m = keep.iter().map(Vec::len).sum();
            (extract_keys(&key_cols, keep.into_iter().flatten(), m), fb)
        };
        let runs = morsel_ranges(entries.len(), self.morsel);
        let batches = fb + runs.len() as u64;
        let rest = key_cols.get(1..).unwrap_or_default();
        let sorted = sort_entries(self.pool, self.morsel, rest, entries, runs);
        let (cols, gb) = gather(
            self.pool,
            self.morsel,
            base,
            &Spliced::new(std::slice::from_ref(&sorted)),
            |e| e.1 as usize,
        );
        let out = ColTable::new(schema, cols);
        self.stats.record(op, batches + gb, out.num_rows() as u64);
        Ok(out)
    }

    /// Stable sort by `key`. With `head` (the partial-sort enforcer) the
    /// initial runs are the input's already-adjacent head-group blocks —
    /// each block is tiny, so the per-run sort is the
    /// `O(n · log(n/groups))` work the cost model charges; without, the
    /// runs are fixed morsels. Either way the `(key, row)` merge of
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
        let key_cols = self.key_cols(plan, op, &t.schema, &t.cols, key)?;
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
        // A batch is a sorted run, however the runs were scheduled.
        let batches = runs.len() as u64;
        let entries = extract_keys(&key_cols, 0..n as u32, n);
        let rest = key_cols.get(1..).unwrap_or_default();
        let sorted = sort_entries(self.pool, self.morsel, rest, entries, runs);
        let (cols, gb) = gather(
            self.pool,
            self.morsel,
            &t.cols,
            &Spliced::new(std::slice::from_ref(&sorted)),
            |e| e.1 as usize,
        );
        let out = ColTable::new(t.schema, cols);
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
            let lc = self.attr_col(plan, op, &lt.schema, la)?;
            let rc = self.attr_col(plan, op, &rt.schema, ra)?;
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
        let (out, gb) = self.join_output(&lt, &rt, &Spliced::new(&pair_chunks));
        self.stats.record(op, batches + gb, out.num_rows() as u64);
        Ok(out)
    }

    /// Materializes a join pair list: attribute columns concatenate
    /// (left then right, like the legacy row concat), weights multiply,
    /// and `sum` accumulators scale by the partner side's weight — the
    /// invariant that makes eager partial aggregates compose (see
    /// [`crate::batch`]). One output morsel per task, written in place.
    fn join_output(
        &self,
        lt: &ColTable,
        rt: &ColTable,
        pairs: &Spliced<'_, (u32, u32)>,
    ) -> (ColTable, u64) {
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

        let ranges = morsel_ranges(pairs.len(), self.morsel);
        let cols = fill_columns(self.pool, srcs.len(), &ranges, &|i, out| {
            for (dst, &src) in out.iter_mut().zip(&srcs) {
                let mut at = 0;
                for s in pairs.slices(ranges[i].clone()) {
                    let dst = &mut dst[at..at + s.len()];
                    match src {
                        (Some(a), None) => {
                            for (d, &(l, _)) in dst.iter_mut().zip(s) {
                                *d = a[l as usize];
                            }
                        }
                        (None, Some(b)) => {
                            for (d, &(_, r)) in dst.iter_mut().zip(s) {
                                *d = b[r as usize];
                            }
                        }
                        (Some(a), Some(b)) => {
                            for (d, &(l, r)) in dst.iter_mut().zip(s) {
                                *d = a[l as usize] * b[r as usize];
                            }
                        }
                        (None, None) => dst.fill(1),
                    }
                    at += s.len();
                }
            }
        });
        (ColTable::new(schema, cols), ranges.len() as u64)
    }

    /// The output shape of an aggregate over `t`. A *partial* aggregate
    /// keeps all attribute columns (first row per group), materializes
    /// the weight column and one accumulator per aggregate call whose
    /// input it carries; the *final* aggregate emits one finalized
    /// accumulator per call and drops the weight.
    fn agg_spec(
        &self,
        plan: PlanId,
        op: &'static str,
        t: &ColTable,
        partial: bool,
    ) -> Result<AggSpec, ExecError> {
        let mut spec = AggSpec {
            schema: Vec::new(),
            cols: Vec::new(),
            folds: Vec::new(),
            weight: t.col_index(ColRef::Weight),
        };
        for (i, c) in t.schema.iter().enumerate() {
            if let ColRef::Attr(_) = c {
                spec.schema.push(*c);
                spec.cols.push(AggCol::First(i));
            }
        }
        if partial {
            spec.schema.push(ColRef::Weight);
            spec.cols.push(AggCol::Weight);
        }
        for (call, agg) in self.query.aggregates.iter().enumerate() {
            let acc = t.col_index(ColRef::Acc(call));
            let raw = agg.input.and_then(|a| t.col_index(ColRef::Attr(a)));
            if agg.func == AggFunc::Count {
                if !partial {
                    spec.schema.push(ColRef::Acc(call));
                    spec.cols.push(AggCol::Weight);
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
            spec.schema.push(ColRef::Acc(call));
            spec.cols.push(AggCol::Fold(spec.folds.len()));
            spec.folds.push(FoldSpec {
                func: agg.func,
                acc,
                raw,
            });
        }
        Ok(spec)
    }

    /// Hash aggregation over `key`. Per-morsel first-seen group maps are
    /// merged serially in morsel order, which reproduces the legacy
    /// executor's single-pass first-seen group order exactly; the legacy
    /// scramble is then applied to the group order.
    fn hash_aggregate(
        &mut self,
        plan: PlanId,
        t: ColTable,
        key: &[AttrId],
        partial: bool,
    ) -> Result<ColTable, ExecError> {
        let op = "HashAgg";
        let key_cols = self.key_cols(plan, op, &t.schema, &t.cols, key)?;
        let spec = self.agg_spec(plan, op, &t, partial)?;
        let folds = &spec.folds;

        // Per-morsel local aggregation, merged serially in morsel order
        // (= the global first-seen order of a single pass).
        let (chunks, batches): (Vec<(GroupTable, GroupState)>, u64) =
            run_morsels(self.pool, t.num_rows(), self.morsel, &|range| {
                let hashes = hash_rows(&key_cols, range.clone());
                let mut table = GroupTable::with_capacity(range.len());
                let mut state = GroupState::default();
                for (r, &h) in range.zip(&hashes) {
                    let (g, new) = table.find_or_insert(&key_cols, h, r as u32);
                    state.add(folds, g as usize, new, spec.weight(&t, r), |slot| {
                        spec.contrib(&t, slot, r)
                    });
                }
                (table, state)
            });
        let mut table = GroupTable::with_capacity(chunks.iter().map(|(l, _)| l.len()).sum());
        let mut state = GroupState::default();
        let nf = folds.len();
        for (local, ls) in &chunks {
            for (lg, (hash, first)) in local.groups().enumerate() {
                let (g, new) = table.find_or_insert(&key_cols, hash, first);
                state.add(folds, g as usize, new, ls.weight[lg], |slot| {
                    ls.folds[lg * nf + slot]
                });
            }
        }

        let order = scramble_order(table.len());
        let first = table.first_rows();
        let cols: Vec<Vec<i64>> = spec
            .cols
            .iter()
            .map(|&c| match c {
                AggCol::First(col) => order
                    .iter()
                    .map(|&g| t.cols[col][first[g] as usize])
                    .collect(),
                AggCol::Weight => order.iter().map(|&g| state.weight[g]).collect(),
                AggCol::Fold(slot) => order.iter().map(|&g| state.folds[g * nf + slot]).collect(),
            })
            .collect();
        let out = ColTable::new(spec.schema, cols);
        self.stats.record(op, batches, out.num_rows() as u64);
        Ok(out)
    }

    /// Streaming aggregation — `StreamAgg`, and the aggregate half of
    /// `GroupJoin`. The planner places it on input grouped on `key`, so
    /// every group is one maximal run of equal keys, folded where it
    /// lies without hashing a row: each morsel finds the runs that start
    /// in it ([`run_starts`]), the run starts alone are hashed to verify
    /// the grouping — a key that resumes after its run ended is a
    /// located error, never a silently split group — and each morsel
    /// then folds its runs straight into its rows of the preallocated
    /// output, reading on past its end into a run that crosses it.
    /// Groups come out in run order: on grouped input, the first-seen
    /// order the hash kernel would produce.
    fn stream_aggregate(
        &mut self,
        plan: PlanId,
        op: &'static str,
        t: ColTable,
        key: &[AttrId],
        partial: bool,
    ) -> Result<ColTable, ExecError> {
        let key_cols = self.key_cols(plan, op, &t.schema, &t.cols, key)?;
        let spec = self.agg_spec(plan, op, &t, partial)?;
        let n = t.num_rows();
        let (starts, batches) = run_morsels(self.pool, n, self.morsel, &|range| {
            run_starts(&key_cols, range)
        });
        if let Some((first, again)) = resumed_run(&key_cols, &starts) {
            let names: Vec<&str> = key.iter().map(|&a| self.catalog.attr_name(a)).collect();
            return Err(self.err(
                plan,
                op,
                None,
                format!(
                    "input is not grouped on ({}): row {again} resumes the group \
                     that row {first} started",
                    names.join(", ")
                ),
            ));
        }
        let mut at = 0;
        let out_ranges: Vec<Range<usize>> = starts
            .iter()
            .map(|s| {
                at += s.len();
                at - s.len()..at
            })
            .collect();
        let morsel = self.morsel;
        let cols = fill_columns(self.pool, spec.cols.len(), &out_ranges, &|m, out| {
            let local = &starts[m];
            let morsel_end = ((m + 1) * morsel).min(n);
            for (j, &s) in local.iter().enumerate() {
                let end = match local.get(j + 1) {
                    Some(&e) => e as usize,
                    None => (morsel_end..n)
                        .find(|&r| !rows_eq(&key_cols, s, r as u32))
                        .unwrap_or(n),
                };
                let (s, run) = (s as usize, s as usize..end);
                for (dst, &c) in out.iter_mut().zip(&spec.cols) {
                    dst[j] = match c {
                        AggCol::First(col) => t.cols[col][s],
                        AggCol::Weight => run.clone().map(|r| spec.weight(&t, r)).sum(),
                        AggCol::Fold(slot) => {
                            let func = spec.folds[slot].func;
                            run.clone()
                                .map(|r| spec.contrib(&t, slot, r))
                                .reduce(|a, b| combine(func, a, b))
                                .expect("a run is never empty")
                        }
                    };
                }
            }
        });
        let out = ColTable::new(spec.schema, cols);
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
        let key_cols = self.key_cols(plan, "HashGroup", &t.schema, &t.cols, key)?;
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
        drop(chunks);
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
        drop(gid);
        let idx = [idx];
        let (cols, gb) = gather(self.pool, self.morsel, &t.cols, &Spliced::new(&idx), |&r| {
            r as usize
        });
        let out = ColTable::new(t.schema, cols);
        self.stats
            .record("HashGroup", batches + gb, out.num_rows() as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_plangen::plan::AggMark;
    use ofw_plangen::PlanNode;
    use ofw_query::{AggCall, ConstPred, FilterPred};
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

    /// What the engine's sorts do with a run partition: extract the
    /// first key column, sort each run by `(key, row)`, then merge.
    /// Returns the sorted rows.
    fn sort_by_runs(cols: &[&[i64]], runs: Vec<Range<usize>>, morsel: usize) -> Vec<u32> {
        let n = runs.last().map_or(0, |r| r.end);
        let entries = extract_keys(cols, 0..n as u32, n);
        let rest = cols.get(1..).unwrap_or_default();
        sort_entries(&SerialExecutor, morsel, rest, entries, runs)
            .into_iter()
            .map(|e| e.1)
            .collect()
    }

    /// Today's reference: the standard library's stable sort through
    /// the indirect row comparator.
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
        assert_eq!(sort_by_runs(&cols, vec![0..4, 4..8], 4), expect);
        assert_eq!(sort_by_runs(&cols, vec![0..3, 3..4, 4..8], 2), expect);
        assert_eq!(
            sort_by_runs(&cols, std::iter::once(0..8).collect(), 4),
            expect
        );
        assert!(sort_by_runs(&cols, Vec::new(), 4).is_empty());
    }

    #[test]
    fn merging_thousands_of_one_row_runs_is_a_stable_sort() {
        // The partial-sort shape: every head block a single row.
        let a: Vec<i64> = (0..3001).map(|r| (r * 7919) % 13 - 6).collect();
        let b: Vec<i64> = (0..3001).map(|r| (r * 104729) % 5).collect();
        let cols: Vec<&[i64]> = vec![&a, &b];
        let runs: Vec<Range<usize>> = (0..3001).map(|r| r..r + 1).collect();
        assert_eq!(sort_by_runs(&cols, runs, 64), stable_sort(&cols, 3001));
    }

    fn key_value() -> impl Strategy<Value = i64> {
        prop_oneof![-4i64..5, Just(i64::MIN), Just(i64::MAX)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Any run partition merges to the one global stable sort: the
        /// extracted-key kernel equals the indirect stable sort on 1–3
        /// key columns, whatever the runs and the task batching.
        #[test]
        fn any_run_partition_merges_to_the_stable_sort(
            cols in (1usize..4, 0usize..300).prop_flat_map(|(k, n)| {
                proptest::collection::vec(proptest::collection::vec(key_value(), n), k)
            }),
            cuts in proptest::collection::vec(0usize..300, 0..80),
            morsel in 1usize..64,
        ) {
            let n = cols[0].len();
            let mut bounds: Vec<usize> = cuts.into_iter().filter(|&c| c > 0 && c < n).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            bounds.dedup();
            let runs: Vec<Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
            let cols: Vec<&[i64]> = cols.iter().map(Vec::as_slice).collect();
            prop_assert_eq!(sort_by_runs(&cols, runs, morsel), stable_sort(&cols, n));
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
    fn spliced_parts_read_as_one_sequence() {
        let parts = vec![vec![0, 1, 2], vec![], vec![3], vec![4, 5]];
        let s = Spliced::new(&parts);
        assert_eq!(s.len(), 6);
        for lo in 0..=6 {
            for hi in lo..=6 {
                let got: Vec<i32> = s.slices(lo..hi).flatten().copied().collect();
                assert_eq!(
                    got,
                    (lo as i32..hi as i32).collect::<Vec<_>>(),
                    "{lo}..{hi}"
                );
            }
        }
        assert_eq!(Spliced::<u32>::new(&[]).slices(0..0).count(), 0);
    }

    #[test]
    fn fill_writes_each_range_once_in_place() {
        let ranges = [0..3, 3..3, 3..7];
        let cols = fill_columns(&SerialExecutor, 2, &ranges, &|i, out| {
            for (c, dst) in out.iter_mut().enumerate() {
                assert_eq!(dst.len(), ranges[i].len());
                for (k, d) in dst.iter_mut().enumerate() {
                    *d = (10 * c + ranges[i].start + k) as i64;
                }
            }
        });
        assert_eq!(cols[0], vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(cols[1], vec![10, 11, 12, 13, 14, 15, 16]);
        assert!(
            fill_columns(&SerialExecutor, 3, &[], &|_, _| unreachable!())
                .iter()
                .all(Vec::is_empty)
        );
    }

    fn node(query: &Query, qrels: &[usize], op: PlanOp) -> PlanNode<()> {
        let mut mask = query.relation_set(qrels[0]);
        for &q in &qrels[1..] {
            mask.union_with(&query.relation_set(q));
        }
        PlanNode {
            op,
            mask,
            cost: 0.0,
            card: 0.0,
            state: (),
            agg: AggMark::NONE,
            applied_fds: Default::default(),
        }
    }

    #[test]
    fn malformed_base_data_is_a_located_error_on_both_scans() {
        let mut catalog = Catalog::new();
        let rel = catalog.add_relation("r", 3.0, &["a", "b"]);
        catalog.add_index(rel, vec![catalog.attr("r.a")], false);
        let mut query = Query::new();
        query.add_relation(&catalog, rel);
        let mut arena: PlanArena<()> = PlanArena::new();
        let scans = [
            (
                arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 })),
                "Scan",
            ),
            (
                arena.push(node(&query, &[0], PlanOp::IndexScan { qrel: 0, index: 0 })),
                "IndexScan",
            ),
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

    /// `r(a, b, c)` with an index on `(a, b)`, `b = CONST_VALUE` when
    /// `constant`, `c <= 1` when `filter`.
    fn index_fixture(constant: bool, filter: bool) -> (Catalog, Query, PlanArena<()>, PlanId) {
        let mut catalog = Catalog::new();
        let rel = catalog.add_relation("r", 3.0, &["a", "b", "c"]);
        let (a, b, c) = (
            catalog.attr("r.a"),
            catalog.attr("r.b"),
            catalog.attr("r.c"),
        );
        catalog.add_index(rel, vec![a, b], true);
        let mut query = Query::new();
        query.add_relation(&catalog, rel);
        if constant {
            query.constants.push(ConstPred {
                attr: b,
                selectivity: 0.5,
            });
        }
        if filter {
            query.filters.push(FilterPred {
                attr: c,
                selectivity: 0.5,
            });
        }
        let mut arena: PlanArena<()> = PlanArena::new();
        let scan = arena.push(node(&query, &[0], PlanOp::IndexScan { qrel: 0, index: 0 }));
        (catalog, query, arena, scan)
    }

    /// The index scan as the legacy tuple engine defines it: stable sort
    /// of the whole relation by the index key, *then* the selections.
    fn sort_then_filter(
        catalog: &Catalog,
        query: &Query,
        arena: &PlanArena<()>,
        scan: PlanId,
        data: &[Vec<Vec<i64>>],
    ) -> ofw_plangen::Table {
        let cols = &data[0];
        let table = ofw_plangen::Table {
            attrs: catalog.relation(query.relations[0]).attrs.clone(),
            rows: (0..cols[0].len())
                .map(|r| cols.iter().map(|c| c[r]).collect())
                .collect(),
        };
        ofw_plangen::exec::try_execute(arena, scan, catalog, query, &[table]).unwrap()
    }

    #[test]
    fn index_scan_filters_first_on_empty_and_all_filtered_relations() {
        let (catalog, query, arena, scan) = index_fixture(true, true);
        let empty = vec![vec![Vec::new(), Vec::new(), Vec::new()]];
        let (out, stats) = execute_serial(&arena, scan, &catalog, &query, &empty).unwrap();
        assert_eq!(out.num_rows(), 0);
        assert_eq!(
            stats.ops["IndexScan"],
            OpStat {
                batches: 0,
                rows: 0
            }
        );
        let all_filtered = vec![vec![vec![2, 1, 2], vec![0, 0, 0], vec![2, 5, i64::MAX]]];
        let (out, stats) = execute_serial(&arena, scan, &catalog, &query, &all_filtered).unwrap();
        assert_eq!(out.num_rows(), 0);
        // One filter morsel; no survivor to sort or gather.
        assert_eq!(
            stats.ops["IndexScan"],
            OpStat {
                batches: 1,
                rows: 0
            }
        );
        assert!(!stats.ops.contains_key("Scan"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(150))]

        /// Filter-then-stable-sort ≡ stable-sort-then-filter: the index
        /// scan equals the legacy engine's sort-first scan on duplicate
        /// and extreme keys, under neither, either or both predicate
        /// kinds, at any morsel size.
        #[test]
        fn index_scan_filter_then_sort_is_sort_then_filter(
            cols in (0usize..120).prop_flat_map(|n| proptest::collection::vec(
                proptest::collection::vec(
                    prop_oneof![-2i64..3, Just(i64::MIN), Just(i64::MAX)], n),
                3,
            )),
            preds in 0u8..4,
            morsel in 1usize..40,
        ) {
            let (catalog, query, arena, scan) = index_fixture(preds & 1 != 0, preds & 2 != 0);
            let data = vec![cols];
            let (out, _) = execute_plan(
                &arena, scan, &catalog, &query, &data,
                &SerialExecutor, &ExecOptions { morsel_rows: morsel }, &Trace::disabled(),
            ).unwrap();
            let (got, expect) = (out.attr_table(), sort_then_filter(&catalog, &query, &arena, scan, &data));
            prop_assert_eq!((got.attrs, got.rows), (expect.attrs, expect.rows));
        }
    }

    /// `r(g, h, v)` with `sum(v)`, `min(v)`, `max(v)`, `count(*)`.
    fn agg_fixture() -> (Catalog, Query) {
        let mut catalog = Catalog::new();
        let rel = catalog.add_relation("r", 3.0, &["g", "h", "v"]);
        let mut query = Query::new();
        query.add_relation(&catalog, rel);
        query.group_by = vec![catalog.attr("r.g")];
        let v = Some(catalog.attr("r.v"));
        query.aggregates = [AggFunc::Sum, AggFunc::Min, AggFunc::Max]
            .into_iter()
            .map(|func| AggCall { func, input: v })
            .chain(std::iter::once(AggCall {
                func: AggFunc::Count,
                input: None,
            }))
            .collect();
        (catalog, query)
    }

    /// The hash aggregate's output rows put back into first-seen group
    /// order: output row `i` is group `scramble_order(len)[i]`.
    fn unscramble(t: &ColTable) -> ColTable {
        let order = scramble_order(t.num_rows());
        let mut pos = vec![0; order.len()];
        for (i, &g) in order.iter().enumerate() {
            pos[g] = i;
        }
        let cols = t
            .cols
            .iter()
            .map(|c| pos.iter().map(|&i| c[i]).collect())
            .collect();
        ColTable::new(t.schema.clone(), cols)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        /// Streaming ≡ unscrambled hash aggregation on grouped input:
        /// partial and final, over raw rows and over a partial
        /// aggregate's weights and accumulators, for sum/min/max/count,
        /// with runs crossing morsels at tiny morsel sizes.
        #[test]
        fn streaming_equals_unscrambled_hash_aggregation(
            runs in proptest::collection::vec((1usize..9, 1usize..4, -50i64..50), 0..25),
            morsel in 1usize..6,
        ) {
            // Group `i` holds `len` rows whose `h` climbs through `hs`
            // values, so the input is grouped on `g` and on `(g, h)`,
            // and the `(g, h)` partial below hands the `g` aggregates
            // weights and accumulators.
            let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
            for (i, &(len, hs, v)) in runs.iter().enumerate() {
                for k in 0..len {
                    cols[0].push(i as i64 * 7 - 80);
                    cols[1].push(((k * hs) / len) as i64);
                    cols[2].push(v + (k as i64 * 13) % 29 - 14);
                }
            }
            let (catalog, query) = agg_fixture();
            let (g, h) = (catalog.attr("r.g"), catalog.attr("r.h"));
            let data = vec![cols];
            let opts = ExecOptions { morsel_rows: morsel };
            let mut arena: PlanArena<()> = PlanArena::new();
            let scan = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
            let weighted = arena.push(node(&query, &[0], PlanOp::StreamAgg {
                input: scan,
                key: vec![g, h],
                partial: true,
            }));
            for input in [scan, weighted] {
                for partial in [true, false] {
                    let key = vec![g];
                    let stream = arena.push(node(&query, &[0], PlanOp::StreamAgg {
                        input, key: key.clone(), partial,
                    }));
                    let hash = arena.push(node(&query, &[0], PlanOp::HashAgg {
                        input, key, partial,
                    }));
                    let run = |plan| execute_plan(
                        &arena, plan, &catalog, &query, &data,
                        &SerialExecutor, &opts, &Trace::disabled(),
                    ).unwrap();
                    let (s, s_stats) = run(stream);
                    let (hashed, h_stats) = run(hash);
                    prop_assert_eq!(&s, &unscramble(&hashed));
                    prop_assert_eq!(s.num_rows(), runs.len());
                    prop_assert_eq!(s_stats.morsels, h_stats.morsels);
                }
            }
        }
    }

    #[test]
    fn ungrouped_streaming_input_is_a_located_error() {
        let (catalog, mut query) = agg_fixture();
        let g = catalog.attr("r.g");
        let mut arena: PlanArena<()> = PlanArena::new();
        let scan = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
        let agg = arena.push(node(
            &query,
            &[0],
            PlanOp::StreamAgg {
                input: scan,
                key: vec![g],
                partial: false,
            },
        ));
        // `g = 1` resumes at row 3, after the `g = 2` run, in the third
        // morsel of two rows.
        let data = vec![vec![vec![1, 1, 2, 1], vec![0; 4], vec![5; 4]]];
        let opts = ExecOptions { morsel_rows: 2 };
        let run = |arena: &PlanArena<()>, plan, query: &Query, data: &[Vec<Vec<i64>>]| {
            execute_plan(
                arena,
                plan,
                &catalog,
                query,
                data,
                &SerialExecutor,
                &opts,
                &Trace::disabled(),
            )
        };
        let err = run(&arena, agg, &query, &data).unwrap_err();
        assert_eq!(
            (err.plan, err.op, err.attr),
            (agg, "StreamAgg", None),
            "{err}"
        );
        assert!(err.detail.contains("row 3"), "{err}");
        let grouped = vec![vec![vec![1, 1, 1, 2], vec![0; 4], vec![5; 4]]];
        assert_eq!(run(&arena, agg, &query, &grouped).unwrap().0.num_rows(), 2);

        // The group-join's aggregate half: `s(k)` joined on `r.h = s.k`,
        // grouped by `r.g`, which the probe side breaks.
        let mut catalog = catalog;
        let srel = catalog.add_relation("s", 1.0, &["k"]);
        query.add_relation(&catalog, srel);
        query.joins.push(ofw_query::JoinEdge {
            left: catalog.attr("r.h"),
            right: catalog.attr("s.k"),
            selectivity: 1.0,
        });
        let mut arena: PlanArena<()> = PlanArena::new();
        let r = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
        let s = arena.push(node(&query, &[1], PlanOp::Scan { qrel: 1 }));
        let gj = arena.push(node(
            &query,
            &[0, 1],
            PlanOp::GroupJoin {
                left: r,
                right: s,
                edge: 0,
            },
        ));
        let mut data = data;
        data.push(vec![vec![0]]);
        let err = execute_plan(
            &arena,
            gj,
            &catalog,
            &query,
            &data,
            &SerialExecutor,
            &opts,
            &Trace::disabled(),
        )
        .unwrap_err();
        assert_eq!((err.plan, err.op), (gj, "GroupJoin"), "{err}");
    }
}
