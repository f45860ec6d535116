//! The morsel-driven vectorized engine.
//!
//! Every operator works vector-at-a-time, a *morsel* at a time: the
//! input row range is cut into fixed-size morsels
//! ([`ofw_common::morsel_ranges`], a function of the row count and the
//! morsel size alone), each morsel is one task, and the tasks run in
//! morsel order on the calling thread, each writing its results in
//! place at its own offset. The output does not depend on the morsel
//! size: every operator's result is the same at any size.
//!
//! Columns are materialized once, at the plan root. Below it an
//! operator's output is an intermediate of *parts*, one per base
//! relation it covers: the relation's borrowed base columns plus a
//! `u32` row-id vector (absent for the identity). Scans and index scans
//! return their surviving or sorted ids; joins read only their key
//! columns, through the ids, and hand on their inputs and pair list,
//! pending. Every consumer reads its input through one view: a column
//! is read through a part's ids and, over a pending join, through the
//! pairs first. Ids are composed by one routine, only for the rows an
//! operator keeps — a sort's sorted rows, hash grouping's permutation,
//! an aggregate's group representatives — and a join composes a pending
//! input in full, since its own pairs index flat rows. The hash join
//! probes a bucket-sorted build table (the `hash` module) and the
//! nested-loop join scans the right key column; both write every
//! candidate pair and keep the matches by advancing the write index,
//! never by a branch on the match. Only weight and accumulator columns
//! are materialized below the root. [`execute_plan`] then gathers every
//! attribute column once, a column at a time, through the view: each
//! column is allocated as its fill begins and written in place by one
//! task per output morsel, so a root join's columns are read pair →
//! side row → id → value and no id column is composed for them. A
//! column that an applied equi-join predicate makes equal to an earlier
//! one is copied from it instead of gathered. `Sort`, `PartialSort` and
//! `IndexScan` share one stable radix sort, linear in the rows for the
//! bits the key range needs, so a partial sort runs as the full sort it
//! must byte-equal; the streaming aggregates fold the equal-key runs of
//! their grouped input without hashing a row. Aggregation works a
//! column at a time: each key column is read once per morsel into a
//! dense slice, and each fold reads one dense contribution column (an
//! accumulator borrowed or read through the pairs, a raw input read
//! once, a `sum`'s weights multiplied in) with one loop per function —
//! over the runs for the streaming aggregates, scattered by every row's
//! local group id for the hash aggregate.
//!
//! Operator semantics replicate the tuple-at-a-time reference executor
//! ([`execute_reference`](crate::execute_reference)) exactly on the
//! attribute columns — including
//! the hash aggregate's deliberate deterministic group-order scramble —
//! and extend it with real aggregate *values*: weight and accumulator
//! columns (see [`crate::batch`]) implement Yan/Larson eager aggregation
//! so a DP plan with partial aggregates below joins computes the same
//! sums, counts, mins and maxes as the canonical root-only-aggregation
//! reference plan.

use crate::batch::{ColRef, ColTable};
use crate::hash::{
    hash_rows, local_groups, resumed_run, run_starts, Col, GroupTable, JoinTable, Spliced,
};
use ofw_catalog::{AttrId, Catalog};
use ofw_common::morsel_ranges;
use ofw_obs::Trace;
use ofw_plangen::plan::PlanArena;
use ofw_plangen::{PlanId, PlanOp};
use ofw_query::{AggCall, AggFunc, JoinGraph, Query, CONST_VALUE, FILTER_BOUND};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Range;

/// Default rows per morsel — the unit of work: one filter, probe,
/// aggregation or gather task covers one morsel.
pub const MORSEL_ROWS: usize = 4096;

/// Execution tuning knobs.
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Rows per morsel. It sets how work is cut into tasks, and with
    /// that the batch and morsel counters, but never the output.
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
    /// Tasks the operator ran: kernel tasks (a filter, probe,
    /// aggregation or run-finding morsel, a sort's bucket batch), the
    /// morsels of the ids it composes for the rows it keeps — a join's
    /// for a pending join input it composes in full; a join never
    /// composes its own output — and, at the plan root only, where the
    /// one gather happens, root-gather morsels. A selection-free scan
    /// runs none. The count moves with the morsel size; the output
    /// does not.
    pub batches: u64,
    /// Rows the operator produced.
    pub rows: u64,
}

/// Deterministic execution counters: identical on any machine at a
/// given morsel size, like the plan generator's `plans`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total tasks across all operators: every [`OpStat::batches`],
    /// the root's gather morsels included.
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

/// Query relation `qrel`'s base columns in `data` and their catalog
/// attributes, checked against the catalog: base data is outside input,
/// so a missing relation, a column count the catalog does not declare or
/// ragged columns are an error located at scan `plan` (operator `op`)
/// and naming the relation, not a panic. Both executors read their base
/// data through this check.
pub(crate) fn base_columns<'a>(
    catalog: &'a Catalog,
    query: &Query,
    data: &'a [Vec<Vec<i64>>],
    plan: PlanId,
    op: &'static str,
    qrel: usize,
) -> Result<(&'a [Vec<i64>], &'a [AttrId]), ExecError> {
    let rel = catalog.relation(query.relations[qrel]);
    let fail = |detail: String| ExecError {
        plan,
        op,
        attr: None,
        detail,
    };
    let cols = data
        .get(qrel)
        .ok_or_else(|| fail(format!("no base data for {}", rel.name)))?;
    if cols.len() != rel.attrs.len() {
        return Err(fail(format!(
            "base data for relation {} has {} columns, catalog declares {}",
            rel.name,
            cols.len(),
            rel.attrs.len()
        )));
    }
    if cols.iter().any(|c| c.len() != cols[0].len()) {
        return Err(fail(format!(
            "base data for relation {} has ragged columns",
            rel.name
        )));
    }
    Ok((cols, &rel.attrs))
}

/// Executes the plan rooted at `plan` over per-relation base columns
/// (`data[qrel][attr][row]`, attributes in catalog declaration order),
/// a morsel at a time on the calling thread. Returns the output batch
/// and the deterministic execution counters.
///
/// `_pool` is ignored: execution is serial. It is kept only because the
/// frozen `benchmark/` calls this function with a `SerialExecutor` and a
/// `ThreadPool`; it goes with the next change to the benchmark.
#[allow(clippy::too_many_arguments)]
pub fn execute_plan<S: Copy, E>(
    arena: &PlanArena<S>,
    plan: PlanId,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
    _pool: &E,
    opts: &ExecOptions,
    trace: &Trace,
) -> Result<(ColTable, ExecStats), ExecError> {
    let mut span = trace.span("execute");
    span.label("serial");
    let mut eng = Engine {
        arena,
        catalog,
        query,
        graph: JoinGraph::new(query),
        data,
        morsel: opts.morsel_rows.max(1),
        stats: ExecStats::default(),
    };
    let t = eng.exec(plan)?;
    let out = eng.materialize(plan, t);
    eng.stats.rows_out = out.num_rows() as u64;
    span.count("rows_out", eng.stats.rows_out);
    span.count("morsels", eng.stats.morsels);
    Ok((out, eng.stats))
}

/// [`execute_plan`] with default options and no tracing — the
/// convenience entry tests reach for.
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
        &(),
        &ExecOptions::default(),
        &Trace::disabled(),
    )
}

/// The hash-aggregate / hash-group scramble: reverse the list, then
/// interleave even and odd positions. Deterministic, order-destroying —
/// so no ordering claim can survive a hash operator by luck — and the
/// reference executor's exactly, so vectorized output stays
/// byte-identical with it.
fn scramble_order(n: usize) -> Vec<usize> {
    let rev: Vec<usize> = (0..n).rev().collect();
    let mut out = Vec::with_capacity(n);
    out.extend(rev.iter().copied().step_by(2));
    out.extend(rev.iter().copied().skip(1).step_by(2));
    out
}

/// Cuts `0..len` into fixed-size morsels and runs `f` on each, in morsel
/// order; returns the results in that order and the morsel count.
fn run_morsels<R>(len: usize, morsel: usize, f: impl FnMut(Range<usize>) -> R) -> (Vec<R>, u64) {
    let out: Vec<R> = morsel_ranges(len, morsel).into_iter().map(f).collect();
    let n = out.len() as u64;
    (out, n)
}

/// The write-once fill of buffers that one task must write together (a
/// sort's data and scratch buffers, the ids of every part [`Engine::take`]
/// composes from one lookup). `cols` are already at their final
/// length; `ranges` cut them into adjacent pieces from row 0, and task
/// `i` gets `&mut` access to rows `ranges[i]` of every column and
/// writes them in place. Tasks run in order; none runs without a column.
fn fill_in_place<T>(
    cols: &mut [Vec<T>],
    ranges: &[Range<usize>],
    mut fill: impl FnMut(usize, &mut [&mut [T]]),
) {
    if cols.is_empty() {
        return;
    }
    // Each column's rows after the last task's piece.
    let mut rest: Vec<&mut [T]> = cols.iter_mut().map(Vec::as_mut_slice).collect();
    let mut pieces = Vec::with_capacity(rest.len());
    for (i, r) in ranges.iter().enumerate() {
        pieces.clear();
        for col in &mut rest {
            let (piece, tail) = std::mem::take(col).split_at_mut(r.len());
            *col = tail;
            pieces.push(piece);
        }
        fill(i, &mut pieces);
    }
    debug_assert!(
        rest.iter().all(|r| r.is_empty()),
        "the ranges cover every row"
    );
}

/// `ncols` output columns of the length `ranges` cover, filled one
/// after another: each column is allocated as its fill begins and task
/// `i` writes rows `ranges[i]` of column `c` in place as
/// `fill(c, i, piece)`, so a column is written while its pages are still
/// in cache.
fn fill_columns<T: Copy + Default>(
    ncols: usize,
    ranges: &[Range<usize>],
    mut fill: impl FnMut(usize, usize, &mut [T]),
) -> Vec<Vec<T>> {
    let len = ranges.last().map_or(0, |r| r.end);
    (0..ncols)
        .map(|c| {
            let mut col = vec![T::default(); len];
            for (i, r) in ranges.iter().enumerate() {
                fill(c, i, &mut col[r.clone()]);
            }
            col
        })
        .collect()
}

/// Compares two rows on a column list.
fn cmp_rows(cols: &[Col], a: u32, b: u32) -> Ordering {
    for c in cols {
        match c.at(a as usize).cmp(&c.at(b as usize)) {
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
fn extract_keys(key_cols: &[Col], rows: impl Iterator<Item = u32>, len: usize) -> Vec<Entry> {
    let mut out = Vec::with_capacity(len);
    match key_cols.first() {
        Some(k) => out.extend(rows.map(|r| (k.at(r as usize), r))),
        None => out.extend(rows.map(|r| (0, r))),
    }
    out
}

/// The `(key, row)` order on entries: the extracted first key, ties
/// broken on the `rest` of the key columns (read through the row), then
/// on the row itself.
fn entry_cmp(rest: &[Col], a: &Entry, b: &Entry) -> Ordering {
    a.0.cmp(&b.0)
        .then_with(|| cmp_rows(rest, a.1, b.1))
        .then(a.1.cmp(&b.1))
}

/// Bits per radix digit: 2¹¹ counters fit the L1 cache.
const DIGIT_BITS: u32 = 11;

/// Buckets of at most this many entries are sorted by comparison, where
/// a counting pass would cost more than it saves.
const SMALL_SORT: usize = 64;

/// One stable counting pass: `src` scattered into `dst` by `digit`.
/// `at` holds one zeroed counter per digit value and is left holding
/// each digit's end in `dst`.
fn radix_pass(src: &[Entry], dst: &mut [Entry], at: &mut [usize], digit: impl Fn(&Entry) -> usize) {
    for e in src {
        at[digit(e)] += 1;
    }
    let mut end = 0;
    for a in at.iter_mut() {
        end += *a;
        *a = end - *a;
    }
    for e in src {
        let d = &mut at[digit(e)];
        dst[*d] = *e;
        *d += 1;
    }
}

/// The one sort kernel behind `Sort`, `PartialSort` and `IndexScan`: the
/// stable sort of `entries` (ascending rows, see [`extract_keys`]) into
/// the [`entry_cmp`] order, by a radix sort on the first key. A key
/// maps to `u64` as its offset from the minimum, so only the `bits` the
/// key range needs are sorted on, in ⌈bits / 11⌉ stable counting
/// passes. The top digit partitions the entries into buckets;
/// tasks of whole buckets, at least `morsel` entries each, then finish
/// them in place — the lower digits least significant first, then each
/// equal-key run by `rest` and row. Entries ascend by row and every pass
/// is stable, so ties keep row order without comparing rows. Returns the
/// sorted entries and the number of tasks run.
fn sort_entries(morsel: usize, rest: &[Col], mut entries: Vec<Entry>) -> (Vec<Entry>, u64) {
    let n = entries.len();
    if n <= SMALL_SORT {
        entries.sort_unstable_by(|x, y| entry_cmp(rest, x, y));
        return (entries, 0);
    }
    let lo = entries.iter().map(|e| e.0).min().unwrap_or(0);
    let hi = entries.iter().map(|e| e.0).max().unwrap_or(0);
    let bits = 64 - (hi.wrapping_sub(lo) as u64).leading_zeros();
    // The bits spread evenly over the passes; one bit if there are none.
    let width = bits.div_ceil(bits.div_ceil(DIGIT_BITS).max(1)).max(1);
    let digit = |e: &Entry, shift: u32| {
        ((e.0.wrapping_sub(lo) as u64 >> shift) & ((1 << width) - 1)) as usize
    };
    let mut bufs = [entries, vec![(0, 0); n]];
    // Each bucket's end, and the bits left below the top digit.
    let (mut ends, mut buckets, mut low) = ([n; 1 << DIGIT_BITS], 1, 0);
    if bits > 0 {
        low = (bits.div_ceil(width) - 1) * width;
        buckets = 1 << (bits - low);
        ends[..buckets].fill(0);
        let [src, dst] = &mut bufs;
        radix_pass(src, dst, &mut ends[..buckets], |e| digit(e, low));
        bufs.swap(0, 1);
    }
    if low == 0 && rest.is_empty() {
        let [sorted, _] = bufs;
        return (sorted, 0);
    }
    let mut spans: Vec<Range<usize>> = Vec::new();
    for &end in &ends[..buckets] {
        let start = spans.last().map_or(0, |s| s.end);
        if end > start && (end - start >= morsel || end == n) {
            spans.push(start..end);
        }
    }
    fill_in_place(&mut bufs, &spans, |_, pieces| {
        let [data, scratch] = pieces else {
            unreachable!("two buffers")
        };
        let (mut at, mut off) = ([0; 1 << DIGIT_BITS], 0);
        for a in data.chunk_by_mut(|x, y| digit(x, low) == digit(y, low)) {
            let s = &mut scratch[off..off + a.len()];
            off += a.len();
            if a.len() <= SMALL_SORT {
                a.sort_unstable_by(|x, y| entry_cmp(rest, x, y));
                continue;
            }
            for (p, shift) in (0..low).step_by(width as usize).enumerate() {
                let at = &mut at[..1 << width];
                at.fill(0);
                let by = |e: &Entry| digit(e, shift);
                if p % 2 == 0 {
                    radix_pass(a, s, at, by);
                } else {
                    radix_pass(s, a, at, by);
                }
            }
            if (low / width) % 2 == 1 {
                a.copy_from_slice(s);
            }
            if !rest.is_empty() {
                for run in a.chunk_by_mut(|x, y| x.0 == y.0) {
                    run.sort_unstable_by(|x, y| entry_cmp(rest, x, y));
                }
            }
        }
    });
    let [sorted, _] = bufs;
    (sorted, spans.len() as u64)
}

/// One base relation's share of an intermediate: its columns, borrowed,
/// and the row of them each intermediate row holds.
struct Part<'a> {
    /// The relation's base columns, `data[qrel]`.
    cols: &'a [Vec<i64>],
    /// The attribute each column holds, in catalog declaration order.
    attrs: &'a [AttrId],
    /// Per intermediate row, its row of `cols`; `None` is the identity.
    ids: Option<Vec<u32>>,
}

/// Rows an operator composed: the attribute columns as parts, read
/// through row ids, and the weight and accumulator columns (see
/// [`crate::batch`]) materialized. A join hands on its inputs and pairs
/// instead ([`Out`]); every consumer reads either through a [`View`].
struct Inter<'a> {
    rows: usize,
    parts: Vec<Part<'a>>,
    /// Logical tuples per row (`None`: every row weighs 1).
    weight: Option<Vec<i64>>,
    /// Accumulator columns, by ascending aggregate call.
    accs: Vec<(usize, Vec<i64>)>,
}

impl<'a> Inter<'a> {
    /// Relation rows `ids` (all of them, in order, for `None`).
    fn relation(cols: &'a [Vec<i64>], attrs: &'a [AttrId], ids: Option<Vec<u32>>) -> Self {
        let rows = ids
            .as_ref()
            .map_or_else(|| cols.first().map_or(0, Vec::len), Vec::len);
        let part = Part { cols, attrs, ids };
        Inter {
            rows,
            parts: vec![part],
            weight: None,
            accs: Vec::new(),
        }
    }
}

/// What an operator below the root hands its parent.
enum Out<'a> {
    Rows(Inter<'a>),
    /// A join's output, left pending: its two inputs and its pair list,
    /// one list per probe morsel.
    Joined {
        sides: [Inter<'a>; 2],
        pairs: Vec<Vec<(u32, u32)>>,
    },
}

/// A join's `(left row, right row)` pairs, one list per probe morsel.
type Pairs = [Vec<(u32, u32)>];

impl<'a> Out<'a> {
    /// Its inputs, and a pending join's pairs.
    fn sides(&self) -> (&[Inter<'a>], Option<&Pairs>) {
        match self {
            Out::Rows(t) => (std::slice::from_ref(t), None),
            Out::Joined { sides, pairs } => (sides, Some(pairs)),
        }
    }

    /// The columns the root materializes ([`schema`]).
    fn schema(&self) -> Vec<ColRef> {
        schema(self.sides().0)
    }
}

/// The columns of rows drawn from `sides` — one input, or a join's two —
/// as the root materializes them: every part's attributes, parts in
/// order, then the weight if a side has one, then the accumulators by
/// call.
fn schema(sides: &[Inter]) -> Vec<ColRef> {
    let accs = sides.iter().flat_map(|t| &t.accs);
    let mut calls: Vec<usize> = accs.map(|a| a.0).collect();
    calls.sort_unstable();
    let attrs = sides.iter().flat_map(|t| &t.parts);
    let attrs = attrs.flat_map(|p| p.attrs).map(|&a| ColRef::Attr(a));
    let weight = sides.iter().any(|t| t.weight.is_some());
    let (weight, accs) = (weight.then_some(ColRef::Weight), calls.into_iter());
    attrs.chain(weight).chain(accs.map(ColRef::Acc)).collect()
}

/// An operator's input as every consumer reads it ([`Engine::view`]):
/// one intermediate, or a pending join's two inputs read through its
/// pair list, so that ids are composed only for the rows a consumer
/// keeps ([`Engine::take`]) and the root gathers through the pairs.
struct View<'t, 'a> {
    rows: usize,
    sides: &'t [Inter<'a>],
    /// The join's pairs; `None`: row `r` is row `r` of the one input.
    pairs: Option<Spliced<'t, (u32, u32)>>,
    /// The weight and accumulators, as factors ([`Engine::values`]).
    weight: Option<OutSrc<'t>>,
    accs: Vec<(usize, OutSrc<'t>)>,
}

impl<'a> View<'_, 'a> {
    /// Values `vals` of side `side`, read through `ids` at each row's row
    /// there.
    fn on<'v>(&'v self, vals: &'v [i64], ids: Option<&'v [u32]>, side: usize) -> Col<'v> {
        let pairs = self.pairs.as_ref().map(|p| (p, side));
        Col { vals, ids, pairs }
    }

    /// Every part with its side, in schema order.
    fn parts(&self) -> impl Iterator<Item = (&Part<'a>, usize)> + '_ {
        let sides = self.sides.iter().zip(0..);
        sides.flat_map(|(t, s)| t.parts.iter().map(move |p| (p, s)))
    }

    /// The column holding attribute `a`, if a part has it.
    fn attr(&self, a: AttrId) -> Option<Col<'_>> {
        self.parts().find_map(|(p, s)| {
            let c = p.attrs.iter().position(|&x| x == a)?;
            Some(self.on(&p.cols[c], p.ids.as_deref(), s))
        })
    }

    /// A weight or accumulator column, as the factors of its product.
    fn factors<'v>(&'v self, src: OutSrc<'v>) -> Vec<Col<'v>> {
        let src = src.into_iter().zip(0..);
        src.filter_map(|(f, s)| Some(self.on(f?, None, s)))
            .collect()
    }

    /// View row `r`'s rows on its sides: a pending join's pair, found
    /// from list `*p` on ([`Spliced::get`]), or the one input's row.
    #[inline]
    fn side_rows(&self, r: usize, p: &mut usize) -> [usize; 2] {
        match &self.pairs {
            Some(pairs) => {
                let &(left, right) = pairs.get(r, p);
                [left as usize, right as usize]
            }
            None => [r, r],
        }
    }
}

/// Rows [`Engine::take`] and the root gather look up at a time, into a
/// buffer on the stack, before they read what they found.
const CHUNK: usize = 256;

/// What a composed weight or accumulator column holds per output row:
/// the product of a left column read at the row's left input row and a
/// right column read at its right input row, an absent factor being 1.
/// A carried column has one factor; a join's weight, or a `sum`
/// accumulator scaled by the partner side's weight, has two.
type OutSrc<'t> = [Option<&'t [i64]>; 2];

enum JoinKind {
    Merge(usize),
    Hash,
    NestedLoop,
}

/// The contributions of rows `range` to a fold, as one dense slice: the
/// product of the `factors`, each read once; `None` (no factor) counts.
fn contributions<'t>(factors: &[Col<'t>], range: Range<usize>) -> Option<Cow<'t, [i64]>> {
    let (first, rest) = factors.split_first()?;
    let mut vals = first.dense(range.clone());
    for f in rest {
        f.write(range.clone(), vals.to_mut(), |v, x| *v *= x);
    }
    Some(vals)
}

/// One fold: a function over a contribution column.
struct Fold<'t> {
    /// `Sum` for the weight (a `count`'s value *is* the weight).
    func: AggFunc,
    /// The factors of each row's contribution ([`contributions`]): the
    /// input's weight or accumulator, or a raw input attribute times a
    /// `sum`'s weights, so that a row stands for all its logical tuples.
    contrib: Vec<Col<'t>>,
}

/// What an aggregate computes from its input: its value columns (what
/// each holds and which fold computes it) and the folds. Its attribute
/// columns are the input's, at each group's representative row.
struct AggSpec<'t> {
    cols: Vec<(ColRef, usize)>,
    folds: Vec<Fold<'t>>,
}

impl AggSpec<'_> {
    /// `out` with the value columns set as its weight and accumulators,
    /// from `values`, each fold's column by fold index.
    fn finish<'a>(&self, mut out: Inter<'a>, mut values: Vec<Vec<i64>>) -> Inter<'a> {
        for (k, &(what, f)) in self.cols.iter().enumerate() {
            // Two `count` calls read the one weight fold.
            let col = if self.cols[k + 1..].iter().any(|c| c.1 == f) {
                values[f].clone()
            } else {
                std::mem::take(&mut values[f])
            };
            match what {
                ColRef::Weight => out.weight = Some(col),
                ColRef::Acc(call) => out.accs.push((call, col)),
                ColRef::Attr(_) => unreachable!("aggregates compute no attribute"),
            }
        }
        out
    }
}

/// The value `func` folds from: no contribution changes under it. It
/// never reaches an output, since every group folds at least one row.
fn identity(func: AggFunc) -> i64 {
    match func {
        AggFunc::Sum | AggFunc::Count => 0,
        AggFunc::Min => i64::MAX,
        AggFunc::Max => i64::MIN,
    }
}

/// `acc[g] = acc[g] op v` for each row's group `g` and contribution `v`
/// (1 for `None`, which counts), one loop per function.
fn scatter(func: AggFunc, acc: &mut [i64], gids: &[u32], vals: Option<&[i64]>) {
    let Some(vals) = vals else {
        for &g in gids {
            acc[g as usize] += 1;
        }
        return;
    };
    let rows = gids.iter().map(|&g| g as usize).zip(vals);
    match func {
        AggFunc::Sum | AggFunc::Count => rows.for_each(|(g, &v)| acc[g] += v),
        AggFunc::Min => rows.for_each(|(g, &v)| acc[g] = acc[g].min(v)),
        AggFunc::Max => rows.for_each(|(g, &v)| acc[g] = acc[g].max(v)),
    }
}

/// Each run's fold into `out`: run `j` is `vals[bounds[j]..bounds[j + 1]]`
/// (its length for `None`, which counts), one loop per function.
fn fold_runs(func: AggFunc, vals: Option<&[i64]>, bounds: &[usize], out: &mut [i64]) {
    let runs = out.iter_mut().zip(bounds.windows(2));
    let Some(vals) = vals else {
        runs.for_each(|(o, b)| *o = (b[1] - b[0]) as i64);
        return;
    };
    let (runs, from) = (runs.map(|(o, b)| (o, &vals[b[0]..b[1]])), identity(func));
    match func {
        AggFunc::Sum | AggFunc::Count => runs.for_each(|(o, run)| *o = run.iter().sum()),
        AggFunc::Min => runs.for_each(|(o, run)| *o = run.iter().fold(from, |a, &v| a.min(v))),
        AggFunc::Max => runs.for_each(|(o, run)| *o = run.iter().fold(from, |a, &v| a.max(v))),
    }
}

struct Engine<'a, S> {
    arena: &'a PlanArena<S>,
    catalog: &'a Catalog,
    query: &'a Query,
    /// The query's crossing-edge index, built once per run.
    graph: JoinGraph,
    data: &'a [Vec<Vec<i64>>],
    morsel: usize,
    stats: ExecStats,
}

impl<'a, S: Copy> Engine<'a, S> {
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

    /// The columns of `t` holding `attrs`; a missing one is a located
    /// error.
    fn cols<'t>(
        &self,
        plan: PlanId,
        op: &'static str,
        t: &'t View<'_, 'a>,
        attrs: &[AttrId],
    ) -> Result<Vec<Col<'t>>, ExecError> {
        let col = |a| {
            t.attr(a).ok_or_else(|| {
                let name = self.catalog.attr_name(a);
                let detail = format!("attribute {name} not in input schema {:?}", schema(t.sides));
                self.err(plan, op, Some(a), detail)
            })
        };
        attrs.iter().map(|&a| col(a)).collect()
    }

    /// Plan `plan`'s output as one intermediate, for join `op` to read: a
    /// pending join's is composed in full, its morsels counted as `op`'s.
    fn input(&mut self, op: &'static str, plan: PlanId) -> Result<Inter<'a>, ExecError> {
        let out = match self.exec(plan)? {
            Out::Rows(t) => return Ok(t),
            joined => joined,
        };
        let t = self.view(out.sides());
        let all = t.pairs.as_ref().expect("a pending join has pairs");
        let (rows, batches) = self.take(&t, all, |&(l, r), _| [l as usize, r as usize], true);
        self.stats.record(op, batches, 0);
        Ok(rows)
    }

    /// Plan `plan`'s output: a join's is left pending, for its consumer to
    /// read through a [`View`].
    fn exec(&mut self, plan: PlanId) -> Result<Out<'a>, ExecError> {
        let (arena, query) = (self.arena, self.query);
        let rows = match &arena.node(plan).op {
            PlanOp::Scan { qrel } => self.scan(plan, *qrel),
            PlanOp::IndexScan { qrel, index } => self.index_scan(plan, *qrel, *index),
            PlanOp::Sort { input, key } => {
                let t = self.exec(*input)?;
                self.sort(plan, "Sort", t, key)
            }
            PlanOp::PartialSort { input, key, .. } => {
                let t = self.exec(*input)?;
                self.sort(plan, "PartialSort", t, key)
            }
            PlanOp::MergeJoin { left, right, edge } => {
                return self.join(plan, "MergeJoin", *left, *right, JoinKind::Merge(*edge));
            }
            PlanOp::HashJoin { left, right, .. } => {
                return self.join(plan, "HashJoin", *left, *right, JoinKind::Hash);
            }
            PlanOp::NestedLoopJoin { left, right } => {
                return self.join(plan, "NestedLoopJoin", *left, *right, JoinKind::NestedLoop);
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
        };
        rows.map(Out::Rows)
    }

    /// The one gather: `out`, the output of plan `plan`, into the public
    /// table. Its attribute columns are read through their ids — and a
    /// join's through its pairs first — a column at a time
    /// ([`fill_columns`]), one output morsel per task, except that a
    /// column equal to an earlier one ([`Self::equal_columns`]) is a copy
    /// of it. The weight and accumulator columns move in as they are, or
    /// at a join are written as their products the same way. Its morsels
    /// count as batches of the root operator.
    fn materialize(&mut self, plan: PlanId, out: Out<'a>) -> ColTable {
        let schema = out.schema();
        let t = self.view(out.sides());
        let attrs = t.parts().map(|(p, _)| p.cols.len()).sum();
        let first = self.equal_columns(plan, &schema[..attrs]);
        let ranges = morsel_ranges(t.rows, self.morsel);
        // A column at a time, one task per output morsel, a chunk
        // ([`CHUNK`]) at a time: the chunk's rows of the column are found
        // through pairs and ids first, then read.
        let srcs: Vec<Col> = t
            .parts()
            .flat_map(|(p, s)| p.cols.iter().map(move |c| (c, p.ids.as_deref(), s)))
            .map(|(c, ids, s)| t.on(c, ids, s))
            .collect();
        let gather: Vec<Col> = (0..attrs)
            .filter(|&p| first[p] == p)
            .map(|p| srcs[p])
            .collect();
        let gathered = fill_columns(gather.len(), &ranges, |c, i, dst| {
            let (range, col, mut rows) = (ranges[i].clone(), gather[c], [0; CHUNK]);
            for lo in range.clone().step_by(CHUNK) {
                let rows = &mut rows[..range.end.min(lo + CHUNK) - lo];
                col.each_row(lo..lo + rows.len(), rows, |d, r| *d = r as u32);
                let at = lo - range.start;
                for (d, &r) in dst[at..at + rows.len()].iter_mut().zip(&*rows) {
                    *d = col.vals[r as usize];
                }
            }
        });
        let mut gathered = gathered.into_iter();
        let mut cols: Vec<Vec<i64>> = Vec::with_capacity(schema.len());
        for (p, &f) in first.iter().enumerate() {
            let col = if f == p {
                gathered.next().expect("one gathered column per class")
            } else {
                cols[f].clone()
            };
            cols.push(col);
        }
        let srcs = t.weight.iter().chain(t.accs.iter().map(|a| &a.1));
        let products: Vec<Vec<Col>> = srcs
            .filter(|_| t.pairs.is_some())
            .map(|&src| t.factors(src))
            .collect();
        let values = fill_columns(products.len(), &ranges, |c, i, dst| {
            dst.fill(1);
            for f in &products[c] {
                f.write(ranges[i].clone(), dst, |d, v| *d *= v);
            }
        });
        match out {
            Out::Rows(t) => {
                cols.extend(t.weight);
                cols.extend(t.accs.into_iter().map(|(_, col)| col));
            }
            Out::Joined { .. } => cols.extend(values),
        }
        let op = self.arena.node(plan).op.name();
        self.stats.record(op, ranges.len() as u64, 0);
        ColTable::new(schema, cols)
    }

    /// Per column of `attrs`, the attribute columns of plan `plan`'s
    /// output: the first column it equals row for row by an applied
    /// equi-join predicate (itself if none). Every join applies each
    /// predicate that connects its inputs, so every row of a plan
    /// satisfies each edge between two distinct relations under it, and
    /// selections, permutations and representative rows keep that. An
    /// edge within one relation (`r.a = r.b`) connects no two inputs, is
    /// never applied, and so equates nothing.
    fn equal_columns(&self, plan: PlanId, attrs: &[ColRef]) -> Vec<usize> {
        let mask = &self.arena.node(plan).mask;
        // Union-find whose root is its class's first position.
        let mut first: Vec<usize> = (0..attrs.len()).collect();
        let root = |first: &[usize], mut p: usize| {
            while first[p] != p {
                p = first[p];
            }
            p
        };
        for (e, j) in self.query.joins.iter().enumerate() {
            let (l, r) = self.graph.edge_endpoints(e);
            if l == r || !mask.contains(l) || !mask.contains(r) {
                continue;
            }
            let at = |a: AttrId| attrs.iter().position(|&x| x == ColRef::Attr(a));
            if let (Some(a), Some(b)) = (at(j.left), at(j.right)) {
                let (a, b) = (root(&first, a), root(&first, b));
                first[a.max(b)] = a.min(b);
            }
        }
        (0..attrs.len()).map(|p| root(&first, p)).collect()
    }

    /// The one composition, of the rows an operator keeps of its input
    /// `t`: output row `i` stands for the rows on `t`'s sides that `pick`
    /// finds for `rows[i]` ([`View::side_rows`]), found once per row, a
    /// chunk ([`CHUNK`]) at a time. Every part's ids are composed through
    /// them, all parts in one task per output morsel; with `values`, the
    /// weight and accumulators too, as their products ([`OutSrc`]).
    /// Written in place; returns the output and the morsel count, which
    /// the caller counts as its own.
    fn take<T>(
        &self,
        t: &View<'_, 'a>,
        rows: &Spliced<'_, T>,
        pick: impl Fn(&T, &mut usize) -> [usize; 2],
        values: bool,
    ) -> (Inter<'a>, u64) {
        let n = rows.len();
        let ranges = morsel_ranges(n, self.morsel);
        // `f(offset, side rows)` per chunk of morsel `m`'s output rows.
        let chunks = |m: usize, f: &mut dyn FnMut(usize, &[[usize; 2]])| {
            let (mut buf, mut at, mut p) = ([[0; 2]; CHUNK], 0, 0);
            for s in rows.slices(ranges[m].clone()) {
                for s in s.chunks(CHUNK) {
                    for (b, x) in buf.iter_mut().zip(s) {
                        *b = pick(x, &mut p);
                    }
                    f(at, &buf[..s.len()]);
                    at += s.len();
                }
            }
        };
        let parts: Vec<(&Part<'a>, usize)> = t.parts().collect();
        let mut ids: Vec<Vec<u32>> = parts.iter().map(|_| vec![0; n]).collect();
        fill_in_place(&mut ids, &ranges, |m, dst| {
            chunks(m, &mut |at, sides| {
                for (d, &(p, side)) in dst.iter_mut().zip(&parts) {
                    let d = d[at..at + sides.len()].iter_mut().zip(sides);
                    match &p.ids {
                        Some(ids) => d.for_each(|(d, s)| *d = ids[s[side]]),
                        None => d.for_each(|(d, s)| *d = s[side] as u32),
                    }
                }
            });
        });
        let srcs = t.weight.iter().chain(t.accs.iter().map(|a| &a.1));
        let srcs: Vec<OutSrc> = srcs.filter(|_| values).copied().collect();
        let mut vals: Vec<Vec<i64>> = srcs.iter().map(|_| vec![0; n]).collect();
        fill_in_place(&mut vals, &ranges, |m, dst| {
            chunks(m, &mut |at, sides| {
                for (d, src) in dst.iter_mut().zip(&srcs) {
                    for (d, &[l, r]) in d[at..at + sides.len()].iter_mut().zip(sides) {
                        *d = src[0].map_or(1, |a| a[l]) * src[1].map_or(1, |b| b[r]);
                    }
                }
            });
        });
        let mut vals = vals.into_iter();
        let parts = parts.iter().zip(ids).map(|(&(p, _), ids)| Part {
            cols: p.cols,
            attrs: p.attrs,
            ids: Some(ids),
        });
        let out = Inter {
            rows: n,
            parts: parts.collect(),
            weight: t.weight.and_then(|_| vals.next()),
            accs: t.accs.iter().zip(vals).map(|(a, col)| (a.0, col)).collect(),
        };
        (out, ranges.len() as u64)
    }

    /// The weight and accumulators (in call order) of rows drawn from
    /// `sides` — one input, or a join's left and right — as [`OutSrc`]s.
    /// A join's weights multiply, and `sum` accumulators scale by the
    /// partner side's weight, the invariant that makes eager partial
    /// aggregates compose (see [`crate::batch`]).
    fn values<'t>(&self, sides: &'t [Inter<'a>]) -> (Option<OutSrc<'t>>, Vec<(usize, OutSrc<'t>)>) {
        let w = |s: usize| sides.get(s).and_then(|t| t.weight.as_deref());
        let weight = (w(0).is_some() || w(1).is_some()).then_some([w(0), w(1)]);
        let mut accs: Vec<(usize, OutSrc)> = Vec::new();
        for (s, t) in sides.iter().enumerate() {
            for (call, col) in &t.accs {
                let mut src = [None; 2];
                src[s] = Some(&col[..]);
                if self.query.aggregates[*call].func == AggFunc::Sum {
                    src[1 - s] = w(1 - s);
                }
                accs.push((*call, src));
            }
        }
        accs.sort_by_key(|&(call, _)| call);
        (weight, accs)
    }

    /// The view ([`View`]) of `sides` — one input, or a join's two — and,
    /// for a join left pending, its pair lists.
    fn view<'t>(&self, (sides, pairs): (&'t [Inter<'a>], Option<&'t Pairs>)) -> View<'t, 'a> {
        let pairs = pairs.map(Spliced::new);
        let (weight, accs) = self.values(sides);
        View {
            rows: pairs.as_ref().map_or(sides[0].rows, Spliced::len),
            sides,
            pairs,
            weight,
            accs,
        }
    }

    /// Relation `qrel`'s base rows, all of them, as [`base_columns`]
    /// checks them.
    fn base(&self, plan: PlanId, op: &'static str, qrel: usize) -> Result<Inter<'a>, ExecError> {
        let (cols, attrs) = base_columns(self.catalog, self.query, self.data, plan, op, qrel)?;
        Ok(Inter::relation(cols, attrs, None))
    }

    /// Relation `qrel`'s selections over its base rows `t` as
    /// `(column, is_constant)`: constants keep `== CONST_VALUE`, filters
    /// keep `<= FILTER_BOUND` — the query model's predicate stand-ins.
    fn predicates<'t>(
        &self,
        plan: PlanId,
        op: &'static str,
        qrel: usize,
        t: &'t View<'_, 'a>,
    ) -> Result<Vec<(Col<'t>, bool)>, ExecError> {
        let q = self.query;
        let constants = q.constants.iter().map(|c| (c.attr, true));
        let filters = q.filters.iter().map(|f| (f.attr, false));
        constants
            .chain(filters)
            .filter(|&(a, _)| q.owner(a) == qrel)
            .map(|(a, is_const)| Ok((self.cols(plan, op, t, &[a])?[0], is_const)))
            .collect()
    }

    /// Per morsel, the rows of `0..n` that pass every predicate.
    fn filter(&self, n: usize, preds: &[(Col, bool)]) -> (Vec<Vec<u32>>, u64) {
        run_morsels(n, self.morsel, |range| {
            range
                .filter(|&r| {
                    preds.iter().all(|&(c, is_const)| {
                        let v = c.at(r);
                        if is_const {
                            v == CONST_VALUE
                        } else {
                            v <= FILTER_BOUND
                        }
                    })
                })
                .map(|r| r as u32)
                .collect()
        })
    }

    /// Heap scan: the base rows in insertion order that pass the
    /// relation's selections, as ids. Without a selection the scan is
    /// the relation itself, and does nothing.
    fn scan(&mut self, plan: PlanId, qrel: usize) -> Result<Inter<'a>, ExecError> {
        let base = self.base(plan, "Scan", qrel)?;
        let t = self.view((std::slice::from_ref(&base), None));
        let preds = self.predicates(plan, "Scan", qrel, &t)?;
        let (out, batches) = if preds.is_empty() {
            (base, 0)
        } else {
            let (keep, fb) = self.filter(t.rows, &preds);
            let part = &base.parts[0];
            (
                Inter::relation(part.cols, part.attrs, Some(keep.concat())),
                fb,
            )
        };
        self.stats.record("Scan", batches, out.rows as u64);
        Ok(out)
    }

    /// Index scan — the tuple order the planner models for an ordered
    /// scan: the relation stable-sorted by the index key, then its
    /// selections. Filtering first and stable-sorting only the survivors
    /// is the same sequence (a stable sort keeps the survivors' relative
    /// order), so the scan does that, and returns the sorted ids.
    fn index_scan(
        &mut self,
        plan: PlanId,
        qrel: usize,
        index: usize,
    ) -> Result<Inter<'a>, ExecError> {
        let op = "IndexScan";
        let base = self.base(plan, op, qrel)?;
        let t = self.view((std::slice::from_ref(&base), None));
        let preds = self.predicates(plan, op, qrel, &t)?;
        let catalog = self.catalog;
        let key = &catalog.relation(self.query.relations[qrel]).indexes[index].key;
        let key_cols = self.cols(plan, op, &t, key)?;
        let n = t.rows;
        let (entries, fb) = if preds.is_empty() {
            (extract_keys(&key_cols, 0..n as u32, n), 0)
        } else {
            let (keep, fb) = self.filter(n, &preds);
            let m = keep.iter().map(Vec::len).sum();
            (extract_keys(&key_cols, keep.into_iter().flatten(), m), fb)
        };
        let rest = key_cols.get(1..).unwrap_or_default();
        let (sorted, sb) = sort_entries(self.morsel, rest, entries);
        let part = &base.parts[0];
        let ids = sorted.iter().map(|e| e.1).collect();
        let out = Inter::relation(part.cols, part.attrs, Some(ids));
        self.stats.record(op, fb + sb, out.rows as u64);
        Ok(out)
    }

    /// Stable sort by `key` — `Sort`, and `PartialSort`, whose input is
    /// already grouped on a key prefix: the radix kernel is linear
    /// either way, so the partial sort runs as the full sort it must
    /// byte-equal. The first key is read in one pass; the tie-break reads
    /// the rest at random, so they are read dense first. Ids are composed
    /// for the sorted rows alone.
    fn sort(
        &mut self,
        plan: PlanId,
        op: &'static str,
        out: Out<'a>,
        key: &[AttrId],
    ) -> Result<Inter<'a>, ExecError> {
        let t = self.view(out.sides());
        let key_cols = self.cols(plan, op, &t, key)?;
        let n = t.rows;
        let mut entries: Vec<Entry> = (0..n as u32).map(|r| (0, r)).collect();
        if let Some(k) = key_cols.first() {
            k.write(0..n, &mut entries, |e, v| e.0 = v);
        }
        let dense: Vec<Cow<[i64]>> = key_cols.iter().skip(1).map(|c| c.dense(0..n)).collect();
        let rest: Vec<Col> = dense.iter().map(|d| Col::from(&d[..])).collect();
        let (sorted, sb) = sort_entries(self.morsel, &rest, entries);
        let sorted = Spliced::new(std::slice::from_ref(&sorted));
        let (out, tb) = self.take(&t, &sorted, |e, p| t.side_rows(e.1 as usize, p), true);
        self.stats.record(op, sb + tb, out.rows as u64);
        Ok(out)
    }

    fn join(
        &mut self,
        plan: PlanId,
        op: &'static str,
        left: PlanId,
        right: PlanId,
        kind: JoinKind,
    ) -> Result<Out<'a>, ExecError> {
        // Its own pairs index flat rows, so a pending input is composed.
        let sides = [self.input(op, left)?, self.input(op, right)?];
        let (lt, rt) = (&sides[0], &sides[1]);
        let lv = self.view((&sides[..1], None));
        let rv = self.view((&sides[1..], None));
        let lmask = &self.arena.node(left).mask;
        let rmask = &self.arena.node(right).mask;

        // Resolve every connecting equi-join predicate's columns — the
        // planner applies them all at this operator, so the executor
        // must too. Both keys are read through their ids: the hash
        // table reads the right (build) key into bucket order, the merge
        // and nested-loop kernels once into a dense column, since they
        // read it at random.
        let mut edges: Vec<(usize, Col, Col)> = Vec::new(); // (edge, left, right)
        for e in self.graph.connecting_edges(lmask, rmask) {
            let j = &self.query.joins[e];
            let (la, ra) = if lmask.contains(self.query.owner(j.left)) {
                (j.left, j.right)
            } else {
                (j.right, j.left)
            };
            let lc = self.cols(plan, op, &lv, &[la])?[0];
            let rc = self.cols(plan, op, &rv, &[ra])?[0];
            edges.push((e, lc, rc));
        }
        let dense_right = || -> Vec<(usize, Col, Cow<[i64]>)> {
            edges
                .iter()
                .map(|&(e, lc, rc)| (e, lc, rc.dense(0..rt.rows)))
                .collect()
        };

        // Emit (left, right) row pairs in the reference order: left rows
        // outer, matching right rows in right-table order.
        let (pair_chunks, batches) = match kind {
            JoinKind::Hash => {
                let lkeys: Vec<Col> = edges.iter().map(|e| e.1).collect();
                let rkeys: Vec<Col> = edges.iter().map(|e| e.2).collect();
                let table = JoinTable::build(&hash_rows(&rkeys, 0..rt.rows), &rkeys);
                run_morsels(lt.rows, self.morsel, |range| {
                    // Each probe key read once, then hashed and compared
                    // where it lies.
                    let dense: Vec<Cow<[i64]>> =
                        lkeys.iter().map(|c| c.dense(range.clone())).collect();
                    let keys: Vec<&[i64]> = dense.iter().map(|k| &k[..]).collect();
                    let cols: Vec<Col> = keys.iter().map(|&k| Col::from(k)).collect();
                    table.probe(hash_rows(&cols, 0..range.len()), &keys, range.start)
                })
            }
            JoinKind::Merge(edge) => {
                let edges = dense_right();
                let (_, plc, prc) = edges.iter().find(|e| e.0 == edge).ok_or_else(|| {
                    self.err(
                        plan,
                        op,
                        None,
                        format!("edge #{edge} does not connect the join's inputs"),
                    )
                })?;
                let (plc, rcol) = (*plc, &prc[..]);
                if rcol.windows(2).any(|w| w[0] > w[1]) {
                    return Err(self.err(
                        plan,
                        op,
                        None,
                        "merge join build side is not sorted on the join attribute".to_string(),
                    ));
                }
                let residual: Vec<(Col, &[i64])> = edges
                    .iter()
                    .filter(|e| e.0 != edge)
                    .map(|(_, lc, rc)| (*lc, &rc[..]))
                    .collect();
                run_morsels(lt.rows, self.morsel, |range| {
                    let mut pairs: Vec<(u32, u32)> = Vec::new();
                    for l in range {
                        let v = plc.at(l);
                        let lo = rcol.partition_point(|&x| x < v);
                        let hi = rcol.partition_point(|&x| x <= v);
                        for r in lo..hi {
                            if residual.iter().all(|&(lc, rc)| lc.at(l) == rc[r]) {
                                pairs.push((l as u32, r as u32));
                            }
                        }
                    }
                    pairs
                })
            }
            // Per left row, a scan of the first edge's right column that
            // writes every right row as a pair and advances the write
            // index by the `&` of every edge's equality, so no branch
            // depends on a match. The buffer grows to hold a whole scan
            // past the write index, by the previous row's matches. No
            // edge: every pair.
            JoinKind::NestedLoop => {
                let edges = dense_right();
                let rkeys: Vec<&[i64]> = edges.iter().map(|e| &e.2[..]).collect();
                run_morsels(lt.rows, self.morsel, |range| {
                    let mut pairs: Vec<(u32, u32)> = Vec::new();
                    // Slices of their own, so the loop keeps them in
                    // registers across its stores.
                    let Some((rc, rest)) = rkeys.split_first() else {
                        for l in range {
                            pairs.extend((0..rt.rows as u32).map(|r| (l as u32, r)));
                        }
                        return pairs;
                    };
                    let mut key = vec![0; edges.len()];
                    let mut w = 0;
                    for l in range {
                        for (k, (_, lc, _)) in key.iter_mut().zip(&edges) {
                            *k = lc.at(l);
                        }
                        let (v, rest_key) = (key[0], &key[1..]);
                        pairs.resize(w + rc.len(), (0, 0));
                        for (r, &x) in rc.iter().enumerate() {
                            pairs[w] = (l as u32, r as u32);
                            let hit = rest_key
                                .iter()
                                .zip(rest)
                                .fold(x == v, |eq, (&v, rc)| eq & (v == rc[r]));
                            w += usize::from(hit);
                        }
                    }
                    pairs.truncate(w);
                    pairs
                })
            }
        };
        // The output, left pending: the parts concatenate (left then
        // right, like the reference executor's columns) where it is read.
        let rows = pair_chunks.iter().map(Vec::len).sum::<usize>();
        self.stats.record(op, batches, rows as u64);
        Ok(Out::Joined {
            sides,
            pairs: pair_chunks,
        })
    }

    /// What an aggregate over `t` computes. A *partial* aggregate keeps
    /// all attribute columns (first row per group), materializes the
    /// weight column and one accumulator per aggregate call whose input
    /// it carries; the *final* aggregate emits one finalized accumulator
    /// per call and drops the weight.
    fn agg_spec<'t>(
        &self,
        plan: PlanId,
        op: &'static str,
        t: &'t View<'_, 'a>,
        partial: bool,
    ) -> Result<AggSpec<'t>, ExecError> {
        let mut spec = AggSpec {
            cols: Vec::new(),
            folds: Vec::new(),
        };
        let weight = t.weight.map_or_else(Vec::new, |w| t.factors(w));
        // Fold 0, when a column needs it: the group's Σ weight — a
        // partial's weight column, a final `count`'s value.
        let count = |call: &AggCall| call.func == AggFunc::Count;
        if partial || self.query.aggregates.iter().any(count) {
            spec.folds.push(Fold {
                func: AggFunc::Sum,
                contrib: weight.clone(),
            });
        }
        if partial {
            spec.cols.push((ColRef::Weight, 0));
        }
        for (call, agg) in self.query.aggregates.iter().enumerate() {
            if count(agg) {
                if !partial {
                    spec.cols.push((ColRef::Acc(call), 0));
                }
                // Partial counts live entirely in the weight column.
                continue;
            }
            let acc = t.accs.iter().find(|a| a.0 == call);
            let contrib = match (acc, agg.input.and_then(|a| t.attr(a))) {
                (Some(&(_, acc)), _) => t.factors(acc),
                (None, Some(raw)) if agg.func == AggFunc::Sum => [&[raw][..], &weight].concat(),
                (None, Some(raw)) => vec![raw],
                // This side does not carry the call's input — an
                // eager-count partial contributes weight only.
                (None, None) if partial => continue,
                (None, None) => {
                    return Err(self.err(
                        plan,
                        op,
                        agg.input,
                        format!(
                            "final aggregate has neither an accumulator nor the raw input \
                             for {}(#{call})",
                            agg.func.name()
                        ),
                    ))
                }
            };
            spec.cols.push((ColRef::Acc(call), spec.folds.len()));
            spec.folds.push(Fold {
                func: agg.func,
                contrib,
            });
        }
        Ok(spec)
    }

    /// Hash aggregation over `key`. Per morsel, every row gets its local
    /// group first ([`local_groups`]); then the weight and each value
    /// column fold with one scatter loop per function, from the
    /// function's identity. The local tables merge serially in morsel
    /// order, which reproduces the reference executor's single-pass
    /// first-seen group order exactly, their accumulators scattered the
    /// same way; the scramble is then applied to the group order.
    fn hash_aggregate(
        &mut self,
        plan: PlanId,
        t: Out<'a>,
        key: &[AttrId],
        partial: bool,
    ) -> Result<Inter<'a>, ExecError> {
        let op = "HashAgg";
        let t = self.view(t.sides());
        let key_cols = self.cols(plan, op, &t, key)?;
        let spec = self.agg_spec(plan, op, &t, partial)?;
        let folds = &spec.folds;
        let (chunks, batches) = run_morsels(t.rows, self.morsel, |range| {
            let (table, gids) = local_groups(&key_cols, range.clone());
            let accs: Vec<Vec<i64>> = folds
                .iter()
                .map(|f| {
                    let mut acc = vec![identity(f.func); table.len()];
                    let vals = contributions(&f.contrib, range.clone());
                    scatter(f.func, &mut acc, &gids, vals.as_deref());
                    acc
                })
                .collect();
            (table, accs)
        });
        let mut table = GroupTable::with_capacity(chunks.iter().map(|c| c.0.len()).sum());
        let mut accs: Vec<Vec<i64>> = folds.iter().map(|_| Vec::new()).collect();
        let mut ids = Vec::new();
        for (local, local_accs) in &chunks {
            table.absorb(local, &key_cols, &mut ids);
            for ((acc, f), local_acc) in accs.iter_mut().zip(folds).zip(local_accs) {
                acc.resize(table.len(), identity(f.func));
                scatter(f.func, acc, &ids, Some(local_acc));
            }
        }
        drop(chunks);

        let order = scramble_order(table.len());
        let reps: Vec<u32> = order.iter().map(|&g| table.first(g)).collect();
        let values: Vec<Vec<i64>> = accs
            .iter()
            .map(|acc| order.iter().map(|&g| acc[g]).collect())
            .collect();
        let reps = Spliced::new(std::slice::from_ref(&reps));
        let (out, cb) = self.take(&t, &reps, |&r, p| t.side_rows(r as usize, p), false);
        let out = spec.finish(out, values);
        self.stats.record(op, batches + cb, out.rows as u64);
        Ok(out)
    }

    /// Streaming aggregation — `StreamAgg`, and the aggregate half of
    /// `GroupJoin`. The planner places it on input grouped on `key`, so
    /// every group is one maximal run of equal keys, folded where it
    /// lies without hashing a row. Each morsel finds the runs that start
    /// in it ([`run_starts`]: its keys read once, neighbours compared);
    /// the run starts' keys alone are hashed to verify the grouping — a
    /// key that resumes after its run ended is a located error, never a
    /// silently split group. A morsel's last run ends at the next
    /// non-empty morsel's first start; each morsel's run bounds are
    /// built once. The value columns then fill one after another
    /// ([`fill_columns`]), a task per morsel: it reads the column's
    /// contribution over its runs once, as a dense slice, and folds it
    /// with one loop per function, straight into its rows of the value
    /// column. Groups come out in run order: on grouped input, the
    /// first-seen order the hash kernel would produce. The run starts
    /// are the groups' representative rows. Over a join's output the
    /// keys and contributions are read through its pair list ([`View`]).
    fn stream_aggregate(
        &mut self,
        plan: PlanId,
        op: &'static str,
        t: Out<'a>,
        key: &[AttrId],
        partial: bool,
    ) -> Result<Inter<'a>, ExecError> {
        let t = self.view(t.sides());
        let key_cols = self.cols(plan, op, &t, key)?;
        let spec = self.agg_spec(plan, op, &t, partial)?;
        let n = t.rows;
        let (runs, batches) = run_morsels(n, self.morsel, |range| run_starts(&key_cols, range));
        if let Some((first, again)) = resumed_run(&runs) {
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
        let starts: Vec<Vec<u32>> = runs.into_iter().map(|r| r.starts).collect();
        // Each morsel's runs end at the next run start after them.
        let mut ends = vec![n; starts.len()];
        let mut next = n;
        for (end, s) in ends.iter_mut().zip(&starts).rev() {
            *end = next;
            next = s.first().map_or(next, |&f| f as usize);
        }
        let mut at = 0;
        let out_ranges: Vec<Range<usize>> = starts
            .iter()
            .map(|s| {
                at += s.len();
                at - s.len()..at
            })
            .collect();
        // Each morsel's run bounds, from its first start, end to end:
        // morsel `m`'s are the `starts[m].len() + 1` from
        // `out_ranges[m].start + m`.
        let mut bounds = Vec::with_capacity(at + starts.len());
        for (s, &end) in starts.iter().zip(&ends) {
            let lo = s.first().map_or(end, |&f| f as usize);
            bounds.extend(s.iter().map(|&s| s as usize - lo).chain([end - lo]));
        }
        let values = fill_columns(spec.folds.len(), &out_ranges, |c, m, dst| {
            let Some(&lo) = starts[m].first() else {
                return;
            };
            let (f, b) = (&spec.folds[c], out_ranges[m].start + m);
            fold_runs(
                f.func,
                contributions(&f.contrib, lo as usize..ends[m]).as_deref(),
                &bounds[b..=b + starts[m].len()],
                dst,
            );
        });
        let starts = Spliced::new(&starts);
        let (out, cb) = self.take(&t, &starts, |&r, p| t.side_rows(r as usize, p), false);
        let out = spec.finish(out, values);
        self.stats.record(op, batches + cb, out.rows as u64);
        Ok(out)
    }

    /// The hash-grouping enforcer: rows equal on `key` become adjacent.
    /// Blocks keep row order, block order is deterministically scrambled
    /// — byte-identical with the reference executor's.
    fn hash_group(
        &mut self,
        plan: PlanId,
        t: Out<'a>,
        key: &[AttrId],
    ) -> Result<Inter<'a>, ExecError> {
        let t = self.view(t.sides());
        let key_cols = self.cols(plan, "HashGroup", &t, key)?;
        // Per morsel: a local group table and every row's local group.
        let (chunks, batches) =
            run_morsels(t.rows, self.morsel, |range| local_groups(&key_cols, range));
        // Local ids renumbered in morsel order (= global first-seen
        // order): every row's global group, and the group sizes.
        let mut table = GroupTable::with_capacity(chunks.iter().map(|(l, _)| l.len()).sum());
        let mut gid: Vec<u32> = Vec::with_capacity(t.rows);
        let mut global: Vec<u32> = Vec::new();
        for (local, gids) in &chunks {
            table.absorb(local, &key_cols, &mut global);
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
        let (out, tb) = self.take(
            &t,
            &Spliced::new(&idx),
            |&r, p| t.side_rows(r as usize, p),
            true,
        );
        self.stats
            .record("HashGroup", batches + tb, out.rows as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute_reference;
    use ofw_plangen::plan::AggMark;
    use ofw_plangen::PlanNode;
    use ofw_query::{AggCall, ConstPred, FilterPred};
    use proptest::prelude::*;

    /// `t`'s attribute columns: its leading ones, ahead of any weight or
    /// accumulator column — what the reference executor returns.
    fn attrs(t: &ColTable) -> ColTable {
        let n = t.attr_ids().len();
        ColTable::new(t.schema[..n].to_vec(), t.cols[..n].to_vec())
    }

    /// `plan` executed at `morsel` rows per morsel, untraced.
    fn execute_at<S: Copy>(
        arena: &PlanArena<S>,
        plan: PlanId,
        catalog: &Catalog,
        query: &Query,
        data: &[Vec<Vec<i64>>],
        morsel: usize,
    ) -> Result<(ColTable, ExecStats), ExecError> {
        let opts = ExecOptions {
            morsel_rows: morsel,
        };
        execute_plan(
            arena,
            plan,
            catalog,
            query,
            data,
            &(),
            &opts,
            &Trace::disabled(),
        )
    }

    #[test]
    fn scramble_matches_the_legacy_reverse_interleave() {
        // Legacy: reverse [0..5] = [4,3,2,1,0]; evens then odds of the
        // reversed list = [4,2,0] ++ [3,1].
        assert_eq!(scramble_order(5), vec![4, 2, 0, 3, 1]);
        assert_eq!(scramble_order(0), Vec::<usize>::new());
        assert_eq!(scramble_order(1), vec![0]);
        assert_eq!(scramble_order(2), vec![1, 0]);
    }

    /// The kernel's sort of the ascending `rows` by `cols`: the sorted
    /// rows and the number of tasks run.
    fn kernel_sort(cols: &[&[i64]], rows: &[u32], morsel: usize) -> (Vec<u32>, u64) {
        let cols: Vec<Col> = cols.iter().map(|&c| Col::from(c)).collect();
        let entries = extract_keys(&cols, rows.iter().copied(), rows.len());
        let rest = cols.get(1..).unwrap_or_default();
        let (sorted, tasks) = sort_entries(morsel, rest, entries);
        (sorted.into_iter().map(|e| e.1).collect(), tasks)
    }

    /// The reference: the standard library's stable sort of `rows`
    /// through the indirect row comparator.
    fn stable_sort(cols: &[&[i64]], rows: &[u32]) -> Vec<u32> {
        let cols: Vec<Col> = cols.iter().map(|&c| Col::from(c)).collect();
        let mut expect = rows.to_vec();
        expect.sort_by(|&a, &b| cmp_rows(&cols, a, b));
        expect
    }

    #[test]
    fn radix_kernel_is_a_stable_sort() {
        let col: Vec<i64> = vec![3, 1, 2, 1, 3, 0, 2, 1];
        let cols: Vec<&[i64]> = vec![&col];
        let all: Vec<u32> = (0..8).collect();
        assert_eq!(stable_sort(&cols, &all), vec![5, 1, 3, 7, 2, 6, 0, 4]);
        for rows in [&all[..], &[], &[6], &[5, 6], &[0, 4], &[1, 3, 7]] {
            for morsel in [1, 4, 4096] {
                assert_eq!(kernel_sort(&cols, rows, morsel).0, stable_sort(&cols, rows));
            }
        }
    }

    #[test]
    fn radix_kernel_matches_the_stable_sort_at_every_key_width() {
        // 20 000 rows per first-key shape: one digit (≤ 11 bits), two and
        // three digits, wider than 2³², all 64 bits; skewed (one bucket
        // holds nearly everything, so its lower digits run as counting
        // passes); ascending, descending, constant and extreme keys.
        let n = 20_000u64;
        let spread = |bits: u32| -> Vec<i64> {
            (0..n)
                .map(|r| {
                    let h = r.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    if bits == 64 {
                        h as i64
                    } else {
                        (h >> (64 - bits)) as i64 - (1 << (bits - 1))
                    }
                })
                .collect()
        };
        let mut firsts: Vec<Vec<i64>> = [1, 5, 11, 12, 16, 22, 23, 33, 40, 63, 64]
            .into_iter()
            .map(spread)
            .collect();
        let rows = 0..n as i64;
        firsts.push(
            rows.clone()
                .map(|r| if r % 999 == 0 { 1 << 40 } else { r % 300 })
                .collect(),
        );
        firsts.push(rows.clone().map(|r| r / 3).collect());
        firsts.push(rows.clone().map(|r| -r).collect());
        firsts.push(vec![7; n as usize]);
        firsts.push(
            rows.clone()
                .map(|r| [i64::MIN, i64::MAX, 0][r as usize % 3])
                .collect(),
        );
        let ties: Vec<i64> = rows.clone().map(|r| (r * 7) % 5 - 2).collect();
        let parity: Vec<i64> = rows.map(|r| r % 2).collect();
        let all: Vec<u32> = (0..n as u32).collect();
        let gapped: Vec<u32> = (0..n as u32).filter(|r| r % 3 != 0).collect();
        for first in &firsts {
            for k in 1..=3 {
                let cols: Vec<&[i64]> = [&first[..], &ties, &parity][..k].to_vec();
                for rows in [&all, &gapped] {
                    let (got, _) = kernel_sort(&cols, rows, MORSEL_ROWS);
                    assert!(got == stable_sort(&cols, rows), "{k} key columns");
                }
            }
        }
    }

    fn key_value() -> impl Strategy<Value = i64> {
        prop_oneof![
            -4i64..5,
            -300i64..300,
            -300i64..300,
            Just(i64::MIN),
            Just(i64::MAX),
            -(1i64 << 40)..(1i64 << 40)
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The radix kernel equals the indirect stable sort on 1–3 key
        /// columns of narrow, wide and extreme values, for input drawn
        /// at random, already sorted or descending on the first key, over
        /// every row or a gapped row subset (what a filtered index scan
        /// sorts), whatever the task batching.
        #[test]
        fn radix_kernel_equals_the_stable_sort(
            cols in (1usize..4, 0usize..400).prop_flat_map(|(k, n)| {
                proptest::collection::vec(proptest::collection::vec(key_value(), n), k)
            }),
            shape in 0u8..3,
            gaps in proptest::collection::vec(0u8..3, 400),
            morsel in 1usize..200,
        ) {
            let mut cols = cols;
            match shape {
                1 => cols[0].sort_unstable(),
                2 => cols[0].sort_unstable_by(|a, b| b.cmp(a)),
                _ => {}
            }
            let n = cols[0].len() as u32;
            let cols: Vec<&[i64]> = cols.iter().map(Vec::as_slice).collect();
            let all: Vec<u32> = (0..n).collect();
            let gapped: Vec<u32> = (0..n).filter(|&r| gaps[r as usize] != 0).collect();
            for rows in [all, gapped] {
                prop_assert_eq!(kernel_sort(&cols, &rows, morsel).0, stable_sort(&cols, &rows));
            }
        }
    }

    #[test]
    fn radix_tasks_batch_buckets_to_at_least_a_morsel() {
        let tasks =
            |cols: &[&[i64]], n: u32, morsel| kernel_sort(cols, &Vec::from_iter(0..n), morsel).1;
        let desc: Vec<i64> = (0..4096).map(|r| -r).collect();
        let small: Vec<i64> = (0..4096).map(|r| r % 8).collect();
        let same = [5; 4096];
        // 12 bits: 64 top-digit buckets of 64 entries, batched until a
        // task holds a morsel's worth.
        assert_eq!(tasks(&[&desc], 4096, 1024), 4);
        assert_eq!(tasks(&[&desc], 4096, 1), 64);
        // One digit sorts in the partition pass: no task, unless equal
        // keys are left to order by the other key columns.
        assert_eq!(tasks(&[&small], 4096, 1024), 0);
        assert_eq!(tasks(&[&small, &desc], 4096, 1024), 4);
        assert_eq!(tasks(&[&same], 4096, 1024), 0);
        // Up to the comparison threshold the caller sorts: no task.
        assert_eq!(tasks(&[&desc], SMALL_SORT as u32, 1024), 0);
        assert_eq!(tasks(&[&small, &desc], SMALL_SORT as u32 + 1, 1024), 1);
    }

    #[test]
    fn partial_sort_of_one_row_head_blocks_is_the_full_sort() {
        // The shape partial sorts used to merge: every head block is a
        // single row, because consecutive rows differ on the head.
        let (catalog, query) = agg_fixture();
        let (g, h) = (catalog.attr("r.g"), catalog.attr("r.h"));
        let rows = 0..3001;
        let data = vec![vec![
            rows.clone()
                .map(|r| (r * 7919) % 13 - 6)
                .collect::<Vec<i64>>(),
            rows.clone().map(|r| (r * 104729) % 5).collect(),
            rows.map(|r| r * 3).collect(),
        ]];
        let mut arena: PlanArena<()> = PlanArena::new();
        let scan = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
        let key = vec![g, h];
        let sort = arena.push(node(
            &query,
            &[0],
            PlanOp::Sort {
                input: scan,
                key: key.clone(),
            },
        ));
        let partial = arena.push(node(
            &query,
            &[0],
            PlanOp::PartialSort {
                input: scan,
                key,
                head: vec![g],
            },
        ));
        let run = |plan| {
            execute_serial(&arena, plan, &catalog, &query, &data)
                .unwrap()
                .0
        };
        let (sorted, partially) = (run(sort), run(partial));
        assert_eq!(sorted, partially);
        let cols: Vec<&[i64]> = vec![&data[0][0], &data[0][1]];
        let expect = stable_sort(&cols, &Vec::from_iter(0..3001));
        let got: Vec<u32> = sorted.cols[2].iter().map(|&x| (x / 3) as u32).collect();
        assert_eq!(got, expect);
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
        let mut writes = Vec::new();
        let cols = fill_columns::<i64>(2, &ranges, |c, i, dst| {
            assert_eq!(dst.len(), ranges[i].len());
            assert!(dst.iter().all(|&d| d == 0), "a piece is written once");
            for (k, d) in dst.iter_mut().enumerate() {
                *d = (10 * c + ranges[i].start + k) as i64;
            }
            writes.push((c, i));
        });
        assert_eq!(cols[0], vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(cols[1], vec![10, 11, 12, 13, 14, 15, 16]);
        // Column after column: every piece of one before any of the next.
        assert_eq!(writes, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        // No range: empty columns, no task.
        let empty = fill_columns::<i64>(3, &[], |_, _, _| unreachable!());
        assert_eq!(empty, vec![Vec::<i64>::new(); 3]);
        // No column: no task either.
        let none = fill_columns::<i64>(0, &ranges, |_, _, _| unreachable!());
        assert!(none.is_empty());
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
        // A missing relation, a column count the catalog does not
        // declare and ragged columns: each an error from both executors,
        // naming the scan (also below a sort), its operator and the
        // relation.
        let mut catalog = Catalog::new();
        let rel = catalog.add_relation("orders", 3.0, &["a", "b"]);
        catalog.add_index(rel, vec![catalog.attr("orders.a")], false);
        let mut query = Query::new();
        query.add_relation(&catalog, rel);
        let mut arena: PlanArena<()> = PlanArena::new();
        let scan = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
        let index_scan = arena.push(node(&query, &[0], PlanOp::IndexScan { qrel: 0, index: 0 }));
        let key = vec![catalog.attr("orders.b")];
        let sort = arena.push(node(&query, &[0], PlanOp::Sort { input: scan, key }));
        let good = vec![vec![vec![3, 1, 2], vec![7, 8, 9]]];
        let one_column = vec![vec![vec![3, 1, 2]]];
        let ragged = vec![vec![vec![3, 1, 2], vec![7, 8]]];
        for (plan, at, op) in [
            (scan, scan, "Scan"),
            (index_scan, index_scan, "IndexScan"),
            (sort, scan, "Scan"),
        ] {
            let (out, _) = execute_serial(&arena, plan, &catalog, &query, &good).unwrap();
            assert_eq!(out.num_rows(), 3);
            assert_eq!(
                execute_reference(&arena, plan, &catalog, &query, &good),
                Ok(out)
            );
            for bad in [&one_column, &ragged, &Vec::new()] {
                let err = execute_serial(&arena, plan, &catalog, &query, bad).unwrap_err();
                assert_eq!((err.plan, err.op), (at, op), "{err}");
                assert!(err.detail.contains("orders"), "{err}");
                let reference = execute_reference(&arena, plan, &catalog, &query, bad);
                assert_eq!(reference, Err(err));
            }
        }
    }

    /// `r(a, b, c)` with an index on `(a, b)`, `b = CONST_VALUE` when
    /// `constant`, `c <= FILTER_BOUND` when `filter`.
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
        /// scan equals the reference executor's sort-first scan on duplicate
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
            let (out, _) = execute_at(&arena, scan, &catalog, &query, &data, morsel).unwrap();
            prop_assert_eq!(attrs(&out), execute_reference(&arena, scan, &catalog, &query, &data).unwrap());
        }
    }

    #[test]
    fn sorts_over_100k_rows_are_byte_identical_at_two_morsel_sizes() {
        // `r(a, b, c)`: `a` spans 16 bits, so the kernel partitions on a
        // top digit and finishes buckets with a counting pass; `b` breaks
        // ties; the filtered index scan sorts every other row.
        let (catalog, query, mut arena, index_scan) = index_fixture(false, true);
        let (a, b) = (catalog.attr("r.a"), catalog.attr("r.b"));
        let rows = 0..100_000i64;
        let data = vec![vec![
            rows.clone().map(|r| (r * 7919) % 40_000).collect(),
            rows.clone().map(|r| r % 7 - 3).collect(),
            rows.map(|r| r % 4).collect(),
        ]];
        let scan = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
        let grouped = arena.push(node(
            &query,
            &[0],
            PlanOp::HashGroup {
                input: scan,
                key: vec![a],
            },
        ));
        let sort = |arena: &mut PlanArena<()>, input| {
            arena.push(node(
                &query,
                &[0],
                PlanOp::Sort {
                    input,
                    key: vec![a, b],
                },
            ))
        };
        let (sort_scan, sort_grouped) = (sort(&mut arena, scan), sort(&mut arena, grouped));
        let partial = arena.push(node(
            &query,
            &[0],
            PlanOp::PartialSort {
                input: grouped,
                key: vec![a, b],
                head: vec![a],
            },
        ));
        let serial = |plan| execute_serial(&arena, plan, &catalog, &query, &data).unwrap();
        for plan in [index_scan, sort_scan, partial] {
            let small = execute_at(&arena, plan, &catalog, &query, &data, 64).unwrap();
            assert!(small.0 == serial(plan).0, "{plan:?} at 64 rows a morsel");
        }
        assert_eq!(serial(partial).0, serial(sort_grouped).0);
        let expect = execute_reference(&arena, index_scan, &catalog, &query, &data).unwrap();
        assert_eq!(attrs(&serial(index_scan).0), expect);
    }

    /// For each attribute column of `plan`'s output, the column its root
    /// copies it from (itself when it is gathered).
    fn root_classes(
        arena: &PlanArena<()>,
        plan: PlanId,
        catalog: &Catalog,
        query: &Query,
        data: &[Vec<Vec<i64>>],
    ) -> Vec<usize> {
        let mut eng = Engine {
            arena,
            catalog,
            query,
            graph: JoinGraph::new(query),
            data,
            morsel: MORSEL_ROWS,
            stats: ExecStats::default(),
        };
        let t = eng.exec(plan).unwrap();
        let schema = t.schema();
        let attrs = schema.iter().take_while(|c| matches!(c, ColRef::Attr(_)));
        eng.equal_columns(plan, &schema[..attrs.count()])
    }

    #[test]
    fn same_relation_edges_and_cross_products_equate_no_columns() {
        // `r0(a, b) × (r1(c, e) ⋈ r2(d))` on `r1.c = r2.d`, and the
        // same-relation edge `r0.a = r0.b`, which no operator applies.
        let mut catalog = Catalog::new();
        let rels = [("r0", &["a", "b"][..]), ("r1", &["c", "e"]), ("r2", &["d"])];
        let mut query = Query::new();
        for (name, attrs) in rels {
            let rel = catalog.add_relation(name, 3.0, attrs);
            query.add_relation(&catalog, rel);
        }
        for (l, r) in [("r0.a", "r0.b"), ("r1.c", "r2.d")] {
            query.joins.push(ofw_query::JoinEdge {
                left: catalog.attr(l),
                right: catalog.attr(r),
                selectivity: 0.5,
            });
        }
        let data = vec![
            vec![vec![1, 2, 3], vec![1, 5, 3]],
            vec![vec![1, 2, 2], vec![7, 8, 9]],
            vec![vec![2, 1, 2]],
        ];
        let mut arena: PlanArena<()> = PlanArena::new();
        let scans: Vec<PlanId> = (0..3)
            .map(|q| arena.push(node(&query, &[q], PlanOp::Scan { qrel: q })))
            .collect();
        let joined = arena.push(node(
            &query,
            &[1, 2],
            PlanOp::HashJoin {
                left: scans[1],
                right: scans[2],
                edge: 1,
            },
        ));
        let cross = arena.push(node(
            &query,
            &[0, 1, 2],
            PlanOp::NestedLoopJoin {
                left: scans[0],
                right: joined,
            },
        ));
        // Schema `r0.a r0.b r1.c r1.e r2.d`: only `r2.d` copies `r1.c`.
        for (plan, classes) in [
            (scans[0], vec![0, 1]),
            (joined, vec![0, 1, 0]),
            (cross, vec![0, 1, 2, 3, 2]),
        ] {
            assert_eq!(
                root_classes(&arena, plan, &catalog, &query, &data),
                classes,
                "{plan:?}"
            );
            let out = execute_serial(&arena, plan, &catalog, &query, &data)
                .unwrap()
                .0;
            let reference = execute_reference(&arena, plan, &catalog, &query, &data).unwrap();
            assert_eq!(attrs(&out), reference, "{plan:?}");
        }
        let out = execute_serial(&arena, cross, &catalog, &query, &data)
            .unwrap()
            .0;
        let col = |a: &str| out.col(ColRef::Attr(catalog.attr(a))).unwrap().to_vec();
        assert_eq!(out.num_rows(), 15);
        assert_ne!(col("r0.a"), col("r0.b"));
        assert_eq!(col("r1.c"), col("r2.d"));
    }

    #[test]
    fn join_roots_that_copy_columns_are_byte_identical_at_two_morsel_sizes() {
        // `r0 ⋈ r1 ⋈ r2` on `a` and `b` at each step: a hash join on both
        // edges, then a merge join on `a` with `b` as its residual.
        // `r0.a` repeats every 50 000 rows and meets one `r1` row, which
        // meets one `r2` row: 100 000 output rows.
        let (catalog, query) = chain_fixture(3, true, 0);
        let n = 100_000i64;
        let rel = |a: &dyn Fn(i64) -> i64, v: i64| -> Vec<Vec<i64>> {
            let a: Vec<i64> = (0..n).map(a).collect();
            let b = a.iter().map(|x| x % 13).collect();
            vec![a, b, (0..n).map(|r| v * r).collect()]
        };
        let data = vec![
            rel(&|r| r % 50_000, 1),
            rel(&|r| (r * 7) % n, -1),
            rel(&|r| (r * 3) % n, 3),
        ];
        let mut arena: PlanArena<()> = PlanArena::new();
        let s0 = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
        let s1 = arena.push(node(&query, &[1], PlanOp::Scan { qrel: 1 }));
        let i2 = arena.push(node(&query, &[2], PlanOp::IndexScan { qrel: 2, index: 0 }));
        let hash = arena.push(node(
            &query,
            &[0, 1],
            PlanOp::HashJoin {
                left: s0,
                right: s1,
                edge: 0,
            },
        ));
        let merge = arena.push(node(
            &query,
            &[0, 1, 2],
            PlanOp::MergeJoin {
                left: hash,
                right: i2,
                edge: 2,
            },
        ));
        // Each `r{i}.a` and `r{i}.b` copies `r0`'s; every `v` is gathered.
        assert_eq!(
            root_classes(&arena, merge, &catalog, &query, &data),
            [0, 1, 2, 0, 1, 5, 0, 1, 8]
        );
        assert_eq!(
            root_classes(&arena, hash, &catalog, &query, &data),
            [0, 1, 2, 0, 1, 5]
        );
        let serial = |plan| execute_serial(&arena, plan, &catalog, &query, &data).unwrap();
        assert_eq!(serial(merge).0.num_rows(), n as usize);
        for plan in [hash, merge] {
            let small = execute_at(&arena, plan, &catalog, &query, &data, 64).unwrap();
            assert!(small.0 == serial(plan).0, "{plan:?} at 64 rows a morsel");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(100))]

        /// The nested-loop join's column scan ≡ the per-pair loop over
        /// every edge it replaced, on 0–3 join edges.
        #[test]
        fn nested_loop_scan_equals_the_per_pair_loop(
            edges in 0usize..4,
            left in proptest::collection::vec(proptest::collection::vec(0i64..3, 3), 0..20),
            right in proptest::collection::vec(proptest::collection::vec(0i64..3, 3), 0..40),
            morsel in 1usize..8,
        ) {
            let mut catalog = Catalog::new();
            let r = catalog.add_relation("r", 3.0, &["a", "b", "c"]);
            let s = catalog.add_relation("s", 3.0, &["x", "y", "z"]);
            let mut query = Query::new();
            query.add_relation(&catalog, r);
            query.add_relation(&catalog, s);
            for (l, r) in [("r.a", "s.x"), ("r.b", "s.y"), ("r.c", "s.z")].into_iter().take(edges) {
                query.joins.push(ofw_query::JoinEdge {
                    left: catalog.attr(l),
                    right: catalog.attr(r),
                    selectivity: 0.5,
                });
            }
            let mut arena: PlanArena<()> = PlanArena::new();
            let ls = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
            let rs = arena.push(node(&query, &[1], PlanOp::Scan { qrel: 1 }));
            let nl = arena.push(node(&query, &[0, 1], PlanOp::NestedLoopJoin { left: ls, right: rs }));
            let columns = |rows: &[Vec<i64>]| (0..3).map(|c| rows.iter().map(|row| row[c]).collect()).collect();
            let data = vec![columns(&left), columns(&right)];
            let (out, _) = execute_at(&arena, nl, &catalog, &query, &data, morsel).unwrap();
            let mut expect = vec![Vec::new(); 6];
            for l in &left {
                for r in &right {
                    if (0..edges).all(|e| l[e] == r[e]) {
                        expect.iter_mut().zip(l.iter().chain(r)).for_each(|(c, &v)| c.push(v));
                    }
                }
            }
            prop_assert_eq!(out.cols, expect);
        }

        /// The same scan with its left keys read through row ids: the
        /// left side is a scan filtered on `r.c <= 1`, on 1–2 join edges.
        #[test]
        fn nested_loop_scan_reads_a_filtered_left_side_through_its_ids(
            edges in 1usize..3,
            left in proptest::collection::vec(proptest::collection::vec(0i64..3, 3), 0..20),
            right in proptest::collection::vec(proptest::collection::vec(0i64..3, 3), 0..40),
            morsel in 1usize..8,
        ) {
            let mut catalog = Catalog::new();
            let r = catalog.add_relation("r", 3.0, &["a", "b", "c"]);
            let s = catalog.add_relation("s", 3.0, &["x", "y", "z"]);
            let mut query = Query::new();
            query.add_relation(&catalog, r);
            query.add_relation(&catalog, s);
            query.filters.push(FilterPred {
                attr: catalog.attr("r.c"),
                selectivity: 0.5,
            });
            for (l, r) in [("r.a", "s.x"), ("r.b", "s.y")].into_iter().take(edges) {
                query.joins.push(ofw_query::JoinEdge {
                    left: catalog.attr(l),
                    right: catalog.attr(r),
                    selectivity: 0.5,
                });
            }
            let mut arena: PlanArena<()> = PlanArena::new();
            let ls = arena.push(node(&query, &[0], PlanOp::Scan { qrel: 0 }));
            let rs = arena.push(node(&query, &[1], PlanOp::Scan { qrel: 1 }));
            let nl = arena.push(node(&query, &[0, 1], PlanOp::NestedLoopJoin { left: ls, right: rs }));
            let columns = |rows: &[Vec<i64>]| (0..3).map(|c| rows.iter().map(|row| row[c]).collect()).collect();
            let data = vec![columns(&left), columns(&right)];
            let (out, _) = execute_at(&arena, nl, &catalog, &query, &data, morsel).unwrap();
            let mut expect = vec![Vec::new(); 6];
            for l in left.iter().filter(|l| l[2] <= 1) {
                for r in &right {
                    if (0..edges).all(|e| l[e] == r[e]) {
                        expect.iter_mut().zip(l.iter().chain(r)).for_each(|(c, &v)| c.push(v));
                    }
                }
            }
            prop_assert_eq!(out.cols, expect);
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

        /// Streaming ≡ unscrambled hash aggregation ≡ a per-group model
        /// on grouped input: partial and final, over raw rows and over a
        /// partial aggregate's weights and accumulators, for
        /// sum/min/max/count, with runs crossing morsels at tiny morsel
        /// sizes. The model is computed from `runs` alone, so a fold bug
        /// the two kernels share fails it.
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
            // Per group: its key, then sum, min, max and count of `v` —
            // what every aggregate below computes, whether it folds the
            // raw rows or the `(g, h)` partial's weights and accumulators.
            let model: Vec<[i64; 5]> = runs
                .iter()
                .enumerate()
                .map(|(i, &(len, _, v))| {
                    let vs: Vec<i64> = (0..len).map(|k| v + (k as i64 * 13) % 29 - 14).collect();
                    let (min, max) = (vs.iter().min().unwrap(), vs.iter().max().unwrap());
                    [i as i64 * 7 - 80, vs.iter().sum(), *min, *max, len as i64]
                })
                .collect();
            let (catalog, query) = agg_fixture();
            let (g, h) = (catalog.attr("r.g"), catalog.attr("r.h"));
            let data = vec![cols];
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
                    let run = |plan| execute_at(&arena, plan, &catalog, &query, &data, morsel).unwrap();
                    let (s, s_stats) = run(stream);
                    let (hashed, h_stats) = run(hash);
                    // A partial's count is its weight column; a final
                    // one's is `count(*)`'s accumulator.
                    let count = if partial { ColRef::Weight } else { ColRef::Acc(3) };
                    let model_cols = [ColRef::Attr(g), ColRef::Acc(0), ColRef::Acc(1),
                        ColRef::Acc(2), count];
                    for out in [&s, &unscramble(&hashed)] {
                        for (c, &what) in model_cols.iter().enumerate() {
                            let expect: Vec<i64> = model.iter().map(|m| m[c]).collect();
                            prop_assert_eq!(out.col(what), Some(&expect[..]), "{:?}", what);
                        }
                    }
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
        let err = execute_at(&arena, agg, &catalog, &query, &data, 2).unwrap_err();
        assert_eq!(
            (err.plan, err.op, err.attr),
            (agg, "StreamAgg", None),
            "{err}"
        );
        assert!(err.detail.contains("row 3"), "{err}");
        let grouped = vec![vec![vec![1, 1, 1, 2], vec![0; 4], vec![5; 4]]];
        let out = execute_at(&arena, agg, &catalog, &query, &grouped, 2).unwrap();
        assert_eq!(out.0.num_rows(), 2);

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
        let err = execute_at(&arena, gj, &catalog, &query, &data, 2).unwrap_err();
        assert_eq!((err.plan, err.op), (gj, "GroupJoin"), "{err}");
    }

    /// `n` relations `r{i}(a, b, v)`, chained by `r{i}.a = r{i+1}.a` (and
    /// `r{i}.b = r{i+1}.b` when `double`), each indexed on `(a)` and on
    /// `(b, v)`; `preds` bit `2i` filters `r{i}.b <= 1`, bit `2i + 1`
    /// holds `r{i}.v` constant. Aggregates: `sum(r0.v)`, `count(*)`,
    /// `sum(r{n-1}.v)`, `max(r1.v)`.
    fn chain_fixture(n: usize, double: bool, preds: u8) -> (Catalog, Query) {
        let mut catalog = Catalog::new();
        let mut query = Query::new();
        for i in 0..n {
            let rel = catalog.add_relation(&format!("r{i}"), 9.0, &["a", "b", "v"]);
            let at = |c: &str| catalog.attr(&format!("r{i}.{c}"));
            let (a, b, v) = (at("a"), at("b"), at("v"));
            catalog.add_index(rel, vec![a], false);
            catalog.add_index(rel, vec![b, v], false);
            query.add_relation(&catalog, rel);
            if preds & (1 << (2 * i)) != 0 {
                query.filters.push(FilterPred {
                    attr: b,
                    selectivity: 0.5,
                });
            }
            if preds & (1 << (2 * i + 1)) != 0 {
                query.constants.push(ConstPred {
                    attr: v,
                    selectivity: 0.5,
                });
            }
        }
        let cols: &[&str] = if double { &["a", "b"] } else { &["a"] };
        for i in 1..n {
            for c in cols {
                query.joins.push(ofw_query::JoinEdge {
                    left: catalog.attr(&format!("r{}.{c}", i - 1)),
                    right: catalog.attr(&format!("r{i}.{c}")),
                    selectivity: 0.5,
                });
            }
        }
        let v = |i: usize| Some(catalog.attr(&format!("r{i}.v")));
        let call = |func, input| AggCall { func, input };
        query.aggregates = vec![
            call(AggFunc::Sum, v(0)),
            call(AggFunc::Count, None),
            call(AggFunc::Sum, v(n - 1)),
            call(AggFunc::Max, v(1)),
        ];
        (catalog, query)
    }

    /// One random plan tree over a [`chain_fixture`], built twice in
    /// lockstep: as drawn (arena 0), and without its partial aggregates
    /// (arena 1). Every node is the pair of its two ids.
    struct TreeGen<'q> {
        catalog: &'q Catalog,
        query: &'q Query,
        double: bool,
        left_deep: bool,
        choices: &'q [u8],
        at: usize,
        arenas: [PlanArena<()>; 2],
        /// Every join node.
        joins: Vec<[PlanId; 2]>,
    }

    impl TreeGen<'_> {
        fn pick(&mut self, n: usize) -> usize {
            let c = self.choices[self.at % self.choices.len()];
            self.at += 1;
            c as usize % n
        }

        fn attr(&self, i: usize, c: &str) -> AttrId {
            self.catalog.attr(&format!("r{i}.{c}"))
        }

        /// `op(s)` pushed onto arena `s`, for both.
        fn push(&mut self, qrels: &[usize], op: impl Fn(usize) -> PlanOp) -> [PlanId; 2] {
            [0, 1].map(|s| self.arenas[s].push(node(self.query, qrels, op(s))))
        }

        /// A plan over relations `lo..hi`: a scan, an index scan, or a
        /// join of two sub-ranges in either order, then wrapped.
        fn build(&mut self, lo: usize, hi: usize) -> [PlanId; 2] {
            let qrels: Vec<usize> = (lo..hi).collect();
            let id = if hi - lo == 1 {
                match self.pick(3) {
                    0 => self.push(&qrels, |_| PlanOp::Scan { qrel: lo }),
                    i => self.push(&qrels, |_| PlanOp::IndexScan {
                        qrel: lo,
                        index: i - 1,
                    }),
                }
            } else {
                let m = if self.left_deep {
                    hi - 1
                } else {
                    lo + 1 + self.pick(hi - lo - 1)
                };
                let (mut l, mut r) = ((lo, m), (m, hi));
                if self.pick(2) == 1 {
                    std::mem::swap(&mut l, &mut r);
                }
                let left = self.build(l.0, l.1);
                let mut right = self.build(r.0, r.1);
                // The `a` edge between `r{m-1}` and `r{m}`.
                let edge = (m - 1) * if self.double { 2 } else { 1 };
                let kind = self.pick(3);
                if kind == 0 {
                    // A merge join reads its right side sorted on the edge.
                    let key = vec![self.attr(if r.0 == m { m } else { m - 1 }, "a")];
                    let rq: Vec<usize> = (r.0..r.1).collect();
                    right = self.push(&rq, |s| PlanOp::Sort {
                        input: right[s],
                        key: key.clone(),
                    });
                }
                let join = self.push(&qrels, |s| {
                    let (left, right) = (left[s], right[s]);
                    match kind {
                        0 => PlanOp::MergeJoin { left, right, edge },
                        1 => PlanOp::HashJoin { left, right, edge },
                        _ => PlanOp::NestedLoopJoin { left, right },
                    }
                });
                self.joins.push(join);
                join
            };
            self.wrap(id, &qrels)
        }

        /// A random non-empty key over relations `qrels`.
        fn key(&mut self, qrels: &[usize]) -> Vec<AttrId> {
            let mut key = Vec::new();
            for _ in 0..1 + self.pick(3) {
                let i = qrels[self.pick(qrels.len())];
                let c = ["a", "b", "v"][self.pick(3)];
                let a = self.attr(i, c);
                if !key.contains(&a) {
                    key.push(a);
                }
            }
            key
        }

        /// `id` as is, under a sort or a hash grouping, or under a partial
        /// aggregate (hash, or streaming over a sort) in arena 0 only.
        fn wrap(&mut self, id: [PlanId; 2], qrels: &[usize]) -> [PlanId; 2] {
            match self.pick(6) {
                0 => {
                    let key = self.key(qrels);
                    self.push(qrels, |s| PlanOp::Sort {
                        input: id[s],
                        key: key.clone(),
                    })
                }
                1 => {
                    let key = self.key(qrels);
                    self.push(qrels, |s| PlanOp::HashGroup {
                        input: id[s],
                        key: key.clone(),
                    })
                }
                k @ (2 | 3) => {
                    // Grouped on every join attribute of the side, so the
                    // rows of a group meet the same partners above it.
                    let cols: &[&str] = if self.double { &["a", "b"] } else { &["a"] };
                    let key: Vec<AttrId> = qrels
                        .iter()
                        .flat_map(|&i| cols.iter().map(move |&c| (i, c)))
                        .map(|(i, c)| self.attr(i, c))
                        .collect();
                    let arena = &mut self.arenas[0];
                    let op = if k == 2 {
                        PlanOp::HashAgg {
                            input: id[0],
                            key,
                            partial: true,
                        }
                    } else {
                        let sort = PlanOp::Sort {
                            input: id[0],
                            key: key.clone(),
                        };
                        PlanOp::StreamAgg {
                            input: arena.push(node(self.query, qrels, sort)),
                            key,
                            partial: true,
                        }
                    };
                    [arena.push(node(self.query, qrels, op)), id[1]]
                }
                _ => id,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Id composition through random left-deep and bushy trees of
        /// 2–4 relations over the three join kinds, with filtered scans,
        /// index scans, sorts, hash groupings and partial aggregates on
        /// either side of a join. Every join node, executed as the root at
        /// morsel sizes 1–7: its attribute columns equal the reference
        /// executor's; its Σ weight equals the row count, and each `sum`
        /// accumulator's total the raw column total, of the same tree run
        /// without its partial aggregates.
        #[test]
        fn join_trees_compose_ids_weights_and_accumulators(
            n in 2usize..5,
            shape in 0u8..4,
            preds in 0u8..=255,
            choices in proptest::collection::vec(0u8..=255, 48),
            rows in proptest::collection::vec(0usize..8, 4),
            vals in proptest::collection::vec(0i64..3, 4 * 3 * 8),
        ) {
            let (double, left_deep) = (shape & 1 != 0, shape & 2 != 0);
            let (catalog, query) = chain_fixture(n, double, preds);
            let data: Vec<Vec<Vec<i64>>> = (0..n)
                .map(|i| (0..3).map(|c| vals[(i * 3 + c) * 8..][..rows[i]].to_vec()).collect())
                .collect();
            let mut gen = TreeGen {
                catalog: &catalog,
                query: &query,
                double,
                left_deep,
                choices: &choices,
                at: 0,
                arenas: [PlanArena::new(), PlanArena::new()],
                joins: Vec::new(),
            };
            gen.build(0, n);
            let [full, bare] = &gen.arenas;
            for &[root, bare_root] in &gen.joins {
                let run = |arena, plan, morsel| {
                    execute_at(arena, plan, &catalog, &query, &data, morsel).unwrap().0
                };
                let reference = execute_reference(full, root, &catalog, &query, &data).unwrap();
                let plain = run(bare, bare_root, 1);
                let out = run(full, root, 1);
                prop_assert_eq!(attrs(&out), reference);
                let weight: i64 = (0..out.num_rows()).map(|r| out.weight(r)).sum();
                prop_assert_eq!(weight, plain.num_rows() as i64);
                for (call, agg) in query.aggregates.iter().enumerate() {
                    let Some(acc) = out.col(ColRef::Acc(call)) else { continue };
                    if agg.func == AggFunc::Sum {
                        let raw = plain.col(ColRef::Attr(agg.input.unwrap())).unwrap();
                        prop_assert_eq!(acc.iter().sum::<i64>(), raw.iter().sum::<i64>());
                    }
                }
                for morsel in 2..=7 {
                    prop_assert_eq!(&run(full, root, morsel), &out);
                }
            }
        }
    }
}
