//! The executor's hash kernels: the join's bucket-sorted table and the
//! aggregates' chained group table.
//!
//! No key is materialized per row. A morsel's keys are hashed
//! column-at-a-time into a `Vec<u64>` ([`hash_rows`]), and a table has
//! one power-of-two bucket array. Every kernel reads its input as
//! [`Col`]s: values read through the intermediate's row ids and, over a
//! join's output left pending, through its pair list ([`Spliced`]) first
//! — a row loop one slice at a time ([`Col::each_row`]), a read at
//! random through a search for the pair's list ([`Col::at`]). Two tables:
//!
//! * [`JoinTable`] holds a join's **build rows** (hash join, group
//!   join), sorted by bucket: one counting pass places every row in its
//!   bucket's contiguous span `offsets[b]..offsets[b + 1]`, with its key
//!   values (read once through the row ids) side by side with it. Rows
//!   are scattered in ascending order, so every span ascends and a probe
//!   meets its matches in build-table order. A probe morsel lays every
//!   probe row's span out flat as candidate slots and runs one loop over
//!   all candidates: each writes its pair and advances the write index
//!   by the comparison over all key columns, so no branch depends on a
//!   span's length or on whether a candidate matches.
//! * [`GroupTable`] chains **dense group ids** handed out in first-seen
//!   order (hash aggregation, hash grouping, and the run-start check
//!   below), with `heads` (one slot per bucket) and one entry per group
//!   holding what a chain walk reads together: the key's hash, the chain
//!   link and a representative row. It inserts as it probes and holds
//!   no key: a candidate whose hash matches is compared by the caller,
//!   against its representative row. [`local_groups`] — one morsel of
//!   hash aggregation or hash grouping — reads the morsel's keys once
//!   into dense slices and hashes and compares there, then rebases the
//!   representatives to input rows; the merge of those tables in morsel
//!   order ([`GroupTable::absorb`]) compares *through the input
//!   columns*; the run-start check compares the starts' dense keys.
//!
//! Both orders are functions of the data alone, so nothing an operator
//! emits depends on the hash function or the bucket count — those only
//! decide how long the spans and chains are.
//!
//! The run finder lives here too: [`run_starts`] reads a cut of the rows
//! once per key column into a dense slice, one row of look-back
//! included, marks where a row differs from the one before it (64 rows
//! to a word), and keeps each run start's key values. [`resumed_run`]
//! lays those keys end to end and hashes them to find a key that comes
//! back after its run ended.
//! Streaming aggregation reads its runs through it, so grouped input is
//! never hashed per row.

use ofw_common::hash::fx_mix;
use std::borrow::Cow;
use std::ops::Range;

/// End-of-chain marker.
const NIL: u32 = u32::MAX;

/// Per-morsel result lists — a join's pair lists, a stream aggregate's
/// run starts — read as one sequence without being concatenated.
pub(crate) struct Spliced<'a, T> {
    parts: &'a [Vec<T>],
    /// `starts[p]`: the sequence position of `parts[p][0]`; one more
    /// entry holds the length.
    starts: Vec<usize>,
}

impl<'a, T> Spliced<'a, T> {
    pub(crate) fn new(parts: &'a [Vec<T>]) -> Self {
        let mut starts = Vec::with_capacity(parts.len() + 1);
        starts.push(0);
        for p in parts {
            starts.push(starts[starts.len() - 1] + p.len());
        }
        Spliced { parts, starts }
    }

    pub(crate) fn len(&self) -> usize {
        self.starts[self.parts.len()]
    }

    /// Element `i`, searched for only when it lies outside part `*p`,
    /// which is left at its part: an ascending walk rarely searches. A
    /// read at random first tries the part an even spread would put `i`
    /// in, which per-morsel lists of like lengths mostly confirm.
    #[inline]
    pub(crate) fn get(&self, i: usize, p: &mut usize) -> &'a T {
        let holds = |p: usize| (self.starts[p]..self.starts[p + 1]).contains(&i);
        if !holds(*p) {
            let n = self.parts.len();
            *p = (i * n / self.len()).min(n - 1);
            if !holds(*p) {
                *p = self.starts.partition_point(|&s| s <= i) - 1;
            }
        }
        &self.parts[*p][i - self.starts[*p]]
    }

    /// Elements `range` of the sequence, as consecutive slices.
    pub(crate) fn slices(&self, range: Range<usize>) -> impl Iterator<Item = &'a [T]> + '_ {
        let first = self.starts.partition_point(|&s| s <= range.start) - 1;
        (first..self.parts.len())
            .take_while(move |&p| self.starts[p] < range.end)
            .map(move |p| {
                let at = self.starts[p];
                &self.parts[p][range.start.max(at) - at..range.end.min(self.starts[p + 1]) - at]
            })
    }
}

/// An input column: row `r` is `vals[ids[r]]`, or `vals[r]` without ids
/// (the identity). Over a join's output left pending, `r` is first the
/// row its pair holds on the column's side.
#[derive(Clone, Copy)]
pub(crate) struct Col<'t> {
    pub(crate) vals: &'t [i64],
    pub(crate) ids: Option<&'t [u32]>,
    /// The join's pairs and the side `vals` is on.
    pub(crate) pairs: Option<(&'t Spliced<'t, (u32, u32)>, usize)>,
}

impl<'t> Col<'t> {
    /// Row `r`'s value, for reads at random; through pairs, each read
    /// searches for its pair's list, so a row loop reads [`Col::write`].
    #[inline]
    pub(crate) fn at(self, r: usize) -> i64 {
        let r = self.pairs.map_or(r, |(pairs, side)| {
            let &(left, right) = pairs.get(r, &mut 0);
            [left, right][side] as usize
        });
        self.vals[self.ids.map_or(r, |ids| ids[r] as usize)]
    }

    /// `f(slot, row)` for each of rows `span` and its slot of `dst`,
    /// `row` being the row of `vals` it reads: the one sequential walk, a
    /// pending join's pair lists slice by slice.
    #[inline]
    pub(crate) fn each_row<T>(self, span: Range<usize>, dst: &mut [T], f: impl Fn(&mut T, usize)) {
        debug_assert_eq!(span.len(), dst.len());
        let ids = self.ids;
        let Some((pairs, side)) = self.pairs else {
            match ids {
                Some(ids) => {
                    for (d, &i) in dst.iter_mut().zip(&ids[span]) {
                        f(d, i as usize);
                    }
                }
                None => dst.iter_mut().zip(span).for_each(|(d, r)| f(d, r)),
            }
            return;
        };
        let mut at = 0;
        for s in pairs.slices(span) {
            let (dst, rows) = (&mut dst[at..at + s.len()], s.iter());
            at += s.len();
            let rows = rows.map(|&(left, right)| [left, right][side] as usize);
            match ids {
                Some(ids) => {
                    for (d, r) in dst.iter_mut().zip(rows) {
                        f(d, ids[r] as usize);
                    }
                }
                None => dst.iter_mut().zip(rows).for_each(|(d, r)| f(d, r)),
            }
        }
    }

    /// Rows `range` into `dst`, one slot per row, each value stored by
    /// `put` ([`Col::each_row`]).
    #[inline]
    pub(crate) fn write<T>(self, range: Range<usize>, dst: &mut [T], put: impl Fn(&mut T, i64)) {
        let vals = self.vals;
        self.each_row(range, dst, |d, r| put(d, vals[r]));
    }

    /// The values of rows `range` as one slice: borrowed for the
    /// identity, read once otherwise, the pairs slice by slice: collected,
    /// not written through [`Col::write`], so no buffer is zeroed first.
    pub(crate) fn dense(self, range: Range<usize>) -> Cow<'t, [i64]> {
        let (vals, ids) = (self.vals, self.ids);
        let Some((pairs, side)) = self.pairs else {
            return match ids {
                Some(ids) => Cow::Owned(ids[range].iter().map(|&i| vals[i as usize]).collect()),
                None => Cow::Borrowed(&vals[range]),
            };
        };
        let mut out = Vec::with_capacity(range.len());
        for s in pairs.slices(range) {
            let rows = s.iter().map(|&(left, right)| [left, right][side] as usize);
            match ids {
                Some(ids) => out.extend(rows.map(|r| vals[ids[r] as usize])),
                None => out.extend(rows.map(|r| vals[r])),
            }
        }
        Cow::Owned(out)
    }
}

impl<'t> From<&'t [i64]> for Col<'t> {
    fn from(vals: &'t [i64]) -> Self {
        Col {
            vals,
            ids: None,
            pairs: None,
        }
    }
}

/// Hashes rows `range` of `key_cols`, one column pass at a time: the Fx
/// mix per column, then the high bits folded down (the multiply leaves
/// the entropy there, and buckets are picked by the low bits). The
/// empty key hashes every row alike.
pub(crate) fn hash_rows(key_cols: &[Col], range: Range<usize>) -> Vec<u64> {
    let mut out = vec![0u64; range.len()];
    for col in key_cols {
        col.write(range.clone(), &mut out, |h, v| *h = fx_mix(*h, v as u64));
    }
    for h in &mut out {
        *h = fold_high(*h);
    }
    out
}

/// Rows `range` of `key_cols`, each column read once ([`Col::dense`]).
pub(crate) fn dense_keys<'t>(key_cols: &[Col<'t>], range: Range<usize>) -> Vec<Cow<'t, [i64]>> {
    key_cols.iter().map(|c| c.dense(range.clone())).collect()
}

fn fold_high(h: u64) -> u64 {
    h ^ (h >> 32)
}

/// Are rows `a` and `b` equal on every column of `cols`?
fn rows_eq(cols: &[Col], a: u32, b: u32) -> bool {
    cols.iter().all(|c| c.at(a as usize) == c.at(b as usize))
}

/// An all-empty bucket array for about `entries` entries (load ≤ 1).
/// Chaining never fails, so an underestimate only lengthens chains.
fn empty_heads(entries: usize) -> Vec<u32> {
    vec![NIL; entries.max(1).next_power_of_two()]
}

fn bucket(heads: &[u32], hash: u64) -> usize {
    hash as usize & (heads.len() - 1)
}

/// A join build side, sorted by hash bucket: bucket `b`'s build rows
/// hold slots `offsets[b]..offsets[b + 1]`, ascending, each beside its
/// key values.
pub(crate) struct JoinTable {
    /// Per bucket, its first slot; one more entry holds the row count.
    offsets: Vec<u32>,
    /// Per slot, its build row.
    rows: Vec<u32>,
    /// Per key column, per slot: the build row's value.
    keys: Vec<Vec<i64>>,
}

impl JoinTable {
    /// Sorts build rows `0..hashes.len()` into `hashes.len()` rounded up
    /// to a power of two buckets, `hashes[r]` being row `r`'s hash, and
    /// reads `key_cols` through their ids into the same order. One
    /// counting pass: count per bucket, prefix-sum, scatter the rows in
    /// ascending order, so every bucket's rows ascend.
    pub(crate) fn build(hashes: &[u64], key_cols: &[Col]) -> Self {
        let n = hashes.len();
        assert!(n < NIL as usize, "build side exceeds u32 rows");
        let mask = n.max(1).next_power_of_two() - 1;
        // Bucket `b` is counted at `b + 2`, so the prefix sum leaves its
        // first slot at `b + 1`; the scatter advances that to its end,
        // which is bucket `b + 1`'s start, and the spare last entry goes.
        let mut offsets = vec![0u32; mask + 3];
        for &h in hashes {
            offsets[(h as usize & mask) + 2] += 1;
        }
        let mut acc = 0;
        for o in &mut offsets {
            acc += *o;
            *o = acc;
        }
        let mut rows = vec![0; n];
        let mut keys = vec![vec![0; n]; key_cols.len()];
        for (r, &h) in hashes.iter().enumerate() {
            let at = &mut offsets[(h as usize & mask) + 1];
            let s = *at as usize;
            *at += 1;
            rows[s] = r as u32;
            for (k, c) in keys.iter_mut().zip(key_cols) {
                k[s] = c.at(r);
            }
        }
        offsets.pop();
        JoinTable {
            offsets,
            rows,
            keys,
        }
    }

    /// A hash join's pairs for the probe rows from `first` on, whose
    /// keys are `keys` (one dense column per key column, read once) and
    /// hash to `hashes`: every `(probe row, build row)` equal on the key
    /// columns, probe rows outer and build rows ascending; the empty key
    /// pairs every row with every build row.
    ///
    /// One loop serves every key arity, with no branch on the data. Each
    /// probe row's span is laid out from its first candidate on, a prefix
    /// sum of the span lengths (in `usize`: a morsel meeting a bucket of
    /// many equal keys may exceed `u32` candidates). Each candidate's
    /// probe row is a count at every row's first candidate, then a
    /// running sum, so a row with an empty span is passed over without a
    /// test. The loop then writes every candidate as a pair and advances
    /// the write index by the `&` of the per-column comparisons.
    pub(crate) fn probe(
        &self,
        mut hashes: Vec<u64>,
        keys: &[&[i64]],
        first: usize,
    ) -> Vec<(u32, u32)> {
        let mask = self.offsets.len() - 2;
        // Each probe row's hash becomes its span, `start | len << 32`...
        let mut total = 0usize;
        for h in &mut hashes {
            let b = *h as usize & mask;
            let (lo, hi) = (self.offsets[b], self.offsets[b + 1]);
            *h = u64::from(lo) | u64::from(hi - lo) << 32;
            total += (hi - lo) as usize;
        }
        // ...then its span's start less its first candidate, so that
        // candidate `c` of the row reads slot `c + shift`.
        let mut owner = vec![0u32; total + 1];
        let mut at = 0usize;
        for h in &mut hashes {
            owner[at] += 1;
            let (lo, len) = (*h as u32 as usize, (*h >> 32) as usize);
            *h = lo.wrapping_sub(at) as u64;
            at += len;
        }
        let shifts = hashes;
        let mut acc = 0;
        for o in &mut owner[..total] {
            acc += *o;
            *o = acc - 1;
        }
        let mut pairs = vec![(0, 0); total];
        let mut w = 0;
        for (c, &i) in owner[..total].iter().enumerate() {
            let i = i as usize;
            let s = c.wrapping_add(shifts[i] as usize);
            pairs[w] = ((first + i) as u32, self.rows[s]);
            let hit = keys
                .iter()
                .zip(&self.keys)
                .fold(true, |eq, (p, b)| eq & (p[i] == b[s]));
            w += usize::from(hit);
        }
        pairs.truncate(w);
        pairs
    }
}

/// Dense group ids in first-seen order over the rows of one column set.
pub(crate) struct GroupTable {
    heads: Vec<u32>,
    /// Per group, by id.
    groups: Vec<Group>,
}

/// One group of a [`GroupTable`]: what a chain walk reads, side by side.
#[derive(Clone, Copy)]
struct Group {
    /// The key's hash, so a merge never rehashes.
    hash: u64,
    /// The next group in its bucket's chain.
    next: u32,
    /// The first row seen with the key — the key itself, read through
    /// the columns.
    first: u32,
}

impl GroupTable {
    /// An empty table sized for about `groups` groups.
    pub(crate) fn with_capacity(groups: usize) -> Self {
        GroupTable {
            heads: empty_heads(groups),
            groups: Vec::new(),
        }
    }

    /// An empty table for keys expected all new, sized and reserved for
    /// `groups` of them.
    fn reserved(groups: usize) -> Self {
        GroupTable {
            heads: empty_heads(groups),
            groups: Vec::with_capacity(groups),
        }
    }

    /// The group of `row`, whose key hashes to `hash`: the first
    /// candidate group with that hash whose representative row `first`
    /// passes `same(first)` — the caller's comparison of `row`'s key with
    /// `first`'s. `true` when the key is new and `row` became its
    /// representative. Ids count up from 0 in first-seen order.
    #[inline]
    pub(crate) fn find_or_insert(
        &mut self,
        hash: u64,
        row: u32,
        same: impl Fn(u32) -> bool,
    ) -> (u32, bool) {
        let b = bucket(&self.heads, hash);
        let mut g = self.heads[b];
        while g != NIL {
            let group = self.groups[g as usize];
            if group.hash == hash && same(group.first) {
                return (g, false);
            }
            g = group.next;
        }
        let g = self.groups.len() as u32;
        assert!(g < NIL, "group count exceeds u32");
        self.groups.push(Group {
            hash,
            next: self.heads[b],
            first: row,
        });
        self.heads[b] = g;
        (g, true)
    }

    /// Number of groups so far.
    pub(crate) fn len(&self) -> usize {
        self.groups.len()
    }

    /// Group `g`'s representative row.
    pub(crate) fn first(&self, g: usize) -> u32 {
        self.groups[g].first
    }

    /// Inserts every group of `local` — a per-morsel table whose
    /// representatives are rows of `key_cols` — in its id order, and
    /// sets `ids` to each one's id here: the merge of per-morsel tables
    /// in morsel order, which never rehashes and compares keys through
    /// the input columns.
    pub(crate) fn absorb(&mut self, local: &GroupTable, key_cols: &[Col], ids: &mut Vec<u32>) {
        ids.clear();
        for g in &local.groups {
            let row = g.first;
            ids.push(
                self.find_or_insert(g.hash, row, |f| rows_eq(key_cols, f, row))
                    .0,
            );
        }
    }
}

/// Are rows `a` and `b` of the dense columns `keys` equal?
#[inline]
fn dense_eq(keys: &[&[i64]], a: u32, b: u32) -> bool {
    keys.iter().all(|k| k[a as usize] == k[b as usize])
}

/// One morsel of hash aggregation or hash grouping: its keys read once
/// into dense slices, hashed and compared there. Returns the morsel's
/// table and every row's group in it; once the morsel is done, the
/// representatives are rebased to input rows, so the table hands the
/// merge ([`GroupTable::absorb`]) `(hash, input row)`.
pub(crate) fn local_groups(key_cols: &[Col], range: Range<usize>) -> (GroupTable, Vec<u32>) {
    let dense = dense_keys(key_cols, range.clone());
    let keys: Vec<&[i64]> = dense.iter().map(|k| &k[..]).collect();
    let cols: Vec<Col> = keys.iter().map(|&k| Col::from(k)).collect();
    let hashes = hash_rows(&cols, 0..range.len());
    let mut table = GroupTable::with_capacity(range.len());
    let gids = (0..range.len() as u32)
        .zip(&hashes)
        .map(|(i, &h)| table.find_or_insert(h, i, |f| dense_eq(&keys, f, i)).0)
        .collect();
    for g in &mut table.groups {
        g.first += range.start as u32;
    }
    (table, gids)
}

/// The runs that start in one cut of the rows: their first rows, and
/// per key column each one's key value.
pub(crate) struct Runs {
    pub(crate) starts: Vec<u32>,
    pub(crate) keys: Vec<Vec<i64>>,
}

/// The run finder: the rows of `range` that start a maximal run of rows
/// equal on `key_cols`. Row `r` starts one iff it is row 0 or differs
/// from row `r - 1`, so the answer for a range does not depend on how
/// the rows around it were cut — a run that began before `range` does
/// not restart at its first row.
///
/// Each key column is read once into a dense slice, one row of
/// look-back included, and compared with itself shifted by a row: a
/// row's start bit is the OR over the columns of `prev != cur`, 64 rows
/// to a word. The starts are then read off the set bits, and each
/// start's key values copied out beside it.
pub(crate) fn run_starts(key_cols: &[Col], range: Range<usize>) -> Runs {
    let dense = dense_keys(key_cols, range.start.saturating_sub(1)..range.end);
    let (lo, n) = (range.start, range.len());
    if n == 0 {
        return Runs {
            starts: Vec::new(),
            keys: vec![Vec::new(); dense.len()],
        };
    }
    let back = usize::from(lo > 0);
    // Row `r` of the range is `d[r + back]` of a dense column `d`. Row 0
    // of the input has no row before it and always starts a run.
    let mut bits = vec![0u64; n.div_ceil(64)];
    bits[0] = u64::from(back == 0);
    for d in &dense {
        for (w, word) in bits.iter_mut().enumerate() {
            let rows = (w * 64).max(1 - back)..(w * 64 + 64).min(n);
            let prev = &d[rows.start + back - 1..rows.end + back - 1];
            let cur = &d[rows.start + back..rows.end + back];
            let mut m = 0;
            for (j, (p, c)) in prev.iter().zip(cur).enumerate() {
                m |= u64::from(p != c) << j;
            }
            *word |= m << (rows.start - w * 64);
        }
    }
    let mut starts = Vec::with_capacity(bits.iter().map(|w| w.count_ones() as usize).sum());
    for (w, &word) in bits.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            starts.push((lo + w * 64 + word.trailing_zeros() as usize) as u32);
            word &= word - 1;
        }
    }
    let keys = dense
        .iter()
        .map(|d| starts.iter().map(|&s| d[s as usize + back - lo]).collect())
        .collect();
    Runs { starts, keys }
}

/// The first run start, in row order, whose key already started an
/// earlier run — a group that resumed after its run ended — paired with
/// that earlier start; `None` iff the runs form a grouping. `runs` are
/// [`run_starts`] results in row order, possibly in per-morsel parts.
/// Only the run starts' keys are read, laid out dense, one start after
/// another, and hashed and compared there.
pub(crate) fn resumed_run(runs: &[Runs]) -> Option<(u32, u32)> {
    let total = runs.iter().map(|r| r.starts.len()).sum();
    let arity = runs.first().map_or(0, |r| r.keys.len());
    let mut starts = Vec::with_capacity(total);
    let mut keys: Vec<Vec<i64>> = (0..arity).map(|_| Vec::with_capacity(total)).collect();
    for r in runs {
        starts.extend_from_slice(&r.starts);
        for (k, part) in keys.iter_mut().zip(&r.keys) {
            k.extend_from_slice(part);
        }
    }
    let keys: Vec<&[i64]> = keys.iter().map(|k| &k[..]).collect();
    let cols: Vec<Col> = keys.iter().map(|&k| Col::from(k)).collect();
    // On grouped input every start is a new key.
    let mut seen = GroupTable::reserved(starts.len());
    for (j, &h) in (0..starts.len() as u32).zip(&hash_rows(&cols, 0..starts.len())) {
        let (g, new) = seen.find_or_insert(h, j, |f| dense_eq(&keys, f, j));
        if !new {
            return Some((starts[seen.first(g as usize) as usize], starts[j as usize]));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn slices(cols: &[Vec<i64>]) -> Vec<Col<'_>> {
        cols.iter().map(|c| Col::from(&c[..])).collect()
    }

    fn key(cols: &[Col], r: usize) -> Vec<i64> {
        cols.iter().map(|c| c.at(r)).collect()
    }

    /// The reference model: first-seen ids from a `Vec<i64>`-keyed map.
    fn model_gids(cols: &[Col], rows: usize) -> Vec<u32> {
        let mut ids: HashMap<Vec<i64>, u32> = HashMap::new();
        (0..rows)
            .map(|r| {
                let next = ids.len() as u32;
                *ids.entry(key(cols, r)).or_insert(next)
            })
            .collect()
    }

    /// The kernel, with `mask` and-ed onto every hash and `buckets`
    /// buckets — both only ever lengthen chains.
    fn kernel_gids(cols: &[Col], rows: usize, mask: u64, buckets: usize) -> Vec<u32> {
        let mut table = GroupTable::with_capacity(buckets);
        let gids: Vec<u32> = hash_rows(cols, 0..rows)
            .iter()
            .enumerate()
            .map(|(r, &h)| {
                let before = table.len();
                let r = r as u32;
                let (g, new) = table.find_or_insert(h & mask, r, |f| rows_eq(cols, f, r));
                assert_eq!(new, g as usize == before, "new ids are dense");
                assert_eq!(table.len(), before + usize::from(new));
                g
            })
            .collect();
        // Every group's representative is its first row.
        for g in 0..table.len() {
            assert_eq!(
                gids.iter().position(|&x| x as usize == g),
                Some(table.first(g) as usize)
            );
        }
        // Per-morsel tables merged in morsel order give the same ids.
        for morsel in [1, 3, 64] {
            let mut merged = GroupTable::with_capacity(0);
            let (mut split, mut ids) = (Vec::new(), Vec::new());
            for start in (0..rows).step_by(morsel) {
                let (local, local_gids) = local_groups(cols, start..(start + morsel).min(rows));
                merged.absorb(&local, cols, &mut ids);
                split.extend(local_gids.iter().map(|&g| ids[g as usize]));
            }
            assert_eq!(split, gids, "morsels of {morsel} rows");
            assert_eq!(merged.len(), table.len());
            assert!((0..table.len()).all(|g| merged.first(g) == table.first(g)));
        }
        gids
    }

    /// The reference model: the nested-loop pair list, filtered by key
    /// equality — left rows outer, right rows in right-table order.
    fn model_pairs(l: &[Col], r: &[Col], nl: usize, nr: usize) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..nl {
            for j in 0..nr {
                if key(l, i) == key(r, j) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// [`JoinTable::probe`] over probe rows `0..nl` in morsels of
    /// `morsel` rows, with `mask` and-ed onto every hash — each morsel's
    /// keys read once into dense columns, as the engine does.
    fn kernel_pairs(
        l: &[Col],
        r: &[Col],
        nl: usize,
        nr: usize,
        mask: u64,
        morsel: usize,
    ) -> Vec<(u32, u32)> {
        let build: Vec<u64> = hash_rows(r, 0..nr).iter().map(|h| h & mask).collect();
        let table = JoinTable::build(&build, r);
        let mut out = Vec::new();
        for start in (0..nl).step_by(morsel) {
            let range = start..(start + morsel).min(nl);
            let dense: Vec<Cow<[i64]>> = l.iter().map(|c| c.dense(range.clone())).collect();
            let keys: Vec<&[i64]> = dense.iter().map(|k| &k[..]).collect();
            let hashes: Vec<u64> = hash_rows(l, range.clone())
                .iter()
                .map(|h| h & mask)
                .collect();
            out.extend(table.probe(hashes, &keys, range.start));
        }
        out
    }

    #[test]
    fn group_ids_are_first_seen_order_on_extreme_and_multi_column_keys() {
        let a = vec![i64::MAX, -1, i64::MIN, -1, i64::MAX, 0, i64::MIN, -1];
        let b = vec![0, -7, 0, -7, 1, 0, 0, -7];
        let one = slices(std::slice::from_ref(&a));
        assert_eq!(
            kernel_gids(&one, 8, u64::MAX, 8),
            vec![0, 1, 2, 1, 0, 3, 2, 1]
        );
        let cols = vec![a, b];
        let two = slices(&cols);
        assert_eq!(
            kernel_gids(&two, 8, u64::MAX, 8),
            vec![0, 1, 2, 1, 3, 4, 2, 1]
        );
        assert_eq!(model_gids(&two, 8), vec![0, 1, 2, 1, 3, 4, 2, 1]);
    }

    #[test]
    fn forced_collisions_change_neither_ids_nor_pairs() {
        // 500 distinct keys, each three times, squeezed into 1–2 buckets
        // (by capacity for groups, by hash mask for both).
        let col: Vec<i64> = (0..1500).map(|r| (r * 7919) % 500 - 250).collect();
        let cols = slices(std::slice::from_ref(&col));
        let expect = model_gids(&cols, 1500);
        assert_eq!(expect.iter().max(), Some(&499));
        for (mask, buckets) in [(u64::MAX, 1), (u64::MAX, 2), (0, 4096), (1, 4096)] {
            assert_eq!(kernel_gids(&cols, 1500, mask, buckets), expect);
        }
        let probe: Vec<i64> = (0..200).map(|r| r * 3 - 300).collect();
        let pcols = slices(std::slice::from_ref(&probe));
        let expect = model_pairs(&pcols, &cols, 200, 1500);
        assert!(!expect.is_empty());
        for mask in [u64::MAX, 0, 1] {
            for morsel in [7, 200] {
                assert_eq!(kernel_pairs(&pcols, &cols, 200, 1500, mask, morsel), expect);
            }
        }
    }

    #[test]
    fn probe_on_extremes_duplicates_and_an_empty_build_side() {
        let build = vec![i64::MAX, 0, i64::MIN, i64::MAX, 0, i64::MIN, -1, i64::MAX];
        let build2 = vec![0, 0, 0, 1, 0, 0, 0, 0];
        let probe = vec![i64::MIN, 5, i64::MAX, 0, i64::MAX, -1, i64::MIN];
        let probe2 = vec![0, 0, 1, 0, 0, 0, 0];
        let ids: Vec<u32> = vec![6, 0, 2, 2, 4, 1, 3, 5];
        let (bs, ps) = ([build, build2], [probe, probe2]);
        let (b, p) = (slices(&bs), slices(&ps));
        // The probe side also read through row ids, as an intermediate's is.
        let through: Vec<Col> = ps
            .iter()
            .map(|c| Col {
                vals: c,
                ids: Some(&ids),
                pairs: None,
            })
            .collect();
        // One key column, then two (the second splits `i64::MAX`).
        for (arity, pairs) in [(1, [13, 16]), (2, [10, 11])] {
            for (l, nl, len) in [(&p[..arity], 7, pairs[0]), (&through[..arity], 8, pairs[1])] {
                let expect = model_pairs(l, &b[..arity], nl, 8);
                assert_eq!(expect.len(), len);
                for mask in [u64::MAX, 0, 1] {
                    for morsel in [1, 3, 8] {
                        assert_eq!(kernel_pairs(l, &b[..arity], nl, 8, mask, morsel), expect);
                    }
                }
                let none = vec![Col::from(&[][..]); arity];
                assert!(kernel_pairs(l, &none, nl, 0, 0, 3).is_empty());
            }
        }
    }

    /// The layout [`JoinTable::build`] promises over rows hashing to
    /// `hashes`: one offset per bucket plus the row count, non-decreasing
    /// from 0; every bucket's rows ascend and hash to it; and every slot
    /// holds its row's key values.
    fn assert_layout(table: &JoinTable, hashes: &[u64], cols: &[Col]) {
        let (offsets, buckets) = (&table.offsets, table.offsets.len() - 1);
        assert_eq!(buckets, hashes.len().max(1).next_power_of_two());
        assert_eq!(offsets[0], 0);
        assert_eq!(offsets[buckets] as usize, hashes.len());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        for b in 0..buckets {
            let span = offsets[b] as usize..offsets[b + 1] as usize;
            let rows = &table.rows[span.clone()];
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "bucket {b}: {rows:?}");
            for (s, &r) in span.zip(rows) {
                assert_eq!(hashes[r as usize] as usize & (buckets - 1), b);
                for (k, c) in table.keys.iter().zip(cols) {
                    assert_eq!(k[s], c.at(r as usize));
                }
            }
        }
    }

    #[test]
    fn the_table_is_sorted_by_bucket_with_ascending_rows() {
        let a: Vec<i64> = (0..1000).map(|r| (r * 7919) % 300 - 150).collect();
        let b: Vec<i64> = (0..1000).map(|r| r % 3).collect();
        let ids: Vec<u32> = (0..700).map(|r| (r * 13) % 1000).collect();
        let cols = [a, b];
        let dense = slices(&cols);
        let through: Vec<Col> = cols
            .iter()
            .map(|c| Col {
                vals: c,
                ids: Some(&ids),
                pairs: None,
            })
            .collect();
        for (keys, n) in [
            (&dense, 1000),
            (&through, 700),
            (&dense, 5),
            (&dense, 1),
            (&dense, 0),
        ] {
            for arity in 0..=2 {
                for mask in [u64::MAX, 0, 1, 6] {
                    let hashes: Vec<u64> = hash_rows(&keys[..arity], 0..n)
                        .iter()
                        .map(|h| h & mask)
                        .collect();
                    let table = JoinTable::build(&hashes, &keys[..arity]);
                    assert_layout(&table, &hashes, &keys[..arity]);
                }
            }
        }
    }

    #[test]
    fn a_skewed_build_key_meets_every_probe_row_in_model_order() {
        // One build key 10 000 times, probed by 3 matching and 2 missing
        // rows: 30 000 pairs, probe rows outer, build rows ascending.
        let build = [vec![42i64; 10_000]];
        let probe = [vec![42i64, -1, 42, 43, 42]];
        let (b, p) = (slices(&build), slices(&probe));
        let expect = model_pairs(&p, &b, 5, 10_000);
        assert_eq!(expect.len(), 30_000);
        for mask in [u64::MAX, 0] {
            for morsel in [1, 2, 5] {
                assert!(kernel_pairs(&p, &b, 5, 10_000, mask, morsel) == expect);
            }
        }
    }

    #[test]
    fn morsels_whose_first_last_or_every_row_has_an_empty_span() {
        // Keys hash to themselves: the build rows fill buckets 0 and 2 of
        // 4, so an odd probe key's span is empty.
        let build = [vec![2i64, 0, 2, 0]];
        let b = slices(&build);
        let identity = |col: &[i64]| -> Vec<u64> { col.iter().map(|&v| v as u64).collect() };
        let table = JoinTable::build(&identity(&build[0]), &b);
        assert_layout(&table, &identity(&build[0]), &b);
        for probe in [
            vec![1i64, 0, 2, 2],
            vec![0, 2, 0, 3],
            vec![1, 2, 0, 3],
            vec![3, 1, 5, 7],
            vec![1],
        ] {
            let p = [probe];
            let expect: Vec<(u32, u32)> = model_pairs(&slices(&p), &b, p[0].len(), 4)
                .into_iter()
                .map(|(l, r)| (l + 10, r))
                .collect();
            assert_eq!(
                table.probe(identity(&p[0]), &[&p[0]], 10),
                expect,
                "{:?}",
                p[0]
            );
        }
        assert_eq!(
            table.probe(identity(&[1, 0, 3]), &[&[1, 0, 3]], 0),
            vec![(1, 1), (1, 3)]
        );
    }

    #[test]
    fn the_empty_key_is_one_group_and_a_cross_product() {
        assert_eq!(hash_rows(&[], 2..5), vec![0, 0, 0]);
        assert_eq!(kernel_gids(&[], 4, u64::MAX, 4), vec![0, 0, 0, 0]);
        for morsel in [1, 2] {
            let cross = kernel_pairs(&[], &[], 2, 3, u64::MAX, morsel);
            assert_eq!(cross, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
        }
    }

    #[test]
    fn zero_rows_on_either_side() {
        let col = vec![1i64, 2, 3];
        let some = slices(std::slice::from_ref(&col));
        let none: Vec<Col> = vec![Col::from(&[][..])];
        assert!(kernel_gids(&none, 0, u64::MAX, 0).is_empty());
        assert!(kernel_pairs(&some, &none, 3, 0, u64::MAX, 2).is_empty());
        assert!(kernel_pairs(&none, &some, 0, 3, u64::MAX, 2).is_empty());
        assert!(kernel_pairs(&[], &[], 0, 0, u64::MAX, 2).is_empty());
    }

    #[test]
    fn hash_rows_hashes_a_range_like_the_whole() {
        let cols = vec![vec![5i64, -9, 5, 0, i64::MIN], vec![1, 1, 1, 2, 3]];
        let cols = slices(&cols);
        let all = hash_rows(&cols, 0..5);
        assert_eq!(hash_rows(&cols, 1..4), all[1..4]);
        assert_eq!(all[0], all[2], "equal keys hash alike");
        assert_ne!(all[0], all[1]);
        let dense = dense_keys(&cols, 0..5);
        let dense: Vec<Col> = dense.iter().map(|k| Col::from(&k[..])).collect();
        assert_eq!(hash_rows(&dense, 0..5), all);
    }

    #[test]
    fn run_starts_do_not_depend_on_the_cut() {
        let a = vec![1i64, 1, 2, 2, 2, 1, 3];
        let cols = slices(std::slice::from_ref(&a));
        let whole = run_starts(&cols, 0..7);
        assert_eq!(whole.starts, vec![0, 2, 5, 6]);
        assert_eq!(whole.keys, vec![vec![1, 2, 1, 3]]);
        for cut in 0..=7 {
            let parts = [run_starts(&cols, 0..cut), run_starts(&cols, cut..7)];
            let starts = [&parts[0].starts[..], &parts[1].starts[..]].concat();
            assert_eq!(starts, whole.starts, "cut at {cut}");
            // `1` resumes at row 5; its run started at row 0.
            assert_eq!(resumed_run(&parts), Some((0, 5)));
        }
        assert_eq!(resumed_run(&[run_starts(&cols, 0..5)]), None);
        // Read through row ids, as an intermediate's key is: the rows
        // read 3, 1, 1, 1, 2, 2, 2, and the look-back goes through the
        // ids too.
        let ids: Vec<u32> = vec![6, 0, 1, 5, 2, 3, 4];
        let through = [Col {
            vals: &a,
            ids: Some(&ids),
            pairs: None,
        }];
        for cut in 0..=7 {
            let parts = [run_starts(&through, 0..cut), run_starts(&through, cut..7)];
            let starts = [&parts[0].starts[..], &parts[1].starts[..]].concat();
            let keys = [&parts[0].keys[0][..], &parts[1].keys[0][..]].concat();
            assert_eq!(
                (starts, keys),
                (vec![0, 1, 4], vec![3, 1, 2]),
                "cut at {cut}"
            );
            assert_eq!(resumed_run(&parts), None);
        }
        let empty_key = run_starts(&[], 0..3);
        assert_eq!(empty_key.starts, vec![0], "the empty key is one run");
        assert!(empty_key.keys.is_empty());
        assert!(run_starts(&[], 1..3).starts.is_empty());
        assert!(run_starts(&cols, 0..0).starts.is_empty());
        assert_eq!(resumed_run(&[]), None);
    }

    /// The reference model of [`resumed_run`]: the first row that starts
    /// a run of a key seen before, with that key's first row.
    fn model_resumed(cols: &[Col], rows: usize) -> Option<(u32, u32)> {
        let mut first: HashMap<Vec<i64>, u32> = HashMap::new();
        for r in 0..rows {
            let k = key(cols, r);
            if r > 0 && k == key(cols, r - 1) {
                continue;
            }
            if let Some(&f) = first.get(&k) {
                return Some((f, r as u32));
            }
            first.insert(k, r as u32);
        }
        None
    }

    /// Small domains (so keys repeat) salted with the extremes.
    fn value() -> impl Strategy<Value = i64> {
        prop_oneof![
            -3i64..4,
            -3i64..4,
            Just(i64::MIN),
            Just(i64::MAX),
            -1000i64..1000
        ]
    }

    fn table(arity: usize, rows: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
        proptest::collection::vec(proptest::collection::vec(value(), rows), arity)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Against the `Vec<i64>`-keyed model on random columns of key
        /// arity 0–3: group ids are first-seen order and the join pair
        /// list is the filtered nested-loop list, in order — under the
        /// real hash and under masks that force 1–2 chains.
        #[test]
        fn kernels_match_the_vec_keyed_model(
            tables in (0usize..4, 0usize..50, 0usize..50)
                .prop_flat_map(|(arity, nl, nr)| (table(arity, nl), table(arity, nr))),
            mask in prop_oneof![Just(u64::MAX), Just(0u64), Just(1u64)],
            buckets in 0usize..64,
            morsel in 1usize..8,
        ) {
            let (left, right) = tables;
            let (l, r) = (slices(&left), slices(&right));
            let nl = left.first().map_or(3, Vec::len);
            let nr = right.first().map_or(2, Vec::len);
            prop_assert_eq!(kernel_gids(&l, nl, mask, buckets), model_gids(&l, nl));
            prop_assert_eq!(
                kernel_pairs(&l, &r, nl, nr, mask, morsel),
                model_pairs(&l, &r, nl, nr)
            );
        }

        /// The probe with its key columns read through row ids, as an
        /// intermediate's are: the model's pairs, in order, for key arity
        /// 1–3, repeated and skipped probe rows, an empty build or probe
        /// side, hashes masked to one or two buckets, at any morsel size.
        #[test]
        fn probe_through_row_ids_matches_the_model(
            sides in (1usize..4, 0usize..50, 0usize..50)
                .prop_flat_map(|(arity, nl, nr)| (table(arity, nl), table(arity, nr))),
            ids in proptest::collection::vec(0usize..50, 0..60),
            mask in prop_oneof![Just(u64::MAX), Just(0u64), Just(1u64)],
            morsel in 1usize..8,
        ) {
            let (left, right) = sides;
            let r = slices(&right);
            let (nl, nr) = (left[0].len(), right[0].len());
            let ids: Vec<u32> = ids.iter().filter(|_| nl > 0).map(|&i| (i % nl.max(1)) as u32).collect();
            let l: Vec<Col> = left.iter().map(|c| Col { vals: c, ids: Some(&ids), pairs: None }).collect();
            prop_assert_eq!(
                kernel_pairs(&l, &r, ids.len(), nr, mask, morsel),
                model_pairs(&l, &r, ids.len(), nr)
            );
        }

        /// The run finder against the model, on random and on sorted
        /// (so grouped) rows of key arity 0–3, cut at any point: rows
        /// enough for several 64-row start words on either side of the
        /// cut, which may or may not be a multiple of 64.
        #[test]
        fn run_finder_matches_the_model(
            cols in (0usize..4, 0usize..200).prop_flat_map(|(arity, n)| table(arity, n)),
            cut in prop_oneof![0usize..200, Just(64), Just(128)],
            sorted in 0u8..2,
        ) {
            let n = cols.first().map_or(5, Vec::len);
            let mut cols = cols;
            if sorted == 1 {
                let mut rows: Vec<Vec<i64>> = (0..n).map(|r| key(&slices(&cols), r)).collect();
                rows.sort();
                for (c, col) in cols.iter_mut().enumerate() {
                    *col = rows.iter().map(|row| row[c]).collect();
                }
            }
            let cols = slices(&cols);
            let cut = cut.min(n);
            let parts = [run_starts(&cols, 0..cut), run_starts(&cols, cut..n)];
            let starts = [&parts[0].starts[..], &parts[1].starts[..]].concat();
            let model: Vec<u32> = (0..n as u32)
                .filter(|&r| r == 0 || key(&cols, r as usize) != key(&cols, r as usize - 1))
                .collect();
            prop_assert_eq!(starts, model);
            for part in &parts {
                for (j, &s) in part.starts.iter().enumerate() {
                    let stored: Vec<i64> = part.keys.iter().map(|k| k[j]).collect();
                    prop_assert_eq!(stored, key(&cols, s as usize));
                }
            }
            let expect = model_resumed(&cols, n);
            prop_assert_eq!(resumed_run(&parts), expect);
            if sorted == 1 {
                prop_assert_eq!(expect, None);
            }
        }
    }
}
