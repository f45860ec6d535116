//! The executor's hash kernels: one flat bucket/chain layout behind
//! every hash operator.
//!
//! No key is ever materialized. A morsel's keys are hashed
//! column-at-a-time into a `Vec<u64>` ([`hash_rows`]); a table stores
//! row or group indices in two flat `u32` vectors — `heads` (one slot
//! per power-of-two bucket) and `next` (one slot per entry, the bucket's
//! chain) — and compares keys *through the input columns* it was built
//! over. Two tables share the layout:
//!
//! * [`ChainTable`] chains **build rows** (hash join, group join). It is
//!   filled in reverse row order, so every chain ascends in row index
//!   and a probe meets its matches in build-table order.
//! * [`GroupTable`] chains **dense group ids** handed out in first-seen
//!   order, each with a representative row and its stored hash (hash
//!   aggregation, hash grouping, and the run-start check below).
//!
//! Both orders are functions of the data alone, so nothing an operator
//! emits depends on the hash function or the bucket count — those only
//! decide how long the chains are.
//!
//! The run finder lives here too: [`run_starts`] cuts rows into maximal
//! equal-key runs by comparing neighbours, and [`resumed_run`] hashes
//! only those run starts to find a key that comes back after its run
//! ended. Streaming aggregation, partial-sort head blocks and the
//! grouping check share it, so grouped input is never hashed per row.

use ofw_common::hash::fx_mix;
use std::ops::Range;

/// End-of-chain marker.
const NIL: u32 = u32::MAX;

/// Hashes rows `range` of `key_cols`, one column pass at a time: the Fx
/// mix per column, then the high bits folded down (the multiply leaves
/// the entropy there, and buckets are picked by the low bits). The
/// empty key hashes every row alike.
pub(crate) fn hash_rows(key_cols: &[&[i64]], range: Range<usize>) -> Vec<u64> {
    let mut out = vec![0u64; range.len()];
    for col in key_cols {
        for (h, &v) in out.iter_mut().zip(&col[range.clone()]) {
            *h = fx_mix(*h, v as u64);
        }
    }
    for h in &mut out {
        *h = fold_high(*h);
    }
    out
}

/// Row `r`'s entry of [`hash_rows`], for rows that are not contiguous.
fn hash_row(key_cols: &[&[i64]], r: usize) -> u64 {
    fold_high(key_cols.iter().fold(0, |h, c| fx_mix(h, c[r] as u64)))
}

fn fold_high(h: u64) -> u64 {
    h ^ (h >> 32)
}

/// Are rows `a` and `b` equal on every column of `cols`?
pub(crate) fn rows_eq(cols: &[&[i64]], a: u32, b: u32) -> bool {
    cols.iter().all(|c| c[a as usize] == c[b as usize])
}

/// An all-empty bucket array for about `entries` entries (load ≤ 1).
/// Chaining never fails, so an underestimate only lengthens chains.
fn empty_heads(entries: usize) -> Vec<u32> {
    vec![NIL; entries.max(1).next_power_of_two()]
}

fn bucket(heads: &[u32], hash: u64) -> usize {
    hash as usize & (heads.len() - 1)
}

/// A join build side: every build row chained under its hash bucket.
pub(crate) struct ChainTable {
    heads: Vec<u32>,
    next: Vec<u32>,
}

impl ChainTable {
    /// Chains build rows `0..hashes.len()`, `hashes[r]` being row `r`'s
    /// hash. Rows are pushed onto their chain's front in reverse order,
    /// which leaves every chain ascending.
    pub(crate) fn build(hashes: &[u64]) -> Self {
        assert!(hashes.len() < NIL as usize, "build side exceeds u32 rows");
        let mut heads = empty_heads(hashes.len());
        let mut next = vec![NIL; hashes.len()];
        for (r, &h) in hashes.iter().enumerate().rev() {
            let b = bucket(&heads, h);
            next[r] = heads[b];
            heads[b] = r as u32;
        }
        ChainTable { heads, next }
    }

    /// The build rows in `hash`'s bucket, ascending — a superset of the
    /// rows whose key matches; the caller compares the key columns.
    pub(crate) fn candidates(&self, hash: u64) -> impl Iterator<Item = u32> + '_ {
        let first = self.heads[bucket(&self.heads, hash)];
        std::iter::successors((first != NIL).then_some(first), |&r| {
            let n = self.next[r as usize];
            (n != NIL).then_some(n)
        })
    }
}

/// Dense group ids in first-seen order over the rows of one column set.
pub(crate) struct GroupTable {
    heads: Vec<u32>,
    /// Per group: the next group in its bucket's chain.
    next: Vec<u32>,
    /// Per group: the key's hash, so a merge never rehashes.
    hashes: Vec<u64>,
    /// Per group: the first row seen with the key — the key itself, read
    /// through the columns.
    first: Vec<u32>,
}

impl GroupTable {
    /// An empty table sized for about `groups` groups.
    pub(crate) fn with_capacity(groups: usize) -> Self {
        GroupTable {
            heads: empty_heads(groups),
            next: Vec::new(),
            hashes: Vec::new(),
            first: Vec::new(),
        }
    }

    /// The group of `row` (whose key hashes to `hash`), compared on
    /// `key_cols` against each candidate group's representative row;
    /// `true` when the key is new and `row` became its representative.
    /// Ids count up from 0 in first-seen order.
    pub(crate) fn find_or_insert(
        &mut self,
        key_cols: &[&[i64]],
        hash: u64,
        row: u32,
    ) -> (u32, bool) {
        let b = bucket(&self.heads, hash);
        let mut g = self.heads[b];
        while g != NIL {
            let i = g as usize;
            if self.hashes[i] == hash && rows_eq(key_cols, self.first[i], row) {
                return (g, false);
            }
            g = self.next[i];
        }
        let g = self.first.len() as u32;
        assert!(g < NIL, "group count exceeds u32");
        self.next.push(self.heads[b]);
        self.hashes.push(hash);
        self.first.push(row);
        self.heads[b] = g;
        (g, true)
    }

    /// Number of groups so far.
    pub(crate) fn len(&self) -> usize {
        self.first.len()
    }

    /// Each group's representative row, by group id.
    pub(crate) fn first_rows(&self) -> &[u32] {
        &self.first
    }

    /// Each group's `(hash, representative row)`, by group id — what a
    /// per-morsel table hands to the merge.
    pub(crate) fn groups(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.hashes.iter().copied().zip(self.first.iter().copied())
    }
}

/// The run finder: the rows of `range` that start a maximal run of rows
/// equal on `key_cols`. Row `r` starts one iff it is row 0 or differs
/// from row `r - 1`, so the answer for a range does not depend on how
/// the rows around it were cut — a run that began before `range` does
/// not restart at its first row.
pub(crate) fn run_starts(key_cols: &[&[i64]], range: Range<usize>) -> Vec<u32> {
    range
        .filter(|&r| r == 0 || !rows_eq(key_cols, r as u32 - 1, r as u32))
        .map(|r| r as u32)
        .collect()
}

/// The first run start, in row order, whose key already started an
/// earlier run — a group that resumed after its run ended — paired with
/// that earlier start; `None` iff the runs form a grouping. `starts` are
/// [`run_starts`] results in row order, possibly in per-morsel parts.
/// Only run starts are hashed.
pub(crate) fn resumed_run(key_cols: &[&[i64]], starts: &[Vec<u32>]) -> Option<(u32, u32)> {
    let mut seen = GroupTable::with_capacity(starts.iter().map(Vec::len).sum());
    for &s in starts.iter().flatten() {
        let (g, new) = seen.find_or_insert(key_cols, hash_row(key_cols, s as usize), s);
        if !new {
            return Some((seen.first[g as usize], s));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn slices(cols: &[Vec<i64>]) -> Vec<&[i64]> {
        cols.iter().map(Vec::as_slice).collect()
    }

    fn key(cols: &[&[i64]], r: usize) -> Vec<i64> {
        cols.iter().map(|c| c[r]).collect()
    }

    /// The reference model: first-seen ids from a `Vec<i64>`-keyed map.
    fn model_gids(cols: &[&[i64]], rows: usize) -> Vec<u32> {
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
    fn kernel_gids(cols: &[&[i64]], rows: usize, mask: u64, buckets: usize) -> Vec<u32> {
        let mut table = GroupTable::with_capacity(buckets);
        let gids: Vec<u32> = hash_rows(cols, 0..rows)
            .iter()
            .enumerate()
            .map(|(r, &h)| {
                let before = table.len();
                let (g, new) = table.find_or_insert(cols, h & mask, r as u32);
                assert_eq!(new, g as usize == before, "new ids are dense");
                assert_eq!(table.len(), before + usize::from(new));
                g
            })
            .collect();
        // Every group's representative is its first row.
        for (g, &first) in table.first_rows().iter().enumerate() {
            assert_eq!(
                gids.iter().position(|&x| x as usize == g),
                Some(first as usize)
            );
        }
        gids
    }

    /// The reference model: the nested-loop pair list, filtered by key
    /// equality — left rows outer, right rows in right-table order.
    fn model_pairs(l: &[&[i64]], r: &[&[i64]], nl: usize, nr: usize) -> Vec<(u32, u32)> {
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

    fn kernel_pairs(
        l: &[&[i64]],
        r: &[&[i64]],
        nl: usize,
        nr: usize,
        mask: u64,
    ) -> Vec<(u32, u32)> {
        let build: Vec<u64> = hash_rows(r, 0..nr).iter().map(|h| h & mask).collect();
        let table = ChainTable::build(&build);
        let mut out = Vec::new();
        for (i, &h) in hash_rows(l, 0..nl).iter().enumerate() {
            let chain: Vec<u32> = table.candidates(h & mask).collect();
            assert!(chain.windows(2).all(|w| w[0] < w[1]), "chains ascend");
            out.extend(
                chain
                    .into_iter()
                    .filter(|&j| key(l, i) == key(r, j as usize))
                    .map(|j| (i as u32, j)),
            );
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
            assert_eq!(kernel_pairs(&pcols, &cols, 200, 1500, mask), expect);
        }
    }

    #[test]
    fn the_empty_key_is_one_group_and_a_cross_product() {
        assert_eq!(hash_rows(&[], 2..5), vec![0, 0, 0]);
        assert_eq!(kernel_gids(&[], 4, u64::MAX, 4), vec![0, 0, 0, 0]);
        let cross = kernel_pairs(&[], &[], 2, 3, u64::MAX);
        assert_eq!(cross, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn zero_rows_on_either_side() {
        let col = vec![1i64, 2, 3];
        let some = slices(std::slice::from_ref(&col));
        let none: Vec<&[i64]> = vec![&[]];
        assert!(kernel_gids(&none, 0, u64::MAX, 0).is_empty());
        assert!(kernel_pairs(&some, &none, 3, 0, u64::MAX).is_empty());
        assert!(kernel_pairs(&none, &some, 0, 3, u64::MAX).is_empty());
        assert!(kernel_pairs(&[], &[], 0, 0, u64::MAX).is_empty());
    }

    #[test]
    fn hash_rows_hashes_a_range_like_the_whole() {
        let cols = vec![vec![5i64, -9, 5, 0, i64::MIN], vec![1, 1, 1, 2, 3]];
        let cols = slices(&cols);
        let all = hash_rows(&cols, 0..5);
        assert_eq!(hash_rows(&cols, 1..4), all[1..4]);
        assert_eq!(all[0], all[2], "equal keys hash alike");
        assert_ne!(all[0], all[1]);
        for (r, &h) in all.iter().enumerate() {
            assert_eq!(hash_row(&cols, r), h);
        }
    }

    #[test]
    fn run_starts_do_not_depend_on_the_cut() {
        let a = vec![1i64, 1, 2, 2, 2, 1, 3];
        let cols = slices(std::slice::from_ref(&a));
        let whole = run_starts(&cols, 0..7);
        assert_eq!(whole, vec![0, 2, 5, 6]);
        for cut in 0..=7 {
            let parts = [run_starts(&cols, 0..cut), run_starts(&cols, cut..7)];
            assert_eq!(parts.concat(), whole, "cut at {cut}");
            // `1` resumes at row 5; its run started at row 0.
            assert_eq!(resumed_run(&cols, &parts), Some((0, 5)));
        }
        assert_eq!(resumed_run(&cols[..], &[run_starts(&cols, 0..5)]), None);
        assert_eq!(run_starts(&[], 0..3), vec![0], "the empty key is one run");
        assert!(run_starts(&cols, 0..0).is_empty());
        assert_eq!(resumed_run(&cols, &[]), None);
    }

    /// The reference model of [`resumed_run`]: the first row that starts
    /// a run of a key seen before, with that key's first row.
    fn model_resumed(cols: &[&[i64]], rows: usize) -> Option<(u32, u32)> {
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
        ) {
            let (left, right) = tables;
            let (l, r) = (slices(&left), slices(&right));
            let nl = left.first().map_or(3, Vec::len);
            let nr = right.first().map_or(2, Vec::len);
            prop_assert_eq!(kernel_gids(&l, nl, mask, buckets), model_gids(&l, nl));
            prop_assert_eq!(
                kernel_pairs(&l, &r, nl, nr, mask),
                model_pairs(&l, &r, nl, nr)
            );
        }

        /// The run finder against the model, on random and on sorted
        /// (so grouped) rows of key arity 0–3, cut at any point.
        #[test]
        fn run_finder_matches_the_model(
            cols in (0usize..4, 0usize..60).prop_flat_map(|(arity, n)| table(arity, n)),
            cut in 0usize..60,
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
            let expect = model_resumed(&cols, n);
            prop_assert_eq!(resumed_run(&cols, &parts), expect);
            if sorted == 1 {
                prop_assert_eq!(expect, None);
            }
        }
    }
}
