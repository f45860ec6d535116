//! The fallback schedule: greedy linearization plus a sliding local-DP
//! window.
//!
//! When even neighborhood-driven enumeration would emit more csg-cmp
//! pairs than the budget allows (dense graphs past ~13 relations have
//! exponentially many connected complements), exhaustive join ordering
//! is off the table. This schedule trades optimality for a linear pair
//! count:
//!
//! 1. **Linearize** — order the relations greedily by estimated
//!    intermediate cardinality (start at the smallest effective
//!    cardinality, repeatedly append the join-graph neighbor that keeps
//!    the running estimate smallest). Every prefix of the order is
//!    connected.
//! 2. **Window DP** — slide a window of `w` relations along the order
//!    with stride `w/2`. Within a window, run an exhaustive DP over the
//!    *local* connected subsets, but only through subset-plus-relation
//!    decompositions; everything before the window is frozen into an
//!    **anchor** plan that participates as a single pseudo-relation.
//!    Overlapping windows revisit the subsets of the overlap region —
//!    those [`UnionWork`] items carry the subset's earlier flat index as
//!    their `seed`, so the driver merges the new alternatives into the
//!    already-committed Pareto set instead of starting over.
//!
//! The result explores left-deep orders globally and all bushy-free
//! local reorderings, with pair counts linear in `n · 2^w` where exact
//! enumeration is unreachable. Linear is not free once the window has
//! widened into the budget: a 50-relation clique (lean extraction,
//! `examples/large_join`) spends 747,494 pairs on 183,221 plans and
//! 9–15 s in a release build on a 2-core box.
//!
//! **Budget-adaptive width.** When no explicit window is pinned, the
//! schedule starts at [`DEFAULT_LINEARIZE_WINDOW`] and widens one
//! relation at a time while the *projected* pair count of the wider
//! schedule still fits the enumeration budget (with 2× headroom before
//! probing, so the probe itself never balloons). A fallback trip only
//! happens because exact enumeration would blow the budget — so
//! whatever slack the budget leaves is spent on better local plans
//! instead of being thrown away.

use super::{Schedule, UnionWork};
use ofw_catalog::Catalog;
use ofw_common::{BitSet, FxHashMap};
use ofw_query::Query;

/// Width the budget-adaptive refinement window starts from: each
/// sliding window runs a local DP over this many consecutive relations
/// of the greedy linear order.
const DEFAULT_LINEARIZE_WINDOW: usize = 6;

/// Local DP windows wider than this would overflow the `u64`
/// local-mask arithmetic long after the table (`2^w` entries) became
/// the real problem.
const MAX_WINDOW: usize = 16;

/// Effective cardinality of each query relation: base cardinality
/// scaled by its constant and filter predicate selectivities.
fn effective_cards(catalog: &Catalog, query: &Query) -> Vec<f64> {
    let mut eff: Vec<f64> = query
        .relations
        .iter()
        .map(|&rel| catalog.relation(rel).cardinality)
        .collect();
    for c in &query.constants {
        eff[query.owner(c.attr)] *= c.selectivity;
    }
    for f in &query.filters {
        eff[query.owner(f.attr)] *= f.selectivity;
    }
    eff
}

/// Join adjacency as `(partner, selectivity)` lists per relation.
fn adjacency(query: &Query) -> Vec<Vec<(usize, f64)>> {
    let n = query.num_relations();
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for j in &query.joins {
        let (l, r) = (query.owner(j.left), query.owner(j.right));
        if l == r {
            continue;
        }
        adj[l].push((r, j.selectivity));
        adj[r].push((l, j.selectivity));
    }
    adj
}

/// Greedy linearization: start at the smallest effective cardinality,
/// repeatedly append the adjacent relation that minimizes the running
/// intermediate-result estimate. Ties keep the lowest relation index,
/// so the order is deterministic.
fn linearize(eff: &[f64], adj: &[Vec<(usize, f64)>]) -> Vec<usize> {
    let n = eff.len();
    let mut start = 0;
    for (i, &e) in eff.iter().enumerate() {
        if e < eff[start] {
            start = i;
        }
    }
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    placed[start] = true;
    order.push(start);
    let mut current = eff[start].max(1.0);
    while order.len() < n {
        let mut best: Option<(usize, f64)> = None;
        for r in 0..n {
            if placed[r] {
                continue;
            }
            let mut sel = 1.0f64;
            let mut touches = false;
            for &(p, s) in &adj[r] {
                if placed[p] {
                    sel *= s;
                    touches = true;
                }
            }
            if !touches {
                continue;
            }
            let grown = (current * sel * eff[r]).max(1.0);
            if best.is_none_or(|(_, b)| grown < b) {
                best = Some((r, grown));
            }
        }
        let (r, grown) = best.expect("query graph is connected");
        placed[r] = true;
        order.push(r);
        current = grown;
    }
    order
}

/// Builds the window-DP schedule for one fixed window width. Its
/// ordered pair count is the quantity the adaptive widening loop
/// compares against the budget.
fn build_windows(n: usize, order: &[usize], adj: &[Vec<(usize, f64)>], w: usize) -> Schedule {
    let stride = (w / 2).max(1);

    // Committed subset → the *latest* flat global index the driver
    // will have assigned to it (a re-visited subset is committed again
    // under a fresh index, seeded from the one it replaces).
    let mut known: FxHashMap<BitSet, u32> = FxHashMap::default();
    let mut next_idx = n as u32;
    let mut batches: Vec<Vec<UnionWork>> = Vec::new();
    let mut emitted = 0u64;

    let mut p = 0usize;
    loop {
        let wend = (p + w).min(n);
        let wrels = &order[p..wend];
        let m = wrels.len();
        // The frozen prefix, contracted to one pseudo-relation.
        let anchor: BitSet = order[..p].iter().copied().collect();
        let anchor_idx = if p == 0 {
            u32::MAX
        } else {
            *known
                .get(&anchor)
                .expect("every linearization prefix is a committed subset")
        };
        // Window-local adjacency: bitmask of in-window neighbors
        // and anchor adjacency per window position.
        let mut win_nbrs = vec![0u64; m];
        let mut anchor_adj = vec![false; m];
        for (j, &r) in wrels.iter().enumerate() {
            for &(partner, _) in &adj[r] {
                if let Some(pos) = wrels.iter().position(|&x| x == partner) {
                    win_nbrs[j] |= 1u64 << pos;
                } else if anchor.contains(partner) {
                    anchor_adj[j] = true;
                }
            }
        }

        let mut valid = vec![false; 1usize << m];
        let mut idx_of = vec![u32::MAX; 1usize << m];
        for k in 1..=m {
            let mut batch: Vec<UnionWork> = Vec::new();
            for mask in 1usize..(1usize << m) {
                if (mask.count_ones() as usize) != k {
                    continue;
                }
                if p == 0 && k == 1 {
                    // Window-initial singletons are the driver's
                    // base plans; they need no work item — but they
                    // *are* committed subsets (driver indices 0..n),
                    // and a width-2/3 schedule (stride 1) anchors its
                    // second window on the first singleton prefix, so
                    // record them.
                    let j = mask.trailing_zeros() as usize;
                    valid[mask] = true;
                    idx_of[mask] = wrels[j] as u32;
                    known.insert(BitSet::from_iter([wrels[j]]), wrels[j] as u32);
                    continue;
                }
                let mut pairs: Vec<(u32, u32)> = Vec::new();
                let mut b = mask;
                while b != 0 {
                    let j = b.trailing_zeros() as usize;
                    b &= b - 1;
                    let sub = mask & !(1usize << j);
                    let (sub_ok, sub_idx) = if sub == 0 {
                        (p > 0, anchor_idx)
                    } else {
                        (valid[sub], idx_of[sub])
                    };
                    let connected = anchor_adj[j] || (win_nbrs[j] & sub as u64) != 0;
                    if sub_ok && connected {
                        let r = wrels[j] as u32;
                        pairs.push((sub_idx, r));
                        pairs.push((r, sub_idx));
                    }
                }
                if pairs.is_empty() {
                    continue;
                }
                valid[mask] = true;
                let mut mset = anchor.clone();
                let mut b = mask;
                while b != 0 {
                    let j = b.trailing_zeros() as usize;
                    b &= b - 1;
                    mset.insert(wrels[j]);
                }
                let seed = known.get(&mset).copied();
                emitted += pairs.len() as u64;
                idx_of[mask] = next_idx;
                known.insert(mset.clone(), next_idx);
                next_idx += 1;
                batch.push(UnionWork {
                    union: mset,
                    seed,
                    pairs,
                });
            }
            if !batch.is_empty() {
                batches.push(batch);
            }
        }
        if wend == n {
            break;
        }
        p += stride;
    }

    Schedule { batches, emitted }
}

/// Builds the fallback schedule. `window: Some(w)` pins the width to
/// `w` (clamped to `[2, MAX_WINDOW]` and the relation count); `None`
/// adapts it: start at [`DEFAULT_LINEARIZE_WINDOW`] and widen while the
/// wider schedule's pair count still fits `budget`.
pub(crate) fn schedule(
    catalog: &Catalog,
    query: &Query,
    window: Option<usize>,
    budget: u64,
) -> Schedule {
    let n = query.num_relations();
    let eff = effective_cards(catalog, query);
    let adj = adjacency(query);
    let order = linearize(&eff, &adj);
    let cap = MAX_WINDOW.min(n.max(2));
    if let Some(w) = window {
        return build_windows(n, &order, &adj, w.clamp(2, cap));
    }
    let mut w = DEFAULT_LINEARIZE_WINDOW.clamp(2, cap);
    let mut schedule = build_windows(n, &order, &adj, w);
    // Widen only while the *current* schedule leaves 2× headroom —
    // each +1 roughly doubles per-window work, so anything tighter
    // would probe widths that cannot fit. Reject a probe that
    // overshoots the budget.
    while w < cap && schedule.emitted.saturating_mul(2) <= budget {
        let wider = build_windows(n, &order, &adj, w + 1);
        if wider.emitted > budget {
            break;
        }
        w += 1;
        schedule = wider;
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_query::QueryBuilder;

    /// A clique query with per-relation cardinalities.
    fn clique_query(cards: &[f64]) -> (Catalog, Query) {
        let n = cards.len();
        let mut c = Catalog::new();
        for (i, &card) in cards.iter().enumerate() {
            let cols: Vec<String> = (0..n).map(|k| format!("c{k}")).collect();
            let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            c.add_relation(&format!("r{i}"), card, &col_refs);
        }
        let mut qb = QueryBuilder::new(&c);
        for i in 0..n {
            qb = qb.relation(&format!("r{i}"));
        }
        for a in 0..n {
            for b in (a + 1)..n {
                qb = qb.join(&format!("r{a}.c{b}"), &format!("r{b}.c{a}"), 0.01);
            }
        }
        let q = qb.build();
        (c, q)
    }

    /// The greedy order starts at the smallest effective cardinality
    /// and visits neighbors; every prefix must be connected.
    #[test]
    fn linearization_starts_small_and_stays_connected() {
        let (c, q) = clique_query(&[1e6, 10.0, 1e4, 1e5, 100.0]);
        let eff = effective_cards(&c, &q);
        let adj = adjacency(&q);
        let order = linearize(&eff, &adj);
        assert_eq!(order[0], 1, "starts at the 10-tuple relation");
        assert_eq!(order.len(), 5);
        let mut seen = [false; 5];
        for &r in &order {
            assert!(!seen[r]);
            seen[r] = true;
        }
    }

    /// Every subset the schedule emits decomposes into already-known
    /// parts, the final union covers all relations, and the pair count
    /// stays far below exhaustive enumeration.
    #[test]
    fn windows_cover_the_full_set_with_linear_pair_counts() {
        let n = 30;
        let cards: Vec<f64> = (0..n).map(|i| 1000.0 + i as f64).collect();
        let (c, q) = clique_query(&cards);
        let schedule = schedule(&c, &q, Some(6), 1_000_000);
        let works = || schedule.batches.iter().flatten();
        assert!(
            works().any(|work| work.union.len() == n),
            "the full relation set is never planned"
        );
        let total_pairs: u64 = works().map(|work| work.pairs.len() as u64).sum();
        assert_eq!(total_pairs, schedule.emitted);
        assert!(
            schedule.emitted < 20_000,
            "pair count should be linear-ish, got {}",
            schedule.emitted
        );
    }

    /// With no pinned window the width adapts to the budget: a roomy
    /// budget widens past the default (more pairs than the pinned
    /// default emits, never more than the budget), a tight budget stays
    /// at the default, and a pinned window ignores the budget entirely.
    #[test]
    fn adaptive_window_spends_leftover_budget() {
        let n = 30;
        let cards: Vec<f64> = (0..n).map(|i| 1000.0 + i as f64).collect();
        let (c, q) = clique_query(&cards);
        let pinned = schedule(&c, &q, Some(DEFAULT_LINEARIZE_WINDOW), 1_000_000);
        let baseline = pinned.emitted;

        let roomy = schedule(&c, &q, None, 1_000_000);
        assert!(
            roomy.emitted > baseline,
            "a 1M budget should widen past the default ({} vs {baseline})",
            roomy.emitted
        );
        assert!(roomy.emitted <= 1_000_000, "never overshoots the budget");

        let tight = schedule(&c, &q, None, baseline);
        assert_eq!(
            tight.emitted, baseline,
            "a budget with no headroom keeps the default width"
        );
    }
}
