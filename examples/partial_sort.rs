//! Partial-sort walkthrough: a `GROUP BY … ORDER BY` query whose
//! optimum swaps the root `Sort` for `HashAgg → PartialSort`, side by
//! side with the sort-only ceiling.
//!
//! The query is TPC-H-flavored "orders per customer, listed by
//! customer": `select o_custkey, count(*), sum(o_totalprice) from
//! customer, orders where o_custkey = c_custkey group by o_custkey
//! order by o_custkey` — with *no* useful index anywhere, so hash-based
//! aggregation wins the `group by`. Its output is then **grouped by the
//! 150 000-value key but unsorted**, and the head/tail machinery pays
//! off: the plan generator's one-bit `satisfies` probe sees
//! the `order by`'s head grouping already satisfied, so the root
//! ordering is enforced by a `PartialSort` — blocks are adjacent, only
//! the within-block residue is compared, `O(n · log(n/groups))` —
//! instead of a full `O(n · log n)` `Sort`.
//!
//! Run with `cargo run --release --example partial_sort`.

use ofw::core::{OrderingFramework, PruneConfig};
use ofw::plangen::{PlanGen, PlanOp};
use ofw::query::extract::ExtractOptions;
use ofw::workload::partialsort_showcase_query;

fn main() {
    let (catalog, query) = partialsort_showcase_query();
    let ex = ofw::query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();

    let partial = PlanGen::new(&catalog, &query, &ex, &fw).run();
    let sort_only = PlanGen::new(&catalog, &query, &ex, &fw)
        .partial_sort(false)
        .run();

    println!("== orders per customer, listed by customer ==");
    println!();
    println!(
        "sort-only enforcement (cost {:.0}, {} subplans):",
        sort_only.cost, sort_only.stats.plans
    );
    print!("{}", sort_only.explain(&catalog, &query, &ex, &fw).text());
    println!();
    println!(
        "with the partial-sort enforcer (cost {:.0}, {} subplans):",
        partial.cost, partial.stats.plans
    );
    print!("{}", partial.explain(&catalog, &query, &ex, &fw).text());
    println!();
    println!(
        "the partial sort wins by {:.2}x",
        sort_only.cost / partial.cost
    );

    // The structural claim of the walkthrough, asserted: the winner
    // enforces the root ordering with a PartialSort over grouped
    // aggregation output (a hash aggregate or a group-join over a
    // hash-grouped probe) and contains no full Sort anywhere, while the
    // ceiling has to pay a full Sort somewhere to order the groups.
    let root = partial.arena.node(partial.best);
    let PlanOp::PartialSort { input, head, .. } = &root.op else {
        panic!("expected a PartialSort at the root");
    };
    assert!(!head.is_empty());
    assert!(matches!(
        partial.arena.node(*input).op,
        PlanOp::HashAgg { .. } | PlanOp::GroupJoin { .. }
    ));
    let contains_sort = |r: &ofw::plangen::PlanGenResult<ofw::core::State>| {
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            if matches!(op, PlanOp::Sort { .. }) {
                return true;
            }
            stack.extend(op.inputs());
        }
        false
    };
    assert!(!contains_sort(&partial), "the winner needs no full sort");
    assert!(contains_sort(&sort_only), "the ceiling pays a full sort");
    assert!(partial.cost < sort_only.cost);
    println!();
    println!("(asserted: PartialSort over grouped output vs a full Sort in the ceiling)");
}
