//! Aggregation-placement regression properties:
//!
//! 1. **Placement never loses** — the plan found with eager/lazy
//!    aggregation placement enabled is never costlier than root-only
//!    aggregation, on every oracle arm (the unaggregated comparability
//!    class replicates the root-only search exactly, so its winner is
//!    always still available).
//! 2. **Determinism survives the new dimension** — with placement
//!    enabled, the serial driver and the work-stealing parallel driver
//!    at 1/2/8 threads produce byte-identical plan tables, for all
//!    three oracle arms, across random star-schema aggregation
//!    workloads (the same guarantee the join-only workloads already
//!    pin, now with partial aggregates and group-joins in the arena).
//!
//! The partial-sort enforcer obeys the same two properties against its
//! own ceiling, the sort-only search (`partial_sort(false)`), on the
//! `GROUP BY k ORDER BY k` variant of the same workload.

use proptest::prelude::*;
use std::fmt::Debug;
use std::fmt::Write as _;

use ofw_catalog::Catalog;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_parallel::ThreadPool;
use ofw_plangen::{ExplicitOracle, OrderOracle, PlanGen, PlanGenResult};
use ofw_query::extract::ExtractOptions;
use ofw_query::Query;
use ofw_simmen::SimmenFramework;
use ofw_workload::{star_agg_query, star_agg_query_ordered, StarAggConfig};

/// Full byte-level fingerprint of a plan-generation result (operator
/// tree, masks, exact cost/card bits, FDs, aggregation marks, oracle
/// states, winner).
fn fingerprint<S: Copy + Debug>(r: &PlanGenResult<S>) -> String {
    let mut out = String::new();
    for n in r.arena.nodes() {
        let _ = writeln!(
            out,
            "{:?}|{:?}|{:016x}|{:016x}|{:?}|{:?}|{:?}",
            n.op,
            n.mask,
            n.cost.to_bits(),
            n.card.to_bits(),
            n.agg,
            n.applied_fds,
            n.state,
        );
    }
    let _ = write!(
        out,
        "best={:?} cost={:016x} plans={}",
        r.best,
        r.cost.to_bits(),
        r.stats.plans
    );
    out
}

/// The restricted search a full search is checked against.
#[derive(Clone, Copy, Debug)]
enum Ceiling {
    /// `aggregation_placement(false)`: aggregation at the root only.
    RootOnly,
    /// `partial_sort(false)`: orderings enforced by full sorts only.
    SortOnly,
}

/// Runs one warm oracle arm: full search ≤ ceiling, and serial vs
/// 1/2/8-thread parallel drivers byte-identical on the full search.
/// Returns the full search's result.
fn check_arm<O>(
    label: &str,
    catalog: &Catalog,
    query: &Query,
    oracle: &O,
    ceiling: Ceiling,
) -> PlanGenResult<O::State>
where
    O: OrderOracle + Sync,
    O::Key: Sync,
    O::State: Send + Sync + Debug,
{
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());
    let full = PlanGen::new(catalog, query, &ex, oracle).run();
    let restricted = PlanGen::new(catalog, query, &ex, oracle);
    let restricted = match ceiling {
        Ceiling::RootOnly => restricted.aggregation_placement(false),
        Ceiling::SortOnly => restricted.partial_sort(false),
    }
    .run();
    assert!(
        full.cost <= restricted.cost + 1e-9 * restricted.cost.abs(),
        "{label}: the full search ({}) must never be costlier than {ceiling:?} ({})",
        full.cost,
        restricted.cost
    );
    let reference = fingerprint(&full);
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let parallel = PlanGen::new(catalog, query, &ex, oracle).run_with(&pool);
        assert_eq!(
            fingerprint(&parallel),
            reference,
            "{label}: parallel DP at {threads} threads diverged from the serial full search"
        );
    }
    full
}

/// Checks all three arms against `ceiling` and each other; returns the
/// DFSM arm's full-search result.
fn check_query(
    catalog: &Catalog,
    query: &Query,
    ceiling: Ceiling,
) -> PlanGenResult<ofw_core::State> {
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());
    assert!(ex.aggregation, "star queries must activate placement");
    let dfsm = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let winner = check_arm("dfsm", catalog, query, &dfsm, ceiling);
    let simmen = SimmenFramework::prepare(&ex.spec);
    let b = check_arm("simmen", catalog, query, &simmen, ceiling).cost;
    let explicit = ExplicitOracle::prepare(&ex.spec);
    let c = check_arm("explicit", catalog, query, &explicit, ceiling).cost;

    // Cross-arm agreement on the full search's optimum.
    let a = winner.cost;
    assert!((a - b).abs() / a.max(1.0) < 1e-9, "dfsm {a} vs simmen {b}");
    assert!(
        (a - c).abs() / a.max(1.0) < 1e-9,
        "dfsm {a} vs explicit {c}"
    );
    winner
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random star-schema aggregation queries: placement never loses and
    /// the parallel drivers stay byte-identical, all three oracle arms.
    #[test]
    fn placement_is_sound_and_deterministic(seed in 0u64..1000, dims in 1usize..4) {
        let (catalog, query) = star_agg_query(&StarAggConfig {
            dimensions: dims,
            seed,
        });
        check_query(&catalog, &query, Ceiling::RootOnly);
    }
}

/// The partial-sort twin, over `GROUP BY k ORDER BY k` star queries:
/// the partial-sort search never loses against the sort-only ceiling,
/// the arms agree, thread counts do not matter — and the enforcer is
/// actually used: some winner carries a `PartialSort`.
#[test]
fn partial_sort_is_sound_deterministic_and_used() {
    let mut winners_with_partial_sort = 0;
    for dims in 1usize..4 {
        for seed in [4242u64, 4243] {
            let (catalog, query) = star_agg_query_ordered(&StarAggConfig {
                dimensions: dims,
                seed,
            });
            let winner = check_query(&catalog, &query, Ceiling::SortOnly);
            let plan = winner.arena.render(winner.best, &|qrel| qrel.to_string());
            winners_with_partial_sort += usize::from(plan.contains("PartialSort"));
        }
    }
    assert!(
        winners_with_partial_sort >= 1,
        "no winner of the ordered star workload uses the partial-sort enforcer"
    );
}

/// The root-only arm of a placed run and a placement-disabled run agree
/// exactly: the unaggregated class is a faithful replica (this is the
/// structural invariant behind "placement never loses").
#[test]
fn root_only_winner_survives_inside_the_placed_search() {
    for seed in [3u64, 9, 10] {
        let (catalog, query) = star_agg_query(&StarAggConfig {
            dimensions: 3,
            seed,
        });
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let placed = PlanGen::new(&catalog, &query, &ex, &fw).run();
        let root_only = PlanGen::new(&catalog, &query, &ex, &fw)
            .aggregation_placement(false)
            .run();
        assert!(placed.cost <= root_only.cost);
        assert!(
            placed.stats.plans >= root_only.stats.plans,
            "the placed search strictly extends the root-only search"
        );
    }
}
