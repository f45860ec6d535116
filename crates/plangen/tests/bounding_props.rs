//! Cost-bounded pruning must be invisible in the answer: for every
//! workload shape and oracle arm, the bounded search picks a
//! winner with the **same explained plan tree (operators, rows and
//! held properties) and bit-identical cost** as the unbounded search.
//! Only the amount of work (plans materialized, oracle probes,
//! candidates bound-pruned) may differ.
//!
//! This is the black-box pin behind the mode-stability argument in
//! `dp/mod.rs`: the Pareto table under bounding is exactly the
//! unbounded table intersected with the bound-admissible plans, and
//! ties are kept (strict-inequality rejection), so every optimum-tying
//! plan survives and the deterministic tie-break picks the same winner.
//!
//! Protocol per arm: the unbounded run goes first on the shared oracle
//! instance (warming the memoizing oracles so state handles are
//! stable), then the bounded run is compared against it.

#![forbid(unsafe_code)]

use proptest::prelude::*;

use ofw_catalog::Catalog;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_plangen::{ExplicitOracle, OrderOracle, PlanGen, PlanGenResult};
use ofw_query::extract::ExtractOptions;
use ofw_query::{ExtractedQuery, Query};
use ofw_workload::{
    grouping_query, large_query, random_query, GroupingQueryConfig, LargeQueryConfig,
    RandomQueryConfig, Topology,
};

/// The observable answer: the winner's explained tree — operators,
/// rounded costs and rows, and every node's held properties as the
/// arm's own oracle reports them — plus the exact cost bits.
/// Deliberately *not* the full arena — bounding exists to materialize
/// fewer plans, so plan tables legitimately differ.
fn winner<O: OrderOracle>(
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
    oracle: &O,
    r: &PlanGenResult<O::State>,
) -> String {
    format!(
        "{}\ncost={:016x}",
        r.explain(catalog, query, ex, oracle).text(),
        r.cost.to_bits()
    )
}

fn assert_arm_bounding_invisible<O: OrderOracle>(
    label: &str,
    catalog: &Catalog,
    query: &Query,
    oracle: &O,
) {
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());

    // Unbounded reference (also the oracle warm-up run).
    let unbounded = PlanGen::new(catalog, query, &ex, oracle)
        .cost_bounding(false)
        .run();
    let reference = winner(catalog, query, &ex, oracle, &unbounded);
    assert_eq!(unbounded.stats.decisions.pruning.bound_pruned, 0, "{label}");

    let bounded = PlanGen::new(catalog, query, &ex, oracle).run();
    assert_eq!(
        winner(catalog, query, &ex, oracle, &bounded),
        reference,
        "{label}: bounding changed the winner"
    );
    assert!(
        bounded.stats.plans <= unbounded.stats.plans,
        "{label}: bounding must never materialize more plans \
         ({} vs {})",
        bounded.stats.plans,
        unbounded.stats.plans
    );
}

fn check_query(catalog: &Catalog, query: &Query) {
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());
    let dfsm = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    assert_arm_bounding_invisible("dfsm", catalog, query, &dfsm);
    let simmen = ofw_simmen::SimmenFramework::prepare(&ex.spec);
    assert_arm_bounding_invisible("simmen", catalog, query, &simmen);
    let explicit = ExplicitOracle::prepare(&ex.spec);
    assert_arm_bounding_invisible("explicit", catalog, query, &explicit);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random join queries: bounded and unbounded searches agree for
    /// all three oracle arms.
    #[test]
    fn bounding_never_changes_join_plans(seed in 0u64..1000, extra in 0usize..2) {
        let (catalog, query) = random_query(&RandomQueryConfig {
            num_relations: 5,
            extra_edges: extra,
            seed,
        });
        check_query(&catalog, &query);
    }

    /// Grouping queries (group by / distinct): same guarantee through
    /// the aggregation-placement and finalize paths.
    #[test]
    fn bounding_never_changes_grouping_plans(seed in 0u64..1000) {
        let (catalog, query) = grouping_query(&GroupingQueryConfig {
            num_relations: 5,
            extra_edges: 1,
            seed,
        });
        check_query(&catalog, &query);
    }

    /// Structured topologies — chains, stars and cycles: the shapes
    /// where the greedy bound provider is respectively near-perfect,
    /// adversarial (hub joins), and forced around a cycle.
    #[test]
    fn bounding_never_changes_topology_plans(seed in 0u64..1000, shape in 0usize..3) {
        let topology = [Topology::Chain, Topology::Star, Topology::Cycle][shape];
        let (catalog, query) = large_query(&LargeQueryConfig {
            topology,
            num_relations: 7,
            seed,
        });
        check_query(&catalog, &query);
    }
}

/// The acceptance workload: on a 20-relation chain the bound must
/// actually fire (work pruned, not just allowed to be), while the
/// winner stays bit-identical to the unbounded search.
#[test]
fn chain_20_bound_fires_and_winner_is_identical() {
    let (catalog, query) = large_query(&LargeQueryConfig {
        topology: Topology::Chain,
        num_relations: 20,
        seed: 42,
    });
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();

    let bounded = PlanGen::new(&catalog, &query, &ex, &fw).run();
    let unbounded = PlanGen::new(&catalog, &query, &ex, &fw)
        .cost_bounding(false)
        .run();

    assert_eq!(unbounded.cost.to_bits(), bounded.cost.to_bits());
    assert_eq!(
        winner(&catalog, &query, &ex, &fw, &bounded),
        winner(&catalog, &query, &ex, &fw, &unbounded)
    );
    assert!(
        bounded.stats.decisions.pruning.bound_pruned > 1000,
        "the bound barely fired on chain-20: {}",
        bounded.stats.decisions.pruning.bound_pruned
    );
    assert!(
        bounded.stats.plans <= unbounded.stats.plans,
        "bounding must never materialize more plans: {} vs {}",
        bounded.stats.plans,
        unbounded.stats.plans
    );
    // The bound also skips dominance work: a bound-admissible
    // candidate meets the same cheaper members in both modes (they are
    // admissible too), and only the unbounded set still holds the
    // inadmissible ones it may evict — so bounding can only remove
    // dominance checks, never add them.
    let checks = |r: &PlanGenResult<ofw_core::State>| {
        let p = &r.stats.decisions.probes;
        p.dominates + p.dominance_memo_hits
    };
    assert!(
        checks(&bounded) < checks(&unbounded),
        "bounding must save dominance checks: {} vs {}",
        checks(&bounded),
        checks(&unbounded)
    );
}
