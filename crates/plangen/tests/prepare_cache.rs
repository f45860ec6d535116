//! Interning regression: the DP must produce the same plan table
//! whether its DFSM oracle was prepared directly or served from a
//! [`PreparedCache`] — on the cold miss, on the warm hit, and for an
//! attribute-shifted twin query that shares the cached automaton — at
//! every DP thread count.
//!
//! A cached framework answers every probe like an uncached one but may
//! number handles and states differently (canonical renaming can reorder
//! set-valued properties), so the comparison is state-blind: operator
//! trees, masks, cost and cardinality bit patterns, applied FDs, the
//! winner and the plan count must match; the 4-byte handle column is
//! free.

use std::fmt::Write as _;

use ofw_catalog::{AttrId, Catalog, RelId};
use ofw_core::{OrderingFramework, PrepStats, PrepareOptions, PreparedCache, PruneConfig, State};
use ofw_parallel::ThreadPool;
use ofw_plangen::{PlanGen, PlanGenResult};
use ofw_query::extract::ExtractOptions;
use ofw_query::{AggCall, ConstPred, FilterPred, JoinEdge, Query};
use ofw_workload::{grouping_query, random_query, GroupingQueryConfig, RandomQueryConfig};

/// State-blind arena fingerprint plus winner and cost bits.
fn fingerprint(r: &PlanGenResult<State>) -> String {
    let mut out = String::new();
    for n in r.arena.nodes() {
        let _ = writeln!(
            out,
            "{:?}|{:?}|{:016x}|{:016x}|{:?}|{:?}",
            n.op,
            n.mask,
            n.cost.to_bits(),
            n.card.to_bits(),
            n.agg,
            n.applied_fds,
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

/// How the oracle of one DP run is prepared.
#[derive(Clone, Copy)]
enum Prep<'a> {
    Uncached,
    Cached(&'a PreparedCache),
}

/// Prepares the query's oracle and runs the DP, serially or on a pool of
/// `threads` workers; returns the plan table and the oracle's
/// preparation counters.
fn run_dp(
    catalog: &Catalog,
    query: &Query,
    prep: Prep<'_>,
    threads: Option<usize>,
) -> (PlanGenResult<State>, PrepStats) {
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());
    let oracle = match prep {
        Prep::Uncached => OrderingFramework::prepare(&ex.spec, PruneConfig::default()),
        Prep::Cached(cache) => OrderingFramework::prepare_cached(
            &ex.spec,
            PruneConfig::default(),
            &PrepareOptions::default(),
            cache,
        ),
    }
    .expect("preparation");
    let pg = PlanGen::new(catalog, query, &ex, &oracle);
    let result = match threads {
        None => pg.run(),
        Some(t) => pg.run_with(&ThreadPool::new(t)),
    };
    (result, oracle.stats().clone())
}

/// The same query over a catalog with one extra leading relation: every
/// relation id moves up by one and every attribute id by `PAD`, nothing
/// else changes — so the property spec has the same shape under
/// different attribute ids.
fn shifted_twin(catalog: &Catalog, query: &Query) -> (Catalog, Query) {
    const PAD: u32 = 3;
    let shift = |a: AttrId| AttrId(a.0 + PAD);
    let shift_all = |attrs: &[AttrId]| attrs.iter().map(|&a| shift(a)).collect::<Vec<_>>();

    let mut twin_catalog = Catalog::new();
    twin_catalog.add_relation("pad", 1.0, &["p0", "p1", "p2"]);
    for rel in catalog.relations() {
        let cols: Vec<&str> = rel
            .attrs
            .iter()
            .map(|&a| {
                let name = catalog.attr_name(a);
                name.strip_prefix(&format!("{}.", rel.name)).unwrap_or(name)
            })
            .collect();
        let id = twin_catalog.add_relation(&rel.name, rel.cardinality, &cols);
        for index in &rel.indexes {
            twin_catalog.add_index(id, shift_all(&index.key), index.clustered);
        }
        for &a in &rel.attrs {
            if let Some(d) = catalog.distinct_values(a) {
                twin_catalog.set_distinct_values(shift(a), d);
            }
        }
    }
    assert_eq!(twin_catalog.num_attrs(), catalog.num_attrs() + PAD as usize);

    let mut twin = Query::new();
    for &rel in &query.relations {
        twin.add_relation(&twin_catalog, RelId(rel.0 + 1));
    }
    twin.joins = query
        .joins
        .iter()
        .map(|j| JoinEdge {
            left: shift(j.left),
            right: shift(j.right),
            selectivity: j.selectivity,
        })
        .collect();
    twin.constants = query
        .constants
        .iter()
        .map(|c| ConstPred {
            attr: shift(c.attr),
            selectivity: c.selectivity,
        })
        .collect();
    twin.filters = query
        .filters
        .iter()
        .map(|f| FilterPred {
            attr: shift(f.attr),
            selectivity: f.selectivity,
        })
        .collect();
    twin.group_by = shift_all(&query.group_by);
    twin.distinct = shift_all(&query.distinct);
    twin.order_by = shift_all(&query.order_by);
    twin.aggregates = query
        .aggregates
        .iter()
        .map(|a| AggCall {
            func: a.func,
            input: a.input.map(shift),
        })
        .collect();
    (twin_catalog, twin)
}

/// Cold miss, warm hit and shifted twin against the uncached reference,
/// serially and at 1/2/8 pool threads.
fn check_cache(catalog: &Catalog, query: &Query) {
    let (twin_catalog, twin) = shifted_twin(catalog, query);
    let (reference, reference_stats) = run_dp(catalog, query, Prep::Uncached, None);
    let twin_reference = fingerprint(&run_dp(&twin_catalog, &twin, Prep::Uncached, None).0);
    let reference_print = fingerprint(&reference);

    for threads in [None, Some(1), Some(2), Some(8)] {
        let cache = PreparedCache::new();
        let (miss, miss_stats) = run_dp(catalog, query, Prep::Cached(&cache), threads);
        let (hit, hit_stats) = run_dp(catalog, query, Prep::Cached(&cache), threads);
        let (shared, shared_stats) = run_dp(&twin_catalog, &twin, Prep::Cached(&cache), threads);
        assert_eq!(
            (cache.misses(), cache.hits(), cache.len()),
            (1, 2, 1),
            "miss, hit, and a twin sharing the entry"
        );
        assert_eq!(
            [
                miss_stats.interned_hit,
                hit_stats.interned_hit,
                shared_stats.interned_hit
            ],
            [false, true, true]
        );
        assert_eq!(
            fingerprint(&miss),
            reference_print,
            "cold cached preparation diverged at {threads:?} DP threads"
        );
        assert_eq!(
            fingerprint(&hit),
            reference_print,
            "warm cached preparation diverged at {threads:?} DP threads"
        );
        assert_eq!(
            fingerprint(&shared),
            twin_reference,
            "shared automaton diverged on the twin at {threads:?} DP threads"
        );
        // The automaton counters are a function of the spec's shape, not
        // of who built the automaton or what was probed before.
        for stats in [&miss_stats, &hit_stats, &shared_stats] {
            assert_eq!(stats.nfsm_nodes, reference_stats.nfsm_nodes);
            assert_eq!(stats.dfsm_states, reference_stats.dfsm_states);
        }
    }
}

#[test]
fn cached_preparation_plans_identically_on_a_join_query() {
    let (catalog, query) = random_query(&RandomQueryConfig {
        num_relations: 7,
        extra_edges: 1,
        seed: 0x5EED,
    });
    check_cache(&catalog, &query);
}

#[test]
fn cached_preparation_plans_identically_on_a_grouping_query() {
    let (catalog, query) = grouping_query(&GroupingQueryConfig {
        num_relations: 5,
        extra_edges: 1,
        seed: 42,
    });
    check_cache(&catalog, &query);
}

/// The preparation counters live on the framework's own `PrepStats`
/// (the plan generator does not copy them): after a DP run they still
/// describe the automaton it probed.
#[test]
fn prep_stats_describe_the_automaton_after_planning() {
    let (catalog, query) = random_query(&RandomQueryConfig {
        num_relations: 6,
        extra_edges: 1,
        seed: 99,
    });
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let oracle = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(&catalog, &query, &ex, &oracle).run();
    assert!(r.cost.is_finite());
    let stats = oracle.stats();
    assert!(stats.nfsm_nodes > 0);
    assert_eq!(stats.nfsm_nodes, oracle.nfsm().num_nodes());
    assert_eq!(stats.dfsm_states, oracle.dfsm().num_states());
    assert!(!stats.interned_hit);
}
