//! Observability must be a pure observer: attaching a recording
//! [`Trace`] sink to the DP must not perturb the plan table by a single
//! byte — same arena nodes, same costs, same winner — for every oracle
//! arm.
//!
//! Protocol per arm: one untraced run first on the shared oracle
//! instance (this warms the memoizing oracles, which intern state
//! handles first-come, so the traced run's handles are bit-stable),
//! then a traced run, fingerprint-checked against the untraced
//! reference.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use std::fmt::Debug;
use std::fmt::Write as _;

use ofw_catalog::Catalog;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_obs::Trace;
use ofw_plangen::{ExplicitOracle, OrderOracle, PlanGen, PlanGenResult};
use ofw_query::extract::ExtractOptions;
use ofw_query::Query;
use ofw_workload::{grouping_query, random_query, GroupingQueryConfig, RandomQueryConfig};

/// Full byte-level fingerprint of a plan-generation result, including
/// oracle state handles (valid here because every run shares a warmed
/// oracle instance).
fn fingerprint<S: Copy + Debug>(r: &PlanGenResult<S>) -> String {
    let mut out = String::new();
    for n in r.arena.nodes() {
        let _ = write!(
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
        out.push('\n');
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

fn assert_arm_trace_inert<O: OrderOracle>(
    label: &str,
    catalog: &Catalog,
    query: &Query,
    oracle: &O,
) {
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());

    // Untraced reference (also the oracle warm-up run).
    let reference = fingerprint(&PlanGen::new(catalog, query, &ex, oracle).run());

    // Traced run: same bytes, and the trace actually recorded.
    let trace = Trace::recording();
    let traced = PlanGen::new(catalog, query, &ex, oracle)
        .trace(&trace)
        .run();
    assert_eq!(
        fingerprint(&traced),
        reference,
        "{label}: recording sink changed the plan table"
    );
    let records = trace.records();
    assert!(!records.is_empty(), "{label}: recording sink saw no spans");
    assert_eq!(records[0].name, "plangen");
}

fn check_query(catalog: &Catalog, query: &Query) {
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());
    let dfsm = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    assert_arm_trace_inert("dfsm", catalog, query, &dfsm);
    let simmen = ofw_simmen::SimmenFramework::prepare(&ex.spec);
    assert_arm_trace_inert("simmen", catalog, query, &simmen);
    let explicit = ExplicitOracle::prepare(&ex.spec);
    assert_arm_trace_inert("explicit", catalog, query, &explicit);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random join queries: a recording trace is inert for all three
    /// oracle arms.
    #[test]
    fn recording_trace_never_changes_join_plans(seed in 0u64..1000, extra in 0usize..2) {
        let (catalog, query) = random_query(&RandomQueryConfig {
            num_relations: 5,
            extra_edges: extra,
            seed,
        });
        check_query(&catalog, &query);
    }

    /// Grouping queries (group by / distinct): same guarantee.
    #[test]
    fn recording_trace_never_changes_grouping_plans(seed in 0u64..1000) {
        let (catalog, query) = grouping_query(&GroupingQueryConfig {
            num_relations: 5,
            extra_edges: 1,
            seed,
        });
        check_query(&catalog, &query);
    }
}

/// The phase ledger is populated whether or not a sink is attached:
/// decision telemetry is always-on, and phase entries cover the whole
/// run (base → enumerate → per-layer → finalize → pick_final).
#[test]
fn phase_stats_are_always_populated() {
    let (catalog, query) = random_query(&RandomQueryConfig {
        num_relations: 6,
        extra_edges: 1,
        seed: 7,
    });
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(&catalog, &query, &ex, &fw).run();

    let names: Vec<&str> = r.stats.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(names.first(), Some(&"bound"), "bound provider runs first");
    assert_eq!(names.get(1), Some(&"base"));
    assert_eq!(names.get(2), Some(&"enumerate"));
    assert_eq!(names.last(), Some(&"pick_final"));
    assert!(names.contains(&"layer 2"), "no layer phases in {names:?}");

    // Decision counters saw real work on every axis.
    let d = &r.stats.decisions;
    assert!(d.pruning.kept_total() > 0);
    assert!(d.pruning.bound_pruned > 0, "the bound never fired");
    assert!(d.probes.total() > 0);
    assert!(d.enforcers.admitted_total() > 0);
    // The per-phase ledger sums to the run totals on *every* decision
    // axis — kept, dominated, bound_pruned, each probe family (memo
    // hits included) and each enforcer counter. This is the pin that
    // pruning work is charged to exactly one phase: a double-charge
    // (e.g. to a layer *and* its unions) would break the equality.
    let mut summed = ofw_obs::DecisionCounters::default();
    for p in &r.stats.phases {
        summed.merge(&p.decisions);
    }
    assert_eq!(&summed, d);

    // With bounding off, the bound phase disappears and nothing is
    // bound-pruned — and the ledger still sums exactly.
    let unbounded = PlanGen::new(&catalog, &query, &ex, &fw)
        .cost_bounding(false)
        .run();
    let names: Vec<&str> = unbounded
        .stats
        .phases
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    assert_eq!(names.first(), Some(&"base"));
    assert_eq!(unbounded.stats.decisions.pruning.bound_pruned, 0);
    assert_eq!(unbounded.cost.to_bits(), r.cost.to_bits());
    let mut summed = ofw_obs::DecisionCounters::default();
    for p in &unbounded.stats.phases {
        summed.merge(&p.decisions);
    }
    assert_eq!(&summed, &unbounded.stats.decisions);
}
