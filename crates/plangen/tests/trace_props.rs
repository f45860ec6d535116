//! Observability must be a pure observer: attaching a recording
//! [`Trace`] sink to the DP must not perturb the plan table by a single
//! byte — same arena nodes, same costs, same winner — serially and at
//! every thread count, for every oracle arm. And the trace itself must
//! be deterministic where it claims to be: the *skeleton* (span names,
//! labels, depths, counters in record order) is byte-identical across
//! thread counts; only timestamps and thread lanes may differ.
//!
//! Protocol per arm: one untraced serial run first on the shared oracle
//! instance (this warms the memoizing oracles so their numeric state
//! handles are bit-stable — see `determinism.rs` for the two-tier
//! guarantee), then a traced serial run and traced pool runs at 1, 2
//! and 8 threads, all fingerprint-checked against the untraced
//! reference.

use proptest::prelude::*;
use std::fmt::Debug;
use std::fmt::Write as _;

use ofw_catalog::Catalog;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_obs::Trace;
use ofw_parallel::ThreadPool;
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

fn assert_arm_trace_inert<O>(label: &str, catalog: &Catalog, query: &Query, oracle: &O)
where
    O: OrderOracle + Sync,
    O::Key: Sync,
    O::State: Send + Sync + Debug,
{
    let ex = ofw_query::extract(catalog, query, &ExtractOptions::default());

    // Untraced serial reference (also the oracle warm-up run).
    let reference = fingerprint(&PlanGen::new(catalog, query, &ex, oracle).run());

    // Traced serial run: same bytes, and the trace actually recorded.
    let serial_trace = Trace::recording();
    let serial = PlanGen::new(catalog, query, &ex, oracle)
        .trace(&serial_trace)
        .run();
    assert_eq!(
        fingerprint(&serial),
        reference,
        "{label}: recording sink changed the serial plan table"
    );
    let records = serial_trace.records();
    assert!(!records.is_empty(), "{label}: recording sink saw no spans");
    assert_eq!(records[0].name, "plangen");
    assert_eq!(
        serial_trace.chrome_json().matches("\"ph\":\"X\"").count(),
        records.len(),
        "{label}: the Chrome export must hold one complete event per span record"
    );

    // Traced pool runs: same bytes at every thread count, and one
    // skeleton shared by all thread counts.
    let mut pool_skeleton: Option<String> = None;
    for threads in [1usize, 2, 8] {
        let pool = ThreadPool::new(threads);
        let trace = Trace::recording();
        let r = PlanGen::new(catalog, query, &ex, oracle)
            .trace(&trace)
            .run_with(&pool);
        assert_eq!(
            fingerprint(&r),
            reference,
            "{label}: recording sink changed the plan table at {threads} threads"
        );
        let skeleton = trace.skeleton();
        match &pool_skeleton {
            None => pool_skeleton = Some(skeleton),
            Some(first) => assert_eq!(
                &skeleton, first,
                "{label}: trace skeleton varies with thread count ({threads} threads)"
            ),
        }
    }
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
    /// oracle arms at every thread count.
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
