//! EXPLAIN walkthrough on the paper's §6.1 "simple query":
//!
//! ```sql
//! select * from persons, jobs
//! where persons.jobid = jobs.id and jobs.salary > 50000
//! order by jobs.id, persons.name
//! ```
//!
//! with a clustered index on `jobs.id`. First the preparation: the
//! extraction step (§5.2) — produced and tested interesting orders, FD
//! sets —, the NFSM/DFSM sizes of Figs. 11–12, and what the DFSM
//! answers once `id = jobid` has been applied to a scan ordered by
//! `jobs.id`.
//!
//! Then the winning plan, with per-node cost, cardinality and — the
//! point of the framework — the *held logical properties* at every
//! node, re-probed from each node's 4-byte DFSM state. Watch the
//! join's functional dependency widen what the root holds: the sort
//! physically produces `(jobs.id, persons.name)`, yet the root also
//! satisfies `(persons.jobid)`, inferred through `persons.jobid =
//! jobs.id`.
//!
//! The run is made under a recording [`Trace`] sink to show the
//! optimizer's phase spans (extract → prepare → enumerate → per-layer
//! DP → pick_final) with their deterministic counters — attaching the
//! sink changes nothing about the plan.
//!
//! Run with `cargo run --release --example explain`.

use ofw::core::{OrderOracle, Ordering, OrderingFramework, PrepareOptions, PruneConfig};
use ofw::obs::Trace;
use ofw::plangen::PlanGen;
use ofw::query::extract::ExtractOptions;
use ofw::query::QueryBuilder;

fn main() {
    let mut catalog = ofw::catalog::Catalog::new();
    catalog.add_relation("persons", 10_000.0, &["id", "name", "jobid"]);
    catalog.add_relation("jobs", 100.0, &["id", "salary"]);
    let jobs = catalog.relation_id("jobs").unwrap();
    let jid = catalog.attr("jobs.id");
    catalog.add_index(jobs, vec![jid], true);
    let query = QueryBuilder::new(&catalog)
        .relation("persons")
        .relation("jobs")
        .join("persons.jobid", "jobs.id", 0.01)
        .filter("jobs.salary", 0.3) // salary > 50000: no FD
        .order_by(&["jobs.id", "persons.name"])
        .build();

    let trace = Trace::recording();
    let options = ExtractOptions {
        tested_selection_orders: true,
        ..ExtractOptions::default()
    };
    let ex = ofw::query::extract_traced(&catalog, &query, &options, &trace);
    println!("== extraction (§5.2) ==");
    println!();
    println!("produced interesting orders:");
    for o in ex.spec.produced() {
        println!("  {}", catalog.render_ordering(o.attrs()));
    }
    println!("tested-only interesting orders:");
    for o in ex.spec.tested() {
        println!("  {}", catalog.render_ordering(o.attrs()));
    }
    println!("FD sets:");
    for (i, s) in ex.spec.fd_sets().iter().enumerate() {
        println!("  F{i}: {:?}", s.fds());
    }
    println!();

    let fw = OrderingFramework::prepare_opts(
        &ex.spec,
        PruneConfig::default(),
        &PrepareOptions::default().trace(&trace),
    )
    .unwrap();
    println!("== FSMs (Figs. 11–12) ==");
    println!();
    println!("NFSM nodes: {}", fw.stats().nfsm_nodes);
    println!("DFSM states: {}", fw.stats().dfsm_states);
    // The equation id = jobid merges the permutation states: once it is
    // applied, a stream ordered by jobs.id is ordered by persons.jobid.
    let by_id = fw.produce(fw.resolve(&Ordering::new(vec![jid]).into()).unwrap());
    let joined = fw.infer(by_id, ex.join_fd[0]);
    let pjobid = catalog.attr("persons.jobid");
    let pname = catalog.attr("persons.name");
    for probe in [vec![jid], vec![pjobid], vec![jid, pname], vec![pjobid, jid]] {
        if let Some(h) = fw.resolve(&Ordering::new(probe.clone()).into()) {
            println!(
                "after id = jobid, scan(jobs.id) satisfies {}: {}",
                catalog.render_ordering(&probe),
                fw.satisfies(joined, h)
            );
        }
    }
    println!();

    let result = PlanGen::new(&catalog, &query, &ex, &fw).trace(&trace).run();
    println!(
        "== explain: persons ⋈ jobs, order by (jobs.id, persons.name) ({} subplans) ==",
        result.stats.plans
    );
    println!();
    let explain = result.explain(&catalog, &query, &ex, &fw);
    print!("{}", explain.text());
    println!();
    println!("as JSON: {}", explain.json());
    println!();
    println!("== optimizer phase spans (recording sink attached) ==");
    println!();
    print!("{}", trace.summary_tree());
    println!();
    println!(
        "phases ledger: {}",
        result
            .stats
            .phases
            .iter()
            .map(|p| p.name.as_str())
            .collect::<Vec<_>>()
            .join(" -> ")
    );
    println!(
        "decisions: kept={} dominated={} probes={} enforcers admitted={} won={}",
        result.stats.decisions.pruning.kept_total(),
        result.stats.decisions.pruning.dominated_total(),
        result.stats.decisions.probes.total(),
        result.stats.decisions.enforcers.admitted_total(),
        result.stats.decisions.enforcers.won_total(),
    );
}
