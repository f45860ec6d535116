//! The paper's §6.1 "simple query":
//!
//! ```sql
//! select * from persons, jobs
//! where persons.jobid = jobs.id and jobs.salary > 50000
//! order by jobs.id, persons.name
//! ```
//!
//! Shows the extraction step (§5.2), the NFSM/DFSM of Figs. 11–12, and
//! a full plan-generation run with the resulting plan.
//!
//! Run with: `cargo run --example simple_query`

use ofw::catalog::Catalog;
use ofw::core::{OrderOracle, OrderingFramework, PruneConfig};
use ofw::plangen::PlanGen;
use ofw::query::extract::ExtractOptions;
use ofw::query::QueryBuilder;

fn main() {
    // Schema + index on jobs.id (as the paper assumes for (id) ∈ O_P).
    let mut catalog = Catalog::new();
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

    // §5.2: determine interesting orders + FD sets.
    let ex = ofw::query::extract(
        &catalog,
        &query,
        &ExtractOptions {
            tested_selection_orders: true,
            ..ExtractOptions::default()
        },
    );
    println!("== extraction (paper §6.1) ==");
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

    // Preparation: Figs. 11–12.
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    println!("== FSMs (Figs. 11–12) ==");
    println!("NFSM nodes: {}", fw.stats().nfsm_nodes);
    println!("DFSM states: {}", fw.stats().dfsm_states);
    // The equation id = jobid merges the permutation states: when one
    // node is active all orderings over {id, jobid, name} prefixes hold.
    let by_id = ofw::core::Ordering::new(vec![jid]).into();
    let s = fw.produce(fw.resolve(&by_id).unwrap());
    let s = fw.infer(s, ex.join_fd[0]);
    let pjobid = catalog.attr("persons.jobid");
    let pname = catalog.attr("persons.name");
    for probe in [vec![jid], vec![pjobid], vec![jid, pname], vec![pjobid, jid]] {
        if let Some(h) = fw.resolve(&ofw::core::Ordering::new(probe.clone()).into()) {
            println!(
                "  after id=jobid, scan(jobs.id) satisfies {}: {}",
                catalog.render_ordering(&probe),
                fw.satisfies(s, h)
            );
        }
    }
    println!();

    // Full plan generation.
    let result = PlanGen::new(&catalog, &query, &ex, &fw).run();
    println!(
        "== winning plan (cost {:.0}, {} subplans explored) ==",
        result.cost, result.stats.plans
    );
    let names = |q: usize| catalog.relation(query.relations[q]).name.clone();
    print!("{}", result.arena.render(result.best, &names));
}
