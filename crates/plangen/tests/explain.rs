//! EXPLAIN rendering: a golden test on the paper's running example
//! (§5: persons ⋈ jobs with an `order by (jobs.id, persons.name)`),
//! pinned byte-for-byte so the rendering contract — operator strings,
//! cost/row formatting, held-property annotations — cannot drift
//! silently. Plus invariants that hold for every arm: explain is a
//! pure view (identical plan table before and after) and the JSON
//! variant parses structurally.

use ofw_catalog::Catalog;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_plangen::{ExplicitOracle, PlanGen};
use ofw_query::extract::ExtractOptions;
use ofw_query::QueryBuilder;

fn persons_jobs() -> (Catalog, ofw_query::Query) {
    let mut c = Catalog::new();
    c.add_relation("persons", 10_000.0, &["id", "name", "jobid"]);
    c.add_relation("jobs", 100.0, &["id", "salary"]);
    let jobs = c.relation_id("jobs").unwrap();
    let jid = c.attr("jobs.id");
    c.add_index(jobs, vec![jid], true);
    let q = QueryBuilder::new(&c)
        .relation("persons")
        .relation("jobs")
        .join("persons.jobid", "jobs.id", 0.01)
        .order_by(&["jobs.id", "persons.name"])
        .build();
    (c, q)
}

#[test]
fn explain_text_is_stable_on_the_section5_query() {
    let (c, q) = persons_jobs();
    let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(&c, &q, &ex, &fw).run();
    let explain = r.explain(&c, &q, &ex, &fw);
    assert_eq!(explain.cost, r.cost);
    // Note the root Sort's annotations: it physically produces
    // `(jobs.id, persons.name)`, which satisfies the prefix `(jobs.id)`
    // — and the join's FD `persons.jobid = jobs.id` lets the framework
    // infer `(persons.jobid)` too, a fact no physical operator produced.
    let expected = "\
Sort (jobs.id, persons.name)  cost=154077.12 rows=10000  [(persons.jobid), (jobs.id), (jobs.id, persons.name)]
  NestedLoopJoin  cost=21200 rows=10000
    Scan(jobs)  cost=100 rows=100
    Scan(persons)  cost=10000 rows=10000
";
    assert_eq!(explain.text(), expected);
}

/// The explicit ground-truth arm must annotate the same plan with the
/// same held properties as the DFSM arm (both probe the same logical
/// facts through different machinery).
#[test]
fn explain_agrees_across_oracle_arms() {
    let (c, q) = persons_jobs();
    let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let truth = ExplicitOracle::prepare(&ex.spec);
    let dfsm = PlanGen::new(&c, &q, &ex, &fw).run();
    let explicit = PlanGen::new(&c, &q, &ex, &truth).run();
    assert_eq!(
        dfsm.explain(&c, &q, &ex, &fw).text(),
        explicit.explain(&c, &q, &ex, &truth).text()
    );
}

#[test]
fn explain_json_has_the_expected_shape() {
    let (c, q) = persons_jobs();
    let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
    let r = PlanGen::new(&c, &q, &ex, &fw).run();
    let json = r.explain(&c, &q, &ex, &fw).json();
    assert!(json.starts_with("{\"cost\":"));
    assert!(json.contains("\"op\":\""));
    assert!(json.contains("\"properties\":["));
    assert!(json.contains("\"children\":["));
    assert!(json.ends_with("]}}"));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON: {json}"
    );
}
