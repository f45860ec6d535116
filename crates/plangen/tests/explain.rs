//! EXPLAIN rendering: a golden test on the paper's running example
//! (§5: persons ⋈ jobs with an `order by (jobs.id, persons.name)`),
//! pinned byte-for-byte so the rendering contract — operator strings,
//! cost/row formatting, held-property annotations — cannot drift
//! silently. Plus invariants that hold for every arm: explain is a
//! pure view (identical plan table before and after) and the JSON
//! variant parses structurally. And a second golden, of the
//! oracle-free view over a hand-built arena holding every operator:
//! the one label table, pinned byte-for-byte.

#![forbid(unsafe_code)]

use ofw_catalog::Catalog;
use ofw_common::BitSet;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_plangen::plan::AggMark;
use ofw_plangen::{ExplicitOracle, PlanArena, PlanGen, PlanNode, PlanOp};
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

/// The oracle-free view over a hand-built arena holding every operator
/// variant, pinned byte-for-byte: the one label table of `PlanOp`, with
/// integral and fractional cost/row formatting and no held properties.
#[test]
fn oracle_free_view_labels_every_operator() {
    let mut c = Catalog::new();
    c.add_relation("r", 100.0, &["k", "v"]);
    c.add_relation("s", 50.0, &["k", "j"]);
    c.add_relation("t", 10.0, &["j"]);
    let r = c.relation_id("r").unwrap();
    let rk = c.attr("r.k");
    c.add_index(r, vec![rk], true);
    let q = QueryBuilder::new(&c)
        .relation("r")
        .relation("s")
        .relation("t")
        .join("r.k", "s.k", 0.02)
        .join("s.j", "t.j", 0.1)
        .build();
    let (sj, tj) = (c.attr("s.j"), c.attr("t.j"));

    let mut arena: PlanArena<()> = PlanArena::new();
    let mut cost = 0.0;
    let mut push = |op| {
        cost += 10.25;
        arena.push(PlanNode {
            op,
            mask: BitSet::new(),
            cost,
            card: 8.0,
            state: (),
            agg: AggMark::NONE,
            applied_fds: BitSet::new(),
        })
    };
    let (left, right) = (
        push(PlanOp::IndexScan { qrel: 0, index: 0 }),
        push(PlanOp::Scan { qrel: 1 }),
    );
    let merge = push(PlanOp::MergeJoin {
        left,
        right,
        edge: 0,
    });
    let left = push(PlanOp::Scan { qrel: 0 });
    let nl = push(PlanOp::NestedLoopJoin { left, right });
    let hash = push(PlanOp::HashJoin {
        left: merge,
        right: nl,
        edge: 0,
    });
    let partial = push(PlanOp::HashAgg {
        input: hash,
        key: vec![sj],
        partial: true,
    });
    let t = push(PlanOp::Scan { qrel: 2 });
    let input = push(PlanOp::GroupJoin {
        left: partial,
        right: t,
        edge: 1,
    });
    let input = push(PlanOp::StreamAgg {
        input,
        key: vec![tj],
        partial: false,
    });
    let input = push(PlanOp::HashGroup {
        input,
        key: vec![tj],
    });
    let input = push(PlanOp::PartialSort {
        input,
        key: vec![tj, rk],
        head: vec![tj],
    });
    let root = push(PlanOp::Sort {
        input,
        key: vec![rk, tj],
    });

    let expected = "\
Sort (r.k, t.j)  cost=133.25 rows=8
  PartialSort (t.j, r.k) head={t.j}  cost=123 rows=8
    HashGroup {t.j}  cost=112.75 rows=8
      StreamAgg {t.j}  cost=102.50 rows=8
        GroupJoin(s.j = t.j)  cost=92.25 rows=8
          HashAgg[partial] {s.j}  cost=71.75 rows=8
            HashJoin(r.k = s.k)  cost=61.50 rows=8
              MergeJoin(r.k = s.k)  cost=30.75 rows=8
                IndexScan(r on (r.k))  cost=10.25 rows=8
                Scan(s)  cost=20.50 rows=8
              NestedLoopJoin  cost=51.25 rows=8
                Scan(r)  cost=41 rows=8
                Scan(s)  cost=20.50 rows=8
          Scan(t)  cost=82 rows=8
";
    let explain = arena.explain(root, &c, &q);
    assert_eq!(explain.cost, 133.25);
    assert_eq!(explain.text(), expected);
}
