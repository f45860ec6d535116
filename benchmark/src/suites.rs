//! The six workloads: which inputs each generates and why.
//!
//! A workload is a frozen suite of *ops*: the query shapes never change,
//! so sizes stay bounded on any seed. `--seed` draws what may vary
//! without changing the amount of work: the order in which each plan
//! query numbers its relations, the attribute block of the preparation
//! specs, and every data value of the execution suites.

use crate::data::{self, Columns};
use crate::lock::{hash_columns, hash_query, hash_spec};
use crate::util::{mix_seed, ms_since, Hasher64, Rng};
use ofw_catalog::Catalog;
use ofw_core::{InputSpec, PreparedCache};
use ofw_query::Query;
use ofw_workload::{
    grouping_query, groupjoin_showcase_query, large_query, partialsort_showcase_query, prep_spec,
    q13_style_query, q8_query, random_query, star_agg_query, GroupingQueryConfig, LargeQueryConfig,
    PrepSpecConfig, RandomQueryConfig, StarAggConfig, Topology,
};
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PlanSmall,
    PlanRepeat,
    PlanLarge,
    PrepHeavy,
    ExecJoin,
    ExecAgg,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::PlanSmall,
        Workload::PlanRepeat,
        Workload::PlanLarge,
        Workload::PrepHeavy,
        Workload::ExecJoin,
        Workload::ExecAgg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanSmall => "plan_small",
            Workload::PlanRepeat => "plan_repeat",
            Workload::PlanLarge => "plan_large",
            Workload::PrepHeavy => "prep_heavy",
            Workload::ExecJoin => "exec_join",
            Workload::ExecAgg => "exec_agg",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub struct QueryCase {
    pub label: String,
    pub catalog: Catalog,
    pub query: Query,
}

pub struct PrepCase {
    pub label: String,
    pub spec: InputSpec,
}

pub struct ExecCase {
    pub case: QueryCase,
    /// Full-scale base data, what the timed ops execute on.
    pub data: Columns,
    /// The same generator at [`VERIFY_ROWS`] base rows, small enough
    /// for the naive evaluator.
    pub small: Columns,
}

pub enum Suite {
    /// Plan ops; with a cache, preparation goes through it.
    Plan {
        cases: Vec<QueryCase>,
        cache: Option<PreparedCache>,
    },
    Prep(Vec<PrepCase>),
    Exec(Vec<ExecCase>),
}

impl Suite {
    pub fn ops(&self) -> usize {
        match self {
            Suite::Plan { cases, .. } => cases.len(),
            Suite::Prep(cases) => cases.len(),
            Suite::Exec(cases) => cases.len(),
        }
    }

    pub fn label(&self, op: usize) -> &str {
        match self {
            Suite::Plan { cases, .. } => &cases[op].label,
            Suite::Prep(cases) => &cases[op].label,
            Suite::Exec(cases) => &cases[op].case.label,
        }
    }

    /// Full-scale base rows over the suite (0 for suites without data).
    pub fn base_rows(&self) -> usize {
        match self {
            Suite::Exec(cases) => cases.iter().map(|c| data::base_rows(&c.data)).sum(),
            _ => 0,
        }
    }

    /// Fingerprint of everything the suite generated, for `inputs.lock`.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Hasher64::default();
        match self {
            Suite::Plan { cases, .. } => {
                for c in cases {
                    hash_query(&mut h, &c.catalog, &c.query);
                }
            }
            Suite::Prep(cases) => cases.iter().for_each(|c| hash_spec(&mut h, &c.spec)),
            Suite::Exec(cases) => {
                for c in cases {
                    hash_query(&mut h, &c.case.catalog, &c.case.query);
                    hash_columns(&mut h, &c.data);
                    hash_columns(&mut h, &c.small);
                }
            }
        }
        h.finish()
    }
}

fn case(label: String, (catalog, query): (Catalog, Query)) -> QueryCase {
    QueryCase {
        label,
        catalog,
        query,
    }
}

/// The generator seed behind every frozen query shape. Reseeding the
/// generators per run was tried and dropped: one reseeded `plan_small`
/// suite peaked at 494 MiB and took over 4 s per pass where its
/// neighbours needed 5 MiB and 0.25 s, so across seeds the metrics
/// would measure the draw, not the code.
const SHAPE_SEED: u64 = 1;

/// The same query with its relations numbered in a seed-drawn order: an
/// isomorphic input that walks the DP's subsets in another order. This
/// is what `--seed` varies on the plan suites.
fn renumbered(case: QueryCase, rng: &mut Rng) -> QueryCase {
    let old = case.query;
    let mut order = old.relations.clone();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut query = Query::new();
    for rel in order {
        query.add_relation(&case.catalog, rel);
    }
    query.joins = old.joins;
    query.constants = old.constants;
    query.filters = old.filters;
    query.group_by = old.group_by;
    query.distinct = old.distinct;
    query.order_by = old.order_by;
    query.aggregates = old.aggregates;
    QueryCase { query, ..case }
}

fn renumber_all(cases: Vec<QueryCase>, seed: u64) -> Vec<QueryCase> {
    let mut rng = Rng::new(mix_seed(seed, 999));
    cases.into_iter().map(|c| renumbered(c, &mut rng)).collect()
}

/// The paper's §7 regime: many small queries, where the per-query fixed
/// costs (preparation, bound seeding) are a third of the time each.
/// `random_query` n = 5..10 × extra edges 0..2 × 4 seeds,
/// `grouping_query` n = 4..7 × 4, `star_agg_query` 2..4 dimensions × 3,
/// TPC-R Q8 and the Q13-style query: 99 queries.
fn plan_small_cases(seed: u64) -> Vec<QueryCase> {
    let mut cases = Vec::new();
    let mut next_seed = {
        let mut n = 0u64;
        move || {
            n += 1;
            mix_seed(SHAPE_SEED, n)
        }
    };
    for n in 5..=10 {
        for extra in 0..=2 {
            for k in 0..4 {
                cases.push(case(
                    format!("random-{n}-{extra}-{k}"),
                    random_query(&RandomQueryConfig {
                        num_relations: n,
                        extra_edges: extra,
                        seed: next_seed(),
                    }),
                ));
            }
        }
    }
    for n in 4..=7 {
        for k in 0..4 {
            cases.push(case(
                format!("grouping-{n}-{k}"),
                grouping_query(&GroupingQueryConfig {
                    num_relations: n,
                    extra_edges: 1,
                    seed: next_seed(),
                }),
            ));
        }
    }
    for d in 2..=4 {
        for k in 0..3 {
            cases.push(case(
                format!("star-agg-{d}-{k}"),
                star_agg_query(&StarAggConfig {
                    dimensions: d,
                    seed: next_seed(),
                }),
            ));
        }
    }
    cases.push(case("q8".into(), q8_query()));
    cases.push(case("q13-style".into(), q13_style_query()));
    renumber_all(cases, seed)
}

/// Large join graphs, where enumeration, Pareto pruning and oracle
/// probes are nearly all of the time.
const PLAN_LARGE: [(Topology, usize); 10] = [
    (Topology::Chain, 16),
    (Topology::Chain, 20),
    (Topology::Chain, 24),
    (Topology::Cycle, 12),
    (Topology::Cycle, 16),
    (Topology::Star, 9),
    (Topology::Star, 10),
    (Topology::Clique, 8),
    (Topology::Clique, 9),
    (Topology::Clique, 10),
];

fn plan_large_cases(seed: u64) -> Vec<QueryCase> {
    let cases = PLAN_LARGE
        .iter()
        .enumerate()
        .map(|(i, &(topology, n))| {
            case(
                format!("{}-{n}", topology.name()),
                large_query(&LargeQueryConfig {
                    topology,
                    num_relations: n,
                    seed: mix_seed(SHAPE_SEED, 100 + i as u64),
                }),
            )
        })
        .collect();
    renumber_all(cases, seed)
}

/// Preparation-stress specs: the only workload where `core` is all of
/// the time. The spec generator has no seed of its own; the run seed
/// moves the attribute block, which changes every attribute id and
/// none of the structure.
pub const PREP_FAMILIES: [usize; 5] = [10, 20, 30, 40, 50];

fn prep_cases(seed: u64) -> Vec<PrepCase> {
    let attr_base = (mix_seed(seed, 200) % 1024) as u32 * 64;
    PREP_FAMILIES
        .iter()
        .map(|&f| PrepCase {
            label: format!("fam-{f}"),
            spec: prep_spec(&PrepSpecConfig::with_families(f).shifted(attr_base)),
        })
        .collect()
}

/// Which generator an execution op's query comes from. The generator
/// seeds are frozen: the shapes were screened once (every query returns
/// rows, Σ operator output rows ≤ 8 × base rows, serial execution in
/// 15–250 ms at 200 000 base rows, every operator class does real work
/// somewhere in its suite) and an unscreened shape can produce tens of
/// millions of rows.
/// TPC-R Q8 is left out: at this scale its `region` table is a single
/// row, which the constant predicate on `r_name` (selectivity 1/5)
/// keeps on one seed in five only, so on most seeds it returns nothing.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Random { n: usize, extra: usize, seed: u64 },
    Grouping { n: usize, extra: usize, seed: u64 },
    StarAgg { dimensions: usize, seed: u64 },
    GroupJoinShowcase,
    PartialSortShowcase,
    Q13Style,
}

impl Shape {
    fn label(&self) -> String {
        match *self {
            Shape::Random { n, extra, seed } => format!("random-{n}-{extra}-s{seed}"),
            Shape::Grouping { n, extra, seed } => format!("grouping-{n}-{extra}-s{seed}"),
            Shape::StarAgg { dimensions, seed } => format!("star-agg-{dimensions}-s{seed}"),
            Shape::GroupJoinShowcase => "groupjoin-showcase".into(),
            Shape::PartialSortShowcase => "partialsort-showcase".into(),
            Shape::Q13Style => "q13-style".into(),
        }
    }

    pub fn build(&self) -> (Catalog, Query) {
        match *self {
            Shape::Random { n, extra, seed } => random_query(&RandomQueryConfig {
                num_relations: n,
                extra_edges: extra,
                seed,
            }),
            Shape::Grouping { n, extra, seed } => grouping_query(&GroupingQueryConfig {
                num_relations: n,
                extra_edges: extra,
                seed,
            }),
            Shape::StarAgg { dimensions, seed } => {
                star_agg_query(&StarAggConfig { dimensions, seed })
            }
            Shape::GroupJoinShowcase => groupjoin_showcase_query(),
            Shape::PartialSortShowcase => partialsort_showcase_query(),
            Shape::Q13Style => q13_style_query(),
        }
    }
}

/// Base rows per execution op at full scale, and at verification scale.
/// At 100 000 rows an op takes 5–70 ms and a pass a third of a second,
/// so a 10 s window gives every op some 25 samples to take its minimum
/// from; at 200 000 rows it gave 10 and the run-to-run spread was wider.
pub const FULL_ROWS: usize = 100_000;
pub const VERIFY_ROWS: usize = 2_000;

/// Aggregate-free joins: scans, index scans, hash/merge/nested-loop
/// joins and sorts do the work.
pub const EXEC_JOIN: &[Shape] = &[
    Shape::Random {
        n: 3,
        extra: 0,
        seed: 15,
    }, // hash + merge join, index scan, sort
    Shape::Random {
        n: 3,
        extra: 0,
        seed: 44,
    }, // nested-loop join over half the rows
    Shape::Random {
        n: 3,
        extra: 0,
        seed: 18,
    }, // sort
    Shape::Random {
        n: 3,
        extra: 0,
        seed: 46,
    }, // index scan feeding a merge join
    Shape::Random {
        n: 4,
        extra: 0,
        seed: 18,
    }, // every join kind but nested-loop
    Shape::Random {
        n: 4,
        extra: 0,
        seed: 44,
    }, // nested-loop join
    Shape::Random {
        n: 4,
        extra: 1,
        seed: 47,
    }, // a cycle: one extra predicate
    Shape::Random {
        n: 4,
        extra: 2,
        seed: 44,
    }, // two extra predicates
    Shape::Random {
        n: 5,
        extra: 0,
        seed: 13,
    }, // index scan of nearly every row
    Shape::Random {
        n: 5,
        extra: 1,
        seed: 3,
    },
    Shape::Random {
        n: 6,
        extra: 1,
        seed: 13,
    }, // six relations, merge join
];

/// Aggregating queries: hash/stream aggregation, group-joins, hash
/// grouping and partial sorts carry the time.
pub const EXEC_AGG: &[Shape] = &[
    Shape::StarAgg {
        dimensions: 2,
        seed: 20,
    }, // eager hash aggregate of the fact table
    Shape::StarAgg {
        dimensions: 2,
        seed: 23,
    }, // stream aggregate + partial sort
    Shape::StarAgg {
        dimensions: 3,
        seed: 3,
    }, // group-join over a hash aggregate
    Shape::StarAgg {
        dimensions: 3,
        seed: 11,
    }, // partial sort a quarter of the time
    Shape::StarAgg {
        dimensions: 4,
        seed: 13,
    }, // hash aggregate dominating
    Shape::Grouping {
        n: 3,
        extra: 0,
        seed: 5,
    }, // hash group feeding a stream aggregate
    Shape::Grouping {
        n: 4,
        extra: 0,
        seed: 8,
    }, // the same over a four-way join
    Shape::Grouping {
        n: 3,
        extra: 0,
        seed: 4,
    }, // grouping that is also ordered
    Shape::GroupJoinShowcase,
    Shape::PartialSortShowcase,
    Shape::Q13Style,
];

/// One execution op: the shape's query with full-scale and
/// verification-scale data drawn from `seed`.
#[cfg(test)]
pub fn exec_case(shape: &Shape, full_rows: usize, seed: u64, salt: u64) -> ExecCase {
    with_data(shape.label(), shape.build(), full_rows, seed, salt)
}

fn with_data(
    label: String,
    (catalog, query): (Catalog, Query),
    full_rows: usize,
    seed: u64,
    salt: u64,
) -> ExecCase {
    let gen = |rows: usize, salt: u64| {
        let scale = data::scale_for(&catalog, &query, rows);
        data::generate(&catalog, &query, scale, mix_seed(seed, salt))
    };
    let (data, small) = (gen(full_rows, salt), gen(VERIFY_ROWS, salt ^ 0x5A5A));
    ExecCase {
        case: QueryCase {
            label,
            catalog,
            query,
        },
        data,
        small,
    }
}

fn exec_suite(shapes: &[Shape], seed: u64, salt: u64) -> Built {
    let start = Instant::now();
    let queries: Vec<_> = shapes.iter().map(|s| (s.label(), s.build())).collect();
    let gen_queries_ms = ms_since(start);
    let start = Instant::now();
    let cases = queries
        .into_iter()
        .enumerate()
        .map(|(i, (label, q))| with_data(label, q, FULL_ROWS, seed, salt + i as u64))
        .collect();
    Built {
        suite: Suite::Exec(cases),
        gen_queries_ms,
        gen_data_ms: ms_since(start),
    }
}

/// A generated suite and how long its two generation steps took.
pub struct Built {
    pub suite: Suite,
    pub gen_queries_ms: f64,
    pub gen_data_ms: f64,
}

/// Generates the workload's inputs from the run seed.
pub fn build(workload: Workload, seed: u64) -> Built {
    let start = Instant::now();
    let plan = |cases, cache| Built {
        suite: Suite::Plan { cases, cache },
        gen_queries_ms: ms_since(start),
        gen_data_ms: 0.0,
    };
    match workload {
        Workload::PlanSmall => plan(plan_small_cases(seed), None),
        // The same suite as `plan_small`, but preparation goes through
        // one shared cache (35 distinct shapes behind the 99 queries):
        // canonicalize + look up instead of building automata. A faster
        // NFSM construction must show *no change* here.
        Workload::PlanRepeat => plan(plan_small_cases(seed), Some(PreparedCache::new())),
        Workload::PlanLarge => plan(plan_large_cases(seed), None),
        Workload::PrepHeavy => Built {
            suite: Suite::Prep(prep_cases(seed)),
            gen_queries_ms: ms_since(start),
            gen_data_ms: 0.0,
        },
        Workload::ExecJoin => exec_suite(EXEC_JOIN, seed, 300),
        Workload::ExecAgg => exec_suite(EXEC_AGG, seed, 400),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_are_a_function_of_the_seed() {
        for w in [
            Workload::PlanSmall,
            Workload::PlanLarge,
            Workload::PrepHeavy,
        ] {
            let a = build(w, 1).suite;
            assert_eq!(a.fingerprint(), build(w, 1).suite.fingerprint(), "{w:?}");
            assert_ne!(a.fingerprint(), build(w, 2).suite.fingerprint(), "{w:?}");
        }
        assert_eq!(build(Workload::PlanSmall, 1).suite.ops(), 99);
        assert_eq!(build(Workload::PlanLarge, 1).suite.ops(), 10);
        assert_eq!(
            build(Workload::PrepHeavy, 1).suite.ops(),
            PREP_FAMILIES.len()
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("plan_tiny"), None);
    }

    #[test]
    fn execution_shapes_are_frozen_but_their_data_is_seeded() {
        let shape = Shape::Random {
            n: 3,
            extra: 0,
            seed: 5,
        };
        let a = exec_case(&shape, 5_000, 1, 7);
        let b = exec_case(&shape, 5_000, 2, 7);
        let fp = |c: &ExecCase| {
            let mut h = Hasher64::default();
            hash_query(&mut h, &c.case.catalog, &c.case.query);
            h.finish()
        };
        assert_eq!(fp(&a), fp(&b), "same query on every seed");
        assert_ne!(a.data, b.data, "other values");
        assert_eq!(a.data, exec_case(&shape, 5_000, 1, 7).data);
        let small = data::base_rows(&a.small);
        assert!(
            small <= VERIFY_ROWS + a.case.query.num_relations(),
            "{small}"
        );
    }
}
