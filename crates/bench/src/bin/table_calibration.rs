//! C1 — the cost-model calibration table: micro-plans that isolate one
//! executor operator each, run serially over generated columns, with
//! the measured nanoseconds per abstract cost unit of the *whole*
//! micro-plan (computed from the actual cardinalities, as the cost
//! model would with perfect estimates). A perfectly calibrated model
//! would show one constant down the `ns/unit` column.
//!
//! Usage: `table_calibration [rows]` (default 500000): base rows of the
//! single-relation micro-plans. The join micro-plans run on `rows / 2`
//! rows per side and the nested-loop one, whose work is quadratic, on
//! `4 √rows` rows per side. Every executor kernel has a row: the scans
//! (`IndexScan` reads a clustered index on `r0.g` under a filter that
//! keeps about half the rows), the full and partial sorts, both
//! aggregates and the hash grouping, and the four joins — plus
//! `HashJoinSparse`, the hash join on unique build keys probed by keys
//! from twice their domain (about half the probe rows miss, and bucket
//! lengths are mixed), and `JoinChain`, two hash joins over three
//! relations of `rows / 2` rows, whose inner join hands the outer one
//! row ids, never columns. A row panics on any execution error, so
//! running the binary is also a check.

#![forbid(unsafe_code)]

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use ofw_catalog::Catalog;
use ofw_exec::execute_serial;
use ofw_plangen::plan::AggMark;
use ofw_plangen::{cost, PlanArena, PlanId, PlanNode, PlanOp};
use ofw_query::{AggCall, AggFunc, FilterPred, Query, QueryBuilder};
use ofw_workload::{generate_columns, DataConfig};

const USAGE: &str = "table_calibration [rows]";

/// Exactly `rows` generated rows per relation of `query`.
fn columns(catalog: &Catalog, query: &Query, rows: usize, seed: u64) -> Vec<Vec<Vec<i64>>> {
    generate_columns(
        catalog,
        query,
        &DataConfig {
            scale: 1.0,
            min_rows: rows,
            max_rows: rows,
            domain_cap: None,
            seed,
        },
    )
}

/// A single-relation grouping fixture for the calibration micro-plans.
fn calib_single(rows: usize, seed: u64) -> (Catalog, Query, Vec<Vec<Vec<i64>>>) {
    let mut catalog = Catalog::new();
    let rel = catalog.add_relation("r0", rows as f64, &["g", "v"]);
    catalog.set_distinct_values(catalog.attr("r0.g"), (rows as f64 / 64.0).max(2.0));
    let mut query = Query::new();
    query.add_relation(&catalog, rel);
    query.group_by = vec![catalog.attr("r0.g")];
    query.aggregates = vec![
        AggCall {
            func: AggFunc::Sum,
            input: Some(catalog.attr("r0.v")),
        },
        AggCall {
            func: AggFunc::Count,
            input: None,
        },
    ];
    let data = columns(&catalog, &query, rows, seed);
    (catalog, query, data)
}

/// `r0(g, v, f)` with a clustered index on `g` (`rows / 64` distinct
/// values) and the filter `f <= 1` over four values of `f`.
fn calib_indexed(rows: usize, seed: u64) -> (Catalog, Query, Vec<Vec<Vec<i64>>>) {
    let mut catalog = Catalog::new();
    let rel = catalog.add_relation("r0", rows as f64, &["g", "v", "f"]);
    let (g, f) = (catalog.attr("r0.g"), catalog.attr("r0.f"));
    catalog.set_distinct_values(g, (rows as f64 / 64.0).max(2.0));
    catalog.set_distinct_values(f, 4.0);
    catalog.add_index(rel, vec![g], true);
    let mut query = Query::new();
    query.add_relation(&catalog, rel);
    query.filters.push(FilterPred {
        attr: f,
        selectivity: 0.5,
    });
    let data = columns(&catalog, &query, rows, seed);
    (catalog, query, data)
}

/// Distinct values of a column.
fn distinct(col: &[i64]) -> usize {
    col.iter().collect::<HashSet<_>>().len()
}

/// Rows of the equi-join of two key columns.
fn equi_join_rows(left: &[i64], right: &[i64]) -> u64 {
    let mut counts: HashMap<i64, u64> = HashMap::new();
    for &k in right {
        *counts.entry(k).or_default() += 1;
    }
    left.iter()
        .map(|k| counts.get(k).copied().unwrap_or(0))
        .sum()
}

/// A two-relation equi-join fixture (`r0.k = r1.k`), keys shaped so the
/// join output is a small multiple of the input.
fn calib_join(rows: usize, seed: u64) -> (Catalog, Query, Vec<Vec<Vec<i64>>>) {
    let mut catalog = Catalog::new();
    catalog.add_relation("r0", rows as f64, &["a", "k"]);
    catalog.add_relation("r1", rows as f64, &["k2", "b"]);
    let distinct = (rows as f64 / 4.0).max(2.0);
    catalog.set_distinct_values(catalog.attr("r0.k"), distinct);
    catalog.set_distinct_values(catalog.attr("r1.k2"), distinct);
    let query = QueryBuilder::new(&catalog)
        .relation("r0")
        .relation("r1")
        .join("r0.k", "r1.k2", 1.0 / distinct)
        .build();
    let data = columns(&catalog, &query, rows, seed);
    (catalog, query, data)
}

/// [`calib_join`]'s data with unique build keys (`r1.k2`), probed by
/// keys drawn from twice their domain: about half the probe rows miss,
/// and the build side's buckets hold mixed numbers of rows.
fn sparse_keys(data: &[Vec<Vec<i64>>]) -> Vec<Vec<Vec<i64>>> {
    let mut data = data.to_vec();
    let domain = 2 * data[1][0].len() as u64;
    data[1][0] = (0..data[1][0].len() as i64).collect();
    data[0][1] = (0..data[0][1].len() as u64)
        .map(|r| ((r.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % domain) as i64)
        .collect();
    data
}

/// Three relations chained by two equi-joins (`r0.k = r1.k2`,
/// `r1.m = r2.m2`), keys shaped like [`calib_join`]'s.
fn calib_chain(rows: usize, seed: u64) -> (Catalog, Query, Vec<Vec<Vec<i64>>>) {
    let mut catalog = Catalog::new();
    catalog.add_relation("r0", rows as f64, &["a", "k"]);
    catalog.add_relation("r1", rows as f64, &["k2", "b", "m"]);
    catalog.add_relation("r2", rows as f64, &["m2", "c"]);
    let distinct = (rows as f64 / 4.0).max(2.0);
    for attr in ["r0.k", "r1.k2", "r1.m", "r2.m2"] {
        catalog.set_distinct_values(catalog.attr(attr), distinct);
    }
    let query = QueryBuilder::new(&catalog)
        .relation("r0")
        .relation("r1")
        .relation("r2")
        .join("r0.k", "r1.k2", 1.0 / distinct)
        .join("r1.m", "r2.m2", 1.0 / distinct)
        .build();
    let data = columns(&catalog, &query, rows, seed);
    (catalog, query, data)
}

/// Builds a tiny hand-rolled arena: each closure gets the ids pushed so
/// far and returns the next operator.
#[allow(clippy::type_complexity)]
fn micro_plan(query: &Query, ops: &[&dyn Fn(&[PlanId]) -> PlanOp]) -> (PlanArena<()>, PlanId) {
    let mut arena: PlanArena<()> = PlanArena::new();
    let mut ids: Vec<PlanId> = Vec::new();
    for op in ops {
        let op = op(&ids);
        let mask = match &op {
            PlanOp::Scan { qrel } | PlanOp::IndexScan { qrel, .. } => query.relation_set(*qrel),
            PlanOp::HashJoin { left, right, .. } => {
                let mut mask = arena.node(*left).mask.clone();
                mask.union_with(&arena.node(*right).mask);
                mask
            }
            _ => query.all_relations_set(),
        };
        ids.push(arena.push(PlanNode {
            op,
            mask,
            cost: 0.0,
            card: 0.0,
            state: (),
            agg: AggMark::NONE,
            applied_fds: Default::default(),
        }));
    }
    let root = *ids.last().unwrap();
    (arena, root)
}

/// One calibration row: execute the micro-plan serially and print the
/// measured wall-clock against its abstract cost units.
fn calibration_row(
    op_name: &str,
    catalog: &Catalog,
    query: &Query,
    data: &[Vec<Vec<i64>>],
    arena: &PlanArena<()>,
    root: PlanId,
    units: &dyn Fn(u64) -> f64,
) {
    let rows_in: usize = data.iter().map(|cols| cols[0].len()).sum();
    let start = Instant::now();
    let (out, stats) = execute_serial(arena, root, catalog, query, data)
        .unwrap_or_else(|e| panic!("calibration {op_name}: {e}"));
    let secs = start.elapsed().as_secs_f64();
    let cost_units = units(out.num_rows() as u64);
    let processed: u64 = stats.ops.values().map(|s| s.rows).sum();
    println!(
        "{:<14} {:>9} {:>9} | {:>12.0} {:>9.2} | {:>7.1}M {:>8.1}",
        op_name,
        rows_in,
        out.num_rows(),
        cost_units,
        secs * 1e3,
        processed as f64 / secs / 1e6,
        secs * 1e9 / cost_units,
    );
}

fn main() {
    let n = ofw_bench::count_arg(1, 500_000, 1, USAGE);
    println!("Cost-model calibration ({n} base rows):");
    println!(
        "{:<14} {:>9} {:>9} | {:>12} {:>9} | {:>8} {:>8}",
        "operator", "rows in", "rows out", "cost units", "exec ms", "Mrows/s", "ns/unit"
    );
    let (catalog, query, data) = calib_single(n, 7);
    let key = query.group_by.clone();
    let sort_key = vec![key[0], catalog.attr("r0.v")];
    let groups = distinct(&data[0][0]) as f64;
    let nf = n as f64;
    let scan: &dyn Fn(&[PlanId]) -> PlanOp = &|_| PlanOp::Scan { qrel: 0 };
    for (name, ops, units) in [
        (
            "Scan",
            vec![scan],
            Box::new(move |_out| cost::scan(nf)) as Box<dyn Fn(u64) -> f64>,
        ),
        (
            "Sort",
            vec![scan, &|ids: &[PlanId]| PlanOp::Sort {
                input: ids[0],
                key: key.clone(),
            }],
            Box::new(move |_out| cost::scan(nf) + cost::sort(nf)),
        ),
        (
            "HashAgg",
            vec![scan, &|ids: &[PlanId]| PlanOp::HashAgg {
                input: ids[0],
                key: key.clone(),
                partial: false,
            }],
            Box::new(move |_out| cost::scan(nf) + cost::hash_aggregate(nf)),
        ),
        (
            "HashGroup",
            vec![scan, &|ids: &[PlanId]| PlanOp::HashGroup {
                input: ids[0],
                key: key.clone(),
            }],
            Box::new(move |_out| cost::scan(nf) + cost::hash_group(nf)),
        ),
        (
            "StreamAgg",
            vec![
                scan,
                &|ids: &[PlanId]| PlanOp::Sort {
                    input: ids[0],
                    key: key.clone(),
                },
                &|ids: &[PlanId]| PlanOp::StreamAgg {
                    input: ids[1],
                    key: key.clone(),
                    partial: false,
                },
            ],
            Box::new(move |_out| cost::scan(nf) + cost::sort(nf) + cost::streaming_aggregate(nf)),
        ),
        (
            "PartialSort",
            vec![
                scan,
                &|ids: &[PlanId]| PlanOp::HashGroup {
                    input: ids[0],
                    key: key.clone(),
                },
                &|ids: &[PlanId]| PlanOp::PartialSort {
                    input: ids[1],
                    key: sort_key.clone(),
                    head: key.clone(),
                },
            ],
            Box::new(move |_out| {
                cost::scan(nf) + cost::hash_group(nf) + cost::partial_sort(nf, groups)
            }),
        ),
    ] {
        let (arena, root) = micro_plan(&query, &ops);
        calibration_row(name, &catalog, &query, &data, &arena, root, &units);
    }

    let (catalog, query, data) = calib_indexed(n, 10);
    let (arena, root) = micro_plan(&query, &[&|_| PlanOp::IndexScan { qrel: 0, index: 0 }]);
    let index_units = move |_out: u64| cost::index_scan(nf, true);
    calibration_row(
        "IndexScan",
        &catalog,
        &query,
        &data,
        &arena,
        root,
        &index_units,
    );

    let join_rows = (n / 2).max(1);
    let jn = join_rows as f64;
    let (catalog, query, data) = calib_join(join_rows, 8);
    let join_key = vec![catalog.attr("r0.k")];
    let build_key = vec![catalog.attr("r1.k2")];
    let sparse = sparse_keys(&data);
    let scan1: &dyn Fn(&[PlanId]) -> PlanOp = &|_| PlanOp::Scan { qrel: 1 };
    let hash_join: &dyn Fn(&[PlanId]) -> PlanOp = &|ids| PlanOp::HashJoin {
        left: ids[0],
        right: ids[1],
        edge: 0,
    };
    let hash_units = move |out: u64| 2.0 * cost::scan(jn) + cost::hash_join(jn, jn, out as f64);
    for (name, data, ops, units) in [
        (
            "HashJoin",
            &data,
            vec![scan, scan1, hash_join],
            Box::new(hash_units) as Box<dyn Fn(u64) -> f64>,
        ),
        (
            "HashJoinSparse",
            &sparse,
            vec![scan, scan1, hash_join],
            Box::new(hash_units),
        ),
        (
            "MergeJoin",
            &data,
            vec![
                scan,
                scan1,
                &|ids: &[PlanId]| PlanOp::Sort {
                    input: ids[0],
                    key: join_key.clone(),
                },
                &|ids: &[PlanId]| PlanOp::Sort {
                    input: ids[1],
                    key: build_key.clone(),
                },
                &|ids: &[PlanId]| PlanOp::MergeJoin {
                    left: ids[2],
                    right: ids[3],
                    edge: 0,
                },
            ],
            Box::new(move |out: u64| {
                2.0 * (cost::scan(jn) + cost::sort(jn)) + cost::merge_join(jn, jn, out as f64)
            }),
        ),
    ] {
        let (arena, root) = micro_plan(&query, &ops);
        calibration_row(name, &catalog, &query, data, &arena, root, &units);
    }
    {
        let (catalog, query, data) = calib_chain(join_rows, 11);
        let inner = equi_join_rows(&data[0][1], &data[1][0]) as f64;
        let scan2: &dyn Fn(&[PlanId]) -> PlanOp = &|_| PlanOp::Scan { qrel: 2 };
        let (arena, root) = micro_plan(
            &query,
            &[
                scan,
                scan1,
                &|ids: &[PlanId]| PlanOp::HashJoin {
                    left: ids[0],
                    right: ids[1],
                    edge: 0,
                },
                scan2,
                &|ids: &[PlanId]| PlanOp::HashJoin {
                    left: ids[2],
                    right: ids[3],
                    edge: 1,
                },
            ],
        );
        let chain_units = move |out: u64| {
            3.0 * cost::scan(jn)
                + cost::hash_join(jn, jn, inner)
                + cost::hash_join(inner, jn, out as f64)
        };
        calibration_row(
            "JoinChain",
            &catalog,
            &query,
            &data,
            &arena,
            root,
            &chain_units,
        );
    }
    // The group-join: `count(*)` and `sum(r1.b)` per `r0.k` over a probe
    // side sorted on the key; priced at the join's own cardinality.
    let mut query = query;
    query.group_by = join_key.clone();
    query.aggregates = vec![
        AggCall {
            func: AggFunc::Count,
            input: None,
        },
        AggCall {
            func: AggFunc::Sum,
            input: Some(catalog.attr("r1.b")),
        },
    ];
    let joined = equi_join_rows(&data[0][1], &data[1][0]) as f64;
    let (arena, root) = micro_plan(
        &query,
        &[
            scan,
            scan1,
            &|ids: &[PlanId]| PlanOp::Sort {
                input: ids[0],
                key: join_key.clone(),
            },
            &|ids: &[PlanId]| PlanOp::GroupJoin {
                left: ids[2],
                right: ids[1],
                edge: 0,
            },
        ],
    );
    let gj_units =
        move |_out: u64| 2.0 * cost::scan(jn) + cost::sort(jn) + cost::group_join(jn, jn, joined);
    calibration_row(
        "GroupJoin",
        &catalog,
        &query,
        &data,
        &arena,
        root,
        &gj_units,
    );

    let nl_rows = (4.0 * nf.sqrt()) as usize;
    let nl = nl_rows as f64;
    let (catalog, query, data) = calib_join(nl_rows, 9);
    let (arena, root) = micro_plan(
        &query,
        &[scan, scan1, &|ids: &[PlanId]| PlanOp::NestedLoopJoin {
            left: ids[0],
            right: ids[1],
        }],
    );
    let nl_units =
        move |out: u64| 2.0 * cost::scan(nl) + cost::nested_loop_join(nl, nl, out as f64);
    calibration_row(
        "NestedLoop",
        &catalog,
        &query,
        &data,
        &arena,
        root,
        &nl_units,
    );
    println!();
    println!("cost units = abstract model cost of the whole micro-plan at the *actual*");
    println!("cardinalities; ns/unit = measured serial wall-clock per unit — a flat");
    println!("column means the model's currency converts uniformly across operators.");
}
