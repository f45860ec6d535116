//! # ofw-bench — the experiment harness
//!
//! One reusable function per paper experiment; the `src/bin` binaries
//! print the corresponding table and the Criterion benches in `benches/`
//! time the hot paths. Experiment index (see DESIGN.md):
//!
//! | id | paper artifact | binary | function |
//! |----|----------------|--------|----------|
//! | E5 | §6.2 preparation table | `table_prep_q8` | [`prep_q8`] |
//! | E6 | §7 Q8 plan-generation table | `table_q8_plangen` | [`q8_plangen`] |
//! | E7 | Fig. 13 join-graph sweep | `table_fig13` | [`sweep_cell`] |
//! | E8 | Fig. 14 memory table | `table_fig14` | [`sweep_cell`] |
//! | A1 | pruning ablation | `table_ablation_pruning` | [`prep_q8_with`] |
//! | G1 | grouping workload sweep (VLDB'04 extension) | `table_grouping` | [`grouping_cell`] |
//! | P1 | thread-scaling sweep (parallel DP) | `table_parallel` | [`parallel_cell`] |
//! | GJ1 | aggregation-placement sweep (group-join + eager push-down) | `table_groupjoin` | [`groupjoin_cell`] |
//! | PS1 | partial-sort sweep (head/tail properties, `GROUP BY k ORDER BY k`) | `table_partialsort` | [`partialsort_cell`] |
//! | H1 | enumerator sweep (DPhyp vs DPsize + budgeted linearized fallback) | `table_hypergraph` | [`hypergraph_cell`] |
//! | TR1 | observability overhead (disabled vs recording trace sink) | `table_trace` | [`trace_cell`] |
//!
//! Every table binary also emits its rows as machine-readable
//! `BENCH_<name>.json` (see [`json`]) next to the stdout table, so the
//! perf trajectory can be tracked across commits —
//! `scripts/bench_trend.py` compares the smoke runs against the
//! baselines committed under `baselines/` and fails CI on large
//! plan-time regressions.

/// Process-global counting allocator: every table binary and Criterion
/// bench linking this crate counts allocations, so [`json::BenchSink`]
/// can stamp each row with an `allocs` column (allocation-pressure
/// delta since the previous row) for the trend gate.
#[global_allocator]
static ALLOC: ofw_common::alloc::CountingAlloc = ofw_common::alloc::CountingAlloc;

use ofw_catalog::Catalog;
use ofw_core::{OrderingFramework, PrepStats, PruneConfig};
use ofw_plangen::{ExplicitOracle, OrderOracle, PlanGen, PlanGenResult, PlanGenStats};
use ofw_query::extract::ExtractOptions;
use ofw_query::{ExtractedQuery, Query};
use ofw_simmen::SimmenFramework;
use ofw_workload::{
    grouping_query, q8_query, random_query, star_agg_query, GroupingQueryConfig, RandomQueryConfig,
    StarAggConfig,
};
use std::time::{Duration, Instant};

pub mod hypergraph;
pub mod json;
pub mod parallel;
pub mod trace;

pub use hypergraph::{hypergraph_cell, hypergraph_row_json, hypergraph_row_line, HypergraphRow};
pub use parallel::{parallel_cell, parallel_row_json, parallel_row_line, ParallelRow};
pub use trace::{trace_cell, trace_row_json, trace_row_line, TraceRow};

/// One row of the §6.2 preparation table.
#[derive(Clone, Debug)]
pub struct PrepRow {
    /// Label ("w/o pruning" / "with pruning" / ablation variant).
    pub label: String,
    /// NFSM nodes before step 2(d).
    pub nfsm_nodes_before: usize,
    /// NFSM nodes after pruning.
    pub nfsm_nodes: usize,
    /// DFSM states.
    pub dfsm_nodes: usize,
    /// Whole preparation wall time.
    pub total_time: Duration,
    /// Precomputed table bytes.
    pub precomputed_bytes: usize,
}

/// Runs the Q8 preparation step under `config` (E5/A1).
pub fn prep_q8_with(label: &str, config: PruneConfig) -> PrepRow {
    let (catalog, query) = q8_query();
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, config).expect("Q8 preparation");
    let s: &PrepStats = fw.stats();
    PrepRow {
        label: label.to_string(),
        nfsm_nodes_before: s.nfsm_nodes_before_prune,
        nfsm_nodes: s.nfsm_nodes,
        dfsm_nodes: s.dfsm_states,
        total_time: s.prep_time,
        precomputed_bytes: s.precomputed_bytes,
    }
}

/// The §6.2 table: preparation with and without pruning (E5).
pub fn prep_q8() -> (PrepRow, PrepRow) {
    (
        prep_q8_with("w/o pruning", PruneConfig::none()),
        prep_q8_with("with pruning", PruneConfig::default()),
    )
}

/// One measured plan-generation run.
#[derive(Clone, Debug)]
pub struct PlanRow {
    /// Framework name.
    pub framework: &'static str,
    /// Total plan-generation time (including framework preparation).
    pub time: Duration,
    /// Subplans generated.
    pub plans: usize,
    /// Time per subplan.
    pub time_per_plan: Duration,
    /// Order-annotation memory bytes.
    pub memory_bytes: usize,
    /// Cost of the winning plan (for cross-checking both arms agree).
    pub best_cost: f64,
    /// csg-cmp pairs emitted by the enumerator (deterministic).
    pub pairs: u64,
    /// Connected subsets planned beyond the base relations
    /// (deterministic).
    pub unions: u64,
    /// Did the `Auto` enumerator fall back to linearization?
    pub fallback: bool,
    /// Plans that survived Pareto pruning, over all comparability
    /// classes (deterministic).
    pub pruned_kept: u64,
    /// Candidate plans killed by Pareto domination (deterministic).
    pub pruned_dominated: u64,
    /// Order-oracle probes made by the DP — produce + infer +
    /// satisfies + dominates (deterministic).
    pub oracle_probes: u64,
    /// Enforcer candidates admitted into a Pareto set (deterministic).
    pub enforcers_admitted: u64,
    /// Enforcer candidates that survived insertion (deterministic).
    pub enforcers_won: u64,
}

/// Runs plan generation for a query with the DFSM framework,
/// preparation time included (as the paper does).
pub fn run_ours(catalog: &Catalog, query: &Query, ex: &ExtractedQuery) -> PlanRow {
    let t0 = Instant::now();
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).expect("prepare");
    let result = PlanGen::new(catalog, query, ex, &fw).run();
    finish_row(&fw, t0, result.stats, result.cost)
}

/// Runs plan generation with the Simmen baseline.
pub fn run_simmen(catalog: &Catalog, query: &Query, ex: &ExtractedQuery) -> PlanRow {
    let t0 = Instant::now();
    let fw = SimmenFramework::prepare(&ex.spec);
    let result = PlanGen::new(catalog, query, ex, &fw).run();
    finish_row(&fw, t0, result.stats, result.cost)
}

/// Runs plan generation with the naive explicit-set oracle (the §2
/// "intuitive approach") — the correctness arm for cross-checks.
pub fn run_explicit(catalog: &Catalog, query: &Query, ex: &ExtractedQuery) -> PlanRow {
    let t0 = Instant::now();
    let fw = ExplicitOracle::prepare(&ex.spec);
    let result = PlanGen::new(catalog, query, ex, &fw).run();
    finish_row(&fw, t0, result.stats, result.cost)
}

/// A [`PlanRow`] as a flat JSON object for `BENCH_*.json` files.
pub fn plan_row_json(row: &PlanRow) -> json::Obj {
    json::Obj::new()
        .str("framework", row.framework)
        .num("time_ms", row.time.as_secs_f64() * 1e3)
        .int("plans", row.plans)
        .num("time_per_plan_us", row.time_per_plan.as_secs_f64() * 1e6)
        .int("memory_bytes", row.memory_bytes)
        .num("best_cost", row.best_cost)
        .int("pairs", row.pairs as usize)
        .int("unions", row.unions as usize)
        .int("fallback", usize::from(row.fallback))
        .int("pruned_kept", row.pruned_kept as usize)
        .int("pruned_dominated", row.pruned_dominated as usize)
        .int("oracle_probes", row.oracle_probes as usize)
        .int("enforcers_admitted", row.enforcers_admitted as usize)
        .int("enforcers_won", row.enforcers_won as usize)
}

/// A [`PrepRow`] as a flat JSON object for `BENCH_*.json` files.
pub fn prep_row_json(row: &PrepRow) -> json::Obj {
    json::Obj::new()
        .str("label", &row.label)
        .int("nfsm_nodes_before", row.nfsm_nodes_before)
        .int("nfsm_nodes", row.nfsm_nodes)
        .int("dfsm_nodes", row.dfsm_nodes)
        .num("total_time_ms", row.total_time.as_secs_f64() * 1e3)
        .int("precomputed_bytes", row.precomputed_bytes)
}

fn finish_row<O: OrderOracle>(fw: &O, t0: Instant, stats: PlanGenStats, best_cost: f64) -> PlanRow {
    let time = t0.elapsed();
    let d = &stats.decisions;
    PlanRow {
        framework: fw.name(),
        time,
        plans: stats.plans,
        time_per_plan: if stats.plans > 0 {
            time / stats.plans as u32
        } else {
            Duration::ZERO
        },
        memory_bytes: stats.memory_bytes,
        best_cost,
        pairs: stats.pairs_emitted,
        unions: stats.unions,
        fallback: stats.fallback,
        pruned_kept: d.pruning.kept_total(),
        pruned_dominated: d.pruning.dominated_total(),
        oracle_probes: d.probes.total(),
        enforcers_admitted: d.enforcers.admitted_total(),
        enforcers_won: d.enforcers.won_total(),
    }
}

/// E6: the §7 Q8 comparison (Simmen vs ours).
pub fn q8_plangen() -> (PlanRow, PlanRow) {
    let (catalog, query) = q8_query();
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let simmen = run_simmen(&catalog, &query, &ex);
    let ours = run_ours(&catalog, &query, &ex);
    assert_costs_agree(&simmen, &ours);
    (simmen, ours)
}

/// Verifies both arms picked equally cheap plans (§7: "both order
/// optimization algorithms produced the same optimal plan").
pub fn assert_costs_agree(a: &PlanRow, b: &PlanRow) {
    let rel = (a.best_cost - b.best_cost).abs() / a.best_cost.max(1.0);
    assert!(
        rel < 1e-9,
        "optimal cost mismatch: {} vs {}",
        a.best_cost,
        b.best_cost
    );
}

/// One averaged cell of Fig. 13 / Fig. 14: `n` relations, `n-1+extra`
/// edges, `queries` random queries starting at `seed0`.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Relation count.
    pub n: usize,
    /// Extra edges beyond the chain.
    pub extra: usize,
    /// Averaged Simmen row.
    pub simmen: PlanRow,
    /// Averaged DFSM row.
    pub ours: PlanRow,
    /// Average DFSM precomputed bytes (Fig. 14's last column).
    pub dfsm_bytes: usize,
}

/// Runs and averages one sweep cell (E7/E8).
pub fn sweep_cell(n: usize, extra: usize, queries: usize, seed0: u64) -> SweepCell {
    let mut acc_s = ZeroRow::new("simmen");
    let mut acc_o = ZeroRow::new("nfsm/dfsm (ours)");
    let mut dfsm_bytes = 0usize;
    for q in 0..queries {
        let config = RandomQueryConfig {
            num_relations: n,
            extra_edges: extra,
            seed: seed0 + q as u64,
        };
        let (catalog, query) = random_query(&config);
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        let simmen = run_simmen(&catalog, &query, &ex);
        let ours = run_ours(&catalog, &query, &ex);
        assert_costs_agree(&simmen, &ours);
        acc_s.add(&simmen);
        acc_o.add(&ours);
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        dfsm_bytes += fw.stats().precomputed_bytes;
    }
    SweepCell {
        n,
        extra,
        simmen: acc_s.avg(queries),
        ours: acc_o.avg(queries),
        dfsm_bytes: dfsm_bytes / queries,
    }
}

/// One averaged cell of the grouping-workload sweep (G1): `n`
/// relations, `queries` random grouping queries starting at `seed0`,
/// DFSM framework vs Simmen baseline. With `check_explicit`, every
/// query is additionally planned with the naive explicit-set oracle and
/// all three optima are asserted equal (slow — meant for small `n`).
pub fn grouping_cell(
    n: usize,
    extra: usize,
    queries: usize,
    seed0: u64,
    check_explicit: bool,
) -> SweepCell {
    let mut acc_s = ZeroRow::new("simmen");
    let mut acc_o = ZeroRow::new("nfsm/dfsm (ours)");
    let mut dfsm_bytes = 0usize;
    for q in 0..queries {
        let config = GroupingQueryConfig {
            num_relations: n,
            extra_edges: extra,
            seed: seed0 + q as u64,
        };
        let (catalog, query) = grouping_query(&config);
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        let simmen = run_simmen(&catalog, &query, &ex);
        let ours = run_ours(&catalog, &query, &ex);
        assert_costs_agree(&simmen, &ours);
        if check_explicit {
            let explicit = run_explicit(&catalog, &query, &ex);
            assert_costs_agree(&ours, &explicit);
        }
        acc_s.add(&simmen);
        acc_o.add(&ours);
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        dfsm_bytes += fw.stats().precomputed_bytes;
    }
    SweepCell {
        n,
        extra,
        simmen: acc_s.avg(queries),
        ours: acc_o.avg(queries),
        dfsm_bytes: dfsm_bytes / queries,
    }
}

/// One averaged cell of the aggregation-placement sweep (GJ1): star
/// queries with `dimensions` dimension tables, planned twice with the
/// DFSM arm — aggregation placement enabled vs root-only aggregation —
/// plus the placement win statistics.
#[derive(Clone, Debug)]
pub struct PlacementCell {
    /// Dimension-table count (relations = `dimensions + 1`).
    pub dimensions: usize,
    /// Averaged DFSM row with placement disabled (root-only ceiling).
    pub root_only: PlanRow,
    /// Averaged DFSM row with placement enabled.
    pub placed: PlanRow,
    /// Largest per-query win (`root-only cost / placed cost`).
    pub max_win: f64,
    /// Queries where placement found a strictly cheaper plan.
    pub wins: usize,
    /// Queries in the cell.
    pub queries: usize,
}

/// Runs plan generation with the DFSM framework and an explicit
/// aggregation-placement switch (preparation time included).
pub fn run_ours_placement(
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
    placement: bool,
) -> PlanRow {
    let t0 = Instant::now();
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).expect("prepare");
    let result = PlanGen::new(catalog, query, ex, &fw)
        .aggregation_placement(placement)
        .run();
    finish_row(&fw, t0, result.stats, result.cost)
}

/// Runs one cell of the aggregation-placement sweep. Every query is
/// planned with placement on and off; placement must never be costlier
/// (asserted). With `check_arms`, the placed optimum is additionally
/// cross-checked against the Simmen and explicit-set arms (slow — meant
/// for small cells).
pub fn groupjoin_cell(
    dimensions: usize,
    queries: usize,
    seed0: u64,
    check_arms: bool,
) -> PlacementCell {
    let mut acc_root = ZeroRow::new("nfsm/dfsm (ours)");
    let mut acc_placed = ZeroRow::new("nfsm/dfsm (ours)");
    let mut max_win = 1.0f64;
    let mut wins = 0usize;
    for q in 0..queries {
        let (catalog, query) = star_agg_query(&StarAggConfig {
            dimensions,
            seed: seed0 + q as u64,
        });
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        let placed = run_ours_placement(&catalog, &query, &ex, true);
        let root_only = run_ours_placement(&catalog, &query, &ex, false);
        assert!(
            placed.best_cost <= root_only.best_cost * (1.0 + 1e-9),
            "placement can never be costlier: {} vs {}",
            placed.best_cost,
            root_only.best_cost
        );
        if placed.best_cost < root_only.best_cost * (1.0 - 1e-9) {
            wins += 1;
        }
        max_win = max_win.max(root_only.best_cost / placed.best_cost);
        if check_arms {
            let simmen = run_simmen(&catalog, &query, &ex);
            assert_costs_agree(&placed, &simmen);
            let explicit = run_explicit(&catalog, &query, &ex);
            assert_costs_agree(&placed, &explicit);
        }
        acc_root.add(&root_only);
        acc_placed.add(&placed);
    }
    PlacementCell {
        dimensions,
        root_only: acc_root.avg(queries),
        placed: acc_placed.avg(queries),
        max_win,
        wins,
        queries,
    }
}

/// One averaged cell of the partial-sort sweep (PS1): `GROUP BY k
/// ORDER BY k` star queries planned twice with the DFSM arm — the
/// partial-sort enforcer enabled vs the sort-only ceiling.
#[derive(Clone, Debug)]
pub struct PartialSortCell {
    /// Dimension-table count (relations = `dimensions + 1`).
    pub dimensions: usize,
    /// Averaged DFSM row with the partial-sort enforcer disabled (the
    /// full-sort ceiling).
    pub sort_only: PlanRow,
    /// Averaged DFSM row with the partial-sort enforcer enabled.
    pub partial: PlanRow,
    /// Largest per-query win (`sort-only cost / partial cost`).
    pub max_win: f64,
    /// Queries where the partial sort found a strictly cheaper plan.
    pub wins: usize,
    /// Queries whose winning plan contains a `PartialSort` operator.
    pub partial_sort_plans: usize,
    /// Queries in the cell.
    pub queries: usize,
}

/// Runs plan generation with the DFSM framework and an explicit
/// partial-sort switch (preparation time included). Returns the
/// measured row together with the prepared framework and the full
/// result, so callers can walk the winning plan or reuse the run as a
/// determinism baseline without re-planning.
pub fn run_ours_partial_sort(
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
    partial_sort: bool,
) -> (PlanRow, OrderingFramework, PlanGenResult<ofw_core::State>) {
    let t0 = Instant::now();
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).expect("prepare");
    let result = PlanGen::new(catalog, query, ex, &fw)
        .partial_sort(partial_sort)
        .run();
    let row = finish_row(&fw, t0, result.stats.clone(), result.cost);
    (row, fw, result)
}

/// Runs one cell of the partial-sort sweep over ordered star-schema
/// aggregation queries. Every query is planned with the enforcer on and
/// off; the partial-sort search must never be costlier (asserted). With
/// `check_arms`, the partial-sort optimum is additionally cross-checked
/// against the Simmen and explicit-set arms *and* re-planned under the
/// work-stealing pool at 1, 2 and 8 threads with identical cost and
/// plan count required (slow — meant for small cells).
pub fn partialsort_cell(
    dimensions: usize,
    queries: usize,
    seed0: u64,
    check_arms: bool,
) -> PartialSortCell {
    let mut acc_sort = ZeroRow::new("nfsm/dfsm (ours)");
    let mut acc_partial = ZeroRow::new("nfsm/dfsm (ours)");
    let mut max_win = 1.0f64;
    let mut wins = 0usize;
    let mut partial_sort_plans = 0usize;
    for q in 0..queries {
        let (catalog, query) = ofw_workload::star_agg_query_ordered(&StarAggConfig {
            dimensions,
            seed: seed0 + q as u64,
        });
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        // One prepared framework and one DP run per arm; the enabled
        // run's result is reused below for the enforcer-usage walk and
        // as the serial baseline of the thread-determinism check.
        let (partial, fw, partial_result) = run_ours_partial_sort(&catalog, &query, &ex, true);
        let (sort_only, _, _) = run_ours_partial_sort(&catalog, &query, &ex, false);
        assert!(
            partial.best_cost <= sort_only.best_cost * (1.0 + 1e-9),
            "the partial-sort search can never be costlier: {} vs {}",
            partial.best_cost,
            sort_only.best_cost
        );
        if partial.best_cost < sort_only.best_cost * (1.0 - 1e-9) {
            wins += 1;
        }
        max_win = max_win.max(sort_only.best_cost / partial.best_cost);
        // Does the winner actually use the enforcer?
        {
            let mut stack = vec![partial_result.best];
            let mut found = false;
            while let Some(p) = stack.pop() {
                let op = &partial_result.arena.node(p).op;
                found |= matches!(op, ofw_plangen::PlanOp::PartialSort { .. });
                stack.extend(op.inputs());
            }
            partial_sort_plans += usize::from(found);
        }
        if check_arms {
            let simmen = run_simmen(&catalog, &query, &ex);
            assert_costs_agree(&partial, &simmen);
            let explicit = run_explicit(&catalog, &query, &ex);
            assert_costs_agree(&partial, &explicit);
            // Thread-count determinism: the same prepared oracle must
            // reach the same partial-sort optimum under the
            // work-stealing pool at 1, 2 and 8 threads.
            for threads in [1usize, 2, 8] {
                let pool = ofw_parallel::ThreadPool::new(threads);
                let parallel = PlanGen::new(&catalog, &query, &ex, &fw).run_with(&pool);
                assert!(
                    (parallel.cost - partial_result.cost).abs() < 1e-9
                        && parallel.stats.plans == partial_result.stats.plans
                        && parallel.best == partial_result.best,
                    "thread count {threads} changed the partial-sort plan"
                );
            }
        }
        acc_sort.add(&sort_only);
        acc_partial.add(&partial);
    }
    PartialSortCell {
        dimensions,
        sort_only: acc_sort.avg(queries),
        partial: acc_partial.avg(queries),
        max_win,
        wins,
        partial_sort_plans,
        queries,
    }
}

/// A [`PartialSortCell`] as a flat JSON object for
/// `BENCH_partialsort.json`.
pub fn partialsort_cell_json(cell: &PartialSortCell) -> json::Obj {
    json::Obj::new()
        .int("dimensions", cell.dimensions)
        .int("queries", cell.queries)
        .int("wins", cell.wins)
        .int("partial_sort_plans", cell.partial_sort_plans)
        .num("max_win", cell.max_win)
        .raw("sort_only", plan_row_json(&cell.sort_only).build())
        .raw("partial", plan_row_json(&cell.partial).build())
}

/// A [`PlacementCell`] as a flat JSON object for `BENCH_groupjoin.json`.
pub fn placement_cell_json(cell: &PlacementCell) -> json::Obj {
    json::Obj::new()
        .int("dimensions", cell.dimensions)
        .int("queries", cell.queries)
        .int("wins", cell.wins)
        .num("max_win", cell.max_win)
        .raw("root_only", plan_row_json(&cell.root_only).build())
        .raw("placed", plan_row_json(&cell.placed).build())
}

struct ZeroRow {
    framework: &'static str,
    time: Duration,
    plans: usize,
    memory: usize,
    cost: f64,
    pairs: u64,
    unions: u64,
    fallback: bool,
    pruned_kept: u64,
    pruned_dominated: u64,
    oracle_probes: u64,
    enforcers_admitted: u64,
    enforcers_won: u64,
}

impl ZeroRow {
    fn new(framework: &'static str) -> Self {
        ZeroRow {
            framework,
            time: Duration::ZERO,
            plans: 0,
            memory: 0,
            cost: 0.0,
            pairs: 0,
            unions: 0,
            fallback: false,
            pruned_kept: 0,
            pruned_dominated: 0,
            oracle_probes: 0,
            enforcers_admitted: 0,
            enforcers_won: 0,
        }
    }

    fn add(&mut self, row: &PlanRow) {
        self.time += row.time;
        self.plans += row.plans;
        self.memory += row.memory_bytes;
        self.cost += row.best_cost;
        self.pairs += row.pairs;
        self.unions += row.unions;
        self.fallback |= row.fallback;
        self.pruned_kept += row.pruned_kept;
        self.pruned_dominated += row.pruned_dominated;
        self.oracle_probes += row.oracle_probes;
        self.enforcers_admitted += row.enforcers_admitted;
        self.enforcers_won += row.enforcers_won;
    }

    fn avg(&self, k: usize) -> PlanRow {
        let plans = self.plans / k;
        let time = self.time / k as u32;
        PlanRow {
            framework: self.framework,
            time,
            plans,
            time_per_plan: if plans > 0 {
                time / plans as u32
            } else {
                Duration::ZERO
            },
            memory_bytes: self.memory / k,
            best_cost: self.cost / k as f64,
            pairs: self.pairs / k as u64,
            unions: self.unions / k as u64,
            fallback: self.fallback,
            pruned_kept: self.pruned_kept / k as u64,
            pruned_dominated: self.pruned_dominated / k as u64,
            oracle_probes: self.oracle_probes / k as u64,
            enforcers_admitted: self.enforcers_admitted / k as u64,
            enforcers_won: self.enforcers_won / k as u64,
        }
    }
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Formats a duration as fractional microseconds.
pub fn us(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// Formats bytes as KB with one decimal.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q8_preparation_shapes_match_the_paper() {
        let (without, with) = prep_q8();
        // §6.2: pruning shrinks the NFSM (376 → 38) and the DFSM
        // (80 → 24) by large factors; exact counts depend on modeling
        // details, but the direction and rough magnitude must hold.
        assert!(
            without.nfsm_nodes >= 2 * with.nfsm_nodes,
            "NFSM: {} vs {}",
            without.nfsm_nodes,
            with.nfsm_nodes
        );
        assert!(
            without.dfsm_nodes >= with.dfsm_nodes,
            "DFSM: {} vs {}",
            without.dfsm_nodes,
            with.dfsm_nodes
        );
        assert!(without.precomputed_bytes > with.precomputed_bytes);
    }

    #[test]
    fn q8_plangen_shape_matches_the_paper() {
        let (simmen, ours) = q8_plangen();
        // §7 Q8 table: ours generates fewer plans and is faster per plan.
        assert!(
            ours.plans <= simmen.plans,
            "plans: ours={} simmen={}",
            ours.plans,
            simmen.plans
        );
        assert!(ours.plans > 100, "Q8 must be a non-trivial search");
    }

    #[test]
    fn small_sweep_cell_runs() {
        let cell = sweep_cell(5, 0, 2, 1000);
        assert!(cell.simmen.plans > 0 && cell.ours.plans > 0);
        assert!(cell.ours.plans <= cell.simmen.plans);
    }

    #[test]
    fn small_grouping_cell_agrees_with_the_explicit_oracle() {
        // The assertion work happens inside: DFSM == Simmen == explicit
        // optimum for every grouping query in the cell.
        let cell = grouping_cell(4, 0, 3, 2000, true);
        assert!(cell.simmen.plans > 0 && cell.ours.plans > 0);
        assert!(cell.ours.plans <= cell.simmen.plans);
    }

    #[test]
    fn small_groupjoin_cell_wins_and_agrees_across_arms() {
        let cell = groupjoin_cell(2, 3, 77, true);
        assert!(cell.placed.plans > 0 && cell.root_only.plans > 0);
        assert!(cell.placed.best_cost <= cell.root_only.best_cost);
        assert!(cell.wins >= 1, "placement should win somewhere in the cell");
        assert!(cell.max_win >= 1.0);
    }

    #[test]
    fn small_partialsort_cell_wins_and_agrees_across_arms_and_threads() {
        let cell = partialsort_cell(2, 3, 4242, true);
        assert!(cell.partial.plans > 0 && cell.sort_only.plans > 0);
        assert!(cell.partial.best_cost <= cell.sort_only.best_cost);
        assert!(
            cell.partial_sort_plans >= 1,
            "some winner must carry a PartialSort"
        );
        assert!(cell.max_win >= 1.0);
    }

    #[test]
    fn q13_style_query_uses_the_hash_group_enforcer() {
        // The G1 acceptance scenario: a TPC-H-style aggregation query
        // plans with early hash-grouping + streaming aggregation.
        let (catalog, query) = ofw_workload::q13_style_query();
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let r = PlanGen::new(&catalog, &query, &ex, &fw).run();
        let mut found_hash_group = false;
        let mut found_streaming = false;
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            found_hash_group |= matches!(op, ofw_plangen::PlanOp::HashGroup { .. });
            found_streaming |= matches!(op, ofw_plangen::PlanOp::StreamAgg { partial: false, .. });
            stack.extend(op.inputs());
        }
        assert!(
            found_hash_group && found_streaming,
            "expected hash-group + streaming aggregate:\n{}",
            r.arena.render(r.best, &|i| catalog
                .relation(query.relations[i])
                .name
                .clone())
        );
        // Simmen finds the same optimum through the same DP.
        let s = run_simmen(&catalog, &query, &ex);
        let o = run_ours(&catalog, &query, &ex);
        assert_costs_agree(&s, &o);
    }
}
