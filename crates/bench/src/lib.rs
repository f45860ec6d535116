//! # ofw-bench — the paper's experiments
//!
//! One reusable function per paper experiment; the `src/bin` binaries
//! print the corresponding table to stdout. Performance claims are not
//! made from these tables: the pipeline benchmark (`benchmark/run.sh`,
//! `BENCHMARK.json`) is the one accepted evidence for those, and the
//! deterministic work counters are pinned by the root crate's
//! `tests/golden_counters.rs`.
//!
//! | id | paper artifact | binary | function |
//! |----|----------------|--------|----------|
//! | E5 | §6.2 preparation table | `table_prep_q8` | [`prep_q8`] |
//! | E6 | §7 Q8 plan-generation table | `table_q8_plangen` | [`q8_plangen`] |
//! | E7 | Fig. 13 join-graph sweep | `table_fig13` | [`sweep_cell`] |
//! | E8 | Fig. 14 memory table | `table_fig14` | [`sweep_cell`] |
//! | A1 | pruning ablation | `table_ablation_pruning` | [`prep_q8_with`] |
//! | C1 | cost-model calibration (ns per cost unit per operator) | `table_calibration` | — |
//!
//! `benches/adt_ops.rs` is the Criterion bench of the paper's
//! O(1)-vs-Ω(n) ADT-operation claim.

/// Process-global counting allocator: everything linking this crate
/// counts allocations, which is what `tests/exec_allocs.rs` asserts on.
#[global_allocator]
static ALLOC: ofw_common::alloc::CountingAlloc = ofw_common::alloc::CountingAlloc;

use ofw_catalog::Catalog;
use ofw_core::{OrderingFramework, PrepStats, PruneConfig};
use ofw_plangen::{OrderOracle, PlanGen, PlanGenStats};
use ofw_query::extract::ExtractOptions;
use ofw_query::{ExtractedQuery, Query};
use ofw_simmen::SimmenFramework;
use ofw_workload::{q8_query, random_query, RandomQueryConfig};
use std::time::{Duration, Instant};

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

fn finish_row<O: OrderOracle>(fw: &O, t0: Instant, stats: PlanGenStats, best_cost: f64) -> PlanRow {
    let time = t0.elapsed();
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

struct ZeroRow {
    framework: &'static str,
    time: Duration,
    plans: usize,
    memory: usize,
    cost: f64,
}

impl ZeroRow {
    fn new(framework: &'static str) -> Self {
        ZeroRow {
            framework,
            time: Duration::ZERO,
            plans: 0,
            memory: 0,
            cost: 0.0,
        }
    }

    fn add(&mut self, row: &PlanRow) {
        self.time += row.time;
        self.plans += row.plans;
        self.memory += row.memory_bytes;
        self.cost += row.best_cost;
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

/// A positional count argument: `default` when absent, otherwise a
/// positive integer — anything else is an error quoting it.
fn parse_count(arg: Option<&str>, default: usize) -> Result<usize, String> {
    match arg {
        None => Ok(default),
        Some(s) => match s.parse() {
            Ok(0) | Err(_) => Err(format!("expected a positive integer, got `{s}`")),
            Ok(n) => Ok(n),
        },
    }
}

/// The table binaries' one way to read the positional count argument
/// at `index`: `default` when absent, a positive integer otherwise. On
/// anything else, prints the error and the `usage` line to stderr and
/// exits with code 2.
pub fn count_arg(index: usize, default: usize, usage: &str) -> usize {
    let arg = std::env::args().nth(index);
    parse_count(arg.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("argument {index}: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_arguments_are_parsed_strictly() {
        assert_eq!(parse_count(None, 10), Ok(10));
        assert_eq!(parse_count(Some("3"), 10), Ok(3));
        assert!(parse_count(Some("x"), 10).is_err());
        assert!(parse_count(Some("0"), 10).is_err());
    }

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
