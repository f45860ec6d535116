//! # ofw-bench — the paper's experiments
//!
//! One reusable function per paper experiment; the `paper` binary
//! prints them all in one pass, and `table_calibration` prints the
//! cost-model calibration. Performance claims are not made from these
//! tables: the pipeline benchmark (`benchmark/run.sh`,
//! `BENCHMARK.json`) is the one accepted evidence for those, and the
//! deterministic work counters are pinned by the root crate's
//! `tests/golden_counters.rs`.
//!
//! | id | paper artifact | binary | function |
//! |----|----------------|--------|----------|
//! | E5 | §6.2 preparation table | `paper` | [`pruning_ablation`] (its `none` and `all` rows) |
//! | A1 | §5.7 pruning ablation | `paper` | [`pruning_ablation`] |
//! | E6 | §7 Q8 plan-generation table | `paper` | [`q8_plangen`] |
//! | A2 | O(1)-vs-Ω(n) ADT operations | `paper` | [`adt_ops`] |
//! | E7 | Fig. 13 join-graph sweep | `paper` | [`sweep`] |
//! | E8 | Fig. 14 memory table | `paper` | [`sweep`] |
//! | C1 | cost-model calibration (ns per cost unit per operator) | `table_calibration` | — |

#![forbid(unsafe_code)]

/// Process-global counting allocator: everything linking this crate
/// counts allocations, which is what `tests/exec_allocs.rs` asserts on.
#[global_allocator]
static ALLOC: ofw_common::alloc::CountingAlloc = ofw_common::alloc::CountingAlloc;

use ofw_catalog::Catalog;
use ofw_core::{FdSetId, InputSpec, OrderingFramework, PruneConfig};
use ofw_plangen::{OrderOracle, PlanGen, PlanGenResult};
use ofw_query::extract::ExtractOptions;
use ofw_query::{ExtractedQuery, Query};
use ofw_simmen::SimmenFramework;
use ofw_workload::{q8_query, random_query, RandomQueryConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One row of the §6.2 preparation table and its ablation.
#[derive(Clone, Debug)]
pub struct PrepRow {
    /// Pruning configuration ("none", "only merge", ..., "all").
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

/// Runs the Q8 preparation step under `config`.
fn prep_q8_with(label: String, config: PruneConfig) -> PrepRow {
    let (catalog, query) = q8_query();
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let fw = OrderingFramework::prepare(&ex.spec, config).expect("Q8 preparation");
    let s = fw.stats();
    PrepRow {
        label,
        nfsm_nodes_before: s.nfsm_nodes_before_prune,
        nfsm_nodes: s.nfsm_nodes,
        dfsm_nodes: s.dfsm_states,
        total_time: s.prep_time,
        precomputed_bytes: s.precomputed_bytes,
    }
}

/// One §5.7 reduction technique's switch in a [`PruneConfig`].
type Switch = fn(&mut PruneConfig) -> &mut bool;

/// The five §5.7 reduction techniques, by name and switch.
const PRUNE_SWITCHES: [(&str, Switch); 5] = [
    ("fd-pruning", |c| &mut c.prune_fds),
    ("merge", |c| &mut c.merge_artificial),
    ("eps-replace", |c| &mut c.eps_replace),
    ("prefix-filter", |c| &mut c.prefix_filter),
    ("length-cutoff", |c| &mut c.length_cutoff),
];

/// A1: the Q8 preparation with every §5.7 switch off (`none`), each
/// switch on alone, each switch off alone, and every switch on (`all`).
/// The first and last rows are the §6.2 table's "w/o pruning" and
/// "with pruning" columns (E5).
pub fn pruning_ablation() -> Vec<PrepRow> {
    let mut rows = vec![prep_q8_with("none".into(), PruneConfig::none())];
    for (prefix, base, on) in [
        ("only", PruneConfig::none(), true),
        ("all minus", PruneConfig::default(), false),
    ] {
        for (name, switch) in PRUNE_SWITCHES {
            let mut config = base.clone();
            *switch(&mut config) = on;
            rows.push(prep_q8_with(format!("{prefix} {name}"), config));
        }
    }
    rows.push(prep_q8_with("all".into(), PruneConfig::default()));
    rows
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
    /// The prepared oracle's precomputed table bytes (the DFSM's; 0 for
    /// Simmen, which precomputes nothing).
    pub precomputed_bytes: usize,
    /// Cost of the winning plan (for cross-checking both arms agree).
    pub best_cost: f64,
}

/// Runs plan generation for a query with the DFSM framework,
/// preparation time included (as the paper does). Returns the row, the
/// run, whose arena holds the winning plan, and the framework it ran on.
fn run_ours(
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
) -> (PlanRow, PlanGenResult<ofw_core::State>, OrderingFramework) {
    let t0 = Instant::now();
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).expect("prepare");
    let result = PlanGen::new(catalog, query, ex, &fw).run();
    let row = finish_row(&fw, t0, &result, fw.stats().precomputed_bytes);
    (row, result, fw)
}

/// Runs plan generation with the Simmen baseline.
fn run_simmen(catalog: &Catalog, query: &Query, ex: &ExtractedQuery) -> PlanRow {
    let t0 = Instant::now();
    let fw = SimmenFramework::prepare(&ex.spec);
    let result = PlanGen::new(catalog, query, ex, &fw).run();
    finish_row(&fw, t0, &result, 0)
}

fn finish_row<O: OrderOracle>(
    fw: &O,
    t0: Instant,
    result: &PlanGenResult<O::State>,
    precomputed_bytes: usize,
) -> PlanRow {
    let time = t0.elapsed();
    let plans = result.stats.plans;
    PlanRow {
        framework: fw.name(),
        time,
        plans,
        time_per_plan: per_plan(time, plans),
        memory_bytes: result.stats.memory_bytes,
        precomputed_bytes,
        best_cost: result.cost,
    }
}

/// `time` spread over `plans` (zero when there are none).
fn per_plan(time: Duration, plans: usize) -> Duration {
    time.checked_div(plans as u32).unwrap_or_default()
}

/// E6: the §7 Q8 comparison (Simmen vs ours) and our winning plan,
/// explained with the properties the DFSM reports it holding.
pub fn q8_plangen() -> (PlanRow, PlanRow, String) {
    let (catalog, query) = q8_query();
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let simmen = run_simmen(&catalog, &query, &ex);
    let (ours, result, fw) = run_ours(&catalog, &query, &ex);
    assert_costs_agree(&simmen, &ours);
    let plan = result.explain(&catalog, &query, &ex, &fw).text();
    (simmen, ours, plan)
}

/// Verifies both arms picked equally cheap plans (§7: "both order
/// optimization algorithms produced the same optimal plan").
fn assert_costs_agree(a: &PlanRow, b: &PlanRow) {
    let rel = (a.best_cost - b.best_cost).abs() / a.best_cost.max(1.0);
    assert!(
        rel < 1e-9,
        "optimal cost mismatch: {} vs {}",
        a.best_cost,
        b.best_cost
    );
}

/// One ADT operation timed on one arm.
#[derive(Clone, Debug)]
pub struct AdtRow {
    /// `"<arm>/<operation>"`: `dfsm` or `simmen`, then `infer`,
    /// `contains` or `produce`.
    pub id: String,
    /// Operation calls per timed iteration.
    pub calls: usize,
    /// Nanoseconds per call, from the fastest batch.
    pub ns_per_call: f64,
}

/// Wall-clock budget of one [`AdtRow`]'s timed batches.
const ADT_BUDGET: Duration = Duration::from_millis(50);

/// A2: the paper's O(1)-vs-Ω(n) claim on the Q8 input, for both arms:
/// `infer` folds every FD set into a produced state, `contains` asks
/// every interesting property of the fully inferred state, `produce`
/// enters every producible property. Table lookups against reduction
/// (even with Simmen's reduction cache warm, it pays hash lookups
/// instead of array indexing).
pub fn adt_ops() -> Vec<AdtRow> {
    let (catalog, query) = q8_query();
    let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
    let ours = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).expect("prepare");
    let mut rows = adt_rows("dfsm", &ours, &ex.spec);
    rows.extend(adt_rows(
        "simmen",
        &SimmenFramework::prepare(&ex.spec),
        &ex.spec,
    ));
    rows
}

fn adt_rows<O: OrderOracle>(arm: &str, fw: &O, spec: &InputSpec) -> Vec<AdtRow> {
    let keys: Vec<O::Key> = spec
        .produced()
        .iter()
        .filter_map(|p| fw.resolve(p))
        .collect();
    let producible: Vec<O::Key> = keys
        .iter()
        .copied()
        .filter(|&k| fw.is_producible(k))
        .collect();
    let fds: Vec<FdSetId> = (0..spec.fd_sets().len())
        .map(|f| FdSetId(f as u32))
        .collect();
    let infer_all = |s: O::State| fds.iter().fold(s, |s, &f| fw.infer(s, f));
    let produced = fw.produce(producible[0]);
    let inferred = infer_all(produced);
    let row = |op: &str, calls: usize, ns: f64| AdtRow {
        id: format!("{arm}/{op}"),
        calls,
        ns_per_call: ns / calls as f64,
    };
    vec![
        row(
            "infer",
            fds.len(),
            time_min(|| infer_all(black_box(produced))),
        ),
        row(
            "contains",
            keys.len(),
            time_min(|| {
                let s = black_box(inferred);
                keys.iter().filter(|&&k| fw.satisfies(s, k)).count()
            }),
        ),
        row(
            "produce",
            producible.len(),
            time_min(|| {
                for &k in &producible {
                    black_box(fw.produce(black_box(k)));
                }
            }),
        ),
    ]
}

/// Nanoseconds per call of `routine`: batches sized to take at least a
/// hundredth of [`ADT_BUDGET`] run until the budget is spent, and the
/// fastest batch counts.
fn time_min<R>(mut routine: impl FnMut() -> R) -> f64 {
    let mut batch = |n: u32| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(routine());
        }
        t0.elapsed()
    };
    let mut n = 1;
    while batch(n) < ADT_BUDGET / 100 {
        n *= 2;
    }
    let deadline = Instant::now() + ADT_BUDGET;
    let mut best = Duration::MAX;
    while Instant::now() < deadline {
        best = best.min(batch(n));
    }
    best.as_nanos() as f64 / f64::from(n)
}

/// The smallest relation count of the Fig. 13 / Fig. 14 sweep.
pub const SWEEP_MIN_N: usize = 5;

/// One averaged cell of Fig. 13 / Fig. 14: `n` relations, `n-1+extra`
/// edges.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Relation count.
    pub n: usize,
    /// Extra edges beyond the chain.
    pub extra: usize,
    /// Averaged Simmen row.
    pub simmen: PlanRow,
    /// Averaged DFSM row; its `precomputed_bytes` is Fig. 14's DFSM
    /// column.
    pub ours: PlanRow,
}

/// E7/E8: the Fig. 13 / Fig. 14 sweep, `queries` per cell — n-1, n and
/// n+1 edges (in that order), each over n = [`SWEEP_MIN_N`]..=`max_n`.
/// Cell `(n, extra)` draws its queries from seed `0xF13 + 10 n + extra`.
pub fn sweep(queries: usize, max_n: usize) -> Vec<SweepCell> {
    (0..=2)
        .flat_map(|extra| {
            (SWEEP_MIN_N..=max_n)
                .map(move |n| sweep_cell(n, extra, queries, 0xF13 + (n * 10 + extra) as u64))
        })
        .collect()
}

/// Runs and averages one sweep cell: `queries` random queries with
/// `n` relations and `n-1+extra` edges, starting at `seed0`.
fn sweep_cell(n: usize, extra: usize, queries: usize, seed0: u64) -> SweepCell {
    let (mut simmen, mut ours) = (Vec::new(), Vec::new());
    for q in 0..queries {
        let config = RandomQueryConfig {
            num_relations: n,
            extra_edges: extra,
            seed: seed0 + q as u64,
        };
        let (catalog, query) = random_query(&config);
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        simmen.push(run_simmen(&catalog, &query, &ex));
        ours.push(run_ours(&catalog, &query, &ex).0);
        assert_costs_agree(&simmen[q], &ours[q]);
    }
    SweepCell {
        n,
        extra,
        simmen: average(&simmen),
        ours: average(&ours),
    }
}

/// The mean of one arm's rows; counts and bytes round down.
fn average(rows: &[PlanRow]) -> PlanRow {
    let k = rows.len();
    let mean = |field: fn(&PlanRow) -> usize| rows.iter().map(field).sum::<usize>() / k;
    let time = rows.iter().map(|r| r.time).sum::<Duration>() / k as u32;
    let plans = mean(|r| r.plans);
    PlanRow {
        framework: rows[0].framework,
        time,
        plans,
        time_per_plan: per_plan(time, plans),
        memory_bytes: mean(|r| r.memory_bytes),
        precomputed_bytes: mean(|r| r.precomputed_bytes),
        best_cost: rows.iter().map(|r| r.best_cost).sum::<f64>() / k as f64,
    }
}

/// A positional count argument: `default` when absent, otherwise an
/// integer of at least `min` — anything else is an error quoting it.
fn parse_count(arg: Option<&str>, default: usize, min: usize) -> Result<usize, String> {
    match arg {
        None => Ok(default),
        Some(s) => match s.parse() {
            Ok(n) if n >= min => Ok(n),
            _ => Err(format!("expected an integer of at least {min}, got `{s}`")),
        },
    }
}

/// The table binaries' one way to read the positional count argument
/// at `index`: `default` when absent, an integer of at least `min`
/// otherwise. On anything else, prints the error and the `usage` line
/// to stderr and exits with code 2.
pub fn count_arg(index: usize, default: usize, min: usize, usage: &str) -> usize {
    let arg = std::env::args().nth(index);
    parse_count(arg.as_deref(), default, min).unwrap_or_else(|e| {
        eprintln!("argument {index}: {e}\nusage: {usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_arguments_are_parsed_strictly() {
        assert_eq!(parse_count(None, 10, 1), Ok(10));
        assert_eq!(parse_count(Some("3"), 10, 1), Ok(3));
        assert!(parse_count(Some("x"), 10, 1).is_err());
        assert!(parse_count(Some("0"), 10, 1).is_err());
    }

    #[test]
    fn a_sweep_without_cells_is_rejected() {
        // `paper 2 3` would print the figure headers and no rows.
        assert!(parse_count(Some("4"), 10, SWEEP_MIN_N).is_err());
        assert_eq!(parse_count(Some("5"), 10, SWEEP_MIN_N), Ok(5));
        assert_eq!(parse_count(None, 10, SWEEP_MIN_N), Ok(10));
    }

    #[test]
    fn q8_preparation_shapes_match_the_paper() {
        let rows = pruning_ablation();
        assert_eq!(rows.len(), 12);
        let (without, with) = (&rows[0], &rows[11]);
        assert_eq!(
            (without.label.as_str(), with.label.as_str()),
            ("none", "all")
        );
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
        let (simmen, ours, plan) = q8_plangen();
        // §7 Q8 table: ours generates fewer plans and is faster per plan.
        assert!(
            ours.plans <= simmen.plans,
            "plans: ours={} simmen={}",
            ours.plans,
            simmen.plans
        );
        assert!(ours.plans > 100, "Q8 must be a non-trivial search");
        // The root line lists the ORDER BY ordering among the
        // properties the winner holds: `op  cost=… rows=…  [p, …]`.
        let (catalog, query) = q8_query();
        let order_by = catalog.render_ordering(&query.order_by);
        let root = plan.lines().next().expect("an explained plan");
        let held = root.split_once("  [").map_or("", |(_, h)| h);
        assert!(
            held.strip_suffix(']')
                .is_some_and(|h| h.split(", ").any(|p| p == order_by)),
            "{order_by} not held at the root: {root}"
        );
    }

    #[test]
    fn small_sweep_cell_runs() {
        // Figs. 13-14's shape on every cell with n = 5..7, at the
        // figures' seeds: deterministic counts only, never times.
        let cells = sweep(1, 7);
        assert_eq!(cells.len(), 9);
        for c in &cells {
            assert_costs_agree(&c.simmen, &c.ours);
            assert!(c.ours.plans > 0);
            assert!(
                c.ours.plans <= c.simmen.plans && c.ours.memory_bytes <= c.simmen.memory_bytes,
                "n={} extra={}: ours {} plans / {} bytes, simmen {} / {}",
                c.n,
                c.extra,
                c.ours.plans,
                c.ours.memory_bytes,
                c.simmen.plans,
                c.simmen.memory_bytes
            );
        }
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
            r.arena.explain(r.best, &catalog, &query).text()
        );
        // Simmen finds the same optimum through the same DP.
        let s = run_simmen(&catalog, &query, &ex);
        let (o, ..) = run_ours(&catalog, &query, &ex);
        assert_costs_agree(&s, &o);
    }
}
