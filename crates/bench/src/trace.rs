//! The observability-overhead experiment (TR1): plan generation with
//! the trace sink disabled vs recording, per workload.
//!
//! Two claims are measured and enforced:
//!
//! * **zero-cost when off** — the disabled sink is one pointer check
//!   per phase boundary, so the untraced runs here are the same hot
//!   path every other table binary times; the `overhead_pct` column
//!   records what *enabling* the sink costs (span records + labels),
//!   which must stay small enough to leave plans usable for profiling;
//! * **byte-identical when on** — the recording run's full arena
//!   fingerprint (states included) is asserted equal to the untraced
//!   run's before any timing is reported. A trace that perturbs the
//!   plan table is worthless; this is the cheap always-on guard behind
//!   the exhaustive property test in `ofw-plangen`.
//!
//! Each row also reports the per-phase wall-time shares from the
//! always-on [`PhaseStats`](ofw_plangen::PlanGenStats::phases) ledger
//! (prefixed `share_`, suffixed `_pct` — volatile for the trend gate,
//! like every wall-clock field) and the deterministic decision
//! counters, which the gate *does* compare across commits.

use crate::json;
use ofw_catalog::Catalog;
use ofw_common::FxHasher;
use ofw_core::{OrderingFramework, PruneConfig};
use ofw_obs::Trace;
use ofw_plangen::{Enumerator, PlanGen, PlanGenResult};
use ofw_query::{ExtractedQuery, Query};
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// One workload's disabled-vs-recording measurement.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Workload label (`q8` / `grouping` / `clique20`).
    pub workload: &'static str,
    /// Interleaved repetitions per side behind the two minima.
    pub reps: usize,
    /// Minimum plan-generation time with the sink disabled.
    pub untraced_ms: f64,
    /// Minimum plan-generation time with a recording sink attached.
    pub traced_ms: f64,
    /// `(traced - untraced) / untraced`, percent. Wall-clock noise —
    /// volatile for the trend gate.
    pub overhead_pct: f64,
    /// Span records the recording run captured (deterministic).
    pub spans: u64,
    /// Subplans generated (deterministic; identical in both runs).
    pub plans: usize,
    /// csg-cmp pairs emitted (deterministic).
    pub pairs: u64,
    /// Connected subsets beyond the base relations (deterministic).
    pub unions: u64,
    /// Plans surviving Pareto pruning (deterministic).
    pub pruned_kept: u64,
    /// Candidates killed by Pareto domination (deterministic).
    pub pruned_dominated: u64,
    /// Order-oracle probes made by the DP (deterministic).
    pub oracle_probes: u64,
    /// Enforcer candidates admitted (deterministic).
    pub enforcers_admitted: u64,
    /// Enforcer candidates that won their insertion (deterministic).
    pub enforcers_won: u64,
    /// Per-phase share of the untraced run's phase-ledger time, percent
    /// (phase name, share); layer phases are folded into one `dp`
    /// entry so the row shape is size-independent.
    pub phase_shares: Vec<(&'static str, f64)>,
}

/// Order-sensitive fingerprint of the full arena (states included) —
/// the same construction as the thread-scaling sweep's.
fn fingerprint<S: Copy + Debug>(r: &PlanGenResult<S>) -> u64 {
    let mut h = FxHasher::default();
    for n in r.arena.nodes() {
        format!("{:?}", n.op).hash(&mut h);
        n.cost.to_bits().hash(&mut h);
        n.card.to_bits().hash(&mut h);
        n.agg.hash(&mut h);
        for b in n.mask.iter() {
            b.hash(&mut h);
        }
        for f in n.applied_fds.iter() {
            f.hash(&mut h);
        }
        format!("{:?}", n.state).hash(&mut h);
    }
    format!("{:?}", r.best).hash(&mut h);
    r.cost.to_bits().hash(&mut h);
    (r.stats.plans as u64).hash(&mut h);
    h.finish()
}

/// Runs one workload cell: `reps` interleaved untraced/recording run
/// pairs (minimum time per side), every recording run asserted
/// byte-identical to the untraced reference. Returns the row and the
/// last recording run's trace for export.
pub fn trace_cell(
    workload: &'static str,
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
    enumerator: Enumerator,
    reps: usize,
) -> (TraceRow, Trace) {
    let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).expect("prepare");

    // One untimed warm-up run first (allocator, page cache):
    // it becomes the byte-identity reference, and keeps cold-start cost
    // out of the timings the overhead is computed from.
    let ref_result = PlanGen::new(catalog, query, ex, &fw)
        .enumerator(enumerator)
        .run();
    let ref_fp = fingerprint(&ref_result);

    // Untraced and recording runs *alternate*, and each side reports
    // its minimum: successive runs keep getting faster (allocator page
    // reuse), so timing all untraced runs first and the recording run
    // last would systematically flatter the sink. Min-vs-min over
    // interleaved runs cancels that drift.
    let mut untraced_min = f64::INFINITY;
    let mut traced_min = f64::INFINITY;
    let mut trace = Trace::disabled();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let r = PlanGen::new(catalog, query, ex, &fw)
            .enumerator(enumerator)
            .run();
        untraced_min = untraced_min.min(t0.elapsed().as_secs_f64());
        assert_eq!(fingerprint(&r), ref_fp, "{workload}: untraced run diverged");

        let t = Trace::recording();
        let t0 = Instant::now();
        let traced = PlanGen::new(catalog, query, ex, &fw)
            .enumerator(enumerator)
            .trace(&t)
            .run();
        traced_min = traced_min.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            fingerprint(&traced),
            ref_fp,
            "{workload}: the recording sink changed the plan table"
        );
        trace = t;
    }
    let untraced_ms = untraced_min * 1e3;
    let traced_ms = traced_min * 1e3;

    // Phase shares from the untraced reference — the production path's
    // own ledger, not something the sink added.
    let phases = &ref_result.stats.phases;
    let total: f64 = phases.iter().map(|p| p.time.as_secs_f64()).sum();
    let share = |pred: &dyn Fn(&str) -> bool| -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        phases
            .iter()
            .filter(|p| pred(&p.name))
            .map(|p| p.time.as_secs_f64())
            .sum::<f64>()
            / total
            * 100.0
    };
    let phase_shares = vec![
        ("bound", share(&|n| n == "bound")),
        ("base", share(&|n| n == "base")),
        ("enumerate", share(&|n| n == "enumerate")),
        ("dp", share(&|n| n.starts_with("layer "))),
        ("finalize", share(&|n| n == "finalize")),
        ("pick_final", share(&|n| n == "pick_final")),
    ];

    let d = &ref_result.stats.decisions;
    let row = TraceRow {
        workload,
        reps: reps.max(1),
        untraced_ms,
        traced_ms,
        overhead_pct: if untraced_ms > 0.0 {
            (traced_ms - untraced_ms) / untraced_ms * 100.0
        } else {
            0.0
        },
        spans: trace.records().len() as u64,
        plans: ref_result.stats.plans,
        pairs: ref_result.stats.pairs_emitted,
        unions: ref_result.stats.unions,
        pruned_kept: d.pruning.kept_total(),
        pruned_dominated: d.pruning.dominated_total(),
        oracle_probes: d.probes.total(),
        enforcers_admitted: d.enforcers.admitted_total(),
        enforcers_won: d.enforcers.won_total(),
        phase_shares,
    };
    (row, trace)
}

/// A [`TraceRow`] as a flat JSON object for `BENCH_trace.json`. Phase
/// shares become `share_<phase>_pct` fields — the `_pct` suffix marks
/// them volatile for `scripts/bench_trend.py`, alongside the explicit
/// `overhead_pct`.
pub fn trace_row_json(row: &TraceRow) -> json::Obj {
    let mut obj = json::Obj::new()
        .str("workload", row.workload)
        .int("reps", row.reps)
        .num("untraced_ms", row.untraced_ms)
        .num("traced_ms", row.traced_ms)
        .num("overhead_pct", row.overhead_pct)
        .int("spans", row.spans as usize)
        .int("plans", row.plans)
        .int("pairs", row.pairs as usize)
        .int("unions", row.unions as usize)
        .int("pruned_kept", row.pruned_kept as usize)
        .int("pruned_dominated", row.pruned_dominated as usize)
        .int("oracle_probes", row.oracle_probes as usize)
        .int("enforcers_admitted", row.enforcers_admitted as usize)
        .int("enforcers_won", row.enforcers_won as usize);
    for (name, pct) in &row.phase_shares {
        obj = obj.num(&format!("share_{name}_pct"), *pct);
    }
    obj
}

/// Renders one row for the stdout table.
pub fn trace_row_line(row: &TraceRow) -> String {
    let dp_share = row
        .phase_shares
        .iter()
        .find(|(n, _)| *n == "dp")
        .map_or(0.0, |(_, s)| *s);
    format!(
        "{:>9} {:>5} | {:>11.3} {:>11.3} {:>9.1} | {:>7} {:>9} {:>8} {:>10} {:>7.1}",
        row.workload,
        row.reps,
        row.untraced_ms,
        row.traced_ms,
        row.overhead_pct,
        row.spans,
        row.plans,
        row.pairs,
        row.oracle_probes,
        dp_share,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_query::extract::ExtractOptions;
    use ofw_workload::{grouping_query, GroupingQueryConfig};

    #[test]
    fn trace_cell_is_byte_identical_and_reports_shares() {
        let (catalog, query) = grouping_query(&GroupingQueryConfig {
            num_relations: 5,
            extra_edges: 1,
            seed: 11,
        });
        let ex = ofw_query::extract(&catalog, &query, &ExtractOptions::default());
        // The byte-identity assertion runs inside.
        let (row, trace) = trace_cell("unit", &catalog, &query, &ex, Enumerator::Auto, 2);
        assert!(row.spans > 0);
        assert!(!trace.records().is_empty());
        assert!(row.plans > 0 && row.oracle_probes > 0);
        let sum: f64 = row.phase_shares.iter().map(|(_, s)| s).sum();
        assert!(
            (sum - 100.0).abs() < 1.0,
            "phase shares should cover the ledger: {sum}"
        );
        // The Chrome export is well-formed enough to hand to a parser.
        let json = trace.chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }
}
