//! The ops: one client, one thread, each op a chain of calls into the
//! layers' public functions with a span around every call.
//!
//! * plan op — `extract → OrderingFramework::prepare → PlanGen::run`
//!   (through the shared `PreparedCache` on `plan_repeat`);
//! * prep op — `OrderingFramework::prepare` on a preparation spec;
//! * exec op — a plan op followed by `execute_plan` on the serial
//!   executor.
//!
//! Each op returns a [`Report`]: its deterministic counters (which must
//! repeat exactly from pass to pass) and the few timings the layers
//! themselves publish.

use crate::data::Columns;
use crate::suites::{PrepCase, QueryCase, Suite};
use crate::trace::Tracer;
use crate::util::ms_since;
use ofw_common::{OrderedExecutor, SerialExecutor};
use ofw_core::{OrderingFramework, PrepareOptions, PreparedCache, PruneConfig};
use ofw_exec::{execute_plan, ColTable, ExecOptions, ExecStats};
use ofw_obs::{PhaseStats, Trace};
use ofw_plangen::{OrderOracle, PlanGen, PlanGenResult, PlanId};
use ofw_query::extract::ExtractOptions;
use ofw_query::ExtractedQuery;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// `PlanGenStats::phases`, folded into the benchmark's fixed names.
/// Every `layer N` entry is DP work; a name this table does not know
/// goes to `other`, so the parts always sum to the ledger's total.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseLedger {
    pub bound: f64,
    pub base: f64,
    pub enumerate: f64,
    pub dp: f64,
    pub finalize: f64,
    pub pick_final: f64,
    pub other: f64,
}

impl PhaseLedger {
    pub fn fold(phases: &[PhaseStats]) -> PhaseLedger {
        let mut l = PhaseLedger::default();
        for p in phases {
            let ms = p.time.as_secs_f64() * 1e3;
            let slot = match p.name.as_str() {
                "bound" => &mut l.bound,
                "base" => &mut l.base,
                "enumerate" => &mut l.enumerate,
                "finalize" => &mut l.finalize,
                "pick_final" => &mut l.pick_final,
                name if name.starts_with("layer ") => &mut l.dp,
                _ => &mut l.other,
            };
            *slot += ms;
        }
        l
    }

    pub fn parts(&self) -> [f64; 7] {
        [
            self.bound,
            self.base,
            self.enumerate,
            self.dp,
            self.finalize,
            self.pick_final,
            self.other,
        ]
    }

    #[cfg(test)]
    pub fn total(&self) -> f64 {
        self.parts().iter().sum()
    }
}

/// What one execution of one op reported.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Winner cost (0 for prep ops).
    pub cost: f64,
    /// Deterministic counters by metric name.
    pub counts: BTreeMap<&'static str, u64>,
    pub phases: PhaseLedger,
    /// Rows each operator class produced (`PlanOp::name` → rows).
    pub op_rows: BTreeMap<&'static str, u64>,
}

impl Report {
    /// Same deterministic content? (The phase ledger is wall-clock.)
    pub fn same_counts(&self, other: &Report) -> bool {
        self.cost.to_bits() == other.cost.to_bits()
            && self.counts == other.counts
            && self.op_rows == other.op_rows
    }
}

pub fn extract(case: &QueryCase) -> ExtractedQuery {
    ofw_query::extract(&case.catalog, &case.query, &ExtractOptions::default())
}

/// Cold preparation, or through `cache` when there is one.
pub fn prepare(
    ex: &ExtractedQuery,
    cache: Option<&PreparedCache>,
) -> Result<OrderingFramework, String> {
    match cache {
        None => OrderingFramework::prepare(&ex.spec, PruneConfig::default()),
        Some(cache) => OrderingFramework::prepare_cached(
            &ex.spec,
            PruneConfig::default(),
            &PrepareOptions::default(),
            cache,
        ),
    }
    .map_err(|e| format!("prepare: {e:?}"))
}

fn count_extract(r: &mut Report, ex: &ExtractedQuery) {
    let props = ex.spec.produced().len() + ex.spec.tested().len();
    r.counts.insert("query.props", props as u64);
    r.counts
        .insert("query.fd_sets", ex.spec.fd_sets().len() as u64);
}

fn count_prepare(r: &mut Report, fw: &OrderingFramework) {
    let s = fw.stats();
    r.counts.insert("core.nfsm_nodes", s.nfsm_nodes as u64);
    r.counts.insert("core.nfsm_edges", s.nfsm_edges as u64);
    r.counts.insert("core.dfsm_states", s.dfsm_states as u64);
    r.counts
        .insert("core.precomputed_bytes", s.precomputed_bytes as u64);
    r.counts
        .insert("core.cache_hits", u64::from(s.interned_hit));
}

/// Checks the winner and copies the run's counters into the report.
pub fn count_plan<S: Copy>(
    r: &mut Report,
    case: &QueryCase,
    result: &PlanGenResult<S>,
) -> Result<(), String> {
    if !result.cost.is_finite() {
        return Err(format!("winner cost {}", result.cost));
    }
    if result.arena.node(result.best).mask != case.query.all_relations_set() {
        return Err("winner does not cover every relation".into());
    }
    let s = &result.stats;
    let d = &s.decisions;
    r.cost = result.cost;
    r.phases = PhaseLedger::fold(&s.phases);
    for (name, value) in [
        ("plangen.plans", s.plans as u64),
        ("plangen.pairs_considered", s.pairs_considered),
        ("plangen.pairs_emitted", s.pairs_emitted),
        ("plangen.unions", s.unions),
        ("plangen.oracle_probes", d.probes.total()),
        ("plangen.memo_hits", d.probes.dominance_memo_hits),
        ("plangen.pruned_kept", d.pruning.kept_total()),
        ("plangen.pruned_dominated", d.pruning.dominated_total()),
        ("plangen.bound_pruned", d.pruning.bound_pruned),
        ("plangen.enforcers_admitted", d.enforcers.admitted_total()),
        ("plangen.enforcers_won", d.enforcers.won_total()),
        ("plangen.fallbacks", u64::from(s.fallback)),
        ("plangen.order_mem_bytes", s.memory_bytes as u64),
    ] {
        r.counts.insert(name, value);
    }
    Ok(())
}

pub fn run_plangen<'a, O>(
    case: &'a QueryCase,
    ex: &'a ExtractedQuery,
    oracle: &'a O,
) -> PlanGenResult<O::State>
where
    O: OrderOracle + Sync,
    O::Key: Sync,
    O::State: Send + Sync,
{
    PlanGen::new(&case.catalog, &case.query, ex, oracle).run()
}

/// A plan op's result: the DFSM arm's winner and arena.
pub type Planned = PlanGenResult<ofw_core::State>;

/// `extract → prepare → PlanGen::run`, each inside its span.
pub fn plan_query(
    case: &QueryCase,
    cache: Option<&PreparedCache>,
    tr: &mut Tracer,
) -> Result<(Report, Planned), String> {
    let mut r = Report::default();
    let ex = tr.scope("query.extract", |_| extract(case));
    let fw = tr.scope("core.prepare", |_| prepare(&ex, cache))?;
    let planned = tr.scope("plangen.run", |_| run_plangen(case, &ex, &fw));
    count_extract(&mut r, &ex);
    count_prepare(&mut r, &fw);
    count_plan(&mut r, case, &planned)?;
    Ok((r, planned))
}

fn prep_op(case: &PrepCase, tr: &mut Tracer) -> Result<Report, String> {
    let mut r = Report::default();
    let fw = tr.scope("core.prepare", |_| {
        OrderingFramework::prepare(&case.spec, PruneConfig::default())
            .map_err(|e| format!("prepare: {e:?}"))
    })?;
    count_prepare(&mut r, &fw);
    Ok(r)
}

/// Executes the subtree rooted at `root` of a planned query.
pub fn execute<E: OrderedExecutor>(
    case: &QueryCase,
    planned: &Planned,
    root: PlanId,
    data: &Columns,
    executor: &E,
) -> Result<(ColTable, ExecStats), String> {
    execute_plan(
        &planned.arena,
        root,
        &case.catalog,
        &case.query,
        data,
        executor,
        &ExecOptions::default(),
        &Trace::disabled(),
    )
    .map_err(|e| format!("execute: {e}"))
}

pub fn count_exec(r: &mut Report, stats: &ExecStats) {
    r.counts.insert("exec.rows_out", stats.rows_out);
    r.counts.insert("exec.morsels", stats.morsels);
    let processed = stats.ops.values().map(|s| s.rows).sum();
    r.counts.insert("exec.rows_processed", processed);
    for (&op, stat) in &stats.ops {
        r.op_rows.insert(op, stat.rows);
    }
}

/// Plans `case` and executes the winner serially over `data`.
pub fn exec_query(
    case: &QueryCase,
    data: &Columns,
    tr: &mut Tracer,
) -> Result<(Report, Planned, ColTable), String> {
    let (mut r, planned) = plan_query(case, None, tr)?;
    let (out, stats) = tr.scope("exec.run", |_| {
        execute(case, &planned, planned.best, data, &SerialExecutor)
    })?;
    count_exec(&mut r, &stats);
    Ok((r, planned, out))
}

/// One op's latency in milliseconds and what it reported; a panic or an
/// `Err` inside the op is that op's failure, not the run's.
pub struct Executed {
    pub ms: f64,
    pub report: Result<Report, String>,
}

/// Runs op `op` of `suite` inside an `op` span, timed from the first
/// layer call to the release of everything the op built.
pub fn run_op(suite: &Suite, op: usize, tr: &mut Tracer) -> Executed {
    let start = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        tr.scope("op", |tr| match suite {
            Suite::Plan { cases, cache } => {
                plan_query(&cases[op], cache.as_ref(), tr).map(|(r, _)| r)
            }
            Suite::Prep(cases) => prep_op(&cases[op], tr),
            Suite::Exec(cases) => exec_query(&cases[op].case, &cases[op].data, tr).map(|(r, ..)| r),
        })
    }));
    let ms = ms_since(start);
    let report = outcome.unwrap_or_else(|panic| {
        tr.unwind();
        let text = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("panic");
        Err(format!("panicked: {text}"))
    });
    Executed { ms, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn phase(name: &str, ms: u64) -> PhaseStats {
        PhaseStats {
            name: name.into(),
            time: Duration::from_millis(ms),
            ..PhaseStats::default()
        }
    }

    #[test]
    fn unknown_phases_fold_into_other_and_the_parts_sum_to_the_total() {
        let phases = [
            phase("bound", 3),
            phase("base", 1),
            phase("enumerate", 2),
            phase("layer 1", 10),
            phase("layer 2", 20),
            phase("finalize", 4),
            phase("pick_final", 5),
            phase("rewrite_subqueries", 7),
        ];
        let l = PhaseLedger::fold(&phases);
        assert_eq!(l.dp, 30.0);
        assert_eq!(l.other, 7.0);
        assert_eq!(l.bound, 3.0);
        let ledger_total: f64 = phases.iter().map(|p| p.time.as_secs_f64() * 1e3).sum();
        assert!((l.total() - ledger_total).abs() < 1e-9);
    }

    #[test]
    fn a_panicking_op_is_one_failed_op() {
        // An empty prep suite has no op 0: indexing panics inside the op.
        let suite = Suite::Prep(Vec::new());
        let mut tr = Tracer::new(true);
        let done = run_op(&suite, 0, &mut tr);
        assert!(done.report.unwrap_err().starts_with("panicked"));
        // The tracer is usable again: the dead span was closed.
        assert_eq!(tr.scope("next", |_| 1), 1);
        assert_eq!(tr.spans().last().unwrap().parent, None);
    }

    #[test]
    fn plan_ops_repeat_their_counters() {
        let suite = crate::suites::build(crate::suites::Workload::PlanSmall, 3).suite;
        let mut tr = Tracer::new(false);
        let a = run_op(&suite, 0, &mut tr).report.unwrap();
        let b = run_op(&suite, 0, &mut tr).report.unwrap();
        assert!(a.same_counts(&b));
        assert!(a.cost > 0.0);
        assert!(a.counts["plangen.plans"] > 0);
        assert!((a.phases.total() - a.phases.parts().iter().sum::<f64>()).abs() < 1e-12);
    }
}
