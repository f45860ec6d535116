//! What makes an op fail beyond returning `Err` or panicking.
//!
//! * plan ops with at most [`ORACLE_RELATIONS`] relations: the Simmen
//!   and explicit-set arms must reach the DFSM arm's optimal cost, and
//!   on `plan_repeat` the cached preparation must plan to the cost a
//!   cold preparation plans to;
//! * exec ops: the pooled executor's output must be byte-identical to
//!   the serial one, and at verification scale the winner's result must
//!   equal the naive evaluator's — never only the engine under test,
//!   and never the reference plan at full scale (it exhausts memory).

use crate::naive::{self, ResultDigest};
use crate::ops::{self, Report};
use crate::suites::{ExecCase, QueryCase};
use crate::trace::Tracer;
use crate::util::ms_since;
use ofw_parallel::ThreadPool;
use ofw_plangen::ExplicitOracle;
use ofw_simmen::SimmenFramework;

/// The oracle arms are exponential in places; the paper's comparison
/// stops at 10 relations and the cross-check here at 8.
pub const ORACLE_RELATIONS: usize = 8;

pub fn costs_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// The explicit-set arm materializes every derivable property set, so
/// it runs only where the prepared NFSM says those stay small: one
/// 5-relation star query with 415 NFSM nodes took it 2.5 s, the other
/// 74 checked queries of `plan_small` together 1 s.
pub const EXPLICIT_MAX_NFSM_NODES: u64 = 256;

/// Cross-checks one plan op's winner cost against the other arms.
/// Returns the Simmen arm's plan count for the comparison metrics.
pub fn check_plan_arms(case: &QueryCase, report: &Report, cached: bool) -> Result<u64, String> {
    let cost = report.cost;
    let ex = ops::extract(case);
    if cached {
        let fw = ops::prepare(&ex, None)?;
        let cold = ops::run_plangen(case, &ex, &fw).cost;
        if !costs_agree(cold, cost) {
            return Err(format!("cached prepare planned to {cost}, cold to {cold}"));
        }
    }
    if case.query.num_relations() > ORACLE_RELATIONS {
        return Ok(0);
    }
    let simmen = ops::run_plangen(case, &ex, &SimmenFramework::prepare(&ex.spec));
    if !costs_agree(simmen.cost, cost) {
        return Err(format!(
            "Simmen arm found cost {}, DFSM arm {cost}",
            simmen.cost
        ));
    }
    if report.counts.get("core.nfsm_nodes").copied().unwrap_or(0) <= EXPLICIT_MAX_NFSM_NODES {
        let explicit = ops::run_plangen(case, &ex, &ExplicitOracle::prepare(&ex.spec));
        if !costs_agree(explicit.cost, cost) {
            return Err(format!(
                "explicit arm found cost {}, DFSM arm {cost}",
                explicit.cost
            ));
        }
    }
    Ok(simmen.stats.plans as u64)
}

/// The failure `parallel.identity_failures` counts.
pub const NOT_IDENTICAL: &str = "pooled output is not byte-identical to the serial output";

/// Full-scale checks of one exec op: pooled ≡ serial, and the digest of
/// the plan-independent result (compared with `inputs.lock` by the
/// caller). Returns the digest and the pooled run's latency.
pub fn check_exec_full(
    case: &ExecCase,
    serial: &Report,
    pool: &ThreadPool,
) -> Result<(ResultDigest, f64), String> {
    let q = &case.case;
    let (report, planned, out) = ops::exec_query(q, &case.data, &mut Tracer::new(false))?;
    if !report.same_counts(serial) {
        return Err("counters differ from the timed passes".into());
    }
    let start = std::time::Instant::now();
    let (pooled, _) = ops::execute(q, &planned, planned.best, &case.data, pool)?;
    let pool_ms = ms_since(start);
    if pooled != out {
        return Err(NOT_IDENTICAL.into());
    }
    if out.num_rows() == 0 {
        return Err("the query returned no rows".into());
    }
    Ok((naive::digest_table(&q.query, &out)?, pool_ms))
}

/// Verification scale: the winner's result multiset must equal the
/// naive evaluator's.
pub fn check_exec_small(case: &ExecCase) -> Result<(), String> {
    let q = &case.case;
    let (_, _, out) = ops::exec_query(q, &case.small, &mut Tracer::new(false))?;
    let got = naive::canonical_rows(&q.query, &out)?;
    let want = naive::evaluate(&q.catalog, &q.query, &case.small);
    if got != want {
        return Err(format!(
            "result differs from the naive evaluator ({} rows against {})",
            got.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites::{exec_case, Shape};

    #[test]
    fn relative_cost_agreement() {
        assert!(costs_agree(1e12, 1e12 + 1.0));
        assert!(!costs_agree(1e12, 1.001e12));
        assert!(costs_agree(0.0, 1e-10));
    }

    #[test]
    fn the_engine_and_the_naive_evaluator_agree_on_small_data() {
        for shape in [
            Shape::Random {
                n: 4,
                extra: 1,
                seed: 3,
            },
            Shape::StarAgg {
                dimensions: 2,
                seed: 5,
            },
            Shape::Grouping {
                n: 3,
                extra: 0,
                seed: 2,
            },
            Shape::Q13Style,
        ] {
            let case = exec_case(&shape, 3_000, 1, 1);
            check_exec_small(&case).unwrap_or_else(|e| panic!("{shape:?}: {e}"));
        }
    }

    #[test]
    fn all_three_arms_agree_on_a_small_query() {
        let suite = crate::suites::build(crate::suites::Workload::PlanSmall, 1).suite;
        let crate::suites::Suite::Plan { cases, .. } = &suite else {
            unreachable!()
        };
        let report = ops::run_op(&suite, 0, &mut Tracer::new(false))
            .report
            .unwrap();
        let plans = check_plan_arms(&cases[0], &report, true).unwrap();
        assert!(plans > 0);
        let wrong = Report {
            cost: report.cost * 1.01,
            ..report
        };
        assert!(check_plan_arms(&cases[0], &wrong, false).is_err());
    }
}
