//! The parallel plan-generation driver: the DP of `ofw-plangen`
//! executed on the work-stealing pool.
//!
//! The DP core schedules work as **csg-cmp work-list batches**: each
//! [`ofw_plangen::Enumerator`] emits batches of union work items whose
//! input subsets are all committed by earlier batches — one batch per
//! subset size for the exhaustive enumerators, one per window×size for
//! the linearized fallback. Within a batch every item is independent,
//! so the driver hands the batch to the pool as chunks. Each chunk
//! builds its subsets' Pareto sets in a thread-local arena; the batch
//! barrier then merges the per-subset arenas into the global plan table
//! in the batch's deterministic item order. The result is byte-
//! identical to the serial driver regardless of thread count — the
//! entire schedule dependence is erased by the ordered merge.
//!
//! The oracle is shared read-mostly across workers (`O: Sync`), which is
//! exactly the property the paper's DFSM framework optimizes for: its
//! per-plan state is a 4-byte handle into precomputed, immutable tables,
//! so parallel probes contend on nothing. The Simmen baseline and the
//! explicit-set oracle keep their memoization caches behind a mutex and
//! pay for it — faithfully reproducing their cost profile at scale.

use crate::pool::ThreadPool;
use ofw_catalog::Catalog;
use ofw_plangen::{OrderOracle, PlanGen, PlanGenResult};
use ofw_query::{ExtractedQuery, Query};

/// Plans `query` with the DP sharded across `pool`. Produces exactly the
/// plan table and winner the serial `PlanGen::run` produces — same
/// plans, same costs, same arena layout — just faster on multicore.
/// (Per-node oracle *state handles* are additionally bit-equal for the
/// DFSM framework, whose states are precomputed; the mutex-memoizing
/// oracles intern handles first-come, so bit-equality there needs the
/// oracle warmed by a serial run on the same instance — the states are
/// always semantically equal either way.)
pub fn plan_parallel<O>(
    catalog: &Catalog,
    query: &Query,
    ex: &ExtractedQuery,
    oracle: &O,
    pool: &ThreadPool,
) -> PlanGenResult<O::State>
where
    O: OrderOracle + Sync,
    O::Key: Sync,
    O::State: Send + Sync,
{
    PlanGen::new(catalog, query, ex, oracle).run_with(pool)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_core::{OrderingFramework, PruneConfig};
    use ofw_plangen::Enumerator;
    use ofw_query::extract::ExtractOptions;
    use ofw_query::QueryBuilder;

    #[test]
    fn parallel_driver_matches_serial_output() {
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
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();

        let serial = PlanGen::new(&c, &q, &ex, &fw).run();
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let par = plan_parallel(&c, &q, &ex, &fw, &pool);
            assert_eq!(par.best, serial.best, "threads={threads}");
            assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
            assert_eq!(par.stats.plans, serial.stats.plans);
        }
    }

    /// DPhyp under the pool: same winner, cost and plan count as the
    /// serial size-layered DP, at every thread count.
    #[test]
    fn dphyp_under_the_pool_matches_serial_dpsize() {
        let (c, q) = ofw_workload::large_query(&ofw_workload::LargeQueryConfig {
            topology: ofw_workload::Topology::Cycle,
            num_relations: 10,
            seed: 42,
        });
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();

        let serial = PlanGen::new(&c, &q, &ex, &fw).run();
        assert_eq!(serial.stats.enumerator, "dpsize");
        for threads in [1, 2, 4] {
            let pool = ThreadPool::new(threads);
            let par = PlanGen::new(&c, &q, &ex, &fw)
                .enumerator(Enumerator::DpHyp)
                .run_with(&pool);
            assert_eq!(par.stats.enumerator, "dphyp");
            assert_eq!(par.best, serial.best, "threads={threads}");
            assert_eq!(par.cost.to_bits(), serial.cost.to_bits());
            assert_eq!(par.stats.plans, serial.stats.plans);
            assert_eq!(par.stats.pairs_emitted, serial.stats.pairs_emitted);
            assert!(par.stats.pairs_considered < serial.stats.pairs_considered);
        }
    }
}
