//! # ofw-workload — experiment workloads
//!
//! The workload families of the paper's evaluation, plus the grouping
//! extension's:
//!
//! * [`random`] — randomly generated join queries: "we generated queries
//!   with 5–10 relations and a varying number of join predicates … We
//!   always started from a chain query and then randomly added some
//!   edges" (§7, Figs. 13–14). Fully deterministic given a seed.
//! * [`tpch`] — TPC-R Query 8 exactly as analyzed in §6.2: eight
//!   relations, seven equi-join predicates, two constant predicates, a
//!   date range filter and `group by o_year`.
//! * [`grouping`] — grouping-heavy workloads for the combined
//!   ordering + grouping framework: random join graphs with `group by`
//!   / `select distinct` requirements, and a TPC-H-style aggregation
//!   query rewarding early hash-grouping.
//! * [`large`] — chain/star/clique topologies sized for the parallel-DP
//!   scaling sweeps (10–100 relations, incl. the >64-relation regime).
//! * [`aggregation`] — star-schema aggregation queries with selective
//!   group keys and distinct-value statistics, the workload class where
//!   eager aggregation push-down and group-joins pay off.
//! * [`data`] — deterministic column-major base data scaled to the
//!   catalog's cardinality and distinct-value statistics, feeding the
//!   vectorized executor's differential harness and benches.
//! * [`prep`] — preparation-stress `InputSpec`s made of independent
//!   property families over disjoint attribute blocks, sized into the
//!   hundreds of interesting orders for the pipeline benchmark's
//!   `prep_heavy` workload.

pub mod aggregation;
pub mod data;
pub mod grouping;
pub mod large;
pub mod prep;
pub mod random;
pub mod tpch;

pub use aggregation::{
    groupjoin_showcase_query, partialsort_showcase_query, star_agg_query, star_agg_query_ordered,
    StarAggConfig,
};
pub use data::{generate_columns, DataConfig};
pub use grouping::{grouping_query, q13_style_query, GroupingQueryConfig};
pub use large::{large_query, LargeQueryConfig, Topology};
pub use prep::{prep_spec, PrepSpecConfig};
pub use random::{random_query, RandomQueryConfig};
pub use tpch::q8_query;
