//! Morsel-driven vectorized execution for the order-framework planner.
//!
//! The DP plan generator (`ofw-plangen`) produces physical plans whose
//! quality claims — interesting orders exploited, aggregates pushed
//! below joins, partial sorts instead of full ones — were until now
//! only checked symbolically. This crate *runs* those plans:
//!
//! * [`batch`] — the columnar [`ColTable`] representation, including
//!   the weight/accumulator columns that make eager partial aggregation
//!   compose through joins, and the physical property checks
//!   (`satisfies_ordering`/`grouping`/`head_tail`) the harness asserts
//!   on every intermediate.
//! * [`engine`] — one vectorized operator per [`PlanOp`] variant,
//!   morsel-parallel on any [`OrderedExecutor`](ofw_common::OrderedExecutor)
//!   with fixed-size morsels merged in index order, so output is
//!   **byte-identical at any thread count**. Operators hand each other
//!   `u32` row ids into the base columns, and the attribute columns are
//!   gathered once, at the plan root; one stable radix sort kernel
//!   serves `Sort`, `PartialSort` and `IndexScan`.
//! * `hash` (private) — the flat bucket/chain hash kernels behind hash
//!   join, the group join's join half, hash aggregation and hash
//!   grouping (keys are compared through the input columns and their
//!   row ids, never copied; the join probe writes every candidate and
//!   keeps the matches without a branch), and the run finder behind
//!   streaming aggregation and the grouping check.
//! * [`mod@reference`] — the canonical left-deep, root-only-aggregation
//!   reference plan and the multiset [`result_signature`] the
//!   differential correctness harness compares across the DP plan, the
//!   reference plan and all three order-oracle arms.
//!
//! [`PlanOp`]: ofw_plangen::PlanOp

#![forbid(unsafe_code)]

pub mod batch;
pub mod engine;
mod hash;
pub mod reference;

pub use batch::{columns_from_tables, ColRef, ColTable};
pub use engine::{
    execute_plan, execute_serial, ExecError, ExecOptions, ExecStats, OpStat, MORSEL_ROWS,
};
pub use reference::{reference_plan, result_signature};
