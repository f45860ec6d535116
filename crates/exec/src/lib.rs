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
//!   (`satisfies_ordering`/`grouping`/`head_tail`, evaluated from their
//!   definitions) the harness asserts on every intermediate.
//! * [`engine`] — one vectorized operator per [`PlanOp`] variant,
//!   run serially a fixed-size morsel at a time, each morsel's results
//!   written in place in morsel order, so output is **byte-identical at
//!   any morsel size**. Operators hand each other
//!   `u32` row ids into the base columns, and the attribute columns are
//!   gathered once, at the plan root; one stable radix sort kernel
//!   serves `Sort`, `PartialSort` and `IndexScan`.
//! * `hash` (private) — the flat bucket/chain hash kernels behind hash
//!   join, the group join's join half, hash aggregation and hash
//!   grouping (keys are compared through the input columns and their
//!   row ids, never copied; the join probe writes every candidate and
//!   keeps the matches without a branch), and the run finder behind
//!   streaming aggregation.
//! * [`mod@reference`] — the tuple-at-a-time [`execute_reference`],
//!   whose row streams the engine's must equal byte for byte, the
//!   canonical left-deep, root-only-aggregation reference plan and the
//!   multiset [`result_signature`] the differential correctness harness
//!   compares across the DP plan, the reference plan and all three
//!   order-oracle arms.
//!
//! [`PlanOp`]: ofw_plangen::PlanOp

#![forbid(unsafe_code)]

pub mod batch;
pub mod engine;
mod hash;
pub mod reference;

pub use batch::{ColRef, ColTable};
pub use engine::{
    execute_plan, execute_serial, ExecError, ExecOptions, ExecStats, OpStat, MORSEL_ROWS,
};
pub use reference::{execute_reference, reference_plan, result_signature};

/// The satisfaction checks, one test per condition, on the cases that
/// first pinned them when they were methods of the row-major executor's
/// table; `batch`'s property-check test adds the grouping edge cases
/// and head/tail pairs.
#[cfg(test)]
mod exec {
    mod tests {
        use crate::{ColRef, ColTable};
        use ofw_catalog::AttrId;

        const A: AttrId = AttrId(0);
        const B: AttrId = AttrId(1);

        fn table(rows: &[[i64; 2]]) -> ColTable {
            ColTable::new(
                vec![ColRef::Attr(A), ColRef::Attr(B)],
                vec![
                    rows.iter().map(|r| r[0]).collect(),
                    rows.iter().map(|r| r[1]).collect(),
                ],
            )
        }

        #[test]
        fn satisfies_ordering_is_lexicographic() {
            let t = table(&[[1, 5], [1, 7], [2, 0]]);
            assert!(t.satisfies_ordering(&[A]));
            assert!(t.satisfies_ordering(&[A, B]));
            assert!(!t.satisfies_ordering(&[B]));
            assert!(t.satisfies_ordering(&[]));
        }

        #[test]
        fn ties_do_not_break_ordering() {
            let t = table(&[[1, 1], [1, 1], [1, 2]]);
            assert!(t.satisfies_ordering(&[A, B]));
            assert!(t.satisfies_ordering(&[B, A]));
        }

        #[test]
        fn satisfies_grouping_checks_adjacency() {
            let grouped = table(&[[2, 0], [2, 1], [1, 0], [3, 0]]);
            assert!(grouped.satisfies_grouping(&[A]));
            assert!(!grouped.satisfies_ordering(&[A]), "grouped ≠ sorted");
            let broken = table(&[[2, 0], [1, 0], [2, 1]]);
            assert!(!broken.satisfies_grouping(&[A]));
            assert!(grouped.satisfies_grouping(&[]));
        }
    }
}
