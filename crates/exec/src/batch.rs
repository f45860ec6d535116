//! Columnar batches: the executor's table representation.
//!
//! A [`ColTable`] is a set of parallel `i64` column vectors with a
//! schema of [`ColRef`]s. Besides plain attribute columns it carries the
//! executor's aggregate bookkeeping:
//!
//! * a **weight** column — how many logical tuples each physical row
//!   represents (materialized only once a partial aggregate collapses
//!   rows; an absent column means every weight is 1);
//! * **accumulator** columns, one per aggregate call — the partial
//!   per-call fold over the logical tuples the row represents
//!   (materialized by an eager partial aggregate, finalized by the
//!   final one).
//!
//! The invariant that makes eager aggregation compose through joins:
//! for a physical row `r` with weight `w`, `Acc(i)[r]` is the call-`i`
//! fold over *all* `w` logical tuples `r` stands for. A join of rows
//! with weights `w_l`, `w_r` represents `w_l · w_r` logical tuples, so
//! the output weight multiplies and `sum` accumulators scale by the
//! partner side's weight (`min`/`max` pass through; `count` needs no
//! accumulator at all — its value *is* the weight).
//!
//! Attribute columns always survive an aggregate as first-row-per-group
//! representatives, mirroring the tuple-at-a-time reference executor
//! ([`execute_reference`](crate::execute_reference)) byte for byte;
//! weight and accumulator columns are appended after them.

use ofw_catalog::AttrId;
use ofw_common::FxHashSet;

/// A column reference: what a [`ColTable`] column holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ColRef {
    /// A query attribute's values.
    Attr(AttrId),
    /// Logical tuples represented per row (absent column ⇒ all 1).
    Weight,
    /// Partial accumulator of aggregate call `i` (index into
    /// `Query::aggregates`).
    Acc(usize),
}

/// A columnar table: schema plus parallel column vectors. `PartialEq`
/// compares schema and columns — *byte identity*, the relation the
/// morsel-size determinism tests assert.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ColTable {
    /// What each column holds, in column order.
    pub schema: Vec<ColRef>,
    /// Column vectors, parallel to `schema`, all the same length.
    pub cols: Vec<Vec<i64>>,
    rows: usize,
}

impl ColTable {
    /// Builds a table from a schema and matching columns.
    pub fn new(schema: Vec<ColRef>, cols: Vec<Vec<i64>>) -> Self {
        assert_eq!(schema.len(), cols.len(), "schema/column arity mismatch");
        let rows = cols.first().map_or(0, Vec::len);
        for c in &cols {
            assert_eq!(c.len(), rows, "ragged columns");
        }
        ColTable { schema, cols, rows }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The column holding `what`, if present.
    pub fn col(&self, what: ColRef) -> Option<&[i64]> {
        let i = self.schema.iter().position(|&c| c == what)?;
        Some(&self.cols[i])
    }

    /// The attribute ids of the attribute columns, in column order.
    pub fn attr_ids(&self) -> Vec<AttrId> {
        self.schema
            .iter()
            .filter_map(|c| match c {
                ColRef::Attr(a) => Some(*a),
                _ => None,
            })
            .collect()
    }

    /// The weight of row `r` (1 when no weight column exists).
    pub fn weight(&self, r: usize) -> i64 {
        self.col(ColRef::Weight).map_or(1, |w| w[r])
    }

    fn attr_cols(&self, attrs: &[AttrId]) -> Vec<&[i64]> {
        attrs
            .iter()
            .map(|&a| {
                self.col(ColRef::Attr(a)).unwrap_or_else(|| {
                    panic!("attribute {a:?} not in batch schema {:?}", self.schema)
                })
            })
            .collect()
    }

    /// Does the physical row sequence satisfy the logical ordering
    /// `attrs` (lexicographically non-decreasing)? The §2 satisfaction
    /// condition, evaluated directly on the columns.
    pub fn satisfies_ordering(&self, attrs: &[AttrId]) -> bool {
        let cols = self.attr_cols(attrs);
        (1..self.rows).all(|r| {
            cols.iter()
                .map(|c| c[r - 1].cmp(&c[r]))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
                .is_le()
        })
    }

    /// Does the physical row sequence satisfy the logical *grouping*
    /// over `attrs` — all rows equal on `attrs` consecutive? The
    /// VLDB'04 grouping-satisfaction condition, evaluated directly: a
    /// row that differs from its predecessor starts a run, and a run
    /// whose key an earlier run had resumes a group.
    pub fn satisfies_grouping(&self, attrs: &[AttrId]) -> bool {
        let cols = self.attr_cols(attrs);
        let mut seen = FxHashSet::default();
        (0..self.rows).all(|r| {
            let continues = r > 0 && cols.iter().all(|c| c[r - 1] == c[r]);
            continues || seen.insert(cols.iter().map(|c| c[r]).collect::<Vec<i64>>())
        })
    }

    /// Does the row sequence satisfy the *head/tail pair* — equal-`head`
    /// rows consecutive and sorted by `tail` within each run?
    pub fn satisfies_head_tail(&self, head: &[AttrId], tail: &[AttrId]) -> bool {
        if !self.satisfies_grouping(head) {
            return false;
        }
        let hcols = self.attr_cols(head);
        let tcols = self.attr_cols(tail);
        (1..self.rows).all(|r| {
            let same_group = hcols.iter().all(|c| c[r - 1] == c[r]);
            if !same_group {
                return true; // the tail only constrains within a group
            }
            tcols
                .iter()
                .map(|c| c[r - 1].cmp(&c[r]))
                .find(|o| !o.is_eq())
                .unwrap_or(std::cmp::Ordering::Equal)
                .is_le()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn property_checks_match_the_legacy_semantics() {
        // Orderings are lexicographic; the empty ordering always holds.
        let t = table(&[[1, 5], [1, 7], [2, 0]]);
        assert!(t.satisfies_ordering(&[A]));
        assert!(t.satisfies_ordering(&[A, B]));
        assert!(!t.satisfies_ordering(&[B]));
        assert!(t.satisfies_ordering(&[]));
        // Ties do not break an ordering.
        let ties = table(&[[1, 1], [1, 1], [1, 2]]);
        assert!(ties.satisfies_ordering(&[A, B]));
        assert!(ties.satisfies_ordering(&[B, A]));

        // Groupings ask for adjacency, not order; a group that resumes
        // after another breaks it; the empty key groups any stream.
        let grouped = table(&[[2, 0], [2, 1], [1, 0], [3, 0]]);
        assert!(grouped.satisfies_grouping(&[A]));
        assert!(!grouped.satisfies_ordering(&[A]), "grouped ≠ sorted");
        assert!(grouped.satisfies_grouping(&[]));
        let broken = table(&[[2, 0], [1, 0], [2, 1]]);
        assert!(!broken.satisfies_grouping(&[A]));
        assert!(broken.satisfies_grouping(&[]));
        assert!(!table(&[[2, 0], [2, 1], [1, 0], [2, 0]]).satisfies_grouping(&[A, B]));
        assert!(table(&[[2, 0], [2, 1], [1, 0], [2, 2]]).satisfies_grouping(&[A, B]));
        assert!(table(&[]).satisfies_grouping(&[A]));

        // Head/tail pairs: grouped on the head, ordered by the tail
        // within each group, in any order across groups.
        let ht = table(&[[2, 0], [2, 1], [1, 3], [1, 9]]);
        assert!(ht.satisfies_head_tail(&[A], &[B]));
        assert!(!table(&[[2, 1], [2, 0]]).satisfies_head_tail(&[A], &[B]));
        assert!(!broken.satisfies_head_tail(&[A], &[]));
    }

    #[test]
    fn weight_defaults_to_one_and_reads_the_column() {
        let mut t = table(&[[1, 5], [2, 7]]);
        assert_eq!(t.weight(0), 1);
        t.schema.push(ColRef::Weight);
        t.cols.push(vec![3, 4]);
        assert_eq!(t.weight(1), 4);
        assert_eq!(t.col(ColRef::Weight), Some(&[3i64, 4][..]));
        assert_eq!(t.col(ColRef::Acc(0)), None);
    }
}
