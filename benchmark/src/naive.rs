//! An independent evaluator and the canonical form of a query result.
//!
//! A benchmark that checks the engine's output only against the engine
//! checks nothing, and the repository's reference plan runs through the
//! same operators (and exhausts memory at full scale). [`evaluate`]
//! computes a query directly — selections, equi-joins in query order,
//! grouping and SUM/COUNT/MIN/MAX — sharing no code with `ofw-exec`.
//! It is quadratic in places and meant for a few thousand base rows.
//!
//! The canonical result is plan-independent: group keys followed by one
//! value per aggregate call for a grouping query, the bare keys for
//! `group by`/`distinct` without aggregates, and otherwise every
//! attribute of every relation in `AttrId` order — as a sorted multiset
//! of rows, or as a commutative hash of it at full scale.

use crate::data::Columns;
use crate::util::Hasher64;
use ofw_catalog::{AttrId, Catalog};
use ofw_exec::{ColRef, ColTable};
use ofw_plangen::exec::CONST_VALUE;
use ofw_query::{AggFunc, Query};
use std::collections::{BTreeMap, HashMap};

/// Row count and order-independent hash of a result multiset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResultDigest {
    pub rows: u64,
    pub hash: u64,
}

fn row_hash(row: impl Iterator<Item = i64>) -> u64 {
    let mut h = Hasher64::default();
    row.for_each(|v| h.int(v));
    h.finish()
}

/// Sums and xors the row hashes, so equal multisets digest equally in
/// any row order.
fn digest(row_hashes: impl Iterator<Item = u64>) -> ResultDigest {
    let (mut rows, mut sum, mut xor) = (0u64, 0u64, 0u64);
    for h in row_hashes {
        rows += 1;
        sum = sum.wrapping_add(h);
        xor ^= h.rotate_left(17);
    }
    let mut h = Hasher64::default();
    h.word(rows);
    h.word(sum);
    h.word(xor);
    ResultDigest {
        rows,
        hash: h.finish(),
    }
}

#[cfg(test)]
pub fn digest_rows(rows: &[Vec<i64>]) -> ResultDigest {
    digest(rows.iter().map(|r| row_hash(r.iter().copied())))
}

/// The engine's output columns that make up the canonical result.
fn canonical_columns<'a>(query: &Query, out: &'a ColTable) -> Result<Vec<&'a [i64]>, String> {
    let col = |what: ColRef| {
        out.col(what)
            .ok_or_else(|| format!("result has no column {what:?}"))
    };
    let keys = query.effective_group_by();
    if keys.is_empty() {
        let mut attrs = out.attr_ids();
        attrs.sort_unstable_by_key(|a| a.0);
        return attrs.into_iter().map(|a| col(ColRef::Attr(a))).collect();
    }
    keys.iter()
        .map(|&a| col(ColRef::Attr(a)))
        .chain((0..query.aggregates.len()).map(|i| col(ColRef::Acc(i))))
        .collect()
}

pub fn canonical_rows(query: &Query, out: &ColTable) -> Result<Vec<Vec<i64>>, String> {
    let cols = canonical_columns(query, out)?;
    let mut rows: Vec<Vec<i64>> = (0..out.num_rows())
        .map(|r| cols.iter().map(|c| c[r]).collect())
        .collect();
    rows.sort_unstable();
    Ok(rows)
}

pub fn digest_table(query: &Query, out: &ColTable) -> Result<ResultDigest, String> {
    let cols = canonical_columns(query, out)?;
    Ok(digest(
        (0..out.num_rows()).map(|r| row_hash(cols.iter().map(|c| c[r]))),
    ))
}

/// One relation's tuples after its constant (`= 0`) and filter (`≤ 1`)
/// predicates — the stand-ins the planner's executor defines.
fn selected_rows(catalog: &Catalog, query: &Query, data: &Columns, qrel: usize) -> Vec<Vec<i64>> {
    let attrs = &catalog.relation(query.relations[qrel]).attrs;
    let pos = |a: AttrId| attrs.iter().position(|&x| x == a);
    let constants: Vec<usize> = query.constants.iter().filter_map(|c| pos(c.attr)).collect();
    let filters: Vec<usize> = query.filters.iter().filter_map(|f| pos(f.attr)).collect();
    let cols = &data[qrel];
    (0..cols.first().map_or(0, Vec::len))
        .filter(|&r| {
            constants.iter().all(|&c| cols[c][r] == CONST_VALUE)
                && filters.iter().all(|&c| cols[c][r] <= 1)
        })
        .map(|r| cols.iter().map(|c| c[r]).collect())
        .collect()
}

/// Evaluates `query` over `data` and returns the canonical rows.
pub fn evaluate(catalog: &Catalog, query: &Query, data: &Columns) -> Vec<Vec<i64>> {
    let rel_attrs = |q: usize| catalog.relation(query.relations[q]).attrs.clone();
    let mut schema: Vec<AttrId> = rel_attrs(0);
    let mut tuples = selected_rows(catalog, query, data, 0);
    let mut joined = vec![false; query.num_relations()];
    joined[0] = true;
    while let Some(next) = (0..query.num_relations()).find(|&q| {
        !joined[q]
            && query.joins.iter().any(|j| {
                joined[query.owner(j.left)] != joined[query.owner(j.right)]
                    && (query.owner(j.left) == q || query.owner(j.right) == q)
            })
    }) {
        let next_attrs = rel_attrs(next);
        // (position in the joined prefix, position in the new relation)
        // for every predicate between them.
        let on: Vec<(usize, usize)> = query
            .joins
            .iter()
            .filter_map(|j| {
                let (lo, ro) = (query.owner(j.left), query.owner(j.right));
                let (inner, outer) = if ro == next && joined[lo] {
                    (j.left, j.right)
                } else if lo == next && joined[ro] {
                    (j.right, j.left)
                } else {
                    return None;
                };
                Some((
                    schema.iter().position(|&a| a == inner)?,
                    next_attrs.iter().position(|&a| a == outer)?,
                ))
            })
            .collect();
        let mut index: HashMap<Vec<i64>, Vec<Vec<i64>>> = HashMap::new();
        for row in selected_rows(catalog, query, data, next) {
            let key = on.iter().map(|&(_, r)| row[r]).collect();
            index.entry(key).or_default().push(row);
        }
        tuples = tuples
            .into_iter()
            .flat_map(|t| {
                let key: Vec<i64> = on.iter().map(|&(l, _)| t[l]).collect();
                let matches = index.get(&key).map_or(&[][..], Vec::as_slice);
                matches
                    .iter()
                    .map(|m| t.iter().chain(m).copied().collect::<Vec<i64>>())
                    .collect::<Vec<_>>()
            })
            .collect();
        schema.extend(next_attrs);
        joined[next] = true;
    }
    assert!(joined.iter().all(|&j| j), "the join graph is connected");

    let at = |a: AttrId| {
        schema
            .iter()
            .position(|&x| x == a)
            .expect("attribute of a joined relation")
    };
    let keys: Vec<usize> = query.effective_group_by().iter().map(|&a| at(a)).collect();
    if keys.is_empty() {
        let mut order: Vec<(AttrId, usize)> = schema.iter().copied().zip(0..).collect();
        order.sort_unstable_by_key(|&(a, _)| a.0);
        let mut rows: Vec<Vec<i64>> = tuples
            .iter()
            .map(|t| order.iter().map(|&(_, p)| t[p]).collect())
            .collect();
        rows.sort_unstable();
        return rows;
    }
    let inputs: Vec<Option<usize>> = query.aggregates.iter().map(|c| c.input.map(at)).collect();
    let mut groups: BTreeMap<Vec<i64>, Vec<i64>> = BTreeMap::new();
    for t in &tuples {
        let key: Vec<i64> = keys.iter().map(|&p| t[p]).collect();
        let value = |i: usize| inputs[i].map_or(0, |p| t[p]);
        match groups.get_mut(&key) {
            None => {
                let first = query
                    .aggregates
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        if c.func == AggFunc::Count {
                            1
                        } else {
                            value(i)
                        }
                    })
                    .collect();
                groups.insert(key, first);
            }
            Some(acc) => {
                for (i, c) in query.aggregates.iter().enumerate() {
                    acc[i] = match c.func {
                        AggFunc::Count => acc[i] + 1,
                        AggFunc::Sum => acc[i] + value(i),
                        AggFunc::Min => acc[i].min(value(i)),
                        AggFunc::Max => acc[i].max(value(i)),
                    };
                }
            }
        }
    }
    groups
        .into_iter()
        .map(|(mut key, acc)| {
            key.extend(acc);
            key
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_query::QueryBuilder;

    fn fixture() -> (Catalog, Columns) {
        let mut c = Catalog::new();
        c.add_relation("r", 4.0, &["k", "g", "f"]);
        c.add_relation("s", 3.0, &["k", "v"]);
        let data = vec![
            // r: (k, g, f)
            vec![vec![1, 1, 2, 3], vec![10, 10, 20, 20], vec![0, 1, 0, 9]],
            // s: (k, v)
            vec![vec![1, 1, 2], vec![5, 7, 100]],
        ];
        (c, data)
    }

    #[test]
    fn joins_then_lists_every_attribute_in_id_order() {
        let (c, data) = fixture();
        let q = QueryBuilder::new(&c)
            .relation("r")
            .relation("s")
            .join("r.k", "s.k", 0.5)
            .build();
        // r.k=1 appears twice and matches two s rows each; r.k=2 once.
        let rows = evaluate(&c, &q, &data);
        assert_eq!(
            rows,
            vec![
                vec![1, 10, 0, 1, 5],
                vec![1, 10, 0, 1, 7],
                vec![1, 10, 1, 1, 5],
                vec![1, 10, 1, 1, 7],
                vec![2, 20, 0, 2, 100],
            ]
        );
    }

    #[test]
    fn selections_and_aggregates() {
        let (c, data) = fixture();
        let q = QueryBuilder::new(&c)
            .relation("r")
            .relation("s")
            .join("r.k", "s.k", 0.5)
            .filter("r.f", 0.5)
            .group_by(&["r.g"])
            .aggregate(AggFunc::Sum, "s.v")
            .count_star()
            .aggregate(AggFunc::Min, "s.v")
            .aggregate(AggFunc::Max, "s.v")
            .build();
        // The filter drops r's last row (f = 9), which had no partner.
        assert_eq!(
            evaluate(&c, &q, &data),
            vec![vec![10, 24, 4, 5, 7], vec![20, 100, 1, 100, 100]]
        );
        // Bare grouping: the distinct keys.
        let bare = QueryBuilder::new(&c)
            .relation("r")
            .relation("s")
            .join("r.k", "s.k", 0.5)
            .distinct(&["r.g"])
            .build();
        assert_eq!(evaluate(&c, &bare, &data), vec![vec![10], vec![20]]);
    }

    #[test]
    fn digests_ignore_row_order_but_not_content() {
        let a = vec![vec![1, 2], vec![3, 4], vec![3, 4]];
        let b = vec![vec![3, 4], vec![1, 2], vec![3, 4]];
        assert_eq!(digest_rows(&a), digest_rows(&b));
        assert_eq!(digest_rows(&a).rows, 3);
        assert_ne!(digest_rows(&a), digest_rows(&[vec![1, 2], vec![3, 4]]));
        assert_ne!(
            digest_rows(&a),
            digest_rows(&[vec![1, 2], vec![3, 4], vec![4, 3]])
        );
    }

    #[test]
    fn a_table_and_its_rows_digest_alike() {
        let (c, _) = fixture();
        let q = QueryBuilder::new(&c).relation("r").build();
        let schema = c
            .relation(q.relations[0])
            .attrs
            .iter()
            .map(|&a| ColRef::Attr(a))
            .collect();
        let t = ColTable::new(schema, vec![vec![2, 1], vec![20, 10], vec![0, 1]]);
        let rows = canonical_rows(&q, &t).unwrap();
        assert_eq!(rows, vec![vec![1, 10, 1], vec![2, 20, 0]]);
        assert_eq!(digest_table(&q, &t).unwrap(), digest_rows(&rows));
    }
}
