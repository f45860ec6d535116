//! Statistics-faithful base data: what the planner assumed about a
//! query's relations holds in the rows it then executes on.
//!
//! `ofw_workload::generate_columns` floors join-key domains at half
//! the row count, so on a star schema a 300 000-row fact table's
//! foreign key ranges over 150 000 values against 10-row dimensions and
//! every star query returns nothing; the `min_rows` clamp that hides
//! this inflates the dimensions until the plan chosen for 10 rows runs
//! a thousand times slower than the reference plan. This generator
//! keeps the catalog's shape instead:
//!
//! * rows = cardinality × one uniform scale, never clamped (at least 1);
//! * a unique column is a true permutation of `0..rows`, so the key
//!   dependencies the planner used hold in the data;
//! * both sides of a join edge draw from one shared domain — the unique
//!   side's row count for a foreign key, otherwise `scale ÷
//!   selectivity`, so the join's measured selectivity is the catalog's;
//! * a constant predicate (`= 0`) gets a domain of `1 ÷ selectivity`
//!   values and a filter (`≤ 1`) one of `2 ÷ selectivity`;
//! * any other column follows its distinct-value estimate, and is
//!   key-like without one.

use crate::util::{mix_seed, Rng};
use ofw_catalog::{AttrId, Catalog};
use ofw_query::Query;

/// `data[qrel][attr][row]`, attributes in catalog declaration order —
/// the shape `ofw_exec::execute_plan` scans.
pub type Columns = Vec<Vec<Vec<i64>>>;

/// The scale at which the query's relations hold `target_rows` rows in
/// total.
pub fn scale_for(catalog: &Catalog, query: &Query, target_rows: usize) -> f64 {
    let total: f64 = query
        .relations
        .iter()
        .map(|&r| catalog.relation(r).cardinality)
        .sum();
    target_rows as f64 / total.max(1.0)
}

pub fn rows_of(cardinality: f64, scale: f64) -> usize {
    ((cardinality * scale).round() as usize).max(1)
}

pub fn base_rows(data: &Columns) -> usize {
    data.iter().map(|rel| rel.first().map_or(0, Vec::len)).sum()
}

/// How one column's values are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Draw {
    /// A random permutation of `0..rows`.
    Permutation,
    /// Uniform in `0..domain`.
    Uniform(u64),
}

fn domain(v: f64) -> u64 {
    (v.round() as u64).max(1)
}

fn draw_for(catalog: &Catalog, query: &Query, attr: AttrId, rows: usize, scale: f64) -> Draw {
    if let Some(c) = query.constants.iter().find(|c| c.attr == attr) {
        return Draw::Uniform(domain(1.0 / c.selectivity));
    }
    if let Some(f) = query.filters.iter().find(|f| f.attr == attr) {
        return Draw::Uniform(domain(2.0 / f.selectivity).max(2));
    }
    if catalog.is_unique(attr) {
        return Draw::Permutation;
    }
    if let Some(j) = query
        .joins
        .iter()
        .find(|j| j.left == attr || j.right == attr)
    {
        let partner = if j.left == attr { j.right } else { j.left };
        if catalog.is_unique(partner) {
            let card = catalog.relation(catalog.attr_relation(partner)).cardinality;
            return Draw::Uniform(rows_of(card, scale) as u64);
        }
        return Draw::Uniform(domain(scale / j.selectivity));
    }
    match catalog.distinct_values(attr) {
        Some(d) => Draw::Uniform(domain(d).min(rows as u64)),
        None => Draw::Uniform(rows as u64),
    }
}

pub fn generate(catalog: &Catalog, query: &Query, scale: f64, seed: u64) -> Columns {
    assert!(scale > 0.0, "scale must be positive");
    query
        .relations
        .iter()
        .enumerate()
        .map(|(qrel, &rel)| {
            let r = catalog.relation(rel);
            let rows = rows_of(r.cardinality, scale);
            r.attrs
                .iter()
                .map(|&a| {
                    // One stream per column, so a column's values depend
                    // on the seed and its position only.
                    let mut rng = Rng::new(mix_seed(seed, (qrel as u64) << 32 | u64::from(a.0)));
                    match draw_for(catalog, query, a, rows, scale) {
                        Draw::Permutation => {
                            let mut col: Vec<i64> = (0..rows as i64).collect();
                            for i in (1..rows).rev() {
                                col.swap(i, rng.below(i as u64 + 1) as usize);
                            }
                            col
                        }
                        Draw::Uniform(d) => (0..rows).map(|_| rng.below(d) as i64).collect(),
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_query::QueryBuilder;
    use std::collections::HashMap;

    fn column<'a>(catalog: &Catalog, query: &Query, data: &'a Columns, attr: AttrId) -> &'a [i64] {
        let qrel = query.owner(attr);
        let pos = catalog
            .relation(query.relations[qrel])
            .attrs
            .iter()
            .position(|&a| a == attr)
            .unwrap();
        &data[qrel][pos]
    }

    /// Matching pairs of an equi-join ÷ the cross product's size.
    fn measured_join_selectivity(l: &[i64], r: &[i64]) -> f64 {
        let mut freq: HashMap<i64, u64> = HashMap::new();
        for &v in r {
            *freq.entry(v).or_default() += 1;
        }
        let pairs: u64 = l.iter().map(|v| freq.get(v).copied().unwrap_or(0)).sum();
        pairs as f64 / (l.len() as f64 * r.len() as f64)
    }

    fn within(measured: f64, expected: f64, tolerance: f64) -> bool {
        (measured / expected - 1.0).abs() <= tolerance
    }

    #[test]
    fn same_seed_same_data_and_other_seed_other_data() {
        let (c, q) = ofw_workload::star_agg_query(&ofw_workload::StarAggConfig {
            dimensions: 3,
            seed: 11,
        });
        let s = scale_for(&c, &q, 20_000);
        let a = generate(&c, &q, s, 5);
        assert_eq!(a, generate(&c, &q, s, 5));
        assert_ne!(a, generate(&c, &q, s, 6));
        assert_eq!(a.len(), q.num_relations());
        let total = base_rows(&a);
        assert!((19_000..=21_000).contains(&total), "{total}");
        for (qrel, rel) in a.iter().enumerate() {
            let r = c.relation(q.relations[qrel]);
            assert_eq!(rel.len(), r.attrs.len());
            assert!(rel.iter().all(|col| col.len() == rows_of(r.cardinality, s)));
        }
    }

    #[test]
    fn unique_columns_are_permutations() {
        let (c, q) = ofw_workload::groupjoin_showcase_query();
        let data = generate(&c, &q, 0.01, 3);
        let key = c.attr("c_custkey");
        assert!(c.is_unique(key));
        let col = column(&c, &q, &data, key);
        assert_eq!(col.len(), 1_500);
        let mut sorted = col.to_vec();
        sorted.sort_unstable();
        assert!(sorted.iter().enumerate().all(|(i, &v)| v == i as i64));
        assert_ne!(col, &sorted[..], "shuffled, not the identity");
        // Every foreign key finds exactly one customer.
        let fk = column(&c, &q, &data, c.attr("o_custkey"));
        assert!(fk.iter().all(|v| (0..1_500).contains(v)));
    }

    #[test]
    fn measured_selectivities_match_the_catalog() {
        // Foreign key → unique primary key, and a non-key join.
        let (c, q) = ofw_workload::groupjoin_showcase_query();
        let scale = 0.02;
        let data = generate(&c, &q, scale, 1);
        let j = &q.joins[0];
        let m = measured_join_selectivity(
            column(&c, &q, &data, j.left),
            column(&c, &q, &data, j.right),
        );
        assert!(within(m, j.selectivity / scale, 0.2), "fk-pk: {m}");

        let (c, q) = ofw_workload::random_query(&ofw_workload::RandomQueryConfig {
            num_relations: 6,
            extra_edges: 1,
            seed: 4,
        });
        let scale = scale_for(&c, &q, 120_000);
        let data = generate(&c, &q, scale, 2);
        for j in &q.joins {
            let (l, r) = (
                column(&c, &q, &data, j.left),
                column(&c, &q, &data, j.right),
            );
            // Tiny relations cannot carry a 20 % tolerance.
            if l.len().min(r.len()) < 500 {
                continue;
            }
            let m = measured_join_selectivity(l, r);
            assert!(within(m, j.selectivity / scale, 0.2), "join: {m}");
        }
    }

    #[test]
    fn predicates_keep_their_share_of_rows() {
        let mut c = Catalog::new();
        c.add_relation("t", 50_000.0, &["k", "c", "f", "g"]);
        c.add_relation("u", 1_000.0, &["k"]);
        c.set_distinct_values(c.attr("t.g"), 7.0);
        let q = QueryBuilder::new(&c)
            .relation("t")
            .relation("u")
            .join("t.k", "u.k", 0.001)
            .constant("t.c", 0.1)
            .filter("t.f", 0.25)
            .build();
        let data = generate(&c, &q, 1.0, 9);
        let share = |attr: &str, keep: fn(i64) -> bool| {
            let col = column(&c, &q, &data, c.attr(attr));
            col.iter().filter(|&&v| keep(v)).count() as f64 / col.len() as f64
        };
        assert!(within(share("t.c", |v| v == 0), 0.1, 0.2));
        assert!(within(share("t.f", |v| v <= 1), 0.25, 0.2));
        // A grouping column follows its distinct-value estimate.
        let mut groups = column(&c, &q, &data, c.attr("t.g")).to_vec();
        groups.sort_unstable();
        groups.dedup();
        assert_eq!(groups.len(), 7);
    }
}
