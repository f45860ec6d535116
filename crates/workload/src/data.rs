//! Synthetic base data scaled to the catalog's statistics.
//!
//! [`generate_columns`] materializes column-major base tables for a
//! query's relations, shaped so the differential executor harness and
//! the `table_calibration` binary exercise the statistics the planner
//! reasoned with: each relation's row count tracks its catalog *cardinality*
//! (scaled by [`DataConfig::scale`] into the 10⁵–10⁷ range for release
//! benches, or clamped down for debug-mode tests), and each attribute's
//! value domain tracks the catalog's *distinct-value* estimate, so
//! selective group keys really produce few groups and key-like join
//! attributes really join sparsely. Fully deterministic per seed, and
//! independent of morsel size or thread count.

use ofw_catalog::Catalog;
use ofw_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of a generated data set.
#[derive(Clone, Debug)]
pub struct DataConfig {
    /// Rows per relation = `cardinality × scale`, before clamping.
    pub scale: f64,
    /// Lower row clamp (so tiny relations still produce data).
    pub min_rows: usize,
    /// Upper row clamp (keeps debug-mode differential tests fast).
    pub max_rows: usize,
    /// Cap on every attribute's value domain. Tests pass a small cap so
    /// that the legacy constant predicates (`= 0`) and filters (`≤ 1`)
    /// keep a useful fraction of rows; benches pass `None`.
    pub domain_cap: Option<i64>,
    /// RNG seed — same seed, same data.
    pub seed: u64,
}

impl DataConfig {
    /// Small deterministic data for debug-mode differential tests:
    /// a few hundred rows per relation, domains capped at 16.
    pub fn small(seed: u64) -> Self {
        DataConfig {
            scale: 1e-3,
            min_rows: 24,
            max_rows: 400,
            domain_cap: Some(16),
            seed,
        }
    }
}

/// Generates per-relation columns, `out[qrel][attr][row]`, attributes in
/// the relation's catalog declaration order — the base-data shape the
/// vectorized engine scans.
pub fn generate_columns(
    catalog: &Catalog,
    query: &Query,
    config: &DataConfig,
) -> Vec<Vec<Vec<i64>>> {
    assert!(config.scale > 0.0, "scale must be positive");
    assert!(config.min_rows <= config.max_rows, "row clamps inverted");
    // Attributes appearing in join predicates: their domains must stay
    // proportional to the row count, whatever the stats or the cap say.
    let join_attrs: std::collections::HashSet<_> =
        query.joins.iter().flat_map(|j| [j.left, j.right]).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    query
        .relations
        .iter()
        .map(|&rel| {
            let r = catalog.relation(rel);
            let rows = ((r.cardinality * config.scale).round() as usize)
                .clamp(config.min_rows, config.max_rows);
            let shrink = rows as f64 / r.cardinality.max(1.0);
            r.attrs
                .iter()
                .map(|&a| {
                    // Scale the distinct-value estimate with the row
                    // count so group selectivity survives the clamp; an
                    // attribute without statistics is key-like.
                    let distinct = catalog.distinct_values(a).unwrap_or(r.cardinality);
                    let mut domain = (distinct * shrink).round().max(1.0) as i64;
                    if let Some(cap) = config.domain_cap {
                        domain = domain.min(cap);
                    }
                    if join_attrs.contains(&a) {
                        // Keep each join's per-probe fan-out at ~2 or
                        // below: a narrow join-key domain multiplies a
                        // k-way join's output by (rows/domain)^(k-1),
                        // which turns a few hundred generated rows into
                        // gigabytes. Group keys keep their narrow
                        // domains — they only shape aggregation.
                        domain = domain.max(((rows as i64 + 1) / 2).max(1));
                    }
                    (0..rows).map(|_| rng.gen_range(0..domain)).collect()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_statistics_shaped() {
        let (catalog, query) = crate::star_agg_query(&crate::StarAggConfig {
            dimensions: 3,
            seed: 11,
        });
        let cfg = DataConfig::small(5);
        let a = generate_columns(&catalog, &query, &cfg);
        let b = generate_columns(&catalog, &query, &cfg);
        assert_eq!(a, b, "same seed, same data");
        assert_eq!(a.len(), query.num_relations());
        let join_attrs: std::collections::HashSet<_> =
            query.joins.iter().flat_map(|j| [j.left, j.right]).collect();
        for (q, rel_cols) in a.iter().enumerate() {
            let r = catalog.relation(query.relations[q]);
            assert_eq!(rel_cols.len(), r.attrs.len());
            let rows = rel_cols[0].len();
            assert!((cfg.min_rows..=cfg.max_rows).contains(&rows));
            for (col, &attr) in rel_cols.iter().zip(&r.attrs) {
                assert_eq!(col.len(), rows, "columns are parallel");
                if join_attrs.contains(&attr) {
                    // Join keys escape the cap: their domain is floored
                    // at rows/2 so join fan-out stays bounded.
                    let distinct: std::collections::HashSet<i64> = col.iter().copied().collect();
                    assert!(col.iter().all(|&v| v >= 0));
                    assert!(distinct.len() * 4 >= rows.min(64), "{}", distinct.len());
                } else {
                    let cap = cfg.domain_cap.unwrap();
                    assert!(col.iter().all(|&v| (0..cap).contains(&v)));
                }
            }
        }
        let c = generate_columns(&catalog, &query, &DataConfig::small(6));
        assert_ne!(a, c, "different seeds differ");
    }

    #[test]
    fn selective_attributes_get_narrow_domains() {
        let (mut catalog, query) = crate::random_query(&crate::RandomQueryConfig {
            num_relations: 5,
            extra_edges: 0,
            seed: 2,
        });
        // Pick an r0 attribute that sits on no join edge — join keys
        // are deliberately exempt from narrow domains.
        let r0 = catalog.relation(query.relations[0]);
        let join_attrs: std::collections::HashSet<_> =
            query.joins.iter().flat_map(|j| [j.left, j.right]).collect();
        let (pos, &narrow) = r0
            .attrs
            .iter()
            .enumerate()
            .find(|(_, a)| !join_attrs.contains(a))
            .expect("r0 has a non-join attribute");
        catalog.set_distinct_values(narrow, 2.0);
        let cols = generate_columns(
            &catalog,
            &query,
            &DataConfig {
                scale: 1.0,
                min_rows: 200,
                max_rows: 200,
                domain_cap: None,
                seed: 9,
            },
        );
        // With 2 distinct values over any cardinality the scaled domain
        // stays tiny.
        let distinct: std::collections::HashSet<i64> = cols[0][pos].iter().copied().collect();
        assert!(distinct.len() <= 2, "{distinct:?}");
    }
}
