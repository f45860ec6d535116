//! Fluent, catalog-aware query construction.

use crate::graph::{AggCall, AggFunc, ConstPred, FilterPred, JoinEdge, Query};
use ofw_catalog::Catalog;

/// Builds a [`Query`] against a [`Catalog`] using attribute names.
///
/// ```
/// use ofw_catalog::Catalog;
/// use ofw_query::QueryBuilder;
///
/// let mut c = Catalog::new();
/// c.add_relation("persons", 10_000.0, &["id", "name", "jobid"]);
/// c.add_relation("jobs", 100.0, &["id", "salary"]);
/// let q = QueryBuilder::new(&c)
///     .relation("persons")
///     .relation("jobs")
///     .join("persons.jobid", "jobs.id", 0.01)
///     .filter("jobs.salary", 0.3)
///     .order_by(&["jobs.id", "persons.name"])
///     .build();
/// assert!(q.is_fully_connected());
/// ```
pub struct QueryBuilder<'a> {
    catalog: &'a Catalog,
    query: Query,
}

impl<'a> QueryBuilder<'a> {
    /// Starts an empty query over `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        QueryBuilder {
            catalog,
            query: Query::new(),
        }
    }

    /// Adds a relation (by catalog name) to the `from` clause.
    pub fn relation(mut self, name: &str) -> Self {
        let rel = self
            .catalog
            .relation_id(name)
            .unwrap_or_else(|| panic!("unknown relation {name}"));
        self.query.add_relation(self.catalog, rel);
        self
    }

    /// Adds an equi-join predicate `left = right`.
    pub fn join(mut self, left: &str, right: &str, selectivity: f64) -> Self {
        assert!(selectivity > 0.0 && selectivity <= 1.0);
        self.query.joins.push(JoinEdge {
            left: self.catalog.attr(left),
            right: self.catalog.attr(right),
            selectivity,
        });
        self
    }

    /// Adds a constant predicate `attr = const`.
    pub fn constant(mut self, attr: &str, selectivity: f64) -> Self {
        assert!(selectivity > 0.0 && selectivity <= 1.0);
        self.query.constants.push(ConstPred {
            attr: self.catalog.attr(attr),
            selectivity,
        });
        self
    }

    /// Adds a non-equality filter (no functional dependency).
    pub fn filter(mut self, attr: &str, selectivity: f64) -> Self {
        assert!(selectivity > 0.0 && selectivity <= 1.0);
        self.query.filters.push(FilterPred {
            attr: self.catalog.attr(attr),
            selectivity,
        });
        self
    }

    /// Resolves a key list, keeping the first occurrence of each
    /// attribute: a repeated key adds no ordering or grouping
    /// information (once the earlier occurrence ties, all rows agree on
    /// it), and duplicate-free lists are the invariant every derivation
    /// rule assumes (`Ordering::new` asserts it).
    fn keys(&self, attrs: &[&str]) -> Vec<ofw_catalog::AttrId> {
        let mut keys = Vec::with_capacity(attrs.len());
        for attr in attrs.iter().map(|a| self.catalog.attr(a)) {
            if !keys.contains(&attr) {
                keys.push(attr);
            }
        }
        keys
    }

    /// Sets the `group by` attribute list (repeated attributes count once).
    pub fn group_by(mut self, attrs: &[&str]) -> Self {
        self.query.group_by = self.keys(attrs);
        self
    }

    /// Sets the `select distinct` attribute list (duplicate elimination
    /// over these columns — a grouping-shaped requirement; repeated
    /// attributes count once).
    pub fn distinct(mut self, attrs: &[&str]) -> Self {
        self.query.distinct = self.keys(attrs);
        self
    }

    /// Adds an aggregate call over an attribute, e.g.
    /// `.aggregate(AggFunc::Sum, "lineitem.l_extendedprice")`.
    pub fn aggregate(mut self, func: AggFunc, attr: &str) -> Self {
        self.query.aggregates.push(AggCall {
            func,
            input: Some(self.catalog.attr(attr)),
        });
        self
    }

    /// Adds a `count(*)` aggregate call.
    pub fn count_star(mut self) -> Self {
        self.query.aggregates.push(AggCall {
            func: AggFunc::Count,
            input: None,
        });
        self
    }

    /// Sets the `order by` attribute list (a repeated attribute keeps
    /// its first position).
    pub fn order_by(mut self, attrs: &[&str]) -> Self {
        self.query.order_by = self.keys(attrs);
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Query {
        self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_relation("persons", 10_000.0, &["id", "name", "jobid"]);
        c.add_relation("jobs", 100.0, &["id", "salary"]);
        c
    }

    #[test]
    fn repeated_keys_keep_their_first_occurrence() {
        // `order by name, id, name` sorts exactly like `order by name, id`.
        let c = catalog();
        let q = QueryBuilder::new(&c)
            .relation("persons")
            .order_by(&["persons.name", "persons.id", "persons.name"])
            .group_by(&["persons.jobid", "persons.jobid"])
            .distinct(&["persons.id", "persons.name", "persons.id"])
            .build();
        let attrs = |names: &[&str]| names.iter().map(|n| c.attr(n)).collect::<Vec<_>>();
        assert_eq!(q.order_by, attrs(&["persons.name", "persons.id"]));
        assert_eq!(q.group_by, attrs(&["persons.jobid"]));
        assert_eq!(q.distinct, attrs(&["persons.id", "persons.name"]));
    }

    #[test]
    fn builds_the_section_6_1_query() {
        // select * from persons, jobs
        // where persons.jobid = jobs.id and jobs.salary > 50000
        // order by jobs.id, persons.name
        let c = catalog();
        let q = QueryBuilder::new(&c)
            .relation("persons")
            .relation("jobs")
            .join("persons.jobid", "jobs.id", 0.01)
            .filter("jobs.salary", 0.3)
            .order_by(&["jobs.id", "persons.name"])
            .build();
        assert_eq!(q.num_relations(), 2);
        assert_eq!(q.joins.len(), 1);
        assert_eq!(q.filters.len(), 1);
        assert_eq!(q.order_by.len(), 2);
        assert_eq!(q.owner(c.attr("jobs.id")), 1);
    }

    #[test]
    fn aggregates_attach_to_the_query() {
        let c = catalog();
        let q = QueryBuilder::new(&c)
            .relation("persons")
            .relation("jobs")
            .join("persons.jobid", "jobs.id", 0.01)
            .group_by(&["persons.jobid"])
            .aggregate(AggFunc::Sum, "jobs.salary")
            .count_star()
            .build();
        assert!(q.has_aggregates());
        assert_eq!(q.aggregates.len(), 2);
        assert_eq!(q.aggregates[0].func, AggFunc::Sum);
        assert_eq!(q.aggregates[0].input, Some(c.attr("jobs.salary")));
        assert_eq!(q.aggregates[1].input, None);
    }

    #[test]
    #[should_panic(expected = "unknown relation")]
    fn unknown_relation_panics() {
        let c = catalog();
        let _ = QueryBuilder::new(&c).relation("nope");
    }

    #[test]
    #[should_panic]
    fn zero_selectivity_rejected() {
        let c = catalog();
        let _ = QueryBuilder::new(&c)
            .relation("persons")
            .relation("jobs")
            .join("persons.jobid", "jobs.id", 0.0);
    }
}
