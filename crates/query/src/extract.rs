//! Determining the order-optimization input from a query (paper §5.2 and
//! the Q8 walkthrough in §6.2), extended with interesting groupings.
//!
//! * every join attribute and every `group by`/`order by` prefix is an
//!   interesting order that a sort (or ordered index scan) can *produce*;
//! * each `group by` / `select distinct` attribute set is an interesting
//!   *grouping* that a hash-based aggregate can produce (the VLDB'04
//!   combined-framework extension) — next to the corresponding sort
//!   ordering, so sort-based and hash-based aggregation compete;
//! * each equi-join predicate contributes the FD set `{l = r}` — applied
//!   by the join operator that evaluates it;
//! * each constant predicate contributes `{∅ → attr}` — applied by the
//!   selection;
//! * optionally, selection attributes are added as *tested-only* orders
//!   ("a selection operator never sorts but might exploit ordering").

use crate::graph::Query;
use ofw_catalog::{AttrId, Catalog};
use ofw_common::{BitSet, FxHashSet};
use ofw_core::derive::minimize_grouping_key;
use ofw_core::fd::{Fd, FdSetId};
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, HeadTail};
use ofw_core::spec::InputSpec;
use ofw_obs::Trace;

/// Extraction tuning knobs.
#[derive(Clone, Debug)]
pub struct ExtractOptions {
    /// Register every equi-join attribute as a produced interesting
    /// order (what merge joins test for and sorts produce). On by
    /// default — §6.2's `O_P^I`. Off shrinks the interesting-order set
    /// to indexes/group-by/order-by, which keeps Pareto sets narrow on
    /// very wide queries (the 40–100-relation scaling sweeps) where
    /// per-join orders would otherwise multiply plans far past memory.
    pub join_orders: bool,
    /// Register index key prefixes as produced interesting orders.
    pub index_orders: bool,
    /// Add constant/filter attributes as tested-only interesting orders
    /// (the paper's optional `O_T^I = {(r_name), (o_orderdate)}`).
    pub tested_selection_orders: bool,
    /// For `GROUP BY … ORDER BY` queries, register the head/tail
    /// properties the partial-sort enforcer probes: every prefix
    /// attribute *set* of the `order by` as a tested grouping, and
    /// every (prefix set, continuation) decomposition as a tested
    /// head/tail pair. Only active when the query both groups and
    /// orders — everything else extracts byte-identically with the
    /// option on or off.
    pub head_tail_properties: bool,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            join_orders: true,
            index_orders: true,
            tested_selection_orders: false,
            head_tail_properties: true,
        }
    }
}

impl ExtractOptions {
    /// Extraction profile for the very wide scaling sweeps: no per-join
    /// or per-index interesting orders (only group-by/order-by
    /// requirements survive), so the DP's Pareto sets stay narrow while
    /// the join-FD sets — one per predicate, spilling past 64 — are
    /// kept in full.
    pub fn lean() -> Self {
        ExtractOptions {
            join_orders: false,
            index_orders: false,
            tested_selection_orders: false,
            head_tail_properties: true,
        }
    }
}

/// The order-optimization input for one query, with the operator → FD-set
/// mapping the plan generator needs.
#[derive(Clone, Debug)]
pub struct ExtractedQuery {
    /// Interesting orders and FD sets (input to framework preparation).
    pub spec: InputSpec,
    /// FD-set handle per join edge (parallel to `Query::joins`).
    pub join_fd: Vec<FdSetId>,
    /// FD-set handle per constant predicate (parallel to
    /// `Query::constants`).
    pub const_fd: Vec<FdSetId>,
    /// Schema (key-constraint) FD set per query relation, applied by the
    /// scan like constant FDs: a unique column determines the relation's
    /// other query-relevant attributes. Populated only under aggregation
    /// placement; `None` for relations without unique columns.
    pub rel_fd: Vec<Option<FdSetId>>,
    /// Whether aggregation placement is active for this query: it has
    /// aggregate functions over a `group by`.
    pub aggregation: bool,
    /// The raw schema FDs, tagged with their owning query relation —
    /// what [`subset_agg_key`](Self::subset_agg_key) replays.
    schema_fds: Vec<(usize, Fd)>,
}

impl ExtractedQuery {
    /// The canonical partial-aggregation key of a relation subset: the
    /// `group by` attributes inside the subset plus the join attributes
    /// crossing its boundary (everything a later join or the final
    /// aggregate still needs to distinguish), minimized under the
    /// dependencies that hold inside the subset — schema FDs, constant
    /// predicates, and internal join equations. Deterministic, so the
    /// leaf keys registered as interesting groupings at extraction time
    /// are exactly the keys the DP derives for single-relation subsets.
    pub fn subset_agg_key(&self, query: &Query, mask: &BitSet) -> Grouping {
        let mut attrs: Vec<AttrId> = query
            .effective_group_by()
            .iter()
            .copied()
            .filter(|&a| mask.contains(query.owner(a)))
            .collect();
        for j in &query.joins {
            let (lo, ro) = (query.owner(j.left), query.owner(j.right));
            if mask.contains(lo) && !mask.contains(ro) {
                attrs.push(j.left);
            }
            if mask.contains(ro) && !mask.contains(lo) {
                attrs.push(j.right);
            }
        }
        let mut fds: Vec<Fd> = self
            .schema_fds
            .iter()
            .filter(|(r, _)| mask.contains(*r))
            .map(|(_, f)| f.clone())
            .collect();
        for c in &query.constants {
            if mask.contains(query.owner(c.attr)) {
                fds.push(Fd::constant(c.attr));
            }
        }
        for j in &query.joins {
            let (lo, ro) = (query.owner(j.left), query.owner(j.right));
            if mask.contains(lo) && mask.contains(ro) {
                fds.push(Fd::equation(j.left, j.right));
            }
        }
        minimize_grouping_key(&Grouping::new(attrs), &fds)
    }
}

/// Runs the extraction.
pub fn extract(catalog: &Catalog, query: &Query, options: &ExtractOptions) -> ExtractedQuery {
    let mut spec = InputSpec::new();

    // Join attributes: single-attribute produced orders (what a merge
    // join tests for and a sort can produce) — §6.2's O_P^I.
    if options.join_orders {
        for j in &query.joins {
            spec.add_produced(Ordering::new(vec![j.left]));
            spec.add_produced(Ordering::new(vec![j.right]));
        }
    }
    // Grouping/ordering requirements are producible by a sort; the
    // group-by/distinct attribute *set* is additionally producible as a
    // grouping by a hash aggregate.
    if !query.group_by.is_empty() {
        spec.add_produced(Ordering::new(query.group_by.clone()));
    }
    if !query.distinct.is_empty() {
        spec.add_produced(Ordering::new(query.distinct.clone()));
    }
    if !query.effective_group_by().is_empty() {
        spec.add_produced(Grouping::new(query.effective_group_by().to_vec()));
    }
    if !query.order_by.is_empty() {
        spec.add_produced(Ordering::new(query.order_by.clone()));
    }
    // Head/tail properties: for a query that both groups and orders,
    // the partial-sort enforcer wants to ask "is the stream already
    // grouped by a prefix set of the order by — and maybe sorted within
    // those groups by a piece of the continuation?". Register every
    // prefix set as a tested grouping and every (prefix set,
    // continuation) decomposition as a tested head/tail pair; hash
    // aggregates produce the former, partial sorts consume both.
    if options.head_tail_properties
        && !query.effective_group_by().is_empty()
        && !query.order_by.is_empty()
    {
        for k in 1..=query.order_by.len() {
            spec.add_tested(Grouping::new(query.order_by[..k].to_vec()));
        }
        for pair in HeadTail::decompositions(&Ordering::new(query.order_by.clone())) {
            spec.add_tested(pair);
        }
    }
    // Index scan outputs.
    if options.index_orders {
        for &rel in &query.relations {
            for index in &catalog.relation(rel).indexes {
                spec.add_produced(Ordering::new(index.key.clone()));
            }
        }
    }
    // Selection attributes, tested only.
    if options.tested_selection_orders {
        for c in &query.constants {
            spec.add_tested(Ordering::new(vec![c.attr]));
        }
        for f in &query.filters {
            spec.add_tested(Ordering::new(vec![f.attr]));
        }
    }

    // One FD set per operator that changes logical orderings.
    let join_fd = query
        .joins
        .iter()
        .map(|j| spec.add_fd_set(vec![Fd::equation(j.left, j.right)]))
        .collect();
    let const_fd = query
        .constants
        .iter()
        .map(|c| spec.add_fd_set(vec![Fd::constant(c.attr)]))
        .collect();

    // Aggregation placement — aggregation as a plan-space dimension, so
    // the DP can place eager/lazy aggregates and group-joins below the
    // plan root: schema FDs from unique columns and per-relation
    // partial-aggregation key groupings. Gated on the query actually
    // aggregating, so everything else extracts byte-identically to the
    // pure ordering + grouping pipeline.
    let aggregation = query.has_aggregates() && !query.effective_group_by().is_empty();
    let mut rel_fd: Vec<Option<FdSetId>> = vec![None; query.num_relations()];
    let mut schema_fds: Vec<(usize, Fd)> = Vec::new();
    if aggregation {
        // Attributes the query mentions anywhere — the only ones worth
        // deriving: a dependency onto an unmentioned attribute can never
        // reach an interesting property.
        let mut relevant: FxHashSet<AttrId> = FxHashSet::default();
        relevant.extend(query.joins.iter().flat_map(|j| [j.left, j.right]));
        relevant.extend(query.constants.iter().map(|c| c.attr));
        relevant.extend(query.filters.iter().map(|f| f.attr));
        relevant.extend(query.group_by.iter().copied());
        relevant.extend(query.distinct.iter().copied());
        relevant.extend(query.order_by.iter().copied());
        relevant.extend(query.agg_input_attrs());
        for (qrel, &rel) in query.relations.iter().enumerate() {
            let attrs = &catalog.relation(rel).attrs;
            let mut fds: Vec<Fd> = Vec::new();
            for &key in attrs.iter().filter(|&&a| relevant.contains(&a)) {
                if !catalog.is_unique(key) {
                    continue;
                }
                for &target in attrs.iter().filter(|&&a| relevant.contains(&a)) {
                    if target != key {
                        fds.push(Fd::functional(&[key], target));
                    }
                }
            }
            if !fds.is_empty() {
                schema_fds.extend(fds.iter().cloned().map(|f| (qrel, f)));
                rel_fd[qrel] = Some(spec.add_fd_set(fds));
            }
        }
    }

    let mut ex = ExtractedQuery {
        spec,
        join_fd,
        const_fd,
        rel_fd,
        aggregation,
        schema_fds,
    };
    if aggregation {
        // Leaf partial-aggregation keys: what an eager aggregate placed
        // directly above a scan groups by. Registered as *produced*
        // interesting groupings so hash partial aggregates can construct
        // their state (and the hash-group enforcer can target them).
        for qrel in 0..query.num_relations() {
            let key = ex.subset_agg_key(query, &query.relation_set(qrel));
            if !key.is_empty() {
                ex.spec.add_produced(key);
            }
        }
    }
    ex
}

/// Runs the extraction under a span sink: one `"extract"` span
/// recording the interesting-property and FD-set counts. Identical
/// output to [`extract`].
pub fn extract_traced(
    catalog: &Catalog,
    query: &Query,
    options: &ExtractOptions,
    trace: &Trace,
) -> ExtractedQuery {
    let mut sp = trace.span("extract");
    let ex = extract(catalog, query, options);
    sp.count("produced", ex.spec.produced().len() as u64);
    sp.count("tested", ex.spec.tested().len() as u64);
    sp.count("fd_sets", ex.spec.fd_sets().len() as u64);
    ex
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::QueryBuilder;

    fn simple() -> (Catalog, Query) {
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
            .filter("jobs.salary", 0.3)
            .order_by(&["jobs.id", "persons.name"])
            .build();
        (c, q)
    }

    #[test]
    fn section_6_1_interesting_orders() {
        // §6.1: Q_I^P = {(id), (jobid), (id,name)}, Q_I^T = {(salary)};
        // F = {jobid = id}. Our (id,name) comes from the order-by —
        // order by jobs.id, persons.name.
        let (c, q) = simple();
        let ex = extract(
            &c,
            &q,
            &ExtractOptions {
                tested_selection_orders: true,
                ..ExtractOptions::default()
            },
        );
        let produced: Vec<&Ordering> = ex
            .spec
            .produced()
            .iter()
            .filter_map(|p| p.as_ordering())
            .collect();
        let jid = c.attr("jobs.id");
        let pjobid = c.attr("persons.jobid");
        let pname = c.attr("persons.name");
        assert!(produced.contains(&&Ordering::new(vec![jid])));
        assert!(produced.contains(&&Ordering::new(vec![pjobid])));
        assert!(produced.contains(&&Ordering::new(vec![jid, pname])));
        assert_eq!(produced.len(), 3);
        assert_eq!(
            ex.spec.interesting_groupings().count(),
            0,
            "no group-by, no groupings"
        );
        // (salary) tested only.
        let sal = c.attr("jobs.salary");
        assert_eq!(ex.spec.tested(), &[Ordering::new(vec![sal]).into()]);
        // One FD set: the equation.
        assert_eq!(ex.spec.fd_sets().len(), 1);
        assert_eq!(ex.join_fd.len(), 1);
        assert!(ex.const_fd.is_empty());
    }

    #[test]
    fn duplicate_fd_sets_share_handles() {
        let mut c = Catalog::new();
        c.add_relation("a", 10.0, &["x"]);
        c.add_relation("b", 10.0, &["y"]);
        let mut q = QueryBuilder::new(&c)
            .relation("a")
            .relation("b")
            .join("a.x", "b.y", 0.5)
            .build();
        // The same predicate twice (e.g. listed redundantly).
        q.joins.push(q.joins[0].clone());
        let ex = extract(&c, &q, &ExtractOptions::default());
        assert_eq!(ex.join_fd[0], ex.join_fd[1]);
        assert_eq!(ex.spec.fd_sets().len(), 1);
    }

    #[test]
    fn group_by_becomes_produced_order_and_grouping() {
        let mut c = Catalog::new();
        c.add_relation("t", 10.0, &["g", "v"]);
        c.add_relation("u", 10.0, &["w"]);
        let q = QueryBuilder::new(&c)
            .relation("t")
            .relation("u")
            .join("t.v", "u.w", 0.1)
            .group_by(&["t.g"])
            .build();
        let ex = extract(&c, &q, &ExtractOptions::default());
        let g = c.attr("t.g");
        assert!(ex.spec.produced().contains(&Ordering::new(vec![g]).into()));
        assert!(ex.spec.produced().contains(&Grouping::new(vec![g]).into()));
    }

    #[test]
    fn group_by_order_by_registers_head_tail_properties() {
        use ofw_core::property::HeadTail;
        let mut c = Catalog::new();
        c.add_relation("t", 10.0, &["g", "h", "v"]);
        c.add_relation("u", 10.0, &["w"]);
        let q = QueryBuilder::new(&c)
            .relation("t")
            .relation("u")
            .join("t.v", "u.w", 0.1)
            .group_by(&["t.g", "t.h"])
            .order_by(&["t.g", "t.h"])
            .build();
        let ex = extract(&c, &q, &ExtractOptions::default());
        let g = c.attr("t.g");
        let h = c.attr("t.h");
        // Every order-by prefix set is a tested grouping ({g,h} is
        // already produced via the group-by), and every decomposition a
        // tested pair.
        assert!(ex.spec.has_head_tails());
        assert!(ex.spec.tested().contains(&Grouping::new(vec![g]).into()));
        let pair = HeadTail::new(Grouping::new(vec![g]), Ordering::new(vec![h]));
        assert!(ex.spec.tested().contains(&pair.into()));
        // The option gates it off; a query without an order-by never
        // registers pairs regardless of the option.
        let off = extract(
            &c,
            &q,
            &ExtractOptions {
                head_tail_properties: false,
                ..ExtractOptions::default()
            },
        );
        assert!(!off.spec.has_head_tails());
        let mut no_order = q.clone();
        no_order.order_by.clear();
        let plain = extract(&c, &no_order, &ExtractOptions::default());
        assert!(!plain.spec.has_head_tails());
    }

    #[test]
    fn distinct_becomes_produced_order_and_grouping() {
        let mut c = Catalog::new();
        c.add_relation("t", 10.0, &["g", "v"]);
        c.add_relation("u", 10.0, &["w"]);
        let q = QueryBuilder::new(&c)
            .relation("t")
            .relation("u")
            .join("t.v", "u.w", 0.1)
            .distinct(&["t.g", "t.v"])
            .build();
        let ex = extract(&c, &q, &ExtractOptions::default());
        let g = c.attr("t.g");
        let v = c.attr("t.v");
        assert!(ex
            .spec
            .produced()
            .contains(&Ordering::new(vec![g, v]).into()));
        assert!(ex
            .spec
            .produced()
            .contains(&Grouping::new(vec![g, v]).into()));
    }

    #[test]
    fn lean_extraction_keeps_fds_but_drops_join_and_index_orders() {
        let (c, q) = simple();
        let ex = extract(&c, &q, &ExtractOptions::lean());
        // All FD sets survive (the plan generator's inference needs
        // them), but the only produced order left is the order-by.
        assert_eq!(ex.spec.fd_sets().len(), 1);
        assert_eq!(ex.join_fd.len(), 1);
        let jid = c.attr("jobs.id");
        let pname = c.attr("persons.name");
        let produced: Vec<&Ordering> = ex
            .spec
            .produced()
            .iter()
            .filter_map(|p| p.as_ordering())
            .collect();
        assert_eq!(produced, vec![&Ordering::new(vec![jid, pname])]);
    }

    #[test]
    fn aggregation_extraction_registers_schema_fds_and_leaf_keys() {
        use crate::graph::AggFunc;
        // dim(pk unique, g selective) ⋈ fact(fk, v), group by dim.g,
        // sum(fact.v).
        let mut c = Catalog::new();
        c.add_relation("dim", 100.0, &["pk", "g"]);
        c.add_relation("fact", 100_000.0, &["fk", "v"]);
        c.set_distinct_values(c.attr("dim.pk"), 100.0);
        c.set_distinct_values(c.attr("dim.g"), 10.0);
        c.set_distinct_values(c.attr("fact.fk"), 100.0);
        let q = QueryBuilder::new(&c)
            .relation("dim")
            .relation("fact")
            .join("dim.pk", "fact.fk", 0.01)
            .group_by(&["dim.g"])
            .aggregate(AggFunc::Sum, "fact.v")
            .build();
        let ex = extract(&c, &q, &ExtractOptions::default());
        assert!(ex.aggregation);
        // dim has a unique relevant column (pk) → a schema FD set
        // {pk → g}; fact has none.
        assert!(ex.rel_fd[0].is_some());
        assert!(ex.rel_fd[1].is_none());
        // Leaf keys: dim's raw key {pk, g} minimizes to {pk} (pk → g);
        // fact's key is its crossing join attribute {fk}.
        let dim_key = ex.subset_agg_key(&q, &q.relation_set(0));
        assert_eq!(dim_key, Grouping::new(vec![c.attr("dim.pk")]));
        let fact_key = ex.subset_agg_key(&q, &q.relation_set(1));
        assert_eq!(fact_key, Grouping::new(vec![c.attr("fact.fk")]));
        // Both are registered as produced interesting groupings, next to
        // the group-by grouping itself.
        for g in [dim_key, fact_key, Grouping::new(vec![c.attr("dim.g")])] {
            assert!(
                ex.spec.produced().contains(&g.clone().into()),
                "{g:?} must be producible"
            );
        }
        // The full set has no crossing edges: its key is the group-by.
        let all = ex.subset_agg_key(&q, &q.all_relations_set());
        assert_eq!(all, Grouping::new(vec![c.attr("dim.g")]));

        // No aggregates: no placement, no schema FDs.
        let mut no_agg = q.clone();
        no_agg.aggregates.clear();
        let plain = extract(&c, &no_agg, &ExtractOptions::default());
        assert!(!plain.aggregation);
        assert!(plain.rel_fd.iter().all(Option::is_none));
    }

    #[test]
    fn constants_become_fd_sets() {
        let mut c = Catalog::new();
        c.add_relation("t", 10.0, &["g", "v"]);
        c.add_relation("u", 10.0, &["w"]);
        let q = QueryBuilder::new(&c)
            .relation("t")
            .relation("u")
            .join("t.v", "u.w", 0.1)
            .constant("t.g", 0.05)
            .build();
        let ex = extract(&c, &q, &ExtractOptions::default());
        assert_eq!(ex.const_fd.len(), 1);
        assert_ne!(ex.const_fd[0], ex.join_fd[0]);
        assert_eq!(ex.spec.fd_sets().len(), 2);
    }
}
