//! EXPLAIN: the one view of a plan tree, annotated with what the order
//! oracle *knows* at every node.
//!
//! The DP stores one opaque order state per plan node (4 bytes for the
//! DFSM arm). [`PlanGenResult::explain`] re-probes that state against
//! every interesting property of the query — the same O(1) `satisfies`
//! call the DP itself makes — and renders the plan tree with per-node
//! operator, cost, cardinality and the list of *held* logical
//! properties. That makes the framework's bookkeeping visible: you can
//! watch an ordering appear at an index scan, survive a merge join,
//! get widened by an FD inference, and satisfy the root `order by`
//! without a sort. [`PlanArena::explain`] builds the same tree from any
//! arena node without an oracle: every node's property list is empty.
//!
//! Two renderings: [`Explain::text`] (indented tree, one node per
//! line) and [`Explain::json`] (machine-readable, same shape). Both
//! are pure views — building an `Explain` never mutates the plan table
//! or the oracle.

use crate::plan::{PlanArena, PlanId, PlanOp};
use crate::OrderOracle;
use crate::PlanGenResult;
use ofw_catalog::{AttrId, Catalog};
use ofw_core::LogicalProperty;
use ofw_obs::json_escape;
use ofw_query::{ExtractedQuery, Query};
use std::fmt::Write as _;

/// One node of the explained plan tree.
#[derive(Clone, Debug)]
pub struct ExplainNode {
    /// Operator rendering, e.g. `MergeJoin(persons.jobid = jobs.id)`.
    pub op: String,
    /// Cumulative cost estimate.
    pub cost: f64,
    /// Output cardinality estimate.
    pub card: f64,
    /// Interesting logical properties this node's stream holds, in
    /// spec registration order (produced first, then tested-only) —
    /// orderings as `(a, b)`, groupings as `{a, b}`, head/tail pairs
    /// as `{a}(b)`.
    pub properties: Vec<String>,
    /// Input subtrees (0, 1 or 2).
    pub children: Vec<ExplainNode>,
}

/// An explained plan: the winning tree with per-node annotations.
#[derive(Clone, Debug)]
pub struct Explain {
    /// The plan root.
    pub root: ExplainNode,
    /// Total cost of the plan (the root's cumulative cost).
    pub cost: f64,
}

impl Explain {
    fn new(root: ExplainNode) -> Explain {
        Explain {
            cost: root.cost,
            root,
        }
    }

    /// Plain-text rendering: one operator per line, two-space
    /// indentation, `[properties]` trailing each node that holds any.
    pub fn text(&self) -> String {
        let mut out = String::new();
        render_text(&self.root, 0, &mut out);
        out
    }

    /// JSON rendering: `{"cost": …, "plan": {node}}` where each node is
    /// `{"op", "cost", "card", "properties": […], "children": […]}`.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"cost\":{},\"plan\":", fmt_f64(self.cost));
        render_json(&self.root, &mut out);
        out.push('}');
        out
    }
}

fn render_text(node: &ExplainNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{}  cost={} rows={}",
        node.op,
        fmt_f64(node.cost),
        fmt_f64(node.card)
    );
    if !node.properties.is_empty() {
        let _ = write!(out, "  [{}]", node.properties.join(", "));
    }
    out.push('\n');
    for child in &node.children {
        render_text(child, depth + 1, out);
    }
}

fn render_json(node: &ExplainNode, out: &mut String) {
    let _ = write!(
        out,
        "{{\"op\":\"{}\",\"cost\":{},\"card\":{},\"properties\":[",
        json_escape(&node.op),
        fmt_f64(node.cost),
        fmt_f64(node.card)
    );
    for (i, p) in node.properties.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\"", json_escape(p));
    }
    out.push_str("],\"children\":[");
    for (i, child) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        render_json(child, out);
    }
    out.push_str("]}");
}

/// Cost/cardinality formatting: integral estimates print without a
/// fraction, others with enough digits to round-trip visually.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

fn render_grouping(catalog: &Catalog, attrs: &[AttrId]) -> String {
    let names: Vec<&str> = attrs.iter().map(|&a| catalog.attr_name(a)).collect();
    format!("{{{}}}", names.join(", "))
}

/// The operator's label, its name and what it works on — e.g.
/// `MergeJoin(persons.jobid = jobs.id)`: the one display table of
/// [`PlanOp`].
fn label(op: &PlanOp, catalog: &Catalog, query: &Query) -> String {
    let rel = |qrel: usize| catalog.relation(query.relations[qrel]);
    let detail = match op {
        PlanOp::Scan { qrel } => format!("({})", rel(*qrel).name),
        PlanOp::IndexScan { qrel, index } => {
            let r = rel(*qrel);
            let key = catalog.render_ordering(&r.indexes[*index].key);
            format!("({} on {key})", r.name)
        }
        PlanOp::Sort { key, .. } => format!(" {}", catalog.render_ordering(key)),
        PlanOp::PartialSort { key, head, .. } => format!(
            " {} head={}",
            catalog.render_ordering(key),
            render_grouping(catalog, head)
        ),
        PlanOp::MergeJoin { edge, .. }
        | PlanOp::HashJoin { edge, .. }
        | PlanOp::GroupJoin { edge, .. } => {
            let e = &query.joins[*edge];
            let (l, r) = (catalog.attr_name(e.left), catalog.attr_name(e.right));
            format!("({l} = {r})")
        }
        PlanOp::NestedLoopJoin { .. } => String::new(),
        PlanOp::StreamAgg { key, partial, .. } | PlanOp::HashAgg { key, partial, .. } => {
            let stage = if *partial { "[partial]" } else { "" };
            format!("{stage} {}", render_grouping(catalog, key))
        }
        PlanOp::HashGroup { key, .. } => format!(" {}", render_grouping(catalog, key)),
    };
    format!("{}{detail}", op.name())
}

/// The one tree builder: the tree under `id`, each node's held
/// properties listed by `held`.
fn tree<S: Copy>(
    arena: &PlanArena<S>,
    id: PlanId,
    catalog: &Catalog,
    query: &Query,
    held: &dyn Fn(S) -> Vec<String>,
) -> ExplainNode {
    let n = arena.node(id);
    ExplainNode {
        op: label(&n.op, catalog, query),
        cost: n.cost,
        card: n.card,
        properties: held(n.state),
        children: n
            .op
            .inputs()
            .map(|c| tree(arena, c, catalog, query, held))
            .collect(),
    }
}

impl<S: Copy> PlanArena<S> {
    /// Explains the tree rooted at `root` without an oracle: operators,
    /// costs and cardinalities, no held properties — the view of any
    /// arena node, winner or not.
    pub fn explain(&self, root: PlanId, catalog: &Catalog, query: &Query) -> Explain {
        Explain::new(tree(self, root, catalog, query, &|_| Vec::new()))
    }
}

impl<S: Copy> PlanGenResult<S> {
    /// Explains the winning plan: re-probes every node's order state
    /// against all interesting properties of `ex` through `oracle` (the
    /// instance the plan was generated with) and renders the tree.
    pub fn explain<O>(
        &self,
        catalog: &Catalog,
        query: &Query,
        ex: &ExtractedQuery,
        oracle: &O,
    ) -> Explain
    where
        O: OrderOracle<State = S>,
    {
        let probes: Vec<(O::Key, String)> = ex
            .spec
            .interesting()
            .filter_map(|p| {
                let key = oracle.resolve(p)?;
                let rendered = match p {
                    LogicalProperty::Ordering(o) => catalog.render_ordering(o.attrs()),
                    LogicalProperty::Grouping(g) => render_grouping(catalog, g.attrs()),
                    LogicalProperty::HeadTail(h) => format!(
                        "{}{}",
                        render_grouping(catalog, h.head_attrs()),
                        catalog.render_ordering(h.tail_attrs())
                    ),
                };
                Some((key, rendered))
            })
            .collect();
        let held = |state| {
            probes
                .iter()
                .filter(|p| oracle.satisfies(state, p.0))
                .map(|p| p.1.clone())
                .collect()
        };
        Explain::new(tree(&self.arena, self.best, catalog, query, &held))
    }
}
