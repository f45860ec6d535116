//! EXPLAIN: a rendered view of the winning plan, annotated with what
//! the order oracle *knows* at every node.
//!
//! The DP stores one opaque order state per plan node (4 bytes for the
//! DFSM arm). [`PlanGenResult::explain`] re-probes that state against
//! every interesting property of the query — the same O(1) `satisfies`
//! call the DP itself makes — and renders the plan tree with per-node
//! operator, cost, cardinality and the list of *held* logical
//! properties. That makes the framework's bookkeeping visible: you can
//! watch an ordering appear at an index scan, survive a merge join,
//! get widened by an FD inference, and satisfy the root `order by`
//! without a sort.
//!
//! Two renderings: [`Explain::text`] (indented tree, one node per
//! line) and [`Explain::json`] (machine-readable, same shape). Both
//! are pure views — building an `Explain` never mutates the plan table
//! or the oracle.

use crate::plan::{PlanId, PlanOp};
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

/// One interesting property, pre-resolved to an oracle key with its
/// rendering.
struct ProbedProp<K> {
    key: K,
    rendered: String,
}

fn render_grouping(catalog: &Catalog, attrs: &[AttrId]) -> String {
    let names: Vec<&str> = attrs.iter().map(|&a| catalog.attr_name(a)).collect();
    format!("{{{}}}", names.join(", "))
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
        self.explain_node(self.best, catalog, query, ex, oracle)
    }

    /// [`Self::explain`] rooted at an arbitrary arena node.
    pub fn explain_node<O>(
        &self,
        root: PlanId,
        catalog: &Catalog,
        query: &Query,
        ex: &ExtractedQuery,
        oracle: &O,
    ) -> Explain
    where
        O: OrderOracle<State = S>,
    {
        let probes: Vec<ProbedProp<O::Key>> = ex
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
                Some(ProbedProp { key, rendered })
            })
            .collect();
        let node = self.build_node(root, catalog, query, oracle, &probes);
        Explain {
            cost: node.cost,
            root: node,
        }
    }

    fn build_node<O>(
        &self,
        id: PlanId,
        catalog: &Catalog,
        query: &Query,
        oracle: &O,
        probes: &[ProbedProp<O::Key>],
    ) -> ExplainNode
    where
        O: OrderOracle<State = S>,
    {
        let n = self.arena.node(id);
        let rel = |qrel: usize| catalog.relation(query.relations[qrel]).name.as_str();
        let edge_pred = |edge: usize| {
            let e = &query.joins[edge];
            format!(
                "{} = {}",
                catalog.attr_name(e.left),
                catalog.attr_name(e.right)
            )
        };
        let op = match &n.op {
            PlanOp::Scan { qrel } => format!("Scan({})", rel(*qrel)),
            PlanOp::IndexScan { qrel, index } => {
                let key = &catalog.relation(query.relations[*qrel]).indexes[*index].key;
                format!(
                    "IndexScan({} on {})",
                    rel(*qrel),
                    catalog.render_ordering(key)
                )
            }
            PlanOp::Sort { key, .. } => format!("Sort {}", catalog.render_ordering(key)),
            PlanOp::PartialSort { key, head, .. } => format!(
                "PartialSort {} head={}",
                catalog.render_ordering(key),
                render_grouping(catalog, head)
            ),
            PlanOp::MergeJoin { edge, .. } => format!("MergeJoin({})", edge_pred(*edge)),
            PlanOp::HashJoin { edge, .. } => format!("HashJoin({})", edge_pred(*edge)),
            PlanOp::NestedLoopJoin { .. } => "NestedLoopJoin".to_string(),
            PlanOp::StreamAgg { key, partial, .. } => format!(
                "StreamAgg{} {}",
                if *partial { "[partial]" } else { "" },
                render_grouping(catalog, key)
            ),
            PlanOp::HashAgg { key, partial, .. } => format!(
                "HashAgg{} {}",
                if *partial { "[partial]" } else { "" },
                render_grouping(catalog, key)
            ),
            PlanOp::GroupJoin { edge, .. } => format!("GroupJoin({})", edge_pred(*edge)),
            PlanOp::HashGroup { key, .. } => {
                format!("HashGroup {}", render_grouping(catalog, key))
            }
        };
        let properties = probes
            .iter()
            .filter(|p| oracle.satisfies(n.state, p.key))
            .map(|p| p.rendered.clone())
            .collect();
        let children =
            n.op.inputs()
                .map(|c| self.build_node(c, catalog, query, oracle, probes))
                .collect();
        ExplainNode {
            op,
            cost: n.cost,
            card: n.card,
            properties,
            children,
        }
    }
}
