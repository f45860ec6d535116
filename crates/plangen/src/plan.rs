//! Physical plans: an arena of operator nodes.
//!
//! Plan nodes live in one flat arena (`Vec`) and reference each other by
//! dense [`PlanId`] — the representation the paper assumes when it talks
//! about "millions of subplans" whose per-node order annotation must be
//! tiny. The node's order state is the generic parameter `S` (4 bytes
//! for the DFSM framework, ordering+environment handles for Simmen).
//! Covered relation sets and applied-FD masks are [`BitSet`]s: one inline
//! word — no allocation — until a query has more than 64 relations or
//! predicates, and no cap beyond.
//!
//! The DP pushes every plan it admits straight into the one arena, in
//! the order it admits them, so a node's id is its allocation rank and
//! every child id is smaller than its parent's.

use ofw_common::BitSet;

/// Index of a plan node in the arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanId(pub u32);

impl std::fmt::Debug for PlanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Aggregation placement marks: which aggregation transformations have
/// been applied somewhere in a subplan. Plans with different marks
/// compute *different intermediate relations* for the same relation
/// subset (an eagerly aggregated stream has fewer rows and partial
/// per-group results), so Pareto pruning only ever compares plans with
/// equal marks — the extra plan-space dimension of aggregation
/// placement. Marks are OR-combined by joins.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AggMark(u8);

impl AggMark {
    /// No aggregation applied below — the classic join-only subplan.
    pub const NONE: AggMark = AggMark(0);
    /// An eager group-by partial aggregate was pushed below a join.
    pub const EAGER: AggMark = AggMark(1);
    /// An eager-count partial aggregate was pushed below a join.
    pub const EAGER_COUNT: AggMark = AggMark(2);
    /// The final aggregation happened (root aggregate or group-join).
    pub const FINAL: AggMark = AggMark(4);

    /// Marks of a join of two subplans (set union).
    pub fn union(self, other: AggMark) -> AggMark {
        AggMark(self.0 | other.0)
    }

    /// True when no aggregation has been applied below.
    pub fn is_none(self) -> bool {
        self == AggMark::NONE
    }

    /// True when the final aggregation already happened.
    pub fn is_final(self) -> bool {
        self.0 & AggMark::FINAL.0 != 0
    }

    /// Index of this mark's comparability class, `0..AGG_CLASSES` —
    /// the 3-bit encoding as a telemetry bucket (see
    /// `ofw_obs::PruneCounters`).
    pub fn class_index(self) -> usize {
        (self.0 & 7) as usize
    }
}

impl std::fmt::Debug for AggMark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_none() {
            return write!(f, "-");
        }
        let mut sep = "";
        for (bit, name) in [(1u8, "E"), (2, "C"), (4, "F")] {
            if self.0 & bit != 0 {
                write!(f, "{sep}{name}")?;
                sep = "+";
            }
        }
        Ok(())
    }
}

/// A physical operator.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanOp {
    /// Unordered full scan of a query relation.
    Scan { qrel: usize },
    /// Ordered scan of an index of the relation.
    IndexScan { qrel: usize, index: usize },
    /// Explicit sort enforcer to an interesting order.
    Sort {
        input: PlanId,
        /// The produced sort key (attribute sequence).
        key: Vec<ofw_catalog::AttrId>,
    },
    /// Partial-sort enforcer to an interesting order, exploiting an
    /// input whose `head` groups are already adjacent (and possibly
    /// internally sorted by a tail prefix of `key`): blocks move as
    /// units and only the residue inside each block is compared, so the
    /// cost is `O(n · log(n/groups))` instead of a full sort's
    /// `O(n · log n)`. Producible exactly when the input satisfies the
    /// head grouping (or a head/tail pair covering more of `key`).
    PartialSort {
        input: PlanId,
        /// The produced sort key (attribute sequence) — the full
        /// interesting order, like [`PlanOp::Sort`].
        key: Vec<ofw_catalog::AttrId>,
        /// The key prefix the input's groups already cover (the head
        /// set plus any within-group sorted tail prefix) — what the
        /// `groups` estimate in the cost is taken over.
        head: Vec<ofw_catalog::AttrId>,
    },
    /// Merge join: both inputs sorted on the join attributes of `edge`.
    MergeJoin {
        left: PlanId,
        right: PlanId,
        edge: usize,
    },
    /// Hash join on `edge` (build right, probe left; preserves the
    /// probe side's physical order).
    HashJoin {
        left: PlanId,
        right: PlanId,
        edge: usize,
    },
    /// Nested-loop join (any predicates; preserves outer order).
    NestedLoopJoin { left: PlanId, right: PlanId },
    /// Streaming (sort/group-based) aggregation on `key`: requires (and
    /// exploits) input ordered *or grouped* by `key`, emits one row per
    /// group in input group order (a subsequence — every input property
    /// survives). `partial` marks a pushed-down eager aggregate whose
    /// per-group results a final aggregate still combines.
    StreamAgg {
        input: PlanId,
        /// The grouping key (attribute set).
        key: Vec<ofw_catalog::AttrId>,
        /// Pushed-down partial aggregate (eager placement)?
        partial: bool,
    },
    /// Hash aggregation on `key`: order-agnostic, destroys every input
    /// ordering, but its output *is* grouped by `key`. `partial` as in
    /// [`PlanOp::StreamAgg`].
    HashAgg {
        input: PlanId,
        /// The grouping key (attribute set).
        key: Vec<ofw_catalog::AttrId>,
        /// Pushed-down partial aggregate (eager placement)?
        partial: bool,
    },
    /// Group-join: join and final aggregation fused into one pass over a
    /// probe input whose groups are already adjacent (the join key — or
    /// the probe's properties plus the join's dependencies —
    /// functionally determines the group). Emits one row per group,
    /// preserving the probe input's properties.
    GroupJoin {
        left: PlanId,
        right: PlanId,
        edge: usize,
    },
    /// Hash-grouping enforcer: rearranges the stream so tuples equal on
    /// `key` become adjacent (the grouping analogue of the sort
    /// enforcer — linear, no ordering produced).
    HashGroup {
        input: PlanId,
        /// The produced grouping key (attribute set).
        key: Vec<ofw_catalog::AttrId>,
    },
}

impl PlanOp {
    /// The operator's display name — the label execution telemetry,
    /// error reports and the cost-calibration table key per-operator
    /// data on.
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::Scan { .. } => "Scan",
            PlanOp::IndexScan { .. } => "IndexScan",
            PlanOp::Sort { .. } => "Sort",
            PlanOp::PartialSort { .. } => "PartialSort",
            PlanOp::MergeJoin { .. } => "MergeJoin",
            PlanOp::HashJoin { .. } => "HashJoin",
            PlanOp::NestedLoopJoin { .. } => "NestedLoopJoin",
            PlanOp::StreamAgg { .. } => "StreamAgg",
            PlanOp::HashAgg { .. } => "HashAgg",
            PlanOp::GroupJoin { .. } => "GroupJoin",
            PlanOp::HashGroup { .. } => "HashGroup",
        }
    }

    /// The operator's child plans (0, 1 or 2) — the single source of
    /// truth for tree traversal, so adding an operator variant cannot
    /// silently break a walker.
    pub fn inputs(&self) -> impl Iterator<Item = PlanId> + '_ {
        let (a, b) = match self {
            PlanOp::Scan { .. } | PlanOp::IndexScan { .. } => (None, None),
            PlanOp::Sort { input, .. }
            | PlanOp::PartialSort { input, .. }
            | PlanOp::StreamAgg { input, .. }
            | PlanOp::HashAgg { input, .. }
            | PlanOp::HashGroup { input, .. } => (Some(*input), None),
            PlanOp::MergeJoin { left, right, .. }
            | PlanOp::HashJoin { left, right, .. }
            | PlanOp::GroupJoin { left, right, .. }
            | PlanOp::NestedLoopJoin { left, right } => (Some(*left), Some(*right)),
        };
        [a, b].into_iter().flatten()
    }
}

/// One plan node: operator, covered relations, estimates, order state.
#[derive(Clone, Debug)]
pub struct PlanNode<S> {
    /// The operator.
    pub op: PlanOp,
    /// Set of covered query relations.
    pub mask: BitSet,
    /// Cumulative cost estimate.
    pub cost: f64,
    /// Output cardinality estimate.
    pub card: f64,
    /// Order-oracle state (the ADT instance of §5.6).
    pub state: S,
    /// Aggregation placement marks — the comparability class of the
    /// aggregation plan-space dimension (see [`AggMark`]).
    pub agg: AggMark,
    /// Set of FD-set handles applied beneath this node — what a sort
    /// enforcer must replay ("following the edge … and then another edge
    /// corresponding to the set of functional dependencies that
    /// currently hold", §5.6).
    pub applied_fds: BitSet,
}

/// A candidate plan *before* materialization: the four scalars the
/// branch-and-bound and Pareto checks need, on the stack. The DP builds
/// one of these per alternative, runs the cost bound and the
/// arrival-dominance test against it, and only constructs the full
/// [`PlanNode`] (operator, mask and FD-mask copies) for survivors. That
/// is what keeps `#Plans` ≈ plans kept instead of plans imagined.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CandidatePlan<S> {
    /// Cumulative cost estimate.
    pub cost: f64,
    /// Output cardinality estimate.
    pub card: f64,
    /// Order-oracle state.
    pub state: S,
    /// Aggregation comparability class.
    pub agg: AggMark,
}

impl<S> CandidatePlan<S> {
    /// The cost half of the Pareto test: `self` is in `other`'s
    /// comparability class at no higher cost and, within an aggregated
    /// class, no larger cardinality.
    pub fn cheaper(&self, other: &CandidatePlan<S>) -> bool {
        self.agg == other.agg
            && self.cost <= other.cost
            && (self.agg.is_none() || self.card <= other.card)
    }
}

impl<S: Copy> PlanNode<S> {
    /// The node's Pareto scalars.
    pub(crate) fn candidate(&self) -> CandidatePlan<S> {
        CandidatePlan {
            cost: self.cost,
            card: self.card,
            state: self.state,
            agg: self.agg,
        }
    }
}

/// The arena.
#[derive(Clone, Debug, Default)]
pub struct PlanArena<S> {
    nodes: Vec<PlanNode<S>>,
}

impl<S: Copy> PlanArena<S> {
    /// An empty arena.
    pub fn new() -> Self {
        PlanArena { nodes: Vec::new() }
    }

    /// Allocates a node; every allocation counts towards the paper's
    /// `#Plans` metric.
    pub fn push(&mut self, node: PlanNode<S>) -> PlanId {
        let id = u32::try_from(self.nodes.len()).expect("plan arena overflow");
        self.nodes.push(node);
        PlanId(id)
    }

    /// Node lookup.
    #[inline]
    pub fn node(&self, id: PlanId) -> &PlanNode<S> {
        &self.nodes[id.0 as usize]
    }

    /// Total nodes ever allocated (`#Plans`).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True before the first allocation.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All nodes in allocation order (for fingerprinting and tests).
    pub fn nodes(&self) -> impl Iterator<Item = &PlanNode<S>> {
        self.nodes.iter()
    }

    /// Counts operators in the tree rooted at `id`.
    pub fn tree_size(&self, id: PlanId) -> usize {
        1 + self
            .node(id)
            .op
            .inputs()
            .map(|c| self.tree_size(c))
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(bits: &[usize]) -> BitSet {
        bits.iter().copied().collect()
    }

    fn leaf(qrel: usize) -> PlanNode<u32> {
        PlanNode {
            op: PlanOp::Scan { qrel },
            mask: set(&[qrel]),
            cost: 10.0,
            card: 10.0,
            state: 0,
            agg: AggMark::NONE,
            applied_fds: BitSet::new(),
        }
    }

    #[test]
    fn arena_allocates_densely() {
        let mut a: PlanArena<u32> = PlanArena::new();
        let p0 = a.push(leaf(0));
        let p1 = a.push(leaf(1));
        assert_eq!(p0, PlanId(0));
        assert_eq!(p1, PlanId(1));
        assert_eq!(a.len(), 2);
        assert_eq!(a.node(p1).mask, set(&[1]));
    }

    #[test]
    fn tree_size_counts_every_operator() {
        let mut a: PlanArena<u32> = PlanArena::new();
        let l = a.push(leaf(0));
        let r = a.push(leaf(1));
        let j = a.push(PlanNode {
            op: PlanOp::MergeJoin {
                left: l,
                right: r,
                edge: 0,
            },
            mask: set(&[0, 1]),
            cost: 30.0,
            card: 5.0,
            state: 0,
            agg: AggMark::NONE,
            applied_fds: [0usize].into_iter().collect(),
        });
        let s = a.push(PlanNode {
            op: PlanOp::Sort {
                input: j,
                key: vec![],
            },
            mask: set(&[0, 1]),
            cost: 60.0,
            card: 5.0,
            state: 1,
            agg: AggMark::NONE,
            applied_fds: [0usize].into_iter().collect(),
        });
        assert_eq!(a.tree_size(s), 4);
        assert_eq!(a.tree_size(j), 3);
    }
}
