//! The Pareto set of one subset and the gate every candidate passes.

use super::*;

/// One admitted member of a [`ParetoSet`].
pub(super) struct ParetoEntry<S> {
    pub(super) id: PlanId,
    pub(super) plan: CandidatePlan<S>,
}

/// The Pareto set of one subset under construction: its members in
/// insertion order — the order downstream consumers (enforcer scans,
/// the committed plan table) depend on for determinism. A member
/// dominates a plan when it is [`cheaper`](CandidatePlan::cheaper) and
/// its state dominates the plan's.
pub(super) struct ParetoSet<S> {
    pub(super) entries: Vec<ParetoEntry<S>>,
}

/// Does a stream in state `a` dominate one in state `b`? Equal states
/// answer through reflexivity without an oracle call (counted in
/// `dominance_memo_hits`); every other pair is one oracle probe.
fn dominates<O: OrderOracle>(
    oracle: &O,
    a: O::State,
    b: O::State,
    dc: &mut DecisionCounters,
) -> bool {
    if a == b {
        dc.probes.dominance_memo_hits += 1;
        return true;
    }
    dc.probes.dominates += 1;
    oracle.dominates(a, b)
}

impl<S: Copy + Eq> ParetoSet<S> {
    pub(super) fn new() -> Self {
        ParetoSet {
            entries: Vec::new(),
        }
    }

    /// Inserts a member without any dominance checks — used for seeds
    /// (already a Pareto set).
    pub(super) fn insert_unchecked(&mut self, id: PlanId, plan: CandidatePlan<S>) {
        self.entries.push(ParetoEntry { id, plan });
    }

    /// Arrival test: is `cand` dominated by an existing member? Charges
    /// the rejection to the candidate's class.
    fn arrival_dominated<O: OrderOracle<State = S>>(
        &self,
        oracle: &O,
        cand: &CandidatePlan<S>,
        dc: &mut DecisionCounters,
    ) -> bool {
        let dominated = self
            .entries
            .iter()
            .any(|m| m.plan.cheaper(cand) && dominates(oracle, m.plan.state, cand.state, dc));
        if dominated {
            dc.pruning.dominated[cand.agg.class_index()] += 1;
        }
        dominated
    }

    /// Admits a surviving candidate (already materialized as `id`):
    /// evicts every member it dominates, then appends it.
    fn admit<O: OrderOracle<State = S>>(
        &mut self,
        oracle: &O,
        id: PlanId,
        cand: &CandidatePlan<S>,
        dc: &mut DecisionCounters,
    ) {
        let class = cand.agg.class_index();
        self.entries.retain(|m| {
            let evict = cand.cheaper(&m.plan) && dominates(oracle, cand.state, m.plan.state, dc);
            dc.pruning.dominated[class] += u64::from(evict);
            !evict
        });
        self.insert_unchecked(id, *cand);
    }

    /// The surviving plan ids in insertion order — what the plan table
    /// commits.
    pub(super) fn ids(&self) -> Vec<PlanId> {
        self.entries.iter().map(|e| e.id).collect()
    }
}

/// One subset under construction and the gate every one of its
/// candidates passes: the arena, the subset's Pareto set, its cost
/// upper bound `ub`, its relation mask and the phase's counters.
///
/// Prune-before-build: an emitter offers a candidate as a stack-only
/// [`CandidatePlan`] plus a closure for its operator and applied FDs,
/// and the node is materialized only after the candidate clears the
/// cost bound and the arrival-dominance test. Pruned candidates
/// therefore cost no arena allocation — `#Plans` counts plans that
/// entered the table (including ones a later candidate evicts), which
/// is still "the time to introduce one plan operator" for the work
/// actually performed. Every pruning counter is charged here.
///
/// Aggregation placement adds a comparability dimension: plans with
/// different [`AggMark`]s compute different intermediate relations
/// and never prune each other, and plans *inside* an aggregated
/// class additionally compare output cardinality (two eager plans
/// with partial aggregates at different subsets produce genuinely
/// different row counts — the cheaper one is not better if it
/// carries more rows into every operator above). Unaggregated plans
/// of one subset all compute the same relation, so they keep the
/// classic cost-plus-property test ([`CandidatePlan::cheaper`]
/// decides which members a dominance check is asked about).
pub(super) struct Gate<'g, O: OrderOracle> {
    oracle: &'g O,
    pub(super) arena: &'g mut PlanArena<O::State>,
    pub(super) set: ParetoSet<O::State>,
    pub(super) ub: f64,
    /// The relations every plan of the subset covers.
    pub(super) mask: &'g BitSet,
    pub(super) dc: &'g mut DecisionCounters,
}

impl<'g, O: OrderOracle> Gate<'g, O> {
    /// An empty subset under `ub`.
    pub(super) fn new(
        oracle: &'g O,
        arena: &'g mut PlanArena<O::State>,
        mask: &'g BitSet,
        ub: f64,
        dc: &'g mut DecisionCounters,
    ) -> Self {
        Gate {
            oracle,
            arena,
            set: ParetoSet::new(),
            ub,
            mask,
            dc,
        }
    }

    /// Node lookup.
    pub(super) fn node(&self, id: PlanId) -> &PlanNode<O::State> {
        self.arena.node(id)
    }

    /// Offers a new plan: `node` builds its operator and applied FDs
    /// only if `cand` is admitted. Returns the admitted plan's id, or
    /// `None` when the candidate was bound-pruned or dominated on
    /// arrival.
    pub(super) fn offer(
        &mut self,
        cand: CandidatePlan<O::State>,
        node: impl FnOnce() -> (PlanOp, BitSet),
    ) -> Option<PlanId> {
        self.admit(cand, |g| {
            let (op, applied_fds) = node();
            g.push(cand, op, applied_fds)
        })
    }

    /// Offers a plan that is already in the arena (the group-join
    /// passthrough at finalization).
    pub(super) fn offer_existing(&mut self, id: PlanId) {
        let cand = self.arena.node(id).candidate();
        self.admit(cand, |_| id);
    }

    /// The two tests and the admission: `id` is called only when `cand`
    /// clears both.
    fn admit(
        &mut self,
        cand: CandidatePlan<O::State>,
        id: impl FnOnce(&mut Self) -> PlanId,
    ) -> Option<PlanId> {
        if cand.cost > self.ub {
            self.dc.pruning.bound_pruned += 1;
            return None;
        }
        if self.set.arrival_dominated(self.oracle, &cand, self.dc) {
            return None;
        }
        let id = id(self);
        self.set.admit(self.oracle, id, &cand, self.dc);
        self.dc.pruning.kept[cand.agg.class_index()] += 1;
        Some(id)
    }

    /// Materializes a plan of this subset outright, past both tests —
    /// the admitted ones above, and the root `ORDER BY` enforcer, which
    /// tops the one plan already chosen.
    pub(super) fn push(
        &mut self,
        cand: CandidatePlan<O::State>,
        op: PlanOp,
        applied_fds: BitSet,
    ) -> PlanId {
        self.arena.push(PlanNode {
            op,
            mask: self.mask.clone(),
            cost: cand.cost,
            card: cand.card,
            state: cand.state,
            agg: cand.agg,
            applied_fds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An oracle whose only meaningful operation is `dominates`: an
    /// arbitrary reflexive relation over `STATES` states (row-major
    /// matrix) — not transitive, not antisymmetric.
    struct RelationOracle(Vec<bool>);

    const STATES: u8 = 5;

    impl OrderOracle for RelationOracle {
        type State = u8;
        type Key = ();
        fn resolve(&self, _: &LogicalProperty) -> Option<()> {
            unreachable!("the Pareto set only asks `dominates`")
        }
        fn is_producible(&self, _: ()) -> bool {
            unreachable!("the Pareto set only asks `dominates`")
        }
        fn produce_empty(&self) -> u8 {
            unreachable!("the Pareto set only asks `dominates`")
        }
        fn produce(&self, _: ()) -> u8 {
            unreachable!("the Pareto set only asks `dominates`")
        }
        fn infer(&self, _: u8, _: FdSetId) -> u8 {
            unreachable!("the Pareto set only asks `dominates`")
        }
        fn satisfies(&self, _: u8, _: ()) -> bool {
            unreachable!("the Pareto set only asks `dominates`")
        }
        fn dominates(&self, a: u8, b: u8) -> bool {
            self.0[usize::from(a) * usize::from(STATES) + usize::from(b)]
        }
        fn memory_bytes(&self, _: usize) -> usize {
            0
        }
        fn name(&self) -> &'static str {
            "relation"
        }
    }

    mod pareto_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The Pareto set against the quadratic filter written from
            /// the definition: a candidate is dropped iff a survivor in
            /// its class costs no more (and, when aggregated, carries no
            /// more rows) and dominates its state; otherwise it evicts
            /// every survivor it beats the same way. Survivor ids in
            /// order, every counter, and mutual non-dominance.
            #[test]
            fn pareto_set_matches_a_naive_quadratic_filter(
                bits in proptest::collection::vec(0u8..2, 25..=25),
                stream in proptest::collection::vec((0u8..4, 0u8..3, 0usize..3, 0u8..STATES), 0..40),
            ) {
                let mut rel: Vec<bool> = bits.iter().map(|&b| b == 1).collect();
                for s in 0..usize::from(STATES) {
                    rel[s * usize::from(STATES) + s] = true;
                }
                let oracle = RelationOracle(rel);
                let marks = [AggMark::NONE, AggMark::EAGER, AggMark::FINAL];
                let cands: Vec<CandidatePlan<u8>> = stream
                    .iter()
                    .map(|&(cost, card, agg, state)| CandidatePlan {
                        cost: f64::from(cost),
                        card: f64::from(card),
                        state,
                        agg: marks[agg],
                    })
                    .collect();

                let mut set = ParetoSet::new();
                let mut dc = DecisionCounters::default();
                for (i, cand) in cands.iter().enumerate() {
                    if !set.arrival_dominated(&oracle, cand, &mut dc) {
                        set.admit(&oracle, PlanId(i as u32), cand, &mut dc);
                        dc.pruning.kept[cand.agg.class_index()] += 1;
                    }
                }

                let mut want = DecisionCounters::default();
                let mut beats = |a: &CandidatePlan<u8>, b: &CandidatePlan<u8>| {
                    let no_worse = a.agg == b.agg
                        && a.cost <= b.cost
                        && (a.agg == AggMark::NONE || a.card <= b.card);
                    if !no_worse {
                        return false;
                    }
                    if a.state == b.state {
                        want.probes.dominance_memo_hits += 1;
                    } else {
                        want.probes.dominates += 1;
                    }
                    oracle.dominates(a.state, b.state)
                };
                let mut survivors: Vec<usize> = Vec::new();
                let mut dominated = [0u64; ofw_obs::AGG_CLASSES];
                let mut kept = [0u64; ofw_obs::AGG_CLASSES];
                for (i, c) in cands.iter().enumerate() {
                    let class = c.agg.class_index();
                    if survivors.iter().any(|&j| beats(&cands[j], c)) {
                        dominated[class] += 1;
                        continue;
                    }
                    let mut next = Vec::new();
                    for &j in &survivors {
                        if beats(c, &cands[j]) {
                            dominated[class] += 1;
                        } else {
                            next.push(j);
                        }
                    }
                    next.push(i);
                    survivors = next;
                    kept[class] += 1;
                }
                want.pruning.dominated = dominated;
                want.pruning.kept = kept;

                let ids: Vec<usize> = set.ids().iter().map(|p| p.0 as usize).collect();
                prop_assert_eq!(&ids, &survivors);
                prop_assert_eq!(&dc, &want);
                for &a in &survivors {
                    for &b in &survivors {
                        let (x, y) = (&cands[a], &cands[b]);
                        prop_assert!(
                            a == b || !(x.cheaper(y) && oracle.dominates(x.state, y.state)),
                            "survivor {} dominates survivor {}", a, b
                        );
                    }
                }
            }
        }
    }
}
