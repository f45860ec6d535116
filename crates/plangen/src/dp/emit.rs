//! The emitters: base plans, joins, aggregates and enforcers. Each one
//! builds stack-only candidates and offers them to the subset's
//! [`Gate`], which decides their fate.

use super::pareto::Gate;
use super::*;

impl<O: OrderOracle> PlanGen<'_, O> {
    /// The cheapest admissible partial sort to the ordering target `t`
    /// of a plan in `state` with `card` rows: the first
    /// (deepest-coverage) satisfied probe decides how much of the key
    /// the input's blocks already cover, and the cost model charges only
    /// the within-block residue. `None` when no head grouping (or pair)
    /// is satisfied — then only the full sort can enforce the ordering.
    fn best_partial_sort(
        &self,
        t: &EnforcerTarget<O::Key>,
        state: O::State,
        card: f64,
        dc: &mut DecisionCounters,
    ) -> Option<(f64, usize)> {
        if !self.partial_sort {
            return None;
        }
        for p in &t.psort {
            dc.probes.satisfies += 1;
            if self.oracle.satisfies(state, p.key) {
                let groups = self.group_count(card, &t.attrs[..p.covered]);
                return Some((cost::partial_sort(card, groups), p.covered));
            }
        }
        None
    }

    /// The streaming-admission test: is a stream in `state` ordered by
    /// `keys` or, failing that, grouped by it? Either makes each group
    /// one contiguous run. One counted probe per interesting handle
    /// asked, ordering first.
    fn streams_on(
        &self,
        state: O::State,
        keys: &AggKeyHandles<O::Key>,
        dc: &mut DecisionCounters,
    ) -> bool {
        [keys.order, keys.group].into_iter().flatten().any(|k| {
            dc.probes.satisfies += 1;
            self.oracle.satisfies(state, k)
        })
    }

    /// Offers one aggregate candidate on `keys` over plan `p` — the
    /// single implementation behind final aggregates and pushed-down
    /// partials: streaming when the input satisfies the key as an
    /// ordering *or* a grouping (its output is a subsequence — first
    /// row per group — so every input property and applied FD
    /// survives), hashing otherwise (destroys all orderings but
    /// *produces* the key's grouping). Whether the node is a partial
    /// follows from `mark`: final marks combine partials, everything
    /// else *is* a partial.
    ///
    /// Bound-checked before the admission probes with the aggregate
    /// cost floor (a streaming aggregate, the cheapest variant) — a
    /// pruned aggregate costs no allocation.
    fn offer_aggregate(
        &self,
        g: &mut Gate<'_, O>,
        p: PlanId,
        keys: &AggKeyHandles<O::Key>,
        mark: AggMark,
        groups: f64,
    ) {
        let (c, d, st) = {
            let n = g.node(p);
            (n.cost, n.card, n.state)
        };
        if c + cost::streaming_aggregate(d) > g.ub {
            g.dc.pruning.bound_pruned += 1;
            return;
        }
        let fd_bits = g.node(p).applied_fds.clone();
        let partial = !mark.is_final();
        let streaming = self.streams_on(st, keys, g.dc);
        let (op_cost, state, fds_out) = if streaming {
            (cost::streaming_aggregate(d), st, fd_bits)
        } else {
            g.dc.probes.produce += 1;
            let state = match keys.producible {
                Some(k) => self.replay_fds(self.oracle.produce(k), &fd_bits, g.dc),
                None => self.oracle.produce_empty(),
            };
            (cost::hash_aggregate(d), state, BitSet::new())
        };
        let cand = CandidatePlan {
            cost: c + op_cost,
            card: groups,
            state,
            agg: mark,
        };
        g.offer(cand, || {
            let (input, key) = (p, keys.attrs.clone());
            let op = if streaming {
                PlanOp::StreamAgg {
                    input,
                    key,
                    partial,
                }
            } else {
                PlanOp::HashAgg {
                    input,
                    key,
                    partial,
                }
            };
            (op, fds_out)
        });
    }

    /// Final-aggregation alternatives for every complete plan (streaming
    /// vs hashing per [`offer_aggregate`](Self::offer_aggregate)).
    /// Eagerly pre-aggregated plans finalize the same way — the root
    /// aggregate combines their partials — while group-join plans are
    /// already final and pass through untouched.
    pub(super) fn finalize_aggregates(
        &self,
        keys: &AggKeyHandles<O::Key>,
        plans: &[PlanId],
        g: &mut Gate<'_, O>,
    ) {
        for &p in plans {
            let agg = g.node(p).agg;
            if agg.is_final() {
                // Group-join output: the aggregation already happened.
                g.offer_existing(p);
                continue;
            }
            let groups = self.final_group_count(g.node(p).card, &keys.attrs);
            self.offer_aggregate(g, p, keys, agg.union(AggMark::FINAL), groups);
        }
    }

    /// Aggregation-placement variants for one subset — the tentpole of
    /// the aggregation plan-space dimension. For every unaggregated plan
    /// of the subset, an *eager* partial aggregate (on the side carrying
    /// the aggregated attributes) or an *eager-count* partial aggregate
    /// (on the opposite side) is placed above it when the aggregate
    /// functions' decomposability permits. The aggregation key is the
    /// subset's canonical key — group-by attributes inside, join
    /// attributes crossing out, minimized under the subset's
    /// dependencies — so every later join and the final combine remain
    /// answerable. Streaming when the plan's properties already group
    /// the key; hashing otherwise. The resulting plans live in their own
    /// comparability class ([`AggMark`]), never evicting (or being
    /// evicted by) the classic join-only plans: their payoff is the
    /// collapsed cardinality every operator above them enjoys.
    pub(super) fn add_placement_variants(&self, g: &mut Gate<'_, O>) {
        if !self.placement {
            return;
        }
        let Some(agg) = &self.agg else {
            return;
        };
        let mask = g.mask;
        // Never at the root set: a partial aggregate there could only
        // feed the final aggregate it is redundant with.
        if mask.len() == self.query.num_relations() {
            return;
        }
        let eager = agg.decomposable && agg.input_owners.iter().all(|r| mask.contains(r));
        let mark = if eager {
            AggMark::EAGER
        } else if agg.count_scalable && !agg.input_owners.iter().any(|r| mask.contains(r)) {
            AggMark::EAGER_COUNT
        } else {
            return; // aggregate inputs split across the cut — no legal placement
        };
        let key = self.ex.subset_agg_key(self.query, mask);
        if key.is_empty() {
            return;
        }
        let keys = Self::resolve_agg_key(self.oracle, key.attrs().to_vec());
        let snapshot: Vec<(PlanId, f64)> = g
            .set
            .entries
            .iter()
            .filter(|m| m.plan.agg.is_none())
            .map(|m| (m.id, m.plan.card))
            .collect();
        for (p, card) in snapshot {
            let groups = self.group_count(card, &keys.attrs);
            self.offer_aggregate(g, p, &keys, mark, groups);
        }
    }

    /// Scan and index-scan plans for one relation, with constant-
    /// predicate FDs applied and filter selectivities folded in —
    /// offered to the singleton's gate. The cheapest access path can
    /// never bust the bound (the bound provider's plan pays at least
    /// that much for this relation), so the set is never left empty;
    /// pricier index scans are bound-checked before their state is
    /// produced.
    pub(super) fn base_plans(&self, qrel: usize, g: &mut Gate<'_, O>) {
        let rel = self.query.relations[qrel];
        let raw_card = self.catalog.relation(rel).cardinality;
        let mut sel = 1.0;
        let mut fd_bits = BitSet::new();
        let mut fds: Vec<FdSetId> = Vec::new();
        for (i, c) in self.query.constants.iter().enumerate() {
            if self.query.owner(c.attr) == qrel {
                sel *= c.selectivity;
                let f = self.ex.const_fd[i];
                fds.push(f);
                fd_bits.insert(f.index());
            }
        }
        // Schema (key-constraint) FDs hold from the scan onward: a
        // unique column determines the relation's other attributes —
        // what lets a join key determine the aggregation group.
        if let Some(f) = self.ex.rel_fd.get(qrel).copied().flatten() {
            fds.push(f);
            fd_bits.insert(f.index());
        }
        for f in &self.query.filters {
            if self.query.owner(f.attr) == qrel {
                sel *= f.selectivity;
            }
        }
        let card = (raw_card * sel).max(1.0);
        // The access path's state: `start` with the relation's FDs
        // applied in order.
        let access = |g: &mut Gate<'_, O>, start: O::State, cost: f64| {
            let mut state = start;
            for &f in &fds {
                g.dc.probes.infer += 1;
                state = self.oracle.infer(state, f);
            }
            CandidatePlan {
                cost,
                card,
                state,
                agg: AggMark::NONE,
            }
        };
        // Heap scan.
        g.dc.probes.produce += 1;
        let scan = access(g, self.oracle.produce_empty(), cost::scan(raw_card));
        g.offer(scan, || (PlanOp::Scan { qrel }, fd_bits.clone()));
        // Index scans (only when the index order is interesting —
        // otherwise the order information is useless for this query and
        // the heap scan dominates). Bound-checked before the state is
        // produced: the cost needs no oracle.
        for (idx, index) in self.catalog.relation(rel).indexes.iter().enumerate() {
            let ordering = Ordering::new(index.key.clone()).into();
            let Some(key) = self.oracle.resolve(&ordering) else {
                continue;
            };
            if !self.oracle.is_producible(key) {
                continue;
            }
            let ix_cost = cost::index_scan(raw_card, index.clustered);
            if ix_cost > g.ub {
                g.dc.pruning.bound_pruned += 1;
                continue;
            }
            g.dc.probes.produce += 1;
            let ix = access(g, self.oracle.produce(key), ix_cost);
            g.offer(ix, || {
                (PlanOp::IndexScan { qrel, index: idx }, fd_bits.clone())
            });
        }
    }

    /// All join alternatives for the ordered partition `(l, r)` of
    /// committed subsets (flat indices into `subsets` and `table`).
    ///
    /// Prune-before-build: each plan combination is first tested
    /// against the subset's cost upper bound with
    /// [`cost::join_floor`] — a bust rejects every join alternative of
    /// the combination before any oracle inference, FD-set clone or
    /// node allocation happens. Survivors offer stack-only
    /// [`CandidatePlan`]s per alternative to the [`Gate`], which
    /// materializes a node only after the bound and arrival-dominance
    /// checks pass.
    pub(super) fn emit_joins(
        &self,
        subsets: &[BitSet],
        table: &[Vec<PlanId>],
        (l, r): (u32, u32),
        g: &mut Gate<'_, O>,
    ) {
        let (s1, s2) = (&subsets[l as usize], &subsets[r as usize]);
        let edges: Vec<usize> = self.graph.connecting_edges(s1, s2).collect();
        if edges.is_empty() {
            return; // would be a cross product
        }
        let sel: f64 = edges
            .iter()
            .map(|&e| self.query.joins[e].selectivity)
            .product();
        // Fused group-joins exist only at the root subset: they perform
        // the query's *final* aggregation, on its final key.
        let at_root = g.mask.len() == self.query.num_relations();
        let group_join_key = self
            .final_key
            .as_ref()
            .filter(|_| at_root && self.placement && self.agg.is_some());
        for &p1 in &table[l as usize] {
            for &p2 in &table[r as usize] {
                let n1 = g.node(p1);
                let (c1, d1, st1, mark1) = (n1.cost, n1.card, n1.state, n1.agg);
                let n2 = g.node(p2);
                let (c2, d2, mark2) = (n2.cost, n2.card, n2.agg);
                let mark = mark1.union(mark2);
                let out_card = (d1 * d2 * sel).max(1.0);
                // Pair-level bound check: no join operator over these
                // two inputs can cost less than the floor, so a bust
                // rejects the two unconditional alternatives (hash,
                // nested-loop) at once — counted as such — and skips
                // the conditional ones before any state is inferred.
                if c1 + c2 + cost::join_floor(d1, d2, out_card) > g.ub {
                    g.dc.pruning.bound_pruned += 2;
                    continue;
                }
                // Property state: the probe/outer (left) side's
                // orderings and groupings survive; all connecting
                // predicates' equations now hold.
                let mut fd_bits = g.node(p1).applied_fds.clone();
                fd_bits.union_with(&g.node(p2).applied_fds);
                let mut state = st1;
                for &e in &edges {
                    let f = self.ex.join_fd[e];
                    g.dc.probes.infer += 1;
                    state = self.oracle.infer(state, f);
                    fd_bits.insert(f.index());
                }
                // Schema FDs are key constraints — they hold on the
                // join output no matter which side carried them, but
                // only the probe side's chain is in `state`. Re-infer
                // the build side's (idempotent when already applied);
                // with the edge equations this is what makes a join key
                // determine a build-side group column.
                if self.agg.is_some() {
                    for r in s2.iter() {
                        if let Some(f) = self.ex.rel_fd.get(r).copied().flatten() {
                            g.dc.probes.infer += 1;
                            state = self.oracle.infer(state, f);
                        }
                    }
                }
                let join = |cost: f64| CandidatePlan {
                    cost,
                    card: out_card,
                    state,
                    agg: mark,
                };
                // Hash join (on the first edge; the rest are residual
                // predicates either way).
                let (left, right, edge) = (p1, p2, edges[0]);
                let hj = join(c1 + c2 + cost::hash_join(d1, d2, out_card));
                g.offer(hj, || {
                    (PlanOp::HashJoin { left, right, edge }, fd_bits.clone())
                });
                // Nested-loop join.
                let nl = join(c1 + c2 + cost::nested_loop_join(d1, d2, out_card));
                g.offer(nl, || {
                    (PlanOp::NestedLoopJoin { left, right }, fd_bits.clone())
                });
                // Group-join: the top join fused with the final
                // aggregation, admissible when the probe side's groups
                // are already adjacent — its properties, the schema FDs,
                // and the join's own equations together make the join
                // key (or whatever the probe is grouped by) functionally
                // determine the group, which is exactly what the
                // post-inference `state` answers in O(1). The bound is
                // checked before the admission probes: a busted fused
                // plan never reaches the oracle.
                if let Some(key) = group_join_key.filter(|_| !mark.is_final()) {
                    let gj_cost = c1 + c2 + cost::group_join(d1, d2, out_card);
                    if gj_cost > g.ub {
                        g.dc.pruning.bound_pruned += 1;
                    } else if self.streams_on(state, key, g.dc) {
                        let gj = CandidatePlan {
                            card: self.group_count(out_card, &key.attrs),
                            agg: mark.union(AggMark::FINAL),
                            ..join(gj_cost)
                        };
                        g.offer(gj, || {
                            (PlanOp::GroupJoin { left, right, edge }, fd_bits.clone())
                        });
                    }
                }
                // Merge joins: need both inputs sorted on the edge. The
                // bound is checked before the satisfies probes.
                for &edge in &edges {
                    let j = &self.query.joins[edge];
                    let (la, ra) = if s1.contains(self.query.owner(j.left)) {
                        (j.left, j.right)
                    } else {
                        (j.right, j.left)
                    };
                    let (Some(kl), Some(kr)) = (
                        self.oracle.resolve(&Ordering::new(vec![la]).into()),
                        self.oracle.resolve(&Ordering::new(vec![ra]).into()),
                    ) else {
                        continue;
                    };
                    let mj_cost = c1 + c2 + cost::merge_join(d1, d2, out_card);
                    if mj_cost > g.ub {
                        g.dc.pruning.bound_pruned += 1;
                        continue;
                    }
                    let st2 = g.node(p2).state;
                    g.dc.probes.satisfies += 1;
                    if !self.oracle.satisfies(st1, kl) {
                        continue;
                    }
                    g.dc.probes.satisfies += 1;
                    if !self.oracle.satisfies(st2, kr) {
                        continue;
                    }
                    let mj = join(mj_cost);
                    g.offer(mj, || {
                        (PlanOp::MergeJoin { left, right, edge }, fd_bits.clone())
                    });
                }
            }
        }
    }

    /// Replays the FD sets that hold beneath a node onto a freshly
    /// produced state (§5.6: the enforcer's state follows the `*` edge,
    /// "and then another edge corresponding to the set of functional
    /// dependencies that currently hold").
    fn replay_fds(
        &self,
        mut state: O::State,
        bits: &BitSet,
        dc: &mut DecisionCounters,
    ) -> O::State {
        for f in bits.iter() {
            dc.probes.infer += 1;
            state = self.oracle.infer(state, FdSetId(f as u32));
        }
        state
    }

    /// The one enforcer: establishes target `t` on plan `input` at total
    /// cost `cost` with a partial sort over the first `covered` key
    /// attributes, or else a hash group for a grouping and a full sort
    /// for an ordering. Bound-checked before the enforcer state is
    /// produced; that state follows `*` from the target and replays the
    /// input's FDs. A subset's enforcer is offered to its gate (`commit`
    /// off); the root `ORDER BY` enforcer is committed outright. Either
    /// way the enforcer counters are charged here.
    fn enforce(
        &self,
        g: &mut Gate<'_, O>,
        t: &EnforcerTarget<O::Key>,
        input: PlanId,
        cost: f64,
        covered: Option<usize>,
        commit: bool,
    ) -> Option<PlanId> {
        if cost > g.ub {
            g.dc.pruning.bound_pruned += 1;
            return None;
        }
        let mut cand = g.node(input).candidate();
        let fd_bits = g.node(input).applied_fds.clone();
        g.dc.probes.produce += 1;
        cand.state = self.replay_fds(self.oracle.produce(t.key), &fd_bits, g.dc);
        cand.cost = cost;
        let op = || {
            let key = t.attrs.clone();
            match covered {
                Some(c) => PlanOp::PartialSort {
                    input,
                    head: key[..c].to_vec(),
                    key,
                },
                None if t.grouping => PlanOp::HashGroup { input, key },
                None => PlanOp::Sort { input, key },
            }
        };
        let id = if commit {
            Some(g.push(cand, op(), fd_bits))
        } else {
            g.offer(cand, || (op(), fd_bits))
        };
        let e = &mut g.dc.enforcers;
        let (admitted, won) = match covered {
            Some(_) => (&mut e.partial_sort_admitted, &mut e.partial_sort_won),
            None if t.grouping => (&mut e.hash_group_admitted, &mut e.hash_group_won),
            None => (&mut e.sort_admitted, &mut e.sort_won),
        };
        *admitted += 1;
        *won += u64::from(id.is_some());
        id
    }

    /// Enforcer variants: for every producible interesting property
    /// covered by the subset, a full enforcer on the cheapest
    /// unaggregated plan — a sort for orderings, a linear hash-group for
    /// groupings — plus a partial-sort alternative on whichever input
    /// makes it cheapest (grouping-aware Pareto pruning keeps whichever
    /// combinations survive).
    ///
    /// A variant is suppressed when some unaggregated member already
    /// satisfies the target at a cost no higher than the variant's own
    /// total — the *cost-window* rule. (The legacy rule skipped the
    /// target as soon as *any* member satisfied it; the window form is
    /// what keeps the bounded and unbounded searches identical: every
    /// member inside a variant's cost window is bound-admissible
    /// exactly when the variant is, so both modes reach the same
    /// suppression decision — see "The pruning seam" in
    /// ARCHITECTURE.md.) Surviving variants are bound-checked before
    /// the enforcer state is produced.
    ///
    /// Enforcers operate on the unaggregated ([`AggMark::NONE`]) class
    /// only: that keeps the class an exact replica of the
    /// root-only-aggregation search (the guarantee that placement can
    /// never lose), and placement variants stacked on top of the
    /// enforced plans inherit their properties anyway.
    pub(super) fn add_enforcer_variants(&self, g: &mut Gate<'_, O>) {
        // First-minimum over the unaggregated members. Never evicted
        // later: every enforcer variant costs strictly more than its
        // input.
        let Some(cheapest) = g
            .set
            .entries
            .iter()
            .filter(|m| m.plan.agg.is_none())
            .fold(None::<(PlanId, f64)>, |best, m| match best {
                Some((_, bc)) if bc <= m.plan.cost => best,
                _ => Some((m.id, m.plan.cost)),
            })
            .map(|(id, _)| id)
        else {
            return;
        };
        for t in &self.targets {
            if !g.mask.is_superset(&t.rel_mask) {
                continue; // mentions relations outside this subset
            }
            // Alive unaggregated members and their satisfaction of the
            // target, snapshotted per target (earlier targets' variants
            // compete here, as before): (id, cost, card, state, sat).
            let members: Vec<(PlanId, f64, f64, O::State, bool)> = g
                .set
                .entries
                .iter()
                .filter(|m| m.plan.agg.is_none())
                .map(|m| {
                    let CandidatePlan {
                        cost, card, state, ..
                    } = m.plan;
                    g.dc.probes.satisfies += 1;
                    let sat = self.oracle.satisfies(state, t.key);
                    (m.id, cost, card, state, sat)
                })
                .collect();
            let in_window =
                |limit: f64| members.iter().any(|&(_, mc, _, _, sat)| sat && mc <= limit);
            let enforced_cost = {
                let n = g.node(cheapest);
                n.cost + t.full_cost(n.card)
            };
            if !in_window(enforced_cost) {
                self.enforce(g, t, cheapest, enforced_cost, None, false);
            }
            // Partial-sort alternative for ordering targets: the best
            // (input cost + partial-sort cost) over members whose state
            // already satisfies a head grouping — typically *not* the
            // cheapest plan (a grouped plan costs a bit more but makes
            // the enforcement nearly free). The full sort above stays in
            // the set; Pareto pruning keeps whichever survives.
            if t.grouping {
                continue;
            }
            let mut best: Option<(f64, PlanId, usize)> = None;
            for &(id, mc, mcard, mstate, sat) in &members {
                if sat {
                    continue;
                }
                let Some((ps_cost, covered)) = self.best_partial_sort(t, mstate, mcard, g.dc)
                else {
                    continue;
                };
                let total = mc + ps_cost;
                if best.is_none_or(|(bt, ..)| total < bt) {
                    best = Some((total, id, covered));
                }
            }
            if let Some((total, input, covered)) = best.filter(|&(total, ..)| !in_window(total)) {
                self.enforce(g, t, input, total, Some(covered), false);
            }
        }
    }

    /// Cheapest complete plan, enforcing the query's `ORDER BY` at the
    /// top if it is not satisfied — with a full sort, or with a partial
    /// sort when the plan's output already satisfies a head grouping of
    /// the requirement (the `ORDER BY group-key` case above a hash
    /// aggregate, whose grouped output makes the root sort nearly free).
    pub(super) fn pick_final(&self, set: &[PlanId], g: &mut Gate<'_, O>) -> PlanId {
        // Enforcement cost of a plan: None when satisfied, otherwise the
        // cheaper of full sort and (admissible) partial sort, with the
        // covered prefix length recorded for the partial sort.
        let enforcement = |n: &PlanNode<O::State>, dc: &mut DecisionCounters| {
            let t = self.order_by.as_ref()?;
            dc.probes.satisfies += 1;
            if self.oracle.satisfies(n.state, t.key) {
                return None;
            }
            let full = (t.full_cost(n.card), None);
            match self.best_partial_sort(t, n.state, n.card, dc) {
                Some((ps, covered)) if ps < full.0 => Some((ps, Some(covered))),
                _ => Some(full),
            }
        };
        let mut best = None;
        for &p in set {
            let n = g.arena.node(p);
            let sort = enforcement(n, g.dc);
            let total = n.cost + sort.map_or(0.0, |(c, _)| c);
            if best.is_none_or(|(bc, _, _)| total < bc) {
                best = Some((total, p, sort));
            }
        }
        let (total, p, sort) = best.expect("no complete plan");
        let Some((_, covered)) = sort else {
            return p;
        };
        let t = self.order_by.as_ref().expect("a sort implies ORDER BY");
        self.enforce(g, t, p, total, covered, true)
            .expect("the root enforcer is committed")
    }
}
