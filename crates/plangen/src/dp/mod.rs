//! Bottom-up dynamic programming over connected subgraphs (Lohman-style,
//! the architecture the paper's §7 experiments use).
//!
//! Connected relation subsets are [`BitSet`]s — one machine word up to
//! 64 relations, no ceiling beyond — enumerated in size order: every
//! connected set of size `s` arises as the union of two disjoint
//! connected sets joined by at least one predicate, so all ordered
//! partitions of every connected set are visited exactly once. For every set the generator keeps a Pareto set
//! of plans pruned on *(cost, property state)*: a plan dies iff a
//! cheaper-or-equal plan property-dominates it. Two enforcers compete
//! next to the native plans: the *sort* enforcer for every producible
//! interesting ordering, and the *hash-group* enforcer (linear, no
//! ordering produced) for every producible interesting grouping — the
//! VLDB'04 extension that lets hash-based aggregation plans exploit
//! grouped-but-unsorted streams. Merge joins require both inputs sorted
//! on the join attributes, and hash/NL joins preserve the probe/outer
//! input's properties — the interplay that makes interesting properties
//! pay off.
//!
//! # Aggregation as a plan-space dimension
//!
//! For queries computing aggregate functions over a `group by`,
//! aggregation is *placed*, not bolted onto the root: every subset may
//! additionally carry eagerly aggregated plans — a partial
//! [`PlanOp::StreamAgg`]/[`PlanOp::HashAgg`] on the subset's canonical
//! aggregation key (group-by attributes inside, join attributes
//! crossing out, minimized under the subset's dependencies), legal per
//! the aggregate functions' decomposability (eager group-by on the side
//! carrying the aggregated attributes, eager-count on the opposite
//! side) — and the root subset may fuse the top join with the final
//! aggregation into a [`PlanOp::GroupJoin`] whenever the probe side's
//! properties plus the join's dependencies make the groups adjacent.
//! Plans with different aggregation histories compute different
//! intermediate relations, so they live in separate comparability
//! classes ([`AggMark`]) of the same Pareto set; the unaggregated class
//! replicates the root-only search exactly, which is why enabling
//! placement can never yield a costlier winner.
//!
//! # The schedule and the two-driver batch API
//!
//! *Which* subsets get planned, and from *which* ordered partitions, is
//! a pure function of the join graph, computed once before any plan is
//! built: a `Schedule` of **batches** of `UnionWork` items (a
//! connected subset plus its ordered partitions, referencing earlier
//! subsets by flat index — singletons `0..n` first, then unions in
//! emission order). One path produces it. While the graph's csg-cmp
//! pairs fit the enumeration budget (1 M pairs — exact through
//! ~13-relation cliques and 100-relation chains), the schedule is
//! exhaustive: connected-subgraph/complement-pair enumeration over
//! [`ofw_query::JoinGraph`] neighborhoods (DPhyp), which touches only
//! valid pairs, canonicalized into the size-layered order the plan
//! table's layout is defined by (`dphyp.rs`). Beyond the budget it is
//! the greedy linearization with a sliding, budget-adaptive local-DP
//! window (`linearize.rs`) — not exhaustive, but it plans 100-relation
//! cliques — and [`PlanGenStats::fallback`] says so.
//!
//! The driver loop *executes* each batch — each union's Pareto set
//! built independently in a thread-local [`ArenaView`] — and splices
//! the results onto the global arena **in batch order** at the batch
//! barrier. Execution is delegated to an
//! [`ofw_common::OrderedExecutor`]: [`SerialExecutor`] for the classic
//! single-threaded driver ([`PlanGen::run`]), the `ofw-parallel`
//! work-stealing pool for the sharded driver ([`PlanGen::run_with`]).
//!
//! Because the splice order and the per-union work are both schedule-
//! independent, the final plan table — operators, masks, costs,
//! cardinalities, applied FDs, winner — is byte-identical for every
//! executor and thread count. Per-node oracle *state handles* are also
//! bit-equal when the oracle assigns them schedule-independently: the
//! DFSM framework always does (states precomputed before the DP);
//! the memoizing oracles intern handles first-come, so bit-equality
//! there additionally requires a warmed instance (serial run first) —
//! cold, their handles stay semantically equal but may renumber.
//!
//! # The pruning seam
//!
//! The inner loop prunes before it builds. A cheap greedy linearized
//! run seeds a global cost upper bound `B`; every candidate is tested
//! against `B` minus an admissible floor on the cost still to be paid
//! outside its subset — *before* its plan node is allocated, and
//! usually before the oracle is probed ([`PlanGen::cost_bounding`]
//! turns this off). Pareto sets are bucketed by `(comparability class,
//! oracle state)` with a per-union dominance memo, so most Pareto
//! comparisons never reach the oracle. Candidates travel as stack-only
//! `CandidatePlan`s and are committed into the arena only after
//! surviving both gates. The chosen plan and its cost are identical
//! with bounding on or off (the contract and its proof obligations are
//! written down in ARCHITECTURE.md, "The pruning seam"); every
//! [`PlanNode`] that enters the table is counted — the paper's
//! `#Plans` metric ("the time to introduce one plan operator") for the
//! work actually performed.

mod dphyp;
mod linearize;

use crate::cost;
use crate::plan::{
    AggMark, ArenaView, CandidatePlan, PlanArena, PlanId, PlanNode, PlanOp, LOCAL_PLAN_BIT,
};
use crate::OrderOracle;
use ofw_catalog::{AttrId, Catalog};
use ofw_common::{BitSet, FxHashMap, OrderedExecutor, SerialExecutor};
use ofw_core::fd::FdSetId;
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, HeadTail, LogicalProperty};
use ofw_obs::{DecisionCounters, PhaseStats, Trace};
use ofw_query::{ExtractedQuery, JoinGraph, Query};
use std::time::{Duration, Instant};

/// Ceiling on enumeration work before exhaustive enumeration is
/// abandoned for the linearized fallback. Exact through ~13-relation
/// cliques, 100-relation chains and cycles, and ~14-relation stars;
/// dense graphs beyond that linearize.
///
/// The unit, once: the exact path counts *unordered* csg-cmp pairs as
/// it discovers them (each becomes two ordered pairs, so a schedule
/// that fits reports at most twice this in
/// [`PlanGenStats::pairs_emitted`]); the fallback's widening loop
/// compares its *ordered* pair count against the same number.
const ENUMERATION_BUDGET: u64 = 1_000_000;

/// Backstop on connected subgraphs visited by the exact path: barren
/// ones (no emittable complement) emit nothing, so on adversarial
/// graphs the pair counter alone might never trip.
const CSG_VISIT_BACKSTOP: u64 = 2 * ENUMERATION_BUDGET + 10_000;

/// Relative slack on the seeded cost bound `B`. The provider's plan is
/// in the outer search space, but the outer search may evaluate it
/// through a different association order of the same cardinality
/// products and cost sums, landing a few ulps *above* `B` — and when
/// nothing beats the greedy plan (a wide star under the fallback),
/// strict pruning against the raw `B` then rejects every complete plan.
/// Far above accumulated rounding (~n·ε), far below any real cost gap.
const BOUND_SLACK: f64 = 1e-9;

/// Plan-generation metrics — the paper's §7 table columns plus the
/// deterministic enumeration counters.
#[derive(Clone, Debug, Default)]
pub struct PlanGenStats {
    /// Total subplans generated (`#Plans`).
    pub plans: usize,
    /// Wall-clock plan-generation time (includes framework preparation
    /// when the caller folds it in, as the paper does for the DFSM).
    pub time: Duration,
    /// Bytes of order-annotation memory (per-plan states + shared
    /// structures of the order framework).
    pub memory_bytes: usize,
    /// Always equal to [`pairs_emitted`](Self::pairs_emitted): the
    /// schedule never examines an invalid pair. Kept for one reader
    /// only — the frozen `benchmark/src/ops.rs` fills its
    /// `plangen.pairs_considered` metric from it — and goes with the
    /// next `benchmark` change.
    pub pairs_considered: u64,
    /// Ordered csg-cmp pairs handed to plan construction (both
    /// directions of every unordered pair). Deterministic per query.
    pub pairs_emitted: u64,
    /// Union work items processed (connected subsets planned, counting
    /// re-visits by the linearized fallback's overlapping windows).
    /// Deterministic per query.
    pub unions: u64,
    /// Whether exhaustive enumeration exceeded the enumeration budget
    /// and the query was planned by the linearized window DP instead.
    pub fallback: bool,
    /// Per-phase breakdown: base relations, each DP layer, aggregate
    /// finalization, final pick (plus an "enumerate" entry timing the
    /// schedule's construction). Everything but [`PhaseStats::time`] is
    /// deterministic per query.
    pub phases: Vec<PhaseStats>,
    /// Whole-run decision telemetry: Pareto-pruning outcomes per
    /// comparability class, enforcer admissions/wins, oracle probe
    /// counts. Deterministic per query at any thread count.
    pub decisions: DecisionCounters,
}

/// The winning plan plus metrics and the arena to inspect it.
pub struct PlanGenResult<S> {
    /// Cheapest complete plan honoring the query's output order.
    pub best: PlanId,
    /// Its cost.
    pub cost: f64,
    /// The arena holding every generated subplan.
    pub arena: PlanArena<S>,
    /// Metrics.
    pub stats: PlanGenStats,
}

/// One producible interesting property, pre-resolved: the target of a
/// sort enforcer (ordering) or a hash-group enforcer (grouping).
struct EnforcerTarget<K> {
    key: K,
    /// The attribute list (for the executor and plan rendering).
    attrs: Vec<ofw_catalog::AttrId>,
    /// Relations whose attributes the property mentions.
    rel_mask: BitSet,
    /// Grouping targets get a hash-group enforcer, ordering targets a
    /// sort.
    grouping: bool,
    /// Partial-sort probes for ordering targets (see
    /// [`PlanGen::partial_sort_probes`]); empty for grouping targets.
    psort: Vec<PartialSortProbe<K>>,
}

/// One pre-resolved partial-sort admission probe: if a plan's state
/// satisfies `key` (a head grouping over a prefix *set* of the target
/// ordering, or a head/tail pair extending it with a within-group
/// sorted continuation), a partial sort to the target only has to sort
/// inside blocks of the first `covered` target attributes.
struct PartialSortProbe<K> {
    key: K,
    /// How many leading target attributes the probed property covers —
    /// the `groups` estimate of the cost model is taken over them.
    covered: usize,
}

/// One connected subset with its ordered partitions — the unit of work
/// the executor schedules. Pairs reference earlier subsets by **flat
/// global index**: singletons occupy `0..n` in query-relation order,
/// and every union takes the next index in batch-emission order (the
/// order the driver commits them).
#[derive(Debug, PartialEq)]
pub(crate) struct UnionWork {
    /// The connected subset this work item builds plans for.
    union: BitSet,
    /// `Some(i)`: seed the Pareto set from the plans committed at flat
    /// index `i` — the same subset, planned earlier — instead of
    /// starting empty. The linearized fallback re-visits subsets shared
    /// between overlapping refinement windows and merges rather than
    /// discards the earlier window's plans.
    seed: Option<u32>,
    /// Ordered partitions `(left, right)`, in emission order.
    pairs: Vec<(u32, u32)>,
}

/// What gets planned and in which order — a pure function of the join
/// graph, complete before the first plan is built. Within a batch every
/// pair only references subsets *committed before the batch started*
/// (singletons `0..n`, then one index per union in emission order
/// across all earlier batches); the driver executes the batch —
/// possibly in parallel — then commits its unions in batch order.
pub(crate) struct Schedule {
    batches: Vec<Vec<UnionWork>>,
    /// Σ pairs over all batches.
    emitted: u64,
}

/// Pre-resolved aggregation context: what placement enumeration needs
/// to know at every subset (see the module docs on the aggregation
/// dimension).
struct AggInfo<K> {
    /// The final aggregation key (`group by` / `distinct` attributes).
    group_by: Vec<AttrId>,
    /// Ordering handle of the final key (streaming-aggregate probe).
    order_key: Option<K>,
    /// Grouping handle of the final key.
    group_key: Option<K>,
    /// Relations owning aggregate input attributes.
    input_owners: BitSet,
    /// All aggregates decomposable — eager group-by push-down is legal
    /// on the side carrying the aggregated attributes.
    decomposable: bool,
    /// All aggregates count-scalable or duplicate-insensitive —
    /// eager-count push-down is legal on the opposite side.
    count_scalable: bool,
}

/// Pre-resolved oracle handles for aggregating on one key (see
/// [`PlanGen::resolve_agg_key`]).
struct AggKeyHandles<K> {
    /// The key attribute list (positional for the operator rendering;
    /// `group by` order for the final key, canonical set order for
    /// subset keys).
    attrs: Vec<AttrId>,
    /// Ordering handle of the key, if interesting.
    order: Option<K>,
    /// Grouping handle of the key, if interesting.
    group: Option<K>,
    /// The grouping handle when it is also producible.
    producible: Option<K>,
}

/// One admitted member of a [`ParetoSet`]. Eviction tombstones the
/// entry (`alive = false`) instead of removing it so the surviving
/// members keep their insertion order — the order the legacy linear
/// scan produced, which downstream consumers (enforcer scans, the
/// committed plan table) depend on for determinism.
struct ParetoEntry<S> {
    id: PlanId,
    cost: f64,
    card: f64,
    agg: AggMark,
    state: S,
    alive: bool,
}

/// One dominance bucket of a [`ParetoSet`]: all members sharing a
/// `(comparability class, oracle state)` pair. Dominance is a pure
/// function of the state (and reflexive — see
/// [`OrderOracle::dominates`]), so one probe against the bucket's
/// state answers the property half of the Pareto test for every
/// member at once.
struct ParetoBucket<S> {
    agg: AggMark,
    state: S,
    /// Alive member indices into [`ParetoSet::entries`], insertion
    /// order.
    members: Vec<usize>,
}

/// The Pareto set of one subset under construction, bucketed by
/// `(comparability class, oracle state)`. Replaces the legacy linear
/// `Vec<PlanId>` scan: exact-state arrivals resolve against their own
/// bucket without any oracle call, cross-state comparisons probe one
/// bucket representative instead of every member, and repeated state
/// pairs are answered by a per-union `(state, state) → bool` memo.
/// Buckets are probed in creation order (a `Vec`, not the hash map) so
/// probe counts stay deterministic even when a memoizing oracle
/// renumbers its state handles.
struct ParetoSet<S> {
    entries: Vec<ParetoEntry<S>>,
    buckets: Vec<ParetoBucket<S>>,
    /// `(AggMark::class_index(), state)` → bucket position.
    index: FxHashMap<(usize, S), usize>,
    /// Per-union dominance memo: `(dominator state, subordinate state)`
    /// → oracle verdict. Lives and dies with the subset's set — state
    /// pairs recur heavily within one union (every candidate is
    /// compared against the same few buckets) and union-local scope
    /// keeps the memo out of the shared-state determinism story.
    memo: FxHashMap<(S, S), bool>,
}

impl<S: Copy + Eq + std::hash::Hash> ParetoSet<S> {
    fn new() -> Self {
        ParetoSet {
            entries: Vec::new(),
            buckets: Vec::new(),
            index: FxHashMap::default(),
            memo: FxHashMap::default(),
        }
    }

    /// Inserts a member without any dominance checks — used for seeds
    /// (already a Pareto set) and for candidates that survived them.
    fn insert_unchecked(&mut self, id: PlanId, cost: f64, card: f64, agg: AggMark, state: S) {
        let e = self.entries.len();
        self.entries.push(ParetoEntry {
            id,
            cost,
            card,
            agg,
            state,
            alive: true,
        });
        let key = (agg.class_index(), state);
        let b = match self.index.get(&key) {
            Some(&b) => b,
            None => {
                let b = self.buckets.len();
                self.buckets.push(ParetoBucket {
                    agg,
                    state,
                    members: Vec::new(),
                });
                self.index.insert(key, b);
                b
            }
        };
        self.buckets[b].members.push(e);
    }

    /// Memoized dominance probe: does `dom`'s state dominate `sub`'s?
    /// Equal states short-circuit through reflexivity; repeated pairs
    /// hit the memo. Both are charged to `dominance_memo_hits`, real
    /// oracle calls to `dominates`.
    fn dominates_memo<O: OrderOracle<State = S>>(
        &mut self,
        oracle: &O,
        dom: S,
        sub: S,
        dc: &mut DecisionCounters,
    ) -> bool {
        if dom == sub {
            dc.probes.dominance_memo_hits += 1;
            return true;
        }
        if let Some(&v) = self.memo.get(&(dom, sub)) {
            dc.probes.dominance_memo_hits += 1;
            return v;
        }
        dc.probes.dominates += 1;
        let v = oracle.dominates(dom, sub);
        self.memo.insert((dom, sub), v);
        v
    }

    /// Arrival test: is `cand` dominated by an existing member at
    /// lower-or-equal cost (and, within aggregated classes, no larger
    /// cardinality)? Charges the rejection to the candidate's class.
    fn arrival_dominated<O: OrderOracle<State = S>>(
        &mut self,
        oracle: &O,
        cand: &CandidatePlan<S>,
        dc: &mut DecisionCounters,
    ) -> bool {
        let class = cand.agg.class_index();
        for bi in 0..self.buckets.len() {
            let (b_agg, b_state) = (self.buckets[bi].agg, self.buckets[bi].state);
            if b_agg != cand.agg {
                continue;
            }
            // Cost/cardinality prefilter first: a bucket whose members
            // are all too expensive never needs a dominance probe.
            let qualifies = self.buckets[bi].members.iter().any(|&e| {
                let m = &self.entries[e];
                m.cost <= cand.cost && (cand.agg.is_none() || m.card <= cand.card)
            });
            if qualifies && self.dominates_memo(oracle, b_state, cand.state, dc) {
                dc.pruning.dominated[class] += 1;
                return true;
            }
        }
        false
    }

    /// Admits a surviving candidate (already materialized as `id`):
    /// evicts every member it dominates at lower-or-equal cost, then
    /// inserts it.
    fn admit<O: OrderOracle<State = S>>(
        &mut self,
        oracle: &O,
        id: PlanId,
        cand: &CandidatePlan<S>,
        dc: &mut DecisionCounters,
    ) {
        let class = cand.agg.class_index();
        for bi in 0..self.buckets.len() {
            let (b_agg, b_state) = (self.buckets[bi].agg, self.buckets[bi].state);
            if b_agg != cand.agg {
                continue;
            }
            let qualifies = self.buckets[bi].members.iter().any(|&e| {
                let m = &self.entries[e];
                cand.cost <= m.cost && (cand.agg.is_none() || cand.card <= m.card)
            });
            if !qualifies || !self.dominates_memo(oracle, cand.state, b_state, dc) {
                continue;
            }
            let entries = &mut self.entries;
            self.buckets[bi].members.retain(|&e| {
                let m = &mut entries[e];
                if cand.cost <= m.cost && (cand.agg.is_none() || cand.card <= m.card) {
                    m.alive = false;
                    dc.pruning.dominated[class] += 1;
                    false
                } else {
                    true
                }
            });
        }
        self.insert_unchecked(id, cand.cost, cand.card, cand.agg, cand.state);
    }

    /// Alive members in insertion order.
    fn members(&self) -> impl Iterator<Item = &ParetoEntry<S>> + '_ {
        self.entries.iter().filter(|e| e.alive)
    }

    /// The surviving plan ids in insertion order — what the plan table
    /// commits.
    fn ids(&self) -> Vec<PlanId> {
        self.members().map(|e| e.id).collect()
    }
}

/// The generator, parameterized by the order oracle.
pub struct PlanGen<'a, O: OrderOracle> {
    catalog: &'a Catalog,
    query: &'a Query,
    ex: &'a ExtractedQuery,
    oracle: &'a O,
    /// Precomputed join-graph adjacency (edge endpoints resolved once —
    /// the pair loops and `emit_joins` ask crossing-edge questions
    /// millions of times).
    graph: JoinGraph,
    /// Enumeration budget ([`ENUMERATION_BUDGET`]; in-crate tests lower
    /// it to make the fallback trip cheaply).
    budget: u64,
    /// `Some(w)` pins the schedule to the linearized window DP at width
    /// `w` — only the bound provider's nested run does, at the cheapest
    /// width. `None` is the normal path: exhaustive within the budget,
    /// the budget-adaptive window beyond it.
    window: Option<usize>,
    targets: Vec<EnforcerTarget<O::Key>>,
    /// Aggregation context (`Some` iff the query computes aggregates
    /// over a group-by).
    agg: Option<AggInfo<O::Key>>,
    /// Enumerate aggregation placements (eager/eager-count partial
    /// aggregates per subset, group-joins at the root)? Off restricts
    /// aggregation to the plan root — the classic enforcer behavior and
    /// the ceiling the placement search must beat.
    placement: bool,
    /// Enforce interesting orderings with the partial-sort enforcer
    /// (next to the full sort) when the input already satisfies a head
    /// grouping? Off reproduces the sort-only enforcer behavior — the
    /// ceiling the partial-sort search is measured against.
    partial_sort: bool,
    /// Branch-and-bound cost pruning (on by default): seed a global
    /// upper bound from one greedy linearized run and reject candidates
    /// whose cost lower bound exceeds it before they are materialized.
    /// The chosen plan and its cost are identical either way (see "The
    /// pruning seam" in ARCHITECTURE.md); off reproduces the unbounded
    /// search for A/B measurement.
    bounding: bool,
    /// Cheapest possible access cost per query relation (min over heap
    /// scan and index scans) — the per-leaf term of the admissible
    /// remaining-cost floor.
    min_access: Vec<f64>,
    /// Σ [`min_access`](Self::min_access).
    total_access: f64,
    /// The global cost upper bound `B` (∞ until the bound provider has
    /// run, and always ∞ with bounding off).
    bound: f64,
    /// Span sink for phase-level tracing (disabled by default — one
    /// pointer check per phase, nothing in the per-plan hot path).
    trace: Trace,
    arena: PlanArena<O::State>,
    /// The plan table: each committed subset's Pareto set, by flat
    /// index — parallel to the driver's `subsets`.
    table: Vec<Vec<PlanId>>,
}

impl<'a, O: OrderOracle> PlanGen<'a, O> {
    /// Sets up a generator for one query.
    pub fn new(
        catalog: &'a Catalog,
        query: &'a Query,
        ex: &'a ExtractedQuery,
        oracle: &'a O,
    ) -> Self {
        assert!(query.is_fully_connected(), "cross products not supported");
        // Pre-resolve every producible interesting property (cold path).
        // Head/tail pairs are tested-only (a partial sort *consumes*
        // them and produces a full ordering), so they never become
        // enforcer targets themselves.
        let mut targets = Vec::new();
        for p in ex.spec.produced() {
            if p.is_head_tail() {
                continue;
            }
            let Some(key) = oracle.resolve(p).filter(|&k| oracle.is_producible(k)) else {
                continue;
            };
            let grouping = p.is_grouping();
            let rel_mask = p.attrs().iter().map(|&a| query.owner(a)).collect();
            let psort = if grouping {
                Vec::new()
            } else {
                Self::partial_sort_probes(oracle, p.attrs())
            };
            targets.push(EnforcerTarget {
                key,
                attrs: p.attrs().to_vec(),
                rel_mask,
                grouping,
                psort,
            });
        }
        // Grouping targets first: a sort satisfies the grouping too, so
        // adding the sort first would mask the cheaper hash-group
        // enforcer ("already satisfied"); added first, both variants
        // enter the Pareto set and the cost model decides.
        targets.sort_by_key(|t| !t.grouping);
        let agg = ex.aggregation.then(|| {
            let group_by = query.effective_group_by().to_vec();
            let input_owners = query.agg_input_attrs().map(|a| query.owner(a)).collect();
            AggInfo {
                order_key: oracle.resolve(&Ordering::new(group_by.clone()).into()),
                group_key: oracle.resolve(&Grouping::new(group_by.clone()).into()),
                group_by,
                input_owners,
                decomposable: query.aggregates.iter().all(|a| a.func.is_decomposable()),
                count_scalable: query
                    .aggregates
                    .iter()
                    .all(|a| a.func.count_scalable() || a.func.duplicate_insensitive()),
            }
        });
        // Cheapest conceivable access path per relation: the admissible
        // remaining-cost floor of the bounded search charges at least
        // this much for every relation a subplan has not joined yet.
        let min_access: Vec<f64> = (0..query.num_relations())
            .map(|qrel| {
                let rel = catalog.relation(query.relations[qrel]);
                let mut m = cost::scan(rel.cardinality);
                for index in &rel.indexes {
                    m = m.min(cost::index_scan(rel.cardinality, index.clustered));
                }
                m
            })
            .collect();
        let total_access = min_access.iter().sum();
        PlanGen {
            catalog,
            query,
            ex,
            oracle,
            graph: JoinGraph::new(query),
            budget: ENUMERATION_BUDGET,
            window: None,
            targets,
            agg,
            placement: true,
            partial_sort: true,
            bounding: true,
            min_access,
            total_access,
            bound: f64::INFINITY,
            trace: Trace::disabled(),
            arena: PlanArena::new(),
            table: Vec::new(),
        }
    }

    /// Attaches a span sink (default: disabled). A recording sink never
    /// changes the generated plan table — spans observe phase
    /// boundaries, not decisions.
    pub fn trace(mut self, trace: &Trace) -> Self {
        self.trace = trace.clone();
        self
    }

    /// Pre-resolves the partial-sort admission probes for the ordering
    /// `attrs` (cold path, once per target): for every head prefix
    /// `attrs[..k]` the head grouping, and for every continuation
    /// `attrs[k..j]` the head/tail pair — each probe records how many
    /// leading target attributes it covers. Only properties the query
    /// registered as interesting resolve; everything else simply yields
    /// no probe (a pure-ordering query gets an empty list and the
    /// enforcer behaves exactly as before). Probes are ordered by
    /// descending coverage so the first satisfied probe is the best.
    fn partial_sort_probes(oracle: &O, attrs: &[AttrId]) -> Vec<PartialSortProbe<O::Key>> {
        let heads = (1..=attrs.len()).map(|k| (Grouping::new(attrs[..k].to_vec()).into(), k));
        let pairs = HeadTail::decompositions(&Ordering::new(attrs.to_vec()))
            .into_iter()
            .map(|pair| {
                let covered = pair.attrs().len();
                (pair.into(), covered)
            });
        let mut probes: Vec<PartialSortProbe<O::Key>> = heads
            .chain(pairs)
            .filter_map(|(p, covered): (LogicalProperty, usize)| {
                let key = oracle.resolve(&p)?;
                Some(PartialSortProbe { key, covered })
            })
            .collect();
        probes.sort_by_key(|p| std::cmp::Reverse(p.covered));
        probes
    }

    /// The cheapest admissible partial sort of a plan in `state` with
    /// `card` rows to the ordering `attrs`: the first (deepest-coverage)
    /// satisfied probe decides how much of the key the input's blocks
    /// already cover, and the cost model charges only the within-block
    /// residue. `None` when no head grouping (or pair) is satisfied —
    /// then only the full sort can enforce the ordering.
    fn best_partial_sort(
        &self,
        state: O::State,
        card: f64,
        attrs: &[AttrId],
        probes: &[PartialSortProbe<O::Key>],
        dc: &mut DecisionCounters,
    ) -> Option<(f64, usize)> {
        if !self.partial_sort {
            return None;
        }
        for p in probes {
            dc.probes.satisfies += 1;
            if self.oracle.satisfies(state, p.key) {
                let groups = self.group_count(card, &attrs[..p.covered]);
                return Some((cost::partial_sort(card, groups), p.covered));
            }
        }
        None
    }

    /// Enables/disables aggregation-placement enumeration (on by
    /// default). With placement off, aggregation happens only at the
    /// plan root — the baseline the placement search is measured
    /// against; the plans of the root-only search are a strict subset
    /// of the placement search, so placement can never be costlier.
    pub fn aggregation_placement(mut self, enabled: bool) -> Self {
        self.placement = enabled;
        self
    }

    /// Enables/disables the partial-sort enforcer (on by default). With
    /// it off, only the full sort enforces orderings — the ceiling the
    /// partial-sort search is measured against; the sort-only plans are
    /// a strict subset of the partial-sort search, so enabling it can
    /// never yield a costlier winner.
    pub fn partial_sort(mut self, enabled: bool) -> Self {
        self.partial_sort = enabled;
        self
    }

    /// Enables/disables branch-and-bound cost pruning (on by default).
    /// One greedy linearized run seeds a global upper bound `B`; a
    /// candidate for subset `S` is rejected — before its plan node is
    /// materialized, and usually before the oracle is probed — when
    /// `cost + rem(S) > B`, where `rem(S)` charges every relation
    /// outside `S` its cheapest access path. The bound is admissible
    /// (see "The pruning seam" in ARCHITECTURE.md), so the chosen plan
    /// and its cost are identical either way; only the work counters
    /// change. Off reproduces the unbounded search for A/B measurement.
    pub fn cost_bounding(mut self, enabled: bool) -> Self {
        self.bounding = enabled;
        self
    }

    /// The per-subset cost upper bound: `B − rem(mask)`, where
    /// `rem(mask)` is the admissible floor on the cost any complete
    /// plan still has to pay outside `mask` (the cheapest access path
    /// of every relation not yet joined — joins, enforcers and
    /// aggregates only ever add on top). ∞ when no bound is active.
    fn upper_bound(&self, mask: &BitSet) -> f64 {
        if self.bound.is_infinite() {
            return f64::INFINITY;
        }
        let mut inside = 0.0;
        for r in mask.iter() {
            inside += self.min_access[r];
        }
        self.bound - (self.total_access - inside)
    }

    /// Estimated group count of aggregating `card` rows on `attrs`:
    /// the product of per-attribute distinct-value estimates when the
    /// catalog has them all, capped by the input cardinality; otherwise
    /// the square-root staircase fallback.
    fn group_count(&self, card: f64, attrs: &[AttrId]) -> f64 {
        let mut prod = 1.0;
        for &a in attrs {
            match self.catalog.distinct_values(a) {
                Some(dv) => prod *= dv,
                None => return card.sqrt().max(1.0),
            }
        }
        prod.min(card).max(1.0)
    }

    /// Group count of the *final* aggregation. Queries without an
    /// aggregation context keep the legacy square-root estimate
    /// bit-for-bit.
    fn final_group_count(&self, card: f64, group_by: &[AttrId]) -> f64 {
        if self.agg.is_some() {
            self.group_count(card, group_by)
        } else {
            card.sqrt().max(1.0)
        }
    }

    /// Runs the DP serially and returns the cheapest complete plan that
    /// honors the query's `order by` (adding a final sort if needed).
    pub fn run(self) -> PlanGenResult<O::State>
    where
        O: Sync,
        O::Key: Sync,
        O::State: Send + Sync,
    {
        self.run_with(&SerialExecutor)
    }

    /// Runs the DP with `exec` scheduling each layer's subsets. The
    /// result — plan table, arena layout, winner — is identical for
    /// every executor; a parallel executor only changes how fast it
    /// arrives. (See the module docs for the one caveat: numeric state
    /// handles of cold memoizing oracles.)
    pub fn run_with<E: OrderedExecutor>(mut self, exec: &E) -> PlanGenResult<O::State>
    where
        O: Sync,
        O::Key: Sync,
        O::State: Send + Sync,
    {
        let t0 = Instant::now();
        let trace = self.trace.clone();
        let mut root = trace.span("plangen");
        // Executor kind only — no thread count, so the trace skeleton
        // stays byte-identical across thread counts (the Chrome
        // export's tid lanes show the actual parallelism).
        root.label(exec.label());
        let n = self.query.num_relations();
        let mut phases: Vec<PhaseStats> = Vec::new();
        let mut run_dc = DecisionCounters::default();

        // Subsets committed so far, in flat global-index order: the
        // numbering the schedule's pair references use (singletons
        // `0..n` first, then unions in batch-emission order).
        let mut subsets: Vec<BitSet> = Vec::with_capacity(n);

        // Bound provider: one cheap greedy linearized run (window 2,
        // itself unbounded) seeds the global upper bound `B` every
        // later phase prunes against. Its plan space is a subset of
        // the outer schedule's search space, so `B` is always achievable
        // — the admissibility contract lives in ARCHITECTURE.md, "The
        // pruning seam". Serial, and run before anything else: on
        // memoizing oracles this also warms the state interner
        // deterministically. Its decision counters merge into the run
        // totals via the "bound" phase; its plan nodes live in its own
        // discarded arena and do not count toward `#Plans`.
        if self.bounding && n >= 3 {
            let mut sp = root.child("bound");
            let tp = Instant::now();
            let mut provider = PlanGen::new(self.catalog, self.query, self.ex, self.oracle)
                .cost_bounding(false)
                .aggregation_placement(self.placement)
                .partial_sort(self.partial_sort);
            provider.window = Some(2);
            let provider = provider.run();
            self.bound = provider.cost * (1.0 + BOUND_SLACK);
            sp.count("plans", provider.stats.plans as u64);
            phases.push(PhaseStats {
                name: "bound".into(),
                time: tp.elapsed(),
                unions: provider.stats.unions,
                pairs_emitted: provider.stats.pairs_emitted,
                plans: provider.stats.plans as u64,
                decisions: provider.stats.decisions.clone(),
            });
            run_dc.merge(&provider.stats.decisions);
        }

        // Base relations (cheap — built inline on the driver thread).
        {
            let mut sp = root.child("base_plans");
            let tp = Instant::now();
            let mut dc = DecisionCounters::default();
            for qrel in 0..n {
                let mask = self.query.relation_set(qrel);
                let ub = self.upper_bound(&mask);
                let mut view = ArenaView::new(&self.arena);
                let mut set = ParetoSet::new();
                self.base_plans(qrel, &mut set, &mut view, ub, &mut dc);
                self.add_enforcer_variants(&mask, &mut set, &mut view, ub, &mut dc);
                self.add_placement_variants(&mask, &mut set, &mut view, ub, &mut dc);
                let set = self.commit(view.into_local(), set.ids());
                self.table.push(set);
                subsets.push(mask);
            }
            let plans = self.arena.len() as u64;
            sp.count("plans", plans);
            sp.count("kept", dc.pruning.kept_total());
            phases.push(PhaseStats {
                name: "base".into(),
                time: tp.elapsed(),
                unions: n as u64,
                pairs_emitted: 0,
                plans,
                decisions: dc.clone(),
            });
            run_dc.merge(&dc);
        }

        // The driver loop: the schedule hands over batches of union
        // work whose pairs only reference committed subsets, so each
        // batch's unions are independent of each other. Each union is
        // one executor chunk; the batch barrier splices the thread-local
        // arenas in batch order, which makes the arena independent of
        // the parallel schedule.
        let (schedule, fallback) = {
            let mut sp = root.child("enumerate");
            let tp = Instant::now();
            let (schedule, fallback) = self.schedule();
            if fallback {
                sp.label("fallback");
            }
            sp.count("pairs_emitted", schedule.emitted);
            phases.push(PhaseStats {
                name: "enumerate".into(),
                time: tp.elapsed(),
                unions: 0,
                pairs_emitted: 0,
                plans: 0,
                decisions: DecisionCounters::default(),
            });
            (schedule, fallback)
        };
        let mut unions = 0u64;
        let mut layer = 0usize;
        for batch in schedule.batches {
            layer += 1;
            let mut sp = root.child("dp_layer");
            if trace.is_enabled() {
                sp.label(format!("layer {layer}"));
            }
            let tp = Instant::now();
            let plans_before = self.arena.len();
            let batch_len = batch.len() as u64;
            let batch_pairs: u64 = batch.iter().map(|w| w.pairs.len() as u64).sum();
            let results = {
                let this = &self;
                let subsets = &subsets;
                let batch = &batch;
                let trace = &trace;
                let depth = sp.depth() + 1;
                exec.run_ordered(batch.len(), &|i| {
                    let mut view = ArenaView::new(&this.arena);
                    let mut dc = DecisionCounters::default();
                    let mut spans = trace.local(depth);
                    let started = spans.start();
                    let set = this.process_union(&batch[i], subsets, &mut view, &mut dc);
                    let local = view.into_local();
                    if started.is_some() {
                        spans.push(
                            "union",
                            format!("|{}| pairs={}", batch[i].union.len(), batch[i].pairs.len()),
                            started,
                            vec![
                                ("plans", local.len() as u64),
                                ("kept", dc.pruning.kept_total()),
                                ("dominated", dc.pruning.dominated_total()),
                            ],
                        );
                    }
                    (local, set, dc, spans)
                })
            };
            // Per-worker span buffers and counters merge in batch order
            // — the same deterministic order the arenas splice in, so
            // the trace skeleton is thread-count-independent.
            let mut dc = DecisionCounters::default();
            for (work, (local, set, union_dc, spans)) in batch.into_iter().zip(results) {
                let set = self.commit(local, set);
                self.table.push(set);
                subsets.push(work.union);
                unions += 1;
                dc.merge(&union_dc);
                trace.absorb(spans);
            }
            let plans = (self.arena.len() - plans_before) as u64;
            // Pruning work (kept/dominated) is charged once, on the
            // per-union spans — repeating the totals here would
            // double-charge the layer in the span ledger. The layer
            // span carries only what the unions cannot: batch size and
            // the spliced plan count.
            sp.count("unions", batch_len);
            sp.count("plans", plans);
            phases.push(PhaseStats {
                name: format!("layer {layer}"),
                time: tp.elapsed(),
                unions: batch_len,
                pairs_emitted: batch_pairs,
                plans,
                decisions: dc.clone(),
            });
            run_dc.merge(&dc);
        }

        // Aggregation: a streaming aggregate exploits an input ordered
        // *or grouped* by the grouping attributes; otherwise hash
        // aggregation (or sort/hash-group + stream, via the enforcer
        // variants already in the set) competes on cost. The property
        // state decides which plans qualify. Under aggregation
        // placement the root set also carries eagerly pre-aggregated
        // plans (which still finalize here) and fused group-join plans
        // (which do not). The root set is the last committed subset:
        // every schedule ends with the full relation set.
        assert_eq!(
            subsets.last(),
            Some(&self.query.all_relations_set()),
            "the schedule must end at the full relation set"
        );
        let mut final_set = self.table.pop().expect("one subset per relation");
        if !self.query.effective_group_by().is_empty() {
            let mut sp = root.child("finalize_aggregates");
            let tp = Instant::now();
            let mut dc = DecisionCounters::default();
            let plans_before = self.arena.len();
            final_set = self.finalize_aggregates(&final_set, &mut dc);
            let plans = (self.arena.len() - plans_before) as u64;
            sp.count("plans", plans);
            phases.push(PhaseStats {
                name: "finalize".into(),
                time: tp.elapsed(),
                unions: 0,
                pairs_emitted: 0,
                plans,
                decisions: dc.clone(),
            });
            run_dc.merge(&dc);
        }
        let final_set = final_set;

        // Final: honor the output order. A bare group-by/distinct needs
        // no output *ordering* — one row per group is a grouping-shaped
        // requirement the aggregate itself guarantees.
        let required = if !self.query.order_by.is_empty() {
            Some(Ordering::new(self.query.order_by.clone()))
        } else {
            None
        };
        let best = {
            let mut sp = root.child("pick_final");
            let tp = Instant::now();
            let mut dc = DecisionCounters::default();
            let plans_before = self.arena.len();
            let best = self.pick_final(&final_set, required.as_ref(), &mut dc);
            let plans = (self.arena.len() - plans_before) as u64;
            sp.count("plans", plans);
            phases.push(PhaseStats {
                name: "pick_final".into(),
                time: tp.elapsed(),
                unions: 0,
                pairs_emitted: 0,
                plans,
                decisions: dc.clone(),
            });
            run_dc.merge(&dc);
            best
        };
        let cost = self.arena.node(best).cost;
        root.count("plans", self.arena.len() as u64);
        root.count("unions", unions);
        drop(root);
        let stats = PlanGenStats {
            plans: self.arena.len(),
            time: t0.elapsed(),
            memory_bytes: self.oracle.memory_bytes(self.arena.len()),
            pairs_considered: schedule.emitted,
            pairs_emitted: schedule.emitted,
            unions,
            fallback,
            phases,
            decisions: run_dc,
        };
        PlanGenResult {
            best,
            cost,
            arena: self.arena,
            stats,
        }
    }

    /// Builds the schedule, and says whether the budget forced the
    /// linearized fallback. Enumeration needs only the join graph, so
    /// the budget trips before any planning work is spent.
    fn schedule(&self) -> (Schedule, bool) {
        let linearized = || linearize::schedule(self.catalog, self.query, self.window, self.budget);
        if self.window.is_some() {
            return (linearized(), false);
        }
        match dphyp::schedule(&self.graph, self.budget) {
            Ok(exact) => (exact, false),
            Err(dphyp::BudgetExceeded) => (linearized(), true),
        }
    }

    /// Builds one subset's Pareto set from its ordered partitions —
    /// the executor chunk. Reads only frozen earlier-batch state
    /// (`table`, `subsets`, the oracle) — both by flat index, a plain
    /// `Vec` lookup; writes only into `view`.
    fn process_union(
        &self,
        work: &UnionWork,
        subsets: &[BitSet],
        view: &mut ArenaView<'_, O::State>,
        dc: &mut DecisionCounters,
    ) -> Vec<PlanId> {
        let ub = self.upper_bound(&work.union);
        let mut set = ParetoSet::new();
        if let Some(earlier) = work.seed {
            // Seeds are the subset's committed Pareto set — already
            // mutually non-dominated and bound-admissible, so they
            // enter unchecked (and uncounted: they were counted when
            // first kept).
            for &p in &self.table[earlier as usize] {
                let n = view.node(p);
                set.insert_unchecked(p, n.cost, n.card, n.agg, n.state);
            }
        }
        for &pair in &work.pairs {
            self.emit_joins(subsets, pair, &mut set, view, ub, dc);
        }
        self.add_enforcer_variants(&work.union, &mut set, view, ub, dc);
        self.add_placement_variants(&work.union, &mut set, view, ub, dc);
        set.ids()
    }

    /// Splices a thread-local arena onto the global one, rewriting local
    /// ids (the high [`LOCAL_PLAN_BIT`]) to their global positions, and
    /// returns the remapped Pareto set.
    fn commit(&mut self, local: PlanArena<O::State>, set: Vec<PlanId>) -> Vec<PlanId> {
        let base = self.arena.len() as u32;
        let remap = |p: PlanId| {
            if p.0 & LOCAL_PLAN_BIT != 0 {
                PlanId(base + (p.0 & !LOCAL_PLAN_BIT))
            } else {
                p
            }
        };
        for mut node in local.into_nodes() {
            node.op.remap_inputs(&mut |p| remap(p));
            self.arena.push(node);
        }
        set.into_iter().map(remap).collect()
    }

    /// Resolves the oracle handles for aggregating on `attrs` — the
    /// ordering and grouping probes of the streaming admission test,
    /// plus the producible grouping a hash aggregate constructs its
    /// output state from (tested-only groupings may be probed but never
    /// produced).
    fn resolve_agg_key(&self, attrs: Vec<AttrId>) -> AggKeyHandles<O::Key> {
        let order = self.oracle.resolve(&Ordering::new(attrs.clone()).into());
        let group = self.oracle.resolve(&Grouping::new(attrs.clone()).into());
        let producible = group.filter(|&k| self.oracle.is_producible(k));
        AggKeyHandles {
            attrs,
            order,
            group,
            producible,
        }
    }

    /// Builds one aggregate candidate on `keys` over plan `p` — the
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
    /// cost floor (a streaming aggregate, the cheapest variant), and
    /// inserted through [`try_insert`](Self::try_insert) — a pruned
    /// aggregate costs no allocation.
    #[allow(clippy::too_many_arguments)]
    fn try_push_aggregate(
        &self,
        view: &mut ArenaView<'_, O::State>,
        set: &mut ParetoSet<O::State>,
        ub: f64,
        p: PlanId,
        keys: &AggKeyHandles<O::Key>,
        mark: AggMark,
        groups: f64,
        dc: &mut DecisionCounters,
    ) -> Option<PlanId> {
        let (c, d, st) = {
            let n = view.node(p);
            (n.cost, n.card, n.state)
        };
        if c + cost::streaming_aggregate(d) > ub {
            dc.pruning.bound_pruned += 1;
            return None;
        }
        let (fd_bits, mask) = {
            let n = view.node(p);
            (n.applied_fds.clone(), n.mask.clone())
        };
        let partial = !mark.is_final();
        let streaming = keys.order.is_some_and(|k| {
            dc.probes.satisfies += 1;
            self.oracle.satisfies(st, k)
        }) || keys.group.is_some_and(|k| {
            dc.probes.satisfies += 1;
            self.oracle.satisfies(st, k)
        });
        let (op_cost, state, fds_out) = if streaming {
            (cost::streaming_aggregate(d), st, fd_bits)
        } else {
            dc.probes.produce += 1;
            let state = match keys.producible {
                Some(k) => self.replay_fds(self.oracle.produce(k), &fd_bits, dc),
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
        self.try_insert(
            view,
            set,
            ub,
            cand,
            || {
                let op = if streaming {
                    PlanOp::StreamAgg {
                        input: p,
                        key: keys.attrs.clone(),
                        partial,
                    }
                } else {
                    PlanOp::HashAgg {
                        input: p,
                        key: keys.attrs.clone(),
                        partial,
                    }
                };
                PlanNode {
                    op,
                    mask,
                    cost: cand.cost,
                    card: groups,
                    state,
                    agg: mark,
                    applied_fds: fds_out,
                }
            },
            dc,
        )
    }

    /// Final-aggregation alternatives for every complete plan (streaming
    /// vs hashing per [`push_aggregate`](Self::push_aggregate)). Eagerly
    /// pre-aggregated plans finalize the same way — the root aggregate
    /// combines their partials — while group-join plans are already
    /// final and pass through untouched.
    fn finalize_aggregates(&mut self, plans: &[PlanId], dc: &mut DecisionCounters) -> Vec<PlanId> {
        let keys = self.resolve_agg_key(self.query.effective_group_by().to_vec());
        // At the root nothing remains outside the mask: the bound
        // applies with a zero remainder.
        let ub = self.bound;
        let mut view = ArenaView::new(&self.arena);
        let mut out: ParetoSet<O::State> = ParetoSet::new();
        for &p in plans {
            let n = view.node(p);
            let cand = CandidatePlan {
                cost: n.cost,
                card: n.card,
                state: n.state,
                agg: n.agg,
            };
            if cand.agg.is_final() {
                // Group-join output: the aggregation already happened.
                self.try_admit(&mut out, ub, cand, || p, dc);
                continue;
            }
            let mark = cand.agg.union(AggMark::FINAL);
            let groups = self.final_group_count(cand.card, &keys.attrs);
            self.try_push_aggregate(&mut view, &mut out, ub, p, &keys, mark, groups, dc);
        }
        let local = view.into_local();
        self.commit(local, out.ids())
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
    fn add_placement_variants(
        &self,
        mask: &BitSet,
        set: &mut ParetoSet<O::State>,
        view: &mut ArenaView<'_, O::State>,
        ub: f64,
        dc: &mut DecisionCounters,
    ) {
        if !self.placement {
            return;
        }
        let Some(agg) = &self.agg else {
            return;
        };
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
        let keys = self.resolve_agg_key(key.attrs().to_vec());
        let snapshot: Vec<(PlanId, f64)> = set
            .members()
            .filter(|m| m.agg.is_none())
            .map(|m| (m.id, m.card))
            .collect();
        for (p, card) in snapshot {
            let groups = self.group_count(card, &keys.attrs);
            self.try_push_aggregate(view, set, ub, p, &keys, mark, groups, dc);
        }
    }

    /// Scan and index-scan plans for one relation, with constant-
    /// predicate FDs applied and filter selectivities folded in —
    /// inserted straight into the singleton's Pareto set. The cheapest
    /// access path can never bust the bound (the bound provider's plan
    /// pays at least that much for this relation), so the set is never
    /// left empty; pricier index scans are bound-checked before their
    /// state is produced.
    fn base_plans(
        &self,
        qrel: usize,
        set: &mut ParetoSet<O::State>,
        view: &mut ArenaView<'_, O::State>,
        ub: f64,
        dc: &mut DecisionCounters,
    ) {
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
        let mask = self.query.relation_set(qrel);

        // Heap scan.
        dc.probes.produce += 1;
        let mut state = self.oracle.produce_empty();
        for &f in &fds {
            dc.probes.infer += 1;
            state = self.oracle.infer(state, f);
        }
        let scan = CandidatePlan {
            cost: cost::scan(raw_card),
            card,
            state,
            agg: AggMark::NONE,
        };
        self.try_insert(
            view,
            set,
            ub,
            scan,
            || PlanNode {
                op: PlanOp::Scan { qrel },
                mask: mask.clone(),
                cost: scan.cost,
                card,
                state,
                agg: AggMark::NONE,
                applied_fds: fd_bits.clone(),
            },
            dc,
        );
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
            if ix_cost > ub {
                dc.pruning.bound_pruned += 1;
                continue;
            }
            dc.probes.produce += 1;
            let mut state = self.oracle.produce(key);
            for &f in &fds {
                dc.probes.infer += 1;
                state = self.oracle.infer(state, f);
            }
            let ix = CandidatePlan {
                cost: ix_cost,
                card,
                state,
                agg: AggMark::NONE,
            };
            self.try_insert(
                view,
                set,
                ub,
                ix,
                || PlanNode {
                    op: PlanOp::IndexScan { qrel, index: idx },
                    mask: mask.clone(),
                    cost: ix_cost,
                    card,
                    state,
                    agg: AggMark::NONE,
                    applied_fds: fd_bits.clone(),
                },
                dc,
            );
        }
    }

    /// All join alternatives for the ordered partition `(l, r)` of
    /// committed subsets (flat indices into `subsets` and the table).
    ///
    /// Prune-before-build: each plan combination is first tested
    /// against the subset's cost upper bound with
    /// [`cost::join_floor`] — a bust rejects every join alternative of
    /// the combination before any oracle inference, FD-set clone or
    /// node allocation happens. Survivors build stack-only
    /// [`CandidatePlan`]s per alternative; [`try_insert`]
    /// (Self::try_insert) materializes a node only after the bound and
    /// arrival-dominance checks pass.
    fn emit_joins(
        &self,
        subsets: &[BitSet],
        (l, r): (u32, u32),
        set: &mut ParetoSet<O::State>,
        view: &mut ArenaView<'_, O::State>,
        ub: f64,
        dc: &mut DecisionCounters,
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
        let mask = {
            let mut m = s1.clone();
            m.union_with(s2);
            m
        };
        // Fused group-joins exist only at the root subset: they perform
        // the query's *final* aggregation.
        let at_root = mask.len() == self.query.num_relations();
        let left_plans = &self.table[l as usize];
        let right_plans = &self.table[r as usize];
        for &p1 in left_plans {
            for &p2 in right_plans {
                let n1 = view.node(p1);
                let (c1, d1, st1, mark1) = (n1.cost, n1.card, n1.state, n1.agg);
                let n2 = view.node(p2);
                let (c2, d2, mark2) = (n2.cost, n2.card, n2.agg);
                let mark = mark1.union(mark2);
                let out_card = (d1 * d2 * sel).max(1.0);
                // Pair-level bound check: no join operator over these
                // two inputs can cost less than the floor, so a bust
                // rejects the two unconditional alternatives (hash,
                // nested-loop) at once — counted as such — and skips
                // the conditional ones before any state is inferred.
                if c1 + c2 + cost::join_floor(d1, d2, out_card) > ub {
                    dc.pruning.bound_pruned += 2;
                    continue;
                }
                // Property state: the probe/outer (left) side's
                // orderings and groupings survive; all connecting
                // predicates' equations now hold.
                let mut fd_bits = view.node(p1).applied_fds.clone();
                fd_bits.union_with(&view.node(p2).applied_fds);
                let mut state = st1;
                for &e in &edges {
                    let f = self.ex.join_fd[e];
                    dc.probes.infer += 1;
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
                            dc.probes.infer += 1;
                            state = self.oracle.infer(state, f);
                        }
                    }
                }
                // Hash join (on the first edge; the rest are residual
                // predicates either way).
                let hj = CandidatePlan {
                    cost: c1 + c2 + cost::hash_join(d1, d2, out_card),
                    card: out_card,
                    state,
                    agg: mark,
                };
                self.try_insert(
                    view,
                    set,
                    ub,
                    hj,
                    || PlanNode {
                        op: PlanOp::HashJoin {
                            left: p1,
                            right: p2,
                            edge: edges[0],
                        },
                        mask: mask.clone(),
                        cost: hj.cost,
                        card: hj.card,
                        state,
                        agg: mark,
                        applied_fds: fd_bits.clone(),
                    },
                    dc,
                );
                // Nested-loop join.
                let nl = CandidatePlan {
                    cost: c1 + c2 + cost::nested_loop_join(d1, d2, out_card),
                    card: out_card,
                    state,
                    agg: mark,
                };
                self.try_insert(
                    view,
                    set,
                    ub,
                    nl,
                    || PlanNode {
                        op: PlanOp::NestedLoopJoin {
                            left: p1,
                            right: p2,
                        },
                        mask: mask.clone(),
                        cost: nl.cost,
                        card: nl.card,
                        state,
                        agg: mark,
                        applied_fds: fd_bits.clone(),
                    },
                    dc,
                );
                // Group-join: the top join fused with the final
                // aggregation, admissible when the probe side's groups
                // are already adjacent — its properties, the schema FDs,
                // and the join's own equations together make the join
                // key (or whatever the probe is grouped by) functionally
                // determine the group, which is exactly what the
                // post-inference `state` answers in O(1). The bound is
                // checked before the admission probes: a busted fused
                // plan never reaches the oracle.
                if at_root && self.placement && !mark.is_final() {
                    if let Some(agg) = &self.agg {
                        let gj_cost = c1 + c2 + cost::group_join(d1, d2, out_card);
                        if gj_cost > ub {
                            dc.pruning.bound_pruned += 1;
                        } else {
                            let streaming_ok = agg.order_key.is_some_and(|k| {
                                dc.probes.satisfies += 1;
                                self.oracle.satisfies(state, k)
                            }) || agg.group_key.is_some_and(|k| {
                                dc.probes.satisfies += 1;
                                self.oracle.satisfies(state, k)
                            });
                            if streaming_ok {
                                let gj = CandidatePlan {
                                    cost: gj_cost,
                                    card: self.group_count(out_card, &agg.group_by),
                                    state,
                                    agg: mark.union(AggMark::FINAL),
                                };
                                self.try_insert(
                                    view,
                                    set,
                                    ub,
                                    gj,
                                    || PlanNode {
                                        op: PlanOp::GroupJoin {
                                            left: p1,
                                            right: p2,
                                            edge: edges[0],
                                        },
                                        mask: mask.clone(),
                                        cost: gj.cost,
                                        card: gj.card,
                                        state,
                                        agg: gj.agg,
                                        applied_fds: fd_bits.clone(),
                                    },
                                    dc,
                                );
                            }
                        }
                    }
                }
                // Merge joins: need both inputs sorted on the edge. The
                // bound is checked before the satisfies probes.
                for &e in &edges {
                    let j = &self.query.joins[e];
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
                    if mj_cost > ub {
                        dc.pruning.bound_pruned += 1;
                        continue;
                    }
                    let st2 = view.node(p2).state;
                    dc.probes.satisfies += 1;
                    if !self.oracle.satisfies(st1, kl) {
                        continue;
                    }
                    dc.probes.satisfies += 1;
                    if !self.oracle.satisfies(st2, kr) {
                        continue;
                    }
                    let mj = CandidatePlan {
                        cost: mj_cost,
                        card: out_card,
                        state,
                        agg: mark,
                    };
                    self.try_insert(
                        view,
                        set,
                        ub,
                        mj,
                        || PlanNode {
                            op: PlanOp::MergeJoin {
                                left: p1,
                                right: p2,
                                edge: e,
                            },
                            mask: mask.clone(),
                            cost: mj.cost,
                            card: mj.card,
                            state,
                            agg: mark,
                            applied_fds: fd_bits.clone(),
                        },
                        dc,
                    );
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

    /// Enforcer variants: for every producible interesting property
    /// covered by `mask`, a full enforcer on the cheapest unaggregated
    /// plan — a sort for orderings, a linear hash-group for groupings —
    /// plus a partial-sort alternative on whichever input makes it
    /// cheapest (grouping-aware Pareto pruning keeps whichever
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
    fn add_enforcer_variants(
        &self,
        mask: &BitSet,
        set: &mut ParetoSet<O::State>,
        view: &mut ArenaView<'_, O::State>,
        ub: f64,
        dc: &mut DecisionCounters,
    ) {
        // First-minimum over the unaggregated members. Never evicted
        // later: every enforcer variant costs strictly more than its
        // input.
        let Some(cheapest) = set
            .members()
            .filter(|m| m.agg.is_none())
            .fold(None::<(PlanId, f64)>, |best, m| match best {
                Some((_, bc)) if bc <= m.cost => best,
                _ => Some((m.id, m.cost)),
            })
            .map(|(id, _)| id)
        else {
            return;
        };
        for t in 0..self.targets.len() {
            let key = self.targets[t].key;
            let grouping = self.targets[t].grouping;
            if !mask.is_superset(&self.targets[t].rel_mask) {
                continue; // mentions relations outside this subset
            }
            // Alive unaggregated members and their satisfaction of the
            // target, snapshotted per target (earlier targets' variants
            // compete here, as before): (id, cost, card, state, sat).
            let members: Vec<(PlanId, f64, f64, O::State, bool)> = set
                .members()
                .filter(|m| m.agg.is_none())
                .map(|m| {
                    dc.probes.satisfies += 1;
                    let sat = self.oracle.satisfies(m.state, key);
                    (m.id, m.cost, m.card, m.state, sat)
                })
                .collect();
            let (c, d) = {
                let n = view.node(cheapest);
                (n.cost, n.card)
            };
            let op_cost = if grouping {
                cost::hash_group(d)
            } else {
                cost::sort(d)
            };
            let enforced_cost = c + op_cost;
            let in_window =
                |limit: f64| members.iter().any(|&(_, mc, _, _, sat)| sat && mc <= limit);
            if !in_window(enforced_cost) {
                if enforced_cost > ub {
                    dc.pruning.bound_pruned += 1;
                } else {
                    let fd_bits = view.node(cheapest).applied_fds.clone();
                    dc.probes.produce += 1;
                    let state = self.replay_fds(self.oracle.produce(key), &fd_bits, dc);
                    let cand = CandidatePlan {
                        cost: enforced_cost,
                        card: d,
                        state,
                        agg: AggMark::NONE,
                    };
                    let key_attrs = self.targets[t].attrs.clone();
                    let won = self
                        .try_insert(
                            view,
                            set,
                            ub,
                            cand,
                            || PlanNode {
                                op: if grouping {
                                    PlanOp::HashGroup {
                                        input: cheapest,
                                        key: key_attrs,
                                    }
                                } else {
                                    PlanOp::Sort {
                                        input: cheapest,
                                        key: key_attrs,
                                    }
                                },
                                mask: mask.clone(),
                                cost: enforced_cost,
                                card: d,
                                state,
                                agg: AggMark::NONE,
                                applied_fds: fd_bits,
                            },
                            dc,
                        )
                        .is_some();
                    if grouping {
                        dc.enforcers.hash_group_admitted += 1;
                        dc.enforcers.hash_group_won += u64::from(won);
                    } else {
                        dc.enforcers.sort_admitted += 1;
                        dc.enforcers.sort_won += u64::from(won);
                    }
                }
            }
            // Partial-sort alternative for ordering targets: the best
            // (input cost + partial-sort cost) over members whose state
            // already satisfies a head grouping — typically *not* the
            // cheapest plan (a grouped plan costs a bit more but makes
            // the enforcement nearly free). The full sort above stays in
            // the set; Pareto pruning keeps whichever survives.
            if grouping {
                continue;
            }
            let mut best: Option<(f64, PlanId, f64, usize)> = None;
            for &(id, mc, mcard, mstate, sat) in &members {
                if sat {
                    continue;
                }
                let Some((ps_cost, covered)) = self.best_partial_sort(
                    mstate,
                    mcard,
                    &self.targets[t].attrs,
                    &self.targets[t].psort,
                    dc,
                ) else {
                    continue;
                };
                let total = mc + ps_cost;
                if best.is_none_or(|(bt, ..)| total < bt) {
                    best = Some((total, id, mcard, covered));
                }
            }
            if let Some((total, input, card, covered)) = best {
                if in_window(total) {
                    continue;
                }
                if total > ub {
                    dc.pruning.bound_pruned += 1;
                    continue;
                }
                let fd_bits = view.node(input).applied_fds.clone();
                dc.probes.produce += 1;
                let state = self.replay_fds(self.oracle.produce(key), &fd_bits, dc);
                let cand = CandidatePlan {
                    cost: total,
                    card,
                    state,
                    agg: AggMark::NONE,
                };
                let won = self
                    .try_insert(
                        view,
                        set,
                        ub,
                        cand,
                        || PlanNode {
                            op: PlanOp::PartialSort {
                                input,
                                key: self.targets[t].attrs.clone(),
                                head: self.targets[t].attrs[..covered].to_vec(),
                            },
                            mask: mask.clone(),
                            cost: total,
                            card,
                            state,
                            agg: AggMark::NONE,
                            applied_fds: fd_bits,
                        },
                        dc,
                    )
                    .is_some();
                dc.enforcers.partial_sort_admitted += 1;
                dc.enforcers.partial_sort_won += u64::from(won);
            }
        }
    }

    /// Pareto insertion, prune-before-build: the candidate arrives as a
    /// stack-only [`CandidatePlan`] and is materialized (via `build`)
    /// only after it clears the cost bound and the arrival-dominance
    /// test. Pruned candidates therefore cost no arena allocation —
    /// `#Plans` counts plans that entered the table (including ones a
    /// later candidate evicts), which is still "the time to introduce
    /// one plan operator" for the work actually performed.
    ///
    /// Aggregation placement adds a comparability dimension: plans with
    /// different [`AggMark`]s compute different intermediate relations
    /// and never prune each other, and plans *inside* an aggregated
    /// class additionally compare output cardinality (two eager plans
    /// with partial aggregates at different subsets produce genuinely
    /// different row counts — the cheaper one is not better if it
    /// carries more rows into every operator above). Unaggregated plans
    /// of one subset all compute the same relation, so they keep the
    /// classic cost-plus-property test. The [`ParetoSet`] buckets make
    /// the property half of the test one memoized probe per distinct
    /// state instead of one oracle call per member.
    ///
    /// Returns the admitted plan's id, or `None` when the candidate was
    /// bound-pruned or dominated on arrival.
    fn try_insert(
        &self,
        view: &mut ArenaView<'_, O::State>,
        set: &mut ParetoSet<O::State>,
        ub: f64,
        cand: CandidatePlan<O::State>,
        build: impl FnOnce() -> PlanNode<O::State>,
        dc: &mut DecisionCounters,
    ) -> Option<PlanId> {
        self.try_admit(set, ub, cand, || view.push(build()), dc)
    }

    /// The two gates behind [`try_insert`](Self::try_insert), for any
    /// plan: `id` is called — pushing a new node, or returning one that
    /// already exists (the group-join passthrough at finalization) —
    /// only when `cand` clears both. Every pruning counter is charged
    /// here.
    fn try_admit(
        &self,
        set: &mut ParetoSet<O::State>,
        ub: f64,
        cand: CandidatePlan<O::State>,
        id: impl FnOnce() -> PlanId,
        dc: &mut DecisionCounters,
    ) -> Option<PlanId> {
        if cand.cost > ub {
            dc.pruning.bound_pruned += 1;
            return None;
        }
        if set.arrival_dominated(self.oracle, &cand, dc) {
            return None;
        }
        let id = id();
        set.admit(self.oracle, id, &cand, dc);
        dc.pruning.kept[cand.agg.class_index()] += 1;
        Some(id)
    }

    /// Cheapest complete plan, enforcing the required output order at
    /// the top if it is not satisfied — with a full sort, or with a
    /// partial sort when the plan's output already satisfies a head
    /// grouping of the requirement (the `ORDER BY group-key` case above
    /// a hash aggregate, whose grouped output makes the root sort
    /// nearly free).
    fn pick_final(
        &mut self,
        set: &[PlanId],
        required: Option<&Ordering>,
        dc: &mut DecisionCounters,
    ) -> PlanId {
        let required_key = required.and_then(|o| self.oracle.resolve(&o.clone().into()));
        let probes = required
            .map(|o| Self::partial_sort_probes(self.oracle, o.attrs()))
            .unwrap_or_default();
        // Enforcement cost of plan p: None when satisfied, otherwise the
        // cheaper of full sort and (admissible) partial sort, with the
        // covered prefix length recorded for the partial sort.
        let enforcement =
            |this: &Self, p: PlanId, dc: &mut DecisionCounters| -> Option<(f64, Option<usize>)> {
                let n = this.arena.node(p);
                let k = required_key?;
                dc.probes.satisfies += 1;
                if this.oracle.satisfies(n.state, k) {
                    return None;
                }
                let full = (cost::sort(n.card), None);
                match required
                    .and_then(|o| this.best_partial_sort(n.state, n.card, o.attrs(), &probes, dc))
                {
                    Some((ps, covered)) if ps < full.0 => Some((ps, Some(covered))),
                    _ => Some(full),
                }
            };
        let mut best: Option<(f64, PlanId)> = None;
        for &p in set {
            let total = self.arena.node(p).cost + enforcement(self, p, dc).map_or(0.0, |(c, _)| c);
            if best.is_none_or(|(bc, _)| total < bc) {
                best = Some((total, p));
            }
        }
        let (total, p) = best.expect("no complete plan");
        let Some((_, covered)) = enforcement(self, p, dc) else {
            return p;
        };
        // Materialize the final (partial) sort.
        let key = required_key.expect("unsatisfied requires a key");
        let key_attrs = required
            .expect("sort implies a requirement")
            .attrs()
            .to_vec();
        let n = self.arena.node(p);
        let (d, fd_bits, mask, mark) = (n.card, n.applied_fds.clone(), n.mask.clone(), n.agg);
        if covered.is_some() {
            dc.enforcers.partial_sort_admitted += 1;
            dc.enforcers.partial_sort_won += 1;
        } else {
            dc.enforcers.sort_admitted += 1;
            dc.enforcers.sort_won += 1;
        }
        dc.probes.produce += 1;
        let state = self.replay_fds(self.oracle.produce(key), &fd_bits, dc);
        let op = match covered {
            Some(covered) => PlanOp::PartialSort {
                input: p,
                head: key_attrs[..covered].to_vec(),
                key: key_attrs,
            },
            None => PlanOp::Sort {
                input: p,
                key: key_attrs,
            },
        };
        self.arena.push(PlanNode {
            op,
            mask,
            cost: total,
            card: d,
            state,
            agg: mark,
            applied_fds: fd_bits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExplicitOracle;
    use crate::plan::PlanOp;
    use ofw_core::{OrderingFramework, PruneConfig};
    use ofw_parallel::ThreadPool;
    use ofw_query::extract::ExtractOptions;
    use ofw_query::QueryBuilder;
    use ofw_simmen::SimmenFramework;
    use ofw_workload::{large_query, LargeQueryConfig, Topology};

    fn persons_jobs() -> (Catalog, Query) {
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

    fn run_ours(c: &Catalog, q: &Query) -> PlanGenResult<ofw_core::State> {
        let ex = ofw_query::extract(c, q, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        PlanGen::new(c, q, &ex, &fw).run()
    }

    fn run_simmen(c: &Catalog, q: &Query) -> PlanGenResult<ofw_simmen::SimmenState> {
        let ex = ofw_query::extract(c, q, &ExtractOptions::default());
        let fw = SimmenFramework::prepare(&ex.spec);
        PlanGen::new(c, q, &ex, &fw).run()
    }

    fn run_explicit(c: &Catalog, q: &Query) -> PlanGenResult<crate::oracle::ExplicitStateId> {
        let ex = ofw_query::extract(c, q, &ExtractOptions::default());
        let fw = ExplicitOracle::prepare(&ex.spec);
        PlanGen::new(c, q, &ex, &fw).run()
    }

    #[test]
    fn both_oracles_find_the_same_optimal_cost() {
        let (c, q) = persons_jobs();
        let ours = run_ours(&c, &q);
        let simmen = run_simmen(&c, &q);
        // §7: "we carefully observed that in all cases both order
        // optimization algorithms produced the same optimal plan".
        assert!(
            (ours.cost - simmen.cost).abs() < 1e-6,
            "ours={} simmen={}",
            ours.cost,
            simmen.cost
        );
        assert!(ours.stats.plans > 0);
    }

    #[test]
    fn final_plan_honors_order_by() {
        let (c, q) = persons_jobs();
        let r = run_ours(&c, &q);
        let root = r.arena.node(r.best);
        assert_eq!(root.mask, q.all_relations_set());
        assert!(root.cost.is_finite() && root.cost > 0.0);
    }

    #[test]
    fn merge_join_is_chosen_when_inputs_can_be_ordered_cheaply() {
        // Big relations, clustered indexes on both join keys: merge join
        // on index order must beat hashing.
        let mut c = Catalog::new();
        c.add_relation("l", 100_000.0, &["k"]);
        c.add_relation("r", 100_000.0, &["k"]);
        let lk = c.attr("l.k");
        let rk = c.attr("r.k");
        c.add_index(c.relation_id("l").unwrap(), vec![lk], true);
        c.add_index(c.relation_id("r").unwrap(), vec![rk], true);
        let q = QueryBuilder::new(&c)
            .relation("l")
            .relation("r")
            .join("l.k", "r.k", 0.00001)
            .build();
        let r = run_ours(&c, &q);
        let mut found_merge = false;
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            found_merge |= matches!(op, PlanOp::MergeJoin { .. });
            stack.extend(op.inputs());
        }
        assert!(
            found_merge,
            "expected a merge join:\n{}",
            r.arena.render(r.best, &|i| format!("r{i}"))
        );
    }

    #[test]
    fn ours_generates_no_more_plans_than_simmen() {
        let (c, q) = persons_jobs();
        let ours = run_ours(&c, &q);
        let simmen = run_simmen(&c, &q);
        assert!(
            ours.stats.plans <= simmen.stats.plans,
            "ours={} simmen={}",
            ours.stats.plans,
            simmen.stats.plans
        );
    }

    #[test]
    fn chain_of_four_relations_plans() {
        let mut c = Catalog::new();
        let mut qb_rels = Vec::new();
        for i in 0..4 {
            c.add_relation(&format!("t{i}"), 1000.0 * (i as f64 + 1.0), &["k", "f"]);
            qb_rels.push(format!("t{i}"));
        }
        let mut qb = QueryBuilder::new(&c);
        for r in &qb_rels {
            qb = qb.relation(r);
        }
        for i in 0..3 {
            qb = qb.join(&format!("t{i}.f"), &format!("t{}.k", i + 1), 0.001);
        }
        let q = qb.build();
        let ours = run_ours(&c, &q);
        let simmen = run_simmen(&c, &q);
        assert!((ours.cost - simmen.cost).abs() < 1e-6);
        // Prune-before-build: the bounded default materializes fewer
        // plans than the unbounded search over the same space, at the
        // exact same winning cost.
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let unbounded = PlanGen::new(&c, &q, &ex, &fw).cost_bounding(false).run();
        assert_eq!(unbounded.cost.to_bits(), ours.cost.to_bits());
        assert!(unbounded.stats.plans > 20);
        assert!(ours.stats.plans <= unbounded.stats.plans);
        assert!(
            ours.stats.plans >= 11,
            "4 base plans plus at least one plan per larger connected subset"
        );
        assert!(ours.arena.tree_size(ours.best) >= 7, "4 scans + 3 joins");
    }

    #[test]
    fn streaming_aggregate_exploits_free_order() {
        // Clustered index on the grouping attribute: the optimizer must
        // pick an ordered scan + merge-joinable path ending in a
        // streaming aggregate instead of hashing.
        let mut c = Catalog::new();
        c.add_relation("f", 100_000.0, &["g", "k"]);
        c.add_relation("d", 100.0, &["k"]);
        let fg = c.attr("f.g");
        c.add_index(c.relation_id("f").unwrap(), vec![fg], true);
        let q = QueryBuilder::new(&c)
            .relation("f")
            .relation("d")
            .join("f.k", "d.k", 0.01)
            .group_by(&["f.g"])
            .build();
        let r = run_ours(&c, &q);
        let mut found_streaming = false;
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            found_streaming |= matches!(op, PlanOp::StreamAgg { partial: false, .. });
            stack.extend(op.inputs());
        }
        assert!(
            found_streaming,
            "expected a streaming aggregate:\n{}",
            r.arena.render(r.best, &|i| format!("r{i}"))
        );
        // Simmen agrees on the optimum.
        let s = run_simmen(&c, &q);
        assert!((r.cost - s.cost).abs() < 1e-6);
    }

    #[test]
    fn hash_aggregate_when_order_is_expensive() {
        // No index: sorting 100k rows to stream-aggregate loses to
        // hashing, and a bare group-by needs no output ordering — the
        // hash aggregate (whose output *is* grouped by f.g) tops the
        // plan with no final sort.
        let mut c = Catalog::new();
        c.add_relation("f", 100_000.0, &["g", "k"]);
        c.add_relation("d", 100.0, &["k"]);
        let q = QueryBuilder::new(&c)
            .relation("f")
            .relation("d")
            .join("f.k", "d.k", 0.01)
            .group_by(&["f.g"])
            .build();
        let r = run_ours(&c, &q);
        let root = r.arena.node(r.best);
        match &root.op {
            PlanOp::HashAgg { partial, .. } => assert!(!partial),
            other => panic!("expected a hash aggregate at the root, got {other:?}"),
        }
        // The root state satisfies the grouping {f.g} — hash aggregation
        // produced it.
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let r2 = PlanGen::new(&c, &q, &ex, &fw).run();
        let g = Grouping::new(vec![c.attr("f.g")]);
        let hg = fw.resolve(&g.into()).expect("{f.g} is interesting");
        assert!(fw.satisfies(r2.arena.node(r2.best).state, hg));
    }

    #[test]
    fn hash_group_enforcer_wins_below_a_fanning_join() {
        // Small dimension with the grouping attribute, big fact table:
        // hash-grouping the 100-row input (then joining, preserving the
        // grouping, then streaming-aggregating) beats hashing the entire
        // join output — the VLDB'04 early-grouping payoff.
        let mut c = Catalog::new();
        c.add_relation("d", 100.0, &["g", "k"]);
        c.add_relation("f", 1_000_000.0, &["k"]);
        let q = QueryBuilder::new(&c)
            .relation("d")
            .relation("f")
            .join("d.k", "f.k", 0.0001)
            .group_by(&["d.g"])
            .build();
        let r = run_ours(&c, &q);
        let mut found_hash_group = false;
        let mut found_streaming = false;
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            found_hash_group |= matches!(op, PlanOp::HashGroup { .. });
            found_streaming |= matches!(op, PlanOp::StreamAgg { partial: false, .. });
            stack.extend(op.inputs());
        }
        assert!(
            found_hash_group && found_streaming,
            "expected hash-group + streaming aggregate:\n{}",
            r.arena.render(r.best, &|i| format!("r{i}"))
        );
        // All three oracles agree on the optimum.
        let s = run_simmen(&c, &q);
        let e = run_explicit(&c, &q);
        assert!((r.cost - s.cost).abs() < 1e-6, "{} vs {}", r.cost, s.cost);
        assert!((r.cost - e.cost).abs() < 1e-6, "{} vs {}", r.cost, e.cost);
    }

    #[test]
    fn order_by_group_key_plans_a_partial_sort_above_the_hash_aggregate() {
        // GROUP BY f.g ORDER BY f.g with no useful index: hashing wins
        // the aggregation, and its grouped-but-unsorted output makes
        // the root ordering enforceable by a partial sort (blocks are
        // already adjacent) instead of a full sort — the ROADMAP's
        // head/tail payoff.
        let mut c = Catalog::new();
        c.add_relation("f", 100_000.0, &["g", "k"]);
        c.add_relation("d", 100.0, &["k"]);
        c.set_distinct_values(c.attr("f.g"), 1_000.0);
        let q = QueryBuilder::new(&c)
            .relation("f")
            .relation("d")
            .join("f.k", "d.k", 0.01)
            .group_by(&["f.g"])
            .order_by(&["f.g"])
            .build();
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let r = PlanGen::new(&c, &q, &ex, &fw).run();
        let root = r.arena.node(r.best);
        let PlanOp::PartialSort { input, key, head } = &root.op else {
            panic!(
                "expected a root partial sort:\n{}",
                r.arena.render(r.best, &|i| format!("r{i}"))
            );
        };
        assert_eq!(key, &vec![c.attr("f.g")]);
        assert_eq!(head, &vec![c.attr("f.g")]);
        assert!(
            matches!(
                r.arena.node(*input).op,
                PlanOp::HashAgg { partial: false, .. }
            ),
            "the partial sort must sit directly on the hash aggregate:\n{}",
            r.arena.render(r.best, &|i| format!("r{i}"))
        );
        // The sort-only ceiling is strictly costlier, and never cheaper.
        let full = PlanGen::new(&c, &q, &ex, &fw).partial_sort(false).run();
        assert!(
            r.cost < full.cost,
            "partial sort must beat the full-sort ceiling: {} vs {}",
            r.cost,
            full.cost
        );
        // All three arms agree on the partial-sort optimum.
        let s = run_simmen(&c, &q);
        assert!((r.cost - s.cost).abs() < 1e-6, "{} vs {}", r.cost, s.cost);
        let e = run_explicit(&c, &q);
        assert!((r.cost - e.cost).abs() < 1e-6, "{} vs {}", r.cost, e.cost);
    }

    #[test]
    fn partial_sort_exploits_within_group_order_for_finer_blocks() {
        // Requirement (a, b) over a stream grouped by {a}: a partial
        // sort with head {a} qualifies. The probe list prefers the
        // deepest coverage, so when distinct stats make finer blocks
        // cheaper the head/tail pair {a}(b) — satisfied after an FD
        // a→b — refines the estimate. Here we at least pin the
        // admission logic: grouped by {a} alone admits head [a].
        let mut c = Catalog::new();
        c.add_relation("f", 50_000.0, &["g", "h", "k"]);
        c.add_relation("d", 50.0, &["k"]);
        c.set_distinct_values(c.attr("f.g"), 100.0);
        c.set_distinct_values(c.attr("f.h"), 5_000.0);
        let q = QueryBuilder::new(&c)
            .relation("f")
            .relation("d")
            .join("f.k", "d.k", 0.02)
            .group_by(&["f.g", "f.h"])
            .order_by(&["f.g", "f.h"])
            .build();
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
        // The order-by decompositions are registered as interesting:
        // the head grouping {g} (tested) and the pair {g}(h).
        let g = Grouping::new(vec![c.attr("f.g")]);
        let pair = ofw_core::HeadTail::new(g.clone(), Ordering::new(vec![c.attr("f.h")]));
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        assert!(fw.resolve(&g.into()).is_some());
        assert!(fw.resolve(&pair.into()).is_some());
        let r = PlanGen::new(&c, &q, &ex, &fw).run();
        let mut found_partial_sort = false;
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            if let PlanOp::PartialSort { head, .. } = op {
                found_partial_sort = true;
                assert!(!head.is_empty());
            }
            stack.extend(op.inputs());
        }
        assert!(
            found_partial_sort,
            "expected a partial sort:\n{}",
            r.arena.render(r.best, &|i| format!("r{i}"))
        );
        let s = run_simmen(&c, &q);
        assert!((r.cost - s.cost).abs() < 1e-6, "{} vs {}", r.cost, s.cost);
    }

    #[test]
    fn distinct_is_planned_as_grouping_aggregation() {
        let mut c = Catalog::new();
        c.add_relation("f", 50_000.0, &["g", "k"]);
        c.add_relation("d", 100.0, &["k"]);
        let q = QueryBuilder::new(&c)
            .relation("f")
            .relation("d")
            .join("f.k", "d.k", 0.01)
            .distinct(&["f.g"])
            .build();
        let r = run_ours(&c, &q);
        let mut found_aggregate = false;
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            found_aggregate |= matches!(op, PlanOp::StreamAgg { .. } | PlanOp::HashAgg { .. });
            stack.extend(op.inputs());
        }
        assert!(found_aggregate, "distinct plans as an aggregation");
        let s = run_simmen(&c, &q);
        assert!((r.cost - s.cost).abs() < 1e-6);
    }

    fn contains_op(r: &PlanGenResult<ofw_core::State>, pred: &dyn Fn(&PlanOp) -> bool) -> bool {
        let mut stack = vec![r.best];
        while let Some(p) = stack.pop() {
            let op = &r.arena.node(p).op;
            if pred(op) {
                return true;
            }
            stack.extend(op.inputs());
        }
        false
    }

    #[test]
    fn group_join_wins_the_showcase() {
        // "orders per customer": probe side clustered by the (unique)
        // group key, no useful index on the fact side — the fused
        // group-join must beat both eager pre-aggregation and any
        // join-then-aggregate split.
        let (c, q) = ofw_workload::groupjoin_showcase_query();
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        let placed = PlanGen::new(&c, &q, &ex, &fw).run();
        assert!(
            contains_op(&placed, &|op| matches!(op, PlanOp::GroupJoin { .. })),
            "expected a group-join:\n{}",
            placed.arena.render(placed.best, &|i| format!("r{i}"))
        );
        // Root-only aggregation is strictly costlier.
        let root_only = PlanGen::new(&c, &q, &ex, &fw)
            .aggregation_placement(false)
            .run();
        assert!(
            placed.cost < root_only.cost,
            "placement {} must beat root-only {}",
            placed.cost,
            root_only.cost
        );
        // All three arms agree on the placed optimum.
        let simmen = SimmenFramework::prepare(&ex.spec);
        let s = PlanGen::new(&c, &q, &ex, &simmen).run();
        assert!((placed.cost - s.cost).abs() / placed.cost < 1e-9);
        let explicit = ExplicitOracle::prepare(&ex.spec);
        let e = PlanGen::new(&c, &q, &ex, &explicit).run();
        assert!((placed.cost - e.cost).abs() / placed.cost < 1e-9);
    }

    #[test]
    fn eager_push_down_wins_by_orders_of_magnitude_on_a_star_schema() {
        // A 10⁵–10⁶-row fact table joined to small dimensions with
        // selective group keys: pre-aggregating the fact side collapses
        // every join input, so the placed plan must win big and carry a
        // partial aggregate strictly below the root.
        let mut wins = 0usize;
        let mut best_ratio = 1.0f64;
        for seed in 0..12u64 {
            let (c, q) = ofw_workload::star_agg_query(&ofw_workload::StarAggConfig {
                dimensions: 3,
                seed,
            });
            let ex = ofw_query::extract(&c, &q, &ExtractOptions::default());
            let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
            let placed = PlanGen::new(&c, &q, &ex, &fw).run();
            let root_only = PlanGen::new(&c, &q, &ex, &fw)
                .aggregation_placement(false)
                .run();
            assert!(
                placed.cost <= root_only.cost + 1e-9,
                "seed {seed}: placement can never lose"
            );
            if placed.cost < root_only.cost * 0.999 {
                wins += 1;
                assert!(
                    contains_op(&placed, &|op| matches!(
                        op,
                        PlanOp::StreamAgg { partial: true, .. }
                            | PlanOp::HashAgg { partial: true, .. }
                            | PlanOp::GroupJoin { .. }
                    )),
                    "seed {seed}: a winning placed plan must aggregate below the root:\n{}",
                    placed.arena.render(placed.best, &|i| format!("r{i}"))
                );
            }
            best_ratio = best_ratio.max(root_only.cost / placed.cost);
        }
        assert!(wins >= 8, "placement must usually win on stars ({wins}/12)");
        assert!(
            best_ratio > 10.0,
            "the payoff must reach an order of magnitude (best {best_ratio:.1}x)"
        );
    }

    #[test]
    fn memory_accounting_is_populated() {
        let (c, q) = persons_jobs();
        let ours = run_ours(&c, &q);
        let simmen = run_simmen(&c, &q);
        assert!(ours.stats.memory_bytes > 0);
        assert!(simmen.stats.memory_bytes > 0);
    }

    #[test]
    fn layer_plan_covers_every_connected_subset_once() {
        let mut c = Catalog::new();
        for i in 0..5 {
            c.add_relation(&format!("t{i}"), 1000.0, &["k", "f"]);
        }
        let mut qb = QueryBuilder::new(&c);
        for i in 0..5 {
            qb = qb.relation(&format!("t{i}"));
        }
        for i in 0..4 {
            qb = qb.join(&format!("t{i}.f"), &format!("t{}.k", i + 1), 0.001);
        }
        let q = qb.build();
        // Chain of 5: connected subsets of size s are the 6-s intervals,
        // each with 2(s-1) ordered partitions; one batch per size.
        let schedule = dphyp::schedule(&JoinGraph::new(&q), ENUMERATION_BUDGET).unwrap();
        assert_eq!(schedule.batches.len(), 4, "one batch per size");
        for (layer, size) in schedule.batches.iter().zip(2..=5usize) {
            assert_eq!(layer.len(), 6 - size, "intervals of length {size}");
            for work in layer {
                assert_eq!(work.union.len(), size);
                assert_eq!(work.pairs.len(), 2 * (size - 1));
            }
        }
        // Σ over sizes of (#intervals × 2(size−1)) ordered partitions.
        assert_eq!(schedule.emitted, 8 + 12 + 12 + 8);
    }

    /// A lean-extracted `large_query`, prepared for the DFSM arm.
    fn large(
        topology: Topology,
        num_relations: usize,
    ) -> (Catalog, Query, ExtractedQuery, OrderingFramework) {
        let (c, q) = large_query(&LargeQueryConfig {
            topology,
            num_relations,
            seed: num_relations as u64,
        });
        let ex = ofw_query::extract(&c, &q, &ExtractOptions::lean());
        let fw = OrderingFramework::prepare(&ex.spec, PruneConfig::default()).unwrap();
        (c, q, ex, fw)
    }

    /// The 100-relation clique: exhaustive enumeration is out of the
    /// question, so the budget must trip and the linearized window DP
    /// plan the query — end to end, through both drivers, with
    /// identical output. The lowered budget keeps the debug-mode trip
    /// cheap (the clique exceeds the real one by orders of magnitude
    /// either way; `examples/large_join` trips that in release mode) and
    /// bounds the budget-adaptive window the same way.
    #[test]
    fn hundred_relation_clique_falls_back_and_plans() {
        let (c, q, ex, fw) = large(Topology::Clique, 100);
        let budgeted = || {
            let mut pg = PlanGen::new(&c, &q, &ex, &fw);
            pg.budget = 25_000;
            pg
        };
        let serial = budgeted().run();
        assert!(serial.stats.fallback, "the budget must trip");
        assert_eq!(
            serial.arena.node(serial.best).mask,
            q.all_relations_set(),
            "the winner covers all 100 relations"
        );
        assert!(serial.cost.is_finite() && serial.cost > 0.0);
        assert!(
            serial.stats.pairs_emitted < 100_000,
            "fallback pair counts stay linear-ish, got {}",
            serial.stats.pairs_emitted
        );

        let parallel = budgeted().run_with(&ThreadPool::new(2));
        assert_eq!(parallel.best, serial.best);
        assert_eq!(parallel.cost.to_bits(), serial.cost.to_bits());
        assert_eq!(parallel.stats.plans, serial.stats.plans);
        assert_eq!(parallel.stats.pairs_emitted, serial.stats.pairs_emitted);
        assert!(parallel.stats.fallback);
    }

    /// On a graph both paths can plan, the fallback's plan space is a
    /// subset of the exact one — and so is the bound provider's, whose
    /// `B` is admissible for exactly that reason.
    #[test]
    fn fallback_and_bound_never_beat_the_exact_optimum() {
        let (c, q, ex, fw) = large(Topology::Clique, 8);
        let exact = PlanGen::new(&c, &q, &ex, &fw).run();
        assert!(!exact.stats.fallback);

        let mut forced = PlanGen::new(&c, &q, &ex, &fw);
        forced.budget = 100;
        let fallback = forced.run();
        assert!(fallback.stats.fallback);
        assert_eq!(
            fallback.arena.node(fallback.best).mask,
            q.all_relations_set()
        );
        assert!(fallback.cost >= exact.cost);

        let mut provider = PlanGen::new(&c, &q, &ex, &fw).cost_bounding(false);
        provider.window = Some(2);
        assert!(provider.run().cost >= exact.cost);
    }

    /// A hub with 129 neighbors: no `u128` counter can walk that csg
    /// frontier, which is a budget trip like any other — not a panic.
    /// (The frontier trips before the budget's value matters; the small
    /// one keeps the fallback's widening loop cheap in debug mode. At
    /// exactly this width nothing beats the greedy plan, and without
    /// [`BOUND_SLACK`] every complete plan lost to the bound by ulps.)
    #[test]
    fn star_hub_wider_than_the_frontier_counter_falls_back() {
        let (c, q, ex, fw) = large(Topology::Star, 130);
        let mut pg = PlanGen::new(&c, &q, &ex, &fw);
        pg.budget = 25_000;
        let r = pg.run();
        assert!(r.stats.fallback);
        assert_eq!(r.arena.node(r.best).mask, q.all_relations_set());
    }
}
