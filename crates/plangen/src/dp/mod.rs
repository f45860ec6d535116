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
//! # The schedule and the driver
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
//! The driver is serial, as in the paper's §7 generator: it plans the
//! unions one after another in batch order, and every plan a union
//! admits goes straight into the pass's one [`PlanArena`]. A plan's id
//! is therefore a pure function of the query, and so is the whole plan
//! table — operators, masks, costs, cardinalities, applied FDs, oracle
//! states, winner. [`PlanGen::run`] drives two passes through the same
//! code: the bound provider's window-2 linearized schedule, unbounded
//! and untraced into a discarded arena, then the real schedule.
//!
//! # The pruning seam
//!
//! The inner loop prunes before it builds. The bound provider's pass
//! seeds a global cost upper bound `B`; every candidate is tested
//! against `B` minus an admissible floor on the cost still to be paid
//! outside its subset — *before* its plan node is allocated, and
//! usually before the oracle is probed ([`PlanGen::cost_bounding`]
//! turns this off). A Pareto set is a flat list in insertion order: a
//! candidate is compared on cost first, and only a cheaper member in its
//! comparability class costs a dominance check — one oracle probe (one
//! precomputed bit on the DFSM arm, §5.5), or none when the two states
//! are equal. The emitters (`emit.rs`) offer stack-only
//! `CandidatePlan`s to their subset's gate (`pareto.rs`), the one place
//! a candidate's fate is decided and its [`PlanNode`] built. The chosen
//! plan and its cost are identical with bounding on or off (the
//! contract and its proof obligations are written down in
//! ARCHITECTURE.md, "The pruning seam"); every node that enters the
//! table is counted — the paper's `#Plans` metric ("the time to
//! introduce one plan operator") for the work actually performed.

mod dphyp;
mod emit;
mod linearize;
mod pareto;

use crate::cost;
use crate::plan::{AggMark, CandidatePlan, PlanArena, PlanId, PlanNode, PlanOp};
use crate::OrderOracle;
use ofw_catalog::{AttrId, Catalog};
use ofw_common::BitSet;
use ofw_core::fd::FdSetId;
use ofw_core::ordering::Ordering;
use ofw_core::property::{Grouping, HeadTail, LogicalProperty};
use ofw_obs::{DecisionCounters, PhaseStats, Span, Trace};
use ofw_query::{ExtractedQuery, JoinGraph, Query};
use pareto::Gate;
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
    /// counts. Deterministic per query.
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

/// One interesting property, pre-resolved: the target of a sort
/// enforcer (ordering) or a hash-group enforcer (grouping) — every
/// producible one at every subset that covers it, and the `ORDER BY`
/// requirement at the root.
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

impl<K> EnforcerTarget<K> {
    /// The full enforcer's own cost over `card` rows: a linear hash
    /// group for a grouping, a sort for an ordering.
    fn full_cost(&self, card: f64) -> f64 {
        if self.grouping {
            cost::hash_group(card)
        } else {
            cost::sort(card)
        }
    }
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
/// the driver plans. Pairs reference earlier subsets by **flat
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
/// across all earlier batches); the driver plans and commits its unions
/// in batch order.
pub(crate) struct Schedule {
    batches: Vec<Vec<UnionWork>>,
    /// Σ pairs over all batches.
    emitted: u64,
}

/// What one pass of the driver leaves: the winner, the arena holding
/// it, and the pass's work counters.
struct Pass<S> {
    best: PlanId,
    cost: f64,
    arena: PlanArena<S>,
    unions: u64,
    /// Ordered pairs the schedule emitted.
    pairs: u64,
    fallback: bool,
    log: PhaseLog,
}

/// One phase in flight: its span, its clock, the arena size it started
/// at, and its entry — whose decisions the phase charges.
struct Phase<'t> {
    span: Span<'t>,
    start: Instant,
    plans_before: usize,
    stats: PhaseStats,
}

impl<'t> Phase<'t> {
    /// Opens phase `name` with `arena` plans made so far, its span one
    /// level below the `plangen` root.
    fn open(trace: &'t Trace, span: &'static str, name: impl Into<String>, arena: usize) -> Self {
        Phase {
            span: trace.span_at(span, 1),
            start: Instant::now(),
            plans_before: arena,
            stats: PhaseStats {
                name: name.into(),
                ..PhaseStats::default()
            },
        }
    }

    /// Charges the phase the plans materialized since it opened, the
    /// arena now holding `arena_len`, in its entry and on its span.
    fn count_plans(&mut self, arena_len: usize) {
        self.stats.plans = (arena_len - self.plans_before) as u64;
        self.span.count("plans", self.stats.plans);
    }

    /// Ends the phase and its span: the entry joins `log`, its
    /// decisions the run's.
    fn close(mut self, log: &mut PhaseLog) {
        self.stats.time = self.start.elapsed();
        log.decisions.merge(&self.stats.decisions);
        log.phases.push(self.stats);
    }
}

/// The phases of one pass, in order, and the decisions they add up to.
#[derive(Default)]
struct PhaseLog {
    phases: Vec<PhaseStats>,
    decisions: DecisionCounters,
}

/// Pre-resolved aggregation context: what placement enumeration needs
/// to know at every subset (see the module docs on the aggregation
/// dimension).
struct AggInfo {
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
    targets: Vec<EnforcerTarget<O::Key>>,
    /// The `ORDER BY` requirement, resolved once: `Some` iff the query
    /// orders its output by an interesting ordering.
    order_by: Option<EnforcerTarget<O::Key>>,
    /// Aggregation context (`Some` iff the query computes aggregates
    /// over a group-by).
    agg: Option<AggInfo>,
    /// The final aggregation key (`group by` / `distinct` attributes),
    /// resolved once: `Some` iff the query aggregates at the root —
    /// with or without aggregate functions, so also when `agg` is
    /// `None`.
    final_key: Option<AggKeyHandles<O::Key>>,
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
    /// Span sink for phase-level tracing (disabled by default — one
    /// pointer check per phase, nothing in the per-plan hot path).
    trace: Trace,
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
        let target = |p: &LogicalProperty, key| {
            let grouping = p.is_grouping();
            EnforcerTarget {
                key,
                attrs: p.attrs().to_vec(),
                rel_mask: p.attrs().iter().map(|&a| query.owner(a)).collect(),
                grouping,
                psort: if grouping {
                    Vec::new()
                } else {
                    Self::partial_sort_probes(oracle, p.attrs())
                },
            }
        };
        let mut targets: Vec<_> = ex
            .spec
            .produced()
            .iter()
            .filter(|p| !p.is_head_tail())
            .filter_map(|p| {
                let key = oracle.resolve(p).filter(|&k| oracle.is_producible(k))?;
                Some(target(p, key))
            })
            .collect();
        // Grouping targets first: a sort satisfies the grouping too, so
        // adding the sort first would mask the cheaper hash-group
        // enforcer ("already satisfied"); added first, both variants
        // enter the Pareto set and the cost model decides.
        targets.sort_by_key(|t| !t.grouping);
        // Final: honor the output order. A bare group-by/distinct needs
        // no output *ordering* — one row per group is a grouping-shaped
        // requirement the aggregate itself guarantees.
        let order_by = (!query.order_by.is_empty())
            .then(|| Ordering::new(query.order_by.clone()).into())
            .and_then(|p| Some(target(&p, oracle.resolve(&p)?)));
        let agg = ex.aggregation.then(|| AggInfo {
            input_owners: query.agg_input_attrs().map(|a| query.owner(a)).collect(),
            decomposable: query.aggregates.iter().all(|a| a.func.is_decomposable()),
            count_scalable: query
                .aggregates
                .iter()
                .all(|a| a.func.count_scalable() || a.func.duplicate_insensitive()),
        });
        let group_by = query.effective_group_by();
        let final_key =
            (!group_by.is_empty()).then(|| Self::resolve_agg_key(oracle, group_by.to_vec()));
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
            targets,
            order_by,
            agg,
            final_key,
            placement: true,
            partial_sort: true,
            bounding: true,
            min_access,
            total_access,
            trace: Trace::disabled(),
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
    fn upper_bound(&self, bound: f64, mask: &BitSet) -> f64 {
        if bound.is_infinite() {
            return f64::INFINITY;
        }
        let mut inside = 0.0;
        for r in mask.iter() {
            inside += self.min_access[r];
        }
        bound - (self.total_access - inside)
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

    /// Runs the DP and returns the cheapest complete plan that honors
    /// the query's `order by` (adding a final sort if needed).
    pub fn run(self) -> PlanGenResult<O::State> {
        let t0 = Instant::now();
        let mut root = self.trace.span("plangen");
        root.label("serial");
        let mut log = PhaseLog::default();

        // Bound provider: one cheap greedy linearized pass (window 2,
        // itself unbounded) seeds the global upper bound `B` every
        // later phase prunes against. Its plan space is a subset of
        // the outer schedule's search space, so `B` is always achievable
        // — the admissibility contract lives in ARCHITECTURE.md, "The
        // pruning seam". Run before anything else: on memoizing oracles
        // this also warms the state interner deterministically. Its
        // decision counters merge into the run totals via the "bound"
        // phase; its plan nodes live in its own discarded arena and do
        // not count toward `#Plans`.
        let mut bound = f64::INFINITY;
        if self.bounding && self.query.num_relations() >= 3 {
            let mut phase = Phase::open(&self.trace, "bound", "bound", 0);
            let provider = self.bound_pass();
            bound = provider.cost * (1.0 + BOUND_SLACK);
            phase.count_plans(provider.arena.len());
            phase.stats.unions = provider.unions;
            phase.stats.pairs_emitted = provider.pairs;
            phase.stats.decisions = provider.log.decisions;
            phase.close(&mut log);
        }
        let pass = self.drive(|| self.schedule(), bound, &self.trace, log);
        let plans = pass.arena.len();
        root.count("plans", plans as u64);
        root.count("unions", pass.unions);
        drop(root);
        let stats = PlanGenStats {
            plans,
            time: t0.elapsed(),
            memory_bytes: self.oracle.memory_bytes(plans),
            pairs_considered: pass.pairs,
            pairs_emitted: pass.pairs,
            unions: pass.unions,
            fallback: pass.fallback,
            phases: pass.log.phases,
            decisions: pass.log.decisions,
        };
        PlanGenResult {
            best: pass.best,
            cost: pass.cost,
            arena: pass.arena,
            stats,
        }
    }

    /// The same as [`run`](Self::run): the executor is ignored. Kept
    /// only because the frozen `benchmark/src/layers.rs` still calls
    /// it; it goes with the next change to the benchmark.
    pub fn run_with<E>(self, _executor: &E) -> PlanGenResult<O::State> {
        self.run()
    }

    /// The bound provider's pass: the linearized schedule at the
    /// cheapest window, planned by the same driver as the real search,
    /// unbounded, into a throwaway arena, untraced.
    fn bound_pass(&self) -> Pass<O::State> {
        let linearized = linearize::schedule(self.catalog, self.query, Some(2), self.budget);
        let (untraced, log) = (Trace::disabled(), PhaseLog::default());
        self.drive(|| (linearized, false), f64::INFINITY, &untraced, log)
    }

    /// Builds the schedule, and says whether the budget forced the
    /// linearized fallback. Enumeration needs only the join graph, so
    /// the budget trips before any planning work is spent.
    fn schedule(&self) -> (Schedule, bool) {
        match dphyp::schedule(&self.graph, self.budget) {
            Ok(exact) => (exact, false),
            Err(dphyp::BudgetExceeded) => (
                linearize::schedule(self.catalog, self.query, None, self.budget),
                true,
            ),
        }
    }

    /// The driver: one pass over the schedule `schedule` builds, every
    /// candidate pruned against the global bound `bound`, each phase
    /// appended to `log` with its span one level below `trace`'s
    /// `plangen` root. The plan table is local: each committed subset's
    /// Pareto set by flat index, parallel to `subsets`.
    fn drive(
        &self,
        schedule: impl FnOnce() -> (Schedule, bool),
        bound: f64,
        trace: &Trace,
        mut log: PhaseLog,
    ) -> Pass<O::State> {
        let n = self.query.num_relations();
        // Every plan node of the pass, in allocation order: each plan
        // goes in the moment it is admitted.
        let mut arena = PlanArena::new();
        let mut table: Vec<Vec<PlanId>> = Vec::with_capacity(n);
        // Subsets committed so far, in flat global-index order: the
        // numbering the schedule's pair references use (singletons
        // `0..n` first, then unions in batch-emission order).
        let mut subsets: Vec<BitSet> = Vec::with_capacity(n);

        // Base relations.
        let mut phase = Phase::open(trace, "base_plans", "base", arena.len());
        for qrel in 0..n {
            let mask = self.query.relation_set(qrel);
            let dc = &mut phase.stats.decisions;
            table.push(self.plan_union(&mut arena, &mask, bound, dc, |g| self.base_plans(qrel, g)));
            subsets.push(mask);
        }
        phase.stats.unions = n as u64;
        phase.count_plans(arena.len());
        let kept = phase.stats.decisions.pruning.kept_total();
        phase.span.count("kept", kept);
        phase.close(&mut log);

        // The driver loop: the schedule hands over batches of union
        // work whose pairs only reference subsets committed before the
        // batch. Each union is planned in batch order and committed
        // before the next one starts.
        let mut phase = Phase::open(trace, "enumerate", "enumerate", arena.len());
        let (schedule, fallback) = schedule();
        if fallback {
            phase.span.label("fallback");
        }
        phase.span.count("pairs_emitted", schedule.emitted);
        phase.close(&mut log);
        let mut unions = 0u64;
        for (layer, batch) in (1..).zip(schedule.batches) {
            let mut phase = Phase::open(trace, "dp_layer", format!("layer {layer}"), arena.len());
            if trace.is_enabled() {
                phase.span.label(phase.stats.name.clone());
            }
            phase.stats.unions = batch.len() as u64;
            phase.stats.pairs_emitted = batch.iter().map(|w| w.pairs.len() as u64).sum();
            for work in batch {
                let mut union_sp = phase.span.child("union");
                let dc = &mut phase.stats.decisions;
                let pruning = &dc.pruning;
                let before = (arena.len(), pruning.kept_total(), pruning.dominated_total());
                let set = self.plan_union(&mut arena, &work.union, bound, dc, |g| {
                    if let Some(earlier) = work.seed {
                        // Seeds are the subset's committed Pareto set —
                        // already mutually non-dominated and
                        // bound-admissible, so they enter unchecked (and
                        // uncounted: they were counted when first kept).
                        for &p in &table[earlier as usize] {
                            g.set.insert_unchecked(p, g.arena.node(p).candidate());
                        }
                    }
                    for &pair in &work.pairs {
                        self.emit_joins(&subsets, &table, pair, g);
                    }
                });
                if trace.is_enabled() {
                    let pruning = &phase.stats.decisions.pruning;
                    union_sp.label(format!("|{}| pairs={}", work.union.len(), work.pairs.len()));
                    union_sp.count("plans", (arena.len() - before.0) as u64);
                    union_sp.count("kept", pruning.kept_total() - before.1);
                    union_sp.count("dominated", pruning.dominated_total() - before.2);
                }
                drop(union_sp);
                table.push(set);
                subsets.push(work.union);
                unions += 1;
            }
            // Pruning work (kept/dominated) is charged once, on the
            // per-union spans — repeating the totals here would
            // double-charge the layer in the span ledger. The layer
            // span carries only what the unions cannot: batch size and
            // the layer's plan count.
            phase.span.count("unions", phase.stats.unions);
            phase.count_plans(arena.len());
            phase.close(&mut log);
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
        let all = self.query.all_relations_set();
        assert_eq!(
            subsets.last(),
            Some(&all),
            "the schedule must end at the full relation set"
        );
        let mut final_set = table.pop().expect("one subset per relation");
        if let Some(keys) = &self.final_key {
            let mut phase = Phase::open(trace, "finalize_aggregates", "finalize", arena.len());
            // At the root nothing remains outside the mask: the bound
            // applies with a zero remainder.
            let dc = &mut phase.stats.decisions;
            let mut g = Gate::new(self.oracle, &mut arena, &all, bound, dc);
            self.finalize_aggregates(keys, &final_set, &mut g);
            final_set = g.set.ids();
            phase.count_plans(arena.len());
            phase.close(&mut log);
        }

        let mut phase = Phase::open(trace, "pick_final", "pick_final", arena.len());
        let dc = &mut phase.stats.decisions;
        let mut g = Gate::new(self.oracle, &mut arena, &all, f64::INFINITY, dc);
        let best = self.pick_final(&final_set, &mut g);
        phase.count_plans(arena.len());
        phase.close(&mut log);
        Pass {
            best,
            cost: arena.node(best).cost,
            arena,
            unions,
            pairs: schedule.emitted,
            fallback,
            log,
        }
    }

    /// Plans one subset through its gate: `native` offers the subset's
    /// own plans (access paths or joins), then the enforcer and
    /// placement variants compete with them. Returns the Pareto set in
    /// insertion order — the subset's row of the plan table.
    fn plan_union(
        &self,
        arena: &mut PlanArena<O::State>,
        mask: &BitSet,
        bound: f64,
        dc: &mut DecisionCounters,
        native: impl FnOnce(&mut Gate<'_, O>),
    ) -> Vec<PlanId> {
        let ub = self.upper_bound(bound, mask);
        let mut g = Gate::new(self.oracle, arena, mask, ub, dc);
        native(&mut g);
        self.add_enforcer_variants(&mut g);
        self.add_placement_variants(&mut g);
        g.set.ids()
    }

    /// Resolves the oracle handles for aggregating on `attrs` — the
    /// ordering and grouping probes of the streaming admission test,
    /// plus the producible grouping a hash aggregate constructs its
    /// output state from (tested-only groupings may be probed but never
    /// produced).
    fn resolve_agg_key(oracle: &O, attrs: Vec<AttrId>) -> AggKeyHandles<O::Key> {
        let order = oracle.resolve(&Ordering::new(attrs.clone()).into());
        let group = oracle.resolve(&Grouping::new(attrs.clone()).into());
        let producible = group.filter(|&k| oracle.is_producible(k));
        AggKeyHandles {
            attrs,
            order,
            group,
            producible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExplicitOracle;
    use crate::plan::PlanOp;
    use ofw_core::{OrderingFramework, PruneConfig};
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
            r.arena.explain(r.best, &c, &q).text()
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
            r.arena.explain(r.best, &c, &q).text()
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
            r.arena.explain(r.best, &c, &q).text()
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
                r.arena.explain(r.best, &c, &q).text()
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
            r.arena.explain(r.best, &c, &q).text()
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
            r.arena.explain(r.best, &c, &q).text()
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
            placed.arena.explain(placed.best, &c, &q).text()
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
                    placed.arena.explain(placed.best, &c, &q).text()
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
    /// plan the query end to end. The lowered budget keeps the debug-mode trip
    /// cheap (the clique exceeds the real one by orders of magnitude
    /// either way; `examples/large_join` trips that in release mode) and
    /// bounds the budget-adaptive window the same way.
    #[test]
    fn hundred_relation_clique_falls_back_and_plans() {
        let (c, q, ex, fw) = large(Topology::Clique, 100);
        let mut pg = PlanGen::new(&c, &q, &ex, &fw);
        pg.budget = 25_000;
        let r = pg.run();
        assert!(r.stats.fallback, "the budget must trip");
        assert_eq!(
            r.arena.node(r.best).mask,
            q.all_relations_set(),
            "the winner covers all 100 relations"
        );
        assert!(r.cost.is_finite() && r.cost > 0.0);
        assert!(
            r.stats.pairs_emitted < 100_000,
            "fallback pair counts stay linear-ish, got {}",
            r.stats.pairs_emitted
        );
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

        let provider = PlanGen::new(&c, &q, &ex, &fw).bound_pass();
        assert!(provider.cost >= exact.cost);
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
