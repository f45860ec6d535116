//! Decision telemetry: plain-old-data counters the optimizer fills in
//! while it works. Everything here is deterministic (no wall clock):
//! the same query on the same build produces the same counts at any
//! thread count and on any machine, which is what lets the root crate's
//! `tests/golden_counters.rs` pin them to exact values.

use std::time::Duration;

/// Number of aggregation comparability classes tracked by
/// [`PruneCounters`]. Matches the 3-bit `AggMark` encoding in the plan
/// generator (none / eager / eager-count / final and unions thereof).
pub const AGG_CLASSES: usize = 8;

/// Pareto-pruning outcomes per aggregation comparability class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PruneCounters {
    /// Candidates admitted into the plan table, per class.
    pub kept: [u64; AGG_CLASSES],
    /// Candidates rejected as dominated (or evicted by a later
    /// dominating candidate), per class.
    pub dominated: [u64; AGG_CLASSES],
    /// Candidates rejected by the branch-and-bound cost bound *before*
    /// a plan node was materialized or the oracle was probed (see the
    /// plan generator's pruning seam). Not split by class: the bound is
    /// checked before the candidate's state — and sometimes before its
    /// operator — exists.
    pub bound_pruned: u64,
}

impl PruneCounters {
    /// Total candidates kept across classes.
    pub fn kept_total(&self) -> u64 {
        self.kept.iter().sum()
    }

    /// Total candidates dominated across classes.
    pub fn dominated_total(&self) -> u64 {
        self.dominated.iter().sum()
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &Self) {
        for i in 0..AGG_CLASSES {
            self.kept[i] += other.kept[i];
            self.dominated[i] += other.dominated[i];
        }
        self.bound_pruned += other.bound_pruned;
    }
}

/// Enforcer-choice outcomes: how often each enforcer produced a
/// candidate ("admitted") and how often that candidate survived
/// pruning ("won").
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EnforcerCounters {
    /// Full `Sort` candidates generated.
    pub sort_admitted: u64,
    /// Full `Sort` candidates that survived pruning.
    pub sort_won: u64,
    /// `PartialSort` candidates generated.
    pub partial_sort_admitted: u64,
    /// `PartialSort` candidates that survived pruning.
    pub partial_sort_won: u64,
    /// `HashGroup` candidates generated.
    pub hash_group_admitted: u64,
    /// `HashGroup` candidates that survived pruning.
    pub hash_group_won: u64,
}

impl EnforcerCounters {
    /// Total enforcer candidates generated.
    pub fn admitted_total(&self) -> u64 {
        self.sort_admitted + self.partial_sort_admitted + self.hash_group_admitted
    }

    /// Total enforcer candidates that survived pruning.
    pub fn won_total(&self) -> u64 {
        self.sort_won + self.partial_sort_won + self.hash_group_won
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &Self) {
        self.sort_admitted += other.sort_admitted;
        self.sort_won += other.sort_won;
        self.partial_sort_admitted += other.partial_sort_admitted;
        self.partial_sort_won += other.partial_sort_won;
        self.hash_group_admitted += other.hash_group_admitted;
        self.hash_group_won += other.hash_group_won;
    }
}

/// Oracle probe counts, by ADT operation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProbeCounters {
    /// `produce` / `produce_empty` calls.
    pub produce: u64,
    /// `infer` calls (one per FD applied to a stream).
    pub infer: u64,
    /// `satisfies` calls, on every property kind.
    pub satisfies: u64,
    /// `dominates` calls (one per Pareto comparison that actually
    /// reached the oracle).
    pub dominates: u64,
    /// Pareto comparisons answered *without* an oracle call: exact
    /// state equality (dominance is reflexive) or a per-union
    /// `(state, state) → bool` memo hit. Kept out of
    /// [`total`](Self::total) so `oracle_probes` keeps counting real
    /// oracle work.
    pub dominance_memo_hits: u64,
}

impl ProbeCounters {
    /// Total probes across families — the work the oracle actually
    /// performed (memo hits excluded by design).
    pub fn total(&self) -> u64 {
        self.produce + self.infer + self.satisfies + self.dominates
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &Self) {
        self.produce += other.produce;
        self.infer += other.infer;
        self.satisfies += other.satisfies;
        self.dominates += other.dominates;
        self.dominance_memo_hits += other.dominance_memo_hits;
    }
}

/// All decision telemetry for a stretch of optimizer work.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DecisionCounters {
    /// Pareto-pruning outcomes.
    pub pruning: PruneCounters,
    /// Enforcer admissions and wins.
    pub enforcers: EnforcerCounters,
    /// Oracle probe counts.
    pub probes: ProbeCounters,
}

impl DecisionCounters {
    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &Self) {
        self.pruning.merge(&other.pruning);
        self.enforcers.merge(&other.enforcers);
        self.probes.merge(&other.probes);
    }
}

/// Per-phase statistics: one entry per plan-generation phase (base
/// plans, each DP layer, aggregate finalization, final pick), exposed
/// as `PlanGenStats::phases`. The `time` field is wall-clock; all
/// other fields are deterministic.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Phase name ("base", "layer 2", ..., "finalize", "pick_final",
    /// "enumerate").
    pub name: String,
    /// Wall-clock time spent in the phase.
    pub time: Duration,
    /// Unions (DP table entries) processed in the phase.
    pub unions: u64,
    /// Ordered csg-cmp pairs planned in the phase's layer.
    pub pairs_emitted: u64,
    /// Plan nodes materialized during the phase.
    pub plans: u64,
    /// Decision telemetry accumulated during the phase.
    pub decisions: DecisionCounters,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge_componentwise() {
        let mut a = DecisionCounters::default();
        a.pruning.kept[0] = 3;
        a.pruning.dominated[4] = 2;
        a.enforcers.sort_admitted = 5;
        a.enforcers.partial_sort_won = 1;
        a.probes.infer = 10;
        let mut b = DecisionCounters::default();
        b.pruning.kept[0] = 1;
        b.pruning.kept[1] = 7;
        b.enforcers.sort_admitted = 2;
        b.probes.dominates = 4;
        a.merge(&b);
        assert_eq!(a.pruning.kept_total(), 11);
        assert_eq!(a.pruning.dominated_total(), 2);
        assert_eq!(a.enforcers.sort_admitted, 7);
        assert_eq!(a.enforcers.admitted_total(), 7);
        assert_eq!(a.enforcers.won_total(), 1);
        assert_eq!(a.probes.total(), 14);
    }
}
