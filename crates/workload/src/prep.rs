//! Preparation-stress workloads: large `InputSpec`s built from
//! independent property *families*.
//!
//! The pipeline benchmark's `prep_heavy` workload needs specs whose
//! NFSM→DFSM preparation cost can be dialed into the hundreds of
//! interesting properties while staying predictable. The generator
//! builds `families` independent groups, each over its own disjoint
//! attribute block, with family-local orderings, groupings, head/tail
//! pairs and functional dependencies. Because no FD crosses a family
//! boundary, the DFSM decomposes: its reachable states are (up to the
//! shared empty state) the disjoint union of each family's states, and
//! NFSM nodes, edges and preparation's allocation count grow linearly in
//! the family count (`crates/bench/tests/prep_allocs.rs` enforces the
//! allocation form: 4 × the families, at most 4.6 × the allocations).
//!
//! Everything is index-arithmetic deterministic (no RNG): the same
//! config always yields the same spec, and shifting `attr_base` yields
//! an attribute-renamed copy of the same *shape* — the repeated-shape
//! sweep the preparation-interning cache is measured on.

use ofw_catalog::AttrId;
use ofw_core::{Fd, Grouping, HeadTail, InputSpec, Ordering};

/// Shape of a preparation-stress spec.
#[derive(Clone, Debug)]
pub struct PrepSpecConfig {
    /// Independent property families (disjoint attribute blocks).
    pub families: usize,
    /// Produced orderings per family (each also tested one attribute
    /// longer, so sort enforcers and probes both have targets).
    pub orders_per_family: usize,
    /// Produced + tested groupings per family.
    pub groupings_per_family: usize,
    /// Tested head/tail pairs per family.
    pub head_tails_per_family: usize,
    /// Attributes per family block (clamped to at least 2).
    pub attrs_per_family: usize,
    /// Functional-dependency sets per family (one FD each).
    pub fds_per_family: usize,
    /// Adds one more FD set per family, `{a0 → a2, {a0, a1} → a2}`:
    /// its second dependency follows from its first, so FD pruning's
    /// leave-one-out drops it.
    pub redundant_set: bool,
    /// First attribute id — shift to rename every attribute while
    /// keeping the spec's canonical shape identical.
    pub attr_base: u32,
}

impl PrepSpecConfig {
    /// A deep-chain family shape: one produced ordering, one grouping
    /// and one head/tail pair over 4 attributes, with a 3-step FD
    /// chain (`a0→a1→a2→a3`) whose tested extensions form a per-family
    /// chain of DFSM states (~18 per family; wider attribute blocks
    /// blow up the artificial head/tail closure combinatorially).
    /// Scale `families` to scale the automaton.
    pub fn with_families(families: usize) -> Self {
        PrepSpecConfig {
            families,
            orders_per_family: 1,
            groupings_per_family: 1,
            head_tails_per_family: 1,
            attrs_per_family: 4,
            fds_per_family: 3,
            redundant_set: false,
            attr_base: 0,
        }
    }

    /// Same shape plus one redundant FD set per family (see
    /// [`PrepSpecConfig::redundant_set`]).
    pub fn with_redundant_set(mut self) -> Self {
        self.redundant_set = true;
        self
    }

    /// Same shape, different attribute names (for interning sweeps).
    pub fn shifted(mut self, attr_base: u32) -> Self {
        self.attr_base = attr_base;
        self
    }
}

/// Builds the spec. Family `f` owns the attribute block
/// `[attr_base + f·k, attr_base + (f+1)·k)` with `k = attrs_per_family`;
/// all properties and FDs of a family stay inside its block.
pub fn prep_spec(config: &PrepSpecConfig) -> InputSpec {
    let k = config.attrs_per_family.max(2);
    let mut spec = InputSpec::new();
    for f in 0..config.families {
        let attrs: Vec<AttrId> = (0..k)
            .map(|t| AttrId(config.attr_base + (f * k + t) as u32))
            .collect();
        let rot = |start: usize, len: usize| -> Vec<AttrId> {
            (0..len.min(k)).map(|j| attrs[(start + j) % k]).collect()
        };
        for i in 0..config.orders_per_family {
            let start = i % k;
            let len = 2 + (i / k) % (k - 1);
            spec.add_produced(Ordering::new(rot(start, len)));
            // Every longer rotation is reachable by chaining the
            // family's FDs — all tested, so the automaton grows a
            // *deep* per-family chain of interesting states.
            for longer in (len + 1)..=k {
                spec.add_tested(Ordering::new(rot(start, longer)));
            }
        }
        for j in 0..config.groupings_per_family {
            // Nonempty attribute subsets by bit pattern, cycling.
            let mask = 1 + j % ((1usize << k) - 1);
            let set: Vec<AttrId> = (0..k)
                .filter(|t| mask >> t & 1 == 1)
                .map(|t| attrs[t])
                .collect();
            spec.add_produced(Grouping::new(set.clone()));
            spec.add_tested(Grouping::new(set));
        }
        for h in 0..config.head_tails_per_family {
            let head = Grouping::new(vec![attrs[h % k]]);
            let tail = Ordering::new(vec![attrs[(h + 1) % k]]);
            spec.add_tested(HeadTail::new(head, tail));
        }
        for s in 0..config.fds_per_family {
            let lhs = attrs[s % k];
            let rhs = attrs[(s + 1) % k];
            spec.add_fd_set(vec![Fd::functional(&[lhs], rhs)]);
        }
        if config.redundant_set && k > 2 {
            spec.add_fd_set(vec![
                Fd::functional(&attrs[..1], attrs[2]),
                Fd::functional(&attrs[..2], attrs[2]),
            ]);
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofw_core::{OrderOracle, OrderingFramework, PruneConfig};

    #[test]
    fn deterministic_and_family_scaled() {
        let c4 = PrepSpecConfig::with_families(4);
        let s1 = prep_spec(&c4);
        let s2 = prep_spec(&c4);
        assert_eq!(s1.produced(), s2.produced());
        assert_eq!(s1.tested(), s2.tested());
        assert_eq!(s1.fd_sets(), s2.fd_sets());
        // 1 ordering + 1 grouping produced per family.
        assert_eq!(s1.produced().len(), 4 * 2);
        assert_eq!(s1.fd_sets().len(), 4 * 3);
    }

    /// Families are independent, so DFSM states must scale linearly —
    /// the property that makes the bench's costs predictable.
    #[test]
    fn dfsm_states_scale_linearly_in_families() {
        let states = |families: usize| {
            let spec = prep_spec(&PrepSpecConfig::with_families(families));
            let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
            fw.stats().dfsm_states
        };
        let (s2, s4) = (states(2), states(4));
        let per_family = s4 - s2; // 2 more families' worth
        assert!(per_family > 0);
        assert_eq!(states(6), s4 + per_family, "linear in the family count");
    }

    /// Shifting the attribute base renames attributes but preserves the
    /// shape — the automaton sizes must match exactly.
    #[test]
    fn shifted_specs_have_identical_shape() {
        let base = prep_spec(&PrepSpecConfig::with_families(3));
        let shifted = prep_spec(&PrepSpecConfig::with_families(3).shifted(1000));
        assert_ne!(base.produced(), shifted.produced());
        let f1 = OrderingFramework::prepare(&base, PruneConfig::default()).unwrap();
        let f2 = OrderingFramework::prepare(&shifted, PruneConfig::default()).unwrap();
        assert_eq!(f1.stats().nfsm_nodes, f2.stats().nfsm_nodes);
        assert_eq!(f1.stats().dfsm_states, f2.stats().dfsm_states);
    }

    /// The largest shift the pipeline benchmark draws (65 472): the
    /// shifted copy prepares to the same automaton sizes and the same
    /// probe answers — ids are sparse, nothing may be sized by them.
    #[test]
    fn shifted_specs_prepare_identically() {
        let prepare = |attr_base: u32| {
            let spec = prep_spec(&PrepSpecConfig::with_families(3).shifted(attr_base));
            let fw = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
            (spec, fw)
        };
        let ((base_spec, base), (shifted_spec, shifted)) = (prepare(0), prepare(65_472));
        let sizes = |fw: &OrderingFramework| {
            let s = fw.stats();
            let nfsm = (s.nfsm_nodes_before_prune, s.nfsm_nodes, s.nfsm_edges);
            (nfsm, s.dfsm_states, s.pruned_fds, s.precomputed_bytes)
        };
        assert_eq!(sizes(&base), sizes(&shifted));
        let interesting = |spec: &InputSpec| spec.interesting().cloned().collect::<Vec<_>>();
        let probes = interesting(&base_spec);
        let shifted_probes = interesting(&shifted_spec);
        for (p, sp) in base_spec.produced().iter().zip(shifted_spec.produced()) {
            let mut s = base.produce(base.resolve(p).unwrap());
            let mut ss = shifted.produce(shifted.resolve(sp).unwrap());
            for set in (0..base_spec.fd_sets().len() as u32).map(ofw_core::FdSetId) {
                (s, ss) = (base.infer(s, set), shifted.infer(ss, set));
                for (q, sq) in probes.iter().zip(&shifted_probes) {
                    let h = base.resolve(q).unwrap();
                    let sh = shifted.resolve(sq).unwrap();
                    assert_eq!(base.satisfies(s, h), shifted.satisfies(ss, sh), "{q:?}");
                }
            }
        }
    }
}
