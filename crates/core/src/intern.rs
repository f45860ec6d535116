//! Spec canonicalization and the prepared-automaton interning cache.
//!
//! Two queries rarely share attribute *ids*, but they constantly share
//! property-spec *shape*: "two produced orderings of length 2 over
//! disjoint attributes, one FD set linking them" prepares to the exact
//! same NFSM/DFSM no matter which attributes play the roles. The cache
//! exploits this by renaming attributes to canonical ids in first-
//! occurrence order over a deterministic traversal of the spec
//! (produced properties, then tested ones, then FD sets): structurally
//! identical specs canonicalize to equal keys, and a warm
//! [`OrderingFramework::prepare_cached`](crate::OrderingFramework::prepare_cached)
//! is a canonicalization pass plus one hash lookup instead of a full
//! determinization.
//!
//! Canonicalization is *sound, not complete*: a renaming can reorder
//! set-valued properties (groupings store attributes sorted by id), so
//! some equivalent specs hash to different keys — they just miss the
//! cache and prepare normally. A hit, on the other hand, is always
//! exact: the canonical spec preserves property identity, FD-set ids
//! and producibility, and the per-query handle maps are translated back
//! through the inverse renaming.

use crate::fd::Fd;
use crate::framework::{PrepareError, Prepared};
use crate::property::LogicalProperty;
use crate::prune::PruneConfig;
use crate::spec::InputSpec;
use ofw_catalog::AttrId;
use ofw_common::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};

/// Bijective attribute renaming between a query's attribute space and
/// the canonical (first-occurrence) space.
pub(crate) struct AttrCanonMap {
    to_canon: FxHashMap<AttrId, AttrId>,
    /// Indexed by canonical id: the original attribute.
    from_canon: Vec<AttrId>,
}

impl AttrCanonMap {
    fn new() -> Self {
        AttrCanonMap {
            to_canon: FxHashMap::default(),
            from_canon: Vec::new(),
        }
    }

    /// Canonical id of `a`, assigned at first sight.
    fn map(&mut self, a: AttrId) -> AttrId {
        if let Some(&c) = self.to_canon.get(&a) {
            return c;
        }
        let c = AttrId(self.from_canon.len() as u32);
        self.to_canon.insert(a, c);
        self.from_canon.push(a);
        c
    }

    /// Translates a canonical-space property back into the original
    /// attribute space.
    pub(crate) fn prop_to_original(&self, p: &LogicalProperty) -> LogicalProperty {
        remap_prop(p, &mut |a| self.from_canon[a.0 as usize])
    }
}

/// Rebuilds a property with every attribute passed through `f`,
/// re-running the type's own canonicalization (groupings re-sort,
/// head/tail pairs re-collapse degenerate shapes — a bijective rename
/// preserves degeneracy, so the variant never changes).
fn remap_prop(p: &LogicalProperty, f: &mut impl FnMut(AttrId) -> AttrId) -> LogicalProperty {
    use crate::ordering::Ordering;
    use crate::property::Grouping;
    match p {
        LogicalProperty::Ordering(o) => {
            LogicalProperty::Ordering(Ordering::new(o.attrs().iter().map(|&a| f(a)).collect()))
        }
        LogicalProperty::Grouping(g) => {
            LogicalProperty::Grouping(Grouping::new(g.attrs().iter().map(|&a| f(a)).collect()))
        }
        LogicalProperty::HeadTail(h) => LogicalProperty::head_tail(
            Grouping::new(h.head_attrs().iter().map(|&a| f(a)).collect()),
            Ordering::new(h.tail_attrs().iter().map(|&a| f(a)).collect()),
        ),
    }
}

/// Rebuilds an FD with every attribute passed through `f`.
fn remap_fd(fd: &Fd, f: &mut impl FnMut(AttrId) -> AttrId) -> Fd {
    match fd {
        Fd::Functional { lhs, rhs } => {
            let lhs: Vec<AttrId> = lhs.iter().map(|&a| f(a)).collect();
            Fd::functional(&lhs, f(*rhs))
        }
        Fd::Equation(a, b) => Fd::equation(f(*a), f(*b)),
        Fd::Constant(a) => Fd::constant(f(*a)),
    }
}

/// Renames a spec's attributes to canonical first-occurrence ids.
/// Returns the canonical spec (property and FD-set registration order,
/// and therefore every `FdSetId`, preserved — the renaming is injective,
/// so distinct sets stay distinct and dedup cannot merge them) plus the
/// renaming for translating results back.
pub(crate) fn canonicalize(spec: &InputSpec) -> (InputSpec, AttrCanonMap) {
    let mut map = AttrCanonMap::new();
    let mut canon = InputSpec::new();
    for p in spec.produced() {
        canon.add_produced(remap_prop(p, &mut |a| map.map(a)));
    }
    for p in spec.tested() {
        canon.add_tested(remap_prop(p, &mut |a| map.map(a)));
    }
    for set in spec.fd_sets() {
        let fds: Vec<Fd> = set
            .fds()
            .iter()
            .map(|fd| remap_fd(fd, &mut |a| map.map(a)))
            .collect();
        canon.add_fd_set(fds);
    }
    debug_assert_eq!(canon.fd_sets().len(), spec.fd_sets().len());
    (canon, map)
}

/// Cache key: the canonicalized spec shape plus the pruning
/// configuration — everything that determines the resulting automaton.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    produced: Vec<LogicalProperty>,
    tested: Vec<LogicalProperty>,
    fd_sets: Vec<crate::fd::FdSet>,
    /// `PruneConfig` fields, flattened (the struct itself keeps no `Eq`).
    config: (bool, bool, bool, bool, bool, usize, usize),
}

impl CacheKey {
    pub(crate) fn new(canon_spec: &InputSpec, config: &PruneConfig) -> Self {
        CacheKey {
            produced: canon_spec.produced().to_vec(),
            tested: canon_spec.tested().to_vec(),
            fd_sets: canon_spec.fd_sets().to_vec(),
            config: (
                config.prune_fds,
                config.merge_artificial,
                config.eps_replace,
                config.prefix_filter,
                config.length_cutoff,
                config.max_nodes,
                config.max_dfsm_states,
            ),
        }
    }
}

/// Process-wide interning cache of prepared automata, keyed by
/// canonicalized spec shape. Thread-safe; share one instance across
/// queries (e.g. one per optimizer) and pass it to
/// [`OrderingFramework::prepare_cached`](crate::OrderingFramework::prepare_cached).
#[derive(Default)]
pub struct PreparedCache {
    entries: Mutex<FxHashMap<CacheKey, Arc<Prepared>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PreparedCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm lookups served so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(AtomicOrdering::Relaxed)
    }

    /// Cold preparations performed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(AtomicOrdering::Relaxed)
    }

    /// Distinct spec shapes currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all cached automata (counters keep running).
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }

    /// Returns the cached automaton for `key`, building and inserting
    /// it on a miss. The build runs outside the lock; a concurrent
    /// builder of the same shape may win the insert race, in which case
    /// the first-inserted entry is shared and the duplicate dropped.
    pub(crate) fn get_or_build(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Result<Prepared, PrepareError>,
    ) -> Result<(Arc<Prepared>, bool), PrepareError> {
        if let Some(entry) = self.entries.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, AtomicOrdering::Relaxed);
            return Ok((Arc::clone(entry), true));
        }
        let built = Arc::new(build()?);
        self.misses.fetch_add(1, AtomicOrdering::Relaxed);
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.entry(key).or_insert(built);
        Ok((Arc::clone(entry), false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{OrderingFramework, PrepareOptions};
    use crate::oracle::OrderOracle;
    use crate::ordering::Ordering;

    fn o(ids: &[u32]) -> Ordering {
        Ordering::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    fn shifted_spec(base: u32) -> InputSpec {
        let mut spec = InputSpec::new();
        spec.add_produced(o(&[base + 1]));
        spec.add_produced(o(&[base, base + 1]));
        spec.add_tested(o(&[base, base + 1, base + 2]));
        spec.add_fd_set(vec![Fd::functional(&[AttrId(base + 1)], AttrId(base + 2))]);
        spec
    }

    /// Attribute-shifted copies of one shape canonicalize to the same
    /// key and share one prepared automaton.
    #[test]
    fn shifted_shapes_share_one_automaton() {
        let cache = PreparedCache::new();
        let options = PrepareOptions::default();
        let cfg = PruneConfig::default;
        let first =
            OrderingFramework::prepare_cached(&shifted_spec(0), cfg(), &options, &cache).unwrap();
        assert!(!first.stats().interned_hit);
        for base in [10u32, 100, 7] {
            let fw =
                OrderingFramework::prepare_cached(&shifted_spec(base), cfg(), &options, &cache)
                    .unwrap();
            assert!(fw.stats().interned_hit, "shape base={base} must hit");
            // The shared automaton answers in the shifted attr space.
            let h = fw.resolve(&o(&[base, base + 1]).into()).unwrap();
            let s = fw.produce(h);
            assert!(fw.satisfies(s, fw.resolve(&o(&[base]).into()).unwrap()));
            assert!(!fw.satisfies(s, fw.resolve(&o(&[base + 1]).into()).unwrap()));
        }
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 3);
        assert_eq!(cache.misses(), 1);
    }

    /// A cached framework gives the same probe answers as an uncached
    /// prepare of the same spec (handles may be numbered differently).
    #[test]
    fn cached_prepare_is_probe_equivalent_to_uncached() {
        let cache = PreparedCache::new();
        let spec = shifted_spec(3);
        // Warm the cache with a different base so the second query hits.
        let _ = OrderingFramework::prepare_cached(
            &shifted_spec(0),
            PruneConfig::default(),
            &PrepareOptions::default(),
            &cache,
        )
        .unwrap();
        let cached = OrderingFramework::prepare_cached(
            &spec,
            PruneConfig::default(),
            &PrepareOptions::default(),
            &cache,
        )
        .unwrap();
        assert!(cached.stats().interned_hit);
        let plain = OrderingFramework::prepare(&spec, PruneConfig::default()).unwrap();
        let f0 = crate::fd::FdSetId(0);
        for (p, hp) in plain.properties() {
            let hc = cached.resolve(p).expect("same handle space");
            if !plain.is_producible(hp) {
                assert!(!cached.is_producible(hc));
                continue;
            }
            let (sp, sc) = (plain.produce(hp), cached.produce(hc));
            for (q, hq) in plain.properties() {
                let hqc = cached.resolve(q).unwrap();
                assert_eq!(plain.satisfies(sp, hq), cached.satisfies(sc, hqc));
                assert_eq!(
                    plain.satisfies(plain.infer(sp, f0), hq),
                    cached.satisfies(cached.infer(sc, f0), hqc)
                );
            }
        }
    }

    /// Different shapes and configs get distinct entries.
    #[test]
    fn distinct_shapes_do_not_collide() {
        let cache = PreparedCache::new();
        let options = PrepareOptions::default();
        let a = shifted_spec(0);
        let mut b = shifted_spec(0);
        b.add_tested(o(&[5]));
        let _ = OrderingFramework::prepare_cached(&a, PruneConfig::default(), &options, &cache);
        let fw_b = OrderingFramework::prepare_cached(&b, PruneConfig::default(), &options, &cache)
            .unwrap();
        assert!(!fw_b.stats().interned_hit);
        let fw_cfg =
            OrderingFramework::prepare_cached(&a, PruneConfig::none(), &options, &cache).unwrap();
        assert!(!fw_cfg.stats().interned_hit, "config is part of the key");
        assert_eq!(cache.len(), 3);
    }
}
