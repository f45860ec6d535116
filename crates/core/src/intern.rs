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
//! determinization; the canonical [`InputSpec`] is built only on a miss.
//!
//! Canonicalization is *sound, not complete*: a renaming can reorder
//! set-valued properties (groupings store attributes sorted by id), so
//! some equivalent specs hash to different keys — they just miss the
//! cache and prepare normally. A hit, on the other hand, is always
//! exact: the canonical spec preserves property identity, FD-set ids
//! and producibility, and the framework reads the shared automaton's
//! views back through the inverse renaming.

use crate::derive::{materialize, view};
use crate::fd::Fd;
use crate::framework::{PrepareError, Prepared};
use crate::prune::PruneConfig;
use crate::spec::InputSpec;
use ofw_catalog::AttrId;
use ofw_common::FxHashMap;
use std::ops::Range;
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

    /// The original attribute of canonical `c`.
    pub(crate) fn original(&self, c: AttrId) -> AttrId {
        self.from_canon[c.0 as usize]
    }
}

/// Writes to `out` the view `(head_len, attrs)` with every attribute
/// passed through `f`, the head re-sorted (it is a set). A bijective
/// renaming keeps a view's shape, so the result has the same `head_len`.
pub(crate) fn remap_view(
    head_len: usize,
    attrs: &[AttrId],
    f: impl FnMut(AttrId) -> AttrId,
    out: &mut Vec<AttrId>,
) {
    out.clear();
    out.extend(attrs.iter().copied().map(f));
    out[..head_len].sort_unstable();
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

/// A renamed dependency's key words as the fields `Fd`'s derived order
/// compares: the variant, then the left-hand side, then the attributes.
fn fd_order(words: &[u32]) -> (u32, &[u32], u32, u32) {
    match words {
        [0, _, lhs @ .., rhs] => (0, lhs, *rhs, 0),
        [1, a, b] => (1, &[], *a, *b),
        [tag, a] => (*tag, &[], *a, 0),
        _ => unreachable!("a dependency's key words"),
    }
}

/// Renames a spec's attributes to canonical first-occurrence ids and
/// writes the cache key straight from the spec: the canonical spec's
/// produced and tested views (a tested property also produced is only
/// produced there), its FD sets as words, each in the order
/// [`FdSet::new`](crate::FdSet::new) sorts the renamed dependencies, and
/// `config`. Equal keys ⇔ equal canonical specs.
pub(crate) fn canonicalize(spec: &InputSpec, config: &PruneConfig) -> (CacheKey, AttrCanonMap) {
    let mut map = AttrCanonMap::new();
    let (mut words, mut buf) = (Vec::new(), Vec::new());
    let mut push_views = |words: &mut Vec<u32>, views: &mut dyn Iterator<Item = _>| {
        let count = words.len();
        words.push(0);
        for (head_len, attrs) in views {
            remap_view(head_len, attrs, |a| map.map(a), &mut buf);
            words.extend([head_len as u32, buf.len() as u32]);
            words.extend(buf.iter().map(|a| a.0));
            words[count] += 1;
        }
    };
    push_views(&mut words, &mut spec.produced().iter().map(view));
    let tested = spec.tested().iter().map(view);
    push_views(
        &mut words,
        &mut tested.filter(|&(h, attrs)| !spec.is_produced(h, attrs)),
    );
    let (mut ranges, mut sorted) = (Vec::new(), Vec::new());
    words.push(spec.fd_sets().len() as u32);
    for set in spec.fd_sets() {
        words.push(set.len() as u32);
        let first = words.len();
        ranges.clear();
        for fd in set.fds() {
            let at = words.len();
            match fd {
                Fd::Functional { lhs, rhs } => {
                    words.extend([0, lhs.len() as u32]);
                    words.extend(lhs.iter().map(|&a| map.map(a).0));
                    words[at + 2..].sort_unstable();
                    words.push(map.map(*rhs).0);
                }
                Fd::Equation(a, b) => {
                    let (a, b) = (map.map(*a).0, map.map(*b).0);
                    words.extend([1, a.min(b), a.max(b)]);
                }
                Fd::Constant(a) => words.extend([2, map.map(*a).0]),
            }
            ranges.push(at..words.len());
        }
        ranges.sort_unstable_by_key(|r: &Range<usize>| fd_order(&words[r.clone()]));
        sorted.clear();
        for r in &ranges {
            sorted.extend_from_slice(&words[r.clone()]);
        }
        words.truncate(first);
        words.extend_from_slice(&sorted);
    }
    let config = (
        config.prune_fds,
        config.merge_artificial,
        config.eps_replace,
        config.prefix_filter,
        config.length_cutoff,
        config.max_nodes,
        config.max_dfsm_states,
    );
    (CacheKey { words, config }, map)
}

/// The canonical spec [`canonicalize`] keyed: every attribute renamed
/// through `map`, registration order — and therefore every `FdSetId` —
/// preserved (the renaming is injective, so distinct sets stay distinct
/// and dedup cannot merge them).
pub(crate) fn canonical_spec(spec: &InputSpec, map: &AttrCanonMap) -> InputSpec {
    let mut canonical = |a: AttrId| map.to_canon[&a];
    let mut buf = Vec::new();
    let mut remap = |p| {
        let (head_len, attrs) = view(p);
        remap_view(head_len, attrs, canonical, &mut buf);
        materialize(head_len, &buf)
    };
    let mut canon = InputSpec::new();
    spec.produced()
        .iter()
        .for_each(|p| canon.add_produced(remap(p)));
    spec.tested()
        .iter()
        .for_each(|p| canon.add_tested(remap(p)));
    for set in spec.fd_sets() {
        canon.add_fd_set(
            set.fds()
                .iter()
                .map(|fd| remap_fd(fd, &mut canonical))
                .collect(),
        );
    }
    debug_assert_eq!(canon.fd_sets().len(), spec.fd_sets().len());
    canon
}

/// Cache key: the canonicalized spec shape plus the pruning
/// configuration — everything that determines the resulting automaton.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// The canonical spec as words; see [`canonicalize`].
    words: Vec<u32>,
    /// `PruneConfig` fields, flattened (the struct itself keeps no `Eq`).
    config: (bool, bool, bool, bool, bool, usize, usize),
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
