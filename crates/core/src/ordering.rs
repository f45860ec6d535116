//! Logical orderings.
//!
//! An ordering `o = (A_{o1}, …, A_{om})` is a duplicate-free sequence of
//! attributes (paper §2). A tuple stream *satisfies* `o` if it is sorted
//! lexicographically by that attribute sequence (ascending, as in the
//! paper). The empty ordering is satisfied by every stream and serves as
//! the entry state for unordered scans.

use ofw_catalog::AttrId;

/// A duplicate-free sequence of attributes, the unit the whole framework
/// reasons about.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ordering {
    attrs: Box<[AttrId]>,
}

impl Ordering {
    /// Creates an ordering. Panics (debug) if `attrs` contains duplicates:
    /// a repeated attribute adds no ordering information (all tuples agree
    /// on it once the earlier occurrence ties), so duplicate-free is an
    /// invariant everywhere.
    pub fn new(attrs: Vec<AttrId>) -> Self {
        debug_assert!(
            {
                let mut seen = attrs.clone();
                seen.sort_unstable();
                seen.windows(2).all(|w| w[0] != w[1])
            },
            "ordering must be duplicate-free: {attrs:?}"
        );
        Ordering {
            attrs: attrs.into_boxed_slice(),
        }
    }

    /// The empty ordering `()` — satisfied by every tuple stream.
    pub fn empty() -> Self {
        Ordering {
            attrs: Box::new([]),
        }
    }

    /// The attribute sequence.
    #[inline]
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True for the empty ordering.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// True if `self` is a prefix of `other` (including equality).
    pub fn is_prefix_of(&self, other: &Ordering) -> bool {
        other.attrs.starts_with(&self.attrs)
    }

    /// The prefix of the first `len` attributes.
    pub fn prefix(&self, len: usize) -> Ordering {
        Ordering {
            attrs: self.attrs[..len].to_vec().into_boxed_slice(),
        }
    }

    /// All *proper* non-empty prefixes, shortest first.
    pub fn proper_prefixes(&self) -> impl Iterator<Item = Ordering> + '_ {
        (1..self.len()).map(|l| self.prefix(l))
    }

    /// Whether `attr` occurs in the ordering.
    pub fn contains_attr(&self, attr: AttrId) -> bool {
        self.attrs.contains(&attr)
    }

    /// Position of `attr`, if present.
    pub fn position(&self, attr: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&a| a == attr)
    }

    /// Returns a copy with `attr` inserted at `pos` (0-based).
    pub fn insert_at(&self, pos: usize, attr: AttrId) -> Ordering {
        debug_assert!(!self.contains_attr(attr));
        let mut v = Vec::with_capacity(self.len() + 1);
        v.extend_from_slice(&self.attrs[..pos]);
        v.push(attr);
        v.extend_from_slice(&self.attrs[pos..]);
        Ordering {
            attrs: v.into_boxed_slice(),
        }
    }

    /// Returns a copy truncated to at most `len` attributes.
    pub fn truncate(&self, len: usize) -> Ordering {
        if len >= self.len() {
            self.clone()
        } else {
            self.prefix(len)
        }
    }

    /// Heap bytes held by this ordering (for memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.attrs.len() * std::mem::size_of::<AttrId>()
    }
}

impl std::fmt::Debug for Ordering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a:?}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<AttrId>> for Ordering {
    fn from(v: Vec<AttrId>) -> Self {
        Ordering::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(ids: &[u32]) -> Ordering {
        Ordering::new(ids.iter().map(|&i| AttrId(i)).collect())
    }

    #[test]
    fn prefix_relation() {
        assert!(o(&[1]).is_prefix_of(&o(&[1, 2, 3])));
        assert!(o(&[1, 2, 3]).is_prefix_of(&o(&[1, 2, 3])));
        assert!(!o(&[2]).is_prefix_of(&o(&[1, 2])));
        assert!(Ordering::empty().is_prefix_of(&o(&[1])));
    }

    #[test]
    fn proper_prefixes_shortest_first() {
        let p: Vec<Ordering> = o(&[1, 2, 3]).proper_prefixes().collect();
        assert_eq!(p, vec![o(&[1]), o(&[1, 2])]);
        assert_eq!(o(&[1]).proper_prefixes().count(), 0);
    }

    #[test]
    fn insert_and_replace() {
        let base = o(&[1, 3]);
        assert_eq!(base.insert_at(1, AttrId(2)), o(&[1, 2, 3]));
        assert_eq!(base.insert_at(0, AttrId(0)), o(&[0, 1, 3]));
        assert_eq!(base.insert_at(2, AttrId(9)), o(&[1, 3, 9]));
    }

    #[test]
    fn truncate_clamps() {
        assert_eq!(o(&[1, 2, 3]).truncate(2), o(&[1, 2]));
        assert_eq!(o(&[1, 2]).truncate(5), o(&[1, 2]));
        assert_eq!(o(&[1]).truncate(0), Ordering::empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "duplicate-free")]
    fn duplicates_rejected() {
        let _ = o(&[1, 2, 1]);
    }

    #[test]
    fn debug_render() {
        assert_eq!(format!("{:?}", o(&[0, 2])), "(a0,a2)");
        assert_eq!(format!("{:?}", Ordering::empty()), "()");
    }
}
