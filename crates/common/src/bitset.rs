//! The workspace's one bit set: relation sets, applied-FD masks and
//! DFSM state subsets.
//!
//! Nearly every set the optimizer builds is small. A query's relations
//! and FD sets fit one machine word — the DPccp/DPhyp lineage keeps
//! relation sets in words — and so do the NFSM-node subsets of ordinary
//! queries. [`BitSet`] therefore holds a set of members below 64 in one
//! inline word (no heap; a clone is a copy) and spills to a boxed word
//! slice only once a member from 64 up arrives. A 70-relation chain or a
//! 7,000-node automaton still works, and pays for exactly the width it
//! uses. Either way the set is 16 bytes, which matters on a plan node.
//!
//! There is no universe: sets of any widths combine, and equality and
//! hashing look at members, not storage. All operations are
//! word-parallel.

use std::hash::{Hash, Hasher};

/// A set of `usize`s: one inline word while every member is below 64,
/// a boxed word slice beyond that.
#[derive(Clone)]
pub struct BitSet(Words);

#[derive(Clone)]
enum Words {
    /// Members `0..64`.
    Inline(u64),
    /// `w[i]` holds members `64i..64(i+1)`. May end in zero words
    /// (after a `difference_with`), which equality and hashing ignore.
    Spill(Box<[u64]>),
}

impl Default for BitSet {
    fn default() -> Self {
        BitSet(Words::Inline(0))
    }
}

impl BitSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `i`, spilling (or widening the spill) to exactly the word
    /// `i` needs.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        let w = i / 64;
        self.widen(w + 1)[w] |= 1 << (i % 64);
    }

    /// Tests membership of `i`.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        let word = self.words().get(i / 64);
        word.is_some_and(|w| w >> (i % 64) & 1 != 0)
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if no member is set.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    wi * 64 + b
                })
            })
        })
    }

    /// `self ∪= other`, with at most one allocation.
    pub fn union_with(&mut self, other: &BitSet) {
        let theirs = other.significant();
        for (a, b) in self.widen(theirs.len()).iter_mut().zip(theirs) {
            *a |= b;
        }
    }

    /// `self −= other`. Never allocates; a spill keeps its width.
    pub fn difference_with(&mut self, other: &BitSet) {
        for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
            *a &= !b;
        }
    }

    /// True if `self ⊇ other`.
    pub fn is_superset(&self, other: &BitSet) -> bool {
        // `other`'s last significant word is non-zero: if `self` has no
        // word there, it cannot hold it.
        let (ours, theirs) = (self.words(), other.significant());
        theirs.len() <= ours.len() && theirs.iter().zip(ours).all(|(b, a)| b & !a == 0)
    }

    /// True if the sets share at least one member.
    pub fn intersects(&self, other: &BitSet) -> bool {
        let mut pairs = self.words().iter().zip(other.words());
        pairs.any(|(a, b)| a & b != 0)
    }

    fn words(&self) -> &[u64] {
        match &self.0 {
            Words::Inline(w) => std::slice::from_ref(w),
            Words::Spill(ws) => ws,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Words::Inline(w) => std::slice::from_mut(w),
            Words::Spill(ws) => ws,
        }
    }

    /// The words without the trailing zero ones.
    fn significant(&self) -> &[u64] {
        let ws = self.words();
        &ws[..ws.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1)]
    }

    /// The words, grown to at least `len` in one allocation if needed.
    fn widen(&mut self, len: usize) -> &mut [u64] {
        if len > self.words().len() {
            let mut ws = Vec::with_capacity(len);
            ws.extend_from_slice(self.words());
            ws.resize(len, 0);
            self.0 = Words::Spill(ws.into_boxed_slice());
        }
        self.words_mut()
    }
}

impl PartialEq for BitSet {
    fn eq(&self, other: &Self) -> bool {
        self.significant() == other.significant()
    }
}

impl Eq for BitSet {}

impl Hash for BitSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.significant().hash(state);
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = BitSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_ascending() {
        let s: BitSet = [5usize, 1, 130, 64].into_iter().collect();
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![1, 5, 64, 130]);
        assert_eq!(std::mem::size_of::<BitSet>(), 16);
    }

    /// Operands of different widths combine member-wise: no padding to
    /// a shared universe.
    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 2, 3, 100].into_iter().collect();
        let b: BitSet = [2usize, 3, 4, 200].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 100, 200]);
        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 100]);
        let mut d = b.clone();
        d.difference_with(&a);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![4, 200]);
        assert!(u.is_superset(&a) && u.is_superset(&b));
        assert!(!a.is_superset(&b) && !b.is_superset(&a));
        assert!(a.intersects(&b) && !d.intersects(&a));
    }

    /// Trailing zero words are invisible: a set cut back below 64 equals
    /// (and hashes like) the same members inserted into a fresh set.
    #[test]
    fn superset_and_equality_hash() {
        use std::collections::HashSet;
        let mut seen: HashSet<BitSet> = HashSet::new();
        seen.insert([1usize, 2].into_iter().collect());
        let mut b: BitSet = [1usize, 2, 300].into_iter().collect();
        assert!(!seen.contains(&b));
        b.difference_with(&[300usize].into_iter().collect());
        assert!(seen.contains(&b));
        assert!(b.is_superset(&BitSet::new()) && BitSet::new().is_superset(&BitSet::new()));
    }
}
