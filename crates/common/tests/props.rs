//! Property-based tests for the substrate data structures: the bit set,
//! bit matrix and interner must behave exactly like their obvious
//! `std::collections` models.

use ofw_common::{BitMatrix, BitSet, FxHasher, Interner};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

const UNIVERSE: usize = 200;

fn arb_elems() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0..UNIVERSE, 0..64)
}

fn hash_of(s: &BitSet) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

/// The inline/spill boundary, by hand: 63 stays in the inline word, 64
/// and beyond spill, and a union works whichever side is the wide one.
#[test]
fn bitset_spills_at_64_and_unions_across_representations() {
    let mut s = BitSet::new();
    assert!(s.is_empty());
    s.insert(0);
    s.insert(63);
    assert_eq!((s.len(), s.iter().collect::<Vec<_>>()), (2, vec![0, 63]));
    s.insert(64);
    s.insert(130);
    assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130]);
    assert!(s.contains(64) && !s.contains(65) && !s.contains(1000));

    let inline: BitSet = [1usize, 5].into_iter().collect();
    let spilled: BitSet = [5usize, 70].into_iter().collect();
    let mut u = inline.clone();
    u.union_with(&spilled);
    let mut v = spilled;
    v.union_with(&inline);
    assert_eq!(u, [1usize, 5, 70].into_iter().collect());
    assert_eq!(u, v);
    // A spill ∪ a wider spill keeps everything.
    let mut w: BitSet = [65usize].into_iter().collect();
    w.union_with(&[2usize, 200].into_iter().collect());
    assert_eq!(w.iter().collect::<Vec<_>>(), vec![2, 65, 200]);
}

proptest! {
    /// BitSet behaves like BTreeSet for membership and iteration order;
    /// removals go through `difference_with`.
    #[test]
    fn bitset_models_btreeset(elems in arb_elems(), removals in arb_elems()) {
        let mut bs = BitSet::new();
        let mut model: BTreeSet<usize> = BTreeSet::new();
        for &e in &elems {
            bs.insert(e);
            model.insert(e);
        }
        bs.difference_with(&removals.iter().copied().collect());
        for r in &removals {
            model.remove(r);
        }
        prop_assert_eq!(bs.len(), model.len());
        prop_assert!(bs.is_empty() == model.is_empty());
        let collected: Vec<usize> = bs.iter().collect();
        let expected: Vec<usize> = model.iter().copied().collect();
        prop_assert_eq!(collected, expected, "ascending iteration");
        for probe in 0..UNIVERSE + 64 {
            prop_assert_eq!(bs.contains(probe), model.contains(&probe));
        }
    }

    /// Set algebra agrees with the model on operands of different
    /// widths (`b` stays below `width`, so one side is often inline and
    /// the other spilled).
    #[test]
    fn bitset_algebra_models_btreeset(a in arb_elems(), b in arb_elems(), width in 1..UNIVERSE) {
        let b: Vec<usize> = b.into_iter().filter(|&e| e < width).collect();
        let (sa, sb): (BitSet, BitSet) = (a.iter().copied().collect(), b.iter().copied().collect());
        let (ma, mb): (BTreeSet<usize>, BTreeSet<usize>) =
            (a.iter().copied().collect(), b.iter().copied().collect());
        for (x, y, mx, my) in [(&sa, &sb, &ma, &mb), (&sb, &sa, &mb, &ma)] {
            let mut u = x.clone();
            u.union_with(y);
            prop_assert_eq!(
                u.iter().collect::<Vec<_>>(),
                mx.union(my).copied().collect::<Vec<_>>()
            );
            let mut d = x.clone();
            d.difference_with(y);
            prop_assert_eq!(
                d.iter().collect::<Vec<_>>(),
                mx.difference(my).copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(x.is_superset(y), my.is_subset(mx));
            prop_assert_eq!(x.intersects(y), !mx.is_disjoint(my));
        }
    }

    /// A set is its members: built in another order, as a union of two
    /// halves, or as a spilled set cut back below 64 by
    /// `difference_with`, it compares and hashes equal to the same
    /// members inserted fresh.
    #[test]
    fn bitset_identity_is_its_members(elems in arb_elems(), extra in arb_elems()) {
        let fresh: BitSet = elems.iter().copied().collect();
        let reversed: BitSet = elems.iter().rev().copied().collect();
        let (lo, hi) = elems.split_at(elems.len() / 2);
        let mut halves: BitSet = hi.iter().copied().collect();
        halves.union_with(&lo.iter().copied().collect());
        for other in [&reversed, &halves] {
            prop_assert_eq!(other, &fresh);
            prop_assert_eq!(hash_of(other), hash_of(&fresh));
        }

        let inline: Vec<usize> = elems.iter().copied().filter(|&e| e < 64).collect();
        let spill: BitSet = extra.iter().map(|&e| e + 64).collect();
        let mut shrunk: BitSet = inline.iter().copied().collect();
        shrunk.union_with(&spill);
        shrunk.difference_with(&spill);
        let fresh_inline: BitSet = inline.iter().copied().collect();
        prop_assert_eq!(&shrunk, &fresh_inline);
        prop_assert_eq!(hash_of(&shrunk), hash_of(&fresh_inline));
    }

    /// Row-subset tests on the matrix agree with per-bit comparison.
    #[test]
    fn bitmatrix_row_superset_models_bits(
        rows in proptest::collection::vec(arb_elems(), 2..6),
    ) {
        let cols = UNIVERSE;
        let mut m = BitMatrix::new(rows.len(), cols);
        for (r, elems) in rows.iter().enumerate() {
            for &c in elems {
                m.set(r, c);
            }
        }
        for a in 0..rows.len() {
            prop_assert_eq!(m.row_count(a), {
                let s: BTreeSet<usize> = rows[a].iter().copied().collect();
                s.len()
            });
            for b in 0..rows.len() {
                let expected = (0..cols).all(|c| !m.get(b, c) || m.get(a, c));
                prop_assert_eq!(m.row_is_superset(a, b), expected, "rows {} {}", a, b);
            }
        }
    }

    /// Interning is a bijection between first-seen values and handles.
    #[test]
    fn interner_is_bijective(values in proptest::collection::vec(0u64..50, 1..100)) {
        let mut interner: Interner<u64> = Interner::new();
        let handles: Vec<u32> = values.iter().map(|&v| interner.intern(v)).collect();
        // Same value ⇒ same handle; different values ⇒ different handles.
        for (i, &vi) in values.iter().enumerate() {
            for (j, &vj) in values.iter().enumerate() {
                prop_assert_eq!(handles[i] == handles[j], vi == vj);
            }
        }
        // Resolution round-trips.
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(*interner.resolve(handles[i]), v);
            prop_assert_eq!(interner.get(&v), Some(handles[i]));
        }
        // Handles are dense.
        let distinct: BTreeSet<u64> = values.iter().copied().collect();
        prop_assert_eq!(interner.len(), distinct.len());
    }
}
