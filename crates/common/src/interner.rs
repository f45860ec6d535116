//! Generic value interning.
//!
//! The paper's precomputation step (§5.5) replaces "every occurrence of an
//! interesting order or functional dependency … by a handle" so that
//! comparisons run in constant time. [`Interner`] is that mechanism: it
//! assigns dense `u32` handles to values in first-seen order and supports
//! O(1) handle → value and (expected) O(1) value → handle lookups.

use crate::hash::FxHashMap;
use std::hash::Hash;

/// Interns values of type `T`, handing out dense `u32` handles.
#[derive(Clone, Debug)]
pub struct Interner<T> {
    values: Vec<T>,
    index: FxHashMap<T, u32>,
}

impl<T: Clone + Eq + Hash> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            values: Vec::new(),
            index: FxHashMap::default(),
        }
    }
}

impl<T: Clone + Eq + Hash> Interner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `value`, returning its handle (existing or new).
    pub fn intern(&mut self, value: T) -> u32 {
        if let Some(&h) = self.index.get(&value) {
            return h;
        }
        let h = u32::try_from(self.values.len()).expect("interner overflow");
        self.values.push(value.clone());
        self.index.insert(value, h);
        h
    }

    /// Looks up the handle for `value` without interning.
    pub fn get(&self, value: &T) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// Resolves a handle back to its value.
    #[inline]
    pub fn resolve(&self, handle: u32) -> &T {
        &self.values[handle as usize]
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates `(handle, value)` pairs in handle order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v))
    }
}

/// Interns *tagged slices* `(tag, &[T])` into one arena: dense `u32`
/// ids in first-seen order like [`Interner`], but a lookup hashes the
/// borrowed slice and an insertion copies it into a shared buffer, so
/// neither allocates once the tables have grown, and a
/// [`reset`](Self::reset) is O(1) (slots carry the mark of the round
/// that wrote them). Built for worklists that intern thousands of short
/// keys per round, round after round.
#[derive(Clone, Debug)]
pub struct SliceInterner<T> {
    items: Vec<T>,
    /// Per id: start in `items`, length, tag.
    entries: Vec<(u32, u32, u32)>,
    /// Open addressing, power-of-two sized: (mark, id); a slot is
    /// occupied when its mark is the current round's.
    slots: Vec<(u32, u32)>,
    /// Resets so far; the round's mark is one more (0 marks a fresh slot).
    round: u32,
}

impl<T> Default for SliceInterner<T> {
    fn default() -> Self {
        SliceInterner {
            items: Vec::new(),
            entries: Vec::new(),
            slots: Vec::new(),
            round: 0,
        }
    }
}

impl<T: Copy + Eq + Hash> SliceInterner<T> {
    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been interned since the last reset.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every key, keeping the tables' capacity.
    pub fn reset(&mut self) {
        self.items.clear();
        self.entries.clear();
        self.round += 1;
        if self.mark() == u32::MAX {
            self.slots.fill((0, 0));
            self.round = 0;
        }
    }

    fn mark(&self) -> u32 {
        self.round + 1
    }

    /// Resolves an id back to its `(tag, slice)` key.
    pub fn resolve(&self, id: u32) -> (u32, &[T]) {
        let (start, len, tag) = self.entries[id as usize];
        (tag, &self.items[start as usize..(start + len) as usize])
    }

    /// The slot holding the key, or the free slot where it belongs.
    fn probe(&self, tag: u32, key: &[T]) -> usize {
        let mut hasher = crate::hash::FxHasher::default();
        (tag, key).hash(&mut hasher);
        // The Fx multiply leaves the entropy in the high bits.
        let mut slot = (std::hash::Hasher::finish(&hasher) >> 32) as usize & (self.slots.len() - 1);
        while self.slots[slot].0 == self.mark() && self.resolve(self.slots[slot].1) != (tag, key) {
            slot = (slot + 1) & (self.slots.len() - 1);
        }
        slot
    }

    /// Looks up the id of a key without interning.
    pub fn get(&self, tag: u32, key: &[T]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let (mark, id) = self.slots[self.probe(tag, key)];
        (mark == self.mark()).then_some(id)
    }

    /// Interns a key; returns its id and whether this call added it.
    pub fn intern(&mut self, tag: u32, key: &[T]) -> (u32, bool) {
        if let Some(id) = self.get(tag, key) {
            return (id, false);
        }
        let id = u32::try_from(self.entries.len()).expect("interner overflow");
        self.entries
            .push((self.items.len() as u32, key.len() as u32, tag));
        self.items.extend_from_slice(key);
        // Keep the load under a quarter; growing re-seats every entry.
        let reseat = if self.slots.len() < 4 * self.entries.len() {
            self.slots.clear();
            let size = (8 * self.entries.len()).next_power_of_two();
            self.slots.resize(size, (0, 0));
            0..=id
        } else {
            id..=id
        };
        for id in reseat {
            let (tag, key) = self.resolve(id);
            let slot = self.probe(tag, key);
            self.slots[slot] = (self.mark(), id);
        }
        (id, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i: Interner<String> = Interner::new();
        let a = i.intern("a".to_string());
        let b = i.intern("b".to_string());
        let a2 = i.intern("a".to_string());
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_roundtrip() {
        let mut i: Interner<Vec<u32>> = Interner::new();
        let h = i.intern(vec![1, 2, 3]);
        assert_eq!(i.resolve(h), &vec![1, 2, 3]);
        assert_eq!(i.get(&vec![1, 2, 3]), Some(h));
        assert_eq!(i.get(&vec![9]), None);
    }

    #[test]
    fn handles_are_dense_and_ordered() {
        let mut i: Interner<u64> = Interner::new();
        for v in 0..100u64 {
            assert_eq!(i.intern(v * 10), v as u32);
        }
        let pairs: Vec<(u32, u64)> = i.iter().map(|(h, &v)| (h, v)).collect();
        assert_eq!(pairs.len(), 100);
        assert_eq!(pairs[7], (7, 70));
    }

    #[test]
    fn slice_interner_dense_ids_lookup_and_reset() {
        let mut i: SliceInterner<u16> = SliceInterner::default();
        assert_eq!(i.get(0, &[1, 2]), None);
        assert_eq!(i.intern(0, &[1, 2]), (0, true));
        assert_eq!(
            i.intern(1, &[1, 2]),
            (1, true),
            "the tag is part of the key"
        );
        assert_eq!(i.intern(0, &[]), (2, true));
        assert_eq!(i.intern(0, &[1, 2]), (0, false));
        assert_eq!(i.resolve(1), (1, &[1u16, 2][..]));
        // Growth re-seats every entry.
        for v in 0..500u16 {
            assert_eq!(i.intern(7, &[v, v + 1, v + 2]), (3 + u32::from(v), true));
        }
        assert_eq!(i.get(7, &[41, 42, 43]), Some(44));
        assert_eq!(i.get(0, &[1, 2]), Some(0));
        assert_eq!(i.len(), 503);
        // A reset forgets the keys, not the capacity, round after round.
        for round in 0..3u16 {
            i.reset();
            assert!(i.is_empty());
            assert_eq!(i.get(0, &[1, 2]), None);
            assert_eq!(i.intern(0, &[round]), (0, true));
            assert_eq!(i.intern(0, &[1, 2]), (1, true));
            assert_eq!(i.get(7, &[41, 42, 43]), None);
        }
    }
}
