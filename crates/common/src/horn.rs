//! Incremental forward chaining over dense ids.
//!
//! [`HornRules`] holds definite rules `body → head` over ids `0..n`,
//! indexed by body member; a [`Derived`] set grows by one id at a time
//! and pulls in everything the rules derive from what it holds, looking
//! only at rules that mention a newly derived id. Every member carries
//! the *level* it entered at (the caller's clock), so "what was
//! derivable after the first `k` additions" is a comparison, and a
//! reset costs what was added, not the size of the id space.

/// Level of an id that is not derived.
pub const UNDERIVED: u32 = u32::MAX;

/// Definite Horn rules over dense ids, indexed by body member.
#[derive(Clone, Debug, Default)]
pub struct HornRules {
    rules: Vec<(Vec<u32>, u32)>,
    /// Per id: the rules with the id in their body.
    by_body: Vec<Vec<u32>>,
    /// Heads of the rules with an empty body.
    bodyless: Vec<u32>,
}

impl HornRules {
    /// Adds `body → head`; ids may be new.
    pub fn add(&mut self, body: Vec<u32>, head: u32) {
        let ids = body.iter().max().map_or(0, |&m| m as usize + 1);
        if self.by_body.len() < ids {
            self.by_body.resize(ids, Vec::new());
        }
        for &b in &body {
            self.by_body[b as usize].push(self.rules.len() as u32);
        }
        if body.is_empty() {
            self.bodyless.push(head);
        }
        self.rules.push((body, head));
    }
}

/// A set of ids closed under some [`HornRules`], with entry levels.
#[derive(Clone, Debug, Default)]
pub struct Derived {
    level: Vec<u32>,
    /// Members added since the last [`freeze`](Self::freeze), in entry
    /// order (doubles as the propagation worklist).
    added: Vec<u32>,
}

impl Derived {
    /// What `rules` derive from nothing (their bodyless heads and what
    /// follows), over ids `0..ids`, at level 0 and frozen.
    pub fn new(rules: &HornRules, ids: usize) -> Self {
        let mut set = Derived {
            level: vec![UNDERIVED; ids],
            added: Vec::new(),
        };
        rules.bodyless.iter().for_each(|&head| set.insert(head, 0));
        set.propagate(rules, 0, 0);
        set.freeze();
        set
    }

    /// The level `id` entered at, [`UNDERIVED`] if it is not a member.
    #[inline]
    pub fn level(&self, id: u32) -> u32 {
        self.level[id as usize]
    }

    /// Members added since the last freeze, in entry order.
    pub fn added(&self) -> &[u32] {
        &self.added
    }

    fn insert(&mut self, id: u32, level: u32) {
        if self.level[id as usize] == UNDERIVED {
            self.level[id as usize] = level;
            self.added.push(id);
        }
    }

    /// Fires the rules mentioning `added[from..]`, transitively.
    fn propagate(&mut self, rules: &HornRules, mut from: usize, level: u32) {
        while let Some(&member) = self.added.get(from) {
            let mentioning = rules.by_body.get(member as usize).into_iter().flatten();
            for (body, head) in mentioning.map(|&r| &rules.rules[r as usize]) {
                if body.iter().all(|&b| self.level[b as usize] != UNDERIVED) {
                    self.insert(*head, level);
                }
            }
            from += 1;
        }
    }

    /// Adds `id` at `level` and everything `rules` derive from the
    /// grown set.
    pub fn add(&mut self, rules: &HornRules, id: u32, level: u32) {
        let from = self.added.len();
        self.insert(id, level);
        self.propagate(rules, from, level);
    }

    /// Makes the current members permanent: later resets keep them.
    pub fn freeze(&mut self) {
        self.added.clear();
    }

    /// Drops every member added since the last freeze.
    pub fn reset(&mut self) {
        for id in self.added.drain(..) {
            self.level[id as usize] = UNDERIVED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_levels_freeze_and_reset() {
        // 0 → 1, {1, 2} → 3, 3 → 4, ∅ → 5.
        let mut rules = HornRules::default();
        rules.add(vec![0], 1);
        rules.add(vec![1, 2], 3);
        rules.add(vec![3], 4);
        rules.add(vec![], 5);
        let mut set = Derived::new(&rules, 7);
        set.add(&rules, 6, 0);
        set.freeze();
        assert_eq!(
            (set.level(6), set.level(5), set.level(1)),
            (0, 0, UNDERIVED)
        );
        set.add(&rules, 0, 1);
        assert_eq!(
            (set.level(0), set.level(1), set.level(3)),
            (1, 1, UNDERIVED)
        );
        set.add(&rules, 2, 2);
        assert_eq!((set.level(2), set.level(3), set.level(4)), (2, 2, 2));
        assert_eq!(set.added(), &[0, 1, 2, 3, 4]);
        set.add(&rules, 1, 9);
        assert_eq!(set.level(1), 1, "members keep their entry level");
        set.reset();
        assert_eq!(
            (set.level(0), set.level(4), set.level(6), set.level(5)),
            (UNDERIVED, UNDERIVED, 0, 0)
        );
        assert!(set.added().is_empty());
    }
}
