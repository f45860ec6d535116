//! Functional dependencies, equations and constants (paper §2).
//!
//! Every algebraic operator is associated with a *set* of functional
//! dependencies describing how it changes logical orderings:
//!
//! * `B1,…,Bk → B` — classic FD (e.g. from a key or a computed column);
//! * `A = B` — an equation, as induced by an equi-join predicate. It is
//!   strictly stronger than the FD pair `{A→B, B→A}` because it also
//!   permits *substituting* one attribute for the other in place;
//! * `∅ → A` — a constant, induced by a selection `A = const`.
//!
//! FD *sets* — not single FDs — are the input alphabet of the NFSM, since
//! one operator may introduce several dependencies at once (§4).

use ofw_catalog::AttrId;

/// One normalized dependency.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fd {
    /// `lhs → rhs` with a single right-hand attribute. FDs with multi-
    /// attribute right-hand sides are normalized into several of these
    /// (paper §2, footnote 2).
    Functional { lhs: Box<[AttrId]>, rhs: AttrId },
    /// `A = B` (equi-join predicate).
    Equation(AttrId, AttrId),
    /// `∅ → A` (selection `A = const`).
    Constant(AttrId),
}

impl Fd {
    /// Convenience constructor for `lhs → rhs`.
    pub fn functional(lhs: &[AttrId], rhs: AttrId) -> Fd {
        debug_assert!(!lhs.contains(&rhs), "trivial FD {lhs:?} -> {rhs:?}");
        let mut l: Vec<AttrId> = lhs.to_vec();
        l.sort_unstable();
        l.dedup();
        Fd::Functional {
            lhs: l.into_boxed_slice(),
            rhs,
        }
    }

    /// Convenience constructor for `a = b` (stored with `a < b` so equal
    /// equations compare equal regardless of writing order).
    pub fn equation(a: AttrId, b: AttrId) -> Fd {
        assert_ne!(a, b, "trivial equation");
        if a < b {
            Fd::Equation(a, b)
        } else {
            Fd::Equation(b, a)
        }
    }

    /// Convenience constructor for `∅ → a`.
    pub fn constant(a: AttrId) -> Fd {
        Fd::Constant(a)
    }

    /// All attributes mentioned by the dependency: the left-hand side,
    /// then the [`producible_attrs`](Self::producible_attrs).
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        let lhs = match self {
            Fd::Functional { lhs, .. } => &lhs[..],
            _ => &[],
        };
        lhs.iter().copied().chain(self.producible_attrs())
    }

    /// Attributes that can be *introduced into* an ordering by applying
    /// this dependency (the right-hand sides).
    pub fn producible_attrs(&self) -> impl Iterator<Item = AttrId> {
        let attrs = match *self {
            Fd::Functional { rhs, .. } => [Some(rhs), None],
            Fd::Equation(a, b) => [Some(a), Some(b)],
            Fd::Constant(a) => [Some(a), None],
        };
        attrs.into_iter().flatten()
    }
}

impl std::fmt::Debug for Fd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fd::Functional { lhs, rhs } => write!(f, "{lhs:?}->{rhs:?}"),
            Fd::Equation(a, b) => write!(f, "{a:?}={b:?}"),
            Fd::Constant(a) => write!(f, "{a:?}=const"),
        }
    }
}

/// The set of dependencies introduced by one algebraic operator — one
/// input symbol of the NFSM/DFSM.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct FdSet {
    fds: Vec<Fd>,
}

impl FdSet {
    /// Builds a set, deduplicating and sorting for canonical equality.
    pub fn new(mut fds: Vec<Fd>) -> Self {
        fds.sort();
        fds.dedup();
        FdSet { fds }
    }

    /// The member dependencies.
    pub fn fds(&self) -> &[Fd] {
        &self.fds
    }

    /// True if no dependency remains (e.g. after FD pruning).
    pub fn is_empty(&self) -> bool {
        self.fds.is_empty()
    }

    /// Number of dependencies.
    pub fn len(&self) -> usize {
        self.fds.len()
    }

    /// A copy with `keep` applied as a retain-filter.
    pub fn filtered(&self, mut keep: impl FnMut(&Fd) -> bool) -> FdSet {
        FdSet {
            fds: self.fds.iter().filter(|fd| keep(fd)).cloned().collect(),
        }
    }
}

/// Dense handle of an [`FdSet`] within an
/// [`InputSpec`](crate::spec::InputSpec) — the form the plan generator
/// passes around (paper §5.5: "every occurrence … is replaced by a
/// handle").
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FdSetId(pub u32);

impl FdSetId {
    /// Raw index for dense arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for FdSetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: AttrId = AttrId(0);
    const B: AttrId = AttrId(1);
    const C: AttrId = AttrId(2);

    #[test]
    fn equation_is_canonical() {
        assert_eq!(Fd::equation(A, B), Fd::equation(B, A));
    }

    #[test]
    fn functional_lhs_is_canonical() {
        assert_eq!(Fd::functional(&[B, A], C), Fd::functional(&[A, B, A], C));
    }

    #[test]
    fn producible_attrs() {
        let producible = |fd: Fd| fd.producible_attrs().collect::<Vec<_>>();
        assert_eq!(producible(Fd::functional(&[A], C)), vec![C]);
        assert_eq!(producible(Fd::equation(A, B)), vec![A, B]);
        assert_eq!(producible(Fd::constant(C)), vec![C]);
    }

    #[test]
    fn fdset_dedups() {
        let s = FdSet::new(vec![
            Fd::equation(A, B),
            Fd::equation(B, A),
            Fd::constant(C),
        ]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "trivial equation")]
    fn trivial_equation_rejected() {
        let _ = Fd::equation(A, A);
    }

    #[test]
    fn debug_render() {
        assert_eq!(format!("{:?}", Fd::functional(&[A, B], C)), "[a0, a1]->a2");
        assert_eq!(format!("{:?}", Fd::equation(B, A)), "a0=a1");
        assert_eq!(format!("{:?}", Fd::constant(A)), "a0=const");
    }
}
