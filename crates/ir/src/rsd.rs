//! Regular section descriptors (RSDs).
//!
//! The Fortran D compiler represents every collection of data or iterations
//! as a *regular section descriptor* — a rectangular section with a
//! `lo:hi:step` triplet per dimension, written in Fortran 90 triplet
//! notation (`X(26:30, 1:100)`). Index sets, iteration sets, nonlocal index
//! sets, overlap regions and message contents are all RSDs.
//!
//! Bounds are symbolic ([`Affine`]); steps are positive literal constants
//! (the paper's sections are all unit- or constant-stride). The algebra is
//! *exact or refuses*: operations return `None` (or `false`) whenever the
//! result is not representable as one RSD or not provable under the given
//! [`SymEnv`] — matching the paper's rule that sections are "merged only if
//! no loss of precision will result". Callers handle a refusal
//! conservatively.

use crate::affine::Affine;
use crate::intern::Sym;
use crate::symenv::SymEnv;

/// One dimension of a section: `lo : hi : step` (inclusive bounds).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Triplet {
    /// Lower bound (inclusive).
    pub lo: Affine,
    /// Upper bound (inclusive).
    pub hi: Affine,
    /// Stride; always ≥ 1.
    pub step: i64,
}

impl Triplet {
    /// Unit-stride triplet `lo:hi`.
    pub fn new(lo: Affine, hi: Affine) -> Self {
        Triplet { lo, hi, step: 1 }
    }

    /// Constant unit-stride triplet.
    pub fn lit(lo: i64, hi: i64) -> Self {
        Triplet::new(Affine::konst(lo), Affine::konst(hi))
    }

    /// Single-point triplet `e:e`.
    pub fn point(e: Affine) -> Self {
        Triplet {
            lo: e.clone(),
            hi: e,
            step: 1,
        }
    }

    /// Provably empty under `env` (`hi < lo`)?
    pub fn is_empty(&self, env: &SymEnv) -> bool {
        env.le(&self.hi.plus_const(1), &self.lo)
    }

    /// Substitutes a symbol in both bounds.
    pub fn subst(&self, s: Sym, rep: &Affine) -> Self {
        Triplet {
            lo: self.lo.subst(s, rep),
            hi: self.hi.subst(s, rep),
            step: self.step,
        }
    }

    /// Intersection of two unit-stride triplets, when provable.
    fn intersect(&self, other: &Triplet, env: &SymEnv) -> Option<Triplet> {
        if self.step != 1 || other.step != 1 {
            // Equal strides with provably equal bounds still intersect to self.
            if self.step == other.step && env.eq(&self.lo, &other.lo) {
                let hi = env.min(&self.hi, &other.hi)?.clone();
                return Some(Triplet {
                    lo: self.lo.clone(),
                    hi,
                    step: self.step,
                });
            }
            return None;
        }
        let lo = env.max(&self.lo, &other.lo)?.clone();
        let hi = env.min(&self.hi, &other.hi)?.clone();
        Some(Triplet { lo, hi, step: 1 })
    }

    /// Precise union when contiguous/overlapping, unit strides only.
    fn union(&self, other: &Triplet, env: &SymEnv) -> Option<Triplet> {
        if self.step != 1 || other.step != 1 {
            return None;
        }
        // They must touch: lo2 ≤ hi1+1 and lo1 ≤ hi2+1.
        if !env.le(&other.lo, &self.hi.plus_const(1)) || !env.le(&self.lo, &other.hi.plus_const(1))
        {
            return None;
        }
        let lo = env.min(&self.lo, &other.lo)?.clone();
        let hi = env.max(&self.hi, &other.hi)?.clone();
        Some(Triplet { lo, hi, step: 1 })
    }

    /// Does this triplet provably contain `other`?
    pub fn contains(&self, other: &Triplet, env: &SymEnv) -> bool {
        if self.step != 1 {
            return self == other;
        }
        if env.le(&self.lo, &other.lo) && env.le(&other.hi, &self.hi) {
            return true;
        }
        // A bound provably outside: only an empty `other` is still a subset.
        let outside =
            env.le(&other.lo.plus_const(1), &self.lo) || env.le(&self.hi.plus_const(1), &other.hi);
        outside && other.is_empty(env)
    }
}

/// A regular section descriptor: one [`Triplet`] per array dimension.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Rsd {
    /// Per-dimension triplets, leftmost (fastest-varying, Fortran order)
    /// dimension first.
    pub dims: Vec<Triplet>,
}

impl Rsd {
    /// Builds an RSD from triplets.
    pub fn new(dims: Vec<Triplet>) -> Self {
        Rsd { dims }
    }

    /// This section with every symbol of its bounds renamed through `f`.
    pub fn map_syms(&self, f: &mut dyn FnMut(Sym) -> Sym) -> Self {
        let dims = (self.dims.iter())
            .map(|t| Triplet {
                lo: t.lo.map_syms(f),
                hi: t.hi.map_syms(f),
                step: t.step,
            })
            .collect();
        Rsd { dims }
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// The whole of an array with the given extents: `1:n1, 1:n2, …`.
    pub fn whole(extents: &[Affine]) -> Self {
        Rsd {
            dims: extents
                .iter()
                .map(|e| Triplet::new(Affine::konst(1), e.clone()))
                .collect(),
        }
    }

    /// Provably empty (some dimension empty)?
    pub fn is_empty(&self, env: &SymEnv) -> bool {
        self.dims.iter().any(|d| d.is_empty(env))
    }

    /// Dimension-wise intersection; `None` if any dimension is unprovable.
    /// A provably-empty result is returned as-is (callers test emptiness).
    pub fn intersect(&self, other: &Rsd, env: &SymEnv) -> Option<Rsd> {
        if self.rank() != other.rank() {
            return None;
        }
        let dims = self
            .dims
            .iter()
            .zip(&other.dims)
            .map(|(a, b)| a.intersect(b, env))
            .collect::<Option<Vec<_>>>()?;
        Some(Rsd { dims })
    }

    /// Precise union: allowed when the sections agree in all dimensions but
    /// one, where they must be contiguous or overlapping. This is exactly
    /// the paper's "merge RSDs at loop if no precision is lost".
    pub fn union_merge(&self, other: &Rsd, env: &SymEnv) -> Option<Rsd> {
        if self.rank() != other.rank() {
            return None;
        }
        // Containment fast paths.
        if self.contains(other, env) {
            return Some(self.clone());
        }
        if other.contains(self, env) {
            return Some(other.clone());
        }
        let mut differing = None;
        for d in 0..self.rank() {
            let same = env.eq(&self.dims[d].lo, &other.dims[d].lo)
                && env.eq(&self.dims[d].hi, &other.dims[d].hi)
                && self.dims[d].step == other.dims[d].step;
            if !same {
                if differing.is_some() {
                    return None; // differs in ≥ 2 dims: union is not an RSD
                }
                differing = Some(d);
            }
        }
        match differing {
            None => Some(self.clone()),
            Some(d) => {
                let merged = self.dims[d].union(&other.dims[d], env)?;
                let mut dims = self.dims.clone();
                dims[d] = merged;
                Some(Rsd { dims })
            }
        }
    }

    /// Provable containment `other ⊆ self`.
    pub fn contains(&self, other: &Rsd, env: &SymEnv) -> bool {
        self.rank() == other.rank()
            && self
                .dims
                .iter()
                .zip(&other.dims)
                .all(|(a, b)| a.contains(b, env))
    }

    /// Substitutes a symbol in every bound (call-site translation,
    /// loop-index instantiation).
    pub fn subst(&self, s: Sym, rep: &Affine) -> Rsd {
        Rsd {
            dims: self.dims.iter().map(|d| d.subst(s, rep)).collect(),
        }
    }

    /// Expands the triplet of dimension `d` over a loop range: each bound
    /// that mentions the loop index `idx` is replaced by its extreme over
    /// `[lo, hi]` — the section swept by the loop. This implements the
    /// paper's message *vectorization* ("X(26:30,i) over i=1:100 becomes
    /// X(26:30,1:100)").
    pub fn vectorize(&self, idx: Sym, lo: &Affine, hi: &Affine) -> Option<Rsd> {
        let mut dims = Vec::with_capacity(self.rank());
        for t in &self.dims {
            let clo = t.lo.coeff(idx);
            let chi = t.hi.coeff(idx);
            if clo == 0 && chi == 0 {
                dims.push(t.clone());
                continue;
            }
            if t.step != 1 {
                return None;
            }
            // lo bound: minimized at idx = lo (coeff > 0) or idx = hi (< 0).
            let new_lo = if clo >= 0 {
                t.lo.subst(idx, lo)
            } else {
                t.lo.subst(idx, hi)
            };
            let new_hi = if chi >= 0 {
                t.hi.subst(idx, hi)
            } else {
                t.hi.subst(idx, lo)
            };
            // Only exact when the swept sections tile contiguously, which
            // holds for |coeff| ≤ 1 (the paper's stencil/column patterns).
            if clo.abs() > 1 || chi.abs() > 1 {
                return None;
            }
            dims.push(Triplet::new(new_lo, new_hi));
        }
        Some(Rsd { dims })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> SymEnv {
        SymEnv::new()
    }

    fn r1(lo: i64, hi: i64) -> Rsd {
        Rsd::new(vec![Triplet::lit(lo, hi)])
    }

    fn r2(a: (i64, i64), b: (i64, i64)) -> Rsd {
        Rsd::new(vec![Triplet::lit(a.0, a.1), Triplet::lit(b.0, b.1)])
    }

    #[test]
    fn intersect_basic() {
        let i = r1(6, 30).intersect(&r1(1, 25), &env()).unwrap();
        assert_eq!(i, r1(6, 25));
    }

    #[test]
    fn intersect_empty_detected() {
        let i = r1(26, 30).intersect(&r1(1, 25), &env()).unwrap();
        assert!(i.is_empty(&env()));
    }

    #[test]
    fn union_adjacent_merges() {
        let u = r1(1, 5).union_merge(&r1(6, 10), &env()).unwrap();
        assert_eq!(u, r1(1, 10));
    }

    #[test]
    fn union_gap_refuses() {
        assert!(r1(1, 5).union_merge(&r1(7, 10), &env()).is_none());
    }

    #[test]
    fn union_two_dims_differ_refuses() {
        let a = r2((1, 5), (1, 5));
        let b = r2((6, 10), (6, 10));
        assert!(a.union_merge(&b, &env()).is_none());
    }

    #[test]
    fn union_contained_is_outer() {
        let a = r2((1, 10), (1, 10));
        let b = r2((2, 5), (3, 4));
        assert_eq!(a.union_merge(&b, &env()).unwrap(), a);
    }

    #[test]
    fn vectorize_point_dim_over_loop() {
        // X(26:30, i) over i = 1:100  =>  X(26:30, 1:100)   (§5.4 example)
        let i = Sym(7);
        let sec = Rsd::new(vec![Triplet::lit(26, 30), Triplet::point(Affine::sym(i))]);
        let v = sec
            .vectorize(i, &Affine::konst(1), &Affine::konst(100))
            .unwrap();
        assert_eq!(v, r2((26, 30), (1, 100)));
    }

    #[test]
    fn vectorize_shifted_window() {
        // X(i+1 : i+5) over i = 1:10 => X(2:15)
        let i = Sym(7);
        let sec = Rsd::new(vec![Triplet::new(
            Affine::sym(i).plus_const(1),
            Affine::sym(i).plus_const(5),
        )]);
        let v = sec
            .vectorize(i, &Affine::konst(1), &Affine::konst(10))
            .unwrap();
        assert_eq!(v, r1(2, 15));
    }

    #[test]
    fn vectorize_negative_coefficient() {
        // X(n - i) over i = 1:10 => X(n-10 : n-1)
        let i = Sym(7);
        let n = Sym(8);
        let e = Affine::sym(n) - Affine::sym(i);
        let sec = Rsd::new(vec![Triplet::point(e)]);
        let v = sec
            .vectorize(i, &Affine::konst(1), &Affine::konst(10))
            .unwrap();
        assert_eq!(v.dims[0].lo, Affine::sym(n).plus_const(-10));
        assert_eq!(v.dims[0].hi, Affine::sym(n).plus_const(-1));
    }

    #[test]
    fn vectorize_stride2_coeff_refuses() {
        // X(2i) over i: not contiguous, must refuse.
        let i = Sym(7);
        let sec = Rsd::new(vec![Triplet::point(Affine::term(i, 2))]);
        assert!(sec
            .vectorize(i, &Affine::konst(1), &Affine::konst(10))
            .is_none());
    }

    #[test]
    fn symbolic_bounds_with_ranges() {
        // [k+1 : n] ∩ [1 : n] = [k+1 : n] when 1 ≤ k.
        let k = Sym(0);
        let n = Sym(1);
        let mut e = SymEnv::new();
        e.set_range(k, 1, 99);
        let a = Rsd::new(vec![Triplet::new(
            Affine::sym(k).plus_const(1),
            Affine::sym(n),
        )]);
        let b = Rsd::new(vec![Triplet::new(Affine::konst(1), Affine::sym(n))]);
        let i = a.intersect(&b, &e).unwrap();
        assert_eq!(i, a);
    }

    #[test]
    fn contains_symbolic() {
        let n = Sym(1);
        let whole = Rsd::whole(&[Affine::sym(n)]);
        let part = Rsd::new(vec![Triplet::new(
            Affine::konst(2),
            Affine::sym(n).plus_const(-1),
        )]);
        assert!(whole.contains(&part, &env()));
    }

    #[test]
    fn whole_array_section() {
        let w = Rsd::whole(&[Affine::konst(100), Affine::konst(50)]);
        assert_eq!(w, r2((1, 100), (1, 50)));
    }
}
