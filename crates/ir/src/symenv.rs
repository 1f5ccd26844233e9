//! Symbolic comparison environment.
//!
//! Bound comparisons like `k+1 ≤ n` are not decidable from the affine forms
//! alone. The compiler, however, usually knows ranges for the symbols
//! involved — loop indices have their loop bounds (recorded in the augmented
//! call graph), and `PARAMETER` symbols have constant values. [`SymEnv`]
//! packages that knowledge and answers three-valued comparison queries via
//! one level of interval arithmetic.
//!
//! All answers are *conservative*: `Maybe` is always a sound result, and the
//! RSD algebra treats `Maybe` as "cannot simplify".

use crate::affine::Affine;
use crate::intern::Sym;
use rustc_hash::FxHashMap;

/// Three-valued truth for symbolic predicates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tri {
    /// Definitely true.
    Yes,
    /// Definitely false.
    No,
    /// Unknown; callers must be conservative.
    Maybe,
}

impl Tri {
    /// True only for `Yes`.
    pub fn is_yes(self) -> bool {
        self == Tri::Yes
    }
}

/// Known facts about symbols: constant values and inclusive ranges.
#[derive(Default, Clone, Debug)]
pub struct SymEnv {
    consts: FxHashMap<Sym, i64>,
    ranges: FxHashMap<Sym, (i64, i64)>,
}

impl SymEnv {
    /// An environment with no facts; every nontrivial query answers `Maybe`.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `s = v` (e.g. a `PARAMETER`).
    pub fn set_const(&mut self, s: Sym, v: i64) {
        self.consts.insert(s, v);
        self.ranges.insert(s, (v, v));
    }

    /// Records `lo ≤ s ≤ hi` (e.g. a loop index within its loop).
    pub fn set_range(&mut self, s: Sym, lo: i64, hi: i64) {
        self.ranges.insert(s, (lo, hi));
    }

    /// Known range of `s`, if any.
    pub fn get_range(&self, s: Sym) -> Option<(i64, i64)> {
        self.ranges.get(&s).copied()
    }

    /// Replaces known-constant symbols in `a` by their values.
    pub fn fold(&self, a: &Affine) -> Affine {
        let mut r = Affine::konst(a.constant());
        for (s, c) in a.terms() {
            match self.consts.get(&s) {
                Some(&v) => r = r.plus_const(c * v),
                None => r = r + Affine::term(s, c),
            }
        }
        r
    }

    /// Interval bounds `[lo, hi]` of `a`, if every symbol has a range.
    pub fn interval(&self, a: &Affine) -> Option<(i64, i64)> {
        let mut lo = a.constant();
        let mut hi = a.constant();
        for (s, c) in a.terms() {
            let (slo, shi) = self.get_range(s)?;
            if c >= 0 {
                lo += c * slo;
                hi += c * shi;
            } else {
                lo += c * shi;
                hi += c * slo;
            }
        }
        Some((lo, hi))
    }

    /// Decides `a ≤ b` three-valuedly.
    pub fn le(&self, a: &Affine, b: &Affine) -> Tri {
        let d = self.fold(&(b.clone() - a.clone()));
        if let Some(v) = d.as_const() {
            return if v >= 0 { Tri::Yes } else { Tri::No };
        }
        if let Some((lo, hi)) = self.interval(&d) {
            if lo >= 0 {
                return Tri::Yes;
            }
            if hi < 0 {
                return Tri::No;
            }
        }
        Tri::Maybe
    }

    /// Decides `a < b`.
    pub fn lt(&self, a: &Affine, b: &Affine) -> Tri {
        self.le(&a.clone().plus_const(1), b)
    }

    /// Decides `a = b`.
    pub fn eq(&self, a: &Affine, b: &Affine) -> Tri {
        match (self.le(a, b), self.le(b, a)) {
            (Tri::Yes, Tri::Yes) => Tri::Yes,
            (Tri::No, _) | (_, Tri::No) => Tri::No,
            _ => Tri::Maybe,
        }
    }

    /// Symbolic minimum: returns whichever of `a`, `b` is provably ≤ the
    /// other, else `None`.
    pub fn min<'a>(&self, a: &'a Affine, b: &'a Affine) -> Option<&'a Affine> {
        match self.le(a, b) {
            Tri::Yes => Some(a),
            Tri::No => Some(b),
            Tri::Maybe => match self.le(b, a) {
                Tri::Yes => Some(b),
                _ => None,
            },
        }
    }

    /// Symbolic maximum: returns whichever of `a`, `b` is provably ≥ the
    /// other, else `None`.
    pub fn max<'a>(&self, a: &'a Affine, b: &'a Affine) -> Option<&'a Affine> {
        match self.le(a, b) {
            Tri::Yes => Some(b),
            Tri::No => Some(a),
            Tri::Maybe => match self.le(b, a) {
                Tri::Yes => Some(a),
                _ => None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> Sym {
        Sym(n)
    }

    #[test]
    fn constant_comparisons() {
        let env = SymEnv::new();
        assert_eq!(env.le(&Affine::konst(1), &Affine::konst(2)), Tri::Yes);
        assert_eq!(env.le(&Affine::konst(3), &Affine::konst(2)), Tri::No);
        assert_eq!(env.eq(&Affine::konst(2), &Affine::konst(2)), Tri::Yes);
    }

    #[test]
    fn same_symbol_cancels() {
        // n ≤ n + 1 regardless of n's value.
        let env = SymEnv::new();
        let n = Affine::sym(s(0));
        assert_eq!(env.le(&n, &n.clone().plus_const(1)), Tri::Yes);
        assert_eq!(env.lt(&n, &n), Tri::No);
    }

    #[test]
    fn unknown_symbols_give_maybe() {
        let env = SymEnv::new();
        assert_eq!(env.le(&Affine::sym(s(0)), &Affine::sym(s(1))), Tri::Maybe);
    }

    #[test]
    fn const_binding_folds() {
        let mut env = SymEnv::new();
        env.set_const(s(0), 100);
        // n - 5 ≤ 100 when n = 100.
        assert_eq!(
            env.le(&Affine::sym(s(0)).plus_const(-5), &Affine::konst(100)),
            Tri::Yes
        );
        assert_eq!(env.eq(&Affine::sym(s(0)), &Affine::konst(100)), Tri::Yes);
    }

    #[test]
    fn range_interval_arithmetic() {
        let mut env = SymEnv::new();
        env.set_range(s(0), 1, 95); // loop index i in 1..95
                                    // i + 5 ≤ 100
        assert_eq!(
            env.le(&Affine::sym(s(0)).plus_const(5), &Affine::konst(100)),
            Tri::Yes
        );
        // i + 5 ≤ 50 is unknown (i may be 95)
        assert_eq!(
            env.le(&Affine::sym(s(0)).plus_const(5), &Affine::konst(50)),
            Tri::Maybe
        );
        // i ≥ 1 i.e. 1 ≤ i
        assert_eq!(env.le(&Affine::konst(1), &Affine::sym(s(0))), Tri::Yes);
    }

    #[test]
    fn negative_coefficient_interval() {
        let mut env = SymEnv::new();
        env.set_range(s(0), 2, 10);
        // -i ranges over [-10, -2]; so -i ≤ -2 is Yes.
        let e = Affine::term(s(0), -1);
        assert_eq!(env.le(&e, &Affine::konst(-2)), Tri::Yes);
        assert_eq!(env.le(&e, &Affine::konst(-11)), Tri::No);
    }

    #[test]
    fn min_max_with_proof() {
        let mut env = SymEnv::new();
        env.set_range(s(0), 1, 50);
        let i = Affine::sym(s(0));
        let hundred = Affine::konst(100);
        assert_eq!(env.min(&i, &hundred), Some(&i));
        assert_eq!(env.max(&i, &hundred), Some(&hundred));
        let unknown = Affine::sym(s(1));
        assert_eq!(env.min(&i, &unknown), None);
    }

    #[test]
    fn two_ranged_symbols() {
        let mut env = SymEnv::new();
        env.set_range(s(0), 1, 10);
        env.set_range(s(1), 20, 30);
        assert_eq!(env.lt(&Affine::sym(s(0)), &Affine::sym(s(1))), Tri::Yes);
    }
}
