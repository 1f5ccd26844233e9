//! Symbolic comparison environment.
//!
//! Bound comparisons like `k+1 ≤ n` are not decidable from the affine forms
//! alone. The compiler, however, usually knows ranges for the symbols
//! involved — loop indices have their loop bounds (recorded in the augmented
//! call graph), and `PARAMETER` symbols have constant values. [`SymEnv`]
//! packages that knowledge and answers "provable?" comparison queries via
//! one level of interval arithmetic.
//!
//! All answers are *conservative*: `false` means "not provable", never
//! "provably false". A relation is shown false by proving its negation:
//! `a ≤ b` is provably false exactly when `le(b + 1, a)` holds.

use crate::affine::Affine;
use crate::intern::Sym;
use rustc_hash::FxHashMap;

/// Known facts about symbols: constant values and inclusive ranges.
#[derive(Default, Clone, Debug)]
pub struct SymEnv {
    consts: FxHashMap<Sym, i64>,
    ranges: FxHashMap<Sym, (i64, i64)>,
}

impl SymEnv {
    /// An environment with no facts; only comparisons whose difference is
    /// constant are provable.
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

    /// Interval lower bound of `a`, if every symbol has a range.
    fn lower_bound(&self, a: &Affine) -> Option<i64> {
        let mut lo = a.constant();
        for (s, c) in a.terms() {
            let &(slo, shi) = self.ranges.get(&s)?;
            lo += c * if c >= 0 { slo } else { shi };
        }
        Some(lo)
    }

    /// Is `a ≤ b` provable?
    pub fn le(&self, a: &Affine, b: &Affine) -> bool {
        let d = self.fold(&(b.clone() - a.clone()));
        self.lower_bound(&d).is_some_and(|lo| lo >= 0)
    }

    /// Is `a = b` provable?
    pub fn eq(&self, a: &Affine, b: &Affine) -> bool {
        self.le(a, b) && self.le(b, a)
    }

    /// Symbolic minimum: returns whichever of `a`, `b` is provably ≤ the
    /// other, else `None`.
    pub fn min<'a>(&self, a: &'a Affine, b: &'a Affine) -> Option<&'a Affine> {
        if self.le(a, b) {
            Some(a)
        } else if self.le(b, a) {
            Some(b)
        } else {
            None
        }
    }

    /// Symbolic maximum: returns whichever of `a`, `b` is provably ≥ the
    /// other, else `None`.
    pub fn max<'a>(&self, a: &'a Affine, b: &'a Affine) -> Option<&'a Affine> {
        if self.le(a, b) {
            Some(b)
        } else if self.le(b, a) {
            Some(a)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> Sym {
        Sym(n)
    }

    /// `a ≤ b` is provably false.
    fn refuted(env: &SymEnv, a: &Affine, b: &Affine) -> bool {
        env.le(&b.plus_const(1), a)
    }

    #[test]
    fn constant_comparisons() {
        let env = SymEnv::new();
        assert!(env.le(&Affine::konst(1), &Affine::konst(2)));
        assert!(!env.le(&Affine::konst(3), &Affine::konst(2)));
        assert!(refuted(&env, &Affine::konst(3), &Affine::konst(2)));
        assert!(env.eq(&Affine::konst(2), &Affine::konst(2)));
    }

    #[test]
    fn same_symbol_cancels() {
        // n ≤ n + 1 regardless of n's value, and n < n is false.
        let env = SymEnv::new();
        let n = Affine::sym(s(0));
        assert!(env.le(&n, &n.plus_const(1)));
        assert!(refuted(&env, &n.plus_const(1), &n));
    }

    #[test]
    fn unknown_symbols_give_maybe() {
        // Neither a ≤ b nor its negation is provable.
        let env = SymEnv::new();
        let (a, b) = (Affine::sym(s(0)), Affine::sym(s(1)));
        assert!(!env.le(&a, &b));
        assert!(!refuted(&env, &a, &b));
    }

    #[test]
    fn const_binding_folds() {
        let mut env = SymEnv::new();
        env.set_const(s(0), 100);
        // n - 5 ≤ 100 when n = 100.
        assert!(env.le(&Affine::sym(s(0)).plus_const(-5), &Affine::konst(100)));
        assert!(env.eq(&Affine::sym(s(0)), &Affine::konst(100)));
    }

    #[test]
    fn range_interval_arithmetic() {
        let mut env = SymEnv::new();
        env.set_range(s(0), 1, 95); // loop index i in 1..95
        let i5 = Affine::sym(s(0)).plus_const(5);
        // i + 5 ≤ 100
        assert!(env.le(&i5, &Affine::konst(100)));
        // i + 5 ≤ 50 is unknown (i may be 95)
        assert!(!env.le(&i5, &Affine::konst(50)));
        assert!(!refuted(&env, &i5, &Affine::konst(50)));
        // i ≥ 1 i.e. 1 ≤ i
        assert!(env.le(&Affine::konst(1), &Affine::sym(s(0))));
    }

    #[test]
    fn negative_coefficient_interval() {
        let mut env = SymEnv::new();
        env.set_range(s(0), 2, 10);
        // -i ranges over [-10, -2]; so -i ≤ -2 holds and -i ≤ -11 is false.
        let e = Affine::term(s(0), -1);
        assert!(env.le(&e, &Affine::konst(-2)));
        assert!(refuted(&env, &e, &Affine::konst(-11)));
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
        // i < j, i.e. i + 1 ≤ j.
        assert!(env.le(&Affine::sym(s(0)).plus_const(1), &Affine::sym(s(1))));
    }
}
