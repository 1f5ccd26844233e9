//! Symbolic affine expressions.
//!
//! Nearly every quantity the Fortran D compiler reasons about — loop bounds,
//! array subscripts, section bounds, message extents — is affine in loop
//! indices and symbolic constants: `c0 + c1*s1 + … + ck*sk`. [`Affine`] is
//! the normal form for such expressions. Normalization (sorted terms, no
//! zero coefficients) makes structural equality coincide with semantic
//! equality, which the RSD algebra depends on.
//!
//! Expressions that are *not* affine (e.g. `i*j`, `a(i)`) are handled by the
//! front end as opaque trees and force conservative answers downstream; they
//! never enter this domain.

use crate::intern::Sym;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A normalized affine expression: `konst + Σ coeff·sym`.
///
/// Invariant: no coefficient stored in `terms` is zero.
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Affine {
    terms: BTreeMap<Sym, i64>,
    konst: i64,
}

impl Affine {
    /// The constant expression `c`.
    pub fn konst(c: i64) -> Self {
        Affine {
            terms: BTreeMap::new(),
            konst: c,
        }
    }

    /// The zero expression.
    pub fn zero() -> Self {
        Self::konst(0)
    }

    /// The expression `1·s`.
    pub fn sym(s: Sym) -> Self {
        Self::term(s, 1)
    }

    /// The expression `c·s`.
    pub fn term(s: Sym, c: i64) -> Self {
        let mut terms = BTreeMap::new();
        if c != 0 {
            terms.insert(s, c);
        }
        Affine { terms, konst: 0 }
    }

    /// This expression with every symbol renamed through `f`; terms whose
    /// new symbols coincide are summed.
    pub fn map_syms(&self, f: &mut dyn FnMut(Sym) -> Sym) -> Self {
        let mut terms = BTreeMap::new();
        for (&s, &c) in &self.terms {
            *terms.entry(f(s)).or_insert(0) += c;
        }
        terms.retain(|_, c| *c != 0);
        Affine {
            terms,
            konst: self.konst,
        }
    }

    /// The constant part.
    pub fn constant(&self) -> i64 {
        self.konst
    }

    /// Coefficient of `s` (zero if absent).
    pub fn coeff(&self, s: Sym) -> i64 {
        self.terms.get(&s).copied().unwrap_or(0)
    }

    /// Iterator over `(symbol, coefficient)` pairs, in symbol order.
    pub fn terms(&self) -> impl Iterator<Item = (Sym, i64)> + '_ {
        self.terms.iter().map(|(&s, &c)| (s, c))
    }

    /// True if the expression mentions no symbols.
    pub fn is_const(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns the value if constant.
    pub fn as_const(&self) -> Option<i64> {
        if self.is_const() {
            Some(self.konst)
        } else {
            None
        }
    }

    /// True if the expression is exactly the single symbol `s`.
    pub fn is_sym(&self, s: Sym) -> bool {
        self.konst == 0 && self.terms.len() == 1 && self.coeff(s) == 1
    }

    /// If the expression is `1·s + c`, returns `(s, c)`.
    pub fn as_sym_plus_const(&self) -> Option<(Sym, i64)> {
        if self.terms.len() == 1 {
            let (&s, &c) = self.terms.iter().next().unwrap();
            if c == 1 {
                return Some((s, self.konst));
            }
        }
        None
    }

    /// True if `s` occurs with nonzero coefficient.
    pub fn mentions(&self, s: Sym) -> bool {
        self.terms.contains_key(&s)
    }

    /// All symbols mentioned.
    pub fn syms(&self) -> impl Iterator<Item = Sym> + '_ {
        self.terms.keys().copied()
    }

    /// Adds `c` to the constant part.
    pub fn plus_const(&self, c: i64) -> Self {
        let mut r = self.clone();
        r.konst += c;
        r
    }

    /// Multiplies the whole expression by `c`.
    pub fn scale(&self, c: i64) -> Self {
        if c == 0 {
            return Self::zero();
        }
        let mut r = self.clone();
        for v in r.terms.values_mut() {
            *v *= c;
        }
        r.konst *= c;
        r
    }

    /// Substitutes `replacement` for symbol `s`.
    ///
    /// Used when translating sections across call sites (formal ↦ actual
    /// subscript expression) and when instantiating loop-index symbols.
    pub fn subst(&self, s: Sym, replacement: &Affine) -> Self {
        let c = self.coeff(s);
        if c == 0 {
            return self.clone();
        }
        let mut r = self.clone();
        r.terms.remove(&s);
        r + replacement.scale(c)
    }

    /// Evaluates under a full environment. `None` if a symbol is unbound.
    pub fn eval(&self, env: &dyn Fn(Sym) -> Option<i64>) -> Option<i64> {
        let mut acc = self.konst;
        for (&s, &c) in &self.terms {
            acc += c * env(s)?;
        }
        Some(acc)
    }
}

impl Add for Affine {
    type Output = Affine;
    fn add(self, rhs: Affine) -> Affine {
        let mut terms = self.terms;
        for (s, c) in rhs.terms {
            let e = terms.entry(s).or_insert(0);
            *e += c;
            if *e == 0 {
                terms.remove(&s);
            }
        }
        Affine {
            terms,
            konst: self.konst + rhs.konst,
        }
    }
}

impl Sub for Affine {
    type Output = Affine;
    #[allow(clippy::suspicious_arithmetic_impl)] // a − b ≡ a + (−b)
    fn sub(self, rhs: Affine) -> Affine {
        self + rhs.neg()
    }
}

impl Neg for Affine {
    type Output = Affine;
    fn neg(self) -> Affine {
        self.scale(-1)
    }
}

impl Mul<i64> for Affine {
    type Output = Affine;
    fn mul(self, rhs: i64) -> Affine {
        self.scale(rhs)
    }
}

impl From<i64> for Affine {
    fn from(c: i64) -> Self {
        Affine::konst(c)
    }
}

impl fmt::Debug for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (&s, &c) in &self.terms {
            if first {
                if c == 1 {
                    write!(f, "s{}", s.0)?;
                } else {
                    write!(f, "{}*s{}", c, s.0)?;
                }
                first = false;
            } else if c >= 0 {
                write!(f, "+{}*s{}", c, s.0)?;
            } else {
                write!(f, "-{}*s{}", -c, s.0)?;
            }
        }
        if first {
            write!(f, "{}", self.konst)?;
        } else if self.konst > 0 {
            write!(f, "+{}", self.konst)?;
        } else if self.konst < 0 {
            write!(f, "{}", self.konst)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(n: u32) -> Sym {
        Sym(n)
    }

    #[test]
    fn add_cancels_to_constant() {
        let i = Affine::sym(s(0));
        let e = i.clone() + Affine::konst(5) - i;
        assert_eq!(e.as_const(), Some(5));
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let e = Affine::term(s(1), 3) + Affine::term(s(1), -3);
        assert!(e.is_const());
        assert!(!e.mentions(s(1)));
    }

    #[test]
    fn scale_by_zero_is_zero() {
        let e = (Affine::sym(s(0)) + Affine::konst(7)).scale(0);
        assert_eq!(e, Affine::zero());
    }

    #[test]
    fn subst_replaces_symbol() {
        // 2i + 1 with i := j + 3  ==>  2j + 7
        let e = Affine::term(s(0), 2).plus_const(1);
        let r = e.subst(s(0), &Affine::sym(s(1)).plus_const(3));
        assert_eq!(r.coeff(s(1)), 2);
        assert_eq!(r.constant(), 7);
        assert!(!r.mentions(s(0)));
    }

    #[test]
    fn subst_absent_symbol_is_identity() {
        let e = Affine::sym(s(0));
        assert_eq!(e.subst(s(9), &Affine::konst(5)), e);
    }

    #[test]
    fn eval_full_env() {
        let e = Affine::term(s(0), 2) + Affine::term(s(1), -1) + Affine::konst(4);
        let v = e.eval(&|sym| match sym.0 {
            0 => Some(10),
            1 => Some(3),
            _ => None,
        });
        assert_eq!(v, Some(21));
    }

    #[test]
    fn eval_unbound_is_none() {
        let e = Affine::sym(s(0));
        assert_eq!(e.eval(&|_| None), None);
    }

    #[test]
    fn as_sym_plus_const_roundtrip() {
        let e = Affine::sym(s(3)).plus_const(-2);
        assert_eq!(e.as_sym_plus_const(), Some((s(3), -2)));
        let e2 = Affine::term(s(3), 2);
        assert_eq!(e2.as_sym_plus_const(), None);
    }

    #[test]
    fn structural_equality_is_semantic() {
        let a = Affine::sym(s(0)) + Affine::sym(s(1));
        let b = Affine::sym(s(1)) + Affine::sym(s(0));
        assert_eq!(a, b);
    }
}
