//! Structural stable digests.
//!
//! The §8 recompilation test and the artifact store key on 64-bit digests
//! of a unit's source structure and of the interprocedural facts its code
//! consumed. Those digests must not depend on how the interner happened to
//! number symbols: an edit that adds an identifier early in the file
//! shifts the id of every later symbol, and the digests of unedited units
//! must not move with it. A [`Digester`] therefore feeds a
//! `DefaultHasher` with every [`Sym`] resolved to its *name*, through
//! whatever table the value's symbols index ([`SymNames`]: the program's
//! [`Interner`], or a compiled unit's own name table).
//!
//! The encoding is injective: each enum variant writes a tag, each list
//! its length, each string its length, so two values digest alike only
//! when they are equal up to symbol renumbering. Collections keyed by
//! symbol ids (`BTreeMap<Sym, _>`, `BTreeSet<Sym>`, an [`Affine`]'s terms)
//! iterate in id order, so they are digested as multisets (the wrapping
//! sum of per-element digests): their digest does not move when ids are
//! renumbered either.

use crate::affine::Affine;
use crate::dist::{Alignment, DistKind};
use crate::intern::{Interner, Sym};
use crate::rsd::{Rsd, Triplet};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hasher;

/// A table that gives symbols their names.
pub trait SymNames {
    /// The name of `s`. Panics when `s` is not from this table.
    fn sym_name(&self, s: Sym) -> &str;
}

impl SymNames for Interner {
    fn sym_name(&self, s: Sym) -> &str {
        self.name(s)
    }
}

impl SymNames for Vec<String> {
    fn sym_name(&self, s: Sym) -> &str {
        &self[s.0 as usize]
    }
}

/// A name-resolving hasher (see the module docs).
pub struct Digester<'a> {
    h: DefaultHasher,
    names: &'a dyn SymNames,
}

impl<'a> Digester<'a> {
    /// A fresh digester resolving symbols through `names`.
    pub fn new(names: &'a dyn SymNames) -> Self {
        Digester {
            h: DefaultHasher::new(),
            names,
        }
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.h.finish()
    }

    /// An enum variant's tag.
    pub fn tag(&mut self, t: u8) {
        self.h.write_u8(t);
    }

    /// An unsigned integer (lengths, indices, digests).
    pub fn u64(&mut self, v: u64) {
        self.h.write_u64(v);
    }

    /// A signed integer.
    pub fn i64(&mut self, v: i64) {
        self.h.write_i64(v);
    }

    /// A string, length first.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.h.write(s.as_bytes());
    }

    /// A symbol, as its name.
    pub fn sym(&mut self, s: Sym) {
        self.str(self.names.sym_name(s));
    }

    /// A multiset: its size and the wrapping sum of its elements' own
    /// digests, so the order the items arrive in does not matter.
    pub fn unordered<I>(&mut self, items: I)
    where
        I: IntoIterator,
        I::Item: StableHash,
    {
        let (mut n, mut sum) = (0u64, 0u64);
        for item in items {
            n += 1;
            sum = sum.wrapping_add(digest(&item, self.names));
        }
        self.u64(n);
        self.u64(sum);
    }
}

/// A value with a structural stable digest (see the module docs).
pub trait StableHash {
    /// Writes `self` into `d`.
    fn stable_hash(&self, d: &mut Digester);
}

/// The digest of one value, its symbols named through `names`.
pub fn digest<T: StableHash + ?Sized>(v: &T, names: &dyn SymNames) -> u64 {
    let mut d = Digester::new(names);
    v.stable_hash(&mut d);
    d.finish()
}

impl<T: StableHash + ?Sized> StableHash for &T {
    fn stable_hash(&self, d: &mut Digester) {
        (**self).stable_hash(d);
    }
}

impl StableHash for Sym {
    fn stable_hash(&self, d: &mut Digester) {
        d.sym(*self);
    }
}

impl StableHash for str {
    fn stable_hash(&self, d: &mut Digester) {
        d.str(self);
    }
}

impl StableHash for String {
    fn stable_hash(&self, d: &mut Digester) {
        d.str(self);
    }
}

impl StableHash for bool {
    fn stable_hash(&self, d: &mut Digester) {
        d.tag(*self as u8);
    }
}

impl StableHash for u64 {
    fn stable_hash(&self, d: &mut Digester) {
        d.u64(*self);
    }
}

impl StableHash for usize {
    fn stable_hash(&self, d: &mut Digester) {
        d.u64(*self as u64);
    }
}

impl StableHash for i64 {
    fn stable_hash(&self, d: &mut Digester) {
        d.i64(*self);
    }
}

/// By bit pattern: `-0.0` and `0.0` differ, as their renderings do.
impl StableHash for f64 {
    fn stable_hash(&self, d: &mut Digester) {
        d.u64(self.to_bits());
    }
}

impl<T: StableHash> StableHash for [T] {
    fn stable_hash(&self, d: &mut Digester) {
        d.u64(self.len() as u64);
        for item in self {
            item.stable_hash(d);
        }
    }
}

impl<T: StableHash> StableHash for Vec<T> {
    fn stable_hash(&self, d: &mut Digester) {
        self.as_slice().stable_hash(d);
    }
}

impl<T: StableHash> StableHash for Option<T> {
    fn stable_hash(&self, d: &mut Digester) {
        match self {
            None => d.tag(0),
            Some(v) => {
                d.tag(1);
                v.stable_hash(d);
            }
        }
    }
}

impl<A: StableHash, B: StableHash> StableHash for (A, B) {
    fn stable_hash(&self, d: &mut Digester) {
        self.0.stable_hash(d);
        self.1.stable_hash(d);
    }
}

impl<A: StableHash, B: StableHash, C: StableHash, D: StableHash> StableHash for (A, B, C, D) {
    fn stable_hash(&self, d: &mut Digester) {
        self.0.stable_hash(d);
        self.1.stable_hash(d);
        self.2.stable_hash(d);
        self.3.stable_hash(d);
    }
}

/// A multiset (see [`Digester::unordered`]).
impl<T: StableHash> StableHash for BTreeSet<T> {
    fn stable_hash(&self, d: &mut Digester) {
        d.unordered(self);
    }
}

/// A multiset of entries (see [`Digester::unordered`]).
impl<K: StableHash, V: StableHash> StableHash for BTreeMap<K, V> {
    fn stable_hash(&self, d: &mut Digester) {
        d.unordered(self);
    }
}

impl StableHash for Affine {
    fn stable_hash(&self, d: &mut Digester) {
        d.unordered(self.terms());
        d.i64(self.constant());
    }
}

impl StableHash for Triplet {
    fn stable_hash(&self, d: &mut Digester) {
        self.lo.stable_hash(d);
        self.hi.stable_hash(d);
        d.i64(self.step);
    }
}

impl StableHash for Rsd {
    fn stable_hash(&self, d: &mut Digester) {
        self.dims.stable_hash(d);
    }
}

impl StableHash for Alignment {
    fn stable_hash(&self, d: &mut Digester) {
        self.perm.stable_hash(d);
        self.offset.stable_hash(d);
    }
}

impl StableHash for DistKind {
    fn stable_hash(&self, d: &mut Digester) {
        match *self {
            DistKind::Block => d.tag(0),
            DistKind::Cyclic => d.tag(1),
            DistKind::BlockCyclic(k) => {
                d.tag(2);
                d.i64(k);
            }
            DistKind::Serial => d.tag(3),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbols_digest_by_name_not_id() {
        let mut a = Interner::new();
        let x = a.intern("x");
        let mut b = Interner::new();
        b.intern("pad");
        let y = b.intern("x");
        assert_ne!(x, y);
        assert_eq!(digest(&x, &a), digest(&y, &b));
        let (i, j) = (b.intern("i"), b.intern("j"));
        assert_ne!(digest(&i, &b), digest(&j, &b));
    }

    #[test]
    fn symbol_keyed_collections_ignore_id_order() {
        // The same two names, interned in opposite orders.
        let mut a = Interner::new();
        let (ai, aj) = (a.intern("i"), a.intern("j"));
        let mut b = Interner::new();
        let (bj, bi) = (b.intern("j"), b.intern("i"));
        let fa = Affine::term(ai, 2) + Affine::sym(aj) + Affine::konst(3);
        let fb = Affine::term(bi, 2) + Affine::sym(bj) + Affine::konst(3);
        assert_eq!(digest(&fa, &a), digest(&fb, &b));
        let sa: BTreeSet<Sym> = [ai, aj].into();
        let sb: BTreeSet<Sym> = [bj, bi].into();
        assert_eq!(digest(&sa, &a), digest(&sb, &b));
        assert_ne!(
            digest(&(Affine::term(ai, 2) + Affine::sym(aj)), &a),
            digest(&(Affine::sym(ai) + Affine::term(aj, 2)), &a)
        );
    }

    #[test]
    fn lengths_and_tags_keep_the_encoding_injective() {
        let names = Interner::new();
        let ab = vec!["ab".to_string()];
        let a_b = vec!["a".to_string(), "b".to_string()];
        assert_ne!(digest(&ab, &names), digest(&a_b, &names));
        let nested: (Vec<i64>, Vec<i64>) = (vec![1, 2], vec![]);
        let split: (Vec<i64>, Vec<i64>) = (vec![1], vec![2]);
        assert_ne!(digest(&nested, &names), digest(&split, &names));
        assert_ne!(digest(&None::<i64>, &names), digest(&Some(0i64), &names));
        assert_ne!(
            digest(&DistKind::BlockCyclic(1), &names),
            digest(&DistKind::Cyclic, &names)
        );
    }

    #[test]
    fn a_unit_name_table_names_its_own_symbols() {
        let table = vec!["u".to_string(), "v".to_string()];
        let mut prog = Interner::new();
        prog.intern("w");
        let v = prog.intern("v");
        assert_eq!(digest(&Sym(1), &table), digest(&v, &prog));
    }
}
