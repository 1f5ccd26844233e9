//! Comm-opt's bound prover: linear forms over node-program expressions.
//!
//! A [`Lin`] is `konst + Σ coeff·atom`, where an atom is any non-additive
//! [`SExpr`] compared syntactically. [`simplify`] canonicalizes index
//! expressions (undoing codegen's globalization shapes), [`syn_eq`] decides
//! equality up to that normal form, and [`prove_ge`] proves `a ≥ b` by
//! substituting scalar ranges into the linear difference.

use crate::ir::{SBinOp, SExpr};
use fortrand_ir::dist::{ArrayDist, DistKind};
use fortrand_ir::Sym;
use std::collections::BTreeMap;

/// A linear form: sum of `coeff * atom` plus a constant, where atoms are
/// arbitrary non-additive subexpressions compared syntactically.
#[derive(Clone, Debug)]
pub(super) struct Lin {
    pub(super) terms: Vec<(SExpr, i64)>,
    konst: i64,
}

impl Lin {
    fn konst(c: i64) -> Lin {
        Lin {
            terms: vec![],
            konst: c,
        }
    }

    fn add_term(&mut self, atom: SExpr, coeff: i64) {
        if coeff == 0 {
            return;
        }
        for (a, c) in self.terms.iter_mut() {
            if *a == atom {
                *c += coeff;
                return;
            }
        }
        self.terms.push((atom, coeff));
    }

    fn add(&mut self, other: Lin, scale: i64) {
        self.konst += other.konst * scale;
        for (a, c) in other.terms {
            self.add_term(a, c * scale);
        }
    }

    fn prune(&mut self) {
        self.terms.retain(|(_, c)| *c != 0);
    }
}

/// Linearizes an integer index expression. Non-affine nodes become opaque
/// atoms; `Real` makes the whole expression non-linearizable.
pub(super) fn linearize(e: &SExpr) -> Option<Lin> {
    match e {
        SExpr::Int(v) => Some(Lin::konst(*v)),
        SExpr::Real(_) => None,
        SExpr::Neg(x) => {
            let mut l = Lin::konst(0);
            l.add(linearize(x)?, -1);
            Some(l)
        }
        SExpr::Bin { op, l, r } => match op {
            SBinOp::Add | SBinOp::Sub => {
                let mut out = linearize(l)?;
                out.add(linearize(r)?, if *op == SBinOp::Add { 1 } else { -1 });
                out.prune();
                Some(out)
            }
            SBinOp::Mul => {
                let ll = linearize(l)?;
                let lr = linearize(r)?;
                let (lin, c) = if ll.terms.is_empty() {
                    (lr, ll.konst)
                } else if lr.terms.is_empty() {
                    (ll, lr.konst)
                } else {
                    // Non-linear product: opaque atom.
                    let mut out = Lin::konst(0);
                    out.add_term(e.clone(), 1);
                    return Some(out);
                };
                let mut out = Lin::konst(0);
                out.add(lin, c);
                out.prune();
                Some(out)
            }
            _ => {
                let mut out = Lin::konst(0);
                out.add_term(e.clone(), 1);
                Some(out)
            }
        },
        _ => {
            let mut out = Lin::konst(0);
            out.add_term(e.clone(), 1);
            Some(out)
        }
    }
}

/// Rebuilds an expression from a linear form (deterministic shape).
fn delinearize(lin: &Lin) -> SExpr {
    let mut acc: Option<SExpr> = None;
    for (a, c) in &lin.terms {
        let t = if *c == 1 {
            a.clone()
        } else if *c == -1 {
            SExpr::Neg(Box::new(a.clone()))
        } else {
            SExpr::mul(SExpr::int(*c), a.clone())
        };
        acc = Some(match acc {
            None => t,
            Some(p) => SExpr::add(p, t),
        });
    }
    match acc {
        None => SExpr::int(lin.konst),
        Some(p) if lin.konst == 0 => p,
        Some(p) if lin.konst > 0 => SExpr::add(p, SExpr::int(lin.konst)),
        Some(p) => SExpr::sub(p, SExpr::int(-lin.konst)),
    }
}

/// Applies the globalization identity to a linear form in place: the
/// codegen shapes `(local(G)-1)*P + owner(G) + 1` (CYCLIC) and
/// `owner(G)*b + local(G)` (BLOCK) collapse back to the global subscript
/// `G`. Only fires when the consulted distribution has exactly one
/// distributed dimension (so `owner` depends only on that subscript).
fn glob_identity(lin: &mut Lin, dists: &[ArrayDist]) {
    loop {
        let mut hit: Option<(usize, usize, SExpr, i64, i64)> = None; // (li, wi, g, c, extra)
        'search: for (li, (la, lc)) in lin.terms.iter().enumerate() {
            let SExpr::LocalIdx { dist, dim, sub } = la else {
                continue;
            };
            let d = &dists[dist.0 as usize];
            if d.first_dist_dim() != Some(*dim)
                || d.dims.iter().filter(|p| p.kind.is_distributed()).count() != 1
            {
                continue;
            }
            let part = &d.dims[*dim];
            for (wi, (wa, wc)) in lin.terms.iter().enumerate() {
                let SExpr::Owner { dist: wd, subs } = wa else {
                    continue;
                };
                if wd != dist || subs.len() <= *dim || subs[*dim] != **sub {
                    continue;
                }
                // coefficient pattern: lc = c * factor, wc = c
                let c = *wc;
                if c == 0 {
                    continue;
                }
                if part.kind == DistKind::Cyclic {
                    let p = part.nprocs as i64;
                    if *lc == c * p {
                        // c*(P*l + w) = c*(G + P - 1)
                        hit = Some((li, wi, (**sub).clone(), c, c * (p - 1)));
                        break 'search;
                    }
                }
            }
            // BLOCK: coeff(l) = c, coeff(w) = c*b
            if part.kind == DistKind::Block {
                let b = part.block_size();
                let c = *lc;
                for (wi, (wa, wc)) in lin.terms.iter().enumerate() {
                    let SExpr::Owner { dist: wd, subs } = wa else {
                        continue;
                    };
                    if let SExpr::LocalIdx { dist, dim, sub } = la {
                        if wd == dist && subs.len() > *dim && subs[*dim] == **sub && *wc == c * b {
                            hit = Some((li, wi, (**sub).clone(), c, 0));
                            break 'search;
                        }
                    }
                }
            }
        }
        let Some((li, wi, g, c, extra)) = hit else {
            return;
        };
        let (hi_i, lo_i) = if li > wi { (li, wi) } else { (wi, li) };
        lin.terms.remove(hi_i);
        lin.terms.remove(lo_i);
        lin.konst += extra;
        if let Some(gl) = linearize(&g) {
            lin.add(gl, c);
        } else {
            lin.add_term(g, c);
        }
        lin.prune();
    }
}

/// Simplifies an index expression: recursively linearizes additive subtrees,
/// applies the globalization identity, and rebuilds a canonical shape.
pub(super) fn simplify(e: &SExpr, dists: &[ArrayDist]) -> SExpr {
    match linearize(e) {
        Some(mut lin) => {
            // Normalize atoms recursively (their subexpressions may contain
            // additive islands, e.g. LocalIdx(k+1)).
            let mut norm = Lin::konst(lin.konst);
            for (a, c) in lin.terms.drain(..) {
                let a2 = simplify_children(&a, dists);
                norm.add_term(a2, c);
            }
            norm.prune();
            glob_identity(&mut norm, dists);
            delinearize(&norm)
        }
        None => simplify_children(e, dists),
    }
}

fn simplify_children(e: &SExpr, dists: &[ArrayDist]) -> SExpr {
    let mut out = e.clone();
    out.children_mut(&mut |c| *c = simplify(c, dists));
    out
}

/// Symbolic ranges for scalar values, `sym → (lo, hi)` inclusive, with
/// bound expressions in the enclosing scope's terms.
pub(super) type Ranges = BTreeMap<Sym, (SExpr, SExpr)>;

/// Proves `a >= b` by showing `lin(a - b) >= 0`: substitute ranged symbols
/// by the favorable bound and recurse (depth-limited).
pub(super) fn prove_ge(a: &SExpr, b: &SExpr, ranges: &Ranges, dists: &[ArrayDist]) -> bool {
    let (Some(la), Some(lb)) = (
        linearize(&simplify(a, dists)),
        linearize(&simplify(b, dists)),
    ) else {
        return false;
    };
    let mut d = la;
    d.add(lb, -1);
    d.prune();
    prove_ge0(d, ranges, dists, 4)
}

fn prove_ge0(lin: Lin, ranges: &Ranges, dists: &[ArrayDist], depth: usize) -> bool {
    if lin.terms.is_empty() {
        return lin.konst >= 0;
    }
    if depth == 0 {
        return false;
    }
    // Substitute the first ranged Var atom by its favorable bound.
    for (i, (a, c)) in lin.terms.iter().enumerate() {
        let SExpr::Var(s) = a else { continue };
        let Some((lo, hi)) = ranges.get(s) else {
            continue;
        };
        let bound = if *c > 0 { lo } else { hi };
        let Some(lb) = linearize(&simplify(bound, dists)) else {
            continue;
        };
        // The bound must not re-mention the symbol being eliminated.
        if lb
            .terms
            .iter()
            .any(|(x, _)| matches!(x, SExpr::Var(t) if t == s))
        {
            continue;
        }
        let c = *c;
        let mut next = lin.clone();
        next.terms.remove(i);
        next.add(lb, c);
        next.prune();
        if prove_ge0(next, ranges, dists, depth - 1) {
            return true;
        }
    }
    false
}

/// Normalized syntactic equality: `a == b` after simplification, or a
/// provably-zero linear difference.
pub(super) fn syn_eq(a: &SExpr, b: &SExpr, dists: &[ArrayDist]) -> bool {
    let sa = simplify(a, dists);
    let sb = simplify(b, dists);
    if sa == sb {
        return true;
    }
    match (linearize(&sa), linearize(&sb)) {
        (Some(la), Some(lb)) => const_diff(la, lb) == Some(0),
        _ => false,
    }
}

/// `a − b`, if that is a constant.
pub(super) fn const_diff(mut a: Lin, b: Lin) -> Option<i64> {
    a.add(b, -1);
    a.prune();
    a.terms.is_empty().then_some(a.konst)
}

/// Constant-folds a simplified expression to an integer if possible.
pub(super) fn const_of(e: &SExpr, dists: &[ArrayDist]) -> Option<i64> {
    let lin = linearize(&simplify(e, dists))?;
    if lin.terms.is_empty() {
        Some(lin.konst)
    } else {
        None
    }
}
