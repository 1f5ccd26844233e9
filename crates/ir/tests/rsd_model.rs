//! Property tests for the RSD algebra against a brute-force membership
//! model: every operation that *claims* an exact result must agree with
//! set arithmetic over the enumerated points. (Operations are allowed to
//! refuse — return `None` — but never to lie.)

use fortrand_ir::rsd::{Rsd, Triplet};
use fortrand_ir::{Affine, Sym, SymEnv};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Enumerates a concrete RSD's points.
fn points(r: &Rsd) -> BTreeSet<Vec<i64>> {
    fn rec(dims: &[Triplet], acc: &mut Vec<i64>, out: &mut BTreeSet<Vec<i64>>) {
        match dims.first() {
            None => {
                out.insert(acc.clone());
            }
            Some(t) => {
                let lo = t.lo.as_const().unwrap();
                let hi = t.hi.as_const().unwrap();
                let mut x = lo;
                while x <= hi {
                    acc.push(x);
                    rec(&dims[1..], acc, out);
                    acc.pop();
                    x += t.step;
                }
            }
        }
    }
    let mut out = BTreeSet::new();
    rec(&r.dims, &mut Vec::new(), &mut out);
    out
}

fn triplet_strategy() -> impl Strategy<Value = Triplet> {
    (0i64..20, 0i64..12).prop_map(|(lo, len)| Triplet::lit(lo, lo + len))
}

fn rsd_strategy(rank: usize) -> impl Strategy<Value = Rsd> {
    prop::collection::vec(triplet_strategy(), rank).prop_map(Rsd::new)
}

proptest! {
    /// Intersection is exact set intersection.
    #[test]
    fn intersect_is_set_intersection(a in rsd_strategy(2), b in rsd_strategy(2)) {
        let env = SymEnv::new();
        if let Some(i) = a.intersect(&b, &env) {
            let expect: BTreeSet<_> = points(&a).intersection(&points(&b)).cloned().collect();
            prop_assert_eq!(points(&i), expect);
        }
    }

    /// Merging never changes the union (it only succeeds when exact).
    #[test]
    fn union_merge_is_exact(a in rsd_strategy(2), b in rsd_strategy(2)) {
        let env = SymEnv::new();
        if let Some(u) = a.union_merge(&b, &env) {
            let expect: BTreeSet<_> = points(&a).union(&points(&b)).cloned().collect();
            prop_assert_eq!(points(&u), expect);
        }
    }

    /// `contains` answering true implies real set containment.
    #[test]
    fn contains_yes_is_sound(a in rsd_strategy(2), b in rsd_strategy(2)) {
        let env = SymEnv::new();
        if a.contains(&b, &env) {
            prop_assert!(points(&b).is_subset(&points(&a)));
        }
    }

    /// Vectorizing a point section over a loop equals the union of the
    /// per-iteration instances.
    #[test]
    fn vectorize_is_union_of_instances(
        base in 0i64..10,
        coeff in prop_oneof![Just(-1i64), Just(0), Just(1)],
        lo in 0i64..5,
        len in 0i64..8,
    ) {
        let v = Sym(99);
        let hi = lo + len;
        let e = Affine::term(v, coeff).plus_const(base);
        let sec = Rsd::new(vec![Triplet::point(e.clone())]);
        if let Some(vect) = sec.vectorize(v, &Affine::konst(lo), &Affine::konst(hi)) {
            let mut expect = BTreeSet::new();
            for i in lo..=hi {
                expect.insert(vec![coeff * i + base]);
            }
            prop_assert_eq!(points(&vect), expect);
        } else {
            // Refusal is only allowed for |coeff| > 1 (non-contiguous).
            prop_assert!(coeff.abs() > 1);
        }
    }
}
