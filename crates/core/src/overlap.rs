//! Overlap calculation (paper §5.6, Fig. 13).
//!
//! Overlap areas extend an array's local bounds so that nonlocal boundary
//! data fetched from neighbours can be stored in place (`X(1:25)` widened
//! to `X(1:30)` for a `+5` stencil). Because Fortran requires consistent
//! array dimensions across procedures, overlap widths must agree in every
//! procedure that touches the array.
//!
//! The paper estimates offsets during local analysis, propagates them both
//! ways on the call graph, and patches up underestimates during code
//! generation. Compiling whole programs, we can run the same offset
//! collection exactly: constant subscript offsets are gathered per
//! procedure, propagated bottom-up through formal/actual bindings, then
//! pushed back down so callers and callees declare identical widened
//! bounds. (The estimate-vs-actual dance matters only under separate
//! compilation; the recompilation module covers that behaviour.)

use fortrand_analysis::acg::Acg;
use fortrand_analysis::refs::{collect_refs, ArrayRef};
use fortrand_frontend::ast::{Expr, SourceProgram};
use fortrand_frontend::sema::ProgramInfo;
use fortrand_ir::Sym;
use std::collections::BTreeMap;

/// Per-(unit, array, dim) overlap widths: `(lo, hi)` — how many planes
/// below/above the local section must be allocated.
#[derive(Clone, Debug, Default)]
pub struct Overlaps {
    /// `(unit, array) → per-dim (lo, hi)` widths.
    pub widths: BTreeMap<(Sym, Sym), Vec<(i64, i64)>>,
}

impl Overlaps {
    /// Widths for one array in one unit (empty slice ⇒ no overlaps).
    pub fn of(&self, unit: Sym, array: Sym) -> Option<&Vec<(i64, i64)>> {
        self.widths.get(&(unit, array))
    }
}

/// Collects constant subscript offsets and propagates them across the call
/// graph in both directions.
pub fn compute(prog: &SourceProgram, info: &ProgramInfo, acg: &Acg) -> Overlaps {
    let locals =
        (prog.units.iter()).map(|u| (u.name, local_offsets(&collect_refs(u, info.unit(u.name)))));
    from_locals(info, acg, locals)
}

/// One unit's constant subscript offsets per array, its references `refs`
/// (`collect_refs`) given: the local phase of [`compute`]. Subscripts of
/// the form `v + c` count (v a loop index or formal); every array
/// referenced has an entry.
pub(crate) fn local_offsets(refs: &[ArrayRef]) -> BTreeMap<Sym, Vec<(i64, i64)>> {
    let mut widths: BTreeMap<Sym, Vec<(i64, i64)>> = BTreeMap::new();
    for r in refs {
        let rank = r.subs.len();
        let entry = widths.entry(r.array).or_insert_with(|| vec![(0, 0); rank]);
        for (d, sub) in r.subs.iter().enumerate() {
            if let Some((_, c)) = sub.as_ref().and_then(|a| a.as_sym_plus_const()) {
                if c < 0 {
                    entry[d].0 = entry[d].0.max(-c);
                } else if c > 0 {
                    entry[d].1 = entry[d].1.max(c);
                }
            }
        }
    }
    widths
}

/// [`compute`] from each unit's local offsets ([`local_offsets`]).
pub(crate) fn from_locals(
    info: &ProgramInfo,
    acg: &Acg,
    locals: impl IntoIterator<Item = (Sym, BTreeMap<Sym, Vec<(i64, i64)>>)>,
) -> Overlaps {
    let mut o = Overlaps::default();
    for (unit, widths) in locals {
        (o.widths).extend(widths.into_iter().map(|(a, w)| ((unit, a), w)));
    }

    // Bottom-up: callee formal offsets → caller actual arrays.
    for unit in acg.reverse_topo() {
        for e in acg.calls.get(&unit).into_iter().flatten() {
            for (i, &f) in info.unit(e.callee).formals.iter().enumerate() {
                if !info.unit(e.callee).is_array(f) {
                    continue;
                }
                let Some(callee_w) = o.widths.get(&(e.callee, f)).cloned() else {
                    continue;
                };
                if let Some(Expr::Var(a)) = e.actuals.get(i) {
                    let a = *a;
                    if info.unit(e.caller).is_array(a) {
                        let entry = o
                            .widths
                            .entry((e.caller, a))
                            .or_insert_with(|| vec![(0, 0); callee_w.len()]);
                        if entry.len() == callee_w.len() {
                            for (dst, src) in entry.iter_mut().zip(&callee_w) {
                                dst.0 = dst.0.max(src.0);
                                dst.1 = dst.1.max(src.1);
                            }
                        }
                    }
                }
            }
        }
    }

    // Top-down: caller widths → callee formals, so declarations agree.
    for &unit in &acg.topo {
        for e in acg.calls.get(&unit).into_iter().flatten() {
            for (i, &f) in info.unit(e.callee).formals.iter().enumerate() {
                if !info.unit(e.callee).is_array(f) {
                    continue;
                }
                if let Some(Expr::Var(a)) = e.actuals.get(i) {
                    if let Some(caller_w) = o.widths.get(&(e.caller, *a)).cloned() {
                        let entry = o
                            .widths
                            .entry((e.callee, f))
                            .or_insert_with(|| vec![(0, 0); caller_w.len()]);
                        if entry.len() == caller_w.len() {
                            for (dst, src) in entry.iter_mut().zip(&caller_w) {
                                dst.0 = dst.0.max(src.0);
                                dst.1 = dst.1.max(src.1);
                            }
                        }
                    }
                }
            }
        }
    }

    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_analysis::acg::build_acg;
    use fortrand_analysis::fixtures::{FIG1, FIG4};
    use fortrand_frontend::load_program;

    fn setup(src: &str) -> (fortrand_frontend::SourceProgram, Overlaps) {
        let (p, info) = load_program(src).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let o = compute(&p, &info, &acg);
        (p, o)
    }

    /// Fig. 13's example: `Z(k+5, i)` gives offset `({+5}, 0)`, translated
    /// through the call chain to `X` and `Y` in `P1`.
    #[test]
    fn fig4_offsets_propagate_to_main() {
        let (p, o) = setup(FIG4);
        let p1 = p.interner.get("p1").unwrap();
        let f2 = p.interner.get("f2").unwrap();
        let x = p.interner.get("x").unwrap();
        let y = p.interner.get("y").unwrap();
        let z = p.interner.get("z").unwrap();
        assert_eq!(o.of(f2, z).unwrap(), &vec![(0, 5), (0, 0)]);
        assert_eq!(o.of(p1, x).unwrap(), &vec![(0, 5), (0, 0)]);
        assert_eq!(o.of(p1, y).unwrap(), &vec![(0, 5), (0, 0)]);
    }

    #[test]
    fn fig1_offset_in_subroutine_and_main() {
        let (p, o) = setup(FIG1);
        let p1 = p.interner.get("p1").unwrap();
        let f1 = p.interner.get("f1").unwrap();
        let x = p.interner.get("x").unwrap();
        assert_eq!(o.of(f1, x).unwrap(), &vec![(0, 5)]);
        assert_eq!(o.of(p1, x).unwrap(), &vec![(0, 5)]);
    }

    #[test]
    fn top_down_reaches_sibling_callee() {
        // g only touches a(i), but must still declare a's widened bounds
        // because f uses a(i+3) on the same array.
        let (p, o) = setup(
            "
      PROGRAM main
      REAL a(50)
      call f(a)
      call g(a)
      END
      SUBROUTINE f(a)
      REAL a(50)
      do i = 1, 47
        a(i) = a(i+3)
      enddo
      END
      SUBROUTINE g(a)
      REAL a(50)
      do i = 1, 50
        a(i) = a(i) + 1.0
      enddo
      END
",
        );
        let g = p.interner.get("g").unwrap();
        let a = p.interner.get("a").unwrap();
        assert_eq!(o.of(g, a).unwrap(), &vec![(0, 3)]);
    }

    #[test]
    fn negative_offsets_widen_low_side() {
        let (p, o) = setup(
            "
      SUBROUTINE f(a)
      REAL a(50)
      do i = 3, 50
        a(i) = a(i-2)
      enddo
      END
      PROGRAM main
      REAL b(50)
      call f(b)
      END
",
        );
        let f = p.interner.get("f").unwrap();
        let a = p.interner.get("a").unwrap();
        assert_eq!(o.of(f, a).unwrap(), &vec![(2, 0)]);
    }
}
