//! Interprocedural constants and symbolics.
//!
//! Top-down pass: a formal parameter of `P` is a known constant when every
//! call site of `P` passes the same constant value (after the caller's own
//! constants are folded). This is what lets the compiler treat a problem
//! size `n` threaded through the call chain (dgefa → daxpy) as a
//! compile-time constant, so loop bounds and overlap offsets stay
//! analyzable.

use crate::acg::{Acg, CallEdge};
use crate::framework::{self, AcgGraph, DataflowProblem, SolveStats};
use crate::registry::Direction;
use fortrand_frontend::ast::Expr;
use fortrand_frontend::sema::{fold_const, ProgramInfo};
use fortrand_ir::Sym;
use std::collections::BTreeMap;

/// Per-unit constant formals discovered interprocedurally.
#[derive(Clone, Debug, Default)]
pub struct InterConsts {
    /// `(unit, formal) → value`.
    pub formals: BTreeMap<(Sym, Sym), i64>,
}

impl InterConsts {
    /// The full constant environment for one unit: its own `PARAMETER`s
    /// plus interprocedurally-known formals.
    pub fn params_for(&self, unit: Sym, info: &ProgramInfo) -> BTreeMap<Sym, i64> {
        let mut m = info.unit(unit).params.clone();
        for (&(_, f), &v) in self.formals.range((unit, Sym(0))..=(unit, Sym(u32::MAX))) {
            m.insert(f, v);
        }
        m
    }
}

/// Lattice value for one formal: known at every call site, or ⊥ (some
/// site passed a conflicting or non-constant actual).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CVal {
    Known(i64),
    Bottom,
}

/// The constants problem over the ACG: a node's fact maps each of its
/// formals to [`CVal`]; call edges translate actuals folded under the
/// caller's constant environment.
struct ConstsProblem<'a> {
    info: &'a ProgramInfo,
}

impl DataflowProblem<AcgGraph<'_>> for ConstsProblem<'_> {
    type Fact = BTreeMap<Sym, CVal>;

    fn name(&self) -> &'static str {
        "Symbolics & constants"
    }

    fn direction(&self) -> Direction {
        Direction::TopDown
    }

    fn boundary(&mut self, _g: &AcgGraph, _n: Sym) -> Self::Fact {
        BTreeMap::new()
    }

    fn translate(
        &mut self,
        _g: &AcgGraph,
        edge: &CallEdge,
        _src: Sym,
        src_fact: &Self::Fact,
    ) -> Vec<Self::Fact> {
        // The caller's constant environment: its own PARAMETERs plus its
        // interprocedurally-known formals (final, since callers precede
        // callees in the solve order).
        let mut env = self.info.unit(edge.caller).params.clone();
        for (&f, v) in src_fact {
            if let CVal::Known(k) = v {
                env.insert(f, *k);
            }
        }
        let mut m = BTreeMap::new();
        for (i, &f) in self.info.unit(edge.callee).formals.iter().enumerate() {
            let val = edge.actuals.get(i).and_then(|e| match e {
                Expr::Int(_) | Expr::Var(_) | Expr::Bin { .. } | Expr::Un { .. } => {
                    fold_const(e, &env)
                }
                _ => None,
            });
            m.insert(f, val.map(CVal::Known).unwrap_or(CVal::Bottom));
        }
        vec![m]
    }

    fn meet(&mut self, acc: &mut Self::Fact, contrib: Self::Fact) {
        use std::collections::btree_map::Entry;
        for (f, v) in contrib {
            match acc.entry(f) {
                Entry::Vacant(e) => {
                    e.insert(v);
                }
                Entry::Occupied(mut o) => {
                    let agree = matches!((o.get(), &v), (CVal::Known(a), CVal::Known(b)) if a == b);
                    if !agree {
                        o.insert(CVal::Bottom);
                    }
                }
            }
        }
    }

    fn transfer(&mut self, _g: &AcgGraph, _n: Sym, input: Self::Fact) -> Self::Fact {
        input
    }
}

/// Computes interprocedural constants top-down.
pub fn compute(info: &ProgramInfo, acg: &Acg) -> InterConsts {
    compute_with_stats(info, acg).0
}

/// [`compute`], also returning the framework solver's statistics.
pub fn compute_with_stats(info: &ProgramInfo, acg: &Acg) -> (InterConsts, SolveStats) {
    let g = AcgGraph { acg };
    let (facts, stats) = framework::solve(&g, &mut ConstsProblem { info });
    let mut out = InterConsts::default();
    for (unit, m) in facts {
        for (f, v) in m {
            if let CVal::Known(k) = v {
                out.formals.insert((unit, f), k);
            }
        }
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acg::build_acg;
    use fortrand_frontend::load_program;

    fn setup(src: &str) -> (fortrand_frontend::SourceProgram, ProgramInfo, InterConsts) {
        let (p, info) = load_program(src).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let c = compute(&info, &acg);
        (p, info, c)
    }

    #[test]
    fn constant_threaded_through_chain() {
        let (p, info, c) = setup(
            "
      PROGRAM main
      PARAMETER (n = 64)
      call a(n)
      END
      SUBROUTINE a(m)
      INTEGER m
      call b(m)
      END
      SUBROUTINE b(q)
      INTEGER q
      END
",
        );
        let a = p.interner.get("a").unwrap();
        let b = p.interner.get("b").unwrap();
        let m = p.interner.get("m").unwrap();
        let q = p.interner.get("q").unwrap();
        assert_eq!(c.formals.get(&(a, m)), Some(&64));
        assert_eq!(c.formals.get(&(b, q)), Some(&64));
        assert_eq!(c.params_for(b, &info)[&q], 64);
    }

    #[test]
    fn conflicting_sites_drop_constant() {
        let (p, _, c) = setup(
            "
      PROGRAM main
      call a(1)
      call a(2)
      END
      SUBROUTINE a(m)
      INTEGER m
      END
",
        );
        let a = p.interner.get("a").unwrap();
        let m = p.interner.get("m").unwrap();
        assert_eq!(c.formals.get(&(a, m)), None);
    }

    #[test]
    fn loop_index_actual_is_not_constant() {
        let (p, _, c) = setup(
            "
      PROGRAM main
      do i = 1, 10
        call a(i)
      enddo
      END
      SUBROUTINE a(m)
      INTEGER m
      END
",
        );
        let a = p.interner.get("a").unwrap();
        let m = p.interner.get("m").unwrap();
        assert_eq!(c.formals.get(&(a, m)), None);
    }

    #[test]
    fn folded_expression_actual() {
        let (p, _, c) = setup(
            "
      PROGRAM main
      PARAMETER (n = 10)
      call a(2*n + 1)
      END
      SUBROUTINE a(m)
      INTEGER m
      END
",
        );
        let a = p.interner.get("a").unwrap();
        let m = p.interner.get("m").unwrap();
        assert_eq!(c.formals.get(&(a, m)), Some(&21));
    }

    #[test]
    fn conflict_then_constant_stays_poisoned() {
        let (p, _, c) = setup(
            "
      PROGRAM main
      do i = 1, 10
        call a(i)
      enddo
      call a(5)
      END
      SUBROUTINE a(m)
      INTEGER m
      END
",
        );
        let a = p.interner.get("a").unwrap();
        let m = p.interner.get("m").unwrap();
        assert_eq!(c.formals.get(&(a, m)), None);
    }
}
