//! Array kill analysis (paper §6.3).
//!
//! Detects statements (loop nests) that *must* assign every element of an
//! array. An array whose incoming values are killed before any use does
//! not need to be physically remapped on a decomposition change — the
//! compiler may simply mark it with the new decomposition (Fig. 16d).
//!
//! The test is conservative: a DO nest kills array `A` if it contains an
//! unconditional assignment `A(subs) = rhs` whose swept section provably
//! covers the whole of `A`, with no enclosing IF.

use crate::framework::UnitCtx;
use crate::refs::{ArrayRef, LoopCtx};
use fortrand_frontend::ast::{LValue, Stmt, StmtId, StmtKind};
use fortrand_frontend::sema::{expr_affine, UnitInfo};
use fortrand_ir::rsd::Rsd;
use fortrand_ir::{Affine, Sym, SymEnv};
use std::collections::BTreeMap;

/// Kill facts for one unit: `stmt → arrays fully killed by that statement`
/// (the statement is the outermost loop of the killing nest, or the
/// assignment itself for rank-0 coverage).
#[derive(Clone, Debug, Default)]
pub struct Kills {
    /// Killed arrays per statement.
    pub by_stmt: BTreeMap<StmtId, Vec<Sym>>,
    /// Arrays killed anywhere in the unit body (before any use on every
    /// path is *not* checked here; callers combine with liveness).
    pub anywhere: Vec<Sym>,
}

impl Kills {
    /// Does `stmt` kill `array` entirely?
    pub fn kills(&self, stmt: StmtId, array: Sym) -> bool {
        self.by_stmt
            .get(&stmt)
            .map(|v| v.contains(&array))
            .unwrap_or(false)
    }
}

/// Computes kill facts for a unit.
pub fn compute(ctx: &UnitCtx) -> Kills {
    let mut kills = Kills::default();
    scan(&ctx.unit.body, ctx.info, ctx.env, &mut vec![], &mut kills);
    kills
}

fn scan(body: &[Stmt], info: &UnitInfo, env: &SymEnv, nest: &mut Vec<LoopCtx>, out: &mut Kills) {
    for s in body {
        match &s.kind {
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let stepc = match step {
                    None => Some(1),
                    Some(e) => fortrand_frontend::sema::fold_const(e, &info.params),
                };
                nest.push(LoopCtx {
                    stmt: s.id,
                    var: *var,
                    lo: expr_affine(lo, &info.params),
                    hi: expr_affine(hi, &info.params),
                    step: stepc,
                });
                scan(body, info, env, nest, out);
                nest.pop();
            }
            StmtKind::Assign {
                lhs: LValue::Element { array, subs },
                ..
            } => {
                let vi = match info.var(*array) {
                    Some(v) if v.is_array() => v,
                    _ => continue,
                };
                let r = ArrayRef {
                    stmt: s.id,
                    array: *array,
                    is_def: true,
                    subs: subs.iter().map(|e| expr_affine(e, &info.params)).collect(),
                    nest: nest.clone(),
                };
                if let Some(swept) = r.swept_rsd() {
                    let whole = Rsd::whole(
                        &vi.dims
                            .iter()
                            .map(|&d| Affine::konst(d))
                            .collect::<Vec<_>>(),
                    );
                    if swept.contains(&whole, env) {
                        // Attribute the kill to the outermost loop of
                        // the nest (or the assignment itself).
                        let site = nest.first().map(|l| l.stmt).unwrap_or(s.id);
                        let e = out.by_stmt.entry(site).or_default();
                        if !e.contains(array) {
                            e.push(*array);
                        }
                        if !out.anywhere.contains(array) {
                            out.anywhere.push(*array);
                        }
                    }
                }
            }
            // Conditional assignments cannot be must-kills.
            StmtKind::If { .. } => {}
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_frontend::load_program;

    fn kills_of(src: &str) -> (fortrand_frontend::SourceProgram, Kills) {
        let (p, info) = load_program(src).unwrap();
        let u = &p.units[0];
        let env = SymEnv::new();
        let k = compute(&UnitCtx::new(u, info.unit(u.name), &env));
        (p, k)
    }

    #[test]
    fn full_loop_kills() {
        let (p, k) = kills_of(
            "
      SUBROUTINE f(x)
      REAL x(100)
      do i = 1, 100
        x(i) = 1.5
      enddo
      END
",
        );
        let x = p.interner.get("x").unwrap();
        assert_eq!(k.anywhere, vec![x]);
        let loop_id = p.units[0]
            .walk()
            .find(|s| matches!(s.kind, StmtKind::Do { .. }))
            .unwrap()
            .id;
        assert!(k.kills(loop_id, x));
    }

    #[test]
    fn partial_loop_does_not_kill() {
        let (_, k) = kills_of(
            "
      SUBROUTINE f(x)
      REAL x(100)
      do i = 1, 99
        x(i) = 1.5
      enddo
      END
",
        );
        assert!(k.anywhere.is_empty());
    }

    #[test]
    fn two_dim_full_nest_kills() {
        let (p, k) = kills_of(
            "
      SUBROUTINE f(a)
      REAL a(10,20)
      do i = 1, 10
        do j = 1, 20
          a(i,j) = 0.0
        enddo
      enddo
      END
",
        );
        let a = p.interner.get("a").unwrap();
        assert_eq!(k.anywhere, vec![a]);
    }

    #[test]
    fn guarded_assignment_does_not_kill() {
        let (_, k) = kills_of(
            "
      SUBROUTINE f(x, c)
      REAL x(100)
      INTEGER c
      do i = 1, 100
        if (c .gt. 0) x(i) = 1.5
      enddo
      END
",
        );
        assert!(k.anywhere.is_empty());
    }

    #[test]
    fn shifted_subscript_does_not_kill() {
        let (_, k) = kills_of(
            "
      SUBROUTINE f(x)
      REAL x(100)
      do i = 1, 100
        x(i/2 + 1) = 1.5
      enddo
      END
",
        );
        assert!(k.anywhere.is_empty());
    }
}
