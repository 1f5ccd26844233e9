//! Reference collection.
//!
//! Walks a unit's body and produces one [`ArrayRef`] per textual array
//! reference, carrying its affine subscript vector and the enclosing loop
//! nest. Everything downstream — dependence testing, RSD summaries,
//! communication analysis — consumes these.

use fortrand_frontend::ast::{Expr, LValue, ProcUnit, Stmt, StmtId, StmtKind};
use fortrand_frontend::sema::{expr_affine, UnitInfo};
use fortrand_ir::rsd::{Rsd, Triplet};
use fortrand_ir::{Affine, Sym};

/// One enclosing loop of a reference or call site.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopCtx {
    /// Loop statement id.
    pub stmt: StmtId,
    /// Index variable.
    pub var: Sym,
    /// Affine lower bound (if representable).
    pub lo: Option<Affine>,
    /// Affine upper bound (if representable).
    pub hi: Option<Affine>,
    /// Constant step (1 if unspecified; None if non-constant).
    pub step: Option<i64>,
}

/// One array reference.
#[derive(Clone, Debug)]
pub struct ArrayRef {
    /// Statement containing the reference.
    pub stmt: StmtId,
    /// The array.
    pub array: Sym,
    /// True for definitions (left-hand sides).
    pub is_def: bool,
    /// Per-dimension affine subscripts (`None` = non-affine).
    pub subs: Vec<Option<Affine>>,
    /// Enclosing loops, outermost first.
    pub nest: Vec<LoopCtx>,
}

impl ArrayRef {
    /// The point section of this reference (subscripts as-is); `None` if
    /// any subscript is non-affine.
    pub fn point_rsd(&self) -> Option<Rsd> {
        let dims = self
            .subs
            .iter()
            .map(|s| s.clone().map(Triplet::point))
            .collect::<Option<Vec<_>>>()?;
        Some(Rsd::new(dims))
    }

    /// The section swept by this reference over its entire loop nest
    /// (vectorizing innermost-out). `None` if anything is unrepresentable.
    pub fn swept_rsd(&self) -> Option<Rsd> {
        let mut r = self.point_rsd()?;
        for l in self.nest.iter().rev() {
            if l.step != Some(1) {
                // Non-unit steps sweep non-contiguous sections.
                if r.dims
                    .iter()
                    .any(|t| t.lo.mentions(l.var) || t.hi.mentions(l.var))
                {
                    return None;
                }
                continue;
            }
            let (lo, hi) = (l.lo.as_ref()?, l.hi.as_ref()?);
            r = r.vectorize(l.var, lo, hi)?;
        }
        Some(r)
    }
}

/// Collects all array references in `unit` (assignment lhs/rhs, loop
/// bounds, conditions, print items). References inside call arguments are
/// *not* collected — call effects come from interprocedural summaries.
pub fn collect_refs(unit: &ProcUnit, info: &UnitInfo) -> Vec<ArrayRef> {
    let mut out = Vec::new();
    let mut nest = Vec::new();
    walk(&unit.body, info, &mut nest, &mut out);
    out
}

fn walk(body: &[Stmt], info: &UnitInfo, nest: &mut Vec<LoopCtx>, out: &mut Vec<ArrayRef>) {
    for s in body {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                if let LValue::Element { array, subs } = lhs {
                    if info.is_array(*array) {
                        out.push(make_ref(s.id, *array, true, subs, info, nest));
                        for sub in subs {
                            collect_expr(sub, s.id, info, nest, out);
                        }
                    }
                }
                collect_expr(rhs, s.id, info, nest, out);
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                collect_expr(lo, s.id, info, nest, out);
                collect_expr(hi, s.id, info, nest, out);
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
                walk(body, info, nest, out);
                nest.pop();
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                collect_expr(cond, s.id, info, nest, out);
                walk(then_body, info, nest, out);
                walk(else_body, info, nest, out);
            }
            StmtKind::Print { args } => {
                for a in args {
                    collect_expr(a, s.id, info, nest, out);
                }
            }
            // Call arguments handled by interprocedural summaries.
            _ => {}
        }
    }
}

fn collect_expr(
    e: &Expr,
    stmt: StmtId,
    info: &UnitInfo,
    nest: &[LoopCtx],
    out: &mut Vec<ArrayRef>,
) {
    match e {
        Expr::Element { array, subs } => {
            if info.is_array(*array) {
                out.push(make_ref(stmt, *array, false, subs, info, nest));
            }
            for s in subs {
                collect_expr(s, stmt, info, nest, out);
            }
        }
        Expr::Bin { l, r, .. } => {
            collect_expr(l, stmt, info, nest, out);
            collect_expr(r, stmt, info, nest, out);
        }
        Expr::Un { e, .. } => collect_expr(e, stmt, info, nest, out),
        Expr::Intrinsic { args, .. } | Expr::FuncCall { args, .. } => {
            for a in args {
                collect_expr(a, stmt, info, nest, out);
            }
        }
        _ => {}
    }
}

fn make_ref(
    stmt: StmtId,
    array: Sym,
    is_def: bool,
    subs: &[Expr],
    info: &UnitInfo,
    nest: &[LoopCtx],
) -> ArrayRef {
    ArrayRef {
        stmt,
        array,
        is_def,
        subs: subs.iter().map(|e| expr_affine(e, &info.params)).collect(),
        nest: nest.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_frontend::load_program;

    #[test]
    fn collects_defs_and_uses_with_nest() {
        let (p, info) = load_program(
            "
      SUBROUTINE f(x)
      REAL x(100)
      do i = 1, 95
        x(i) = 0.5 * x(i+5)
      enddo
      END
",
        )
        .unwrap();
        let u = &p.units[0];
        let refs = collect_refs(u, info.unit(u.name));
        assert_eq!(refs.len(), 2);
        let def = refs.iter().find(|r| r.is_def).unwrap();
        let usr = refs.iter().find(|r| !r.is_def).unwrap();
        let i = p.interner.get("i").unwrap();
        assert_eq!(def.subs[0].as_ref().unwrap(), &Affine::sym(i));
        assert_eq!(usr.subs[0].as_ref().unwrap(), &Affine::sym(i).plus_const(5));
        assert_eq!(def.nest.len(), 1);
        assert_eq!(def.nest[0].lo.as_ref().unwrap().as_const(), Some(1));
        assert_eq!(def.nest[0].hi.as_ref().unwrap().as_const(), Some(95));
    }

    #[test]
    fn swept_rsd_vectorizes_over_nest() {
        let (p, info) = load_program(
            "
      SUBROUTINE f(z)
      REAL z(100,100)
      do i = 1, 100
        do k = 1, 95
          z(k,i) = z(k+5,i)
        enddo
      enddo
      END
",
        )
        .unwrap();
        let u = &p.units[0];
        let refs = collect_refs(u, info.unit(u.name));
        let usr = refs.iter().find(|r| !r.is_def).unwrap();
        let swept = usr.swept_rsd().unwrap();
        // z(k+5, i) over k=1:95, i=1:100  =>  z(6:100, 1:100)
        assert_eq!(
            swept,
            Rsd::new(vec![Triplet::lit(6, 100), Triplet::lit(1, 100)])
        );
    }

    #[test]
    fn nonaffine_subscript_is_none() {
        let (p, info) = load_program(
            "
      SUBROUTINE f(z, idx)
      REAL z(100)
      INTEGER idx(100)
      do i = 1, 100
        z(idx(i)) = 0.0
      enddo
      END
",
        )
        .unwrap();
        let u = &p.units[0];
        let refs = collect_refs(u, info.unit(u.name));
        let zdef = refs.iter().find(|r| r.is_def).unwrap();
        assert!(zdef.subs[0].is_none());
        assert!(zdef.point_rsd().is_none());
        // idx(i) is itself a use.
        assert!(refs.iter().any(|r| !r.is_def));
    }

    #[test]
    fn symbolic_bounds_kept() {
        let (p, info) = load_program(
            "
      SUBROUTINE f(z, n)
      REAL z(100)
      INTEGER n
      do i = 2, n
        z(i) = z(i-1)
      enddo
      END
",
        )
        .unwrap();
        let u = &p.units[0];
        let refs = collect_refs(u, info.unit(u.name));
        let n = p.interner.get("n").unwrap();
        let usr = refs.iter().find(|r| !r.is_def).unwrap();
        let swept = usr.swept_rsd().unwrap();
        // z(i-1) over i=2:n -> z(1:n-1)
        assert_eq!(swept.dims[0].lo.as_const(), Some(1));
        assert_eq!(swept.dims[0].hi, Affine::sym(n).plus_const(-1));
    }
}
