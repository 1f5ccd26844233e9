//! Symbol / distribution-id / procedure-index remapping over SPMD
//! procedures.
//!
//! The compiler generates each unit position-independent: its symbols,
//! distributions and callees are indices into tables private to the unit.
//! Grafting the unit into a program — whether it was just generated, came
//! back from a pool worker or out of an artifact store — rewrites its
//! procedure over the unit→program maps with this traversal.

use crate::ir::{walk_operands_mut, DistId, OperandMut, SExpr, SProc};
use fortrand_ir::Sym;

/// The three id maps a remap applies. Each is total over the ids appearing
/// in the procedure being rewritten.
pub struct ProcRemap<'a> {
    /// Symbol map.
    pub sym: &'a dyn Fn(Sym) -> Sym,
    /// Distribution-id map.
    pub dist: &'a dyn Fn(DistId) -> DistId,
    /// Procedure-index map for `SStmt::Call::proc`.
    pub proc: &'a dyn Fn(usize) -> usize,
}

/// Rewrites every `Sym`, `DistId` and callee index in `p` in place.
pub fn remap_proc(p: &mut SProc, m: &ProcRemap) {
    p.name = (m.sym)(p.name);
    for f in &mut p.formals {
        f.name = (m.sym)(f.name);
    }
    for d in &mut p.decls {
        d.name = (m.sym)(d.name);
        d.dist = (m.dist)(d.dist);
        d.owner_dist = d.owner_dist.map(m.dist);
    }
    let node = &mut |e: &mut SExpr| match e {
        SExpr::Var(s) | SExpr::Elem { array: s, .. } | SExpr::CurOwner { array: s, .. } => {
            *s = (m.sym)(*s)
        }
        SExpr::Owner { dist, .. } | SExpr::LocalIdx { dist, .. } => *dist = (m.dist)(*dist),
        SExpr::Int(_)
        | SExpr::Real(_)
        | SExpr::MyP
        | SExpr::NProcs
        | SExpr::Bin { .. }
        | SExpr::Neg(_)
        | SExpr::Not(_)
        | SExpr::Intr { .. } => {}
    };
    walk_operands_mut(&mut p.body, &mut |op| match op {
        OperandMut::Expr(e) => e.walk_mut(node),
        OperandMut::Scalar { var: s, .. } => *s = (m.sym)(*s),
        OperandMut::Array { name, .. } => *name = (m.sym)(*name),
        OperandMut::Dist(d) => *d = (m.dist)(*d),
        OperandMut::Callee(c) => *c = (m.proc)(*c),
        OperandMut::CopyOut { formal, caller, .. } => {
            *formal = (m.sym)(*formal);
            *caller = (m.sym)(*caller);
        }
        OperandMut::Body(_) => {}
    });
}
