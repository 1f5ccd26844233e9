//! Static scalar typing for the native backend.
//!
//! The simulators carry every scalar as a dynamic `Value::{I, R}` because
//! the I/R distinction is *semantic* (integer division, `Pow` clamping).
//! The emitted Rust program wants typed locals (`i64`/`f64`) on the hot
//! paths, so this pass infers, per procedure and scalar, a three-point
//! lattice
//!
//! ```text
//!        V            (dynamically I or R — emitted as shim::Value)
//!       / \
//!      I   R          (always integer / always real)
//!       \ /
//!        ⊥            (never assigned — reads as I(0), emitted as i64)
//! ```
//!
//! by a monotone interprocedural fixpoint over assignments, loop
//! variables, call bindings (actual → formal), Fortran copy-out
//! (formal → caller variable) and `RecvElem` (an element off the wire is
//! `R`). Nothing forces `V`: it arises only where an `I` and an `R`
//! definition of one scalar join. The lattice has height 2, so the
//! fixpoint is cheap and trivially terminating.

use crate::ir::*;
use fortrand_ir::Sym;
use std::collections::BTreeMap;

/// Inferred type of one scalar within one procedure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ty {
    /// Always `Value::I` at run time.
    I,
    /// Always `Value::R` at run time.
    R,
    /// Either, decided dynamically — carried as `shim::Value`.
    V,
}

fn join(a: Option<Ty>, b: Ty) -> Ty {
    match a {
        None => b,
        Some(x) if x == b => x,
        Some(_) => Ty::V,
    }
}

/// Per-procedure scalar type environments (same indexing as
/// `SpmdProgram::procs`). Unassigned scalars default to [`Ty::I`]
/// (uninitialized reads are `I(0)` in the simulators).
pub(crate) struct ScalarTypes {
    pub envs: Vec<BTreeMap<Sym, Ty>>,
}

impl ScalarTypes {
    pub fn ty_of(&self, proc: usize, sym: Sym) -> Ty {
        self.envs[proc].get(&sym).copied().unwrap_or(Ty::I)
    }

    /// Infers scalar types for every procedure of `prog`.
    pub fn infer(prog: &SpmdProgram) -> ScalarTypes {
        let mut st = ScalarTypes {
            envs: vec![BTreeMap::new(); prog.procs.len()],
        };
        loop {
            let before = st.envs.clone();
            for (idx, proc) in prog.procs.iter().enumerate() {
                st.walk_body(prog, idx, &proc.body);
            }
            if st.envs == before {
                return st;
            }
        }
    }

    fn set(&mut self, proc: usize, sym: Sym, ty: Ty) {
        let cur = self.envs[proc].get(&sym).copied();
        self.envs[proc].insert(sym, join(cur, ty));
    }

    /// Natural type of an expression under the current environment.
    pub fn ty(&self, proc: usize, e: &SExpr) -> Ty {
        match e {
            SExpr::Int(_) | SExpr::MyP | SExpr::NProcs => Ty::I,
            SExpr::Real(_) => Ty::R,
            SExpr::Var(s) => self.ty_of(proc, *s),
            SExpr::Elem { .. } => Ty::R,
            SExpr::Bin { op, l, r } => match op {
                SBinOp::Lt
                | SBinOp::Le
                | SBinOp::Gt
                | SBinOp::Ge
                | SBinOp::Eq
                | SBinOp::Ne
                | SBinOp::And
                | SBinOp::Or => Ty::I,
                _ => promote(self.ty(proc, l), self.ty(proc, r)),
            },
            SExpr::Neg(x) => self.ty(proc, x),
            SExpr::Not(_) => Ty::I,
            SExpr::Intr { name, args } => match name {
                SIntr::Sqrt | SIntr::Sign => Ty::R,
                SIntr::Abs => self.ty(proc, &args[0]),
                SIntr::Min | SIntr::Max | SIntr::Mod => {
                    let tys: Vec<Ty> = args.iter().map(|a| self.ty(proc, a)).collect();
                    if tys.iter().all(|&t| t == Ty::I) {
                        Ty::I
                    } else if tys.contains(&Ty::R) {
                        // The runtime all-I test definitely fails.
                        Ty::R
                    } else {
                        Ty::V
                    }
                }
            },
            SExpr::Owner { .. } | SExpr::CurOwner { .. } | SExpr::LocalIdx { .. } => Ty::I,
        }
    }

    fn walk_body(&mut self, prog: &SpmdProgram, proc: usize, body: &[SStmt]) {
        for s in body {
            self.walk_stmt(prog, proc, s);
        }
    }

    /// Exhaustive, so a statement kind that defines a scalar cannot be
    /// added without being typed here.
    #[deny(clippy::wildcard_enum_match_arm)]
    fn walk_stmt(&mut self, prog: &SpmdProgram, proc: usize, s: &SStmt) {
        match s {
            SStmt::Assign {
                lhs: SLval::Scalar(v),
                rhs,
            } => {
                let t = self.ty(proc, rhs);
                self.set(proc, *v, t);
            }
            SStmt::Assign { .. } => {}
            SStmt::Do { var, body, .. } => {
                self.set(proc, *var, Ty::I);
                self.walk_body(prog, proc, body);
            }
            SStmt::If {
                then_body,
                else_body,
                ..
            } => {
                self.walk_body(prog, proc, then_body);
                self.walk_body(prog, proc, else_body);
            }
            SStmt::Call {
                proc: callee,
                args,
                copy_out,
            } => {
                let formals = prog.procs[*callee].formals.clone();
                for (f, a) in formals.iter().zip(args) {
                    if let (false, SActual::Scalar(e)) = (f.is_array, a) {
                        let t = self.ty(proc, e);
                        self.set(*callee, f.name, t);
                    }
                }
                for (f, caller_var) in copy_out {
                    let t = self.ty_of(*callee, *f);
                    self.set(proc, *caller_var, t);
                }
            }
            SStmt::RecvElem {
                lhs: SLval::Scalar(v),
                ..
            } => {
                self.set(proc, *v, Ty::R);
            }
            SStmt::RecvElem { .. } => {}
            SStmt::Comment(_)
            | SStmt::Return
            | SStmt::Send { .. }
            | SStmt::Recv { .. }
            | SStmt::SendElem { .. }
            | SStmt::Bcast { .. }
            | SStmt::PostSend { .. }
            | SStmt::WaitSend { .. }
            | SStmt::PostRecv { .. }
            | SStmt::WaitRecv { .. }
            | SStmt::PostBcast { .. }
            | SStmt::WaitBcast { .. }
            | SStmt::Remap { .. }
            | SStmt::RemapGlobal { .. }
            | SStmt::MarkDist { .. }
            | SStmt::Print { .. }
            | SStmt::Stop => {}
        }
    }
}

/// Result type of an arithmetic binop on operands of the given types.
fn promote(a: Ty, b: Ty) -> Ty {
    match (a, b) {
        (Ty::I, Ty::I) => Ty::I,
        // Any statically-real operand forces the float path at run time.
        (Ty::R, _) | (_, Ty::R) => Ty::R,
        _ => Ty::V,
    }
}
