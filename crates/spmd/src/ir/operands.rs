//! The one description of where things sit inside a statement.
//!
//! Every pass that asks a *structural* question of the IR — what does this
//! statement read, define, name, call, contain — is a closure over
//! [`SStmt::operands`] (or [`SStmt::operands_mut`] when it rewrites in
//! place); none of them enumerates statement kinds itself. The matches in
//! this file are exhaustive and the wildcard lint below keeps them so:
//! a new `SStmt` or `SExpr` variant fails to compile here (and in the
//! semantic consumers that execute, lower, emit or print each kind), not
//! silently in a `_ => {}` arm of some collector.
#![deny(clippy::wildcard_enum_match_arm)]

use super::{DistId, SActual, SExpr, SLval, SRect, SStmt};
use fortrand_ir::Sym;

/// How a statement uses an array it names in array position.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// The statement reads (gathers from) the array.
    Read,
    /// The statement writes the array: an element store, a scatter, or a
    /// change of its decomposition (`Remap`, `RemapGlobal`, `MarkDist`).
    Write,
    /// Passed to `callee` at formal position `pos`; whether that writes
    /// is the callee's business (see the optimizer's written-formals
    /// summary).
    Actual {
        /// Callee index into [`super::SpmdProgram::procs`].
        callee: usize,
        /// Position in the formal list.
        pos: usize,
    },
}

/// What a statement does with a scalar it names outside any expression.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// Assigned or received into.
    Def,
    /// The index of a `DO`: defined by the loop head only.
    DoHead,
}

/// One syntactic position of a statement, as reported by
/// [`SStmt::operands`].
#[derive(Clone, Copy, Debug)]
pub enum Operand<'a> {
    /// An expression the statement evaluates (subscripts and section
    /// bounds included), reported once at its outermost node; descend
    /// with [`SExpr::walk`].
    Expr(&'a SExpr),
    /// A scalar named directly.
    Scalar {
        /// The scalar.
        var: Sym,
        /// What happens to it.
        role: Role,
    },
    /// An array named in array position. Arrays read *inside* an
    /// expression (`Elem`, `CurOwner`) are part of that expression;
    /// [`walk_array_mentions`] reports both.
    Array {
        /// The array.
        name: Sym,
        /// What the statement does with it.
        access: Access,
        /// The section communicated, for section operations.
        section: Option<&'a SRect>,
    },
    /// A distribution the statement installs.
    Dist(DistId),
    /// The callee of a `Call`. Its actuals follow in order — arrays as
    /// `Array { access: Actual { .. } }`, scalars as `Expr` — then its
    /// copy-outs.
    Callee(usize),
    /// After the call returns, `callee`'s scalar `formal` is copied into
    /// the caller's `caller` (a definition of `caller`).
    CopyOut {
        /// Callee index.
        callee: usize,
        /// Scalar in the callee's scope.
        formal: Sym,
        /// Scalar in the caller's scope.
        caller: Sym,
    },
    /// A nested statement list (`DO` body, `IF` branch).
    Body(&'a [SStmt]),
}

/// [`Operand`] with every identifier and expression borrowed mutably, as
/// reported by [`SStmt::operands_mut`]: same cases, same order.
#[derive(Debug)]
#[allow(missing_docs)] // field-for-field the same as `Operand`
pub enum OperandMut<'a> {
    Expr(&'a mut SExpr),
    Scalar {
        var: &'a mut Sym,
        role: Role,
    },
    Array {
        name: &'a mut Sym,
        access: Access,
        section: Option<&'a mut SRect>,
    },
    Dist(&'a mut DistId),
    Callee(&'a mut usize),
    CopyOut {
        callee: usize,
        formal: &'a mut Sym,
        caller: &'a mut Sym,
    },
    Body(&'a mut Vec<SStmt>),
}

/// What a statement contributes to message traffic and decomposition
/// state. A posted operation counts as the message it initiates; its wait
/// is a [`MsgKind::Wait`] and carries no traffic of its own.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// A point-to-point section message leaves (`Send`, `PostSend`).
    Send {
        /// Message tag.
        tag: u64,
    },
    /// A point-to-point section message is matched (`Recv`, `PostRecv`).
    Recv {
        /// Message tag.
        tag: u64,
    },
    /// A run-time resolution element message leaves.
    ElemSend {
        /// Message tag.
        tag: u64,
    },
    /// A run-time resolution element message arrives.
    ElemRecv {
        /// Message tag.
        tag: u64,
    },
    /// A broadcast starts (blocking or posted).
    Bcast,
    /// Completion of a posted operation.
    Wait,
    /// Data moves to a new decomposition (`Remap`, `RemapGlobal`).
    Remap,
    /// The decomposition changes without moving data (`MarkDist`).
    Mark,
}

impl SRect {
    /// Every bound expression, `lo` then `hi`, dimension by dimension.
    pub fn bounds(&self) -> impl Iterator<Item = &SExpr> {
        self.dims.iter().flat_map(|(lo, hi, _)| [lo, hi])
    }

    /// [`SRect::bounds`], mutably.
    pub fn bounds_mut(&mut self) -> impl Iterator<Item = &mut SExpr> {
        self.dims.iter_mut().flat_map(|(lo, hi, _)| [lo, hi])
    }
}

impl SExpr {
    /// Calls `f` on each direct subexpression, left to right.
    pub fn children<'a>(&'a self, f: &mut dyn FnMut(&'a SExpr)) {
        match self {
            SExpr::Int(_) | SExpr::Real(_) | SExpr::Var(_) | SExpr::MyP | SExpr::NProcs => {}
            SExpr::Elem { subs: xs, .. }
            | SExpr::Owner { subs: xs, .. }
            | SExpr::CurOwner { subs: xs, .. }
            | SExpr::Intr { args: xs, .. } => xs.iter().for_each(f),
            SExpr::Bin { l, r, .. } => {
                f(l);
                f(r);
            }
            SExpr::Neg(x) | SExpr::Not(x) | SExpr::LocalIdx { sub: x, .. } => f(x),
        }
    }

    /// [`SExpr::children`], mutably.
    pub fn children_mut(&mut self, f: &mut dyn FnMut(&mut SExpr)) {
        match self {
            SExpr::Int(_) | SExpr::Real(_) | SExpr::Var(_) | SExpr::MyP | SExpr::NProcs => {}
            SExpr::Elem { subs: xs, .. }
            | SExpr::Owner { subs: xs, .. }
            | SExpr::CurOwner { subs: xs, .. }
            | SExpr::Intr { args: xs, .. } => xs.iter_mut().for_each(f),
            SExpr::Bin { l, r, .. } => {
                f(l);
                f(r);
            }
            SExpr::Neg(x) | SExpr::Not(x) | SExpr::LocalIdx { sub: x, .. } => f(x),
        }
    }

    /// Calls `f` on every node, parents before children, left to right.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a SExpr)) {
        f(self);
        self.children(&mut |c| c.walk(f));
    }

    /// Calls `f` on every node, children before parents, so `f` may
    /// replace a node wholesale without being shown the replacement.
    pub fn walk_mut(&mut self, f: &mut dyn FnMut(&mut SExpr)) {
        self.children_mut(&mut |c| c.walk_mut(f));
        f(self);
    }
}

fn array_operand<'a>(
    name: Sym,
    access: Access,
    section: &'a SRect,
    f: &mut dyn FnMut(Operand<'a>),
) {
    f(Operand::Array {
        name,
        access,
        section: Some(section),
    });
    section.bounds().for_each(|e| f(Operand::Expr(e)));
}

fn array_operand_mut(
    name: &mut Sym,
    access: Access,
    section: &mut SRect,
    f: &mut dyn FnMut(OperandMut<'_>),
) {
    f(OperandMut::Array {
        name,
        access,
        section: Some(&mut *section),
    });
    section.bounds_mut().for_each(|e| f(OperandMut::Expr(e)));
}

fn lval_operands<'a>(l: &'a SLval, f: &mut dyn FnMut(Operand<'a>)) {
    match l {
        SLval::Scalar(v) => f(Operand::Scalar {
            var: *v,
            role: Role::Def,
        }),
        SLval::Elem { array, subs } => {
            f(Operand::Array {
                name: *array,
                access: Access::Write,
                section: None,
            });
            subs.iter().for_each(|e| f(Operand::Expr(e)));
        }
    }
}

fn lval_operands_mut(l: &mut SLval, f: &mut dyn FnMut(OperandMut<'_>)) {
    match l {
        SLval::Scalar(var) => f(OperandMut::Scalar {
            var,
            role: Role::Def,
        }),
        SLval::Elem { array, subs } => {
            f(OperandMut::Array {
                name: array,
                access: Access::Write,
                section: None,
            });
            subs.iter_mut().for_each(|e| f(OperandMut::Expr(e)));
        }
    }
}

impl SStmt {
    /// Reports every syntactic position of this statement, in source
    /// order (an assignment's value before its target). Nested bodies are
    /// reported, not entered; [`walk_operands`] enters them.
    pub fn operands<'a>(&'a self, f: &mut dyn FnMut(Operand<'a>)) {
        match self {
            SStmt::Comment(_) | SStmt::Return | SStmt::Stop | SStmt::WaitSend { handle: _ } => {}
            SStmt::Assign { lhs, rhs } => {
                f(Operand::Expr(rhs));
                lval_operands(lhs, f);
            }
            SStmt::Do {
                var,
                lo,
                hi,
                step: _,
                body,
            } => {
                f(Operand::Scalar {
                    var: *var,
                    role: Role::DoHead,
                });
                f(Operand::Expr(lo));
                f(Operand::Expr(hi));
                f(Operand::Body(body));
            }
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                f(Operand::Expr(cond));
                f(Operand::Body(then_body));
                f(Operand::Body(else_body));
            }
            SStmt::Call {
                proc,
                args,
                copy_out,
            } => {
                let callee = *proc;
                f(Operand::Callee(callee));
                for (pos, a) in args.iter().enumerate() {
                    match a {
                        SActual::Array(name) => f(Operand::Array {
                            name: *name,
                            access: Access::Actual { callee, pos },
                            section: None,
                        }),
                        SActual::Scalar(e) => f(Operand::Expr(e)),
                    }
                }
                for &(formal, caller) in copy_out {
                    f(Operand::CopyOut {
                        callee,
                        formal,
                        caller,
                    });
                }
            }
            SStmt::Send {
                to: peer,
                tag: _,
                parts,
            }
            | SStmt::PostSend {
                handle: _,
                to: peer,
                tag: _,
                parts,
            } => {
                f(Operand::Expr(peer));
                for (array, section) in parts {
                    array_operand(*array, Access::Read, section, f);
                }
            }
            SStmt::Recv {
                from,
                tag: _,
                parts,
            } => {
                f(Operand::Expr(from));
                for (array, section) in parts {
                    array_operand(*array, Access::Write, section, f);
                }
            }
            SStmt::SendElem { to, tag: _, value } => {
                f(Operand::Expr(to));
                f(Operand::Expr(value));
            }
            SStmt::RecvElem { from, tag: _, lhs } => {
                f(Operand::Expr(from));
                lval_operands(lhs, f);
            }
            SStmt::Bcast { root, parts } => {
                f(Operand::Expr(root));
                for p in parts {
                    array_operand(p.src_array, Access::Read, &p.src_section, f);
                    array_operand(p.dst_array, Access::Write, &p.dst_section, f);
                }
            }
            SStmt::PostRecv {
                handle: _,
                from,
                tag: _,
            } => f(Operand::Expr(from)),
            SStmt::WaitRecv { handle: _, parts } => {
                for (array, section) in parts {
                    array_operand(*array, Access::Write, section, f);
                }
            }
            SStmt::PostBcast {
                handle: _,
                root,
                src,
            } => {
                f(Operand::Expr(root));
                for (array, section) in src {
                    array_operand(*array, Access::Read, section, f);
                }
            }
            SStmt::WaitBcast { handle: _, dst } => {
                for (array, section) in dst {
                    array_operand(*array, Access::Write, section, f);
                }
            }
            SStmt::Remap { array, to_dist }
            | SStmt::RemapGlobal { array, to_dist }
            | SStmt::MarkDist { array, to_dist } => {
                f(Operand::Array {
                    name: *array,
                    access: Access::Write,
                    section: None,
                });
                f(Operand::Dist(*to_dist));
            }
            SStmt::Print { args } => args.iter().for_each(|e| f(Operand::Expr(e))),
        }
    }

    /// [`SStmt::operands`] with every position borrowed mutably: the same
    /// positions in the same order.
    pub fn operands_mut(&mut self, f: &mut dyn FnMut(OperandMut<'_>)) {
        match self {
            SStmt::Comment(_) | SStmt::Return | SStmt::Stop | SStmt::WaitSend { handle: _ } => {}
            SStmt::Assign { lhs, rhs } => {
                f(OperandMut::Expr(rhs));
                lval_operands_mut(lhs, f);
            }
            SStmt::Do {
                var,
                lo,
                hi,
                step: _,
                body,
            } => {
                f(OperandMut::Scalar {
                    var,
                    role: Role::DoHead,
                });
                f(OperandMut::Expr(lo));
                f(OperandMut::Expr(hi));
                f(OperandMut::Body(body));
            }
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                f(OperandMut::Expr(cond));
                f(OperandMut::Body(then_body));
                f(OperandMut::Body(else_body));
            }
            SStmt::Call {
                proc,
                args,
                copy_out,
            } => {
                // `Actual`/`CopyOut` name the callee as it was on entry,
                // whatever `f` does to the `Callee` operand.
                let callee = *proc;
                f(OperandMut::Callee(proc));
                for (pos, a) in args.iter_mut().enumerate() {
                    match a {
                        SActual::Array(name) => f(OperandMut::Array {
                            name,
                            access: Access::Actual { callee, pos },
                            section: None,
                        }),
                        SActual::Scalar(e) => f(OperandMut::Expr(e)),
                    }
                }
                for (formal, caller) in copy_out {
                    f(OperandMut::CopyOut {
                        callee,
                        formal,
                        caller,
                    });
                }
            }
            SStmt::Send {
                to: peer,
                tag: _,
                parts,
            }
            | SStmt::PostSend {
                handle: _,
                to: peer,
                tag: _,
                parts,
            } => {
                f(OperandMut::Expr(peer));
                for (array, section) in parts {
                    array_operand_mut(array, Access::Read, section, f);
                }
            }
            SStmt::Recv {
                from,
                tag: _,
                parts,
            } => {
                f(OperandMut::Expr(from));
                for (array, section) in parts {
                    array_operand_mut(array, Access::Write, section, f);
                }
            }
            SStmt::SendElem { to, tag: _, value } => {
                f(OperandMut::Expr(to));
                f(OperandMut::Expr(value));
            }
            SStmt::RecvElem { from, tag: _, lhs } => {
                f(OperandMut::Expr(from));
                lval_operands_mut(lhs, f);
            }
            SStmt::Bcast { root, parts } => {
                f(OperandMut::Expr(root));
                for p in parts {
                    array_operand_mut(&mut p.src_array, Access::Read, &mut p.src_section, f);
                    array_operand_mut(&mut p.dst_array, Access::Write, &mut p.dst_section, f);
                }
            }
            SStmt::PostRecv {
                handle: _,
                from,
                tag: _,
            } => f(OperandMut::Expr(from)),
            SStmt::WaitRecv { handle: _, parts } => {
                for (array, section) in parts {
                    array_operand_mut(array, Access::Write, section, f);
                }
            }
            SStmt::PostBcast {
                handle: _,
                root,
                src,
            } => {
                f(OperandMut::Expr(root));
                for (array, section) in src {
                    array_operand_mut(array, Access::Read, section, f);
                }
            }
            SStmt::WaitBcast { handle: _, dst } => {
                for (array, section) in dst {
                    array_operand_mut(array, Access::Write, section, f);
                }
            }
            SStmt::Remap { array, to_dist }
            | SStmt::RemapGlobal { array, to_dist }
            | SStmt::MarkDist { array, to_dist } => {
                f(OperandMut::Array {
                    name: array,
                    access: Access::Write,
                    section: None,
                });
                f(OperandMut::Dist(to_dist));
            }
            SStmt::Print { args } => args.iter_mut().for_each(|e| f(OperandMut::Expr(e))),
        }
    }

    /// The statement's message kind; `None` for everything that neither
    /// communicates nor touches decomposition state.
    pub fn msg_kind(&self) -> Option<MsgKind> {
        match self {
            SStmt::Send { tag, .. } | SStmt::PostSend { tag, .. } => {
                Some(MsgKind::Send { tag: *tag })
            }
            SStmt::Recv { tag, .. } | SStmt::PostRecv { tag, .. } => {
                Some(MsgKind::Recv { tag: *tag })
            }
            SStmt::SendElem { tag, .. } => Some(MsgKind::ElemSend { tag: *tag }),
            SStmt::RecvElem { tag, .. } => Some(MsgKind::ElemRecv { tag: *tag }),
            SStmt::Bcast { .. } | SStmt::PostBcast { .. } => Some(MsgKind::Bcast),
            SStmt::WaitSend { .. } | SStmt::WaitRecv { .. } | SStmt::WaitBcast { .. } => {
                Some(MsgKind::Wait)
            }
            SStmt::Remap { .. } | SStmt::RemapGlobal { .. } => Some(MsgKind::Remap),
            SStmt::MarkDist { .. } => Some(MsgKind::Mark),
            SStmt::Comment(_)
            | SStmt::Assign { .. }
            | SStmt::Do { .. }
            | SStmt::If { .. }
            | SStmt::Call { .. }
            | SStmt::Return
            | SStmt::Print { .. }
            | SStmt::Stop => None,
        }
    }

    /// True for communication and decomposition-state statements (posted
    /// forms and waits included): the barriers of every code motion.
    pub fn is_comm(&self) -> bool {
        self.msg_kind().is_some()
    }
}

/// Calls `f` on every statement of `body`, nested ones included, each
/// before the statements it contains.
pub fn walk_stmts<'a>(body: &'a [SStmt], f: &mut dyn FnMut(&'a SStmt)) {
    for s in body {
        f(s);
        s.operands(&mut |op| {
            if let Operand::Body(b) = op {
                walk_stmts(b, f);
            }
        });
    }
}

/// Calls `f` on every operand of every statement of `body`, entering
/// nested bodies in place of reporting them.
pub fn walk_operands<'a>(body: &'a [SStmt], f: &mut dyn FnMut(Operand<'a>)) {
    for s in body {
        s.operands(&mut |op| {
            if let Operand::Body(b) = op {
                walk_operands(b, f);
            } else {
                f(op);
            }
        });
    }
}

/// [`walk_operands`], mutably.
pub fn walk_operands_mut(body: &mut [SStmt], f: &mut dyn FnMut(OperandMut<'_>)) {
    for s in body {
        s.operands_mut(&mut |op| {
            if let OperandMut::Body(b) = op {
                walk_operands_mut(b, f);
            } else {
                f(op);
            }
        });
    }
}

/// Calls `f` on every array `body` names: [`Operand::Array`] positions
/// with their access, and element or current-owner reads inside
/// expressions as [`Access::Read`].
pub fn walk_array_mentions(body: &[SStmt], f: &mut dyn FnMut(Sym, Access)) {
    walk_operands(body, &mut |op| match op {
        Operand::Array { name, access, .. } => f(name, access),
        Operand::Expr(e) => e.walk(&mut |x| {
            if let SExpr::Elem { array, .. } | SExpr::CurOwner { array, .. } = x {
                f(*array, Access::Read);
            }
        }),
        Operand::Scalar { .. }
        | Operand::Dist(_)
        | Operand::Callee(_)
        | Operand::CopyOut { .. }
        | Operand::Body(_) => {}
    });
}

/// Calls `f` on every scalar `body` names, in first-occurrence order:
/// variables read inside expressions, [`Operand::Scalar`] positions
/// whatever their role, and copy-out targets.
pub fn walk_scalar_mentions(body: &[SStmt], f: &mut dyn FnMut(Sym)) {
    walk_operands(body, &mut |op| match op {
        Operand::Expr(e) => e.walk(&mut |x| {
            if let SExpr::Var(s) = x {
                f(*s);
            }
        }),
        Operand::Scalar { var, .. } | Operand::CopyOut { caller: var, .. } => f(var),
        Operand::Array { .. } | Operand::Dist(_) | Operand::Callee(_) | Operand::Body(_) => {}
    });
}
