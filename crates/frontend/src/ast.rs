//! Abstract syntax tree for the Fortran 77 + Fortran D subset.
//!
//! Every statement carries a program-unique [`StmtId`]; analyses key their
//! facts (reaching decompositions, iteration sets, dependence edges, …) on
//! these ids so the tree itself stays immutable through the pipeline.

use fortrand_ir::digest::{Digester, StableHash};
use fortrand_ir::dist::DistKind;
use fortrand_ir::{Interner, Sym};

/// Program-unique statement identifier (also identifies call sites).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StmtId(pub u32);

/// A whole source file: one or more program units sharing an interner.
#[derive(Debug, Clone)]
pub struct SourceProgram {
    /// Units in source order; the main `PROGRAM` unit may appear anywhere.
    pub units: Vec<ProcUnit>,
    /// Interner for all identifiers in the program.
    pub interner: Interner,
}

impl SourceProgram {
    /// Finds a unit by name.
    pub fn unit(&self, name: Sym) -> Option<&ProcUnit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// Finds the main program unit.
    pub fn main_unit(&self) -> Option<&ProcUnit> {
        self.units.iter().find(|u| u.kind == UnitKind::Program)
    }

    /// Name lookup helper (panics if the symbol is foreign).
    pub fn name(&self, s: Sym) -> &str {
        self.interner.name(s)
    }
}

/// What kind of program unit this is.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnitKind {
    /// `PROGRAM name`.
    Program,
    /// `SUBROUTINE name(args)`.
    Subroutine,
    /// `type FUNCTION name(args)`.
    Function(Type),
}

/// A program unit: main program, subroutine or function.
#[derive(Debug, Clone)]
pub struct ProcUnit {
    /// Unit kind.
    pub kind: UnitKind,
    /// Unit name.
    pub name: Sym,
    /// Formal parameters in order.
    pub formals: Vec<Sym>,
    /// Declarations in source order.
    pub decls: Vec<Decl>,
    /// Executable statements.
    pub body: Vec<Stmt>,
    /// 1-based line of the unit header.
    pub line: u32,
}

impl ProcUnit {
    /// Iterates over every statement in the body, recursively, in source
    /// (pre-) order.
    pub fn walk(&self) -> StmtWalker<'_> {
        StmtWalker {
            stack: self.body.iter().rev().collect(),
        }
    }
}

impl ProcUnit {
    /// Renames every symbol through `sym`, moves statement ids up by `ids`
    /// and lines by `lines`: how a unit parsed alone enters a program whose
    /// earlier units hold `ids` statements and `lines` lines. Offsets add
    /// modulo 2³², so `ids.wrapping_neg()` and `lines.wrapping_neg()` move
    /// a unit back out.
    pub fn relocate(&mut self, sym: &dyn Fn(Sym) -> Sym, ids: u32, lines: u32) {
        self.name = sym(self.name);
        for f in &mut self.formals {
            *f = sym(*f);
        }
        for d in &mut self.decls {
            let (name, line) = match d {
                Decl::Var {
                    name, dims, line, ..
                }
                | Decl::Decomposition { name, dims, line } => {
                    for e in dims {
                        e.lo.relocate(sym);
                        e.hi.relocate(sym);
                    }
                    (name, line)
                }
                Decl::Parameter { name, value, line } => {
                    value.relocate(sym);
                    (name, line)
                }
            };
            *name = sym(*name);
            *line = line.wrapping_add(lines);
        }
        relocate_body(&mut self.body, sym, ids, lines);
        self.line = self.line.wrapping_add(lines);
    }

    /// A relocated copy (see [`ProcUnit::relocate`]).
    pub fn relocated(&self, sym: &dyn Fn(Sym) -> Sym, ids: u32, lines: u32) -> ProcUnit {
        let mut u = self.clone();
        u.relocate(sym, ids, lines);
        u
    }
}

fn relocate_body(body: &mut [Stmt], sym: &dyn Fn(Sym) -> Sym, ids: u32, lines: u32) {
    for s in body {
        s.id.0 = s.id.0.wrapping_add(ids);
        s.line = s.line.wrapping_add(lines);
        match &mut s.kind {
            StmtKind::Assign { lhs, rhs } => {
                match lhs {
                    LValue::Scalar(v) => *v = sym(*v),
                    LValue::Element { array, subs } => {
                        *array = sym(*array);
                        subs.iter_mut().for_each(|e| e.relocate(sym));
                    }
                }
                rhs.relocate(sym);
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                *var = sym(*var);
                lo.relocate(sym);
                hi.relocate(sym);
                step.iter_mut().for_each(|e| e.relocate(sym));
                relocate_body(body, sym, ids, lines);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                cond.relocate(sym);
                relocate_body(then_body, sym, ids, lines);
                relocate_body(else_body, sym, ids, lines);
            }
            StmtKind::Call { name, args } => {
                *name = sym(*name);
                args.iter_mut().for_each(|e| e.relocate(sym));
            }
            StmtKind::Return | StmtKind::Continue | StmtKind::Stop => {}
            StmtKind::Align { array, target, .. } => {
                *array = sym(*array);
                *target = sym(*target);
            }
            StmtKind::Distribute { target, .. } => *target = sym(*target),
            StmtKind::Print { args } => args.iter_mut().for_each(|e| e.relocate(sym)),
        }
    }
}

/// Pre-order statement iterator (see [`ProcUnit::walk`]).
pub struct StmtWalker<'a> {
    stack: Vec<&'a Stmt>,
}

impl<'a> Iterator for StmtWalker<'a> {
    type Item = &'a Stmt;
    fn next(&mut self) -> Option<&'a Stmt> {
        let s = self.stack.pop()?;
        match &s.kind {
            StmtKind::Do { body, .. } => {
                self.stack.extend(body.iter().rev());
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                self.stack.extend(else_body.iter().rev());
                self.stack.extend(then_body.iter().rev());
            }
            _ => {}
        }
        Some(s)
    }
}

/// Scalar types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Type {
    /// `INTEGER`.
    Integer,
    /// `REAL`.
    Real,
    /// `DOUBLE PRECISION`.
    Double,
    /// `LOGICAL`.
    Logical,
}

/// One declared array extent: `lo:hi` (Fortran default `lo = 1`).
/// Bounds may reference `PARAMETER` names; sema folds them to constants.
#[derive(Clone, Debug, PartialEq)]
pub struct Extent {
    /// Lower bound expression (default literal 1).
    pub lo: Expr,
    /// Upper bound expression.
    pub hi: Expr,
}

/// Declarations.
#[derive(Clone, Debug)]
pub enum Decl {
    /// `REAL X(100,100)`, `INTEGER n` — one entry per declared name.
    Var {
        /// Declared type.
        ty: Type,
        /// Name.
        name: Sym,
        /// Array extents (empty for scalars).
        dims: Vec<Extent>,
        /// Source line.
        line: u32,
    },
    /// `PARAMETER (name = value)`.
    Parameter {
        /// Constant name.
        name: Sym,
        /// Value expression (must fold to an integer constant).
        value: Expr,
        /// Source line.
        line: u32,
    },
    /// `DECOMPOSITION D(100,100)`.
    Decomposition {
        /// Decomposition name.
        name: Sym,
        /// Extents.
        dims: Vec<Extent>,
        /// Source line.
        line: u32,
    },
}

/// An executable statement.
#[derive(Clone, Debug)]
pub struct Stmt {
    /// Program-unique id.
    pub id: StmtId,
    /// 1-based source line.
    pub line: u32,
    /// The statement proper.
    pub kind: StmtKind,
}

/// Statement kinds.
#[derive(Clone, Debug)]
pub enum StmtKind {
    /// `lhs = rhs`.
    Assign {
        /// Assignment target.
        lhs: LValue,
        /// Right-hand side.
        rhs: Expr,
    },
    /// `DO var = lo, hi [, step] … ENDDO`.
    Do {
        /// Loop index variable.
        var: Sym,
        /// Lower bound.
        lo: Expr,
        /// Upper bound (inclusive).
        hi: Expr,
        /// Step (None ⇒ 1).
        step: Option<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `IF (cond) THEN … [ELSE …] ENDIF` (logical IF is desugared to this).
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then_body: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `CALL name(args)`.
    Call {
        /// Callee.
        name: Sym,
        /// Actual arguments.
        args: Vec<Expr>,
    },
    /// `RETURN`.
    Return,
    /// `CONTINUE` (no-op).
    Continue,
    /// `STOP`.
    Stop,
    /// `ALIGN array(i,j) WITH target(j,i+off)` — executable in Fortran D.
    Align {
        /// Array being (re)aligned.
        array: Sym,
        /// Decomposition or array aligned with.
        target: Sym,
        /// `perm[d]` = target dimension that array dimension `d` maps to.
        perm: Vec<usize>,
        /// Constant offsets per array dimension.
        offset: Vec<i64>,
    },
    /// `DISTRIBUTE target(BLOCK,:)` — executable in Fortran D.
    Distribute {
        /// Decomposition (or directly-distributed array).
        target: Sym,
        /// Per-dimension mapping.
        kinds: Vec<DistKind>,
    },
    /// `PRINT *, args` — executes as a no-op on non-zero ranks.
    Print {
        /// Items to print.
        args: Vec<Expr>,
    },
}

/// Assignment targets.
#[derive(Clone, Debug, PartialEq)]
pub enum LValue {
    /// Scalar variable.
    Scalar(Sym),
    /// Array element.
    Element {
        /// Array name.
        array: Sym,
        /// Subscript expressions.
        subs: Vec<Expr>,
    },
}

impl LValue {
    /// The defined variable.
    pub fn base(&self) -> Sym {
        match self {
            LValue::Scalar(s) => *s,
            LValue::Element { array, .. } => *array,
        }
    }
}

/// Binary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Pow,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
}

/// Recognized intrinsic functions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[allow(missing_docs)]
pub enum Intrinsic {
    Abs,
    Min,
    Max,
    Mod,
    Sqrt,
    Sign,
    Dble,
    Float,
    Int,
}

impl Intrinsic {
    /// Maps a (lower-case) source name to the intrinsic.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "abs" | "dabs" => Intrinsic::Abs,
            "min" | "min0" | "amin1" | "dmin1" => Intrinsic::Min,
            "max" | "max0" | "amax1" | "dmax1" => Intrinsic::Max,
            "mod" => Intrinsic::Mod,
            "sqrt" | "dsqrt" => Intrinsic::Sqrt,
            "sign" | "dsign" => Intrinsic::Sign,
            "dble" => Intrinsic::Dble,
            "float" | "real" => Intrinsic::Float,
            "int" => Intrinsic::Int,
            _ => return None,
        })
    }
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Real(f64),
    /// Logical literal (`.TRUE.` / `.FALSE.`).
    Logical(bool),
    /// Scalar variable reference (or whole-array actual argument).
    Var(Sym),
    /// Array element reference.
    Element {
        /// Array name.
        array: Sym,
        /// Subscripts.
        subs: Vec<Expr>,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Unary operation.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand.
        e: Box<Expr>,
    },
    /// Intrinsic call.
    Intrinsic {
        /// Which intrinsic.
        name: Intrinsic,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// User function call (resolved from `Element` by sema when the base
    /// name is a declared `FUNCTION`).
    FuncCall {
        /// Callee.
        name: Sym,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Integer literal helper.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Walks the expression tree, calling `f` on every node.
    pub fn visit(&self, f: &mut dyn FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Element { subs, .. } => {
                for s in subs {
                    s.visit(f);
                }
            }
            Expr::Bin { l, r, .. } => {
                l.visit(f);
                r.visit(f);
            }
            Expr::Un { e, .. } => e.visit(f),
            Expr::Intrinsic { args, .. } | Expr::FuncCall { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            _ => {}
        }
    }

    /// Renames every symbol through `sym`.
    pub fn relocate(&mut self, sym: &dyn Fn(Sym) -> Sym) {
        match self {
            Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) => {}
            Expr::Var(s) => *s = sym(*s),
            Expr::Element {
                array: s,
                subs: args,
            }
            | Expr::FuncCall { name: s, args } => {
                *s = sym(*s);
                args.iter_mut().for_each(|e| e.relocate(sym));
            }
            Expr::Bin { l, r, .. } => {
                l.relocate(sym);
                r.relocate(sym);
            }
            Expr::Un { e, .. } => e.relocate(sym),
            Expr::Intrinsic { args, .. } => args.iter_mut().for_each(|e| e.relocate(sym)),
        }
    }

    /// A copy with every symbol renamed through `sym`.
    pub fn relocated(&self, sym: &dyn Fn(Sym) -> Sym) -> Expr {
        let mut e = self.clone();
        e.relocate(sym);
        e
    }

    /// Collects every variable/array symbol mentioned.
    pub fn mentioned_syms(&self, out: &mut Vec<Sym>) {
        self.visit(&mut |e| match e {
            Expr::Var(s) => out.push(*s),
            Expr::Element { array, .. } => out.push(*array),
            Expr::FuncCall { name, .. } => out.push(*name),
            _ => {}
        });
    }
}

// Structural digests: a unit's header, declarations and statements make
// its source fingerprint in the §8 test and the artifact store's key
// (`incremental::sweep` in the `fortrand` crate). Source lines and
// statement ids are left out, so whitespace edits, reordering units in the file and cloning's
// statement renumbering leave it alone; nested bodies are lists, so moving
// a statement into or out of a loop or branch moves it.

impl StableHash for UnitKind {
    fn stable_hash(&self, d: &mut Digester) {
        match self {
            UnitKind::Program => d.tag(0),
            UnitKind::Subroutine => d.tag(1),
            UnitKind::Function(ty) => {
                d.tag(2);
                ty.stable_hash(d);
            }
        }
    }
}

impl StableHash for Type {
    fn stable_hash(&self, d: &mut Digester) {
        d.tag(*self as u8);
    }
}

impl StableHash for Extent {
    fn stable_hash(&self, d: &mut Digester) {
        self.lo.stable_hash(d);
        self.hi.stable_hash(d);
    }
}

impl StableHash for Decl {
    fn stable_hash(&self, d: &mut Digester) {
        match self {
            Decl::Var { ty, name, dims, .. } => {
                d.tag(0);
                ty.stable_hash(d);
                d.sym(*name);
                dims.stable_hash(d);
            }
            Decl::Parameter { name, value, .. } => {
                d.tag(1);
                d.sym(*name);
                value.stable_hash(d);
            }
            Decl::Decomposition { name, dims, .. } => {
                d.tag(2);
                d.sym(*name);
                dims.stable_hash(d);
            }
        }
    }
}

/// The statement's kind only: its id and line are not part of it.
impl StableHash for Stmt {
    fn stable_hash(&self, d: &mut Digester) {
        self.kind.stable_hash(d);
    }
}

impl StableHash for StmtKind {
    fn stable_hash(&self, d: &mut Digester) {
        match self {
            StmtKind::Assign { lhs, rhs } => {
                d.tag(0);
                lhs.stable_hash(d);
                rhs.stable_hash(d);
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                d.tag(1);
                d.sym(*var);
                lo.stable_hash(d);
                hi.stable_hash(d);
                step.stable_hash(d);
                body.stable_hash(d);
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                d.tag(2);
                cond.stable_hash(d);
                then_body.stable_hash(d);
                else_body.stable_hash(d);
            }
            StmtKind::Call { name, args } => {
                d.tag(3);
                d.sym(*name);
                args.stable_hash(d);
            }
            StmtKind::Return => d.tag(4),
            StmtKind::Continue => d.tag(5),
            StmtKind::Stop => d.tag(6),
            StmtKind::Align {
                array,
                target,
                perm,
                offset,
            } => {
                d.tag(7);
                d.sym(*array);
                d.sym(*target);
                perm.stable_hash(d);
                offset.stable_hash(d);
            }
            StmtKind::Distribute { target, kinds } => {
                d.tag(8);
                d.sym(*target);
                kinds.stable_hash(d);
            }
            StmtKind::Print { args } => {
                d.tag(9);
                args.stable_hash(d);
            }
        }
    }
}

impl StableHash for LValue {
    fn stable_hash(&self, d: &mut Digester) {
        match self {
            LValue::Scalar(s) => {
                d.tag(0);
                d.sym(*s);
            }
            LValue::Element { array, subs } => {
                d.tag(1);
                d.sym(*array);
                subs.stable_hash(d);
            }
        }
    }
}

impl StableHash for Expr {
    fn stable_hash(&self, d: &mut Digester) {
        match self {
            Expr::Int(v) => {
                d.tag(0);
                d.i64(*v);
            }
            Expr::Real(v) => {
                d.tag(1);
                v.stable_hash(d);
            }
            Expr::Logical(v) => {
                d.tag(2);
                v.stable_hash(d);
            }
            Expr::Var(s) => {
                d.tag(3);
                d.sym(*s);
            }
            Expr::Element { array, subs } => {
                d.tag(4);
                d.sym(*array);
                subs.stable_hash(d);
            }
            Expr::Bin { op, l, r } => {
                d.tag(5);
                d.tag(*op as u8);
                l.stable_hash(d);
                r.stable_hash(d);
            }
            Expr::Un { op, e } => {
                d.tag(6);
                d.tag(*op as u8);
                e.stable_hash(d);
            }
            Expr::Intrinsic { name, args } => {
                d.tag(7);
                d.tag(*name as u8);
                args.stable_hash(d);
            }
            Expr::FuncCall { name, args } => {
                d.tag(8);
                d.sym(*name);
                args.stable_hash(d);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_visits_nested_statements_in_order() {
        let mk = |id: u32, kind: StmtKind| Stmt {
            id: StmtId(id),
            line: 0,
            kind,
        };
        let inner = mk(2, StmtKind::Continue);
        let loop_stmt = mk(
            1,
            StmtKind::Do {
                var: Sym(0),
                lo: Expr::int(1),
                hi: Expr::int(10),
                step: None,
                body: vec![inner],
            },
        );
        let tail = mk(3, StmtKind::Return);
        let unit = ProcUnit {
            kind: UnitKind::Subroutine,
            name: Sym(1),
            formals: vec![],
            decls: vec![],
            body: vec![loop_stmt, tail],
            line: 1,
        };
        let ids: Vec<u32> = unit.walk().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn mentioned_syms_collects_all() {
        let e = Expr::Bin {
            op: BinOp::Add,
            l: Box::new(Expr::Var(Sym(5))),
            r: Box::new(Expr::Element {
                array: Sym(6),
                subs: vec![Expr::Var(Sym(7))],
            }),
        };
        let mut out = vec![];
        e.mentioned_syms(&mut out);
        assert_eq!(out, vec![Sym(5), Sym(6), Sym(7)]);
    }

    #[test]
    fn intrinsic_names_resolve() {
        assert_eq!(Intrinsic::from_name("dabs"), Some(Intrinsic::Abs));
        assert_eq!(Intrinsic::from_name("min"), Some(Intrinsic::Min));
        assert_eq!(Intrinsic::from_name("nosuch"), None);
    }
}
