//! Abstract syntax tree for the Fortran 77 + Fortran D subset.
//!
//! Every statement carries a program-unique [`StmtId`]; analyses key their
//! facts (reaching decompositions, iteration sets, dependence edges, …) on
//! these ids so the tree itself stays immutable through the pipeline.

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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
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
