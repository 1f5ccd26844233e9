//! Semantic analysis.
//!
//! Builds per-unit symbol tables, folds `PARAMETER` constants, resolves
//! array extents, applies Fortran implicit typing to undeclared scalars,
//! disambiguates `name(…)` into array reference / intrinsic / user function
//! call (rewriting the AST in place), checks call arity against defined
//! units, validates Fortran D statements, and flags call-site aliasing
//! (needed for the §6.4 rule that aliased variables must not be dynamically
//! remapped).

use crate::ast::*;
use crate::error::{FrontendError, Result};
use fortrand_ir::dist::DistKind;
use fortrand_ir::{Affine, Interner, Sym};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// Information about one declared (or implicitly declared) variable.
#[derive(Clone, Debug, PartialEq)]
pub struct VarInfo {
    /// Scalar type.
    pub ty: Type,
    /// Folded array extents (empty for scalars). Lower bounds are
    /// normalized to 1; a declared `a(0:n)` of extent `n+1` keeps `lo_off`.
    pub dims: Vec<i64>,
    /// Declared lower bounds (same length as `dims`), usually all 1.
    pub lower: Vec<i64>,
    /// True if the variable is a formal parameter of its unit.
    pub is_formal: bool,
}

impl VarInfo {
    /// Array rank (0 = scalar).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }
    /// True for arrays.
    pub fn is_array(&self) -> bool {
        !self.dims.is_empty()
    }
}

/// A call site collected during analysis.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Statement id of the `CALL`.
    pub stmt: StmtId,
    /// Callee unit name.
    pub callee: Sym,
    /// Actual argument expressions.
    pub args: Vec<Expr>,
}

/// Per-unit analysis results.
#[derive(Clone, Debug, Default)]
pub struct UnitInfo {
    /// All variables (declared + implicit), keyed by symbol.
    pub vars: BTreeMap<Sym, VarInfo>,
    /// Folded `PARAMETER` constants.
    pub params: BTreeMap<Sym, i64>,
    /// Declared decompositions and their extents.
    pub decomps: BTreeMap<Sym, Vec<i64>>,
    /// Formal parameters in order.
    pub formals: Vec<Sym>,
    /// `CALL` sites in pre-order.
    pub calls: Vec<CallSite>,
    /// Variables that appear aliased at some call in this unit
    /// (same base passed through two actuals of one call).
    pub aliased_vars: Vec<Sym>,
}

impl UnitInfo {
    /// A copy with every symbol renamed through `sym` and call-site
    /// statement ids moved up by `ids` (see [`ProcUnit::relocated`]):
    /// equal to what analyzing the renamed unit gives.
    pub fn relocated(&self, sym: &dyn Fn(Sym) -> Sym, ids: u32) -> UnitInfo {
        let calls: Vec<CallSite> = (self.calls.iter())
            .map(|c| CallSite {
                stmt: StmtId(c.stmt.0.wrapping_add(ids)),
                callee: sym(c.callee),
                args: c.args.iter().map(|a| a.relocated(sym)).collect(),
            })
            .collect();
        UnitInfo {
            vars: (self.vars.iter())
                .map(|(&s, v)| (sym(s), v.clone()))
                .collect(),
            params: self.params.iter().map(|(&s, &v)| (sym(s), v)).collect(),
            decomps: (self.decomps.iter())
                .map(|(&s, d)| (sym(s), d.clone()))
                .collect(),
            formals: self.formals.iter().map(|&f| sym(f)).collect(),
            aliased_vars: aliased_vars(&calls),
            calls,
        }
    }

    /// Looks up a variable.
    pub fn var(&self, s: Sym) -> Option<&VarInfo> {
        self.vars.get(&s)
    }
    /// True if `s` is an array here.
    pub fn is_array(&self, s: Sym) -> bool {
        self.vars.get(&s).map(|v| v.is_array()).unwrap_or(false)
    }
}

/// Whole-program analysis results.
#[derive(Clone, Debug, Default)]
pub struct ProgramInfo {
    /// Per-unit info, keyed by unit name.
    pub units: BTreeMap<Sym, UnitInfo>,
    /// Unit kinds, keyed by name (for callers that only have `ProgramInfo`).
    pub unit_kinds: BTreeMap<Sym, UnitKind>,
    /// Value of the `n$proc` parameter if declared anywhere.
    pub n_proc: Option<i64>,
}

impl ProgramInfo {
    /// Info for one unit.
    pub fn unit(&self, name: Sym) -> &UnitInfo {
        &self.units[&name]
    }
}

/// Runs semantic analysis, rewriting `Element` nodes that are actually
/// intrinsic or user-function calls.
pub fn analyze(prog: &mut SourceProgram) -> Result<ProgramInfo> {
    let interner = &prog.interner;
    let table = unit_table(
        (prog.units.iter()).map(|u| (u.name, u.kind, u.formals.len(), u.line)),
        interner,
    )?;
    let mut info = ProgramInfo {
        unit_kinds: prog.units.iter().map(|u| (u.name, u.kind)).collect(),
        ..Default::default()
    };
    let n_proc = interner.get("n$proc").unwrap_or(Sym(u32::MAX));
    for u in &mut prog.units {
        let ui = analyze_unit(u, interner, &mut |s| table.get(&s).copied())?;
        if let Some(&np) = ui.params.get(&n_proc) {
            info.n_proc = Some(np);
        }
        info.units.insert(u.name, ui);
    }
    Ok(info)
}

/// Pass 0: the unit name table, from each unit's name, kind, formal count
/// and header line in program order. Rejects a second unit of one name
/// and a second `PROGRAM`.
pub fn unit_table(
    units: impl IntoIterator<Item = (Sym, UnitKind, usize, u32)>,
    interner: &Interner,
) -> Result<FxHashMap<Sym, (UnitKind, usize)>> {
    let mut table = FxHashMap::default();
    let mut n_programs = 0;
    for (name, kind, formals, line) in units {
        if table.insert(name, (kind, formals)).is_some() {
            let name = interner.name(name);
            return Err(FrontendError::at(line, format!("duplicate unit `{name}`")));
        }
        if kind == UnitKind::Program {
            n_programs += 1;
        }
    }
    if n_programs > 1 {
        return Err(FrontendError::at(0, "more than one PROGRAM unit"));
    }
    Ok(table)
}

fn implicit_type(name: &str) -> Type {
    match name.chars().next() {
        Some(c) if ('i'..='n').contains(&c) => Type::Integer,
        _ => Type::Real,
    }
}

/// Pass 1 over one unit: its symbol table, its `PARAMETER`s and extents
/// folded, its `name(…)` references told apart and its Fortran D
/// statements checked. The unit table is read through `units`: the kind
/// and formal count of the unit a symbol names, if any; nothing else
/// outside the unit is read.
pub fn analyze_unit(
    u: &mut ProcUnit,
    interner: &Interner,
    units: &mut dyn FnMut(Sym) -> Option<(UnitKind, usize)>,
) -> Result<UnitInfo> {
    let mut ui = UnitInfo {
        formals: u.formals.clone(),
        ..Default::default()
    };

    // Parameters first (extents may reference them).
    for d in &u.decls {
        if let Decl::Parameter { name, value, line } = d {
            let v = fold_const(value, &ui.params).ok_or_else(|| {
                FrontendError::at(
                    *line,
                    "PARAMETER value must be an integer constant expression",
                )
            })?;
            ui.params.insert(*name, v);
        }
    }

    // Declared variables and decompositions.
    for d in &u.decls {
        match d {
            Decl::Var {
                ty,
                name,
                dims,
                line,
            } => {
                let mut extents = Vec::new();
                let mut lower = Vec::new();
                for e in dims {
                    let lo = fold_const(&e.lo, &ui.params)
                        .ok_or_else(|| FrontendError::at(*line, "array bound must be constant"))?;
                    let hi = fold_const(&e.hi, &ui.params)
                        .ok_or_else(|| FrontendError::at(*line, "array bound must be constant"))?;
                    if hi < lo {
                        return Err(FrontendError::at(
                            *line,
                            "array upper bound below lower bound",
                        ));
                    }
                    extents.push(hi - lo + 1);
                    lower.push(lo);
                }
                let is_formal = u.formals.contains(name);
                if ui
                    .vars
                    .insert(
                        *name,
                        VarInfo {
                            ty: *ty,
                            dims: extents,
                            lower,
                            is_formal,
                        },
                    )
                    .is_some()
                {
                    return Err(FrontendError::at(
                        *line,
                        format!("duplicate declaration of `{}`", interner.name(*name)),
                    ));
                }
            }
            Decl::Decomposition { name, dims, line } => {
                let mut extents = Vec::new();
                for e in dims {
                    let lo = fold_const(&e.lo, &ui.params).ok_or_else(|| {
                        FrontendError::at(*line, "decomposition bound must be constant")
                    })?;
                    let hi = fold_const(&e.hi, &ui.params).ok_or_else(|| {
                        FrontendError::at(*line, "decomposition bound must be constant")
                    })?;
                    if lo != 1 {
                        return Err(FrontendError::at(
                            *line,
                            "decomposition lower bounds must be 1",
                        ));
                    }
                    extents.push(hi);
                }
                ui.decomps.insert(*name, extents);
            }
            Decl::Parameter { .. } => {}
        }
    }

    // Undeclared formals become implicitly-typed scalars.
    for &f in &u.formals {
        ui.vars.entry(f).or_insert_with(|| VarInfo {
            ty: implicit_type(interner.name(f)),
            dims: vec![],
            lower: vec![],
            is_formal: true,
        });
    }

    // Walk and rewrite the body.
    let mut ctx = UnitCtx {
        ui: &mut ui,
        interner,
        units,
    };
    rewrite_body(&mut u.body, &mut ctx)?;
    ui.aliased_vars = aliased_vars(&ui.calls);

    Ok(ui)
}

/// Alias detection: the variables some call passes as the base of two
/// actuals, call by call, each call's in symbol order.
fn aliased_vars(calls: &[CallSite]) -> Vec<Sym> {
    let mut out: Vec<Sym> = Vec::new();
    for c in calls {
        let mut bases: Vec<Sym> = (c.args.iter())
            .filter_map(|a| match a {
                Expr::Var(v) => Some(*v),
                Expr::Element { array, .. } => Some(*array),
                _ => None,
            })
            .collect();
        bases.sort();
        for w in bases.windows(2) {
            if w[0] == w[1] && !out.contains(&w[0]) {
                out.push(w[0]);
            }
        }
    }
    out
}

struct UnitCtx<'a> {
    ui: &'a mut UnitInfo,
    interner: &'a Interner,
    units: &'a mut dyn FnMut(Sym) -> Option<(UnitKind, usize)>,
}

impl UnitCtx<'_> {
    fn declare_implicit(&mut self, s: Sym) {
        let name = self.interner.name(s);
        self.ui.vars.entry(s).or_insert_with(|| VarInfo {
            ty: implicit_type(name),
            dims: vec![],
            lower: vec![],
            is_formal: false,
        });
    }
}

fn rewrite_body(body: &mut [Stmt], ctx: &mut UnitCtx) -> Result<()> {
    for s in body.iter_mut() {
        let line = s.line;
        let sid = s.id;
        match &mut s.kind {
            StmtKind::Assign { lhs, rhs } => {
                rewrite_expr(rhs, ctx, line)?;
                match lhs {
                    LValue::Scalar(v) => {
                        if ctx.ui.params.contains_key(v) {
                            return Err(FrontendError::at(line, "assignment to PARAMETER"));
                        }
                        if ctx.ui.is_array(*v) {
                            return Err(FrontendError::at(
                                line,
                                format!(
                                    "whole-array assignment to `{}` is not supported",
                                    ctx.interner.name(*v)
                                ),
                            ));
                        }
                        ctx.declare_implicit(*v);
                    }
                    LValue::Element { array, subs } => {
                        for sub in subs.iter_mut() {
                            rewrite_expr(sub, ctx, line)?;
                        }
                        let vi = ctx.ui.vars.get(array).ok_or_else(|| {
                            FrontendError::at(
                                line,
                                format!(
                                    "assignment to undeclared array `{}`",
                                    ctx.interner.name(*array)
                                ),
                            )
                        })?;
                        if !vi.is_array() {
                            return Err(FrontendError::at(
                                line,
                                format!(
                                    "`{}` subscripted but is a scalar",
                                    ctx.interner.name(*array)
                                ),
                            ));
                        }
                        if vi.rank() != subs.len() {
                            return Err(FrontendError::at(
                                line,
                                format!(
                                    "`{}` has rank {}, got {} subscripts",
                                    ctx.interner.name(*array),
                                    vi.rank(),
                                    subs.len()
                                ),
                            ));
                        }
                    }
                }
            }
            StmtKind::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                ctx.declare_implicit(*var);
                rewrite_expr(lo, ctx, line)?;
                rewrite_expr(hi, ctx, line)?;
                if let Some(st) = step {
                    rewrite_expr(st, ctx, line)?;
                }
                rewrite_body(body, ctx)?;
            }
            StmtKind::If {
                cond,
                then_body,
                else_body,
            } => {
                rewrite_expr(cond, ctx, line)?;
                rewrite_body(then_body, ctx)?;
                rewrite_body(else_body, ctx)?;
            }
            StmtKind::Call { name, args } => {
                let expected = match (ctx.units)(*name) {
                    Some((UnitKind::Subroutine, formals)) => formals,
                    Some(_) => {
                        return Err(FrontendError::at(
                            line,
                            format!("`{}` is not a subroutine", ctx.interner.name(*name)),
                        ))
                    }
                    None => {
                        return Err(FrontendError::at(
                            line,
                            format!(
                                "call to undefined subroutine `{}`",
                                ctx.interner.name(*name)
                            ),
                        ))
                    }
                };
                if expected != args.len() {
                    return Err(FrontendError::at(
                        line,
                        format!(
                            "`{}` expects {} argument(s), got {}",
                            ctx.interner.name(*name),
                            expected,
                            args.len()
                        ),
                    ));
                }
                for a in args.iter_mut() {
                    rewrite_expr(a, ctx, line)?;
                }
                ctx.ui.calls.push(CallSite {
                    stmt: sid,
                    callee: *name,
                    args: args.clone(),
                });
            }
            StmtKind::Align {
                array,
                target,
                perm,
                offset,
            } => {
                let arr_rank = ctx
                    .ui
                    .vars
                    .get(array)
                    .filter(|v| v.is_array())
                    .map(|v| v.rank())
                    .ok_or_else(|| {
                        FrontendError::at(
                            line,
                            format!("ALIGN of non-array `{}`", ctx.interner.name(*array)),
                        )
                    })?;
                let tgt_rank = if let Some(d) = ctx.ui.decomps.get(target) {
                    d.len()
                } else if let Some(v) = ctx.ui.vars.get(target).filter(|v| v.is_array()) {
                    v.rank()
                } else {
                    return Err(FrontendError::at(
                        line,
                        format!(
                            "ALIGN target `{}` is neither decomposition nor array",
                            ctx.interner.name(*target)
                        ),
                    ));
                };
                if perm.is_empty() {
                    // `ALIGN A with B`: identity.
                    *perm = (0..arr_rank).collect();
                    *offset = vec![0; arr_rank];
                }
                if perm.len() != arr_rank {
                    return Err(FrontendError::at(
                        line,
                        "ALIGN dummy count differs from array rank",
                    ));
                }
                if perm.iter().any(|&p| p >= tgt_rank) {
                    return Err(FrontendError::at(line, "ALIGN maps past target rank"));
                }
            }
            StmtKind::Distribute { target, kinds } => {
                let tgt_rank = if let Some(d) = ctx.ui.decomps.get(target) {
                    d.len()
                } else if let Some(v) = ctx.ui.vars.get(target).filter(|v| v.is_array()) {
                    v.rank()
                } else {
                    return Err(FrontendError::at(
                        line,
                        format!(
                            "DISTRIBUTE target `{}` is neither decomposition nor array",
                            ctx.interner.name(*target)
                        ),
                    ));
                };
                if kinds.len() != tgt_rank {
                    return Err(FrontendError::at(
                        line,
                        "DISTRIBUTE kind count differs from rank",
                    ));
                }
                if let Some(DistKind::BlockCyclic(k)) = kinds
                    .iter()
                    .find(|k| matches!(k, DistKind::BlockCyclic(v) if *v < 1))
                {
                    return Err(FrontendError::at(
                        line,
                        format!("bad BLOCK_CYCLIC size {k:?}"),
                    ));
                }
            }
            StmtKind::Print { args } => {
                for a in args.iter_mut() {
                    rewrite_expr(a, ctx, line)?;
                }
            }
            StmtKind::Return | StmtKind::Continue | StmtKind::Stop => {}
        }
    }
    Ok(())
}

/// Rewrites one expression bottom-up: disambiguates `Element` into array
/// reference, intrinsic, or user-function call, and implicitly declares
/// mentioned scalars.
fn rewrite_expr(e: &mut Expr, ctx: &mut UnitCtx, line: u32) -> Result<()> {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) => Ok(()),
        Expr::Var(v) => {
            if !ctx.ui.params.contains_key(v) {
                ctx.declare_implicit(*v);
            }
            Ok(())
        }
        Expr::Bin { l, r, .. } => {
            rewrite_expr(l, ctx, line)?;
            rewrite_expr(r, ctx, line)
        }
        Expr::Un { e, .. } => rewrite_expr(e, ctx, line),
        Expr::Intrinsic { args, .. } | Expr::FuncCall { args, .. } => {
            for a in args.iter_mut() {
                rewrite_expr(a, ctx, line)?;
            }
            Ok(())
        }
        Expr::Element { array, subs } => {
            for s in subs.iter_mut() {
                rewrite_expr(s, ctx, line)?;
            }
            let name_str = ctx.interner.name(*array).to_string();
            if let Some(vi) = ctx.ui.vars.get(array) {
                if vi.is_array() {
                    if vi.rank() != subs.len() {
                        return Err(FrontendError::at(
                            line,
                            format!(
                                "`{}` has rank {}, got {} subscripts",
                                name_str,
                                vi.rank(),
                                subs.len()
                            ),
                        ));
                    }
                    return Ok(());
                }
                // declared scalar subscripted: if it's also a unit name,
                // fall through; else error.
                if (ctx.units)(*array).is_none() {
                    return Err(FrontendError::at(
                        line,
                        format!("scalar `{name_str}` used with subscripts"),
                    ));
                }
            }
            // Intrinsic?
            if let Some(intr) = Intrinsic::from_name(&name_str) {
                let args = std::mem::take(subs);
                *e = Expr::Intrinsic { name: intr, args };
                return Ok(());
            }
            // User function?
            if let Some((UnitKind::Function(_), expected)) = (ctx.units)(*array) {
                if expected != subs.len() {
                    return Err(FrontendError::at(
                        line,
                        format!(
                            "function `{name_str}` expects {expected} argument(s), got {}",
                            subs.len()
                        ),
                    ));
                }
                let args = std::mem::take(subs);
                let name = *array;
                *e = Expr::FuncCall { name, args };
                return Ok(());
            }
            Err(FrontendError::at(
                line,
                format!("`{name_str}` is not an array, intrinsic, or defined function"),
            ))
        }
    }
}

/// Folds an integer-constant expression using `params`.
pub fn fold_const(e: &Expr, params: &BTreeMap<Sym, i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Var(s) => params.get(s).copied(),
        Expr::Un { op: UnOp::Neg, e } => Some(-fold_const(e, params)?),
        Expr::Bin { op, l, r } => {
            let a = fold_const(l, params)?;
            let b = fold_const(r, params)?;
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if b == 0 {
                        return None;
                    }
                    a / b
                }
                BinOp::Pow => {
                    if b < 0 {
                        return None;
                    }
                    a.pow(b.min(31) as u32)
                }
                _ => return None,
            })
        }
        _ => None,
    }
}

/// Lowers an expression into the affine domain, folding `params`.
/// Returns `None` for non-affine expressions.
pub fn expr_affine(e: &Expr, params: &BTreeMap<Sym, i64>) -> Option<Affine> {
    match e {
        Expr::Int(v) => Some(Affine::konst(*v)),
        Expr::Var(s) => match params.get(s) {
            Some(&v) => Some(Affine::konst(v)),
            None => Some(Affine::sym(*s)),
        },
        Expr::Un { op: UnOp::Neg, e } => Some(-expr_affine(e, params)?),
        Expr::Bin { op, l, r } => {
            let a = expr_affine(l, params)?;
            let b = expr_affine(r, params)?;
            match op {
                BinOp::Add => Some(a + b),
                BinOp::Sub => Some(a - b),
                BinOp::Mul => {
                    if let Some(c) = a.as_const() {
                        Some(b.scale(c))
                    } else {
                        b.as_const().map(|c| a.scale(c))
                    }
                }
                BinOp::Div => {
                    let c = b.as_const()?;
                    let av = a.as_const()?;
                    if c == 0 {
                        None
                    } else {
                        Some(Affine::konst(av / c))
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn load(src: &str) -> (SourceProgram, ProgramInfo) {
        let mut p = parse_program(src).unwrap();
        let info = analyze(&mut p).unwrap();
        (p, info)
    }

    fn load_err(src: &str) -> FrontendError {
        let mut p = parse_program(src).unwrap();
        analyze(&mut p).unwrap_err()
    }

    const FIG1: &str = r#"
      PROGRAM P1
      REAL X(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      do i = 1,95
        X(i) = 0.5 * X(i+5)
      enddo
      call F1(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      do i = 1,95
        X(i) = 0.5 * X(i+5)
      enddo
      END
"#;

    #[test]
    fn fig1_analyzes() {
        let (p, info) = load(FIG1);
        let main = p.main_unit().unwrap();
        let ui = info.unit(main.name);
        let x = p.interner.get("x").unwrap();
        assert_eq!(ui.var(x).unwrap().dims, vec![100]);
        assert_eq!(info.n_proc, Some(4));
        // Implicit loop index i is an integer scalar.
        let i = p.interner.get("i").unwrap();
        assert_eq!(ui.var(i).unwrap().ty, Type::Integer);
        assert_eq!(ui.calls.len(), 1);
    }

    #[test]
    fn parameter_folding_in_extents() {
        let (p, info) = load(
            "
      PROGRAM P
      PARAMETER (n = 50)
      REAL A(n, 2*n)
      A(1,1) = 0.0
      END
",
        );
        let a = p.interner.get("a").unwrap();
        let main = p.main_unit().unwrap();
        assert_eq!(info.unit(main.name).var(a).unwrap().dims, vec![50, 100]);
    }

    #[test]
    fn intrinsic_rewrite() {
        let (p, _) = load(
            "
      PROGRAM P
      INTEGER u
      u = min(3, 5)
      END
",
        );
        if let StmtKind::Assign { rhs, .. } = &p.units[0].body[0].kind {
            assert!(matches!(
                rhs,
                Expr::Intrinsic {
                    name: Intrinsic::Min,
                    ..
                }
            ));
        } else {
            panic!()
        }
    }

    #[test]
    fn function_call_rewrite() {
        let (p, _) = load(
            "
      PROGRAM P
      REAL y
      y = f(2.0)
      END
      REAL FUNCTION f(x)
      REAL x
      f = x + 1.0
      END
",
        );
        if let StmtKind::Assign { rhs, .. } = &p.units[0].body[0].kind {
            assert!(matches!(rhs, Expr::FuncCall { .. }));
        } else {
            panic!()
        }
    }

    #[test]
    fn unknown_function_rejected() {
        let e = load_err(
            "
      PROGRAM P
      REAL y
      y = g(2.0)
      END
",
        );
        assert!(e.message.contains("not an array"), "{e}");
    }

    #[test]
    fn rank_mismatch_rejected() {
        let e = load_err(
            "
      PROGRAM P
      REAL A(10,10)
      A(1) = 0.0
      END
",
        );
        assert!(e.message.contains("rank"), "{e}");
    }

    #[test]
    fn call_arity_checked() {
        let e = load_err(
            "
      PROGRAM P
      call s(1)
      END
      SUBROUTINE s(a, b)
      INTEGER a, b
      END
",
        );
        assert!(e.message.contains("expects 2"), "{e}");
    }

    #[test]
    fn undefined_subroutine_rejected() {
        let e = load_err(
            "
      PROGRAM P
      call nosuch(1)
      END
",
        );
        assert!(e.message.contains("undefined subroutine"), "{e}");
    }

    #[test]
    fn alias_at_call_detected() {
        let (p, info) = load(
            "
      PROGRAM P
      REAL X(10)
      call s(X, X)
      END
      SUBROUTINE s(a, b)
      REAL a(10), b(10)
      END
",
        );
        let x = p.interner.get("x").unwrap();
        let main = p.main_unit().unwrap();
        assert_eq!(info.unit(main.name).aliased_vars, vec![x]);
    }

    #[test]
    fn distribute_rank_checked() {
        let e = load_err(
            "
      PROGRAM P
      REAL X(100,100)
      DISTRIBUTE X(BLOCK)
      END
",
        );
        assert!(e.message.contains("kind count"), "{e}");
    }

    #[test]
    fn align_transpose_rank_checked() {
        let (p, _) = load(
            "
      PROGRAM P
      REAL X(100,100), Y(100,100)
      ALIGN Y(i,j) with X(j,i)
      DISTRIBUTE X(BLOCK,:)
      END
",
        );
        assert!(matches!(p.units[0].body[0].kind, StmtKind::Align { .. }));
    }

    #[test]
    fn assignment_to_parameter_rejected() {
        let e = load_err(
            "
      PROGRAM P
      PARAMETER (n = 4)
      n = 5
      END
",
        );
        assert!(e.message.contains("PARAMETER"), "{e}");
    }

    #[test]
    fn expr_affine_lowering() {
        let (p, info) = load(
            "
      PROGRAM P
      PARAMETER (n = 10)
      INTEGER k
      k = 2*n + 3
      END
",
        );
        let main = p.main_unit().unwrap();
        let params = &info.unit(main.name).params;
        if let StmtKind::Assign { rhs, .. } = &p.units[0].body[0].kind {
            let a = expr_affine(rhs, params).unwrap();
            assert_eq!(a.as_const(), Some(23));
        }
    }

    #[test]
    fn expr_affine_symbolic() {
        let (p, _) = load(
            "
      PROGRAM P
      INTEGER k, i
      i = 1
      k = 3*i - 2
      END
",
        );
        if let StmtKind::Assign { rhs, .. } = &p.units[0].body[1].kind {
            let a = expr_affine(rhs, &BTreeMap::new()).unwrap();
            let i = p.interner.get("i").unwrap();
            assert_eq!(a.coeff(i), 3);
            assert_eq!(a.constant(), -2);
        }
    }

    #[test]
    fn nonaffine_returns_none() {
        let (p, _) = load(
            "
      PROGRAM P
      INTEGER k, i, j
      i = 1
      j = 2
      k = i*j
      END
",
        );
        if let StmtKind::Assign { rhs, .. } = &p.units[0].body[2].kind {
            assert!(expr_affine(rhs, &BTreeMap::new()).is_none());
        }
    }

    #[test]
    fn duplicate_unit_rejected() {
        let e = load_err(
            "
      SUBROUTINE s
      END
      SUBROUTINE s
      END
",
        );
        assert!(e.message.contains("duplicate unit"), "{e}");
    }

    #[test]
    fn lower_bound_declarations() {
        let (p, info) = load(
            "
      PROGRAM P
      REAL A(0:9)
      A(0) = 1.0
      END
",
        );
        let a = p.interner.get("a").unwrap();
        let main = p.main_unit().unwrap();
        let vi = info.unit(main.name).var(a).unwrap().clone();
        assert_eq!(vi.dims, vec![10]);
        assert_eq!(vi.lower, vec![0]);
    }
}
