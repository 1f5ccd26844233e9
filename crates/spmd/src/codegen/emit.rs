//! Pretty-prints a compiled [`SpmdProgram`] as a standalone Rust node
//! program linked against the `fortrand-shim` runtime crate (and, through
//! it, the `fortrand-rt` library the simulator engines run).
//!
//! The emitted program is the *same* SPMD computation the simulators run:
//! one `fn p{i}_{name}` per procedure (parameterized by the per-rank
//! execution context), RSD loops as plain counted `while` loops, and
//! every communication statement as a call into the shim's channel /
//! collective fabric. Semantics deliberately mirror the tree-walker
//! statement for statement (evaluation order, uninitialized-scalar
//! defaults, root-only section gathers, rank-0-only print evaluation) so
//! the native run is bit-identical to the simulated one.
//!
//! Emission is **deterministic**: it iterates only over `Vec`s and
//! `BTree` collections, so the same program always prints to the same
//! bytes (asserted by a unit test in [`super`]). Names embed the interned
//! symbol id (`s_x_3`, `a_a_0`) so distinct symbols never collide after
//! sanitization.

use super::types::{ScalarTypes, Ty};
use crate::ir::*;
use fortrand_ir::Sym;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Renders `prog` as the complete source of a node program.
pub(crate) fn emit_program(prog: &SpmdProgram) -> String {
    let mut e = Emitter {
        prog,
        types: ScalarTypes::infer(prog),
        copy_outs: collect_copy_outs(prog),
        out: String::new(),
        indent: 0,
        tmp: 0,
        cur: 0,
        rebound: BTreeMap::new(),
    };
    e.emit();
    e.out
}

/// Per-procedure sorted union of copy-out source symbols over all call
/// sites in the program: the callee returns exactly these scalars (as a
/// tuple) so any caller can pick the ones its own `copy_out` list names.
fn collect_copy_outs(prog: &SpmdProgram) -> Vec<Vec<Sym>> {
    let mut sets: Vec<BTreeSet<Sym>> = vec![BTreeSet::new(); prog.procs.len()];
    for p in &prog.procs {
        walk_operands(&p.body, &mut |op| {
            if let Operand::CopyOut { callee, formal, .. } = op {
                sets[callee].insert(formal);
            }
        });
    }
    sets.into_iter().map(|s| s.into_iter().collect()).collect()
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// The shim's name for the tag [`crate::runtime::bcast_tag`] selects.
fn bcast_tag_name(parts: usize) -> &'static str {
    if parts > 1 {
        "shim::TAG_BCAST_PACK"
    } else {
        "shim::TAG_BCAST"
    }
}

/// `f64` literal that reparses to the exact same bits.
fn flit(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}_f64")
    } else {
        format!("f64::from_bits(0x{:016x}u64)", v.to_bits())
    }
}

struct Emitter<'a> {
    prog: &'a SpmdProgram,
    types: ScalarTypes,
    copy_outs: Vec<Vec<Sym>>,
    out: String,
    indent: usize,
    tmp: u32,
    /// Index of the procedure currently being emitted.
    cur: usize,
    /// Arrays localized out of the heap by the enclosing DO loop (see
    /// [`localizable`]): element access goes through these named `Arr`
    /// locals instead of `h`, so the optimizer sees non-aliasing bases
    /// and can hoist bounds and data pointers out of the hot loop.
    rebound: BTreeMap<Sym, String>,
}

/// Whether a DO-loop nest is pure rank-local compute — only assignments,
/// nested loops and conditionals, no calls, no communication, and no
/// `CurOwner` queries (those read heap metadata, which a localized array
/// has left behind). Such nests are safe to run with their arrays taken
/// out of the heap into locals.
fn localizable(body: &[SStmt]) -> bool {
    let mut ok = true;
    walk_stmts(body, &mut |s| {
        ok &= matches!(
            s,
            SStmt::Comment(_) | SStmt::Assign { .. } | SStmt::Do { .. } | SStmt::If { .. }
        );
    });
    walk_operands(body, &mut |op| {
        if let Operand::Expr(e) = op {
            e.walk(&mut |x| ok &= !matches!(x, SExpr::CurOwner { .. }));
        }
    });
    ok
}

impl<'a> Emitter<'a> {
    // -- output plumbing ----------------------------------------------------

    fn w(&mut self, line: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(line);
        self.out.push('\n');
    }

    fn fresh(&mut self) -> u32 {
        self.tmp += 1;
        self.tmp
    }

    // -- names --------------------------------------------------------------

    fn sname(&self, s: Sym) -> String {
        format!("s_{}_{}", sanitize(self.prog.interner.name(s)), s.0)
    }

    fn aname(&self, s: Sym) -> String {
        format!("a_{}_{}", sanitize(self.prog.interner.name(s)), s.0)
    }

    fn pname(&self, idx: usize) -> String {
        let p = &self.prog.procs[idx];
        format!("p{}_{}", idx, sanitize(self.prog.interner.name(p.name)))
    }

    fn ty_of(&self, s: Sym) -> Ty {
        self.types.ty_of(self.cur, s)
    }

    fn rust_ty(t: Ty) -> &'static str {
        match t {
            Ty::I => "i64",
            Ty::R => "f64",
            Ty::V => "shim::Value",
        }
    }

    fn zero(t: Ty) -> &'static str {
        match t {
            Ty::I => "0i64",
            Ty::R => "0.0f64",
            Ty::V => "shim::Value::I(0i64)",
        }
    }

    /// Copy-out tuple expression of procedure `idx` (its current scalar
    /// values), and the matching tuple type.
    fn ret_expr(&self, idx: usize) -> String {
        if self.copy_outs[idx].is_empty() {
            "()".to_string()
        } else {
            let mut s = String::from("(");
            for sym in &self.copy_outs[idx] {
                let _ = write!(s, "{}, ", self.sname(*sym));
            }
            s.push(')');
            s
        }
    }

    fn ret_ty(&self, idx: usize) -> String {
        if self.copy_outs[idx].is_empty() {
            "()".to_string()
        } else {
            let mut s = String::from("(");
            for sym in &self.copy_outs[idx] {
                let _ = write!(s, "{}, ", Self::rust_ty(self.types.ty_of(idx, *sym)));
            }
            s.push(')');
            s
        }
    }

    // -- expressions --------------------------------------------------------

    fn coerce(s: String, from: Ty, to: Ty) -> String {
        match (from, to) {
            (a, b) if a == b => s,
            (Ty::I, Ty::R) => format!("(({s}) as f64)"),
            (Ty::R, Ty::I) => format!("(({s}) as i64)"),
            (Ty::I, Ty::V) => format!("shim::Value::I({s})"),
            (Ty::R, Ty::V) => format!("shim::Value::R({s})"),
            (Ty::V, Ty::I) => format!("({s}).as_i()"),
            (Ty::V, Ty::R) => format!("({s}).as_r()"),
            _ => unreachable!(),
        }
    }

    /// Emits `e` coerced to `i64`.
    fn ei(&self, e: &SExpr) -> String {
        let (s, t) = self.expr(e);
        Self::coerce(s, t, Ty::I)
    }

    /// Emits `e` coerced to `f64`.
    fn er(&self, e: &SExpr) -> String {
        let (s, t) = self.expr(e);
        Self::coerce(s, t, Ty::R)
    }

    /// `&[i64]` subscript list (left-to-right evaluation, like the
    /// interpreter's per-subscript `eval`).
    fn subs(&self, subs: &[SExpr]) -> String {
        let items: Vec<String> = subs.iter().map(|s| self.ei(s)).collect();
        format!("&[{}]", items.join(", "))
    }

    /// `Vec<(i64, i64, i64)>` section triplets; each dimension's lo/hi
    /// evaluated in order, like `rect_points`.
    fn rect(&self, r: &SRect) -> String {
        let items: Vec<String> = r
            .dims
            .iter()
            .map(|(lo, hi, step)| format!("({}, {}, {step}i64)", self.ei(lo), self.ei(hi)))
            .collect();
        format!("vec![{}]", items.join(", "))
    }

    fn truthy(&self, e: &SExpr) -> String {
        let (s, t) = self.expr(e);
        match t {
            Ty::I => format!("(({s}) != 0i64)"),
            Ty::R => format!("((({s}) as i64) != 0i64)"),
            Ty::V => format!("({s}).truthy()"),
        }
    }

    fn expr(&self, e: &SExpr) -> (String, Ty) {
        match e {
            SExpr::Int(v) => (format!("({v}i64)"), Ty::I),
            SExpr::Real(v) => (format!("({})", flit(*v)), Ty::R),
            SExpr::Var(s) => (self.sname(*s), self.ty_of(*s)),
            SExpr::MyP => ("(cx.rank() as i64)".to_string(), Ty::I),
            SExpr::NProcs => ("(cx.nprocs() as i64)".to_string(), Ty::I),
            SExpr::Elem { array, subs } => {
                let ss = self.subs(subs);
                let s = match self.rebound.get(array) {
                    Some(local) => format!("{local}.get({ss})"),
                    None => format!("h.get({}, {ss})", self.aname(*array)),
                };
                (s, Ty::R)
            }
            SExpr::Bin { op, l, r } => self.bin(*op, l, r),
            SExpr::Neg(x) => {
                let (s, t) = self.expr(x);
                match t {
                    Ty::I | Ty::R => (format!("(-({s}))"), t),
                    Ty::V => (format!("shim::neg({s})"), Ty::V),
                }
            }
            SExpr::Not(x) => (format!("((({}) == 0i64) as i64)", self.ei(x)), Ty::I),
            SExpr::Intr { name, args } => self.intr(*name, args),
            SExpr::Owner { dist, subs } => (
                format!("(d[{}usize].owner_of({}) as i64)", dist.0, self.subs(subs)),
                Ty::I,
            ),
            SExpr::CurOwner { array, subs } => (
                format!(
                    "(d[h.cur_dist({}) as usize].owner_of({}) as i64)",
                    self.aname(*array),
                    self.subs(subs)
                ),
                Ty::I,
            ),
            SExpr::LocalIdx { dist, dim, sub } => (
                format!(
                    "d[{}usize].local_idx({}usize, {})",
                    dist.0,
                    dim,
                    self.ei(sub)
                ),
                Ty::I,
            ),
        }
    }

    fn bin(&self, op: SBinOp, l: &SExpr, r: &SExpr) -> (String, Ty) {
        let (ls, lt) = self.expr(l);
        let (rs, rt) = self.expr(r);
        // A dynamically typed operand forces the runtime's dispatch so the
        // I/R promotion decision happens exactly where the simulator makes
        // it.
        if lt == Ty::V || rt == Ty::V {
            let lv = Self::coerce(ls, lt, Ty::V);
            let rv = Self::coerce(rs, rt, Ty::V);
            return (
                format!("shim::apply_bin(shim::SBinOp::{op:?}, {lv}, {rv})"),
                Ty::V,
            );
        }
        let both_i = lt == Ty::I && rt == Ty::I;
        match op {
            SBinOp::Add | SBinOp::Sub | SBinOp::Mul | SBinOp::Div => {
                let sym = match op {
                    SBinOp::Add => "+",
                    SBinOp::Sub => "-",
                    SBinOp::Mul => "*",
                    _ => "/",
                };
                if both_i {
                    (format!("(({ls}) {sym} ({rs}))"), Ty::I)
                } else {
                    let lf = Self::coerce(ls, lt, Ty::R);
                    let rf = Self::coerce(rs, rt, Ty::R);
                    (format!("(({lf}) {sym} ({rf}))"), Ty::R)
                }
            }
            SBinOp::Pow => {
                if both_i {
                    (format!("shim::ipow({ls}, {rs})"), Ty::I)
                } else {
                    let lf = Self::coerce(ls, lt, Ty::R);
                    let rf = Self::coerce(rs, rt, Ty::R);
                    (format!("(({lf}).powf({rf}))"), Ty::R)
                }
            }
            SBinOp::Lt | SBinOp::Le | SBinOp::Gt | SBinOp::Ge | SBinOp::Eq | SBinOp::Ne => {
                let sym = match op {
                    SBinOp::Lt => "<",
                    SBinOp::Le => "<=",
                    SBinOp::Gt => ">",
                    SBinOp::Ge => ">=",
                    SBinOp::Eq => "==",
                    _ => "!=",
                };
                if both_i {
                    (format!("(((({ls}) {sym} ({rs}))) as i64)"), Ty::I)
                } else {
                    let lf = Self::coerce(ls, lt, Ty::R);
                    let rf = Self::coerce(rs, rt, Ty::R);
                    (format!("(((({lf}) {sym} ({rf}))) as i64)"), Ty::I)
                }
            }
            SBinOp::And | SBinOp::Or => {
                // Both operands are (already) evaluated — `&`/`|`, not the
                // short-circuit forms, to match the simulator.
                let li = Self::coerce(ls, lt, Ty::I);
                let ri = Self::coerce(rs, rt, Ty::I);
                let sym = if op == SBinOp::And { "&" } else { "|" };
                (
                    format!("(((({li}) != 0i64) {sym} (({ri}) != 0i64)) as i64)"),
                    Ty::I,
                )
            }
        }
    }

    fn intr(&self, name: SIntr, args: &[SExpr]) -> (String, Ty) {
        let typed: Vec<(String, Ty)> = args.iter().map(|a| self.expr(a)).collect();
        let any_v = typed.iter().any(|(_, t)| *t == Ty::V);
        let all_i = typed.iter().all(|(_, t)| *t == Ty::I);
        match name {
            SIntr::Abs => {
                let (s, t) = typed.into_iter().next().unwrap();
                match t {
                    Ty::I | Ty::R => (format!("({s}).abs()"), t),
                    Ty::V => (format!("shim::apply_intr(shim::SIntr::Abs, &[{s}])"), Ty::V),
                }
            }
            SIntr::Min | SIntr::Max if any_v => {
                let vals: Vec<String> = typed
                    .into_iter()
                    .map(|(s, t)| Self::coerce(s, t, Ty::V))
                    .collect();
                (
                    format!(
                        "shim::apply_intr(shim::SIntr::{name:?}, &[{}])",
                        vals.join(", ")
                    ),
                    Ty::V,
                )
            }
            SIntr::Min | SIntr::Max if all_i => {
                let f = if name == SIntr::Min {
                    "std::cmp::min"
                } else {
                    "std::cmp::max"
                };
                let mut it = typed.into_iter();
                let mut acc = it.next().unwrap().0;
                for (s, _) in it {
                    acc = format!("{f}({acc}, {s})");
                }
                (acc, Ty::I)
            }
            SIntr::Min | SIntr::Max => {
                let f = if name == SIntr::Min {
                    "shim::fmin"
                } else {
                    "shim::fmax"
                };
                let vals: Vec<String> = typed
                    .into_iter()
                    .map(|(s, t)| Self::coerce(s, t, Ty::R))
                    .collect();
                (format!("{f}([{}])", vals.join(", ")), Ty::R)
            }
            SIntr::Mod if any_v => {
                let vals: Vec<String> = typed
                    .into_iter()
                    .map(|(s, t)| Self::coerce(s, t, Ty::V))
                    .collect();
                (
                    format!("shim::apply_intr(shim::SIntr::Mod, &[{}])", vals.join(", ")),
                    Ty::V,
                )
            }
            SIntr::Mod if all_i => {
                let (a, b) = (&typed[0].0, &typed[1].0);
                (format!("(({a}) % ({b}))"), Ty::I)
            }
            SIntr::Mod => {
                let a = Self::coerce(typed[0].0.clone(), typed[0].1, Ty::R);
                let b = Self::coerce(typed[1].0.clone(), typed[1].1, Ty::R);
                (format!("(({a}) % ({b}))"), Ty::R)
            }
            SIntr::Sqrt => {
                let a = Self::coerce(typed[0].0.clone(), typed[0].1, Ty::R);
                (format!("({a}).sqrt()"), Ty::R)
            }
            SIntr::Sign => {
                let a = Self::coerce(typed[0].0.clone(), typed[0].1, Ty::R);
                let b = Self::coerce(typed[1].0.clone(), typed[1].1, Ty::R);
                (format!("shim::fsign({a}, {b})"), Ty::R)
            }
        }
    }

    // -- statements ---------------------------------------------------------

    fn emit_body(&mut self, body: &[SStmt]) {
        for s in body {
            self.emit_stmt(s);
        }
    }

    /// The counted `while` of a DO loop over the already-emitted
    /// `lo_t{n}`/`hi_t{n}`/`i_t{n}` bindings. Factored out because a
    /// localized loop emits it twice (fast path and aliased fallback).
    fn counted_loop(&mut self, n: u32, var: Sym, step: i64, body: &[SStmt]) {
        let cmp = if step > 0 { "<=" } else { ">=" };
        self.w(&format!("while i_t{n} {cmp} hi_t{n} {{"));
        self.indent += 1;
        let t = self.ty_of(var);
        let name = self.sname(var);
        self.w(&format!(
            "{name} = {};",
            Self::coerce(format!("i_t{n}"), Ty::I, t)
        ));
        self.emit_body(body);
        self.w(&format!("i_t{n} += {step}i64;"));
        self.indent -= 1;
        self.w("}");
    }

    fn emit_stmt(&mut self, s: &SStmt) {
        match s {
            SStmt::Comment(text) => {
                let one = text.replace(['\n', '\r'], " ");
                self.w(&format!("// {one}"));
            }
            SStmt::Assign { lhs, rhs } => match lhs {
                SLval::Scalar(v) => {
                    let t = self.ty_of(*v);
                    let (rs, rt) = self.expr(rhs);
                    let name = self.sname(*v);
                    self.w(&format!("{name} = {};", Self::coerce(rs, rt, t)));
                }
                SLval::Elem { array, subs } => {
                    // rhs first, then lhs subscripts (interpreter order).
                    let n = self.fresh();
                    let rs = self.er(rhs);
                    let ss = self.subs(subs);
                    let set = match self.rebound.get(array) {
                        Some(local) => format!("{local}.set({ss}, v_t{n});"),
                        None => format!("h.set({}, {ss}, v_t{n});", self.aname(*array)),
                    };
                    self.w("{");
                    self.indent += 1;
                    self.w(&format!("let v_t{n}: f64 = {rs};"));
                    self.w(&set);
                    self.indent -= 1;
                    self.w("}");
                }
            },
            SStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let n = self.fresh();
                let (lo_s, hi_s) = (self.ei(lo), self.ei(hi));
                self.w(&format!("assert!({step}i64 != 0i64, \"zero DO step\");"));
                self.w(&format!("let lo_t{n}: i64 = {lo_s};"));
                self.w(&format!("let hi_t{n}: i64 = {hi_s};"));
                if *step == 0 {
                    return;
                }
                self.w(&format!("let mut i_t{n}: i64 = lo_t{n};"));
                // Localize the nest's arrays into `Arr` locals when the
                // body is pure compute: through-the-heap access defeats
                // alias analysis, so without this every element access
                // reloads the array base and bounds.
                let arrays: Vec<Sym> = if self.rebound.is_empty() && localizable(body) {
                    let mut set = BTreeSet::new();
                    walk_array_mentions(body, &mut |name, _| {
                        set.insert(name);
                    });
                    set.into_iter().collect()
                } else {
                    Vec::new()
                };
                if arrays.is_empty() {
                    self.counted_loop(n, *var, *step, body);
                    return;
                }
                let ids: Vec<String> = arrays.iter().map(|a| self.aname(*a)).collect();
                // Distinct formals can still name the same heap slot at
                // run time; taking one slot twice would hand the loop an
                // empty placeholder, so such calls use the generic path.
                let guarded = arrays.len() > 1;
                if guarded {
                    self.w(&format!("if shim::all_distinct(&[{}]) {{", ids.join(", ")));
                    self.indent += 1;
                }
                for (k, (a, id)) in arrays.iter().zip(&ids).enumerate() {
                    let local = format!("la_t{n}_{k}");
                    self.w(&format!(
                        "let mut {local} = std::mem::take(&mut h.arrs[{id}]);"
                    ));
                    self.rebound.insert(*a, local);
                }
                self.counted_loop(n, *var, *step, body);
                for (k, (a, id)) in arrays.iter().zip(&ids).enumerate() {
                    self.w(&format!("h.arrs[{id}] = la_t{n}_{k};"));
                    self.rebound.remove(a);
                }
                if guarded {
                    self.indent -= 1;
                    self.w("} else {");
                    self.indent += 1;
                    self.counted_loop(n, *var, *step, body);
                    self.indent -= 1;
                    self.w("}");
                }
            }
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.truthy(cond);
                self.w(&format!("if {c} {{"));
                self.indent += 1;
                self.emit_body(then_body);
                self.indent -= 1;
                if else_body.is_empty() {
                    self.w("}");
                } else {
                    self.w("} else {");
                    self.indent += 1;
                    self.emit_body(else_body);
                    self.indent -= 1;
                    self.w("}");
                }
            }
            SStmt::Call {
                proc,
                args,
                copy_out,
            } => {
                let n = self.fresh();
                let callee = &self.prog.procs[*proc];
                let mut actuals: Vec<String> = Vec::new();
                for (f, a) in callee.formals.iter().zip(args) {
                    match (f.is_array, a) {
                        (true, SActual::Array(name)) => actuals.push(self.aname(*name)),
                        (false, SActual::Scalar(e)) => {
                            let formal_ty = self.types.ty_of(*proc, f.name);
                            let (es, et) = self.expr(e);
                            actuals.push(Self::coerce(es, et, formal_ty));
                        }
                        _ => panic!("actual/formal kind mismatch"),
                    }
                }
                let call = format!(
                    "let (fl_t{n}, co_t{n}) = {}(cx, h, d{}{});",
                    self.pname(*proc),
                    if actuals.is_empty() { "" } else { ", " },
                    actuals.join(", ")
                );
                self.w(&format!("let mark_t{n} = h.arrs.len();"));
                self.w(&call);
                self.w(&format!("h.arrs.truncate(mark_t{n});"));
                // Copy-out happens regardless of flow (interpreter order:
                // the frame pops and copies before Stop propagates).
                for (f, caller_var) in copy_out {
                    let pos = self.copy_outs[*proc]
                        .iter()
                        .position(|s| s == f)
                        .expect("copy-out source not in callee tuple");
                    let callee_ty = self.types.ty_of(*proc, *f);
                    let caller_ty = self.ty_of(*caller_var);
                    let name = self.sname(*caller_var);
                    self.w(&format!(
                        "{name} = {};",
                        Self::coerce(format!("co_t{n}.{pos}"), callee_ty, caller_ty)
                    ));
                }
                let ret = self.ret_expr(self.cur);
                self.w(&format!(
                    "if let shim::Flow::Stop = fl_t{n} {{ return (shim::Flow::Stop, {ret}); }}"
                ));
            }
            SStmt::Return => {
                let ret = self.ret_expr(self.cur);
                self.w(&format!("return (shim::Flow::Normal, {ret});"));
            }
            SStmt::Stop => {
                let ret = self.ret_expr(self.cur);
                self.w(&format!("return (shim::Flow::Stop, {ret});"));
            }
            SStmt::Send { to, tag, parts } => {
                let n = self.fresh();
                let to_s = self.ei(to);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let dst_t{n}: i64 = {to_s};"));
                self.w(&format!(
                    "assert!(dst_t{n} >= 0, \"negative send destination\");"
                ));
                self.emit_gather(n, parts);
                self.w(&format!("cx.send(dst_t{n} as usize, {tag}u64, buf_t{n});"));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::Recv { from, tag, parts } => {
                let n = self.fresh();
                let from_s = self.ei(from);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let src_t{n}: i64 = {from_s};"));
                self.w(&format!(
                    "assert!(src_t{n} >= 0, \"negative recv source\");"
                ));
                self.w(&format!(
                    "let buf_t{n} = cx.recv(src_t{n} as usize, {tag}u64);"
                ));
                // Section dimensions evaluate *after* the receive.
                self.emit_unpack(n, parts.iter().map(|(a, s)| (*a, s)));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::SendElem { to, tag, value } => {
                let n = self.fresh();
                let to_s = self.ei(to);
                let v = self.er(value);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let dst_t{n}: i64 = {to_s};"));
                self.w(&format!("let v_t{n}: f64 = {v};"));
                self.w(&format!(
                    "cx.send(dst_t{n} as usize, {tag}u64, vec![v_t{n}]);"
                ));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::RecvElem { from, tag, lhs } => {
                let n = self.fresh();
                let from_s = self.ei(from);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let src_t{n}: i64 = {from_s};"));
                self.w(&format!(
                    "let buf_t{n} = cx.recv(src_t{n} as usize, {tag}u64);"
                ));
                match lhs {
                    SLval::Scalar(v) => {
                        let t = self.ty_of(*v);
                        let name = self.sname(*v);
                        self.w(&format!(
                            "{name} = {};",
                            Self::coerce(format!("buf_t{n}[0]"), Ty::R, t)
                        ));
                    }
                    SLval::Elem { array, subs } => {
                        let set = format!(
                            "h.set({}, {}, buf_t{n}[0]);",
                            self.aname(*array),
                            self.subs(subs)
                        );
                        self.w(&set);
                    }
                }
                self.indent -= 1;
                self.w("}");
            }
            SStmt::Bcast { root, parts } => {
                let n = self.fresh();
                let root_s = self.ei(root);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let root_t{n}: usize = ({root_s}) as usize;"));
                self.emit_pack(n, parts.iter().map(BcastPart::src));
                self.w(&format!(
                    "let buf_t{n} = cx.bcast(root_t{n}, data_t{n}, {});",
                    bcast_tag_name(parts.len())
                ));
                self.emit_unpack(n, parts.iter().map(BcastPart::dst));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::PostSend {
                handle: _,
                to,
                tag,
                parts,
            } => {
                let n = self.fresh();
                let to_s = self.ei(to);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let dst_t{n}: i64 = {to_s};"));
                self.w(&format!(
                    "assert!(dst_t{n} >= 0, \"negative send destination\");"
                ));
                self.emit_gather(n, parts);
                self.w(&format!(
                    "cx.post_send(dst_t{n} as usize, {tag}u64, buf_t{n});"
                ));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::WaitSend { handle: _ } => {
                self.w("cx.wait_send();");
            }
            SStmt::PostRecv { handle, from, tag } => {
                let n = self.fresh();
                let from_s = self.ei(from);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let src_t{n}: i64 = {from_s};"));
                self.w(&format!(
                    "assert!(src_t{n} >= 0, \"negative recv source\");"
                ));
                self.w(&format!(
                    "cx.post_recv({handle}u32, src_t{n} as usize, {tag}u64);"
                ));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::WaitRecv { handle, parts } => {
                let n = self.fresh();
                self.w("{");
                self.indent += 1;
                self.w(&format!("let buf_t{n} = cx.wait_recv({handle}u32);"));
                self.emit_unpack(n, parts.iter().map(|(a, s)| (*a, s)));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::PostBcast { handle, root, src } => {
                let n = self.fresh();
                let root_s = self.ei(root);
                self.w("{");
                self.indent += 1;
                self.w(&format!("let root_t{n}: usize = ({root_s}) as usize;"));
                self.emit_pack(n, src.iter().map(|(a, s)| (*a, s)));
                self.w(&format!(
                    "cx.post_bcast({handle}u32, root_t{n}, data_t{n}, {});",
                    bcast_tag_name(src.len())
                ));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::WaitBcast { handle, dst } => {
                let n = self.fresh();
                self.w("{");
                self.indent += 1;
                self.w(&format!("let buf_t{n} = cx.wait_bcast({handle}u32);"));
                self.emit_unpack(n, dst.iter().map(|(a, s)| (*a, s)));
                self.indent -= 1;
                self.w("}");
            }
            SStmt::Remap { array, to_dist } => {
                self.w(&format!(
                    "shim::remap(cx, h, {}, d, {}u32);",
                    self.aname(*array),
                    to_dist.0
                ));
            }
            SStmt::RemapGlobal { array, to_dist } => {
                self.w(&format!(
                    "shim::remap_global(cx, h, {}, d, {}u32);",
                    self.aname(*array),
                    to_dist.0
                ));
            }
            SStmt::MarkDist { array, to_dist } => {
                self.w(&format!(
                    "shim::mark_dist(h, {}, d, {}u32);",
                    self.aname(*array),
                    to_dist.0
                ));
            }
            SStmt::Print { args } => {
                let n = self.fresh();
                // Arguments evaluate on rank 0 only (interpreter order).
                self.w("if cx.rank() == 0 {");
                self.indent += 1;
                self.w(&format!("let mut parts_t{n}: Vec<String> = Vec::new();"));
                for a in args {
                    let (s, _) = self.expr(a);
                    self.w(&format!("parts_t{n}.push(format!(\"{{}}\", {s}));"));
                }
                self.w(&format!("cx.print(parts_t{n}.join(\" \"));"));
                self.indent -= 1;
                self.w("}");
            }
        }
    }

    /// Root side of a broadcast: `data_t{n}` is `Some(payload)` on the root
    /// (source bounds evaluate there only) and `None` elsewhere. A single
    /// section is its gathered buffer; several are appended in order.
    fn emit_pack<'s>(&mut self, n: u32, mut src: impl ExactSizeIterator<Item = (Sym, &'s SRect)>) {
        if src.len() == 1 {
            let (array, section) = src.next().unwrap();
            let gather = format!("h.gather({}, &{})", self.aname(array), self.rect(section));
            self.w(&format!(
                "let data_t{n} = if cx.rank() == root_t{n} {{ Some({gather}) }} else {{ None }};"
            ));
            return;
        }
        self.w(&format!("let data_t{n} = if cx.rank() == root_t{n} {{"));
        self.indent += 1;
        self.w(&format!("let mut pk_t{n}: Vec<f64> = Vec::new();"));
        for (array, section) in src {
            let g = format!(
                "pk_t{n}.extend_from_slice(&h.gather({}, &{}));",
                self.aname(array),
                self.rect(section)
            );
            self.w(&g);
        }
        self.w(&format!("Some(pk_t{n})"));
        self.indent -= 1;
        self.w("} else { None };");
    }

    /// A point-to-point payload: `buf_t{n}` is every part gathered, in
    /// order. A single section is its gathered buffer; several are
    /// appended to one.
    fn emit_gather(&mut self, n: u32, parts: &[(Sym, SRect)]) {
        if let [(array, section)] = parts {
            let dims = self.rect(section);
            let arr = self.aname(*array);
            self.w(&format!("let dims_t{n}: Vec<(i64, i64, i64)> = {dims};"));
            self.w(&format!("let buf_t{n} = h.gather({arr}, &dims_t{n});"));
            return;
        }
        self.w(&format!("let mut buf_t{n}: Vec<f64> = Vec::new();"));
        for (array, section) in parts {
            let g = format!(
                "buf_t{n}.extend_from_slice(&h.gather({}, &{}));",
                self.aname(*array),
                self.rect(section)
            );
            self.w(&g);
        }
    }

    /// The receiving side of a message: `buf_t{n}` scattered into each
    /// destination in order. A single section takes the whole payload;
    /// several advance an offset cursor by their rect lengths.
    fn emit_unpack<'s>(
        &mut self,
        n: u32,
        mut dst: impl ExactSizeIterator<Item = (Sym, &'s SRect)>,
    ) {
        if dst.len() == 1 {
            let (array, section) = dst.next().unwrap();
            let dims = self.rect(section);
            let arr = self.aname(array);
            self.w(&format!("let dims_t{n}: Vec<(i64, i64, i64)> = {dims};"));
            self.w(&format!("h.scatter({arr}, &dims_t{n}, &buf_t{n});"));
            return;
        }
        self.w(&format!("let mut off_t{n}: usize = 0;"));
        for (array, section) in dst {
            let dims = self.rect(section);
            let arr = self.aname(array);
            self.w("{");
            self.indent += 1;
            self.w(&format!("let dims_t{n}: Vec<(i64, i64, i64)> = {dims};"));
            self.w(&format!("let len_t{n} = shim::rect_len(&dims_t{n});"));
            self.w(&format!(
                "h.scatter({arr}, &dims_t{n}, &buf_t{n}[off_t{n}..off_t{n} + len_t{n}]);"
            ));
            self.w(&format!("off_t{n} += len_t{n};"));
            self.indent -= 1;
            self.w("}");
        }
    }

    // -- procedures ---------------------------------------------------------

    /// Every scalar symbol the procedure touches (reads included —
    /// uninitialized scalars still need a declaration, defaulting to the
    /// interpreter's `I(0)`).
    fn collect_scalars(&self, idx: usize) -> BTreeSet<Sym> {
        let mut out: BTreeSet<Sym> = self.copy_outs[idx].iter().copied().collect();
        walk_scalar_mentions(&self.prog.procs[idx].body, &mut |s| {
            out.insert(s);
        });
        out
    }

    fn emit_proc(&mut self, idx: usize) {
        self.cur = idx;
        self.tmp = 0;
        let proc = self.prog.procs[idx].clone();
        let is_main = idx == self.prog.main;

        let mut params =
            String::from("cx: &mut shim::Ctx, h: &mut shim::Heap, d: &[shim::ArrayDist]");
        if is_main {
            params.push_str(", init: &[Option<Vec<f64>>]");
        }
        let mut formal_syms: BTreeSet<Sym> = BTreeSet::new();
        for f in &proc.formals {
            formal_syms.insert(f.name);
            if f.is_array {
                let _ = write!(params, ", {}: usize", self.aname(f.name));
            } else {
                let _ = write!(
                    params,
                    ", mut {}: {}",
                    self.sname(f.name),
                    Self::rust_ty(self.types.ty_of(idx, f.name))
                );
            }
        }

        if !is_main {
            // Leaf procedures are called per loop iteration in the hot
            // paths; let the optimizer inline them into their call sites.
            self.w("#[inline]");
        }
        self.w(&format!(
            "fn {}({params}) -> (shim::Flow, {}) {{",
            self.pname(idx),
            self.ret_ty(idx)
        ));
        self.indent += 1;

        // Local arrays: declared bounds with the decl's (possibly
        // ownership-split) distribution; main's are seeded from the init
        // file slot matching their declaration position.
        for (k, decl) in proc.decls.iter().enumerate() {
            let bounds: Vec<String> = decl
                .bounds
                .iter()
                .map(|(lo, hi)| format!("({lo}i64, {hi}i64)"))
                .collect();
            let owner = match decl.owner_dist {
                Some(did) => format!("Some({}u32)", did.0),
                None => "None".to_string(),
            };
            self.w(&format!(
                "let {}: usize = h.alloc(&[{}], {}u32, {owner});",
                self.aname(decl.name),
                bounds.join(", "),
                decl.dist.0
            ));
            if is_main {
                let arr = self.aname(decl.name);
                self.w(&format!("if let Some(g) = &init[{k}usize] {{"));
                self.indent += 1;
                self.w(&format!("h.init({arr}, d, g, cx.rank());"));
                self.indent -= 1;
                self.w("}");
            }
        }

        // Scalar locals (everything touched that isn't a formal),
        // defaulting to the interpreter's uninitialized I(0).
        for sym in self.collect_scalars(idx) {
            if formal_syms.contains(&sym) {
                continue;
            }
            let t = self.types.ty_of(idx, sym);
            self.w(&format!(
                "let mut {}: {} = {};",
                self.sname(sym),
                Self::rust_ty(t),
                Self::zero(t)
            ));
        }

        self.emit_body(&proc.body);

        let ret = self.ret_expr(idx);
        self.w(&format!("(shim::Flow::Normal, {ret})"));
        self.indent -= 1;
        self.w("}");
        self.w("");
    }

    // -- program ------------------------------------------------------------

    fn emit(&mut self) {
        self.w("// Generated by fortrand-spmd's native codegen backend. Do not edit:");
        self.w("// the emitter re-prints this file deterministically from the SPMD IR.");
        self.w("#![allow(warnings)]");
        self.w("");
        self.w("use fortrand_shim::{self as shim, LocalStore as _};");
        self.w("");

        // Distribution table (same indexing as SpmdProgram::dists).
        self.w("fn dists() -> Vec<shim::ArrayDist> {");
        self.indent += 1;
        self.w("vec![");
        self.indent += 1;
        for ad in &self.prog.dists {
            let dims: Vec<String> = ad
                .dims
                .iter()
                .map(|dp| {
                    // `DistKind`'s `Debug` form is its Rust expression.
                    format!(
                        "shim::DimPartition {{ kind: shim::DistKind::{:?}, extent: {}i64, nprocs: {}usize }}",
                        dp.kind, dp.extent, dp.nprocs
                    )
                })
                .collect();
            let offsets: Vec<String> = ad.offsets.iter().map(|o| format!("{o}i64")).collect();
            let shape: Vec<String> = ad.grid.shape.iter().map(|s| format!("{s}usize")).collect();
            let axis: Vec<String> = ad
                .grid_axis
                .iter()
                .map(|a| match a {
                    Some(i) => format!("Some({i}usize)"),
                    None => "None".to_string(),
                })
                .collect();
            self.w(&format!(
                "shim::ArrayDist {{ dims: vec![{}], offsets: vec![{}], grid: shim::ProcGrid {{ shape: vec![{}] }}, grid_axis: vec![{}] }},",
                dims.join(", "),
                offsets.join(", "),
                shape.join(", "),
                axis.join(", ")
            ));
        }
        self.indent -= 1;
        self.w("]");
        self.indent -= 1;
        self.w("}");
        self.w("");

        for idx in 0..self.prog.procs.len() {
            self.emit_proc(idx);
        }

        let main_decls = self.prog.procs[self.prog.main].decls.len();
        let entry = self.pname(self.prog.main);
        self.w("fn main() {");
        self.indent += 1;
        self.w("let ds: Vec<shim::ArrayDist> = dists();");
        self.w(&format!(
            "shim::drive({}usize, &ds, |cx, init| {{",
            self.prog.nprocs
        ));
        self.indent += 1;
        self.w("let mut h = shim::Heap::new();");
        self.w(&format!("let _ = {entry}(cx, &mut h, &ds, init);"));
        self.w(&format!("h.arrs[..{main_decls}usize].to_vec()"));
        self.indent -= 1;
        self.w("})");
        self.indent -= 1;
        self.w("}");
    }
}
