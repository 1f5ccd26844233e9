//! Pretty printer: renders node procedures as Fortran-like message-passing
//! code, matching the shape of the paper's output figures (Figs. 2, 3, 10,
//! 12, 14, 16). Used by the figure-regeneration harness and golden tests.

use crate::ir::*;
use fortrand_ir::Sym;
use std::fmt::Write;

/// Pretty-prints one procedure of `prog`.
pub fn pretty(prog: &SpmdProgram, proc_idx: usize) -> String {
    let p = &prog.procs[proc_idx];
    let mut out = String::new();
    let name = |s: Sym| prog.interner.name(s).to_uppercase();
    if proc_idx == prog.main {
        let _ = writeln!(out, "PROGRAM {}", name(p.name));
    } else {
        let formals: Vec<String> = p.formals.iter().map(|f| name(f.name)).collect();
        let _ = writeln!(out, "SUBROUTINE {}({})", name(p.name), formals.join(","));
    }
    for d in &p.decls {
        let dims: Vec<String> = d
            .bounds
            .iter()
            .map(|&(lo, hi)| {
                if lo == 1 {
                    format!("{hi}")
                } else {
                    format!("{lo}:{hi}")
                }
            })
            .collect();
        let _ = writeln!(out, "REAL {}({})", name(d.name), dims.join(","));
    }
    let mut pr = Printer {
        prog,
        out,
        indent: 0,
    };
    pr.block(&p.body);
    pr.out
}

/// Pretty-prints the whole program, main first.
pub fn pretty_all(prog: &SpmdProgram) -> String {
    let mut order: Vec<usize> = (0..prog.procs.len()).collect();
    order.sort_by_key(|&i| (i != prog.main, i));
    order
        .iter()
        .map(|&i| pretty(prog, i))
        .collect::<Vec<_>>()
        .join("\n")
}

struct Printer<'a> {
    prog: &'a SpmdProgram,
    out: String,
    indent: usize,
}

impl Printer<'_> {
    fn name(&self, s: Sym) -> String {
        self.prog.interner.name(s).to_string()
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn block(&mut self, stmts: &[SStmt]) {
        for s in stmts {
            self.stmt(s);
        }
    }

    fn stmt(&mut self, s: &SStmt) {
        match s {
            SStmt::Comment(c) => self.line(&format!("{{ {c} }}")),
            SStmt::Assign { lhs, rhs } => {
                let l = self.lval(lhs);
                let r = self.expr(rhs, 0);
                self.line(&format!("{l} = {r}"));
            }
            SStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let v = self.name(*var);
                let lo = self.expr(lo, 0);
                let hi = self.expr(hi, 0);
                let head = if *step == 1 {
                    format!("do {v} = {lo},{hi}")
                } else {
                    format!("do {v} = {lo},{hi},{step}")
                };
                self.line(&head);
                self.indent += 1;
                self.block(body);
                self.indent -= 1;
                self.line("enddo");
            }
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.expr(cond, 0);
                // Single-statement guard prints on one line, as the paper does.
                if else_body.is_empty() && then_body.len() == 1 && is_simple(&then_body[0]) {
                    let inner = self.render_simple(&then_body[0]);
                    self.line(&format!("if ({c}) {inner}"));
                    return;
                }
                self.line(&format!("if ({c}) then"));
                self.indent += 1;
                self.block(then_body);
                self.indent -= 1;
                if !else_body.is_empty() {
                    self.line("else");
                    self.indent += 1;
                    self.block(else_body);
                    self.indent -= 1;
                }
                self.line("endif");
            }
            SStmt::Call { proc, args, .. } => {
                let callee = self.prog.procs[*proc].name;
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a {
                        SActual::Array(s) => self.name(*s).to_uppercase(),
                        SActual::Scalar(e) => self.expr(e, 0),
                    })
                    .collect();
                self.line(&format!(
                    "call {}({})",
                    self.name(callee).to_uppercase(),
                    args.join(",")
                ));
            }
            SStmt::Return => self.line("return"),
            SStmt::Send { .. }
            | SStmt::Recv { .. }
            | SStmt::SendElem { .. }
            | SStmt::RecvElem { .. }
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
            | SStmt::Stop => {
                let text = self.render_simple(s);
                self.line(&text);
            }
            SStmt::Print { args } => {
                let args: Vec<String> = args.iter().map(|a| self.expr(a, 0)).collect();
                self.line(&format!("print *, {}", args.join(", ")));
            }
        }
    }

    fn is_main_like(&self) -> bool {
        false
    }

    fn render_simple(&mut self, s: &SStmt) -> String {
        let _ = self.is_main_like();
        match s {
            SStmt::Assign { lhs, rhs } => {
                format!("{} = {}", self.lval(lhs), self.expr(rhs, 0))
            }
            SStmt::Send { to, parts, .. } => {
                format!(
                    "send {} to {}",
                    self.sections(parts.iter().map(|(a, s)| (*a, s))),
                    self.expr(to, 0)
                )
            }
            SStmt::Recv { from, parts, .. } => {
                format!(
                    "recv {} from {}",
                    self.sections(parts.iter().map(|(a, s)| (*a, s))),
                    self.expr(from, 0)
                )
            }
            SStmt::SendElem { to, value, .. } => {
                format!("send {} to {}", self.expr(value, 0), self.expr(to, 0))
            }
            SStmt::RecvElem { from, lhs, .. } => {
                format!("recv {} from {}", self.lval(lhs), self.expr(from, 0))
            }
            SStmt::Bcast { root, parts } => {
                format!(
                    "broadcast {} from {}",
                    self.sections(parts.iter().map(BcastPart::src)),
                    self.expr(root, 0)
                )
            }
            SStmt::PostSend { to, parts, .. } => {
                format!(
                    "post send {} to {}",
                    self.sections(parts.iter().map(|(a, s)| (*a, s))),
                    self.expr(to, 0)
                )
            }
            SStmt::WaitSend { .. } => "wait send".into(),
            SStmt::PostRecv { from, .. } => {
                format!("post recv from {}", self.expr(from, 0))
            }
            SStmt::WaitRecv { parts, .. } => {
                format!(
                    "wait recv {}",
                    self.sections(parts.iter().map(|(a, s)| (*a, s)))
                )
            }
            SStmt::PostBcast { root, src, .. } => {
                format!(
                    "post broadcast {} from {}",
                    self.sections(src.iter().map(|(a, s)| (*a, s))),
                    self.expr(root, 0)
                )
            }
            SStmt::WaitBcast { dst, .. } => {
                format!(
                    "wait broadcast {}",
                    self.sections(dst.iter().map(|(a, s)| (*a, s)))
                )
            }
            SStmt::RemapGlobal { array, to_dist } => {
                let d = &self.prog.dists[to_dist.0 as usize];
                format!(
                    "remap {} to {}",
                    self.name(*array).to_uppercase(),
                    dist_spelling(d)
                )
            }
            SStmt::Remap { array, to_dist } => {
                let d = &self.prog.dists[to_dist.0 as usize];
                format!(
                    "remap {} to {}",
                    self.name(*array).to_uppercase(),
                    dist_spelling(d)
                )
            }
            SStmt::MarkDist { array, to_dist } => {
                let d = &self.prog.dists[to_dist.0 as usize];
                format!(
                    "mark-as-{} {}",
                    dist_spelling(d),
                    self.name(*array).to_uppercase()
                )
            }
            SStmt::Return => "return".into(),
            SStmt::Stop => "stop".into(),
            SStmt::Call { proc, args, .. } => {
                let callee = self.prog.procs[*proc].name;
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a {
                        SActual::Array(s) => self.name(*s).to_uppercase(),
                        SActual::Scalar(e) => self.expr(e, 0),
                    })
                    .collect();
                format!(
                    "call {}({})",
                    self.name(callee).to_uppercase(),
                    args.join(",")
                )
            }
            _ => "<block>".into(),
        }
    }

    /// The sections of a message: `A(..)` alone, `[A(..), B(..)]` packed.
    fn sections<'s>(&mut self, items: impl Iterator<Item = (Sym, &'s SRect)>) -> String {
        let items: Vec<String> = items
            .map(|(a, r)| format!("{}{}", self.name(a).to_uppercase(), self.rect(r)))
            .collect();
        match items.as_slice() {
            [one] => one.clone(),
            _ => format!("[{}]", items.join(", ")),
        }
    }

    fn rect(&mut self, r: &SRect) -> String {
        let dims: Vec<String> = r
            .dims
            .iter()
            .map(|(lo, hi, step)| {
                let l = self.expr(lo, 0);
                let h = self.expr(hi, 0);
                if l == h {
                    l
                } else if *step == 1 {
                    format!("{l}:{h}")
                } else {
                    format!("{l}:{h}:{step}")
                }
            })
            .collect();
        format!("({})", dims.join(","))
    }

    fn lval(&mut self, l: &SLval) -> String {
        match l {
            SLval::Scalar(s) => self.name(*s),
            SLval::Elem { array, subs } => {
                let subs: Vec<String> = subs.iter().map(|e| self.expr(e, 0)).collect();
                format!("{}({})", self.name(*array).to_uppercase(), subs.join(","))
            }
        }
    }

    /// Precedence-aware expression rendering. `prec` is the context binding
    /// power: 0 lowest (no parens needed), higher forces parens around
    /// looser operators.
    fn expr(&mut self, e: &SExpr, prec: u8) -> String {
        match e {
            SExpr::Int(v) => format!("{v}"),
            SExpr::Real(v) => {
                if *v == v.trunc() && v.abs() < 1e15 {
                    format!("{:.1}", v)
                } else {
                    format!("{v}")
                }
            }
            SExpr::Var(s) => self.name(*s),
            SExpr::MyP => "my$p".into(),
            SExpr::NProcs => "n$proc".into(),
            SExpr::Elem { array, subs } => {
                let subs: Vec<String> = subs.iter().map(|x| self.expr(x, 0)).collect();
                format!("{}({})", self.name(*array).to_uppercase(), subs.join(","))
            }
            SExpr::Bin { op, l, r } => {
                let (sym, p, dotted) = match op {
                    SBinOp::Or => (".or.", 1, true),
                    SBinOp::And => (".and.", 2, true),
                    SBinOp::Lt => (".lt.", 3, true),
                    SBinOp::Le => (".le.", 3, true),
                    SBinOp::Gt => (".gt.", 3, true),
                    SBinOp::Ge => (".ge.", 3, true),
                    SBinOp::Eq => (".eq.", 3, true),
                    SBinOp::Ne => (".ne.", 3, true),
                    SBinOp::Add => ("+", 4, false),
                    SBinOp::Sub => ("-", 4, false),
                    SBinOp::Mul => ("*", 5, false),
                    SBinOp::Div => ("/", 5, false),
                    SBinOp::Pow => ("**", 6, false),
                };
                let ls = self.expr(l, p);
                let rs = self.expr(r, p + 1);
                let body = if dotted {
                    format!("{ls} {sym} {rs}")
                } else {
                    format!("{ls}{sym}{rs}")
                };
                if p < prec {
                    format!("({body})")
                } else {
                    body
                }
            }
            SExpr::Neg(x) => format!("-{}", self.expr(x, 6)),
            SExpr::Not(x) => format!(".not. {}", self.expr(x, 6)),
            SExpr::Intr { name, args } => {
                let n = match name {
                    SIntr::Abs => "abs",
                    SIntr::Min => "min",
                    SIntr::Max => "max",
                    SIntr::Mod => "mod",
                    SIntr::Sqrt => "sqrt",
                    SIntr::Sign => "sign",
                };
                let args: Vec<String> = args.iter().map(|a| self.expr(a, 0)).collect();
                format!("{n}({})", args.join(","))
            }
            SExpr::Owner { subs, .. } => {
                let subs: Vec<String> = subs.iter().map(|a| self.expr(a, 0)).collect();
                format!("owner({})", subs.join(","))
            }
            SExpr::CurOwner { array, subs } => {
                let subs: Vec<String> = subs.iter().map(|a| self.expr(a, 0)).collect();
                format!("owner({}({}))", self.name(*array), subs.join(","))
            }
            SExpr::LocalIdx { sub, .. } => {
                format!("local({})", self.expr(sub, 0))
            }
        }
    }
}

fn is_simple(s: &SStmt) -> bool {
    s.is_comm()
        || matches!(
            s,
            SStmt::Assign { .. } | SStmt::Return | SStmt::Stop | SStmt::Call { .. }
        )
}

fn dist_spelling(d: &fortrand_ir::dist::ArrayDist) -> String {
    let parts: Vec<String> = d
        .dims
        .iter()
        .map(|p| p.kind.spelling().to_lowercase())
        .collect();
    format!("({})", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_ir::dist::{array_dist, Alignment, DistKind, Distribution};
    use fortrand_ir::Interner;

    /// Builds the paper's Figure 2 output by hand and checks the rendering.
    #[test]
    fn renders_fig2_shape() {
        let mut int = Interner::new();
        let f1 = int.intern("f1");
        let x = int.intern("x");
        let i = int.intern("i");
        let ub1 = int.intern("ub$1");
        let dist = Distribution {
            kinds: vec![DistKind::Block],
            nprocs: 4,
        };
        let ad = array_dist(&[100], &Alignment::identity(1), &[100], &dist);
        let mut prog = SpmdProgram {
            interner: int,
            nprocs: 4,
            procs: vec![],
            main: usize::MAX,
            dists: vec![],
        };
        let did = prog.add_dist(ad);
        let body = vec![
            SStmt::Assign {
                lhs: SLval::Scalar(ub1),
                rhs: SExpr::sub(
                    SExpr::min2(
                        SExpr::mul(SExpr::add(SExpr::MyP, SExpr::int(1)), SExpr::int(25)),
                        SExpr::int(95),
                    ),
                    SExpr::mul(SExpr::MyP, SExpr::int(25)),
                ),
            },
            SStmt::If {
                cond: SExpr::bin(SBinOp::Gt, SExpr::MyP, SExpr::int(0)),
                then_body: vec![SStmt::Send {
                    to: SExpr::sub(SExpr::MyP, SExpr::int(1)),
                    tag: 0,
                    parts: vec![(x, SRect::one(SExpr::int(1), SExpr::int(5)))],
                }],
                else_body: vec![],
            },
            SStmt::If {
                cond: SExpr::bin(SBinOp::Lt, SExpr::MyP, SExpr::int(3)),
                then_body: vec![SStmt::Recv {
                    from: SExpr::add(SExpr::MyP, SExpr::int(1)),
                    tag: 0,
                    parts: vec![(x, SRect::one(SExpr::int(26), SExpr::int(30)))],
                }],
                else_body: vec![],
            },
            SStmt::Do {
                var: i,
                lo: SExpr::int(1),
                hi: SExpr::Var(ub1),
                step: 1,
                body: vec![SStmt::Assign {
                    lhs: SLval::Elem {
                        array: x,
                        subs: vec![SExpr::Var(i)],
                    },
                    rhs: SExpr::mul(
                        SExpr::Real(0.5),
                        SExpr::Elem {
                            array: x,
                            subs: vec![SExpr::add(SExpr::Var(i), SExpr::int(5))],
                        },
                    ),
                }],
            },
        ];
        prog.procs.push(SProc {
            name: f1,
            formals: vec![SFormal {
                name: x,
                is_array: true,
            }],
            decls: vec![SDecl {
                name: x,
                bounds: vec![(1, 30)],
                dist: did,
                owner_dist: None,
            }],
            body,
        });
        let text = pretty(&prog, 0);
        let expect = "\
SUBROUTINE F1(X)
REAL X(30)
ub$1 = min((my$p+1)*25,95)-my$p*25
if (my$p .gt. 0) send X(1:5) to my$p-1
if (my$p .lt. 3) recv X(26:30) from my$p+1
do i = 1,ub$1
  X(i) = 0.5*X(i+5)
enddo
";
        assert_eq!(text, expect);
    }

    #[test]
    fn precedence_parens() {
        let int = Interner::new();
        let prog = SpmdProgram {
            interner: int,
            nprocs: 1,
            procs: vec![],
            main: usize::MAX,
            dists: vec![],
        };
        let mut pr = Printer {
            prog: &prog,
            out: String::new(),
            indent: 0,
        };
        // (a+b)*c needs parens; a+b*c does not.
        let e1 = SExpr::mul(SExpr::add(SExpr::MyP, SExpr::int(1)), SExpr::int(2));
        assert_eq!(pr.expr(&e1, 0), "(my$p+1)*2");
        let e2 = SExpr::add(SExpr::MyP, SExpr::mul(SExpr::int(2), SExpr::int(3)));
        assert_eq!(pr.expr(&e2, 0), "my$p+2*3");
        // Left-assoc subtraction: a-(b-c) parenthesized.
        let e3 = SExpr::sub(SExpr::int(9), SExpr::sub(SExpr::int(5), SExpr::int(2)));
        assert_eq!(pr.expr(&e3, 0), "9-(5-2)");
    }
}
