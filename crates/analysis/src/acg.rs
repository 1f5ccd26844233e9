//! The augmented call graph (ACG).
//!
//! Paper §5.1: a call graph whose nodes are procedures, augmented with loop
//! nodes (bounds, step, index variable) and nesting edges recording which
//! loops enclose which call sites, plus formal/actual bindings per call.
//! Annotations record when a formal parameter is actually a caller's loop
//! index and its iteration range — e.g. formal `i` of `F1` in Fig. 4/5
//! iterates 1:100.

use crate::refs::LoopCtx;
use fortrand_frontend::ast::{Expr, ProcUnit, SourceProgram, Stmt, StmtId, StmtKind};
use fortrand_frontend::sema::{expr_affine, ProgramInfo};
use fortrand_ir::{Affine, Sym};
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

/// One call edge with its site context.
#[derive(Clone, Debug)]
pub struct CallEdge {
    /// Call statement.
    pub site: StmtId,
    /// Calling unit.
    pub caller: Sym,
    /// Called unit.
    pub callee: Sym,
    /// Actual argument expressions.
    pub actuals: Vec<Expr>,
    /// Loops enclosing the call site in the caller, outermost first —
    /// the ACG's nesting edges.
    pub loops: Vec<LoopCtx>,
}

/// The augmented call graph.
#[derive(Clone, Debug, Default)]
pub struct Acg {
    /// Units in topological order (callers before callees).
    pub topo: Vec<Sym>,
    /// Out-edges per unit.
    pub calls: BTreeMap<Sym, Vec<CallEdge>>,
    /// In-edges: callee → `(caller, i)` pairs, edge `i` of
    /// `calls[caller]`; callers in topological order, each caller's sites
    /// in statement order (see [`Acg::edges_into`]). Every unit has an
    /// entry.
    pub callers: BTreeMap<Sym, Vec<(Sym, usize)>>,
    /// Known constant iteration ranges of formals: `(unit, formal) → (lo,
    /// hi)` when every call site binds the formal to a loop index (or
    /// constant) with that consistent range.
    pub formal_ranges: BTreeMap<(Sym, Sym), (i64, i64)>,
}

impl Acg {
    /// Units in reverse topological order (callees before callers) — the
    /// one interprocedural code-generation order (paper §5).
    ///
    /// Defined as the flattening of `wavefront_levels`: leaves first,
    /// then each unit one level above its deepest callee. The order
    /// interns names and numbers distributions in the emitted program,
    /// so every golden pins it.
    pub fn reverse_topo(&self) -> Vec<Sym> {
        self.wavefront_levels().into_iter().flatten().collect()
    }

    /// The units by level. Level 0 holds the leaves; a unit's level is
    /// `1 + max(level of its callees)`, so units of one level share no
    /// call edges (directly or transitively).
    ///
    /// Within a level, units keep their relative order from the plain
    /// reversed topological sort, which makes the flattened order a
    /// deterministic, callees-before-callers refinement of it.
    fn wavefront_levels(&self) -> Vec<Vec<Sym>> {
        let mut level: BTreeMap<Sym, usize> = BTreeMap::new();
        // `topo` is callers-first, so the reverse iteration sees every
        // callee before its callers.
        for &u in self.topo.iter().rev() {
            let l = self
                .calls
                .get(&u)
                .map(|es| es.iter().map(|e| level[&e.callee] + 1).max().unwrap_or(0))
                .unwrap_or(0);
            level.insert(u, l);
        }
        let depth = level.values().max().map_or(0, |m| m + 1);
        let mut out = vec![Vec::new(); depth];
        for &u in self.topo.iter().rev() {
            out[level[&u]].push(u);
        }
        out
    }

    /// All call edges into `callee`: callers in topological order, each
    /// caller's sites in statement order. Reads the [`Acg::callers`]
    /// index, so it costs the in-degree, not the whole graph.
    pub fn edges_into(&self, callee: Sym) -> impl Iterator<Item = &CallEdge> + '_ {
        self.callers
            .get(&callee)
            .into_iter()
            .flatten()
            .map(|&(caller, i)| &self.calls[&caller][i])
    }
}

/// Builds the ACG. Fails on recursion (the paper's single-pass compilation
/// requires an acyclic call graph) and on calls to unknown units.
pub fn build_acg(prog: &SourceProgram, info: &ProgramInfo) -> Result<Acg, String> {
    let mut acg = Acg::default();
    for u in &prog.units {
        let mut edges = Vec::new();
        let mut nest: Vec<LoopCtx> = Vec::new();
        collect_calls(u, &u.body, info, &mut nest, &mut edges);
        acg.calls.insert(u.name, edges);
    }

    // Topological sort (callers first). Kahn over call edges.
    let mut indeg: FxHashMap<Sym, usize> = FxHashMap::default();
    for u in &prog.units {
        indeg.insert(u.name, 0);
    }
    for edges in acg.calls.values() {
        // Count distinct edges (a unit called twice has indegree 2; fine).
        for e in edges {
            *indeg.entry(e.callee).or_insert(0) += 1;
        }
    }
    let mut ready: Vec<Sym> = prog
        .units
        .iter()
        .map(|u| u.name)
        .filter(|n| indeg[n] == 0)
        .collect();
    let mut topo = Vec::new();
    while let Some(n) = ready.pop() {
        topo.push(n);
        if let Some(edges) = acg.calls.get(&n) {
            for e in edges {
                let d = indeg.get_mut(&e.callee).unwrap();
                *d -= 1;
                if *d == 0 {
                    ready.push(e.callee);
                }
            }
        }
        ready.sort(); // determinism
    }
    if topo.len() != prog.units.len() {
        return Err(
            "recursive call graph: Fortran D interprocedural compilation requires \
                    an acyclic call graph"
                .into(),
        );
    }
    acg.topo = topo;
    for u in &prog.units {
        acg.callers.insert(u.name, Vec::new());
    }
    for &caller in &acg.topo {
        for (i, e) in acg.calls[&caller].iter().enumerate() {
            if let Some(v) = acg.callers.get_mut(&e.callee) {
                v.push((caller, i));
            }
        }
    }

    // Formal range annotations: formal f of P has range (lo,hi) when every
    // call site binds it to either a constant c (range (c,c)) or a loop
    // index whose constant bounds are known — the convex hull (min lo,
    // max hi) over the sites, since ranges are only used for conservative
    // bound comparisons. Loop bounds already have the caller's PARAMETERs
    // folded in (`expr_affine`), so the PARAMETER table is the whole
    // constant environment here.
    refine_formal_ranges(&mut acg, info, &|u| info.unit(u).params.clone());
    Ok(acg)
}

/// Adds formal-range annotations under the constant environment
/// `params_of(unit)` gives each caller, leaving formals that already have
/// one alone: `build_acg` runs it with each unit's PARAMETERs, and the
/// driver again after `consts::compute` with the interprocedural
/// constants folded in, which sharpens loop bounds. Callees are visited
/// in topological order, so a caller's ranges are final when its callees
/// read them (F2's `i` inherits F1's `i` inherits the 1:100 loop of P1 —
/// the annotation of Fig. 5). `params_of` runs once per caller.
pub fn refine_formal_ranges(
    acg: &mut Acg,
    info: &ProgramInfo,
    params_of: &dyn Fn(Sym) -> BTreeMap<Sym, i64>,
) {
    let mut params: FxHashMap<Sym, BTreeMap<Sym, i64>> = FxHashMap::default();
    for &callee in &acg.topo {
        let formals = &info.unit(callee).formals;
        // Per formal: `Some(hull so far)` while every site seen binds it
        // to a known range; `None` once one does not, or when it already
        // has a range.
        let mut hulls: Vec<Option<Option<(i64, i64)>>> = formals
            .iter()
            .map(|&f| (!acg.formal_ranges.contains_key(&(callee, f))).then_some(None))
            .collect();
        if acg.callers[&callee].is_empty() || hulls.iter().all(Option::is_none) {
            continue;
        }
        for e in acg.edges_into(callee) {
            let params = params
                .entry(e.caller)
                .or_insert_with(|| params_of(e.caller));
            let fold = |a: &Affine| -> Option<i64> { a.eval(&|s| params.get(&s).copied()) };
            for (i, slot) in hulls.iter_mut().enumerate() {
                let Some(hull) = slot else { continue };
                let this: Option<(i64, i64)> = match e.actuals.get(i) {
                    Some(Expr::Int(c)) => Some((*c, *c)),
                    Some(Expr::Var(v)) => e
                        .loops
                        .iter()
                        .rev()
                        .find(|l| l.var == *v)
                        .and_then(|l| {
                            let lo = l.lo.as_ref().and_then(fold)?;
                            let hi = l.hi.as_ref().and_then(fold)?;
                            Some((lo, hi))
                        })
                        .or_else(|| params.get(v).map(|&c| (c, c)))
                        .or_else(|| acg.formal_ranges.get(&(e.caller, *v)).copied()),
                    _ => None,
                };
                *slot = this.map(|(lo, hi)| {
                    Some(match *hull {
                        Some((alo, ahi)) => (alo.min(lo), ahi.max(hi)),
                        None => (lo, hi),
                    })
                });
            }
        }
        for (&f, slot) in formals.iter().zip(hulls) {
            if let Some(Some(r)) = slot {
                acg.formal_ranges.insert((callee, f), r);
            }
        }
    }
}

fn collect_calls(
    unit: &ProcUnit,
    body: &[Stmt],
    info: &ProgramInfo,
    nest: &mut Vec<LoopCtx>,
    out: &mut Vec<CallEdge>,
) {
    let params = &info.unit(unit.name).params;
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
                    Some(e) => fortrand_frontend::sema::fold_const(e, params),
                };
                nest.push(LoopCtx {
                    stmt: s.id,
                    var: *var,
                    lo: expr_affine(lo, params),
                    hi: expr_affine(hi, params),
                    step: stepc,
                });
                collect_calls(unit, body, info, nest, out);
                nest.pop();
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                collect_calls(unit, then_body, info, nest, out);
                collect_calls(unit, else_body, info, nest, out);
            }
            StmtKind::Call { name, args } => {
                out.push(CallEdge {
                    site: s.id,
                    caller: unit.name,
                    callee: *name,
                    actuals: args.clone(),
                    loops: nest.clone(),
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_frontend::load_program;

    use crate::fixtures::FIG4;

    #[test]
    fn fig4_acg_structure() {
        let (p, info) = load_program(FIG4).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let p1 = p.interner.get("p1").unwrap();
        let f1 = p.interner.get("f1").unwrap();
        let f2 = p.interner.get("f2").unwrap();
        // Topological order: P1, F1, F2.
        assert_eq!(acg.topo, vec![p1, f1, f2]);
        assert_eq!(acg.reverse_topo(), vec![f2, f1, p1]);
        // P1 has two call edges, each inside one loop.
        let p1_calls = &acg.calls[&p1];
        assert_eq!(p1_calls.len(), 2);
        assert_eq!(p1_calls[0].loops.len(), 1);
        assert_eq!(p1_calls[1].loops.len(), 1);
        // F1 calls F2 with no enclosing loop.
        assert_eq!(acg.calls[&f1].len(), 1);
        assert!(acg.calls[&f1][0].loops.is_empty());
        // Callers of F1: two sites in P1.
        assert_eq!(acg.callers[&f1].len(), 2);
    }

    #[test]
    fn fig5_formal_range_annotation() {
        // The ACG records that formal `i` of F1 (and F2) iterates 1:100
        // (paper Fig. 5's annotation).
        let (p, info) = load_program(FIG4).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let f1 = p.interner.get("f1").unwrap();
        let f2 = p.interner.get("f2").unwrap();
        let i = p.interner.get("i").unwrap();
        assert_eq!(acg.formal_ranges.get(&(f1, i)), Some(&(1, 100)));
        assert_eq!(acg.formal_ranges.get(&(f2, i)), Some(&(1, 100)));
    }

    #[test]
    fn recursion_rejected() {
        let src = "
      PROGRAM P
      call A
      END
      SUBROUTINE A
      call B
      END
      SUBROUTINE B
      call A
      END
";
        let (p, info) = load_program(src).unwrap();
        let err = build_acg(&p, &info).unwrap_err();
        assert!(err.contains("recursive"));
    }

    #[test]
    fn constant_actual_gives_point_range() {
        let src = "
      PROGRAM P
      call S(7)
      END
      SUBROUTINE S(m)
      INTEGER m
      END
";
        let (p, info) = load_program(src).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let s = p.interner.get("s").unwrap();
        let m = p.interner.get("m").unwrap();
        assert_eq!(acg.formal_ranges.get(&(s, m)), Some(&(7, 7)));
    }

    #[test]
    fn mixed_sites_hull_range() {
        let src = "
      PROGRAM P
      do i = 1, 10
        call S(i)
      enddo
      call S(50)
      END
      SUBROUTINE S(m)
      INTEGER m
      END
";
        let (p, info) = load_program(src).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let s = p.interner.get("s").unwrap();
        let m = p.interner.get("m").unwrap();
        assert_eq!(acg.formal_ranges.get(&(s, m)), Some(&(1, 50)));
    }
}
