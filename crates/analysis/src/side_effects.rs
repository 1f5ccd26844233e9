//! Interprocedural side-effect analysis (GMOD/GREF) with array sections.
//!
//! Bottom-up over the (acyclic) call graph: each unit's summary records the
//! scalars and array sections it may modify or reference, *including its
//! descendants*, with callee summaries translated through formal/actual
//! bindings at each call site (paper §5.2's `Translate`, and the RSD
//! propagation of §5.4). `Appear(P) = GMOD(P) ∪ GREF(P)` drives the
//! cloning filter (Fig. 8).

use crate::acg::{Acg, CallEdge};
use crate::framework::{self, AcgGraph, DataflowProblem, SolveStats};
use crate::refs::{collect_refs, ArrayRef};
use crate::registry::Direction;
use fortrand_frontend::ast::{Expr, LValue, ProcUnit, SourceProgram, StmtKind};
use fortrand_frontend::sema::{expr_affine, ProgramInfo, UnitInfo};
use fortrand_ir::digest::{Digester, StableHash};
use fortrand_ir::rsd::Rsd;
use fortrand_ir::{Affine, Sym, SymEnv};
use std::collections::{BTreeMap, BTreeSet};

/// Array-section summary: either the whole array (conservative) or a small
/// list of sections.
#[derive(Clone, Debug, PartialEq)]
pub enum Sections {
    /// Conservative: the whole array.
    Whole,
    /// Specific sections.
    Some(Vec<Rsd>),
}

/// Maximum sections kept per array before widening to `Whole`.
const MAX_SECTIONS: usize = 4;

impl Sections {
    /// Adds a section, merging when precision allows; widens to `Whole`
    /// past the section cap.
    pub fn add(&mut self, r: Rsd, env: &SymEnv) {
        match self {
            Sections::Whole => {}
            Sections::Some(v) => {
                for existing in v.iter_mut() {
                    if let Some(merged) = existing.union_merge(&r, env) {
                        *existing = merged;
                        return;
                    }
                }
                v.push(r);
                if v.len() > MAX_SECTIONS {
                    *self = Sections::Whole;
                }
            }
        }
    }

    /// Union of two summaries.
    pub fn merge(&mut self, other: &Sections, env: &SymEnv) {
        match other {
            Sections::Whole => *self = Sections::Whole,
            Sections::Some(v) => {
                for r in v {
                    self.add(r.clone(), env);
                }
            }
        }
    }
}

/// One unit's side effects (itself + descendants).
#[derive(Clone, Debug, Default)]
pub struct UnitEffects {
    /// Scalars possibly modified.
    pub mod_scalars: BTreeSet<Sym>,
    /// Scalars possibly referenced.
    pub ref_scalars: BTreeSet<Sym>,
    /// Arrays possibly modified, with sections.
    pub mod_arrays: BTreeMap<Sym, Sections>,
    /// Arrays possibly referenced, with sections.
    pub ref_arrays: BTreeMap<Sym, Sections>,
}

impl UnitEffects {
    /// A copy with every symbol renamed through `sym`.
    pub fn relocated(&self, sym: &mut dyn FnMut(Sym) -> Sym) -> UnitEffects {
        let mut scalars =
            |set: &BTreeSet<Sym>| -> BTreeSet<Sym> { set.iter().map(|&s| sym(s)).collect() };
        let (mod_scalars, ref_scalars) = (scalars(&self.mod_scalars), scalars(&self.ref_scalars));
        let mut arrays = |side: &BTreeMap<Sym, Sections>| -> BTreeMap<Sym, Sections> {
            (side.iter())
                .map(|(&a, secs)| {
                    let secs = match secs {
                        Sections::Whole => Sections::Whole,
                        Sections::Some(v) => {
                            Sections::Some(v.iter().map(|r| r.map_syms(sym)).collect())
                        }
                    };
                    (sym(a), secs)
                })
                .collect()
        };
        UnitEffects {
            mod_scalars,
            ref_scalars,
            mod_arrays: arrays(&self.mod_arrays),
            ref_arrays: arrays(&self.ref_arrays),
        }
    }

    /// `Appear(P)`: every variable modified or referenced by `P` or its
    /// descendants (paper Fig. 8).
    pub fn appear(&self) -> BTreeSet<Sym> {
        let mut s = BTreeSet::new();
        s.extend(self.mod_scalars.iter().copied());
        s.extend(self.ref_scalars.iter().copied());
        s.extend(self.mod_arrays.keys().copied());
        s.extend(self.ref_arrays.keys().copied());
        s
    }
}

/// As `None` for the whole array.
impl StableHash for Sections {
    fn stable_hash(&self, d: &mut Digester) {
        let some = match self {
            Sections::Whole => None,
            Sections::Some(v) => Some(v),
        };
        some.stable_hash(d);
    }
}

/// Whole-program side effects.
#[derive(Clone, Debug, Default)]
pub struct SideEffects {
    /// Per-unit summaries.
    pub units: BTreeMap<Sym, UnitEffects>,
}

impl SideEffects {
    /// Summary for one unit.
    pub fn unit(&self, name: Sym) -> &UnitEffects {
        &self.units[&name]
    }
}

/// The GMOD/GREF problem over the ACG: a node's fact is its
/// [`UnitEffects`] summary (itself + descendants). The boundary value is
/// the unit's *local* effects, as `local` gives them; each call edge
/// contributes the callee's summary translated through the formal/actual
/// bindings, met in call-list order (section widening is order-sensitive,
/// so the fold order of the pre-framework pass is preserved exactly).
struct SideEffectsProblem<'a> {
    info: &'a ProgramInfo,
    local: &'a dyn Fn(Sym) -> UnitEffects,
    env: SymEnv,
}

impl DataflowProblem<AcgGraph<'_>> for SideEffectsProblem<'_> {
    type Fact = UnitEffects;

    fn name(&self) -> &'static str {
        "Scalar & array side effects"
    }

    fn direction(&self) -> Direction {
        Direction::BottomUp
    }

    fn boundary(&mut self, _g: &AcgGraph, n: Sym) -> UnitEffects {
        (self.local)(n)
    }

    fn translate(
        &mut self,
        _g: &AcgGraph,
        edge: &CallEdge,
        _src: Sym,
        callee_eff: &UnitEffects,
    ) -> Vec<UnitEffects> {
        let (tmods, trefs) = translate_effects(callee_eff, edge, self.info, &self.env);
        vec![UnitEffects {
            mod_arrays: tmods.0,
            mod_scalars: tmods.1,
            ref_arrays: trefs.0,
            ref_scalars: trefs.1,
        }]
    }

    fn meet(&mut self, acc: &mut UnitEffects, contrib: UnitEffects) {
        for (v, s) in contrib.mod_arrays {
            acc.mod_arrays
                .entry(v)
                .or_insert_with(|| Sections::Some(vec![]))
                .merge(&s, &self.env);
        }
        for v in contrib.mod_scalars {
            acc.mod_scalars.insert(v);
        }
        for (v, s) in contrib.ref_arrays {
            acc.ref_arrays
                .entry(v)
                .or_insert_with(|| Sections::Some(vec![]))
                .merge(&s, &self.env);
        }
        for v in contrib.ref_scalars {
            acc.ref_scalars.insert(v);
        }
    }

    fn transfer(&mut self, _g: &AcgGraph, _n: Sym, input: UnitEffects) -> UnitEffects {
        input
    }
}

/// A unit's local effects, the problem's boundary value: the sections of
/// `refs` (the unit's own references, [`collect_refs`]) and the scalars
/// its assignments and loops write and read, no callee's included.
pub fn local_effects(unit: &ProcUnit, ui: &UnitInfo, refs: &[ArrayRef]) -> UnitEffects {
    let env = SymEnv::new();
    let mut eff = UnitEffects::default();

    // Local array references.
    for r in refs {
        let sections = if r.is_def {
            &mut eff.mod_arrays
        } else {
            &mut eff.ref_arrays
        };
        let entry = sections
            .entry(r.array)
            .or_insert_with(|| Sections::Some(vec![]));
        match r.swept_rsd() {
            Some(rsd) => entry.add(rsd, &env),
            None => *entry = Sections::Whole,
        }
    }
    // Local scalar effects.
    for s in unit.walk() {
        match &s.kind {
            StmtKind::Assign { lhs, rhs } => {
                if let LValue::Scalar(v) = lhs {
                    eff.mod_scalars.insert(*v);
                }
                let mut used = vec![];
                rhs.mentioned_syms(&mut used);
                if let LValue::Element { subs, .. } = lhs {
                    for sub in subs {
                        sub.mentioned_syms(&mut used);
                    }
                }
                for v in used {
                    if !ui.is_array(v) && !ui.params.contains_key(&v) {
                        eff.ref_scalars.insert(v);
                    }
                }
            }
            StmtKind::Do { var, lo, hi, .. } => {
                eff.mod_scalars.insert(*var);
                let mut used = vec![];
                lo.mentioned_syms(&mut used);
                hi.mentioned_syms(&mut used);
                for v in used {
                    if !ui.is_array(v) && !ui.params.contains_key(&v) {
                        eff.ref_scalars.insert(v);
                    }
                }
            }
            _ => {}
        }
    }
    eff
}

/// Computes GMOD/GREF bottom-up (reverse topological order).
pub fn compute(prog: &SourceProgram, info: &ProgramInfo, acg: &Acg) -> SideEffects {
    compute_with_stats(prog, info, acg).0
}

/// [`compute`], also returning the framework solver's statistics.
pub fn compute_with_stats(
    prog: &SourceProgram,
    info: &ProgramInfo,
    acg: &Acg,
) -> (SideEffects, SolveStats) {
    let local = |n: Sym| {
        let unit = prog.unit(n).expect("unit in ACG");
        let ui = info.unit(n);
        local_effects(unit, ui, &collect_refs(unit, ui))
    };
    compute_from_locals(info, acg, &local)
}

/// [`compute_with_stats`] from each unit's local effects as `local` gives
/// them ([`local_effects`]), so a caller that keeps them walks no unit.
pub fn compute_from_locals(
    info: &ProgramInfo,
    acg: &Acg,
    local: &dyn Fn(Sym) -> UnitEffects,
) -> (SideEffects, SolveStats) {
    let g = AcgGraph { acg };
    let mut problem = SideEffectsProblem {
        info,
        local,
        env: SymEnv::new(),
    };
    let (facts, stats) = framework::solve(&g, &mut problem);
    (
        SideEffects {
            units: facts.into_iter().collect(),
        },
        stats,
    )
}

type Translated = (BTreeMap<Sym, Sections>, BTreeSet<Sym>);

/// Translates a callee's summary into the caller's name space at one call
/// site; effects on callee locals vanish (they are dead at return).
pub fn translate_effects(
    callee: &UnitEffects,
    edge: &CallEdge,
    info: &ProgramInfo,
    env: &SymEnv,
) -> (Translated, Translated) {
    let callee_info = info.unit(edge.callee);
    let caller_info = info.unit(edge.caller);
    let formals = &callee_info.formals;

    // Scalar substitution map: callee formal → caller affine expression.
    let mut subst: BTreeMap<Sym, Affine> = BTreeMap::new();
    // Array binding: callee formal → caller array (whole-array actuals).
    let mut arrays: BTreeMap<Sym, Option<Sym>> = BTreeMap::new();
    for (i, &f) in formals.iter().enumerate() {
        let actual = edge.actuals.get(i);
        let f_is_array = callee_info.is_array(f);
        if f_is_array {
            match actual {
                Some(Expr::Var(a)) if caller_info.is_array(*a) => {
                    // Reshape check: same declared shape keeps sections.
                    let same_shape = caller_info.var(*a).map(|v| v.dims.clone())
                        == callee_info.var(f).map(|v| v.dims.clone());
                    arrays.insert(f, if same_shape { Some(*a) } else { None });
                }
                Some(Expr::Element { .. }) => {
                    // Subarray passing: conservative whole-array effect.
                    arrays.insert(f, None);
                }
                _ => {
                    arrays.insert(f, None);
                }
            }
        } else if let Some(a) = actual {
            if let Some(aff) = expr_affine(a, &caller_info.params) {
                subst.insert(f, aff);
            }
        }
    }
    // Which symbols may legally appear in translated bounds.
    let translatable: BTreeSet<Sym> = subst.keys().copied().collect();

    let translate_side = |side: &BTreeMap<Sym, Sections>| -> (BTreeMap<Sym, Sections>, bool) {
        let mut out: BTreeMap<Sym, Sections> = BTreeMap::new();
        for (&v, secs) in side {
            // Effects on callee locals don't escape; effects on formals map
            // to actuals.
            let Some(binding) = arrays.get(&v) else {
                if callee_info.var(v).map(|x| x.is_formal).unwrap_or(false)
                    && !callee_info.is_array(v)
                {
                    // scalar formal modified: Fortran copy-in/copy-out —
                    // treat the caller actual scalar as modified if it was
                    // a variable.
                }
                continue;
            };
            let Some(target) = binding else {
                out.insert(
                    v, // placeholder; fixed below
                    Sections::Whole,
                );
                continue;
            };
            let mut t = Sections::Some(vec![]);
            match secs {
                Sections::Whole => t = Sections::Whole,
                Sections::Some(v2) => {
                    for r in v2 {
                        let ok = r.dims.iter().all(|trip| {
                            trip.lo.syms().all(|s| translatable.contains(&s))
                                && trip.hi.syms().all(|s| translatable.contains(&s))
                        });
                        if !ok {
                            t = Sections::Whole;
                            break;
                        }
                        let mut r2 = r.clone();
                        for (s, rep) in &subst {
                            r2 = r2.subst(*s, rep);
                        }
                        t.add(r2, env);
                    }
                }
            }
            out.insert(*target, t);
        }
        (out, false)
    };

    // Fix the placeholder issue for unbindable formals by re-keying: an
    // unbound array formal whose actual base is identifiable should taint
    // that base wholly. Re-walk to do this correctly.
    let fix = |side: &BTreeMap<Sym, Sections>, out: &mut BTreeMap<Sym, Sections>| {
        for (i, &f) in formals.iter().enumerate() {
            if !callee_info.is_array(f) || !side.contains_key(&f) {
                continue;
            }
            if let Some(None) = arrays.get(&f) {
                // Identify the actual's base array if any.
                if let Some(Expr::Element { array: a, .. } | Expr::Var(a)) = edge.actuals.get(i) {
                    if caller_info.is_array(*a) {
                        out.insert(*a, Sections::Whole);
                    }
                }
                out.remove(&f);
            }
        }
    };

    let (mut tmod_arrays, _) = translate_side(&callee.mod_arrays);
    fix(&callee.mod_arrays, &mut tmod_arrays);
    let (mut tref_arrays, _) = translate_side(&callee.ref_arrays);
    fix(&callee.ref_arrays, &mut tref_arrays);

    // Scalar effects: formal scalars map to variable actuals.
    let map_scalars = |set: &BTreeSet<Sym>| -> BTreeSet<Sym> {
        let mut out = BTreeSet::new();
        for &v in set {
            if let Some(pos) = formals.iter().position(|&f| f == v) {
                if let Some(Expr::Var(a)) = edge.actuals.get(pos) {
                    if !caller_info.is_array(*a) {
                        out.insert(*a);
                    }
                }
            }
        }
        out
    };

    (
        (tmod_arrays, map_scalars(&callee.mod_scalars)),
        (tref_arrays, map_scalars(&callee.ref_scalars)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acg::build_acg;
    use fortrand_frontend::load_program;
    use fortrand_ir::rsd::Triplet;

    fn setup(
        src: &str,
    ) -> (
        fortrand_frontend::SourceProgram,
        ProgramInfo,
        Acg,
        SideEffects,
    ) {
        let (p, info) = load_program(src).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let se = compute(&p, &info, &acg);
        (p, info, acg, se)
    }

    #[test]
    fn direct_effects_with_sections() {
        let (p, _, _, se) = setup(
            "
      SUBROUTINE f(x)
      REAL x(100)
      do i = 1, 95
        x(i) = 0.5 * x(i+5)
      enddo
      END
      PROGRAM main
      REAL y(100)
      call f(y)
      END
",
        );
        let f = p.interner.get("f").unwrap();
        let x = p.interner.get("x").unwrap();
        let eff = se.unit(f);
        assert_eq!(
            eff.mod_arrays[&x],
            Sections::Some(vec![Rsd::new(vec![Triplet::lit(1, 95)])])
        );
        assert_eq!(
            eff.ref_arrays[&x],
            Sections::Some(vec![Rsd::new(vec![Triplet::lit(6, 100)])])
        );
    }

    #[test]
    fn effects_translate_to_caller() {
        let (p, _, _, se) = setup(
            "
      SUBROUTINE f(x)
      REAL x(100)
      do i = 1, 95
        x(i) = 0.5 * x(i+5)
      enddo
      END
      PROGRAM main
      REAL y(100)
      call f(y)
      END
",
        );
        let main = p.interner.get("main").unwrap();
        let y = p.interner.get("y").unwrap();
        let eff = se.unit(main);
        assert_eq!(
            eff.mod_arrays[&y],
            Sections::Some(vec![Rsd::new(vec![Triplet::lit(1, 95)])])
        );
    }

    #[test]
    fn formal_symbol_in_bounds_translates() {
        // F2 touches Z(1:95, i) where i is a formal; at the call site i is
        // the caller's loop variable.
        let (p, _, _, se) = setup(crate::fixtures::FIG4);
        let f2 = p.interner.get("f2").unwrap();
        let z = p.interner.get("z").unwrap();
        let i = p.interner.get("i").unwrap();
        let eff = se.unit(f2);
        match &eff.mod_arrays[&z] {
            Sections::Some(v) => {
                assert_eq!(v.len(), 1);
                assert_eq!(v[0].dims[1].lo, Affine::sym(i));
            }
            w => panic!("{w:?}"),
        }
        // Translated into P1: mod of X over column range swept by the loop.
        let p1 = p.interner.get("p1").unwrap();
        let x = p.interner.get("x").unwrap();
        let effp = se.unit(p1);
        assert!(effp.mod_arrays.contains_key(&x));
    }

    #[test]
    fn appear_contains_transitive_vars() {
        let (p, _, _, se) = setup(crate::fixtures::FIG4);
        let f1 = p.interner.get("f1").unwrap();
        let z = p.interner.get("z").unwrap();
        // F1's own body only calls F2, but Appear(F1) must include Z via F2.
        assert!(se.unit(f1).appear().contains(&z));
    }

    #[test]
    fn scalar_mod_ref_tracked() {
        let (p, _, _, se) = setup(
            "
      SUBROUTINE g(a, b)
      INTEGER a, b
      a = b + 1
      END
      PROGRAM main
      INTEGER u, v
      v = 1
      call g(u, v)
      END
",
        );
        let g = p.interner.get("g").unwrap();
        let a = p.interner.get("a").unwrap();
        let b = p.interner.get("b").unwrap();
        assert!(se.unit(g).mod_scalars.contains(&a));
        assert!(se.unit(g).ref_scalars.contains(&b));
        // Translated to main: u modified, v referenced.
        let main = p.interner.get("main").unwrap();
        let u = p.interner.get("u").unwrap();
        let v = p.interner.get("v").unwrap();
        assert!(se.unit(main).mod_scalars.contains(&u));
        assert!(se.unit(main).ref_scalars.contains(&v));
    }

    #[test]
    fn reshaped_actual_goes_whole() {
        let (p, _, _, se) = setup(
            "
      SUBROUTINE f(x)
      REAL x(50)
      x(1) = 0.0
      END
      PROGRAM main
      REAL y(100)
      call f(y)
      END
",
        );
        let main = p.interner.get("main").unwrap();
        let y = p.interner.get("y").unwrap();
        assert_eq!(se.unit(main).mod_arrays[&y], Sections::Whole);
    }

    #[test]
    fn callee_locals_do_not_escape() {
        let (p, _, _, se) = setup(
            "
      SUBROUTINE f
      REAL t(10)
      t(1) = 1.0
      END
      PROGRAM main
      call f
      END
",
        );
        let main = p.interner.get("main").unwrap();
        assert!(se.unit(main).mod_arrays.is_empty());
    }
}
