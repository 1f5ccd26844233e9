//! Reaching decompositions (paper §5.2, Figs. 6–7).
//!
//! Determines, for every array at every program point, the set of data
//! decomposition specifications that may reach it. Locally it is a forward
//! problem over the structured control flow (each `ALIGN`/`DISTRIBUTE` is a
//! "definition"); interprocedurally it is solved in one *top-down* pass
//! over the call graph because Fortran D scopes dynamic decomposition to
//! the current procedure and its descendants — a callee's changes are
//! undone on return, so a procedure's reaching decompositions depend only
//! on its callers.
//!
//! The paper's inherited placeholder `⊤` never materialises: callers are
//! solved before callees, so a formal's entry set is expanded from the met
//! input before the body is walked.
//!
//! # Representation
//!
//! A fact is born at unit entry or at an `ALIGN`/`DISTRIBUTE` and holds
//! until the next one, so the per-statement answer is stored where it
//! changes, not at every statement. Per unit a `Timeline` keeps each
//! statement's position in visit order and, per array, a change list
//! `(position, set)`; the set before a statement is the last entry at or
//! below its position ([`ReachingDecomps::at`], a binary search). Sets are
//! `Arc`-shared between the walker's state, the change lists and every
//! statement they hold at. Cost is O(statements + changes + arrays ×
//! `IF`/`DO` nodes): a plain statement logs only the arrays it re-specifies,
//! while control flow switches the walker to another whole state (the
//! `else` branch restarts from the pre-`then` state, a join merges two), so
//! there the log is re-synchronised against every array — a comparison of
//! handles, not a copy of sets.

use crate::acg::{Acg, CallEdge};
use crate::framework::{self, AcgGraph, DataflowProblem, SolveStats};
use crate::registry::Direction;
use fortrand_frontend::ast::{Expr, SourceProgram, Stmt, StmtId, StmtKind};
use fortrand_frontend::sema::ProgramInfo;
use fortrand_ir::digest::{Digester, StableHash, SymNames};
use fortrand_ir::dist::{self, Alignment, ArrayDist, DistKind, Distribution};
use fortrand_ir::Sym;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

#[cfg(test)]
mod differential;

/// A fully-resolved decomposition specification for one array: the
/// decomposition extents, its distribution kinds, and the array's alignment
/// onto it. Two arrays with equal `DecompSpec`s are partitioned
/// identically.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct DecompSpec {
    /// Decomposition extents.
    pub extents: Vec<i64>,
    /// Per-decomposition-dimension distribution kinds.
    pub kinds: Vec<DistKind>,
    /// Array → decomposition alignment.
    pub align: Alignment,
}

impl StableHash for DecompSpec {
    fn stable_hash(&self, d: &mut Digester) {
        self.extents.stable_hash(d);
        self.kinds.stable_hash(d);
        self.align.stable_hash(d);
    }
}

impl DecompSpec {
    /// Builds the effective [`ArrayDist`] for an array with these extents
    /// on `nprocs` processors.
    pub fn array_dist(&self, array_extents: &[i64], nprocs: usize) -> ArrayDist {
        dist::array_dist(
            array_extents,
            &self.align,
            &self.extents,
            &Distribution {
                kinds: self.kinds.clone(),
                nprocs,
            },
        )
    }

    /// Paper-style spelling in array dimension order, e.g. `(block,:)` for
    /// an identity-aligned row distribution or `(:,block)` for the
    /// transpose-aligned case of Fig. 7.
    pub fn spelling(&self) -> String {
        let parts: Vec<String> = self
            .align
            .perm
            .iter()
            .map(|&dd| {
                self.kinds
                    .get(dd)
                    .copied()
                    .unwrap_or(DistKind::Serial)
                    .spelling()
                    .to_lowercase()
            })
            .collect();
        format!("({})", parts.join(","))
    }
}

/// A reaching set, shared by every holder.
type SetRef = Arc<BTreeSet<DecompSpec>>;

/// What reaches an array the analysis has no record of.
static NO_SPECS: BTreeSet<DecompSpec> = BTreeSet::new();

/// One unit's reaching sets before each statement, stored where they
/// change.
#[derive(Clone, Debug, Default)]
struct Timeline {
    /// Each statement's position in visit order (pre-order; a loop body
    /// keeps the positions of its last fixpoint iteration).
    pos: BTreeMap<StmtId, u32>,
    /// Per array, `(position, set)`: the set reaching it before every
    /// statement from that position up to the next entry's. Positions
    /// strictly increase, so each entry covers at least one statement.
    changes: BTreeMap<Sym, Vec<(u32, SetRef)>>,
}

impl Timeline {
    fn at(&self, stmt: StmtId, array: Sym) -> Option<&BTreeSet<DecompSpec>> {
        let pos = *self.pos.get(&stmt)?;
        let list = self.changes.get(&array)?;
        let upto = list.partition_point(|(from, _)| *from <= pos);
        Some(&list[upto.checked_sub(1)?].1)
    }
}

/// Results of the analysis.
#[derive(Clone, Debug, Default)]
pub struct ReachingDecomps {
    /// `Reaching(P)`: decompositions reaching each unit's formals from all
    /// callers.
    pub reaching: BTreeMap<Sym, BTreeMap<Sym, BTreeSet<DecompSpec>>>,
    /// `LocalReaching(C)` per call site, translated to callee formals.
    pub at_call: BTreeMap<StmtId, BTreeMap<Sym, BTreeSet<DecompSpec>>>,
    /// Reaching sets *before* each statement, per unit.
    timelines: BTreeMap<Sym, Timeline>,
}

impl ReachingDecomps {
    /// The decompositions reaching `array` before `stmt` of `unit`; empty
    /// when none does, or when the analysis never saw the triple.
    pub fn at(&self, unit: Sym, stmt: StmtId, array: Sym) -> &BTreeSet<DecompSpec> {
        self.timelines
            .get(&unit)
            .and_then(|t| t.at(stmt, array))
            .unwrap_or(&NO_SPECS)
    }

    /// The unique decomposition of `array` at `stmt` in `unit`, if exactly
    /// one reaches (the post-cloning invariant).
    pub fn unique_at(&self, unit: Sym, stmt: StmtId, array: Sym) -> Option<&DecompSpec> {
        let set = self.at(unit, stmt, array);
        if set.len() == 1 {
            set.first()
        } else {
            None
        }
    }

    /// The first spec of the first reaching set of `array`, in statement
    /// order over `unit`, that `accept` takes: what probing [`Self::at`]
    /// statement by statement would find, in one pass over the changes.
    pub fn first_spec(
        &self,
        unit: Sym,
        array: Sym,
        accept: impl Fn(&BTreeSet<DecompSpec>) -> bool,
    ) -> Option<&DecompSpec> {
        let list = self.timelines.get(&unit)?.changes.get(&array)?;
        list.iter().find(|(_, set)| accept(set))?.1.first()
    }

    /// The stable digest of `unit`'s reaching sets statement by statement:
    /// each array's change list, by visit position, so no statement id
    /// enters it.
    pub fn timeline_digest(&self, unit: Sym, names: &dyn SymNames) -> u64 {
        let mut d = Digester::new(names);
        if let Some(t) = self.timelines.get(&unit) {
            d.unordered(t.changes.iter().map(|(array, list)| {
                let list: Vec<(u64, &BTreeSet<DecompSpec>)> =
                    list.iter().map(|(at, set)| (*at as u64, &**set)).collect();
                (array, list)
            }));
        }
        d.finish()
    }

    /// What the per-statement record stores: visit positions, change-list
    /// entries and distinct shared sets. The scaling tests bound it by the
    /// program's size.
    pub fn stored_entries(&self) -> usize {
        let mut sets = BTreeSet::new();
        let mut entries = 0;
        for t in self.timelines.values() {
            entries += t.pos.len();
            for (_, set) in t.changes.values().flatten() {
                entries += 1;
                sets.insert(Arc::as_ptr(set));
            }
        }
        entries + sets.len()
    }

    /// The dense table the change lists stand for — every array's set
    /// before every statement — for the golden fact dumps and the
    /// differential test; O(statements × arrays), never on a compile path.
    pub fn expand_before_stmt(
        &self,
    ) -> BTreeMap<(Sym, StmtId), BTreeMap<Sym, BTreeSet<DecompSpec>>> {
        let mut dense = BTreeMap::new();
        for (&unit, t) in &self.timelines {
            for &stmt in t.pos.keys() {
                let sets = t
                    .changes
                    .keys()
                    .filter_map(|&a| Some((a, t.at(stmt, a)?.clone())))
                    .collect();
                dense.insert((unit, stmt), sets);
            }
        }
        dense
    }
}

/// Where an array is currently aligned.
#[derive(Clone, PartialEq, Debug)]
struct AlignBinding {
    /// Decomposition (or implicitly-decomposed array) name.
    target: Sym,
    /// Alignment onto it.
    align: Alignment,
}

/// Flow state within one unit.
#[derive(Clone, PartialEq, Debug, Default)]
struct State {
    /// Per-array reaching set; cloning the state clones handles.
    val: BTreeMap<Sym, SetRef>,
    /// Per-array current alignment.
    aligned: BTreeMap<Sym, AlignBinding>,
    /// `aligned` inverted: the arrays bound to each target (no empty
    /// sets), so a DISTRIBUTE finds its arrays without scanning them all.
    members: BTreeMap<Sym, BTreeSet<Sym>>,
    /// Last distribution seen per decomposition target.
    dist_of: BTreeMap<Sym, Vec<DistKind>>,
}

impl State {
    /// Binds `array` to `binding.target`, replacing its old binding.
    fn align(&mut self, array: Sym, binding: AlignBinding) {
        let target = binding.target;
        if let Some(old) = self.aligned.insert(array, binding) {
            self.unbind(array, old.target);
        }
        self.members.entry(target).or_default().insert(array);
    }

    fn unbind(&mut self, array: Sym, target: Sym) {
        if let Some(set) = self.members.get_mut(&target) {
            set.remove(&array);
            if set.is_empty() {
                self.members.remove(&target);
            }
        }
    }

    fn merge(&mut self, other: &State) {
        for (k, v) in &other.val {
            match self.val.get_mut(k) {
                // Keeps the shared set when `other` adds nothing to it.
                Some(mine) if v.is_subset(mine) => {}
                Some(mine) => Arc::make_mut(mine).extend(v.iter().cloned()),
                None => {
                    self.val.insert(*k, Arc::clone(v));
                }
            }
        }
        // Alignment conflicts collapse to "unknown": drop the binding so a
        // later DISTRIBUTE of the target no longer updates the array.
        let dropped: Vec<(Sym, Sym)> = (self.aligned.iter())
            .filter(|&(k, b)| other.aligned.get(k) != Some(b))
            .map(|(&k, b)| (k, b.target))
            .collect();
        for (array, target) in dropped {
            self.aligned.remove(&array);
            self.unbind(array, target);
        }
        self.dist_of.retain(|k, d| other.dist_of.get(k) == Some(d));
    }
}

/// The reaching-decompositions problem over the ACG: a node's fact maps
/// each formal array to the decomposition specs reaching it from call
/// sites. Top-down and flow-sensitive: the transfer function walks the
/// unit body (recording per-statement sets and call-site bindings as side
/// facts), and call edges translate the bindings recorded at each site.
struct ReachingProblem<'a> {
    prog: &'a SourceProgram,
    info: &'a ProgramInfo,
    out: ReachingDecomps,
}

impl DataflowProblem<AcgGraph<'_>> for ReachingProblem<'_> {
    type Fact = BTreeMap<Sym, BTreeSet<DecompSpec>>;

    fn name(&self) -> &'static str {
        "Reaching decompositions"
    }

    fn direction(&self) -> Direction {
        Direction::TopDown
    }

    fn boundary(&mut self, _g: &AcgGraph, _n: Sym) -> Self::Fact {
        BTreeMap::new()
    }

    fn translate(
        &mut self,
        _g: &AcgGraph,
        edge: &CallEdge,
        _src: Sym,
        _src_fact: &Self::Fact,
    ) -> Vec<Self::Fact> {
        // The caller's transfer already ran (callers precede callees in
        // topological order) and recorded the formal bindings at this
        // call site.
        vec![self
            .out
            .at_call
            .get(&edge.site)
            .cloned()
            .unwrap_or_default()]
    }

    fn meet(&mut self, acc: &mut Self::Fact, contrib: Self::Fact) {
        for (formal, specs) in contrib {
            acc.entry(formal).or_default().extend(specs);
        }
    }

    fn transfer(&mut self, g: &AcgGraph, n: Sym, input: Self::Fact) -> Self::Fact {
        // `Reaching(n)` exists exactly for called units (even when no
        // binding translated), matching the pre-framework map shape.
        let called = g
            .acg
            .callers
            .get(&n)
            .map(|v| !v.is_empty())
            .unwrap_or(false);
        if called {
            self.out.reaching.insert(n, input.clone());
        }

        let unit = self.prog.unit(n).expect("unit");
        let ui = self.info.unit(n);

        // Entry state: formals inherit (expanded immediately from the
        // met input); locals start replicated (one shared empty set).
        let mut st = State::default();
        let replicated = SetRef::default();
        for (&v, vi) in &ui.vars {
            if vi.is_array() {
                let set = match input.get(&v) {
                    Some(specs) if vi.is_formal => Arc::new(specs.clone()),
                    _ => Arc::clone(&replicated),
                };
                st.val.insert(v, set);
                st.align(
                    v,
                    AlignBinding {
                        target: v,
                        align: Alignment::identity(vi.rank()),
                    },
                );
            }
        }

        let mut walker = Walker {
            info: self.info,
            unit_name: n,
            at_call: &mut self.out.at_call,
            line: Timeline::default(),
            next: 0,
        };
        walker.log_all(&st);
        walker.exec_body(&unit.body, &mut st);
        let timeline = walker.finish();
        self.out.timelines.insert(n, timeline);
        input
    }
}

/// Runs the full interprocedural analysis (Fig. 6's three phases fused:
/// the call graph is already built, units are visited in topological order,
/// and per-statement sets are recorded in the same walk).
pub fn compute(prog: &SourceProgram, info: &ProgramInfo, acg: &Acg) -> ReachingDecomps {
    compute_with_stats(prog, info, acg).0
}

/// [`compute`], also returning the framework solver's statistics.
pub fn compute_with_stats(
    prog: &SourceProgram,
    info: &ProgramInfo,
    acg: &Acg,
) -> (ReachingDecomps, SolveStats) {
    let g = AcgGraph { acg };
    let mut problem = ReachingProblem {
        prog,
        info,
        out: ReachingDecomps::default(),
    };
    let (_, stats) = framework::solve(&g, &mut problem);
    (problem.out, stats)
}

/// Drops the entries of a change list at or past `next`, the position the
/// next visited statement takes. They cover no statement: superseded before
/// a statement saw them, or left by the loop iteration being walked again.
fn drop_uncovered(list: &mut Vec<(u32, SetRef)>, next: u32) {
    list.truncate(list.partition_point(|(from, _)| *from < next));
}

/// Walks one unit's body. Invariant between any two steps: for every
/// array, the last entry of its change list is the set the current state
/// holds for it.
struct Walker<'a> {
    info: &'a ProgramInfo,
    unit_name: Sym,
    at_call: &'a mut BTreeMap<StmtId, BTreeMap<Sym, BTreeSet<DecompSpec>>>,
    /// The unit's timeline so far.
    line: Timeline,
    /// The position the next visited statement takes.
    next: u32,
}

impl Walker<'_> {
    /// Logs that `set` reaches `array` before the next visited statement.
    fn log(&mut self, array: Sym, set: &SetRef) {
        let list = self.line.changes.entry(array).or_default();
        drop_uncovered(list, self.next);
        if list.last().map(|(_, last)| last) != Some(set) {
            list.push((self.next, Arc::clone(set)));
        }
    }

    /// Re-establishes the invariant after the walker switched to, or
    /// merged into, a whole other state.
    fn log_all(&mut self, st: &State) {
        for (&array, set) in &st.val {
            self.log(array, set);
        }
    }

    /// `array` is re-specified: exactly `spec` reaches it from here on.
    fn respecify(&mut self, st: &mut State, array: Sym, spec: DecompSpec) {
        let set = Arc::new(BTreeSet::from([spec]));
        self.log(array, &set);
        st.val.insert(array, set);
    }

    /// The finished timeline: what was logged after the last statement
    /// goes.
    fn finish(mut self) -> Timeline {
        for list in self.line.changes.values_mut() {
            drop_uncovered(list, self.next);
        }
        self.line
    }

    fn exec_body(&mut self, body: &[Stmt], st: &mut State) {
        for s in body {
            self.line.pos.insert(s.id, self.next);
            self.next += 1;
            self.exec_stmt(s, st);
        }
    }

    fn exec_stmt(&mut self, s: &Stmt, st: &mut State) {
        match &s.kind {
            StmtKind::Align {
                array,
                target,
                perm,
                offset,
            } => {
                let align = Alignment {
                    perm: perm.clone(),
                    offset: offset.clone(),
                };
                st.align(
                    *array,
                    AlignBinding {
                        target: *target,
                        align: align.clone(),
                    },
                );
                // If the target is already distributed, the array picks up
                // that distribution immediately.
                if let Some(kinds) = st.dist_of.get(target).cloned() {
                    let extents = self.target_extents(*target);
                    self.respecify(
                        st,
                        *array,
                        DecompSpec {
                            extents,
                            kinds,
                            align,
                        },
                    );
                }
            }
            StmtKind::Distribute { target, kinds } => {
                st.dist_of.insert(*target, kinds.clone());
                let extents = self.target_extents(*target);
                // Every array currently aligned to the target (including the
                // target itself if it is an array) is re-specified.
                let affected: Vec<(Sym, Alignment)> = (st.members.get(target).into_iter())
                    .flatten()
                    .map(|&a| (a, st.aligned[&a].align.clone()))
                    .collect();
                for (a, align) in affected {
                    self.respecify(
                        st,
                        a,
                        DecompSpec {
                            extents: extents.clone(),
                            kinds: kinds.clone(),
                            align,
                        },
                    );
                }
            }
            StmtKind::Do { body, .. } => {
                // Loop: iterate to fixpoint (the lattice is small and the
                // transfer functions are monotone after the first kill).
                // Every iteration walks the body over the same positions,
                // so the last visit is the one on record.
                let start = self.next;
                loop {
                    let before = st.clone();
                    self.exec_body(body, st);
                    st.merge(&before);
                    if *st == before {
                        break;
                    }
                    self.next = start;
                    self.log_all(st);
                }
                self.log_all(st);
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let mut st_else = st.clone();
                self.exec_body(then_body, st);
                // The else branch starts from the state before the IF.
                self.log_all(&st_else);
                self.exec_body(else_body, &mut st_else);
                st.merge(&st_else);
                self.log_all(st);
            }
            StmtKind::Call { name, args } => {
                // LocalReaching(C), translated to callee formals.
                let callee_info = self.info.unit(*name);
                let bound = self.at_call.entry(s.id).or_default();
                for (i, a) in args.iter().enumerate() {
                    if let Expr::Var(v) = a {
                        if let Some(set) = st.val.get(v) {
                            bound
                                .entry(callee_info.formals[i])
                                .or_default()
                                .extend(set.iter().cloned());
                        }
                    }
                }
                // The callee may dynamically remap, but its effects are
                // undone on return (Fortran D scoping) — caller state is
                // unchanged.
            }
            _ => {}
        }
    }

    /// Extents of a decomposition target: declared decomposition extents,
    /// or the array's own dims for implicit decompositions.
    fn target_extents(&self, target: Sym) -> Vec<i64> {
        let ui = self.info.unit(self.unit_name);
        if let Some(e) = ui.decomps.get(&target) {
            return e.clone();
        }
        if let Some(v) = ui.var(target) {
            return v.dims.clone();
        }
        vec![]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acg::build_acg;
    use crate::fixtures::{FIG1, FIG15, FIG4};
    use fortrand_frontend::load_program;

    fn setup(
        src: &str,
    ) -> (
        fortrand_frontend::SourceProgram,
        ProgramInfo,
        ReachingDecomps,
    ) {
        let (p, info) = load_program(src).unwrap();
        let acg = build_acg(&p, &info).unwrap();
        let rd = compute(&p, &info, &acg);
        (p, info, rd)
    }

    #[test]
    fn fig1_block_reaches_f1() {
        let (p, _, rd) = setup(FIG1);
        let f1 = p.interner.get("f1").unwrap();
        let x = p.interner.get("x").unwrap();
        let specs = &rd.reaching[&f1][&x];
        assert_eq!(specs.len(), 1);
        let s = specs.iter().next().unwrap();
        assert_eq!(s.kinds, vec![DistKind::Block]);
        assert_eq!(s.extents, vec![100]);
        assert!(s.align.is_identity());
    }

    /// The paper's Figure 7: Reaching(F1) = row-block (from X at S1) ∪
    /// column-block (from transpose-aligned Y at S2); Reaching(F2) the same.
    #[test]
    fn fig7_reaching_sets() {
        let (p, _, rd) = setup(FIG4);
        let f1 = p.interner.get("f1").unwrap();
        let f2 = p.interner.get("f2").unwrap();
        let z = p.interner.get("z").unwrap();
        let r1 = &rd.reaching[&f1][&z];
        assert_eq!(r1.len(), 2, "{r1:?}");
        let spellings: Vec<String> = r1.iter().map(|s| s.spelling()).collect();
        assert!(
            spellings.contains(&"(block,:)".to_string()),
            "{spellings:?}"
        );
        assert!(
            spellings.contains(&"(:,block)".to_string()),
            "{spellings:?}"
        );
        assert_eq!(&rd.reaching[&f1][&z], &rd.reaching[&f2][&z]);
    }

    #[test]
    fn fig15_local_redistribution_kills() {
        let (p, _, rd) = setup(FIG15);
        let f1 = p.interner.get("f1").unwrap();
        let x = p.interner.get("x").unwrap();
        // Block reaches F1 from the caller…
        let specs = &rd.reaching[&f1][&x];
        assert_eq!(
            specs.iter().map(|s| s.spelling()).collect::<Vec<_>>(),
            vec!["(block)"]
        );
        // …but inside F1, after DISTRIBUTE X(CYCLIC), the loop sees cyclic
        // only. Find F1's DO statement.
        let f1_unit = p.unit(f1).unwrap();
        let do_stmt = f1_unit
            .walk()
            .find(|s| matches!(s.kind, fortrand_frontend::StmtKind::Do { .. }))
            .unwrap();
        let at = rd.at(f1, do_stmt.id, x);
        assert_eq!(at.len(), 1);
        assert_eq!(at.iter().next().unwrap().kinds, vec![DistKind::Cyclic]);
    }

    #[test]
    fn main_locals_without_distribute_are_replicated() {
        let (p, _, rd) = setup(
            "
      PROGRAM P
      REAL a(10)
      a(1) = 0.0
      END
",
        );
        let pn = p.interner.get("p").unwrap();
        let a = p.interner.get("a").unwrap();
        let first = p.unit(pn).unwrap().body[0].id;
        assert!(rd.at(pn, first, a).is_empty());
    }

    #[test]
    fn distribute_after_if_merges_paths() {
        let (p, _, rd) = setup(
            "
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL a(10)
      INTEGER c
      c = 1
      if (c .gt. 0) then
        DISTRIBUTE a(BLOCK)
      else
        DISTRIBUTE a(CYCLIC)
      endif
      a(1) = 0.0
      END
",
        );
        let pn = p.interner.get("p").unwrap();
        let a = p.interner.get("a").unwrap();
        let unit = p.unit(pn).unwrap();
        let assign = unit
            .body
            .iter()
            .rev()
            .find(|s| matches!(s.kind, fortrand_frontend::StmtKind::Assign { .. }))
            .unwrap();
        let set = rd.at(pn, assign.id, a);
        assert_eq!(set.len(), 2, "{set:?}");
    }

    #[test]
    fn unique_at_detects_multiplicity() {
        let (p, _, rd) = setup(FIG4);
        let f2 = p.interner.get("f2").unwrap();
        let z = p.interner.get("z").unwrap();
        let unit = p.unit(f2).unwrap();
        let stmt = unit.body[0].id;
        // Two decompositions reach F2's Z — not unique (cloning needed).
        assert!(rd.unique_at(f2, stmt, z).is_none());
    }
}
