//! The differential test of the change-list representation.
//!
//! [`dense`] is the recorder the change lists replaced, kept as the
//! oracle: it deep-copies the whole per-array state before every statement
//! it visits, so "the last visit wins", "the else branch starts from the
//! pre-then state" and "a join logs the merged state" hold by
//! construction. It shares no state handling with the shipped walker — own
//! state, own merge, own call-site translation — so every answer of
//! [`ReachingDecomps`] is checked, not only the statement lookup.

use super::*;
use crate::acg::build_acg;
use crate::fixtures::{FIG1, FIG15, FIG4};
use fortrand::corpus::{adi_source, dgefa_source, wide_corpus};
use fortrand_frontend::load_program;
use proptest::prelude::*;

type Sets = BTreeMap<Sym, BTreeSet<DecompSpec>>;

/// What the dense recorder produces.
#[derive(Default)]
struct Dense {
    reaching: BTreeMap<Sym, Sets>,
    before_stmt: BTreeMap<(Sym, StmtId), Sets>,
    at_call: BTreeMap<StmtId, Sets>,
}

#[derive(Clone, PartialEq, Default)]
struct DenseState {
    val: Sets,
    aligned: BTreeMap<Sym, AlignBinding>,
    dist_of: BTreeMap<Sym, Vec<DistKind>>,
}

impl DenseState {
    fn merge(&mut self, other: &DenseState) {
        for (k, v) in &other.val {
            self.val.entry(*k).or_default().extend(v.iter().cloned());
        }
        let keys: Vec<Sym> = self.aligned.keys().copied().collect();
        for k in keys {
            if other.aligned.get(&k) != self.aligned.get(&k) {
                self.aligned.remove(&k);
            }
        }
        let dkeys: Vec<Sym> = self.dist_of.keys().copied().collect();
        for k in dkeys {
            if other.dist_of.get(&k) != self.dist_of.get(&k) {
                self.dist_of.remove(&k);
            }
        }
    }
}

struct DenseProblem<'a> {
    prog: &'a SourceProgram,
    info: &'a ProgramInfo,
    out: Dense,
}

impl DataflowProblem<AcgGraph<'_>> for DenseProblem<'_> {
    type Fact = Sets;

    fn name(&self) -> &'static str {
        "Reaching decompositions (dense oracle)"
    }

    fn direction(&self) -> Direction {
        Direction::TopDown
    }

    fn boundary(&mut self, _g: &AcgGraph, _n: Sym) -> Sets {
        BTreeMap::new()
    }

    fn translate(&mut self, _g: &AcgGraph, edge: &CallEdge, _src: Sym, _fact: &Sets) -> Vec<Sets> {
        vec![self
            .out
            .at_call
            .get(&edge.site)
            .cloned()
            .unwrap_or_default()]
    }

    fn meet(&mut self, acc: &mut Sets, contrib: Sets) {
        for (formal, specs) in contrib {
            acc.entry(formal).or_default().extend(specs);
        }
    }

    fn transfer(&mut self, g: &AcgGraph, n: Sym, input: Sets) -> Sets {
        if g.acg.callers.get(&n).is_some_and(|v| !v.is_empty()) {
            self.out.reaching.insert(n, input.clone());
        }
        let unit = self.prog.unit(n).expect("unit");
        let mut st = DenseState::default();
        for (&v, vi) in &self.info.unit(n).vars {
            if vi.is_array() {
                let set = if vi.is_formal {
                    input.get(&v).cloned().unwrap_or_default()
                } else {
                    BTreeSet::new()
                };
                st.val.insert(v, set);
                st.aligned.insert(
                    v,
                    AlignBinding {
                        target: v,
                        align: Alignment::identity(vi.rank()),
                    },
                );
            }
        }
        self.exec_body(n, &unit.body, &mut st);
        input
    }
}

impl DenseProblem<'_> {
    fn exec_body(&mut self, unit: Sym, body: &[Stmt], st: &mut DenseState) {
        for s in body {
            self.out.before_stmt.insert((unit, s.id), st.val.clone());
            self.exec_stmt(unit, s, st);
        }
    }

    fn exec_stmt(&mut self, unit: Sym, s: &Stmt, st: &mut DenseState) {
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
                st.aligned.insert(
                    *array,
                    AlignBinding {
                        target: *target,
                        align: align.clone(),
                    },
                );
                if let Some(kinds) = st.dist_of.get(target).cloned() {
                    let extents = self.target_extents(unit, *target);
                    let spec = DecompSpec {
                        extents,
                        kinds,
                        align,
                    };
                    st.val.insert(*array, [spec].into());
                }
            }
            StmtKind::Distribute { target, kinds } => {
                st.dist_of.insert(*target, kinds.clone());
                let extents = self.target_extents(unit, *target);
                let affected: Vec<(Sym, Alignment)> = st
                    .aligned
                    .iter()
                    .filter(|(_, b)| b.target == *target)
                    .map(|(&a, b)| (a, b.align.clone()))
                    .collect();
                for (a, align) in affected {
                    let spec = DecompSpec {
                        extents: extents.clone(),
                        kinds: kinds.clone(),
                        align,
                    };
                    st.val.insert(a, [spec].into());
                }
            }
            StmtKind::Do { body, .. } => loop {
                let before = st.clone();
                self.exec_body(unit, body, st);
                st.merge(&before);
                if *st == before {
                    break;
                }
            },
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                let mut st_else = st.clone();
                self.exec_body(unit, then_body, st);
                self.exec_body(unit, else_body, &mut st_else);
                st.merge(&st_else);
            }
            StmtKind::Call { name, args } => {
                let callee_info = self.info.unit(*name);
                let mut translated = Sets::new();
                for (i, a) in args.iter().enumerate() {
                    if let Expr::Var(v) = a {
                        if let Some(set) = st.val.get(v) {
                            translated
                                .entry(callee_info.formals[i])
                                .or_default()
                                .extend(set.iter().cloned());
                        }
                    }
                }
                let prev = self.out.at_call.entry(s.id).or_default();
                for (f, set) in translated {
                    prev.entry(f).or_default().extend(set);
                }
            }
            _ => {}
        }
    }

    fn target_extents(&self, unit: Sym, target: Sym) -> Vec<i64> {
        let ui = self.info.unit(unit);
        if let Some(e) = ui.decomps.get(&target) {
            return e.clone();
        }
        ui.var(target).map(|v| v.dims.clone()).unwrap_or_default()
    }
}

fn dense(prog: &SourceProgram, info: &ProgramInfo, acg: &Acg) -> Dense {
    let mut problem = DenseProblem {
        prog,
        info,
        out: Dense::default(),
    };
    framework::solve(&AcgGraph { acg }, &mut problem);
    problem.out
}

/// Every answer of the shipped analysis on `src` against the oracle's:
/// the expansion as a whole, then each accessor at each `(unit, statement,
/// array)`, then `first_spec` against a statement-by-statement probe.
fn check(src: &str) -> Result<(), String> {
    let (prog, info) = load_program(src).map_err(|e| format!("{e}\n{src}"))?;
    let acg = build_acg(&prog, &info)?;
    let rd = compute(&prog, &info, &acg);
    let want = dense(&prog, &info, &acg);
    if rd.reaching != want.reaching {
        return Err(format!("Reaching(P) differs on\n{src}"));
    }
    if rd.at_call != want.at_call {
        return Err(format!("call-site bindings differ on\n{src}"));
    }
    let got = rd.expand_before_stmt();
    if got != want.before_stmt {
        let at = want
            .before_stmt
            .iter()
            .find(|(k, sets)| got.get(k) != Some(sets));
        return Err(format!(
            "per-statement sets differ, first at {:?}: got {:?}\n{src}",
            at,
            at.and_then(|(k, _)| got.get(k))
        ));
    }
    for unit in &prog.units {
        for (&array, vi) in &info.unit(unit.name).vars {
            if !vi.is_array() {
                continue;
            }
            let probe: Vec<&BTreeSet<DecompSpec>> = unit
                .walk()
                .map(|s| &want.before_stmt[&(unit.name, s.id)][&array])
                .collect();
            for (s, set) in unit.walk().zip(&probe) {
                if rd.at(unit.name, s.id, array) != *set {
                    return Err(format!("at({:?}, {array:?}) differs on\n{src}", s.id));
                }
                let unique = if set.len() == 1 { set.first() } else { None };
                if rd.unique_at(unit.name, s.id, array) != unique {
                    return Err(format!("unique_at({:?}, {array:?}) on\n{src}", s.id));
                }
            }
            let accepts: [fn(&BTreeSet<DecompSpec>) -> bool; 2] =
                [|set| set.len() == 1, |set| !set.is_empty()];
            for accept in accepts {
                let first = probe.iter().find(|set| accept(set)).map(|set| {
                    set.first()
                        .expect("both predicates accept non-empty sets only")
                });
                if rd.first_spec(unit.name, array, accept) != first {
                    return Err(format!("first_spec({array:?}) differs on\n{src}"));
                }
            }
        }
    }
    Ok(())
}

#[test]
fn figures_and_corpus_programs_match_the_dense_oracle() {
    for src in [
        FIG1.to_string(),
        FIG4.to_string(),
        FIG15.to_string(),
        dgefa_source(16, 4),
        adi_source(16, 2, 4),
        wide_corpus(6, 64, 4),
    ] {
        check(&src).unwrap();
    }
}

/// A single-unit program over arrays `a0..` whose body is `body`.
fn program(arrays: usize, body: &str) -> String {
    let decls: Vec<String> = (0..arrays).map(|a| format!("a{a}(16)")).collect();
    format!(
        "
      PROGRAM P
      PARAMETER (n$proc = 2)
      REAL {}
      INTEGER c, i, j
      c = 1
{body}      END
",
        decls.join(", ")
    )
}

/// The cases the dense copy got for free, one program each.
#[test]
fn restore_on_else_and_last_visit_wins() {
    let bodies = [
        // DISTRIBUTE in one branch only: the else branch and the join must
        // not see it as the only decomposition.
        "      if (c .gt. 0) then
        DISTRIBUTE a0(BLOCK)
        a0(2) = 1.0
      else
        a0(3) = 1.0
      endif
",
        // Both branches, different kinds; a second array changed by the
        // then branch only must be restored on entering the else branch.
        "      if (c .gt. 0) then
        DISTRIBUTE a0(BLOCK)
        DISTRIBUTE a1(CYCLIC)
        a1(2) = 1.0
      else
        a1(3) = 1.0
        DISTRIBUTE a0(CYCLIC)
        a0(3) = 1.0
      endif
",
        // Inside a loop after a use: the use sees {entry, BLOCK} on the
        // last fixpoint iteration, not the first iteration's entry set.
        "      do i = 1, 4
        a0(i) = 1.0
        DISTRIBUTE a0(BLOCK)
        a1(i) = a0(i)
      enddo
",
        // Re-ALIGN to a target distributed later, then to one distributed
        // already.
        "      ALIGN a1(i) with a0(i)
      a1(1) = 1.0
      DISTRIBUTE a0(CYCLIC)
      a1(2) = 1.0
      DISTRIBUTE a2(BLOCK)
      ALIGN a1(i) with a2(i)
      a1(3) = 1.0
",
        // Nested: a loop in a branch in a loop; a change as the last
        // statement of a body; an empty else.
        "      do i = 1, 4
        if (c .gt. 0) then
          do j = 1, 2
            a1(j) = a0(j)
            DISTRIBUTE a0(CYCLIC)
          enddo
        endif
        a2(i) = a0(i)
        DISTRIBUTE a0(BLOCK)
      enddo
      DISTRIBUTE a2(BLOCK)
",
    ];
    for body in bodies {
        check(&program(3, body)).unwrap();
    }
}

/// Renders a script of `(op, x, y)` triples as a nested body: `op` picks a
/// statement or opens/switches/closes an `IF`/`DO` (at most three deep),
/// `x` and `y` pick arrays.
fn render(arrays: usize, script: &[(u32, u32, u32)]) -> String {
    #[derive(PartialEq)]
    enum Open {
        Then,
        Else,
        Do,
    }
    let close = |open: Open| if open == Open::Do { "enddo" } else { "endif" };
    let mut out = String::new();
    let mut line = |depth: usize, text: &str| {
        out.push_str(&format!("{}{text}\n", "  ".repeat(depth + 3)));
    };
    let mut stack: Vec<Open> = Vec::new();
    for &(op, x, y) in script {
        let (x, y) = (x as usize % arrays, y as usize % arrays);
        let depth = stack.len();
        match op {
            0 => line(depth, &format!("DISTRIBUTE a{x}(BLOCK)")),
            1 => line(depth, &format!("DISTRIBUTE a{x}(CYCLIC)")),
            2 => line(depth, &format!("ALIGN a{x}(i) with a{y}(i)")),
            3 => line(depth, &format!("ALIGN a{x}(i) with a{y}(i+1)")),
            4 | 5 => line(depth, &format!("a{x}(1) = a{y}(2)")),
            6 if depth < 3 => {
                line(depth, "if (c .gt. 0) then");
                stack.push(Open::Then);
            }
            7 if depth < 3 => {
                line(depth, "do i = 1, 4");
                stack.push(Open::Do);
            }
            8 if stack.last() == Some(&Open::Then) => {
                line(depth - 1, "else");
                stack[depth - 1] = Open::Else;
            }
            _ => match stack.pop() {
                Some(open) => line(depth - 1, close(open)),
                None => line(depth, &format!("a{y}(2) = a{x}(1)")),
            },
        }
    }
    while let Some(open) = stack.pop() {
        line(stack.len(), close(open));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn generated_control_flow_matches_the_dense_oracle(
        arrays in 2usize..=4,
        script in prop::collection::vec((0u32..10, 0u32..4, 0u32..4), 1..24),
    ) {
        let src = program(arrays, &render(arrays, &script));
        if let Err(e) = check(&src) {
            return Err(TestCaseError::fail(e));
        }
    }
}
