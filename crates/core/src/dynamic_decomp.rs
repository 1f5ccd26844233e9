//! Dynamic data decomposition optimization (paper §6, Figs. 15–17).
//!
//! With delayed instantiation, a callee that redistributes an inherited
//! array does not emit remap calls itself; instead its summary sets
//! (`DecompUse`, `DecompKill`, `DecompBefore`, `DecompAfter`, Fig. 17)
//! travel to the caller, which plans remap placements around each call and
//! then optimizes them:
//!
//! * **live decompositions** (§6.1): dead remaps removed, identical
//!   adjacent ones coalesced — Fig. 16a → 16b;
//! * **loop-invariant decompositions** (§6.2): remaps hoisted out of loops
//!   — Fig. 16b → 16c;
//! * **array kills** (§6.3): a remap whose target values are overwritten
//!   before any read becomes an in-place re-marking — Fig. 16c → 16d.

use crate::model::{DynDecompSummary, DynOptLevel};
use crate::reads::Reads;
use fortrand_analysis::framework::UnitCtx;
use fortrand_analysis::kills;
use fortrand_analysis::reaching::DecompSpec;
use fortrand_frontend::ast::{Expr, ProcUnit, Stmt, StmtId, StmtKind};
use fortrand_ir::{Sym, SymEnv};
use std::collections::{BTreeMap, BTreeSet};

/// One planned remap.
#[derive(Clone, Debug, PartialEq)]
pub struct RemapAction {
    /// Array to remap (caller name space).
    pub array: Sym,
    /// Target decomposition.
    pub to: DecompSpec,
    /// If true, re-mark without data motion (§6.3).
    pub mark_only: bool,
}

/// Remap placements for one unit body, keyed by the statement they attach
/// to. `before`/`after` lists are emitted in order.
#[derive(Clone, Debug, Default)]
pub struct Placements {
    /// Actions inserted before a statement.
    pub before: BTreeMap<StmtId, Vec<RemapAction>>,
    /// Actions inserted after a statement.
    pub after: BTreeMap<StmtId, Vec<RemapAction>>,
}

impl Placements {
    /// Total number of remap statements planned (the Fig. 16 metric).
    pub fn count(&self) -> usize {
        self.before.values().map(Vec::len).sum::<usize>()
            + self.after.values().map(Vec::len).sum::<usize>()
    }
}

/// Computes a unit's own dynamic-decomposition summary (Fig. 17) from its
/// callees' summaries, its entry decompositions (post-cloning unique) and
/// its side effects, all read through `reads`.
pub(crate) fn summarize(unit: &ProcUnit, reads: &Reads) -> DynDecompSummary {
    let ui = reads.unit_info();
    let mut s = DynDecompSummary::default();
    // Arrays whose values are fully killed before any read: killed
    // somewhere and never read by this unit or its descendants.
    let env = SymEnv::new();
    let k = kills::compute(&UnitCtx::new(unit, ui, &env));
    for &a in &k.anywhere {
        if !reads.effects(unit.name).ref_arrays.contains_key(&a) {
            s.value_kills.insert(a);
        }
    }

    // Entry (inherited) spec per array.
    let entry_spec = |array: Sym| -> Option<DecompSpec> {
        let set = reads.entry(array).filter(|set| set.len() == 1)?;
        set.first().cloned()
    };

    // Walk in pre-order tracking which arrays have been redistributed.
    let mut remapped: BTreeSet<Sym> = BTreeSet::new();
    let mut first_remap: BTreeMap<Sym, DecompSpec> = BTreeMap::new();
    let mut current: BTreeMap<Sym, DecompSpec> = BTreeMap::new();
    for st in unit.walk() {
        match &st.kind {
            StmtKind::Distribute { .. } | StmtKind::Align { .. } => {
                // Which arrays changed? Consult reaching at the *next*
                // statement is awkward; recompute from the statement.
                if let StmtKind::Distribute { target, kinds } = &st.kind {
                    // Arrays aligned to target — approximate with target
                    // itself when it is an array (the common case), plus
                    // arrays declared aligned before this point.
                    if ui.is_array(*target) {
                        let spec = DecompSpec {
                            extents: ui.var(*target).unwrap().dims.clone(),
                            kinds: kinds.clone(),
                            align: fortrand_ir::dist::Alignment::identity(
                                ui.var(*target).unwrap().rank(),
                            ),
                        };
                        if !remapped.contains(target) && !s.uses.contains(target) {
                            first_remap.entry(*target).or_insert(spec.clone());
                        }
                        remapped.insert(*target);
                        current.insert(*target, spec);
                        s.kills.insert(*target);
                    }
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                let mut used: Vec<Sym> = Vec::new();
                rhs.mentioned_syms(&mut used);
                if let fortrand_frontend::ast::LValue::Element { array, subs } = lhs {
                    used.push(*array);
                    for sub in subs {
                        sub.mentioned_syms(&mut used);
                    }
                }
                for v in used {
                    if ui.is_array(v) && !remapped.contains(&v) {
                        s.uses.insert(v);
                    }
                }
            }
            StmtKind::Call { name, args } => {
                if let Some(cs) = reads.callee(*name).map(|c| &c.dyn_summary) {
                    let callee_info = reads.interface(*name);
                    for (i, a) in args.iter().enumerate() {
                        if let Expr::Var(v) = a {
                            let f = callee_info.formals.get(i).copied();
                            if let Some(f) = f {
                                if cs.uses.contains(&f) && !remapped.contains(v) {
                                    s.uses.insert(*v);
                                }
                                if cs.kills.contains(&f) {
                                    // The callee's remap is delayed into
                                    // this unit: it behaves as a local
                                    // remap-pair around the call.
                                    if let Some((_, spec)) =
                                        cs.before.iter().find(|(bf, _)| *bf == f)
                                    {
                                        if !remapped.contains(v) && !s.uses.contains(v) {
                                            first_remap.entry(*v).or_insert(spec.clone());
                                        }
                                        remapped.insert(*v);
                                        s.kills.insert(*v);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    for (a, spec) in first_remap {
        s.before.push((a, spec));
    }
    // Arrays redistributed locally must be restored to the inherited
    // decomposition for the caller.
    for a in &s.kills {
        if let Some(inh) = entry_spec(*a) {
            s.after.push((*a, inh));
        }
    }
    s
}

/// Plans (and optimizes) remap placements for one unit body.
///
/// `needed`: per call site, the arrays the callee touches and the spec
/// each must be in before the call (`DecompBefore` translated, or the
/// inherited spec when the callee merely uses it), the spec to restore
/// after (`DecompAfter` translated), and whether the callee value-kills it.
pub(crate) fn place(unit: &ProcUnit, reads: &Reads, level: DynOptLevel) -> Placements {
    // Build the event tree.
    let mut events = build_events(&unit.body, reads);
    if level >= DynOptLevel::Live {
        // Iterate dead-removal + coalescing to a fixpoint.
        loop {
            let before = count_remaps(&events);
            remove_dead(&mut events);
            coalesce(&mut events, &mut BTreeMap::new());
            if count_remaps(&events) == before {
                break;
            }
        }
    }
    if level >= DynOptLevel::Hoist {
        hoist(&mut events);
        // Hoisting can expose new coalescing.
        coalesce(&mut events, &mut BTreeMap::new());
    }
    if level >= DynOptLevel::Kills {
        mark_kills(&mut events);
    }
    let mut placements = Placements::default();
    collect_placements(&events, &mut placements);
    placements
}

/// Event tree node.
#[derive(Clone, Debug)]
enum Ev {
    /// Planned remap, attached to an anchor statement.
    Remap {
        array: Sym,
        to: DecompSpec,
        mark_only: bool,
        anchor: Anchor,
        dead: bool,
    },
    /// A use of `array` requiring `spec`.
    Use {
        array: Sym,
        spec: DecompSpec,
        value_kill: bool,
    },
    /// A loop with nested events.
    Loop { stmt: StmtId, body: Vec<Ev> },
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Anchor {
    Before(StmtId),
    After(StmtId),
}

fn build_events(body: &[Stmt], reads: &Reads) -> Vec<Ev> {
    let ui = reads.unit_info();
    let unique_at = |stmt, v| Some(reads.at(stmt, v)).filter(|s| s.len() == 1)?.first();
    let mut out = Vec::new();
    for st in body {
        match &st.kind {
            StmtKind::Do { body, .. } => {
                out.push(Ev::Loop {
                    stmt: st.id,
                    body: build_events(body, reads),
                });
            }
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                // Conservative: treat both branches' events as sequential.
                out.extend(build_events(then_body, reads));
                out.extend(build_events(else_body, reads));
            }
            StmtKind::Call { name, args } => {
                let Some(cs) = reads.callee(*name).map(|c| &c.dyn_summary) else {
                    continue;
                };
                let callee_info = reads.interface(*name);
                for (i, a) in args.iter().enumerate() {
                    let Expr::Var(v) = a else { continue };
                    if !ui.is_array(*v) {
                        continue;
                    }
                    let Some(&f) = callee_info.formals.get(i) else {
                        continue;
                    };
                    // Spec needed before the call.
                    let before_spec = cs.before.iter().find(|(bf, _)| *bf == f).map(|(_, s)| s);
                    let inherited = unique_at(st.id, *v);
                    if let Some(spec) = before_spec {
                        out.push(Ev::Remap {
                            array: *v,
                            to: spec.clone(),
                            mark_only: false,
                            anchor: Anchor::Before(st.id),
                            dead: false,
                        });
                        out.push(Ev::Use {
                            array: *v,
                            spec: spec.clone(),
                            value_kill: cs.value_kills.contains(&f),
                        });
                    } else if cs.uses.contains(&f) {
                        if let Some(spec) = inherited {
                            out.push(Ev::Use {
                                array: *v,
                                spec: spec.clone(),
                                value_kill: cs.value_kills.contains(&f),
                            });
                        }
                    }
                    // Restore after the call.
                    if cs.kills.contains(&f) {
                        if let Some((_, spec)) = cs.after.iter().find(|(af, _)| *af == f) {
                            out.push(Ev::Remap {
                                array: *v,
                                to: spec.clone(),
                                mark_only: false,
                                anchor: Anchor::After(st.id),
                                dead: false,
                            });
                        }
                    }
                }
            }
            StmtKind::Assign { lhs, rhs } => {
                // Local uses of dynamically-managed arrays: need the
                // reaching spec at this point.
                let mut used: Vec<Sym> = Vec::new();
                rhs.mentioned_syms(&mut used);
                if let fortrand_frontend::ast::LValue::Element { array, .. } = lhs {
                    used.push(*array);
                }
                for v in used {
                    if !ui.is_array(v) {
                        continue;
                    }
                    if let Some(spec) = unique_at(st.id, v) {
                        out.push(Ev::Use {
                            array: v,
                            spec: spec.clone(),
                            value_kill: false,
                        });
                    }
                }
            }
            _ => {}
        }
    }
    out
}

fn count_remaps(events: &[Ev]) -> usize {
    events
        .iter()
        .map(|e| match e {
            Ev::Remap { dead, .. } => !dead as usize,
            Ev::Loop { body, .. } => count_remaps(body),
            _ => 0,
        })
        .sum()
}

/// What the forward scan finds first for an array.
#[derive(PartialEq, Debug, Clone)]
enum Next {
    Use(DecompSpec),
    Remap,
    End,
}

/// Scans `events[from..]` (flat walk into loops) for the next event on
/// `array`.
fn scan_next(events: &[Ev], array: Sym) -> Next {
    for e in events {
        match e {
            Ev::Remap {
                array: a,
                dead: false,
                ..
            } if *a == array => return Next::Remap,
            Ev::Use { array: a, spec, .. } if *a == array => return Next::Use(spec.clone()),
            Ev::Loop { body, .. } => match scan_next(body, array) {
                Next::End => {}
                other => return other,
            },
            _ => {}
        }
    }
    Next::End
}

/// Dead-remap removal: a remap is dead when no use of its target
/// decomposition occurs before the next remap of the same array, on
/// *every* forward path. Within a loop body two paths exist: the
/// wrap-around path (next iteration) and the exit path (code after the
/// loop); the remap must be dead on both to be removed.
fn remove_dead(events: &mut Vec<Ev>) {
    remove_dead_in(events, &[], None);
}

fn remove_dead_in(events: &mut Vec<Ev>, exit_cont: &[Ev], wrap: Option<&[Ev]>) {
    let snapshot = events.clone();
    for i in 0..events.len() {
        if let Ev::Loop { .. } = &events[i] {
            // The loop body's exit path: the remainder of this level, then
            // our own exit continuation.
            let mut exit: Vec<Ev> = snapshot[i + 1..].to_vec();
            exit.extend_from_slice(exit_cont);
            if let Ev::Loop { body, .. } = &mut events[i] {
                let body_snapshot = body.clone();
                remove_dead_in(body, &exit, Some(&body_snapshot));
            }
            continue;
        }
        let array = match &events[i] {
            Ev::Remap {
                array, dead: false, ..
            } => *array,
            _ => continue,
        };
        let rest: Vec<Ev> = snapshot[i + 1..].to_vec();
        // Exit path.
        let mut p1 = rest.clone();
        p1.extend_from_slice(exit_cont);
        let dead_exit = !matches!(scan_next(&p1, array), Next::Use(_));
        // Wrap path (only inside loop bodies).
        let dead_wrap = match wrap {
            Some(w) => {
                let mut p2 = rest;
                p2.extend(w.iter().cloned());
                !matches!(scan_next(&p2, array), Next::Use(_))
            }
            None => true,
        };
        if dead_exit && dead_wrap {
            if let Ev::Remap { dead, .. } = &mut events[i] {
                *dead = true;
            }
        }
    }
    events.retain(|e| !matches!(e, Ev::Remap { dead: true, .. }));
}

/// Coalescing: a remap to the decomposition the array already has is
/// removed. `current` threads the running spec; loop bodies are analyzed
/// twice so a body-start remap sees the body-end state.
fn coalesce(events: &mut Vec<Ev>, current: &mut BTreeMap<Sym, DecompSpec>) {
    let mut remove = vec![false; events.len()];
    for (i, e) in events.iter_mut().enumerate() {
        match e {
            Ev::Remap { array, to, .. } => {
                if current.get(array) == Some(to) {
                    remove[i] = true;
                } else {
                    current.insert(*array, to.clone());
                }
            }
            Ev::Use { .. } => {}
            Ev::Loop { body, .. } => {
                // First pass establishes the loop-end state; a second pass
                // with that state finds body-start remaps that coalesce
                // across iterations — but removing those is only legal if
                // the pre-loop state also matches, which the first pass
                // already checked. Run a single pass with the incoming
                // state, then merge: conflicting specs become unknown.
                let before = current.clone();
                coalesce(body, current);
                let keys: Vec<Sym> = current.keys().copied().collect();
                for k in keys {
                    if before.get(&k) != current.get(&k) {
                        current.remove(&k);
                    }
                }
            }
        }
    }
    let mut it = remove.into_iter();
    events.retain(|_| !it.next().unwrap());
}

/// Loop-invariant hoisting (§6.2): within each loop, (1) a trailing remap
/// whose target decomposition is not used inside the loop moves after the
/// loop; (2) a leading remap that then provides the only decomposition
/// used in the loop moves before the loop. "Inside the loop" includes the
/// loops nested in its body.
fn hoist(events: &mut Vec<Ev>) {
    let mut i = 0;
    while i < events.len() {
        if let Ev::Loop { stmt, body } = &mut events[i] {
            let loop_stmt = *stmt;
            hoist(body);
            // Rule 1: trailing remap, target unused inside.
            let mut moved_after: Vec<Ev> = Vec::new();
            while let Some(Ev::Remap { array, to, .. }) = body.last() {
                let (array, to) = (*array, to.clone());
                let used_inside = any_event(&body[..body.len() - 1], &|e| match e {
                    Ev::Use { array: a, spec, .. } => *a == array && *spec == to,
                    _ => false,
                });
                if used_inside {
                    break;
                }
                let mut ev = body.pop().unwrap();
                if let Ev::Remap { anchor, .. } = &mut ev {
                    *anchor = Anchor::After(loop_stmt);
                }
                moved_after.push(ev);
            }
            // Rule 2: leading remap providing the only spec used inside.
            let mut moved_before: Vec<Ev> = Vec::new();
            while let Some(Ev::Remap { array, to, .. }) = body.first() {
                let (array, to) = (*array, to.clone());
                let other = any_event(&body[1..], &|e| match e {
                    Ev::Use { array: a, spec, .. } => *a == array && *spec != to,
                    Ev::Remap { array: a, .. } => *a == array,
                    _ => false,
                });
                if other {
                    break;
                }
                let mut ev = body.remove(0);
                if let Ev::Remap { anchor, .. } = &mut ev {
                    *anchor = Anchor::Before(loop_stmt);
                }
                moved_before.push(ev);
            }
            let after_idx = i + 1;
            for ev in moved_after {
                events.insert(after_idx, ev);
            }
            for ev in moved_before.into_iter().rev() {
                events.insert(i, ev);
                i += 1;
            }
        }
        i += 1;
    }
}

/// Whether an event of `events`, or of the loops nested in them,
/// satisfies `f`.
fn any_event(events: &[Ev], f: &impl Fn(&Ev) -> bool) -> bool {
    events.iter().any(|e| match e {
        Ev::Loop { body, .. } => any_event(body, f),
        e => f(e),
    })
}

/// Array-kill conversion (§6.3): a remap whose next event for the array is
/// a value-killing use becomes a mark-only remap.
fn mark_kills(events: &mut [Ev]) {
    let snapshot: Vec<Ev> = events.to_vec();
    for i in 0..events.len() {
        match &mut events[i] {
            Ev::Loop { body, .. } => mark_kills(body),
            Ev::Remap {
                array, mark_only, ..
            } => {
                let array = *array;
                // Next event for this array at this level.
                let mut found = None;
                for e in &snapshot[i + 1..] {
                    match e {
                        Ev::Use {
                            array: a,
                            value_kill,
                            ..
                        } if *a == array => {
                            found = Some(*value_kill);
                            break;
                        }
                        Ev::Remap { array: a, .. } if *a == array => {
                            found = Some(false);
                            break;
                        }
                        Ev::Loop { body, .. } if scan_next(body, array) != Next::End => {
                            // Uses inside the loop: be conservative.
                            found = Some(false);
                            break;
                        }
                        _ => {}
                    }
                }
                if found == Some(true) {
                    *mark_only = true;
                }
            }
            _ => {}
        }
    }
}

fn collect_placements(events: &[Ev], out: &mut Placements) {
    for e in events {
        match e {
            Ev::Remap {
                array,
                to,
                mark_only,
                anchor,
                dead: false,
            } => {
                let action = RemapAction {
                    array: *array,
                    to: to.clone(),
                    mark_only: *mark_only,
                };
                match anchor {
                    Anchor::Before(s) => out.before.entry(*s).or_default().push(action),
                    Anchor::After(s) => out.after.entry(*s).or_default().push(action),
                }
            }
            Ev::Loop { body, .. } => collect_placements(body, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codegen::CompiledUnit;
    use crate::driver::{analyze, Analysis, CompileOptions};
    use crate::model::Residual;
    use fortrand_analysis::fixtures::FIG15;
    use fortrand_trace::Trace;

    /// A program's analysis and, per unit, a record carrying only its
    /// summary.
    struct Setup {
        an: Analysis,
        compiled: BTreeMap<Sym, CompiledUnit>,
    }

    fn setup(src: &str) -> Setup {
        let an = analyze(src, &CompileOptions::default(), &Trace::off(), None).unwrap();
        let ctx = an.ctx(DynOptLevel::Kills);
        let mut compiled = BTreeMap::new();
        for name in an.acg.reverse_topo() {
            let unit = an.prog.unit(name).unwrap();
            let dyn_summary = summarize(unit, &Reads::new(&ctx, &compiled, name));
            let record = CompiledUnit {
                proc: 0,
                residual: Residual::default(),
                dyn_summary,
                residual_digest: 0,
            };
            compiled.insert(name, record);
        }
        Setup { an, compiled }
    }

    /// The main unit's placements at `level`.
    fn place_main(s: &Setup, level: DynOptLevel) -> Placements {
        let ctx = s.an.ctx(level);
        let main = s.an.prog.main_unit().unwrap();
        place(main, &Reads::new(&ctx, &s.compiled, main.name), level)
    }

    fn placements_at(level: DynOptLevel) -> (Setup, Placements) {
        let s = setup(FIG15);
        let p = place_main(&s, level);
        (s, p)
    }

    /// Fig. 17's summary sets for F1 and F2.
    #[test]
    fn fig17_summary_sets() {
        let s = setup(FIG15);
        let f1 = s.an.prog.interner.get("f1").unwrap();
        let f2 = s.an.prog.interner.get("f2").unwrap();
        let x = s.an.prog.interner.get("x").unwrap();
        let s1 = &s.compiled[&f1].dyn_summary;
        assert!(s1.uses.is_empty(), "{s1:?}");
        assert!(s1.kills.contains(&x));
        assert_eq!(s1.before.len(), 1);
        assert_eq!(
            s1.before[0].1.kinds,
            vec![fortrand_ir::dist::DistKind::Cyclic]
        );
        assert_eq!(s1.after.len(), 1);
        assert_eq!(
            s1.after[0].1.kinds,
            vec![fortrand_ir::dist::DistKind::Block]
        );
        let s2 = &s.compiled[&f2].dyn_summary;
        assert!(s2.uses.contains(&x));
        assert!(s2.kills.is_empty());
        assert!(s2.value_kills.contains(&x), "F2 only writes X");
    }

    /// Fig. 16a: no optimization ⇒ remap before and after each F1 call
    /// (4 per loop iteration).
    #[test]
    fn fig16a_no_opt_counts() {
        let (_, p) = placements_at(DynOptLevel::None);
        assert_eq!(p.count(), 4);
        assert_eq!(p.before.values().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(p.after.values().map(Vec::len).sum::<usize>(), 2);
    }

    /// Fig. 16b: live decompositions ⇒ 2 remaps inside the loop.
    #[test]
    fn fig16b_live_counts() {
        let (_, p) = placements_at(DynOptLevel::Live);
        assert_eq!(p.count(), 2, "{p:?}");
    }

    /// Fig. 16c: hoisting ⇒ both remaps outside the loop.
    #[test]
    fn fig16c_hoisted_outside_loop() {
        let (s, p) = placements_at(DynOptLevel::Hoist);
        assert_eq!(p.count(), 2, "{p:?}");
        // Both anchors must be the loop statement itself.
        let main = s.an.prog.main_unit().unwrap();
        let loop_id = main
            .walk()
            .find(|st| matches!(st.kind, StmtKind::Do { .. }))
            .unwrap()
            .id;
        assert!(p.before.contains_key(&loop_id), "{p:?}");
        assert!(p.after.contains_key(&loop_id), "{p:?}");
    }

    /// A use in a loop nested in the body counts as a use inside the loop:
    /// with `Y(i) = X(i-1) + Y(i)` in an inner loop ahead of the calls, X
    /// is read under BLOCK every trip, so the restore to BLOCK stays in
    /// the loop (hoisted out, the second trip read a CYCLIC X as BLOCK).
    #[test]
    fn a_use_in_a_nested_loop_keeps_the_restore_inside() {
        let src = FIG15
            .replace(
                "REAL X(100)\n      PARAMETER",
                "REAL X(100), Y(100)\n      PARAMETER",
            )
            .replace(
                "do k = 1,t\n",
                "do k = 1,t\n        do i = 2,100\n          Y(i) = X(i-1) + Y(i)\n        enddo\n",
            );
        let s = setup(&src);
        let main = s.an.prog.main_unit().unwrap();
        let p = place_main(&s, DynOptLevel::Hoist);
        let k_loop = main
            .body
            .iter()
            .find(|st| matches!(st.kind, StmtKind::Do { .. }));
        assert_eq!(p.count(), 2, "{p:?}");
        assert!(!p.after.contains_key(&k_loop.unwrap().id), "{p:?}");
    }

    /// Fig. 16d: the restore before `call F2` becomes a mark-only remap.
    #[test]
    fn fig16d_array_kill_marks() {
        let (_, p) = placements_at(DynOptLevel::Kills);
        let actions: Vec<&RemapAction> = p
            .before
            .values()
            .chain(p.after.values())
            .flatten()
            .collect();
        assert_eq!(actions.len(), 2);
        assert!(actions.iter().any(|a| a.mark_only), "{actions:?}");
        assert!(actions.iter().any(|a| !a.mark_only), "{actions:?}");
    }
}
