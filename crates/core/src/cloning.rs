//! Procedure cloning (paper §5.2, Fig. 8).
//!
//! The code generator needs a *unique* decomposition for every array in
//! every procedure. When reaching-decomposition analysis finds several
//! decompositions reaching a procedure, its call sites are partitioned by
//! `Filter(Translate(LocalReaching(C)), Appear(P))` — sites providing the
//! same (relevant) decompositions share a clone — and one copy of the
//! procedure is made per partition.
//!
//! Cloning is a source-to-source transformation here: units are duplicated
//! in the AST (with fresh statement ids), call sites retargeted, and all
//! analyses re-run on the cloned program. Clones are named `p$1`, `p$2`, …
//! in first-call-site order (the paper's `F1$row`/`F1$col`).
//!
//! Pathological exponential growth is capped by `limit`: past it, cloning
//! stops and the affected units are reported so the driver can fall back
//! to run-time resolution (paper: "cloning may be disabled when a
//! threshold program growth has been exceeded").

use crate::local::{Local, Locals};
use fortrand_analysis::acg::build_acg;
use fortrand_analysis::framework::SolveStats;
use fortrand_analysis::reaching::{self, DecompSpec};
use fortrand_analysis::side_effects::{self, SideEffects};
use fortrand_analysis::{Acg, ReachingDecomps};
use fortrand_frontend::ast::{SourceProgram, Stmt, StmtId, StmtKind, UnitKind};
use fortrand_frontend::sema::{analyze, ProgramInfo};
use fortrand_ir::Sym;
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of the cloning pass.
#[derive(Debug)]
pub struct CloneResult {
    /// The (possibly cloned) program.
    pub prog: SourceProgram,
    /// Fresh semantic info for it.
    pub info: ProgramInfo,
    /// Fresh ACG.
    pub acg: Acg,
    /// Fresh reaching decompositions.
    pub reaching: ReachingDecomps,
    /// Solver statistics for the final reaching solve, with `iterations`
    /// set to the number of cloning rounds (the analysis is re-solved
    /// from scratch once per round).
    pub reaching_stats: SolveStats,
    /// Side effects of the final program and their solver statistics
    /// (the last round's solve, which judged that nothing needs cloning).
    pub side_effects: (SideEffects, SolveStats),
    /// Clones created: original name → clone names in partition order.
    pub clones: BTreeMap<Sym, Vec<Sym>>,
    /// Units that still have multiple reaching decompositions (cloning
    /// limit hit) — the driver must fall back for these.
    pub unresolved: Vec<Sym>,
}

/// Signature of a call-site partition: the filtered, translated reaching
/// decompositions it provides.
type PartKey = BTreeMap<Sym, BTreeSet<DecompSpec>>;

/// Runs reaching-decomposition-driven cloning to a fixpoint.
pub fn clone_for_decompositions(
    mut prog: SourceProgram,
    limit: usize,
) -> Result<CloneResult, String> {
    let info = analyze(&mut prog).map_err(|e| e.to_string())?;
    let mut locals: Locals = (prog.units.iter())
        .map(|u| (u.name, Local::of(u, info.unit(u.name))))
        .collect();
    clone_with_locals(prog, info, &mut locals, limit)
}

/// [`clone_for_decompositions`] of a program already analyzed, `info`,
/// whose units' local summaries are `locals`. Side effects are solved
/// from the summaries; each clone gets its own.
pub(crate) fn clone_with_locals(
    mut prog: SourceProgram,
    mut info: ProgramInfo,
    locals: &mut Locals,
    limit: usize,
) -> Result<CloneResult, String> {
    let mut clones: BTreeMap<Sym, Vec<Sym>> = BTreeMap::new();
    let mut total_clones = 0usize;
    let mut unresolved: Vec<Sym> = Vec::new();
    let mut rounds = 0usize;

    loop {
        if rounds > 0 {
            info = analyze(&mut prog).map_err(|e| e.to_string())?;
            for u in &prog.units {
                (locals.entry(u.name)).or_insert_with(|| Local::of(u, info.unit(u.name)));
            }
        }
        let acg = build_acg(&prog, &info)?;
        let (rd, mut rd_stats) = reaching::compute_with_stats(&prog, &info, &acg);
        rounds += 1;
        rd_stats.iterations = rounds;
        let (se, se_stats) =
            side_effects::compute_from_locals(&info, &acg, &|n| locals[&n].effects());

        // Find the first unit (in topological order) needing cloning.
        #[allow(clippy::type_complexity)]
        let mut target: Option<(Sym, Vec<(PartKey, Vec<StmtId>)>)> = None;
        for &unit in &acg.topo {
            if prog
                .unit(unit)
                .map(|u| u.kind == UnitKind::Program)
                .unwrap_or(true)
            {
                continue;
            }
            if unresolved.contains(&unit) {
                continue;
            }
            let appear = se.unit(unit).appear();
            // Partition incoming edges by filtered reaching sets, keeping
            // first-seen order for deterministic clone naming.
            let mut parts: Vec<(PartKey, Vec<StmtId>)> = Vec::new();
            let mut edges: Vec<_> = acg.edges_into(unit).collect();
            edges.sort_by_key(|e| e.site);
            for e in &edges {
                let at = rd.at_call.get(&e.site).cloned().unwrap_or_default();
                let key: PartKey = at
                    .into_iter()
                    .filter(|(f, _)| appear.contains(f))
                    .filter(|(_, s)| !s.is_empty())
                    .collect();
                match parts.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, sites)) => sites.push(e.site),
                    None => parts.push((key, vec![e.site])),
                }
            }
            if parts.len() > 1 {
                target = Some((unit, parts));
                break;
            }
        }

        let Some((unit, parts)) = target else {
            return Ok(CloneResult {
                prog,
                info,
                acg,
                reaching: rd,
                reaching_stats: rd_stats,
                side_effects: (se, se_stats),
                clones,
                unresolved,
            });
        };

        if total_clones + parts.len() > limit {
            unresolved.push(unit);
            continue;
        }
        total_clones += parts.len();

        // Materialize clones.
        let orig_idx = prog.units.iter().position(|u| u.name == unit).unwrap();
        let base_name = prog.interner.name(unit).to_string();
        let mut next_id = prog
            .units
            .iter()
            .flat_map(|u| u.walk())
            .map(|s| s.id.0)
            .max()
            .unwrap_or(0)
            + 1;
        let mut new_names = Vec::new();
        let mut new_units = Vec::new();
        for (k, _) in parts.iter().enumerate() {
            let name = prog.interner.intern(&format!("{base_name}${}", k + 1));
            let mut u = prog.units[orig_idx].clone();
            u.name = name;
            renumber(&mut u.body, &mut next_id);
            new_units.push(u);
            new_names.push(name);
        }
        // Retarget call sites.
        let mut site_to_clone: BTreeMap<StmtId, Sym> = BTreeMap::new();
        for ((_, sites), &name) in parts.iter().zip(&new_names) {
            for &s in sites {
                site_to_clone.insert(s, name);
            }
        }
        for u in &mut prog.units {
            retarget(&mut u.body, &site_to_clone);
        }
        // Replace original unit with the clones.
        prog.units.splice(orig_idx..orig_idx + 1, new_units);
        clones.entry(unit).or_default().extend(new_names);
    }
}

fn renumber(body: &mut [Stmt], next: &mut u32) {
    for s in body {
        s.id = StmtId(*next);
        *next += 1;
        match &mut s.kind {
            StmtKind::Do { body, .. } => renumber(body, next),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                renumber(then_body, next);
                renumber(else_body, next);
            }
            _ => {}
        }
    }
}

fn retarget(body: &mut [Stmt], map: &BTreeMap<StmtId, Sym>) {
    for s in body {
        match &mut s.kind {
            StmtKind::Call { name, .. } => {
                if let Some(&n) = map.get(&s.id) {
                    *name = n;
                }
            }
            StmtKind::Do { body, .. } => retarget(body, map),
            StmtKind::If {
                then_body,
                else_body,
                ..
            } => {
                retarget(then_body, map);
                retarget(else_body, map);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortrand_analysis::fixtures::FIG4;
    use fortrand_frontend::parse_program;

    fn run(src: &str, limit: usize) -> CloneResult {
        let prog = parse_program(src).unwrap();
        clone_for_decompositions(prog, limit).unwrap()
    }

    /// Fig. 8: F1 and F2 both get two clones (row and column versions).
    #[test]
    fn fig4_clones_f1_and_f2() {
        let r = run(FIG4, 16);
        let names: Vec<&str> = r
            .prog
            .units
            .iter()
            .map(|u| r.prog.interner.name(u.name))
            .collect();
        assert!(names.contains(&"f1$1"), "{names:?}");
        assert!(names.contains(&"f1$2"), "{names:?}");
        assert!(names.contains(&"f2$1"), "{names:?}");
        assert!(names.contains(&"f2$2"), "{names:?}");
        assert!(!names.contains(&"f1"), "original replaced: {names:?}");
        // After cloning, every clone has a unique reaching decomposition.
        for u in &r.prog.units {
            if u.kind == UnitKind::Program {
                continue;
            }
            for sets in r.reaching.reaching.get(&u.name).into_iter() {
                for set in sets.values() {
                    assert!(
                        set.len() <= 1,
                        "clone {} still ambiguous",
                        r.prog.interner.name(u.name)
                    );
                }
            }
        }
    }

    #[test]
    fn fig4_clone_spellings() {
        let r = run(FIG4, 16);
        let f1_1 = r.prog.interner.get("f1$1").unwrap();
        let f1_2 = r.prog.interner.get("f1$2").unwrap();
        let z = r.prog.interner.get("z").unwrap();
        let s1 = r.reaching.reaching[&f1_1][&z]
            .iter()
            .next()
            .unwrap()
            .spelling();
        let s2 = r.reaching.reaching[&f1_2][&z]
            .iter()
            .next()
            .unwrap()
            .spelling();
        // First call site (X) is the row version.
        assert_eq!(s1, "(block,:)");
        assert_eq!(s2, "(:,block)");
    }

    #[test]
    fn no_cloning_when_single_decomposition() {
        let r = run(fortrand_analysis::fixtures::FIG1, 16);
        assert!(r.clones.is_empty());
        assert_eq!(r.prog.units.len(), 2);
    }

    #[test]
    fn clone_limit_leaves_unresolved() {
        let r = run(FIG4, 1);
        assert!(!r.unresolved.is_empty());
    }

    #[test]
    fn stmt_ids_stay_unique_after_cloning() {
        let r = run(FIG4, 16);
        let mut seen = std::collections::HashSet::new();
        for u in &r.prog.units {
            for s in u.walk() {
                assert!(seen.insert(s.id), "duplicate {:?}", s.id);
            }
        }
    }

    /// Calls that provide the same decompositions share one clone.
    #[test]
    fn same_decomposition_sites_share_clone() {
        let src = "
      PROGRAM P
      REAL X(100), Y(100)
      PARAMETER (n$proc = 4)
      DISTRIBUTE X(BLOCK)
      DISTRIBUTE Y(BLOCK)
      call F(X)
      call F(Y)
      END
      SUBROUTINE F(A)
      REAL A(100)
      do i = 1, 100
        A(i) = 1.0
      enddo
      END
";
        let r = run(src, 16);
        assert!(r.clones.is_empty(), "{:?}", r.clones);
    }
}
