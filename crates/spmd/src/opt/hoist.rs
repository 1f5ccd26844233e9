use crate::ir::{SExpr, SStmt, SpmdProgram};
use fortrand_ir::dist::ArrayDist;
use std::collections::BTreeSet;

use super::dataflow::{
    collect_assigned_scalars, collect_callees, collect_written_arrays, mentions_any, reads_memory,
    written_formals,
};
use super::lin::const_of;
use super::OptReport;

// ---------------------------------------------------------------------------
// Loop-level aggregation: hoist invariant collectives out of counted loops
// ---------------------------------------------------------------------------

/// Lifts loop-invariant broadcasts out of `Do` loops: a leading prefix of
/// one-section `Bcast` statements whose operands are invariant and whose
/// data is not redefined later in the body executes identically on every
/// iteration, so one pre-loop transfer suffices. Only loops with a provably
/// positive constant trip count are touched (hoisting out of a zero-trip
/// loop would *introduce* communication).
pub(super) fn hoist(prog: &mut SpmdProgram, report: &mut OptReport) {
    let wf = written_formals(&prog.procs);
    let dists = prog.dists.clone();
    for p in prog.procs.iter_mut() {
        let body = std::mem::take(&mut p.body);
        p.body = hoist_stmts(body, &wf, &dists, &mut report.hoisted);
    }
}

fn hoist_stmts(
    stmts: Vec<SStmt>,
    wf: &[BTreeSet<usize>],
    dists: &[ArrayDist],
    hoisted: &mut usize,
) -> Vec<SStmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        match s {
            SStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                // Innermost loops first, so an invariant bcast bubbles up
                // through a whole nest.
                let body = hoist_stmts(body, wf, dists, hoisted);
                let trip_ok = match (const_of(&lo, dists), const_of(&hi, dists)) {
                    (Some(l), Some(h)) => (step == 1 && h >= l) || (step == -1 && l >= h),
                    _ => false,
                };
                let mut callees = Vec::new();
                collect_callees(&body, &mut callees);
                if !trip_ok || !callees.is_empty() {
                    out.push(SStmt::Do {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    });
                    continue;
                }
                let mut assigned = BTreeSet::new();
                assigned.insert(var);
                collect_assigned_scalars(&body, &mut assigned);
                let invariant = |e: &SExpr| !mentions_any(e, &assigned) && !reads_memory(e);
                let mut lifted = 0usize;
                while lifted < body.len() {
                    let rest = &body[lifted + 1..];
                    let mut rest_arrays = BTreeSet::new();
                    collect_written_arrays(rest, wf, &mut rest_arrays);
                    let ok = match &body[lifted] {
                        SStmt::Bcast { root, parts } if parts.len() == 1 => {
                            let p = &parts[0];
                            p.src_array != p.dst_array
                                && invariant(root)
                                && p.src_section
                                    .bounds()
                                    .chain(p.dst_section.bounds())
                                    .all(invariant)
                                && !rest_arrays.contains(&p.src_array)
                                && !rest_arrays.contains(&p.dst_array)
                        }
                        _ => false,
                    };
                    if !ok {
                        break;
                    }
                    lifted += 1;
                }
                if lifted == 0 {
                    out.push(SStmt::Do {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    });
                } else {
                    *hoisted += lifted;
                    let mut body = body;
                    let rest = body.split_off(lifted);
                    out.extend(body);
                    out.push(SStmt::Do {
                        var,
                        lo,
                        hi,
                        step,
                        body: rest,
                    });
                }
            }
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => out.push(SStmt::If {
                cond,
                then_body: hoist_stmts(then_body, wf, dists, hoisted),
                else_body: hoist_stmts(else_body, wf, dists, hoisted),
            }),
            other => out.push(other),
        }
    }
    out
}
