//! Communication/computation overlap (level [`CommOpt::Overlap`]).
//!
//! Splits blocking communication into nonblocking *post*/*wait* pairs and
//! moves the halves apart so message latency elapses under compute:
//!
//! 1. **Conversion**: every vectorized [`SStmt::Send`] becomes
//!    [`SStmt::PostSend`]+[`SStmt::WaitSend`] (the sender is charged the
//!    message startup α at the post; the per-byte cost overlaps with
//!    whatever follows), every [`SStmt::Recv`] becomes
//!    [`SStmt::PostRecv`]+[`SStmt::WaitRecv`], and every [`SStmt::Bcast`]
//!    becomes [`SStmt::PostBcast`]+[`SStmt::WaitBcast`].
//! 2. **Post hoisting**: a post moves backward over preceding statements
//!    that provably do not write the gathered array, do not assign a scalar
//!    its operands mention, and perform no communication (keeping per-rank
//!    message FIFO order and the SPMD-uniform collective sequence intact).
//!    Compound statements (`Do`/`If`/`Call`) are crossed only when the same
//!    holds for everything they execute, interprocedurally via the
//!    written-formals summary.
//! 3. **Wait sinking**: a receive's wait moves forward past statements that
//!    neither touch the destination array nor assign its section bounds nor
//!    communicate, so the receiver computes while the message is in flight.
//! 4. **Coarse-grain pipelining**: a loop whose body broadcasts a section
//!    indexed by the loop variable and ends with the comm-free trailing
//!    update producing the *next* iteration's section (dgefa's pivot
//!    broadcast + elimination update) is software-pipelined: iteration `k`
//!    peels the single update point that completes section `k+1` (guarded
//!    to its owner), posts broadcast `k+1`, and only then performs the rest
//!    of the update — so the broadcast tree latency of step `k+1` hides
//!    under the trailing update of step `k`. The pattern is the
//!    owner-computes trailing update the paper targets: the peel assumes
//!    the guarded body writes only the section its guard variable selects,
//!    which is exactly what owner-computes codegen emits.
//!
//! Every transformation preserves bit-identical arrays and message/byte
//! counts: posts capture the same payload bytes the blocking operation
//! would have gathered (hoisting never crosses a statement that could
//! change them, and the pipelined post runs right after the peeled update
//! that completes its payload), and waits scatter them at the original
//! program point (or later, past statements that provably do not look).

use crate::ir::{
    walk_array_mentions, walk_operands_mut, walk_stmts, BcastPart, OperandMut, SBinOp, SExpr,
    SLval, SProc, SRect, SStmt, SpmdProgram,
};
use fortrand_ir::dist::ArrayDist;
use fortrand_ir::{Interner, Sym};
use std::collections::{BTreeMap, BTreeSet};

use super::dataflow::{
    collect_assigned_scalars, collect_written_arrays, mentions_any, reads_memory, written_formals,
};
use super::lin::{const_of, syn_eq};
use super::OptReport;

/// Runs the overlap pass in place (after eliminate and coalesce).
/// Runs the pass in place; returns the number of procedures whose bodies
/// it changed (the `units` figure of the per-pass statistics row).
pub(super) fn overlap(prog: &mut SpmdProgram, report: &mut OptReport) -> usize {
    let mut units = 0;
    let wf = written_formals(&prog.procs);
    let proc_comm = procs_with_comm(&prog.procs);
    let dists = prog.dists.clone();
    let mut cx = Cx {
        wf: &wf,
        dists: &dists,
        proc_comm: &proc_comm,
        next_handle: 0,
        overlapped: 0,
        posts_hoisted: 0,
        waits_sunk: 0,
        pipelined: 0,
    };
    for i in 0..prog.procs.len() {
        let before = (cx.overlapped, cx.posts_hoisted, cx.waits_sunk, cx.pipelined);
        let body = std::mem::take(&mut prog.procs[i].body);
        prog.procs[i].body = overlap_stmts(body, &mut cx, &mut prog.interner);
        let delta = (
            cx.overlapped - before.0,
            cx.posts_hoisted - before.1,
            cx.waits_sunk - before.2,
            cx.pipelined - before.3,
        );
        if delta != (0, 0, 0, 0) {
            units += 1;
            let pname = prog.interner.name(prog.procs[i].name).to_string();
            let summary = format!(
                "overlap: converted={} posts_hoisted={} waits_sunk={} pipelined={}",
                delta.0, delta.1, delta.2, delta.3
            );
            report
                .per_proc
                .entry(pname)
                .and_modify(|v| {
                    v.push(' ');
                    v.push_str(&summary);
                })
                .or_insert(summary);
        }
    }
    report.overlapped = cx.overlapped;
    report.posts_hoisted = cx.posts_hoisted;
    report.waits_sunk = cx.waits_sunk;
    report.pipelined_loops = cx.pipelined;
    units
}

struct Cx<'a> {
    wf: &'a [BTreeSet<usize>],
    dists: &'a [ArrayDist],
    /// Per-procedure "performs communication (transitively)" summary.
    proc_comm: &'a [bool],
    /// Next free post/wait handle (dense, program-wide).
    next_handle: u32,
    overlapped: usize,
    posts_hoisted: usize,
    waits_sunk: usize,
    pipelined: usize,
}

impl Cx<'_> {
    fn fresh_handle(&mut self) -> u32 {
        let h = self.next_handle;
        self.next_handle += 1;
        h
    }
}

// ---------------------------------------------------------------------------
// Communication summaries
// ---------------------------------------------------------------------------

/// Fixpoint "does this procedure (transitively) communicate".
fn procs_with_comm(procs: &[SProc]) -> Vec<bool> {
    let mut comm = vec![false; procs.len()];
    loop {
        let mut changed = false;
        for (i, p) in procs.iter().enumerate() {
            if !comm[i] && body_has_comm(&p.body, &comm) {
                comm[i] = true;
                changed = true;
            }
        }
        if !changed {
            return comm;
        }
    }
}

/// True if anything in `stmts` communicates or touches decomposition
/// state, directly or through a call: the barrier for every kind of code
/// motion this pass performs. Posted forms are included so a second motion
/// never reorders already-moved communication.
fn body_has_comm(stmts: &[SStmt], proc_comm: &[bool]) -> bool {
    let mut hit = false;
    walk_stmts(stmts, &mut |s| {
        hit |= s.is_comm() || matches!(s, SStmt::Call { proc, .. } if proc_comm[*proc]);
    });
    hit
}

fn contains_return(stmts: &[SStmt]) -> bool {
    let mut hit = false;
    walk_stmts(stmts, &mut |s| {
        hit |= matches!(s, SStmt::Return | SStmt::Stop)
    });
    hit
}

/// True if any statement mentions `array` at all (element access, section
/// communication, actual argument, remap target — reads *or* writes).
fn mentions_array(stmts: &[SStmt], array: Sym) -> bool {
    let mut hit = false;
    walk_array_mentions(stmts, &mut |name, _| hit |= name == array);
    hit
}

/// Arrays an expression reads through (`Elem` / `CurOwner`).
fn expr_read_arrays(e: &SExpr, out: &mut BTreeSet<Sym>) {
    e.walk(&mut |x| {
        if let SExpr::Elem { array, .. } | SExpr::CurOwner { array, .. } = x {
            out.insert(*array);
        }
    });
}

// ---------------------------------------------------------------------------
// Post hoisting / wait sinking
// ---------------------------------------------------------------------------

/// What a post reads: the payload array(s), arrays its operand expressions
/// load from, and the scalars those expressions mention. A post may cross a
/// statement backward only if the statement writes none of them and
/// performs no communication.
struct PostReads {
    arrays: BTreeSet<Sym>,
    exprs: Vec<SExpr>,
}

impl PostReads {
    fn new() -> PostReads {
        PostReads {
            arrays: BTreeSet::new(),
            exprs: Vec::new(),
        }
    }

    fn add_expr(&mut self, e: &SExpr) {
        expr_read_arrays(e, &mut self.arrays);
        self.exprs.push(e.clone());
    }

    fn add_rect(&mut self, r: &SRect) {
        for (lo, hi, _) in &r.dims {
            self.add_expr(lo);
            self.add_expr(hi);
        }
    }
}

fn can_hoist_past(s: &SStmt, reads: &PostReads, cx: &Cx<'_>) -> bool {
    if matches!(s, SStmt::Return | SStmt::Stop)
        || body_has_comm(std::slice::from_ref(s), cx.proc_comm)
    {
        return false;
    }
    let mut written = BTreeSet::new();
    collect_written_arrays(std::slice::from_ref(s), cx.wf, &mut written);
    if written.iter().any(|a| reads.arrays.contains(a)) {
        return false;
    }
    let mut assigned = BTreeSet::new();
    collect_assigned_scalars(std::slice::from_ref(s), &mut assigned);
    !reads.exprs.iter().any(|e| mentions_any(e, &assigned))
}

/// Inserts `post` into `out` as early as the motion rules allow, counting a
/// hoist if it crossed at least one statement.
fn hoist_post(out: &mut Vec<SStmt>, post: SStmt, reads: &PostReads, cx: &mut Cx<'_>) {
    let mut idx = out.len();
    while idx > 0 && can_hoist_past(&out[idx - 1], reads, cx) {
        idx -= 1;
    }
    if idx < out.len() {
        cx.posts_hoisted += 1;
    }
    out.insert(idx, post);
}

/// A receive wait being sunk forward past independent statements.
struct PendingWait {
    handle: u32,
    parts: Vec<(Sym, SRect)>,
    /// Scalars the section bounds mention (a crossed statement must not
    /// assign them) — the bounds are evaluated at the wait.
    scalars: BTreeSet<Sym>,
    /// Arrays the section bounds read through.
    read_arrays: BTreeSet<Sym>,
    /// `out.len()` when the wait became pending, to detect actual motion.
    origin: usize,
}

fn can_sink_past(s: &SStmt, pending: &[PendingWait], cx: &Cx<'_>) -> bool {
    if matches!(s, SStmt::Return | SStmt::Stop)
        || body_has_comm(std::slice::from_ref(s), cx.proc_comm)
    {
        return false;
    }
    let mut assigned = BTreeSet::new();
    collect_assigned_scalars(std::slice::from_ref(s), &mut assigned);
    let mut written = BTreeSet::new();
    collect_written_arrays(std::slice::from_ref(s), cx.wf, &mut written);
    pending.iter().all(|pw| {
        (pw.parts.iter()).all(|(a, _)| !mentions_array(std::slice::from_ref(s), *a))
            && pw.scalars.iter().all(|v| !assigned.contains(v))
            && pw.read_arrays.iter().all(|a| !written.contains(a))
    })
}

fn flush_pending(out: &mut Vec<SStmt>, pending: &mut Vec<PendingWait>, cx: &mut Cx<'_>) {
    for pw in pending.drain(..) {
        if out.len() > pw.origin {
            cx.waits_sunk += 1;
        }
        out.push(SStmt::WaitRecv {
            handle: pw.handle,
            parts: pw.parts,
        });
    }
}

// ---------------------------------------------------------------------------
// The statement walk: convert, hoist, sink, pipeline
// ---------------------------------------------------------------------------

fn overlap_stmts(stmts: Vec<SStmt>, cx: &mut Cx<'_>, interner: &mut Interner) -> Vec<SStmt> {
    let mut out: Vec<SStmt> = Vec::with_capacity(stmts.len());
    let mut pending: Vec<PendingWait> = Vec::new();
    for s in stmts {
        // Waits sink in post order: the first statement any pending wait
        // cannot cross lands every earlier wait too (keeping same-key
        // receive completions FIFO).
        if !pending.is_empty() && !can_sink_past(&s, &pending, cx) {
            flush_pending(&mut out, &mut pending, cx);
        }
        match s {
            SStmt::Send { to, tag, parts } => {
                cx.overlapped += 1;
                let h = cx.fresh_handle();
                let mut reads = PostReads::new();
                reads.add_expr(&to);
                for (array, section) in &parts {
                    reads.arrays.insert(*array);
                    reads.add_rect(section);
                }
                let post = SStmt::PostSend {
                    handle: h,
                    to,
                    tag,
                    parts,
                };
                hoist_post(&mut out, post, &reads, cx);
                out.push(SStmt::WaitSend { handle: h });
            }
            SStmt::Recv { from, tag, parts } => {
                cx.overlapped += 1;
                let h = cx.fresh_handle();
                out.push(SStmt::PostRecv {
                    handle: h,
                    from,
                    tag,
                });
                let mut scalars = BTreeSet::new();
                let mut read_arrays = BTreeSet::new();
                for e in parts.iter().flat_map(|(_, section)| section.bounds()) {
                    e.walk(&mut |x| {
                        if let SExpr::Var(v) = x {
                            scalars.insert(*v);
                        }
                    });
                    expr_read_arrays(e, &mut read_arrays);
                }
                pending.push(PendingWait {
                    handle: h,
                    parts,
                    scalars,
                    read_arrays,
                    origin: out.len(),
                });
            }
            SStmt::Bcast { root, parts } => {
                cx.overlapped += 1;
                let h = cx.fresh_handle();
                let mut reads = PostReads::new();
                reads.add_expr(&root);
                let (mut src, mut dst) = (Vec::new(), Vec::new());
                for p in parts {
                    reads.arrays.insert(p.src_array);
                    reads.add_rect(&p.src_section);
                    src.push((p.src_array, p.src_section));
                    dst.push((p.dst_array, p.dst_section));
                }
                let post = SStmt::PostBcast {
                    handle: h,
                    root,
                    src,
                };
                hoist_post(&mut out, post, &reads, cx);
                out.push(SStmt::WaitBcast { handle: h, dst });
            }
            SStmt::Do {
                var,
                lo,
                hi,
                step,
                body,
            } => match try_pipeline(var, lo, hi, step, body, cx, interner) {
                Ok(repl) => out.extend(repl),
                Err((lo, hi, body)) => {
                    let body = overlap_stmts(body, cx, interner);
                    out.push(SStmt::Do {
                        var,
                        lo,
                        hi,
                        step,
                        body,
                    });
                }
            },
            SStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let then_body = overlap_stmts(then_body, cx, interner);
                let else_body = overlap_stmts(else_body, cx, interner);
                out.push(SStmt::If {
                    cond,
                    then_body,
                    else_body,
                });
            }
            other => out.push(other),
        }
    }
    flush_pending(&mut out, &mut pending, cx);
    out
}

// ---------------------------------------------------------------------------
// Coarse-grain pipelining
// ---------------------------------------------------------------------------

/// Attempts the pipelining transform on `Do var = lo, hi { body }`. On a
/// pattern mismatch the owned pieces are handed back unchanged (`var` and
/// `step` are `Copy`).
#[allow(clippy::type_complexity)]
fn try_pipeline(
    var: Sym,
    lo: SExpr,
    hi: SExpr,
    step: i64,
    body: Vec<SStmt>,
    cx: &mut Cx<'_>,
    interner: &mut Interner,
) -> Result<Vec<SStmt>, (SExpr, SExpr, Vec<SStmt>)> {
    // Ascending loop with a known, non-empty trip.
    if step != 1 || body.len() < 2 {
        return Err((lo, hi, body));
    }
    let (Some(cl), Some(ch)) = (const_of(&lo, cx.dists), const_of(&hi, cx.dists)) else {
        return Err((lo, hi, body));
    };
    if cl > ch {
        return Err((lo, hi, body));
    }
    // Leading broadcast of one section indexed by the loop variable...
    let SStmt::Bcast { root, parts } = &body[0] else {
        return Err((lo, hi, body));
    };
    let [BcastPart {
        src_array,
        src_section,
        dst_array,
        dst_section: _,
    }] = parts.as_slice()
    else {
        return Err((lo, hi, body));
    };
    if src_array == dst_array {
        return Err((lo, hi, body));
    }
    // ...with post operands that are memory-pure and depend on no scalar
    // the body assigns (so they can be re-evaluated at `k+1`, after the
    // peeled update, and at `lo` before the loop).
    let mut body_assigned = BTreeSet::new();
    collect_assigned_scalars(&body, &mut body_assigned);
    if body_assigned.contains(&var) {
        return Err((lo, hi, body));
    }
    let pure = |e: &SExpr| !reads_memory(e) && !mentions_any(e, &body_assigned);
    if !pure(root) || !src_section.dims.iter().all(|(a, b, _)| pure(a) && pure(b)) {
        return Err((lo, hi, body));
    }
    // The source section must select a single point along some dimension
    // indexed by the loop variable — that point's update is what gets
    // peeled.
    let mut kvar = BTreeSet::new();
    kvar.insert(var);
    let Some(pipe_expr) = src_section.dims.iter().find_map(|(a, b, _)| {
        (syn_eq(a, b, cx.dists) && mentions_any(a, &kvar)).then(|| a.clone())
    }) else {
        return Err((lo, hi, body));
    };
    // Trailing comm-free update loop.
    let SStmt::Do {
        var: _,
        lo: _,
        hi: _,
        step: tstep,
        body: tbody,
    } = body.last().unwrap()
    else {
        return Err((lo, hi, body));
    };
    if *tstep != 1 || body_has_comm(tbody, cx.proc_comm) || contains_return(tbody) {
        return Err((lo, hi, body));
    }
    // Exactly one top-level guard `g >= k+1 .and. g <= e` selects the
    // iteration-space points still to update; every array write lives under
    // it (the owner-computes shape). Tightening the lower bound to `k+2`
    // excludes precisely the peeled point.
    let kp1 = SExpr::add(SExpr::Var(var), SExpr::int(1));
    let mut guard_at = None;
    for (i, s) in tbody.iter().enumerate() {
        let is_guard = match s {
            SStmt::If {
                cond:
                    SExpr::Bin {
                        op: SBinOp::And,
                        l,
                        r,
                    },
                else_body,
                ..
            } if else_body.is_empty() => {
                matches!(
                    (&**l, &**r),
                    (
                        SExpr::Bin { op: SBinOp::Ge, l: gl, r: ge1, .. },
                        SExpr::Bin { op: SBinOp::Le, l: gl2, .. },
                    ) if matches!((&**gl, &**gl2), (SExpr::Var(a), SExpr::Var(b)) if a == b)
                        && syn_eq(ge1, &kp1, cx.dists)
                )
            }
            _ => false,
        };
        if is_guard {
            if guard_at.is_some() {
                return Err((lo, hi, body));
            }
            guard_at = Some(i);
        } else {
            let mut w = BTreeSet::new();
            collect_written_arrays(std::slice::from_ref(s), cx.wf, &mut w);
            if !w.is_empty() {
                return Err((lo, hi, body));
            }
        }
    }
    let Some(guard_at) = guard_at else {
        return Err((lo, hi, body));
    };

    // Pattern matched — commit. Consume the body.
    cx.pipelined += 1;
    let handle = cx.fresh_handle();
    let mut body = body;
    let Some(SStmt::Do {
        var: tvar2,
        lo: tlo2,
        hi: thi2,
        body: mut tbody_owned,
        ..
    }) = body.pop()
    else {
        unreachable!()
    };
    let (tvar, tlo, thi) = (tvar2, tlo2, thi2);
    let SStmt::Bcast { root, mut parts } = body.remove(0) else {
        unreachable!()
    };
    let BcastPart {
        src_array,
        src_section,
        dst_array,
        dst_section,
    } = parts.pop().expect("one part");
    let mid = overlap_stmts(body, cx, interner);

    let subst_k = |e: &SExpr, with: &SExpr| {
        let mut out = e.clone();
        out.walk_mut(&mut |x| {
            if *x == SExpr::Var(var) {
                *x = with.clone();
            }
        });
        out
    };
    let subst_rect = |r: &SRect, with: &SExpr| {
        let mut out = r.clone();
        out.bounds_mut().for_each(|e| *e = subst_k(e, with));
        out
    };

    // Prologue: post the first iteration's broadcast before the loop.
    let lo_e = SExpr::int(cl);
    let prologue = SStmt::PostBcast {
        handle,
        root: subst_k(&root, &lo_e),
        src: vec![(src_array, subst_rect(&src_section, &lo_e))],
    };

    // Peel: on the next section's owner, run the update point that
    // completes it, with the trailing loop variable pinned to that point's
    // local index and every scalar the update assigns renamed (so the
    // peeled copy cannot disturb the un-peeled update that still runs).
    let tvar_stem = format!("{}$pipe", interner.name(tvar));
    let jpipe = interner.fresh(&tvar_stem);
    let mut rename = BTreeMap::new();
    let mut tassigned = BTreeSet::new();
    collect_assigned_scalars(&tbody_owned, &mut tassigned);
    for s in tassigned {
        let stem = format!("{}$pipe", interner.name(s));
        rename.insert(s, interner.fresh(&stem));
    }
    rename.insert(tvar, jpipe);
    let mut peel_body = tbody_owned.clone();
    rename_stmts(&mut peel_body, &rename);
    let root_kp1 = subst_k(&root, &kp1);
    let peel_cond = SExpr::bin(
        SBinOp::And,
        SExpr::bin(
            SBinOp::And,
            SExpr::bin(SBinOp::Eq, SExpr::MyP, root_kp1.clone()),
            SExpr::bin(SBinOp::Ge, SExpr::Var(jpipe), tlo.clone()),
        ),
        SExpr::bin(SBinOp::Le, SExpr::Var(jpipe), thi.clone()),
    );
    let peel = vec![
        SStmt::Assign {
            lhs: SLval::Scalar(jpipe),
            rhs: subst_k(&pipe_expr, &kp1),
        },
        SStmt::If {
            cond: peel_cond,
            then_body: peel_body,
            else_body: Vec::new(),
        },
    ];

    // Post the next iteration's broadcast (every rank: the guard is
    // replicated, keeping the collective sequence SPMD-uniform).
    let post_next = SStmt::If {
        cond: SExpr::bin(SBinOp::Le, kp1.clone(), hi.clone()),
        then_body: vec![SStmt::PostBcast {
            handle,
            root: root_kp1,
            src: vec![(src_array, subst_rect(&src_section, &kp1))],
        }],
        else_body: Vec::new(),
    };

    // Tighten the trailing update's guard past the peeled point.
    if let SStmt::If {
        cond: SExpr::Bin { l, .. },
        ..
    } = &mut tbody_owned[guard_at]
    {
        if let SExpr::Bin { r: ge1, .. } = &mut **l {
            **ge1 = SExpr::add(SExpr::Var(var), SExpr::int(2));
        }
    }

    let mut new_body = vec![SStmt::WaitBcast {
        handle,
        dst: vec![(dst_array, dst_section)],
    }];
    new_body.extend(mid);
    new_body.extend(peel);
    new_body.push(post_next);
    new_body.push(SStmt::Do {
        var: tvar,
        lo: tlo,
        hi: thi,
        step: 1,
        body: tbody_owned,
    });
    Ok(vec![
        prologue,
        SStmt::Do {
            var,
            lo,
            hi,
            step: 1,
            body: new_body,
        },
    ])
}

// ---------------------------------------------------------------------------
// Scalar renaming for the peeled update copy
// ---------------------------------------------------------------------------

/// Renames scalar variables per `m` in a comm-free statement list: `Var`
/// reads, scalar assignment targets, `Do` variables and call copy-out
/// targets (caller side only — the formal side names the callee's scope).
/// Array symbols are never in `m`, so array references pass through.
fn rename_stmts(stmts: &mut [SStmt], m: &BTreeMap<Sym, Sym>) {
    let rename = |s: &mut Sym| *s = *m.get(s).unwrap_or(s);
    walk_operands_mut(stmts, &mut |op| match op {
        OperandMut::Expr(e) => e.walk_mut(&mut |x| {
            if let SExpr::Var(s) = x {
                rename(s);
            }
        }),
        OperandMut::Scalar { var: s, .. } | OperandMut::CopyOut { caller: s, .. } => rename(s),
        _ => {}
    });
}
