use crate::ir::{
    walk_array_mentions, walk_stmts, MsgKind, Operand, OperandMut, SExpr, SProc, SRect, SStmt,
    SpmdProgram,
};
use fortrand_ir::dist::ArrayDist;
use fortrand_ir::Sym;
use std::collections::{BTreeMap, BTreeSet};

use super::dataflow::{any_node, collect_assigned_scalars, mentions_any, reads_memory};
use super::lin::{const_diff, linearize, syn_eq, Lin};
use super::OptReport;

// ---------------------------------------------------------------------------
// Message coalescing: pack broadcast runs, merge adjacent section transfers,
// aggregate the exchanges of a statement list
// ---------------------------------------------------------------------------

/// True if `e` reads an element (or the current owner) of any array in `w`.
fn elem_reads_any(e: &SExpr, w: &BTreeSet<Sym>) -> bool {
    any_node(
        e,
        |x| matches!(x, SExpr::Elem { array, .. } | SExpr::CurOwner { array, .. } if w.contains(array)),
    )
}

/// A section bound as a linear form over plain scalar variables. The atoms
/// are checked before any subtraction: a receive writes arrays, so a bound
/// that reads an element refuses even where that read would cancel.
fn scalar_lin(e: &SExpr) -> Option<Lin> {
    let lin = linearize(e)?;
    lin.terms
        .iter()
        .all(|(atom, _)| matches!(atom, SExpr::Var(_)))
        .then_some(lin)
}

/// Merges two unit-stride section rectangles that concatenate along one
/// dimension: equal on every other dimension, and `lo2 − hi1 = 1` on that
/// one. The merged payload must equal `payload(a) ++ payload(b)` under the
/// interpreter's last-dimension-fastest iteration order, which holds
/// exactly when every dimension slower than the seam is degenerate.
pub(super) fn merge_rects(s1: &SRect, s2: &SRect, dists: &[ArrayDist]) -> Option<SRect> {
    if s1.dims.len() != s2.dims.len() {
        return None;
    }
    let mut seam = None;
    for (d, (a, b)) in s1.dims.iter().zip(&s2.dims).enumerate() {
        if a.2 != 1 || b.2 != 1 {
            return None;
        }
        let (lo1, hi1) = (scalar_lin(&a.0)?, scalar_lin(&a.1)?);
        let (lo2, hi2) = (scalar_lin(&b.0)?, scalar_lin(&b.1)?);
        if const_diff(lo2.clone(), lo1) == Some(0) && const_diff(hi2, hi1.clone()) == Some(0) {
            continue;
        }
        if seam.is_some() || const_diff(lo2, hi1) != Some(1) {
            return None;
        }
        seam = Some(d);
    }
    let d = seam?;
    for k in 0..d {
        if !syn_eq(&s1.dims[k].0, &s1.dims[k].1, dists) {
            return None;
        }
    }
    let mut dims = s1.dims.clone();
    dims[d] = (s1.dims[d].0.clone(), s2.dims[d].1.clone(), 1);
    Some(SRect { dims })
}

/// If statement `a` immediately followed by `b` is a mergeable send or
/// receive pair, returns `(a.tag, b.tag, merged)`. The merged statement
/// reuses `a`'s tag; the merge is committed only if tag accounting shows
/// the matching endpoint merges too.
fn merge_pair(a: &SStmt, b: &SStmt, dists: &[ArrayDist]) -> Option<(u64, u64, SStmt)> {
    // One part each, of the same array, over sections that concatenate.
    let merged = |p1: &[(Sym, SRect)], p2: &[(Sym, SRect)]| match (p1, p2) {
        ([(a1, s1)], [(a2, s2)]) if a1 == a2 => Some(vec![(*a1, merge_rects(s1, s2, dists)?)]),
        _ => None,
    };
    match (a, b) {
        (
            SStmt::Send {
                to: to1,
                tag: t1,
                parts: p1,
            },
            SStmt::Send {
                to: to2,
                tag: t2,
                parts: p2,
            },
        ) if t1 != t2 && syn_eq(to1, to2, dists) => Some((
            *t1,
            *t2,
            SStmt::Send {
                to: to1.clone(),
                tag: *t1,
                parts: merged(p1, p2)?,
            },
        )),
        (
            SStmt::Recv {
                from: f1,
                tag: t1,
                parts: p1,
            },
            SStmt::Recv {
                from: f2,
                tag: t2,
                parts: p2,
            },
        ) if t1 != t2 && syn_eq(f1, f2, dists) => Some((
            *t1,
            *t2,
            SStmt::Recv {
                from: f1.clone(),
                tag: *t1,
                parts: merged(p1, p2)?,
            },
        )),
        _ => None,
    }
}

/// Occurrences of each point-to-point tag, posted forms included.
fn count_tags(stmts: &[SStmt], occ: &mut BTreeMap<u64, usize>) {
    walk_stmts(stmts, &mut |s| {
        if let Some(
            MsgKind::Send { tag }
            | MsgKind::Recv { tag }
            | MsgKind::ElemSend { tag }
            | MsgKind::ElemRecv { tag },
        ) = s.msg_kind()
        {
            *occ.entry(tag).or_insert(0) += 1;
        }
    });
}

/// Counts the candidate pairs of `stmts` into `pair_count`. A pair's
/// second statement is not a candidate again: [`pair_walk`] consumes
/// both, so the two walks see identical pairs.
fn count_pairs(stmts: &[SStmt], dists: &[ArrayDist], pair_count: &mut BTreeMap<(u64, u64), usize>) {
    let mut i = 0;
    while let Some(s) = stmts.get(i) {
        s.operands(&mut |op| {
            if let Operand::Body(b) = op {
                count_pairs(b, dists, pair_count);
            }
        });
        let cand = stmts.get(i + 1).and_then(|nxt| merge_pair(s, nxt, dists));
        if let Some((t1, t2, _)) = cand {
            *pair_count.entry((t1, t2)).or_insert(0) += 1;
            i += 1;
        }
        i += 1;
    }
}

/// Replaces every committed candidate pair of `stmts` with its merge.
fn pair_walk(
    stmts: Vec<SStmt>,
    dists: &[ArrayDist],
    committed: &BTreeSet<(u64, u64)>,
    merged_msgs: &mut usize,
) -> Vec<SStmt> {
    let mut out = Vec::with_capacity(stmts.len());
    let mut it = stmts.into_iter().peekable();
    while let Some(mut s) = it.next() {
        s.operands_mut(&mut |op| {
            if let OperandMut::Body(b) = op {
                *b = pair_walk(std::mem::take(b), dists, committed, merged_msgs);
            }
        });
        let cand = it.peek().and_then(|nxt| merge_pair(&s, nxt, dists));
        match cand {
            Some((t1, t2, m)) => {
                let nxt = it.next().expect("peeked");
                if committed.contains(&(t1, t2)) {
                    *merged_msgs += 1;
                    out.push(m);
                } else {
                    out.push(s);
                    out.push(nxt);
                }
            }
            None => out.push(s),
        }
    }
    out
}

/// Packs a run of same-root broadcasts into one by concatenating their
/// part lists. A run member must not read data a previous member of the
/// run wrote (the pack gathers everything up front), but destination
/// sections are unconstrained because unpacking is sequential in run order
/// on every rank.
fn pack_bcasts(stmts: Vec<SStmt>, dists: &[ArrayDist], coalesced: &mut usize) -> Vec<SStmt> {
    let mut stmts = stmts;
    for s in &mut stmts {
        s.operands_mut(&mut |op| {
            if let OperandMut::Body(b) = op {
                *b = pack_bcasts(std::mem::take(b), dists, coalesced);
            }
        });
    }
    let mut out: Vec<SStmt> = Vec::with_capacity(stmts.len());
    // Arrays written so far by the run that ends at `out.last()`.
    let mut w_arrays: BTreeSet<Sym> = BTreeSet::new();
    for s in stmts {
        let SStmt::Bcast { root, parts } = s else {
            out.push(s);
            continue;
        };
        if let Some(SStmt::Bcast {
            root: r0,
            parts: run,
        }) = out.last_mut()
        {
            let fresh = |e: &SExpr| !elem_reads_any(e, &w_arrays);
            let joins = syn_eq(r0, &root, dists)
                && fresh(&root)
                && parts
                    .iter()
                    .all(|p| !w_arrays.contains(&p.src_array) && p.src_section.bounds().all(fresh));
            if joins {
                *coalesced += 1;
                w_arrays.extend(parts.iter().map(|p| p.dst_array));
                run.extend(parts);
                continue;
            }
        }
        w_arrays = parts.iter().map(|p| p.dst_array).collect();
        out.push(SStmt::Bcast { root, parts });
    }
    out
}

/// A point-to-point message statement, bare or under a one-statement
/// guard (`if (my$p .gt. 0) send X(1) to my$p-1`), whose guard, peer and
/// section bounds read scalars only: those are evaluated where the
/// message lands, so no array store may change them on the way.
#[derive(Clone, Copy)]
struct Exchange<'s> {
    guard: Option<&'s SExpr>,
    send: bool,
    peer: &'s SExpr,
    tag: u64,
    parts: &'s [(Sym, SRect)],
}

impl<'s> Exchange<'s> {
    fn of(s: &'s SStmt) -> Option<Exchange<'s>> {
        let (guard, msg) = match s {
            SStmt::If {
                cond,
                then_body,
                else_body,
            } if then_body.len() == 1 && else_body.is_empty() => (Some(cond), &then_body[0]),
            _ => (None, s),
        };
        let (send, peer, tag, parts) = match msg {
            SStmt::Send { to, tag, parts } => (true, to, *tag, parts),
            SStmt::Recv { from, tag, parts } => (false, from, *tag, parts),
            _ => return None,
        };
        let x = Exchange {
            guard,
            send,
            peer,
            tag,
            parts,
        };
        (!x.exprs().any(reads_memory)).then_some(x)
    }

    fn exprs(&self) -> impl Iterator<Item = &'s SExpr> {
        let bounds = self.parts.iter().flat_map(|(_, r)| r.bounds());
        self.guard.into_iter().chain([self.peer]).chain(bounds)
    }

    fn arrays(&self) -> impl Iterator<Item = Sym> + 's {
        self.parts.iter().map(|(a, _)| *a)
    }

    /// Same direction, guard and peer: the two can travel as one message.
    fn joins(&self, other: &Exchange<'_>) -> bool {
        self.send == other.send && self.guard == other.guard && self.peer == other.peer
    }
}

/// Exchanges of one statement list hoisted to the first of them: the
/// statements between may neither mention a member's array nor assign a
/// scalar its guard, peer or bounds read, nor leave the procedure.
/// Members are grouped by direction, guard and peer, groups in order of
/// first appearance; the sends land before the receives.
struct Cluster {
    /// Index of the first member: where the messages land.
    at: usize,
    /// Member indices of each group, in statement order.
    groups: Vec<Vec<usize>>,
    /// Arrays the statements between mention, and scalars they assign.
    mentioned: BTreeSet<Sym>,
    assigned: BTreeSet<Sym>,
    /// Arrays the receive members write, with their group.
    written: Vec<(usize, Sym)>,
}

impl Cluster {
    fn new(at: usize) -> Cluster {
        Cluster {
            at,
            groups: Vec::new(),
            mentioned: BTreeSet::new(),
            assigned: BTreeSet::new(),
            written: Vec::new(),
        }
    }

    /// Adds exchange `x` at index `i` if it can land at `at`, given the
    /// group keys so far (`keys[g]` is group `g`'s first member). A send
    /// lands before every receive, so it may not read what a receive
    /// member writes; a receive may not overtake one of another group
    /// into the same array.
    fn admit<'s>(&mut self, keys: &mut Vec<Exchange<'s>>, x: Exchange<'s>, i: usize) -> bool {
        if x.arrays().any(|a| self.mentioned.contains(&a))
            || x.exprs().any(|e| mentions_any(e, &self.assigned))
        {
            return false;
        }
        let g = keys.iter().position(|k| k.joins(&x)).unwrap_or(keys.len());
        let clash = |&(h, a): &(usize, Sym)| (x.send || h != g) && x.arrays().any(|b| b == a);
        if self.written.iter().any(clash) {
            return false;
        }
        if !x.send {
            self.written.extend(x.arrays().map(|a| (g, a)));
        }
        if g == keys.len() {
            keys.push(x);
            self.groups.push(Vec::new());
        }
        self.groups[g].push(i);
        true
    }
}

/// The clusters of `stmts` that aggregate: at least two members in one
/// group, and committed (see [`commits`]).
fn clusters(stmts: &[SStmt], occ: &BTreeMap<u64, usize>) -> Vec<Cluster> {
    let xs: Vec<Option<Exchange<'_>>> = stmts.iter().map(Exchange::of).collect();
    // A group needs two exchanges of one key: without such a pair there
    // is nothing to aggregate, and no statement needs to be walked.
    let mut keys: Vec<Exchange<'_>> = Vec::new();
    let repeated = xs.iter().flatten().any(|x| {
        let seen = keys.iter().any(|k| k.joins(x));
        if !seen {
            keys.push(*x);
        }
        seen
    });
    if !repeated {
        return Vec::new();
    }
    let mut done = Vec::new();
    let mut open: Option<(Cluster, Vec<Exchange<'_>>)> = None;
    let mut close = |open: &mut Option<(Cluster, Vec<Exchange<'_>>)>| {
        if let Some((c, _)) = open.take() {
            if c.groups.iter().any(|g| g.len() > 1) && commits(&c, &xs, occ) {
                done.push(c);
            }
        }
    };
    for (i, (s, x)) in stmts.iter().zip(&xs).enumerate() {
        if let Some(x) = *x {
            if let Some((c, keys)) = &mut open {
                if c.admit(keys, x, i) {
                    continue;
                }
            }
            close(&mut open);
            let (mut c, mut keys) = (Cluster::new(i), Vec::new());
            c.admit(&mut keys, x, i);
            open = Some((c, keys));
            continue;
        }
        let Some((c, _)) = &mut open else { continue };
        let mut exits = false;
        walk_stmts(std::slice::from_ref(s), &mut |t| {
            exits |= matches!(t, SStmt::Return | SStmt::Stop)
        });
        if exits {
            close(&mut open);
            continue;
        }
        walk_array_mentions(std::slice::from_ref(s), &mut |a, _| {
            c.mentioned.insert(a);
        });
        collect_assigned_scalars(std::slice::from_ref(s), &mut c.assigned);
    }
    close(&mut open);
    done
}

/// True when every group pairs with one of the other direction carrying
/// the same tags in the same order, and each of those tags occurs exactly
/// twice in the program: then sender and receiver of every message are
/// both members, and they pack and unpack the same parts.
fn commits(c: &Cluster, xs: &[Option<Exchange<'_>>], occ: &BTreeMap<u64, usize>) -> bool {
    let member = |i: usize| xs[i].expect("a member");
    let mut by_dir: [Vec<Vec<u64>>; 2] = [Vec::new(), Vec::new()];
    for g in &c.groups {
        let tags = g.iter().map(|&i| member(i).tag).collect();
        by_dir[usize::from(member(g[0]).send)].push(tags);
    }
    let [mut recvs, mut sends] = by_dir;
    recvs.sort();
    sends.sort();
    sends == recvs && (sends.iter().flatten()).all(|t| occ.get(t) == Some(&2))
}

/// The message statement inside exchange `s`, mutably.
fn message_mut(s: &mut SStmt) -> &mut Vec<(Sym, SRect)> {
    match s {
        SStmt::If { then_body, .. } => message_mut(&mut then_body[0]),
        SStmt::Send { parts, .. } | SStmt::Recv { parts, .. } => parts,
        _ => unreachable!("not an exchange"),
    }
}

/// Aggregates the committed clusters of `stmts` and of every nested
/// list. Returns the number of exchanges folded into multi-part messages
/// and adds the messages that saves to `coalesced`.
fn aggregate(stmts: &mut Vec<SStmt>, occ: &BTreeMap<u64, usize>, coalesced: &mut usize) -> usize {
    let mut folded = 0;
    for s in stmts.iter_mut() {
        s.operands_mut(&mut |op| {
            if let OperandMut::Body(b) = op {
                folded += aggregate(b, occ, coalesced);
            }
        });
    }
    let committed = clusters(stmts, occ);
    if committed.is_empty() {
        return folded;
    }
    let mut slots: Vec<Option<SStmt>> = std::mem::take(stmts).into_iter().map(Some).collect();
    let mut landing: BTreeMap<usize, Vec<SStmt>> = BTreeMap::new();
    for c in &committed {
        let mut merged: Vec<SStmt> = (c.groups.iter())
            .map(|g| {
                let mut first = slots[g[0]].take().expect("one cluster per member");
                for &i in &g[1..] {
                    let mut m = slots[i].take().expect("one cluster per member");
                    message_mut(&mut first).append(message_mut(&mut m));
                }
                if g.len() > 1 {
                    folded += g.len();
                    *coalesced += g.len() - 1;
                }
                first
            })
            .collect();
        // Sends before receives; `sort_by_key` keeps group order within each.
        merged.sort_by_key(|s| !Exchange::of(s).expect("merged exchange").send);
        landing.insert(c.at, merged);
    }
    for (i, slot) in slots.into_iter().enumerate() {
        if let Some(merged) = landing.remove(&i) {
            stmts.extend(merged);
        }
        stmts.extend(slot);
    }
    folded
}

/// True when, in every procedure, each point-to-point tag is sent before
/// it is received in statement order. Codegen places every receive right
/// after its send, so messages never cross a cluster's landing point:
/// a receive hoisted above calls that communicate cannot wait on a rank
/// that is itself blocked before that point.
fn sends_precede_receives(procs: &[SProc]) -> bool {
    procs.iter().all(|p| {
        let mut received = BTreeSet::new();
        let mut ordered = true;
        walk_stmts(&p.body, &mut |s| match s.msg_kind() {
            Some(MsgKind::Send { tag } | MsgKind::ElemSend { tag }) => {
                ordered &= !received.contains(&tag)
            }
            Some(MsgKind::Recv { tag } | MsgKind::ElemRecv { tag }) => {
                received.insert(tag);
            }
            _ => {}
        });
        ordered
    })
}

/// The coalescing pass: broadcast packing, point-to-point pair merging
/// and exchange aggregation.
pub(super) fn coalesce(prog: &mut SpmdProgram, report: &mut OptReport) {
    let dists = prog.dists.clone();
    for p in prog.procs.iter_mut() {
        let body = std::mem::take(&mut p.body);
        p.body = pack_bcasts(body, &dists, &mut report.coalesced);
    }
    // Point-to-point merging changes the wire protocol, so a (t1, t2) merge
    // is committed only when EVERY occurrence of both tags in the whole
    // program sits in a candidate pair — then sender and receiver agree.
    let mut tag_occ: BTreeMap<u64, usize> = BTreeMap::new();
    let mut pair_count: BTreeMap<(u64, u64), usize> = BTreeMap::new();
    for p in &prog.procs {
        count_tags(&p.body, &mut tag_occ);
        count_pairs(&p.body, &dists, &mut pair_count);
    }
    let committed: BTreeSet<(u64, u64)> = pair_count
        .iter()
        .filter(|((t1, t2), &n)| tag_occ.get(t1) == Some(&n) && tag_occ.get(t2) == Some(&n))
        .map(|(k, _)| *k)
        .collect();
    if !committed.is_empty() {
        tag_occ.clear();
        for p in prog.procs.iter_mut() {
            let body = std::mem::take(&mut p.body);
            p.body = pair_walk(body, &dists, &committed, &mut report.coalesced);
            count_tags(&p.body, &mut tag_occ);
        }
    }
    if !sends_precede_receives(&prog.procs) {
        return;
    }
    for p in prog.procs.iter_mut() {
        let folded = aggregate(&mut p.body, &tag_occ, &mut report.coalesced);
        if folded > 0 {
            let note = format!("aggregated {folded} exchanges");
            (report
                .per_proc
                .entry(prog.interner.name(p.name).to_string()))
            .and_modify(|v| {
                v.push(' ');
                v.push_str(&note);
            })
            .or_insert(note);
        }
    }
}
