use crate::ir::{walk_stmts, MsgKind, OperandMut, SExpr, SRect, SStmt, SpmdProgram};
use fortrand_ir::dist::ArrayDist;
use fortrand_ir::Sym;
use std::collections::{BTreeMap, BTreeSet};

use super::dataflow::any_node;
use super::lin::{const_diff, linearize, syn_eq, Lin};
use super::OptReport;

// ---------------------------------------------------------------------------
// Message coalescing: pack broadcast runs, merge adjacent section transfers
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
    match (a, b) {
        (
            SStmt::Send {
                to: to1,
                tag: t1,
                array: a1,
                section: s1,
            },
            SStmt::Send {
                to: to2,
                tag: t2,
                array: a2,
                section: s2,
            },
        ) if a1 == a2 && t1 != t2 && syn_eq(to1, to2, dists) => {
            let section = merge_rects(s1, s2, dists)?;
            Some((
                *t1,
                *t2,
                SStmt::Send {
                    to: to1.clone(),
                    tag: *t1,
                    array: *a1,
                    section,
                },
            ))
        }
        (
            SStmt::Recv {
                from: f1,
                tag: t1,
                array: a1,
                section: s1,
            },
            SStmt::Recv {
                from: f2,
                tag: t2,
                array: a2,
                section: s2,
            },
        ) if a1 == a2 && t1 != t2 && syn_eq(f1, f2, dists) => {
            let section = merge_rects(s1, s2, dists)?;
            Some((
                *t1,
                *t2,
                SStmt::Recv {
                    from: f1.clone(),
                    tag: *t1,
                    array: *a1,
                    section,
                },
            ))
        }
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

/// One traversal shared by the counting and rewriting passes so both see
/// identical candidate pairs. `committed = None` counts candidates into
/// `pair_count`; `Some(set)` replaces committed pairs with their merge.
fn pair_walk(
    stmts: Vec<SStmt>,
    dists: &[ArrayDist],
    committed: Option<&BTreeSet<(u64, u64)>>,
    pair_count: &mut BTreeMap<(u64, u64), usize>,
    merged_msgs: &mut usize,
) -> Vec<SStmt> {
    let mut out = Vec::with_capacity(stmts.len());
    let mut it = stmts.into_iter().peekable();
    while let Some(mut s) = it.next() {
        s.operands_mut(&mut |op| {
            if let OperandMut::Body(b) = op {
                *b = pair_walk(std::mem::take(b), dists, committed, pair_count, merged_msgs);
            }
        });
        let cand = it.peek().and_then(|nxt| merge_pair(&s, nxt, dists));
        match cand {
            Some((t1, t2, m)) => {
                let nxt = it.next().expect("peeked");
                match committed {
                    None => {
                        *pair_count.entry((t1, t2)).or_insert(0) += 1;
                        out.push(s);
                        out.push(nxt);
                    }
                    Some(set) if set.contains(&(t1, t2)) => {
                        *merged_msgs += 1;
                        out.push(m);
                    }
                    Some(_) => {
                        out.push(s);
                        out.push(nxt);
                    }
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

/// The coalescing pass: broadcast packing plus point-to-point pair merging.
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
    let mut scratch = 0usize;
    for p in &prog.procs {
        count_tags(&p.body, &mut tag_occ);
        pair_walk(p.body.clone(), &dists, None, &mut pair_count, &mut scratch);
    }
    let committed: BTreeSet<(u64, u64)> = pair_count
        .iter()
        .filter(|((t1, t2), &n)| tag_occ.get(t1) == Some(&n) && tag_occ.get(t2) == Some(&n))
        .map(|(k, _)| *k)
        .collect();
    if committed.is_empty() {
        return;
    }
    let mut ignore = BTreeMap::new();
    for p in prog.procs.iter_mut() {
        let body = std::mem::take(&mut p.body);
        p.body = pair_walk(
            body,
            &dists,
            Some(&committed),
            &mut ignore,
            &mut report.coalesced,
        );
    }
}
