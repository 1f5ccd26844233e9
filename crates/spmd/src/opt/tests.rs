use super::coalesce::merge_rects;
use super::lin::{prove_ge, simplify, syn_eq, Ranges};
use super::*;
use crate::ir::{BcastPart, SBinOp, SExpr, SLval, SProc, SRect, SStmt};
use fortrand_ir::{Interner, Sym};

fn prog(body: Vec<SStmt>) -> (SpmdProgram, Interner) {
    let mut interner = Interner::new();
    let name = interner.intern("main");
    let p = SpmdProgram {
        interner: interner.clone(),
        nprocs: 2,
        procs: vec![SProc {
            name,
            formals: vec![],
            decls: vec![],
            body,
        }],
        main: 0,
        dists: vec![],
    };
    (p, interner)
}

fn rect(lo: i64, hi: i64) -> SRect {
    SRect::one(SExpr::Int(lo), SExpr::Int(hi))
}

/// `src(lo:hi)` broadcast from rank 0 into `dst(1:hi-lo+1)`.
fn bcast(src: Sym, dst: Sym, lo: i64, hi: i64) -> SStmt {
    SStmt::Bcast {
        root: SExpr::Int(0),
        parts: vec![BcastPart {
            src_array: src,
            src_section: rect(lo, hi),
            dst_array: dst,
            dst_section: rect(1, hi - lo + 1),
        }],
    }
}

#[test]
fn simplify_folds_linear_arithmetic() {
    let e = SExpr::add(SExpr::Int(1), SExpr::Int(2));
    assert_eq!(simplify(&e, &[]), SExpr::Int(3));
    let mut i = Interner::new();
    let x = i.intern("x");
    // (x + 1) + 2 and x + 3 normalize to the same linear form.
    let a = SExpr::add(SExpr::add(SExpr::Var(x), SExpr::Int(1)), SExpr::Int(2));
    let b = SExpr::add(SExpr::Var(x), SExpr::Int(3));
    assert!(syn_eq(&a, &b, &[]));
    assert!(!syn_eq(&a, &SExpr::Var(x), &[]));
}

#[test]
fn prove_ge_uses_constants_and_ranges() {
    let empty = Ranges::new();
    assert!(prove_ge(&SExpr::Int(5), &SExpr::Int(3), &empty, &[]));
    assert!(!prove_ge(&SExpr::Int(3), &SExpr::Int(5), &empty, &[]));
    let mut i = Interner::new();
    let x = i.intern("x");
    let mut ranges = Ranges::new();
    ranges.insert(x, (SExpr::Int(2), SExpr::Int(10)));
    assert!(prove_ge(&SExpr::Var(x), &SExpr::Int(1), &ranges, &[]));
    assert!(!prove_ge(&SExpr::Var(x), &SExpr::Int(11), &ranges, &[]));
}

#[test]
fn merge_rects_requires_exact_adjacency() {
    assert_eq!(merge_rects(&rect(1, 4), &rect(5, 8), &[]), Some(rect(1, 8)));
    // A gap or an overlap refuses.
    assert_eq!(merge_rects(&rect(1, 4), &rect(6, 9), &[]), None);
    assert_eq!(merge_rects(&rect(1, 4), &rect(4, 8), &[]), None);
}

#[test]
fn merge_rects_adjacency_and_merge() {
    // 1:5 ++ 6:10 = 1:10; overlap, gap and reversed order refuse.
    assert_eq!(
        merge_rects(&rect(1, 5), &rect(6, 10), &[]),
        Some(rect(1, 10))
    );
    assert_eq!(merge_rects(&rect(1, 5), &rect(5, 10), &[]), None);
    assert_eq!(merge_rects(&rect(1, 5), &rect(7, 10), &[]), None);
    assert_eq!(merge_rects(&rect(6, 10), &rect(1, 5), &[]), None);
    let r2 = |a: (i64, i64), b: (i64, i64)| SRect {
        dims: vec![
            (SExpr::Int(a.0), SExpr::Int(a.1), 1),
            (SExpr::Int(b.0), SExpr::Int(b.1), 1),
        ],
    };
    // 2-D: rows concatenate when columns agree…
    assert_eq!(
        merge_rects(&r2((1, 2), (1, 8)), &r2((3, 4), (1, 8)), &[]),
        Some(r2((1, 4), (1, 8)))
    );
    // …but not when both dimensions differ.
    assert_eq!(
        merge_rects(&r2((1, 4), (1, 2)), &r2((5, 8), (3, 4)), &[]),
        None
    );
    // A step-2 dimension refuses.
    let step2 = |lo: i64, hi: i64| SRect {
        dims: vec![(SExpr::Int(lo), SExpr::Int(hi), 2)],
    };
    assert_eq!(merge_rects(&step2(1, 4), &step2(5, 8), &[]), None);
    // A rank mismatch refuses.
    assert_eq!(merge_rects(&rect(1, 4), &r2((5, 8), (1, 1)), &[]), None);
}

#[test]
fn merge_rects_adjacency_symbolic_bounds() {
    let mut i = Interner::new();
    let (k, n, x) = (i.intern("k"), i.intern("n"), i.intern("x"));
    let var = SExpr::Var;
    let plus = |e: SExpr, c: i64| SExpr::add(e, SExpr::Int(c));
    // 1:k then k+1:n concatenates to 1:n.
    assert_eq!(
        merge_rects(
            &SRect::one(SExpr::Int(1), var(k)),
            &SRect::one(plus(var(k), 1), var(n)),
            &[]
        ),
        Some(SRect::one(SExpr::Int(1), var(n)))
    );
    // x(1)+1:x(1)+4 then x(1)+5:x(1)+8 refuses: the bounds read an element
    // (a receive may write it), even though x(1) cancels in the seam test.
    let x1 = || SExpr::Elem {
        array: x,
        subs: vec![SExpr::Int(1)],
    };
    assert_eq!(
        merge_rects(
            &SRect::one(plus(x1(), 1), plus(x1(), 4)),
            &SRect::one(plus(x1(), 5), plus(x1(), 8)),
            &[]
        ),
        None
    );
}

#[test]
fn merge_rects_2d_needs_degenerate_outer_dims() {
    // Payload order iterates the last dimension fastest, so a seam in
    // the last dimension concatenates payloads only when every slower
    // dimension is a single point.
    let deg = |row: i64, lo: i64, hi: i64| SRect {
        dims: vec![
            (SExpr::Int(row), SExpr::Int(row), 1),
            (SExpr::Int(lo), SExpr::Int(hi), 1),
        ],
    };
    assert_eq!(
        merge_rects(&deg(2, 1, 4), &deg(2, 5, 8), &[]),
        Some(deg(2, 1, 8))
    );
    let wide = |lo: i64, hi: i64| SRect {
        dims: vec![
            (SExpr::Int(1), SExpr::Int(2), 1),
            (SExpr::Int(lo), SExpr::Int(hi), 1),
        ],
    };
    assert_eq!(merge_rects(&wide(1, 4), &wide(5, 8), &[]), None);
}

#[test]
fn pack_fuses_same_root_broadcast_runs() {
    let mut i = Interner::new();
    let a = i.intern("a");
    let b = i.intern("b");
    let c = i.intern("c");
    let (mut p, _) = prog(vec![bcast(a, b, 1, 2), bcast(a, c, 3, 4)]);
    let report = optimize(&mut p, CommOpt::Coalesce);
    assert_eq!(report.coalesced, 1);
    assert_eq!(p.procs[0].body.len(), 1);
    match &p.procs[0].body[0] {
        SStmt::Bcast { parts, .. } => assert_eq!(parts.len(), 2),
        other => panic!("expected a two-part Bcast, got {other:?}"),
    }

    // The second broadcast reads what the first wrote: packing would
    // gather stale data, so the run must not fuse.
    let (mut p2, _) = prog(vec![bcast(a, b, 1, 2), bcast(b, c, 1, 2)]);
    let report2 = optimize(&mut p2, CommOpt::Coalesce);
    assert_eq!(report2.coalesced, 0);
    assert_eq!(p2.procs[0].body.len(), 2);
}

fn send(tag: u64, array: Sym, lo: i64, hi: i64) -> SStmt {
    SStmt::Send {
        to: SExpr::Int(1),
        tag,
        parts: vec![(array, rect(lo, hi))],
    }
}

fn recv(tag: u64, array: Sym, lo: i64, hi: i64) -> SStmt {
    SStmt::Recv {
        from: SExpr::Int(0),
        tag,
        parts: vec![(array, rect(lo, hi))],
    }
}

#[test]
fn pair_merge_commits_sender_and_receiver_in_lockstep() {
    let mut i = Interner::new();
    let a = i.intern("a");
    let (mut p, _) = prog(vec![SStmt::If {
        cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::Int(0)),
        then_body: vec![send(10, a, 1, 4), send(11, a, 5, 8)],
        else_body: vec![recv(10, a, 1, 4), recv(11, a, 5, 8)],
    }]);
    let report = optimize(&mut p, CommOpt::Coalesce);
    assert_eq!(report.coalesced, 2);
    match &p.procs[0].body[0] {
        SStmt::If {
            then_body,
            else_body,
            ..
        } => {
            assert_eq!(
                then_body.as_slice(),
                &[send(10, a, 1, 8)],
                "sender side must carry the merged section under tag 10"
            );
            assert_eq!(else_body.as_slice(), &[recv(10, a, 1, 8)]);
        }
        other => panic!("expected If, got {other:?}"),
    }
}

#[test]
fn pair_merge_aborts_when_a_tag_escapes_the_pairing() {
    let mut i = Interner::new();
    let a = i.intern("a");
    // A third, unpaired use of tag 11 means the endpoints can no longer
    // agree on the rewritten protocol — nothing may merge.
    let body = vec![
        SStmt::If {
            cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::Int(0)),
            then_body: vec![send(10, a, 1, 4), send(11, a, 5, 8)],
            else_body: vec![recv(10, a, 1, 4), recv(11, a, 5, 8)],
        },
        SStmt::SendElem {
            to: SExpr::Int(1),
            tag: 11,
            value: SExpr::Int(0),
        },
    ];
    let (mut p, _) = prog(body.clone());
    let report = optimize(&mut p, CommOpt::Coalesce);
    assert_eq!(report.coalesced, 0);
    assert_eq!(p.procs[0].body, body);
}

#[test]
fn off_level_is_identity() {
    let mut i = Interner::new();
    let a = i.intern("a");
    let body = vec![send(10, a, 1, 4), send(11, a, 5, 8)];
    let (mut p, _) = prog(body.clone());
    let report = optimize(&mut p, CommOpt::Off);
    assert_eq!(report.level, CommOpt::Off);
    assert_eq!(report.eliminated + report.coalesced + report.hoisted, 0);
    assert_eq!(p.procs[0].body, body);
}

/// `Overlap` splits a blocking broadcast into a post/wait pair and bubbles
/// the post backward past compute that touches neither the source array
/// nor the root expression — the in-flight window covers the compute.
#[test]
fn overlap_splits_bcast_and_hoists_post() {
    let mut i = Interner::new();
    let a = i.intern("a");
    let b = i.intern("b");
    let c = i.intern("c");
    let (mut p, _) = prog(vec![
        SStmt::Assign {
            lhs: SLval::Elem {
                array: c,
                subs: vec![SExpr::Int(1)],
            },
            rhs: SExpr::Real(1.0),
        },
        bcast(a, b, 1, 4),
    ]);
    let report = optimize(&mut p, CommOpt::Overlap);
    assert_eq!(report.overlapped, 1, "{report:?}");
    assert_eq!(report.posts_hoisted, 1, "{report:?}");
    let body = &p.procs[0].body;
    assert!(matches!(body[0], SStmt::PostBcast { .. }), "{body:#?}");
    assert!(matches!(body[1], SStmt::Assign { .. }), "{body:#?}");
    assert!(matches!(body[2], SStmt::WaitBcast { .. }), "{body:#?}");
}

/// A receive's wait sinks forward past compute that does not mention the
/// received array, but pins itself before the first statement that does.
#[test]
fn overlap_sinks_recv_wait_only_past_independent_compute() {
    let mut i = Interner::new();
    let b = i.intern("b");
    let c = i.intern("c");
    let recv = SStmt::Recv {
        from: SExpr::Int(1),
        tag: 7,
        parts: vec![(b, rect(1, 2))],
    };
    let indep = SStmt::Assign {
        lhs: SLval::Elem {
            array: c,
            subs: vec![SExpr::Int(1)],
        },
        rhs: SExpr::Real(2.0),
    };
    let (mut p, _) = prog(vec![recv.clone(), indep.clone()]);
    let report = optimize(&mut p, CommOpt::Overlap);
    assert_eq!(report.waits_sunk, 1, "{report:?}");
    let body = &p.procs[0].body;
    assert!(matches!(body[0], SStmt::PostRecv { .. }), "{body:#?}");
    assert!(matches!(body[1], SStmt::Assign { .. }), "{body:#?}");
    assert!(matches!(body[2], SStmt::WaitRecv { .. }), "{body:#?}");

    // Reading the received array pins the wait in place.
    let dependent = SStmt::Assign {
        lhs: SLval::Elem {
            array: c,
            subs: vec![SExpr::Int(1)],
        },
        rhs: SExpr::Elem {
            array: b,
            subs: vec![SExpr::Int(1)],
        },
    };
    let (mut p2, _) = prog(vec![recv, dependent]);
    let report2 = optimize(&mut p2, CommOpt::Overlap);
    assert_eq!(report2.waits_sunk, 0, "{report2:?}");
    let body2 = &p2.procs[0].body;
    assert!(matches!(body2[0], SStmt::PostRecv { .. }), "{body2:#?}");
    assert!(matches!(body2[1], SStmt::WaitRecv { .. }), "{body2:#?}");
    assert!(matches!(body2[2], SStmt::Assign { .. }), "{body2:#?}");
}

/// Below `Overlap` the program keeps its blocking operations: no post or
/// wait forms may leak out of a `Full` compile.
#[test]
fn full_level_emits_no_posted_operations() {
    let mut i = Interner::new();
    let a = i.intern("a");
    let b = i.intern("b");
    let (mut p, _) = prog(vec![bcast(a, b, 1, 4)]);
    let report = optimize(&mut p, CommOpt::Full);
    assert_eq!(report.overlapped, 0);
    assert_eq!(report.pipelined_loops, 0);
    fn no_posts(stmts: &[SStmt]) {
        for s in stmts {
            match s {
                SStmt::PostSend { .. }
                | SStmt::WaitSend { .. }
                | SStmt::PostRecv { .. }
                | SStmt::WaitRecv { .. }
                | SStmt::PostBcast { .. }
                | SStmt::WaitBcast { .. } => panic!("posted op at Full: {s:?}"),
                SStmt::Do { body, .. } => no_posts(body),
                SStmt::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    no_posts(then_body);
                    no_posts(else_body);
                }
                _ => {}
            }
        }
    }
    no_posts(&p.procs[0].body);
}
