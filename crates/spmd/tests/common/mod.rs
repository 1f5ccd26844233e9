//! One procedure holding every `SStmt` and every `SExpr` variant, shared
//! by the printer test and the operand-walker tests.
#![allow(dead_code)]

use fortrand_ir::dist::{array_dist, Alignment, ArrayDist, DistKind, Distribution};
use fortrand_ir::{Interner, Sym};
use fortrand_spmd::ir::*;

pub fn dist_1d(kind: DistKind, n: i64, p: usize) -> ArrayDist {
    array_dist(
        &[n],
        &Alignment::identity(1),
        &[n],
        &Distribution {
            kinds: vec![kind],
            nprocs: p,
        },
    )
}

/// The fixture and its array `a`. Each statement's comment gives the
/// number of times it mentions `a` the way the optimizer's mention audit
/// counts: array positions the statement uses plus element and
/// current-owner reads in the expressions it evaluates. They sum to
/// [`MENTIONS_OF_A`].
pub fn every_kind() -> (SpmdProgram, Sym) {
    let mut int = Interner::new();
    let [main, sub, a, buf, v, w, i, j, f, g] =
        ["main", "sub", "a", "buf", "v", "w", "i", "j", "f", "g"].map(|n| int.intern(n));
    let mut prog = SpmdProgram {
        interner: int,
        nprocs: 2,
        procs: vec![],
        main: 0,
        dists: vec![],
    };
    let blk = prog.add_dist(dist_1d(DistKind::Block, 8, 2));
    let cyc = prog.add_dist(dist_1d(DistKind::Cyclic, 8, 2));
    let rep = prog.add_dist(ArrayDist::replicated(&[8]));

    let int_ = SExpr::int;
    let var = SExpr::Var;
    let elem = |array, sub| SExpr::Elem {
        array,
        subs: vec![sub],
    };
    let rect = |lo, hi| SRect::one(lo, hi);
    let lv = |array, sub| SLval::Elem {
        array,
        subs: vec![sub],
    };
    let part = |src_array, src_section, dst_array, dst_section| BcastPart {
        src_array,
        src_section,
        dst_array,
        dst_section,
    };

    let body = vec![
        SStmt::Comment("phase banner".into()),
        SStmt::Assign {
            lhs: SLval::Scalar(v),
            rhs: SExpr::NProcs,
        },
        // 2: the target and one read.
        SStmt::Assign {
            lhs: lv(a, SExpr::add(var(i), int_(1))),
            rhs: SExpr::add(
                SExpr::mul(SExpr::Neg(Box::new(elem(a, var(i)))), SExpr::Real(2.5)),
                SExpr::Intr {
                    name: SIntr::Abs,
                    args: vec![SExpr::LocalIdx {
                        dist: blk,
                        dim: 0,
                        sub: Box::new(var(j)),
                    }],
                },
            ),
        },
        // 2: the current-owner query and the array actual.
        SStmt::Do {
            var: i,
            lo: int_(1),
            hi: SExpr::Owner {
                dist: blk,
                subs: vec![var(j)],
            },
            step: 1,
            body: vec![SStmt::If {
                cond: SExpr::Not(Box::new(SExpr::bin(
                    SBinOp::Eq,
                    SExpr::MyP,
                    SExpr::CurOwner {
                        array: a,
                        subs: vec![var(i)],
                    },
                ))),
                then_body: vec![
                    SStmt::Call {
                        proc: 1,
                        args: vec![
                            SActual::Array(a),
                            SActual::Scalar(SExpr::add(var(v), int_(1))),
                        ],
                        copy_out: vec![(g, w)],
                    },
                    SStmt::Return,
                ],
                else_body: vec![SStmt::Comment("not mine".into())],
            }],
        },
        // 1
        SStmt::Send {
            to: int_(1),
            tag: 7,
            parts: vec![(a, rect(int_(1), int_(4)))],
        },
        // 2: the array and a read in its section's bound.
        SStmt::Recv {
            from: int_(0),
            tag: 7,
            parts: vec![(a, rect(int_(1), elem(a, int_(1))))],
        },
        // 1
        SStmt::SendElem {
            to: int_(1),
            tag: 8,
            value: elem(a, int_(2)),
        },
        // 1
        SStmt::RecvElem {
            from: int_(0),
            tag: 8,
            lhs: lv(a, int_(3)),
        },
        SStmt::RecvElem {
            from: int_(0),
            tag: 9,
            lhs: SLval::Scalar(w),
        },
        // 1
        SStmt::Bcast {
            root: int_(0),
            parts: vec![part(a, rect(int_(1), int_(4)), buf, rect(int_(1), int_(4)))],
        },
        // 2: two of the three sources.
        SStmt::Bcast {
            root: int_(0),
            parts: vec![
                part(a, rect(int_(1), int_(2)), buf, rect(int_(1), int_(2))),
                part(a, rect(int_(3), int_(3)), buf, rect(int_(3), int_(3))),
                part(buf, rect(int_(5), int_(6)), buf, rect(int_(7), int_(8))),
            ],
        },
        // 1
        SStmt::PostSend {
            handle: 0,
            to: int_(1),
            tag: 10,
            parts: vec![(a, rect(int_(1), int_(2)))],
        },
        SStmt::WaitSend { handle: 0 },
        SStmt::PostRecv {
            handle: 1,
            from: int_(0),
            tag: 10,
        },
        // 1
        SStmt::WaitRecv {
            handle: 1,
            parts: vec![(a, rect(int_(3), int_(4)))],
        },
        // 1
        SStmt::PostBcast {
            handle: 2,
            root: int_(0),
            src: vec![(a, rect(int_(1), int_(4)))],
        },
        SStmt::WaitBcast {
            handle: 2,
            dst: vec![(buf, rect(int_(1), int_(4)))],
        },
        // 1: the last of the three sources.
        SStmt::PostBcast {
            handle: 3,
            root: int_(0),
            src: vec![
                (buf, rect(int_(1), int_(2))),
                (buf, rect(int_(3), int_(3))),
                (a, rect(int_(4), int_(4))),
            ],
        },
        // 3: two of the three destinations and the read in a bound.
        SStmt::WaitBcast {
            handle: 3,
            dst: vec![
                (a, rect(elem(a, int_(1)), int_(2))),
                (a, rect(int_(3), int_(3))),
                (buf, rect(int_(4), int_(4))),
            ],
        },
        // 1 each.
        SStmt::Remap {
            array: a,
            to_dist: blk,
        },
        SStmt::RemapGlobal {
            array: a,
            to_dist: cyc,
        },
        SStmt::MarkDist {
            array: a,
            to_dist: blk,
        },
        // 1
        SStmt::Print {
            args: vec![var(v), elem(a, int_(4))],
        },
        SStmt::Stop,
    ];
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![
            SDecl {
                name: a,
                bounds: vec![(1, 4)],
                dist: blk,
                owner_dist: Some(cyc),
            },
            SDecl {
                name: buf,
                bounds: vec![(1, 8)],
                dist: rep,
                owner_dist: None,
            },
        ],
        body,
    });
    prog.procs.push(SProc {
        name: sub,
        formals: vec![
            SFormal {
                name: f,
                is_array: true,
            },
            SFormal {
                name: g,
                is_array: false,
            },
        ],
        decls: vec![],
        body: vec![SStmt::Return],
    });
    (prog, a)
}

/// Sum of the per-statement counts above.
pub const MENTIONS_OF_A: usize = 23;
