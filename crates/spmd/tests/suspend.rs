//! Suspend/resume at every kind of communication instruction.
//!
//! On the event machine the bytecode VM is a `RankTask`: an instruction
//! that cannot complete un-dispatches itself and `step` returns; the next
//! `step` executes it again. Each test here builds a node program by hand
//! in which one instruction kind is *certain* to block at least once (the
//! event loop first dispatches ranks in rank order, so the lower rank runs
//! into its receive before the higher rank has sent), and checks the run
//! against the tree walker — which blocks on a stack of its own — for
//! final arrays, simulated time, idle time and overlap bookkeeping, and
//! against itself for the dispatch counters: a rewound instruction must be
//! counted once, however often it was attempted.

mod common;

use common::dist_1d;
use fortrand_ir::dist::DistKind;
use fortrand_ir::{Interner, Sym};
use fortrand_machine::Machine;
use fortrand_spmd::ir::*;
use fortrand_spmd::{try_run_spmd, Bytecode, ExecOptions, RunOutcome, SpmdProgram, Tree};
use std::collections::BTreeMap;

/// Local extent of the test arrays on every rank.
const W: i64 = 4;

struct Fixture {
    prog: SpmdProgram,
    init: BTreeMap<Sym, Vec<f64>>,
    a: Sym,
    b: Sym,
}

/// `p` ranks, two BLOCK arrays `a` (1, 2, 3, …) and `b` (zeros) of `W`
/// elements a rank, and the main body `body(a, b, blk, cyc)` builds from
/// the arrays and the BLOCK and CYCLIC distributions of their index space.
fn fixture(p: usize, body: impl FnOnce(Sym, Sym, DistId, DistId) -> Vec<SStmt>) -> Fixture {
    fixture_with(p, false, |a, b, _, blk, cyc| body(a, b, blk, cyc))
}

/// [`fixture`] that also hands `body` a scalar `g`, and with `rtr` keeps
/// `a` in run-time resolution storage: every rank holds the whole index
/// space and `owner_dist` (BLOCK at first) says whose copy counts.
fn fixture_with(
    p: usize,
    rtr: bool,
    body: impl FnOnce(Sym, Sym, Sym, DistId, DistId) -> Vec<SStmt>,
) -> Fixture {
    let mut int = Interner::new();
    let [main, a, b, g] = ["main", "a", "b", "g"].map(|n| int.intern(n));
    let mut prog = SpmdProgram {
        interner: int,
        nprocs: p,
        procs: vec![],
        main: 0,
        dists: vec![],
    };
    let n = W * p as i64;
    let blk = prog.add_dist(dist_1d(DistKind::Block, n, p));
    let cyc = prog.add_dist(dist_1d(DistKind::Cyclic, n, p));
    let decl = |name, rtr| SDecl {
        name,
        bounds: vec![(1, if rtr { n } else { W })],
        dist: blk,
        owner_dist: rtr.then_some(blk),
    };
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![decl(a, rtr), decl(b, false)],
        body: body(a, b, g, blk, cyc),
    });
    let init = BTreeMap::from([(a, (1..=n).map(|g| g as f64).collect())]);
    Fixture { prog, init, a, b }
}

fn on_rank(rank: i64, then_body: Vec<SStmt>) -> SStmt {
    SStmt::If {
        cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::int(rank)),
        then_body,
        else_body: vec![],
    }
}

fn all() -> SRect {
    SRect::one(SExpr::int(1), SExpr::int(W))
}

/// Runs the fixture on the event machine under the VM and under the tree
/// walker, checks they agree on everything simulated and that the VM's
/// dispatch counters are consistent, and returns the VM run.
fn run(f: &Fixture, ctx: &str) -> RunOutcome {
    let go = |opts: ExecOptions| {
        try_run_spmd(&f.prog, &Machine::new(f.prog.nprocs), &f.init, &opts)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"))
    };
    let tree = go(ExecOptions::new().backend(Tree));
    for kernels in [true, false] {
        let vm = go(ExecOptions::new().backend(Bytecode).kernels(kernels));
        assert_eq!(vm.arrays, tree.arrays, "{ctx}: arrays");
        let (v, t) = (&vm.stats, &tree.stats);
        assert_eq!(v.time_us.to_bits(), t.time_us.to_bits(), "{ctx}: time");
        for (r, (vn, tn)) in v.per_node.iter().zip(&t.per_node).enumerate() {
            assert_eq!(vn.time_us.to_bits(), tn.time_us.to_bits(), "{ctx}: {r}");
            assert_eq!(vn.wait_us.to_bits(), tn.wait_us.to_bits(), "{ctx}: {r}");
        }
        assert_eq!(v.total_msgs, t.total_msgs, "{ctx}: msgs");
        assert_eq!(v.total_bytes, t.total_bytes, "{ctx}: bytes");
        assert_eq!(v.overlap_posts, t.overlap_posts, "{ctx}: posts");
        assert_eq!(v.overlap_waits, t.overlap_waits, "{ctx}: waits");
        assert_eq!(v.sched_switches, t.sched_switches, "{ctx}: switches");
        let mix: u64 = v.instr_mix.iter().map(|(_, n)| n).sum();
        assert_eq!(mix, v.engine_instrs, "{ctx}: instr_mix sums to instrs");
    }
    go(ExecOptions::new())
}

/// How often the VM dispatched opcode `name`.
fn dispatched(out: &RunOutcome, name: &str) -> u64 {
    let hit = out.stats.instr_mix.iter().find(|(n, _)| n == name);
    hit.map_or(0, |&(_, n)| n)
}

/// At least one rank was dispatched a second time: something blocked.
fn blocked(out: &RunOutcome) -> bool {
    out.stats.sched_switches > out.stats.per_node.len() as u64
}

/// A point-to-point program run twice: with the receiver on rank 0, which
/// then reaches its receive first and must suspend, and with the roles
/// swapped, where the message is already queued. Both runs retire the same
/// instructions; only the first blocks.
fn blocked_and_unblocked(
    what: &str,
    opcode: &str,
    make: impl Fn(i64, i64) -> Fixture,
    check: impl Fn(&Fixture, &RunOutcome, usize),
) {
    let waiting = make(1, 0);
    let ready = make(0, 1);
    let (w, r) = (run(&waiting, what), run(&ready, what));
    assert!(blocked(&w), "{what}: the receiver must have suspended");
    assert!(
        !blocked(&r),
        "{what}: nothing blocks once roles are swapped"
    );
    assert_eq!(w.stats.engine_instrs, r.stats.engine_instrs, "{what}");
    assert_eq!(w.stats.instr_mix, r.stats.instr_mix, "{what}");
    assert_eq!(dispatched(&w, opcode), 1, "{what}: one {opcode}");
    check(&waiting, &w, 0);
    check(&ready, &r, 1);
}

/// Rank `r`'s block of a final global array.
fn block(out: &RunOutcome, array: Sym, r: usize) -> &[f64] {
    &out.arrays[&array][r * W as usize..(r + 1) * W as usize]
}

#[test]
fn recv_msg_suspends_and_resumes() {
    let make = |s: i64, r: i64| {
        fixture(2, |a, b, _, _| {
            vec![
                on_rank(
                    s,
                    vec![SStmt::Send {
                        to: SExpr::int(r),
                        tag: 7,
                        parts: vec![(a, all())],
                    }],
                ),
                on_rank(
                    r,
                    vec![SStmt::Recv {
                        from: SExpr::int(s),
                        tag: 7,
                        parts: vec![(b, all())],
                    }],
                ),
            ]
        })
    };
    blocked_and_unblocked("RecvMsg", "RecvMsg", make, |f, out, r| {
        assert_eq!(block(out, f.b, r), block(out, f.a, 1 - r));
    });
}

#[test]
fn recv_elem_suspends_and_resumes() {
    let make = |s: i64, r: i64| {
        fixture(2, |a, b, _, _| {
            let elem = |array, k| SExpr::Elem {
                array,
                subs: vec![SExpr::int(k)],
            };
            vec![
                on_rank(
                    s,
                    vec![SStmt::SendElem {
                        to: SExpr::int(r),
                        tag: 8,
                        value: elem(a, 2),
                    }],
                ),
                on_rank(
                    r,
                    vec![SStmt::RecvElem {
                        from: SExpr::int(s),
                        tag: 8,
                        lhs: SLval::Elem {
                            array: b,
                            subs: vec![SExpr::int(3)],
                        },
                    }],
                ),
            ]
        })
    };
    blocked_and_unblocked("RecvElem", "RecvElem", make, |f, out, r| {
        assert_eq!(block(out, f.b, r)[2], block(out, f.a, 1 - r)[1]);
    });
}

#[test]
fn wait_recv_msg_suspends_and_resumes() {
    let make = |s: i64, r: i64| {
        fixture(2, |a, b, _, _| {
            vec![
                on_rank(
                    r,
                    vec![SStmt::PostRecv {
                        handle: 0,
                        from: SExpr::int(s),
                        tag: 9,
                    }],
                ),
                on_rank(
                    s,
                    vec![
                        SStmt::PostSend {
                            handle: 1,
                            to: SExpr::int(r),
                            tag: 9,
                            parts: vec![(a, all())],
                        },
                        SStmt::WaitSend { handle: 1 },
                    ],
                ),
                on_rank(
                    r,
                    vec![SStmt::WaitRecv {
                        handle: 0,
                        parts: vec![(b, all())],
                    }],
                ),
            ]
        })
    };
    blocked_and_unblocked("WaitRecvMsg", "WaitRecvMsg", make, |f, out, r| {
        assert_eq!(block(out, f.b, r), block(out, f.a, 1 - r));
        // One wait per post, however often the wait was attempted.
        assert_eq!(out.stats.overlap_posts, 2);
        assert_eq!(out.stats.overlap_waits, 2);
    });
}

/// The whole block as one section, or as its two halves in order (a
/// two-part broadcast moves the same data under the packed tag).
fn sections(halves: bool) -> Vec<SRect> {
    if halves {
        let mid = W / 2;
        vec![
            SRect::one(SExpr::int(1), SExpr::int(mid)),
            SRect::one(SExpr::int(mid + 1), SExpr::int(W)),
        ]
    } else {
        vec![all()]
    }
}

#[test]
fn bcast_suspends_root_and_non_roots() {
    for halves in [false, true] {
        // Ranks enter in rank order: with root 0 the root arrives first and
        // suspends holding the payload, with root 2 it arrives last and the
        // non-roots suspend; rank 1 is a non-root that is neither.
        let runs: Vec<RunOutcome> = [0, 2]
            .into_iter()
            .map(|root| {
                let f = fixture(3, |a, b, _, _| {
                    let parts = sections(halves).into_iter().map(|s| BcastPart {
                        src_array: a,
                        src_section: s.clone(),
                        dst_array: b,
                        dst_section: s,
                    });
                    vec![SStmt::Bcast {
                        root: SExpr::int(root),
                        parts: parts.collect(),
                    }]
                });
                let out = run(&f, &format!("Bcast root {root} halves {halves}"));
                assert!(blocked(&out));
                assert_eq!(out.stats.sched_switches, 3 + 2, "two ranks suspend once");
                assert_eq!(dispatched(&out, "Bcast"), 3, "one Bcast a rank");
                assert_eq!(dispatched(&out, "Scatter"), 3 * (1 + halves as u64));
                for r in 0..3 {
                    assert_eq!(block(&out, f.b, r), block(&out, f.a, root as usize));
                }
                out
            })
            .collect();
        assert_eq!(runs[0].stats.instr_mix, runs[1].stats.instr_mix);
    }
}

#[test]
fn wait_bcast_msg_suspends_and_resumes() {
    // Root 2 posts last, so ranks 0 and 1 reach the wait before the
    // payload exists; root 0 posts first and nobody blocks.
    let go = |root: i64, halves: bool| {
        let f = fixture(3, |a, b, _, _| {
            let of = |array| sections(halves).into_iter().map(|s| (array, s)).collect();
            vec![
                SStmt::PostBcast {
                    handle: 0,
                    root: SExpr::int(root),
                    src: of(a),
                },
                SStmt::WaitBcast {
                    handle: 0,
                    dst: of(b),
                },
            ]
        });
        let out = run(&f, &format!("WaitBcastMsg root {root} halves {halves}"));
        for r in 0..3 {
            assert_eq!(block(&out, f.b, r), block(&out, f.a, root as usize));
        }
        assert_eq!(out.stats.overlap_posts, 3);
        assert_eq!(out.stats.overlap_waits, 3, "one wait a rank");
        assert_eq!(dispatched(&out, "WaitBcastMsg"), 3);
        out
    };
    for halves in [false, true] {
        let (waiting, ready) = (go(2, halves), go(0, halves));
        assert!(blocked(&waiting) && !blocked(&ready));
        assert_eq!(waiting.stats.engine_instrs, ready.stats.engine_instrs);
        assert_eq!(waiting.stats.instr_mix, ready.stats.instr_mix);
    }
}

#[test]
fn remap_suspends_between_sources() {
    // BLOCK → CYCLIC on 4 ranks: every rank gets a message from each of
    // the other three. Rank 1 takes rank 0's, then suspends on rank 2's
    // (not sent yet) and must resume *there*, with its own sends not
    // repeated.
    let f = fixture(4, |a, _, _, cyc| {
        vec![SStmt::Remap {
            array: a,
            to_dist: cyc,
        }]
    });
    let out = run(&f, "Remap");
    assert!(blocked(&out));
    assert_eq!(out.arrays[&f.a], f.init[&f.a], "a remap moves, never edits");
    assert_eq!(out.stats.total_msgs, 4 * 3);
    assert_eq!(out.stats.total_remaps, 4);
    assert_eq!(dispatched(&out, "Remap"), 4, "one Remap a rank");
}

#[test]
fn remap_global_suspends_between_sources() {
    // Each owner marks its elements, so the values the new owners end up
    // with can only have come through the remap's messages.
    let p = 4usize;
    let f = fixture_with(p, true, |a, _, g, blk, cyc| {
        let mine = SExpr::bin(
            SBinOp::Eq,
            SExpr::MyP,
            SExpr::Owner {
                dist: blk,
                subs: vec![SExpr::Var(g)],
            },
        );
        let at_g = vec![SExpr::Var(g)];
        let mark = SStmt::Assign {
            lhs: SLval::Elem {
                array: a,
                subs: at_g.clone(),
            },
            rhs: SExpr::add(
                SExpr::Elem {
                    array: a,
                    subs: at_g,
                },
                SExpr::mul(SExpr::Real(100.0), SExpr::add(SExpr::MyP, SExpr::int(1))),
            ),
        };
        vec![
            SStmt::Do {
                var: g,
                lo: SExpr::int(1),
                hi: SExpr::int(W * 4),
                step: 1,
                body: vec![SStmt::If {
                    cond: mine,
                    then_body: vec![mark],
                    else_body: vec![],
                }],
            },
            SStmt::RemapGlobal {
                array: a,
                to_dist: cyc,
            },
        ]
    });
    let n = W * p as i64;
    let out = run(&f, "RemapGlobal");
    assert!(blocked(&out));
    let want: Vec<f64> = (0..n)
        .map(|g0| (g0 + 1) as f64 + 100.0 * (g0 / W + 1) as f64)
        .collect();
    assert_eq!(out.arrays[&f.a], want);
    assert_eq!(out.stats.total_msgs, 4 * 3);
    assert_eq!(dispatched(&out, "RemapGlobal"), 4, "one RemapGlobal a rank");
}
