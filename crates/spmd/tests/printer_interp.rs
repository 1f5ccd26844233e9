//! Integration tests for the SPMD crate: printer stability and
//! interpreter edge cases that the compiler relies on.

mod common;

use common::dist_1d;
use fortrand_ir::dist::{ArrayDist, DistKind};
use fortrand_ir::Interner;
use fortrand_machine::{CostModel, Machine};
use fortrand_spmd::ir::*;
use fortrand_spmd::print::pretty;
use fortrand_spmd::ExecOptions;
use fortrand_spmd::{try_run_spmd, RunOutcome, SpmdProgram};
use std::collections::BTreeMap;

/// Panic-on-failure runner (the retired `run_spmd` wrapper, local to
/// these tests: they construct IR by hand and want failures loud).
fn run_spmd(
    prog: &SpmdProgram,
    machine: &Machine,
    init: &BTreeMap<fortrand_ir::Sym, Vec<f64>>,
) -> RunOutcome {
    match try_run_spmd(prog, machine, init, &ExecOptions::default()) {
        Ok(out) => out,
        Err(f) => panic!("{f}"),
    }
}

fn block_dist(n: i64, p: usize) -> ArrayDist {
    dist_1d(DistKind::Block, n, p)
}

/// Builds a trivial program skeleton.
fn skeleton(nprocs: usize) -> (SpmdProgram, Interner) {
    let int = Interner::new();
    (
        SpmdProgram {
            interner: int.clone(),
            nprocs,
            procs: vec![],
            main: 0,
            dists: vec![],
        },
        int,
    )
}

#[test]
fn do_loop_negative_step() {
    let (mut prog, _) = skeleton(1);
    let mut int = Interner::new();
    let main = int.intern("main");
    let a = int.intern("a");
    let i = int.intern("i");
    prog.interner = int;
    let did = prog.add_dist(ArrayDist::replicated(&[5]));
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![SDecl {
            name: a,
            bounds: vec![(1, 5)],
            dist: did,
            owner_dist: None,
        }],
        body: vec![SStmt::Do {
            var: i,
            lo: SExpr::int(5),
            hi: SExpr::int(1),
            step: -1,
            body: vec![SStmt::Assign {
                lhs: SLval::Elem {
                    array: a,
                    subs: vec![SExpr::Var(i)],
                },
                rhs: SExpr::Var(i),
            }],
        }],
    });
    let out = run_spmd(&prog, &Machine::new(1), &BTreeMap::new());
    assert_eq!(
        out.arrays.values().next().unwrap(),
        &vec![1.0, 2.0, 3.0, 4.0, 5.0]
    );
}

#[test]
fn empty_loop_executes_zero_times() {
    let (mut prog, _) = skeleton(1);
    let mut int = Interner::new();
    let main = int.intern("main");
    let a = int.intern("a");
    let i = int.intern("i");
    prog.interner = int;
    let did = prog.add_dist(ArrayDist::replicated(&[3]));
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![SDecl {
            name: a,
            bounds: vec![(1, 3)],
            dist: did,
            owner_dist: None,
        }],
        body: vec![SStmt::Do {
            var: i,
            lo: SExpr::int(5),
            hi: SExpr::int(2),
            step: 1,
            body: vec![SStmt::Assign {
                lhs: SLval::Elem {
                    array: a,
                    subs: vec![SExpr::int(1)],
                },
                rhs: SExpr::Real(9.0),
            }],
        }],
    });
    let out = run_spmd(&prog, &Machine::new(1), &BTreeMap::new());
    assert_eq!(out.arrays.values().next().unwrap(), &vec![0.0; 3]);
}

#[test]
#[should_panic(expected = "out of local bounds")]
fn out_of_bounds_subscript_is_diagnosed() {
    let (mut prog, _) = skeleton(1);
    let mut int = Interner::new();
    let main = int.intern("main");
    let a = int.intern("a");
    prog.interner = int;
    let did = prog.add_dist(ArrayDist::replicated(&[3]));
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![SDecl {
            name: a,
            bounds: vec![(1, 3)],
            dist: did,
            owner_dist: None,
        }],
        body: vec![SStmt::Assign {
            lhs: SLval::Elem {
                array: a,
                subs: vec![SExpr::int(7)],
            },
            rhs: SExpr::Real(1.0),
        }],
    });
    run_spmd(&prog, &Machine::new(1), &BTreeMap::new());
}

#[test]
fn return_stops_procedure_not_program() {
    let mut int = Interner::new();
    let main = int.intern("main");
    let sub = int.intern("sub");
    let a = int.intern("a");
    let z = int.intern("z");
    let mut prog = SpmdProgram {
        interner: int,
        nprocs: 1,
        procs: vec![],
        main: 0,
        dists: vec![],
    };
    let did = prog.add_dist(ArrayDist::replicated(&[2]));
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![SDecl {
            name: a,
            bounds: vec![(1, 2)],
            dist: did,
            owner_dist: None,
        }],
        body: vec![
            SStmt::Call {
                proc: 1,
                args: vec![SActual::Array(a)],
                copy_out: vec![],
            },
            // Executes after the callee's RETURN.
            SStmt::Assign {
                lhs: SLval::Elem {
                    array: a,
                    subs: vec![SExpr::int(2)],
                },
                rhs: SExpr::Real(5.0),
            },
        ],
    });
    prog.procs.push(SProc {
        name: sub,
        formals: vec![SFormal {
            name: z,
            is_array: true,
        }],
        decls: vec![],
        body: vec![
            SStmt::Return,
            // Unreachable.
            SStmt::Assign {
                lhs: SLval::Elem {
                    array: z,
                    subs: vec![SExpr::int(1)],
                },
                rhs: SExpr::Real(9.0),
            },
        ],
    });
    let out = run_spmd(&prog, &Machine::new(1), &BTreeMap::new());
    let got = out.arrays.values().next().unwrap();
    assert_eq!(got, &vec![0.0, 5.0]);
}

#[test]
fn stop_terminates_whole_program() {
    let mut int = Interner::new();
    let main = int.intern("main");
    let a = int.intern("a");
    let mut prog = SpmdProgram {
        interner: int,
        nprocs: 2,
        procs: vec![],
        main: 0,
        dists: vec![],
    };
    let did = prog.add_dist(ArrayDist::replicated(&[1]));
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![SDecl {
            name: a,
            bounds: vec![(1, 1)],
            dist: did,
            owner_dist: None,
        }],
        body: vec![
            SStmt::Stop,
            SStmt::Assign {
                lhs: SLval::Elem {
                    array: a,
                    subs: vec![SExpr::int(1)],
                },
                rhs: SExpr::Real(9.0),
            },
        ],
    });
    let out = run_spmd(&prog, &Machine::new(2), &BTreeMap::new());
    assert_eq!(out.arrays.values().next().unwrap(), &vec![0.0]);
}

#[test]
fn printer_renders_every_statement_kind() {
    let (prog, _) = common::every_kind();
    let text = pretty(&prog, 0);
    for needle in [
        "{ phase banner }",
        "v = n$proc",
        "A(i+1) = -A(i)*2.5+abs(local(j))",
        "do i = 1,owner(j)",
        "if (.not. (my$p .eq. owner(a(i)))) then",
        "call SUB(A,v+1)",
        "return",
        "else",
        "send A(1:4) to 1",
        "recv A(1:A(1)) from 0",
        "send A(2) to 1",
        "recv A(3) from 0",
        "recv w from 0",
        "broadcast A(1:4) from 0",
        "broadcast [A(1:2), A(3), BUF(5:6)] from 0",
        "post send A(1:2) to 1",
        "wait send",
        "post recv from 0",
        "wait recv A(3:4)",
        "post broadcast A(1:4) from 0",
        "wait broadcast BUF(1:4)",
        "post broadcast [BUF(1:2), BUF(3), A(4)] from 0",
        "wait broadcast [A(A(1):2), A(3), BUF(4)]",
        "remap A to (block)",
        "remap A to (cyclic)",
        "mark-as-(block) A",
        "print *, v, A(4)",
        "stop",
    ] {
        assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
    }
}

#[test]
fn comm_only_cost_model_times_messages_exactly() {
    let mut int = Interner::new();
    let main = int.intern("main");
    let a = int.intern("a");
    let mut prog = SpmdProgram {
        interner: int,
        nprocs: 2,
        procs: vec![],
        main: 0,
        dists: vec![],
    };
    let did = prog.add_dist(block_dist(4, 2));
    prog.procs.push(SProc {
        name: main,
        formals: vec![],
        decls: vec![SDecl {
            name: a,
            bounds: vec![(1, 2)],
            dist: did,
            owner_dist: None,
        }],
        body: vec![SStmt::If {
            cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::int(0)),
            then_body: vec![SStmt::Send {
                to: SExpr::int(1),
                tag: 1,
                parts: vec![(a, SRect::one(SExpr::int(1), SExpr::int(2)))],
            }],
            else_body: vec![SStmt::Recv {
                from: SExpr::int(0),
                tag: 1,
                parts: vec![(a, SRect::one(SExpr::int(1), SExpr::int(2)))],
            }],
        }],
    });
    let cost = CostModel {
        alpha_us: 100.0,
        beta_us_per_byte: 1.0,
        ..CostModel::comm_only()
    };
    let m = Machine::with_cost(2, cost);
    let out = run_spmd(&prog, &m, &BTreeMap::new());
    // 2 f64 = 16 bytes: α + 16β = 116 µs exactly (compute is free).
    assert_eq!(out.stats.total_bytes, 16);
    assert!(
        (out.stats.time_us - 116.0).abs() < 1e-9,
        "{}",
        out.stats.time_us
    );
}
