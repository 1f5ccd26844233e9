//! Differential testing of the native codegen backend.
//!
//! The [`Native`] backend emits each compiled SPMD program as a
//! standalone Rust source file, builds it with `rustc` against the
//! `fortrand-shim` runtime, and executes it as a real thread-per-rank
//! process. These tests pin it against the discrete-event simulator on
//! every observable the two worlds share: message counts and volumes,
//! the size histogram, per-tag traffic, remap counts, printed output,
//! and bit-exact final arrays. Simulated wall-clock, flop and op counts
//! are simulator-only diagnostics and are deliberately excluded — the
//! native run reports host wall time instead.
//!
//! Every test compiles once and runs twice (Event simulator vs native
//! process), so a drift in either the emitter, the shim's rank-ordered
//! collectives, or the stats protocol fails here. All tests skip
//! gracefully when no `rustc` is on PATH (e.g. a minimal CI runner).

mod common;

use common::compile;
use fortrand::corpus::{adi_source, dgefa_matrix, dgefa_source, relax_source};
use fortrand::{rustc_available, CommOpt, CompileOptions, DynOptLevel, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};
use fortrand_machine::Machine;
use fortrand_spmd::{try_run_spmd, ExecError, ExecOptions, Native, RunOutcome};
use std::collections::BTreeMap;

fn native_opts() -> ExecOptions {
    ExecOptions::new().backend(Native {
        // opt-level 0 keeps the build fast; semantics must not depend
        // on the optimizer anyway.
        opt_level: 0,
        keep_artifacts: false,
    })
}

/// Asserts every shared observable matches between a simulator run and
/// a native run. Simulated time / flops / ops are excluded: the native
/// program measures host wall time, not the paper's machine model.
fn assert_native_matches(sim: &RunOutcome, nat: &RunOutcome, ctx: &str) {
    assert_eq!(
        sim.stats.total_msgs, nat.stats.total_msgs,
        "{ctx}: total_msgs"
    );
    assert_eq!(
        sim.stats.total_bytes, nat.stats.total_bytes,
        "{ctx}: total_bytes"
    );
    assert_eq!(
        sim.stats.total_remaps, nat.stats.total_remaps,
        "{ctx}: total_remaps"
    );
    assert_eq!(
        sim.stats.msg_hist, nat.stats.msg_hist,
        "{ctx}: message size histogram"
    );
    assert_eq!(
        sim.stats.msgs_by_tag, nat.stats.msgs_by_tag,
        "{ctx}: per-tag traffic"
    );
    assert_eq!(sim.printed, nat.printed, "{ctx}: printed output");
    assert_eq!(
        sim.arrays.keys().collect::<Vec<_>>(),
        nat.arrays.keys().collect::<Vec<_>>(),
        "{ctx}: final array set"
    );
    for (name, sv) in &sim.arrays {
        let nv = &nat.arrays[name];
        assert_eq!(sv.len(), nv.len(), "{ctx}: array length");
        for (i, (x, y)) in sv.iter().zip(nv).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: array element {i}: simulator {x} vs native {y}"
            );
        }
    }
}

/// Compiles `src` once, runs it on the Event simulator and as a native
/// process, and requires every shared observable to match.
fn native_agrees(src: &str, opts: &CompileOptions, named: &[(String, Vec<f64>)], ctx: &str) {
    let out = compile(src, opts).unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
    let mut init = BTreeMap::new();
    for (name, data) in named {
        init.insert(out.spmd.interner.get(name).unwrap(), data.clone());
    }
    let machine = Machine::new(out.spmd.nprocs);
    let run = |exec_opts: ExecOptions| {
        try_run_spmd(&out.spmd, &machine, &init, &exec_opts)
            .unwrap_or_else(|f| panic!("{ctx}: {f}"))
    };
    let sim = run(ExecOptions::new());
    let nat = run(native_opts());
    assert_native_matches(&sim, &nat, ctx);
    assert!(nat.stats.wall_us > 0.0, "{ctx}: native wall clock");
}

/// Deterministic non-trivial contents for every main-program array
/// (same pattern as `tests/engines.rs`).
fn default_init(src: &str) -> Vec<(String, Vec<f64>)> {
    let (prog, info) = {
        let mut p = fortrand_frontend::parse_program(src).unwrap();
        let i = fortrand_frontend::analyze(&mut p).unwrap();
        (p, i)
    };
    let main = prog.main_unit().unwrap();
    let mut named = Vec::new();
    for (&name, vi) in &info.unit(main.name).vars {
        if vi.is_array() {
            let len: i64 = vi.dims.iter().product();
            let data: Vec<f64> = (0..len)
                .map(|i| ((i * 37 + 11) % 101) as f64 * 0.5 + 1.0)
                .collect();
            named.push((prog.interner.name(name).to_string(), data));
        }
    }
    named
}

fn check(src: &str, strategy: Strategy, nprocs: usize, dyn_opt: DynOptLevel, comm_opt: CommOpt) {
    let ctx = format!("{strategy:?}/{dyn_opt:?}/{comm_opt:?}/{nprocs}p");
    let opts = CompileOptions::builder()
        .strategy(strategy)
        .nprocs(nprocs)
        .dyn_opt(dyn_opt)
        .comm_opt(comm_opt)
        .build();
    native_agrees(src, &opts, &default_init(src), &ctx);
}

macro_rules! skip_without_rustc {
    () => {
        if !rustc_available() {
            eprintln!("skipping: no rustc toolchain on PATH");
            return;
        }
    };
}

/// FIG4's stencil across comm-opt levels (including post/wait pairs and
/// pipelining under `Overlap`) and a sweep of process counts.
#[test]
fn fig4_comm_opt_matrix() {
    skip_without_rustc!();
    for comm_opt in [CommOpt::Full, CommOpt::Overlap] {
        for p in [2, 4, 8] {
            check(
                FIG4,
                Strategy::Interprocedural,
                p,
                DynOptLevel::Kills,
                comm_opt,
            );
        }
    }
}

/// Dynamic decomposition: `Remap`/`RemapGlobal` traffic through the
/// remap routine over the shim's channels, with the comm optimizer off
/// and on.
#[test]
fn fig15_remap_traffic() {
    skip_without_rustc!();
    for comm_opt in [CommOpt::Off, CommOpt::Full] {
        check(
            FIG15,
            Strategy::Interprocedural,
            4,
            DynOptLevel::None,
            comm_opt,
        );
    }
    check(
        FIG15,
        Strategy::Interprocedural,
        4,
        DynOptLevel::Kills,
        CommOpt::Full,
    );
    // `remap_global`: global-shaped storage, ownership moved in place.
    check(
        FIG15,
        Strategy::RuntimeResolution,
        4,
        DynOptLevel::None,
        CommOpt::Full,
    );
    // A 2-D BLOCK row <-> column remap, twice per time step.
    check(
        &adi_source(16, 2, 4),
        Strategy::Interprocedural,
        4,
        DynOptLevel::None,
        CommOpt::Full,
    );
    // Uneven blocks, and CYCLIC rows against BLOCK columns, through both
    // remap routines into the shim's column-major stores.
    let uneven = adi_source(13, 3, 3);
    for src in [&uneven, &uneven.replace("a(BLOCK,:)", "a(CYCLIC,:)")] {
        for strategy in [Strategy::Interprocedural, Strategy::RuntimeResolution] {
            check(src, strategy, 3, DynOptLevel::None, CommOpt::Full);
        }
    }
}

/// Runtime resolution emits per-element ownership tests and element
/// messages (`SendElem`/`RecvElem`) — the native path least like the
/// vectorized one.
#[test]
fn fig1_runtime_resolution() {
    skip_without_rustc!();
    check(
        FIG1,
        Strategy::RuntimeResolution,
        4,
        DynOptLevel::None,
        CommOpt::Full,
    );
    check(
        FIG1,
        Strategy::Immediate,
        4,
        DynOptLevel::Kills,
        CommOpt::Full,
    );
}

/// dgefa's pivoting broadcasts and triangular loop nests
/// on a real matrix, up to the acceptance point p = 8.
#[test]
fn dgefa_matches_simulator() {
    skip_without_rustc!();
    for comm_opt in [CommOpt::Full, CommOpt::Overlap] {
        for p in [2, 4, 8] {
            let ctx = format!("dgefa n=16 p={p} {comm_opt:?}");
            let opts = CompileOptions::builder()
                .strategy(Strategy::Interprocedural)
                .nprocs(p)
                .comm_opt(comm_opt)
                .build();
            let named = vec![("a".to_string(), dgefa_matrix(16))];
            native_agrees(&dgefa_source(16, p), &opts, &named, &ctx);
        }
    }
}

/// The red/black relaxation corpus program at the acceptance point
/// p = 8: shift communication in both directions each sweep.
#[test]
fn relax_matches_simulator() {
    skip_without_rustc!();
    let src = relax_source(16, 3, 2, 8);
    let opts = CompileOptions::builder()
        .strategy(Strategy::Interprocedural)
        .nprocs(8)
        .build();
    native_agrees(&src, &opts, &default_init(&src), "relax n=16 p=8");
}

/// A rank panic inside the emitted program must come back as
/// `ExecError::Rank` naming the failing rank — same as the simulator —
/// rather than a garbled stats parse or a host panic.
#[test]
fn rank_failure_propagates() {
    skip_without_rustc!();
    use fortrand_ir::dist::{array_dist, Alignment, DistKind, Distribution};
    use fortrand_spmd::ir::*;
    let mut interner = fortrand_ir::Interner::new();
    let main = interner.intern("main");
    let a = interner.intern("a");
    let dist = array_dist(
        &[8],
        &Alignment::identity(1),
        &[8],
        &Distribution {
            kinds: vec![DistKind::Block],
            nprocs: 2,
        },
    );
    let prog = SpmdProgram {
        interner,
        nprocs: 2,
        procs: vec![SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(1, 4)],
                dist: DistId(0),
                owner_dist: None,
            }],
            body: vec![SStmt::If {
                cond: SExpr::Bin {
                    op: SBinOp::Eq,
                    l: Box::new(SExpr::MyP),
                    r: Box::new(SExpr::Int(1)),
                },
                // Rank 1 evaluates a negative receive source, which
                // trips the same assertion in both worlds.
                then_body: vec![SStmt::Recv {
                    from: SExpr::Int(-1),
                    tag: 3,
                    parts: vec![(
                        a,
                        SRect {
                            dims: vec![(SExpr::Int(1), SExpr::Int(1), 1)],
                        },
                    )],
                }],
                else_body: vec![],
            }],
        }],
        main: 0,
        dists: vec![dist],
    };
    let machine = Machine::new(2);
    let init = BTreeMap::new();
    for (label, opts) in [("simulator", ExecOptions::new()), ("native", native_opts())] {
        match try_run_spmd(&prog, &machine, &init, &opts) {
            Err(ExecError::Rank(f)) => {
                assert_eq!(f.rank, 1, "{label}: failing rank");
                assert!(
                    f.message.contains("negative recv source"),
                    "{label}: message: {}",
                    f.message
                );
            }
            Err(e) => panic!("{label}: wrong error kind: {e}"),
            Ok(_) => panic!("{label}: run unexpectedly succeeded"),
        }
    }
}
