//! Differential testing of the two SPMD execution engines.
//!
//! The bytecode VM (the [`Bytecode`] backend) must be observationally
//! indistinguishable from the reference tree-walker (the [`Tree`]
//! backend): identical virtual clock, message counts and
//! volumes, size histogram, per-tag traffic, bit-exact final arrays,
//! and printed output — across every strategy, dynamic-decomposition
//! level, communication-optimizer level, and fixture, plus a sampled
//! space of generated programs. Host wall-clock, buffer-pool counters,
//! and the VM's dispatched-instruction count are engine-specific
//! diagnostics and are deliberately excluded.

mod common;

use common::{assert_matches_oracle, compile, oracle, render_chain, Link, COEFFS};
use fortrand::corpus::{dgefa_matrix, dgefa_source, fig4_source, relax_source, wide_corpus};
use fortrand::{CommOpt, CompileOptions, DynOptLevel, Session, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};
use fortrand_machine::Machine;
use fortrand_spmd::{try_run_spmd, Bytecode, ExecOptions, RunOutcome, Tree};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Asserts every simulated observable matches between the two outputs.
fn assert_identical(t: &RunOutcome, b: &RunOutcome, ctx: &str) {
    assert_eq!(
        t.stats.time_us.to_bits(),
        b.stats.time_us.to_bits(),
        "{ctx}: simulated clock: tree {} vs bytecode {}",
        t.stats.time_us,
        b.stats.time_us
    );
    assert_eq!(t.stats.total_msgs, b.stats.total_msgs, "{ctx}: total_msgs");
    assert_eq!(
        t.stats.total_bytes, b.stats.total_bytes,
        "{ctx}: total_bytes"
    );
    assert_eq!(
        t.stats.total_flops, b.stats.total_flops,
        "{ctx}: total_flops"
    );
    assert_eq!(t.stats.total_ops, b.stats.total_ops, "{ctx}: total_ops");
    assert_eq!(
        t.stats.total_remaps, b.stats.total_remaps,
        "{ctx}: total_remaps"
    );
    assert_eq!(
        t.stats.msg_hist, b.stats.msg_hist,
        "{ctx}: message size histogram"
    );
    assert_eq!(
        t.stats.msgs_by_tag, b.stats.msgs_by_tag,
        "{ctx}: per-tag traffic"
    );
    assert_eq!(t.printed, b.printed, "{ctx}: printed output");
    assert_eq!(
        t.arrays.keys().collect::<Vec<_>>(),
        b.arrays.keys().collect::<Vec<_>>(),
        "{ctx}: final array set"
    );
    for (name, tv) in &t.arrays {
        let bv = &b.arrays[name];
        assert_eq!(tv.len(), bv.len(), "{ctx}: array length");
        for (i, (x, y)) in tv.iter().zip(bv).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: array element {i}: tree {x} vs bytecode {y}"
            );
        }
    }
}

/// Compiles `src` once and runs it under both engines on fresh
/// machines, with `named` as the initial array contents. The tree
/// walker's arrays must match the sequential oracle's: engine ≡ engine
/// cannot see a message that every engine places wrong. The bytecode
/// engine runs twice — superinstruction fusion on and off — and both
/// runs must match the tree walker bit for bit, so a fused kernel that
/// drifts from its constituent instructions fails here. The bytecode
/// `Compiled` stores runs too, each form twice in a row, and must match
/// the per-call lowering of `try_run_spmd`, dispatch counters included.
/// Returns the dispatches the fused run retired inside kernels.
fn engines_agree(src: &str, opts: &CompileOptions, named: &[(String, Vec<f64>)], ctx: &str) -> u64 {
    let compiled = Session::new(src)
        .options(opts.clone())
        .compile()
        .unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
    let prog = compiled.spmd();
    let mut init = BTreeMap::new();
    for (name, data) in named {
        init.insert(prog.interner.get(name).unwrap(), data.clone());
    }
    let run = |exec_opts: ExecOptions| {
        let machine = Machine::new(prog.nprocs);
        try_run_spmd(prog, &machine, &init, &exec_opts).unwrap_or_else(|f| panic!("{ctx}: {f}"))
    };
    let t = run(ExecOptions::new().backend(Tree));
    let want = oracle(src, &named.iter().cloned().collect());
    // The node program's own arrays (message buffers) have no source name.
    let got = (t.arrays.iter())
        .map(|(&sym, data)| (prog.interner.name(sym).to_string(), data.clone()))
        .filter(|(name, _)| want.contains_key(name))
        .collect();
    assert_matches_oracle(&got, &want, &format!("{ctx}/tree vs oracle"));
    let b = run(ExecOptions::new().backend(Bytecode));
    assert_identical(&t, &b, &format!("{ctx}/kernels-on"));
    let b_plain = run(ExecOptions::new().backend(Bytecode).kernels(false));
    assert_identical(&t, &b_plain, &format!("{ctx}/kernels-off"));
    // Fusion must actually be off: no dispatches retired in kernels.
    assert_eq!(b_plain.stats.fused_instrs, 0, "{ctx}: kernels(false) fused");
    for (kernels, lowered) in [(true, &b), (true, &b), (false, &b_plain), (false, &b_plain)] {
        let stored = compiled
            .run_with(&init, &ExecOptions::new().kernels(kernels))
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        let ctx = format!("{ctx}/stored bytecode, kernels {kernels}");
        assert_identical(lowered, &stored, &ctx);
        assert_eq!(
            lowered.stats.instr_mix, stored.stats.instr_mix,
            "{ctx}: mix"
        );
        assert_eq!(
            lowered.stats.engine_instrs, stored.stats.engine_instrs,
            "{ctx}: engine_instrs"
        );
        assert_eq!(
            lowered.stats.fused_instrs, stored.stats.fused_instrs,
            "{ctx}: fused_instrs"
        );
    }
    b.stats.fused_instrs
}

/// Deterministic non-trivial contents for every main-program array
/// (same pattern as `tests/semantics.rs`).
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

/// [`engines_agree`] under one compile configuration, on [`default_init`].
fn check(
    src: &str,
    strategy: Strategy,
    nprocs: usize,
    dyn_opt: DynOptLevel,
    comm_opt: CommOpt,
) -> u64 {
    let ctx = format!("{strategy:?}/{dyn_opt:?}/{comm_opt:?}/{nprocs}p");
    let opts = CompileOptions::builder()
        .strategy(strategy)
        .nprocs(nprocs)
        .dyn_opt(dyn_opt)
        .comm_opt(comm_opt)
        .build();
    engines_agree(src, &opts, &default_init(src), &ctx)
}

const STRATEGIES: [Strategy; 3] = [
    Strategy::Interprocedural,
    Strategy::Immediate,
    Strategy::RuntimeResolution,
];

#[test]
fn fig1_and_fig4_every_strategy() {
    for src in [FIG1, FIG4] {
        for strategy in STRATEGIES {
            check(src, strategy, 4, DynOptLevel::Kills, CommOpt::Full);
        }
    }
    // The delayed-instantiation experiment's program: 100 trips around
    // the call, so frame push/pop rather than array loops.
    check(
        &fig4_source(100, 4),
        Strategy::Interprocedural,
        4,
        DynOptLevel::Kills,
        CommOpt::Full,
    );
}

#[test]
fn fig4_uneven_blocks() {
    check(
        FIG4,
        Strategy::Interprocedural,
        5,
        DynOptLevel::Kills,
        CommOpt::Full,
    );
}

/// FIG15's dynamic decomposition exercises `RemapGlobal`/remap traffic
/// at every optimization level.
#[test]
fn fig15_every_dyn_opt_level() {
    for lvl in [
        DynOptLevel::None,
        DynOptLevel::Live,
        DynOptLevel::Hoist,
        DynOptLevel::Kills,
    ] {
        check(FIG15, Strategy::Interprocedural, 4, lvl, CommOpt::Full);
    }
    check(
        FIG15,
        Strategy::Immediate,
        4,
        DynOptLevel::None,
        CommOpt::Full,
    );
    check(
        FIG15,
        Strategy::RuntimeResolution,
        4,
        DynOptLevel::None,
        CommOpt::Full,
    );
    // 2-D remaps on uneven blocks, BLOCK and CYCLIC rows against BLOCK
    // columns, through both remap routines.
    let uneven = fortrand::corpus::adi_source(13, 3, 3);
    for src in [&uneven, &uneven.replace("a(BLOCK,:)", "a(CYCLIC,:)")] {
        for strategy in [Strategy::Interprocedural, Strategy::RuntimeResolution] {
            check(src, strategy, 3, DynOptLevel::None, CommOpt::Full);
        }
    }
}

/// Runs `src` under `strategy` on the VM and compares every final array
/// with the sequential oracle's, both from [`default_init`]. Engine ≡
/// engine cannot see a message that every engine places wrong; the
/// oracle can.
fn matches_oracle(src: &str, strategy: Strategy, nprocs: usize) {
    let named: BTreeMap<String, Vec<f64>> = default_init(src).into_iter().collect();
    let compiled = Session::new(src)
        .strategy(strategy)
        .nprocs(nprocs)
        .compile()
        .unwrap_or_else(|e| panic!("{e}"));
    let prog = compiled.spmd();
    let init = (named.iter())
        .map(|(name, data)| (prog.interner.get(name).unwrap(), data.clone()))
        .collect();
    let out = compiled.run(&init).unwrap_or_else(|e| panic!("{e}"));
    let got = (out.arrays.into_iter())
        .map(|(sym, data)| (prog.interner.name(sym).to_string(), data))
        .collect();
    assert_matches_oracle(&got, &oracle(src, &named), &format!("{strategy:?}"));
}

/// The overlap stencil at the benchmark's shape and the wide compile
/// corpus — the bodies the `Expr` kernel fuses — on `default_init`'s
/// non-zero arrays, compared element by element, and with the
/// sequential oracle.
#[test]
fn relax_and_wide_corpus() {
    let relax = relax_source(256, 1, 8, 16);
    check(
        &relax,
        Strategy::Interprocedural,
        16,
        DynOptLevel::Kills,
        CommOpt::Full,
    );
    let wide = wide_corpus(8, 64, 4);
    check(
        &wide,
        Strategy::Interprocedural,
        4,
        DynOptLevel::Kills,
        CommOpt::Full,
    );
    matches_oracle(&relax, Strategy::Interprocedural, 16);
    matches_oracle(&wide, Strategy::Interprocedural, 4);
}

/// The communication optimizer reshapes message traffic (coalescing,
/// aggregation, redundancy elimination); both engines must agree on the
/// reshaped program too.
#[test]
fn every_comm_opt_level() {
    for comm_opt in [CommOpt::Off, CommOpt::Coalesce, CommOpt::Full] {
        check(
            FIG4,
            Strategy::Interprocedural,
            4,
            DynOptLevel::Kills,
            comm_opt,
        );
        check(
            FIG15,
            Strategy::Interprocedural,
            4,
            DynOptLevel::None,
            comm_opt,
        );
    }
}

/// dgefa's pivoting broadcasts and triangular loop nests
/// on a real matrix, under every strategy — and, in release builds, at
/// the benchmark scale (n=256 p=8) both blocking and overlapped, so the
/// engines' agreement is also checked on posted operations.
#[test]
fn dgefa_every_strategy() {
    for strategy in STRATEGIES {
        let ctx = format!("dgefa n=32 p=4 {strategy:?}");
        let opts = CompileOptions::builder()
            .strategy(strategy)
            .nprocs(4)
            .build();
        let named = vec![("a".to_string(), dgefa_matrix(32))];
        engines_agree(&dgefa_source(32, 4), &opts, &named, &ctx);
    }
    if cfg!(debug_assertions) {
        eprintln!("skipping dgefa n=256 p=8 in debug build");
        return;
    }
    for comm_opt in [CommOpt::Full, CommOpt::Overlap] {
        let ctx = format!("dgefa n=256 p=8 {comm_opt:?}");
        let opts = CompileOptions::builder()
            .nprocs(8)
            .comm_opt(comm_opt)
            .build();
        let named = vec![("a".to_string(), dgefa_matrix(256))];
        engines_agree(&dgefa_source(256, 8), &opts, &named, &ctx);
    }
}

/// Runs `src` under the VM and checks its profile: the opcode mix counts
/// every dispatch exactly once, and superinstruction fusion retires at
/// least `floor` of what would otherwise be dispatched — a fusion
/// pattern that stops firing shows up here.
fn mix_sums_and_fusion_covers(src: &str, nprocs: usize, named: &[(&str, Vec<f64>)], floor: f64) {
    let out = compile(src, &CompileOptions::builder().nprocs(nprocs).build()).unwrap();
    let init = named
        .iter()
        .map(|(name, data)| (out.spmd.interner.get(name).unwrap(), data.clone()))
        .collect();
    let s = try_run_spmd(
        &out.spmd,
        &Machine::new(nprocs),
        &init,
        &ExecOptions::new().backend(Bytecode),
    )
    .unwrap_or_else(|f| panic!("{f}"))
    .stats;
    let mix: u64 = s.instr_mix.iter().map(|(_, n)| n).sum();
    assert_eq!(mix, s.engine_instrs, "opcode mix sums to engine_instrs");
    let coverage = s.fused_instrs as f64 / (s.engine_instrs + s.fused_instrs) as f64;
    assert!(
        coverage >= floor,
        "fusion coverage {:.1}% below {:.0}% ({} fused, {} dispatched)",
        100.0 * coverage,
        100.0 * floor,
        s.fused_instrs,
        s.engine_instrs
    );
}

/// The case study (dgefa n=64 p=4): its kernels retire ≥ 70 %.
#[test]
fn dgefa_opcode_mix_sums_and_fusion_covers() {
    mix_sums_and_fusion_covers(&dgefa_source(64, 4), 4, &[("a", dgefa_matrix(64))], 0.70);
}

/// The overlap stencil at the benchmark's 16 points per rank (p=16): the
/// `Expr` kernel retires ≥ 65 %; the rest is per-step overhead
/// (calls, guards, messages).
#[test]
fn relax_opcode_mix_sums_and_fusion_covers() {
    mix_sums_and_fusion_covers(&relax_source(256, 1, 8, 16), 16, &[], 0.65);
}

/// Scalar arithmetic in a partitioned loop body: `k = k + 1` (integer)
/// and `s = s + t` (real) each lower to one `BinSS`, whose charge is typed
/// at run time. The fused run dispatches both on every local trip, and
/// [`engines_agree`] holds its op and flop totals to the tree walker's and
/// its arrays to the oracle's, so a wrong charge on either branch fails.
#[test]
fn scalar_arithmetic_in_a_partitioned_loop_fuses_and_charges_alike() {
    let src = "
      PROGRAM main
      PARAMETER (n = 64)
      PARAMETER (n$proc = 4)
      REAL a(n), b(n)
      REAL s, t
      INTEGER i, k
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      t = 0.5
      do i = 1, n
        s = t
        s = s + t
        k = i
        k = k + 1
        b(i) = a(i) * s + k
      enddo
      END
";
    let opts = CompileOptions::builder().nprocs(4).build();
    let named = default_init(src);
    engines_agree(src, &opts, &named, "BinSS");
    let compiled = Session::new(src).options(opts).compile().unwrap();
    let prog = compiled.spmd();
    let init = (named.iter())
        .map(|(name, data)| (prog.interner.get(name).unwrap(), data.clone()))
        .collect();
    let mix = compiled.run(&init).unwrap().stats.instr_mix;
    let binss = mix.iter().find(|(op, _)| op == "BinSS").map(|&(_, n)| n);
    assert_eq!(
        binss,
        Some(2 * 64),
        "two per trip of the 64-trip loop: {mix:?}"
    );
}

/// A rank that fails on its own is the run's failure, ahead of the ranks
/// it leaves waiting: rank 2 indexes out of its local bounds while ranks
/// 0, 1 and 3 sit in a broadcast it never enters. The VM catches the panic
/// at the rank's step and keeps stepping the others until nothing can run;
/// the tree walker unwinds rank 2's thread of the closure adapter. Both
/// report rank 2 with the subscript diagnostic, not the deadlock it caused.
#[test]
fn out_of_bounds_rank_outranks_peers_left_in_a_broadcast() {
    use fortrand_ir::dist::ArrayDist;
    use fortrand_spmd::ir::*;
    use fortrand_spmd::ExecError;
    let mut interner = fortrand_ir::Interner::new();
    let main = interner.intern("main");
    let a = interner.intern("a");
    let at = |k| SLval::Elem {
        array: a,
        subs: vec![SExpr::Int(k)],
    };
    let whole = SRect::one(SExpr::Int(1), SExpr::Int(4));
    let prog = SpmdProgram {
        interner,
        nprocs: 4,
        procs: vec![SProc {
            name: main,
            formals: vec![],
            decls: vec![SDecl {
                name: a,
                bounds: vec![(1, 4)],
                dist: DistId(0),
                owner_dist: None,
            }],
            body: vec![
                SStmt::If {
                    cond: SExpr::bin(SBinOp::Eq, SExpr::MyP, SExpr::Int(2)),
                    then_body: vec![SStmt::Assign {
                        lhs: at(7),
                        rhs: SExpr::Real(1.0),
                    }],
                    else_body: vec![],
                },
                SStmt::Bcast {
                    root: SExpr::Int(0),
                    parts: vec![BcastPart {
                        src_array: a,
                        src_section: whole.clone(),
                        dst_array: a,
                        dst_section: whole,
                    }],
                },
            ],
        }],
        main: 0,
        dists: vec![ArrayDist::replicated(&[4])],
    };
    let failure = |opts: ExecOptions| {
        let backend = opts.backend.name();
        match try_run_spmd(&prog, &Machine::new(4), &BTreeMap::new(), &opts) {
            Err(ExecError::Rank(f)) => f,
            Err(e) => panic!("{backend}: wrong error kind: {e}"),
            Ok(_) => panic!("{backend}: run unexpectedly succeeded"),
        }
    };
    let vm = failure(ExecOptions::new().backend(Bytecode));
    let tree = failure(ExecOptions::new().backend(Tree));
    assert_eq!(vm.rank, 2);
    assert_eq!(
        vm.message,
        "subscript 7 out of local bounds 1:4 (dim 0) of array"
    );
    assert_eq!((tree.rank, &tree.message), (vm.rank, &vm.message));
}

/// A generated sweep body: an expression tree over `u(i+k)` and
/// `v(i+k)` (`v(i-1)` is the recurrence on the array being written),
/// `v(c)` at a fixed index, real and integer immediates, the scalar `s`,
/// `+ - * /`, `.gt.` and negation.
#[derive(Clone, Debug)]
enum Expr {
    U(i64),
    V(i64),
    VAt(i64),
    Real(usize),
    Int(i64),
    S,
    Bin(&'static str, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
}

const OPS: [&str; 5] = ["+", "-", "*", "/", ".gt."];

fn bin(op: &'static str, l: Expr, r: Expr) -> Expr {
    Expr::Bin(op, Box::new(l), Box::new(r))
}

impl Expr {
    /// A tree of depth at most `depth` (exactly `depth` down its left
    /// spine), each node decoded from the next of `picks`. A divisor is
    /// always a leaf that cannot be an integer zero, so no case dies of
    /// an integer division by zero.
    fn grow(depth: u64, picks: &mut impl Iterator<Item = u64>) -> Expr {
        let p = picks.next().unwrap_or(0);
        if depth <= 1 {
            let arg = p / 6;
            return match p % 6 {
                0 => Expr::U((arg % 3) as i64),
                1 => Expr::V((arg % 4) as i64 - 1),
                2 => Expr::VAt((arg % 2) as i64 + 1),
                3 => Expr::Real(arg as usize % COEFFS.len()),
                4 => Expr::Int((arg % 3) as i64 + 1),
                _ => Expr::S,
            };
        }
        let l = Expr::grow(depth - 1, picks);
        let Some(&op) = OPS.get((p % 6) as usize) else {
            return Expr::Neg(Box::new(l));
        };
        let r = match Expr::grow(1 + p / 6 % (depth - 1), picks) {
            Expr::Bin(..) | Expr::Neg(_) | Expr::Int(_) if op == "/" => Expr::Real(0),
            r => r,
        };
        bin(op, l, r)
    }

    /// `(lowest, highest)` element offset the tree reads (0 if none).
    fn offsets(&self) -> (i64, i64) {
        match self {
            Expr::U(k) | Expr::V(k) => ((*k).min(0), (*k).max(0)),
            Expr::Bin(_, l, r) => {
                let (a, b) = (l.offsets(), r.offsets());
                (a.0.min(b.0), a.1.max(b.1))
            }
            Expr::Neg(e) => e.offsets(),
            _ => (0, 0),
        }
    }

    /// The highest `c` of a fixed element `v(c)` the tree reads (0 if
    /// none).
    fn highest_fixed(&self) -> i64 {
        match self {
            Expr::VAt(c) => *c,
            Expr::Bin(_, l, r) => l.highest_fixed().max(r.highest_fixed()),
            Expr::Neg(e) => e.highest_fixed(),
            _ => 0,
        }
    }

    /// The tree with every offset 0 (CYCLIC distributions only support
    /// unshifted sweeps in the compile-time strategies).
    fn unshifted(&self) -> Expr {
        match self {
            Expr::U(_) => Expr::U(0),
            Expr::V(_) => Expr::V(0),
            Expr::Bin(op, l, r) => bin(op, l.unshifted(), r.unshifted()),
            Expr::Neg(e) => Expr::Neg(Box::new(e.unshifted())),
            e => e.clone(),
        }
    }

    /// The tree in Fortran; `col` follows the row subscript of every
    /// element reference (`",j"` for a column of a 2-D array, else empty).
    fn render(&self, u: &str, v: &str, col: &str) -> String {
        let at = |a: &str, k: i64| match k {
            0 => format!("{a}(i{col})"),
            k if k < 0 => format!("{a}(i-{}{col})", -k),
            k => format!("{a}(i+{k}{col})"),
        };
        match self {
            Expr::U(k) => at(u, *k),
            Expr::V(k) => at(v, *k),
            Expr::VAt(c) => format!("{v}({c}{col})"),
            Expr::Real(c) => COEFFS[*c].to_string(),
            Expr::Int(x) => x.to_string(),
            Expr::S => "s".to_string(),
            Expr::Bin(op, l, r) => {
                format!("({} {op} {})", l.render(u, v, col), r.render(u, v, col))
            }
            Expr::Neg(e) => format!("(-{})", e.render(u, v, col)),
        }
    }
}

/// One generated loop: `v(i) = e`, or `v(c) = e` when `dst` fixes the
/// stored element (every iteration stores to it), over the widest range
/// `e`'s offsets allow, its lower end raised by `lo_off`; descending
/// when `down`.
#[derive(Clone, Debug)]
struct Sweep {
    e: Expr,
    lo_off: i64,
    dst: Option<i64>,
    down: bool,
}

impl Sweep {
    fn new(e: Expr) -> Sweep {
        Sweep {
            e,
            lo_off: 0,
            dst: None,
            down: false,
        }
    }

    /// True when the compile-time strategies refuse the sweep on a
    /// distributed dimension: `v(i-1)` is a carried flow dependence (it
    /// needs pipelining), so is a read of a fixed `v(c)` that the loop
    /// stores along the way, and a descending loop has a non-unit step.
    fn needs_rtr(&self) -> bool {
        let lo = 1 - self.e.offsets().0 + self.lo_off;
        let stores_read_element = self.dst.is_none() && self.e.highest_fixed() >= lo;
        self.e.offsets().0 < 0 || stores_read_element || self.down
    }

    fn render(&self, n: i64, u: &str, v: &str, col: &str) -> String {
        let (lo_k, hi_k) = self.e.offsets();
        let (lo, hi) = (1 - lo_k + self.lo_off, n - hi_k);
        let range = if self.down {
            format!("{hi}, {lo}, -1")
        } else {
            format!("{lo}, {hi}")
        };
        let dst = match self.dst {
            Some(c) => format!("{v}({c}{col})"),
            None => format!("{v}(i{col})"),
        };
        format!(
            "do i = {range}\n        {dst} = {}\n      enddo\n",
            self.e.render(u, v, col)
        )
    }
}

/// Renders a program of sweeps over the distributed pair, each inline in
/// the main program or in a subroutine with `s` a scalar formal (REAL, or
/// INTEGER when `int_s`). With `cols`, the pair is `n` by `cols`,
/// distributed by columns, and every sweep runs down each column `j` —
/// dgefa's `a(i,j)`, whose row-major storage puts consecutive `i` a row
/// apart.
fn render(
    n: i64,
    nprocs: usize,
    dist: &str,
    sweeps: &[Sweep],
    through_call: bool,
    int_s: bool,
    cols: Option<i64>,
) -> String {
    let ty = if int_s { "INTEGER" } else { "REAL" };
    let s0 = if int_s { "2" } else { "0.75" };
    let (shape, layout, col) = match cols {
        Some(m) => (format!("{n},{m}"), format!(":,{dist}"), ",j"),
        None => (n.to_string(), dist.to_string(), ""),
    };
    // A column sweep runs inside `do j`.
    let in_cols = |sweep: String| match cols {
        Some(m) => format!("do j = 1, {m}\n      {sweep}      enddo\n"),
        None => sweep,
    };
    let mut body = String::new();
    let mut subs = String::new();
    for (si, sw) in sweeps.iter().enumerate() {
        if through_call {
            body.push_str(&format!("      call sweep{si}(x, y, s)\n"));
            subs.push_str(&format!(
                "      SUBROUTINE sweep{si}(u, v, s)\n      REAL u({shape}), v({shape})\n      {ty} s\n      {}      END\n",
                in_cols(sw.render(n, "u", "v", col))
            ));
        } else {
            body.push_str(&format!("      {}", in_cols(sw.render(n, "x", "y", col))));
        }
    }
    format!(
        "      PROGRAM main\n      PARAMETER (n$proc = {nprocs})\n      REAL x({shape}), y({shape})\n      {ty} s\n      DISTRIBUTE x({layout})\n      DISTRIBUTE y({layout})\n      s = {s0}\n{body}      END\n{subs}"
    )
}

/// The loop shapes a fused kernel must judge before it evaluates a
/// column at a time instead of an iteration at a time, and the `Fma`
/// operand mixes, each alone in a program. Down the columns of a 2-D
/// array (dgefa's layout) every shape fuses but one; on a 1-D
/// distribution they mostly take the interpreted path. Both layouts must
/// agree across the engines, with kernels on and off.
#[test]
fn kernel_operand_shapes() {
    use Expr::*;
    let down = |e| Sweep {
        down: true,
        ..Sweep::new(e)
    };
    // (sweep, INTEGER s, fuses down a column)
    let cases = [
        // `v(1) = v(1) + u(i)`: a stride-0 store read back every iteration.
        (
            Sweep {
                dst: Some(1),
                ..Sweep::new(bin("+", VAt(1), U(0)))
            },
            false,
            true,
        ),
        // `v(i) = v(i) / v(2)`: iterations after the second read the
        // element the second stored.
        (Sweep::new(bin("/", V(0), VAt(2))), false, true),
        // `v(i) = v(i) / v(1)` from `i = 2`: dgefa's scaling, the fixed
        // element outside the stored range.
        (
            Sweep {
                lo_off: 1,
                ..Sweep::new(bin("/", V(0), VAt(1)))
            },
            false,
            true,
        ),
        // Descending: `v(i-1)` is read before it is stored, `v(i+1)` just
        // after, and `v(i)` itself walks backwards.
        (down(bin("+", bin("*", U(0), Real(0)), V(-1))), false, true),
        (down(bin("+", bin("*", V(1), Int(2)), S)), false, true),
        (down(bin("*", V(0), Real(0))), false, true),
        // `Fma` with an INTEGER scalar or integer immediates.
        (Sweep::new(bin("+", V(0), bin("*", S, U(0)))), true, true),
        (
            Sweep::new(bin("-", Int(3), bin("*", U(0), Int(2)))),
            false,
            true,
        ),
        (Sweep::new(bin("+", U(0), bin("*", Real(0), S))), true, true),
        (Sweep::new(bin("+", V(-1), bin("*", S, U(0)))), false, true),
        // An integer product: neither `Fma` nor `Expr` may take it.
        (Sweep::new(bin("+", U(0), bin("*", Int(2), S))), true, false),
    ];
    for (sweep, int_s, fuses) in cases {
        let sweeps = [sweep];
        for through_call in [false, true] {
            let src = render(24, 3, "BLOCK", &sweeps, through_call, int_s, Some(4));
            let fused = check(
                &src,
                Strategy::Interprocedural,
                3,
                DynOptLevel::Kills,
                CommOpt::Full,
            );
            assert_eq!(fused > 0, fuses, "{src}");
            let src = render(24, 3, "BLOCK", &sweeps, through_call, int_s, None);
            let strategy = if sweeps[0].needs_rtr() {
                Strategy::RuntimeResolution
            } else {
                Strategy::Interprocedural
            };
            check(&src, strategy, 3, DynOptLevel::Kills, CommOpt::Full);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Random sweep bodies — the shapes the `Expr` kernel fuses and the
    /// ones it must refuse (integer-only subtrees, a REAL-or-INTEGER
    /// scalar, comparisons feeding arithmetic) — on 1-D arrays and down
    /// the columns of 2-D ones, ascending or descending, storing along
    /// the loop or to one element, agree with the tree walker with
    /// kernels on and off.
    #[test]
    fn engines_agree_on_generated_programs(
        n in 16i64..64,
        nprocs in 1usize..5,
        cyclic in any::<bool>(),
        sweeps in prop::collection::vec(
            (1u64..5, prop::collection::vec(0u64..1 << 20, 15), 0i64..3, 0u64..6),
            1..3,
        ),
        through_call in any::<bool>(),
        int_s in any::<bool>(),
        two_d in any::<bool>(),
        strategy_idx in 0usize..3,
    ) {
        let dist = if cyclic { "CYCLIC" } else { "BLOCK" };
        let sweeps: Vec<_> = sweeps
            .into_iter()
            .map(|(depth, picks, lo_off, form)| {
                let e = Expr::grow(depth, &mut picks.into_iter());
                Sweep {
                    // Only a distributed dimension needs unshifted sweeps.
                    e: if cyclic && !two_d { e.unshifted() } else { e },
                    lo_off,
                    dst: [None, Some(1), Some(2)][form as usize / 2],
                    down: form % 2 == 1,
                }
            })
            .collect();
        let cols = two_d.then_some(nprocs as i64 + 1);
        let src = render(n, nprocs, dist, &sweeps, through_call, int_s, cols);
        // Down a column the loop runs over an undistributed dimension,
        // which every strategy takes.
        let rtr = !two_d && sweeps.iter().any(Sweep::needs_rtr);
        check(
            &src,
            if rtr { Strategy::RuntimeResolution } else { STRATEGIES[strategy_idx] },
            nprocs,
            DynOptLevel::Kills,
            CommOpt::Full,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, .. ProptestConfig::default() })]

    /// `v(i) = f(v(c))` on purpose: a fixed-element read of the 1-D
    /// distributed array the loop stores along, under a compile-time
    /// strategy (the generator above sends every such sweep to run-time
    /// resolution, so it never asks one). When the loop stores `v(c)`
    /// before later iterations read it, the read is a flow dependence
    /// carried across ranks: the compiler must reject the program with the
    /// pipelining diagnostic, or its runs must match the oracle. `f` is a
    /// leaf combined by `+`, `-` or `*`, so no case can divide by zero.
    #[test]
    fn fixed_element_reads_are_rejected_or_compiled_right(
        n in 16i64..48,
        nprocs in 2usize..5,
        c in 1i64..4,
        lo_off in 0i64..3,
        leaf in 0u64..1 << 20,
        op in 0usize..3,
        cyclic in any::<bool>(),
        through_call in any::<bool>(),
        immediate in any::<bool>(),
    ) {
        let f = Expr::grow(1, &mut [leaf].into_iter());
        let e = bin(["+", "-", "*"][op], f, Expr::VAt(c));
        let sweep = Sweep {
            lo_off,
            ..Sweep::new(if cyclic { e.unshifted() } else { e })
        };
        let dist = if cyclic { "CYCLIC" } else { "BLOCK" };
        let src = render(n, nprocs, dist, &[sweep], through_call, false, None);
        let strategy = if immediate { Strategy::Immediate } else { Strategy::Interprocedural };
        let opts = CompileOptions::builder().strategy(strategy).nprocs(nprocs).build();
        match Session::new(src.as_str()).options(opts).compile() {
            Err(e) => prop_assert!(e.to_string().contains("requires pipelining"), "{src}: {e}"),
            Ok(_) => {
                check(&src, strategy, nprocs, DynOptLevel::Kills, CommOpt::Full);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Call chains whose exchanges the optimizer aggregates across call
    /// sites, from random non-zero arrays (on zeroed ones a stale
    /// exchange cannot show): each link reads one array shifted and
    /// writes another, sometimes the one it read too, and sometimes reads
    /// its loop variable after the loops. Every engine matches the
    /// sequential oracle at the levels that aggregate.
    #[test]
    fn aggregated_call_chains_match_the_oracle(
        n in 16i64..48,
        nprocs in 2usize..5,
        k in 2usize..5,
        links in prop::collection::vec(
            (0usize..4, 1usize..4, 0usize..6, 0usize..4, any::<bool>(), any::<bool>(), any::<bool>()),
            2..7,
        ),
        seed in 0u64..1 << 32,
        immediate in any::<bool>(),
    ) {
        // Mostly one direction, so exchanges share a peer and can merge;
        // a link that follows reads what the link before it wrote.
        const SHIFTS: [i64; 6] = [1, 2, 1, 2, -1, 0];
        let mut prev_dst = 0;
        let links: Vec<Link> = (links.into_iter())
            .map(|(src, step, shift, coeff, write_back, follow, tail)| {
                let src = if follow { prev_dst } else { src % k };
                let dst = (src + step) % k;
                prev_dst = dst;
                Link { src, dst, shift: SHIFTS[shift], coeff, write_back, tail }
            })
            .filter(|l| l.src != l.dst)
            .collect();
        let src = render_chain(n, nprocs, k, &links);
        let named: Vec<(String, Vec<f64>)> = (0..k)
            .map(|a| {
                let mut z = seed ^ (a as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let data = (0..n).map(|_| {
                    z = z.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    0.5 + (z >> 11) as f64 / (1u64 << 53) as f64
                });
                (format!("a{a}"), data.collect())
            })
            .collect();
        let strategy = if immediate { Strategy::Immediate } else { Strategy::Interprocedural };
        for comm_opt in [CommOpt::Coalesce, CommOpt::Full, CommOpt::Overlap] {
            let opts = CompileOptions::builder()
                .strategy(strategy)
                .nprocs(nprocs)
                .comm_opt(comm_opt)
                .build();
            let ctx = format!("{strategy:?}/{comm_opt:?}/{nprocs}p\n{src}");
            engines_agree(&src, &opts, &named, &ctx);
        }
    }
}

/// One `Gather` site packing one array across remaps: FIG15 with a
/// shifted read ahead of the `k` loop, which gives `X` an overlap cell
/// (`X(0:25)`), and broadcasts of `X(1)` and `X(k)` inside the loop. Under
/// `DynOptLevel::None` each trip remaps `X` to CYCLIC and back around each
/// `call F1`. A remap keeps the overlap cell, so every trip packs `X(1)`
/// from a store with bounds `0:25`; when a remap allocated `X` at its
/// owned bounds `1:25`, the trips after the first packed it from there,
/// one place lower (hence the name). The section of `X(k)` moves every
/// trip. Tree, VM fused and VM unfused agree, buffer-pool counters
/// included. The shifted read *inside* the loop, which receives into
/// `X(0)` after each remap, is the fixture
/// `tests/regressions/remap_keeps_overlap_cells.f`.
#[test]
fn one_section_site_under_two_local_bound_sets() {
    let src = FIG15
        .replace("REAL X(100)\n      PARAMETER", "REAL X(100), Y(100)\n      PARAMETER")
        .replace(
            "DISTRIBUTE X(BLOCK)\n",
            "DISTRIBUTE X(BLOCK)\n      DISTRIBUTE Y(BLOCK)\n      do i = 2,100\n        Y(i) = X(i-1)\n      enddo\n",
        )
        .replace(
            "do k = 1,t\n",
            "do k = 1,t\n        do i = 1,100\n          Y(i) = X(1) + X(k) + Y(i)\n        enddo\n",
        );
    let opts = CompileOptions::builder()
        .nprocs(4)
        .dyn_opt(DynOptLevel::None)
        .build();
    let out = compile(&src, &opts).unwrap();
    let listing = fortrand_spmd::print::pretty_all(&out.spmd);
    assert!(listing.contains("REAL X(0:25)"), "{listing}");
    for site in ["broadcast X(local(1))", "broadcast X(local(k))"] {
        assert!(listing.contains(site), "{listing}");
    }
    let mut init = BTreeMap::new();
    for (name, data) in default_init(&src) {
        init.insert(out.spmd.interner.get(&name).unwrap(), data);
    }
    let run = |exec_opts: ExecOptions| {
        try_run_spmd(&out.spmd, &Machine::new(4), &init, &exec_opts)
            .unwrap_or_else(|f| panic!("{f}"))
    };
    let tree = run(ExecOptions::new().backend(Tree));
    let fused = run(ExecOptions::new().backend(Bytecode));
    let plain = run(ExecOptions::new().backend(Bytecode).kernels(false));
    assert_identical(&tree, &fused, "kernels-on");
    assert_identical(&tree, &plain, "kernels-off");
    let pool = |o: &RunOutcome| (o.stats.pool_allocs, o.stats.pool_reuses);
    assert_eq!(
        [pool(&tree), pool(&fused), pool(&plain)],
        [(5, 6), (3, 8), (3, 8)]
    );
}
