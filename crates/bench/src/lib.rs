//! # fortrand-bench
//!
//! Experiment harness: every table and figure of the paper maps to a
//! function here (see DESIGN.md §5 for the index). The `tables` binary
//! prints the artifacts; the Criterion benches under `benches/` measure
//! the compiler and simulator themselves.
//!
//! Quantitative experiments report *simulated* machine metrics
//! (LogGP-model time, message counts, bytes) — the quantities the paper's
//! iPSC/860 measurements correspond to. See EXPERIMENTS.md for the
//! paper-vs-measured record.

use fortrand::corpus::{dgefa_matrix, dgefa_source, fig15_source, fig4_source, relax_source};
use fortrand::json::Json;
use fortrand::{CommOpt, CompileOptions, DynOptLevel, Strategy};
use fortrand_machine::{Machine, RunStats, HIST_LABELS};
use fortrand_spmd::{try_run_spmd, Bytecode, ExecOptions, Native, RunOutcome, SpmdProgram, Tree};
use std::collections::BTreeMap;
use std::time::Instant;

/// The compile/run call shapes shared with the root integration tests —
/// one definition for both (`tests/common/mod.rs`).
#[path = "../../../tests/common/mod.rs"]
mod common;
pub use common::{compile, run_spmd, Chain};

/// [`run_spmd`] with explicit execution options (backend selection etc.).
pub fn run_spmd_opts(
    prog: &SpmdProgram,
    machine: &Machine,
    init: &BTreeMap<fortrand_ir::Sym, Vec<f64>>,
    opts: &ExecOptions,
) -> RunOutcome {
    try_run_spmd(prog, machine, init, opts).unwrap_or_else(|f| panic!("{f}"))
}

/// Compiles and simulates one program; panics on compile errors (the
/// corpus is known-good).
pub fn simulate(src: &str, strategy: Strategy, dyn_opt: DynOptLevel, nprocs: usize) -> RunStats {
    simulate_with(src, strategy, dyn_opt, nprocs, &BTreeMap::new())
}

/// Like [`simulate`] with named initial arrays (global row-major data).
pub fn simulate_with(
    src: &str,
    strategy: Strategy,
    dyn_opt: DynOptLevel,
    nprocs: usize,
    init_named: &BTreeMap<&str, Vec<f64>>,
) -> RunStats {
    simulate_comm(src, strategy, dyn_opt, nprocs, init_named, CommOpt::Full)
}

/// Like [`simulate_with`] with an explicit communication-optimization
/// level (the driver default is [`CommOpt::Full`]).
pub fn simulate_comm(
    src: &str,
    strategy: Strategy,
    dyn_opt: DynOptLevel,
    nprocs: usize,
    init_named: &BTreeMap<&str, Vec<f64>>,
    comm_opt: CommOpt,
) -> RunStats {
    let out = compile(
        src,
        &CompileOptions::builder()
            .strategy(strategy)
            .dyn_opt(dyn_opt)
            .nprocs(nprocs)
            .comm_opt(comm_opt)
            .build(),
    )
    .unwrap_or_else(|e| panic!("compile ({strategy:?}): {e}"));
    let machine = Machine::new(nprocs);
    let mut init = BTreeMap::new();
    for (name, data) in init_named {
        if let Some(s) = out.spmd.interner.get(name) {
            init.insert(s, data.clone());
        }
    }
    run_spmd(&out.spmd, &machine, &init).stats
}

/// One row of a strategy-comparison table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. problem size or processor count).
    pub label: String,
    /// Simulated execution time in milliseconds.
    pub time_ms: f64,
    /// Total messages.
    pub msgs: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Remap library calls.
    pub remaps: u64,
}

impl Row {
    /// Builds a row from run statistics.
    pub fn from_stats(label: impl Into<String>, s: &RunStats) -> Row {
        Row {
            label: label.into(),
            time_ms: s.time_ms(),
            msgs: s.total_msgs,
            bytes: s.total_bytes,
            remaps: s.total_remaps,
        }
    }
}

/// Renders rows as a fixed-width table.
pub fn render_rows(title: &str, header: &str, rows: &[Row]) -> String {
    let mut out = format!("{title}\n{}\n", "-".repeat(title.len()));
    out.push_str(&format!(
        "{:<24} {:>12} {:>10} {:>12} {:>8}\n",
        header, "time (ms)", "msgs", "bytes", "remaps"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>12.3} {:>10} {:>12} {:>8}\n",
            r.label, r.time_ms, r.msgs, r.bytes, r.remaps
        ));
    }
    out
}

/// Experiment `fig2-vs-fig3`: compile-time codegen vs run-time resolution
/// for the Fig. 1 pipeline pattern, over problem sizes.
pub fn exp_resolution(sizes: &[i64], nprocs: usize) -> Vec<(String, Row, Row)> {
    sizes
        .iter()
        .map(|&n| {
            let src = relax_source(n, 5, 1, nprocs);
            let a = simulate(&src, Strategy::Interprocedural, DynOptLevel::Kills, nprocs);
            let b = simulate(
                &src,
                Strategy::RuntimeResolution,
                DynOptLevel::Kills,
                nprocs,
            );
            (
                format!("n={n}"),
                Row::from_stats("compile-time", &a),
                Row::from_stats("run-time res", &b),
            )
        })
        .collect()
}

/// Experiment `fig10-vs-fig12`: delayed vs immediate instantiation over
/// the enclosing trip count (the paper's 1 vs 100 messages).
pub fn exp_delayed(trips: &[i64], nprocs: usize) -> Vec<(String, Row, Row)> {
    trips
        .iter()
        .map(|&t| {
            let src = fig4_source(t, nprocs);
            let a = simulate(&src, Strategy::Interprocedural, DynOptLevel::Kills, nprocs);
            let b = simulate(&src, Strategy::Immediate, DynOptLevel::Kills, nprocs);
            (
                format!("trips={t}"),
                Row::from_stats("interprocedural", &a),
                Row::from_stats("immediate", &b),
            )
        })
        .collect()
}

/// Experiment `fig16-perf`: remap counts/time per dynamic-decomposition
/// optimization level, over the time-step count.
pub fn exp_remap(tsteps: &[i64], nprocs: usize) -> Vec<(String, Vec<Row>)> {
    tsteps
        .iter()
        .map(|&t| {
            let src = fig15_source(t, nprocs);
            let rows = [
                ("16a none", DynOptLevel::None),
                ("16b live", DynOptLevel::Live),
                ("16c hoist", DynOptLevel::Hoist),
                ("16d kills", DynOptLevel::Kills),
            ]
            .iter()
            .map(|(label, lvl)| {
                let s = simulate(&src, Strategy::Interprocedural, *lvl, nprocs);
                Row::from_stats(*label, &s)
            })
            .collect();
            (format!("T={t}"), rows)
        })
        .collect()
}

/// Experiment `sec9`: dgefa under each strategy (the case study).
pub fn exp_dgefa(n: i64, procs: &[usize]) -> Vec<(usize, Vec<Row>)> {
    procs
        .iter()
        .map(|&p| {
            let src = dgefa_source(n, p);
            let mut init = BTreeMap::new();
            init.insert("a", dgefa_matrix(n));
            let rows = vec![
                Row::from_stats(
                    "interprocedural",
                    &simulate_with(
                        &src,
                        Strategy::Interprocedural,
                        DynOptLevel::Kills,
                        p,
                        &init,
                    ),
                ),
                Row::from_stats(
                    "interproc comm-off",
                    &simulate_comm(
                        &src,
                        Strategy::Interprocedural,
                        DynOptLevel::Kills,
                        p,
                        &init,
                        CommOpt::Off,
                    ),
                ),
                Row::from_stats(
                    "interproc overlap",
                    &simulate_comm(
                        &src,
                        Strategy::Interprocedural,
                        DynOptLevel::Kills,
                        p,
                        &init,
                        CommOpt::Overlap,
                    ),
                ),
                Row::from_stats(
                    "immediate",
                    &simulate_with(&src, Strategy::Immediate, DynOptLevel::Kills, p, &init),
                ),
                Row::from_stats(
                    "runtime-res",
                    &simulate_with(
                        &src,
                        Strategy::RuntimeResolution,
                        DynOptLevel::Kills,
                        p,
                        &init,
                    ),
                ),
                Row::from_stats("hand-coded", &hand_dgefa(n, p)),
            ];
            (p, rows)
        })
        .collect()
}

/// dgefa speedup curve for one strategy: time(1 proc) / time(p procs).
pub fn dgefa_speedups(n: i64, procs: &[usize], strategy: Strategy) -> Vec<(usize, f64)> {
    let src1 = dgefa_source(n, 1);
    let mut init = BTreeMap::new();
    init.insert("a", dgefa_matrix(n));
    let base = simulate_with(&src1, strategy, DynOptLevel::Kills, 1, &init).time_us;
    procs
        .iter()
        .map(|&p| {
            let src = dgefa_source(n, p);
            let t = simulate_with(&src, strategy, DynOptLevel::Kills, p, &init).time_us;
            (p, base / t)
        })
        .collect()
}

/// Ablation: sweep the message-startup cost α and report the
/// interprocedural-vs-immediate time ratio — showing that the delayed
/// instantiation win is precisely an α effect (equal bytes, fewer
/// messages), and where the strategies would converge.
pub fn ablation_alpha(alphas_us: &[f64], nprocs: usize) -> Vec<(f64, f64, f64)> {
    use fortrand::corpus::fig4_source;
    use fortrand_machine::CostModel;
    let src = fig4_source(100, nprocs);
    alphas_us
        .iter()
        .map(|&alpha| {
            let run = |strategy: Strategy| -> f64 {
                let out = compile(
                    &src,
                    &CompileOptions::builder()
                        .strategy(strategy)
                        .nprocs(nprocs)
                        .build(),
                )
                .unwrap();
                let cost = CostModel {
                    alpha_us: alpha,
                    ..CostModel::ipsc860()
                };
                let machine = Machine::with_cost(nprocs, cost);
                run_spmd(&out.spmd, &machine, &BTreeMap::new())
                    .stats
                    .time_us
            };
            let inter = run(Strategy::Interprocedural);
            let imm = run(Strategy::Immediate);
            (alpha, inter, imm)
        })
        .collect()
}

/// Host wall-clock comparison of the two execution engines on one
/// program, plus the shared simulated metrics (identical by construction
/// — [`EngineTiming::identical`] records whether they actually were).
#[derive(Debug, Clone)]
pub struct EngineTiming {
    /// Experiment label.
    pub label: String,
    /// Tree-walker wall-clock, min over reps (µs, host time).
    pub tree_wall_us: u64,
    /// Bytecode-VM wall-clock, min over reps (µs, host time, includes
    /// lowering — charged against the VM to keep the comparison honest).
    pub bytecode_wall_us: u64,
    /// Simulated LogGP time (identical across engines).
    pub model_time_us: f64,
    /// Total simulated messages.
    pub msgs: u64,
    /// Total simulated bytes.
    pub bytes: u64,
    /// VM instructions dispatched across all ranks.
    pub bytecode_instrs: u64,
    /// Pooled message buffers reused (from the bytecode run; varies with
    /// thread interleaving).
    pub pool_reuses: u64,
    /// Pooled message buffers allocated fresh (bytecode run).
    pub pool_allocs: u64,
    /// Whether every simulated observable (model time, message totals,
    /// histograms, per-tag counts, final arrays, printed output) was
    /// bit-identical between the engines.
    pub identical: bool,
}

impl EngineTiming {
    /// Wall-clock speedup of the bytecode engine over the tree-walker.
    pub fn speedup(&self) -> f64 {
        self.tree_wall_us as f64 / self.bytecode_wall_us.max(1) as f64
    }
}

/// True iff two runs agree on every *simulated* observable. Host-side
/// measurements (`wall_us`, pool counters, `engine_instrs`) are excluded:
/// they are nondeterministic or engine-specific by design.
pub fn outputs_identical(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.stats.time_us == b.stats.time_us
        && a.stats.total_msgs == b.stats.total_msgs
        && a.stats.total_bytes == b.stats.total_bytes
        && a.stats.total_flops == b.stats.total_flops
        && a.stats.total_ops == b.stats.total_ops
        && a.stats.total_remaps == b.stats.total_remaps
        && a.stats.msg_hist == b.stats.msg_hist
        && a.stats.msgs_by_tag == b.stats.msgs_by_tag
        && a.arrays == b.arrays
        && a.printed == b.printed
}

/// Compiles `src` once, then runs it `reps` times under each engine,
/// timing each run with host wall-clock and keeping the minimum (the
/// usual benchmarking guard against scheduler noise).
#[allow(clippy::too_many_arguments)]
pub fn engine_experiment(
    label: &str,
    src: &str,
    strategy: Strategy,
    dyn_opt: DynOptLevel,
    comm_opt: CommOpt,
    nprocs: usize,
    init_named: &BTreeMap<&str, Vec<f64>>,
    reps: usize,
) -> EngineTiming {
    let out = compile(
        src,
        &CompileOptions::builder()
            .strategy(strategy)
            .dyn_opt(dyn_opt)
            .comm_opt(comm_opt)
            .nprocs(nprocs)
            .build(),
    )
    .unwrap_or_else(|e| panic!("compile ({strategy:?}): {e}"));
    let mut init = BTreeMap::new();
    for (name, data) in init_named {
        if let Some(s) = out.spmd.interner.get(name) {
            init.insert(s, data.clone());
        }
    }
    let run = |opts: &ExecOptions| -> (RunOutcome, u64) {
        let mut best = u64::MAX;
        let mut result = None;
        for _ in 0..reps.max(1) {
            let machine = Machine::new(nprocs);
            let t0 = Instant::now();
            let r = run_spmd_opts(&out.spmd, &machine, &init, opts);
            best = best.min(t0.elapsed().as_micros() as u64);
            result = Some(r);
        }
        (result.unwrap(), best.max(1))
    };
    let (tree, tree_wall_us) = run(&ExecOptions::new().backend(Tree));
    let (vm, bytecode_wall_us) = run(&ExecOptions::new().backend(Bytecode));
    EngineTiming {
        label: label.into(),
        tree_wall_us,
        bytecode_wall_us,
        model_time_us: vm.stats.time_us,
        msgs: vm.stats.total_msgs,
        bytes: vm.stats.total_bytes,
        bytecode_instrs: vm.stats.engine_instrs,
        pool_reuses: vm.stats.pool_reuses,
        pool_allocs: vm.stats.pool_allocs,
        identical: outputs_identical(&tree, &vm),
    }
}

/// One [`EngineTiming`] as a JSON object (one entry of the
/// `BENCH_sim.json` artifact; format documented in EXPERIMENTS.md).
fn timing_json(t: &EngineTiming) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::str(&t.label)),
        ("tree_wall_us".into(), Json::Int(t.tree_wall_us as i128)),
        (
            "bytecode_wall_us".into(),
            Json::Int(t.bytecode_wall_us as i128),
        ),
        (
            "speedup_x100".into(),
            Json::Int((t.speedup() * 100.0) as i128),
        ),
        ("speedup".into(), Json::str(format!("{:.2}", t.speedup()))),
        (
            "model_time_us".into(),
            Json::str(format!("{:.3}", t.model_time_us)),
        ),
        ("msgs".into(), Json::Int(t.msgs as i128)),
        ("bytes".into(), Json::Int(t.bytes as i128)),
        (
            "bytecode_instrs".into(),
            Json::Int(t.bytecode_instrs as i128),
        ),
        ("pool_reuses".into(), Json::Int(t.pool_reuses as i128)),
        ("pool_allocs".into(), Json::Int(t.pool_allocs as i128)),
        ("identical".into(), Json::Bool(t.identical)),
    ])
}

/// The experiments behind `BENCH_sim.json`: the dgefa case study at two
/// scales (the large one both blocking and overlapped, so the engines'
/// agreement is also checked on posted operations) plus the Fig. 4
/// delayed-instantiation program (call-heavy, so it stresses frame
/// push/pop rather than array loops).
pub fn sim_experiments(reps: usize) -> Vec<EngineTiming> {
    let mut init = BTreeMap::new();
    init.insert("a", dgefa_matrix(64));
    let mut init256 = BTreeMap::new();
    init256.insert("a", dgefa_matrix(256));
    vec![
        engine_experiment(
            "dgefa n=64 p=4",
            &dgefa_source(64, 4),
            Strategy::Interprocedural,
            DynOptLevel::Kills,
            CommOpt::Full,
            4,
            &init,
            reps,
        ),
        engine_experiment(
            "dgefa n=256 p=8",
            &dgefa_source(256, 8),
            Strategy::Interprocedural,
            DynOptLevel::Kills,
            CommOpt::Full,
            8,
            &init256,
            reps,
        ),
        engine_experiment(
            "dgefa n=256 p=8 overlap",
            &dgefa_source(256, 8),
            Strategy::Interprocedural,
            DynOptLevel::Kills,
            CommOpt::Overlap,
            8,
            &init256,
            reps,
        ),
        engine_experiment(
            "fig4 trips=100 p=4",
            &fig4_source(100, 4),
            Strategy::Interprocedural,
            DynOptLevel::Kills,
            CommOpt::Full,
            4,
            &BTreeMap::new(),
            reps,
        ),
    ]
}

/// The `BENCH_sim.json` document: wall-clock of both execution engines,
/// the speedup of the bytecode VM, and the shared simulated metrics.
pub fn sim_report(reps: usize) -> Json {
    sim_report_of(&sim_experiments(reps))
}

/// [`sim_report`] over already-measured timings (so callers that need the
/// timings for gating don't run the experiments twice).
pub fn sim_report_of(timings: &[EngineTiming]) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::Int(1)),
        (
            "experiments".into(),
            Json::Arr(timings.iter().map(timing_json).collect()),
        ),
    ])
}

/// Host wall-clock comparison of the bytecode VM against the native
/// codegen backend on one program (the `tables native` report). The VM
/// wall includes bytecode lowering; the native wall is the child
/// process's run time only — the `rustc` build is a compile-time cost
/// and is reported separately.
#[derive(Debug, Clone)]
pub struct NativeTiming {
    /// Experiment label.
    pub label: String,
    /// Bytecode-VM wall-clock, min over reps (µs, host time).
    pub vm_wall_us: u64,
    /// Native-process run wall-clock, min over reps (µs, host time,
    /// excludes the `rustc` build).
    pub native_wall_us: u64,
    /// Wall-clock of one emit + `rustc` build + run round trip (µs).
    pub build_wall_us: u64,
    /// Total messages (identical across backends by construction).
    pub msgs: u64,
    /// Total bytes.
    pub bytes: u64,
    /// Whether every shared observable (message totals, histogram,
    /// per-tag counts, final arrays bit for bit, printed output) matched
    /// between the VM and the native process. Simulated clock, flop and
    /// op counts are simulator-only and excluded.
    pub identical: bool,
}

impl NativeTiming {
    /// Wall-clock speedup of the native process over the bytecode VM.
    pub fn speedup(&self) -> f64 {
        self.vm_wall_us as f64 / self.native_wall_us.max(1) as f64
    }
}

/// True iff a simulator run and a native run agree on every observable
/// the two worlds share (traffic, arrays, printed output — not the
/// simulated clock, which the native process does not model).
pub fn native_outputs_identical(sim: &RunOutcome, nat: &RunOutcome) -> bool {
    sim.stats.total_msgs == nat.stats.total_msgs
        && sim.stats.total_bytes == nat.stats.total_bytes
        && sim.stats.total_remaps == nat.stats.total_remaps
        && sim.stats.msg_hist == nat.stats.msg_hist
        && sim.stats.msgs_by_tag == nat.stats.msgs_by_tag
        && sim.arrays.len() == nat.arrays.len()
        && sim.arrays.iter().all(|(name, sv)| {
            nat.arrays.get(name).is_some_and(|nv| {
                sv.len() == nv.len() && sv.iter().zip(nv).all(|(x, y)| x.to_bits() == y.to_bits())
            })
        })
        && sim.printed == nat.printed
}

/// Compiles `src` once, then runs it `reps` times under the bytecode VM
/// (timed externally, minimum kept) and `reps` times as a native
/// process (run time from the backend's own wall clock, which excludes
/// the `rustc` build; minimum kept).
pub fn native_experiment(
    label: &str,
    src: &str,
    nprocs: usize,
    init_named: &BTreeMap<&str, Vec<f64>>,
    reps: usize,
) -> NativeTiming {
    let out = compile(
        src,
        &CompileOptions::builder()
            .strategy(Strategy::Interprocedural)
            .dyn_opt(DynOptLevel::Kills)
            .comm_opt(CommOpt::Full)
            .nprocs(nprocs)
            .build(),
    )
    .unwrap_or_else(|e| panic!("compile: {e}"));
    let mut init = BTreeMap::new();
    for (name, data) in init_named {
        if let Some(s) = out.spmd.interner.get(name) {
            init.insert(s, data.clone());
        }
    }
    let mut vm_wall_us = u64::MAX;
    let mut vm = None;
    for _ in 0..reps.max(1) {
        let machine = Machine::new(nprocs);
        let t0 = Instant::now();
        let r = run_spmd_opts(
            &out.spmd,
            &machine,
            &init,
            &ExecOptions::new().backend(Bytecode),
        );
        vm_wall_us = vm_wall_us.min(t0.elapsed().as_micros() as u64);
        vm = Some(r);
    }
    let native_opts = ExecOptions::new().backend(Native {
        opt_level: 2,
        keep_artifacts: false,
    });
    let mut native_wall_us = u64::MAX;
    let mut build_wall_us = u64::MAX;
    let mut nat = None;
    for _ in 0..reps.max(1) {
        let machine = Machine::new(nprocs);
        let t0 = Instant::now();
        let r = run_spmd_opts(&out.spmd, &machine, &init, &native_opts);
        build_wall_us = build_wall_us.min(t0.elapsed().as_micros() as u64);
        native_wall_us = native_wall_us.min(r.stats.wall_us as u64);
        nat = Some(r);
    }
    let (vm, nat) = (vm.unwrap(), nat.unwrap());
    NativeTiming {
        label: label.into(),
        vm_wall_us: vm_wall_us.max(1),
        native_wall_us: native_wall_us.max(1),
        build_wall_us: build_wall_us.max(1),
        msgs: nat.stats.total_msgs,
        bytes: nat.stats.total_bytes,
        identical: native_outputs_identical(&vm, &nat),
    }
}

/// The `BENCH_native.json` document: dgefa n=256 p=8 under the bytecode
/// VM and as a compiled native process.
pub fn native_report(t: &NativeTiming) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::Int(1)),
        ("experiment".into(), Json::str(&t.label)),
        ("vm_wall_us".into(), Json::Int(t.vm_wall_us as i128)),
        ("native_wall_us".into(), Json::Int(t.native_wall_us as i128)),
        ("build_wall_us".into(), Json::Int(t.build_wall_us as i128)),
        (
            "speedup_x100".into(),
            Json::Int((t.speedup() * 100.0) as i128),
        ),
        ("speedup".into(), Json::str(format!("{:.2}", t.speedup()))),
        ("msgs".into(), Json::Int(t.msgs as i128)),
        ("bytes".into(), Json::Int(t.bytes as i128)),
        ("arrays_match".into(), Json::Bool(t.identical)),
        (
            "rustc".into(),
            Json::str(fortrand_spmd::codegen::rustc_version().unwrap_or_default()),
        ),
    ])
}

/// Opcode-mix profile of one bytecode run (the `tables vmprof` report):
/// dynamic dispatch counts per opcode plus the dispatches that fused
/// kernels retired without entering the dispatch loop.
#[derive(Clone, Debug)]
pub struct VmProfile {
    /// Experiment label, e.g. `dgefa n=64 p=4`.
    pub label: String,
    /// `(opcode, dispatches)` for every opcode that executed at least
    /// once, descending by count.
    pub mix: Vec<(String, u64)>,
    /// Instructions actually dispatched (must equal the sum of `mix`).
    pub engine_instrs: u64,
    /// Dispatches retired inside fused superinstructions.
    pub fused_instrs: u64,
}

impl VmProfile {
    /// Fraction of would-be dispatches that fusion absorbed, in
    /// `[0, 1]`: `fused / (dispatched + fused)`.
    pub fn coverage(&self) -> f64 {
        let total = self.engine_instrs + self.fused_instrs;
        if total == 0 {
            0.0
        } else {
            self.fused_instrs as f64 / total as f64
        }
    }

    /// Sum of the per-opcode counts; the self-check compares this
    /// against `engine_instrs`.
    pub fn mix_total(&self) -> u64 {
        self.mix.iter().map(|(_, c)| c).sum()
    }
}

/// Runs dgefa under the bytecode engine and returns its opcode profile.
pub fn vmprof_dgefa(n: i64, p: usize) -> VmProfile {
    let out = compile(
        &dgefa_source(n, p),
        &CompileOptions::builder()
            .strategy(Strategy::Interprocedural)
            .nprocs(p)
            .dyn_opt(DynOptLevel::Kills)
            .build(),
    )
    .unwrap_or_else(|e| panic!("vmprof dgefa n={n} p={p}: {e}"));
    let mut init = BTreeMap::new();
    init.insert(out.spmd.interner.get("a").unwrap(), dgefa_matrix(n));
    let machine = Machine::new(p);
    let run = try_run_spmd(
        &out.spmd,
        &machine,
        &init,
        &ExecOptions::new().backend(Bytecode),
    )
    .unwrap_or_else(|f| panic!("vmprof dgefa n={n} p={p}: {f}"));
    let mut mix = run.stats.instr_mix.clone();
    mix.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    VmProfile {
        label: format!("dgefa n={n} p={p}"),
        mix,
        engine_instrs: run.stats.engine_instrs,
        fused_instrs: run.stats.fused_instrs,
    }
}

/// The `BENCH_vmprof.json` document for one profile.
pub fn vmprof_report(p: &VmProfile) -> Json {
    Json::Obj(vec![
        ("version".into(), Json::Int(1)),
        ("experiment".into(), Json::str(&p.label)),
        ("engine_instrs".into(), Json::Int(p.engine_instrs as i128)),
        ("fused_instrs".into(), Json::Int(p.fused_instrs as i128)),
        (
            "fusion_coverage_x100".into(),
            Json::Int((p.coverage() * 100.0) as i128),
        ),
        (
            "mix".into(),
            Json::Obj(
                p.mix
                    .iter()
                    .map(|(op, c)| (op.clone(), Json::Int(*c as i128)))
                    .collect(),
            ),
        ),
    ])
}

/// Communication metrics for one simulated run as a JSON object (one
/// entry of the `BENCH_comm.json` artifact; format documented in
/// EXPERIMENTS.md).
fn stats_json(experiment: &str, level: CommOpt, s: &RunStats) -> Json {
    let hist = Json::Obj(
        HIST_LABELS
            .iter()
            .zip(s.msg_hist.iter())
            .map(|(l, &c)| (l.to_string(), Json::Int(c as i128)))
            .collect(),
    );
    let by_tag = Json::Obj(
        s.msgs_by_tag
            .iter()
            .map(|(t, (m, b))| {
                (
                    format!("{t:#x}"),
                    Json::Obj(vec![
                        ("msgs".into(), Json::Int(*m as i128)),
                        ("bytes".into(), Json::Int(*b as i128)),
                    ]),
                )
            })
            .collect(),
    );
    Json::Obj(vec![
        ("experiment".into(), Json::str(experiment)),
        ("comm_opt".into(), Json::str(level.as_str())),
        ("msgs".into(), Json::Int(s.total_msgs as i128)),
        ("bytes".into(), Json::Int(s.total_bytes as i128)),
        // JSON numbers are integers here (see fortrand::json), so the
        // LogGP model time travels as a fixed-point string.
        (
            "model_time_us".into(),
            Json::str(format!("{:.3}", s.time_us)),
        ),
        ("overlap_posts".into(), Json::Int(s.overlap_posts as i128)),
        ("overlap_waits".into(), Json::Int(s.overlap_waits as i128)),
        (
            "overlap_hidden_us".into(),
            Json::str(format!("{:.3}", s.overlap_hidden_us)),
        ),
        ("msg_size_hist".into(), hist),
        ("msgs_by_tag".into(), by_tag),
    ])
}

/// Runs dgefa at `Full` and `Overlap` and returns both stat sets — the
/// input of the overlap-ratio entry in `BENCH_comm.json` and of the CI
/// `sec9-gate` improvement check.
pub fn overlap_comparison(n: i64, p: usize) -> (RunStats, RunStats) {
    let src = dgefa_source(n, p);
    let mut init = BTreeMap::new();
    init.insert("a", dgefa_matrix(n));
    let run = |level| {
        simulate_comm(
            &src,
            Strategy::Interprocedural,
            DynOptLevel::Kills,
            p,
            &init,
            level,
        )
    };
    (run(CommOpt::Full), run(CommOpt::Overlap))
}

/// Percentage of `Full`'s modeled time that `Overlap` shaves off.
pub fn overlap_improve_pct(full: &RunStats, ov: &RunStats) -> f64 {
    100.0 * (full.time_us - ov.time_us) / full.time_us
}

/// The overlap-ratio entry of `BENCH_comm.json` (integer fields are
/// fixed-point ×100 like the sim report's `speedup_x100`).
fn overlap_json(experiment: &str, full: &RunStats, ov: &RunStats) -> Json {
    let pct = overlap_improve_pct(full, ov);
    Json::Obj(vec![
        ("experiment".into(), Json::str(experiment)),
        (
            "full_time_us".into(),
            Json::str(format!("{:.3}", full.time_us)),
        ),
        (
            "overlap_time_us".into(),
            Json::str(format!("{:.3}", ov.time_us)),
        ),
        ("improve_pct_x100".into(), Json::Int((pct * 100.0) as i128)),
        ("improve_pct".into(), Json::str(format!("{pct:.2}"))),
        (
            "traffic_identical".into(),
            Json::Bool(full.total_msgs == ov.total_msgs && full.total_bytes == ov.total_bytes),
        ),
    ])
}

/// The `BENCH_comm.json` document: message counts, volumes and model
/// times for the communication-optimizer experiments — dgefa at each
/// processor count and the Fig. 4 delayed-instantiation program, each at
/// every [`CommOpt`] level — plus the `Overlap`-vs-`Full` modeled-time
/// ratio at the benchmark scale (dgefa n=256 p=8), the figure CI's
/// `sec9-gate` enforces.
pub fn comm_report(n: i64, procs: &[usize]) -> Json {
    const LEVELS: [CommOpt; 4] = [
        CommOpt::Off,
        CommOpt::Coalesce,
        CommOpt::Full,
        CommOpt::Overlap,
    ];
    let mut experiments = Vec::new();
    for &p in procs {
        let src = dgefa_source(n, p);
        let mut init = BTreeMap::new();
        init.insert("a", dgefa_matrix(n));
        for level in LEVELS {
            let s = simulate_comm(
                &src,
                Strategy::Interprocedural,
                DynOptLevel::Kills,
                p,
                &init,
                level,
            );
            experiments.push(stats_json(&format!("dgefa n={n} p={p}"), level, &s));
        }
    }
    let src = fig4_source(100, 4);
    for level in LEVELS {
        let s = simulate_comm(
            &src,
            Strategy::Interprocedural,
            DynOptLevel::Kills,
            4,
            &BTreeMap::new(),
            level,
        );
        experiments.push(stats_json("fig4 trips=100 p=4", level, &s));
    }
    let (full, ov) = overlap_comparison(256, 8);
    Json::Obj(vec![
        ("version".into(), Json::Int(2)),
        ("experiments".into(), Json::Arr(experiments)),
        (
            "overlap".into(),
            Json::Arr(vec![overlap_json("dgefa n=256 p=8", &full, &ov)]),
        ),
    ])
}

/// One point of a weak-scaling curve under the event-driven machine.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Simulated processor count.
    pub nprocs: usize,
    /// Problem size at this point.
    pub n: i64,
    /// Simulated LogGP time (µs).
    pub model_time_us: f64,
    /// Total simulated messages.
    pub msgs: u64,
    /// Total simulated bytes.
    pub bytes: u64,
    /// Event-scheduler task dispatches.
    pub sched_switches: u64,
    /// Peak undelivered messages across all mailboxes.
    pub sched_queue_peak: u64,
    /// Host wall-clock of the simulated run (ms; compile excluded). The
    /// only nondeterministic field — it is what the scale gate budgets.
    pub wall_ms: u64,
}

/// Compiles `src` and runs it once on the event-driven machine.
fn scale_point(
    src: &str,
    n: i64,
    nprocs: usize,
    init_named: &BTreeMap<&str, Vec<f64>>,
) -> ScalePoint {
    let out = compile(
        src,
        &CompileOptions::builder()
            .strategy(Strategy::Interprocedural)
            .dyn_opt(DynOptLevel::Kills)
            .nprocs(nprocs)
            .build(),
    )
    .unwrap_or_else(|e| panic!("compile (p={nprocs}): {e}"));
    let mut init = BTreeMap::new();
    for (name, data) in init_named {
        if let Some(s) = out.spmd.interner.get(name) {
            init.insert(s, data.clone());
        }
    }
    let machine = Machine::new(nprocs); // event-driven by default
    let s = run_spmd(&out.spmd, &machine, &init).stats;
    assert!(
        s.sched_switches > 0,
        "scale experiments must run on the event machine"
    );
    ScalePoint {
        nprocs,
        n,
        model_time_us: s.time_us,
        msgs: s.total_msgs,
        bytes: s.total_bytes,
        sched_switches: s.sched_switches,
        sched_queue_peak: s.sched_queue_peak,
        wall_ms: (s.wall_us / 1000.0) as u64,
    }
}

/// Default processor counts for the dgefa weak-scaling curve. dgefa at
/// n=p keeps one cyclic column per rank, so total simulated work grows
/// as p³ — the curve stops at 1024 to stay inside CI budgets.
pub const SCALE_DGEFA_PROCS: [usize; 4] = [128, 256, 512, 1024];

/// Default processor counts for the stencil weak-scaling curve
/// (constant 16 points per rank, so it reaches 4096 cheaply).
pub const SCALE_RELAX_PROCS: [usize; 6] = [128, 256, 512, 1024, 2048, 4096];

/// Experiment `weakscale/dgefa`: LU factorization with one cyclic
/// column per rank (n = p), far past the threaded machine's p=8
/// ceiling.
pub fn weakscale_dgefa(procs: &[usize]) -> Vec<ScalePoint> {
    procs
        .iter()
        .map(|&p| {
            let n = p as i64;
            let mut init = BTreeMap::new();
            init.insert("a", dgefa_matrix(n));
            scale_point(&dgefa_source(n, p), n, p, &init)
        })
        .collect()
}

/// Experiment `weakscale/relax`: the Fig. 1-style relaxation stencil at
/// a constant 16 points per rank (n = 16·p, BLOCK distributed) — true
/// weak scaling, two sweeps through a subroutine call per step.
pub fn weakscale_relax(procs: &[usize]) -> Vec<ScalePoint> {
    procs
        .iter()
        .map(|&p| {
            let n = 16 * p as i64;
            scale_point(&relax_source(n, 1, 2, p), n, p, &BTreeMap::new())
        })
        .collect()
}

/// One [`ScalePoint`] as a JSON object (one entry of the
/// `BENCH_scale.json` artifact; format documented in EXPERIMENTS.md).
fn scale_json(experiment: &str, pt: &ScalePoint) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::str(experiment)),
        ("nprocs".into(), Json::Int(pt.nprocs as i128)),
        ("n".into(), Json::Int(pt.n as i128)),
        (
            "model_time_us".into(),
            Json::str(format!("{:.3}", pt.model_time_us)),
        ),
        ("msgs".into(), Json::Int(pt.msgs as i128)),
        ("bytes".into(), Json::Int(pt.bytes as i128)),
        (
            "sched_switches".into(),
            Json::Int(pt.sched_switches as i128),
        ),
        (
            "sched_queue_peak".into(),
            Json::Int(pt.sched_queue_peak as i128),
        ),
        ("wall_ms".into(), Json::Int(pt.wall_ms as i128)),
    ])
}

/// The `BENCH_scale.json` document: both weak-scaling curves under the
/// event-driven machine.
pub fn scale_report(dgefa: &[ScalePoint], relax: &[ScalePoint]) -> Json {
    let mut experiments = Vec::new();
    experiments.extend(dgefa.iter().map(|pt| scale_json("dgefa n=p cyclic", pt)));
    experiments.extend(relax.iter().map(|pt| scale_json("relax n=16p block", pt)));
    Json::Obj(vec![
        ("version".into(), Json::Int(1)),
        ("machine".into(), Json::str("event")),
        ("experiments".into(), Json::Arr(experiments)),
    ])
}

/// Renders a weak-scaling curve as a fixed-width table.
pub fn render_scale(title: &str, points: &[ScalePoint]) -> String {
    let mut out = format!("{title}\n{}\n", "-".repeat(title.len()));
    out.push_str(&format!(
        "{:<8} {:>8} {:>14} {:>10} {:>12} {:>12} {:>10} {:>9}\n",
        "p", "n", "model (ms)", "msgs", "bytes", "switches", "queue pk", "wall(ms)"
    ));
    for pt in points {
        out.push_str(&format!(
            "{:<8} {:>8} {:>14.3} {:>10} {:>12} {:>12} {:>10} {:>9}\n",
            pt.nprocs,
            pt.n,
            pt.model_time_us / 1000.0,
            pt.msgs,
            pt.bytes,
            pt.sched_switches,
            pt.sched_queue_peak,
            pt.wall_ms
        ));
    }
    out
}

/// Hand-written SPMD dgefa against the raw machine API — the paper's
/// hand-coded comparison point, the upper bound the compiler should
/// approach. One fused broadcast per elimination step (pivot index +
/// pivot column); every rank computes the multipliers redundantly from
/// the broadcast column (trading replicated flops for a second message),
/// updates only its own cyclic columns, and swaps rows locally.
pub fn hand_dgefa(n: i64, nprocs: usize) -> RunStats {
    use fortrand::corpus::dgefa_matrix;
    let machine = Machine::new(nprocs);
    let a0 = dgefa_matrix(n);
    let n = n as usize;
    machine.run(|node| {
        let me = node.rank();
        let p = node.nprocs();
        // Local column-major storage of the cyclic columns this rank owns.
        let my_cols: Vec<usize> = (0..n).filter(|j| j % p == me).collect();
        let mut cols: Vec<Vec<f64>> = my_cols
            .iter()
            .map(|&j| (0..n).map(|i| a0[i * n + j]).collect())
            .collect();
        for k in 0..n.saturating_sub(1) {
            let owner = k % p;
            // Owner searches the pivot in its copy of column k.
            let payload: Vec<f64> = if me == owner {
                let lc = k / p;
                let col = &cols[lc];
                let mut l = k;
                let mut best = col[k].abs();
                for (i, &v) in col.iter().enumerate().take(n).skip(k + 1) {
                    if v.abs() > best {
                        best = v.abs();
                        l = i;
                    }
                }
                node.charge_flops((n - k) as u64); // |.| compares
                let mut msg = Vec::with_capacity(n - k + 1);
                msg.push(l as f64);
                msg.extend_from_slice(&col[k..n]);
                msg
            } else {
                Vec::new()
            };
            // One fused broadcast: pivot index + raw column k rows k..n.
            let msg = node.bcast(owner, &payload);
            let l = msg[0] as usize;
            let mut piv = msg[1..].to_vec(); // column k, rows k..n, pre-swap
                                             // Everyone swaps rows l and k in their own columns…
            if l != k {
                for c in cols.iter_mut() {
                    c.swap(l, k);
                }
                node.charge_ops(cols.len() as u64 * 3);
                // …and applies the same swap to the broadcast column.
                piv.swap(l - k, 0);
            }
            // Replicated multipliers from the broadcast column.
            let akk = piv[0];
            let mult: Vec<f64> = piv[1..].iter().map(|v| v / akk).collect();
            node.charge_flops((n - k - 1) as u64);
            // Owner stores the multipliers into its column k.
            if me == owner {
                let lc = k / p;
                for (i, m) in mult.iter().enumerate() {
                    cols[lc][k + 1 + i] = *m;
                }
            }
            // Update owned columns j > k.
            for (ci, &j) in my_cols.iter().enumerate() {
                if j <= k {
                    continue;
                }
                let t = cols[ci][k];
                for (i, m) in mult.iter().enumerate() {
                    cols[ci][k + 1 + i] -= t * m;
                }
                node.charge_flops(2 * (n - k - 1) as u64);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_gap_grows_with_n() {
        let rows = exp_resolution(&[64, 256], 4);
        for (label, ct, rt) in &rows {
            assert!(
                rt.time_ms > 5.0 * ct.time_ms,
                "{label}: run-time resolution must be much slower ({} vs {})",
                rt.time_ms,
                ct.time_ms
            );
        }
        // The gap ratio grows with n.
        let r0 = rows[0].2.time_ms / rows[0].1.time_ms;
        let r1 = rows[1].2.time_ms / rows[1].1.time_ms;
        assert!(r1 > r0, "gap must grow: {r0} -> {r1}");
    }

    #[test]
    fn delayed_scales_messages_with_trips() {
        let rows = exp_delayed(&[20, 100], 4);
        // Immediate: msgs grow linearly with trips; interprocedural: flat.
        assert_eq!(rows[0].1.msgs, rows[1].1.msgs, "interprocedural flat");
        assert!(rows[1].2.msgs > 4 * rows[0].2.msgs, "immediate grows");
    }

    #[test]
    fn hand_dgefa_bounds_the_compiler() {
        // The compiler's interprocedural code must be within a small
        // factor of the hand-written SPMD version (the paper's "closely
        // approach the quality of hand-written code").
        let n = 64;
        let p = 4;
        let src = dgefa_source(n, p);
        let mut init = BTreeMap::new();
        init.insert("a", dgefa_matrix(n));
        let compiled = simulate_with(
            &src,
            Strategy::Interprocedural,
            DynOptLevel::Kills,
            p,
            &init,
        );
        let hand = hand_dgefa(n, p);
        assert!(
            compiled.time_us < 6.0 * hand.time_us,
            "compiled {} µs vs hand {} µs",
            compiled.time_us,
            hand.time_us
        );
        assert!(
            hand.time_us <= compiled.time_us,
            "hand-coded is the lower bound"
        );
    }

    #[test]
    fn remap_levels_monotone() {
        let all = exp_remap(&[8], 4);
        let rows = &all[0].1;
        // Remap counts: none ≥ live ≥ hoist ≥ kills.
        assert!(rows[0].remaps > rows[1].remaps);
        assert!(rows[1].remaps >= rows[2].remaps);
        assert!(rows[2].remaps > rows[3].remaps);
        // 16a: 4 remaps per iteration per rank.
        assert_eq!(rows[0].remaps, 4 * 8 * 4);
        // 16d: one remap + one mark, once, per rank.
        assert_eq!(rows[3].remaps, 4);
    }
}
