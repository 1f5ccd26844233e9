//! # fortrand-bench
//!
//! Experiment harness: every table and figure of the paper maps to a
//! function here (see DESIGN.md §5 for the index). The `tables` binary
//! prints the artifacts, and [`counters_report`] collects the exact
//! counters into `BENCH.json`.
//!
//! Quantitative experiments report *simulated* machine metrics
//! (LogGP-model time, message counts, bytes) — the quantities the paper's
//! iPSC/860 measurements correspond to — and dispatch, fusion and
//! scheduler counts, all deterministic. Host wall clock is measured and
//! judged in one place, `benchmark/`; nothing here records or compares
//! it. See EXPERIMENTS.md for the paper-vs-measured record.

#![forbid(unsafe_code)]

use fortrand::corpus::{dgefa_matrix, dgefa_source, fig15_source, fig4_source, relax_source};
use fortrand::json::Json;
use fortrand::{CommOpt, CompileOptions, DynOptLevel, Strategy};
use fortrand_machine::{Machine, RunStats, HIST_LABELS};
use fortrand_spmd::{try_run_spmd, Bytecode, ExecOptions, RunOutcome, SpmdProgram};
use std::collections::BTreeMap;

/// The compile/run call shapes shared with the root integration tests —
/// one definition for both (`tests/common/mod.rs`).
#[path = "../../../tests/common/mod.rs"]
mod common;
pub use common::{compile, run_spmd};

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

/// Runs `src` under the bytecode engine (interprocedural, `Kills`) with
/// `init` as the named initial arrays and returns its opcode profile.
fn vmprof(label: String, src: &str, p: usize, init: &[(&str, Vec<f64>)]) -> VmProfile {
    let out = compile(
        src,
        &CompileOptions::builder()
            .strategy(Strategy::Interprocedural)
            .nprocs(p)
            .dyn_opt(DynOptLevel::Kills)
            .build(),
    )
    .unwrap_or_else(|e| panic!("vmprof {label}: {e}"));
    let init = init
        .iter()
        .map(|(name, data)| (out.spmd.interner.get(name).unwrap(), data.clone()))
        .collect();
    let machine = Machine::new(p);
    let run = try_run_spmd(
        &out.spmd,
        &machine,
        &init,
        &ExecOptions::new().backend(Bytecode),
    )
    .unwrap_or_else(|f| panic!("vmprof {label}: {f}"));
    let mut mix = run.stats.instr_mix.clone();
    mix.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    VmProfile {
        label,
        mix,
        engine_instrs: run.stats.engine_instrs,
        fused_instrs: run.stats.fused_instrs,
    }
}

/// The opcode profile of dgefa on an `n × n` matrix over `p` ranks.
pub fn vmprof_dgefa(n: i64, p: usize) -> VmProfile {
    let src = dgefa_source(n, p);
    vmprof(
        format!("dgefa n={n} p={p}"),
        &src,
        p,
        &[("a", dgefa_matrix(n))],
    )
}

/// The opcode profile of the relax stencil (shift 1, `steps` double
/// sweeps, zero arrays) on `n` points over `p` ranks.
pub fn vmprof_relax(n: i64, steps: i64, p: usize) -> VmProfile {
    let src = relax_source(n, 1, steps, p);
    vmprof(format!("relax n={n} steps={steps} p={p}"), &src, p, &[])
}

/// The `vmprof` entry of `BENCH.json` for one profile.
pub fn vmprof_report(p: &VmProfile) -> Json {
    Json::Obj(vec![
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
/// `experiments` entry of `BENCH.json`; format documented in
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
        // The LogGP model time travels as a fixed-point string, not a
        // `Json::Num`, so that BENCH.json keeps its byte form.
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

/// The `overlap` entry of `BENCH.json`: what `Overlap` shaves off
/// `Full`'s modelled time (integer fields are fixed-point ×100).
fn overlap_json(experiment: &str, full: &RunStats, ov: &RunStats) -> Json {
    let pct = 100.0 * (full.time_us - ov.time_us) / full.time_us;
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

/// The `BENCH.json` document — every exact counter this harness reports,
/// and no host time: message counts, volumes and model times of dgefa
/// n=64 at p = 1, 2, 4, 8 and the Fig. 4 delayed-instantiation program at
/// every [`CommOpt`] level; the `Overlap`-vs-`Full` modelled-time ratio
/// at the benchmark scale (dgefa n=256 p=8); the VM's opcode mix on dgefa
/// n=64 p=4; and the weak-scaling curves up to the sizes that run in
/// under a second. `tests/bench_json.rs` holds the committed copy to it
/// byte for byte.
pub fn counters_report() -> Json {
    const LEVELS: [CommOpt; 4] = [
        CommOpt::Off,
        CommOpt::Coalesce,
        CommOpt::Full,
        CommOpt::Overlap,
    ];
    let run = |src: &str, p: usize, init: &BTreeMap<&str, Vec<f64>>, level: CommOpt| {
        let (strategy, dyn_opt) = (Strategy::Interprocedural, DynOptLevel::Kills);
        simulate_comm(src, strategy, dyn_opt, p, init, level)
    };
    let dgefa = |n: i64, p: usize, level: CommOpt| {
        let init = BTreeMap::from([("a", dgefa_matrix(n))]);
        run(&dgefa_source(n, p), p, &init, level)
    };
    let mut experiments = Vec::new();
    for p in [1, 2, 4, 8] {
        for level in LEVELS {
            let s = dgefa(64, p, level);
            experiments.push(stats_json(&format!("dgefa n=64 p={p}"), level, &s));
        }
    }
    let fig4 = fig4_source(100, 4);
    for level in LEVELS {
        let s = run(&fig4, 4, &BTreeMap::new(), level);
        experiments.push(stats_json("fig4 trips=100 p=4", level, &s));
    }
    let overlap = overlap_json(
        "dgefa n=256 p=8",
        &dgefa(256, 8, CommOpt::Full),
        &dgefa(256, 8, CommOpt::Overlap),
    );
    let mut scale = Vec::new();
    scale.extend(
        weakscale_dgefa(&SCALE_DGEFA_PROCS[..2])
            .iter()
            .map(|pt| scale_json("dgefa n=p cyclic", pt)),
    );
    scale.extend(
        weakscale_relax(&SCALE_RELAX_PROCS)
            .iter()
            .map(|pt| scale_json("relax n=16p block", pt)),
    );
    Json::Obj(vec![
        ("version".into(), Json::Int(2)),
        ("experiments".into(), Json::Arr(experiments)),
        ("overlap".into(), Json::Arr(vec![overlap])),
        ("vmprof".into(), vmprof_report(&vmprof_dgefa(64, 4))),
        ("scale".into(), Json::Arr(scale)),
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
    /// Host wall-clock of the simulated run (ms; compile excluded): one
    /// unrepeated sample, printed by `tables weakscale` and recorded
    /// nowhere.
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
/// as p³ — the curve stops at 1024 (seconds of host time); `BENCH.json`
/// keeps the first two points.
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

/// The exact columns of one [`ScalePoint`] as a JSON object (one `scale`
/// entry of `BENCH.json`; format documented in EXPERIMENTS.md).
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
