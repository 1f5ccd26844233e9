//! The traced pass: every call below the facade lives in this file.
//!
//! Each layer is timed from outside, by a span around a call into one of
//! the crates' public functions; nothing is added to the program. The
//! compile stages are driven one by one exactly as `driver::analyze` and
//! `driver::compile_with_trace` drive them, each fed the previous stage's
//! output, and the result must print byte-equal to `Session::compile`'s.
//!
//! Public paths used, beyond the facade of `workloads.rs` and `serve.rs`:
//!
//! - `fortrand_frontend::lexer::lex`, `fortrand_frontend::parse_program`,
//!   `fortrand_frontend::sema::analyze`
//! - `fortrand_analysis::acg::{build_acg, refine_formal_ranges}`,
//!   `fortrand_analysis::reaching::compute_with_stats`,
//!   `fortrand_analysis::side_effects::compute_with_stats`,
//!   `fortrand_analysis::consts::compute_with_stats`
//! - `fortrand::cloning::clone_for_decompositions`,
//!   `fortrand::overlap::compute`, `fortrand::codegen::{compile_all, Ctx}`,
//!   `fortrand::{CompileOptions, CompileMode, CommOpt, Strategy}`,
//!   `fortrand::CompileReport::{pass_stats, store, static_*}`
//! - `fortrand_spmd::opt::optimize`, `fortrand_spmd::print::pretty_all`,
//!   `fortrand_spmd::codegen::emit`
//! - `fortrand::{ExecOptions::{kernels, backend, machine}, Tree, Native,
//!   MachineKind, rustc_available, MemorySink}`, `Session::trace`
//! - `fortrand_machine::{Machine::new, Machine::run, Node::{send, recv,
//!   rank, nprocs}, RunStats, NodeStats::wait_us}`
//! - `fortrand_serve::Server::{handle_line, store}`

use crate::host::{self, CpuSet};
use crate::json::Json;
use crate::serve::{Daemon, Direct, Observed};
use crate::span::Spans;
use crate::stats::{median, pace, summarize};
use crate::workloads::{dgefa_program, edit_leaf, Pipeline, ADI, DGEFA, RELAX};
use fortrand::codegen::{self, Ctx};
use fortrand::{
    CommOpt, CompileMode, CompileOptions, ExecOptions, MachineKind, MemorySink, Native, Session,
    Strategy, Tree,
};
use fortrand_analysis::{acg, consts, reaching, side_effects};
use fortrand_machine::{Machine, RunStats};
use fortrand_spmd::opt;
use fortrand_spmd::print::pretty_all;
use fortrand_trace::Trace;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Per-layer values by metric name, and what the drift guards found.
#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<&'static str, f64>,
    /// Remarks printed beside the table (`unattributed` gaps, a missing
    /// toolchain).
    pub notes: Vec<String>,
    /// Guards that failed; each counts as a failed operation.
    pub failures: Vec<String>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The pace of the spans called `span` — the same statistic as the
    /// untraced timings — as metric `name`.
    fn set_pace(&mut self, spans: &Spans, name: &'static str, span: &str) -> f64 {
        let m = pace(&spans.durations(span));
        self.set(name, m);
        m
    }
}

/// Compile stages of the replica, in driver order, as `(metric, span)`.
/// Their sum against `core.compile_ms` is the drift guard.
const STAGES: [(&str, &str); 7] = [
    ("frontend.parse_ms", "frontend.parse"),
    ("core.cloning_ms", "core.cloning"),
    ("analysis.side_effects_ms", "analysis.side_effects"),
    ("analysis.consts_ms", "analysis.consts"),
    ("core.overlap_ms", "core.overlap"),
    ("core.codegen_ms", "core.codegen"),
    ("spmd.opt_ms", "spmd.opt"),
];

/// One traced iteration: the whole pipeline through the facade, then the
/// same compile stage by stage.
fn traced_iteration(p: &Pipeline, spans: &mut Spans, out: &mut Layers) -> Result<RunStats, String> {
    let src = p.program.src.as_str();
    let root = spans.enter("iteration");

    let id = spans.enter("core.compile");
    let compiled = Session::new(src).compile().map_err(|e| e.to_string())?;
    spans.exit(id);
    let id = spans.enter("spmd.run");
    let run = compiled
        .run_with(&p.init, &ExecOptions::new())
        .map_err(|e| e.to_string())?;
    spans.exit(id);
    spans.time("harness.verify", || p.oracle.verify(&compiled, &run.arrays))?;

    let replica = spans.enter("replica");
    let defaults = CompileOptions::default();
    spans
        .time("frontend.lex", || fortrand_frontend::lexer::lex(src))
        .map_err(|e| e.to_string())?;
    let parsed = spans
        .time("frontend.parse", || fortrand_frontend::parse_program(src))
        .map_err(|e| e.to_string())?;
    {
        // Stand-alone figures for the three analyses the cloning fixpoint
        // repeats once per round; `core.cloning` below contains them.
        let mut copy = parsed.clone();
        let info = spans
            .time("frontend.sema", || {
                fortrand_frontend::sema::analyze(&mut copy)
            })
            .map_err(|e| e.to_string())?;
        let graph = spans.time("analysis.acg", || acg::build_acg(&copy, &info))?;
        spans.time("analysis.reaching", || {
            reaching::compute_with_stats(&copy, &info, &graph)
        });
    }
    let cloned = spans.time("core.cloning", || {
        fortrand::cloning::clone_for_decompositions(parsed, defaults.clone_limit)
    })?;
    let strategy = if cloned.unresolved.is_empty() {
        defaults.strategy
    } else {
        Strategy::RuntimeResolution
    };
    let (prog, info, mut graph) = (cloned.prog, cloned.info, cloned.acg);
    let nprocs = info.n_proc.map_or(1, |v| v as usize).max(1);
    let (se, _) = spans.time("analysis.side_effects", || {
        side_effects::compute_with_stats(&prog, &info, &graph)
    });
    let ic = spans.time("analysis.consts", || {
        let (ic, _) = consts::compute_with_stats(&info, &graph);
        acg::refine_formal_ranges(&mut graph, &info, &|u| ic.params_for(u, &info));
        ic
    });
    let overlaps = spans.time("core.overlap", || {
        fortrand::overlap::compute(&prog, &info, &graph)
    });
    let ctx = Ctx {
        prog: &prog,
        info: &info,
        acg: &graph,
        reaching: &cloned.reaching,
        se: &se,
        consts: &ic,
        overlaps: &overlaps,
        nprocs,
        strategy,
        dyn_opt: defaults.dyn_opt,
    };
    let (mut spmd, _) = spans
        .time("core.codegen", || codegen::compile_all(&ctx, &Trace::off()))
        .map_err(|e| e.to_string())?;
    let report = spans.time("spmd.opt", || opt::optimize(&mut spmd, defaults.comm_opt));
    let printed = spans.time("spmd.print", || pretty_all(&spmd));
    spans.exit(replica);
    spans.exit(root);

    if printed != compiled.emit() {
        out.failures.push(format!(
            "{}: the stage-by-stage replica prints a different node program",
            p.program.name
        ));
        out.set("harness.replica_drift", 1.0);
    }

    // Counts of this iteration (the same every iteration).
    let rep = compiled.report();
    out.set("frontend.src_bytes", src.len() as f64);
    out.set("frontend.units", prog.units.len() as f64);
    out.set(
        "analysis.solve_units",
        rep.pass_stats.iter().map(|s| s.units).sum::<usize>() as f64,
    );
    out.set(
        "analysis.solve_contribs",
        rep.pass_stats
            .iter()
            .map(|s| s.contributions)
            .sum::<usize>() as f64,
    );
    out.set(
        "core.cloning_rounds",
        cloned.reaching_stats.iterations as f64,
    );
    out.set(
        "core.clones",
        cloned.clones.values().map(Vec::len).sum::<usize>() as f64,
    );
    out.set("core.codegen_units", spmd.procs.len() as f64);
    out.set("spmd.opt_eliminated", report.eliminated as f64);
    out.set("spmd.opt_coalesced", report.coalesced as f64);
    out.set("spmd.opt_hoisted", report.hoisted as f64);
    out.set("spmd.static_sends", rep.static_sends as f64);
    out.set("spmd.static_bcasts", rep.static_bcasts as f64);
    out.set("spmd.static_remaps", rep.static_remaps as f64);
    Ok(run.stats)
}

/// A token passed `LAPS` times round a ring of as many ranks as
/// `relax_p256` has, no VM at all: what one scheduler switch costs on its
/// own.
fn ring_us_per_switch() -> f64 {
    const LAPS: usize = 16;
    let stats = Machine::new(256).run(|node| {
        let (rank, p) = (node.rank(), node.nprocs());
        for _ in 0..LAPS {
            if rank == 0 {
                node.send(1, 7, &[1.0]);
                node.recv(p - 1, 7);
            } else {
                let token = node.recv(rank - 1, 7);
                node.send((rank + 1) % p, 7, &token);
            }
        }
    });
    stats.wall_us / stats.sched_switches.max(1) as f64
}

/// The traced pass of one pipeline workload: traced iterations until
/// `more` says stop, then the one-shot reference points. `unpinned` is the
/// affinity mask to lift the pin with, where the child is pinned; `seed`
/// and `scratch` are for the reference points that need inputs of their
/// own or a directory to build in.
pub fn pipeline(
    p: &Pipeline,
    seed: u64,
    scratch: &Path,
    spans: &mut Spans,
    more: &dyn Fn(usize) -> bool,
    unpinned: Option<CpuSet>,
) -> Result<Layers, String> {
    let name = p.program.name;
    let src = p.program.src.as_str();
    let mut out = Layers::default();
    out.set("harness.replica_drift", 0.0);

    let mut stats = None;
    let mut machine_ms = Vec::new();
    let mut iters = 0;
    while iters == 0 || more(iters) {
        spans.set_iter(iters);
        let s = traced_iteration(p, spans, &mut out)?;
        machine_ms.push(s.wall_us / 1e3);
        stats = Some(s);

        // Beside the iteration, not inside it: the same compile on
        // `nproc` codegen workers, and the recompile through the store.
        spans.time("core.codegen_par", || {
            Session::new(src)
                .mode(CompileMode::Parallel(host::nproc()))
                .compile()
                .map(drop)
                .map_err(|e| e.to_string())
        })?;
        // Coefficients half the range away from those the set-up's
        // warm-up iterations put into the store.
        let edited = match p.program.edit {
            Some((leaf, first)) => edit_leaf(src, leaf, first + 1000 + iters).0,
            None => src.to_string(),
        };
        let before = p.store.stats();
        let recompiled = spans
            .time("core.recompile", || {
                Session::new(edited).store(Arc::clone(&p.store)).compile()
            })
            .map_err(|e| e.to_string())?;
        let after = recompiled
            .report()
            .store
            .ok_or("a store-backed compile reports no store")?;
        out.set(
            "core.incr_recompiled_units",
            (after.misses - before.misses) as f64,
        );
        out.set("core.incr_reused_units", (after.hits - before.hits) as f64);
        out.set("core.store_hits", after.hits as f64);
        out.set("core.store_misses", after.misses as f64);
        out.set(
            "core.store_hit_pct",
            100.0 * after.hits as f64 / (after.hits + after.misses).max(1) as f64,
        );
        iters += 1;
    }
    let stats = stats.expect("at least one traced iteration ran");
    out.set("harness.traced_iterations", iters as f64);

    // Stage timings, and the part of the compile they leave unexplained.
    out.set_pace(spans, "frontend.lex_ms", "frontend.lex");
    out.set_pace(spans, "frontend.sema_ms", "frontend.sema");
    out.set_pace(spans, "analysis.acg_ms", "analysis.acg");
    out.set_pace(spans, "analysis.reaching_ms", "analysis.reaching");
    out.set_pace(spans, "core.codegen_par_ms", "core.codegen_par");
    out.set_pace(spans, "core.recompile_ms", "core.recompile");
    out.set_pace(spans, "spmd.print_ms", "spmd.print");
    let compile_ms = out.set_pace(spans, "core.compile_ms", "core.compile");
    let mut staged = 0.0;
    for (metric, span) in STAGES {
        staged += out.set_pace(spans, metric, span);
    }
    out.set("core.driver_rest_ms", compile_ms - staged);
    out.set("core.stages_pct_of_compile", 100.0 * staged / compile_ms);
    let unattributed = (compile_ms - staged).abs() > 0.15 * compile_ms;
    out.set("harness.unattributed", f64::from(u8::from(unattributed)));
    if unattributed {
        out.notes.push(format!(
            "{name}: unattributed: the stages sum to {staged:.3} ms of a {compile_ms:.3} ms compile; \
             the gap is core.driver_rest_ms (report and hashing, private to the driver)"
        ));
    }

    // The run, split at the machine's edge, and the machine's own counts.
    let run_ms = out.set_pace(spans, "spmd.run_ms", "spmd.run");
    let machine_run_ms = pace(&machine_ms);
    out.set("machine.run_ms", machine_run_ms);
    out.set("spmd.run_outside_machine_ms", run_ms - machine_run_ms);
    out.set(
        "core.compile_pct_of_e2e",
        100.0 * compile_ms / (compile_ms + run_ms),
    );
    out.set("harness.traced_e2e_ms", compile_ms + run_ms);
    let ops = stats.engine_instrs + stats.fused_instrs;
    out.set("spmd.vm_instrs", stats.engine_instrs as f64);
    out.set("spmd.vm_fused_instrs", stats.fused_instrs as f64);
    out.set(
        "spmd.vm_fusion_pct",
        100.0 * stats.fused_instrs as f64 / ops.max(1) as f64,
    );
    out.set(
        "spmd.vm_ns_per_op",
        machine_run_ms * 1e6 / ops.max(1) as f64,
    );
    out.set("machine.sched_switches", stats.sched_switches as f64);
    out.set(
        "machine.us_per_switch",
        machine_run_ms * 1e3 / stats.sched_switches.max(1) as f64,
    );
    out.set("machine.sched_ready_peak", stats.sched_ready_peak as f64);
    out.set("machine.sched_queue_peak", stats.sched_queue_peak as f64);
    out.set("machine.pool_allocs", stats.pool_allocs as f64);
    out.set("machine.pool_reuses", stats.pool_reuses as f64);
    out.set(
        "machine.wait",
        stats.per_node.iter().map(|n| n.wait_us).sum(),
    );
    out.set("machine.remaps", stats.total_remaps as f64);
    out.set("core.seq_oracle_ms", p.oracle.wall_ms);

    // The share of the root spans that the stage spans under them cover:
    // what is left is time between stages, in the root or in the replica.
    let root_ms: f64 = spans.durations("iteration").iter().sum();
    let uncovered_ms: f64 = spans
        .ids("iteration")
        .into_iter()
        .chain(spans.ids("replica"))
        .map(|id| spans.self_ms(id))
        .sum();
    out.set(
        "harness.stage_coverage_pct",
        100.0 * (root_ms - uncovered_ms) / root_ms,
    );

    // One-shot reference points: other ways to run the same program.
    let compiled = Session::new(src).compile().map_err(|e| e.to_string())?;
    let mut run_ms = |span: &'static str, opts: ExecOptions| -> Result<f64, String> {
        let id = spans.enter(span);
        let run = compiled.run_with(&p.init, &opts);
        let ms = spans.exit(id);
        p.oracle
            .verify(&compiled, &run.map_err(|e| e.to_string())?.arrays)?;
        Ok(ms)
    };
    if name == DGEFA || name == ADI {
        out.set(
            "spmd.nokernels_run_ms",
            run_ms("ref.nokernels", ExecOptions::new().kernels(false))?,
        );
        out.set(
            "spmd.tree_run_ms",
            run_ms("ref.tree", ExecOptions::new().backend(Tree))?,
        );
        let threaded = ExecOptions::new().machine(MachineKind::Threaded);
        out.set("machine.threaded_run_ms", run_ms("ref.threaded", threaded)?);
    }
    if name == DGEFA || name == RELAX {
        if let (Some(all), Some(pinned)) = (unpinned, host::allowed_cpus()) {
            host::set_affinity(&all);
            let first = run_ms("ref.unpinned", ExecOptions::new());
            let second = run_ms("ref.unpinned", ExecOptions::new());
            host::set_affinity(&pinned);
            out.set("machine.unpinned_run_ms", (first? + second?) / 2.0);
        }
    }
    if name == RELAX {
        out.set(
            "machine.ring_us_per_switch",
            spans.time("ref.ring", ring_us_per_switch),
        );
    }
    if name == DGEFA {
        dgefa_reference_points(p, seed, scratch, spans, &mut out)?;
    }
    out.set("harness.spans", spans.len() as f64);
    Ok(out)
}

/// The paper's strategy comparison, the native backend and the cost of
/// the program's own tracing, all on `dgefa_n256_p8`. The native backend
/// builds under `scratch`.
fn dgefa_reference_points(
    p: &Pipeline,
    seed: u64,
    scratch: &Path,
    spans: &mut Spans,
    out: &mut Layers,
) -> Result<(), String> {
    let src = p.program.src.as_str();
    let run = |p: &Pipeline, session: Session| -> Result<RunStats, String> {
        let compiled = session.compile().map_err(|e| e.to_string())?;
        let run = compiled
            .run_with(&p.init, &ExecOptions::new())
            .map_err(|e| e.to_string())?;
        p.oracle.verify(&compiled, &run.arrays)?;
        Ok(run.stats)
    };
    let overlap = spans.time("ref.overlap", || {
        run(p, Session::new(src).comm_opt(CommOpt::Overlap))
    })?;
    out.set("spmd.overlap_model_time", overlap.time_us);

    // The three strategies side by side, on a 64 × 64 matrix: run-time
    // resolution sends a message per element, 5.3 M of them at n = 256
    // (58 s of wall time), 84 k at n = 64.
    let small = Pipeline::for_program(dgefa_program(64, seed), 0)?;
    let src64 = small.program.src.as_str();
    let interproc = spans.time("ref.n64_interproc", || run(&small, Session::new(src64)))?;
    out.set("spmd.n64_interproc_msgs", interproc.total_msgs as f64);
    out.set("spmd.n64_interproc_model_time", interproc.time_us);
    let immediate = spans.time("ref.n64_immediate", || {
        run(&small, Session::new(src64).strategy(Strategy::Immediate))
    })?;
    out.set("spmd.n64_immediate_msgs", immediate.total_msgs as f64);
    out.set("spmd.n64_immediate_model_time", immediate.time_us);
    let rtr = spans.time("ref.n64_rtr", || {
        run(
            &small,
            Session::new(src64).strategy(Strategy::RuntimeResolution),
        )
    })?;
    out.set("spmd.n64_rtr_msgs", rtr.total_msgs as f64);
    out.set("spmd.n64_rtr_model_time", rtr.time_us);

    // The program's existing tracing, measured from outside: the same
    // source → arrays with a sink attached.
    let (sink, events) = MemorySink::new();
    let id = spans.enter("ref.program_trace");
    let compiled = Session::new(src)
        .trace(sink)
        .compile()
        .map_err(|e| e.to_string())?;
    compiled
        .run_with(&p.init, &ExecOptions::new())
        .map_err(|e| e.to_string())?;
    let traced_ms = spans.exit(id);
    let untraced_ms = out.values["harness.traced_e2e_ms"];
    out.set("trace.events", events.lock().map_or(0, |e| e.len()) as f64);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - untraced_ms) / untraced_ms,
    );

    let compiled = Session::new(src).compile().map_err(|e| e.to_string())?;
    let emitted = spans.time("native.emit", || {
        fortrand_spmd::codegen::emit(compiled.spmd())
    });
    out.set_pace(spans, "native.emit_ms", "native.emit");
    out.set("native.emit_bytes", emitted.len() as f64);
    if fortrand::rustc_available() {
        // The backend builds under the system's temporary directory;
        // keep that inside the benchmark's own.
        std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        std::env::set_var("TMPDIR", scratch);
        let id = spans.enter("native.build_and_run");
        let run = compiled
            .run_with(&p.init, &ExecOptions::new().backend(Native::default()))
            .map_err(|e| e.to_string())?;
        let total_ms = spans.exit(id);
        p.oracle.verify(&compiled, &run.arrays)?;
        out.set("native.build_and_run_ms", total_ms);
        out.set("native.run_ms", run.stats.wall_us / 1e3);
        out.set("native.build_ms", total_ms - run.stats.wall_us / 1e3);
    } else {
        out.notes
            .push("native.*: no rustc on this host, reported as 0".into());
    }
    Ok(())
}

/// Sessions replayed without a socket.
const DIRECT_SESSIONS: usize = 100;

/// The traced pass of `serve_edit_loop`: the same closed loop with a span
/// per request, then up to `DIRECT_SESSIONS` sessions straight into
/// `Server::handle_line`. Returns the layer values, what the client saw
/// over the socket, and the spans of both.
pub fn serve(
    daemon: &Daemon,
    seed: u64,
    until: &dyn Fn(usize) -> bool,
) -> Result<(Layers, Observed, Json), String> {
    let mut out = Layers::default();
    let mut wire = daemon.closed_loop(seed, true, until)?;
    let client_spans = wire.spans.take().expect("the traced loop keeps spans");

    let mut direct = Observed {
        spans: Some(Spans::new()),
        ..Observed::default()
    };
    let sessions = wire.session.len().min(DIRECT_SESSIONS);
    for s in 0..sessions {
        let variant = &daemon.inputs.variants[s % daemon.inputs.variants.len()];
        direct.session(&mut Direct(&daemon.server), &format!("direct-{s}"), variant);
    }
    out.failures.extend(direct.failures.iter().cloned());
    let spans = client_spans.len() + direct.spans.as_ref().map_or(0, Spans::len);
    let trace = Json::obj([
        ("client", client_spans.to_json()),
        (
            "handle_line",
            direct.spans.take().map_or(Json::Null, |s| s.to_json()),
        ),
    ]);

    let compiles = summarize(&wire.compiles());
    let handle_ms = median(&direct.compiles());
    out.set("serve.open_p50_ms", median(&wire.open));
    out.set("serve.edit_p50_ms", median(&wire.edit));
    out.set("serve.compile_p50_ms", compiles.median);
    out.set("serve.compile_tail_ms", compiles.tail_value());
    out.set(
        "serve.compile_tail_percentile",
        compiles.tail.map_or(50.0, |(p, _)| p),
    );
    out.set("serve.run_p50_ms", median(&wire.run));
    out.set("serve.close_p50_ms", median(&wire.close));
    out.set("serve.handle_compile_p50_ms", handle_ms);
    out.set("serve.wire_ms", compiles.median - handle_ms);
    let store = daemon.server.store().stats();
    out.set(
        "serve.store_hit_pct",
        100.0 * store.hits as f64 / (store.hits + store.misses).max(1) as f64,
    );
    out.set("serve.bytes_in", wire.bytes_in as f64);
    out.set("serve.bytes_out", wire.bytes_out as f64);
    out.set("serve.incr_recompiled_units", median(&wire.recompiled));
    out.set("serve.incr_reused_units", median(&wire.reused));
    out.set("harness.traced_iterations", wire.session.len() as f64);
    out.set("harness.traced_e2e_ms", pace(&wire.session));
    out.set("harness.spans", spans as f64);
    Ok((out, wire, trace))
}
