//! Regenerates every table and figure of the paper (DESIGN.md §5 index).
//!
//! ```text
//! cargo run -p fortrand-bench --bin tables -- all
//! cargo run -p fortrand-bench --bin tables -- fig2 fig3 tab1 sec9
//! ```
//!
//! `all` (or no verb) is the paper: every entry of [`PAPER`]. The
//! [`REPORTS`] are printed when asked for by name.
//!
//! `--json` additionally writes `BENCH.json`, the exact-counter document
//! (`fortrand_bench::counters_report`; the committed copy is pinned by
//! `tests/bench_json.rs`).
//!
//! `--trace out.json` additionally runs a traced dgefa n=256 p=8
//! compile-and-run and writes a Chrome trace-event file (load it at
//! `chrome://tracing` or <https://ui.perfetto.dev>) with the compile-phase
//! spans and the per-rank simulated message timeline; the file is
//! self-validated before exit.

#![forbid(unsafe_code)]

use fortrand::corpus::{dgefa_matrix, dgefa_source};
use fortrand::recompile;
use fortrand::{record_exec_stats, Bytecode, DynOptLevel, ExecOptions, Session, Strategy, Tree};
use fortrand_analysis::acg::build_acg;
use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};
use fortrand_analysis::reaching;
use fortrand_bench::{
    exp_delayed, exp_dgefa, exp_remap, exp_resolution, render_rows, run_spmd_opts,
};
use fortrand_spmd::print::{pretty, pretty_all};

/// The paper's figures, tables and experiments: what `all` prints.
const PAPER: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "tab1",
    "passes",
    "fig4",
    "fig5",
    "fig7",
    "fig8",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig16",
    "bench-resolution",
    "bench-delayed",
    "bench-remap",
    "ablation-alpha",
    "sec8",
    "sec9",
];

/// Reports on this implementation rather than the paper, printed only
/// when named (`weakscale` takes minutes: it reaches dgefa p=1024).
const REPORTS: &[&str] = &["vmprof", "weakscale"];

fn usage() -> ! {
    eprintln!(
        "usage: tables [all | VERB...] [--json] [--trace FILE]\n\
         paper (what `all` prints): {}\n\
         reports (by name only):    {}",
        PAPER.join(" "),
        REPORTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut verbs: Vec<String> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--trace" => {
                trace_path = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--trace requires a file path");
                    usage()
                }))
            }
            v if v == "all" || PAPER.contains(&v) || REPORTS.contains(&v) => verbs.push(a),
            other => {
                eprintln!("tables: unknown argument `{other}`");
                usage();
            }
        }
    }
    let all = verbs.is_empty() || verbs.iter().any(|a| a == "all");
    let want = |name: &str| {
        debug_assert!(PAPER.contains(&name) || REPORTS.contains(&name), "{name}");
        verbs.iter().any(|a| a == name) || (all && PAPER.contains(&name))
    };

    if want("fig1") {
        banner("FIG 1 — input program");
        println!("{}", FIG1.trim());
    }
    if want("fig2") {
        banner("FIG 2 — Fortran D compiler output (interprocedural)");
        let out = Session::new(FIG1).compile().unwrap().into_output();
        println!("{}", pretty_all(&out.spmd));
    }
    if want("fig3") {
        banner("FIG 3 — run-time resolution output");
        let out = Session::new(FIG1)
            .strategy(Strategy::RuntimeResolution)
            .compile()
            .unwrap()
            .into_output();
        println!("{}", pretty_all(&out.spmd));
    }
    if want("tab1") {
        banner("TABLE 1 — interprocedural dataflow problems");
        println!("{}", fortrand_analysis::registry::render_table1());
        // Live solve statistics for the framework-backed rows, from a
        // compile of Fig. 4 (dynamic — not part of the golden table).
        let out = Session::new(FIG4).compile().unwrap().into_output();
        println!("framework solver runs (Fig. 4 compile):");
        for st in &out.report.pass_stats {
            println!("  {}", st.render());
        }
    }
    if want("passes") {
        banner("PASSES — framework solver statistics per compile");
        for (label, src, with_matrix, comm_opt) in [
            ("fig1", FIG1.to_string(), false, fortrand::CommOpt::Full),
            ("fig4", FIG4.to_string(), false, fortrand::CommOpt::Full),
            ("fig15", FIG15.to_string(), false, fortrand::CommOpt::Full),
            (
                "dgefa n=64 p=4",
                dgefa_source(64, 4),
                true,
                fortrand::CommOpt::Full,
            ),
            (
                "dgefa n=64 p=4 overlap",
                dgefa_source(64, 4),
                true,
                fortrand::CommOpt::Overlap,
            ),
        ] {
            let mut out = Session::new(src.as_str())
                .comm_opt(comm_opt)
                .compile()
                .unwrap()
                .into_output();
            // Execution cost rides along with the solver rows: one
            // simulated run per engine, folded into pass_stats.
            let mut init = std::collections::BTreeMap::new();
            if with_matrix {
                init.insert(out.spmd.interner.get("a").unwrap(), dgefa_matrix(64));
            }
            for opts in [
                ExecOptions::new().backend(Tree),
                ExecOptions::new().backend(Bytecode),
            ] {
                let machine = fortrand_machine::Machine::new(out.spmd.nprocs);
                let res = run_spmd_opts(&out.spmd, &machine, &init, &opts);
                record_exec_stats(&mut out.report, opts.backend.name(), &res.stats);
            }
            println!("{label}:");
            for st in &out.report.pass_stats {
                println!("  {}", st.render());
            }
        }
    }
    if want("fig4") {
        banner("FIG 4 — input program");
        println!("{}", FIG4.trim());
    }
    if want("fig5") {
        banner("FIG 5 — augmented call graph");
        let (prog, info) = fortrand_frontend::load_program(FIG4).unwrap();
        let acg = build_acg(&prog, &info).unwrap();
        for &u in &acg.topo {
            let name = prog.interner.name(u);
            println!("node {name}");
            for e in acg.calls.get(&u).into_iter().flatten() {
                let loops: Vec<String> = e
                    .loops
                    .iter()
                    .map(|l| format!("loop {}", prog.interner.name(l.var)))
                    .collect();
                println!(
                    "  call {} [{}]",
                    prog.interner.name(e.callee),
                    if loops.is_empty() {
                        "no enclosing loop".into()
                    } else {
                        loops.join(" > ")
                    }
                );
            }
        }
        println!("annotations:");
        for (&(u, f), &(lo, hi)) in &acg.formal_ranges {
            println!(
                "  formal {} of {} iterates {lo}:{hi}",
                prog.interner.name(f),
                prog.interner.name(u)
            );
        }
    }
    if want("fig7") {
        banner("FIG 7 — reaching decompositions for Fig. 4");
        let (prog, info) = fortrand_frontend::load_program(FIG4).unwrap();
        let acg = build_acg(&prog, &info).unwrap();
        let rd = reaching::compute(&prog, &info, &acg);
        for (unit, vars) in &rd.reaching {
            for (var, specs) in vars {
                let spellings: Vec<String> = specs.iter().map(|s| s.spelling()).collect();
                println!(
                    "Reaching({}) [{}] = {{ {} }}",
                    prog.interner.name(*unit),
                    prog.interner.name(*var),
                    spellings.join(", ")
                );
            }
        }
    }
    if want("fig8") {
        banner("FIG 8 — procedure cloning for Fig. 4");
        let out = Session::new(FIG4).compile().unwrap().into_output();
        for (orig, clones) in &out.report.clones {
            println!("{orig} -> {}", clones.join(", "));
        }
    }
    if want("fig10") {
        banner("FIG 10 — interprocedural compiler output for Fig. 4");
        let out = Session::new(FIG4).compile().unwrap().into_output();
        println!("{}", pretty_all(&out.spmd));
    }
    if want("fig11") {
        banner("FIG 11 — communication plan (static counts)");
        let out = Session::new(FIG4).compile().unwrap().into_output();
        println!(
            "vectorized section sends: {}   broadcasts: {}   element messages: {}",
            out.report.static_sends, out.report.static_bcasts, out.report.static_elem_msgs
        );
    }
    if want("fig12") {
        banner("FIG 12 — immediate instantiation output for Fig. 4");
        let out = Session::new(FIG4)
            .strategy(Strategy::Immediate)
            .compile()
            .unwrap()
            .into_output();
        println!("{}", pretty_all(&out.spmd));
    }
    if want("fig13") {
        banner("FIG 13 — overlap offsets for Fig. 4");
        let (prog, info) = fortrand_frontend::load_program(FIG4).unwrap();
        let acg = build_acg(&prog, &info).unwrap();
        let ov = fortrand::overlap::compute(&prog, &info, &acg);
        for ((unit, array), w) in &ov.widths {
            let w_str: Vec<String> = w.iter().map(|&(lo, hi)| format!("(-{lo},+{hi})")).collect();
            println!(
                "{}::{} overlap {}",
                prog.interner.name(*unit),
                prog.interner.name(*array),
                w_str.join(" x ")
            );
        }
    }
    if want("fig14") {
        banner("FIG 14 — parameterized overlaps (computed display form)");
        // The alternative of §5.6: instead of statically widened formal
        // declarations, pass each array's (lo, hi) bounds — known after
        // compiling the main program — as extra run-time arguments. We
        // render this view from the *computed* overlap table (the
        // underlying executable codegen uses statically widened bounds).
        let (prog, info) = fortrand_frontend::load_program(FIG1).unwrap();
        let acg = build_acg(&prog, &info).unwrap();
        let ov = fortrand::overlap::compute(&prog, &info, &acg);
        for u in &prog.units {
            let name = prog.interner.name(u.name).to_uppercase();
            let is_main = u.kind == fortrand_frontend::UnitKind::Program;
            for (&f, vi) in &info.unit(u.name).vars {
                if !vi.is_array() {
                    continue;
                }
                let fname = prog.interner.name(f).to_uppercase();
                let (lo_w, hi_w) = ov
                    .of(u.name, f)
                    .and_then(|w| w.first().copied())
                    .unwrap_or((0, 0));
                // Local block extent on 4 processors.
                let local = vi.dims[0] / 4;
                let (lo, hi) = (1 - lo_w, local + hi_w);
                if is_main {
                    println!("{name}: REAL {fname}({lo}:{hi}); call F1({fname},{lo},{hi})");
                } else if vi.is_formal {
                    println!(
                        "{name}: SUBROUTINE {name}({fname},{fname}lo,{fname}hi); \
                         REAL {fname}({fname}lo:{fname}hi)"
                    );
                }
            }
        }
    }
    if want("fig16") {
        banner("FIG 16 — dynamic decomposition optimization levels");
        for (label, lvl) in [
            ("16a no optimization", DynOptLevel::None),
            ("16b live decompositions", DynOptLevel::Live),
            ("16c loop-invariant", DynOptLevel::Hoist),
            ("16d array kills", DynOptLevel::Kills),
        ] {
            let out = Session::new(FIG15)
                .dyn_opt(lvl)
                .compile()
                .unwrap()
                .into_output();
            println!(
                "{label:<26} remap stmts: {}  mark-only: {}",
                out.report.static_remaps, out.report.static_marks
            );
            let main_text = pretty(&out.spmd, out.spmd.main);
            for line in main_text
                .lines()
                .filter(|l| l.contains("remap") || l.contains("mark"))
            {
                println!("    {}", line.trim());
            }
        }
    }
    if want("bench-resolution") {
        banner("EXP fig2-vs-fig3 — compile-time vs run-time resolution");
        for (label, ct, rt) in exp_resolution(&[64, 256, 1024], 4) {
            println!("{}", render_rows(&label, "strategy", &[ct, rt]));
        }
    }
    if want("bench-delayed") {
        banner("EXP fig10-vs-fig12 — delayed vs immediate instantiation");
        for (label, a, b) in exp_delayed(&[10, 50, 100], 4) {
            println!("{}", render_rows(&label, "strategy", &[a, b]));
        }
    }
    if want("bench-remap") {
        banner("EXP fig16-perf — remap optimization levels");
        for (label, rows) in exp_remap(&[4, 16], 4) {
            println!("{}", render_rows(&label, "level", &rows));
        }
    }
    if want("ablation-alpha") {
        banner("ABLATION — message startup cost α vs delayed instantiation win");
        println!(
            "{:<12} {:>16} {:>16} {:>8}",
            "alpha (us)", "interproc (us)", "immediate (us)", "ratio"
        );
        for (a, inter, imm) in fortrand_bench::ablation_alpha(&[0.0, 5.0, 25.0, 75.0, 300.0], 4) {
            println!(
                "{:<12} {:>16.1} {:>16.1} {:>8.2}",
                a,
                inter,
                imm,
                imm / inter
            );
        }
    }
    if want("sec8") {
        banner("SEC 8 — recompilation analysis scenarios");
        let db0 = Session::new(FIG4).compile().unwrap().report().db.clone();
        let scenarios = [
            ("no edit", FIG4.to_string()),
            ("local body edit in F2", FIG4.replace("0.5 *", "0.25 *")),
            (
                "stencil width edit in F2",
                FIG4.replace("Z(k+5,i)", "Z(k+7,i)")
                    .replace("do k = 1,95", "do k = 1,93"),
            ),
            (
                "distribution edit in P1",
                FIG4.replace("(BLOCK,:)", "(:,BLOCK)"),
            ),
        ];
        for (label, src) in scenarios {
            let out = Session::new(src.as_str()).compile().unwrap();
            let plan = recompile::plan(&db0, &out.report().db);
            println!(
                "{label:<28} recompiled {:>2}/{:<2} units  ({})",
                plan.recompile.len(),
                plan.recompile.len() + plan.skip.len(),
                plan.recompile
                    .iter()
                    .map(|(k, r)| format!("{k}:{r:?}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
        }
    }
    if want("sec9") {
        banner("SEC 9 — dgefa case study (n=64, strategies x processors)");
        for (p, rows) in exp_dgefa(64, &[1, 2, 4, 8]) {
            println!(
                "{}",
                render_rows(&format!("{p} processors"), "strategy", &rows)
            );
        }
        banner("SEC 9 — dgefa speedups (interprocedural, n=256)");
        for (p, s) in
            fortrand_bench::dgefa_speedups(256, &[1, 2, 4, 8, 16], Strategy::Interprocedural)
        {
            println!("p={p:<3} speedup {s:.2}");
        }
    }
    if want("vmprof") {
        banner("VM PROFILE — opcode mix and fusion coverage");
        for prof in [
            fortrand_bench::vmprof_dgefa(64, 4),
            fortrand_bench::vmprof_relax(256, 8, 16),
        ] {
            println!("{}:", prof.label);
            println!("{:<14} {:>12} {:>7}", "opcode", "dispatches", "%");
            for (op, count) in &prof.mix {
                println!(
                    "{:<14} {:>12} {:>6.1}%",
                    op,
                    count,
                    100.0 * *count as f64 / prof.engine_instrs.max(1) as f64
                );
            }
            println!(
                "dispatched {} + fused {} = {} retired; fusion coverage {:.1}%",
                prof.engine_instrs,
                prof.fused_instrs,
                prof.engine_instrs + prof.fused_instrs,
                100.0 * prof.coverage()
            );
            // Self-validation: the profiler counts every dispatch exactly
            // once, so the mix must sum to the engine's dispatch counter.
            if prof.mix_total() != prof.engine_instrs {
                eprintln!(
                    "VMPROF SELF-CHECK FAIL ({}): opcode mix sums to {} but the \
                     engine dispatched {}",
                    prof.label,
                    prof.mix_total(),
                    prof.engine_instrs
                );
                std::process::exit(1);
            }
            println!(
                "self-check passed: mix sums to engine_instrs ({})\n",
                prof.engine_instrs
            );
        }
    }
    if want("weakscale") {
        banner("WEAK SCALING — event machine, p=128..4096");
        let dgefa = fortrand_bench::weakscale_dgefa(&fortrand_bench::SCALE_DGEFA_PROCS);
        let relax = fortrand_bench::weakscale_relax(&fortrand_bench::SCALE_RELAX_PROCS);
        println!(
            "{}",
            fortrand_bench::render_scale("dgefa n=p (one cyclic column per rank)", &dgefa)
        );
        println!(
            "{}",
            fortrand_bench::render_scale("relax n=16p (16 block points per rank)", &relax)
        );
        println!("wall(ms) is one unrepeated sample on this host; nothing records or judges it.");
    }
    if json {
        let doc = fortrand_bench::counters_report();
        std::fs::write("BENCH.json", doc.pretty()).expect("write BENCH.json");
        println!("wrote BENCH.json");
    }
    if let Some(path) = trace_path {
        write_trace_artifact(&path);
    }
}

/// Compiles and runs dgefa n=256 p=8 with tracing on, streams the Chrome
/// trace to `path`, and self-validates the file (nonzero exit when the
/// export is malformed — this is the CI check for the trace artifact).
fn write_trace_artifact(path: &str) {
    banner("TRACE — dgefa n=256 p=8, Chrome trace-event export");
    let n = 256;
    let p = 8;
    let src = dgefa_source(n, p);
    let file = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("create {path}: {e}");
        std::process::exit(1);
    });
    let compiled = fortrand::Session::new(src.as_str())
        .strategy(Strategy::Interprocedural)
        .trace(fortrand::ChromeTraceSink::new(std::io::BufWriter::new(
            file,
        )))
        .compile()
        .expect("traced compile");
    let mut init = std::collections::BTreeMap::new();
    init.insert(compiled.spmd().interner.get("a").unwrap(), dgefa_matrix(n));
    let res = compiled.run(&init).expect("traced run");
    println!(
        "traced run: simulated {:.3} ms, {} msgs, {} bytes",
        res.stats.time_ms(),
        res.stats.total_msgs,
        res.stats.total_bytes
    );
    compiled.finish_trace().expect("flush trace");
    let text = std::fs::read_to_string(path).expect("re-read trace file");
    match fortrand_trace::chrome::validate(&text) {
        Ok(s) => {
            let compile_tracks = s.tracks.iter().filter(|t| t.0 == 1).count();
            let machine_tracks = s.tracks.iter().filter(|t| t.0 == 2).count();
            println!(
                "trace OK: {} events ({} spans, {} instants, {} counters) on \
                 {} compile + {} machine tracks -> {path}",
                s.events, s.spans, s.instants, s.counters, compile_tracks, machine_tracks
            );
            if compile_tracks == 0 || machine_tracks == 0 {
                eprintln!("TRACE INVALID: missing compile or machine timeline");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("TRACE INVALID: {e}");
            std::process::exit(1);
        }
    }
}

fn banner(title: &str) {
    println!("\n==== {title} ====");
}
