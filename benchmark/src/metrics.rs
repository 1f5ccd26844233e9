//! Every metric and workload the benchmark reports, by name. The
//! `describe` subcommand prints `BENCHMARK.json` from these tables, and
//! the smoke test checks the committed file against them.

use crate::json::Json;
use crate::workloads::{ADI, DGEFA, RELAX, SERVE, WIDE};

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// Workloads with the reason each was chosen.
pub const WORKLOADS: [(&str, &str); 5] = [
    (DGEFA, "The paper's case study (LU, CYCLIC columns, a pivot broadcast per step): VM kernels do the work, compile and scheduler almost none."),
    (RELAX, "1-D stencil on 256 ranks, 16 elements each, 160 double sweeps: no fused work, 82k messages, 33k scheduler switches: the machine scheduler does the work."),
    (ADI, "Dynamic data decomposition: 3.67 MB in 448 remap messages; the one workload slower than its sequential oracle, so the remap path shows here."),
    (WIDE, "301 units, 105 kB of source: compile-dominated; the store-backed one-leaf recompile uses the same compile layers for reads."),
    (SERVE, "A closed-loop client on an in-process daemon: open, compile, edit, compile, run over a socket; serve, store, incremental and json do the work."),
];

/// End-to-end metrics with the share of the parent's value each may
/// worsen by. Every workload reports every one of them; what each means
/// on `serve_edit_loop` is in README.md. The wall-clock bounds are as wide
/// as a bound may be: on a host that runs at two thirds of its speed for
/// minutes at a time, ten runs spread 2 to 8 % in a calm hour and up to
/// 20 % in a disturbed one.
pub const END_TO_END: [(Metric, f64); 11] = [
    (lower("setup_s", "s"), 0.25),
    (lower("e2e_wall_ms", "ms"), 0.25),
    (lower("compile_wall_ms", "ms"), 0.25),
    (lower("run_wall_ms", "ms"), 0.25),
    (lower("recompile_wall_ms", "ms"), 0.25),
    (higher("ops_per_s", "1/s"), 0.25),
    (lower("peak_rss_mb", "MB"), 0.25),
    // Exact for a fixed program: any increase is a regression.
    (lower("model_time", "sim_us"), 0.001),
    (lower("msgs", "count"), 0.001),
    (lower("bytes", "B"), 0.001),
    (lower("node_prog_bytes", "B"), 0.001),
];

/// Per-layer metrics of the traced pass, layer = crate.module. A metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: [Metric; 93] = [
    lower("frontend.lex_ms", "ms"),
    lower("frontend.parse_ms", "ms"),
    lower("frontend.sema_ms", "ms"),
    lower("frontend.src_bytes", "B"),
    lower("frontend.units", "count"),
    lower("analysis.acg_ms", "ms"),
    lower("analysis.reaching_ms", "ms"),
    lower("analysis.side_effects_ms", "ms"),
    lower("analysis.consts_ms", "ms"),
    lower("analysis.solve_units", "count"),
    lower("analysis.solve_contribs", "count"),
    lower("core.compile_ms", "ms"),
    lower("core.cloning_ms", "ms"),
    lower("core.cloning_rounds", "count"),
    lower("core.clones", "count"),
    lower("core.overlap_ms", "ms"),
    lower("core.codegen_ms", "ms"),
    lower("core.codegen_units", "count"),
    lower("core.codegen_par_ms", "ms"),
    lower("core.driver_rest_ms", "ms"),
    lower("core.stages_pct_of_compile", "%"),
    lower("core.compile_pct_of_e2e", "%"),
    lower("core.recompile_ms", "ms"),
    lower("core.incr_recompiled_units", "count"),
    higher("core.incr_reused_units", "count"),
    higher("core.store_hits", "count"),
    lower("core.store_misses", "count"),
    higher("core.store_hit_pct", "%"),
    lower("core.seq_oracle_ms", "ms"),
    lower("spmd.opt_ms", "ms"),
    higher("spmd.opt_eliminated", "count"),
    higher("spmd.opt_coalesced", "count"),
    higher("spmd.opt_hoisted", "count"),
    lower("spmd.static_sends", "count"),
    lower("spmd.static_bcasts", "count"),
    lower("spmd.static_remaps", "count"),
    lower("spmd.print_ms", "ms"),
    lower("spmd.run_ms", "ms"),
    lower("spmd.run_outside_machine_ms", "ms"),
    lower("spmd.vm_instrs", "count"),
    higher("spmd.vm_fused_instrs", "count"),
    higher("spmd.vm_fusion_pct", "%"),
    lower("spmd.vm_ns_per_op", "ns"),
    lower("spmd.nokernels_run_ms", "ms"),
    lower("spmd.tree_run_ms", "ms"),
    lower("spmd.overlap_model_time", "sim_us"),
    lower("spmd.n64_interproc_msgs", "count"),
    lower("spmd.n64_interproc_model_time", "sim_us"),
    lower("spmd.n64_immediate_msgs", "count"),
    lower("spmd.n64_immediate_model_time", "sim_us"),
    lower("spmd.n64_rtr_msgs", "count"),
    lower("spmd.n64_rtr_model_time", "sim_us"),
    lower("machine.run_ms", "ms"),
    lower("machine.sched_switches", "count"),
    lower("machine.us_per_switch", "us"),
    lower("machine.sched_ready_peak", "count"),
    lower("machine.sched_queue_peak", "count"),
    lower("machine.pool_allocs", "count"),
    higher("machine.pool_reuses", "count"),
    lower("machine.wait", "sim_us"),
    lower("machine.remaps", "count"),
    lower("machine.ring_us_per_switch", "us"),
    lower("machine.threaded_run_ms", "ms"),
    lower("machine.unpinned_run_ms", "ms"),
    lower("native.emit_ms", "ms"),
    lower("native.emit_bytes", "B"),
    lower("native.build_and_run_ms", "ms"),
    lower("native.run_ms", "ms"),
    lower("native.build_ms", "ms"),
    lower("serve.open_p50_ms", "ms"),
    lower("serve.edit_p50_ms", "ms"),
    lower("serve.compile_p50_ms", "ms"),
    lower("serve.compile_tail_ms", "ms"),
    lower("serve.compile_tail_percentile", "%"),
    lower("serve.run_p50_ms", "ms"),
    lower("serve.close_p50_ms", "ms"),
    lower("serve.handle_compile_p50_ms", "ms"),
    lower("serve.wire_ms", "ms"),
    higher("serve.store_hit_pct", "%"),
    lower("serve.bytes_in", "B"),
    lower("serve.bytes_out", "B"),
    lower("serve.incr_recompiled_units", "count"),
    higher("serve.incr_reused_units", "count"),
    lower("trace.events", "count"),
    lower("trace.overhead_pct", "%"),
    lower("harness.traced_e2e_ms", "ms"),
    lower("harness.traced_iterations", "count"),
    lower("harness.spans", "count"),
    higher("harness.stage_coverage_pct", "%"),
    lower("harness.replica_drift", "count"),
    lower("harness.setup_ms", "ms"),
    lower("harness.peak_rss_mb", "MB"),
    lower("harness.unattributed", "count"),
];

fn metric_json(m: &Metric, bound: Option<f64>) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better)),
    ];
    if let Some(b) = bound {
        fields.push(("bound", Json::Num(b)));
    }
    Json::obj(fields)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|&s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|&(name, why)| {
                        Json::obj([("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(m, b)| metric_json(m, Some(*b)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, None)).collect()),
        ),
    ])
}
