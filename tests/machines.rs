//! Differential testing of the two execution substrates.
//!
//! The deterministic event-driven scheduler ([`MachineKind::Event`]) must
//! be observationally indistinguishable from the thread-per-rank
//! reference ([`MachineKind::Threaded`]): identical virtual clock,
//! message counts and volumes, size histogram, per-tag traffic, bit-exact
//! final arrays, and printed output — across both execution engines,
//! every strategy, communication-optimizer level, network model, and
//! fixture, plus a sampled space of generated programs (mirroring
//! `tests/engines.rs`). Host wall-clock, buffer-pool counters, the VM's
//! instruction count, and the scheduler's own dispatch counters are
//! substrate-specific diagnostics and are deliberately excluded from the
//! cross-substrate comparison.
//!
//! On top of the differential matrix this suite pins down two properties
//! only the event machine has: *replay determinism* (two runs produce
//! byte-identical statistics and identical trace event streams, order
//! included) and *scalability* (a p=1024 stencil run that the threaded
//! machine's O(p²) channel fabric was never sized for).

mod common;

use common::compile;
use fortrand::corpus::{dgefa_matrix, dgefa_source, relax_source};
use fortrand::{CommOpt, CompileOptions, DynOptLevel, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};
use fortrand_machine::{HypercubeNet, Machine, MachineKind, RunStats, TorusNet};
use fortrand_spmd::{try_run_spmd, Bytecode, ExecOptions, RunOutcome, Tree};
use fortrand_trace::{MemorySink, Trace, PID_MACHINE};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Asserts every simulated observable matches between two outputs.
fn assert_identical(r: &RunOutcome, c: &RunOutcome, ctx: &str) {
    assert_eq!(
        r.stats.time_us.to_bits(),
        c.stats.time_us.to_bits(),
        "{ctx}: simulated clock: reference {} vs candidate {}",
        r.stats.time_us,
        c.stats.time_us
    );
    assert_eq!(r.stats.total_msgs, c.stats.total_msgs, "{ctx}: total_msgs");
    assert_eq!(
        r.stats.total_bytes, c.stats.total_bytes,
        "{ctx}: total_bytes"
    );
    assert_eq!(
        r.stats.total_flops, c.stats.total_flops,
        "{ctx}: total_flops"
    );
    assert_eq!(r.stats.total_ops, c.stats.total_ops, "{ctx}: total_ops");
    assert_eq!(
        r.stats.total_remaps, c.stats.total_remaps,
        "{ctx}: total_remaps"
    );
    assert_eq!(
        r.stats.msg_hist, c.stats.msg_hist,
        "{ctx}: message size histogram"
    );
    assert_eq!(
        r.stats.msgs_by_tag, c.stats.msgs_by_tag,
        "{ctx}: per-tag traffic"
    );
    assert_eq!(
        r.stats.per_node.len(),
        c.stats.per_node.len(),
        "{ctx}: per-node count"
    );
    for (i, (rn, cn)) in r.stats.per_node.iter().zip(&c.stats.per_node).enumerate() {
        assert_eq!(
            rn.time_us.to_bits(),
            cn.time_us.to_bits(),
            "{ctx}: rank {i} clock: reference {} vs candidate {}",
            rn.time_us,
            cn.time_us
        );
        assert_eq!(rn.msgs_sent, cn.msgs_sent, "{ctx}: rank {i} msgs_sent");
        assert_eq!(rn.bytes_sent, cn.bytes_sent, "{ctx}: rank {i} bytes_sent");
    }
    assert_eq!(r.printed, c.printed, "{ctx}: printed output");
    assert_eq!(
        r.arrays.keys().collect::<Vec<_>>(),
        c.arrays.keys().collect::<Vec<_>>(),
        "{ctx}: final array set"
    );
    for (name, rv) in &r.arrays {
        let cv = &c.arrays[name];
        assert_eq!(rv.len(), cv.len(), "{ctx}: array length");
        for (i, (x, y)) in rv.iter().zip(cv).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{ctx}: array element {i}: reference {x} vs candidate {y}"
            );
        }
    }
}

fn tree_opts() -> ExecOptions {
    ExecOptions::new().backend(Tree)
}

fn vm_opts() -> ExecOptions {
    ExecOptions::new().backend(Bytecode)
}

const MATRIX: [(MachineKind, fn() -> ExecOptions); 3] = [
    (MachineKind::Threaded, vm_opts),
    (MachineKind::Event, tree_opts),
    (MachineKind::Event, vm_opts),
];

/// Compiles `src` once and runs it on the full substrate × backend
/// matrix, comparing every combination against the threaded/[`Tree`]
/// reference.
fn machines_agree(src: &str, opts: &CompileOptions, named: &[(String, Vec<f64>)], ctx: &str) {
    let out = compile(src, opts).unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
    let mut init = BTreeMap::new();
    for (name, data) in named {
        init.insert(out.spmd.interner.get(name).unwrap(), data.clone());
    }
    let run = |kind, opts: ExecOptions| {
        let machine = Machine::new(out.spmd.nprocs).with_kind(kind);
        let backend = opts.backend.name();
        try_run_spmd(&out.spmd, &machine, &init, &opts)
            .unwrap_or_else(|e| panic!("{ctx}: {kind:?}/{backend} failed: {e}"))
    };
    let reference = run(MachineKind::Threaded, tree_opts());
    for (kind, make_opts) in MATRIX {
        let opts = make_opts();
        let backend = opts.backend.name();
        let candidate = run(kind, opts);
        assert_identical(
            &reference,
            &candidate,
            &format!("{ctx} [{kind:?}/{backend}]"),
        );
    }
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
    machines_agree(src, &opts, &default_init(src), &ctx);
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

/// FIG15's dynamic decomposition exercises remap traffic under the
/// event scheduler at every optimization level.
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
}

/// The communication optimizer reshapes message traffic; the substrates
/// must agree on the reshaped program too.
#[test]
fn every_comm_opt_level() {
    for comm_opt in [
        CommOpt::Off,
        CommOpt::Coalesce,
        CommOpt::Full,
        CommOpt::Overlap,
    ] {
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

/// dgefa's pivoting broadcasts and triangular loop nests on a real
/// matrix, under every strategy.
#[test]
fn dgefa_every_strategy() {
    for strategy in STRATEGIES {
        let ctx = format!("dgefa n=32 p=4 {strategy:?}");
        let opts = CompileOptions::builder()
            .strategy(strategy)
            .nprocs(4)
            .build();
        let named = vec![("a".to_string(), dgefa_matrix(32))];
        machines_agree(&dgefa_source(32, 4), &opts, &named, &ctx);
    }
}

/// Both substrates must agree under non-trivial network topologies too:
/// the per-hop latency is applied at send time on the sender's clock, so
/// it is substrate-independent by construction — this pins that down,
/// at `Full` and with posted (in-flight) operations at `Overlap`.
#[test]
fn network_models_are_substrate_independent() {
    for comm_opt in [CommOpt::Full, CommOpt::Overlap] {
        let opts = CompileOptions::builder()
            .strategy(Strategy::Interprocedural)
            .nprocs(4)
            .comm_opt(comm_opt)
            .build();
        let out = compile(FIG4, &opts).unwrap();
        let mut init = BTreeMap::new();
        for (name, data) in default_init(FIG4) {
            init.insert(out.spmd.interner.get(&name).unwrap(), data);
        }
        enum Net {
            Hypercube,
            Torus,
        }
        for (name, net) in [("hypercube", Net::Hypercube), ("torus", Net::Torus)] {
            let run = |kind| {
                let machine = Machine::new(4).with_kind(kind);
                let machine = match net {
                    Net::Hypercube => machine.with_network(HypercubeNet::new(5.0)),
                    Net::Torus => machine.with_network(TorusNet::new(2, 2, 3.0)),
                };
                try_run_spmd(&out.spmd, &machine, &init, &ExecOptions::new()).unwrap()
            };
            let th = run(MachineKind::Threaded);
            let ev = run(MachineKind::Event);
            assert_identical(&th, &ev, &format!("FIG4 on {name} at {comm_opt:?}"));
            assert!(ev.stats.time_us > 0.0);
        }
    }
}

/// The coarse-grain pipelined dgefa is the most schedule-sensitive
/// program the optimizer emits (a broadcast is in flight across the
/// loop back-edge on every rank). Both substrates and both engines must
/// agree bit-for-bit on it, and `Overlap` must beat `Full` on the
/// simulated clock while leaving traffic untouched.
#[test]
fn dgefa_overlap_identical_across_substrates_and_faster() {
    let named = vec![("a".to_string(), dgefa_matrix(32))];
    let run_at = |comm_opt: CommOpt| {
        let opts = CompileOptions::builder()
            .strategy(Strategy::Interprocedural)
            .nprocs(4)
            .comm_opt(comm_opt)
            .build();
        let ctx = format!("dgefa n=32 p=4 {comm_opt:?}");
        machines_agree(&dgefa_source(32, 4), &opts, &named, &ctx);
        let out = compile(&dgefa_source(32, 4), &opts).unwrap();
        let mut init = BTreeMap::new();
        init.insert(out.spmd.interner.get("a").unwrap(), dgefa_matrix(32));
        let machine = Machine::new(4);
        try_run_spmd(&out.spmd, &machine, &init, &ExecOptions::new()).unwrap()
    };
    let full = run_at(CommOpt::Full);
    let ov = run_at(CommOpt::Overlap);
    assert_eq!(ov.stats.total_msgs, full.stats.total_msgs);
    assert_eq!(ov.stats.total_bytes, full.stats.total_bytes);
    assert!(
        ov.stats.time_us < full.stats.time_us,
        "Overlap {} µs must beat Full {} µs",
        ov.stats.time_us,
        full.stats.time_us
    );
    assert!(ov.stats.overlap_posts > 0, "posted operations must appear");
    assert_eq!(ov.stats.overlap_posts, ov.stats.overlap_waits);
    assert!(ov.stats.overlap_hidden_us > 0.0, "latency must be hidden");
}

/// `ExecOptions::machine` re-keys a run onto the other substrate without
/// touching the observables.
#[test]
fn exec_options_machine_override() {
    let opts = CompileOptions::builder().nprocs(4).build();
    let out = compile(FIG1, &opts).unwrap();
    let init = BTreeMap::new();
    let threaded_machine = Machine::threaded(4);
    let native = try_run_spmd(&out.spmd, &threaded_machine, &init, &ExecOptions::new()).unwrap();
    let rekeyed = try_run_spmd(
        &out.spmd,
        &threaded_machine,
        &init,
        &ExecOptions::new().machine(MachineKind::Event),
    )
    .unwrap();
    assert_identical(&native, &rekeyed, "FIG1 rekeyed Threaded->Event");
    // The override actually switched substrates: the event scheduler's
    // dispatch counter is live only on the event machine.
    assert_eq!(native.stats.sched_switches, 0);
    assert!(rekeyed.stats.sched_switches > 0);
}

/// One event-machine run of dgefa n=64 p=16, with its full trace.
fn dgefa_event_run() -> (RunStats, Vec<fortrand_trace::Event>) {
    let opts = CompileOptions::builder()
        .strategy(Strategy::Interprocedural)
        .nprocs(16)
        .build();
    let out = compile(&dgefa_source(64, 16), &opts).unwrap();
    let mut init = BTreeMap::new();
    init.insert(out.spmd.interner.get("a").unwrap(), dgefa_matrix(64));
    let (sink, events) = MemorySink::new();
    let machine = Machine::new(16).with_trace(Trace::new(sink));
    let run = try_run_spmd(&out.spmd, &machine, &init, &ExecOptions::new()).unwrap();
    machine.trace().finish().unwrap();
    let events = std::mem::take(&mut *events.lock().unwrap());
    (run.stats, events)
}

/// Replay determinism: the event machine is single-threaded under the
/// hood, so two runs of the same program must produce byte-identical
/// statistics — scheduler and pool counters included — and identical
/// machine trace event streams, order included.
#[test]
fn event_machine_replays_deterministically() {
    let (s1, t1) = dgefa_event_run();
    let (s2, t2) = dgefa_event_run();
    assert_eq!(s1.time_us.to_bits(), s2.time_us.to_bits());
    assert_eq!(s1.total_msgs, s2.total_msgs);
    assert_eq!(s1.total_bytes, s2.total_bytes);
    assert_eq!(s1.total_flops, s2.total_flops);
    assert_eq!(s1.total_ops, s2.total_ops);
    assert_eq!(s1.total_remaps, s2.total_remaps);
    assert_eq!(s1.msg_hist, s2.msg_hist);
    assert_eq!(s1.msgs_by_tag, s2.msgs_by_tag);
    assert_eq!(s1.engine_instrs, s2.engine_instrs);
    // Substrate-level counters are deterministic here too — execution is
    // fully serialized, so pool reuse order and dispatch order replay.
    assert_eq!(s1.pool_reuses, s2.pool_reuses);
    assert_eq!(s1.pool_allocs, s2.pool_allocs);
    assert_eq!(s1.pool_bytes_reused, s2.pool_bytes_reused);
    assert_eq!(s1.sched_switches, s2.sched_switches);
    assert_eq!(s1.sched_msgs, s2.sched_msgs);
    assert_eq!(s1.sched_ready_peak, s2.sched_ready_peak);
    assert_eq!(s1.sched_queue_peak, s2.sched_queue_peak);
    assert_eq!(s1.per_node.len(), s2.per_node.len());
    for (i, (a, b)) in s1.per_node.iter().zip(&s2.per_node).enumerate() {
        assert_eq!(a.time_us.to_bits(), b.time_us.to_bits(), "rank {i} clock");
        assert_eq!(a.wait_us.to_bits(), b.wait_us.to_bits(), "rank {i} wait");
        assert_eq!(a.msgs_sent, b.msgs_sent, "rank {i} msgs");
        assert_eq!(a.bytes_sent, b.bytes_sent, "rank {i} bytes");
        assert_eq!(a.flops, b.flops, "rank {i} flops");
        assert_eq!(a.ops, b.ops, "rank {i} ops");
        assert_eq!(a.remaps, b.remaps, "rank {i} remaps");
        assert_eq!(a.msg_hist, b.msg_hist, "rank {i} histogram");
        assert_eq!(a.msgs_by_tag, b.msgs_by_tag, "rank {i} tags");
    }
    // The Chrome trace streams match event for event, in emission order.
    let machine_events = |evs: &[fortrand_trace::Event]| {
        evs.iter()
            .filter(|e| e.pid == PID_MACHINE)
            .cloned()
            .collect::<Vec<_>>()
    };
    let (m1, m2) = (machine_events(&t1), machine_events(&t2));
    assert!(
        !m1.is_empty(),
        "the machine must have traced at least one event"
    );
    assert_eq!(m1.len(), m2.len(), "trace stream length");
    for (i, (a, b)) in m1.iter().zip(&m2).enumerate() {
        assert_eq!(a, b, "trace event {i} differs between replays");
    }
}

/// p=1024 smoke: a BLOCK-distributed stencil through a subroutine call,
/// far past the thread-per-rank machine's comfort zone. The event
/// scheduler runs it in CI time with one mailbox per rank.
#[test]
fn event_machine_runs_relax_at_p1024() {
    let p = 1024;
    let src = relax_source(16 * p as i64, 1, 1, p);
    let opts = CompileOptions::builder()
        .strategy(Strategy::Interprocedural)
        .nprocs(p)
        .build();
    let out = compile(&src, &opts).unwrap();
    let mut init = BTreeMap::new();
    for (name, data) in default_init(&src) {
        init.insert(out.spmd.interner.get(&name).unwrap(), data);
    }
    let machine = Machine::new(p);
    assert_eq!(machine.kind, MachineKind::Event);
    let run = try_run_spmd(&out.spmd, &machine, &init, &ExecOptions::new()).unwrap();
    assert_eq!(run.stats.per_node.len(), p);
    assert!(run.stats.total_msgs > 0, "stencil must communicate");
    assert!(run.stats.sched_switches >= p as u64);
    assert!(run.stats.time_us > 0.0);
}

/// Compiles `relax_source(16p, 1, 2, p)`-shaped stencils for the scaling
/// tests below and runs them on the event machine under the VM.
fn run_relax_vm(n: i64, p: usize) -> RunStats {
    let src = relax_source(n, 1, 2, p);
    let out = compile(&src, &CompileOptions::builder().nprocs(p).build()).unwrap();
    let mut init = BTreeMap::new();
    for (name, data) in default_init(&src) {
        init.insert(out.spmd.interner.get(&name).unwrap(), data);
    }
    let machine = Machine::new(p);
    assert_eq!(machine.kind, MachineKind::Event);
    let run = try_run_spmd(&out.spmd, &machine, &init, &vm_opts()).unwrap();
    // Two double sweeps, one boundary message per neighbour pair each.
    assert_eq!(run.stats.total_msgs, 4 * (p as u64 - 1));
    run.stats
}

/// A VM run on the event machine has no thread per rank. The probe counts
/// the threads of its whole process, so it gets a process of its own: this
/// test binary again, running only [`thread_probe`].
#[test]
#[cfg(target_os = "linux")]
fn vm_run_has_no_thread_per_rank() {
    let probe = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "--ignored",
            "--exact",
            "thread_probe",
            "--test-threads",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        probe.status.success(),
        "{}{}",
        String::from_utf8_lossy(&probe.stdout),
        String::from_utf8_lossy(&probe.stderr)
    );
}

/// While 512 ranks run, a watcher samples `Threads:` from
/// `/proc/self/status` and must never see more than were there before the
/// run plus itself (a thread per rank would show as +512).
#[test]
#[ignore = "counts the process's threads: run alone, by vm_run_has_no_thread_per_rank"]
#[cfg(target_os = "linux")]
fn thread_probe() {
    use std::sync::atomic::{AtomicBool, Ordering};
    fn threads() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
        line["Threads:".len()..].trim().parse().unwrap()
    }
    let before = threads();
    let (running, mut samples, mut peak) = (AtomicBool::new(false), 0, 0);
    // Run again until the watcher has looked often enough mid-run.
    while samples < 20 {
        let seen = std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut seen = Vec::new();
                while !running.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                while running.load(Ordering::SeqCst) {
                    seen.push(threads());
                }
                seen
            });
            running.store(true, Ordering::SeqCst);
            run_relax_vm(8192, 512);
            running.store(false, Ordering::SeqCst);
            watcher.join().unwrap()
        });
        samples += seen.len();
        peak = peak.max(seen.into_iter().max().unwrap_or(0));
    }
    assert!(
        peak <= before + 1,
        "{peak} threads during a 512-rank run, {before} before it"
    );
}

/// 8 192 ranks — a shape that needed 8 192 threads and 16 GiB of stack
/// reservations while every rank rode a carrier thread. Weak scaling
/// keeps the stencil's per-rank traffic flat: every point communicates
/// (`run_relax_vm` holds the count to 4·(p−1)), and a rank at p = 8 192
/// sends no more than twice what one at p = 128 does.
#[test]
fn event_machine_runs_relax_at_p8192() {
    let p = 8192;
    let stats = run_relax_vm(16 * p as i64, p);
    assert_eq!(stats.per_node.len(), p);
    assert!(stats.per_node.iter().all(|n| n.msgs_sent <= 4));
    assert!(stats.sched_switches >= p as u64);
    let small = run_relax_vm(16 * 128, 128);
    assert!(small.total_msgs > 0 && stats.total_msgs > 0);
    let per_rank = |s: &RunStats| s.total_msgs as f64 / s.per_node.len() as f64;
    assert!(
        per_rank(&stats) <= 2.0 * per_rank(&small),
        "per-rank messages grew {:.2} -> {:.2} from p=128 to p={p}",
        per_rank(&small),
        per_rank(&stats)
    );
}

/// The scheduler's observables, pinned: dispatch and queue counters, the
/// VM's instruction counts, the simulated clock, idle time, overlap
/// bookkeeping and traffic of the event machine on both engines. The
/// differential tests above compare two substrates built from the same
/// code; this table compares the event machine against what it computed
/// when the table was generated, so a change of dispatch order, of wake
/// times or of what counts as a switch shows up here even when both
/// substrates move together.
#[test]
fn scheduler_observables_are_pinned() {
    use fortrand::corpus::{adi_source, fig15_source, wide_corpus};
    let mut cases: Vec<(String, String, CompileOptions)> = Vec::new();
    let plain = CompileOptions::builder().build();
    cases.push(("relax".into(), relax_source(256, 1, 8, 16), plain.clone()));
    for level in [
        CommOpt::Off,
        CommOpt::Coalesce,
        CommOpt::Full,
        CommOpt::Overlap,
    ] {
        cases.push((
            format!("dgefa {}", level.as_str()),
            dgefa_source(64, 4),
            CompileOptions::builder().comm_opt(level).build(),
        ));
    }
    cases.push(("adi".into(), adi_source(32, 2, 4), plain.clone()));
    for lvl in [
        DynOptLevel::None,
        DynOptLevel::Live,
        DynOptLevel::Hoist,
        DynOptLevel::Kills,
    ] {
        cases.push((
            format!("fig15 {lvl:?}"),
            fig15_source(4, 4),
            CompileOptions::builder().dyn_opt(lvl).build(),
        ));
    }
    cases.push(("wide".into(), wide_corpus(8, 64, 4), plain));

    let mut table = String::new();
    for (what, src, opts) in &cases {
        let out = compile(src, opts).unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut init = BTreeMap::new();
        for (name, data) in default_init(src) {
            init.insert(out.spmd.interner.get(&name).unwrap(), data);
        }
        for (engine, exec) in [("tree", tree_opts()), ("vm", vm_opts())] {
            let machine = Machine::new(out.spmd.nprocs);
            let s = try_run_spmd(&out.spmd, &machine, &init, &exec)
                .unwrap_or_else(|e| panic!("{what}/{engine}: {e}"))
                .stats;
            let wait: f64 = s.per_node.iter().map(|n| n.wait_us).sum();
            table.push_str(&format!(
                "{what} {engine}: sw={} smsgs={} rpeak={} qpeak={} instrs={} fused={} \
                 time={:016x} wait={:016x} posts={} waits={} msgs={} bytes={}\n",
                s.sched_switches,
                s.sched_msgs,
                s.sched_ready_peak,
                s.sched_queue_peak,
                s.engine_instrs,
                s.fused_instrs,
                s.time_us.to_bits(),
                wait.to_bits(),
                s.overlap_posts,
                s.overlap_waits,
                s.total_msgs,
                s.total_bytes
            ));
        }
    }
    assert_eq!(
        table, SCHED_OBSERVABLES,
        "scheduler observables changed:\n{table}"
    );
}

const SCHED_OBSERVABLES: &str = "\
relax tree: sw=136 smsgs=240 rpeak=16 qpeak=30 instrs=0 fused=0 time=4094ac7ae147ae14 wait=40937bcccccccccd posts=0 waits=0 msgs=240 bytes=1920\n\
relax vm: sw=136 smsgs=240 rpeak=16 qpeak=30 instrs=10496 fused=28560 time=4094ac7ae147ae14 wait=40937bcccccccccd posts=0 waits=0 msgs=240 bytes=1920\n\
dgefa off tree: sw=382 smsgs=0 rpeak=4 qpeak=4 instrs=0 fused=0 time=40e927e8a3d70a3b wait=4105343970a3d703 posts=0 waits=0 msgs=378 bytes=98280\n\
dgefa off vm: sw=382 smsgs=0 rpeak=4 qpeak=4 instrs=248808 fused=521404 time=40e927e8a3d70a3b wait=4105343970a3d703 posts=0 waits=0 msgs=378 bytes=98280\n\
dgefa coalesce tree: sw=382 smsgs=0 rpeak=4 qpeak=4 instrs=0 fused=0 time=40e927e8a3d70a3b wait=4105343970a3d703 posts=0 waits=0 msgs=378 bytes=98280\n\
dgefa coalesce vm: sw=382 smsgs=0 rpeak=4 qpeak=4 instrs=248808 fused=521404 time=40e927e8a3d70a3b wait=4105343970a3d703 posts=0 waits=0 msgs=378 bytes=98280\n\
dgefa full tree: sw=193 smsgs=0 rpeak=4 qpeak=4 instrs=0 fused=0 time=40dd6079999999a1 wait=40f501068f5c28f8 posts=0 waits=0 msgs=189 bytes=49896\n\
dgefa full vm: sw=193 smsgs=0 rpeak=4 qpeak=4 instrs=253505 fused=586380 time=40dd6079999999a1 wait=40f501068f5c28f8 posts=0 waits=0 msgs=189 bytes=49896\n\
dgefa overlap tree: sw=66 smsgs=0 rpeak=4 qpeak=3 instrs=0 fused=0 time=40d7303ffffffffd wait=40eb3f2947ae1476 posts=252 waits=252 msgs=189 bytes=49896\n\
dgefa overlap vm: sw=66 smsgs=0 rpeak=4 qpeak=3 instrs=263193 fused=586380 time=40d7303ffffffffd wait=40eb3f2947ae1476 posts=252 waits=252 msgs=189 bytes=49896\n\
adi tree: sw=16 smsgs=48 rpeak=4 qpeak=12 instrs=0 fused=0 time=40acade147ae147d wait=0000000000000000 posts=0 waits=0 msgs=48 bytes=24576\n\
adi vm: sw=16 smsgs=48 rpeak=4 qpeak=12 instrs=1120 fused=23808 time=40acade147ae147d wait=0000000000000000 posts=0 waits=0 msgs=48 bytes=24576\n\
fig15 None tree: sw=52 smsgs=192 rpeak=4 qpeak=12 instrs=0 fused=0 time=40b48f3851eb8521 wait=0000000000000000 posts=0 waits=0 msgs=192 bytes=9216\n\
fig15 None vm: sw=52 smsgs=192 rpeak=4 qpeak=12 instrs=752 fused=4300 time=40b48f3851eb8521 wait=0000000000000000 posts=0 waits=0 msgs=192 bytes=9216\n\
fig15 Live tree: sw=28 smsgs=96 rpeak=4 qpeak=12 instrs=0 fused=0 time=40a4b10000000001 wait=0000000000000000 posts=0 waits=0 msgs=96 bytes=4608\n\
fig15 Live vm: sw=28 smsgs=96 rpeak=4 qpeak=12 instrs=720 fused=4300 time=40a4b10000000001 wait=0000000000000000 posts=0 waits=0 msgs=96 bytes=4608\n\
fig15 Hoist tree: sw=10 smsgs=24 rpeak=4 qpeak=11 instrs=0 fused=0 time=40857bae147ae147 wait=0000000000000000 posts=0 waits=0 msgs=24 bytes=1152\n\
fig15 Hoist vm: sw=10 smsgs=24 rpeak=4 qpeak=11 instrs=696 fused=4300 time=40857bae147ae147 wait=0000000000000000 posts=0 waits=0 msgs=24 bytes=1152\n\
fig15 Kills tree: sw=7 smsgs=12 rpeak=4 qpeak=9 instrs=0 fused=0 time=40768a6666666667 wait=0000000000000000 posts=0 waits=0 msgs=12 bytes=576\n\
fig15 Kills vm: sw=7 smsgs=12 rpeak=4 qpeak=9 instrs=696 fused=4300 time=40768a6666666667 wait=0000000000000000 posts=0 waits=0 msgs=12 bytes=576\n\
wide tree: sw=10 smsgs=27 rpeak=4 qpeak=11 instrs=0 fused=0 time=408cbcf5c28f5c29 wait=408a5fae147ae147 posts=0 waits=0 msgs=27 bytes=1392\n\
wide vm: sw=10 smsgs=27 rpeak=4 qpeak=11 instrs=1964 fused=6762 time=408cbcf5c28f5c29 wait=408a5fae147ae147 posts=0 waits=0 msgs=27 bytes=1392\n\
";

/// Renders a compact stencil-sweep program (same generator space as
/// `tests/engines.rs`).
fn render(
    n: i64,
    nprocs: usize,
    dist: &str,
    sweeps: &[(i64, i64, usize)],
    through_call: bool,
) -> String {
    const COEFFS: [&str; 4] = ["0.5", "0.25", "1.5", "2.0"];
    let mut body = String::new();
    let mut subs = String::new();
    for (si, &(shift, lo_off, ci)) in sweeps.iter().enumerate() {
        let c = COEFFS[ci % COEFFS.len()];
        let lo = 1 + lo_off;
        let hi = n - shift;
        if through_call {
            body.push_str(&format!("      call sweep{si}(x, y)\n"));
            subs.push_str(&format!(
                "      SUBROUTINE sweep{si}(u, v)\n      REAL u({n}), v({n})\n      do i = {lo}, {hi}\n        v(i) = {c} * u(i+{shift}) + v(i)\n      enddo\n      END\n"
            ));
        } else {
            body.push_str(&format!(
                "      do i = {lo}, {hi}\n        y(i) = {c} * x(i+{shift}) + y(i)\n      enddo\n"
            ));
        }
    }
    format!(
        "      PROGRAM main\n      PARAMETER (n$proc = {nprocs})\n      REAL x({n}), y({n})\n      DISTRIBUTE x({dist})\n      DISTRIBUTE y({dist})\n{body}      END\n{subs}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn machines_agree_on_generated_programs(
        n in 16i64..64,
        nprocs in 1usize..5,
        cyclic in any::<bool>(),
        sweeps in prop::collection::vec((0i64..4, 0i64..3, 0usize..4), 1..3),
        through_call in any::<bool>(),
        strategy_idx in 0usize..3,
        overlap in any::<bool>(),
    ) {
        let dist = if cyclic { "CYCLIC" } else { "BLOCK" };
        // CYCLIC distributions only support shift-0 sweeps in the
        // compile-time strategies.
        let sweeps: Vec<_> = sweeps
            .iter()
            .map(|&(sh, lo, ci)| (if cyclic { 0 } else { sh }, lo, ci))
            .collect();
        let src = render(n, nprocs, dist, &sweeps, through_call);
        check(
            &src,
            STRATEGIES[strategy_idx],
            nprocs,
            DynOptLevel::Kills,
            if overlap { CommOpt::Overlap } else { CommOpt::Full },
        );
    }
}
