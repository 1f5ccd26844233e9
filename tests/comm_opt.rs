//! Property tests for the communication optimizer (`fortrand_spmd::opt`).
//!
//! The optimizer is purely a communication transformation: redundant
//! broadcasts are replaced by locally mirrored computation, adjacent
//! messages are fused, loop-invariant broadcasts are hoisted. None of
//! that may change a single bit of any program result, and `Full` may
//! never send *more* than `Off` — these tests pin both properties over
//! the Fig. 4 program, the wide compile-time corpus, stencil/ADI
//! workloads, and the dgefa case study at several machine sizes.

mod common;

use common::{assert_matches_oracle, compile, oracle, run_spmd};
use fortrand::corpus::{adi_source, dgefa_matrix, dgefa_source, relax_source, wide_corpus};
use fortrand::{CommOpt, CompileOptions};
use fortrand_analysis::fixtures::FIG4;
use fortrand_machine::{Machine, RunStats};
use std::collections::BTreeMap;

/// Compile `src` at the given optimizer level, run it, and return every
/// named array (keyed by source name, so results from independent
/// compiles are comparable) plus the run statistics.
fn run_level(
    src: &str,
    nprocs: usize,
    init_named: &BTreeMap<String, Vec<f64>>,
    level: CommOpt,
) -> (BTreeMap<String, Vec<f64>>, RunStats) {
    let out = compile(src, &CompileOptions::builder().comm_opt(level).build())
        .unwrap_or_else(|e| panic!("compile at {level:?}: {e}"));
    let machine = Machine::new(nprocs);
    let mut init = BTreeMap::new();
    for (name, data) in init_named {
        init.insert(
            out.spmd
                .interner
                .get(name)
                .unwrap_or_else(|| panic!("init array {name} not found in compiled program")),
            data.clone(),
        );
    }
    let res = run_spmd(&out.spmd, &machine, &init);
    let arrays = res
        .arrays
        .iter()
        .map(|(sym, data)| (out.spmd.interner.name(*sym).to_string(), data.clone()))
        .collect();
    (arrays, res.stats)
}

/// Seeded non-zero contents for every main-program array of `src`,
/// keyed by source name: on all-zero arrays a dropped or misplaced
/// message cannot change a result.
fn seeded_init(src: &str) -> BTreeMap<String, Vec<f64>> {
    let (prog, info) = fortrand_frontend::load_program(src).unwrap();
    let main = prog.main_unit().unwrap();
    (info.unit(main.name).vars.iter())
        .filter(|(_, vi)| vi.is_array())
        .map(|(&sym, vi)| {
            let name = prog.interner.name(sym).to_string();
            let salt: usize = name.bytes().map(usize::from).sum();
            let len: i64 = vi.dims.iter().product();
            let data = (0..len as usize).map(|i| ((i * 37 + salt) % 101) as f64 * 0.5 + 1.0);
            (name, data.collect())
        })
        .collect()
}

/// The core property: every level produces bit-identical arrays to
/// `Off`, `Off`'s match the sequential oracle's, and `Full` never sends
/// more messages or bytes than `Off`.
fn assert_levels_agree(what: &str, src: &str, nprocs: usize, init: &BTreeMap<String, Vec<f64>>) {
    let (base_arrays, base_stats) = run_level(src, nprocs, init, CommOpt::Off);
    assert_matches_oracle(&base_arrays, &oracle(src, init), &format!("{what} Off"));
    for level in [CommOpt::Coalesce, CommOpt::Full, CommOpt::Overlap] {
        let (arrays, stats) = run_level(src, nprocs, init, level);
        assert_eq!(
            arrays.len(),
            base_arrays.len(),
            "{what} {level:?}: array inventory changed"
        );
        for (name, base) in &base_arrays {
            let got = &arrays[name];
            assert_eq!(got.len(), base.len(), "{what} {level:?}: len of {name}");
            for (i, (g, b)) in got.iter().zip(base).enumerate() {
                assert!(
                    g.to_bits() == b.to_bits(),
                    "{what} {level:?}: {name}[{i}] = {g:?} differs from Off's {b:?} \
                     (optimization must be bit-exact)"
                );
            }
        }
        assert!(
            stats.total_msgs <= base_stats.total_msgs,
            "{what} {level:?}: {} msgs exceeds Off's {}",
            stats.total_msgs,
            base_stats.total_msgs
        );
        assert!(
            stats.total_bytes <= base_stats.total_bytes,
            "{what} {level:?}: {} bytes exceeds Off's {}",
            stats.total_bytes,
            base_stats.total_bytes
        );
    }
}

#[test]
fn fig4_all_levels_bit_identical() {
    assert_levels_agree("fig4", FIG4, 4, &seeded_init(FIG4));
}

#[test]
fn wide_corpus_all_levels_bit_identical() {
    let src = wide_corpus(6, 32, 4);
    let names: Vec<String> = (0..6)
        .flat_map(|p| [format!("x{p}"), format!("y{p}")])
        .collect();
    let init = (names.iter().enumerate())
        .map(|(k, name)| {
            let data = (0..32).map(|i| ((k * 32 + i) * 37 % 101) as f64 * 0.5 + 1.0);
            (name.clone(), data.collect())
        })
        .collect();
    assert_levels_agree("wide_corpus", &src, 4, &init);
}

#[test]
fn relax_all_levels_bit_identical() {
    let src = relax_source(32, 2, 3, 4);
    assert_levels_agree("relax", &src, 4, &seeded_init(&src));
}

#[test]
fn adi_all_levels_bit_identical() {
    let src = adi_source(12, 2, 4);
    assert_levels_agree("adi", &src, 4, &seeded_init(&src));
}

#[test]
fn dgefa_all_levels_bit_identical_across_machine_sizes() {
    for (n, p) in [(8i64, 1usize), (16, 2), (16, 4), (16, 8)] {
        let src = dgefa_source(n, p);
        let mut init = BTreeMap::new();
        init.insert("a".to_string(), dgefa_matrix(n));
        assert_levels_agree(&format!("dgefa n={n} p={p}"), &src, p, &init);
    }
}

/// The §9 headline: eliminating the redundant second pivot-row broadcast
/// halves dgefa's message count. At n=16 p=4 the unoptimized program
/// broadcasts twice per elimination step (2·(n−1)·(p−1) = 90 messages);
/// `Full` must cut that exactly in half.
#[test]
fn dgefa_full_halves_broadcasts() {
    let n = 16i64;
    let p = 4usize;
    let src = dgefa_source(n, p);
    let mut init = BTreeMap::new();
    init.insert("a".to_string(), dgefa_matrix(n));
    let (_, off) = run_level(&src, p, &init, CommOpt::Off);
    let (_, full) = run_level(&src, p, &init, CommOpt::Full);
    assert_eq!(off.total_msgs, 90, "unoptimized baseline shifted");
    assert_eq!(
        full.total_msgs, 45,
        "Full must eliminate one of two broadcasts"
    );
    assert!(full.total_bytes * 2 <= off.total_bytes + off.total_msgs * 8);
}

/// Release-only check at benchmark scale: dgefa n=64 p=4 drops from 378
/// to 189 messages under `Full`, stays under the byte ceiling, and never
/// sends more than `Off`. Skipped under debug_assertions (the n=64
/// simulation is slow unoptimized).
#[test]
fn dgefa_benchmark_scale_message_count() {
    if cfg!(debug_assertions) {
        eprintln!("skipping n=64 benchmark-scale check in debug build");
        return;
    }
    let n = 64i64;
    let p = 4usize;
    let src = dgefa_source(n, p);
    let mut init = BTreeMap::new();
    init.insert("a".to_string(), dgefa_matrix(n));
    let (_, off) = run_level(&src, p, &init, CommOpt::Off);
    let (_, full) = run_level(&src, p, &init, CommOpt::Full);
    assert!(
        full.total_msgs <= 208,
        "dgefa n=64 p=4 Full sends {} msgs, above the 208 ceiling",
        full.total_msgs
    );
    assert!(
        full.total_bytes <= 52_000,
        "dgefa n=64 p=4 Full sends {} bytes, above the 52 000 ceiling",
        full.total_bytes
    );
    assert!(
        full.total_msgs <= off.total_msgs && full.total_bytes <= off.total_bytes,
        "Full ({} msgs / {} bytes) exceeds Off ({} / {})",
        full.total_msgs,
        full.total_bytes,
        off.total_msgs,
        off.total_bytes
    );
}

/// `Overlap` is purely a latency optimization on top of `Full`: the same
/// messages carry the same bytes (posts record traffic exactly where the
/// blocking operations did), every array stays bit-identical, and the
/// modeled time never regresses. On dgefa the pipelined pivot broadcast
/// must show a strict improvement, and at the benchmark scale (n=256 p=8,
/// release builds only) one of at least 15 %.
#[test]
fn overlap_same_traffic_less_time() {
    let dgefa = |what, n, p| {
        let init = BTreeMap::from([("a".to_string(), dgefa_matrix(n))]);
        (what, p, dgefa_source(n, p), init)
    };
    let seeded = |what, src: String| {
        let init = seeded_init(&src);
        (what, 4, src, init)
    };
    let mut cases = vec![
        seeded("relax", relax_source(32, 2, 3, 4)),
        seeded("adi", adi_source(12, 2, 4)),
        dgefa("dgefa", 16, 4),
    ];
    if !cfg!(debug_assertions) {
        cases.push(dgefa("dgefa n=256", 256, 8));
    }
    for (what, p, src, init) in cases {
        let (full_arrays, full) = run_level(&src, p, &init, CommOpt::Full);
        let (ov_arrays, ov) = run_level(&src, p, &init, CommOpt::Overlap);
        assert_eq!(
            ov.total_msgs, full.total_msgs,
            "{what}: Overlap changed the message count"
        );
        assert_eq!(
            ov.total_bytes, full.total_bytes,
            "{what}: Overlap changed the byte count"
        );
        for (name, base) in &full_arrays {
            let got = &ov_arrays[name];
            for (i, (g, b)) in got.iter().zip(base).enumerate() {
                assert!(
                    g.to_bits() == b.to_bits(),
                    "{what}: {name}[{i}] differs between Full and Overlap"
                );
            }
        }
        assert!(
            ov.time_us <= full.time_us,
            "{what}: Overlap time {} exceeds Full's {}",
            ov.time_us,
            full.time_us
        );
        // Buffer-pool parity: posting acquires exactly as many buffers as
        // the blocking schedule did (one per message), and Overlap may
        // out-grow Full's pool only by its in-flight window — at most one
        // outstanding post per rank — never with the iteration count.
        assert_eq!(
            ov.pool_allocs + ov.pool_reuses,
            full.pool_allocs + full.pool_reuses,
            "{what}: Overlap changed the number of pooled buffer acquisitions"
        );
        assert!(
            ov.pool_allocs < full.pool_allocs + p as u64,
            "{what}: Overlap grew the pool to {} buffers (Full: {}), above \
             its in-flight window of p-1={}",
            ov.pool_allocs,
            full.pool_allocs,
            p - 1
        );
        if what.starts_with("dgefa") {
            // The pivot-broadcast pipeline keeps at most one post in
            // flight per root, so the pool never reaches p buffers.
            assert!(
                ov.pool_allocs < p as u64,
                "{what}: pivot pipeline holds {} buffers, expected < p={p}",
                ov.pool_allocs
            );
            assert!(
                ov.time_us < full.time_us,
                "{what}: pipelining must strictly improve modeled time \
                 ({} vs {})",
                ov.time_us,
                full.time_us
            );
        }
        if what == "dgefa n=256" {
            let pct = 100.0 * (full.time_us - ov.time_us) / full.time_us;
            assert!(
                pct >= 15.0,
                "{what}: Overlap shaves {pct:.2}% off Full's modeled time, below 15%"
            );
        }
    }
}

/// The optimizer must report what it did: on dgefa the `Full` report
/// shows one eliminated broadcast, and `Off` reports nothing.
#[test]
fn opt_report_reflects_elimination() {
    let src = dgefa_source(8, 2);
    let out = compile(&src, &CompileOptions::default()).unwrap();
    assert_eq!(out.report.comm.level, CommOpt::Full);
    assert!(
        out.report.comm.eliminated >= 1,
        "dgefa must report an eliminated broadcast, got {:?}",
        out.report.comm
    );
    let off = compile(
        &src,
        &CompileOptions::builder().comm_opt(CommOpt::Off).build(),
    )
    .unwrap();
    assert_eq!(off.report.comm.eliminated, 0);
    assert_eq!(off.report.comm.level, CommOpt::Off);
}

/// What the optimizer decided and what the result does when run, per
/// program and level, pinned as a table. The goldens catch a change in
/// printed code; this catches an optimization that silently stops firing
/// on a program no golden prints, and a broadcast whose lowering, tag or
/// buffer handling drifts: per row the `OptReport` counters, then the
/// broadcast traffic by accounting tag (messages/bytes), the VM's
/// dispatched instructions and the pooled buffers each engine allocated
/// and reused, then the VM's opcode mix.
#[test]
fn opt_report_counters_are_pinned() {
    use fortrand_analysis::fixtures::{FIG1, FIG15};
    use fortrand_spmd::interp::{TAG_BCAST, TAG_BCAST_PACK};
    use fortrand_spmd::{try_run_spmd, Bytecode, ExecOptions, Tree};
    let programs = [
        ("dgefa", dgefa_source(64, 4)),
        ("relax", relax_source(32, 2, 3, 4)),
        ("adi", adi_source(12, 2, 4)),
        ("wide", wide_corpus(8, 64, 4)),
        ("fig1", FIG1.to_string()),
        ("fig4", FIG4.to_string()),
        ("fig15", FIG15.to_string()),
    ];
    let mut table = String::new();
    for (what, src) in &programs {
        for level in [
            CommOpt::Off,
            CommOpt::Coalesce,
            CommOpt::Full,
            CommOpt::Overlap,
        ] {
            let out = compile(src, &CompileOptions::builder().comm_opt(level).build())
                .unwrap_or_else(|e| panic!("{what} at {level:?}: {e}"));
            let c = &out.report.comm;
            table.push_str(&format!(
                "{what} {}: elim={} coal={} hoist={} ovl={} posts={} waits={} pipe={}\n",
                level.as_str(),
                c.eliminated,
                c.coalesced,
                c.hoisted,
                c.overlapped,
                c.posts_hoisted,
                c.waits_sunk,
                c.pipelined_loops
            ));
            let mut init = BTreeMap::new();
            if *what == "dgefa" {
                init.insert(out.spmd.interner.get("a").unwrap(), dgefa_matrix(64));
            }
            let run = |opts: ExecOptions| {
                try_run_spmd(&out.spmd, &Machine::new(out.spmd.nprocs), &init, &opts)
                    .unwrap_or_else(|f| panic!("{what} at {level:?}: {f}"))
                    .stats
            };
            let vm = run(ExecOptions::new().backend(Bytecode));
            let tree = run(ExecOptions::new().backend(Tree));
            assert_eq!(vm.msgs_by_tag, tree.msgs_by_tag, "{what} at {level:?}");
            let tag = |t| vm.msgs_by_tag.get(&t).copied().unwrap_or((0, 0));
            let (bm, bb) = tag(TAG_BCAST);
            let (pm, pb) = tag(TAG_BCAST_PACK);
            table.push_str(&format!(
                "+ run: bcast={bm}/{bb} pack={pm}/{pb} instrs={} vm-pool={}+{} tree-pool={}+{}\n",
                vm.engine_instrs,
                vm.pool_allocs,
                vm.pool_reuses,
                tree.pool_allocs,
                tree.pool_reuses
            ));
            let mix: Vec<String> = vm
                .instr_mix
                .iter()
                .map(|(op, n)| format!("{op}={n}"))
                .collect();
            table.push_str(&format!("+ mix: {}\n", mix.join(" ")));
        }
    }
    assert_eq!(table, OPT_COUNTERS, "optimizer decisions changed:\n{table}");
}

const OPT_COUNTERS: &str = "\
dgefa off: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=378/98280 pack=0/0 instrs=158560 vm-pool=2+124 tree-pool=2+124\n\
+ mix: LdI=35615 LdVar=31500 StVar=4284 MovI=5174 MyP=6363 Bin=45742 Intr=252 Load=2016 LoadS=2268 StoreS=2272 Owner=756 LocalIdx=315 BrFalse=4536 BrNotRank=504 LoopHead=319 LoopNext=6300 Call=2335 Return=2339 Gather=126 Scatter=504 Bcast=504 KLoop=2268 MovVar=252 LdElemVar=2016\n\
dgefa coalesce: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=378/98280 pack=0/0 instrs=158560 vm-pool=2+124 tree-pool=2+124\n\
+ mix: LdI=35615 LdVar=31500 StVar=4284 MovI=5174 MyP=6363 Bin=45742 Intr=252 Load=2016 LoadS=2268 StoreS=2272 Owner=756 LocalIdx=315 BrFalse=4536 BrNotRank=504 LoopHead=319 LoopNext=6300 Call=2335 Return=2339 Gather=126 Scatter=504 Bcast=504 KLoop=2268 MovVar=252 LdElemVar=2016\n\
dgefa full: elim=1 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=189/49896 pack=0/0 instrs=160009 vm-pool=2+61 tree-pool=2+61\n\
+ mix: LdI=35741 LdVar=31815 StVar=4284 MovI=6182 MyP=6363 Bin=46183 Intr=252 Load=2016 LoadS=2268 StoreS=2272 Owner=504 LocalIdx=189 BrFalse=4788 BrNotRank=252 LoopHead=319 LoopNext=6300 Call=2335 Return=2339 Gather=63 Scatter=252 Bcast=252 KLoop=2772 MovVar=252 LdElemVar=2016\n\
dgefa overlap: elim=1 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=1\n\
+ run: bcast=189/49896 pack=0/0 instrs=169697 vm-pool=3+60 tree-pool=3+60\n\
+ mix: LdI=38513 LdVar=33320 StVar=4599 MovI=6182 MyP=6678 Bin=49641 Intr=252 Load=2016 LoadS=2268 StoreS=2272 Owner=756 LocalIdx=441 BrFalse=5355 BrNotRank=252 LoopHead=319 LoopNext=6300 Call=2335 Return=2339 Gather=63 Scatter=252 PostBcastMsg=252 WaitBcastMsg=252 KLoop=2772 MovVar=252 LdElemVar=2016\n\
relax off: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=936 vm-pool=8+10 tree-pool=18+0\n\
+ mix: LdI=308 LdVar=24 StVar=24 MovI=56 MyP=132 Bin=132 Fma=24 Intr=24 BrFalse=48 LoopHead=4 LoopNext=12 Call=24 Return=28 Gather=18 Scatter=18 SendMsg=18 RecvMsg=18 KLoop=24\n\
relax coalesce: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=936 vm-pool=8+10 tree-pool=18+0\n\
+ mix: LdI=308 LdVar=24 StVar=24 MovI=56 MyP=132 Bin=132 Fma=24 Intr=24 BrFalse=48 LoopHead=4 LoopNext=12 Call=24 Return=28 Gather=18 Scatter=18 SendMsg=18 RecvMsg=18 KLoop=24\n\
relax full: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=936 vm-pool=8+10 tree-pool=18+0\n\
+ mix: LdI=308 LdVar=24 StVar=24 MovI=56 MyP=132 Bin=132 Fma=24 Intr=24 BrFalse=48 LoopHead=4 LoopNext=12 Call=24 Return=28 Gather=18 Scatter=18 SendMsg=18 RecvMsg=18 KLoop=24\n\
relax overlap: elim=0 coal=0 hoist=0 ovl=4 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=972 vm-pool=8+10 tree-pool=8+10\n\
+ mix: LdI=308 LdVar=24 StVar=24 MovI=56 MyP=132 Bin=132 Fma=24 Intr=24 BrFalse=48 LoopHead=4 LoopNext=12 Call=24 Return=28 Gather=18 Scatter=18 PostSendMsg=18 WaitSendMsg=18 PostRecvMsg=18 WaitRecvMsg=18 KLoop=24\n\
adi off: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=640 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=200 LdVar=16 StVar=16 MovI=136 MyP=32 Bin=32 Fma=16 Intr=16 LoopHead=20 LoopNext=56 Call=16 Return=20 Remap=16 KLoop=48\n\
adi coalesce: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=640 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=200 LdVar=16 StVar=16 MovI=136 MyP=32 Bin=32 Fma=16 Intr=16 LoopHead=20 LoopNext=56 Call=16 Return=20 Remap=16 KLoop=48\n\
adi full: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=640 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=200 LdVar=16 StVar=16 MovI=136 MyP=32 Bin=32 Fma=16 Intr=16 LoopHead=20 LoopNext=56 Call=16 Return=20 Remap=16 KLoop=48\n\
adi overlap: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=640 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=200 LdVar=16 StVar=16 MovI=136 MyP=32 Bin=32 Fma=16 Intr=16 LoopHead=20 LoopNext=56 Call=16 Return=20 Remap=16 KLoop=48\n\
wide off: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=2308 vm-pool=18+30 tree-pool=48+0\n\
+ mix: LdI=768 LdVar=64 StVar=64 MovI=128 MyP=352 Bin=352 Fma=64 Intr=64 BrFalse=128 Call=32 Return=36 Gather=48 Scatter=48 SendMsg=48 RecvMsg=48 KLoop=64\n\
wide coalesce: elim=0 coal=14 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=1964 vm-pool=11+16 tree-pool=27+0\n\
+ mix: LdI=718 LdVar=64 StVar=64 MovI=128 MyP=254 Bin=254 Fma=64 Intr=64 BrFalse=72 Call=32 Return=36 Gather=48 Scatter=48 SendMsg=27 RecvMsg=27 KLoop=64\n\
wide full: elim=0 coal=14 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=1964 vm-pool=11+16 tree-pool=27+0\n\
+ mix: LdI=718 LdVar=64 StVar=64 MovI=128 MyP=254 Bin=254 Fma=64 Intr=64 BrFalse=72 Call=32 Return=36 Gather=48 Scatter=48 SendMsg=27 RecvMsg=27 KLoop=64\n\
wide overlap: elim=0 coal=14 hoist=0 ovl=18 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=2018 vm-pool=11+16 tree-pool=11+16\n\
+ mix: LdI=718 LdVar=64 StVar=64 MovI=128 MyP=254 Bin=254 Fma=64 Intr=64 BrFalse=72 Call=32 Return=36 Gather=48 Scatter=48 PostSendMsg=27 WaitSendMsg=27 PostRecvMsg=27 WaitRecvMsg=27 KLoop=64\n\
fig1 off: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=150 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=46 LdVar=4 StVar=4 MovI=8 MyP=22 Bin=22 Fma=4 Intr=4 BrFalse=8 Call=4 Return=8 Gather=3 Scatter=3 SendMsg=3 RecvMsg=3 KLoop=4\n\
fig1 coalesce: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=150 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=46 LdVar=4 StVar=4 MovI=8 MyP=22 Bin=22 Fma=4 Intr=4 BrFalse=8 Call=4 Return=8 Gather=3 Scatter=3 SendMsg=3 RecvMsg=3 KLoop=4\n\
fig1 full: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=150 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=46 LdVar=4 StVar=4 MovI=8 MyP=22 Bin=22 Fma=4 Intr=4 BrFalse=8 Call=4 Return=8 Gather=3 Scatter=3 SendMsg=3 RecvMsg=3 KLoop=4\n\
fig1 overlap: elim=0 coal=0 hoist=0 ovl=2 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=156 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=46 LdVar=4 StVar=4 MovI=8 MyP=22 Bin=22 Fma=4 Intr=4 BrFalse=8 Call=4 Return=8 Gather=3 Scatter=3 PostSendMsg=3 WaitSendMsg=3 PostRecvMsg=3 WaitRecvMsg=3 KLoop=4\n\
fig4 off: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=10574 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=2266 LdVar=1404 StVar=404 MovI=1016 MyP=822 Bin=822 Fma=404 Intr=404 BrFalse=8 LoopHead=8 LoopNext=500 Call=1000 Return=1004 Gather=3 Scatter=3 SendMsg=3 RecvMsg=3 KLoop=500\n\
fig4 coalesce: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=10574 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=2266 LdVar=1404 StVar=404 MovI=1016 MyP=822 Bin=822 Fma=404 Intr=404 BrFalse=8 LoopHead=8 LoopNext=500 Call=1000 Return=1004 Gather=3 Scatter=3 SendMsg=3 RecvMsg=3 KLoop=500\n\
fig4 full: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=10574 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=2266 LdVar=1404 StVar=404 MovI=1016 MyP=822 Bin=822 Fma=404 Intr=404 BrFalse=8 LoopHead=8 LoopNext=500 Call=1000 Return=1004 Gather=3 Scatter=3 SendMsg=3 RecvMsg=3 KLoop=500\n\
fig4 overlap: elim=0 coal=0 hoist=0 ovl=2 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=10580 vm-pool=3+0 tree-pool=3+0\n\
+ mix: LdI=2266 LdVar=1404 StVar=404 MovI=1016 MyP=822 Bin=822 Fma=404 Intr=404 BrFalse=8 LoopHead=8 LoopNext=500 Call=1000 Return=1004 Gather=3 Scatter=3 PostSendMsg=3 WaitSendMsg=3 PostRecvMsg=3 WaitRecvMsg=3 KLoop=500\n\
fig15 off: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=696 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=188 LdVar=36 StVar=36 MovI=80 MyP=72 Bin=72 Fma=36 Intr=36 LoopHead=4 LoopNext=16 Call=36 Return=40 Remap=4 MarkDist=4 KLoop=36\n\
fig15 coalesce: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=696 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=188 LdVar=36 StVar=36 MovI=80 MyP=72 Bin=72 Fma=36 Intr=36 LoopHead=4 LoopNext=16 Call=36 Return=40 Remap=4 MarkDist=4 KLoop=36\n\
fig15 full: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=696 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=188 LdVar=36 StVar=36 MovI=80 MyP=72 Bin=72 Fma=36 Intr=36 LoopHead=4 LoopNext=16 Call=36 Return=40 Remap=4 MarkDist=4 KLoop=36\n\
fig15 overlap: elim=0 coal=0 hoist=0 ovl=0 posts=0 waits=0 pipe=0\n\
+ run: bcast=0/0 pack=0/0 instrs=696 vm-pool=0+0 tree-pool=0+0\n\
+ mix: LdI=188 LdVar=36 StVar=36 MovI=80 MyP=72 Bin=72 Fma=36 Intr=36 LoopHead=4 LoopNext=16 Call=36 Return=40 Remap=4 MarkDist=4 KLoop=36\n\
";

/// The static message counts describe the program, not the form its
/// communication takes: splitting a send or a broadcast into a post/wait
/// pair must leave them alone.
#[test]
fn static_counts_survive_overlap() {
    let levels = [
        CommOpt::Off,
        CommOpt::Coalesce,
        CommOpt::Full,
        CommOpt::Overlap,
    ];
    let relax = relax_source(32, 2, 3, 4);
    for level in levels {
        let out = compile(&relax, &CompileOptions::builder().comm_opt(level).build()).unwrap();
        assert_eq!(out.report.static_sends, 2, "relax at {level:?}");
    }
    let dgefa = dgefa_source(64, 4);
    let out = compile(
        &dgefa,
        &CompileOptions::builder().comm_opt(CommOpt::Overlap).build(),
    )
    .unwrap();
    let emitted = fortrand_spmd::codegen::emit(&out.spmd);
    let initiated =
        emitted.matches("cx.bcast(").count() + emitted.matches("cx.post_bcast(").count();
    assert!(initiated > 0);
    assert_eq!(out.report.static_bcasts, initiated);
}

/// FNV-1a: std-only and stable across toolchains, unlike `DefaultHasher`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What the optimizer emits, pinned: per program and strategy, one
/// digest per level of the printed node program and the `OptReport`
/// (`report().comm`, its per-procedure notes included). A pass rewrite
/// that claims byte-identical output is held to it here; a change that
/// means to move code moves only the rows it names. A configuration that
/// does not compile pins its error text instead.
#[test]
fn emitted_programs_are_pinned() {
    use fortrand::{Session, Strategy};
    use fortrand_analysis::fixtures::{FIG1, FIG15};
    let mut programs = vec![
        ("dgefa(64,4)".to_string(), dgefa_source(64, 4)),
        ("relax(32,2,3,4)".to_string(), relax_source(32, 2, 3, 4)),
        ("adi(12,2,4)".to_string(), adi_source(12, 2, 4)),
        ("wide(8,64,4)".to_string(), wide_corpus(8, 64, 4)),
        ("FIG1".to_string(), FIG1.to_string()),
        ("FIG4".to_string(), FIG4.to_string()),
        ("FIG15".to_string(), FIG15.to_string()),
    ];
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/regressions");
    let mut fixtures: Vec<_> = std::fs::read_dir(dir)
        .expect("regressions directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "f"))
        .collect();
    fixtures.sort();
    for path in fixtures {
        let text = std::fs::read_to_string(&path).expect("fixture");
        let (_header, src) = text.split_once('\n').expect("header line");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        programs.push((name, src.to_string()));
    }
    let mut table = String::new();
    for (what, src) in &programs {
        for strategy in [
            Strategy::Interprocedural,
            Strategy::Immediate,
            Strategy::RuntimeResolution,
        ] {
            table.push_str(&format!("{what} {strategy:?}:"));
            for level in [
                CommOpt::Off,
                CommOpt::Coalesce,
                CommOpt::Full,
                CommOpt::Overlap,
            ] {
                let opts = CompileOptions::builder()
                    .strategy(strategy)
                    .comm_opt(level)
                    .build();
                let digest = match Session::new(src).options(opts).compile() {
                    Ok(c) => fnv1a(&format!("{}\n{:?}", c.emit(), c.report().comm)),
                    Err(e) => fnv1a(&e.to_string()),
                };
                table.push_str(&format!(" {digest:016x}"));
            }
            table.push('\n');
        }
    }
    assert_eq!(table, EMITTED, "emitted programs moved:\n{table}");
}

const EMITTED: &str = "\
dgefa(64,4) Interprocedural: 33c2b99b7f4c32f0 fd5865af317685e0 afec07eebde98975 c483a14446ce2752\n\
dgefa(64,4) Immediate: 85b90b6fe6f41149 0bf413216a754177 0971b0d14d98aeb5 24b86e674232a644\n\
dgefa(64,4) RuntimeResolution: 36021a2513a9b2af 7893f2e3b0b7e0b5 7e3b6d5681b1d807 c5f67574094e600e\n\
relax(32,2,3,4) Interprocedural: 6adbb683fe7e6c3d 658a2a3f936ce17b 4f9f25a86856add6 b68a44ed958f3e75\n\
relax(32,2,3,4) Immediate: b730b8f08fe34881 93cceeb1781b0c2f 6024670df55780b2 f3eefbccdc35836f\n\
relax(32,2,3,4) RuntimeResolution: 349c0a4110d598b6 e7b8233ee03bd6ee 7ecd5e919b0de6cf 5cc0f75058f65c67\n\
adi(12,2,4) Interprocedural: 69c672a8ea513b2a ca083d398f347762 cbcf0c1163316449 a83849ac293d0ea9\n\
adi(12,2,4) Immediate: 69c672a8ea513b2a ca083d398f347762 cbcf0c1163316449 a83849ac293d0ea9\n\
adi(12,2,4) RuntimeResolution: 7e23f1709c35871c 78fba2a32265a64c c34ae4bff0b4355f 82a037d6bac758c3\n\
wide(8,64,4) Interprocedural: d33121589376615d b4aa31a76efe9bdc b8e9afef9e8368e8 564d61cb7bf0f680\n\
wide(8,64,4) Immediate: f7c63ab66376d41b 57b2f0de80458e11 7662d5b1998983f2 e60c230d8652b381\n\
wide(8,64,4) RuntimeResolution: 6d94029ad725cd57 b036780a6cf08e5d ca6a6e783ab58f16 868e38c0f9832ac4\n\
FIG1 Interprocedural: 2493f384bf0baed9 8b912177d5cec007 0829cfc94639d955 cbcaedc0ecfbfe44\n\
FIG1 Immediate: 5613907cbd5ebba1 3f0d3c81f6a0354f ca63cca8cef3a78d 9bf5e0420aede156\n\
FIG1 RuntimeResolution: 8252e827813384e0 6c234210ff6b6a90 618f552aac180422 1c44ac7e2d41f956\n\
FIG4 Interprocedural: 5d7a5960892a417f 66950ee83fe1b145 44934ae7d874c9ac 4985868c19a0c94d\n\
FIG4 Immediate: 7a3b90ec949d55d3 aa94881252d699e9 ea0c6a9899236cac 0648b7ea0e62285f\n\
FIG4 RuntimeResolution: 13a17b6f53d3dd29 97a88230230c5c57 71f64943cdff509e e678a5fb81d6a35c\n\
FIG15 Interprocedural: b3083e589a4a5aec ee4e4a2d717ea89c 0700f228fbcf1754 f2ebc7325a1bb708\n\
FIG15 Immediate: 95693e088e0d0d2b b6143c8749b82421 e299716a5ae4d45f 02a3a0ccafdbab1d\n\
FIG15 RuntimeResolution: 7ad6f39b0a50fd44 26db0d5c68a58cd4 3cc687897c6f26fc d91385ed3ccb6160\n\
aggregation_keeps_peers_and_guards_apart.f Interprocedural: 5aa6224c160c328e bbbce15a258e478e b6c1b4da85d36ee0 5bfd64d84bb87013\n\
aggregation_keeps_peers_and_guards_apart.f Immediate: 684cf3f2dac64fc7 fa4e42b26f9f548d 5e30a2f9a214fa1c 8a7c80a38c93fcfb\n\
aggregation_keeps_peers_and_guards_apart.f RuntimeResolution: 136b5d7e7434323c 8241fdda3cfd66ec 30b639488c079a8b a35ce6cc659d3cf7\n\
aggregation_stops_at_a_call_that_writes_the_array.f Interprocedural: 8c82866f5a5d7852 aff133f989d72b13 9d30a2ca8f3634f5 7b84bc59754c405c\n\
aggregation_stops_at_a_call_that_writes_the_array.f Immediate: 8211696fffe050a4 01aa5ea78995d134 4e246ed0cfe79b09 4610a32412277ef7\n\
aggregation_stops_at_a_call_that_writes_the_array.f RuntimeResolution: 6c4d17c618bb07e8 61813834bb901618 866307a612614975 48e6583fb5eb5d81\n\
aggregation_stops_at_a_copied_out_bound.f Interprocedural: 35af508911df8364 1b3419c4ca1a3ef4 0fce68594e41171c 1552a0e262738135\n\
aggregation_stops_at_a_copied_out_bound.f Immediate: 7742c4119488c55a 99baa97d2a8c9e92 88b977cc670637fa 450db4b260735ef1\n\
aggregation_stops_at_a_copied_out_bound.f RuntimeResolution: 1d6b1a2ad7c79cc9 2b982c89b08733f7 6895c0550ec84bfb ad87c8799c50a6e5\n\
broadcast_of_an_element_the_loop_writes.f Interprocedural: ac95131996d2b82d ac95131996d2b82d ac95131996d2b82d ac95131996d2b82d\n\
broadcast_of_an_element_the_loop_writes.f Immediate: ac95131996d2b82d ac95131996d2b82d ac95131996d2b82d ac95131996d2b82d\n\
broadcast_of_an_element_the_loop_writes.f RuntimeResolution: 642a743e4e767466 5ae85d5c5fcc945e d8605006621c658f 267e0d67a7104f37\n\
delayed_exchange_after_callee_write.f Interprocedural: 689ef85c96aaad1d 9df2e286f70477db bbac059a71a8a836 0ef3a99b49456aa2\n\
delayed_exchange_after_callee_write.f Immediate: f6bff0a2e1ae255b 3c902f511ad1ce51 940ab3dcbb8fced8 03c2684982c168c9\n\
delayed_exchange_after_callee_write.f RuntimeResolution: 05f81d41c0edcaf8 0d17c531014e7aa8 c86b8a1768bcc8bd 61802a9205987619\n\
delayed_exchange_after_sibling_call_write.f Interprocedural: d005cea71b9da787 e28a99b68a582a4d be1f901d197f3731 0a39b7d2752fd8e0\n\
delayed_exchange_after_sibling_call_write.f Immediate: 74cf080cfef0c615 c07bb50288a73933 8b55326ad04d8f07 4a66d51c2f678df0\n\
delayed_exchange_after_sibling_call_write.f RuntimeResolution: a5fb8d2c000388a9 2b0689e5e2feaed7 2a6797ecc899da23 ffd504033d444495\n\
do_variable_read_after_partitioned_loop.f Interprocedural: 3a83d090f195895c 1b572ef3130f6e8c 00c67f7aaeaf96f2 fe002c06589ec759\n\
do_variable_read_after_partitioned_loop.f Immediate: 3a83d090f195895c 1b572ef3130f6e8c 00c67f7aaeaf96f2 fe002c06589ec759\n\
do_variable_read_after_partitioned_loop.f RuntimeResolution: 3f8c63c164233bed cb009fb510df7d6b e480c822eb5e98fb 496e9b46a62fcdf9\n\
packed_column_broadcast.f Interprocedural: 4986e825f4fdbfaa 3cc5050b26fabb0a c8034d80b4fb5a30 bee07340c4715186\n\
packed_column_broadcast.f Immediate: 4986e825f4fdbfaa 3cc5050b26fabb0a c8034d80b4fb5a30 bee07340c4715186\n\
packed_column_broadcast.f RuntimeResolution: 75c726ecf6a2bf0c 65ca45ff9f214d3c a1ca98ba99771482 8840eda72a21e2d6\n\
remap_keeps_overlap_cells.f Interprocedural: 3e1ba756fd6c64e1 cc55171140c9178f ed9bf410eac29455 b8cc56d3415aefe2\n\
remap_keeps_overlap_cells.f Immediate: f1d8dece84e82617 ef0ed27d0aa6c81d ec816df82eba6803 f5217ebbf427255c\n\
remap_keeps_overlap_cells.f RuntimeResolution: f25c9e7141563a50 03528b92ca686bc0 a1e07b6ac1aea5e0 f5c023476edb1f6c\n\
";
