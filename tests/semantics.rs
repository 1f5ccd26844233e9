//! End-to-end semantics preservation: for every corpus program and every
//! compilation strategy, the simulated SPMD execution must produce the
//! same array contents as the sequential reference interpreter.

mod common;

use common::{compile, run_spmd};
use fortrand::{run_sequential, CompileOptions, DynOptLevel, Strategy};
use fortrand_analysis::fixtures::{FIG1, FIG15, FIG4};
use fortrand_machine::Machine;
use std::collections::BTreeMap;

/// Runs `src` sequentially and under `strategy` on `nprocs`, comparing
/// every main-program array elementwise.
fn check(src: &str, strategy: Strategy, nprocs: usize, dyn_opt: DynOptLevel) {
    let (prog, info) = {
        let mut p = fortrand_frontend::parse_program(src).unwrap();
        let i = fortrand_frontend::analyze(&mut p).unwrap();
        (p, i)
    };
    // Deterministic, non-trivial initial data for every main array.
    let main = prog.main_unit().unwrap();
    let mut init = BTreeMap::new();
    for (&name, vi) in &info.unit(main.name).vars {
        if vi.is_array() {
            let len: i64 = vi.dims.iter().product();
            let data: Vec<f64> = (0..len)
                .map(|i| ((i * 37 + 11) % 101) as f64 * 0.5 + 1.0)
                .collect();
            init.insert(name, data);
        }
    }
    let seq = run_sequential(&prog, &info, &init);

    let out = compile(
        src,
        &CompileOptions::builder()
            .strategy(strategy)
            .nprocs(nprocs)
            .dyn_opt(dyn_opt)
            .build(),
    )
    .unwrap_or_else(|e| panic!("{strategy:?}/{nprocs}: compile failed: {e}"));
    let machine = Machine::new(nprocs);
    // Key init by the SPMD program's interner (names survive cloning).
    let mut spmd_init = BTreeMap::new();
    for (name, data) in &init {
        let n = prog.interner.name(*name);
        let s = out.spmd.interner.get(n).unwrap();
        spmd_init.insert(s, data.clone());
    }
    let result = run_spmd(&out.spmd, &machine, &spmd_init);

    for (name, expect) in &seq.arrays {
        let n = prog.interner.name(*name);
        let s = out.spmd.interner.get(n).unwrap();
        let got = result
            .arrays
            .get(&s)
            .unwrap_or_else(|| panic!("{strategy:?}: array {n} missing from SPMD output"));
        assert_eq!(got.len(), expect.len(), "{strategy:?}: length of {n}");
        for (i, (g, e)) in got.iter().zip(expect).enumerate() {
            assert!(
                (g - e).abs() <= 1e-9 * e.abs().max(1.0),
                "{strategy:?}/{nprocs} procs: {n}[{i}] = {g}, sequential = {e}"
            );
        }
    }
    let _ = prog.units.len();
}

fn check_all_strategies(src: &str, nprocs: usize) {
    check(src, Strategy::Interprocedural, nprocs, DynOptLevel::Kills);
    check(src, Strategy::Immediate, nprocs, DynOptLevel::Kills);
    check(src, Strategy::RuntimeResolution, nprocs, DynOptLevel::Kills);
}

#[test]
fn fig1_all_strategies_4_procs() {
    check_all_strategies(FIG1, 4);
}

#[test]
fn fig1_all_strategies_2_procs() {
    check_all_strategies(FIG1, 2);
}

#[test]
fn fig1_single_proc() {
    check_all_strategies(FIG1, 1);
}

#[test]
fn fig4_all_strategies_4_procs() {
    check_all_strategies(FIG4, 4);
}

#[test]
fn fig4_interprocedural_5_procs_uneven_blocks() {
    check(FIG4, Strategy::Interprocedural, 5, DynOptLevel::Kills);
}

#[test]
fn fig15_dynamic_decomposition_every_opt_level() {
    for lvl in [
        DynOptLevel::None,
        DynOptLevel::Live,
        DynOptLevel::Hoist,
        DynOptLevel::Kills,
    ] {
        check(FIG15, Strategy::Interprocedural, 4, lvl);
    }
}

#[test]
fn fig15_immediate_and_runtime() {
    check(FIG15, Strategy::Immediate, 4, DynOptLevel::None);
    check(FIG15, Strategy::RuntimeResolution, 4, DynOptLevel::None);
}

/// A cyclic distribution with a guarded local loop.
#[test]
fn cyclic_partitioned_loop() {
    let src = "
      PROGRAM main
      REAL a(40)
      PARAMETER (n$proc = 4)
      DISTRIBUTE a(CYCLIC)
      do i = 1, 40
        a(i) = a(i) * 3.0
      enddo
      END
";
    check_all_strategies(src, 4);
}

/// Block-cyclic distribution under run-time resolution.
#[test]
fn block_cyclic_runtime_resolution() {
    let src = "
      PROGRAM main
      REAL a(40)
      PARAMETER (n$proc = 4)
      DISTRIBUTE a(BLOCK_CYCLIC(3))
      do i = 1, 40
        a(i) = a(i) + 2.0
      enddo
      END
";
    check(src, Strategy::RuntimeResolution, 4, DynOptLevel::Kills);
}

/// Backward stencil (negative offset): exchange flows the other way.
/// Writing a different array keeps the read flow-free, so the compiler may
/// prefetch the low-side overlap.
#[test]
fn negative_shift_stencil() {
    let src = "
      PROGRAM main
      REAL a(64), b(64)
      PARAMETER (n$proc = 4)
      DISTRIBUTE a(BLOCK)
      DISTRIBUTE b(BLOCK)
      call smooth(a, b)
      END
      SUBROUTINE smooth(x, y)
      REAL x(64), y(64)
      do i = 4, 64
        y(i) = 0.5 * x(i-3)
      enddo
      END
";
    check_all_strategies(src, 4);
}

/// A true carried flow dependence on a distributed dimension is an
/// explicit unsupported-pattern error (the paper's pipelining case), not
/// silent wrong code — and run-time resolution still handles it.
#[test]
fn carried_flow_dependence_rejected_with_rtr_fallback() {
    let src = "
      PROGRAM main
      REAL a(64)
      PARAMETER (n$proc = 4)
      DISTRIBUTE a(BLOCK)
      do i = 4, 64
        a(i) = 0.5 * a(i-3)
      enddo
      END
";
    let err = compile(src, &CompileOptions::builder().nprocs(4).build())
        .expect_err("carried flow dep must be rejected");
    assert!(format!("{err}").contains("pipelining"), "{err}");
    check(src, Strategy::RuntimeResolution, 4, DynOptLevel::Kills);
}

/// Run-time resolution computes the pinned-slice program the compile-time
/// strategies reject (`errors::pinned_slice_written_by_a_call_rejected`).
#[test]
fn pinned_slice_written_by_a_call_under_rtr() {
    check(
        common::CALL_WRITES_PINNED_SLICE,
        Strategy::RuntimeResolution,
        4,
        DynOptLevel::Kills,
    );
}

/// Two-dimensional block rows with a column-direction (serial) sweep.
#[test]
fn two_dim_row_block() {
    let src = "
      PROGRAM main
      REAL a(16,8)
      PARAMETER (n$proc = 4)
      DISTRIBUTE a(BLOCK,:)
      call sweep(a)
      END
      SUBROUTINE sweep(z)
      REAL z(16,8)
      do j = 2, 8
        do i = 1, 16
          z(i,j) = z(i,j) + z(i,j-1)
        enddo
      enddo
      END
";
    check_all_strategies(src, 4);
}

/// Scalar results must agree (copy-out through calls).
#[test]
fn scalar_copy_out_chain() {
    let src = "
      PROGRAM main
      REAL a(8)
      INTEGER l
      PARAMETER (n$proc = 2)
      DISTRIBUTE a(BLOCK)
      l = 0
      call pick(l)
      do i = 1, 8
        a(i) = 1.0 * l
      enddo
      END
      SUBROUTINE pick(l)
      INTEGER l
      l = 5
      END
";
    check_all_strategies(src, 2);
}

/// Declared DECOMPOSITION with a permuted ALIGN: the fig. 4 pattern via an
/// explicit decomposition object.
#[test]
fn decomposition_with_permuted_align() {
    let src = "
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL a(12,12)
      DECOMPOSITION d(12,12)
      ALIGN a(i,j) with d(j,i)
      DISTRIBUTE d(BLOCK,:)
      do j = 1, 12
        do i = 1, 12
          a(i,j) = a(i,j) + 1.0
        enddo
      enddo
      END
";
    check_all_strategies(src, 4);
}

/// Alignment offsets on distributed dimensions are rejected at compile
/// time (the partitioning formulas assume zero offsets) but still run
/// under run-time resolution.
#[test]
fn alignment_offset_rejected_then_rtr() {
    let src = "
      PROGRAM main
      PARAMETER (n$proc = 2)
      REAL a(10)
      DECOMPOSITION d(20)
      ALIGN a(i) with d(i+10)
      DISTRIBUTE d(BLOCK)
      do i = 1, 10
        a(i) = a(i) * 2.0
      enddo
      END
";
    let err = compile(src, &CompileOptions::builder().nprocs(2).build())
        .expect_err("offset alignment must be rejected at compile time");
    assert!(format!("{err}").contains("alignment offset"), "{err}");
    check(src, Strategy::RuntimeResolution, 2, DynOptLevel::Kills);
}

/// Multiple arrays sharing one decomposition stay mutually consistent.
#[test]
fn shared_decomposition_two_arrays() {
    let src = "
      PROGRAM main
      PARAMETER (n$proc = 3)
      REAL a(24), b(24)
      DECOMPOSITION d(24)
      ALIGN a(i) with d(i)
      ALIGN b(i) with d(i)
      DISTRIBUTE d(BLOCK)
      do i = 1, 24
        b(i) = a(i) + 1.0
      enddo
      do i = 1, 24
        a(i) = b(i) * 2.0
      enddo
      END
";
    check_all_strategies(src, 3);
}

/// IF/ELSE inside a partitioned loop (guards compose with reduction).
#[test]
fn conditional_inside_partitioned_loop() {
    let src = "
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL a(16)
      DISTRIBUTE a(BLOCK)
      do i = 1, 16
        if (a(i) .gt. 10.0) then
          a(i) = a(i) - 10.0
        else
          a(i) = a(i) + 1.0
        endif
      enddo
      END
";
    check_all_strategies(src, 4);
}

/// Three-deep call chain threading a problem size constant.
#[test]
fn deep_call_chain_with_constant() {
    let src = "
      PROGRAM main
      PARAMETER (n$proc = 2)
      PARAMETER (n = 32)
      REAL a(32)
      DISTRIBUTE a(BLOCK)
      call outer(a, n)
      END
      SUBROUTINE outer(x, n)
      REAL x(32)
      INTEGER n
      call inner(x, n)
      END
      SUBROUTINE inner(x, n)
      REAL x(32)
      INTEGER n
      do i = 1, n - 2
        x(i) = 0.25 * x(i+2)
      enddo
      END
";
    check_all_strategies(src, 2);
}

/// ADI alternating-direction sweeps with phase remapping — §6's
/// motivating application: each sweep direction is fully local under its
/// phase's distribution; only the inter-phase remaps communicate.
#[test]
fn adi_dynamic_phases() {
    let src = fortrand::corpus::adi_source(16, 2, 4);
    check_all_strategies(&src, 4);
    check_all_strategies(&adi_cyclic_rows(16, 2, 4), 4);
}

/// ADI whose row phase is `(CYCLIC,:)`: the remaps run between a strided
/// and a contiguous ownership.
fn adi_cyclic_rows(n: i64, steps: i64, nprocs: usize) -> String {
    fortrand::corpus::adi_source(n, steps, nprocs).replace("a(BLOCK,:)", "a(CYCLIC,:)")
}

/// ADI at an uneven block size and a different processor count, through
/// the full remap and (run-time resolution) the in-place one.
#[test]
fn adi_uneven_blocks() {
    for src in [
        fortrand::corpus::adi_source(13, 3, 3),
        adi_cyclic_rows(13, 3, 3),
    ] {
        check(&src, Strategy::Interprocedural, 3, DynOptLevel::Kills);
        check(&src, Strategy::RuntimeResolution, 3, DynOptLevel::Kills);
    }
}

// ---------------------------------------------------------------------
// The sequential oracle pinned: every other suite trusts `run_sequential`,
// so its own results are fixed here, bit for bit, on the workloads and
// fixtures the suites use, and on the value rules a change to the
// interpreter could silently move (DESIGN.md, "Sequential oracle").

/// Seeded values in [0.5, 1.5): never zero (splitmix64 over the seed and
/// the element index).
fn seeded(seed: u64, len: usize) -> Vec<f64> {
    let value = |i: u64| {
        let mut z = seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        0.5 + (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    (0..len as u64).map(value).collect()
}

/// FNV-1a over every final array (name, then each element's bits, in the
/// output's order) and every printed line, of the oracle's run of `src`
/// from seeded main-program arrays.
fn oracle_digest(src: &str) -> u64 {
    let (prog, info) = fortrand_frontend::load_program(src).unwrap_or_else(|e| panic!("{e}"));
    let main = prog.main_unit().unwrap();
    let mut init = BTreeMap::new();
    for (seed, (&array, vi)) in (1992..).zip(&info.unit(main.name).vars) {
        if vi.is_array() {
            let len = vi.dims.iter().product::<i64>() as usize;
            init.insert(array, seeded(seed, len));
        }
    }
    let out = run_sequential(&prog, &info, &init);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (&array, data) in &out.arrays {
        eat(prog.interner.name(array).as_bytes());
        eat(&[0xff]);
        for v in data {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    for line in &out.printed {
        eat(line.as_bytes());
        eat(b"\n");
    }
    h
}

/// The programs the oracle is pinned on, by name: the benchmark's
/// workloads (dgefa at full size only in a release build), the paper's
/// figures, and every checked-in regression fixture.
fn pinned_programs() -> Vec<(String, String)> {
    use fortrand::corpus::{adi_source, dgefa_source, relax_source, wide_corpus};
    let mut programs = vec![
        ("dgefa(64,4)".to_string(), dgefa_source(64, 4)),
        (
            "relax(4096,1,160,256)".into(),
            relax_source(4096, 1, 160, 256),
        ),
        ("adi(256,4,8)".into(), adi_source(256, 4, 8)),
        ("wide_corpus(24,128,4)".into(), wide_corpus(24, 128, 4)),
        ("FIG1".into(), FIG1.to_string()),
        ("FIG4".into(), FIG4.to_string()),
        ("FIG15".into(), FIG15.to_string()),
    ];
    if !cfg!(debug_assertions) {
        programs.push(("dgefa(256,8)".into(), dgefa_source(256, 8)));
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/regressions");
    let mut fixtures: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "f"))
        .collect();
    fixtures.sort();
    for path in fixtures {
        let text = std::fs::read_to_string(&path).unwrap();
        let (_header, src) = text.split_once('\n').expect("header line");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        programs.push((name, src.to_string()));
    }
    programs
}

/// The oracle's digest of each pinned program. A new regression fixture
/// adds its line here; any other change to a value is a change to the
/// oracle's meaning and needs a reason.
const ORACLE_PINS: &[(&str, u64)] = &[
    ("dgefa(64,4)", 0x6e3b_041d_6040_47a7),
    ("relax(4096,1,160,256)", 0x9ffe_9287_ecdc_48d5),
    ("adi(256,4,8)", 0xbd01_f66a_a305_9f36),
    ("wide_corpus(24,128,4)", 0x51de_568f_38e4_3644),
    ("FIG1", 0x10f1_c7c0_ffcf_b5ce),
    ("FIG4", 0x3755_744d_cbdc_1a10),
    ("FIG15", 0x9ad1_6035_df6c_f1c8),
    ("dgefa(256,8)", 0x28d1_4a0e_11b1_c263),
    (
        "broadcast_of_an_element_the_loop_writes.f",
        0xe68c_2015_0d45_a943,
    ),
    (
        "delayed_exchange_after_callee_write.f",
        0x34ef_91e9_be6b_f782,
    ),
    (
        "delayed_exchange_after_sibling_call_write.f",
        0xdf17_57a5_104e_bc1a,
    ),
    ("packed_column_broadcast.f", 0x6e88_f077_6f9e_2ab7),
    ("remap_keeps_overlap_cells.f", 0x6c7a_9453_aede_7e0e),
    (
        "do_variable_read_after_partitioned_loop.f",
        0x45a1_fd67_5278_7a91,
    ),
    (
        "aggregation_keeps_peers_and_guards_apart.f",
        0x7728_57bf_662f_0e5d,
    ),
    (
        "aggregation_stops_at_a_call_that_writes_the_array.f",
        0x360f_4e92_5319_cdac,
    ),
    (
        "aggregation_stops_at_a_copied_out_bound.f",
        0xb375_674f_b261_6316,
    ),
];

#[test]
fn oracle_outputs_are_pinned() {
    let mut failures = Vec::new();
    for (name, src) in pinned_programs() {
        let got = oracle_digest(&src);
        match ORACLE_PINS.iter().find(|(n, _)| *n == name) {
            Some(&(_, want)) if want == got => {}
            Some(&(_, want)) => failures.push(format!("{name}: {got:#018x}, pinned {want:#018x}")),
            None => failures.push(format!("{name}: {got:#018x}, not pinned")),
        }
    }
    assert!(
        failures.is_empty(),
        "oracle digests:\n{}",
        failures.join("\n")
    );
}

/// `printed` of the oracle's run of `src` from zeroed arrays.
fn printed(src: &str) -> Vec<String> {
    let (prog, info) = fortrand_frontend::load_program(src).unwrap_or_else(|e| panic!("{e}"));
    run_sequential(&prog, &info, &BTreeMap::new()).printed
}

/// An unassigned scalar reads as the integer 0, a REAL one included: the
/// division below is an integer division.
#[test]
fn oracle_unassigned_scalars_read_as_integer_zero() {
    let out = printed(
        "
      PROGRAM main
      REAL r
      INTEGER k
      print *, r, k, 7 / (r + 2), 7 / (k + 2)
      END
",
    );
    assert_eq!(out, ["0 0 3 3"]);
}

/// A PARAMETER's value wins over a scalar of the same name, whether a DO
/// or a call's copy-out wrote that scalar.
#[test]
fn oracle_parameter_shadows_a_written_scalar() {
    let out = printed(
        "
      PROGRAM main
      PARAMETER (n = 5)
      INTEGER n
      call setn(n)
      print *, n
      do n = 1, 2
        print *, n
      enddo
      print *, n
      END
      SUBROUTINE setn(m)
      INTEGER m
      print *, m
      m = 99
      END
",
    );
    assert_eq!(out, ["5", "5", "5", "5", "5"]);
}

/// After a DO, its variable holds the last iteration's value; a zero-trip
/// loop leaves it alone; a negative step counts down.
#[test]
fn oracle_do_variable_and_trip_counts() {
    let out = printed(
        "
      PROGRAM main
      INTEGER i, k, s
      do i = 1, 9, 3
      enddo
      print *, i
      k = 42
      do k = 5, 1
        print *, 0
      enddo
      print *, k
      do k = 1, 5, -1
        print *, 0
      enddo
      print *, k
      s = 0
      do i = 10, 1, -3
        s = s + i
      enddo
      print *, s, i
      END
",
    );
    assert_eq!(out, ["7", "42", "42", "22 1"]);
}

/// Only a scalar variable actual is copied out; an expression, an array
/// element and a literal are not, and a whole array passes by reference.
#[test]
fn oracle_copy_out_only_for_scalar_variables() {
    let out = printed(
        "
      PROGRAM main
      REAL a(2)
      REAL x, y
      x = 1.0
      y = 2.0
      a(1) = 3.0
      call bump(x, 2.0 * y, a(1), 4.0, a)
      print *, x, y, a(1), a(2)
      END
      SUBROUTINE bump(p, q, r, s, w)
      REAL p, q, r, s
      REAL w(2)
      p = p + 10.0
      q = q + 10.0
      r = r + 10.0
      s = s + 10.0
      w(2) = p + q + r + s
      END
",
    );
    assert_eq!(out, ["11 2 3 52"]);
}

/// A callee's local arrays start zeroed on every call.
#[test]
fn oracle_local_arrays_start_fresh_per_call() {
    let out = printed(
        "
      PROGRAM main
      REAL a(3)
      do i = 1, 3
        call acc(a, i)
      enddo
      print *, a(1), a(2), a(3)
      END
      SUBROUTINE acc(a, i)
      REAL a(3)
      REAL w(4)
      INTEGER i
      w(1) = w(1) + 1.0
      a(i) = w(1)
      END
",
    );
    assert_eq!(out, ["1 1 1"]);
}

/// An assignment evaluates its right-hand side before the target's
/// subscripts: the function's copy-out of `k` moves the target.
#[test]
fn oracle_rhs_before_target_subscripts() {
    let out = printed(
        "
      PROGRAM main
      REAL a(3)
      INTEGER k
      k = 1
      a(k) = next(k)
      print *, k, a(1), a(2)
      END
      REAL FUNCTION next(k)
      INTEGER k
      k = k + 1
      next = 10.0
      END
",
    );
    assert_eq!(out, ["2 0 10"]);
}
