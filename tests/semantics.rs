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
