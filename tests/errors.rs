//! Failure injection: every rejected program class must produce a clear
//! diagnostic (never silent wrong code), and legal-but-odd programs must
//! still compile.

mod common;

use common::compile;
use fortrand::{CompileOptions, Strategy};

fn err_of(src: &str) -> String {
    match compile(src, &CompileOptions::default()) {
        Err(e) => format!("{e}"),
        Ok(_) => panic!("expected a compile error"),
    }
}

#[test]
fn parse_error_reports_line() {
    let e = err_of("PROGRAM p\n x = )\n END\n");
    assert!(e.contains("front end"), "{e}");
    assert!(e.contains("line"), "{e}");
}

#[test]
fn semantic_error_unknown_callee() {
    let e = err_of("PROGRAM p\n call ghost(1)\n END\n");
    assert!(e.contains("undefined subroutine"), "{e}");
}

#[test]
fn recursion_rejected() {
    let e = err_of(
        "
      PROGRAM p
      call a
      END
      SUBROUTINE a
      call a
      END
",
    );
    assert!(e.contains("recursive"), "{e}");
}

#[test]
fn function_units_rejected_in_spmd() {
    let e = err_of(
        "
      PROGRAM p
      REAL y
      y = f(1.0)
      END
      REAL FUNCTION f(x)
      REAL x
      f = x
      END
",
    );
    assert!(e.contains("FUNCTION"), "{e}");
}

#[test]
fn nonaffine_distributed_subscript_rejected() {
    let e = err_of(
        "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL a(10)
      INTEGER idx(10)
      DISTRIBUTE a(BLOCK)
      do i = 1, 10
        a(idx(i)) = 1.0
      enddo
      END
",
    );
    assert!(e.contains("non-affine"), "{e}");
}

#[test]
fn shifted_lhs_on_distributed_dim_rejected() {
    let e = err_of(
        "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL a(10)
      DISTRIBUTE a(BLOCK)
      do i = 1, 9
        a(i+1) = 1.0
      enddo
      END
",
    );
    assert!(e.contains("shifted lhs"), "{e}");
}

#[test]
fn cyclic_shift_read_rejected_with_hint() {
    let e = err_of(
        "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL a(10), b(10)
      DISTRIBUTE a(CYCLIC)
      DISTRIBUTE b(CYCLIC)
      do i = 1, 9
        b(i) = a(i+1)
      enddo
      END
",
    );
    assert!(e.contains("non-BLOCK"), "{e}");
}

#[test]
fn pipelining_case_rejected_with_hint() {
    let e = err_of(
        "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL a(10)
      DISTRIBUTE a(BLOCK)
      do i = 2, 10
        a(i) = a(i-1)
      enddo
      END
",
    );
    assert!(e.contains("pipelining"), "{e}");
    assert!(e.contains("run-time resolution"), "{e}");
    // The line of `a(i) = a(i-1)`.
    assert!(e.contains("line 7:"), "{e}");
}

/// A partitioned loop that writes the element every iteration reads
/// through a broadcast carries a flow dependence across ranks: each rank
/// would receive the element at its own local iteration, before the
/// global iteration that writes it. Both compile-time strategies reject
/// it; run-time resolution computes it
/// (`tests/regressions/broadcast_of_an_element_the_loop_writes.f`).
#[test]
fn broadcast_of_an_element_the_partitioned_loop_writes_rejected() {
    let src = "
      PROGRAM main
      PARAMETER (n$proc = 3)
      REAL y(24)
      DISTRIBUTE y(BLOCK)
      do i = 1, 24
        y(i) = y(i) / y(2)
      enddo
      END
";
    for strategy in [Strategy::Interprocedural, Strategy::Immediate] {
        let opts = CompileOptions::builder().strategy(strategy).build();
        let e = format!("{}", compile(src, &opts).expect_err("must be rejected"));
        assert!(e.contains("pipelining"), "{strategy:?}: {e}");
    }
}

/// A write made through a call between two pinned reads of one slice
/// keeps the slice's broadcast from being hoisted above both reads, as a
/// write in the unit itself does.
#[test]
fn pinned_slice_written_by_a_call_rejected() {
    for strategy in [Strategy::Interprocedural, Strategy::Immediate] {
        let e = match compile(
            common::CALL_WRITES_PINNED_SLICE,
            &CompileOptions::builder().strategy(strategy).build(),
        ) {
            Err(e) => format!("{e}"),
            Ok(out) => panic!(
                "{strategy:?}: expected a compile error, got\n{}",
                fortrand_spmd::print::pretty_all(&out.spmd)
            ),
        };
        assert!(e.contains("conflicting placements"), "{strategy:?}: {e}");
    }
}

/// §6.4: dynamic decomposition of aliased variables is illegal.
#[test]
fn aliased_dynamic_decomposition_rejected() {
    let e = err_of(
        "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL x(10)
      DISTRIBUTE x(BLOCK)
      call f(x, x)
      END
      SUBROUTINE f(a, b)
      REAL a(10), b(10)
      DISTRIBUTE a(CYCLIC)
      do i = 1, 10
        a(i) = 1.0
      enddo
      END
",
    );
    assert!(e.contains("aliased"), "{e}");
    assert!(e.contains("6.4"), "{e}");
}

/// Aliasing WITHOUT dynamic decomposition stays legal.
#[test]
fn aliasing_without_remap_is_legal() {
    let src = "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL x(10)
      DISTRIBUTE x(BLOCK)
      call f(x, x)
      END
      SUBROUTINE f(a, b)
      REAL a(10), b(10)
      do i = 1, 10
        a(i) = 2.0
      enddo
      END
";
    compile(src, &CompileOptions::default()).unwrap();
}

/// Assignment to a PARAMETER is a front-end error.
#[test]
fn parameter_assignment_rejected() {
    let e = err_of("PROGRAM p\n PARAMETER (n = 1)\n n = 2\n END\n");
    assert!(e.contains("PARAMETER"), "{e}");
}

/// Everything that the interprocedural strategy rejects must still run
/// under run-time resolution (the fallback's raison d'être).
#[test]
fn rejected_patterns_compile_under_runtime_resolution() {
    for src in [
        // cyclic shift
        "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL a(10), b(10)
      DISTRIBUTE a(CYCLIC)
      DISTRIBUTE b(CYCLIC)
      do i = 1, 9
        b(i) = a(i+1)
      enddo
      END
",
        // carried flow dep
        "
      PROGRAM p
      PARAMETER (n$proc = 2)
      REAL a(10)
      DISTRIBUTE a(BLOCK)
      do i = 2, 10
        a(i) = a(i-1)
      enddo
      END
",
    ] {
        compile(
            src,
            &CompileOptions::builder()
                .strategy(Strategy::RuntimeResolution)
                .build(),
        )
        .unwrap_or_else(|e| panic!("runtime resolution must accept: {e}"));
    }
}

/// The cloning growth threshold forces run-time resolution (paper §5.2),
/// reported in the compile report.
#[test]
fn cloning_threshold_reported() {
    let out = compile(
        fortrand_analysis::fixtures::FIG4,
        &CompileOptions::builder().clone_limit(1).build(),
    )
    .unwrap();
    assert!(
        out.report.strategy_used.contains("fallback"),
        "{}",
        out.report.strategy_used
    );
}

/// Runs `f` on a thread with a 2 MiB stack, the size a daemon connection
/// thread has.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap();
}

/// Programs whose one assignment is `n` levels deep: in parentheses, in
/// negations, in a chain of additions, and inside DO loops.
fn nested_sources(n: usize) -> [String; 4] {
    let program = |body: String| format!("      PROGRAM p\n      REAL x\n{body}      END\n");
    [
        program(format!("      x = {}1.0{}\n", "(".repeat(n), ")".repeat(n))),
        program(format!("      x = {}1.0\n", "-".repeat(n))),
        program(format!("      x = 1.0{}\n", " + 1.0".repeat(n))),
        program(format!(
            "{}      x = x + 1.0\n{}",
            "      do i = 1, 1\n".repeat(n - 1),
            "      enddo\n".repeat(n - 1)
        )),
    ]
}

/// The nesting cap compiles and runs where a daemon compiles; one level
/// more is a front-end error naming the line.
#[test]
fn nesting_cap_compiles_and_one_level_more_is_a_spanned_error() {
    use fortrand_frontend::parser::MAX_DEPTH;
    on_small_stack(|| {
        for src in nested_sources(MAX_DEPTH) {
            let compiled = fortrand::Session::new(src)
                .compile()
                .unwrap_or_else(|e| panic!("{e}"));
            if let Err(e) = compiled.run(&Default::default()) {
                panic!("{e}");
            }
        }
        for src in nested_sources(MAX_DEPTH + 1) {
            match fortrand::Session::new(src).compile() {
                Err(fortrand::Error::Compile(fortrand::CompileError::Frontend(e))) => {
                    assert!(e.line >= 3, "{e}");
                    assert!(e.message.contains("nesting"), "{e}");
                }
                Err(e) => panic!("expected a front-end error, got {e}"),
                Ok(_) => panic!("expected a front-end error"),
            }
        }
    });
}

/// 100 000 levels are an error, not a stack overflow.
#[test]
fn hundred_thousand_levels_are_an_error() {
    on_small_stack(|| {
        for src in nested_sources(100_000) {
            let e = match fortrand::Session::new(src).compile() {
                Err(e) => e.to_string(),
                Ok(_) => panic!("expected a compile error"),
            };
            assert!(e.contains("nesting"), "{e}");
        }
    });
}
