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
