//! Program generators for the paper's workloads.
//!
//! The dgefa case study (paper §9) is the LINPACK LU factorization with
//! partial pivoting, restructured for the whole-array argument-passing
//! subset (DESIGN.md §2): the BLAS-1 routines receive the whole matrix
//! plus indices instead of array-section actuals. The call-heavy structure
//! — the thing interprocedural compilation is about — is preserved
//! exactly: `dgefa` calls `idamax` (pivot search), `dscal` (multiplier
//! column scaling) and `daxpy` (column update) every elimination step.

/// Fortran D source for dgefa on an `n × n` matrix over `nprocs`
/// processors, columns distributed `(:, CYCLIC)` — the standard Fortran D
/// mapping for column-oriented LU.
pub fn dgefa_source(n: i64, nprocs: usize) -> String {
    format!(
        "
      PROGRAM main
      PARAMETER (n = {n})
      PARAMETER (n$proc = {nprocs})
      REAL a({n},{n})
      INTEGER ipvt({n})
      DISTRIBUTE a(:,CYCLIC)
      call dgefa(a, ipvt, n)
      END

      SUBROUTINE dgefa(a, ipvt, n)
      REAL a({n},{n})
      INTEGER ipvt({n})
      INTEGER n, k, l, j, i
      REAL t
      do k = 1, n-1
        call idamax(a, k, n, l)
        ipvt(k) = l
        if (l .ne. k) then
          do j = 1, n
            t = a(l,j)
            a(l,j) = a(k,j)
            a(k,j) = t
          enddo
        endif
        call dscal(a, k, n)
        do j = k+1, n
          t = a(k,j)
          call daxpy(a, k, j, n, t)
        enddo
      enddo
      ipvt(n) = n
      END

      SUBROUTINE idamax(a, k, n, l)
      REAL a({n},{n})
      INTEGER k, n, l, i
      REAL dmax
      l = k
      dmax = abs(a(k,k))
      do i = k+1, n
        if (abs(a(i,k)) .gt. dmax) then
          dmax = abs(a(i,k))
          l = i
        endif
      enddo
      END

      SUBROUTINE dscal(a, k, n)
      REAL a({n},{n})
      INTEGER k, n, i
      do i = k+1, n
        a(i,k) = a(i,k) / a(k,k)
      enddo
      END

      SUBROUTINE daxpy(a, k, j, n, t)
      REAL a({n},{n})
      INTEGER k, j, n, i
      REAL t
      do i = k+1, n
        a(i,j) = a(i,j) - t * a(i,k)
      enddo
      END
"
    )
}

/// A diagonally-dominant, non-symmetric test matrix (row-major) that keeps
/// partial pivoting numerically tame while still exercising row swaps.
pub fn dgefa_matrix(n: i64) -> Vec<f64> {
    let n = n as usize;
    let mut a = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..n {
            let v = (((i * 7 + j * 13 + 3) % 17) as f64) - 8.0;
            a[i * n + j] = v;
        }
        a[i * n + i] += 2.0 * n as f64 * if i % 3 == 0 { -1.0 } else { 1.0 };
    }
    a
}

/// Red-black-free Jacobi relaxation on a 1-D block array: the fig. 1/2
/// pipeline pattern scaled to an arbitrary size. `steps` sweeps of a
/// `+shift` stencil computed through a subroutine call.
pub fn relax_source(n: i64, shift: i64, steps: i64, nprocs: usize) -> String {
    format!(
        "
      PROGRAM main
      PARAMETER (n = {n})
      PARAMETER (n$proc = {nprocs})
      REAL x({n}), y({n})
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      do it = 1, {steps}
        call sweep(x, y, n)
        call sweep(y, x, n)
      enddo
      END
      SUBROUTINE sweep(u, v, n)
      REAL u({n}), v({n})
      INTEGER n, i
      do i = 1, n-{shift}
        v(i) = 0.5 * (u(i) + u(i+{shift}))
      enddo
      END
"
    )
}

/// The Fig. 15 dynamic-decomposition program with a parameterized trip
/// count (remap-optimization benchmarks sweep `t`).
pub fn fig15_source(t: i64, nprocs: usize) -> String {
    fortrand_analysis::fixtures::FIG15
        .replace("PARAMETER (t = 4)", &format!("PARAMETER (t = {t})"))
        .replace(
            "PARAMETER (n$proc = 4)",
            &format!("PARAMETER (n$proc = {nprocs})"),
        )
}

/// The Fig. 4 program with a parameterized extent (delayed-instantiation
/// benchmarks sweep the loop trip count). Extents stay 100; the callers'
/// loops shrink/grow with `trips ≤ 100`.
pub fn fig4_source(trips: i64, nprocs: usize) -> String {
    fortrand_analysis::fixtures::FIG4
        .replace("do i = 1,100", &format!("do i = 1,{trips}"))
        .replace("do j = 1,100", &format!("do j = 1,{trips}"))
        .replace(
            "PARAMETER (n$proc = 4)",
            &format!("PARAMETER (n$proc = {nprocs})"),
        )
}

/// ADI-style alternating-direction integration: the motivating workload
/// for dynamic data decomposition (§6's "phases of a computation may
/// require different data decompositions"). Each time step sweeps along
/// rows with a row-block distribution, remaps, sweeps along columns with
/// a column-block distribution, and remaps back.
pub fn adi_source(n: i64, steps: i64, nprocs: usize) -> String {
    format!(
        "
      PROGRAM main
      PARAMETER (n = {n})
      PARAMETER (n$proc = {nprocs})
      REAL a({n},{n})
      DISTRIBUTE a(BLOCK,:)
      do t = 1, {steps}
        call rowsweep(a, n)
        DISTRIBUTE a(:,BLOCK)
        call colsweep(a, n)
        DISTRIBUTE a(BLOCK,:)
      enddo
      END

      SUBROUTINE rowsweep(u, n)
      REAL u({n},{n})
      INTEGER n, i, j
      do i = 1, n
        do j = 2, n
          u(i,j) = u(i,j) + 0.5 * u(i,j-1)
        enddo
      enddo
      END

      SUBROUTINE colsweep(u, n)
      REAL u({n},{n})
      INTEGER n, i, j
      do j = 1, n
        do i = 2, n
          u(i,j) = u(i,j) + 0.5 * u(i-1,j)
        enddo
      enddo
      END
"
    )
}

/// A wide, call-independent corpus for compile-time benchmarking: `procs`
/// leaf subroutines, each sweeping its own pair of BLOCK-distributed
/// arrays with a distinct stencil shift, all called from the main program.
/// The ACG is a single wavefront level of `procs` independent units below
/// the root — the shape the wavefront-parallel code generator exploits.
pub fn wide_corpus(procs: usize, n: i64, nprocs: usize) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "\n      PROGRAM main\n      PARAMETER (n = {n})\n      PARAMETER (n$proc = {nprocs})\n"
    ));
    for p in 0..procs {
        s.push_str(&format!("      REAL x{p}({n}), y{p}({n})\n"));
    }
    for p in 0..procs {
        s.push_str(&format!(
            "      DISTRIBUTE x{p}(BLOCK)\n      DISTRIBUTE y{p}(BLOCK)\n"
        ));
    }
    for p in 0..procs {
        s.push_str(&format!("      call sweep{p}(x{p}, y{p}, n)\n"));
    }
    s.push_str("      END\n");
    for p in 0..procs {
        let shift = (p % 7) + 1;
        s.push_str(&format!(
            "\n      SUBROUTINE sweep{p}(u, v, n)\n      \
             REAL u({n}), v({n})\n      \
             INTEGER n, i\n      \
             do i = 1, n-{shift}\n        \
             v(i) = 0.5 * (u(i) + u(i+{shift}))\n      \
             enddo\n      \
             do i = 1, n-{shift}\n        \
             u(i) = 0.5 * (v(i) + v(i+{shift}))\n      \
             enddo\n      \
             END\n"
        ));
    }
    s
}

/// The [`wide_corpus`] program with one leaf's coefficient edited — the
/// §8 incremental-compilation scenario (only that leaf should recompile;
/// its residual shape is unchanged, so callers keep their code).
pub fn wide_corpus_edited(procs: usize, n: i64, nprocs: usize) -> String {
    wide_corpus(procs, n, nprocs).replacen("0.5 * (u(i)", "0.25 * (u(i)", 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgefa_source_parses() {
        let src = dgefa_source(8, 2);
        let (p, _) = fortrand_frontend::load_program(&src).unwrap();
        assert_eq!(p.units.len(), 5);
    }

    #[test]
    fn matrix_is_nonsingularish() {
        let n = 8;
        let a = dgefa_matrix(n);
        // Diagonal dominance-ish: diagonal magnitudes exceed row sums of
        // the off-diagonal entries at small n.
        for i in 0..n as usize {
            let diag = a[i * n as usize + i].abs();
            assert!(diag > 8.0, "weak diagonal at {i}: {diag}");
        }
    }

    #[test]
    fn wide_corpus_compiles_in_every_mode() {
        use crate::{CompileMode, Session};
        let src = wide_corpus(6, 64, 4);
        let seq = Session::new(src.as_str()).compile().unwrap();
        assert_eq!(seq.spmd().procs.len(), 7);
        let par = Session::new(src)
            .mode(CompileMode::Parallel(4))
            .compile()
            .unwrap();
        assert_eq!(seq.emit(), par.emit());
    }

    #[test]
    fn wide_corpus_edit_recompiles_one_leaf() {
        use crate::{ArtifactStore, Session};
        let store = ArtifactStore::shared();
        Session::new(wide_corpus(6, 64, 4))
            .store(store.clone())
            .compile()
            .unwrap();
        let out = Session::new(wide_corpus_edited(6, 64, 4))
            .store(store)
            .compile()
            .unwrap();
        assert_eq!(out.recompiled().len(), 1, "{:?}", out.recompiled());
        assert!(
            out.recompiled().contains_key("sweep0"),
            "{:?}",
            out.recompiled()
        );
        assert_eq!(out.reused().len(), 6);
    }

    #[test]
    fn relax_source_parses() {
        let src = relax_source(64, 2, 3, 4);
        fortrand_frontend::load_program(&src).unwrap();
    }

    #[test]
    fn adi_source_parses() {
        let src = adi_source(16, 2, 4);
        let (p, _) = fortrand_frontend::load_program(&src).unwrap();
        assert_eq!(p.units.len(), 3);
    }
}
