! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Off,Full,Overlap dyn_opt=None nprocs=4
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL x(64), y(64)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      call sweep(x, y, 64)
      END

      SUBROUTINE sweep(u, v, n)
      REAL u(64), v(64)
      INTEGER n, i
      do i = 1, n-1
        v(i) = 0.5 * (u(i) + u(i+1))
      enddo
      do i = 1, n-1
        u(i) = 0.5 * (v(i) + v(i+1))
      enddo
      END
