! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Off,Full,Overlap dyn_opt=None nprocs=4
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL x(64), y(64)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      call pair(x, y, 64)
      END

      SUBROUTINE pair(u, v, n)
      REAL u(64), v(64)
      INTEGER n
      call a(u, v, n)
      call b(u, v, n)
      END

      SUBROUTINE a(u, v, n)
      REAL u(64), v(64)
      INTEGER n, i
      do i = 1, n
        v(i) = 2.0 * u(i)
      enddo
      END

      SUBROUTINE b(u, v, n)
      REAL u(64), v(64)
      INTEGER n, i
      do i = 1, n-1
        u(i) = 0.5 * (v(i) + v(i+1))
      enddo
      END
