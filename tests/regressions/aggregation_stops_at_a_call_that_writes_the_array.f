! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Off,Coalesce,Full,Overlap dyn_opt=None nprocs=4
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL x(64), y(64), z(64)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      DISTRIBUTE z(BLOCK)
      call sweep(x, y)
      call bump(x, z)
      call sweep(x, z)
      call sweep(z, y)
      END
      SUBROUTINE sweep(u, v)
      REAL u(64), v(64)
      do i = 1, 63
        v(i) = v(i) + 0.5 * u(i+1)
      enddo
      END
      SUBROUTINE bump(u, w)
      REAL u(64), w(64)
      do i = 1, 62
        u(i) = u(i) + w(i+2)
      enddo
      END
