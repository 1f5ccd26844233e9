! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Off,Coalesce,Full,Overlap dyn_opt=None nprocs=4
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL x(48), y(48), z(48), w(48)
      DISTRIBUTE x(BLOCK)
      DISTRIBUTE y(BLOCK)
      DISTRIBUTE z(BLOCK)
      DISTRIBUTE w(BLOCK)
      call left(x, y)
      call right(z, y)
      call both(w, y)
      call right(x, w)
      END
      SUBROUTINE left(u, v)
      REAL u(48), v(48)
      do i = 2, 48
        v(i) = v(i) + 0.5 * u(i-1)
      enddo
      END
      SUBROUTINE right(u, v)
      REAL u(48), v(48)
      do i = 1, 46
        v(i) = v(i) + 0.25 * u(i+2)
      enddo
      END
      SUBROUTINE both(u, v)
      REAL u(48), v(48)
      do i = 2, 47
        v(i) = v(i) + u(i-1) - u(i+1)
      enddo
      END
