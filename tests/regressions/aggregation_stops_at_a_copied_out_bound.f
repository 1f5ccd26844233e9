! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Off,Coalesce,Full,Overlap dyn_opt=None nprocs=4
      PROGRAM main
      PARAMETER (n$proc = 4)
      REAL x(64,8), y(64,8), z(64,8)
      INTEGER m
      DISTRIBUTE x(BLOCK,:)
      DISTRIBUTE y(BLOCK,:)
      DISTRIBUTE z(BLOCK,:)
      m = 3
      call sweep(x, y, m)
      call setm(m)
      call sweep(z, y, m)
      END
      SUBROUTINE sweep(u, v, m)
      REAL u(64,8), v(64,8)
      INTEGER m
      do j = 1, m
        do i = 1, 63
          v(i,j) = v(i,j) + u(i+1,j)
        enddo
      enddo
      END
      SUBROUTINE setm(m)
      INTEGER m
      m = 8
      END
