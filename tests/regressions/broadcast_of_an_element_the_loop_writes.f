! strategy=RuntimeResolution comm_opt=Off,Coalesce,Full,Overlap dyn_opt=None nprocs=3,4
      PROGRAM main
      PARAMETER (n$proc = 3)
      REAL y(24)
      DISTRIBUTE y(BLOCK)
      do i = 1, 24
        y(i) = y(i) / y(2)
      enddo
      END
