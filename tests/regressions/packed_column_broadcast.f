! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Off,Coalesce,Full,Overlap dyn_opt=None nprocs=4
      PROGRAM p
      PARAMETER (n$proc = 4)
      REAL a(16,16), d(16,16), b(16)
      DECOMPOSITION q(16,16)
      ALIGN a(i,j) with q(i,j)
      ALIGN d(i,j) with q(i,j)
      DISTRIBUTE q(:,CYCLIC)
      k = 3
      do i = 1, 16
        b(i) = a(i,k) + d(i,k)
      enddo
      END
