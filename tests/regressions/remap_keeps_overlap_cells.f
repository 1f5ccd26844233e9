! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Full dyn_opt=None,Live,Hoist,Kills nprocs=4
      PROGRAM P1
      REAL X(100), Y(100)
      PARAMETER (n$proc = 4)
      PARAMETER (t = 4)
      DISTRIBUTE X(BLOCK)
      DISTRIBUTE Y(BLOCK)
      do k = 1,t
        do i = 2,100
          Y(i) = X(i-1) + Y(i)
        enddo
        call F1(X)
        call F1(X)
      enddo
      call F2(X)
      END
      SUBROUTINE F1(X)
      REAL X(100)
      DISTRIBUTE X(CYCLIC)
      do i = 1,100
        X(i) = X(i) + 1.0
      enddo
      END
      SUBROUTINE F2(X)
      REAL X(100)
      do i = 1,100
        X(i) = 1.5
      enddo
      END
