! strategy=Interprocedural,Immediate,RuntimeResolution comm_opt=Off,Coalesce,Full,Overlap dyn_opt=None nprocs=4
      PROGRAM P
      REAL A(100), B(40)
      PARAMETER (n$proc = 4)
      DISTRIBUTE A(BLOCK)
      DISTRIBUTE B(CYCLIC)
      do k = 1,95
        A(k) = 0.5 * A(k+5)
      enddo
      A(k) = A(k) + 1.0
      m = 7
      do m = 5,3
        A(m) = 2.0 * A(m)
      enddo
      A(m) = A(m) + 1.0
      do j = 3,38
        B(j) = B(j) + 1.0
      enddo
      B(j) = B(j) + 1.0
      j = 9
      do j = 3,2
        B(j) = B(j) + 1.0
      enddo
      B(j) = B(j) + 1.0
      call last(A, i)
      A(i) = A(i) + 1.0
      END
      SUBROUTINE last(X, i)
      REAL X(100)
      do i = 2,60
        X(i) = X(i) + 0.5
      enddo
      END
