! A slowdown fault must stretch wall time only. Padding the sleep into
! the measured chunk duration poisoned the per-operator statistics the
! TAPER uses for chunk sizing, so a faulted run's schedule drifted from
! the fault-free one even though no work was lost. The pad has to land
! after the chunk's timing marks are recorded.
! seed: 20
! fault: slow:1@0:4,slow:3@1:8

program fuzz
  integer n
  integer a
  integer mask(n)
  real u(n)
  real v(n)
  real w(n)
  real q(n, n)
  real r(n, n)
  real s1
  real s2
  do i1 = 2, n - 1 where (mask(i1) != 0)
    do i2 = 2, n - 1
      q(i2, i1) = 1.5 * 1.5
    end do
  end do
  do i3 = 2, n - 1
    u(i3) = q(2, i3) + q(i3, i3)
  end do
  do i4 = 2, n - 1 where (mask(i4) != 0)
    do i5 = 2, n - 1
      r(i5, i4) = 1.5 - q(i5 + 1, 1) - 6 / (2.5 * w(i5 - 1) + 1)
    end do
  end do
  do i6 = 2, n - 1
    u(i6) = r(2, i6) + r(i6, i6)
  end do
  do i7 = 2, n - 1 where (mask(i7) != 0)
    w(i7) = v(i7) * 2 + (r(1, i7) - 3.5)
    w(i7) = -(q(i7, i7 - 1) / (q(i7 - 1, 1) * r(i7 + 1, i7 + 1) + 1))
  end do
  do i8 = 2, n - 1 where (mask(i8) != 0)
    do i9 = 2, n - 1
      q(i9, i8) = 2.5 * 1.5
    end do
  end do
  do i10 = 2, n - 1
    w(i10) = q(2, i10 - 1) + q(i10, i10 - 1)
  end do
end
