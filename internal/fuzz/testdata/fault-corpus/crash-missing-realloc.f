! When crash handling moved from detector declaration to worker
! self-declaration, the reallocation-on-loss emission stayed behind in
! the detector path, so a self-declared crash shrank the live set
! without re-deriving the allocation estimates — traces showed the
! death but no fresh estimate rows. Self-declaration must emit the
! reallocation; it is now the only declaration path (the detector has
! since been deleted: a stall is a delay, only a crash loses a worker).
! seed: 11
! fault: crash:0@1,crash:3@2

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
  do i1 = 2, n - 1 where (mask(i1) == 0)
    do i2 = 2, n - 1
      r(i2, i1) = r(i2, 2) - q(3, i2 + 1) + r(i2, i2)
    end do
  end do
  do i3 = 2, n - 1
    u(i3) = r(2, i3 - 1) + r(i3, i3 - 1)
  end do
  if (a > 2) then
    v(1) = 3 + 2.5
  end if
  do i4 = 2, n - 1
    do i5 = 2, n - 1
      q(i5, i4) = 0.5 - q(i5, i5 - 1) / (w(i5) * 0.5 + 1)
    end do
  end do
end
