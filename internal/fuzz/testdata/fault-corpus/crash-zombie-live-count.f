! A crashed worker exited its goroutine but stayed counted in the live
! set until the detector declared it dead; meanwhile deliveries routed
! recovered segments to the exited worker's inbox (the only worker not
! yet marked dead after false-positive declarations of the others) and
! the work was re-drained forever. A crashing worker must self-declare:
! flip its dead mark and shrink the live set before handing off its
! in-flight segment. (The detector has since been deleted; a crashing
! worker is the only one that marks itself dead.)
! seed: 6
! fault: crash:3@0,crash:2@3

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
      r(i2, i1) = r(i2, i2)
    end do
  end do
  do i3 = 2, n - 1
    w(i3) = r(2, i3) + r(i3, i3)
  end do
  do i4 = 2, n - 1
    v(i4) = (q(i4, i4) + w(i4 - 1)) * r(i4 + 1, i4 - 1)
  end do
  do i5 = 2, n - 1 where (mask(i5) == 0)
    if (2.5 > 2) then
      v(i5) = v(i5) * 4 * w(1)
    end if
  end do
  do i6 = 2, n - 1
    v(i6) = w(i6) / (0.5 * q(i6, 1) + 1)
    if (7 > 2) then
      v(i6) = w(i6 - 1) * 1 * w(i6)
    end if
  end do
end
