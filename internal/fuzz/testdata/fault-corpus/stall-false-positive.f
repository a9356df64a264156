! Wall-clock heartbeat age alone declared workers dead whenever
! scheduling delay exceeded the deadline — on a single-CPU machine
! every runnable-but-unscheduled worker looked stalled, and the
! resulting false-positive storm churned recoveries until the run
! crawled. The detector, its heartbeat and the resurrection path have
! since been deleted: a stall is a delay on every engine, so no worker
! is declared dead for being slow, and this plan must complete with
! both stalled workers live throughout.
! seed: 14
! fault: stall:1@1:0.02,stall:2@0:0.01

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
      r(i2, i1) = -(0.5 + 0.5)
    end do
  end do
  do i3 = 2, n - 1
    u(i3) = r(2, i3) + r(i3, i3)
  end do
  do i4 = 2, n - 1 where (mask(i4) != 0)
    do i5 = 2, n - 1
      q(i5, i4) = (0.5 + u(i5)) / (2 * 3 + 2)
    end do
  end do
  do i6 = 2, n - 1
    v(i6) = q(2, i6 - 1) + q(i6, i6 - 1)
  end do
  if (a > 2) then
    u(1) = 1 + 1.5
  end if
end
