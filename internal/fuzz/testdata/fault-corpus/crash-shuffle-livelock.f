! A worker crashed holding a popped segment; the recovered segment was
! re-posted to a survivor's inbox, but the detector treated every
! CPU-starved live worker as suspect and kept relocating the segment
! between inboxes faster than any owner was scheduled to drain it — a
! livelock on oversubscribed machines. Recovery must move nothing: a
! dead worker's work stays on its deque for whichever survivor is
! actually running (the detector and the inboxes have since been
! deleted).
! seed: 3
! fault: crash:0@1

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
      q(i2, i1) = 2 * u(3) * w(i2 + 1)
    end do
  end do
  do i3 = 2, n - 1
    v(i3) = q(2, i3 - 1) + q(i3, i3 - 1)
  end do
  do i4 = 2, n - 1 where (mask(i4) != 0)
    do i5 = 2, n - 1
      r(i5, i4) = f(1, q(i5, i5))
    end do
  end do
  if (a > 2) then
    u(1) = 4 + 2.5
  else
    u(2) = 3 + 1.5
  end if
end
