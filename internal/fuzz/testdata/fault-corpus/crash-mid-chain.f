! A worker that crashes while draining its chain queue holds enabled
! consumer blocks that exist nowhere else — not in any deque — so no
! survivor's steal can ever recover them. The
! drain loop must release everything still queued through the
! survivor-aware path (and hand the popped block off) before the worker
! exits, or the run deadlocks with tasks permanently unscheduled. The
! masked producer / exact-index consumer pair below compiles to a
! pipelined edge with the chain attribute, so the faulted native split
! runs schedule consumer blocks in place and the crash lands mid-drain.
! seed: 7
! fault: crash:0@1,crash:2@3

program fuzz
  integer n
  integer mask(n)
  real v(n)
  real r(n, n)
  do i1 = 2, n - 1 where (mask(i1) != 0)
    do i2 = 2, n - 1
      r(i2, i1) = r(i2, i1) * 0.5 + 1
    end do
  end do
  do i3 = 2, n - 1
    v(i3) = r(2, i3) + r(i3, i3)
  end do
end
