! A loop with an empty iteration range lowers to an operator with zero
! tasks, which executes no chunk and never appears in a trace. A profile
! built from the trace once treated such an operator as missing data and
! refused the whole graph. Every engine must run a declared-zero-task node
! as an empty operator and still order its successors after it.
! seed: 216

program fuzz
  integer n
  integer a
  real w(n)
  do i6 = 2, a and a + 1, n - 1
    w(i6) = f(w(i6 - 1), r(i6 + 1, i6))
    if (v(i6) > 2) then
      w(i6) = u(3) * 3 / (r(i6 + 1, i6 + 1) * v(i6 + 1) + 1)
    end if
  end do
end
