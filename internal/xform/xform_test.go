package xform

import (
	"math"
	"testing"

	"orchestra/internal/analysis"
	"orchestra/internal/interp"
	"orchestra/internal/source"
	"orchestra/internal/stats"
)

func analyze(t *testing.T, src string) *analysis.Result {
	t.Helper()
	p, err := source.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return analysis.Analyze(p)
}

func TestCanFuseIndependent(t *testing.T) {
	r := analyze(t, `
program p
  integer n
  real a(n), b(n)
  do i = 1, n
    a(i) = i
  end do
  do i = 1, n
    b(i) = i * 2
  end do
end
`)
	a := r.Program.Body[0].(*source.Do)
	b := r.Program.Body[1].(*source.Do)
	if !CanFuse(r, a, b) {
		t.Fatal("independent equal-range loops should fuse")
	}
	fused := Fuse(a, b)
	if len(fused.Body) != 2 {
		t.Fatalf("fused body = %d stmts", len(fused.Body))
	}
}

func TestCanFuseForwardDependence(t *testing.T) {
	// b(i) = a(i): iteration i of loop 2 reads what iteration i of
	// loop 1 wrote — a forward (loop-independent) dependence, preserved
	// by fusion.
	r := analyze(t, `
program p
  integer n
  real a(n), b(n)
  do i = 1, n
    a(i) = i
  end do
  do i = 1, n
    b(i) = a(i)
  end do
end
`)
	a := r.Program.Body[0].(*source.Do)
	b := r.Program.Body[1].(*source.Do)
	if !CanFuse(r, a, b) {
		t.Fatal("forward dependence should not prevent fusion")
	}
}

func TestCannotFuseBackwardDependence(t *testing.T) {
	// b(i) = a(i+1): iteration i of loop 2 reads what iteration i+1 of
	// loop 1 writes; fusing would read the value before it is written.
	r := analyze(t, `
program p
  integer n
  real a(n), b(n)
  do i = 1, n
    a(i) = i
  end do
  do i = 1, n
    b(i) = a(i + 1)
  end do
end
`)
	a := r.Program.Body[0].(*source.Do)
	b := r.Program.Body[1].(*source.Do)
	if CanFuse(r, a, b) {
		t.Fatal("fusion-reversing dependence accepted")
	}
}

func TestCannotFuseMismatchedRanges(t *testing.T) {
	r := analyze(t, `
program p
  integer n
  real a(n), b(n)
  do i = 1, n
    a(i) = i
  end do
  do i = 2, n
    b(i) = i
  end do
end
`)
	a := r.Program.Body[0].(*source.Do)
	b := r.Program.Body[1].(*source.Do)
	if CanFuse(r, a, b) {
		t.Fatal("mismatched ranges fused")
	}
}

func TestCannotFuseGuarded(t *testing.T) {
	r := analyze(t, `
program p
  integer n
  integer mask(n)
  real a(n), b(n)
  do i = 1, n where (mask(i) != 0)
    a(i) = i
  end do
  do i = 1, n
    b(i) = i
  end do
end
`)
	a := r.Program.Body[0].(*source.Do)
	b := r.Program.Body[1].(*source.Do)
	if CanFuse(r, a, b) {
		t.Fatal("guarded loop fused")
	}
}

func TestFuseAdjacentChains(t *testing.T) {
	r := analyze(t, `
program p
  integer n
  real a(n), b(n), c(n)
  do i = 1, n
    a(i) = i
  end do
  do i = 1, n
    b(i) = a(i)
  end do
  do j = 1, n
    c(j) = b(j) + 1
  end do
end
`)
	out, fusions := FuseAdjacent(r, r.Program.Body)
	if fusions != 1 {
		// The first two fuse; the result is not in the analysis tables,
		// so the third stays separate (conservative).
		t.Fatalf("fusions = %d, want 1", fusions)
	}
	if len(out) != 2 {
		t.Fatalf("statements = %d", len(out))
	}
}

func TestFuseEquivalence(t *testing.T) {
	srcText := `
program p
  integer n
  real a(n), b(n)
  do i = 1, n
    a(i) = i * 3
  end do
  do k = 1, n
    b(k) = a(k) + k
  end do
end
`
	r := analyze(t, srcText)
	a := r.Program.Body[0].(*source.Do)
	b := r.Program.Body[1].(*source.Do)
	if !CanFuse(r, a, b) {
		t.Fatal("should fuse")
	}
	fused := Fuse(a, b)

	run := func(body []source.Stmt) *interp.State {
		p2 := &source.Program{Name: "p", Decls: r.Program.Decls, Body: body}
		st := interp.NewState()
		st.Scalars["n"] = 10
		st.Alloc("a", 10)
		st.Alloc("b", 10)
		rng := stats.NewRNG(4)
		for i := range st.Arrays["a"] {
			st.Arrays["a"][i] = rng.Float64()
			st.Arrays["b"][i] = rng.Float64()
		}
		if err := interp.Run(p2, st); err != nil {
			t.Fatalf("run: %v", err)
		}
		return st
	}
	st1 := run(r.Program.Body)
	st2 := run([]source.Stmt{fused})
	for i := range st1.Arrays["b"] {
		if math.Abs(st1.Arrays["a"][i]-st2.Arrays["a"][i]) > 1e-12 ||
			math.Abs(st1.Arrays["b"][i]-st2.Arrays["b"][i]) > 1e-12 {
			t.Fatalf("fusion changed semantics at %d", i)
		}
	}
}
