package native_test

import (
	"math"
	"runtime"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/native"
	"orchestra/internal/rts"
)

// quickstartProgram is the paper's Figure 1 — the program
// examples/quickstart compiles. Its compiled Delirium graph contains
// split-produced concurrency and pipelined edges, so it exercises
// every enabling path of both backends.
const quickstartProgram = `
program sample
  integer n
  integer mask(n)
  real result(n), q(n, n), output(n, n), w(n)

  do col = 1, n where (mask(col) != 0)
    do i = 1, n
      result(i) = 0
      do j = 1, n
        result(i) = result(i) + q(j, i) * w(j)
      end do
    end do
    do i = 1, n
      q(i, col) = result(i)
    end do
  end do

  do i = 1, n
    do j = 1, n
      output(j, i) = f(q(j, i))
    end do
  end do
end
`

// runKernels compiles the quickstart program once and executes its
// graph with fresh real array kernels on the given backend and mode,
// returning the final per-node arrays.
func runKernels(t *testing.T, out *core.Output, backend string, p int, mode rts.Mode, n, work int) map[string][]float64 {
	t.Helper()
	bind, st, err := native.ArrayKernels(out.Graph, n, work)
	if err != nil {
		t.Fatal(err)
	}
	be, err := rts.OpenBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{Processors: p, Mode: mode}); err != nil {
		t.Fatalf("%s/%v: %v", backend, mode, err)
	}
	return st.Arrays
}

// TestSimNativeParity is the golden cross-backend test: the same
// compiled Delirium graph, bound to real array kernels, must produce
// bitwise-identical arrays on the simulator and on the native
// goroutine runtime, under all three modes.
func TestSimNativeParity(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	// Sequential reference: the simulator's static mode on one
	// processor executes the graph in plain topological order.
	ref := runKernels(t, out, "sim", 1, rts.ModeStatic, n, 1)
	for _, backend := range []string{"sim", "native"} {
		for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
			got := runKernels(t, out, backend, 8, mode, n, 1)
			if len(got) != len(ref) {
				t.Fatalf("%s/%v: %d arrays, want %d", backend, mode, len(got), len(ref))
			}
			for name, want := range ref {
				g := got[name]
				for i := range want {
					if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%v: %s[%d] = %v, want %v (bitwise)", backend, mode, name, i, g[i], want[i])
					}
				}
			}
		}
	}
}

// TestNativeSpeedup checks that on a CPU-bound binding the native
// backend with 4 workers beats its own measured sequential time —
// real parallel speedup, not simulated. Requires real cores.
func TestNativeSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS=%d: wall-clock speedup needs at least 2 cores", runtime.GOMAXPROCS(0))
	}
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bind, _, err := native.ArrayKernels(out.Graph, 4000, 300)
	if err != nil {
		t.Fatal(err)
	}
	r, err := native.Backend{}.Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{Processors: 4, Mode: rts.ModeSplit})
	if err != nil {
		t.Fatal(err)
	}
	if s := r.Speedup(); s <= 1 {
		t.Errorf("native speedup = %.2f with 4 workers on a CPU-bound binding, want > 1", s)
	}
}
