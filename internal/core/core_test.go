package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/dist"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
)

// TestMain routes dist worker forks: the dist backend re-executes this
// test binary for its worker processes.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// bindTo instantiates a registry binding against a fresh two-node
// graph and returns the resolved spec lookup.
func bindTo(t *testing.T, binding rts.Binding) func(string) rts.OpSpec {
	t.Helper()
	g := delirium.NewGraph("t")
	for _, n := range []string{"a", "c"} {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	bound, err := rts.Bind(g, binding)
	if err != nil {
		t.Fatal(err)
	}
	return bound.Spec
}

const sample = `
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

// lognormal binds every node to n log-normally distributed task times
// of unit mean and coefficient of variation cv, seeded per node name.
func lognormal(n int, cv float64, seed uint64) rts.Binding {
	params := rts.KernelParams{}
	params.SetInt("tasks", n)
	params.SetInt("n", n)
	params.SetFloat("cv", cv)
	params.SetUint64("seed", seed)
	return rts.NamedBinding("lognormal", params)
}

// run binds a compiled graph and runs it on the named backend.
func run(t *testing.T, out *Output, backend string, binding rts.Binding, opts rts.RunOpts) trace.Result {
	t.Helper()
	be, err := rts.OpenBackend(backend)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := rts.Bind(out.Graph, binding)
	if err != nil {
		t.Fatal(err)
	}
	r, err := be.Run(out.Graph, bound, opts)
	if err != nil {
		t.Fatalf("%s/%v: %v", backend, opts.Mode, err)
	}
	return r
}

func TestCompileAndExecuteAllModes(t *testing.T) {
	out, err := CompileSource(sample, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Report) == 0 {
		t.Fatal("no transformations applied")
	}
	bind := lognormal(1024, 1.2, 7)
	var speedups []float64
	for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
		r := run(t, out, "sim", bind, rts.RunOpts{Processors: 128, Mode: mode})
		if r.Makespan <= 0 {
			t.Fatalf("%v: empty result", mode)
		}
		speedups = append(speedups, r.Speedup())
	}
	// The adaptive modes must beat static on irregular work.
	if speedups[1] <= speedups[0] || speedups[2] <= speedups[0] {
		t.Fatalf("adaptive modes lost to static: %v", speedups)
	}
}

func TestCompileSourceErrors(t *testing.T) {
	if _, err := CompileSource("not a program", DefaultOptions()); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestBindLogNormalPerNodeDistinct(t *testing.T) {
	b := bindTo(t, lognormal(256, 1.0, 3))
	a1 := b("a")
	a2 := b("a")
	c := b("c")
	if a1.Op.Time(5) != a2.Op.Time(5) {
		t.Fatal("same node bound differently across calls")
	}
	same := 0
	for i := 0; i < 256; i++ {
		if a1.Op.Time(i) == c.Op.Time(i) {
			same++
		}
	}
	if same > 16 {
		t.Fatalf("distinct nodes share %d task times", same)
	}
}

// TestLogNormalDrawsPinned pins, bit for bit, the per-node task times
// the two log-normal families of native draw: "lognormal" and "spin".
// The hashes were recorded before the families shared one draw, so
// they hold the draw itself fixed; both drew the same times per node
// then too.
func TestLogNormalDrawsPinned(t *testing.T) {
	want := map[string]string{"a": "64:6f7ff3ce19190a29", "c": "64:36d730ab16ec9c3f"}
	for _, family := range []string{"lognormal", "spin"} {
		params := rts.KernelParams{}
		params.SetInt("tasks", 64)
		params.SetFloat("cv", 1.5)
		params.SetUint64("seed", 7)
		params.SetInt("unitwork", 1)
		bind := bindTo(t, rts.NamedBinding(family, params))
		for _, node := range []string{"a", "c"} {
			op := bind(node).Op
			h := fnv.New64a()
			for i := 0; i < op.N; i++ {
				if got := op.Time(i); got != op.Hint(i) {
					t.Fatalf("%s/%s: task %d costs %v, hinted %v", family, node, i, got, op.Hint(i))
				}
				binary.Write(h, binary.LittleEndian, math.Float64bits(op.Hint(i)))
			}
			if got := fmt.Sprintf("%d:%016x", op.N, h.Sum64()); got != want[node] {
				t.Errorf("%s/%s draws %s, want %s", family, node, got, want[node])
			}
		}
	}
}

// TestNewBackend opens every registered backend by name through the
// registry, which importing this package fills.
func TestNewBackend(t *testing.T) {
	for _, name := range rts.BackendNames() {
		be, err := rts.OpenBackend(name)
		if err != nil {
			t.Fatalf("OpenBackend(%q): %v", name, err)
		}
		if be.Name() != name {
			t.Errorf("OpenBackend(%q).Name() = %q", name, be.Name())
		}
	}
	if _, err := rts.OpenBackend("tpu"); err == nil {
		t.Fatal("OpenBackend accepted an unknown name")
	}
}

func TestExecuteOnBothBackends(t *testing.T) {
	out, err := CompileSource(sample, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range rts.BackendNames() {
		r := run(t, out, name, lognormal(128, 1, 1), rts.RunOpts{Processors: 4, Mode: rts.ModeSplit})
		if r.Makespan <= 0 {
			t.Errorf("%s: makespan %v, want positive", name, r.Makespan)
		}
		info, _ := rts.LookupBackend(name)
		wantUnit := ""
		if info.Measured {
			wantUnit = "s"
		}
		if r.Unit != wantUnit {
			t.Errorf("%s: unit %q, want %q", name, r.Unit, wantUnit)
		}
	}
}
