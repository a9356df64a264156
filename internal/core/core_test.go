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

func TestCompileAndExecuteAllModes(t *testing.T) {
	out, err := CompileSource(sample, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Report) == 0 {
		t.Fatal("no transformations applied")
	}
	bind := BindIrregular(1024, 1.2, 7)
	var speedups []float64
	for _, mode := range []Mode{ModeStatic, ModeTaper, ModeSplit} {
		r, err := Execute(out, bind, RunOpts{Processors: 128, Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
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

func TestBindUniformDeterministic(t *testing.T) {
	spec := bindTo(t, BindUniform(16, 2.5))("a")
	if spec.Op.N != 16 || spec.Op.Time(3) != 2.5 || spec.Mu != 2.5 {
		t.Fatalf("uniform bind: %+v", spec)
	}
}

func TestBindIrregularPerNodeDistinct(t *testing.T) {
	b := bindTo(t, BindIrregular(256, 1.0, 3))
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
// the three log-normal families draw: "irregular" (this package),
// "lognormal" and "spin" (native). The hashes were recorded before the
// families shared one draw, so they hold the draw itself fixed; all
// three drew the same times per node then too.
func TestLogNormalDrawsPinned(t *testing.T) {
	want := map[string]string{"a": "64:6f7ff3ce19190a29", "c": "64:36d730ab16ec9c3f"}
	for _, family := range []string{"irregular", "lognormal", "spin"} {
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

func TestNewBackend(t *testing.T) {
	for _, name := range BackendNames() {
		be, err := NewBackend(name, 4)
		if err != nil {
			t.Fatalf("NewBackend(%q): %v", name, err)
		}
		if be.Name() != name {
			t.Errorf("NewBackend(%q).Name() = %q", name, be.Name())
		}
	}
	if _, err := NewBackend("tpu", 4); err == nil {
		t.Fatal("NewBackend accepted an unknown name")
	}
}

func TestExecuteOnBothBackends(t *testing.T) {
	out, err := CompileSource(sample, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range BackendNames() {
		be, err := NewBackend(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		r, err := ExecuteOn(be, out, BindUniform(128, 1), RunOpts{Processors: 4, Mode: ModeSplit})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
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
