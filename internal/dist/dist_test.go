// Integration tests for the distributed backend. This is an external
// test package (dist_test) because it drives whole programs through
// internal/core, and core imports dist for its backend registration —
// an internal test package would close that cycle.
package dist_test

import (
	"os"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/delirium"
	"orchestra/internal/dist"
	"orchestra/internal/fault"
	"orchestra/internal/native"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
	"orchestra/internal/workload"
)

// TestMain routes worker forks: the dist backend re-executes this test
// binary with ORCHDIST_SOCKET set, and MaybeWorker turns that
// invocation into a worker process instead of a test run.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	if os.Getenv(helperEnv) != "" {
		helperMain()
	}
	os.Exit(m.Run())
}

// sample is a small program with real cross-operator data flow: the
// masked outer loop feeds q into the final element-wise pass, so a
// scheduling or delivery bug shows up as a digest mismatch.
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

func compileSample(t *testing.T) *core.Output {
	t.Helper()
	out, err := sampleOutput()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sampleOutput compiles the sample without a *testing.T: the helper
// process of TestLeaseDiesWithCoordinator has none.
func sampleOutput() (*core.Output, error) {
	return core.CompileSource(sample, core.DefaultOptions())
}

func arrayBinding(n int) rts.Binding {
	params := rts.KernelParams{}
	params.SetInt("n", n)
	params.SetInt("work", 1)
	return rts.NamedBinding("array", params)
}

// nativeDigest runs the graph on the in-process native backend from a
// fresh binding and returns the resulting memory-image digest: the
// reference every dist run must match bitwise.
func nativeDigest(t *testing.T, g *delirium.Graph, n, p int, mode rts.Mode) string {
	t.Helper()
	bound, err := rts.Bind(g, arrayBinding(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (native.Backend{}).Run(g, bound, rts.RunOpts{Processors: p, Mode: mode}); err != nil {
		t.Fatal(err)
	}
	d, ok := bound.Digest()
	if !ok || d == "" {
		t.Fatal("native run produced no digest")
	}
	return d
}

func distRun(t *testing.T, g *delirium.Graph, n, p int, opts rts.RunOpts) (trace.Result, string) {
	t.Helper()
	bound, err := rts.Bind(g, arrayBinding(n))
	if err != nil {
		t.Fatal(err)
	}
	r, err := (dist.Backend{}).Run(g, bound, opts)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := bound.Digest()
	if !ok || d == "" {
		t.Fatal("dist run produced no digest")
	}
	return r, d
}

// TestDistParityAllModes is the cross-process bitwise check: the same
// graph, bound by name to the array kernels, must end with exactly the
// same memory image whether it ran in one address space or across
// forked worker processes — in every scheduling mode. The compiled
// sample runs at three workers; the Psirrfan and climate topologies
// run at one, two and four (18 cells), each on the graph the workload
// builds for that mode and worker count.
func TestDistParityAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	const n = 512
	sample := compileSample(t).Graph
	cfg := workload.Config{N: n, Seed: 7}
	cases := []struct {
		name  string
		graph func(rts.Mode, int) *delirium.Graph
		procs []int
	}{
		{"sample", func(rts.Mode, int) *delirium.Graph { return sample }, []int{3}},
		{"psirrfan", workload.Psirrfan(cfg).GraphFor, []int{1, 2, 4}},
		{"climate", workload.Climate(cfg).GraphFor, []int{1, 2, 4}},
	}
	for _, c := range cases {
		for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit} {
			for _, p := range c.procs {
				g := c.graph(mode, p)
				want := nativeDigest(t, g, n, p, mode)
				r, got := distRun(t, g, n, p, rts.RunOpts{Processors: p, Mode: mode})
				if got != want {
					t.Errorf("%s/%v/p=%d: dist digest %s != native digest %s", c.name, mode, p, got, want)
				}
				if r.Makespan <= 0 {
					t.Errorf("%s/%v/p=%d: no measured makespan", c.name, mode, p)
				}
				if r.Processors != p {
					t.Errorf("%s/%v/p=%d: result reports %d processors", c.name, mode, p, r.Processors)
				}
			}
		}
	}
}

// TestDistCommMeasured checks that the per-message wall-clock costs
// actually reach the result: a multi-worker run of a communicating
// graph must report nonzero comm bytes and chunks.
func TestDistCommMeasured(t *testing.T) {
	if testing.Short() {
		t.Skip("forks worker processes")
	}
	out := compileSample(t)
	r, _ := distRun(t, out.Graph, 512, 3, rts.RunOpts{Processors: 3, Mode: rts.ModeSplit})
	if r.Chunks <= 0 {
		t.Error("no chunks recorded")
	}
	if r.CommBytes <= 0 {
		t.Error("no communication bytes recorded despite 3 workers exchanging blocks")
	}
}

// TestDistKillRecovery is the fault-tolerance acceptance test: worker
// 0 literally SIGKILLs itself at its first grant boundary, the
// coordinator must detect the death (socket EOF), re-issue the lost
// segment to the survivors, and still finish with a memory image
// bitwise-identical to an undisturbed native run.
func TestDistKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("forks and kills worker processes")
	}
	out := compileSample(t)
	const n, p = 512, 3
	plan, err := fault.Parse("crash:0@1")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []rts.Mode{rts.ModeStatic, rts.ModeSplit} {
		want := nativeDigest(t, out.Graph, n, p, mode)
		r, got := distRun(t, out.Graph, n, p, rts.RunOpts{Processors: p, Mode: mode, Fault: plan})
		if got != want {
			t.Errorf("%v: digest after worker crash %s != undisturbed native %s", mode, got, want)
		}
		if r.Makespan <= 0 {
			t.Errorf("%v: no measured makespan after recovery", mode)
		}
	}
}

// TestDistRejectsClosureBinding pins the API contract that motivated
// the registry: a closure cannot cross a process boundary, so the dist
// backend must refuse it up front with an error that says so.
func TestDistRejectsClosureBinding(t *testing.T) {
	out := compileSample(t)
	bound := rts.BindClosure(func(string) rts.OpSpec { return rts.OpSpec{} })
	_, err := (dist.Backend{}).Run(out.Graph, bound, rts.RunOpts{Processors: 2})
	if err == nil {
		t.Fatal("dist accepted a closure binding")
	}
	if !strings.Contains(err.Error(), "shippable") {
		t.Fatalf("error %q does not explain shippability", err)
	}
}

// TestDistBackendOptions drives the registry factory: dist takes no
// configuration (its worker count is the run's RunOpts.Processors), and
// registers as a measured, distributed backend.
func TestDistBackendOptions(t *testing.T) {
	be, err := rts.OpenBackend("dist")
	if err != nil {
		t.Fatal(err)
	}
	if be.Name() != "dist" || be.(dist.Backend) != (dist.Backend{}) {
		t.Fatalf("backend %q %+v, want the stateless dist backend", be.Name(), be)
	}
	info, ok := rts.LookupBackend("dist")
	if !ok || !info.Measured {
		t.Fatalf("dist registry info wrong: %+v", info)
	}
}
