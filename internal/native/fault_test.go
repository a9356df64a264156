package native_test

import (
	"math"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/fault"
	"orchestra/internal/native"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
)

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runNativeFault executes the quickstart graph on the native backend
// with fresh array kernels under a fault plan and returns the final
// arrays.
func runNativeFault(t *testing.T, out *core.Output, p int, mode rts.Mode, n, work int, plan *fault.Plan, sink obs.Sink) map[string][]float64 {
	t.Helper()
	bind, st, err := native.ArrayKernels(out.Graph, n, work)
	if err != nil {
		t.Fatal(err)
	}
	_, err = native.Backend{}.Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{
		Processors: p, Mode: mode, Fault: plan, Sink: sink,
	})
	if err != nil {
		t.Fatalf("native/%v/%v: %v", mode, plan, err)
	}
	return st.Arrays
}

func checkBitwise(t *testing.T, label string, got, ref map[string][]float64) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d arrays, want %d", label, len(got), len(ref))
	}
	for name, want := range ref {
		g := got[name]
		for i := range want {
			if math.Float64bits(g[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v (bitwise)", label, name, i, g[i], want[i])
			}
		}
	}
}

// TestNativeFaultBitwise is the tentpole acceptance test: under every
// survivable fault plan the native backend's results must be bitwise
// identical to a fault-free sequential run. Faults are injected at
// chunk boundaries and a lost worker's work stays queued where it is
// until a survivor takes it, so every task still runs exactly once.
func TestNativeFaultBitwise(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	ref := runKernels(t, out, "sim", 1, rts.ModeStatic, n, 1)
	for _, c := range native.FaultCases {
		got := runNativeFault(t, out, 4, c.Mode, n, 1, mustPlan(t, c.Plan), nil)
		checkBitwise(t, c.Mode.String()+"/"+c.Plan, got, ref)
	}
}

// TestNativeFaultRandom replays generator-produced survivable plans —
// the same generator the fuzzer and the CI campaign use.
func TestNativeFaultRandom(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	ref := runKernels(t, out, "sim", 1, rts.ModeStatic, n, 1)
	for seed := uint64(1); seed <= 6; seed++ {
		plan := fault.Random(seed, 4)
		got := runNativeFault(t, out, 4, rts.ModeSplit, n, 1, plan, nil)
		checkBitwise(t, "random/"+plan.String(), got, ref)
	}
}

// TestNativeFaultEvents checks that a loss leaves its trace in one run.
// A crashing worker records its fault and the reallocation over the
// survivors, and leaves the segment it held on its own deque, where only
// a survivor can take it — and a thief taking from a dead worker records
// a retry. Workers 1–3 crash at their first chunk boundary, so whichever
// of them the Go scheduler runs first crashes. A crash is self-declared,
// and every worker records on its own ring: the trace has exactly the
// workers' four rings, under this plan as under every other.
func TestNativeFaultEvents(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var col obs.Collector
	runNativeFault(t, out, 4, rts.ModeSplit, 4000, 60, mustPlan(t, "crash:1@0,crash:2@0,crash:3@0"), &col)
	tr := col.Trace
	if tr == nil {
		t.Fatal("no trace collected")
	}
	if tr.Workers != 4 {
		t.Fatalf("Workers = %d, want 4: every fault is recorded on a worker's own ring", tr.Workers)
	}
	var faults, retries, reallocs int
	for _, e := range tr.Events {
		switch e.Kind {
		case obs.KindFault:
			faults++
		case obs.KindRetry:
			retries++
		case obs.KindRealloc:
			reallocs++
		}
	}
	if faults == 0 || reallocs == 0 || retries == 0 {
		t.Fatalf("faults=%d reallocs=%d retries=%d: a crash must record all three", faults, reallocs, retries)
	}
	if faults != reallocs {
		t.Fatalf("faults=%d reallocs=%d: every loss reallocates once", faults, reallocs)
	}
}

// TestNativeFaultRejections: a plan that leaves no survivor must be
// refused up front, against the resolved worker count.
func TestNativeFaultRejections(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bind, _, err := native.ArrayKernels(out.Graph, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = native.Backend{}.Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{
		Processors: 2, Mode: rts.ModeTaper,
		Fault: mustPlan(t, "crash:0@0,stall:1@0:1"),
	})
	if err == nil {
		t.Fatal("plan leaving no crash/stall-free worker accepted")
	}
}

// BenchmarkHotpathFaultDisabled measures a full native run with the
// fault machinery compiled in but no plan injected — the cost the
// nil-plan branches add to the scheduling hot path. End to end that
// cost shows in bench's native.overhead_us_per_chunk; this benchmark
// localizes a regression to the fault gates.
func BenchmarkHotpathFaultDisabled(b *testing.B) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bind, _, err := native.ArrayKernels(out.Graph, 2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (native.Backend{}).Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{
			Processors: 4, Mode: rts.ModeSplit,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotpathFaultCrash is the same run with a crash plan — the
// price of one worker loss including the survivors' steals of its work
// and the reallocation, for eyeballing against the disabled baseline.
func BenchmarkHotpathFaultCrash(b *testing.B) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fault.Parse("crash:0@1")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bind, _, err := native.ArrayKernels(out.Graph, 2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := (native.Backend{}).Run(out.Graph, rts.BindClosure(bind), rts.RunOpts{
			Processors: 4, Mode: rts.ModeSplit, Fault: plan,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestNativeFaultStress hammers recovery under contention: repeated
// runs with crashes, stalls and slowdowns on a graph large enough that
// loss, re-issue and completion all overlap. Primarily a -race target.
func TestNativeFaultStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 4000
	ref := runKernels(t, out, "sim", 1, rts.ModeStatic, n, 1)
	plans := []string{
		"crash:0@0,crash:1@2,stall:2@1:0.005",
		"crash:5@1,slow:1@0:10,stall:3@0:0.01",
		"crash:0@3,crash:2@0,crash:4@1",
	}
	for round := 0; round < 3; round++ {
		for _, spec := range plans {
			got := runNativeFault(t, out, 8, rts.ModeSplit, n, 1, mustPlan(t, spec), nil)
			checkBitwise(t, spec, got, ref)
		}
	}
}
