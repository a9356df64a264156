package native_test

import (
	"math"
	"runtime"
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
// chunk boundaries and recovered work is re-issued to survivors, so
// every task still runs exactly once.
func TestNativeFaultBitwise(t *testing.T) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	ref := runKernels(t, out, "sim", 1, rts.ModeStatic, n, 1)
	cases := []struct {
		mode rts.Mode
		plan string
	}{
		// Static workers pop their whole block as one segment, so only
		// @0 triggers fire; recovery goes through the detector inboxes.
		{rts.ModeStatic, "crash:0@0,deadline:0.002"},
		{rts.ModeStatic, "slow:1@0:4,deadline:0.002"},
		{rts.ModeTaper, "crash:0@1,deadline:0.002"},
		{rts.ModeTaper, "crash:0@0,crash:2@3,deadline:0.002"},
		{rts.ModeTaper, "stall:1@1:0.02,deadline:0.002"},
		{rts.ModeSplit, "crash:0@2,deadline:0.002"},
		{rts.ModeSplit, "crash:0@1,stall:1@2:0.01,slow:2@0:6,deadline:0.002"},
		{rts.ModeSplit, "slow:3@1:8,deadline:0.002"},
	}
	for _, c := range cases {
		got := runNativeFault(t, out, 4, c.mode, n, 1, mustPlan(t, c.plan), nil)
		checkBitwise(t, c.mode.String()+"/"+c.plan, got, ref)
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
		plan.Deadline = 0.002
		got := runNativeFault(t, out, 4, rts.ModeSplit, n, 1, plan, nil)
		checkBitwise(t, "random/"+plan.String(), got, ref)
	}
}

// TestNativeFaultEvents checks the recovery machinery leaves a trace:
// an early crash in a run with downstream releases must surface the
// self-reported fault, the detector's declared-dead escalation, retry
// events for the recovered segments, and a reallocation over the
// survivors. Whether the detector or a survivor's steal wins the race
// to the dead worker's holdings is a genuine scheduling race (on a
// single-CPU machine with GOMAXPROCS=1 the survivors always win), so
// the test forces real goroutine interleaving and retries the run a
// bounded number of times until the detector path is exercised.
func TestNativeFaultEvents(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 25
	var faults, retries, reallocs int
	for attempt := 0; attempt < attempts; attempt++ {
		var col obs.Collector
		runNativeFault(t, out, 4, rts.ModeSplit, 4000, 60,
			mustPlan(t, "crash:0@1,deadline:0.001"), &col)
		tr := col.Trace
		if tr == nil {
			t.Fatal("no trace collected")
		}
		if tr.Workers != 5 {
			t.Fatalf("Workers = %d, want 4 workers + 1 detector ring", tr.Workers)
		}
		faults, retries, reallocs = 0, 0, 0
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
		if faults == 0 {
			t.Fatal("crash left no fault event")
		}
		if reallocs > 0 && retries > 0 {
			return
		}
	}
	t.Fatalf("retries=%d reallocs=%d after %d attempts: the detector never recovered the dead worker",
		retries, reallocs, attempts)
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
// price of one worker loss including detection, recovery and
// reallocation, for eyeballing against the disabled baseline.
func BenchmarkHotpathFaultCrash(b *testing.B) {
	out, err := core.CompileSource(quickstartProgram, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fault.Parse("crash:0@1,deadline:0.002")
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
// detection, re-issue and completion all overlap. Primarily a -race
// target.
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
		"crash:0@0,crash:1@2,stall:2@1:0.005,deadline:0.001",
		"crash:5@1,slow:1@0:10,stall:3@0:0.01,deadline:0.001",
		"crash:0@3,crash:2@0,crash:4@1,deadline:0.001",
	}
	for round := 0; round < 3; round++ {
		for _, spec := range plans {
			got := runNativeFault(t, out, 8, rts.ModeSplit, n, 1, mustPlan(t, spec), nil)
			checkBitwise(t, spec, got, ref)
		}
	}
}
