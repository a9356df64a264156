package rts

import (
	"strings"
	"testing"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/sched"
)

// This file checks the simulator's fault handling and the property it
// rests on: every task body is called exactly once, by the chunk the
// schedule put it in. Kernels compute their values as a side effect of
// Op.Time, so "exactly once" under every mode and fault plan is what
// makes a faulted result bitwise-identical to a fault-free one.

// countingSpec returns an OpSpec whose Time closure counts per-task
// calls.
func countingSpec(name string, execs []int) OpSpec {
	s := OpSpec{Op: sched.Op{
		Name: name, N: len(execs), Bytes: 64,
		Time: func(i int) float64 {
			execs[i]++
			return 1 + float64(i%7)
		},
	}}
	s.Mu, s.Sigma = 4, 2
	return s
}

func checkAllExecuted(t *testing.T, label string, execs []int) {
	t.Helper()
	for i, c := range execs {
		if c != 1 {
			t.Fatalf("%s: task %d executed %d times, want exactly 1", label, i, c)
		}
	}
}

func mustPlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	if spec == "" {
		return nil
	}
	p, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// onceWorld is one run's counting kernels: a → r → b, where r is a
// plain operator in the flat shape and, in the nested one, an Exp
// operator expanding to r/0 → r/1 whose join body also records whether
// every child task had already run when it was called.
type onceWorld struct {
	execs     map[string][]int
	joinEarly bool
}

func newOnceWorld() *onceWorld {
	return &onceWorld{execs: map[string][]int{
		"a": make([]int, 400), "r": make([]int, 400), "b": make([]int, 400),
		"r/0": make([]int, 90), "r/1": make([]int, 60),
	}}
}

func (w *onceWorld) bind(name string) OpSpec { return countingSpec(name, w.execs[name]) }

func (w *onceWorld) nestedBind(name string) OpSpec {
	if name != "r" {
		return w.bind(name)
	}
	w.execs["r"] = make([]int, 1)
	spec := w.bind("r")
	count := spec.Op.Time
	spec.Op.Time = func(i int) float64 {
		for _, child := range []string{"r/0", "r/1"} {
			for _, c := range w.execs[child] {
				if c != 1 {
					w.joinEarly = true
				}
			}
		}
		return count(i)
	}
	spec.Expand = func(int) (*Expansion, error) {
		sub := delirium.NewGraph("r")
		sub.AddNode(&delirium.Node{Name: "r/0", Kind: delirium.Par, Tasks: "90"})
		sub.AddNode(&delirium.Node{Name: "r/1", Kind: delirium.Par, Tasks: "60"})
		sub.AddEdge(&delirium.Edge{From: "r/0", To: "r/1"})
		return &Expansion{Graph: sub, Bind: w.bind}, nil
	}
	return spec
}

// TestSimExactlyOnce drives fault-free runs and crash/stall/slow/
// message plans through the simulator's driver in every mode — static
// blocks, barriered TAPER and barrier-free dataflow — and checks each
// run completes with every task body called exactly once.
func TestSimExactlyOnce(t *testing.T) {
	testExactlyOnce(t, chainGraph(t, "a", "r", "b"), false)
}

// TestSimExactlyOnceNested is the same matrix over a graph whose middle
// operator expands at run time: its join body, too, is called once, and
// only after all of its children's.
func TestSimExactlyOnceNested(t *testing.T) {
	g := delirium.NewGraph("once")
	g.AddNode(&delirium.Node{Name: "a", Kind: delirium.Par, Tasks: "400"})
	g.AddNode(&delirium.Node{Name: "r", Kind: delirium.Exp, Tasks: "1", Rule: "once"})
	g.AddNode(&delirium.Node{Name: "b", Kind: delirium.Par, Tasks: "400"})
	g.AddEdge(&delirium.Edge{From: "a", To: "r"})
	g.AddEdge(&delirium.Edge{From: "r", To: "b"})
	testExactlyOnce(t, g, true)
}

func testExactlyOnce(t *testing.T, g *delirium.Graph, nested bool) {
	plans := []string{
		"",
		"crash:0@2",
		"crash:0@0,crash:2@5",
		"stall:1@1:5",
		"slow:2@0:8",
		"crash:0@3,stall:1@2:2,slow:2@1:4",
		"delay:0.5,loss:0.2,seed:9",
		"crash:3@0,delay:0.25",
	}
	cfg := machine.DefaultConfig(4)
	for _, mode := range []Mode{ModeStatic, ModeTaper, ModeSplit} {
		for _, spec := range plans {
			plan := mustPlan(t, spec)
			t.Run(mode.String()+"/"+spec, func(t *testing.T) {
				w := newOnceWorld()
				bind := w.bind
				if nested {
					bind = w.nestedBind
				}
				r, err := RunGraph(cfg, g, bind, RunOpts{Processors: 4, Mode: mode, Fault: plan})
				if err != nil {
					t.Fatal(err)
				}
				if r.Makespan <= 0 {
					t.Fatal("empty result")
				}
				for name, execs := range w.execs {
					if nested || !strings.Contains(name, "/") {
						checkAllExecuted(t, name, execs)
					}
				}
				if w.joinEarly {
					t.Fatal("join body of r ran before all of its children's tasks")
				}
			})
		}
	}
}

// TestSimFaultUnsampledOwnerCrash: a one-task operator whose owner
// crashes before any cost sample exists must still be executed, by a
// survivor. Every queue's time estimate is zero before the first sample,
// so the re-assignment scan has to accept any non-empty victim.
func TestSimFaultUnsampledOwnerCrash(t *testing.T) {
	for _, mode := range []Mode{ModeTaper, ModeSplit} {
		execs := make([]int, 1)
		bind := func(string) OpSpec { return countingSpec("one", execs) }
		r, err := RunGraph(machine.DefaultConfig(4), chainGraph(t, "one"), bind, RunOpts{
			Processors: 4, Mode: mode, Fault: mustPlan(t, "crash:0@0"),
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if r.Chunks != 1 {
			t.Fatalf("%v: %d chunks scheduled, want 1", mode, r.Chunks)
		}
		checkAllExecuted(t, mode.String(), execs)
	}
}

// TestSimStaticRobsOnlyTheDead: under ModeStatic a survivor takes a
// crashed owner's block, whole, as one re-issued chunk, and nothing
// from a live owner: a fault-free run has no steals at all.
func TestSimStaticRobsOnlyTheDead(t *testing.T) {
	for _, tc := range []struct {
		plan                    string
		steals, retries, chunks int
	}{
		{"", 0, 0, 8},
		// A stalled owner is alive: its block waits for it.
		{"stall:1@0:500", 0, 0, 8},
		// Worker 1 crashes at its second scheduling point, after its
		// block of a: its block of b is the one re-issued.
		{"crash:1@1", 1, 1, 8},
	} {
		execs := map[string][]int{"a": make([]int, 64), "b": make([]int, 64)}
		bind := func(name string) OpSpec { return countingSpec(name, execs[name]) }
		var col obs.Collector
		r, err := RunGraph(machine.DefaultConfig(4), chainGraph(t, "a", "b"), bind, RunOpts{
			Processors: 4, Mode: ModeStatic, Sink: &col, Fault: mustPlan(t, tc.plan),
		})
		if err != nil {
			t.Fatalf("%q: %v", tc.plan, err)
		}
		retries := 0
		for _, e := range col.Trace.Events {
			if e.Kind == obs.KindRetry {
				retries++
				if e.Arg != 1 || e.N != 16 {
					t.Errorf("%q: re-issued %d tasks of worker %d, want worker 1's block of 16", tc.plan, e.N, e.Arg)
				}
			}
		}
		if r.Steals != tc.steals || retries != tc.retries || r.Chunks != tc.chunks {
			t.Errorf("%q: %d steals, %d retries, %d chunks; want %d, %d, %d",
				tc.plan, r.Steals, retries, r.Chunks, tc.steals, tc.retries, tc.chunks)
		}
		for name, n := range execs {
			checkAllExecuted(t, tc.plan+"/"+name, n)
		}
	}
}

// TestSimBarrieredLostWorkIsAnError: when no processor is left to take
// an operator's remaining tasks a barriered run must fail, not return a
// shorter one, in both barriered modes. RunGraph refuses plans without
// a survivor, so the plan goes in below it.
func TestSimBarrieredLostWorkIsAnError(t *testing.T) {
	g := chainGraph(t, "a")
	execs := make([]int, 64)
	bind := func(string) OpSpec { return countingSpec("a", execs) }
	// A static owner takes its whole block at its first scheduling
	// point, so only a crash there strands it.
	for _, tc := range []struct {
		mode Mode
		plan string
	}{{ModeStatic, "crash:0@0,crash:1@0"}, {ModeTaper, "crash:0@1,crash:1@1"}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			fx := fault.NewExec(mustPlan(t, tc.plan), 2)
			_, err := executeDAG(nil, machine.DefaultConfig(2), g, bind, 2, tc.mode, nil, fx)
			if err == nil || !strings.Contains(err.Error(), "stalled with") || !strings.Contains(err.Error(), "tasks outstanding") {
				t.Fatalf("error = %v, want a stall naming the outstanding tasks", err)
			}
		})
	}
}

// TestSimFaultEvents checks that a crashed worker shows up in the trace
// as fault, retry and realloc events with fresh allocation rows.
func TestSimFaultEvents(t *testing.T) {
	g := chainGraph(t, "a", "b")
	const n = 600
	bind := func(string) OpSpec { return boundedIrregularSpec(n, 11) }
	var col obs.Collector
	_, err := RunGraph(machine.DefaultConfig(4), g, bind, RunOpts{
		Processors: 4, Mode: ModeSplit, Sink: &col,
		Fault: mustPlan(t, "crash:0@1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := col.Trace
	if tr == nil {
		t.Fatal("no trace collected")
	}
	var faults, retries, reallocs int
	for _, e := range tr.Events {
		switch e.Kind {
		case obs.KindFault:
			faults++
			if e.Lo != 0 || e.Arg != int32(fault.Crash) {
				t.Fatalf("fault event names target %d action %d", e.Lo, e.Arg)
			}
		case obs.KindRetry:
			retries++
		case obs.KindRealloc:
			reallocs++
		}
	}
	if faults != 1 || reallocs != 1 {
		t.Fatalf("faults=%d reallocs=%d, want 1 and 1", faults, reallocs)
	}
	if retries == 0 {
		t.Fatal("no retry events: the dead worker's queue was never recovered")
	}
	// Reallocation-on-loss re-emits estimate rows next to the initial
	// allocation's.
	if len(tr.Allocs) == 0 {
		t.Fatal("no allocation rows")
	}
}

// TestSimFaultRejections: a plan must leave at least one worker
// standing. Static takes worker faults like every mode (see
// TestSimExactlyOnce); message-only plans only perturb its cost model.
func TestSimFaultRejections(t *testing.T) {
	g := chainGraph(t, "a")
	bind := func(string) OpSpec { return uniformSpec(64, 1) }
	cfg := machine.DefaultConfig(4)
	if _, err := RunGraph(cfg, g, bind, RunOpts{
		Processors: 4, Mode: ModeStatic, Fault: mustPlan(t, "delay:0.5"),
	}); err != nil {
		t.Fatalf("static + delay rejected: %v", err)
	}
	// No survivor.
	_, err := RunGraph(cfg, g, bind, RunOpts{
		Processors: 2, Mode: ModeTaper,
		Fault: mustPlan(t, "crash:0@0,crash:1@0"),
	})
	if err == nil {
		t.Fatal("plan crashing every worker accepted")
	}
}

// TestSimMsgFaultsSlowTheRun: delay/loss make communication strictly
// more expensive, so a steal-heavy run's makespan must not improve.
func TestSimMsgFaultsSlowTheRun(t *testing.T) {
	g := chainGraph(t, "a", "b")
	bind := func(string) OpSpec { return boundedIrregularSpec(800, 5) }
	cfg := machine.DefaultConfig(8)
	base, err := RunGraph(cfg, g, bind, RunOpts{Processors: 8, Mode: ModeTaper})
	if err != nil {
		t.Fatal(err)
	}
	delayed, err := RunGraph(cfg, g, bind, RunOpts{
		Processors: 8, Mode: ModeTaper, Fault: mustPlan(t, "delay:4,loss:0.3,seed:2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if delayed.Makespan < base.Makespan {
		t.Fatalf("message faults sped the run up: %v < %v", delayed.Makespan, base.Makespan)
	}
}
