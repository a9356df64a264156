package native

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
)

// chainGraph builds a -> b (optionally pipelined).
func chainGraph(t *testing.T, pipelined bool) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("chain")
	for _, n := range []string{"a", "b"} {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "b", Bytes: 8, Pipelined: pipelined})
	return g
}

// countBinder binds every node to n no-op tasks that count executions.
func countBinder(n int, counts map[string]*atomic.Int64) rts.Binder {
	return func(name string) rts.OpSpec {
		c := counts[name]
		return rts.OpSpec{Op: sched.Op{
			Name: name,
			N:    n,
			Time: func(i int) float64 {
				c.Add(1)
				return 1
			},
		}, Mu: 1}
	}
}

// taskCountBinder binds every node to n tasks that count each task's
// executions in counts[name][i].
func taskCountBinder(n int, counts map[string][]atomic.Int32) rts.Binder {
	return func(name string) rts.OpSpec {
		c := counts[name]
		return rts.OpSpec{Op: sched.Op{Name: name, N: n, Time: func(i int) float64 { c[i].Add(1); return 1 }}, Mu: 1}
	}
}

func allModes() []rts.Mode {
	return []rts.Mode{rts.ModeStatic, rts.ModeTaper, rts.ModeSplit}
}

// FaultCases are the named fault plans of the bitwise fault tests, each
// with the mode it was written for, on four workers.
// TestExecuteRunsEveryTaskOnce runs every plan in all three modes.
var FaultCases = []struct {
	Mode rts.Mode
	Plan string
}{
	// Static workers pop each operator's block as one segment; a dead
	// worker's blocks are reachable to the survivors although static
	// mode does not steal.
	{rts.ModeStatic, "crash:0@0"},
	{rts.ModeStatic, "slow:1@0:4"},
	{rts.ModeTaper, "crash:0@1"},
	{rts.ModeTaper, "crash:0@0,crash:2@3"},
	{rts.ModeTaper, "stall:1@1:0.02"},
	{rts.ModeSplit, "crash:0@2"},
	{rts.ModeSplit, "crash:0@1,stall:1@2:0.01,slow:2@0:6"},
	{rts.ModeSplit, "slow:3@1:8"},
}

// TestExecuteRunsEveryTaskOnce checks that each mode executes each
// task of each operator exactly once and fills the trace: fault-free at
// one and four workers, and on four under every plan of FaultCases and
// fault.Random seeds 1–6. The bitwise fault tests cannot see a task
// that runs twice — ArrayKernels' store is idempotent — so this counts
// per task.
func TestExecuteRunsEveryTaskOnce(t *testing.T) {
	const n = 500
	type config struct {
		workers int
		plan    *fault.Plan
	}
	configs := []config{{1, nil}, {4, nil}}
	for _, c := range FaultCases {
		plan, err := fault.Parse(c.Plan)
		if err != nil {
			t.Fatal(err)
		}
		configs = append(configs, config{4, plan})
	}
	for seed := uint64(1); seed <= 6; seed++ {
		plan := fault.Random(seed, 4)
		configs = append(configs, config{4, plan})
	}
	for _, mode := range allModes() {
		for _, c := range configs {
			label := fmt.Sprintf("%v/p=%d/%v", mode, c.workers, c.plan)
			counts := map[string][]atomic.Int32{"a": make([]atomic.Int32, n), "b": make([]atomic.Int32, n)}
			r, err := (Backend{}).Run(chainGraph(t, true), rts.BindClosure(taskCountBinder(n, counts)),
				rts.RunOpts{Processors: c.workers, Mode: mode, Fault: c.plan})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			for name, cs := range counts {
				for i := range cs {
					if got := cs[i].Load(); got != 1 {
						t.Fatalf("%s: op %s task %d executed %d times, want 1", label, name, i, got)
					}
				}
			}
			if r.Processors != c.workers || r.Unit != "s" {
				t.Errorf("%s: result metadata = p%d unit %q", label, r.Processors, r.Unit)
			}
			if r.Makespan <= 0 || r.Chunks <= 0 {
				t.Errorf("%s: makespan %v chunks %d, want positive", label, r.Makespan, r.Chunks)
			}
			if len(r.Busy) != c.workers {
				t.Errorf("%s: len(Busy) = %d, want %d", label, len(r.Busy), c.workers)
			}
		}
	}
}

// TestEmitReallocRows: the reallocation a loss triggers runs the
// estimator on the statistics measured so far, at the run's TAPER ω as
// the simulator's does. Fixed task statistics go through emitRealloc at
// a non-default ω, and the recorded AllocEstimate rows must be
// rts.ReallocateOnLossOmega's. (Under native's zero cost model ω only
// scales the sched term, which is zero, so no row shows ω today; the
// test pins the call for when the model gains a sched cost.)
func TestEmitReallocRows(t *testing.T) {
	const omega, live = 3.5, 2
	counts := map[string]*atomic.Int64{"a": {}, "b": {}}
	e, err := newEngine(chainGraph(t, true), countBinder(100, counts),
		rts.RunOpts{Processors: 4, Mode: rts.ModeTaper, Omega: omega, Sink: &obs.Collector{}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var specs []rts.OpSpec
	var names []string
	for j, o := range e.opsSnap() {
		o.unsched.Store(int64(40 + 20*j))
		for i := 0; i < 8; i++ {
			o.stats.Observe(i, 1e-3*float64(1+i+3*j))
		}
		specs = append(specs, rts.OpSpec{Op: sched.Op{Name: o.name, N: 40 + 20*j},
			Mu: o.stats.Global.Mean(), Sigma: o.stats.Global.StdDev()})
		names = append(names, o.name)
	}
	e.emitRealloc(live)
	got := e.rec.Finish(trace.Result{}).Allocs
	rec := obs.NewRecorder("native", "s", nil, 1)
	rts.ReallocateOnLossOmega(machine.Config{}, specs, live, omega, rec, names...)
	want := rec.Finish(trace.Result{}).Allocs
	if len(got) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("emitRealloc rows at ω=%g:\n got %+v\nwant %+v", omega, got, want)
	}
}

// TestDependencyGating checks that with a non-pipelined edge no task
// of the consumer starts before the producer fully completes.
func TestDependencyGating(t *testing.T) {
	const n = 300
	for _, mode := range allModes() {
		var aDone atomic.Int64
		var violations atomic.Int64
		bind := func(name string) rts.OpSpec {
			var body func(i int) float64
			if name == "a" {
				body = func(i int) float64 { aDone.Add(1); return 1 }
			} else {
				body = func(i int) float64 {
					if aDone.Load() != n {
						violations.Add(1)
					}
					return 1
				}
			}
			return rts.OpSpec{Op: sched.Op{Name: name, N: n, Time: body}, Mu: 1}
		}
		if _, err := (Backend{}).Run(chainGraph(t, false), rts.BindClosure(bind), rts.RunOpts{Processors: 4, Mode: mode}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if v := violations.Load(); v != 0 {
			t.Errorf("%v: %d consumer tasks ran before the producer finished", mode, v)
		}
		aDone.Store(0)
	}
}

// TestPipelinedPrefixSafety checks the ModeSplit contract: consumer
// task i may run only once producer tasks 0..i are all complete (the
// contiguous-prefix gate), while the consumer is allowed to start
// before the producer fully finishes (overlap).
func TestPipelinedPrefixSafety(t *testing.T) {
	const n = 2000
	prodDone := make([]atomic.Bool, n)
	var overlap atomic.Int64  // consumer tasks started before producer finished
	var prodLeft atomic.Int64 // producer tasks remaining
	var violations atomic.Int64
	prodLeft.Store(n)
	bind := func(name string) rts.OpSpec {
		var body func(i int) float64
		if name == "a" {
			body = func(i int) float64 {
				prodDone[i].Store(true)
				prodLeft.Add(-1)
				return 1
			}
		} else {
			body = func(i int) float64 {
				if prodLeft.Load() > 0 {
					overlap.Add(1)
				}
				for j := 0; j <= i; j++ {
					if !prodDone[j].Load() {
						violations.Add(1)
						break
					}
				}
				return 1
			}
		}
		return rts.OpSpec{Op: sched.Op{Name: name, N: n, Time: body}, Mu: 1}
	}
	if _, err := (Backend{}).Run(chainGraph(t, true), rts.BindClosure(bind), rts.RunOpts{Processors: 4, Mode: rts.ModeSplit}); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("%d consumer tasks read an incomplete producer prefix", v)
	}
	if overlap.Load() == 0 {
		t.Log("no producer/consumer overlap observed (legal, but the pipeline did not engage)")
	}
}

// TestStealsUnderImbalance gives one worker's block all the expensive
// tasks and checks that other workers steal from it.
func TestStealsUnderImbalance(t *testing.T) {
	const n = 256
	g := delirium.NewGraph("one")
	if err := g.AddNode(&delirium.Node{Name: "a", Kind: delirium.Par}); err != nil {
		t.Fatal(err)
	}
	bind := func(name string) rts.OpSpec {
		return rts.OpSpec{Op: sched.Op{
			Name: name,
			N:    n,
			Time: func(i int) float64 {
				if i < n/4 { // worker 0's initial block is slow
					time.Sleep(500 * time.Microsecond)
				}
				return 1
			},
		}, Mu: 1}
	}
	r, err := (Backend{}).Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 4, Mode: rts.ModeTaper})
	if err != nil {
		t.Fatal(err)
	}
	if r.Steals == 0 {
		t.Error("expected steals under a 4x-imbalanced block decomposition, got none")
	}
}

// TestNoGoroutineLeak brackets Execute with goroutine counts: workers
// and gaters must all exit, including when tasks are still in flight
// at the moment the last chunk completes.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, mode := range allModes() {
		counts := map[string]*atomic.Int64{"a": {}, "b": {}}
		if _, err := (Backend{}).Run(chainGraph(t, true), rts.BindClosure(countBinder(400, counts)), rts.RunOpts{Processors: 8, Mode: mode}); err != nil {
			t.Fatal(err)
		}
	}
	// Allow exiting goroutines to unwind.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShutdownWithInFlightTasks uses sleeping tasks so that chunks are
// genuinely concurrent at completion time, and checks that Execute
// returns only after every task has run and the busy accounting is
// consistent.
func TestShutdownWithInFlightTasks(t *testing.T) {
	const n = 64
	var ran atomic.Int64
	bind := func(name string) rts.OpSpec {
		return rts.OpSpec{Op: sched.Op{
			Name: name,
			N:    n,
			Time: func(i int) float64 {
				time.Sleep(200 * time.Microsecond)
				ran.Add(1)
				return 1
			},
		}, Mu: 1}
	}
	r, err := (Backend{}).Run(chainGraph(t, true), rts.BindClosure(bind), rts.RunOpts{Processors: 8, Mode: rts.ModeSplit})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2*n {
		t.Fatalf("Execute returned with %d/%d tasks run", ran.Load(), 2*n)
	}
	if r.SeqTime < float64(2*n)*150e-6 {
		t.Errorf("measured SeqTime %v too small for %d sleeping tasks", r.SeqTime, 2*n)
	}
}

// TestZeroTaskOperator checks that an empty operator completes
// immediately and unblocks its consumers.
func TestZeroTaskOperator(t *testing.T) {
	g := chainGraph(t, false)
	var bRan atomic.Int64
	bind := func(name string) rts.OpSpec {
		if name == "a" {
			return rts.OpSpec{Op: sched.Op{Name: name, N: 0}}
		}
		return rts.OpSpec{Op: sched.Op{Name: name, N: 10, Time: func(int) float64 { bRan.Add(1); return 1 }}, Mu: 1}
	}
	done := make(chan error, 1)
	go func() {
		_, err := (Backend{}).Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 2, Mode: rts.ModeSplit})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Execute hung on a zero-task producer")
	}
	if bRan.Load() != 10 {
		t.Fatalf("consumer ran %d tasks, want 10", bRan.Load())
	}
}

// TestUnknownMode checks the error path.
func TestUnknownMode(t *testing.T) {
	counts := map[string]*atomic.Int64{"a": {}, "b": {}}
	_, err := (Backend{}).Run(chainGraph(t, false), rts.BindClosure(countBinder(4, counts)), rts.RunOpts{Processors: 2, Mode: rts.Mode(99)})
	if err == nil {
		t.Fatal("expected an error for an unknown mode")
	}
}

// TestAdaptiveChunking checks that the adaptive modes schedule more,
// smaller chunks than one block per worker, i.e. measured-time TAPER
// is actually engaged.
func TestAdaptiveChunking(t *testing.T) {
	const n, workers = 4000, 4
	counts := map[string]*atomic.Int64{"a": {}, "b": {}}
	rStatic, err := (Backend{}).Run(chainGraph(t, false), rts.BindClosure(countBinder(n, counts)), rts.RunOpts{Processors: workers, Mode: rts.ModeStatic})
	if err != nil {
		t.Fatal(err)
	}
	counts = map[string]*atomic.Int64{"a": {}, "b": {}}
	rTaper, err := (Backend{}).Run(chainGraph(t, false), rts.BindClosure(countBinder(n, counts)), rts.RunOpts{Processors: workers, Mode: rts.ModeTaper})
	if err != nil {
		t.Fatal(err)
	}
	if rStatic.Chunks != 2*workers {
		t.Errorf("static mode scheduled %d chunks, want %d (one block per worker per op)", rStatic.Chunks, 2*workers)
	}
	if rTaper.Chunks <= rStatic.Chunks {
		t.Errorf("TAPER mode scheduled %d chunks, want more than static's %d", rTaper.Chunks, rStatic.Chunks)
	}
}

// TestTraceCollection runs each mode with a trace sink and checks the
// recorded timeline is structurally sound: chunk spans cover every
// task exactly once per operator, taper decisions appear in the
// adaptive modes, and gate advances appear for the pipelined edge.
// Under -race this also stresses the per-worker ring discipline.
func TestTraceCollection(t *testing.T) {
	const n = 600
	for _, mode := range allModes() {
		counts := map[string]*atomic.Int64{"a": {}, "b": {}}
		var col obs.Collector
		r, err := (Backend{}).Run(chainGraph(t, true), rts.BindClosure(countBinder(n, counts)),
			rts.RunOpts{Processors: 4, Mode: mode, Sink: &col})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		tr := col.Trace
		if tr == nil {
			t.Fatalf("%v: sink never received a trace", mode)
		}
		if tr.Backend != "native" || tr.Unit != "s" || tr.Workers != 4 {
			t.Fatalf("%v: trace metadata %q/%q/%d", mode, tr.Backend, tr.Unit, tr.Workers)
		}
		covered := map[int32]map[int32]bool{}
		var chunks, tapers, gates int
		for _, e := range tr.Events {
			switch e.Kind {
			case obs.KindChunk:
				chunks++
				if e.T1 < e.T0 {
					t.Fatalf("%v: chunk span ends (%v) before it starts (%v)", mode, e.T1, e.T0)
				}
				m := covered[e.Op]
				if m == nil {
					m = map[int32]bool{}
					covered[e.Op] = m
				}
				for i := e.Lo; i < e.Lo+e.N; i++ {
					if m[i] {
						t.Fatalf("%v: task %d of op %s traced twice", mode, i, tr.OpName(e.Op))
					}
					m[i] = true
				}
			case obs.KindTaper:
				tapers++
			case obs.KindGate:
				gates++
			}
		}
		if chunks != r.Chunks {
			t.Errorf("%v: %d chunk spans, result counted %d", mode, chunks, r.Chunks)
		}
		for op, m := range covered {
			if len(m) != n {
				t.Errorf("%v: op %s has %d traced tasks, want %d", mode, tr.OpName(op), len(m), n)
			}
		}
		if mode != rts.ModeStatic && tapers == 0 {
			t.Errorf("%v: no taper decisions traced", mode)
		}
		if mode == rts.ModeSplit && gates == 0 {
			t.Errorf("split: no gate advances traced for the pipelined edge")
		}
	}
}

// TestSpinConcurrent calls Spin from several goroutines at once, as the
// workers of a spin-bound run do; under -race it fails if spin keeps
// its result alive through a shared write.
func TestSpinConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				Spin(64)
			}
		}()
	}
	wg.Wait()
}

// TestPostedBlockNotHostage pins the idle invariant: a block released
// to a peer's deque is ready work, and an idle worker takes it. Worker
// 1 is launched only once the run has finished, so every block worker
// 0's releases place on worker 1's deque has no owner to pop it: worker
// 0 alone must carry the P = 2 split-mode run to the end, every task
// executed once, and its steals of those blocks show in Result.Steals
// as they do in the trace. Were a released block reachable only through
// its addressee, worker 0 would spin forever on queued > 0 here.
func TestPostedBlockNotHostage(t *testing.T) {
	const n = 2048
	counts := map[string][]atomic.Int32{"a": make([]atomic.Int32, n), "b": make([]atomic.Int32, n)}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	opts := rts.RunOpts{Processors: 2, Mode: rts.ModeSplit, Ctx: ctx}
	e, err := newEngine(chainGraph(t, true), taskCountBinder(n, counts), opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.workers = []*worker{newWorker(0), newWorker(1)}
	launched := 0
	r, err := e.execute(opts, func(run func()) {
		launched++
		if launched == 1 {
			go run()
			return
		}
		go func() {
			// The deadline closes finished too, which lets a hung run
			// (worker 0 spinning on a hostage block) join and fail.
			<-e.finished
			run()
		}()
	})
	if err != nil {
		t.Fatalf("worker 0 alone did not finish the run: %v", err)
	}
	for name, c := range counts {
		for i := range c {
			if got := c[i].Load(); got != 1 {
				t.Fatalf("op %s task %d executed %d times, want 1", name, i, got)
			}
		}
	}
	if r.Steals == 0 {
		t.Errorf("Result.Steals = 0: worker 0 finished without taking a released block")
	}
	if r.Busy[1] != 0 {
		t.Errorf("worker 1 reports %v s busy; it was never started", r.Busy[1])
	}
}
