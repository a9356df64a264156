package native

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

// lossEngine builds an engine of p unlaunched workers under a fault
// plan, so a test can mark workers dead and drive findWork, release and
// the park protocol by hand.
func lossEngine(t *testing.T, mode rts.Mode, p int) *engine {
	t.Helper()
	plan, err := fault.Parse("slow:0@0:2")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]*atomic.Int64{"a": {}, "b": {}}
	e, err := newEngine(chainGraph(t, false), countBinder(64, counts),
		rts.RunOpts{Processors: p, Mode: mode, Fault: plan}, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p; i++ {
		e.workers = append(e.workers, newWorker(i))
	}
	return e
}

// TestStaticRobsOnlyTheDead pins the loss rule's seam in ModeStatic,
// which does not steal: findWork and reachableWork reach a dead
// worker's deque, and only that — reachableWork must report true only
// for work findWork can take, or an idle worker spins instead of
// parking.
func TestStaticRobsOnlyTheDead(t *testing.T) {
	e := lossEngine(t, rts.ModeStatic, 3)
	thief, dead, live := e.workers[0], e.workers[1], e.workers[2]
	live.dq.push(segment{op: 0, lo: 0, hi: 10})
	live.dq.push(segment{op: 0, lo: 10, hi: 20})
	if e.reachableWork(thief) {
		t.Fatal("a live peer's queue is reachable without stealing")
	}
	if s, ok, _ := e.findWork(thief); ok {
		t.Fatalf("took %+v from a live peer without stealing", s)
	}
	dead.dq.push(segment{op: 0, lo: 20, hi: 30})
	dead.dq.push(segment{op: 0, lo: 30, hi: 40})
	e.markDead(dead)
	took := map[int]bool{}
	for e.reachableWork(thief) {
		s, ok, stolen := e.findWork(thief)
		if !ok || !stolen {
			t.Fatalf("reachableWork reports work findWork cannot take (took %v so far)", took)
		}
		took[s.lo] = true
	}
	if len(took) != 2 || !took[20] || !took[30] {
		t.Fatalf("took segments at %v, want the dead worker's two (20, 30)", took)
	}
	if live.dq.size() != 2 {
		t.Fatal("the live peer lost work it was not robbed of")
	}
}

// TestPostToDeadWakesSurvivor pins the other seam: a segment released
// to a dead worker lands on its deque and must wake a parked survivor,
// because the addressee never will take it. A two-task static release
// on three workers gives blocks to workers 0 and 1 only, so nothing
// but the dead addressee wakes worker 2.
func TestPostToDeadWakesSurvivor(t *testing.T) {
	e := lossEngine(t, rts.ModeStatic, 3)
	releaser, dead, parked := e.workers[0], e.workers[1], e.workers[2]
	e.markDead(dead)
	parked.pk.prepare()
	e.idle.Add(1)
	e.release(releaser, 0, 0, 2)
	if dead.dq.size() != 1 || parked.dq.size() != 0 {
		t.Fatal("the released blocks did not go to workers 0 and 1")
	}
	if parked.pk.state.Load() != pActive || len(parked.pk.wake) != 1 {
		t.Fatal("a release to a dead addressee left the parked survivor asleep")
	}
	if !e.reachableWork(parked) {
		t.Fatal("the woken survivor cannot reach the dead addressee's deque")
	}
}

// TestNativeStallIsDelay pins the one loss rule every engine shares: a
// stall is a delay, and only a crash loses a worker. In ModeStatic two
// workers each own a block of two independent sources; worker 1 sleeps
// 0.2 s at its first chunk boundary holding its block. Nothing declares
// it dead, so worker 0 — which does not steal in ModeStatic — never
// takes its work: the trace shows the one stall and no crash, no
// reallocation and no steal, on exactly the workers' two rings.
func TestNativeStallIsDelay(t *testing.T) {
	const p, n = 2, 64
	g := delirium.NewGraph("sources")
	for _, name := range []string{"a", "b"} {
		if err := g.AddNode(&delirium.Node{Name: name, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := fault.Parse("stall:1@0:0.2")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]*atomic.Int64{"a": {}, "b": {}}
	var col obs.Collector
	r, err := (Backend{}).Run(g, rts.BindClosure(countBinder(n, counts)),
		rts.RunOpts{Processors: p, Mode: rts.ModeStatic, Fault: plan, Sink: &col})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range counts {
		if got := c.Load(); got != n {
			t.Fatalf("op %s ran %d tasks, want %d", name, got, n)
		}
	}
	tr := col.Trace
	if tr.Workers != p {
		t.Fatalf("trace has %d rings, want %d", tr.Workers, p)
	}
	var crashes, stalls, reallocs int
	for _, ev := range tr.Events {
		switch {
		case ev.Kind == obs.KindFault && fault.Kind(ev.Arg) == fault.Crash:
			crashes++
		case ev.Kind == obs.KindFault && fault.Kind(ev.Arg) == fault.Stall:
			stalls++
		case ev.Kind == obs.KindRealloc:
			reallocs++
		}
	}
	if r.Steals != 0 || crashes != 0 || reallocs != 0 || stalls != 1 {
		t.Fatalf("steals=%d crashes=%d reallocs=%d stalls=%d, want 0 0 0 1: a stall is a delay",
			r.Steals, crashes, reallocs, stalls)
	}
}

// TestStallHonoursCancel: a stalled worker waits on its stall or on the
// run's end, whichever comes first, so canceling a run 20 ms into a 2 s
// stall returns at once in every mode instead of holding the workers
// for the rest of the stall. Every task blocks until the cancel, so the
// run cannot finish around the stalled worker.
func TestStallHonoursCancel(t *testing.T) {
	const p, n = 2, 64
	g := delirium.NewGraph("sources")
	for _, name := range []string{"a", "b"} {
		if err := g.AddNode(&delirium.Node{Name: name, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	plan, err := fault.Parse("stall:0@0:2")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allModes() {
		ctx, cancel := context.WithCancel(context.Background())
		bind := func(name string) rts.OpSpec {
			return rts.OpSpec{Op: sched.Op{Name: name, N: n, Time: func(int) float64 {
				<-ctx.Done()
				return 1
			}}, Mu: 1}
		}
		canceled := make(chan time.Time, 1)
		time.AfterFunc(20*time.Millisecond, func() {
			canceled <- time.Now()
			cancel()
		})
		_, err := (Backend{}).Run(g, rts.BindClosure(bind),
			rts.RunOpts{Processors: p, Mode: mode, Fault: plan, Ctx: ctx})
		returned := time.Now()
		if !rts.IsCanceled(err) {
			t.Fatalf("%v: Run = %v, want a cancel error", mode, err)
		}
		if d := returned.Sub(<-canceled); d > 250*time.Millisecond {
			t.Errorf("%v: Run returned %v after Cancel, want under 250ms", mode, d)
		}
	}
}
