package native

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
)

// diamondGraph builds a -> {b, c} -> d, the smallest graph with both
// a fan-out and a join, so kernels exercise real cross-operator reads.
func diamondGraph(t *testing.T) *delirium.Graph {
	t.Helper()
	g := delirium.NewGraph("diamond")
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := g.AddNode(&delirium.Node{Name: n, Kind: delirium.Par}); err != nil {
			t.Fatal(err)
		}
	}
	g.AddEdge(&delirium.Edge{From: "a", To: "b", Bytes: 8})
	g.AddEdge(&delirium.Edge{From: "a", To: "c", Bytes: 8, Pipelined: true})
	g.AddEdge(&delirium.Edge{From: "b", To: "d", Bytes: 8})
	g.AddEdge(&delirium.Edge{From: "c", To: "d", Bytes: 8})
	return g
}

// oneShotDigest runs the kernel-bound graph on a throwaway one-shot
// backend and returns the result digest — the reference every pooled
// execution must reproduce bitwise.
func oneShotDigest(t *testing.T, g *delirium.Graph, n int, opts rts.RunOpts) string {
	t.Helper()
	bind, st, err := ArrayKernels(g, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Backend{}).Run(g, rts.BindClosure(bind), opts); err != nil {
		t.Fatal(err)
	}
	return StateDigest(st)
}

// poolDigest runs the same job on the shared pool.
func poolDigest(t *testing.T, p *Pool, g *delirium.Graph, n int, opts rts.RunOpts) string {
	t.Helper()
	bind, st, err := ArrayKernels(g, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(g, rts.BindClosure(bind), opts); err != nil {
		t.Fatal(err)
	}
	return StateDigest(st)
}

// TestPoolRunMatchesOneShot checks that a pooled execution produces a
// bitwise-identical result to a fresh one-shot backend, for every mode
// and for grants smaller than the pool.
func TestPoolRunMatchesOneShot(t *testing.T) {
	g := diamondGraph(t)
	p := NewPool(4)
	defer p.Close()
	const n = 128
	for _, mode := range allModes() {
		for _, workers := range []int{1, 2, 4} {
			opts := rts.RunOpts{Processors: workers, Mode: mode}
			want := oneShotDigest(t, g, n, opts)
			got := poolDigest(t, p, g, n, opts)
			if got != want {
				t.Errorf("%v/p=%d: pool digest %.12s != one-shot %.12s", mode, workers, got, want)
			}
		}
	}
	if free := p.Stats().Free; free != 4 {
		t.Errorf("after runs: %d free workers, want 4", free)
	}
}

// TestPoolConcurrentRunsBitwiseIdentical multiplexes many concurrent
// jobs onto one shared pool and checks every one reproduces the
// one-shot digest for its mode — the serve daemon's correctness
// contract. Run under -race this also proves the epoch isolation is
// race-clean.
func TestPoolConcurrentRunsBitwiseIdentical(t *testing.T) {
	g := diamondGraph(t)
	const n = 96
	want := map[rts.Mode]string{}
	for _, mode := range allModes() {
		want[mode] = oneShotDigest(t, g, n, rts.RunOpts{Processors: 2, Mode: mode})
	}

	p := NewPool(4)
	defer p.Close()
	const jobs = 24
	errs := make([]error, jobs)
	digests := make([]string, jobs)
	modes := make([]rts.Mode, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		i := i
		modes[i] = allModes()[i%3]
		wg.Add(1)
		go func() {
			defer wg.Done()
			bind, st, err := ArrayKernels(g, n, 1)
			if err != nil {
				errs[i] = err
				return
			}
			if _, err := p.Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 2, Mode: modes[i]}); err != nil {
				errs[i] = err
				return
			}
			digests[i] = StateDigest(st)
		}()
	}
	wg.Wait()
	for i := 0; i < jobs; i++ {
		if errs[i] != nil {
			t.Fatalf("job %d: %v", i, errs[i])
		}
		if digests[i] != want[modes[i]] {
			t.Errorf("job %d (%v): digest %.12s != one-shot %.12s", i, modes[i], digests[i], want[modes[i]])
		}
	}
	if st := p.Stats(); st.JobsDone != jobs || st.Free != 4 || st.JobsActive != 0 {
		t.Errorf("stats after drain = %+v", st)
	}
}

// TestPoolFaultIsolationBetweenJobs runs a crashing job and a healthy
// job concurrently on one pool, repeatedly: the fault plan must stay
// confined to its own job — both jobs' results remain bitwise correct,
// and the healthy job never observes the neighbor's faults.
func TestPoolFaultIsolationBetweenJobs(t *testing.T) {
	g := diamondGraph(t)
	const n = 96
	want := oneShotDigest(t, g, n, rts.RunOpts{Processors: 2, Mode: rts.ModeTaper})

	plan, err := fault.Parse("crash:0@1")
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(4)
	defer p.Close()
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		var faultyDig, healthyDig string
		var faultyErr, healthyErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			bind, st, err := ArrayKernels(g, n, 1)
			if err != nil {
				faultyErr = err
				return
			}
			_, faultyErr = p.Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 2, Mode: rts.ModeTaper, Fault: plan})
			faultyDig = StateDigest(st)
		}()
		go func() {
			defer wg.Done()
			bind, st, err := ArrayKernels(g, n, 1)
			if err != nil {
				healthyErr = err
				return
			}
			_, healthyErr = p.Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 2, Mode: rts.ModeTaper})
			healthyDig = StateDigest(st)
		}()
		wg.Wait()
		if faultyErr != nil {
			t.Fatalf("round %d: faulty job: %v", round, faultyErr)
		}
		if healthyErr != nil {
			t.Fatalf("round %d: healthy job: %v", round, healthyErr)
		}
		if healthyDig != want {
			t.Errorf("round %d: healthy job digest %.12s != %.12s (perturbed by neighbor's faults)",
				round, healthyDig, want)
		}
		if faultyDig != want {
			t.Errorf("round %d: faulty job digest %.12s != %.12s (recovery lost or duplicated work)",
				round, faultyDig, want)
		}
	}
}

// TestPoolCancelReleasesWorkers cancels a job mid-run and checks the
// distinguishable error and that the leases come back — the pool stays
// fully usable. The exact moment cancellation lands depends on chunk
// boundaries, so the test retries until a run is actually abandoned.
func TestPoolCancelReleasesWorkers(t *testing.T) {
	// a's single task blocks until the context fires; b's tasks are
	// gated behind a, so at cancel time they are still outstanding.
	g := chainGraph(t, false)
	p := NewPool(2)
	defer p.Close()

	canceledOnce := false
	for attempt := 0; attempt < 20 && !canceledOnce; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		var once sync.Once
		bind := func(name string) rts.OpSpec {
			if name == "a" {
				return rts.OpSpec{Op: sched.Op{Name: name, N: 1, Time: func(i int) float64 {
					once.Do(func() { close(started) })
					<-ctx.Done()
					return 1
				}}, Mu: 1}
			}
			return rts.OpSpec{Op: sched.Op{Name: name, N: 400, Time: func(i int) float64 { return 1 }}, Mu: 1}
		}
		errCh := make(chan error, 1)
		go func() {
			_, err := p.Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 2, Mode: rts.ModeTaper, Ctx: ctx})
			errCh <- err
		}()
		<-started
		cancel()
		err := <-errCh
		if err != nil {
			if !rts.IsCanceled(err) {
				t.Fatalf("attempt %d: error %v does not wrap rts.ErrCanceled", attempt, err)
			}
			canceledOnce = true
		}
		waitFree(t, p, 2)
	}
	if !canceledOnce {
		t.Fatal("no attempt was abandoned on cancellation")
	}

	// The pool must still execute jobs normally after a canceled one.
	g2 := diamondGraph(t)
	want := oneShotDigest(t, g2, 64, rts.RunOpts{Processors: 2, Mode: rts.ModeSplit})
	if got := poolDigest(t, p, g2, 64, rts.RunOpts{Processors: 2, Mode: rts.ModeSplit}); got != want {
		t.Errorf("post-cancel run digest %.12s != %.12s", got, want)
	}
}

// TestPoolCancelWhileQueued cancels a job that is still waiting for
// leases: it must abort with the cancel error without ever running,
// and the job holding the pool must be unaffected.
func TestPoolCancelWhileQueued(t *testing.T) {
	g := chainGraph(t, false)
	p := NewPool(2)
	defer p.Close()

	release := make(chan struct{})
	bind := func(name string) rts.OpSpec {
		return rts.OpSpec{Op: sched.Op{Name: name, N: 1, Time: func(i int) float64 {
			<-release
			return 1
		}}, Mu: 1}
	}
	holdErr := make(chan error, 1)
	go func() {
		_, err := p.Run(g, rts.BindClosure(bind), rts.RunOpts{Processors: 2, Mode: rts.ModeStatic})
		holdErr <- err
	}()
	// Wait until the holder owns both workers.
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Free != 0 {
		if time.Now().After(deadline) {
			t.Fatal("holding job never acquired the pool")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	queuedErr := make(chan error, 1)
	var ran atomic.Bool
	go func() {
		bind2 := func(name string) rts.OpSpec {
			return rts.OpSpec{Op: sched.Op{Name: name, N: 1, Time: func(i int) float64 {
				ran.Store(true)
				return 1
			}}, Mu: 1}
		}
		_, err := p.Run(g, rts.BindClosure(bind2), rts.RunOpts{Processors: 2, Mode: rts.ModeStatic, Ctx: ctx})
		queuedErr <- err
	}()
	// Wait until the second job is queued behind the first.
	for p.Stats().JobsQueued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-queuedErr; !rts.IsCanceled(err) {
		t.Fatalf("queued job error = %v, want one wrapping rts.ErrCanceled", err)
	}
	if ran.Load() {
		t.Error("canceled queued job executed a task")
	}

	close(release)
	if err := <-holdErr; err != nil {
		t.Fatalf("holding job: %v", err)
	}
	waitFree(t, p, 2)
}

// TestPoolCloseStopsWorkers checks Close is idempotent, fails later
// Runs, and leaves no goroutines behind.
func TestPoolCloseStopsWorkers(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()

	p := NewPool(3)
	g := diamondGraph(t)
	bind, _, err := ArrayKernels(g, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(g, rts.BindClosure(bind), rts.RunOpts{Mode: rts.ModeSplit}); err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent

	if _, err := p.Run(g, rts.BindClosure(bind), rts.RunOpts{Mode: rts.ModeSplit}); err == nil {
		t.Error("Run on a closed pool succeeded")
	}

	// The persistent goroutines must be gone; allow the runtime a few
	// scheduling rounds to reap them.
	for i := 0; i < 100; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before pool, %d after Close", base, runtime.NumGoroutine())
}

// waitFree blocks until the pool reports want free workers.
func waitFree(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Free != want {
		if time.Now().After(deadline) {
			t.Fatalf("pool free = %d, want %d (leases not released)", p.Stats().Free, want)
		}
		time.Sleep(time.Millisecond)
	}
}
