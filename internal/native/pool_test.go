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
	"orchestra/internal/obs"
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

// slowBinder wraps bind so every task sleeps d after its body: the job
// computes the kernel's results, only later.
func slowBinder(bind rts.Binder, d time.Duration) rts.Binder {
	return func(name string) rts.OpSpec {
		s := bind(name)
		body := s.Op.Time
		s.Op.TimeRange = nil
		s.Op.Time = func(i int) float64 {
			v := body(i)
			time.Sleep(d)
			return v
		}
		return s
	}
}

// gateBinder binds chainGraph's node a to na tasks that each wait until
// open closes (or ctx fires, when ctx is non-nil), counting the tasks
// that began waiting in entered, and node b to nb tasks counted in
// counts.
func gateBinder(na, nb int, open <-chan struct{}, ctx context.Context, entered *atomic.Int32, counts []atomic.Int32) rts.Binder {
	return func(name string) rts.OpSpec {
		if name == "a" {
			return rts.OpSpec{Op: sched.Op{Name: name, N: na, Time: func(i int) float64 {
				entered.Add(1)
				if ctx != nil {
					select {
					case <-open:
					case <-ctx.Done():
					}
				} else {
					<-open
				}
				return 1
			}}, Mu: 1}
		}
		return rts.OpSpec{Op: sched.Op{Name: name, N: nb, Time: func(i int) float64 { counts[i].Add(1); return 1 }}, Mu: 1}
	}
}

// within waits up to ten seconds for a job's error. A job that never
// ends fails the test instead of hanging it; the tests that use it
// close their pool only on success, since Close waits for stuck jobs.
func within(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never finished", what)
		return nil
	}
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolYieldToWaiter runs a slow job A on the whole pool and then a
// one-worker job B: B must not wait for A's end. One of A's workers
// leaves A at its next scheduling point and runs B, which finishes
// first, and both results are the one-shot ones bit for bit, in every
// mode.
func TestPoolYieldToWaiter(t *testing.T) {
	g := diamondGraph(t)
	const n = 96
	for _, mode := range allModes() {
		wantA := oneShotDigest(t, g, n, rts.RunOpts{Processors: 2, Mode: mode})
		wantB := oneShotDigest(t, g, n, rts.RunOpts{Processors: 1, Mode: mode})
		p := NewPool(2)
		bindA, stA, err := ArrayKernels(g, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		aDone := make(chan error, 1)
		go func() {
			_, err := p.Run(g, rts.BindClosure(slowBinder(bindA, 500*time.Microsecond)), rts.RunOpts{Processors: 2, Mode: mode})
			aDone <- err
		}()
		waitFree(t, p, 0)
		gotB := poolDigest(t, p, g, n, rts.RunOpts{Processors: 1, Mode: mode})
		select {
		case <-aDone:
			t.Fatalf("%v: A finished before the one-worker job B it should have yielded to", mode)
		default:
		}
		if err := within(t, aDone, "A"); err != nil {
			t.Fatalf("%v: A: %v", mode, err)
		}
		if got := StateDigest(stA); got != wantA {
			t.Errorf("%v: A digest %.12s != one-shot %.12s", mode, got, wantA)
		}
		if gotB != wantB {
			t.Errorf("%v: B digest %.12s != one-shot %.12s", mode, gotB, wantB)
		}
		if st := p.Stats(); st.Yields != 1 || st.Free != 2 {
			t.Errorf("%v: stats %+v, want one yield and the pool free", mode, st)
		}
		p.Close()
	}
}

// TestPoolYieldNeverAlone checks that a job alone keeps the whole pool:
// back-to-back jobs with no one waiting never yield.
func TestPoolYieldNeverAlone(t *testing.T) {
	g := diamondGraph(t)
	p := NewPool(2)
	defer p.Close()
	for i := 0; i < 10; i++ {
		for _, mode := range allModes() {
			poolDigest(t, p, g, 64, rts.RunOpts{Mode: mode})
		}
	}
	if st := p.Stats(); st.Yields != 0 {
		t.Errorf("solo jobs yielded %d workers", st.Yields)
	}
}

// TestPoolYieldStaticBlocks pins a departure in ModeStatic, which does
// not steal: job A's operator a holds one worker in its only task, and
// the idle one leaves A for the one-worker job B. Operator b's blocks
// are then laid out over both of A's workers, and the one that stayed
// finishes the departed worker's block. Every task runs once, and the
// trace shows that block taken from the departed worker with no fault
// and no retry.
func TestPoolYieldStaticBlocks(t *testing.T) {
	g := chainGraph(t, false)
	const n = 64
	open := make(chan struct{})
	var entered atomic.Int32
	counts := make([]atomic.Int32, n)
	p := NewPool(2)
	var col obs.Collector
	aDone := make(chan error, 1)
	go func() {
		_, err := p.Run(g, rts.BindClosure(gateBinder(1, n, open, nil, &entered, counts)),
			rts.RunOpts{Processors: 2, Mode: rts.ModeStatic, Sink: &col})
		aDone <- err
	}()
	waitUntil(t, "A's gate task runs", func() bool { return entered.Load() == 1 })
	bDone := make(chan error, 1)
	go func() {
		bCounts := map[string]*atomic.Int64{"a": {}, "b": {}}
		_, err := p.Run(g, rts.BindClosure(countBinder(n, bCounts)), rts.RunOpts{Processors: 1, Mode: rts.ModeStatic})
		bDone <- err
	}()
	if err := within(t, bDone, "B, beside A's gate"); err != nil {
		t.Fatalf("B: %v", err)
	}
	if y := p.Stats().Yields; y != 1 {
		t.Fatalf("B ran with A holding its gate after %d yields, want 1", y)
	}
	close(open)
	if err := within(t, aDone, "A"); err != nil {
		t.Fatalf("A: %v", err)
	}
	p.Close()
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("A's task b[%d] ran %d times", i, c)
		}
	}
	bIdx := -1
	for i, name := range col.Trace.Ops {
		if name == "b" {
			bIdx = i
		}
	}
	robbed := 0
	for _, ev := range col.Trace.Events {
		switch ev.Kind {
		case obs.KindSteal:
			if int(ev.Op) == bIdx && ev.Worker != ev.Arg {
				robbed += int(ev.N)
			}
		case obs.KindFault, obs.KindRetry, obs.KindRealloc:
			t.Errorf("a departure recorded a %v event", ev.Kind)
		}
	}
	if robbed != n/2 {
		t.Errorf("the staying worker took %d of b's tasks from the departed one, want its block of %d", robbed, n/2)
	}
}

// TestPoolYieldNoStranding queues a job behind a two-worker job on a
// pool of two whose running job has nothing to give it: a two-worker
// waiter, which one worker cannot start, and a one-worker waiter behind
// a job under a fault plan, whose one crash-free worker must not leave.
// No worker leaves; the waiter runs when the job ends.
func TestPoolYieldNoStranding(t *testing.T) {
	g := chainGraph(t, false)
	const n = 32
	plan, err := fault.Parse("slow:0@0:1.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		plan  *fault.Plan
		wantB int
	}{{"two-worker waiter", nil, 2}, {"faulted job", plan, 1}} {
		open := make(chan struct{})
		var entered atomic.Int32
		counts := make([]atomic.Int32, n)
		p := NewPool(2)
		aDone := make(chan error, 1)
		go func() {
			_, err := p.Run(g, rts.BindClosure(gateBinder(1, n, open, nil, &entered, counts)),
				rts.RunOpts{Processors: 2, Mode: rts.ModeSplit, Fault: c.plan})
			aDone <- err
		}()
		waitUntil(t, "A's gate task runs", func() bool { return entered.Load() == 1 })
		bDone := make(chan error, 1)
		go func() {
			bCounts := map[string]*atomic.Int64{"a": {}, "b": {}}
			_, err := p.Run(g, rts.BindClosure(countBinder(n, bCounts)), rts.RunOpts{Processors: c.wantB, Mode: rts.ModeSplit})
			bDone <- err
		}()
		waitUntil(t, "B queues", func() bool { st := p.Stats(); return st.JobsQueued == 1 || st.Yields > 0 })
		time.Sleep(20 * time.Millisecond)
		if st := p.Stats(); st.Yields != 0 || st.Free != 0 {
			t.Fatalf("%s: stats %+v: a worker left that B may not have", c.name, st)
		}
		close(open)
		if err := within(t, aDone, "A"); err != nil {
			t.Fatalf("%s: A: %v", c.name, err)
		}
		if err := within(t, bDone, "B"); err != nil {
			t.Fatalf("%s: B: %v", c.name, err)
		}
		if st := p.Stats(); st.Yields != 0 || st.Free != 2 {
			t.Errorf("%s: stats %+v, want no yield and the pool free", c.name, st)
		}
		p.Close()
	}
}

// TestPoolYieldCancelAndClose asks a job whose workers are both inside
// a task for a worker, and ends the ask three ways before any worker
// reaches a scheduling point: the waiter is canceled, the asked job is
// canceled, the pool is closed. Each time every lease comes back, and
// after Close no goroutine is left.
func TestPoolYieldCancelAndClose(t *testing.T) {
	runtime.GC()
	base := runtime.NumGoroutine()
	g := chainGraph(t, false)
	const n = 32
	p := NewPool(2)

	// startA runs job A, whose four a-tasks hold both workers until open
	// closes or ctx fires, and returns once both are inside.
	startA := func(open <-chan struct{}, ctx context.Context) <-chan error {
		var entered atomic.Int32
		counts := make([]atomic.Int32, n)
		done := make(chan error, 1)
		go func() {
			_, err := p.Run(g, rts.BindClosure(gateBinder(4, n, open, ctx, &entered, counts)),
				rts.RunOpts{Processors: 2, Mode: rts.ModeStatic, Ctx: ctx})
			done <- err
		}()
		waitUntil(t, "both of A's workers are inside a task", func() bool { return entered.Load() == 2 })
		return done
	}
	// startB queues a one-worker job B behind A.
	startB := func(ctx context.Context) <-chan error {
		done := make(chan error, 1)
		go func() {
			bCounts := map[string]*atomic.Int64{"a": {}, "b": {}}
			_, err := p.Run(g, rts.BindClosure(countBinder(n, bCounts)), rts.RunOpts{Processors: 1, Mode: rts.ModeStatic, Ctx: ctx})
			done <- err
		}()
		waitUntil(t, "B queues", func() bool { return p.Stats().JobsQueued == 1 })
		return done
	}

	// The waiter is canceled: its ask is withdrawn, so no worker of A
	// leaves when the tasks return.
	open := make(chan struct{})
	aDone := startA(open, nil)
	ctx, cancel := context.WithCancel(context.Background())
	bDone := startB(ctx)
	cancel()
	if err := within(t, bDone, "the canceled waiter"); !rts.IsCanceled(err) {
		t.Fatalf("canceled waiter: error %v, want one wrapping rts.ErrCanceled", err)
	}
	close(open)
	if err := within(t, aDone, "A"); err != nil {
		t.Fatalf("A: %v", err)
	}
	if st := p.Stats(); st.Yields != 0 || st.Free != 2 {
		t.Fatalf("after a canceled waiter: stats %+v, want no yield and the pool free", st)
	}

	// The asked job is canceled: its leases come back whole and the
	// waiter runs on them.
	ctx, cancel = context.WithCancel(context.Background())
	aDone = startA(make(chan struct{}), ctx)
	bDone = startB(nil)
	cancel()
	if err := within(t, aDone, "the canceled job"); !rts.IsCanceled(err) {
		t.Fatalf("canceled job: error %v, want one wrapping rts.ErrCanceled", err)
	}
	if err := within(t, bDone, "B after the canceled job"); err != nil {
		t.Fatalf("B after the canceled job: %v", err)
	}
	waitFree(t, p, 2)

	// The pool is closed: the waiter fails, the job finishes, and Close
	// returns with every goroutine stopped.
	open = make(chan struct{})
	aDone = startA(open, nil)
	bDone = startB(nil)
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	if err := within(t, bDone, "the waiter on a closing pool"); err == nil {
		t.Fatal("a waiter on a closing pool ran")
	}
	close(open)
	if err := within(t, aDone, "A on a closing pool"); err != nil {
		t.Fatalf("A on a closing pool: %v", err)
	}
	<-closed
	for i := 0; i < 100; i++ {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before the pool, %d after Close", base, runtime.NumGoroutine())
}

// TestPoolYieldKeepsLastWorker pins depart's own guard, which holds
// even when the asks outnumber the workers that can leave: of two
// workers asked twice, one leaves and the last stays, and after a crash
// the survivor stays too.
func TestPoolYieldKeepsLastWorker(t *testing.T) {
	e := lossEngine(t, rts.ModeTaper, 2)
	handed := 0
	e.handBack = func() { handed++ }
	e.yield.Store(2)
	if !e.depart(e.workers[0]) {
		t.Fatal("an asked worker with a peer left did not leave")
	}
	if e.depart(e.workers[1]) || e.asked() {
		t.Fatal("the job's last worker left")
	}
	if handed != 1 || e.liveP() != 1 || !e.workers[0].gone() || e.workers[1].gone() {
		t.Fatalf("handed back %d, liveP %d: want one departure", handed, e.liveP())
	}

	e = lossEngine(t, rts.ModeTaper, 2)
	e.handBack = func() { t.Fatal("a lease was handed back") }
	e.markDead(e.workers[0])
	e.yield.Store(1)
	if e.depart(e.workers[1]) {
		t.Fatal("the survivor of a crash left")
	}
}
