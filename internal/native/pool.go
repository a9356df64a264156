package native

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"orchestra/internal/delirium"
	"orchestra/internal/rts"
	"orchestra/internal/trace"
)

// Pool separates worker lifetime from job lifetime: it owns a fixed
// set of persistent worker goroutines and hosts any number of
// concurrent Run calls on them, so a long-running service executes
// thousands of graphs without respawning a single goroutine.
// Backend.Run builds the same per-job engine but pays a goroutine
// spawn-and-join per worker per run; a Pool pays it once at NewPool.
//
// Each job is an epoch: Run leases n of the pool's goroutines, attaches
// per-job worker states (deques, parkers, chain queues — recycled
// through an arena, so a warm pool's job setup allocates almost
// nothing), executes the engine exactly as a one-shot run would, and
// returns the leases.
// Per-job state never leaks across epochs: worker arenas are reset
// before reuse, and the engine — operator gates, statistics, fault
// state, trace recorder — is built fresh per job. Concurrent jobs are
// therefore fully isolated: a fault plan injected into one job crashes
// only that job's leased workers, and a trace sink on one job sees only
// that job's events.
//
// Leases are granted FIFO (ticketed), so a job needing many workers is
// never starved by a stream of small jobs arriving behind it.
type Pool struct {
	size  int
	tasks chan func()
	wg    sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	// free counts unleased worker goroutines; tickets serialize
	// acquisition FIFO. abandoned marks tickets whose acquirer gave up
	// (context canceled), so serving can skip them.
	free      int
	next      uint64
	serving   uint64
	abandoned map[uint64]bool
	closed    bool
	// arena recycles per-job worker states across epochs.
	arena []*worker

	jobsActive atomic.Int64
	jobsDone   atomic.Int64
	jobsQueued atomic.Int64
}

// NewPool starts a pool of n persistent worker goroutines (GOMAXPROCS
// when n <= 0). The caller must Close it to stop them.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: n, free: n, tasks: make(chan func()), abandoned: map[uint64]bool{}}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.workerLoop()
	}
	return p
}

// workerLoop is one persistent pool goroutine: it hosts one job's
// worker at a time, across the pool's whole lifetime.
func (p *Pool) workerLoop() {
	defer p.wg.Done()
	for run := range p.tasks {
		run()
	}
}

// Size reports the number of persistent workers.
func (p *Pool) Size() int { return p.size }

// Free reports the number of currently unleased workers. It is advisory
// under concurrency: by the time the caller acts, another job may have
// taken leases.
func (p *Pool) Free() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.free
}

// PoolStats is a snapshot of pool occupancy.
type PoolStats struct {
	// Size is the persistent worker count; Busy of them are leased to
	// running jobs right now.
	Size int `json:"size"`
	Busy int `json:"busy"`
	Free int `json:"free"`
	// JobsActive counts jobs currently executing, JobsQueued jobs
	// waiting for leases, JobsDone jobs completed over the pool's
	// lifetime (including failed and canceled ones).
	JobsActive int64 `json:"jobs_active"`
	JobsQueued int64 `json:"jobs_queued"`
	JobsDone   int64 `json:"jobs_done"`
}

// Stats snapshots the pool's occupancy counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	free := p.free
	p.mu.Unlock()
	return PoolStats{
		Size: p.size, Busy: p.size - free, Free: free,
		JobsActive: p.jobsActive.Load(),
		JobsQueued: p.jobsQueued.Load(),
		JobsDone:   p.jobsDone.Load(),
	}
}

// Run executes one graph on the pool, implementing the same contract
// as Backend.Run except that opts.Processors is clamped to the pool
// size (zero means the whole pool) and the call blocks until that many
// workers are free. A canceled opts.Ctx abandons the job whether it is
// still waiting for leases or already executing, returning an error
// wrapping rts.ErrCanceled either way. Run is safe to call from any
// number of goroutines; jobs acquire workers FIFO.
func (p *Pool) Run(g *delirium.Graph, b *rts.Bound, opts rts.RunOpts) (trace.Result, error) {
	if err := opts.CheckSupported("native", nativeSupported); err != nil {
		return trace.Result{}, err
	}
	want := opts.Processors
	if want <= 0 || want > p.size {
		want = p.size
	}
	opts.Processors = want
	e, err := newEngine(g, b.Binder(), opts, want)
	if err != nil {
		return trace.Result{}, err
	}
	if err := p.acquire(opts.Ctx, want); err != nil {
		return trace.Result{}, err
	}
	e.workers = p.takeWorkers(want)
	p.jobsActive.Add(1)
	res, rerr := e.execute(opts, func(run func()) { p.tasks <- run })
	p.jobsActive.Add(-1)
	p.jobsDone.Add(1)
	p.putWorkers(e.workers)
	p.release(want)
	return res, rerr
}

// acquire leases n worker goroutines, blocking FIFO behind earlier
// acquirers until they are free. It fails fast on a closed pool and
// aborts (with an error wrapping rts.ErrCanceled) when ctx fires while
// waiting.
func (p *Pool) acquire(ctx context.Context, n int) error {
	if ctx != nil && ctx.Done() != nil {
		// cond.Wait cannot select on a channel; the AfterFunc turns the
		// context firing into a broadcast the wait loop re-checks.
		stop := context.AfterFunc(ctx, func() {
			p.mu.Lock()
			p.cond.Broadcast()
			p.mu.Unlock()
		})
		defer stop()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ticket := p.next
	p.next++
	p.jobsQueued.Add(1)
	defer p.jobsQueued.Add(-1)
	for {
		for p.abandoned[p.serving] {
			delete(p.abandoned, p.serving)
			p.serving++
		}
		if p.closed {
			p.giveUp(ticket)
			return fmt.Errorf("native: pool is closed")
		}
		if ctx != nil && ctx.Err() != nil {
			p.giveUp(ticket)
			return rts.CancelError("native", ctx)
		}
		if p.serving == ticket && p.free >= n {
			p.free -= n
			p.serving++
			// Later tickets may be admissible now (or were only waiting
			// for their turn).
			p.cond.Broadcast()
			return nil
		}
		p.cond.Wait()
	}
}

// giveUp retires a ticket without taking leases. Callers hold p.mu.
func (p *Pool) giveUp(ticket uint64) {
	if p.serving == ticket {
		p.serving++
	} else {
		p.abandoned[ticket] = true
	}
	p.cond.Broadcast()
}

// release returns n leases and wakes waiting acquirers.
func (p *Pool) release(n int) {
	p.mu.Lock()
	p.free += n
	p.cond.Broadcast()
	p.mu.Unlock()
}

// takeWorkers prepares n per-job worker states, recycling arena
// entries from previous epochs when available.
func (p *Pool) takeWorkers(n int) []*worker {
	ws := make([]*worker, n)
	p.mu.Lock()
	reuse := len(p.arena)
	if reuse > n {
		reuse = n
	}
	for i := 0; i < reuse; i++ {
		ws[i] = p.arena[len(p.arena)-1]
		p.arena = p.arena[:len(p.arena)-1]
	}
	p.mu.Unlock()
	for i := range ws {
		if ws[i] != nil {
			ws[i].reset(i)
		} else {
			ws[i] = newWorker(i)
		}
	}
	return ws
}

// putWorkers returns a job's worker states to the arena. Safe only
// after the job's engine has fully joined (no goroutine can still
// reach them).
func (p *Pool) putWorkers(ws []*worker) {
	p.mu.Lock()
	p.arena = append(p.arena, ws...)
	p.mu.Unlock()
}

// Close waits for running jobs to finish, fails all waiting acquirers,
// and stops the persistent goroutines. The pool cannot be reused.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	for p.free != p.size {
		p.cond.Wait()
	}
	p.mu.Unlock()
	close(p.tasks)
	p.wg.Wait()
}

// PooledBackend adapts a Pool to the rts.Backend interface, so code
// written against Backend (the serve daemon, experiments, tests) can
// run on a shared warm pool unchanged.
type PooledBackend struct{ Pool *Pool }

// Name implements rts.Backend.
func (PooledBackend) Name() string { return "native" }

// Run implements rts.Backend via Pool.Run.
func (b PooledBackend) Run(g *delirium.Graph, bound *rts.Bound, opts rts.RunOpts) (trace.Result, error) {
	return b.Pool.Run(g, bound, opts)
}
