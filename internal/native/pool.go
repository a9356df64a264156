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
// Leases are granted FIFO, so a job needing many workers is never
// starved by a stream of small jobs arriving behind it. A lease
// shrinks toward the waiter at the head of the queue: when it is short
// of free workers and running jobs hold enough workers beyond their
// first to make up the difference, that many of them leave their jobs
// at their next scheduling point (the engine's depart) and their
// goroutines go straight to the waiter. A worker leaves only when its
// departure lets the head start, and a job's last worker never leaves;
// a job alone keeps every worker it was granted. This is the paper's
// second balancing step, a processor out of work taken up by another
// computation, on top of the first, the allocator that sets each job's
// initial grant.
type Pool struct {
	size  int
	tasks chan func()
	wg    sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	// free counts unleased worker goroutines; queue holds the waiting
	// acquirers, oldest first, and running the jobs holding leases.
	free    int
	queue   []*waiter
	running []*lease
	closed  bool
	// yields counts workers handed from a running job to a waiter.
	yields int64
	// arena recycles per-job worker states across epochs.
	arena []*worker

	jobsActive atomic.Int64
	jobsDone   atomic.Int64
	jobsQueued atomic.Int64
}

// waiter is one acquirer in the lease queue, wanting n workers.
type waiter struct{ n int }

// lease is one running job's hold on the pool: held workers not yet
// returned, asked of them the departures requested and neither taken
// nor withdrawn. Guarded by the pool's mu.
type lease struct {
	e     *engine
	held  int
	asked int
}

// NewPool starts a pool of n persistent worker goroutines (GOMAXPROCS
// when n <= 0). The caller must Close it to stop them.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{size: n, free: n, tasks: make(chan func())}
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
	// Yields counts workers a running job handed to a waiting one over
	// the pool's lifetime.
	Yields int64 `json:"yields"`
}

// Stats snapshots the pool's occupancy counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	free, yields := p.free, p.yields
	p.mu.Unlock()
	return PoolStats{
		Size: p.size, Busy: p.size - free, Free: free,
		JobsActive: p.jobsActive.Load(),
		JobsQueued: p.jobsQueued.Load(),
		JobsDone:   p.jobsDone.Load(),
		Yields:     yields,
	}
}

// Run executes one graph on the pool, implementing the same contract
// as Backend.Run except that opts.Processors is clamped to the pool
// size (zero means the whole pool), the call blocks until that many
// workers are free, and the job may hand workers beyond its first to a
// later job while it runs. A canceled opts.Ctx abandons the job whether
// it is still waiting for leases or already executing, returning an
// error wrapping rts.ErrCanceled either way. Run is safe to call from
// any number of goroutines; jobs acquire workers FIFO.
func (p *Pool) Run(g *delirium.Graph, b *rts.Bound, opts rts.RunOpts) (trace.Result, error) {
	want := opts.Processors
	if want <= 0 || want > p.size {
		want = p.size
	}
	opts.Processors = want
	e, err := newEngine(g, b.Binder(), opts, want)
	if err != nil {
		return trace.Result{}, err
	}
	l, err := p.acquire(opts.Ctx, e, want)
	if err != nil {
		return trace.Result{}, err
	}
	p.jobsActive.Add(1)
	res, rerr := e.execute(opts, func(run func()) { p.tasks <- run })
	p.jobsActive.Add(-1)
	p.jobsDone.Add(1)
	p.finish(l)
	return res, rerr
}

// acquire leases n worker goroutines to e, blocking FIFO behind earlier
// acquirers until they are free; at the head of the queue it asks
// running jobs for their surplus (reclaim). It attaches e's worker
// states and registers the lease. It fails fast on a closed pool and
// aborts (with an error wrapping rts.ErrCanceled) when ctx fires while
// waiting.
func (p *Pool) acquire(ctx context.Context, e *engine, n int) (*lease, error) {
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
	w := &waiter{n: n}
	p.queue = append(p.queue, w)
	p.jobsQueued.Add(1)
	defer p.jobsQueued.Add(-1)
	for {
		if p.closed {
			p.dequeue(w)
			return nil, fmt.Errorf("native: pool is closed")
		}
		if ctx != nil && ctx.Err() != nil {
			p.dequeue(w)
			return nil, rts.CancelError("native", ctx)
		}
		if p.queue[0] == w {
			if p.free >= n {
				p.free -= n
				e.workers = p.takeWorkers(n)
				l := &lease{e: e, held: n}
				e.handBack = func() { p.handBack(l) }
				p.running = append(p.running, l)
				// The next waiter is the head now: it may be admissible,
				// or have surplus to ask for.
				p.dequeue(w)
				return l, nil
			}
			p.reclaim()
		}
		p.cond.Wait()
	}
}

// dequeue takes w out of the lease queue, matches the asks to the new
// head and wakes the waiters. Callers hold p.mu.
func (p *Pool) dequeue(w *waiter) {
	for i, q := range p.queue {
		if q == w {
			p.queue = append(p.queue[:i], p.queue[i+1:]...)
			break
		}
	}
	p.reclaim()
	p.cond.Broadcast()
}

// reclaim matches the departures asked of running jobs to what the
// head of the lease queue is short of. It asks for more only when the
// running jobs' live workers beyond their first cover the whole
// shortfall — most from the job with the most to spare, the oldest on
// a tie — so a worker that leaves always lets the head start; it
// withdraws asks no longer needed, or no longer enough, that no worker
// has taken yet. Callers hold p.mu.
func (p *Pool) reclaim() {
	short := 0
	if len(p.queue) > 0 {
		short = p.queue[0].n - p.free
	}
	asked, spare := 0, 0
	for _, l := range p.running {
		asked += l.asked
		spare += l.spare()
	}
	need := short - asked
	if need > 0 && spare >= need {
		for ; need > 0; need-- {
			best := p.running[0]
			for _, l := range p.running[1:] {
				if l.spare() > best.spare() {
					best = l
				}
			}
			best.asked++
			best.e.yield.Add(1)
			// A parked worker is woken to leave; a busy one leaves after
			// its chunk.
			best.e.signal(1)
		}
		return
	}
	drop := asked // the asks cannot make up the shortfall
	if need <= 0 {
		drop = -need
	}
	for _, l := range p.running {
		for ; drop > 0 && l.asked > 0; drop-- {
			y := l.e.yield.Load()
			if y <= 0 || !l.e.yield.CompareAndSwap(y, y-1) {
				break // taken: that worker is on its way
			}
			l.asked--
		}
	}
}

// spare is how many of the lease's live workers beyond its first are
// not yet asked for. A job under a fault plan has none: the plan names
// job-local workers and fault.Plan.Validate keeps one of them free of
// crashes, which a departure could take away. Callers hold p.mu.
func (l *lease) spare() int {
	if l.e.fx != nil {
		return 0
	}
	return max(int(l.e.live.Load())-1-l.asked, 0)
}

// handBack returns the lease of one worker that left l's job, whose
// goroutine is on its way back to the pool, and wakes the waiters.
func (p *Pool) handBack(l *lease) {
	p.mu.Lock()
	l.held--
	l.asked--
	p.free++
	p.yields++
	p.cond.Broadcast()
	p.mu.Unlock()
}

// finish ends l's job: its remaining leases and its worker states go
// back to the pool. Safe only after the job's engine has fully joined
// (no goroutine can still reach the workers).
func (p *Pool) finish(l *lease) {
	p.mu.Lock()
	for i, r := range p.running {
		if r == l {
			p.running = append(p.running[:i], p.running[i+1:]...)
			break
		}
	}
	p.free += l.held
	p.arena = append(p.arena, l.e.workers...)
	p.reclaim()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// takeWorkers prepares n per-job worker states, recycling arena
// entries from previous epochs when available. Callers hold p.mu.
func (p *Pool) takeWorkers(n int) []*worker {
	ws := make([]*worker, n)
	for i := range ws {
		if k := len(p.arena); k > 0 {
			ws[i] = p.arena[k-1]
			p.arena = p.arena[:k-1]
			ws[i].reset(i)
		} else {
			ws[i] = newWorker(i)
		}
	}
	return ws
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
