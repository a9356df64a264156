// Package native executes compiled Delirium graphs on real hardware.
// Where internal/machine substitutes a discrete-event model for the
// paper's Ncube-2, this package is an actual parallel runtime: a pool
// of worker goroutines (GOMAXPROCS of them by default) runs operator
// tasks through per-worker work-stealing deques, and the orchestration
// decisions the paper makes from modelled costs are made here from
// measured ones —
//
//   - TAPER chunk sizing (internal/sched) is driven by wall-clock task
//     times sampled online into Welford (μ, σ²) accumulators, instead
//     of the simulator's per-task cost hints;
//   - execution drives the same rts.Frontier the simulator does: in
//     split mode operators enable as their dataflow predecessors
//     complete, and pipelined edges deliver producer progress to
//     consumers in granularity batches; in the barriered modes they
//     run one at a time; an operator without tasks fires, inside the
//     Frontier, once its producers are full;
//   - the trace is captured from real clocks: per-worker busy time,
//     wall-clock makespan, chunk/steal/batch counts, reported through
//     the same trace.Result the simulator fills.
//
// The hot paths are engineered to keep orchestration overhead small
// relative to task work (the paper's central requirement): one
// segment deque per worker that any worker may push and idle workers
// steal from, direct release of newly enabled tasks from the completing worker instead of
// per-operator gater goroutines, chunk-amortized clock reads, and a
// futex-style parker (atomic idle count plus per-worker wake channels)
// instead of a global condition variable.
//
// The backend consumes the same rts.Binder the simulator does: an
// operation's Time function is treated as the executable body of task
// i (its return value, the simulated cost, is ignored — the wall clock
// is authoritative here). Kernel bindings whose Time does real array
// work therefore run identically on both backends, which is what the
// sim-vs-native parity tests exploit.
package native

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/obs"
	"orchestra/internal/rts"
	"orchestra/internal/sched"
	"orchestra/internal/split"
	"orchestra/internal/stats"
	"orchestra/internal/trace"
)

// Backend runs Delirium graphs on goroutine workers. It is a stateless
// value: every per-run knob (worker count, mode, trace sink, fault
// plan, context) arrives in rts.RunOpts, so two concurrent Run
// calls on the same Backend cannot interfere. Each Run spawns its own
// worker goroutines and tears them down when the graph completes; a
// long-lived process serving many runs should execute them on a Pool
// instead, which keeps one set of workers alive across jobs (the
// pool-lifetime/job-lifetime split — see Pool).
type Backend struct{}

// Name implements rts.Backend.
func (Backend) Name() string { return "native" }

func init() {
	rts.RegisterBackend(rts.BackendInfo{Name: "native", Measured: true},
		func(cfg rts.BackendConfig) (rts.Backend, error) {
			// The worker count is a per-run knob (RunOpts.Processors);
			// cfg.Processors has nothing to size on a stateless backend.
			return Backend{}, nil
		})
}

// Run implements rts.Backend: it runs the graph on opts.Processors
// worker goroutines (GOMAXPROCS when zero) under opts.Mode. The modes
// are the simulator's, with readiness from the same rts.Frontier:
// ModeStatic runs one operator at a time on every worker, in
// topological order with a barrier after each, as a fixed block
// decomposition with no stealing; ModeTaper does the same with
// measured-time TAPER chunking and work stealing; and ModeSplit is
// dataflow, running independent operators at once and overlapping
// pipelined producer/consumer pairs. A non-nil opts.Sink receives the
// run's event trace, timestamped from the wall clock. A non-nil
// opts.Ctx cancels the run cooperatively at chunk boundaries.
func (Backend) Run(g *delirium.Graph, b *rts.Bound, opts rts.RunOpts) (trace.Result, error) {
	e, err := newEngine(g, b.Binder(), opts, defaultProcs(opts.Processors))
	if err != nil {
		return trace.Result{}, err
	}
	ws := make([]*worker, e.p)
	for i := range ws {
		ws[i] = newWorker(i)
	}
	e.workers = ws
	// Transient pool-of-one-job: each worker closure runs on a fresh
	// goroutine that exits when the job does.
	return e.execute(opts, func(run func()) { go run() })
}

// defaultProcs resolves a worker-count request against the backend
// default (GOMAXPROCS).
func defaultProcs(req int) int {
	if req > 0 {
		return req
	}
	return runtime.GOMAXPROCS(0)
}

// The engine's size bound on a graph, handed to the Frontier as
// rts.Limits: it refuses a submitted graph, or a mid-run expansion,
// beyond them whole.
const (
	// maxOps bounds the number of operators a graph may have.
	maxOps = 1 << 16
	// MaxTasks bounds the task count of one operator, exclusive: the
	// largest accepted operator has MaxTasks-1 tasks.
	MaxTasks = 1 << 24
)

// newEngine validates the graph and options and builds the per-job
// scheduler state for p workers: the dataflow Frontier, operator states
// parallel to its table, chain ledgers, fault-injection state, and the
// trace recorder. It does not create workers or start execution —
// callers attach a worker set (freshly allocated by Backend.Run, leased
// from an arena by Pool.Run) and then call execute.
func newEngine(g *delirium.Graph, bind rts.Binder, opts rts.RunOpts, p int) (*engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if p < 1 {
		p = 1
	}
	var fx *fault.Exec
	if opts.Fault != nil {
		if err := opts.Fault.Validate(p); err != nil {
			return nil, err
		}
		// Message faults (delay/loss) have no native equivalent — the
		// backend exchanges no modelled messages — so only worker
		// actions take effect here.
		fx = fault.NewExec(opts.Fault, p)
	}
	e := &engine{p: p, fx: fx, graphName: g.Name, mode: opts.Mode}
	e.live.Store(int32(p))
	// ModeStatic runs fixed blocks, the other modes steal and size
	// chunks by TAPER; only ModeSplit pipelines.
	e.steal, e.pipelined = opts.Mode != rts.ModeStatic, opts.Mode == rts.ModeSplit
	e.finished = make(chan struct{})
	if opts.Sink != nil {
		e.rec = obs.NewRecorder("native", "s", nil, p)
	}

	// Pipelined edges get a delivery granularity; in the barriered modes
	// the Frontier runs the operators one at a time. Its limits
	// keep the table addOps mirrors inside the engine's size bound.
	f, err := rts.NewFrontier(g, bind, e.pipelined, func(prod rts.OpSpec) int { return batchSize(prod.Op.N, p) },
		rts.Limits{Ops: maxOps, Tasks: MaxTasks - 1})
	if err != nil {
		return nil, err
	}
	e.f = f
	e.addOps(0)
	if e.pipelined && opts.Chain == rts.ChainAuto {
		// Cache chaining rides on split mode.
		e.setupChains(g)
	}
	return e, nil
}

// addOps builds the operator states of the Frontier's operators
// [first, Len) and publishes the grown table; indices are append-only,
// so any index a worker holds stays valid in every later snapshot.
// Recorder indices track engine indices: both append in the same order.
// Callers hold mu once workers run.
func (e *engine) addOps(first int) {
	n := e.f.Len()
	grown := make([]*opState, first, n)
	if first > 0 {
		copy(grown, e.opsSnap())
	}
	for i := first; i < n; i++ {
		spec := e.f.Spec(i)
		o := &opState{idx: i, name: e.f.Name(i), n: spec.Op.N, body: spec.Op.Time, bodyRange: spec.Op.TimeRange,
			split: spec.Split, bytes: spec.Op.Bytes}
		o.taper = sched.Taper{UseCostFunction: true}
		o.stats = sched.NewTaskStats(maxInt(o.n, 1))
		o.unsched.Store(int64(o.n))
		grown = append(grown, o)
		e.rec.AddOp(o.name)
	}
	e.opsA.Store(&grown)
}

// newWorker builds a fresh worker in the ready state for job-local
// id i.
func newWorker(i int) *worker {
	w := &worker{}
	w.pk.init()
	w.reset(i)
	return w
}

// reset re-initializes a worker for a new job under job-local id i:
// the start of the worker's next epoch. Everything observable is
// cleared — deque, parker state and any unconsumed wake token, fault
// flags, measured busy time — while the allocations that survive
// (deque and chain-queue backing arrays, wake scratch) are the arena
// the Pool reuses across jobs. Must only be called while no
// other goroutine can reach the worker.
func (w *worker) reset(i int) {
	w.id = i
	w.rng = stats.NewRNG(uint64(i)*0x9e3779b97f4a7c15 + 0x1d)
	w.dq.reset()
	w.pk.reset()
	w.busy = 0
	w.state.Store(workerRunning)
	w.slowF = 0
	w.pr.Reset()
	w.chainQ = w.chainQ[:0]
}

// execute runs the prepared engine to completion on its attached
// workers. launch starts one worker closure; Backend.Run passes `go`,
// Pool.Run dispatches onto its persistent goroutines. It is the single
// execution path for both, so pool-hosted jobs and one-shot runs are
// behaviorally identical.
func (e *engine) execute(opts rts.RunOpts, launch func(func())) (trace.Result, error) {
	if ctx := opts.Ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return trace.Result{}, rts.CancelError("native", ctx)
		}
		if ctx.Done() != nil {
			// The monitor makes cancellation visible to the workers: the
			// canceled flag stops loop-tops, the closed channel unparks
			// sleepers. stop() keeps the callback from outliving the run.
			stop := context.AfterFunc(ctx, func() {
				e.canceled.Store(true)
				e.finishOnce.Do(func() { close(e.finished) })
			})
			defer stop()
		}
	}

	start := time.Now()
	e.start = start

	// Initial releases, still single-threaded (the worker goroutines
	// start below): sources, operators behind zero-task operators that
	// fire at once, and expandable operators with nothing to wait for,
	// which expand here.
	var pr rts.Progress
	e.f.Start(&pr)
	e.advance(nil, &pr)
	if e.f.Outstanding() == 0 {
		e.finishOnce.Do(func() { close(e.finished) })
	}

	var done <-chan struct{}
	if opts.Ctx != nil {
		done = opts.Ctx.Done()
	}
	for _, w := range e.workers {
		e.wg.Add(1)
		launch(func() { e.runWorker(w, done) })
	}
	e.wg.Wait()
	wall := time.Since(start).Seconds()

	if err := e.loadFail(); err != nil {
		return trace.Result{}, err
	}
	if left := e.f.Outstanding(); left != 0 {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return trace.Result{}, rts.CancelError("native", opts.Ctx)
		}
		return trace.Result{}, fmt.Errorf("native: execution stalled with %d tasks outstanding", left)
	}
	res := trace.Result{
		Name:       fmt.Sprintf("native-%s/%s", e.mode, e.graphName),
		Processors: e.p,
		Unit:       "s",
		Makespan:   wall,
		Busy:       make([]float64, e.p),
		Chunks:     int(e.chunks.Load()),
		Steals:     int(e.steals.Load()),
		Messages:   int(e.batches.Load()),

		ChainHits:      int(e.chainHits.Load()),
		ChainSpills:    int(e.chainSpills.Load()),
		ChainFallbacks: int(e.chainFB.Load()),
	}
	for i, w := range e.workers {
		res.Busy[i] = w.busy
		res.SeqTime += w.busy
	}
	if opts.Sink != nil {
		return res, opts.Sink.Consume(e.rec.Finish(res))
	}
	return res, nil
}

// opState is one operator's runtime state.
type opState struct {
	idx  int
	name string
	n    int
	// body executes task i; the returned simulated cost is ignored.
	body func(i int) float64
	// bodyRange, when non-nil, executes tasks [lo, hi) in one fused
	// call, saving a closure invocation per task.
	bodyRange func(lo, hi int) float64
	// split is the kernel's data-access annotation (nil = undeclared).
	split *split.Annotation
	// bytes is the kernel's per-task byte estimate, sizing chain blocks.
	bytes int64
	// chain, when non-nil, marks this operator chain-managed: its tasks
	// are issued as cache-sized blocks by producer coverage instead of
	// through the release gate.
	chain *chainState
	// chainOut caps this producer's TAPER grain at its smallest chain
	// consumer block (0 = no chain out-edges), so one chunk enables
	// about one cache-resident block.
	chainOut int

	// chains are this producer's deliveries into chain-managed
	// consumers; their ledgers are guarded by the engine's mu.
	chains []*chainEdge

	// unsched counts tasks not yet taken into any chunk.
	unsched atomic.Int64
	// statsMu guards stats and taper.
	statsMu sync.Mutex
	stats   *sched.TaskStats
	taper   sched.Taper
}

// worker is one goroutine of the pool.
type worker struct {
	id int
	// dq is the worker's one work queue: its own remainders and every
	// segment released to it, by itself or by a peer.
	dq  deque
	pk  parker
	rng *stats.RNG
	// busy accumulates measured task-execution seconds; written only
	// by the owning goroutine, read after the pool joins.
	busy float64
	// state is workerRunning until the worker itself crashes or leaves
	// its job; the deque of a worker that is gone is every remaining
	// worker's to take.
	state atomic.Int32
	// slowF is the active slowdown factor (0 or 1 = none). Owner-only.
	slowF float64
	// pr is completion-path scratch for what the Frontier reports.
	pr rts.Progress
	// chainQ holds consumer blocks this worker enabled and will run
	// depth-first while their inputs are cache-resident. Owner-only.
	chainQ []chainItem
}

// A worker's states: it runs, or it is gone — crashed (its loss
// recorded, thieves record retries) or left its job for a waiting one
// (nothing lost, nothing recorded).
const (
	workerRunning int32 = iota
	workerCrashed
	workerLeft
)

// holding reports whether segments are queued on w.
func (w *worker) holding() bool { return w.dq.size() > 0 }

// gone reports whether w has crashed or left.
func (w *worker) gone() bool { return w.state.Load() != workerRunning }

// engine is the per-execution scheduler state: everything whose
// lifetime is one job, as opposed to the workers' goroutines, whose
// lifetime is the pool's when a Pool hosts the job.
type engine struct {
	p                int
	steal, pipelined bool
	graphName        string
	mode             rts.Mode
	workers          []*worker

	// mu serialises the Frontier — every readiness decision of the run
	// — and the chain ledgers that ride on the same completions. One
	// uncontended lock per chunk completion is far below a chunk's cost
	// and replaces per-operator locks, CAS claims and their ordering
	// arguments.
	mu sync.Mutex
	f  *rts.Frontier
	// opsA publishes the driver's operator table, parallel to the
	// Frontier's. Runtime expansion appends sub-operators mid-run, so
	// workers read a consistent snapshot through op/opsSnap while addOps
	// swaps in a grown copy under mu.
	opsA atomic.Pointer[[]*opState]

	// failMu guards failErr, the first mid-run failure (expansion
	// errors: depth bound, size limits, bad sub-graphs). fail()
	// stops the workers; execute returns failErr instead of a result.
	failMu  sync.Mutex
	failErr error

	// canceled is set by the context monitor; workers observe it at
	// their loop-top and abandon queued work.
	canceled atomic.Bool

	// idle counts workers that have published themselves as parked;
	// releasers skip the wake scan entirely while it is zero.
	idle atomic.Int32

	// queued approximates the number of segments across all deques;
	// workers park when it reaches zero.
	queued     atomic.Int64
	finished   chan struct{}
	finishOnce sync.Once

	rr      atomic.Int64
	chunks  atomic.Int64
	steals  atomic.Int64
	batches atomic.Int64

	// Cache-chain counters: blocks run in place, blocks spilled to the
	// deques at the depth limit, blocks a crashing or departing worker
	// left on its deque.
	chainHits   atomic.Int64
	chainSpills atomic.Int64
	chainFB     atomic.Int64

	// rec, when non-nil, receives the run's event trace; start is the
	// wall-clock origin its timestamps are relative to. Workers emit
	// into per-worker rings, so recording needs no extra locking.
	rec   *obs.Recorder
	start time.Time

	// Fault injection (nil fx = disabled, one branch on the hot paths).
	// live counts the workers not gone.
	fx   *fault.Exec
	live atomic.Int32

	// yield counts the workers a Pool has asked this job to hand to a
	// waiting job and none has yet agreed to; handBack returns a
	// departed worker's lease. A one-shot run is never asked.
	yield    atomic.Int32
	handBack func()

	wg sync.WaitGroup
}

// batchSize picks the pipelined delivery granularity: a handful of
// batches per worker, so consumers ramp up early without paying a
// release per task. (The simulator derives its granularity from
// modelled message costs — rts.ChoosePairGranularity; natively a
// release costs nanoseconds, so only the pipeline-fill consideration
// survives.)
func batchSize(n, p int) int {
	b := n / (8 * p)
	if b < 1 {
		b = 1
	}
	return b
}

// opsSnap returns the current operator table. The snapshot is
// immutable: expansion publishes a grown copy, never mutates a
// published slice.
func (e *engine) opsSnap() []*opState { return *e.opsA.Load() }

// op returns operator i from the current snapshot.
func (e *engine) op(i int) *opState { return (*e.opsA.Load())[i] }

// fail aborts the run: the first failure wins, the workers stop at
// their next loop-top, and execute returns the error instead of a
// result.
func (e *engine) fail(err error) {
	e.failMu.Lock()
	if e.failErr == nil {
		e.failErr = err
	}
	e.failMu.Unlock()
	e.canceled.Store(true)
	e.finishOnce.Do(func() { close(e.finished) })
}

// loadFail returns the recorded mid-run failure, if any.
func (e *engine) loadFail() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	return e.failErr
}

func (e *engine) isFinished() bool {
	select {
	case <-e.finished:
		return true
	default:
		return false
	}
}

// advance acts on what the Frontier reported: enabled ranges go to the
// deques (stealing therefore crosses nesting levels), due expansions
// run and splice, which reports more of both. Ranges of chain-managed
// consumers are dropped — the chain ledger issues those tasks. w is the
// acting worker, or nil during single-threaded setup.
func (e *engine) advance(w *worker, pr *rts.Progress) {
	for i, j := 0, 0; i < len(pr.Enabled) || j < len(pr.Expand); j++ {
		for ; i < len(pr.Enabled); i++ {
			if r := pr.Enabled[i]; e.op(r.Op).chain == nil {
				e.batches.Add(1)
				e.release(w, r.Op, r.Lo, r.Hi)
			}
		}
		if j < len(pr.Expand) {
			e.expand(pr.Expand[j], pr)
		}
	}
}

// expand materializes one expandable operator's sub-graph: the user's
// rule runs outside the lock (it may read what the predecessors
// produced, for as long as it likes), the splice and the grown operator
// table are published together under it. A
// failure — depth bound, size limits, a bad sub-graph — fails the
// run.
func (e *engine) expand(x rts.Expandable, pr *rts.Progress) {
	exp, err := x.Expand()
	if err == nil {
		e.mu.Lock()
		var first int
		if first, err = e.f.Splice(x.Op, exp, pr); err == nil {
			e.addOps(first)
		}
		e.mu.Unlock()
	}
	if err != nil {
		e.fail(err)
	}
}

// release hands tasks [lo, hi) of op to the workers: a large range is
// block-split across all of them (the owner-computes decomposition —
// the j-th worker owns block j), while a small pipelined delta stays
// with the releasing worker (cache-warm) when stealing can spread it,
// else goes to the next worker round-robin. w is the releasing worker,
// or nil during single-threaded setup. A block that lands on a worker
// that is gone is taken by a remaining one like any other (findWork),
// so placement ignores who is gone.
func (e *engine) release(w *worker, op, lo, hi int) {
	n := hi - lo
	if n <= 0 {
		return
	}
	m := e.p
	if n >= 2*m && m > 1 {
		for j, t := range e.workers {
			if a, b := sched.BlockBounds(j, n, m); b > a {
				e.place(t, segment{op: op, lo: lo + a, hi: lo + b})
			}
		}
		if e.steal {
			e.signal(m)
		} else {
			for _, t := range e.workers {
				e.wake(t)
			}
		}
		return
	}
	s := segment{op: op, lo: lo, hi: hi}
	if w != nil && e.steal {
		e.place(w, s)
		e.signal(1)
		return
	}
	t := e.workers[int(e.rr.Add(1)-1)%m]
	e.place(t, s)
	e.wake(t)
}

// place queues a released segment on worker t's deque.
func (e *engine) place(t *worker, s segment) {
	t.dq.push(s)
	e.queued.Add(1)
}

// wake unparks t after a segment was queued for it. An addressee that
// is gone never will take it, so a remaining worker is woken in its
// place. A worker that goes after this check wakes the others itself
// (shed).
func (e *engine) wake(t *worker) {
	if t.gone() {
		e.signal(1)
		return
	}
	t.pk.unpark()
}

// signal wakes up to n parked workers after work became visible. The
// idle count makes the common no-one-parked case a single atomic load.
func (e *engine) signal(n int) {
	if e.idle.Load() == 0 {
		return
	}
	for i := 0; i < e.p && n > 0; i++ {
		if e.workers[i].pk.unpark() {
			n--
		}
	}
}

// reachableWork reports whether work this worker could run may exist.
// The invariant it keeps with findWork: whenever it reports true for a
// segment that stays put, findWork can take that segment — otherwise an
// idle worker spins on work it is not allowed to take instead of
// parking. With stealing enabled every queued segment, in any deque, is
// reachable; without it the worker's own deque counts, and those of
// workers that are gone (robbable) once one is.
func (e *engine) reachableWork(w *worker) bool {
	if e.steal {
		return e.queued.Load() > 0
	}
	if w.holding() {
		return true
	}
	if e.lost() {
		for _, v := range e.workers {
			if v.gone() && v.holding() {
				return true
			}
		}
	}
	return false
}

// idleWait spins briefly and then parks until work this worker could
// run may be available, the pool asks the job for a worker, or the run
// finishes; it reports whether the worker should exit. The park
// protocol publishes the parked state before the final re-check, so a
// release or an ask that lands in the gap is never lost (see parker).
func (e *engine) idleWait(w *worker) bool {
	for i := 0; i < parkSpins; i++ {
		if e.isFinished() {
			return true
		}
		if e.reachableWork(w) || e.asked() {
			return false
		}
		spinWait(i)
	}
	w.pk.prepare()
	e.idle.Add(1)
	if e.reachableWork(w) || e.asked() || e.isFinished() {
		if !w.pk.cancel() {
			// A releaser claimed us between prepare and cancel; its
			// token is in flight and must be absorbed.
			w.pk.consume()
		}
		e.idle.Add(-1)
		return e.isFinished()
	}
	w.pk.block(e.finished)
	e.idle.Add(-1)
	return e.isFinished()
}

// robbable reports whether a peer may take the segments queued on v:
// any worker's when stealing is on, else only a gone worker's, whose
// owner never will.
func (e *engine) robbable(v *worker) bool { return e.steal || v.gone() }

// asked reports whether the pool wants a worker of this job for a
// waiting one and the job has one to spare: the only check a run pays
// at a scheduling point for leases that shrink.
func (e *engine) asked() bool { return e.yield.Load() > 0 && e.live.Load() > 1 }

// lost reports whether a worker of the run has crashed or left. A
// worker that goes marks itself gone and only then wakes the others
// (shed), so an idle worker that checked between the count and the
// mark is woken to check again.
func (e *engine) lost() bool { return e.live.Load() < int32(e.p) }

// took records that w took s from peer v: a steal, and a retry when v
// crashed — the loss rule's re-issue, recorded by the thief on its own
// ring as the simulator records it. Work a worker left behind when it
// went to another job is not a retry: nothing was lost.
func (e *engine) took(w, v *worker, s segment) {
	e.steals.Add(1)
	if e.rec != nil {
		t := time.Since(e.start).Seconds()
		e.rec.Steal(w.id, v.id, s.op, s.lo, s.len(), t)
		if v.state.Load() == workerCrashed {
			e.rec.Retry(w.id, v.id, s.op, s.lo, s.len(), t)
		}
	}
}

// stealFrom scans the other robbable workers' deques from a random
// start and takes the first stealable segment.
func (e *engine) stealFrom(w *worker) (segment, bool) {
	if e.p == 1 {
		return segment{}, false
	}
	start := w.rng.Intn(e.p)
	for t := 0; t < e.p; t++ {
		v := e.workers[(start+t)%e.p]
		if v == w || !e.robbable(v) {
			continue
		}
		if s, ok := v.dq.steal(); ok {
			e.took(w, v, s)
			return s, true
		}
	}
	return segment{}, false
}

// findWork is the worker's acquisition order: pop local work, else
// steal from a robbable peer's deque. stolen reports whether the
// segment came from a peer. Without stealing only a worker that is
// gone makes a peer robbable.
func (e *engine) findWork(w *worker) (seg segment, ok, stolen bool) {
	if s, ok := w.dq.pop(); ok {
		return s, true, false
	}
	if e.steal || e.lost() {
		if s, ok := e.stealFrom(w); ok {
			return s, true, true
		}
	}
	return segment{}, false, false
}

// runWorker is the worker loop: pop local work, else steal, else park.
// done is the run context's Done channel (nil without a context). The
// loop-top is the worker's scheduling point: a worker the pool wants
// for a waiting job leaves there, after its last chunk (depart).
func (e *engine) runWorker(w *worker, done <-chan struct{}) {
	defer e.wg.Done()
	for {
		if w.gone() {
			// It crashed or left inside a chain drain; what it held is on
			// its deque for the others.
			return
		}
		if e.canceled.Load() {
			// Cooperative cancellation: whatever this worker still holds
			// is abandoned (the engine is discarded wholesale), but the
			// chunk that was executing has fully completed.
			return
		}
		select {
		case <-done:
			// The context fired, and the callback that raises canceled
			// may not have run yet: without this check the workers could
			// finish the run meanwhile, and a canceled Run return nil.
			return
		default:
		}
		if e.asked() && e.depart(w) {
			return
		}
		seg, ok, stolen := e.findWork(w)
		if !ok {
			if e.idleWait(w) {
				return
			}
			continue
		}
		e.queued.Add(-1)
		if e.fx != nil && !e.faultPoint(w, seg) {
			return
		}
		e.runSegment(w, seg, stolen)
	}
}

// runSegment executes one chunk off the segment's front and returns
// the remainder to the worker's deque (where thieves can see it while
// the chunk runs).
func (e *engine) runSegment(w *worker, seg segment, stolen bool) {
	o := e.op(seg.op)
	k := seg.len()
	if e.steal {
		rem := int(o.unsched.Load())
		if rem < 1 {
			rem = k
		}
		o.statsMu.Lock()
		c := o.taper.NextChunk(rem, e.liveP(), o.stats)
		c = o.taper.ScaleChunk(c, seg.lo, o.stats)
		if o.chainOut > 0 && c > o.chainOut {
			// Cache-aware producer chunking: one chunk enables about one
			// consumer block, which then runs on this worker while the
			// chunk's output is still resident.
			c = o.chainOut
		}
		if e.rec != nil {
			e.rec.Taper(w.id, seg.op, rem, c, o.stats.Global.N(),
				o.stats.Global.Mean(), o.stats.Global.StdDev(), time.Since(e.start).Seconds())
		}
		o.statsMu.Unlock()
		if c < k {
			e.place(w, segment{op: seg.op, lo: seg.lo + c, hi: seg.hi})
			e.signal(1)
			k = c
		}
	}
	e.runChunk(w, o, seg.lo, seg.lo+k, stolen, 0)
	if len(w.chainQ) > 0 {
		e.drainChain(w)
	}
}

// runChunk executes tasks [lo, hi) of o as one chunk on w — timing,
// statistics, busy time, tracing, slow-fault padding — and completes
// it at chain depth depth (0 for a chunk carved off a segment). It
// returns the chunk's start in run seconds.
//
// Clock discipline: every chunk costs two clock reads, and its
// aggregate time is folded into the statistics as k observations of
// the chunk mean via ObserveChunk — the sampling dist does per grant.
func (e *engine) runChunk(w *worker, o *opState, lo, hi int, stolen bool, depth int32) float64 {
	k := hi - lo
	o.unsched.Add(-int64(k))

	begin := time.Now()
	if o.bodyRange != nil {
		o.bodyRange(lo, hi)
	} else {
		for i := lo; i < hi; i++ {
			o.body(i)
		}
	}
	elapsed := time.Since(begin).Seconds()
	o.statsMu.Lock()
	o.stats.ObserveChunk(lo, k, elapsed)
	o.statsMu.Unlock()
	w.busy += elapsed
	var b float64
	if e.rec != nil {
		b = begin.Sub(e.start).Seconds()
		e.rec.Chunk(w.id, o.idx, lo, k, b, b+elapsed, stolen)
	}
	if e.fx != nil && w.slowF > 1 {
		// A slow fault stretches wall time only: the tasks already ran
		// normally, so results are untouched and stats stay honest.
		time.Sleep(time.Duration((w.slowF - 1) * elapsed * float64(time.Second)))
	}
	e.chunks.Add(1)
	e.complete(w, o, lo, hi, depth)
	return b
}

// complete records the chunk [lo, hi) as done in the Frontier and acts
// on what that enabled: consumer ranges and due expansions through
// advance, chain edges through block coverage — blocks the chunk fully
// enables land on this worker's chain queue at depth+1 (drained by the
// caller).
func (e *engine) complete(w *worker, o *opState, lo, hi int, depth int32) {
	pr := &w.pr
	pr.Reset()
	e.mu.Lock()
	old := e.f.Prefix(o.idx)
	e.f.Complete(o.idx, lo, hi, pr)
	pfx := e.f.Prefix(o.idx)
	for _, ce := range o.chains {
		if !ce.barrier {
			e.chainCover(w, o, ce, lo, hi, depth)
		} else if e.f.Full(o.idx) {
			e.chainBarrier(w, ce, depth)
		}
	}
	finished := e.f.Outstanding() == 0
	e.mu.Unlock()
	if e.rec != nil && pfx != old {
		e.rec.Gate(w.id, o.idx, old, pfx, time.Since(e.start).Seconds())
	}
	e.advance(w, pr)
	if finished {
		e.finishOnce.Do(func() { close(e.finished) })
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
