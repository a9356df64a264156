package rts

import (
	"context"
	"fmt"

	"orchestra/internal/delirium"
	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
)

// simFaults validates a run's fault plan against the resolved
// processor count and builds the injection state: a fault.Exec for the
// driver's scheduling points, plus a MsgPerturb hook on the machine
// config for message delay/loss. Every mode runs through the one
// driver, so every mode survives worker faults: under ModeStatic a
// survivor takes a crashed owner's block.
func simFaults(cfg *machine.Config, opts RunOpts, p int) (*fault.Exec, error) {
	plan := opts.Fault
	if plan == nil {
		return nil, nil
	}
	if err := plan.Validate(p); err != nil {
		return nil, err
	}
	fx := fault.NewExec(plan, p)
	if plan.HasMsgFaults() {
		cfg.MsgPerturb = fx.MsgCost
	}
	return fx, nil
}

// dagRun is the simulator's driver of a Frontier, in every mode: it
// owns the event clock, processor allocation, task queues, TAPER chunk
// sizing, stealing and fault injection, and reads from the Frontier how
// far each operator has been enabled. Every task body is called exactly
// once, by the chunk that holds it (execChunk).
//
// Three rules follow from the mode. ModeSplit builds the pipelined
// Frontier and places each dataflow level with AllocateMany. The
// barriered modes build the Frontier without pipelining, which enables
// one operator at a time, so each operator owns all p processors and
// its completion holds dispatch for the barrier (hold). ModeStatic
// decomposes by count blocks, each owner takes its whole block as one
// chunk, and a survivor takes only a crashed owner's block.
type dagRun struct {
	ctx context.Context
	cfg machine.Config
	p   int
	rec *obs.Recorder
	fx  *fault.Exec

	barriered, static bool
	// held is set while a barrier holds dispatch: processors park, and
	// the event ending the hold (releaseFn) wakes them.
	held bool

	sim *machine.Sim
	f   *Frontier
	ops []dagOp // parallel to the Frontier's operator table
	res trace.Result
	err error
	pr  Progress // scratch for what the Frontier reports

	// Fault state. live is the surviving processor count; chunk sizing
	// and budget shares are computed against it so scheduling adapts to
	// the machine that is actually left. Without faults it stays p.
	live  int
	slowF float64

	// idle is the processors parked with nothing to take, in parking
	// order. wake moves the whole list to the back of woken and
	// schedules one drain event for it; woken[wokenHead:] is the batches
	// whose drain has not run yet, oldest first. Both backing arrays are
	// reused for the whole run.
	idle      []int
	woken     []int
	wokenHead int
	tokenCost float64
	// Each processor has at most one chunk in flight, so its completion
	// context lives in a per-processor slot, and the event callbacks are
	// bound once: the allocation-free AfterFn scheduling path.
	pend        []pendChunk
	nextFn      func(int)
	chunkDoneFn func(int)
	drainFn     func(int)
	releaseFn   func(int)
}

// dagOp is the driver's state for one operator.
type dagOp struct {
	spec            OpSpec
	alloc, procBase int
	queues          []sched.TaskQueue
	tstats          *sched.TaskStats
	taper           sched.Taper
	unsched         int       // tasks not yet dispatched
	cost            []float64 // per task, recorded as its chunk runs
	done            []int     // per own-queue completed tasks
	spent           []float64 // per own-queue time spent on them
	// Barriered modes: the transfer time of the edges this operator
	// feeds, and how many there are; the barrier after it charges both.
	feed  float64
	feeds int
}

type pendChunk struct {
	o, k  int
	total float64
	tasks []int
}

// executeDAG is the engine behind RunGraph, for every mode. It executes
// an entire Delirium graph adaptively on p processors: every operator
// is decomposed onto the processors it owns, operators become
// executable as the Frontier enables them, and a processor with no work
// left in its own operator is re-assigned chunks from any executable
// operator. Under ModeSplit there are no barriers anywhere: operators
// become executable as their dataflow predecessors complete
// (incrementally, in batches of the chosen communication granularity,
// for pipelined edges) on the subsets the allocation algorithm assigned
// them — the orchestration the paper's title refers to, where the
// runtime "uses the additional parallelism of one sub-computation to
// compensate for communication constraints or load imbalance in the
// other". ModeStatic and ModeTaper are its fork-join special case: one
// operator at a time on the whole machine, a barrier after each.
//
// ctx, rec and fx may be nil. A canceled context makes every
// processor stop taking chunks at its next scheduling decision;
// in-flight simulated chunks drain and the run returns a CancelError
// instead of a result.
func executeDAG(ctx context.Context, cfg machine.Config, g *delirium.Graph, bind Binder, p int, mode Mode, rec *obs.Recorder, fx *fault.Exec) (trace.Result, error) {
	r, err := newDagRun(ctx, cfg, g, bind, p, mode, rec, fx)
	if err != nil {
		return trace.Result{}, err
	}
	r.sim.Run()
	return r.result()
}

// newDagRun builds a run up to its first event: the Frontier, the
// operators' placement and queues, the expansions of expandable
// sources, and every processor woken at time zero. The caller runs
// r.sim to exhaustion and reads r.result.
func newDagRun(ctx context.Context, cfg machine.Config, g *delirium.Graph, bind Binder, p int, mode Mode, rec *obs.Recorder, fx *fault.Exec) (*dagRun, error) {
	r := &dagRun{ctx: ctx, cfg: cfg, p: p, rec: rec, fx: fx,
		barriered: mode != ModeSplit, static: mode == ModeStatic,
		sim:  machine.NewSim(cfg),
		res:  trace.Result{Processors: p, Busy: make([]float64, p)},
		live: p, slowF: 1,
		idle: make([]int, 0, p), woken: make([]int, 0, p),
		tokenCost: 0.2 * cfg.MsgOverhead,
		pend:      make([]pendChunk, p),
	}
	r.nextFn, r.chunkDoneFn, r.drainFn, r.releaseFn = r.next, r.chunkDone, r.drain, r.release
	f, err := NewFrontier(g, bind, !r.barriered, cfg, p, Limits{})
	if err != nil {
		return nil, err
	}
	r.f = f
	if err := r.addOps(g, 0); err != nil {
		return nil, err
	}
	// Expandable sources (no predecessors) materialize before the
	// processors start.
	f.Start(&r.pr)
	if err := r.expand(); err != nil {
		return nil, err
	}
	for gp := 0; gp < p; gp++ {
		r.idle = append(r.idle, gp)
	}
	r.wake()
	return r, nil
}

// result is the run's outcome once the event loop has emptied.
func (r *dagRun) result() (trace.Result, error) {
	if r.err != nil {
		return trace.Result{}, r.err
	}
	if left := r.f.Outstanding(); left != 0 {
		if r.ctx != nil && r.ctx.Err() != nil {
			return trace.Result{}, CancelError("rts", r.ctx)
		}
		return trace.Result{}, fmt.Errorf("rts: DAG execution stalled with %d tasks outstanding", left)
	}
	for o := range r.ops {
		r.res.SeqTime += sched.SeqTime(r.ops[o].cost)
	}
	r.res.Makespan = r.sim.Now() + r.cfg.BroadcastTime(r.p, 8)
	return r.res, nil
}

// addOps builds the driver state of the operators the Frontier just
// appended, [base, Len) — the nodes of g2 — names them to the
// recorder, and places them on the machine. Static decomposes without
// hints, by count blocks.
func (r *dagRun) addOps(g2 *delirium.Graph, base int) error {
	for o := base; o < r.f.Len(); o++ {
		spec := r.f.Spec(o)
		if r.static {
			spec.Op.Hint = nil
		}
		r.rec.AddOp(r.f.Name(o))
		r.ops = append(r.ops, dagOp{
			spec:    spec,
			tstats:  sched.NewTaskStats(spec.Op.N),
			taper:   sched.Taper{UseCostFunction: true},
			unsched: spec.Op.N,
			cost:    make([]float64, spec.Op.N),
		})
	}
	if r.barriered {
		// The barrier after an operator moves the data of every edge it
		// feeds, spread over the machine.
		for _, e := range g2.Edges {
			if e.Carried {
				continue
			}
			bytes := e.Bytes
			if e.PerTask {
				bytes *= int64(r.f.N(r.f.Index(e.To)))
			}
			op := &r.ops[r.f.Index(e.From)]
			op.feed += float64(bytes) * r.cfg.ByteCost / float64(r.p)
			op.feeds++
		}
	}
	return r.place(g2)
}

// place allocates processors to g2's operators and decomposes their
// task queues: operators that can execute concurrently (the same
// dataflow level) divide the machine among themselves; operators in
// different levels execute at different times and therefore own
// overlapping processor ranges. Under the barriered modes the Frontier
// runs one operator at a time, so each owns all p processors. Each
// operator's data is decomposed once onto its owners (owner-computes);
// idle processors migrate at runtime.
func (r *dagRun) place(g2 *delirium.Graph) error {
	if r.barriered {
		for _, nd := range g2.Nodes {
			r.ops[r.f.Index(nd.Name)].alloc = r.p
		}
		return r.decompose(g2)
	}
	levels, err := g2.Levels()
	if err != nil {
		return err
	}
	for _, level := range levels {
		lspecs := make([]OpSpec, len(level))
		lnames := make([]string, len(level))
		idxs := make([]int, len(level))
		for i, n := range level {
			idxs[i] = r.f.Index(n.Name)
			lspecs[i] = r.ops[idxs[i]].spec
			lnames[i] = n.Name
		}
		shares := AllocateMany(r.cfg, lspecs, r.p, r.rec, lnames...)
		base := 0
		for i, o := range idxs {
			r.ops[o].alloc = shares[i]
			r.ops[o].procBase = base
			base += shares[i]
		}
	}
	return r.decompose(g2)
}

// decompose builds the task queues of g2's placed operators.
func (r *dagRun) decompose(g2 *delirium.Graph) error {
	for _, nd := range g2.Nodes {
		// The allocator can hand an operator a zero share when a level
		// has more operators than processors; its tasks must still live
		// in a queue (unowned, reached through the steal path) or they
		// would be undispatchable and the run would stall.
		op := &r.ops[r.f.Index(nd.Name)]
		qn := op.alloc
		if qn < 1 {
			qn = 1
		}
		op.queues = sched.Decompose(op.spec.Op, qn)
		op.done = make([]int, len(op.queues))
		op.spent = make([]float64, len(op.queues))
	}
	return nil
}

// expand materializes every operator the Frontier reported due, and
// those their splices report in turn: an expansion may itself introduce
// expandable sources that are immediately due (recursion — bounded by
// MaxExpandDepth). A failure lands in r.err, which it returns, and
// aborts the run. The enabled ranges are dropped: the driver dispatches
// against Enabled.
func (r *dagRun) expand() error {
	for i := 0; i < len(r.pr.Expand) && r.err == nil; i++ {
		r.err = r.expandOne(r.pr.Expand[i])
	}
	r.pr.Reset()
	return r.err
}

// expandOne runs x's rule, splices the result and builds the driver
// state of the operators that appended.
func (r *dagRun) expandOne(x Expandable) error {
	exp, err := x.Expand()
	if err != nil {
		return err
	}
	first, err := r.f.Splice(x.Op, exp, &r.pr)
	if err != nil || exp == nil {
		return err
	}
	return r.addOps(exp.Graph, first)
}

// ownQueue reports the queue index processor gp owns in op o, or -1.
func (r *dagRun) ownQueue(gp, o int) int {
	j := gp - r.ops[o].procBase
	if j >= 0 && j < r.ops[o].alloc {
		return j
	}
	return -1
}

// open is how many more tasks of op o may be dispatched right now.
func (r *dagRun) open(o int) int {
	return r.f.Enabled(o) - (r.ops[o].spec.Op.N - r.ops[o].unsched)
}

// chunkBudget is the fair per-dispatch time share of an operator's
// remaining work: the hint sum of its unscheduled tasks (exact in
// steady state) divided by the machine size. It is an O(queues) sum, so
// callers take it only when sched.NeedsBudget says the chunk can use
// it. Early task samples are biased toward the expensive queue fronts,
// so the observed mean is only a fallback.
func (r *dagRun) chunkBudget(op *dagOp) float64 {
	rate := op.spec.Mu
	if m := op.tstats.Global.Mean(); rate <= 0 && m > 0 {
		rate = m
	}
	sum := 0.0
	for v := range op.queues {
		sum += op.queues[v].EstRemaining(rate)
	}
	return sum / float64(r.live)
}

// wake hands every idle processor to one drain event at the current
// time: something changed (a chunk completed, a processor died) that
// may have given them work.
func (r *dagRun) wake() {
	if n := len(r.idle); n > 0 {
		r.woken = append(r.woken, r.idle...)
		r.idle = r.idle[:0]
		r.sim.AfterFn(0, r.drainFn, n)
	}
}

// drain takes the scheduling decisions of the oldest woken batch, n
// processors in the order they parked. It stands for n events, one
// next(gp) each, scheduled back to back by wake: those would carry
// consecutive seq at one time, Sim orders events by (time, seq), and
// whatever runs meanwhile schedules behind the last of them, so nothing
// could interleave with the batch and one event looping over it is the
// same execution. A completion therefore costs at most one more event,
// where a wake per idle processor cost one per idle processor.
//
// A processor that finds nothing re-parks itself in schedule, as
// before. Every way schedule can dispatch needs an operator with
// unscheduled tasks and an open gate; once there is none, a visit could
// only append the processor to idle (no recorder call, no other state)
// and no later visit in the batch can change that, so the rest of the
// batch is parked in order, unvisited.
//
// Not so under a fault plan: fault.Exec.Begin counts every scheduling
// point, futile re-scans included, and crash/stall/slow triggers hang
// off that count — on the simulator "crash:W@K" is W's K-th scheduling
// decision, not its K-th chunk. With fx set every woken processor is
// visited. A crash inside the batch calls wake itself; that batch
// queues behind this one, as its events would have.
//
// Once the run has stopped nobody is re-parked, so the event loop
// empties after the chunks in flight.
func (r *dagRun) drain(n int) {
	batch := r.woken[r.wokenHead : r.wokenHead+n]
	for i, gp := range batch {
		if r.stopped() {
			break
		}
		if r.fx == nil && !r.dispatchable() {
			r.idle = append(r.idle, batch[i:]...)
			break
		}
		r.schedule(gp)
	}
	if r.wokenHead += n; r.wokenHead == len(r.woken) {
		r.woken, r.wokenHead = r.woken[:0], 0
	}
}

// dispatchable reports whether any operator has a task a processor
// could take now: the condition every successful path of schedule
// requires.
func (r *dagRun) dispatchable() bool {
	if r.held {
		return false
	}
	for o := range r.ops {
		if r.ops[o].unsched > 0 && r.open(o) > 0 {
			return true
		}
	}
	return false
}

func (r *dagRun) chunkDone(gp int) {
	pc := r.pend[gp]
	oldPfx := r.f.Prefix(pc.o)
	// Hinted queues are expensive-first, so a chunk's tasks need not be
	// contiguous: complete them run by run.
	for i := 0; i < len(pc.tasks); {
		j := i + 1
		for j < len(pc.tasks) && pc.tasks[j] == pc.tasks[j-1]+1 {
			j++
		}
		r.f.Complete(pc.o, pc.tasks[i], pc.tasks[j-1]+1, &r.pr)
		i = j
	}
	if pfx := r.f.Prefix(pc.o); r.rec != nil && pfx != oldPfx {
		r.rec.Gate(gp, pc.o, oldPfx, pfx, r.sim.Now())
	}
	if j := r.ownQueue(gp, pc.o); j >= 0 {
		r.ops[pc.o].done[j] += pc.k
		r.ops[pc.o].spent[j] += pc.total
	}
	// A full operator may make expansions due, and progress may have
	// opened successors' gates.
	r.expand()
	if r.barriered && r.f.Full(pc.o) && r.f.Outstanding() > 0 {
		r.hold(pc.o)
		r.idle = append(r.idle, gp)
		return
	}
	r.wake()
	r.next(gp)
}

// hold is the barrier after operator o under the barriered modes:
// dispatch waits for the completion broadcast and for the data of the
// edges o feeds, spread over the machine, each edge a message per
// processor. The last operator's barrier is the run's own, which
// result charges in every mode.
func (r *dagRun) hold(o int) {
	op := &r.ops[o]
	r.held = true
	r.res.Messages += op.feeds * r.p
	r.sim.AfterFn(r.cfg.BroadcastTime(r.p, 8)+op.feed, r.releaseFn, 0)
}

// release ends a barrier's hold and wakes the parked processors.
func (r *dagRun) release(int) {
	r.held = false
	r.wake()
}

func (r *dagRun) execChunk(gp, o int, tasks []int, transferCost float64, stolen bool) {
	op := &r.ops[o]
	total := transferCost
	for _, i := range tasks {
		// A slow fault scales only the observed cost, never the
		// computed values.
		op.cost[i] = op.spec.Op.Time(i)
		t := op.cost[i] * r.slowF
		op.tstats.Observe(i, t)
		total += t
	}
	total += r.cfg.SchedOverhead + r.tokenCost
	r.res.Messages++
	r.res.Busy[gp] += total
	r.res.Chunks++
	k := len(tasks)
	op.unsched -= k
	now := r.sim.Now()
	if r.rec != nil {
		r.rec.Chunk(gp, o, tasks[0], k, now, now+total, stolen)
	}
	r.pend[gp] = pendChunk{o: o, k: k, total: total, tasks: tasks}
	r.sim.AfterFn(total, r.chunkDoneFn, gp)
}

// taperChunk asks op's TAPER policy for the next chunk size, at the
// machine's SchedOverhead per chunk, and traces the decision. lo is the
// chunk's first task, -1 on the steal path, which does not know it yet.
// Chunk sizes are computed against the whole surviving machine: any
// processor may execute any executable operator, so the effective
// worker pool of a hot operator is p, not its allocation.
func (r *dagRun) taperChunk(gp, o, lo int) int {
	op := &r.ops[o]
	k := op.taper.NextChunk(op.unsched, r.live, lo, r.cfg.SchedOverhead, op.tstats)
	if r.rec != nil {
		r.rec.Taper(gp, o, op.unsched, k, int(op.tstats.Global.N()),
			op.tstats.Global.Mean(), op.tstats.Global.StdDev(), r.sim.Now())
	}
	return k
}

// tryDispatch attempts to hand processor gp a chunk of op o, stealing
// from the most loaded owner when gp's own queue (if it belongs to o)
// is empty. Chunks respect the op's gate as a task-index prefix: a
// queue only contributes tasks whose indices the gate has enabled,
// never an equivalent count of later tasks.
func (r *dagRun) tryDispatch(gp, o int) bool {
	op := &r.ops[o]
	limit := r.f.Enabled(o)
	open := limit - (op.spec.Op.N - op.unsched)
	if open <= 0 || op.unsched <= 0 {
		return false
	}
	if j := r.ownQueue(gp, o); j >= 0 {
		q := &op.queues[j]
		if en := q.EnabledPrefix(limit); en > 0 {
			if r.static {
				// A static owner takes its whole enabled block at once.
				r.execChunk(gp, o, q.Take(en, nil), 0, false)
				return true
			}
			k := min(r.taperChunk(gp, o, q.NextTask()), open, en)
			// The chunk is budgeted in time, not tasks — the
			// per-task-grained form of the paper's s = μg/μc chunk
			// scaling — so a chunk never collects several expensive
			// tasks whose combined time exceeds a fair share.
			budget := 0.0
			if sched.NeedsBudget(k, op.spec.Op.Hint) {
				budget = r.chunkBudget(op)
			}
			tasks := q.TakeBudget(k, budget, op.spec.Op.Hint)
			r.execChunk(gp, o, tasks, 0, false)
			return true
		}
	}
	return r.steal(gp, o, limit, open)
}

// steal takes a chunk of op o for gp from o's most loaded owner; under
// ModeStatic it takes a crashed owner's whole block, and nothing from a
// live one.
func (r *dagRun) steal(gp, o, limit, open int) bool {
	op := &r.ops[o]
	globalMean := op.tstats.Global.Mean()
	var tasks []int
	victim := -1
	if r.static {
		for v := range op.queues {
			if !r.fx.Crashed(op.procBase + v) {
				continue
			}
			if q := &op.queues[v]; q.EnabledPrefix(limit) > 0 {
				victim, tasks = v, q.Take(q.EnabledPrefix(limit), nil)
				break
			}
		}
	} else if victim = sched.Victim(op.queues, op.done, op.spent, globalMean, limit); victim >= 0 {
		vq := &op.queues[victim]
		k := min(r.taperChunk(gp, o, -1), open, vq.EnabledPrefix(limit))
		// A thief takes at most a fair per-processor share of the
		// operator's remaining work, and never more than half the
		// victim's queue.
		budget := 0.0
		if sched.NeedsBudget(k, op.spec.Op.Hint) {
			budget = sched.EstTotal(op.queues, op.done, op.spent, globalMean) / float64(r.live)
			if half := vq.EstRemaining(globalMean) / 2; half < budget {
				budget = half
			}
		}
		tasks = vq.TakeBudget(k, budget, op.spec.Op.Hint)
	}
	if victim < 0 {
		return false
	}
	gv := op.procBase + victim
	if r.rec != nil {
		r.rec.Steal(gp, gv, o, tasks[0], len(tasks), r.sim.Now())
		if r.fx.Crashed(gv) {
			// Re-assignment from a crashed owner is the recovery path:
			// its queued tasks are re-issued to a survivor.
			r.rec.Retry(gp, gv, o, tasks[0], len(tasks), r.sim.Now())
		}
	}
	r.res.Steals++
	r.res.Messages += 3
	cost := 2*r.cfg.MsgTime(gp, op.procBase, 16) +
		r.cfg.MsgTime(gv, gp, int64(len(tasks))*op.spec.Op.Bytes+32)
	r.execChunk(gp, o, tasks, cost, true)
	return true
}

// reallocSurvivors re-runs the allocation algorithm over the
// surviving processor set using the statistics measured so far, so
// the trace carries finishing-time estimates for the machine that is
// actually left (reallocation-on-loss).
func (r *dagRun) reallocSurvivors(gp int) {
	if r.rec == nil {
		return
	}
	r.rec.Realloc(gp, r.live, r.sim.Now())
	var rspecs []OpSpec
	var rnames []string
	for o := range r.ops {
		op := &r.ops[o]
		if op.unsched <= 0 {
			continue
		}
		s := op.spec
		if m := op.tstats.Global.Mean(); m > 0 {
			s.Mu = m
			s.Sigma = op.tstats.Global.StdDev()
		}
		rspecs = append(rspecs, s)
		rnames = append(rnames, r.f.Name(o))
	}
	if len(rspecs) > 0 {
		AllocateMany(r.cfg, rspecs, max(r.live, 1), r.rec, rnames...)
	}
}

// faulted consults the fault plan at processor gp's scheduling point
// and reports whether gp takes no chunk now (crashed or stalled).
func (r *dagRun) faulted(gp int) bool {
	d := r.fx.Begin(gp)
	if d.Crash {
		if d.Fresh {
			r.live--
			if r.rec != nil {
				r.rec.Fault(gp, gp, int(fault.Crash), r.sim.Now())
			}
			r.reallocSurvivors(gp)
		}
		// The dead processor's queued tasks stay stealable; idle
		// survivors must re-scan now that the pool shrank.
		r.wake()
		return true
	}
	if d.Stall > 0 {
		if r.rec != nil {
			r.rec.Fault(gp, gp, int(fault.Stall), r.sim.Now())
		}
		r.sim.AfterFn(d.Stall, r.nextFn, gp)
		return true
	}
	if d.Slow > 0 {
		r.slowF = d.Slow
		if d.Fresh && r.rec != nil {
			r.rec.Fault(gp, gp, int(fault.Slow), r.sim.Now())
		}
	}
	return false
}

// stopped reports that no processor takes another chunk: nothing is
// outstanding, the run failed, or its context was canceled. Processors
// just stop; once every in-flight chunk drains the event loop empties
// out.
func (r *dagRun) stopped() bool {
	return r.f.Outstanding() <= 0 || r.err != nil || (r.ctx != nil && r.ctx.Err() != nil)
}

// next is processor gp's scheduling point: after its own chunk, or
// after a stall.
func (r *dagRun) next(gp int) {
	if !r.stopped() {
		r.schedule(gp)
	}
}

// schedule is processor gp's scheduling decision: it takes a chunk or
// parks gp on the idle list.
func (r *dagRun) schedule(gp int) {
	r.slowF = 1.0
	if r.fx != nil && r.faulted(gp) {
		return
	}
	if r.held {
		r.idle = append(r.idle, gp)
		return
	}
	// Own operators first (locality): in topological order, the
	// first executable operator whose queue this processor owns.
	for o := range r.ops {
		if j := r.ownQueue(gp, o); j >= 0 && r.ops[o].queues[j].Remaining() > 0 {
			if r.open(o) > 0 && r.tryDispatch(gp, o) {
				return
			}
		}
	}
	bestOp, bestWork := -1, 0.0
	for o := range r.ops {
		op := &r.ops[o]
		if op.unsched <= 0 || r.open(o) <= 0 {
			continue
		}
		work := float64(op.unsched) * op.tstats.Global.Mean()
		if op.tstats.Global.N() == 0 {
			work = float64(op.unsched) * op.spec.Mu
		}
		if work > bestWork {
			bestWork = work
			bestOp = o
		}
	}
	if bestOp >= 0 {
		if r.tryDispatch(gp, bestOp) {
			return
		}
		// The best operator can refuse the dispatch even with its
		// gate open: hinted queues are expensive-first, not index-
		// ordered, so every gate-enabled task may sit behind a
		// blocked queue front. Parking here would stall the run —
		// nothing wakes an idle processor until some chunk
		// completes, and with one processor there is no other chunk
		// — so fall back to any other executable operator.
		for o := range r.ops {
			if o == bestOp || r.ops[o].unsched <= 0 || r.open(o) <= 0 {
				continue
			}
			if r.tryDispatch(gp, o) {
				return
			}
		}
	}
	r.idle = append(r.idle, gp)
}
