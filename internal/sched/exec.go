package sched

import (
	"fmt"

	"orchestra/internal/fault"
	"orchestra/internal/machine"
	"orchestra/internal/obs"
	"orchestra/internal/trace"
)

// Op is one data-parallel operation: N independent tasks with known
// (to the simulator, not the scheduler) execution times.
type Op struct {
	Name string
	N    int
	// Time gives the execution time of task i.
	Time func(i int) float64
	// TimeRange, when non-nil, executes tasks [lo, hi) in one call and
	// returns their summed time. It must be observationally identical
	// to calling Time for each i in [lo, hi): a kernel is written once,
	// as this range body, with Time(i) = TimeRange(i, i+1). Wall-clock
	// executors run a chunk through it, so a chunk costs no call per
	// task. The simulator ignores it.
	TimeRange func(lo, hi int) float64
	// Bytes is the data volume associated with one task; moving a task
	// off its owner costs a message of this size.
	Bytes int64
	// Hint, when non-nil, is the runtime's learned per-task cost
	// estimate — the cost function built by sampling prior executions
	// of the same parallel operation (§4.1.1: the runtime "does
	// additional sampling of task costs to build a cost function").
	// Applications in steady state (climate timesteps, reconstruction
	// sweeps) have warm hints; a first execution has none.
	Hint func(i int) float64
}

// TotalTime sums all task times (the sequential execution time). It
// obtains them by calling Time for every task, so it is for cost-only
// operations: on a binding whose Time runs a kernel body it executes
// every body. No executor calls it; they sum the costs their chunks
// observed (SeqTime).
func (op Op) TotalTime() float64 {
	t := 0.0
	for i := 0; i < op.N; i++ {
		t += op.Time(i)
	}
	return t
}

// SeqTime sums the task costs an executor recorded, cost[i] as task i's
// chunk ran, in task-index order: the operation's sequential execution
// time, bit for bit what TotalTime returns for the same costs however
// the schedule interleaved them.
func SeqTime(cost []float64) float64 {
	t := 0.0
	for _, c := range cost {
		t += c
	}
	return t
}

// BlockBounds returns the [lo, hi) range of tasks owned by processor j
// in a balanced block decomposition of n tasks over p processors:
// every block has ⌊n/p⌋ or ⌈n/p⌉ tasks.
func BlockBounds(j, n, p int) (lo, hi int) {
	if p < 1 {
		return 0, n
	}
	base := n / p
	rem := n % p
	lo = j*base + min(j, rem)
	hi = lo + base
	if j < rem {
		hi++
	}
	return lo, hi
}

// owner returns the balanced block-decomposition owner of task i among
// p processors (the owner-computes rule's initial data decomposition).
func owner(i, n, p int) int {
	if p <= 1 {
		return 0
	}
	base := n / p
	rem := n % p
	// The first rem blocks have base+1 tasks.
	boundary := rem * (base + 1)
	if i < boundary {
		return i / (base + 1)
	}
	if base == 0 {
		return p - 1
	}
	return rem + (i-boundary)/base
}

// ExecuteStatic runs op with a static block decomposition: processor j
// executes its owned block with no scheduling events and no data
// movement, then all processors synchronize. With tracing enabled, each
// processor's block appears as a single span — static execution has no
// scheduling events to record, so the span is the whole story.
func ExecuteStatic(cfg machine.Config, op Op, procs []int, ob obs.OpObs) trace.Result {
	p := len(procs)
	res := trace.Result{Name: "static/" + op.Name, Processors: p, Busy: make([]float64, p)}
	for i := 0; i < op.N; i++ {
		t := op.Time(i)
		res.Busy[owner(i, op.N, p)] += t
		res.SeqTime += t
	}
	if ob.On() {
		for j := 0; j < p; j++ {
			lo, hi := BlockBounds(j, op.N, p)
			if hi > lo {
				ob.R.Chunk(j, ob.Op, lo, hi-lo, ob.Base, ob.Base+res.Busy[j], false)
			}
		}
	}
	max := 0.0
	for _, b := range res.Busy {
		if b > max {
			max = b
		}
	}
	res.Makespan = max + cfg.BroadcastTime(p, 8) // completion barrier
	res.Chunks = p
	return res
}

// ExecuteCentral runs op with a central task queue owned by procs[0]:
// each processor repeatedly requests a chunk (round-trip message plus
// dispatch overhead), fetches non-local data, and executes. This is
// the centralized degenerate case of the distributed algorithm, used
// as an ablation baseline.
func ExecuteCentral(cfg machine.Config, op Op, procs []int, factory Factory, ob obs.OpObs) trace.Result {
	p := len(procs)
	sim := machine.NewSim(cfg)
	policy := factory()
	ts := NewTaskStats(op.N)
	res := trace.Result{
		Name:       policy.Name() + "-central/" + op.Name,
		Processors: p,
		Busy:       make([]float64, p),
	}

	next := 0
	cost := make([]float64, op.N)
	finish := make([]float64, p)
	qOwner := procs[0]

	var request func(j int)
	execChunk := func(j, lo, k int) {
		total := 0.0
		for i := lo; i < lo+k; i++ {
			t := op.Time(i)
			cost[i] = t
			ts.Observe(i, t)
			total += t
			if o := procs[owner(i, op.N, p)]; o != procs[j] {
				total += cfg.MsgTime(o, procs[j], op.Bytes)
				res.Messages++
			}
		}
		res.Busy[j] += total
		if ob.On() {
			ob.R.Chunk(j, ob.Op, lo, k, ob.Base+sim.Now(), ob.Base+sim.Now()+total, false)
		}
		sim.AfterFn(total, request, j)
	}
	// grant runs at the queue owner once processor j's request round
	// trip lands; it carries only j (closure-free AfterFn scheduling).
	grant := func(j int) {
		remaining := op.N - next
		if remaining <= 0 {
			finish[j] = sim.Now()
			return
		}
		k := policy.NextChunk(remaining, p, ts)
		if t, ok := policy.(*Taper); ok {
			k = clamp(t.ScaleChunk(k, next, ts), remaining)
		}
		if ob.On() {
			ob.R.Taper(j, ob.Op, remaining, k, int(ts.Global.N()),
				ts.Global.Mean(), ts.Global.StdDev(), ob.Base+sim.Now())
		}
		lo := next
		next += k
		res.Chunks++
		execChunk(j, lo, k)
	}
	request = func(j int) {
		cost := 2*cfg.MsgTime(procs[j], qOwner, 16) + cfg.SchedOverhead
		res.Messages += 2
		sim.AfterFn(cost, grant, j)
	}
	for j := 0; j < p; j++ {
		request(j)
	}
	sim.Run()
	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	res.SeqTime = SeqTime(cost)
	res.Makespan = max + cfg.BroadcastTime(p, 8)
	return res
}

// decompose builds the per-processor task queues the owner-computes
// rule starts from. With cost hints (a warm cost function) the
// decomposition is the runtime's refined one: contiguous blocks of
// approximately equal estimated cost, each processed most-expensive-
// first so stragglers start early. Without hints it is the balanced
// count-block decomposition in index order.
func Decompose(op Op, p int) []TaskQueue {
	queues := make([]TaskQueue, p)
	if op.Hint == nil {
		for j := 0; j < p; j++ {
			lo, hi := BlockBounds(j, op.N, p)
			tasks := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				tasks = append(tasks, i)
			}
			queues[j] = TaskQueue{tasks: tasks}
		}
		return queues
	}
	// Each hint is evaluated once: the split and the sort read h.
	h := make([]float64, op.N)
	total := 0.0
	for i := range h {
		h[i] = op.Hint(i)
		total += h[i]
	}
	target := total / float64(p)
	j := 0
	cum := 0.0
	for i, hi := range h {
		// Each processor's block ends at its global share boundary:
		// task i goes to the processor whose cumulative share covers
		// the task's midpoint, so rounding never accumulates into a
		// pile on the last processor.
		for j < p-1 && cum+hi/2 > target*float64(j+1) {
			j++
		}
		queues[j].tasks = append(queues[j].tasks, i)
		queues[j].remHint += hi
		cum += hi
	}
	for j := range queues {
		sortByHintDesc(queues[j].tasks, h)
	}
	return queues
}

// TaskQueue is one processor's remaining work: tasks[pos:] are
// unscheduled, and remHint tracks their total estimated cost.
type TaskQueue struct {
	tasks   []int
	pos     int
	remHint float64
}

// Remaining reports the number of unscheduled tasks.
func (q *TaskQueue) Remaining() int { return len(q.tasks) - q.pos }

// NextTask returns the next unscheduled task index; it panics on an
// empty queue.
func (q *TaskQueue) NextTask() int { return q.tasks[q.pos] }

// Take removes up to k tasks from the front of the queue (the most
// expensive remaining ones under a hinted decomposition).
func (q *TaskQueue) Take(k int, hint func(int) float64) []int {
	if k > q.Remaining() {
		k = q.Remaining()
	}
	out := q.tasks[q.pos : q.pos+k]
	q.pos += k
	if hint != nil {
		for _, i := range out {
			q.remHint -= hint(i)
		}
	}
	return out
}

// EnabledPrefix reports how many consecutive front tasks have index
// below limit — the dispatchable run of this queue under a pipelined
// gate that has enabled tasks [0, limit) of the operator. Queues hold
// block decompositions, so a dispatcher must check each queue's actual
// task indices against the gate: the gate is a task-index prefix, and
// handing out an arbitrary count of tasks from arbitrary queue fronts
// would run tasks the gate has not enabled.
func (q *TaskQueue) EnabledPrefix(limit int) int {
	c := 0
	for i := q.pos; i < len(q.tasks) && q.tasks[i] < limit; i++ {
		c++
	}
	return c
}

// EstRemaining estimates the queue's remaining execution time: the
// hint sum when available, otherwise count times the supplied rate.
func (q *TaskQueue) EstRemaining(rate float64) float64 {
	if q.remHint > 0 {
		return q.remHint
	}
	return float64(q.Remaining()) * rate
}

// TakeBudget removes up to k tasks from the front of the queue,
// additionally stopping once their cumulative hinted cost exceeds
// budget (always taking at least one). Re-assignment uses it so that a
// thief never walks away with several expensive tasks at once. Unless
// NeedsBudget(k, hint), budget is not read.
func (q *TaskQueue) TakeBudget(k int, budget float64, hint func(int) float64) []int {
	if hint == nil || budget <= 0 {
		return q.Take(k, hint)
	}
	if k > q.Remaining() {
		k = q.Remaining()
	}
	take := 0
	cost := 0.0
	for take < k {
		c := hint(q.tasks[q.pos+take])
		if take > 0 && cost+c > budget {
			break
		}
		cost += c
		take++
	}
	return q.Take(take, hint)
}

// NeedsBudget reports whether TakeBudget(k, budget, hint) can depend on
// budget: without hints it takes k tasks, and at k ≤ 1 it takes min(k,
// 1) whatever the budget. Callers compute a budget, an O(queues) sum,
// only when it does.
func NeedsBudget(k int, hint func(int) float64) bool { return k > 1 && hint != nil }

// sortByHintDesc orders tasks by h[task], largest first, stably.
func sortByHintDesc(tasks []int, h []float64) {
	// Insertion sort: queues are short (N/p tasks).
	for i := 1; i < len(tasks); i++ {
		for j := i; j > 0 && h[tasks[j]] > h[tasks[j-1]]; j-- {
			tasks[j], tasks[j-1] = tasks[j-1], tasks[j]
		}
	}
}

// Victim picks the queue a chunk re-assignment takes from, among one
// operation's queues: the non-empty queue with the largest estimated
// remaining time (ownerEst) whose front task the gate has enabled
// (index below limit), -1 when there is none. Any such queue
// qualifies: before the first sample every estimate is zero, and a
// strict greater-than would strand the tasks of an untouched
// operation, or of an owner that crashed before taking any. A queue
// whose front sits beyond the gate has nothing stealable right now,
// however much work it holds; an ungated caller passes the operation's
// task count.
func Victim(queues []TaskQueue, done []int, spent []float64, mean float64, limit int) int {
	victim, bestTime := -1, 0.0
	for v := range queues {
		q := &queues[v]
		if q.Remaining() == 0 || q.NextTask() >= limit {
			continue
		}
		if est := ownerEst(q, done[v], spent[v], mean); victim < 0 || est > bestTime {
			bestTime = est
			victim = v
		}
	}
	return victim
}

// EstTotal is the operation's estimated remaining time: the sum of
// ownerEst over every non-empty queue, gated or not, in queue order.
func EstTotal(queues []TaskQueue, done []int, spent []float64, mean float64) float64 {
	sum := 0.0
	for v := range queues {
		if q := &queues[v]; q.Remaining() > 0 {
			sum += ownerEst(q, done[v], spent[v], mean)
		}
	}
	return sum
}

// ownerEst is a queue's estimated remaining time: its hint sum, else
// its task count at its owner's observed rate (spent time over done
// tasks) where that exceeds the operation's mean, else at the mean.
func ownerEst(q *TaskQueue, done int, spent, mean float64) float64 {
	if q.remHint > 0 {
		return q.remHint
	}
	rate := mean
	if done > 0 && spent/float64(done) > rate {
		rate = spent / float64(done)
	}
	return float64(q.Remaining()) * rate
}

// ExecuteDistributed runs op with the paper's distributed scheme
// (§4.1.1): tasks start on their owners (owner-computes), each
// processor self-schedules chunks from its local queue using the
// policy's chunk rule, completion tokens flow up a binary tree, and a
// processor that exhausts its local work is re-assigned a chunk from
// the most loaded processor (by estimated remaining time), paying the
// task-transfer message cost. "If task costs are independent then we
// expect most tasks to remain on the processor owning them; thus, the
// algorithm reduces task transfer costs and maintains communication
// locality."
func ExecuteDistributed(cfg machine.Config, op Op, procs []int, factory Factory, ob obs.OpObs) trace.Result {
	// Only a crashed processor can strand work, and without a fault plan
	// none crashes.
	res, _ := ExecuteDistributedFault(cfg, op, procs, factory, ob, nil)
	return res
}

// ExecuteDistributedFault is ExecuteDistributed with a fault plan
// injected at every dispatch commitment: before a processor takes a
// chunk (from its own queue or a victim's), fx decides whether it
// crashes (stops dispatching forever; its queued tasks are recovered by
// the existing re-assignment scan), stalls (re-enters the dispatch loop
// after the stall), or runs slow (observed task times scale by the
// factor; computed values are untouched). Injection happens only at
// chunk boundaries, so every task still executes exactly once and
// results stay bitwise identical to a fault-free run. A nil fx is the
// fault-free fast path. A plan that leaves no processor to take the
// remaining tasks (fault.Plan.Validate rejects those) is an error, not
// a shorter run.
func ExecuteDistributedFault(cfg machine.Config, op Op, procs []int, factory Factory, ob obs.OpObs, fx *fault.Exec) (trace.Result, error) {
	p := len(procs)
	sim := machine.NewSim(cfg)
	policy := factory()
	ts := NewTaskStats(op.N)
	res := trace.Result{
		Name:       policy.Name() + "/" + op.Name,
		Processors: p,
		Busy:       make([]float64, p),
	}

	local := Decompose(op, p)
	remainingGlobal := op.N
	cost := make([]float64, op.N)
	finish := make([]float64, p)
	tree := NewTokenTree(p)
	// Observed per-processor progress (the token protocol's signal).
	done := make([]int, p)
	spent := make([]float64, p)

	// tokenCost is the CPU time a processor spends emitting its
	// completion token toward the tree root.
	tokenCost := 0.2 * cfg.MsgOverhead

	var next func(j int)
	// Per-processor pending-chunk context (one chunk in flight per
	// processor) for the allocation-free AfterFn scheduling path.
	pendK := make([]int, p)
	pendTotal := make([]float64, p)
	chunkDone := func(j int) {
		done[j] += pendK[j]
		spent[j] += pendTotal[j]
		next(j)
	}
	stolen := false
	slowF := 1.0
	execChunk := func(j int, tasks []int, transferCost float64) {
		total := transferCost
		for _, i := range tasks {
			// A slow fault scales only the observed cost: the kernel
			// (op.Time's side effect on real bindings) runs normally, so
			// computed values are untouched.
			cost[i] = op.Time(i)
			t := cost[i] * slowF
			ts.Observe(i, t)
			total += t
		}
		total += cfg.SchedOverhead + tokenCost
		_, epochEnd := tree.Token(j, cfg)
		res.Busy[j] += total
		remainingGlobal -= len(tasks)
		res.Chunks++
		if ob.On() {
			ob.R.Chunk(j, ob.Op, tasks[0], len(tasks), ob.Base+sim.Now(), ob.Base+sim.Now()+total, stolen)
			if epochEnd {
				ob.R.Epoch(j, ob.Op, tree.Epoch(), ob.Base+sim.Now())
			}
		}
		pendK[j], pendTotal[j] = len(tasks), total
		sim.AfterFn(total, chunkDone, j)
	}
	next = func(j int) {
		if remainingGlobal <= 0 {
			finish[j] = sim.Now()
			return
		}
		slowF = 1.0
		if fx != nil {
			d := fx.Begin(j)
			if d.Crash {
				if ob.On() {
					ob.R.Fault(j, j, int(fault.Crash), ob.Base+sim.Now())
				}
				finish[j] = sim.Now()
				return
			}
			if d.Stall > 0 {
				if ob.On() {
					ob.R.Fault(j, j, int(fault.Stall), ob.Base+sim.Now())
				}
				sim.AfterFn(d.Stall, next, j)
				return
			}
			if d.Slow > 0 {
				slowF = d.Slow
				if d.Fresh && ob.On() {
					ob.R.Fault(j, j, int(fault.Slow), ob.Base+sim.Now())
				}
			}
		}
		q := &local[j]
		if q.Remaining() > 0 {
			k := policy.NextChunk(remainingGlobal, p, ts)
			if t, ok := policy.(*Taper); ok {
				k = clamp(t.ScaleChunk(k, q.NextTask(), ts), remainingGlobal)
			}
			if ob.On() {
				ob.R.Taper(j, ob.Op, remainingGlobal, k, int(ts.Global.N()),
					ts.Global.Mean(), ts.Global.StdDev(), ob.Base+sim.Now())
			}
			// Budget the chunk in time — the per-task-grained form of
			// the cost-function scaling s = μg/μc — so one chunk never
			// collects several expensive tasks. The budget is the
			// hint-estimated remaining work per processor.
			budget := 0.0
			if NeedsBudget(k, op.Hint) {
				for v := 0; v < p; v++ {
					budget += local[v].EstRemaining(0)
				}
				budget /= float64(p)
			}
			stolen = false
			execChunk(j, q.TakeBudget(k, budget, op.Hint), 0)
			return
		}
		// Local queue empty: ask the root to re-assign a chunk from the
		// most loaded processor (the epoch mechanism's chunk
		// re-assignment). Load is the estimated remaining time, from
		// hints when present, else the observed per-processor rate the
		// token protocol reports.
		globalMean := ts.Global.Mean()
		victim := Victim(local, done, spent, globalMean, op.N)
		if victim < 0 {
			// Nothing left anywhere; wait for stragglers to finish
			// their running chunks.
			finish[j] = sim.Now()
			return
		}
		k := policy.NextChunk(remainingGlobal, p, ts)
		if ob.On() {
			ob.R.Taper(j, ob.Op, remainingGlobal, k, int(ts.Global.N()),
				ts.Global.Mean(), ts.Global.StdDev(), ob.Base+sim.Now())
		}
		budget := local[victim].EstRemaining(globalMean) / 2
		tasks := local[victim].TakeBudget(k, budget, op.Hint)
		res.Steals++
		res.Messages += 3
		if ob.On() {
			ob.R.Steal(j, victim, ob.Op, tasks[0], len(tasks), ob.Base+sim.Now())
			if fx.Crashed(victim) {
				// Re-assignment from a crashed owner is the recovery path:
				// its queued tasks are re-issued to a survivor.
				ob.R.Retry(j, victim, ob.Op, tasks[0], len(tasks), ob.Base+sim.Now())
			}
		}
		// Round trip to the root plus the task+data transfer.
		cost := 2*cfg.MsgTime(procs[j], procs[0], 16) +
			cfg.MsgTime(procs[victim], procs[j], int64(len(tasks))*op.Bytes+32)
		stolen = true
		execChunk(j, tasks, cost)
	}
	for j := 0; j < p; j++ {
		sim.AfterFn(0, next, j)
	}
	sim.Run()
	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	// Each completed epoch's broadcast adds root latency; the final
	// barrier synchronizes completion.
	res.Messages += tree.Messages
	res.Makespan = max + float64(tree.Broadcasts)*0.1*cfg.HopLatency + cfg.BroadcastTime(p, 8)
	if remainingGlobal > 0 {
		return res, fmt.Errorf("sched: %s stalled with %d tasks outstanding", op.Name, remainingGlobal)
	}
	res.SeqTime = SeqTime(cost)
	return res, nil
}
