package rts

import (
	"fmt"

	"orchestra/internal/machine"
	"orchestra/internal/sched"
	"orchestra/internal/trace"
)

// ExecuteConcurrent co-schedules several parallel operations on one
// machine. Each operation receives the processor subset the allocation
// chose; tasks start on their owners (owner-computes, with the
// runtime's cost-refined decomposition when hints are warm); a
// processor whose operation has no unscheduled work left is
// re-assigned chunks from the most loaded processor — first within its
// own operation, then from any concurrent operation. This is the
// runtime behaviour split enables: "a runtime scheduler can use the
// additional parallelism of one sub-computation to compensate for
// communication constraints or load imbalance in the other."
func ExecuteConcurrent(cfg machine.Config, specs []OpSpec, alloc []int, factory sched.Factory) trace.Result {
	if len(specs) != len(alloc) {
		panic("rts: specs/alloc length mismatch")
	}
	totalP := 0
	for _, a := range alloc {
		totalP += a
	}
	sim := machine.NewSim(cfg)
	res := trace.Result{Name: "concurrent", Processors: totalP, Busy: make([]float64, totalP)}

	nOps := len(specs)
	queues := make([][]sched.TaskQueue, nOps) // one queue per owning processor
	remaining := make([]int, nOps)            // unscheduled tasks per op
	tstats := make([]*sched.TaskStats, nOps)
	policies := make([]sched.Policy, nOps)
	opOfProc := make([]int, totalP) // which op a processor belongs to
	localIdx := make([]int, totalP) // processor's index within its op
	procBase := make([]int, nOps)   // first global proc id of each op
	cost := make([][]float64, nOps) // per task, recorded as its chunk runs

	proc := 0
	for o, spec := range specs {
		cost[o] = make([]float64, spec.Op.N)
		p := alloc[o]
		if p < 1 && spec.Op.N > 0 {
			panic(fmt.Sprintf("rts: op %d has %d tasks but no processors", o, spec.Op.N))
		}
		procBase[o] = proc
		queues[o] = sched.Decompose(spec.Op, p)
		remaining[o] = spec.Op.N
		tstats[o] = sched.NewTaskStats(spec.Op.N)
		policies[o] = factory()
		for j := 0; j < p; j++ {
			opOfProc[proc] = o
			localIdx[proc] = j
			proc++
		}
	}

	finish := make([]float64, totalP)
	tokenCost := 0.2 * cfg.MsgOverhead
	// Observed per-processor progress (token information).
	done := make([][]int, nOps)
	spent := make([][]float64, nOps)
	for o := range specs {
		done[o] = make([]int, len(queues[o]))
		spent[o] = make([]float64, len(queues[o]))
	}

	var next func(g int)
	// Per-processor pending-chunk context: a processor has at most one
	// chunk in flight, so completion state lives in these slots instead
	// of a per-event closure (the allocation-free AfterFn path).
	pendOp := make([]int, totalP)
	pendK := make([]int, totalP)
	pendTotal := make([]float64, totalP)
	chunkDone := func(g int) {
		o := pendOp[g]
		if o == opOfProc[g] {
			done[o][localIdx[g]] += pendK[g]
			spent[o][localIdx[g]] += pendTotal[g]
		}
		next(g)
	}
	execChunk := func(g, o int, tasks []int, transferCost float64) {
		spec := specs[o]
		total := transferCost
		for _, i := range tasks {
			t := spec.Op.Time(i)
			cost[o][i] = t
			tstats[o].Observe(i, t)
			total += t
		}
		total += cfg.SchedOverhead + tokenCost
		res.Messages++
		res.Busy[g] += total
		remaining[o] -= len(tasks)
		res.Chunks++
		pendOp[g], pendK[g], pendTotal[g] = o, len(tasks), total
		sim.AfterFn(total, chunkDone, g)
	}
	// steal finds the most loaded processor of op o (by estimated
	// remaining time) and re-assigns a chunk to global processor g. It
	// reports false when op o has no unscheduled work.
	steal := func(g, o int) bool {
		globalMean := tstats[o].Global.Mean()
		victim := sched.MostLoaded(queues[o], done[o], spent[o], globalMean)
		if victim < 0 {
			return false
		}
		pol := policies[o]
		k := pol.NextChunk(remaining[o], totalP, tstats[o])
		budget := queues[o][victim].EstRemaining(globalMean) / 2
		tasks := queues[o][victim].TakeBudget(k, budget, specs[o].Op.Hint)
		res.Steals++
		res.Messages += 3
		cost := 2*cfg.MsgTime(g, procBase[o], 16) +
			cfg.MsgTime(procBase[o]+victim, g, int64(len(tasks))*specs[o].Op.Bytes+32)
		execChunk(g, o, tasks, cost)
		return true
	}
	next = func(g int) {
		o := opOfProc[g]
		j := localIdx[g]
		// Own queue first.
		if q := &queues[o][j]; q.Remaining() > 0 {
			pol := policies[o]
			k := pol.NextChunk(remaining[o], len(queues[o]), tstats[o])
			if t, ok := pol.(*sched.Taper); ok {
				k = clampInt(t.ScaleChunk(k, q.NextTask(), tstats[o]), remaining[o])
			}
			execChunk(g, o, q.Take(k, specs[o].Op.Hint), 0)
			return
		}
		// Own op, other processors.
		if remaining[o] > 0 && steal(g, o) {
			return
		}
		// Any concurrent op with work left.
		for oo := range specs {
			if oo != o && remaining[oo] > 0 && steal(g, oo) {
				return
			}
		}
		// No queue holds a task: whatever remains is in flight on the
		// processor that took it, and this one is done.
		finish[g] = sim.Now()
	}

	for g := 0; g < totalP; g++ {
		sim.AfterFn(0, next, g)
	}
	sim.Run()

	max := 0.0
	for _, f := range finish {
		if f > max {
			max = f
		}
	}
	for o := range cost {
		res.SeqTime += sched.SeqTime(cost[o])
	}
	res.Makespan = max + cfg.BroadcastTime(totalP, 8)
	res.Name = fmt.Sprintf("concurrent-%d-ops", nOps)
	return res
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func clampInt(k, max int) int {
	if k < 1 {
		return 1
	}
	if k > max {
		return max
	}
	return k
}
